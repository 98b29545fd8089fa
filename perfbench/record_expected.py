"""Record the expected outcome of every op into perfbench/expected.json.

    python3 perfbench/record_expected.py

Run from the root of a checkout whose reports are known to be right (the
table in the repository was recorded at the commit that added the
benchmark).  Every op of every workload runs once, with the synthetic
instances of the default and the held-out seed; the exit code and the
digest of the canonical report are stored per op.  The known gaps, which
do not finish at that commit, are stored with exit 0 and no digest, so
only their closed form is checked once they do finish.
"""

import json
import os
import signal
import sys
from pathlib import Path

import checks
import workloads
from worker import OpTimeout, _alarm

ROOT = Path(__file__).resolve().parent.parent


def all_ops():
    ops = {"bundled-exact": workloads.bundled_exact_ops(),
           "oracle-scan": workloads.oracle_scan_ops(ROOT), "synthetic-ci": []}
    for seed in (workloads.DEFAULT_SYNTHETIC_SEED, workloads.HELD_OUT_SYNTHETIC_SEED):
        ops["synthetic-ci"] += workloads.synthetic_ci_ops(ROOT, seed)
    return ops


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from seshadri import cli

    signal.signal(signal.SIGALRM, _alarm)
    table = {}
    for workload, ops in all_ops().items():
        limit_s = workloads.TIME_LIMIT_S[workload]
        for argv in ops:
            key = checks.op_key(argv)
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                report, code, _ = cli.run(argv)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                report, code = None, None
            refused = code == 3 and any(
                text in report["error"]["message"] for text in checks.CAPACITY_MESSAGES
            )
            if key in workloads.KNOWN_GAPS:
                if report is not None and not refused:
                    sys.exit(f"known gap {key!r} finished; drop it from KNOWN_GAPS")
                table[key] = {"exit": 0, "digest": None}
            elif report is None or refused:
                sys.exit(f"{key!r} did not finish within {limit_s} s")
            else:
                table[key] = {"exit": code, "digest": checks.digest(report)}
            print(f"{key}: {table[key]}", flush=True)
    payload = {"ops": table}
    checks.EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
