"""Smoke test of the harness: one op per workload, both trace modes.

    python3 perfbench/smoke.py        (or: python3 -m pytest perfbench/smoke.py)

Checks that the result line has exactly the contract's keys and that
every metric BENCHMARK.json names is printed with its unit.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def result_line(workload, trace):
    ops = workloads.ops_for(workload, run.ROOT, workloads.DEFAULT_SYNTHETIC_SEED)[:1]
    argv = ["--workload", workload, "--seed", str(workloads.DEFAULT_SYNTHETIC_SEED),
            "--seconds", "0", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, ops=ops)
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    return json.loads(out.getvalue().splitlines()[-1])


def check_workload(workload):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = result_line(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
        assert line["correct"] is True and line["attempted"] == 1 and line["failed"] == 0
        names = [m["name"] for m in spec[key]]
        assert list(line["metrics"]) == names, (workload, trace)
        for m in spec[key]:
            printed = line["metrics"][m["name"]]
            assert printed["unit"] == m["unit"], (m["name"], printed)
            assert isinstance(printed["value"], (int, float)), (m["name"], printed)


def test_bundled_exact():
    check_workload("bundled-exact")


def test_synthetic_ci():
    check_workload("synthetic-ci")


def test_oracle_scan():
    check_workload("oracle-scan")


if __name__ == "__main__":
    for workload in workloads.WORKLOADS:
        check_workload(workload)
        print(f"{workload}: ok")
