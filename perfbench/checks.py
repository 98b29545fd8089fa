"""Expected outcome of every op, and the check of an actual outcome.

An op's expectation has up to three parts:
- the exit code;
- the SHA-256 digest of its canonical JSON report (the bytes `seshadri
  --json` writes), recorded in `expected.json` at the seed commit;
- a closed form from the paper where one applies: the certificate ratio
  d/(d-1) for `sharpness n d`; the bound and epsilon d_r/(d_r-1) for the
  synthetic complete intersections; (q+1)(q^2+q+1) lines through a point
  of Gr(2,5) over F_q, since those lines form P^1 x P^2.

Documented rejections (exit 2 or 3) are expected outcomes like any other.
An op whose expectation is exit 0 but which has never finished (a known
gap at the seed commit) has no digest, only its closed form.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import WORK_DIR

EXPECTED_PATH = Path(__file__).with_name("expected.json")

OK = "ok"
WRONG = "wrong"  # a report or exit code other than the expected one
TIMEOUT = "timeout"  # hit the per-op time limit
REFUSED = "refused"  # refused by a capacity limit of the program
INTERNAL = "internal"  # exit 4
CRASH = "crash"  # an exception escaped seshadri.cli.run

# outcomes that count as failed but leave the outputs correct
HONEST_FAILURES = (TIMEOUT, REFUSED)

# message of the oracle's direction-count limit (`ENUMERATION_LIMIT`)
CAPACITY_MESSAGES = ("exceed the enumeration limit",)


def op_key(argv):
    return " ".join(argv)


def canonical(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def digest(report):
    return hashlib.sha256(canonical(report).encode("utf-8")).hexdigest()


def load_expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["ops"]


def _fraction_string(d):
    return str(Fraction(d, d - 1))


def _fields(report, *keys):
    return tuple(report["result"]["seshadri"][k] for k in keys)


def closed_form(argv, root):
    """(exit code, predicate on the report) from a closed form, or None."""
    command = argv[0]
    if command == "sharpness":
        ratio = _fraction_string(int(argv[2]))
        return 0, lambda r: r["result"]["certificate"]["ratio"] == ratio
    if command == "oracle" and argv[1].endswith("/gr25-pluecker.json"):
        q = int(argv[argv.index("--primes") + 1])
        lines = (q + 1) * (q * q + q + 1)
        return 0, lambda r: r["result"]["oracle"][str(q)]["line_count"] == lines
    if command in ("bound", "classify") and argv[1].startswith(WORK_DIR + "/"):
        raw = json.loads((Path(root) / argv[1]).read_text(encoding="utf-8"))
        n = len(raw["variables"]) - 1
        degrees = [entry["degree"] for entry in raw["cutting"]]
        d_r = degrees[-1]
        value = _fraction_string(d_r)
        # A random draw can have a line through p (for a sum of degrees n
        # that is a codimension-one condition); a line pins epsilon to 1.
        if command == "bound":
            return 0, lambda r: _fields(r, "status", "lower_bound", "cut_out_degree") in (
                ("LOWER_BOUND_ONLY", value, d_r), ("LINE_FOUND", "1", None)
            )
        # the lines through p on P^n form P^(n-1); hypothesis (ii) of the
        # classification needs sum of degrees <= (n - 1) + 1
        if sum(degrees) <= n:
            return 0, lambda r: _fields(r, "status", "epsilon", "lower_bound") in (
                ("EXACT", value, value), ("LINE_FOUND", "1", "1")
            )
        return 2, lambda r: r["error"]["condition"] == "ii"
    return None


class Expectations:
    """Looks up and checks the expected outcome of each op."""

    def __init__(self, root):
        self.root = root
        self.table = load_expected()

    def check(self, argv, code, report):
        """Outcome of a finished op: OK, WRONG, REFUSED or INTERNAL."""
        recorded = self.table.get(op_key(argv))
        form = closed_form(argv, self.root)
        if recorded is None and form is None:
            raise KeyError(f"no expected outcome for {op_key(argv)!r}")
        want = recorded["exit"] if recorded is not None else form[0]
        good = code == want
        if good and recorded is not None and recorded["digest"] is not None:
            good = digest(report) == recorded["digest"]
        if good and form is not None:
            try:
                good = code == form[0] and form[1](report)
            except (KeyError, TypeError):
                good = False
        if good:
            return OK
        if code == 4:
            return INTERNAL
        message = report.get("error", {}).get("message", "")
        if code == 3 and any(text in message for text in CAPACITY_MESSAGES):
            return REFUSED
        return WRONG
