"""The reach checks: every row of `reach/ops.json` is one `seshadri` command
run in process, with its time limit, exit code, report fields and debug
lines.  Adding a check means adding a row.

A row's keys:
- `why`: what the row checks;
- `argv`: the command line, with paths relative to the checkout root;
- `limit_s`: the most seconds the command may take;
- `exit`: its exit code;
- `result` (optional): dotted paths into the JSON report, each with its
  value, e.g. `result.certificate.ratio` or `error.condition`;
- `log` / `no_log` (optional): regexes that some / no debug message of the
  `seshadri` loggers matches (`re.search`).
"""

import json
import logging
import re
import time
from pathlib import Path

import pytest

from seshadri.cli import run

ROOT = Path(__file__).parent.parent
OPS = json.loads((Path(__file__).parent / "reach" / "ops.json").read_text(encoding="utf-8"))
REQUIRED = {"why", "argv", "limit_s", "exit"}
OPTIONAL = {"result", "log", "no_log"}


def _lookup(report, path):
    value = report
    for key in path.split("."):
        assert isinstance(value, dict) and key in value, f"{path}: not in the report"
        value = value[key]
    return value


def check(row, report, code, messages, elapsed):
    """Assert that one run of `row` gave what the row says: `report` as the
    JSON that `--json` writes, the exit code, the debug messages and the
    wall time."""
    keys = set(row)
    assert REQUIRED <= keys <= REQUIRED | OPTIONAL, f"row keys {sorted(keys)}"
    assert code == row["exit"], (code, report.get("error"))
    for path, value in row.get("result", {}).items():
        assert _lookup(report, path) == value, path
    for pattern in row.get("log", []):
        assert any(re.search(pattern, m) for m in messages), f"no debug line matches {pattern!r}"
    for pattern in row.get("no_log", []):
        assert not any(re.search(pattern, m) for m in messages), f"a debug line matches {pattern!r}"
    assert elapsed <= row["limit_s"], f"{elapsed:.2f} s > {row['limit_s']} s"


@pytest.mark.parametrize("row", OPS, ids=[" ".join(row["argv"]) for row in OPS])
def test_reach(row, caplog, monkeypatch):
    monkeypatch.chdir(ROOT)
    caplog.set_level(logging.DEBUG, logger="seshadri")
    started = time.monotonic()
    report, code, _ = run(row["argv"])
    elapsed = time.monotonic() - started
    messages = [r.getMessage() for r in caplog.records if r.name.startswith("seshadri")]
    check(row, json.loads(json.dumps(report)), code, messages, elapsed)


def test_every_data_file_has_a_row():
    used = {arg for row in OPS for arg in row["argv"]}
    for path in (ROOT / "tests" / "data").glob("*.json"):
        assert path.relative_to(ROOT).as_posix() in used, path.name


GOOD = {"why": "a row", "argv": ["dp", "x.json"], "limit_s": 1, "exit": 0,
        "result": {"result.cut_out_degree": 4}}
RUN = ({"result": {"cut_out_degree": 4}}, 0, ["mod 32003"], 0.9)


@pytest.mark.parametrize("bad", [
    {**GOOD, "results": {"result.cut_out_degree": 4}},
    {**GOOD, "result": {"result.cut_out_degre": 4}},
    {**GOOD, "result": {"result.cut_out_degree.value": 4}},
    {**GOOD, "result": {"result.cut_out_degree": 5}},
    {**GOOD, "log": ["certified"]},
    {**GOOD, "no_log": ["mod 32003"]},
    {**GOOD, "exit": 3},
    {**GOOD, "limit_s": 0.5},
    {key: value for key, value in GOOD.items() if key != "limit_s"},
])
def test_a_bad_row_fails(bad):
    check(GOOD, *RUN)
    with pytest.raises(AssertionError):
        check(bad, *RUN)
