"""Benchmark worker: one fresh interpreter that runs ops in a closed loop.

Started by run.py with the checkout root as working directory.  It
imports `seshadri` from the checkout's `src/`, prints `ready` and a probe
of the CPU speed (see probe.py), and then reads one JSON spec from stdin.  At end of input it exits at once (a
set-up probe).  Otherwise it runs the spec's ops one at a time, each
through `seshadri.cli.run` and each under the per-op time limit, and
prints one JSON line with a record per op.

Spec keys: `ops` (argv lists), `limit_s`, `seconds` (time budget) and
`trace` (one untraced pass, then traced passes).
"""

import importlib
import json
import os
import resource
import signal
import sys
import time

import checks
import probe
from tracer import Tracer


class OpTimeout(BaseException):
    """Raised by SIGALRM; not an Exception, so no handler in seshadri
    can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(cli, argv, limit_s, expectations):
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        report, code, _ = cli.run(argv)
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    except OpTimeout:
        return {"seconds": limit_s, "outcome": checks.TIMEOUT, "exit": None}
    except (Exception, SystemExit) as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return {
            "seconds": time.perf_counter() - start,
            "outcome": checks.CRASH,
            "exit": None,
            "detail": f"{type(exc).__name__}: {exc}",
        }
    outcome = expectations.check(argv, code, report)
    record = {"seconds": seconds, "outcome": outcome, "exit": code}
    if outcome != checks.OK:
        record["digest"] = checks.digest(report)
        record["detail"] = report.get("error", {}).get("message", "")
    return record


# CPU seconds between two probes while an op runs
PROBE_PERIOD_S = 0.05


class SpeedSampler:
    """Probes the CPU speed before, during and after an op.

    During the op a SIGPROF handler runs the probe every PROBE_PERIOD_S of
    CPU time; the time spent in the handler is taken off the op's time.
    """

    def __init__(self):
        self.probes = []
        self.spent_s = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.probes.append(probe.measure())
        self.spent_s += time.perf_counter() - start

    def run(self, cli, argv, limit_s, expectations):
        """run_op with `probe`, the mean of the probes, in its record."""
        self.probes = [probe.measure()]
        self.spent_s = 0.0
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            record = run_op(cli, argv, limit_s, expectations)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
        if record["outcome"] != checks.TIMEOUT:
            record["seconds"] -= self.spent_s
        self.probes.append(probe.measure())
        record["probe"] = sum(self.probes) / len(self.probes)
        return record


def run_pass(cli, ops, limit_s, expectations, tracer):
    records = []
    for argv in ops:
        if tracer is not None:
            tracer.op_calls.clear()
        record = run_op(cli, argv, limit_s, expectations)
        if tracer is not None:
            record["calls"] = dict(tracer.op_calls)
        records.append(record)
    return records


# every op that is cheap enough runs at least this often
MIN_RUNS = 3
MIN_RUNS_WITHIN_S = 1.0


def run_repeats(cli, ops, limit_s, seconds, expectations):
    """Every op in order, then repeats in rounds.

    First each op that ran for less than MIN_RUNS_WITHIN_S in all runs
    again until it has MIN_RUNS runs, whatever the budget.  Then, while
    the budget lasts, rounds go cheapest first and stop at the first op
    that would end past `seconds`, so short ops, whose times vary most,
    get the most samples.  Every run carries the mean of the CPU-speed
    probes taken before, during and after it.  An op fails if any of its runs fails, and a failed op is
    not run again.
    """
    started = time.perf_counter()
    sampler = SpeedSampler()
    records = [sampler.run(cli, argv, limit_s, expectations) for argv in ops]
    for record in records:
        record["samples"] = [record["seconds"]]
        record["probes"] = [record.pop("probe")]

    def ok(i):
        return records[i]["outcome"] == checks.OK

    def again(i):
        run = sampler.run(cli, ops[i], limit_s, expectations)
        samples = records[i]["samples"] + [run["seconds"]]
        probes = records[i]["probes"] + [run.pop("probe")]
        if run["outcome"] != checks.OK:
            records[i] = run
        records[i]["samples"] = samples
        records[i]["probes"] = probes

    def short(i):
        samples = records[i]["samples"]
        return ok(i) and len(samples) < MIN_RUNS and sum(samples) < MIN_RUNS_WITHIN_S

    while any(map(short, range(len(ops)))):
        for i in filter(short, range(len(ops))):
            again(i)

    order = sorted(filter(ok, range(len(ops))), key=lambda i: records[i]["samples"][0])
    while order:
        for i in order:
            if time.perf_counter() - started + records[i]["samples"][0] > seconds:
                return records
            again(i)
        order = list(filter(ok, order))
    return records


def run_traced(cli, ops, limit_s, seconds, expectations):
    """Whole traced passes, each with its own tracer, until the next one
    would end past `seconds`; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        try:
            records = run_pass(cli, ops, limit_s, expectations, tracer)
        finally:
            tracer.uninstall()
        passes.append({"records": records, **tracer.summary()})
        now = time.perf_counter()
        if now - started + (now - pass_start) > seconds:
            return passes


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    cli = importlib.import_module("seshadri.cli")
    if not cli.__file__.startswith(os.path.join(root, "src", "")):
        sys.exit(f"seshadri was imported from {cli.__file__}, not from {root}/src")
    print("ready", flush=True)  # set-up ends here
    print(probe.measure(), flush=True)  # CPU speed just after set-up

    line = sys.stdin.readline()
    if not line:
        return 0
    spec = json.loads(line)
    signal.signal(signal.SIGALRM, _alarm)
    expectations = checks.Expectations(root)
    ops, limit_s, seconds = spec["ops"], spec["limit_s"], spec["seconds"]
    out = {}
    if spec["trace"]:
        out["ops"] = run_pass(cli, ops, limit_s, expectations, None)
        seconds = max(0.0, seconds - sum(r["seconds"] for r in out["ops"]))
        out["traced"] = run_traced(cli, ops, limit_s, seconds, expectations)
    else:
        out["ops"] = run_repeats(cli, ops, limit_s, seconds, expectations)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
