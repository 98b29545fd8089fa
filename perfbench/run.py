"""Benchmark of the exact Seshadri toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload bundled-exact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Ops are `seshadri` command lines, run
through `seshadri.cli.run` one at a time by a single worker process (a
closed loop with one client).  Each op loads its instance file afresh.
The worker runs every op once, then repeats ops, cheapest first, for
about `--seconds` in all.  The CPU speed is probed before, during and
after each run (probe.py); an op's latency is the median of its runs
scaled to a reference speed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs one untraced pass and then traced passes, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  A record of the run
(per-op outcomes, environment, seeds) is written under
`.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import probe
import workloads
from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7  # fresh interpreters timed per run, besides the measuring one
RUN_DEADLINE_S = 170  # the whole run must end well within 180 s
SPANS = {f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns}


class BenchError(Exception):
    pass


# -- worker processes --------------------------------------------------------------


def start_worker():
    """Start a worker; returns it and the seconds until it was ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError("worker did not start (is src/seshadri in the checkout?)")
    try:
        probe_s = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.wait()
        raise BenchError("worker failed after start") from None
    return proc, probe.scale(ready_s, probe_s)


def time_setup():
    proc, ready_s = start_worker()
    proc.stdin.close()
    proc.wait(timeout=30)
    return ready_s


def measure(ops, limit_s, seconds, trace, deadline):
    """Run the ops in one worker; returns its output and its set-up time."""
    proc, ready_s = start_worker()
    spec = {"ops": ops, "limit_s": limit_s, "seconds": seconds, "trace": trace}
    try:
        out, _ = proc.communicate(
            json.dumps(spec) + "\n", timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker overran the run deadline") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready_s


# -- end-to-end figures --------------------------------------------------------------


def latency(record):
    """Median over an op's runs of its time scaled to reference speed; a
    traced pass has one unscaled run per op."""
    if "probes" not in record:
        return record["seconds"]
    return statistics.median(map(probe.scale, record["samples"], record["probes"]))


def charged(records, limit_s):
    """Op latencies, with every failed op charged the time limit."""
    return [latency(r) if r["outcome"] == checks.OK else limit_s for r in records]


def tail_index(n):
    """Index, in sorted order, of the highest percentile with at least ten
    of n latencies beyond it (the maximum when n is ten or less)."""
    return n - 11 if n > 10 else n - 1


def end_to_end(result, limit_s, setup_samples):
    records = result["ops"]
    times = sorted(charged(records, limit_s))
    ok = sum(r["outcome"] == checks.OK for r in records)
    return {
        "setup_s": statistics.median(setup_samples),
        "workload_s": sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * times[tail_index(len(times))],
        "ok_frac": ok / len(records),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


# -- per-layer figures -------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_figures(trace, ops, limit_s, untraced_s, names):
    """Every named per-layer metric of one traced pass."""
    spans, counts, maxima = trace["spans"], trace["counts"], trace["maxima"]
    records = trace["records"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    classify_calls = [
        r["calls"].get("geometry.cut_out_degree", 0)
        for argv, r in zip(ops, records)
        if argv[0] == "classify" and r["exit"] == 0
    ]
    derived = {
        "groebner.spairs": span("groebner.s_polynomial", "calls"),
        "groebner.spair_zero_frac": _ratio(
            counts.get("nf_zero_in_buchberger", 0), counts.get("nf_in_buchberger", 0)
        ),
        "groebner.basis_size_max": maxima.get("basis_size", 0),
        "groebner.coeff_bits_max": maxima.get("coeff_bits", 0),
        "groebner.basis_cache_hit_frac": _ratio(
            counts.get("basis_hits", 0), counts.get("basis_lookups", 0)
        ),
        "geometry.cut_out_degree.calls_per_classify": _ratio(
            sum(classify_calls), len(classify_calls)
        ),
        "oracle.directions_computed": counts.get("directions", 0),
        "oracle.directions_per_s": _ratio(
            counts.get("directions", 0), span("oracle.count_lines_mod_q", "self_s")
        ),
        "oracle.enum_refused": counts.get("enum_refused", 0),
        "oracle.conic_attempts": counts.get("conic_attempts", 0),
        "oracle.conic_found_frac": _ratio(
            counts.get("conic_found", 0), counts.get("conic_searches", 0)
        ),
        "trace.overhead_s": sum(charged(records, limit_s)) - untraced_s,
    }

    figures = {}
    for metric in names:
        name, _, field = metric.rpartition(".")
        if metric in derived:
            figures[metric] = derived[metric]
        elif name in SPANS and field in ("calls", "self_s", "total_s"):
            figures[metric] = span(name, field)
        else:
            raise BenchError(f"no per-layer figure named {metric!r}")
    return figures


def per_layer(result, ops, limit_s, names):
    """Each per-layer metric as its median over the traced passes."""
    untraced_s = sum(charged(result["ops"], limit_s))
    figures = [layer_figures(t, ops, limit_s, untraced_s, names) for t in result["traced"]]
    return {name: statistics.median(f[name] for f in figures) for name in names}


def self_time_ranking(result):
    """Span names by median self time over the traced passes."""
    traced = result["traced"]
    names = {n for t in traced for n in t["spans"]}
    ranked = {
        n: statistics.median(t["spans"].get(n, {}).get("self_s", 0.0) for t in traced)
        for n in names
    }
    return sorted(ranked.items(), key=lambda kv: -kv[1])


# -- environment -------------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seshadri").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def environment(args):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seeds": {
            "seed": args.seed,
            "synthetic_default": workloads.DEFAULT_SYNTHETIC_SEED,
            "synthetic_held_out": workloads.HELD_OUT_SYNTHETIC_SEED,
        },
    }


# -- main --------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SYNTHETIC_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run(args, ops=None):
    """Run one benchmark; returns (result line dict, run record)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (ROOT / "src" / "seshadri" / "cli.py").is_file():
        raise BenchError(f"no seshadri sources under {ROOT / 'src'}")
    specs = metric_specs(args.trace)
    if ops is None:
        ops = workloads.ops_for(args.workload, ROOT, args.seed)
    limit_s = workloads.TIME_LIMIT_S[args.workload]

    time_setup()  # warm-up: byte-compiles the sources once, not counted
    setup_samples = [time_setup() for _ in range(SETUP_RUNS)]
    result, ready_s = measure(ops, limit_s, args.seconds, bool(args.trace), deadline)
    setup_samples.append(ready_s)

    if args.trace:
        values = per_layer(result, ops, limit_s, [m["name"] for m in specs])
    else:
        values = end_to_end(result, limit_s, setup_samples)
    # an op fails if any of its runs failed, traced runs included
    runs = [[r] for r in result["ops"]]
    for traced in result.get("traced", []):
        for op_runs, r in zip(runs, traced["records"]):
            op_runs.append(r)
    outcomes = [
        next((r["outcome"] for r in op_runs if r["outcome"] != checks.OK), checks.OK)
        for op_runs in runs
    ]
    line = {
        "correct": all(o == checks.OK or o in checks.HONEST_FAILURES for o in outcomes),
        "attempted": len(ops),
        "failed": sum(o != checks.OK for o in outcomes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_limit_s": limit_s,
        "environment": environment(args),
        "setup_samples_s": setup_samples,
        "traced_passes": len(result.get("traced", [])),
        "ops": [
            {"argv": argv, **r, "outcome": outcome}
            for argv, r, outcome in zip(ops, result["ops"], outcomes)
        ],
        "result": line,
    }
    if args.trace:
        record["self_time_ranking"] = self_time_ranking(result)
    return line, record


def describe(record):
    """Human-readable lines printed before the result line."""
    env = record["environment"]
    ops = record["ops"]
    n = len(ops)
    failed = [o for o in ops if o["outcome"] != checks.OK]
    runs = sorted(len(o.get("samples", [0])) for o in ops)
    percentile = 100.0 * (n - 10) / n if n > 10 else 100.0
    lines = [
        f"workload {record['workload']}: {n} ops, {sum(runs)} timed runs "
        f"({runs[0]} to {runs[-1]} per op), per-op limit {record['time_limit_s']} s",
        f"nproc {env['nproc']}, python {env['python']}, commit {env['commit']}, "
        f"source sha256 {env['source_sha256'][:16]}, seeds {env['seeds']}",
        f"fail_frac {len(failed)}/{n} = {len(failed) / n:.4f}",
        f"op_tail_ms is p{percentile:.1f} of the {n} per-op latencies (10 beyond it)",
    ]
    if record["trace"]:
        lines.append(f"traced passes: {record['traced_passes']}")
    for o in failed:
        detail = o.get("detail", "")
        lines.append(f"failed: {checks.op_key(o['argv'])} ({o['outcome']}) {detail}".rstrip())
    for name, self_s in record.get("self_time_ranking", [])[:8]:
        lines.append(f"self time {name}: {self_s:.3f} s")
    return lines


def write_record(record, args):
    out_dir = ROOT / workloads.WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv=None, ops=None):
    args = parse_args(argv)
    try:
        line, record = run(args, ops)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_record(record, args)
    for text in describe(record):
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
