"""Workload definitions: the CLI argument lists each workload runs.

Every op is one `seshadri` command line, given as the argv list that
`seshadri.cli.run` takes.  Paths are relative to the checkout root, which
is the working directory of every run, so that reports (and their
digests) do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

INSTANCE_DIR = "src/seshadri/instances"
BUNDLED = (
    "fermat-cubic",
    "gr24-hyperplanes",
    "gr25-pluecker",
    "quadric-surface",
    "quadric-threefold",
    "quartic-threefold",
    "twisted-cubic",
    "two-quadrics-p4",
)
EXACT_COMMANDS = ("bound", "fano", "dp", "classify", "curve")
SHARPNESS = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6))

# (projective dimension N, cutting degrees) of the synthetic complete
# intersections through [1:0:...:0]
SYNTHETIC_SHAPES = (
    (4, (4,)),
    (4, (2, 3)),
    (5, (5,)),
    (5, (2, 3)),
    (5, (2, 4)),
    (5, (3, 3)),
    (5, (2, 2, 2)),
)
SYNTHETIC_COPIES = 3
SYNTHETIC_SPREAD = 3
# where generated instance files go, relative to the checkout root
WORK_DIR = ".perfbench_work"

# Per-op time limit of each workload, in seconds.  An op that hits it
# fails and is charged the limit.  Each limit is several times the
# slowest op of its workload that finishes at the seed commit.
TIME_LIMIT_S = {
    "bundled-exact": 4.0,
    "synthetic-ci": 30.0,
    "oracle-scan": 40.0,
}

# synthetic-ci instances are drawn from --seed; the default seed is the
# one to tune against, the held-out seed the one to confirm a claim on
DEFAULT_SYNTHETIC_SEED = 1
HELD_OUT_SYNTHETIC_SEED = 7

# Ops that do not finish at the commit that added the benchmark (time
# limit or capacity refusal).  They stay in their workloads as failed ops.
KNOWN_GAPS = (
    "sharpness 4 5",
    "sharpness 4 6",
    "oracle src/seshadri/instances/gr25-pluecker.json --primes 7 --conics",
    "oracle src/seshadri/instances/gr25-pluecker.json --primes 11 --conics",
)


def bundled_path(name):
    return f"{INSTANCE_DIR}/{name}.json"


def bundled_exact_ops():
    ops = []
    for name in BUNDLED:
        path = bundled_path(name)
        ops.extend([command, path] for command in EXACT_COMMANDS)
        ops.append(["dp", path, "--validate"])
    ops.extend(["sharpness", str(n), str(d)] for n, d in SHARPNESS)
    return ops


def oracle_scan_ops(root):
    ops = []
    for name in BUNDLED:
        path = bundled_path(name)
        raw = json.loads((Path(root) / path).read_text(encoding="utf-8"))
        ops.extend(
            ["oracle", path, "--primes", str(q), "--conics"] for q in raw["primes"]
        )
    return ops


def _monomials(nvars, degree):
    """Exponent tuples of the given degree, in a fixed order."""
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _render(exps, coeff):
    factors = [
        f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
    ]
    body = "*".join(factors)
    magnitude = abs(coeff)
    term = body if magnitude == 1 else f"{magnitude}*{body}"
    return ("- " if coeff < 0 else "+ ") + term


def random_form(nvars, degree, rng):
    """Expression of a random form vanishing at [1:0:...:0].

    Coefficients are uniform in [-SYNTHETIC_SPREAD, SYNTHETIC_SPREAD]; the
    x0^degree term is left out, and a draw whose linear slice (the
    x0^(degree-1)*x_i terms) is zero is redrawn so the point is smooth on
    the hypersurface.
    """
    while True:
        terms = []
        linear = False
        for exps in _monomials(nvars, degree):
            if exps[0] == degree:
                continue
            coeff = rng.randint(-SYNTHETIC_SPREAD, SYNTHETIC_SPREAD)
            if coeff:
                terms.append(_render(exps, coeff))
                linear = linear or exps[0] == degree - 1
        if linear:
            text = " ".join(terms)
            return text[2:] if text.startswith("+ ") else "-" + text[2:]


def synthetic_instances(seed):
    """(file name, instance dict) for every synthetic instance of a seed."""
    rng = random.Random(seed)
    out = []
    for n, degrees in SYNTHETIC_SHAPES:
        for copy in range(SYNTHETIC_COPIES):
            cutting = [
                {"expression": random_form(n + 1, d, rng), "degree": d}
                for d in degrees
            ]
            shape = "-".join(str(d) for d in degrees)
            raw = {
                "description": f"random complete intersection of degrees "
                f"{list(degrees)} in P^{n} through [1:0:...:0] (seed {seed})",
                "variables": [f"x{i}" for i in range(n + 1)],
                "ambient": [],
                "cutting": cutting,
                "point": ["1"] + ["0"] * n,
                "ambient_homogeneous": False,
                "primes": [7, 11, 13],
                "seed": 0,
            }
            out.append((f"p{n}-{shape}-{copy}.json", raw))
    return out


def write_synthetic(root, seed):
    """Write the synthetic instance files of a seed; returns their paths
    relative to the checkout root."""
    rel_dir = f"{WORK_DIR}/synthetic-{seed}"
    target = Path(root) / rel_dir
    target.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, raw in synthetic_instances(seed):
        (target / name).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
        paths.append(f"{rel_dir}/{name}")
    return paths


def synthetic_ci_ops(root, seed):
    ops = []
    for path in write_synthetic(root, seed):
        ops.append(["bound", path])
        ops.append(["classify", path])
    return ops


WORKLOADS = ("bundled-exact", "synthetic-ci", "oracle-scan")


def ops_for(workload, root, seed):
    if workload == "bundled-exact":
        return bundled_exact_ops()
    if workload == "synthetic-ci":
        return synthetic_ci_ops(root, seed)
    if workload == "oracle-scan":
        return oracle_scan_ops(root)
    raise ValueError(f"unknown workload {workload!r}")
