"""The complete-intersection and lowest-form certificates mod one prime,
which `PointedVariety.hilbert` and `multiplicity_at` try ahead of the route
over Q, against that route; the cone-cut lemma, by which
`_curve_certificate` reads a curve's Hilbert data off its regular lowest
forms; and `curve`, which certifies what `classify` decides."""

import importlib.util
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seshadri import constants
from seshadri.cli import EXIT_HYPOTHESIS, EXIT_OK, load_instance, run
from seshadri.geometry import (
    _local_multiplicity,
    base_point,
    lowest_forms_multiplicity,
    multiplicity_at,
    normalize_point,
)
from seshadri.groebner import (
    EMPTINESS_PRIME,
    Ideal,
    certified_hilbert_data,
    hilbert_data,
)
from seshadri.polynomials import PolynomialRing

from conftest import bundled, random_homogeneous

SHARPNESS = (
    (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 4), (3, 5), (3, 6), (3, 7),
    (4, 5), (4, 6), (4, 7), (4, 8),
)
# the sharpness members of the benchmark's bundled workload
BENCH_SHARPNESS = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6))
BUNDLED = (
    "quadric-surface",
    "quadric-threefold",
    "twisted-cubic",
    "fermat-cubic",
    "quartic-threefold",
    "two-quadrics-p4",
    "gr24-hyperplanes",
    "gr25-pluecker",
)
# the bundled instances on which `curve` certifies
BUNDLED_CURVES = ["fermat-cubic", "quartic-threefold", "two-quadrics-p4"]
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
LEMMA = "cone-cut curve: lowest forms regular"


@pytest.fixture
def curve_ideals(monkeypatch):
    """The ideals `_curve_certificate` is asked about, in order."""
    seen = []
    original = constants._curve_certificate

    def recording(curve_ideal, trace):
        seen.append(curve_ideal)
        return original(curve_ideal, trace)

    monkeypatch.setattr(constants, "_curve_certificate", recording)
    return seen


def _over_q(I):
    """Hilbert data and multiplicity at [1:0:...:0] of a fresh copy of I,
    both from Groebner bases over Q: a cached basis leaves the prime out of
    `hilbert_data`."""
    fresh = Ideal(I.ring, I.generators)
    fresh.groebner_basis()
    data = hilbert_data(fresh)
    return data, _local_multiplicity(normalize_point(fresh, base_point(I.ring)))


def _certified(I):
    """The certified Hilbert data and multiplicity of I, each None where the
    prime proves nothing."""
    data = certified_hilbert_data(Ideal(I.ring, I.generators))
    curve = normalize_point(Ideal(I.ring, I.generators), base_point(I.ring))
    return data, lowest_forms_multiplicity(curve)


def _assert_certified_like_q(I):
    data, mult = _certified(I)
    assert data is not None and mult is not None, I
    assert (data, mult) == _over_q(I), I


def test_sharpness_curves_agree(curve_ideals):
    for n, d in SHARPNESS:
        _, certificate = constants.sharpness_example(n, d, seed=0)
        # slices of degrees 1 .. n - 1 and one of order d - 1, degree d
        orders = math.factorial(n - 1)
        assert (certificate.degree, certificate.multiplicity) == (d * orders, (d - 1) * orders)
    assert len(curve_ideals) >= len(SHARPNESS)
    for I in curve_ideals:
        _assert_certified_like_q(I)


def test_bundled_curves_agree(curve_ideals):
    codes = [run(["curve", bundled(name)])[1] for name in BUNDLED]
    assert codes.count(EXIT_OK) == 3
    assert len(curve_ideals) == 3
    for I in curve_ideals:
        _assert_certified_like_q(I)


def _with_order(form, k):
    """The terms of a form through [1:0:...:0] whose slice degree is at
    least k: a form of order k there, if any term is left."""
    return form.ring.from_terms((m, c) for m, c in form.terms if sum(m[1:]) >= k)


@pytest.mark.parametrize("nvars, shape", [
    (4, ((2, 1), (2, 1))),
    (4, ((2, 1), (3, 2))),
    (4, ((3, 2), (3, 2))),
    (5, ((1, 1), (2, 1), (2, 2))),
    (5, ((2, 1), (2, 1), (3, 1))),
    (5, ((2, 1), (3, 2))),
    (6, ((2, 1), (2, 2), (2, 2), (3, 2))),
])
def test_random_complete_intersections_agree(nvars, shape):
    # (degree, order at the point) of each form; two forms in P^4 cut a
    # surface, so the dimension is not always 1
    ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
    rng = random.Random(nvars * 100 + len(shape))
    for _ in range(3):
        gens = [
            _with_order(random_homogeneous(ring, d, rng, through_origin=True), k)
            for d, k in shape
        ]
        _assert_certified_like_q(Ideal(ring, gens))


def test_excess_component_falls_back():
    # x1*x2, x1*x3 in P^3: the plane x1 = 0 and the line x2 = x3 = 0, not
    # the curve two forms in P^3 would cut out
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    I = Ideal(ring, [ring.parse("x1*x2"), ring.parse("x1*x3")])
    assert certified_hilbert_data(Ideal(ring, I.generators)) is None
    assert _over_q(I)[0].dimension == 2
    assert constants._curve_certificate(I, {}) == (2, None)


def test_lowest_forms_not_a_regular_sequence_fall_back():
    # both lowest forms are x1; the curve is the complete intersection
    # x0*x1 = x2^2 = -x3^2, with a node at the point: mult 2, not 1 * 1
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    I = Ideal(ring, [ring.parse("x0*x1 - x2^2"), ring.parse("x0*x1 + x3^2")])
    data, mult = _certified(I)
    assert data is not None and mult is None
    assert _over_q(I) == (data, 2)
    _, certificate = constants._curve_certificate(I, {})
    assert (certificate.degree, certificate.multiplicity) == (data.degree, 2) == (4, 2)


def test_unlucky_prime_falls_back(caplog):
    # mod p both generators are x1, so nothing is proved there; over Q the
    # ideal is (x1, x2), a line through the point.  The certificate reads
    # `curve.hilbert` and `multiplicity_at`, one attempt mod p each
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    I = Ideal(ring, [ring.parse("x1"), ring.parse(f"x1 + {EMPTINESS_PRIME}*x2")])
    assert _certified(I) == (None, None)
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    _, certificate = constants._curve_certificate(I, {})
    data, mult = _over_q(I)
    assert (certificate.degree, certificate.multiplicity) == (data.degree, mult) == (1, 1)
    messages = [r.getMessage() for r in caplog.records if r.name == "seshadri.groebner"]
    assert len(messages) == 2
    assert all("fell back to Q" in m for m in messages)


def test_each_attempt_is_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    I = Ideal(ring, [ring.parse("x0*x1 - x2^2"), ring.parse("x0^2*x2 + x3^3 - x1*x2*x3")])
    curve = normalize_point(I, base_point(ring))
    # the variety asks the prime once and caches the answer; the lowest
    # forms x1, x2 give mult 1
    assert curve.hilbert == curve.hilbert
    assert multiplicity_at(curve) == 1
    messages = [r.getMessage() for r in caplog.records if r.name == "seshadri.groebner"]
    assert len(messages) == 2
    assert messages[0].startswith(
        f"complete intersection mod {EMPTINESS_PRIME}: 2 generators, 4 variables, certified in "
    )
    assert messages[1].startswith(
        f"complete intersection mod {EMPTINESS_PRIME}: 2 generators, 3 variables, certified in "
    )
    # milliseconds, then the pair loop's counts
    counts = r" in \d+\.\d ms, \d+ S-pairs reduced \(\d+ to zero\), \d+ skipped"
    assert all(re.fullmatch(r".*" + counts, m) for m in messages)


@pytest.mark.parametrize("argv", [
    ["curve", bundled("two-quadrics-p4")],
    ["sharpness", "3", "4"],
])
def test_reports_are_the_same_with_debug_logging(argv, tmp_path):
    reports = []
    for level in ("warning", "debug"):
        path = tmp_path / f"{level}.json"
        env = {**os.environ, "PYTHONPATH": str(SRC), "SESHADRI_LOG": level}
        done = subprocess.run(
            [sys.executable, "-m", "seshadri.cli", *argv, "--json", str(path)],
            env=env, capture_output=True, text=True, check=True,
        )
        logged = "certified in" in done.stderr
        assert logged == (level == "debug")
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def test_proportional_cuts_fail_condition_i():
    # q and 2*q cut out one quadric: codimension 1, not r = 2; curve used
    # to retry its draws and exit 4
    for command in ("classify", "curve"):
        report, code, _ = run([command, str(DATA / "proportional-quadrics.json")])
        assert code == EXIT_HYPOTHESIS
        assert report["error"]["condition"] == "i"
        assert report["error"]["message"] == (
            "condition i: codim(X, Y) = 1 does not match r = 2"
        )


@pytest.fixture
def certificates(monkeypatch):
    """Each ideal `_curve_certificate` is asked about, with its answer."""
    seen = []
    original = constants._curve_certificate

    def recording(curve_ideal, trace):
        seen.append((curve_ideal, original(curve_ideal, trace)))
        return seen[-1][1]

    monkeypatch.setattr(constants, "_curve_certificate", recording)
    return seen


def _lemma_lines(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "seshadri.constants" and r.getMessage().startswith(LEMMA)]


def _general_route(I):
    """(dimension, degree, multiplicity) of a fresh copy of I read without
    the lemma, as of any variety: `curve.hilbert`, then `multiplicity_at`."""
    curve = normalize_point(Ideal(I.ring, I.generators), base_point(I.ring))
    if curve.hilbert.dimension != 1:
        return curve.hilbert.dimension, None, None
    return 1, curve.hilbert.degree, multiplicity_at(curve)


def test_lemma_route_equals_the_general_route(certificates, caplog):
    # every bundled curve op and the benchmark's sharpness members
    caplog.set_level(logging.DEBUG, logger="seshadri.constants")
    codes = [run(["curve", bundled(name)])[1] for name in BUNDLED]
    assert [name for name, code in zip(BUNDLED, codes) if code == EXIT_OK] == BUNDLED_CURVES
    for n, d in BENCH_SHARPNESS:
        constants.sharpness_example(n, d, seed=0)
    assert len(certificates) >= len(BUNDLED_CURVES) + len(BENCH_SHARPNESS)
    assert len(_lemma_lines(caplog)) == len(certificates)
    for I, (dimension, certificate) in certificates:
        data, mult = _over_q(I)
        assert dimension == data.dimension == 1, I
        assert (1, certificate.degree, certificate.multiplicity) == _general_route(I), I
        assert (certificate.degree, certificate.multiplicity) == (data.degree, mult), I


@pytest.mark.parametrize("nvars, degrees", [
    (4, (2,)), (4, (3,)), (5, (2, 3)), (5, (1, 4)), (6, (2, 2, 3)),
])
def test_cone_cut_has_the_lemma_shape(nvars, degrees):
    # every generator but the last is free of x0, and the last is
    # x0*f^(d-1) + f^(d): a change to `_cone_cut` that breaks this would
    # bring the loop on C back unnoticed
    ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
    rng = random.Random(nvars * 10 + len(degrees))
    cuts = [random_homogeneous(ring, d, rng, through_origin=True) for d in degrees]
    # forms free of x0, as the cone over a line-scheme component gives
    cone = [
        ring.from_terms((m, c) for m, c in random_homogeneous(ring, 2, rng).terms if not m[0])
        for _ in range(nvars - 2 - len(degrees))
    ]
    gens = constants._cone_cut(cuts, ring, cone)
    x0 = [max(m[0] for m, _ in g.terms) for g in gens]
    assert x0 == [0] * (len(gens) - 1) + [1]
    assert constants._cone_cut_shape(normalize_point(Ideal(ring, gens), base_point(ring)))


@pytest.mark.parametrize("gens, lowest_regular", [
    # h in F: the lowest form x1*x2 of the last generator lies in (x1)
    (["x1", "x0*x1*x2 + x2^3"], False),
    # h a zero divisor on S/F: x1*x2 and x1*x3 share x1
    (["x1*x2", "x0*x1*x3 + x2^3"], False),
    # k holds x0: x0^2*x3 gives the generator x0-degree 2
    (["x1", "x0^2*x3 + x0*x2^2 + x3^3"], True),
    # two generators hold x0; their lowest forms x1, x2 are regular, yet
    # both vanish on the plane x0 + x3 = 0, so C is no curve
    (["x0*x1 + x1*x3", "x0*x2 + x2*x3"], True),
])
def test_lemma_keeps_off_its_hypotheses(gens, lowest_regular, caplog):
    ring = PolynomialRing(("x0", "x1", "x2", "x3"))
    I = Ideal(ring, [ring.parse(g) for g in gens])
    curve = normalize_point(Ideal(ring, I.generators), base_point(ring))
    assert (lowest_forms_multiplicity(curve) is not None) == lowest_regular
    caplog.set_level(logging.DEBUG, logger="seshadri")
    dimension, certificate = constants._curve_certificate(I, {})
    assert _lemma_lines(caplog) == []
    # the lowest forms, 2 generators in 3 variables, are asked at most once
    asked = [r for r in caplog.records if "2 generators, 3 variables" in r.getMessage()]
    assert len(asked) <= 1
    data, mult = _over_q(I)
    assert dimension == data.dimension
    if dimension == 1:
        assert (certificate.degree, certificate.multiplicity) == (data.degree, mult)
    else:
        assert certificate is None


def _synthetic_instances(seed):
    """The synthetic-ci instances of the benchmark for one seed."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.synthetic_instances(seed)


def test_variety_hilbert_equals_the_route_over_q(tmp_path):
    paths = [bundled(name) for name in BUNDLED]
    paths += [DATA / "point-p2.json", DATA / "proportional-quadrics.json"]
    for name, raw in _synthetic_instances(1):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(raw))
    certified = set()
    for path in paths:
        instance = load_instance(str(path))
        X, Y = instance.variety(), instance.ambient_variety()
        for Z in (X, Y):
            fresh = Ideal(Z.ring, Z.normalized_ideal.generators)
            fresh.groebner_basis()
            assert Z.hilbert == hilbert_data(fresh), path
        data = certified_hilbert_data(Ideal(X.ring, X.normalized_ideal.generators))
        if data is not None and not data.is_empty:
            certified.add(Path(path).stem)
    # the X that are not complete intersections fall back to Q
    assert certified.isdisjoint({"gr25-pluecker", "twisted-cubic", "proportional-quadrics"})
    assert {"two-quadrics-p4", "point-p2", "p5-2-2-2-0"} <= certified


def test_classify_builds_no_basis_of_x():
    # two quadrics in P^4: one prime proves (i), the line scheme has its
    # own ideal, so X's basis over Q is never needed
    ci = load_instance(bundled("two-quadrics-p4")).ci_input()
    assert constants.classify_ci(ci).status == constants.EXACT
    assert ci.variety().normalized_ideal._basis_cache == {}


@pytest.mark.parametrize("path", [
    DATA / "line-pair-p2.json",
    # a smooth cubic surface with the line x1 = x2 = 0 through [1:0:0:0];
    # curve used to certify 3/2 where classify finds epsilon = 1
    {"variables": ["x0", "x1", "x2", "x3"], "ambient": [],
     "cutting": [{"expression": "x0^2*x1 + x0*x2*x3 + x2^3 + x1^3 + x1*x3^2", "degree": 3}],
     "point": ["1", "0", "0", "0"]},
])
def test_curve_fails_on_a_line_through_the_point(path, tmp_path):
    if isinstance(path, dict):
        (tmp_path / "cubic.json").write_text(json.dumps(path))
        path = tmp_path / "cubic.json"
    report, code, _ = run(["classify", str(path)])
    assert code == EXIT_OK
    assert report["result"]["seshadri"]["status"] == constants.LINE_FOUND
    report, code, _ = run(["curve", str(path)])
    assert code == EXIT_HYPOTHESIS
    assert report["error"]["condition"] == "line"
