"""Dimension counts that decide before a basis: Krull's count and the
local dimension count in `cut_out_degree`, and the complete-intersection
certificate mod one prime that `hilbert_data` tries on line schemes, each
against the route over Q it replaces."""

import importlib.util
import json
import logging
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri import geometry, groebner
from seshadri.cli import EXIT_OK, load_instance, run
from seshadri.geometry import (
    _agree_at_point,
    base_point,
    cut_out_degree,
    line_scheme,
    normalize_point,
)
from seshadri.groebner import (
    EMPTINESS_PRIME,
    Ideal,
    certified_hilbert_data,
    hilbert_data,
)
from seshadri.polynomials import PolynomialRing

from conftest import bundled

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
DATA = Path(__file__).parent / "data"
QUINTIC = DATA / "p6-quintic.json"
CUBIC_QUARTIC = DATA / "p6-3-4.json"
WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _instance_paths(tmp_path):
    """The bundled instances, two small test instances and the first
    synthetic-ci instance of each shape for seed 1."""
    paths = [bundled(name) for name in BUNDLED]
    paths += [str(DATA / "point-p2.json"), str(DATA / "proportional-quadrics.json")]
    for name, raw in _workloads().synthetic_instances(1):
        if name.endswith("-0.json"):
            (tmp_path / name).write_text(json.dumps(raw))
            paths.append(str(tmp_path / name))
    return paths


def _varieties(tmp_path):
    """(path, X, Y) for every instance of `_instance_paths`."""
    for path in _instance_paths(tmp_path):
        instance = load_instance(path)
        yield path, instance.variety(), instance.ambient_variety()


def _over_q(I):
    """Hilbert data of a fresh copy of I from its basis over Q: a cached
    basis leaves the prime out of `hilbert_data`."""
    fresh = Ideal(I.ring, I.generators)
    fresh.groebner_basis()
    return hilbert_data(fresh)


def _full_walk(X):
    """d_p by `_agree_at_point` at every generator degree below the top,
    with no count ahead of it."""
    I = X.normalized_ideal
    degrees = sorted({g.total_degree() for g in I.generators})
    if not degrees:
        return 1
    for d in degrees[:-1]:
        if _agree_at_point(Ideal(X.ring, [g for g in I.generators if g.total_degree() <= d]), I):
            return d
    return degrees[-1]


def _p6(degrees):
    """X cut out in P^6 by random forms of the given degrees, drawn in turn
    from one random.Random(1), at [1:0:...:0]."""
    random_form = _workloads().random_form
    ring = PolynomialRing(tuple(f"x{i}" for i in range(7)))
    rng = random.Random(1)
    gens = [ring.parse(random_form(7, d, rng)) for d in degrees]
    return normalize_point(Ideal(ring, gens), base_point(ring))


def _ci_messages(caplog):
    return [
        r.getMessage() for r in caplog.records
        if r.name == "seshadri.groebner"
        and r.getMessage().startswith("complete intersection mod")
    ]


class TestBinomialPolynomial:
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("shift", range(-3, 6))
    def test_values_are_binomials(self, shift, k):
        coeffs = groebner._binomial_polynomial(shift, k)
        assert isinstance(coeffs, tuple)
        for m in range(max(0, -shift), 8):
            value = sum(c * m**i for i, c in enumerate(coeffs))
            assert value == Fraction(math.comb(m + shift, k))

    def test_is_cached(self):
        assert groebner._binomial_polynomial(4, 3) is groebner._binomial_polynomial(4, 3)


class TestLineScheme:
    def test_data_equals_the_route_over_q(self, tmp_path):
        certified = set()
        for path, X, Y in _varieties(tmp_path):
            for Z in (X, Y):
                scheme = line_scheme(Z)
                assert scheme.hilbert == _over_q(scheme.ideal), path
            slices = line_scheme(X).ideal
            data = certified_hilbert_data(Ideal(slices.ring, slices.generators))
            if data is not None and not data.is_empty:
                certified.add(Path(path).stem)
        # the quadrics' slices are a regular sequence; the Grassmannian's 8
        # slices in 9 variables are not, and fall back to Q
        assert certified == {"quadric-surface", "quadric-threefold"}

    def test_quintic_is_certified(self, caplog):
        # over Q the basis of this line scheme takes several seconds
        caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
        scheme = line_scheme(load_instance(str(QUINTIC)).variety())
        assert (scheme.dimension, scheme.hilbert.degree) == (0, 120) == (0, math.factorial(5))
        messages = _ci_messages(caplog)
        assert len(messages) == 1
        assert messages[0].startswith(
            f"complete intersection mod {EMPTINESS_PRIME}: 5 generators, 6 variables, certified in "
        )

    def test_unlucky_prime_falls_back(self, caplog):
        # the slices are x1 and x1*x3 + p*x2*x3: mod p the second is x1*x3,
        # so the slices cut out a line there; over Q two points
        ring = PolynomialRing(("x0", "x1", "x2", "x3"))
        g = ring.parse(f"x0*x1 + (x1 + {EMPTINESS_PRIME}*x2)*x3")
        X = normalize_point(Ideal(ring, [g]), base_point(ring))
        caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
        scheme = line_scheme(X)
        messages = _ci_messages(caplog)
        assert len(messages) == 1
        assert messages[0].startswith(
            f"complete intersection mod {EMPTINESS_PRIME}: 2 generators, 3 variables, fell back to Q in "
        )
        assert (scheme.dimension, scheme.hilbert.degree) == (0, 2)
        assert scheme.hilbert == _over_q(scheme.ideal)

    def test_as_many_slices_as_directions_are_not_tried(self, caplog):
        # the twisted cubic's 3 quadrics give 5 nonzero slices in 3
        # directions; only X, 3 quadrics in 4 variables, is asked
        caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
        report, code, _ = run(["bound", bundled("twisted-cubic")])
        assert code == EXIT_OK
        messages = _ci_messages(caplog)
        assert len(messages) == 1
        assert messages[0].startswith(
            f"complete intersection mod {EMPTINESS_PRIME}: 3 generators, 4 variables, "
        )


class TestCutOutDegree:
    def test_equals_the_full_walk(self, tmp_path):
        varieties = [(path, Z) for path, X, Y in _varieties(tmp_path) for Z in (X, Y)]
        varieties.append(("quintic", load_instance(str(QUINTIC)).variety()))
        varieties.append(("(2,2,3) in P^6", _p6((2, 2, 3))))
        for path, Z in varieties:
            assert cut_out_degree(Z) == _full_walk(Z), path

    def test_count_passes_and_a_lower_degree_agrees(self):
        # V(x1, x1*x2) is the line x1 = 0, of codimension 1: x1 alone is
        # as many generators as the codimension, and it cuts the line out
        ring = PolynomialRing(("x0", "x1", "x2"))
        X = normalize_point(Ideal(ring, [ring.parse("x1"), ring.parse("x1*x2")]), base_point(ring))
        assert X.dimension == 1
        assert cut_out_degree(X) == _full_walk(X) == 1

    @pytest.mark.parametrize("degrees", [(3, 4), (2, 2, 3)])
    def test_complete_intersections_build_no_local_basis(self, degrees, monkeypatch):
        def refuse(ideal):
            raise AssertionError("local basis built")

        X = _p6(degrees)
        monkeypatch.setattr(geometry, "_local_basis", refuse)
        assert cut_out_degree(X) == degrees[-1]

    def test_local_dimension_skips_the_local_basis_of_x(self, monkeypatch):
        # a cuspidal plane cubic in x1 = 0 plus the line x2 = x3 = 0, both
        # through p: the quadrics cut out the plane and the line, of local
        # dimension 2 > dim X = 1 at p, so only their local basis is built
        ring = PolynomialRing(("x0", "x1", "x2", "x3"))
        gens = [ring.parse(g) for g in ("x1*x2", "x1*x3", "x2^3 - x0*x3^2")]
        X = normalize_point(Ideal(ring, gens), base_point(ring))
        assert (X.dimension, X.degree) == (1, 4)
        built = []
        local_basis = geometry._local_basis

        def record(ideal):
            built.append(ideal.generators)
            return local_basis(ideal)

        monkeypatch.setattr(geometry, "_local_basis", record)
        assert cut_out_degree(X) == 3
        assert built == [tuple(gens[:2])]
        monkeypatch.undo()
        assert _full_walk(X) == 3

    def test_local_dimension_below_dim_x_does_not_skip(self):
        # the line x2 = x3 = 0 through p plus the plane x0 = 0 away from it,
        # with a redundant cubic: the quadrics cut X out, of local dimension
        # 1 < dim X = 2 at p
        ring = PolynomialRing(("x0", "x1", "x2", "x3"))
        gens = [ring.parse(g) for g in ("x0*x2", "x0*x3", "x0*x1*x2 + x0^2*x3")]
        X = normalize_point(Ideal(ring, gens), base_point(ring))
        assert X.dimension == 2
        assert cut_out_degree(X) == _full_walk(X) == 2


class TestReach:
    def test_bound_on_the_quintic(self):
        report, code, _ = run(["bound", str(QUINTIC)])
        assert code == EXIT_OK
        seshadri = report["result"]["seshadri"]
        assert seshadri["status"] == "LINE_FOUND"
        assert seshadri["epsilon"] == "1"

    def test_bound_on_a_cubic_and_a_quartic(self):
        report, code, _ = run(["bound", str(CUBIC_QUARTIC)])
        assert code == EXIT_OK
        assert report["result"]["seshadri"]["lower_bound"] == "4/3"
