import random
from fractions import Fraction

import pytest

from seshadri.cli import load_instance
from seshadri.polynomials import PolynomialRing
from seshadri.groebner import Ideal, hilbert_data
from seshadri.geometry import line_scheme, normalize_point, slice_decomposition, slice_ring
from seshadri.constants import (
    EXACT,
    LINE_FOUND,
    LOWER_BOUND_ONLY,
    CompleteIntersectionInput,
    CurveCertificate,
    HypothesisError,
    SeshadriReport,
    aux_divisors,
    classify_ci,
    lower_bound,
    seshadri_curve,
    sharpness_example,
)

from conftest import bundled, random_homogeneous


def projective_space(ring, point=None):
    if point is None:
        point = (1,) + (0,) * (ring.nvars - 1)
    return normalize_point(Ideal(ring, []), point)


class TestLowerBound:
    def test_quadric_surface_line(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
        report = lower_bound(X)
        assert report.status == LINE_FOUND
        assert report.epsilon == 1

    def test_fermat_cubic_bound(self, ring4):
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        report = lower_bound(X)
        assert report.status == LOWER_BOUND_ONLY
        assert report.lower_bound == Fraction(3, 2)
        assert report.cut_out_degree == 3

    def test_hyperplane_is_linear(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x3")]), (1, 0, 0, 0))
        report = lower_bound(X)
        assert report.status == LINE_FOUND

    def test_point_is_rejected(self, ring3):
        X = normalize_point(Ideal(ring3, [ring3.parse("x1"), ring3.parse("x2")]), (1, 0, 0))
        with pytest.raises(ValueError):
            lower_bound(X)


class TestAuxDivisors:
    def test_fermat_orders_and_flag(self, ring4):
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        divisors, flag = aux_divisors(X)
        assert [(d.i, d.j) for d in divisors] == [(1, 1), (2, 1)]
        assert all(d.order >= d.i + 1 for d in divisors)
        assert flag

    def test_quadric_threefold_flag_fails(self, ring5):
        X = normalize_point(
            Ideal(ring5, [ring5.parse("x0*x4 + x1*x3 + x2^2")]), (1, 0, 0, 0, 0)
        )
        divisors, flag = aux_divisors(X)
        assert not flag
        assert not line_scheme(X).is_empty

    def test_conic_single_divisor(self, ring3):
        X = normalize_point(Ideal(ring3, [ring3.parse("x0*x2 - x1^2")]), (1, 0, 0))
        divisors, flag = aux_divisors(X)
        assert len(divisors) == 1
        assert divisors[0].i == 1
        assert divisors[0].polynomial.monic() == ring3.parse("x2")
        assert flag

    def test_flag_matches_line_scheme_emptiness(self, ring4, rng):
        for _ in range(4):
            f = random_homogeneous(ring4, 3, rng, through_origin=True)
            X = normalize_point(Ideal(ring4, [f]), (1, 0, 0, 0))
            _, flag = aux_divisors(X)
            assert flag == line_scheme(X).is_empty


class TestClassify:
    def test_fermat_cubic(self, ring4):
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring4, (3, 4, 5, -6)),
            cutting=(ring4.parse("x0^3+x1^3+x2^3+x3^3"),),
        )
        report = classify_ci(ci)
        assert report.status == EXACT
        assert report.epsilon == Fraction(3, 2)

    def test_line_found_dominates(self, ring4):
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring4),
            cutting=(ring4.parse("x0*x3 - x1*x2"),),
        )
        report = classify_ci(ci)
        assert report.status == LINE_FOUND
        assert report.epsilon == 1
        X = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
        assert lower_bound(X).epsilon == 1

    def test_sum_of_degrees_too_large(self, ring5):
        cubic1 = random_homogeneous(ring5, 3, random.Random(5), through_origin=True)
        cubic2 = random_homogeneous(ring5, 3, random.Random(6), through_origin=True)
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring5), cutting=(cubic1, cubic2)
        )
        with pytest.raises(HypothesisError) as err:
            classify_ci(ci)
        assert err.value.condition == "ii"

    def test_wrong_codimension(self, ring5):
        q = random_homogeneous(ring5, 2, random.Random(7), through_origin=True)
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring5), cutting=(q, q.scale(2))
        )
        with pytest.raises(HypothesisError) as err:
            classify_ci(ci)
        assert err.value.condition == "i"

    def test_ambient_not_cut_by_small_degrees(self, ring5):
        # cubic cone ambient: d_p(Y) = 3 exceeds the quadric cut degree
        cone = ring5.parse("x1^3 + x2^3 + x3^3 + x4^3")
        Y = normalize_point(Ideal(ring5, [cone]), (1, 0, 0, 0, 0))
        q = random_homogeneous(ring5, 2, random.Random(8), through_origin=True)
        ci = CompleteIntersectionInput(ambient=Y, cutting=(q,))
        with pytest.raises(HypothesisError) as err:
            classify_ci(ci)
        assert err.value.condition == "iii"

    def test_hyperplane_branch_without_flag_downgrades(self):
        # three hyperplane cuts of the Pluecker quadric; homogeneity not asserted
        ring = PolynomialRing(("p01", "p02", "p03", "p12", "p13", "p23"))
        Y = normalize_point(
            Ideal(ring, [ring.parse("p01*p23 - p02*p13 + p03*p12")]),
            (1, 0, 0, 0, 0, 0),
        )
        cuts = (
            ring.parse("-3*p03 + 3*p12 + 3*p23"),
            ring.parse("3*p02 + 3*p03 + 3*p12 + 3*p13 - p23"),
            ring.parse("2*p02 + 3*p03 - 2*p12 + p13 + 2*p23"),
        )
        report = classify_ci(CompleteIntersectionInput(ambient=Y, cutting=cuts))
        assert report.status == LOWER_BOUND_ONLY
        assert report.lower_bound == 2
        assert any("conic" in note for note in report.assumptions)
        flagged = classify_ci(
            CompleteIntersectionInput(ambient=Y, cutting=cuts, ambient_homogeneous=True)
        )
        assert flagged.status == EXACT
        assert flagged.epsilon == 2

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_point_is_rejected(self, ring3, homogeneous):
        # the hypotheses hold, but X is the point: the error of lower_bound
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring3),
            cutting=(ring3.parse("x1"), ring3.parse("x2")),
            ambient_homogeneous=homogeneous,
        )
        with pytest.raises(ValueError) as err:
            classify_ci(ci)
        assert type(err.value) is ValueError
        assert str(err.value) == "the variety must contain a curve through the point"

    def test_variety_is_built_once(self, ring4):
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring4), cutting=(ring4.parse("x0*x3 - x1*x2"),)
        )
        assert ci.variety() is ci.variety()

    def test_smoothness_validation(self, ring4):
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring4, (3, 4, 5, -6)),
            cutting=(ring4.parse("x0^3+x1^3+x2^3+x3^3"),),
            validate_smoothness=True,
        )
        report = classify_ci(ci)
        assert "smoothness (verified)" in report.assumptions

    def test_cutting_must_vanish(self, ring4):
        with pytest.raises(ValueError):
            CompleteIntersectionInput(
                ambient=projective_space(ring4),
                cutting=(ring4.parse("x0^2 + x1^2"),),
            )

    def test_degrees_are_sorted(self, ring4):
        cubic = ring4.parse("x1^3 + x2^3 + x3^3")
        quadric = ring4.parse("x0*x3 - x1*x2")
        ci = CompleteIntersectionInput(
            ambient=projective_space(ring4), cutting=(cubic, quadric)
        )
        assert ci.degrees == (2, 3)


def reference_line_scheme_of_x(ci):
    """F_p(X) built by hand: the line scheme of Y plus every slice of the
    normalized cuts, in the slice ring."""
    slices = list(line_scheme(ci.ambient).ideal.generators)
    for f in ci.cutting:
        f = ci.ambient.to_normalized(f).primitive()
        slices.extend(s for s in slice_decomposition(f) if s)
    return Ideal(slice_ring(ci.ambient.ring), slices)


def _form_through(ring, degree, point, rng):
    """A random form of the given degree vanishing at a point with a
    nonzero x0 coordinate: the x0^degree coefficient absorbs the value."""
    g = random_homogeneous(ring, degree, rng)
    x0_power = ring.variable(0) ** degree
    return g - x0_power.scale(g.evaluate(point) / x0_power.evaluate(point))


class TestLineSchemeOfX:
    @pytest.mark.parametrize("name", [
        "fermat-cubic", "gr24-hyperplanes", "quadric-surface", "quadric-threefold",
        "quartic-threefold", "two-quadrics-p4",
    ])
    def test_bundled(self, name):
        ci = load_instance(bundled(name)).ci_input()
        assert line_scheme(ci.variety()).hilbert == hilbert_data(
            reference_line_scheme_of_x(ci)
        )

    @pytest.mark.parametrize("ambient,degrees", [
        ((), (2,)), ((), (3,)), ((), (2, 2)), ((2,), (2,)), ((2,), (2, 3)),
    ])
    def test_random_at_a_non_base_point(self, ring5, ambient, degrees):
        # in P^4 itself the scheme is nonempty for one quadric or cubic
        rng = random.Random(sum(ambient + degrees) * 31 + len(degrees))
        point = (1, 2, -1, 0, 3)
        gens = [_form_through(ring5, d, point, rng) for d in ambient]
        Y = normalize_point(Ideal(ring5, gens), point)
        cuts = tuple(_form_through(ring5, d, point, rng) for d in degrees)
        ci = CompleteIntersectionInput(ambient=Y, cutting=cuts)
        assert line_scheme(ci.variety()).hilbert == hilbert_data(
            reference_line_scheme_of_x(ci)
        )


class TestSeshadriCurve:
    def test_certificate_meets_classification(self, ring5, rng):
        q1 = random_homogeneous(ring5, 2, rng, through_origin=True)
        q2 = random_homogeneous(ring5, 2, rng, through_origin=True)
        ci = CompleteIntersectionInput(ambient=projective_space(ring5), cutting=(q1, q2))
        report = classify_ci(ci)
        if report.status != EXACT:
            pytest.skip("random draw hit a line; covered elsewhere")
        certificate = seshadri_curve(ci, seed=1)
        assert certificate.ratio == report.epsilon == Fraction(2)
        assert certificate.degree == 4
        assert certificate.multiplicity == 2

    def test_needs_degree_at_least_two(self, ring5):
        Y = normalize_point(
            Ideal(ring5, [ring5.parse("x0*x4 + x1*x3 + x2^2")]), (1, 0, 0, 0, 0)
        )
        h = ring5.parse("x4")
        ci = CompleteIntersectionInput(ambient=Y, cutting=(h,), ambient_homogeneous=True)
        with pytest.raises(HypothesisError):
            seshadri_curve(ci)

    def test_wrong_component_fails_loudly(self, ring5, rng):
        q1 = random_homogeneous(ring5, 2, rng, through_origin=True)
        q2 = random_homogeneous(ring5, 2, rng, through_origin=True)
        ci = CompleteIntersectionInput(ambient=projective_space(ring5), cutting=(q1, q2))
        chart = slice_ring(ring5)
        bad = Ideal(chart, [chart.parse("x2"), chart.parse("x3"), chart.parse("x4")])
        with pytest.raises(RuntimeError):
            seshadri_curve(ci, component=bad, seed=1, retries=1)

    def test_certificate_over_a_nontrivial_cone(self, ring5):
        # the quadric threefold carries a conic of lines through the point;
        # the certificate is cut from the cone over that whole line scheme
        Y = normalize_point(
            Ideal(ring5, [ring5.parse("x0*x4 + x1*x3 + x2^2")]), (1, 0, 0, 0, 0)
        )
        assert line_scheme(Y).dimension == 1
        q = ring5.parse(
            "2*x0*x1 - x1^2 - 3*x0*x2 - 2*x1*x2 + 2*x2^2 - 3*x0*x3 - 2*x1*x3"
            " - 3*x2*x3 + 2*x3^2 + 2*x0*x4 - 2*x1*x4 + 2*x2*x4 + x3*x4 - 3*x4^2"
        )
        ci = CompleteIntersectionInput(ambient=Y, cutting=(q,))
        report = classify_ci(ci)
        assert report.status == EXACT and report.epsilon == Fraction(2)
        certificate = seshadri_curve(ci, seed=0)
        assert (certificate.degree, certificate.multiplicity) == (4, 2)
        assert certificate.ratio == report.epsilon

    def test_certificate_invariants(self, ring4):
        with pytest.raises(ValueError):
            CurveCertificate(
                ideal=Ideal(ring4, []),
                degree=3,
                multiplicity=2,
                ratio=Fraction(1, 2),
            )


class TestSharpness:
    @pytest.mark.parametrize("n,d,expected_deg,expected_mult", [
        (1, 2, 2, 1),
        (2, 3, 3, 2),
        (2, 4, 4, 3),
        (3, 4, 8, 6),
    ])
    def test_family(self, n, d, expected_deg, expected_mult):
        X, certificate = sharpness_example(n, d, seed=1)
        assert certificate.degree == expected_deg
        assert certificate.multiplicity == expected_mult
        assert certificate.ratio == Fraction(d, d - 1)
        assert line_scheme(X).is_empty

    def test_small_degree_routed_elsewhere(self):
        with pytest.raises(HypothesisError):
            sharpness_example(3, 2, seed=0)


def test_report_invariants():
    with pytest.raises(ValueError):
        SeshadriReport(
            status=LINE_FOUND,
            epsilon=Fraction(2),
            lower_bound=Fraction(1),
            cut_out_degree=None,
            line_scheme_dimension=0,
        )
    with pytest.raises(ValueError):
        SeshadriReport(
            status=LOWER_BOUND_ONLY,
            epsilon=None,
            lower_bound=Fraction(1, 2),
            cut_out_degree=2,
            line_scheme_dimension=-1,
        )
