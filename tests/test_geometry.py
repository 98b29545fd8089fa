import logging
import random

import pytest

from seshadri.cli import load_instance
from seshadri.polynomials import (
    QQ,
    PolynomialRing,
    PrimeField,
    restrict_to_line,
    substitute_linear,
)
from seshadri.groebner import (
    EMPTINESS_PRIME,
    Ideal,
    _at_one,
    _hilbert_from_numerator,
    _leading_numerator,
    graded_piece,
    hilbert_data,
    hilbert_function,
    ideal_quotient,
    intersect,
    monomials_of_degree,
    saturate,
)
from seshadri.geometry import (
    INFINITE,
    PointError,
    _local_basis,
    _local_leads,
    _local_multiplicity,
    _local_series,
    _lowest_forms,
    base_point,
    cone_ideal,
    cut_out_degree,
    lift_slices,
    line_scheme,
    multiplicity_at,
    normalize_point,
    ord_at,
    slice_decomposition,
    slice_ring,
    supported_only_at_basepoint,
    singular_locus_is_empty,
)
from seshadri.linalg import identity
from seshadri.oracle import count_lines_mod_q, lowest_form_mult, modular_instance

from conftest import bundled, random_homogeneous


def conic_variety(ring3, point=(1, 0, 0)):
    return normalize_point(Ideal(ring3, [ring3.parse("x0*x2 - x1^2")]), point)


class TestNormalizePoint:
    def test_already_normalized(self, ring3):
        X = conic_variety(ring3)
        assert X.basis_matrix == identity(3, QQ)
        assert X.normalized_ideal is X.ideal

    @pytest.mark.parametrize("point", [(1, 0, 0), (3, 0, 0), (1, 1, 1), (0, 0, 1)])
    def test_to_normalized_is_the_coordinate_change(self, ring3, point):
        X = conic_variety(ring3, point)
        f = ring3.parse("x0*x1 - 2*x1*x2 + x2^2")
        assert X.to_normalized(f) == substitute_linear(f, X.basis_matrix)
        if point[1:] == (0, 0):  # no coordinate change to apply
            assert X.to_normalized(f) is f

    def test_general_point_on_conic(self, ring3):
        X = conic_variety(ring3, (1, 1, 1))
        e0 = X.normalized_point()
        for g in X.normalized_ideal.generators:
            assert g.evaluate(e0) == 0

    def test_point_off_variety(self, ring3):
        with pytest.raises(PointError):
            normalize_point(Ideal(ring3, [ring3.parse("x0")]), (1, 0, 0))

    def test_zero_vector(self, ring3):
        with pytest.raises(PointError):
            normalize_point(Ideal(ring3, []), (0, 0, 0))

    def test_pivot_not_first(self, ring3):
        X = conic_variety(ring3, (0, 0, 1))
        for g in X.normalized_ideal.generators:
            assert g.evaluate(X.normalized_point()) == 0


class TestSliceDecomposition:
    def test_conic(self, ring3):
        d = slice_decomposition(ring3.parse("x0*x2 - x1^2"))
        chart = slice_ring(ring3)
        assert d == (chart.parse("x2"), chart.parse("-x1^2"))

    def test_quadric_surface(self, ring4):
        d = slice_decomposition(ring4.parse("x0*x3 - x1*x2"))
        chart = slice_ring(ring4)
        assert d == (chart.parse("x3"), chart.parse("-x1*x2"))

    def test_three_slices(self, ring4):
        d = slice_decomposition(ring4.parse("x0^2*x1 + x0*x2^2 + x3^3"))
        chart = slice_ring(ring4)
        assert d == (chart.parse("x1"), chart.parse("x2^2"), chart.parse("x3^3"))

    def test_reassembly_identity(self, ring4, rng):
        for _ in range(15):
            f = random_homogeneous(ring4, rng.randint(1, 4), rng, through_origin=True)
            assert lift_slices(slice_decomposition(f), ring4, f.total_degree()) == f

    def test_lift_of_two_slices(self, ring4):
        chart = slice_ring(ring4)
        a, b = chart.parse("x1 - 2*x3"), chart.parse("x2*x3 + 3*x1^2")
        x0a = ring4.variable(0) * ring4.parse("x1 - 2*x3")
        assert lift_slices((a, b), ring4, 2) == x0a + ring4.parse("x2*x3 + 3*x1^2")

    def test_truncations_match_the_weighted_sum(self, ring4, rng):
        x0 = ring4.variable(0)
        for _ in range(10):
            f = random_homogeneous(ring4, rng.randint(2, 4), rng, through_origin=True)
            slices = slice_decomposition(f)
            for upto in range(1, len(slices) + 1):
                expected = ring4.zero()
                for i, piece in enumerate(slices[:upto], start=1):
                    lifted = ring4.from_terms(((0, *m), c) for m, c in piece.terms)
                    expected = expected + x0 ** (upto - i) * lifted
                assert lift_slices(slices, ring4, upto) == expected

    def test_rejects_nonvanishing(self, ring3):
        with pytest.raises(ValueError):
            slice_decomposition(ring3.parse("x0^2 + x1^2"))

    def test_rejects_inhomogeneous(self, ring3):
        with pytest.raises(ValueError):
            slice_decomposition(ring3.parse("x1 + x1^2"))


class TestLineScheme:
    def test_quadric_surface_two_rulings(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
        scheme = line_scheme(X)
        assert scheme.dimension == 0
        assert scheme.hilbert.degree == 2
        # oracle agreement: exactly two lines through the point mod q
        assert count_lines_mod_q(modular_instance(X, 5)).count == 2

    def test_projective_plane_has_a_pencil(self, ring3):
        X = normalize_point(Ideal(ring3, []), (1, 0, 0))
        scheme = line_scheme(X)
        assert scheme.dimension == 1

    def test_fermat_cubic_at_good_point(self, ring4):
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        scheme = line_scheme(X)
        assert scheme.is_empty
        for q in (5, 11, 17):
            assert count_lines_mod_q(modular_instance(X, q)).count == 0

    def test_soundness_both_ways(self, ring4):
        # directions found by the modular oracle satisfy the slice equations,
        # and rational points of the line scheme span lines inside X
        X = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
        scheme = line_scheme(X)
        q = 7
        found = count_lines_mod_q(modular_instance(X, q))
        assert found.count == 2
        gf_chart = slice_ring(X.ring).with_field(PrimeField(q))
        for direction in found.directions:
            for g in scheme.ideal.generators:
                reduced = gf_chart.from_terms(g.terms)
                assert reduced.evaluate(direction[1:]) == 0
        for direction in ((0, 1, 0, 0), (0, 0, 1, 0)):
            for g in X.normalized_ideal.generators:
                assert restrict_to_line(g, (1, 0, 0, 0), direction).is_zero()


class TestCutOutDegree:
    def test_quadric(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
        assert cut_out_degree(X) == 2

    def test_twisted_cubic(self, ring4):
        ideal = Ideal(
            ring4,
            [
                ring4.parse("x0*x3 - x1*x2"),
                ring4.parse("x1^2 - x0*x2"),
                ring4.parse("x2^2 - x1*x3"),
            ],
        )
        assert cut_out_degree(normalize_point(ideal, (1, 0, 0, 0))) == 2

    def test_hyperplane(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x3")]), (1, 0, 0, 0))
        assert cut_out_degree(X) == 1

    def test_projective_space(self, ring4):
        X = normalize_point(Ideal(ring4, []), (1, 0, 0, 0))
        assert cut_out_degree(X) == 1

    def test_plane_and_line_beyond_the_degree(self, ring4):
        # V(x1*x3, x2*x3) is the plane x3 = 0 plus the line x1 = x2 = 0, both
        # through [1:0:0:0]; no linear form cuts it out there, and d_p = 2
        # exceeds deg X = 1
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x1*x3"), ring4.parse("x2*x3")]), (1, 0, 0, 0)
        )
        assert X.degree == 1
        assert cut_out_degree(X) == 2

    def test_line_with_an_embedded_point(self, ring3):
        X = normalize_point(
            Ideal(ring3, [ring3.parse("x1^2"), ring3.parse("x1*x2")]), (1, 0, 0)
        )
        assert X.degree == 1
        assert cut_out_degree(X) == 2


class TestMultiplicity:
    def test_smooth_point_of_conic(self, ring3):
        assert multiplicity_at(conic_variety(ring3)) == 1

    def test_cuspidal_cubic(self, ring3):
        X = normalize_point(Ideal(ring3, [ring3.parse("x2*x1^2 - x0^3")]), (0, 0, 1))
        assert multiplicity_at(X) == 2

    def test_cone_over_conic(self, ring4):
        X = normalize_point(Ideal(ring4, [ring4.parse("x1*x3 - x2^2")]), (1, 0, 0, 0))
        assert multiplicity_at(X) == 2

    def test_projective_space_is_smooth(self, ring3):
        X = normalize_point(Ideal(ring3, []), (1, 0, 0))
        assert multiplicity_at(X) == 1

    def test_point_on_a_lower_dimensional_component(self, ring4):
        # V(x1*x3, x2*x3) is the plane x3 = 0 plus the line x1 = x2 = 0;
        # [0:0:0:1] lies on the line only, so the local ring is regular
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x1*x3"), ring4.parse("x2*x3")]), (0, 0, 0, 1)
        )
        assert X.dimension == 2
        assert multiplicity_at(X) == 1

    def test_fat_points_have_their_length(self, ring3):
        # isolated non-reduced points: V(x1^2, x2) and the square of a point
        for gens, length in ((("x1^2", "x2"), 2), (("x1^2", "x1*x2", "x2^2"), 3)):
            X = normalize_point(Ideal(ring3, [ring3.parse(g) for g in gens]), (1, 0, 0))
            assert multiplicity_at(X) == reference_length(X) == length


FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])


def _tangent_cone(X):
    """The ideal TC of lowest forms at the base point, in the slice ring:
    those of the local basis generate it (Sturmfels, Groebner Bases and
    Convex Polytopes, Prop. 1.13)."""
    return Ideal(slice_ring(X.ring), _lowest_forms(_local_basis(X.normalized_ideal)[1]))


def reference_cone_series(X):
    """Q(1), ... of the tangent cone's own Hilbert series, read off its
    grevlex basis: the route `multiplicity_at` took before it read the
    local leading ideal."""
    cone = _tangent_cone(X)
    return _at_one(_leading_numerator(cone), cone.ring.nvars)


def reference_length(X):
    """Length of the local ring at an isolated base point, as `multiplicity_at`
    summed it before reading the Hilbert-series numerator: the Hilbert
    function of the tangent cone, degree by degree, until it vanishes."""
    cone = _tangent_cone(X)
    length = 0
    d = 0
    while (h := hilbert_function(cone, d)) > 0:
        length += h
        d += 1
    return length


def reference_multiplicity(X):
    """mult_p by the former route: the degree of Proj of the tangent cone, or
    the length when the point is isolated and that Proj is empty."""
    data = hilbert_data(_tangent_cone(X))
    return reference_length(X) if data.is_empty else data.degree


def reference_supported_only_at_basepoint(K):
    """Whether V(K) = {[1:0:...:0]}, by the former route: K is
    zero-dimensional, and saturating by each x_i, i >= 1, which removes what
    lies in V(x_i), the base point among it, leaves the empty scheme."""
    if hilbert_data(K).dimension != 0:
        return False
    ring = K.ring
    return all(
        hilbert_data(saturate(K, Ideal(ring, [ring.variable(i)]))).is_empty
        for i in range(1, ring.nvars)
    )


def _form_through_p(ring, degree, order, rng):
    """A random form of the given degree vanishing to at least `order` at
    [1:0:...:0]: no term has an x_0 power above degree - order."""
    while True:
        form = ring.from_terms(
            (exps, rng.randint(-3, 3))
            for exps in monomials_of_degree(ring.nvars, degree)
            if exps[0] <= degree - order
        )
        if form:
            return form


def _fixing_p(ring, rng):
    """A random upper triangular coordinate change: it keeps [1:0:...:0]."""
    n = ring.nvars
    return [
        [rng.randint(1, 3) if j == i else rng.randint(-2, 2) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]


def _moved(ideal, matrix):
    return Ideal(ideal.ring, [substitute_linear(g, matrix) for g in ideal.generators])


def _fat_point(ring, rng):
    """A zero-dimensional ideal supported at [1:0:...:0] alone: pure powers
    of x_1..x_n plus random forms vanishing to order 2 there."""
    powers = [ring.variable(i) ** rng.randint(1, 3) for i in range(1, ring.nvars)]
    extra = [_form_through_p(ring, rng.randint(2, 3), 2, rng) for _ in range(2)]
    return Ideal(ring, powers + extra)


def _rational_point(ring, rng):
    """The ideal of a random point [a_0 : 1 : a_2 : ...], never the base point."""
    coords = [rng.randint(-3, 3) for _ in range(ring.nvars)]
    x = ring.variables()
    return Ideal(ring, [x[j] - coords[j] * x[1] for j in range(ring.nvars) if j != 1])


def _conjugate_pair(ring):
    """[1 : ±i : 1 : 0 : ...]: a point of degree 2 over Q and over F_7,
    where -1 is no square, and none of it rational."""
    x = ring.variables()
    return Ideal(ring, [x[1] ** 2 + x[0] ** 2, x[2] - x[0]] + x[3:])


class TestLocalInvariantsAgainstReferences:
    @FIELDS
    @pytest.mark.parametrize("nvars", [3, 4, 5])
    def test_multiplicity_matches_the_former_route(self, field, nvars):
        rng = random.Random(f"multiplicity {field!r} {nvars}")
        ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
        for _ in range(4):
            # nvars - 1 forms through p give an isolated point, fewer a
            # curve or more through it
            count = rng.randint(1, nvars - 1)
            top = 3 if nvars < 5 else 2
            gens = [
                _form_through_p(ring, rng.randint(2, top), rng.randint(1, 2), rng)
                for _ in range(count)
            ]
            X = normalize_point(Ideal(ring, gens), base_point(ring))
            assert multiplicity_at(X) == reference_multiplicity(X)

    @FIELDS
    @pytest.mark.parametrize("nvars", [3, 4])
    def test_support_and_length_match_the_former_routes(self, field, nvars):
        rng = random.Random(f"support {field!r} {nvars}")
        ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
        for _ in range(2):
            fat = _fat_point(ring, rng)
            cases = [
                (fat, True),
                (intersect(fat, _rational_point(ring, rng)), False),
                (intersect(fat, _conjugate_pair(ring)), False),
            ]
            matrix = _fixing_p(ring, rng)
            for K, alone in cases:
                K = _moved(K, matrix)
                assert hilbert_data(K).dimension == 0
                assert supported_only_at_basepoint(K) is alone
                assert reference_supported_only_at_basepoint(K) is alone
                X = normalize_point(K, base_point(ring))
                assert multiplicity_at(X) == reference_length(X)
            # random forms through p meet again elsewhere
            K = Ideal(ring, [_form_through_p(ring, 2, 1, rng) for _ in range(nvars - 1)])
            assert supported_only_at_basepoint(K) == reference_supported_only_at_basepoint(K)

    def test_base_point_off_the_scheme(self, ring3):
        K = Ideal(ring3, [ring3.parse("x0 - x1"), ring3.parse("x2")])
        assert not supported_only_at_basepoint(K)
        assert not reference_supported_only_at_basepoint(K)


class TestLocalLeadingIdeal:
    """mult_p and the local dimension read off the local leading ideal,
    against Q(1) and the length of the series of the tangent cone's own
    basis, on seeded coordinate changes that fix the point."""

    @staticmethod
    def check(X, mult, dim):
        series = _local_series(_local_leads(X.normalized_ideal), X.ambient_dimension)
        assert series == reference_cone_series(X)
        assert _local_multiplicity(X) == series[0] == mult
        assert len(series) - 1 == dim
        if dim == 0:  # an isolated point: Q(1) is the length
            assert mult == reference_length(X)

    @FIELDS
    @pytest.mark.parametrize(
        "gens, mult, dim",
        [
            (("x0*x2^2 - x1^3",), 2, 1),  # a cusp
            (("x0^2*x2^2 - x1^4",), 2, 1),  # a tacnode
            (("x2*(x0*x2 - x1^2)",), 2, 1),  # a conic and its tangent line
            (("x1^2",), 2, 1),  # a double line
            (("x1^2", "x2"), 2, 0),  # a double point
            (("x1^2", "x1*x2", "x2^2"), 3, 0),  # the square of a point
            ((), 1, 2),  # the plane itself
        ],
    )
    def test_plane_schemes(self, field, gens, mult, dim):
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        ideal = Ideal(ring, [ring.parse(g) for g in gens])
        moved = _moved(ideal, _fixing_p(ring, random.Random(f"plane {gens}")))
        for K in (ideal, moved):
            self.check(normalize_point(K, base_point(ring)), mult, dim)

    @FIELDS
    @pytest.mark.parametrize(
        "gens, mult, dim",
        [
            (("x3", "x0*x2^2 - x1^3"), 2, 1),  # a cusp in a plane of P^3
            (("x3 - x1", "x0^2*x2^2 - x1^4"), 2, 1),  # a tacnode in a plane of P^3
            (("x1^2",), 2, 2),  # a double plane
            (("x1^3 + x2^3 + x3^3",), 3, 2),  # the cone over a plane cubic
            (("x1^2", "x1*x2"), 1, 2),  # a plane with an embedded line
        ],
    )
    def test_space_schemes(self, field, gens, mult, dim):
        ring = PolynomialRing(("x0", "x1", "x2", "x3"), field)
        ideal = Ideal(ring, [ring.parse(g) for g in gens])
        moved = _moved(ideal, _fixing_p(ring, random.Random(f"space {gens}")))
        for K in (ideal, moved):
            self.check(normalize_point(K, base_point(ring)), mult, dim)

    @FIELDS
    @pytest.mark.parametrize("nvars", [3, 4])
    def test_seeded_singular_points(self, field, nvars):
        # forms vanishing to order 2 at p, too few and as many as the slice
        # variables, and zero-dimensional schemes supported at p alone
        rng = random.Random(f"local leads {field!r} {nvars}")
        ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
        for _ in range(3):
            gens = [
                _form_through_p(ring, rng.randint(2, 3), 2, rng)
                for _ in range(rng.randint(1, nvars - 1))
            ]
            X = normalize_point(Ideal(ring, gens), base_point(ring))
            series = reference_cone_series(X)
            assert series[0] >= 2  # forms in the square of the maximal ideal
            self.check(X, series[0], len(series) - 1)
            fat = _moved(_fat_point(ring, rng), _fixing_p(ring, rng))
            X = normalize_point(fat, base_point(ring))
            self.check(X, reference_length(X), 0)


class TestMultiplicityEdges:
    def test_embedded_point_on_a_line(self, ring3):
        # the line x1 = 0 with an embedded point at [1:0:0]: the local ring
        # has dimension 1 and the multiplicity of the line
        ideal = Ideal(ring3, [ring3.parse("x1^2"), ring3.parse("x1*x2")])
        X = normalize_point(ideal, (1, 0, 0))
        assert multiplicity_at(X) == reference_multiplicity(X) == 1

    @FIELDS
    def test_cone_over_a_plane_cubic_at_its_vertex(self, field):
        ring = PolynomialRing(("x0", "x1", "x2", "x3"), field)
        X = normalize_point(Ideal(ring, [ring.parse("x1^3 + x2^3 + x3^3")]), base_point(ring))
        assert multiplicity_at(X) == reference_multiplicity(X) == 3

    @FIELDS
    @pytest.mark.parametrize(
        "curve, point, mult",
        [
            ("x1^2", (1, 0, 0), 2),  # a double line
            ("x1*x2*(x1 - x2)", (1, 0, 0), 3),  # the cone over three points
            ("x2*x1^2 - x0^3", (0, 0, 1), 2),  # a cusp
            ("x0*x2 - x1^2", (1, 1, 1), 1),
        ],
    )
    def test_plane_curves_match_the_lowest_form(self, field, curve, point, mult):
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        f = ring.parse(curve)
        X = normalize_point(Ideal(ring, [f]), point)
        assert multiplicity_at(X) == lowest_form_mult(f, point) == mult


class TestOrdAt:
    def test_linear_form_on_plane(self, ring3):
        X = normalize_point(Ideal(ring3, []), (1, 0, 0))
        assert ord_at(ring3.parse("x1"), X) == 1

    def test_squared_linear_form(self, ring3):
        X = normalize_point(Ideal(ring3, []), (1, 0, 0))
        assert ord_at(ring3.parse("x1^2"), X) == 2

    def test_cubed_linear_form(self, ring3):
        X = normalize_point(Ideal(ring3, []), (1, 0, 0))
        assert ord_at(ring3.parse("x1^3"), X) == 3

    def test_doubling_on_the_conic(self, ring3):
        # x2 agrees with x1^2 on the conic, so its order jumps to 2 and no
        # further: membership at level 3 fails
        X = conic_variety(ring3)
        assert ord_at(ring3.parse("x2"), X) == 2

    def test_nonvanishing_function(self, ring3):
        X = conic_variety(ring3)
        assert ord_at(ring3.parse("x0"), X) == 0

    def test_member_is_infinite(self, ring3):
        X = conic_variety(ring3)
        assert ord_at(ring3.parse("x0*x2 - x1^2"), X) == INFINITE

    def test_zero_in_the_local_ring_is_infinite(self, ring3):
        # V(x1, x2^2 - x0*x2) is two reduced points; near [1:0:0] the
        # ideal is (x1, x2), so x2 vanishes there although it is no member
        X = normalize_point(
            Ideal(ring3, [ring3.parse("x1"), ring3.parse("x2^2 - x0*x2")]), (1, 0, 0)
        )
        assert ord_at(ring3.parse("x2"), X) == INFINITE

    def test_zero_polynomial_is_infinite(self, ring3):
        X = conic_variety(ring3)
        assert ord_at(ring3.zero(), X) == INFINITE


def _quotient_misses_point(J, I, X):
    e0 = X.normalized_point()
    return any(g.evaluate(e0) != 0 for g in ideal_quotient(J, I).generators)


def _reference_cut_out_degree(X):
    """The least d with (ideal(I_d) : I) not inside the point's ideal."""
    I = X.normalized_ideal
    top = max(g.total_degree() for g in I.generators)
    for d in range(1, top + 1):
        if _quotient_misses_point(Ideal(X.ring, graded_piece(I, d)), I, X):
            return d
    raise AssertionError("the top generator degree always cuts X out")


def test_local_answers_match_the_quotient_route(ring4):
    """d_p and the INFINITE case of ord_p against ideal quotients."""
    rng = random.Random(3)
    parse = ring4.parse

    def through_p(degree):
        return random_homogeneous(ring4, degree, rng, spread=2, through_origin=True)

    # components missing [1:0:0:0]: a line and the point [0:0:0:1]
    far = [
        Ideal(ring4, [parse("x0 - x1"), parse("x2 + x3")]),
        Ideal(ring4, [parse("x0"), parse("x1"), parse("x2")]),
    ]
    ideals = [Ideal(ring4, [through_p(d) for d in degrees])
              for degrees in ((2,), (2, 2), (2, 3), (3,))]
    for component in far:
        for degrees in ((2,), (2, 2)):
            near = Ideal(ring4, [through_p(d) for d in degrees])
            ideals.append(intersect(near, component))
    for gens in (("x1*x3", "x2*x3"), ("x1^2", "x1*x2", "x1*x3"), ("x1^2", "x1*x2", "x2^2")):
        ideals.append(Ideal(ring4, [parse(g) for g in gens]))
    varieties = [normalize_point(I, (1, 0, 0, 0)) for I in ideals]
    for name in ("fermat-cubic", "gr24-hyperplanes", "gr25-pluecker", "quadric-surface",
                 "quadric-threefold", "quartic-threefold", "twisted-cubic", "two-quadrics-p4"):
        bundled_variety = load_instance(bundled(name)).variety()
        assert cut_out_degree(bundled_variety) == _reference_cut_out_degree(bundled_variety)
    for X in varieties:
        assert cut_out_degree(X) == _reference_cut_out_degree(X)
        I = X.normalized_ideal
        for f in [parse("x1"), parse("x2"), parse("x3")] + list(I.generators[:2]):
            expected = _quotient_misses_point(I, Ideal(ring4, (f,)), X)
            assert (ord_at(f, X, normalized=True) == INFINITE) == expected


class TestConeIdeal:
    def test_linear_cone(self):
        chart = PolynomialRing(("x1", "x2"))
        cone = cone_ideal(Ideal(chart, [chart.parse("x1")]))
        assert cone.ring.nvars == 3
        data = hilbert_data(cone)
        assert (data.dimension, data.degree) == (1, 1)

    def test_cone_over_point_is_a_line(self):
        chart = PolynomialRing(("x1", "x2", "x3"))
        point = Ideal(chart, [chart.parse("x1"), chart.parse("x2 - x3")])
        cone = cone_ideal(point)
        data = hilbert_data(cone)
        assert (data.dimension, data.degree) == (1, 1)

    def test_cone_over_conic_is_a_quadric_cone(self, ring4):
        chart = slice_ring(ring4)
        conic = Ideal(chart, [chart.parse("x1*x3 - x2^2")])
        cone = cone_ideal(conic, ambient_ring=ring4)
        assert hilbert_data(cone).degree == hilbert_data(conic).degree == 2

    def test_cone_law_on_samples(self, ring4, ring5):
        # degree of the cone = degree of the base = multiplicity at the vertex
        chart4 = slice_ring(ring4)
        chart5 = slice_ring(ring5)
        samples = [
            (Ideal(chart4, [chart4.parse("x2"), chart4.parse("x3")]), ring4),
            (Ideal(chart4, [chart4.parse("x1*x3 - x2^2")]), ring4),
            (
                Ideal(
                    chart5,
                    [
                        chart5.parse("x1*x4 - x2*x3"),
                        chart5.parse("x2^2 - x1*x3"),
                        chart5.parse("x3^2 - x2*x4"),
                    ],
                ),
                ring5,
            ),
        ]
        for base, ambient in samples:
            cone = cone_ideal(base, ambient_ring=ambient)
            base_deg = hilbert_data(base).degree
            assert hilbert_data(cone).degree == base_deg
            vertex = normalize_point(cone, (1,) + (0,) * (ambient.nvars - 1))
            assert multiplicity_at(vertex) == base_deg


class TestSupport:
    def test_single_point(self, ring4):
        K = Ideal(ring4, [ring4.parse("x1"), ring4.parse("x2"), ring4.parse("x3")])
        assert supported_only_at_basepoint(K)

    def test_fat_point(self, ring3):
        K = Ideal(ring3, [ring3.parse("x1^2"), ring3.parse("x2")])
        assert supported_only_at_basepoint(K)

    def test_extra_point_detected(self, ring4):
        K = Ideal(ring4, [ring4.parse("x1"), ring4.parse("x2"), ring4.parse("x3^2 - x0*x3")])
        assert not supported_only_at_basepoint(K)

    def test_positive_dimension_detected(self, ring4):
        K = Ideal(ring4, [ring4.parse("x1"), ring4.parse("x2")])
        assert not supported_only_at_basepoint(K)


class TestLocalIntersectionInequality:
    def test_plane_curve_samples(self, ring3, rng):
        # deg(f) * deg(g) bounds ord_p(f) * mult_p(C) for plane curves
        for trial in range(10):
            g = random_homogeneous(ring3, rng.randint(2, 3), rng, through_origin=True)
            X = normalize_point(Ideal(ring3, [g]), (1, 0, 0))
            f = random_homogeneous(ring3, rng.randint(1, 2), rng, through_origin=True)
            order = ord_at(f, X)
            if order == INFINITE:
                continue
            assert f.total_degree() * g.total_degree() >= order * multiplicity_at(X)


def test_singular_locus_helper(ring3, ring4):
    smooth = normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), (1, 0, 0, 0))
    assert singular_locus_is_empty(smooth)
    cusp = normalize_point(Ideal(ring3, [ring3.parse("x2*x1^2 - x0^3")]), (0, 0, 1))
    assert not singular_locus_is_empty(cusp)


def _singular_locus_over_q_is_empty(f):
    """Emptiness of V(f, df/dx_0, ..., df/dx_N), read off a basis over Q
    with no prime asked."""
    ring = f.ring
    partials = [f.derivative(i) for i in range(ring.nvars)]
    K = Ideal(ring, [f] + [d for d in partials if d])
    return _hilbert_from_numerator(_leading_numerator(K), ring.nvars).is_empty


@pytest.mark.parametrize("nvars, degree", [(4, 3), (4, 4), (5, 3)])
def test_a_hypersurface_is_smooth_iff_its_partials_have_no_common_zero(nvars, degree, caplog):
    # Euler's relation puts f in the ideal of its partials: dropping f
    # changes the route, to N + 1 forms in N + 1 variables, not the verdict
    rng = random.Random(nvars * 10 + degree)
    ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
    smooth = random_homogeneous(ring, degree, rng, through_origin=True)
    # a cone with vertex [0:...:0:1], and a double point there
    cone = random_homogeneous(PolynomialRing(ring.names[:-1]), degree, rng, through_origin=True)
    cone = ring.from_terms((m + (0,), c) for m, c in cone.terms)
    double = random_homogeneous(ring, degree, rng, through_origin=True)
    double = ring.from_terms((m, c) for m, c in double.terms if m[-1] < degree - 1)
    caplog.set_level(logging.DEBUG, logger="seshadri.groebner")
    for f, expected in ((smooth, True), (cone, False), (double, False)):
        X = normalize_point(Ideal(ring, [f]), base_point(ring))
        assert singular_locus_is_empty(X) == _singular_locus_over_q_is_empty(f) == expected
    assert any(
        m.startswith(f"emptiness mod {EMPTINESS_PRIME}: {nvars} generators, {nvars} variables, "
                     "certified empty in ")
        for m in caplog.messages
    )


def test_a_cubic_in_characteristic_3_keeps_itself_in_its_singular_locus():
    # 3 divides the degree, so Euler's relation says nothing: the partials
    # alone meet, at [0:1:0], but f does not vanish there
    ring = PolynomialRing(("x0", "x1", "x2"), PrimeField(3))
    f = ring.parse("x0^2*x1 + x0*x2^2 + x1^3")
    partials = Ideal(ring, [f.derivative(i) for i in range(3)])
    assert not hilbert_data(partials).is_empty
    assert singular_locus_is_empty(normalize_point(Ideal(ring, [f]), base_point(ring)))
