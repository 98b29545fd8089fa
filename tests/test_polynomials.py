import random
import time
from fractions import Fraction

import pytest

from seshadri.linalg import SingularMatrixError, invert
from seshadri.polynomials import (
    BadReductionError,
    Monomial,
    MonomialOrder,
    ParseError,
    PolynomialRing,
    PrimeField,
    QQ,
    _is_prime,
    parse_polynomial,
    restrict_to_line,
    substitute_linear,
)

from conftest import random_homogeneous, random_poly


class TestParser:
    def test_two_term_quadric(self, ring4):
        f = ring4.parse("x0*x2 - x1^2")
        assert len(f.terms) == 2
        assert f.total_degree() == 2
        assert f.is_homogeneous()

    def test_binomial_expansion(self, ring2):
        f = ring2.parse("(x0+x1)^2")
        assert f == ring2.parse("x0^2 + 2*x0*x1 + x1^2")

    def test_unknown_variable(self, ring2):
        with pytest.raises(ParseError) as err:
            ring2.parse("x0 + y")
        assert "y" in str(err.value)

    def test_syntax_error_carries_position(self, ring2):
        with pytest.raises(ParseError) as err:
            ring2.parse("x0 + + *")
        assert err.value.position >= 0

    def test_division_is_rejected(self, ring2):
        with pytest.raises(ParseError):
            ring2.parse("x0/x1")

    def test_rational_literals(self, ring2):
        f = ring2.parse("3/2*x0 - 1/4*x1")
        assert f.coefficient((1, 0)) == Fraction(3, 2)
        assert f.coefficient((0, 1)) == Fraction(-1, 4)

    def test_leading_minus(self, ring2):
        assert ring2.parse("-x0 + x1") == ring2.parse("x1 - x0")

    def test_integer_power(self, ring2):
        assert ring2.parse("2^3") == ring2.constant(8)

    def test_roundtrip_random(self, ring3, rng):
        for _ in range(25):
            f = random_poly(ring3, 3, rng)
            assert ring3.parse(str(f)) == f


class TestEvaluate:
    def test_point_on_quadric(self, ring4):
        f = ring4.parse("x0*x2 - x1^2")
        assert f.evaluate([1, 0, 0, 0]) == 0

    def test_point_arithmetic(self, ring4):
        f = ring4.parse("x0*x2 - x1^2")
        assert f.evaluate([1, 1, 1, 0]) == 0

    def test_fermat_cancellation(self, ring4):
        f = ring4.parse("x0^3+x1^3+x2^3+x3^3")
        assert f.evaluate([1, -1, 0, 0]) == 0

    def test_length_mismatch(self, ring4):
        with pytest.raises(ValueError):
            ring4.parse("x0").evaluate([1, 0])


class TestSubstituteLinear:
    def test_identity(self, ring2):
        f = ring2.parse("x1")
        eye = [[1, 0], [0, 1]]
        assert substitute_linear(f, eye) == f

    def test_swap(self, ring2):
        f = ring2.parse("x0^2")
        swap = [[0, 1], [1, 0]]
        assert substitute_linear(f, swap) == ring2.parse("x1^2")

    def test_moving_a_point_on_the_conic(self, ring3):
        # columns: the point [1:1:1] first, then complementary basis vectors
        f = ring3.parse("x0*x2 - x1^2")
        assert f.evaluate([1, 1, 1]) == 0
        matrix = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
        g = substitute_linear(f, matrix)
        assert g.evaluate([1, 0, 0]) == 0
        assert g.total_degree() == 2

    def test_singular_matrix_rejected(self, ring2):
        with pytest.raises(SingularMatrixError):
            substitute_linear(ring2.parse("x0"), [[1, 1], [1, 1]])

    def test_size_mismatch(self, ring3):
        with pytest.raises(ValueError):
            substitute_linear(ring3.parse("x0"), [[1, 0], [0, 1]])


def _random_invertible(n, rng):
    while True:
        matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            inverse = invert(matrix, QQ)
        except SingularMatrixError:
            continue
        return matrix, inverse


class TestAlgebraProperties:
    def test_distributivity(self, ring3, rng):
        for _ in range(20):
            f = random_poly(ring3, 2, rng)
            g = random_poly(ring3, 2, rng)
            h = random_poly(ring3, 2, rng)
            assert (f + g) * h == f * h + g * h

    def test_substitution_inverts(self, ring3, rng):
        for _ in range(10):
            f = random_poly(ring3, 3, rng)
            matrix, inverse = _random_invertible(3, rng)
            assert substitute_linear(substitute_linear(f, matrix), inverse) == f

    def test_evaluation_is_multiplicative(self, ring3, rng):
        for _ in range(20):
            f = random_poly(ring3, 2, rng)
            g = random_poly(ring3, 2, rng)
            pt = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)

    def test_substitution_preserves_homogeneity(self, ring4, rng):
        for _ in range(10):
            f = random_homogeneous(ring4, 3, rng)
            matrix, _ = _random_invertible(4, rng)
            g = substitute_linear(f, matrix)
            degrees = {m.degree for m, _ in g.terms}
            assert degrees == {3}


def _random_monomial(nvars, rng, max_exp=4):
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(nvars)))


class TestMonomialOrders:
    @pytest.mark.parametrize(
        "order",
        [
            MonomialOrder.grevlex(4),
            MonomialOrder.lex(4),
            MonomialOrder.elimination(4, 2),
            MonomialOrder.grevlex(4, permutation=(2, 0, 3, 1)),
        ],
    )
    def test_total_and_multiplicative(self, order, rng):
        for _ in range(200):
            a = _random_monomial(4, rng)
            b = _random_monomial(4, rng)
            ka, kb = order.key(a), order.key(b)
            assert (ka == kb) == (a == b)
            if ka > kb:
                c = _random_monomial(4, rng)
                assert order.key(a * c) > order.key(b * c)

    def test_grevlex_ties_break_on_last_variable(self):
        order = MonomialOrder.grevlex(3)
        assert order.greater(Monomial((1, 1, 0)), Monomial((1, 0, 1)))

    def test_elimination_blocks_dominate(self):
        order = MonomialOrder.elimination(3, 1)
        # anything containing the first variable beats anything without it
        assert order.greater(Monomial((1, 0, 0)), Monomial((0, 5, 5)))


class TestPrimeField:
    def test_inverse(self):
        field = PrimeField(13)
        for a in range(1, 13):
            assert field.mul(a, field.invert(a)) == 1

    def test_fraction_reduction(self):
        field = PrimeField(7)
        assert field.coerce(Fraction(1, 2)) == 4

    def test_bad_reduction(self):
        field = PrimeField(7)
        with pytest.raises(BadReductionError):
            field.coerce(Fraction(1, 14))

    def test_not_prime(self):
        with pytest.raises(ValueError):
            PrimeField(10)

    def test_large_prime_is_certified_quickly(self):
        # trial division would take minutes on the Mersenne prime 2^61 - 1
        start = time.perf_counter()
        assert PrimeField(2**61 - 1).q == 2**61 - 1
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(2**61 + 1)
        # strong pseudoprime to the bases 2, 3, ..., 37 (psi_12)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(318665857834031151167461)
        assert time.perf_counter() - start < 1

    def test_prime_beyond_the_certified_range(self):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2**89 - 1)

    def test_primality_agrees_with_trial_division(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        for n in list(range(-3, 3000)) + [3215031751, 2152302898747]:
            assert _is_prime(n) == trial(n), n

    def test_polynomials_over_gf(self):
        ring = PolynomialRing(("x", "y"), field=PrimeField(5))
        f = ring.parse("3*x + 4*y")
        g = f + f
        assert g == ring.parse("x + 3*y")


def test_substitution_of_a_high_power(ring2):
    # powers are built iteratively: no recursion depth grows with the degree
    swapped = substitute_linear(ring2.parse("x0^1500"), [[0, 1], [1, 0]])
    assert swapped == ring2.parse("x1^1500")


def test_restrict_to_line_vanishes_on_ruling(ring4):
    f = ring4.parse("x0*x3 - x1*x2")
    restricted = restrict_to_line(f, [1, 0, 0, 0], [0, 1, 0, 0])
    assert restricted.is_zero()
    off = restrict_to_line(f, [1, 0, 0, 0], [0, 1, 1, 0])
    assert not off.is_zero()


def test_parse_polynomial_function(ring2):
    assert parse_polynomial("x0 + x1", ring2) == ring2.parse("x0+x1")
