import random
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest

from seshadri.groebner import divide_exact
from seshadri.linalg import SingularMatrixError, invert
from seshadri.polynomials import (
    BadReductionError,
    MonomialOrder,
    ParseError,
    PolynomialRing,
    PrimeField,
    QQ,
    _is_prime,
    compose,
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

    def test_other_decimal_digits_read_as_integers(self, ring2):
        # ARABIC-INDIC DIGIT THREE is a decimal digit: int() reads it as 3
        assert ring2.parse("x0^\u0663") == ring2.parse("x0^3")

    def test_roundtrip_random(self, ring3, rng):
        for _ in range(25):
            f = random_poly(ring3, 3, rng)
            assert ring3.parse(str(f)) == f

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_terms_are_the_products_of_their_factors(self, field):
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        x0, x1, x2 = ring.variables()
        c = ring.constant
        cases = {
            "x0*x0^2": x0 * x0**2,
            "3/4*x1*2*x0^2*x1": c(Fraction(3, 4)) * x1 * c(2) * x0**2 * x1,
            "2^3*x2^0*5/3": c(2) ** 3 * x2**0 * c(Fraction(5, 3)),
            "x1*0*x2": x1 * c(0) * x2,
            "0^0*x1": c(0) ** 0 * x1,
            "2*(x0 + x1)^2*x2*(x1 - 1/2)": c(2) * (x0 + x1) ** 2 * x2 * (x1 - c(Fraction(1, 2))),
            "-x0*(x1)*x0 + 7*x2": -(x0 * x1 * x0) + c(7) * x2,
        }
        for text, expected in cases.items():
            assert ring.parse(text) == expected, text

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_random_forms_parse_to_their_terms(self, field, rng):
        # dense forms, each term a product written in a random style:
        # signs, rational literals, parenthesised and repeated factors
        ring = PolynomialRing(("x0", "x1", "x2", "x3"), field)
        over_q = ring.with_field(QQ)
        for trial in range(30):
            degree = rng.randint(1, 4)
            if trial % 2:
                f = random_homogeneous(over_q, degree, rng)
            else:
                f = random_poly(over_q, degree, rng) + over_q.constant(rng.randint(-3, 3))
            # denominators below 7 stay invertible in GF(7)
            terms = [(m, c / rng.randint(1, 6)) for m, c in f.terms]
            chunks = [_render_term(ring.names, m, c, rng) for m, c in terms]
            rng.shuffle(chunks)
            text = " ".join(chunks).lstrip("+ ")
            expected = ring.from_terms(terms)
            assert ring.parse(text) == expected, text
            assert ring.parse(str(expected)) == expected

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_cancelling_terms_parse_to_zero(self, field):
        ring = PolynomialRing(("x0", "x1"), field)
        assert ring.parse("x0 - x0").is_zero()
        assert ring.parse("-x0*x1 + 1/2*x1*x0 + (x0)*1/2*x1") == ring.zero()
        assert ring.parse("(x0 - x0)^2*x1 + 0*(x0 + x1)").is_zero()

    def test_rational_literals_reduce_where_they_appear(self):
        # 1/7 has no value in GF(7), though the term's coefficient is 1
        ring = PolynomialRing(("x0", "x1"), PrimeField(7))
        for text in ("1/7*7*x0", "x1 + 7*(1/7*x0)", "x1 + 0*1/14"):
            with pytest.raises(BadReductionError):
                ring.parse(text)
        assert ring.parse("7/7*x0 + 14/7*x1") == ring.parse("x0 + 2*x1")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x0*x1^y", "expected 'int', found 'y'", 6),
            ("2*x0*z^2", "unknown variable 'z'", 5),
            ("x0*(x1 + w)", "unknown variable 'w'", 9),
            ("x0*1/0", "zero denominator", 5),
            ("x0^2^3", "unexpected '^'", 4),
            # superscripts pass str.isdigit but are no decimal digits
            ("x0^\u00b2", "unexpected character '\u00b2'", 3),
            ("x0^2\u00b2", "unexpected character '\u00b2'", 4),
            # a word that starts with no letter and no "_" is refused at its start
            ("\u00b2x0", "unexpected character '\u00b2'", 0),
            ("x0\u00b2", "unknown variable 'x0\u00b2'", 0),
            ("x0 +\t ", "unexpected ''", 6),
            # the whole text is tokenized before it is parsed
            ("x0 + + $", "unexpected character '$'", 7),
        ],
    )
    def test_errors_keep_their_message_and_position(self, ring3, text, message, position):
        with pytest.raises(ParseError) as err:
            ring3.parse(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit before 3.10.7"
)
@pytest.mark.parametrize(
    "template, position",
    [("{}*x0", 0), ("x0 + 1/{}", 7), ("x0*x1^{}", 6)],
    ids=["coefficient", "denominator", "exponent"],
)
def test_overlong_integer_literal_is_a_parse_error(ring3, template, position):
    # a literal longer than int("...") converts is refused at its token,
    # whatever its place; one at the limit parses
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        ring3.parse(template.format("7" * (limit + 1)))
    assert err.value.position == position
    assert str(err.value) == (
        f"integer literal of {limit + 1} digits exceeds the limit of {limit} digits "
        f"(at position {position})"
    )
    assert ring3.parse(template.format("1" + "0" * (limit - 1)))


def _render_term(names, mono, coeff, rng):
    """coeff * x^mono as "+ ..." or "- ...": the factors are the coefficient
    (an int or a rational literal, possibly unreduced or in parentheses,
    mostly left out when it is 1) and each variable as x^e, (x)^e or e
    copies of x, in a random order; a minus is sometimes a factor (-1)."""
    sign, coeff = ("-", -coeff) if coeff < 0 else ("+", coeff)
    factors = []
    k = rng.randint(1, 3)
    literal = f"{coeff.numerator * k}/{coeff.denominator * k}"
    if coeff.denominator == 1 and rng.random() < 0.5:
        literal = str(coeff.numerator)
    if coeff != 1 or rng.random() < 0.3:
        factors.append(f"({literal})" if rng.random() < 0.3 else literal)
    for name, e in zip(names, mono):
        if e:
            style = rng.randrange(3)
            if style == 0:
                factors.append(f"{name}^{e}")
            elif style == 1:
                factors.append(f"({name})^{e}")
            else:
                factors.extend([name] * e)
    rng.shuffle(factors)
    if sign == "-" and rng.random() < 0.3:
        sign, factors = "+", ["(-1)"] + factors
    return f"{sign} {'*'.join(factors) or '1'}"


def _per_term_value(f, point, q):
    """sum of c * x_1^e_1 * ... * x_n^e_n over the terms, with 0**0 == 1."""
    total = 0
    for mono, c in f.terms:
        for x, e in zip(point, mono):
            c *= x**e
        total += c
    return total % q if q else total


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

    def test_high_powers_match_pow(self, ring2):
        # one power per variable and term, not e multiplications for x^e
        text = "x0^199999*x1 - x1^200000"
        f = ring2.parse(text)
        for a, b in ((2, 2), (1, -1)):
            assert f.evaluate([a, b]) == pow(a, 199999) * b - pow(b, 200000)
        f5 = ring2.with_field(PrimeField(5)).parse(text)
        assert f5.evaluate([2, 3]) == (pow(2, 199999, 5) * 3 - pow(3, 200000, 5)) % 5

    @pytest.mark.parametrize("q", [0, 7])
    def test_matches_the_per_term_formula(self, ring4, rng, q):
        # zero coordinates, x^0 with x = 0 (read as 1), constant terms
        ring = ring4.with_field(PrimeField(q)) if q else ring4
        for _ in range(40):
            f = random_poly(ring, 4, rng) + ring.constant(rng.randint(-3, 3))
            point = [rng.choice([0, 0, 1, -2, Fraction(3, 5) if not q else 4])
                     for _ in range(4)]
            assert f.evaluate(point) == _per_term_value(f, point, q)
        assert ring.constant(5).evaluate([0, 0, 0, 0]) == ring.field.coerce(5)
        assert ring.zero().evaluate([0, 1, 0, 1]) == 0


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

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
    def test_invert_against_the_determinant(self, field, rng):
        # singular exactly when the Leibniz determinant vanishes, else M M^-1 = I
        assert invert([], field) == []
        for _ in range(60):
            m = [[field.coerce(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            det = field.zero
            for perm in permutations(range(3)):
                inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
                term = field.one if inversions % 2 == 0 else -field.one
                for i, j in enumerate(perm):
                    term *= m[i][j]
                det += term
            if not field.coerce(det):
                with pytest.raises(SingularMatrixError):
                    invert(m, field)
                continue
            inverse = invert(m, field)
            for i in range(3):
                for j in range(3):
                    entry = field.zero
                    for k in range(3):
                        entry += m[i][k] * inverse[k][j]
                    assert field.coerce(entry) == (field.one if i == j else field.zero)


def _random_invertible(n, rng):
    while True:
        matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            inverse = invert(matrix, QQ)
        except SingularMatrixError:
            continue
        return matrix, inverse


# a prime above 2^32, so that unreduced products and sums outgrow a machine word
FIELDS = [QQ, PrimeField(7), PrimeField(4294967311)]
FIELD_IDS = ["QQ", "GF7", "GF4294967311"]


def _reference_value(f, point):
    """f at a point as a per-term sum of products, reduced mod q at the end."""
    total = 0
    for mono, c in f.terms:
        for x, e in zip(point, mono):
            c *= x**e
        total += c
    q = f.ring.field.characteristic
    return total % q if q else total


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

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_evaluation_is_multiplicative(self, field, rng):
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        for _ in range(20):
            f = random_poly(ring, 2, rng)
            g = random_poly(ring, 2, rng)
            pt = [field.coerce(rng.randint(-4, 4)) for _ in range(3)]
            assert (f * g).evaluate(pt) == field.coerce(f.evaluate(pt) * g.evaluate(pt))
            for h in (f, g, f * g):
                assert h.evaluate(pt) == _reference_value(h, pt)

    def test_substitution_preserves_homogeneity(self, ring4, rng):
        for _ in range(10):
            f = random_homogeneous(ring4, 3, rng)
            matrix, _ = _random_invertible(4, rng)
            g = substitute_linear(f, matrix)
            degrees = {sum(m) for m, _ in g.terms}
            assert degrees == {3}


# in two variables the grevlex block of the elimination order is a single variable
SUM_ORDERS = [
    MonomialOrder.grevlex(3),
    MonomialOrder.elimination(3),
    MonomialOrder.grevlex(2),
    MonomialOrder.elimination(2),
]
ORDER_IDS = ["grevlex", "elimination", "grevlex-2vars", "elimination-2vars"]


def _random_sparse(ring, rng, max_degree=3):
    terms = []
    for _ in range(rng.randint(0, 8)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(ring.nvars))
        terms.append((exps, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    return ring.from_terms(terms)


def _as_dict(poly):
    return dict(poly.terms)


def _reference_sum(field, pairs):
    """Exponents -> coefficient of a sum of (exponents, coefficient) pairs."""
    out = {}
    for exps, c in pairs:
        out[exps] = field.coerce(out.get(exps, field.zero) + c)
    return {e: c for e, c in out.items() if c}


def _reference_product(field, a, b):
    return _reference_sum(
        field,
        (
            (tuple(x + y for x, y in zip(ea, eb)), field.coerce(ca * cb))
            for ea, ca in a.items()
            for eb, cb in b.items()
        ),
    )


class TestSummation:
    """Every term list is summed by one path; check it against plain dicts."""

    @staticmethod
    def check(result, expected):
        field = result.ring.field
        keys = [result.ring.order.key(m) for m, _ in result.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        # nonzero field elements: Fractions over Q, ints in [0, q) over GF(q)
        for _, c in result.terms:
            assert c and type(c) is type(field.one) and field.coerce(c) == c
        assert _as_dict(result) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("order", SUM_ORDERS, ids=ORDER_IDS)
    def test_operations_match_reference_dicts(self, field, order):
        n = order.nvars
        ring = PolynomialRing(tuple(f"x{i}" for i in range(n)), field, order)
        rng = random.Random(4)
        for _ in range(20):
            f, g = _random_sparse(ring, rng), _random_sparse(ring, rng)
            F, G = _as_dict(f), _as_dict(g)
            self.check(f + g, _reference_sum(field, [*F.items(), *G.items()]))
            negated = [(e, -c) for e, c in G.items()]
            self.check(-g, _reference_sum(field, negated))
            self.check(f - g, _reference_sum(field, [*F.items(), *negated]))
            self.check(f * g, _reference_product(field, F, G))
            coeff = field.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            shift = tuple(rng.randint(0, 2) for _ in range(n))
            scaled = [(e, coeff * c) for e, c in G.items()]
            self.check(g.scale(coeff), _reference_sum(field, scaled))
            shifted = [(tuple(x + y for x, y in zip(e, shift)), coeff * c) for e, c in G.items()]
            self.check(g.mul_term(coeff, shift), _reference_sum(field, shifted))
            self.check(
                f.sub_scaled(coeff, shift, g),
                _reference_sum(field, [*F.items(), *((e, -c) for e, c in shifted)]),
            )
            for i in range(n):
                lowered = [
                    (e[:i] + (e[i] - 1,) + e[i + 1 :], e[i] * c) for e, c in F.items() if e[i]
                ]
                self.check(f.derivative(i), _reference_sum(field, lowered))
            images = [_random_sparse(ring, rng, max_degree=1) for _ in range(n)]
            expected = {}
            for exps, c in F.items():
                piece = {(0,) * n: c}
                for image, e in zip(images, exps):
                    for _ in range(e):
                        piece = _reference_product(field, piece, _as_dict(image))
                expected = _reference_sum(field, [*expected.items(), *piece.items()])
            self.check(compose(f, images), expected)
            self.check(ring.parse(str(f)), F)
            assert (f - f).is_zero()


def _random_monomial(nvars, rng, max_exp=4):
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def _product(a, b):
    return tuple(x + y for x, y in zip(a, b))


class TestMonomialOrders:
    ORDERS = [
        MonomialOrder.grevlex(4),
        MonomialOrder.elimination(4),
        MonomialOrder.grevlex(2),
        MonomialOrder.elimination(2),
    ]

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_total_and_multiplicative(self, order, rng):
        n = order.nvars
        for _ in range(200):
            a = _random_monomial(n, rng)
            b = _random_monomial(n, rng)
            ka, kb = order.key(a), order.key(b)
            assert (ka == kb) == (a == b)
            if ka > kb:
                c = _random_monomial(n, rng)
                assert order.key(_product(a, c)) > order.key(_product(b, c))

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_degree_and_homogeneity_match_the_definition(self, order, rng):
        ring = PolynomialRing(tuple(f"x{i}" for i in range(order.nvars)), order=order)
        polys = [ring.zero(), ring.one()]
        for _ in range(40):
            degree = rng.randint(1, 4)
            polys.append(random_homogeneous(ring, degree, rng))
            polys.append(random_poly(ring, degree, rng))
            polys.append(
                random_homogeneous(ring, degree, rng) + ring.variable(rng.randrange(ring.nvars))
            )
        assert any(not f.is_homogeneous() for f in polys)
        for f in polys:
            degrees = {sum(m) for m, _ in f.terms}
            assert f.total_degree() == max(degrees, default=-1)
            assert f.is_homogeneous() == (len(degrees) <= 1)

    def test_grevlex_ties_break_on_last_variable(self):
        order = MonomialOrder.grevlex(3)
        assert order.key((1, 1, 0)) > order.key((1, 0, 1))

    def test_elimination_blocks_dominate(self):
        order = MonomialOrder.elimination(3)
        # anything containing the first variable beats anything without it
        assert order.key((1, 0, 0)) > order.key((0, 5, 5))

    @pytest.mark.parametrize("nvars", [0, 1])
    def test_elimination_needs_a_second_variable(self, nvars):
        with pytest.raises(ValueError):
            MonomialOrder.elimination(nvars)

    def test_orders_are_equal_by_kind_and_size(self):
        orders = [MonomialOrder(kind, n) for kind in ("grevlex", "elimination") for n in (2, 3)]
        assert [o for o in orders if o == MonomialOrder.elimination(3)] == [orders[3]]
        assert len(set(orders)) == 4 and MonomialOrder.elimination(3) in set(orders)
        assert repr(MonomialOrder.elimination(3)) == "MonomialOrder('elimination', 3)"
        with pytest.raises(ValueError):
            MonomialOrder("lex", 3)


class TestMonomial:
    """Monomials are exponent tuples; `from_terms` checks the ones it is given."""

    @pytest.mark.parametrize("exponents", [(-1,), (2, 0, -3), (0, 1, 2, 3, 4, -1)])
    def test_negative_exponent_is_rejected(self, exponents):
        ring = PolynomialRing([f"x{i}" for i in range(len(exponents))])
        with pytest.raises(ValueError, match="negative exponent"):
            ring.from_terms([(exponents, 1)])
        with pytest.raises(ValueError, match="negative exponent"):
            ring.from_terms([(iter(exponents), 1)])

    @pytest.mark.parametrize("exponents", [(), (1,), (1, 0, 0, 0)])
    def test_length_mismatch_is_rejected(self, exponents):
        ring = PolynomialRing(("x", "y", "z"))
        with pytest.raises(ValueError, match="length does not match"):
            ring.from_terms([(exponents, 1)])

    @pytest.mark.parametrize(
        "shift, message",
        [((0, -1, 0), "negative exponent"), ((1, 0), "length does not match")],
    )
    def test_shifts_are_checked(self, shift, message):
        ring = PolynomialRing(("x", "y", "z"))
        f = ring.parse("x*y + z^2")
        for shifted in (
            lambda: f.mul_term(1, shift),
            lambda: f.mul_term(0, shift),
            lambda: f.sub_scaled(1, shift, f),
        ):
            with pytest.raises(ValueError, match=message):
                shifted()

    def test_quotient_below_zero_is_rejected(self):
        ring = PolynomialRing(("x", "y"))
        with pytest.raises(ValueError, match="not exact"):
            divide_exact(ring.parse("x"), ring.parse("y"))

    def test_empty_and_zero_exponents(self):
        empty = PolynomialRing(())
        assert empty.from_terms([((), 3)]).terms == (((), Fraction(3)),)
        assert empty.one().total_degree() == 0
        ring = PolynomialRing(("x", "y", "z"))
        assert ring.from_terms([((0, 0, 0), 1)]).total_degree() == 0
        assert ring.from_terms([(iter((2, 0, 3)), 1)]).leading_monomial() == (2, 0, 3)
        assert (ring.parse("x*y^2") * ring.parse("x^3")).leading_monomial() == (4, 2, 0)
        assert (ring.parse("x*y^2") * ring.parse("x^3")).total_degree() == 6


class TestPrimeField:
    def test_inverse(self):
        field = PrimeField(13)
        for a in range(1, 13):
            assert field.coerce(a * field.invert(a)) == 1

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
