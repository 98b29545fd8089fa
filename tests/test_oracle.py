import ast
import itertools
import json
import logging
import random
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from seshadri import linalg, oracle
from seshadri.cli import load_instance
from seshadri.polynomials import (
    BadReductionError,
    PolynomialRing,
    PrimeField,
    compose,
    restrict_to_line,
    substitute_linear,
)
from seshadri.groebner import Ideal, monomials_of_degree
from seshadri.geometry import multiplicity_at, normalize_point
from seshadri.oracle import (
    EnumerationLimitError,
    ModularInstance,
    _common_zeros,
    _conic_expansion,
    _echelon,
    _expand,
    _form,
    _gradient,
    _line_directions,
    _reduce,
    _solve,
    _value,
    count_lines_mod_q,
    find_conic_mod_q,
    lowest_form_mult,
    modular_instance,
)

from conftest import bundled


def _every_line_direction(inst):
    """Directions of P^3 (pivot coordinate zero, first nonzero coordinate
    one) whose line through the point lies on X, in lexicographic order."""
    q = inst.prime
    pivot = next(i for i, x in enumerate(inst.point) if x % q)
    found = []
    for v in itertools.product(range(q), repeat=4):
        if v[pivot] or next((x for x in v if x), None) != 1:
            continue
        if all(restrict_to_line(g, inst.point, v).is_zero() for g in inst.generators):
            found.append(v)
    return tuple(found)


# -- the previous kernels, kept as the reference for the integer ones ---------


def _binomials(n):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def _convolve(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return out


def reference_directions(rows, q):
    """r_i + sum_{j>i} c_j*r_j, each rebuilt from r_i, c in lexicographic order."""
    for i, lead in enumerate(rows):
        tail = rows[i + 1 :]
        for coeffs in itertools.product(range(q), repeat=len(tail)):
            v = lead
            for c, row in zip(coeffs, tail):
                if c:
                    v = [(a + c * b) % q for a, b in zip(v, row)]
            yield tuple(v)


def reference_line_vanishes(g, point, direction, q):
    """Whether g(point + t*direction) is the zero polynomial in t."""
    degree = g.total_degree()
    coeffs = [0] * (degree + 1)
    for mono, c in g.terms:
        term = [c]
        for i, e in enumerate(mono):
            if not e:
                continue
            p_i = point[i] % q
            v_i = direction[i] % q
            binom = _binomials(e)
            factor = [
                binom[j] * pow(p_i, e - j, q) * pow(v_i, j, q) % q for j in range(e + 1)
            ]
            term = _convolve(term, factor, q)
        for k, value in enumerate(term):
            coeffs[k] = (coeffs[k] + value) % q
    return all(v == 0 for v in coeffs)


def reference_conic_buckets(g, point, v):
    """t-degree -> {w-factors: coefficient} of g(point + t*v + t^2*w), by
    `compose` into a ring with variables w0, ..., w(n-1), t."""
    ring = g.ring
    nvars = ring.nvars
    w_ring = PolynomialRing(tuple(f"w{i}" for i in range(nvars)) + ("t",), ring.field)
    t = w_ring.variable(nvars)
    images = [
        w_ring.constant(point[i]) + t.scale(v[i]) + (t * t) * w_ring.variable(i)
        for i in range(nvars)
    ]
    buckets = {}
    for mono, c in compose(g, images).terms:
        factors = tuple((i, e) for i, e in enumerate(mono[:nvars]) if e)
        buckets.setdefault(mono[nvars], {})[factors] = c
    return buckets


def _per_draw_buckets(form, point, v, q):
    """t-degree -> {w-factors: coefficient} of g(point + t*v + t^2*w) over
    F_q, one expansion per direction v (w^c*t^k is the key
    k + span*sum c_i*base^i).  Every key it builds, of degree at most
    deg g, is below span*base^n, so `_power` scales whole keys."""
    degree = max((sum(e for _, e in factors) for _, factors in form), default=0)
    base, span = degree + 1, 2 * degree + 1
    images = [
        {k: x for k, x in ((0, a), (1, b), (span * base**i + 2, 1)) if x}
        for i, (a, b) in enumerate(zip(point, v))
    ]
    buckets = {}
    for key, x in _expand(form, images, q, span * base ** len(point)).items():
        code, k = divmod(key, span)
        factors = []
        i = 0
        while code:
            code, e = divmod(code, base)
            if e:
                factors.append((i, e))
            i += 1
        buckets.setdefault(k, {})[tuple(factors)] = x
    return buckets


def split_constraints(pieces, nvars, q):
    """(linear, higher) for t-coefficients {w-factors: coefficient}: one of
    total degree at most one in w is a pair (row, rhs) of linear, any
    other its list of terms (coefficient, w-factors) in higher."""
    linear, higher = [], []
    for piece in pieces:
        if all(sum(e for _, e in f) <= 1 for f in piece):
            row = [0] * nvars
            for f, x in piece.items():
                if f:
                    row[f[0][0]] = x
            linear.append((row, -piece.get((), 0) % q))
        else:
            higher.append([(x, f) for f, x in piece.items()])
    return linear, higher


def reference_gradient(gens, point):
    """Rows of the Jacobian matrix at the point, by `Polynomial.derivative`."""
    return [[g.derivative(i).evaluate(point) for i in range(len(point))] for g in gens]


def reference_rank(vectors, field):
    return len(linalg.rref([list(v) for v in vectors], field)[0])


def reference_find_conic(instance, budget=200, seed=0):
    """The conic search that expands every generator afresh for each draw,
    on `Polynomial.derivative` and `linalg` over PrimeField(q)."""
    q = instance.prime
    field = PrimeField(q)
    nvars = instance.ring.nvars
    point = list(instance.point)
    forms = [_form(g) for g in instance.generators]
    gradient = reference_gradient(instance.generators, point) or [[0] * nvars]
    _, tangent_basis = linalg.solve_affine(gradient, [0] * len(gradient), field)
    if not tangent_basis:
        return False, None, 0
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        v = [0] * nvars
        for vec in tangent_basis:
            c = rng.randrange(q)
            v = [(a + c * b) % q for a, b in zip(v, vec)]
        if all(x == 0 for x in v) or reference_rank([point, v], field) < 2:
            continue
        pieces = [
            piece for form in forms for piece in _per_draw_buckets(form, point, v, q).values()
        ]
        linear, higher = split_constraints(pieces, nvars, q)
        linear_rows = [row for row, _ in linear]
        linear_rhs = [b for _, b in linear]
        if linear_rows:
            solved = linalg.solve_affine(linear_rows, linear_rhs, field)
            if solved is None:
                continue
            particular, free_basis = solved
        else:
            particular = [0] * nvars
            free_basis = [list(row) for row in linalg.identity(nvars, field)]
        w = list(particular)
        for vec in free_basis:
            c = rng.randrange(q)
            w = [(a + c * b) % q for a, b in zip(w, vec)]
        if reference_rank([point, v, w], field) < 3:
            continue
        if not any(_value(h, w, q) for h in higher):
            return True, (tuple(point), tuple(v), tuple(w)), attempt
    return False, None, budget


def _random_digit_poly(q, depth, base, rng):
    """A random {code: coefficient} in the digits c_0, ..., c_(depth-1),
    code = sum a_j*base^j, of a kind `_common_zeros` treats apart."""
    kind = rng.choice(("linear", "univariate", "rootless", "constant", "free", "any", "any"))
    if kind == "linear":
        terms = {1: rng.randrange(1, q), 0: rng.randrange(q)}
    elif kind == "univariate":
        terms = {e: rng.randrange(q) for e in range(base) if rng.random() < 0.5}
        terms[rng.randrange(2, base)] = rng.randrange(1, q)
    elif kind == "rootless":
        x0, x1 = rng.randrange(1, q), rng.randrange(1, q)
        terms = {0: x0, q - 1: (x1 - x0) % q}
    elif kind == "constant":
        terms = {0: rng.randrange(1, q)}
    else:
        low = int(kind == "free" and depth > 1)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            code = sum(rng.randrange(base) * base**j for j in range(low, depth))
            terms[code] = rng.randrange(q)
    return {code: x for code, x in terms.items() if x}


def _digit_value(f, digits, q, base):
    total = 0
    for code, x in f.items():
        for c in digits:
            code, e = divmod(code, base)
            x *= pow(c, e, q)
        total += x
    return total % q


def _random_form(ring, degree, rng):
    q = ring.field.q
    return ring.from_terms(
        (exps, rng.randrange(q)) for exps in monomials_of_degree(ring.nvars, degree)
    )


def _linear(ring, coefficients):
    return ring.from_terms(
        (tuple(int(j == i) for j in range(ring.nvars)), c)
        for i, c in enumerate(coefficients)
    )


def _line_through(q, rng):
    """Independent p, v with every coordinate nonzero, the two linear forms
    vanishing on their line, and S, T with S(p) = T(v) = 1 and
    S(v) = T(p) = 0 (so a form in S, T restricts to the same binary form).
    Over F_2 only (1, 1, 1, 1) has no zero coordinate, so there v has some."""
    field = PrimeField(q)
    while True:
        p = [rng.randrange(1, q) for _ in range(4)]
        v = [rng.randrange(int(q > 2), q) for _ in range(4)]
        if len(linalg.rref([p, v], field)[0]) == 2:
            break
    _, ideal = linalg.solve_affine([p, v], [0, 0], field)
    s, _ = linalg.solve_affine([p, v], [1, 0], field)
    t, _ = linalg.solve_affine([p, v], [0, 1], field)
    return p, v, ideal, s, t


def _scan_hits(g, p, v, q, rng):
    """Whether the scan keeps v, run on the one-row basis [v] and again as
    the c = 0 member of the coset v + c*w of a random second row w, whose
    other members must agree with the reference too."""
    form = [_form(g)]
    alone = _line_directions(form, p, [v], q)
    assert alone in ([], [tuple(v)])
    w = [rng.randrange(q) for _ in v]
    rows = [v, w]
    expected = sorted(
        u for u in reference_directions(rows, q) if reference_line_vanishes(g, p, u, q)
    )
    assert _line_directions(form, p, rows, q) == expected
    assert (tuple(v) in expected) == bool(alone)
    return bool(alone)


def quadric_surface(ring4, point=(1, 0, 0, 0)):
    return normalize_point(Ideal(ring4, [ring4.parse("x0*x3 - x1*x2")]), point)


class TestCountLines:
    def test_quadric_surface_two_rulings(self, ring4):
        result = count_lines_mod_q(modular_instance(quadric_surface(ring4), 5))
        assert result.count == 2
        assert result.directions == ((0, 0, 1, 0), (0, 1, 0, 0))

    def test_hyperplane_pencil(self, ring4):
        # the plane X = V(x3) carries a pencil of lines through the point,
        # one for each direction inside it: a P^1 worth, q + 1 of them
        X = normalize_point(Ideal(ring4, [ring4.parse("x3")]), (1, 0, 0, 0))
        assert count_lines_mod_q(modular_instance(X, 3)).count == 4

    def test_full_projective_space(self, ring4):
        # every one of the q^2 + q + 1 directions gives a line on P^3
        X = normalize_point(Ideal(ring4, []), (1, 0, 0, 0))
        assert count_lines_mod_q(modular_instance(X, 3)).count == 13

    @pytest.mark.parametrize(
        "name, counts",
        [
            # lines through p on Gr(2,6): P^1 x P^3, (q + 1)(q^3 + q^2 + q + 1)
            ("gr26-2-3", (160, 936, 3200)),
            # on LG(3,6): the Veronese surface, q^2 + q + 1
            ("lg36-3", (13, 31, 57)),
        ],
    )
    def test_g_over_p_ambients(self, name, counts):
        Y = load_instance(str(DATA / f"{name}.json")).ambient_variety()
        for q, count in zip((3, 5, 7), counts):
            assert count_lines_mod_q(modular_instance(Y, q)).count == count

    def test_fermat_cubic_no_lines_at_good_primes(self, ring4):
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        for q in (5, 11, 17):
            assert count_lines_mod_q(modular_instance(X, q)).count == 0

    def test_bad_prime_is_visible(self, ring4):
        # mod 7 the point slides onto a line (7 = 3 + 4), a documented
        # bad-prime effect: the count jumps even though the scheme is empty
        X = normalize_point(
            Ideal(ring4, [ring4.parse("x0^3+x1^3+x2^3+x3^3")]), (3, 4, 5, -6)
        )
        assert count_lines_mod_q(modular_instance(X, 7)).count > 0

    def test_quadric_at_general_point(self, ring4):
        X = quadric_surface(ring4, (2, 6, 1, 3))  # [2:6:1:3]: 2*3 = 6*1
        for q in (5, 7, 11):
            assert count_lines_mod_q(modular_instance(X, q)).count == 2

    def test_directions_satisfy_slices_at_a_general_point(self, ring4):
        # cross-module consistency: directions found in the original
        # coordinates, mapped through the inverse of the normalizing basis,
        # satisfy the slice equations of the line scheme
        from seshadri.geometry import line_scheme, slice_ring
        from seshadri.linalg import invert

        X = quadric_surface(ring4, (2, 6, 1, 3))
        scheme = line_scheme(X)
        q = 7
        field = PrimeField(q)
        found = count_lines_mod_q(modular_instance(X, q))
        assert found.count == 2
        basis = [[field.coerce(a) for a in row] for row in X.basis_matrix]
        transform = invert(basis, field)
        chart = slice_ring(ring4).with_field(field)
        for direction in found.directions:
            vector = [field.coerce(v) for v in direction]
            mapped = [sum(a * v for a, v in zip(row, vector)) % q for row in transform]
            for g in scheme.ideal.generators:
                reduced = chart.from_terms(g.terms)
                assert reduced.evaluate(mapped[1:]) == 0

    def test_tangent_scan_matches_a_scan_of_every_direction(self, ring4, rng):
        # the scan only visits ker J(p); a scan of all of P^3 must find the
        # same lines, also where X is singular at p or a cone with vertex p
        ideals = [
            quadric_surface(ring4, (2, 6, 1, 3)),
            normalize_point(Ideal(ring4, [ring4.parse("x1*x2 - x3^2")]), (1, 0, 0, 0)),
        ]
        for singular in (False, True, True, False, True, False):
            degree = rng.choice((2, 3))
            top = degree - 2 if singular else degree - 1
            gens = [
                ring4.from_terms(
                    (exps, rng.randint(-2, 2))
                    for exps in monomials_of_degree(4, degree)
                    if exps[0] <= top
                )
                for _ in range(rng.choice((1, 2)))
            ]
            ideals.append(normalize_point(Ideal(ring4, gens), (1, 0, 0, 0)))
        for q in (2, 3, 5):
            for X in ideals:
                inst = modular_instance(X, q)
                result = count_lines_mod_q(inst)
                assert result.directions == _every_line_direction(inst)
                assert result.count == len(result.directions)
            # the cone over a smooth conic has one line per conic point
            assert count_lines_mod_q(modular_instance(ideals[1], q)).count == q + 1

    def test_scan_matches_brute_force_over_the_kernel(self):
        # every direction of ker J(p) with pivot coordinate zero, kept when
        # reference_line_vanishes holds for every generator: P^3-P^5,
        # degrees 1-6, some generators inhomogeneous, and base points that
        # are smooth, singular or a cone vertex; in P^3 the point is moved
        # by a random linear map, elsewhere by a permutation and a scaling
        rng = random.Random(14)
        for q, nvars, kind in itertools.product(
            (2, 3, 5, 7), (4, 5, 6), ("smooth", "singular", "cone")
        ):
            field = PrimeField(q)
            ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
            gens = []
            for _ in range(rng.randint(1, 2)):
                degree = rng.randint(2 if kind == "singular" else 1, 6)
                parts = [degree]
                if degree > 1 and rng.random() < 0.3:
                    parts.append(rng.randint(1, degree - 1))
                terms = []
                for d in parts:
                    # x0^a*m vanishes at e_0 to order d - a
                    top = {"smooth": d - 1, "singular": d - 2, "cone": 0}[kind]
                    allowed = [e for e in monomials_of_degree(nvars, d) if e[0] <= top]
                    for e in rng.sample(allowed, min(len(allowed), 6)):
                        terms.append((e, rng.randrange(1, q)))
                gens.append(ring.from_terms(terms))
            while True:
                if nvars == 4:
                    matrix = [[rng.randrange(q) for _ in range(4)] for _ in range(4)]
                else:
                    order = rng.sample(range(nvars), nvars)
                    matrix = [[0] * nvars for _ in range(nvars)]
                    for i, j in enumerate(order):
                        matrix[i][j] = rng.randrange(1, q)
                if len(linalg.rref(matrix, field)[0]) == nvars:
                    break
            # g(M x) vanishes at the point M^-1 e_0
            gens = [substitute_linear(g, matrix) for g in gens]
            point, _ = linalg.solve_affine(matrix, [1] + [0] * (nvars - 1), field)
            inst = ModularInstance(q, ring, tuple(gens), tuple(point))
            pivot = next(i for i, x in enumerate(point) if x)
            rows = [
                [g.derivative(i).evaluate(point) for i in range(nvars)] for g in gens
            ] + [[int(i == pivot) for i in range(nvars)]]
            _, kernel = linalg.solve_affine(rows, [0] * len(rows), field)
            basis, _ = linalg.rref(kernel, field)
            expected = sorted(
                v for v in reference_directions(basis, q)
                if all(reference_line_vanishes(g, point, v, q) for g in gens)
            )
            result = count_lines_mod_q(inst)
            assert result.directions == tuple(expected)
            assert result.count == len(expected)

    def test_digits_inside_a_power_of_several_base_q_digits(self):
        # at p = (1, ..., 1) the tangent directions have v0 = 0 and
        # v1 + ... + v5 = 0, so g(p + t*v) = (1 + t*v5)^620 - 1, which is
        # zero iff v5 = 0: 31 lines, the points of a plane over F_5.  The
        # image of x5 carries every digit, and 620 has three nonzero base-5
        # digits, so its Frobenius pieces multiply three digit polynomials
        q = 5
        ring = PolynomialRing(tuple(f"x{i}" for i in range(6)), PrimeField(q))
        g = ring.parse("x5^620 - x0^620 + x1 + x2 + x3 + x4 + x5")
        inst = ModularInstance(prime=q, ring=ring, generators=(g,), point=(1,) * 6)
        result = count_lines_mod_q(inst)
        assert result.count == 31
        assert all(v[0] == v[5] == 0 and sum(v) % q == 0 for v in result.directions)

    def test_many_digit_exponent_is_split(self, monkeypatch):
        # the same line scan at 390620 = 5^8 - 5: seven base-5 digits 4, so
        # a coset with its digits symbolic would expand to millions of
        # terms.  Cosets past COSET_TERM_LIMIT are split digit by digit,
        # and each direction with v5 != 0 fails on its t^390620
        # coefficient, so no product of the scan passes the limit
        q, e = 5, 390620
        ring = PolynomialRing(tuple(f"x{i}" for i in range(6)), PrimeField(q))
        g = ring.parse(f"x5^{e} - x0^{e} + x1 + x2 + x3 + x4 + x5")
        inst = ModularInstance(prime=q, ring=ring, generators=(g,), point=(1,) * 6)
        times = oracle._times

        def guarded(f, h, q):
            out = times(f, h, q)
            assert len(out) <= oracle.COSET_TERM_LIMIT
            return out

        monkeypatch.setattr(oracle, "_times", guarded)
        result = count_lines_mod_q(inst)
        assert result.count == 31
        assert all(v[0] == v[5] == 0 and sum(v) % q == 0 for v in result.directions)

    @pytest.mark.parametrize("limit", [0, 30])
    def test_split_cosets_keep_their_directions(self, rng, monkeypatch, limit):
        # with the limit at 0 every coset is split down to single
        # directions, at 30 only some are; the hits stay the reference's
        monkeypatch.setattr(oracle, "COSET_TERM_LIMIT", limit)
        for q in (2, 3, 5):
            field = PrimeField(q)
            ring = PolynomialRing(tuple(f"x{i}" for i in range(5)), field)
            point = [1, 0, 0, 0, 0]
            for size in range(1, 5):
                matrix = [[rng.randrange(q) for _ in range(5)] for _ in range(size)]
                rows, _ = linalg.rref(matrix, field)
                gens = [
                    ring.from_terms(
                        (exps, rng.randrange(q))
                        for exps in monomials_of_degree(5, degree)
                        if exps[0] < degree and rng.random() < 0.3
                    )
                    for degree in (rng.randint(1, 3), rng.randint(2, 7))
                ]
                expected = sorted(
                    v for v in reference_directions(rows, q)
                    if all(reference_line_vanishes(g, point, v, q) for g in gens)
                )
                assert _line_directions([_form(g) for g in gens], point, rows, q) == expected

    def test_one_tangent_direction_at_a_huge_prime(self, ring4):
        # a smooth curve has one tangent direction, a coset without digits,
        # so the scan decides it without a pass over F_q
        q = 2**61 - 1
        conic = ["x0*x2 - x1^2", "x3"]
        line = ["x2", "x3"]
        for gens, count in ((conic, 0), (line, 1)):
            ideal = Ideal(ring4, [ring4.parse(g) for g in gens])
            X = normalize_point(ideal, (1, 0, 0, 0))
            result = count_lines_mod_q(modular_instance(X, q))
            assert result.count == count
            assert result.directions == ((0, 1, 0, 0),) * count

    @pytest.mark.parametrize(
        "name, q, message",
        [
            # the coset r_0 + c*r_1 has a t-coefficient linear in c: one value
            ("quadric-surface", 5, "6 tangent directions decided, 2 lines, 1 digit values tried"),
            ("gr25-pluecker", 7, "19608 tangent directions decided, 456 lines, 1199 digit values tried"),
        ],
    )
    def test_debug_line_counts_the_digit_values_tried(self, caplog, name, q, message):
        instance = load_instance(bundled(name))
        with caplog.at_level(logging.DEBUG, logger="seshadri.oracle"):
            count_lines_mod_q(modular_instance(instance.variety(), q))
        (line,) = (r.getMessage() for r in caplog.records)
        assert line.startswith(f"line scan mod {q}: {message}, in ")

    def test_point_with_a_denominator_q_reduces(self, ring4):
        # (1/5, 1, 1, 5) is read as the integer point (1, 5, 5, 25)
        X = quadric_surface(ring4, (Fraction(1, 5), 1, 1, 5))
        assert modular_instance(X, 5).point == (1, 0, 0, 0)

    def test_point_with_common_factor_q_reduces(self, ring3):
        # (5, 5, 5) is read as the integer point (1, 1, 1)
        X = normalize_point(Ideal(ring3, []), (5, 5, 5))
        assert modular_instance(X, 5).point == (1, 1, 1)

    def test_form_with_content_q_keeps_its_lines(self, ring3):
        # 2*x0*x1 - 2*x2^2 is x0*x1 - x2^2 at q = 2, a smooth conic with no
        # line, not the zero form with every tangent direction a line; so
        # is its quarter, whose coefficients 1/2 have the denominator q
        g = ring3.parse("2*x0*x1 - 2*x2^2")
        for c in (1, Fraction(1, 4)):
            X = normalize_point(Ideal(ring3, [g.scale(c)]), (1, 0, 0))
            assert count_lines_mod_q(modular_instance(X, 2)).count == 0

    @pytest.mark.parametrize("name", ["gr24-hyperplanes", "twisted-cubic", "two-quadrics-p4"])
    def test_rational_multiples_reduce_alike(self, rng, name):
        # a positive multiple of the point and nonzero multiples of the
        # generators give the same integers of content 1, so the same
        # instance at every prime, those dividing a multiplier too
        X = load_instance(bundled(name)).variety()
        small = (1, 2, 3, 5, 7, 11, 13)
        for _ in range(4):
            scale = Fraction(rng.choice(small) * rng.choice(small), rng.choice(small))
            factors = [
                Fraction(rng.choice((-1, 1)) * rng.choice(small), rng.choice(small))
                for _ in X.ideal.generators
            ]
            Y = normalize_point(
                Ideal(X.ring, [g.scale(c) for g, c in zip(X.ideal.generators, factors)]),
                [scale * x for x in X.point],
            )
            primes = {2, 3, 5, 7} | {
                p
                for c in [scale, *factors]
                for p in small[1:]
                if c.numerator % p == 0 or c.denominator % p == 0
            }
            for q in sorted(primes):
                assert modular_instance(Y, q) == modular_instance(X, q)


class TestIntegerKernels:
    def test_scan_visits_every_coset_vector(self, rng):
        # with no forms every r_i + sum c_j*r_j is a hit, so the scan yields
        # the reference's vectors, sorted; with forms through the point it
        # keeps exactly those on whose line they all vanish
        for q in (2, 3, 5):
            field = PrimeField(q)
            ring = PolynomialRing(tuple(f"x{i}" for i in range(6)), field)
            point = [1, 0, 0, 0, 0, 0]
            for size in range(1, 5):
                matrix = [[rng.randrange(q) for _ in range(6)] for _ in range(size)]
                rows, _ = linalg.rref(matrix, field)
                everything = sorted(reference_directions(rows, q))
                assert _line_directions([], point, rows, q) == everything
                assert len(set(everything)) == sum(q**k for k in range(len(rows)))
                gens = [
                    ring.from_terms(
                        (exps, rng.randrange(q))
                        for exps in monomials_of_degree(6, degree)
                        if exps[0] < degree and rng.random() < 0.3
                    )
                    for degree in (rng.randint(1, 3), rng.randint(2, 4))
                ]
                expected = [
                    v for v in everything
                    if all(reference_line_vanishes(g, point, v, q) for g in gens)
                ]
                assert _line_directions([_form(g) for g in gens], point, rows, q) == expected

    def test_common_zeros_match_brute_force(self, rng):
        # random systems over F_q^depth, each polynomial drawn as one of: in
        # c_0 alone and linear, in c_0 alone of higher degree, in c_0 alone
        # with no root (x0 + (x1 - x0)*c_0^(q-1) takes only the values x0
        # and x1), a nonzero constant, free of c_0, or in every digit;
        # exponents reach q + 1, past q
        seen = {"zeros": 0, "none": 0}
        for q in (2, 3, 5, 7, 11):
            base = q + 2
            for depth in range(1, 5):
                if q**depth > 3000:
                    continue
                for _ in range(25):
                    polys = [
                        _random_digit_poly(q, depth, base, rng)
                        for _ in range(rng.randint(1, 4))
                    ]
                    polys = [f for f in polys if f]
                    zeros = _common_zeros(polys, depth, q, base, [0])
                    expected = [
                        z
                        for z in itertools.product(range(q), repeat=depth)
                        if not any(_digit_value(f, z, q, base) for f in polys)
                    ]
                    assert sorted(zeros) == expected
                    assert len(set(zeros)) == len(zeros)
                    seen["zeros" if zeros else "none"] += 1
        assert min(seen.values()) > 50

    def test_common_zeros_branch_on_roots(self):
        # over F_7 with base 3: c_0^2 - 1 leaves c_0 = 1, 6 and c_1 free, so
        # two values are tried, not seven; 3*c_0 + 1 and c_1 + c_0 each
        # leave one value of their digit
        tried = [0]
        zeros = _common_zeros([{2: 1, 0: 6}], 2, 7, 3, tried)
        assert (zeros, tried) == ([(a, b) for a in (1, 6) for b in range(7)], [2])
        tried = [0]
        zeros = _common_zeros([{3: 1, 1: 1}, {1: 3, 0: 1}], 2, 7, 3, tried)
        assert (zeros, tried) == ([(2, 5)], [2])

    def test_reduce_tests_the_span_as_rank_does(self, rng):
        # the conic search's test: v is reduced by p at p's first nonzero
        # coordinate k (zero iff rank[p, v] < 2), then w by p at k and by
        # what is left of v at its first nonzero coordinate (zero iff
        # rank[p, v, w] < 3); p's first nonzero coordinate is often not 0,
        # v is sometimes a multiple of p and w sometimes a*p + b*v
        seen = set()
        for q in (2, 3, 5, 7, 13, 2**31 - 1):
            field = PrimeField(q)
            for _ in range(200):
                n = rng.randint(2, 6)
                k = rng.randrange(n)
                p = [0] * k + [rng.randrange(1, q)]
                p += [rng.randrange(q) for _ in range(n - k - 1)]
                a, b = rng.randrange(q), rng.randrange(q)
                v = [rng.randrange(q) for _ in range(n)]
                if rng.random() < 0.2:
                    v = [a * x % q for x in p]
                w = [rng.randrange(q) for _ in range(n)]
                if rng.random() < 0.4:
                    w = [(a * x + b * y) % q for x, y in zip(p, v)]
                span = [(p, k)]
                u = _reduce(v, span, q)
                independent = reference_rank([p, v], field) == 2
                assert any(u) == independent
                if not independent:
                    seen.add("multiple")
                    continue
                span.append((u, next(i for i, x in enumerate(u) if x)))
                outside = any(_reduce(w, span, q))
                assert outside == (reference_rank([p, v, w], field) == 3)
                seen.add((k > 0, outside))
        assert seen == {"multiple", (False, False), (False, True), (True, False), (True, True)}

    def test_predicate_matches_restriction_to_the_line(self, rng):
        # forms of degree 1-5 on lines through p, v with no zero coordinate:
        # generic ones, ones in the ideal of the line, ones that restrict to
        # s^k*t^(d-k) (zero at [1:0] and [0:1] only) and, for d > q, ones
        # that restrict to a multiple of s^q*t - s*t^q, which vanishes at
        # every point of P^1(F_q) without being zero
        for q in (2, 3, 5, 7):
            ring = PolynomialRing(("x0", "x1", "x2", "x3"), PrimeField(q))
            outcomes = set()
            for _ in range(60):
                p, v, ideal, s, t = _line_through(q, rng)
                S, T = _linear(ring, s), _linear(ring, t)
                degree = rng.randint(1, 5)
                kind = rng.choice(("generic", "ideal", "monomial", "frobenius"))
                if kind == "generic":
                    g = _random_form(ring, degree, rng)
                else:
                    g = ring.zero()
                    for coefficients in ideal:
                        g = g + _linear(ring, coefficients) * _random_form(
                            ring, degree - 1, rng
                        )
                    if kind == "monomial":
                        k = rng.randint(1, degree)
                        g = g + S ** (k - 1) * T ** (degree - k) * S
                    elif kind == "frobenius" and degree > q:
                        g = g + _random_form(ring, degree - q - 1, rng) * (
                            S**q * T - S * T**q
                        )
                expected = restrict_to_line(g, p, v).is_zero()
                assert reference_line_vanishes(g, p, v, q) == expected
                assert _scan_hits(g, p, v, q, rng) == expected
                outcomes.add((kind, degree > q, expected))
            assert {True, False} == {expected for *_, expected in outcomes}
            if q < 5:
                # zero at every F_q-point of the line, yet not on X
                assert ("frobenius", True, False) in outcomes

    def test_inhomogeneous_generators_keep_their_answer(self, rng):
        # g(p + t*v) = 0 in t, the affine test, for sums of forms of
        # different degrees that may cancel along the line
        for q in (2, 3, 5, 7):
            ring = PolynomialRing(("x0", "x1", "x2", "x3"), PrimeField(q))
            for _ in range(40):
                p, v, ideal, s, t = _line_through(q, rng)
                S, T = _linear(ring, s), _linear(ring, t)
                low = rng.randint(1, 3)
                high = low + rng.randint(1, 3)
                # (S + T)^low*T restricts to (1 + t)^low*t at s = 1, which
                # S^(high-low-1)*T*(S + T)^low matches in degree high
                g = (S + T) ** low * T - S ** (high - low - 1) * T * (S + T) ** low
                for coefficients in ideal:
                    g = g + _linear(ring, coefficients) * _random_form(ring, low, rng)
                if rng.random() < 0.5:
                    g = g + _random_form(ring, rng.randint(1, high), rng)
                expected = reference_line_vanishes(g, p, v, q)
                assert _scan_hits(g, p, v, q, rng) == expected

    def test_gradient_matches_polynomial_derivatives(self, rng):
        # exponents at, past and divisible by q, where d/dx_i of x_i^a
        # vanishes mod q; inhomogeneous generators and points off them
        for q in (2, 3, 5, 7):
            exponents = (0, 1, q - 1, q, q + 1, 2 * q, q * q)
            for nvars in (3, 4, 5):
                ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), PrimeField(q))
                for _ in range(10):
                    gens = [
                        ring.from_terms(
                            (
                                tuple(
                                    rng.choice((rng.choice(exponents), rng.randint(0, 3 * q)))
                                    for _ in range(nvars)
                                ),
                                rng.randrange(q),
                            )
                            for _ in range(rng.randint(0, 6))
                        )
                        for _ in range(rng.randint(1, 3))
                    ]
                    point = [rng.randrange(q) for _ in range(nvars)]
                    expected = reference_gradient(gens, point)
                    assert _gradient([_form(g) for g in gens], point, q) == expected

    def test_echelon_and_solve_match_linalg(self, rng):
        # empty input, zero rows, wide and tall matrices of every rank, and
        # right-hand sides that are zero, in the column space, or random,
        # which on a rank-deficient matrix is often inconsistent
        for q in (2, 3, 7, 32003):
            field = PrimeField(q)
            matrices = [[], [[]], [[0, 0, 0]], [[0] * 4 for _ in range(3)]]
            for _ in range(60):
                nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
                rank = rng.randint(0, min(nrows, ncols))
                left = [[rng.randrange(q) for _ in range(rank)] for _ in range(nrows)]
                right = [[rng.randrange(q) for _ in range(ncols)] for _ in range(rank)]
                matrices.append(
                    [
                        [sum(a * b[j] for a, b in zip(row, right)) % q for j in range(ncols)]
                        for row in left
                    ]
                )
            outcomes = set()
            for matrix in matrices:
                assert _echelon(matrix, q) == linalg.rref(matrix, field)
                ncols = len(matrix[0]) if matrix else 0
                x = [rng.randrange(q) for _ in range(ncols)]
                image = [sum(a * b for a, b in zip(row, x)) % q for row in matrix]
                for rhs in ([0] * len(matrix), image, [rng.randrange(q) for _ in matrix]):
                    solved = _solve(matrix, rhs, q)
                    assert solved == linalg.solve_affine(matrix, rhs, field)
                    outcomes.add(None if solved is None else bool(solved[1]))
                    if matrix and rhs == image:
                        assert solved is not None
            assert outcomes == {None, True, False}

    def test_conic_buckets_match_composition(self, rng):
        # degrees up to 7 at q = 5 and 7 take exponents with two base-q
        # digits; the expansion is made once per pair of forms, with random
        # vectors b_j, and evaluated at several coordinate vectors c; its
        # constraints are those that composition gives, split by the same
        # rule (the order of the buckets is not part of the answer)
        seen = [0, 0]  # linear rows, higher constraints
        for q in (5, 7, 11):
            for nvars in (4, 5):
                names = tuple(f"x{i}" for i in range(nvars))
                ring = PolynomialRing(names, PrimeField(q))
                for _ in range(3):
                    gens = [
                        ring.from_terms(
                            (exps, rng.randrange(q))
                            for exps in monomials_of_degree(nvars, rng.randint(1, 7))
                            if rng.random() < 0.3
                        )
                        for _ in range(2)
                    ]
                    point = [rng.choice((0, rng.randrange(q))) for _ in range(nvars)]
                    basis = [
                        [rng.choice((0, rng.randrange(q))) for _ in range(nvars)]
                        for _ in range(rng.randint(1, 3))
                    ]
                    _, constraints = _conic_expansion(
                        [_form(g) for g in gens], point, basis, q
                    )
                    for _ in range(4):
                        c = [rng.randrange(q) for _ in basis]
                        v = [sum(a * b[i] for a, b in zip(c, basis)) % q for i in range(nvars)]
                        rows, rhs, higher = constraints(c)
                        # the higher buckets come back unread; read them all
                        higher = list(higher)
                        pieces = [
                            piece
                            for g in gens
                            for piece in reference_conic_buckets(g, point, v).values()
                        ]
                        linear, expected = split_constraints(pieces, nvars, q)
                        assert len(rows) == len(rhs)
                        assert sorted(zip(rows, rhs)) == sorted(linear)
                        assert sorted(map(sorted, higher)) == sorted(map(sorted, expected))
                        seen[0] += len(rows)
                        seen[1] += len(higher)
        assert all(seen)

    @pytest.mark.parametrize(
        "name, q, found, attempts, witness",
        [
            ("quadric-surface", 5, True, 5, [[1, 0, 0, 0], [4, 1, 2, 0], [0, 4, 0, 2]]),
            (
                "gr25-pluecker",
                11,
                True,
                1,
                [
                    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                    [6, 6, 0, 4, 8, 7, 6, 0, 0, 0],
                    [4, 5, 0, 7, 1, 5, 9, 9, 4, 5],
                ],
            ),
            ("quartic-threefold", 7, False, 200, None),
        ],
    )
    def test_conic_search_is_pinned(self, name, q, found, attempts, witness):
        # rng draws, attempt counts and witnesses of the Polynomial-based search
        instance = load_instance(bundled(name))
        result = find_conic_mod_q(
            modular_instance(instance.variety(), q), seed=instance.seed
        )
        assert result.found is found
        assert result.attempts == attempts
        assert (result.witness and [list(x) for x in result.witness]) == witness


BUNDLED = sorted(
    (name, q)
    for name in (
        "fermat-cubic",
        "gr24-hyperplanes",
        "gr25-pluecker",
        "quadric-surface",
        "quadric-threefold",
        "quartic-threefold",
        "twisted-cubic",
        "two-quadrics-p4",
    )
    for q in {2, 3, 5, *json.loads(Path(bundled(name)).read_text())["primes"]}
)


class TestConicExpansion:
    """The search that expands once per instance takes the same draws, and
    returns the same outcome, as the one that expands once per draw."""

    @pytest.mark.parametrize("name, q", BUNDLED)
    def test_bundled_instances(self, name, q):
        instance = load_instance(bundled(name))
        inst = modular_instance(instance.variety(), q)
        result = find_conic_mod_q(inst, seed=instance.seed)
        expected = reference_find_conic(inst, seed=instance.seed)
        assert (result.found, result.witness, result.attempts) == expected

    def test_random_instances_with_exponents_past_q(self, rng):
        # forms of degree up to 7 at q = 2, 3 and 5 through p = (1, ...):
        # g - g(p)*x0^d vanishes at p; quadrics, half of them, give conics
        for q in (2, 3, 5):
            field = PrimeField(q)
            for nvars in (3, 4, 5):
                ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
                point = (1,) + tuple(rng.randrange(q) for _ in range(nvars - 1))
                for _ in range(3):
                    gens = []
                    for _ in range(rng.randint(1, nvars - 2)):
                        degree = rng.choice((2, rng.randint(3, 7)))
                        g = ring.from_terms(
                            (exps, rng.randrange(q))
                            for exps in monomials_of_degree(nvars, degree)
                            if rng.random() < 0.4
                        )
                        top = ring.from_terms([((degree,) + (0,) * (nvars - 1), 1)])
                        gens.append(g - top.scale(g.evaluate(point)))
                    inst = ModularInstance(
                        prime=q, ring=ring, generators=tuple(gens), point=point
                    )
                    seed = rng.randrange(100)
                    result = find_conic_mod_q(inst, budget=40, seed=seed)
                    expected = reference_find_conic(inst, budget=40, seed=seed)
                    assert (result.found, result.witness, result.attempts) == expected

    @pytest.mark.parametrize("q", [65537, 4294967311, 2**61 - 1])
    def test_wide_fields(self, q, rng):
        # a field of the packed sum holds up to (c-monomials)*(q - 1)^2, with
        # 6 c-monomials here: 5 bytes at 65537, read as 8 by one cast; 9 and
        # 16 bytes at the two larger primes, read one slice at a time.  The
        # one tangent direction keeps the line scan within its limit.  The
        # search is inconclusive either way, so the constraints are also
        # checked against composition, along random vectors b_j
        instance = load_instance(bundled("gr24-hyperplanes"))
        inst = modular_instance(instance.variety(), q)
        result = find_conic_mod_q(inst, budget=40, seed=instance.seed)
        expected = reference_find_conic(inst, budget=40, seed=instance.seed)
        assert (result.found, result.witness, result.attempts) == expected
        assert count_lines_mod_q(inst).count == 0
        point = list(inst.point)
        basis = [[rng.randrange(q) for _ in point] for _ in range(2)]
        _, constraints = _conic_expansion(
            [_form(g) for g in inst.generators], point, basis, q
        )
        for _ in range(3):
            c = [rng.randrange(q) for _ in basis]
            v = [sum(a * b[i] for a, b in zip(c, basis)) % q for i in range(len(point))]
            rows, rhs, higher = constraints(c)
            pieces = [
                piece
                for g in inst.generators
                for piece in reference_conic_buckets(g, point, v).values()
            ]
            linear, expected = split_constraints(pieces, len(point), q)
            assert sorted(zip(rows, rhs)) == sorted(linear)
            assert sorted(map(sorted, higher)) == sorted(map(sorted, expected))
            assert linear and expected

    def test_one_debug_line_per_search(self, caplog):
        instance = load_instance(bundled("quadric-surface"))
        inst = modular_instance(instance.variety(), 5)
        with caplog.at_level(logging.DEBUG, logger="seshadri.oracle"):
            count_lines_mod_q(inst)
            find_conic_mod_q(inst, seed=instance.seed)
        lines, conics = (r.getMessage() for r in caplog.records)
        assert lines.startswith("line scan mod 5: 6 tangent directions decided, 2 lines")
        assert conics.startswith("conic search mod 5: 3 tangent coordinates, 7 terms, 5 draws, found in ")


DATA = Path(__file__).parent / "data"


def _bound_and_terms(inst, monkeypatch):
    """(`_expansion_bound`, terms of the built expansion) of one instance."""
    seen = []
    bound = oracle._expansion_bound

    def recording(*args):
        seen.append(bound(*args))
        return seen[-1]

    monkeypatch.setattr(oracle, "_expansion_bound", recording)
    q, point = inst.prime, list(inst.point)
    forms = [_form(g) for g in inst.generators]
    gradient = _gradient(forms, point, q) or [[0] * len(point)]
    _, basis = _solve(gradient, [0] * len(gradient), q)
    terms, _ = _conic_expansion(forms, point, basis, q)
    return seen.pop(), terms


def _many_digit_instance(e):
    """x5^e - x0^e + x1 + ... + x5 over F_5 at (1, ..., 1)."""
    ring = PolynomialRing(tuple(f"x{i}" for i in range(6)), PrimeField(5))
    g = ring.parse(f"x5^{e} - x0^{e} + x1 + x2 + x3 + x4 + x5")
    return ModularInstance(prime=5, ring=ring, generators=(g,), point=(1,) * 6)


class TestConicBound:
    """The conic expansion is bounded, digit by digit, before it is built."""

    def test_many_digit_exponent_is_refused_unbuilt(self, monkeypatch):
        # 3120 = 44440 in base 5: the expansion would hold 101253 terms and
        # the search peak at about 90 MB; the bound reads 101268 off the
        # digits, and the prime is refused before any product is formed
        def never(*args):
            raise AssertionError("the expansion was built")

        monkeypatch.setattr(oracle, "_expand", never)
        with pytest.raises(EnumerationLimitError, match="may hold 101268 terms"):
            find_conic_mod_q(_many_digit_instance(3120))

    def test_bound_holds_the_expansion_at_one_digit(self, monkeypatch):
        # 620 = 4440 in base 5, with the image of x5 carrying one digit
        bound, terms = _bound_and_terms(_many_digit_instance(620), monkeypatch)
        assert terms <= bound <= oracle.CONIC_TERM_LIMIT

    def test_no_bundled_or_data_instance_is_refused(self, monkeypatch):
        # the P^6 sextic has about 25k terms at every prime; the cap on
        # terms with no exponent past q keeps its bound at 27132
        paths = [bundled(name) for name in sorted({name for name, _ in BUNDLED})]
        paths += sorted(str(p) for p in DATA.glob("*.json"))
        for path in paths:
            instance = load_instance(path)
            for q in sorted({*instance.primes, 7, 13}):
                inst = modular_instance(instance.variety(), q)
                bound, terms = _bound_and_terms(inst, monkeypatch)
                assert terms <= bound <= oracle.CONIC_TERM_LIMIT, (path, q)

    def test_random_instances_with_exponents_past_q(self, rng, monkeypatch):
        # terms with an exponent past q are bounded one by one, the others
        # also together by the monomials they can reach; the limit is lifted
        # so that every expansion is built and counted
        monkeypatch.setattr(oracle, "CONIC_TERM_LIMIT", inf)
        for q in (2, 3, 5):
            field = PrimeField(q)
            for nvars in (3, 4):
                ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
                for _ in range(4):
                    point = (1,) + tuple(rng.randrange(q) for _ in range(nvars - 1))
                    gens = []
                    for degree in (rng.randint(1, 3), rng.randint(2, q + 4)):
                        g = ring.from_terms(
                            (exps, rng.randrange(q))
                            for exps in monomials_of_degree(nvars, degree)
                            if rng.random() < 0.5
                        )
                        # g - g(p)*x0^d vanishes at p
                        top = ring.from_terms([((degree,) + (0,) * (nvars - 1), 1)])
                        gens.append(g - top.scale(g.evaluate(point)))
                    inst = ModularInstance(
                        prime=q, ring=ring, generators=tuple(gens), point=point
                    )
                    bound, terms = _bound_and_terms(inst, monkeypatch)
                    assert terms <= bound


class TestFindConic:
    def test_conic_finds_itself(self, ring3):
        X = normalize_point(Ideal(ring3, [ring3.parse("x0*x2 - x1^2")]), (1, 0, 0))
        result = find_conic_mod_q(modular_instance(X, 7), budget=300, seed=2)
        assert result.found
        point, tangent, curvature = result.witness
        # the witness parametrization really lies on the curve
        field = PrimeField(7)
        ring = X.ring.with_field(field)
        g = ring.parse("x0*x2 - x1^2")
        for t in range(7):
            sample = [
                (p + t * v + t * t * w) % 7
                for p, v, w in zip(point, tangent, curvature)
            ]
            assert g.evaluate(sample) == 0

    def test_grassmannian_section_conic(self):
        ring = PolynomialRing(("p01", "p02", "p03", "p12", "p13", "p23"))
        gens = [
            ring.parse("p01*p23 - p02*p13 + p03*p12"),
            ring.parse("-3*p03 + 3*p12 + 3*p23"),
            ring.parse("3*p02 + 3*p03 + 3*p12 + 3*p13 - p23"),
            ring.parse("2*p02 + 3*p03 - 2*p12 + p13 + 2*p23"),
        ]
        X = normalize_point(Ideal(ring, gens), (1, 0, 0, 0, 0, 0))
        result = find_conic_mod_q(modular_instance(X, 11), budget=400, seed=0)
        assert result.found

    def test_plane_cubic_is_inconclusive(self, ring3):
        X = normalize_point(
            Ideal(ring3, [ring3.parse("x0^2*x1 - x1^3 - x0*x2^2 + x2^3")]), (1, 1, 0)
        )
        result = find_conic_mod_q(modular_instance(X, 7), budget=80, seed=1)
        assert not result.found
        assert result.inconclusive


class TestLowestFormMult:
    def test_cusp(self, ring3):
        assert lowest_form_mult(ring3.parse("x2*x1^2 - x0^3"), (0, 0, 1)) == 2

    def test_node(self, ring3):
        node = ring3.parse("x2*x1^2 - x0^2*x2 - x0^3")
        assert lowest_form_mult(node, (0, 0, 1)) == 2

    def test_smooth_point(self, ring3):
        assert lowest_form_mult(ring3.parse("x0*x2 - x1^2"), (1, 0, 0)) == 1

    def test_point_off_curve(self, ring3):
        with pytest.raises(ValueError):
            lowest_form_mult(ring3.parse("x0*x2 - x1^2"), (0, 1, 1))

    def test_agrees_with_truncated_quotients(self, ring3, rng):
        # plant a singular point of chosen multiplicity at the origin chart:
        # lowest form of degree k plus higher-order noise
        chart = PolynomialRing(("y1", "y2"))
        checked = 0
        while checked < 10:
            k = rng.choice((1, 2, 3))
            top = k + rng.randint(1, 2)
            terms = []
            for d in range(k, top + 1):
                for exps in monomials_of_degree(2, d):
                    terms.append((exps, rng.randint(-3, 3)))
            affine = chart.from_terms(terms)
            if affine.is_zero() or min(sum(m) for m, _ in affine.terms) != k:
                continue
            homogeneous = ring3.from_terms(
                ((top - sum(m), *m), c) for m, c in affine.terms
            )
            mult_oracle = lowest_form_mult(homogeneous, (1, 0, 0))
            X = normalize_point(Ideal(ring3, [homogeneous]), (1, 0, 0))
            assert mult_oracle == multiplicity_at(X) == k
            checked += 1


def test_modular_instance_invariants(ring4):
    field = PrimeField(5)
    ring = ring4.with_field(field)
    with pytest.raises(ValueError):
        ModularInstance(prime=7, ring=ring, generators=(), point=(1, 0, 0, 0))
    with pytest.raises(BadReductionError):
        ModularInstance(
            prime=5, ring=ring, generators=(ring.parse("x0"),), point=(1, 0, 0, 0)
        )


def _seshadri_imports(source):
    """Names of the `seshadri` modules a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "seshadri" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif (node.module or "").split(".")[0] == "seshadri":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


class TestIndependence:
    """The oracle is the cross-check of the Groebner engine, so it must not
    be built on it: it may use only the polynomial and linear-algebra layers."""

    def test_oracle_imports_only_polynomials_and_linalg(self):
        source = Path(oracle.__file__).read_text(encoding="utf-8")
        assert _seshadri_imports(source) <= {"polynomials", "linalg"}

    def test_oracle_solves_without_linalg(self):
        # `linalg` is the tests' reference for the oracle's own elimination
        source = Path(oracle.__file__).read_text(encoding="utf-8")
        assert "linalg" not in _seshadri_imports(source)

    @pytest.mark.parametrize(
        "source",
        [
            "from .groebner import Ideal",
            "from . import groebner",
            "import seshadri.groebner",
            "from seshadri.groebner import buchberger",
            "def f():\n    from seshadri import groebner",
        ],
        ids=["relative-from", "relative-module", "absolute", "absolute-from", "in-function"],
    )
    def test_a_groebner_import_is_seen(self, source):
        assert _seshadri_imports(source) == {"groebner"}
