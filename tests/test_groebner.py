import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, prod

import pytest

from seshadri.polynomials import (
    QQ,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    PrimeField,
)
from seshadri import groebner, linalg
from seshadri.groebner import (
    HilbertData,
    Ideal,
    NonHomogeneousError,
    _form,
    _packing,
    buchberger,
    divide_exact,
    graded_piece,
    hilbert_data,
    hilbert_function,
    ideal_quotient,
    intersect,
    monomials_of_degree,
    normal_form_against,
    s_polynomial,
    saturate,
)

from conftest import random_homogeneous, random_poly


def twisted_cubic(ring4):
    return Ideal(
        ring4,
        [
            ring4.parse("x0*x3 - x1*x2"),
            ring4.parse("x1^2 - x0*x2"),
            ring4.parse("x2^2 - x1*x3"),
        ],
    )


class TestBuchberger:
    def test_principal_ideal(self, ring2):
        basis = Ideal(ring2, [ring2.parse("x0")]).groebner_basis()
        assert [str(g) for g in basis] == ["x0"]

    def test_twisted_cubic_quadrics_are_a_basis(self, ring4):
        # independent check first: every S-polynomial of the three quadrics
        # reduces to zero under plain multivariate division by them
        gens = list(twisted_cubic(ring4).generators)
        for f, g in combinations(gens, 2):
            remainder = normal_form_against(s_polynomial(f, g), gens)
            assert remainder.is_zero()
        basis = twisted_cubic(ring4).groebner_basis()
        assert len(basis) == 3
        assert {str(b) for b in basis} == {
            "x1^2 - x0*x2",
            "x1*x2 - x0*x3",
            "x2^2 - x1*x3",
        }

    def test_unit_ideal(self, ring2):
        basis = Ideal(ring2, [ring2.parse("x0"), ring2.parse("x0 + 1")]).groebner_basis()
        assert [str(g) for g in basis] == ["1"]

    def test_empty_input(self, ring2):
        assert buchberger([]) == ()

    def test_deterministic(self, ring4, rng):
        gens = [random_homogeneous(ring4, 2, rng) for _ in range(3)]
        assert Ideal(ring4, gens).groebner_basis() == Ideal(ring4, gens).groebner_basis()

    def test_sugar_handles_inhomogeneous_input(self, ring3):
        gens = [ring3.parse("x0^2 - x1"), ring3.parse("x0*x1 - x2")]
        basis = buchberger(gens)
        for f, g in combinations(basis, 2):
            assert normal_form_against(s_polynomial(f, g), list(basis)).is_zero()


class TestNormalForm:
    def test_generator_reduces_to_zero(self, ring4):
        ideal = twisted_cubic(ring4)
        assert ideal.normal_form(ring4.parse("x0*x3 - x1*x2")).is_zero()

    def test_disjoint_support(self, ring2):
        ideal = Ideal(ring2, [ring2.parse("x1")])
        f = ring2.parse("x0")
        assert ideal.normal_form(f) == f

    def test_single_division_step(self, ring3):
        ideal = Ideal(ring3, [ring3.parse("x1^2 - x0*x2")])
        assert ideal.normal_form(ring3.parse("x1^2")) == ring3.parse("x0*x2")

    def test_difference_is_always_a_member(self, ring3, rng):
        gens = [random_homogeneous(ring3, 2, rng) for _ in range(2)]
        ideal = Ideal(ring3, gens)
        for _ in range(10):
            f = random_poly(ring3, 3, rng)
            assert ideal.contains(f - ideal.normal_form(f))


# -- reference division: the term-list loop the heap kernel replaced ---------


def _divides(a, b):
    """Whether the monomial with exponent tuple a divides the one with b."""
    return all(x <= y for x, y in zip(a, b))


def _quotient(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def reference_key(order, exps):
    """The nested order key the flat `MonomialOrder.key` replaced."""

    def grevlex(exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))

    if order.kind == "grevlex":
        return grevlex(exps)
    return (exps[0], grevlex(exps[1:]))


def reference_normal_form(f, basis, order=None):
    """Textbook division on whole polynomials: each step subtracts a scaled
    divisor from the working polynomial with `sub_scaled`, and a leading
    term that no divisor's leading monomial divides moves to the remainder."""
    ring = f.ring
    if order is not None and order != ring.order:
        work = ring.with_order(order)
        f = work.from_terms(f.terms)
        basis = [work.from_terms(g.terms) for g in basis]
    field = f.ring.field
    reducers = [(g.leading_monomial(), g.leading_coefficient(), g) for g in basis if g]
    remainder = []
    p = f
    while p.terms:
        mono, coeff = p.terms[0]
        for lm, lc, g in reducers:
            if _divides(lm, mono):
                p = p.sub_scaled(field.coerce(coeff * field.invert(lc)), _quotient(mono, lm), g)
                break
        else:
            remainder.append((mono, coeff))
            p = Polynomial(p.ring, p.terms[1:])
    result = Polynomial(f.ring, tuple(remainder))
    if order is not None and order != ring.order:
        result = ring.from_terms(result.terms)
    return result


# GF(2): every nonzero coefficient is 1 and -1 = 1; GF(32003): a large prime
FIELDS = [QQ, PrimeField(7), PrimeField(2), PrimeField(32003)]
FIELD_IDS = ["QQ", "GF7", "GF2", "GF32003"]

# in two variables the grevlex block of the elimination order is a single
# variable, the narrowest block the packed kernel sees
KERNEL_ORDERS = [
    MonomialOrder.grevlex(4),
    MonomialOrder.elimination(4),
    MonomialOrder.grevlex(2),
    MonomialOrder.elimination(2),
]
ORDER_IDS = ["grevlex", "elimination", "grevlex-2vars", "elimination-2vars"]


def _names(order):
    return tuple(f"x{i}" for i in range(order.nvars))


def _small_monomials(nvars):
    return [e for d in range(5) for e in monomials_of_degree(nvars, d)]


def _random_fraction(field, rng):
    """A rational in [-9, 9] over a denominator up to 6 that the field inverts."""
    numerator, denominator = rng.randint(-9, 9), rng.randint(1, 6)
    while field.characteristic and denominator % field.characteristic == 0:
        denominator += 1
    return Fraction(numerator, denominator)


def _random_rational_poly(ring, max_degree, rng, density=0.35):
    terms = []
    for d in range(max_degree + 1):
        for exps in monomials_of_degree(ring.nvars, d):
            if rng.random() < density:
                terms.append((exps, _random_fraction(ring.field, rng)))
    return ring.from_terms(terms)


class TestDivisionKernel:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_matches_the_reference_division(self, field, order):
        # divisor lists of 1-4 random inhomogeneous polynomials are rarely
        # Groebner bases, so the remainder depends on which divisor reduces
        # each term; the kernel must pick the same (first) one every time
        rng = random.Random(f"{field!r} {order!r}")
        names = _names(order)
        for ring in (PolynomialRing(names, field), PolynomialRing(names, field, order)):
            for _ in range(12):
                f = _random_rational_poly(ring, 5, rng)
                basis = [_random_rational_poly(ring, 3, rng, 0.3) for _ in range(rng.randint(1, 4))]
                expected = reference_normal_form(f, basis, order)
                assert normal_form_against(f, basis, order) == expected
                if ring.order == order:
                    assert normal_form_against(f, basis) == expected

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_matches_the_reference_against_a_groebner_basis(self, field, rng):
        for order in KERNEL_ORDERS:
            ring = PolynomialRing(_names(order), field, order)
            gens = [random_homogeneous(ring, 2, rng) for _ in range(3)]
            basis = list(Ideal(ring, gens).groebner_basis())
            for _ in range(5):
                f = _random_rational_poly(ring, 4, rng)
                assert normal_form_against(f, basis) == reference_normal_form(f, basis)

    def test_non_groebner_divisors_depend_on_their_order(self):
        # Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sec. 3,
        # there under lex; grevlex orders the terms of these polynomials alike
        ring = PolynomialRing(("x", "y"))
        f = ring.parse("x^2*y + x*y^2 + y^2")
        first = [ring.parse("x*y - 1"), ring.parse("y^2 - 1")]
        assert normal_form_against(f, first) == ring.parse("x + y + 1")
        assert normal_form_against(f, first[::-1]) == ring.parse("2*x + 1")
        for basis in (first, first[::-1]):
            assert normal_form_against(f, basis) == reference_normal_form(f, basis)

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_flat_key_sorts_like_the_nested_key(self, order):
        monomials = _small_monomials(order.nvars)
        by_flat = sorted(monomials, key=order.key)
        assert by_flat == sorted(monomials, key=lambda m: reference_key(order, m))
        assert len({order.key(m) for m in monomials}) == len(monomials)

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_flat_key_is_additive(self, order, rng):
        for _ in range(50):
            a = tuple(rng.randint(0, 4) for _ in range(order.nvars))
            b = tuple(rng.randint(0, 4) for _ in range(order.nvars))
            total = tuple(x + y for x, y in zip(a, b))
            summed = tuple(x + y for x, y in zip(order.key(a), order.key(b)))
            assert order.key(total) == summed


# -- reference Buchberger: the Polynomial-level loop the integer loop replaced --


def reference_s_polynomial(f, g):
    """The field formula x^u*f/lc(f) - x^v*g/lc(g) on whole polynomials."""
    field = f.ring.field
    lcm = _lcm(f.leading_monomial(), g.leading_monomial())
    lhs = f.mul_term(field.invert(f.leading_coefficient()), _quotient(lcm, f.leading_monomial()))
    return lhs.sub_scaled(
        field.invert(g.leading_coefficient()), _quotient(lcm, g.leading_monomial()), g
    )


def reference_update_pairs(pairs, lms, sugars, t, order):
    """Gebauer-Moeller criteria on exponent-tuple leading monomials, as the
    loop applied them before monomials were packed: a pair is (i, j, lcm,
    rank) with rank = (sugar, key(lcm)), fixed when the pair is created."""
    lmt = lms[t]
    lcms = [_lcm(lms[i], lmt) for i in range(t)]
    survivors = []
    for i in range(t):
        li = lcms[i]
        dominated = False
        for j in range(t):
            if j != i and lcms[j] != li and _divides(lcms[j], li):
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    seen = set()
    fresh = []
    for i in survivors:
        lcm = lcms[i]
        if lcm in seen:
            continue
        seen.add(lcm)
        if any(a and b for a, b in zip(lms[i], lmt)):  # not coprime
            degree = sum(lcm)
            sugar = max(sugars[i] + degree - sum(lms[i]), sugars[t] + degree - sum(lmt))
            fresh.append((i, t, lcm, (sugar, order.key(lcm))))
    kept = [
        pair
        for pair in pairs
        if not (_divides(lmt, pair[2]) and lcms[pair[0]] != pair[2] and lcms[pair[1]] != pair[2])
    ]
    kept.extend(fresh)
    return kept


def _reference_normalize(p):
    return p.primitive() if p.ring.field == QQ else p.monic()


def reference_buchberger(generators, order=None):
    """Buchberger on `Polynomial` values: S-pairs by `mul_term`/`sub_scaled`,
    remainders by the reference division, each made primitive (or monic) as
    a whole polynomial, and a `Fraction` interreduction.  The pair criteria
    are those of `buchberger`; the pairs are taken least sugar first, which
    on homogeneous input is the order of `buchberger`'s queue, and elsewhere
    reaches the same reduced basis by another route."""
    gens = [g for g in generators if g]
    if not gens:
        return ()
    ring = gens[0].ring
    if order is None:
        order = ring.order
    if order != ring.order:
        work = ring.with_order(order)
        gens = [work.from_terms(g.terms) for g in gens]
    basis, lms, sugars, pairs = [], [], [], []

    def add_element(g, sugar):
        nonlocal pairs
        basis.append(g)
        lms.append(g.leading_monomial())
        sugars.append(sugar)
        pairs = reference_update_pairs(pairs, lms, sugars, len(basis) - 1, order)

    normalized = (_reference_normalize(g) for g in gens)
    for g in sorted(normalized, key=lambda p: order.key(p.leading_monomial())):
        add_element(g, g.total_degree())
    while pairs:
        best = min(range(len(pairs)), key=lambda k: pairs[k][3])
        i, j, _, (sugar, _) = pairs.pop(best)
        r = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), basis)
        if r:
            r = _reference_normalize(r)
            add_element(r, max(sugar, r.total_degree()))
    polys = sorted((p.monic() for p in basis), key=lambda p: order.key(p.leading_monomial()))
    minimal = []
    for p in polys:
        if not any(_divides(q.leading_monomial(), p.leading_monomial()) for q in minimal):
            minimal.append(p)
    reduced = [
        reference_normal_form(p, minimal[:i] + minimal[i + 1 :]).monic()
        for i, p in enumerate(minimal)
    ]
    reduced.sort(key=lambda p: order.key(p.leading_monomial()), reverse=True)
    return tuple(reduced)


def reference_pair_loop(forms, packing, q, size=None, numerator=None):
    """The pair loop with sugar ranks, as `_pair_loop` ran before its queue:
    pairs from `reference_update_pairs`, the first of least (sugar, lcm)
    taken by a scan, a form's sugar the greatest degree of its terms and a
    remainder's the greater of its pair's and its own.  Returns the forms,
    each reduced S-pair as (form, form, packed lcm) in order, and the
    number of pairs skipped."""
    guard, mask, order = packing.guard, packing.mask, packing.order
    forms.sort(key=lambda form: form[0])
    exps, lms, sugars, pairs = [], [], [], []

    def add(form, sugar):
        exps.append(packing.unpack(form[0]))
        lms.append(form[0])
        sugars.append(sugar)
        return reference_update_pairs(pairs, exps, sugars, len(exps) - 1, order)

    def degree(form):
        return max(e & mask for e in (form[0], *(e for e, _ in form[2])))

    for form in forms:
        pairs = add(form, degree(form))
    watch = None if size is None else groebner._Target(size, numerator, packing, exps, lms)
    taken, skipped = [], 0
    while pairs and not (watch and not watch.transversals):
        best = min(range(len(pairs)), key=lambda k: pairs[k][3])
        sugar = pairs[best][3][0]
        if watch and sugar >= watch.start:
            if not watch.advance(sugar, lms):
                break
            if len(watch.standard) <= watch.limit:
                kept = [pair for pair in pairs if pair[3][0] != sugar]
                skipped += len(pairs) - len(kept)
                pairs = kept
                continue
        i, j, lcm, _ = pairs.pop(best)
        top = packing.pack(lcm)
        taken.append((forms[i], forms[j], top))
        pending = groebner._s_pair(forms[i], forms[j], top, guard, q)
        remainder, _ = groebner._divide(pending, forms, guard, q)
        if remainder:
            form = _form(remainder, q)
            forms.append(form)
            pairs = add(form, max(sugar, degree(form)))
            if watch:
                watch.add(exps[-1], form[0])
    return forms, taken, skipped + len(pairs)


def _random_generators(ring, rng, homogeneous):
    """2-3 generators with non-integer rational coefficients."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        degrees = [rng.randint(2, 3)] if homogeneous else [0, 1, 2]
        terms = [
            (exps, _random_fraction(ring.field, rng))
            for d in degrees
            for exps in monomials_of_degree(ring.nvars, d)
            if rng.random() < 0.5
        ]
        gens.append(ring.from_terms(terms))
    return gens


def assert_identical_bases(computed, expected):
    assert computed == expected
    for g, h in zip(computed, expected):
        assert g.ring == h.ring
        assert [type(c) for _, c in g.terms] == [type(c) for _, c in h.terms]


LOOP_ORDERS = [
    MonomialOrder.grevlex(3),
    MonomialOrder.elimination(3),
    MonomialOrder.grevlex(2),
    MonomialOrder.elimination(2),
]
LOOP_ORDER_IDS = ["grevlex", "elimination", "grevlex-2vars", "elimination-2vars"]


class TestIntegerBuchbergerLoop:
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("order", LOOP_ORDERS, ids=LOOP_ORDER_IDS)
    def test_matches_the_reference_loop(self, order, field, homogeneous):
        rng = random.Random(f"{order!r} {field!r} {homogeneous}")
        names = _names(order)
        # the ring's own order, and another one passed to buchberger
        for ring in (PolynomialRing(names, field, order), PolynomialRing(names, field)):
            for _ in range(4):
                gens = _random_generators(ring, rng, homogeneous)
                assert_identical_bases(buchberger(gens, order), reference_buchberger(gens, order))
                if ring.order == order:
                    assert_identical_bases(buchberger(gens), reference_buchberger(gens))

    @pytest.mark.parametrize("target", [False, True], ids=["plain", "target"])
    @pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF32003"])
    def test_queue_takes_the_pairs_of_the_sugar_ranks(self, field, target, monkeypatch):
        # on homogeneous forms the sorted queue reduces the same S-pairs in
        # the same order as the sugar-ranked loop, and skips as many
        rng = random.Random(f"queue {field!r} {target}")
        q = field.characteristic
        taken = []
        s_pair = groebner._s_pair

        def recording(f, g, top, guard, q):
            taken.append((f, g, top))
            return s_pair(f, g, top, guard, q)

        monkeypatch.setattr(groebner, "_s_pair", recording)
        for n in (3, 4, 5):
            ring = PolynomialRing(tuple(f"x{i}" for i in range(n)), field)
            packing = _packing(ring.order, 16)
            for r in (2, n - 1, n, n + 1):
                for _ in range(3):
                    gens = [random_homogeneous(ring, rng.randint(1, 3), rng) for _ in range(r)]
                    watch = ()
                    if target:
                        numerator = groebner._regular_numerator(gens) if r <= n else None
                        watch = (min(r, n) - 1, numerator)
                    forms = groebner._forms(gens, packing, q)
                    taken.clear()
                    with monkeypatch.context() as m:
                        m.setattr(groebner, "_s_pair", s_pair)
                        expected = reference_pair_loop(list(forms), packing, q, *watch)
                    result, (reduced, _, skipped), _ = groebner._pair_loop(
                        list(forms), packing, q, *watch
                    )
                    assert (result, taken, skipped) == expected
                    assert reduced == len(taken)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("order", LOOP_ORDERS, ids=LOOP_ORDER_IDS)
    def test_unit_ideal(self, order, field):
        ring = PolynomialRing(_names(order), field, order)
        # over Q the ideal of 3/2*x0^2 - x1, 5*x0*x1 - 1, x1^2 - 2/3, written
        # without denominators so that it reads in every field
        gens = [ring.parse("3*x0^2 - 2*x1"), ring.parse("5*x0*x1 - 1"), ring.parse("3*x1^2 - 2")]
        basis = buchberger(gens)
        assert [str(g) for g in basis] == ["1"]
        assert_identical_bases(basis, reference_buchberger(gens))

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("order", LOOP_ORDERS, ids=LOOP_ORDER_IDS)
    def test_s_polynomial_is_the_field_formula(self, order, field):
        rng = random.Random(f"s-polynomial {order!r} {field!r}")
        ring = PolynomialRing(_names(order), field, order)
        for _ in range(20):
            f, g = (_random_rational_poly(ring, 3, rng, 0.4) for _ in range(2))
            if not (f and g):
                continue
            expected = reference_s_polynomial(f, g)
            assert s_polynomial(f, g) == expected
            assert [type(c) for _, c in s_polynomial(f, g).terms] == [
                type(c) for _, c in expected.terms
            ]
            assert s_polynomial(f, f).is_zero()

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    def test_new_elements_are_primitive_or_monic(self, field, rng):
        # a form is (lm, lc, tail): over Q the primitive integer multiple,
        # over F_q the monic multiple with its tail as it is
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        q = 0 if field == QQ else field.q
        for _ in range(30):
            r = ring.from_terms(
                (exps, rng.choice((-1, 1)) * 6 * rng.randint(1, 9))
                for exps in monomials_of_degree(3, 2)
                if rng.random() < 0.5
            )
            if not r:
                continue
            lm, lc, tail = _form([(m, int(c)) for m, c in r.terms], q)
            if q:
                expected = r.monic()
                assert lc == 1
            else:
                expected = r.primitive()
            assert ring.from_terms([(lm, lc)] + tail) == expected


# -- packed monomials ------------------------------------------------------------


class TestPackedMonomials:
    # 4 value bits hold every field of a product of two monomials of degree <= 4

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_packed_ints_sort_like_the_order_key(self, order):
        pack = _packing(order, 4).pack
        monomials = _small_monomials(order.nvars)
        assert sorted(monomials, key=pack) == sorted(monomials, key=order.key)
        assert len({pack(e) for e in monomials}) == len(monomials)

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_packing_is_additive_and_unpacks(self, order):
        packing = _packing(order, 4)
        pack = packing.pack
        monomials = _small_monomials(order.nvars)
        for a in monomials:
            assert packing.unpack(pack(a)) == a
            assert pack(a) & packing.mask == sum(a)  # the degree field
            for b in monomials:
                product = pack(tuple(x + y for x, y in zip(a, b)))
                assert pack(a) + pack(b) == product
                assert not product & packing.guard

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_guard_test_is_divisibility(self, order):
        packing = _packing(order, 4)
        pack, guard = packing.pack, packing.guard
        monomials = _small_monomials(order.nvars)
        for a in monomials:
            for b in monomials:
                divides = all(x <= y for x, y in zip(a, b))
                assert (not (pack(b) - pack(a)) & guard) == divides

    @pytest.mark.parametrize("order", KERNEL_ORDERS, ids=ORDER_IDS)
    def test_update_pairs_keeps_the_reference_pairs(self, order):
        # the criteria on packed leads, each unpacked once, keep the pairs
        # of the criteria on exponent tuples, with their lcm degrees; the
        # queue, read from its end, is the order in which the sugar ranks
        # of homogeneous forms (a form's sugar its degree) take them, the
        # first of least rank first; repeated leads included
        packing = _packing(order, 4)
        rng = random.Random(f"pairs {order!r}")
        monomials = _small_monomials(order.nvars)
        for _ in range(30):
            leads = [rng.choice(monomials) for _ in range(8)]
            packed = [packing.pack(e) for e in leads]
            sugars = [sum(e) for e in leads]
            pairs, expected = [], []
            for t in range(len(leads)):
                pairs = groebner._update_pairs(pairs, leads, packed, t, packing)
                expected = reference_update_pairs(expected, leads, sugars, t, order)
                taken = sorted(expected, key=lambda pair: pair[3])
                assert [
                    (i, j, packing.unpack(top), degree) for degree, top, j, i in reversed(pairs)
                ] == [(i, j, lcm, rank[0]) for i, j, lcm, rank in taken]

    def test_overflowing_fields_are_widened(self, monkeypatch):
        # the grevlex basis of these binomials reaches degree 27, beyond the
        # 5-bit fields sized from the degree 6 of the input; the lcm of a
        # new pair overflows them first
        widths, overflows = [], []

        def recording(order, bits):
            widths.append(bits)
            return _packing(order, bits)

        update_pairs = groebner._update_pairs

        def watching(*args):
            try:
                return update_pairs(*args)
            except groebner._Overflow:
                overflows.append(args[-1].mask.bit_length())
                raise

        monkeypatch.setattr(groebner, "_packing", recording)
        monkeypatch.setattr(groebner, "_update_pairs", watching)
        ring = PolynomialRing(("x", "y", "z", "w"))
        gens = [ring.parse(e) for e in ("x^6 - y*z^4*w", "x*y^4 - z^5", "x^5*z - y^5*w")]
        basis = buchberger(gens)
        assert [str(g) for g in basis[:2]] == ["z^26 - y^25*w", "x*z^21 - y^21*w"]
        assert widths == [5, 10]
        assert overflows == [5]


def assert_same_ideal(computed, expected_gens):
    expected = Ideal(computed.ring, [computed.ring.parse(e) for e in expected_gens])
    assert computed.equals(expected)


class TestQuotientAndSaturation:
    def test_principal_power(self, ring2):
        q = ideal_quotient(Ideal(ring2, [ring2.parse("x0^2")]), Ideal(ring2, [ring2.parse("x0")]))
        assert_same_ideal(q, ["x0"])

    def test_principal_product(self, ring2):
        q = ideal_quotient(Ideal(ring2, [ring2.parse("x0*x1")]), Ideal(ring2, [ring2.parse("x0")]))
        assert_same_ideal(q, ["x1"])

    def test_square_of_maximal_ideal(self, ring2):
        m = Ideal(ring2, [ring2.parse("x0"), ring2.parse("x1")])
        m2 = Ideal(ring2, [ring2.parse("x0^2"), ring2.parse("x0*x1"), ring2.parse("x1^2")])
        assert_same_ideal(ideal_quotient(m2, m), ["x0", "x1"])

    def test_quotient_by_zero_ideal(self, ring2):
        q = ideal_quotient(Ideal(ring2, [ring2.parse("x0")]), Ideal(ring2, []))
        assert q.is_unit()

    def test_strip_multiplicity(self, ring2):
        s = saturate(Ideal(ring2, [ring2.parse("x0^2*x1")]), Ideal(ring2, [ring2.parse("x0")]))
        assert_same_ideal(s, ["x1"])

    def test_two_rounds_then_stable(self, ring3):
        s = saturate(
            Ideal(ring3, [ring3.parse("x0*x1"), ring3.parse("x0*x2")]),
            Ideal(ring3, [ring3.parse("x0")]),
        )
        assert_same_ideal(s, ["x1", "x2"])

    def test_unit_ideal_is_a_fixed_point(self, ring2):
        unit = Ideal(ring2, [ring2.one()])
        s = saturate(unit, Ideal(ring2, [ring2.parse("x0")]))
        assert s.is_unit()

    def test_saturation_contains_and_is_idempotent(self, ring3, rng):
        for _ in range(8):
            I = Ideal(ring3, [random_homogeneous(ring3, rng.randint(1, 3), rng) for _ in range(2)])
            J = Ideal(ring3, [ring3.parse("x0")])
            s = saturate(I, J)
            assert s.contains_ideal(I)
            assert saturate(s, J).equals(s)

    def test_quotient_times_divisor_lands_inside(self, ring3, rng):
        for _ in range(6):
            J = Ideal(ring3, [random_homogeneous(ring3, 2, rng) for _ in range(2)])
            I = Ideal(ring3, [random_homogeneous(ring3, rng.randint(1, 2), rng)])
            q = ideal_quotient(J, I)
            for g in q.generators:
                for f in I.generators:
                    assert J.contains(g * f)

    def test_intersection_membership(self, ring3, rng):
        for _ in range(5):
            I = Ideal(ring3, [random_homogeneous(ring3, 2, rng)])
            J = Ideal(ring3, [random_homogeneous(ring3, 2, rng)])
            meet = intersect(I, J)
            for g in meet.generators:
                assert I.contains(g) and J.contains(g)
            for f in I.generators:
                for g in J.generators:
                    assert meet.contains(f * g)

    def test_divide_exact(self, ring3, rng):
        for _ in range(10):
            f = random_poly(ring3, 2, rng)
            g = random_poly(ring3, 2, rng)
            if not f or not g:
                continue
            assert divide_exact(f * g, g) == f
        with pytest.raises(ValueError):
            divide_exact(ring3.parse("x0"), ring3.parse("x1"))


def reference_saturate(I, J):
    """I : J^infinity as `saturate` computed it before the elimination route:
    ideal quotients iterated until the ascending chain stops, which it does
    since k[x] is Noetherian."""
    current = I
    while True:
        following = ideal_quotient(current, J)
        if current.contains_ideal(following):
            return current
        current = following


SATURATE_BY = {
    "maximal": lambda ring, rng: ring.variables(),
    "variable": lambda ring, rng: [ring.variable(rng.randrange(ring.nvars))],
    "form": lambda ring, rng: [random_homogeneous(ring, rng.randint(1, 2), rng)],
}


class TestSaturation:
    @pytest.mark.parametrize("by", list(SATURATE_BY))
    @pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize(
        "field", [QQ, PrimeField(2), PrimeField(7)], ids=["QQ", "GF2", "GF7"]
    )
    def test_matches_the_iterated_quotient(self, field, homogeneous, by):
        rng = random.Random(f"saturate {field!r} {homogeneous} {by}")
        ring = PolynomialRing(("x0", "x1", "x2"), field)
        for _ in range(2):
            J = Ideal(ring, SATURATE_BY[by](ring, rng))
            # g * J^k lies in I, so the saturation has g to gain
            g, *rest = _random_generators(ring, rng, homogeneous)
            k = rng.randint(1, 2)
            I = Ideal(ring, rest + [g * f**k for f in J.generators])
            assert saturate(I, J).equals(reference_saturate(I, J))

    def test_zero_ideal_saturates_to_the_unit_ideal(self, ring3):
        I = Ideal(ring3, [ring3.parse("x0*x1")])
        assert saturate(I, Ideal(ring3, [])).is_unit()

    def test_zero_ideal_stays_zero(self, ring3):
        assert saturate(Ideal(ring3, []), Ideal(ring3, ring3.variables())).is_zero()
        assert saturate(Ideal(ring3, []), Ideal(ring3, [ring3.parse("x0 + x1^2")])).is_zero()

    def test_constant_leaves_the_ideal_unchanged(self, ring3):
        I = Ideal(ring3, [ring3.parse("x0^2*x1"), ring3.parse("x1*x2")])
        assert saturate(I, Ideal(ring3, [ring3.parse("3")])) is I

    def test_rejects_ideals_from_different_rings(self, ring2, ring3):
        with pytest.raises(ValueError, match="different rings"):
            saturate(Ideal(ring3, [ring3.parse("x0")]), Ideal(ring2, [ring2.parse("x0")]))

    def test_irrelevant_ideal_strips_embedded_point(self, ring3):
        # x1 * (x0, x1, x2) has saturation (x1); (x0*x1, x0*x2) is already
        # saturated, though no variable is a nonzerodivisor on it
        m = Ideal(ring3, ring3.variables())
        embedded = Ideal(ring3, [ring3.parse(e) for e in ("x0*x1", "x1^2", "x1*x2")])
        assert_same_ideal(saturate(embedded, m), ["x1"])
        reducible = Ideal(ring3, [ring3.parse("x0*x1"), ring3.parse("x0*x2")])
        assert saturate(reducible, m).equals(reducible)


def _standard_monomial_count(basis, nvars, degree):
    """Count degree-d monomials outside the leading-term ideal by enumeration."""
    lms = [g.leading_monomial() for g in basis]
    count = 0
    for exps in monomials_of_degree(nvars, degree):
        if not any(_divides(lm, exps) for lm in lms):
            count += 1
    return count


class TestHilbertData:
    def test_projective_space(self, ring4):
        data = hilbert_data(Ideal(ring4, []))
        assert data.dimension == 3
        assert data.degree == 1

    def test_plane_conic(self, ring3):
        data = hilbert_data(Ideal(ring3, [ring3.parse("x0*x2 - x1^2")]))
        assert (data.dimension, data.degree) == (1, 2)

    def test_twisted_cubic(self, ring4):
        ideal = twisted_cubic(ring4)
        data = hilbert_data(ideal)
        assert (data.dimension, data.degree) == (1, 3)
        # oracle: count standard monomials in degrees 1..4 and compare with
        # the extracted Hilbert polynomial 3t + 1
        basis = ideal.groebner_basis()
        for t in range(1, 5):
            assert _standard_monomial_count(basis, 4, t) == 3 * t + 1
        assert data.hilbert_polynomial == (Fraction(1), Fraction(3))
        assert [hilbert_function(ideal, t) for t in range(-1, 5)] == [0, 1, 4, 7, 10, 13]

    def test_hilbert_function_without_variables(self):
        # R is the field itself, all in degree 0
        ring = PolynomialRing(())
        assert [hilbert_function(Ideal(ring, []), d) for d in range(3)] == [1, 0, 0]
        assert hilbert_function(Ideal(ring, [ring.one()]), 0) == 0

    def test_empty_scheme(self, ring3):
        data = hilbert_data(Ideal(ring3, [ring3.parse("x0"), ring3.parse("x1"), ring3.parse("x2")]))
        assert data.is_empty
        assert data.degree is None
        assert data.hilbert_polynomial == ()

    def test_rejects_inhomogeneous(self, ring2):
        with pytest.raises(NonHomogeneousError):
            hilbert_data(Ideal(ring2, [ring2.parse("x0 + 1")]))

    def test_sparse_plane_curve_asks_one_binomial_per_dimension(self, ring3):
        # x0^(d-1)*x1 - x2^d: the numerator 1 - t^d has two terms, and the
        # Hilbert polynomial d*m - d(d-3)/2 of a plane curve of degree d
        # needs one binomial per dimension, by the prime and by the basis
        d = 20000
        ideal = Ideal(ring3, [ring3.parse(f"x0^{d - 1}*x1 - x2^{d}")])
        before = groebner._binomial_polynomial.cache_info().currsize
        expected = (1, d, (-d * (d - 3) // 2, d))
        for data in (
            hilbert_data(ideal),
            groebner._hilbert_from_numerator(groebner._leading_numerator(ideal), 3),
        ):
            assert (data.dimension, data.degree, data.hilbert_polynomial) == expected
        assert groebner._binomial_polynomial.cache_info().currsize - before <= ring3.nvars

    def test_order_independence(self, rng):
        # dimension and degree agree between grevlex and elimination on
        # random ideals
        for trial in range(10):
            nvars = rng.choice((3, 4))
            names = tuple(f"x{i}" for i in range(nvars))
            grevlex_ring = PolynomialRing(names)
            elim_ring = PolynomialRing(names, order=MonomialOrder.elimination(nvars))
            gens = []
            for _ in range(rng.randint(1, 2)):
                gens.append(random_homogeneous(grevlex_ring, rng.randint(1, 3), rng))
            a = hilbert_data(Ideal(grevlex_ring, gens))
            b = hilbert_data(Ideal(elim_ring, [elim_ring.from_terms(g.terms) for g in gens]))
            assert (a.dimension, a.degree) == (b.dimension, b.degree)


EMPTY = HilbertData(-1, None, ())


def reference_hilbert_from_numerator(numerator, nvars):
    """Hilbert data from a dense numerator, the list of the coefficients of
    t^0, t^1, ..., as `_hilbert_from_numerator` read it before it expanded
    the numerator at t = 1: synthetic division by 1 - t while the
    coefficients sum to zero, then a_k of quotient(t) = sum a_k (1 - t)^k as
    the sum of the coefficients, the rest divided by 1 - t as minus the tail
    sums."""
    quotient = list(numerator)
    while quotient and not quotient[-1]:
        quotient.pop()
    if not quotient:
        return EMPTY
    D = nvars
    while sum(quotient) == 0:
        quotient = list(accumulate(quotient[:-1]))
        while quotient and not quotient[-1]:
            quotient.pop()
        D -= 1
    if D < 0:
        raise RuntimeError("Hilbert series reduced below constant rank")
    if D == 0:
        return EMPTY
    a = []
    for _ in range(D):
        a.append(sum(quotient))
        quotient = list(accumulate(-c for c in reversed(quotient[1:])))[::-1]
    coeffs = [Fraction(0)] * D
    for k, a_k in enumerate(a):
        for i, c in enumerate(groebner._binomial_polynomial(D - 1 - k, D - 1 - k)):
            coeffs[i] += a_k * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertData(D - 1, a[0], tuple(coeffs))


def _dense(numerator):
    """The list of coefficients of a sparse numerator {exponent: coefficient}."""
    return [numerator.get(j, 0) for j in range(max(numerator, default=-1) + 1)]


def _dense_product(degrees):
    """prod (1 - t^d) over the degrees, as a list, by multiplying lists."""
    product = [1]
    for d in degrees:
        product = [
            (product[j] if j < len(product) else 0) - (product[j - d] if j >= d else 0)
            for j in range(len(product) + d)
        ]
    return product


class TestSeriesReader:
    """`_hilbert_from_numerator` reads a sparse numerator at t = 1 in one
    expansion; the dense route it replaced is the reference."""

    def test_random_monomial_ideals(self):
        rng = random.Random(32)
        for nvars in range(2, 7):
            for _ in range(12):
                gens = [
                    tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(nvars))
                    for _ in range(rng.randint(1, 6))
                ]
                gens = [g for g in gens if any(g)]
                numerator = groebner._hilbert_numerator(gens, nvars)
                assert all(numerator.values())
                expected = reference_hilbert_from_numerator(_dense(numerator), nvars)
                assert groebner._hilbert_from_numerator(numerator, nvars) == expected
                # the numerator itself, against standard monomials counted
                for d in range(6):
                    standard = sum(
                        not any(_divides(g, m) for g in gens)
                        for m in monomials_of_degree(nvars, d)
                    )
                    assert groebner._coefficient(numerator, nvars, d) == standard

    def test_products_of_unit_root_factors(self):
        # prod (1 - t^d_i), r <= n: Proj has dimension n - r - 1 and degree
        # prod d_i, and the data is empty for r = n
        rng = random.Random(33)
        for nvars in range(1, 6):
            ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
            for r in range(nvars + 1):
                degrees = [rng.randint(1, 7) for _ in range(r)]
                gens = [ring.parse(f"x{i}^{d}") for i, d in enumerate(degrees)]
                numerator = groebner._regular_numerator(gens)
                assert _dense(numerator) == _dense_product(degrees)
                data = groebner._hilbert_from_numerator(numerator, nvars)
                assert data == reference_hilbert_from_numerator(_dense_product(degrees), nvars)
                if r == nvars:
                    assert data == EMPTY
                else:
                    assert (data.dimension, data.degree) == (nvars - r - 1, prod(degrees))

    def test_the_zero_numerator_is_the_empty_scheme(self):
        for nvars in range(5):
            assert groebner._hilbert_from_numerator({}, nvars) == EMPTY
            assert reference_hilbert_from_numerator([], nvars) == EMPTY

    def test_a_root_of_order_past_nvars_raises(self):
        # (1 - t)^(n + 1): every b_0 ... b_n vanishes
        for nvars in range(4):
            numerator = {j: (-1) ** j * comb(nvars + 1, j) for j in range(nvars + 2)}
            for read, argument in (
                (groebner._hilbert_from_numerator, numerator),
                (reference_hilbert_from_numerator, _dense(numerator)),
            ):
                with pytest.raises(RuntimeError):
                    read(argument, nvars)

    def test_a_plane_curve_of_degree_a_million(self, ring3):
        d = 10**6
        I = Ideal(ring3, [ring3.parse(f"x0^{d - 1}*x1 - x2^{d}")])
        data = groebner.regular_sequence_data(I)
        assert (data.dimension, data.degree) == (1, d)
        assert data.hilbert_polynomial == (-d * (d - 3) // 2, d)


def reference_graded_piece(I, d):
    """Basis of I_d as `graded_piece` computed it before it read the piece
    off the leading ideal: the degree-d multiples of the generators as the
    rows of a dense Macaulay matrix, brought to reduced row echelon form."""
    ring = I.ring
    columns = sorted(
        monomials_of_degree(ring.nvars, d),
        key=ring.order.key,
        reverse=True,
    )
    index = {m: i for i, m in enumerate(columns)}
    rows = []
    for g in I.generators:
        gd = g.total_degree()
        if gd > d:
            continue
        for exps in monomials_of_degree(ring.nvars, d - gd):
            shifted = g.mul_term(ring.field.one, exps)
            row = [ring.field.zero] * len(columns)
            for m, c in shifted.terms:
                row[index[m]] = c
            rows.append(row)
    if not rows:
        return []
    echelon, _ = linalg.rref(rows, ring.field)
    return [
        Polynomial(ring, tuple((columns[i], c) for i, c in enumerate(row) if c))
        for row in echelon
    ]


class TestGradedPiece:
    def test_conic_degree_one_is_empty(self, ring3):
        ideal = Ideal(ring3, [ring3.parse("x0*x2 - x1^2")])
        assert graded_piece(ideal, 1) == []

    def test_conic_degree_two_is_the_generator(self, ring3):
        ideal = Ideal(ring3, [ring3.parse("x0*x2 - x1^2")])
        piece = graded_piece(ideal, 2)
        assert len(piece) == 1
        assert ideal.contains(piece[0])

    def test_twisted_cubic_degree_two(self, ring4):
        # 10 monomials of degree 2 on P^3 minus h^0(O_P1(6)) = 7 leaves 3
        piece = graded_piece(twisted_cubic(ring4), 2)
        assert len(piece) == 3

    def test_dimension_matches_hilbert_function(self, ring3, rng):
        from math import comb

        for _ in range(6):
            ideal = Ideal(ring3, [random_homogeneous(ring3, rng.randint(1, 3), rng) for _ in range(2)])
            saturated = saturate(ideal, Ideal(ring3, ring3.variables()))
            for d in range(1, 5):
                expected = comb(d + 2, 2) - hilbert_function(saturated, d)
                piece = graded_piece(saturated, d)
                assert len(piece) == expected
                # both sides above read the same leading ideal; the dense
                # Macaulay matrix does not
                assert piece == reference_graded_piece(saturated, d)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
    @pytest.mark.parametrize("nvars", [3, 4, 5])
    def test_matches_the_macaulay_matrix(self, field, nvars):
        rng = random.Random(f"graded piece {field!r} {nvars}")
        ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)), field)
        for _ in range(4):
            degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            ideal = Ideal(ring, [random_homogeneous(ring, e, rng) for e in degrees])
            for d in range(1, 6 - nvars // 2):
                assert graded_piece(ideal, d) == reference_graded_piece(ideal, d)
        assert graded_piece(Ideal(ring, []), 2) == []
        unit = Ideal(ring, [ring.one()])
        assert graded_piece(unit, 1) == reference_graded_piece(unit, 1)

    def test_rejects_nonpositive_degree(self, ring3):
        with pytest.raises(ValueError):
            graded_piece(Ideal(ring3, [ring3.parse("x0")]), 0)


class TestBuchbergerCriterionSuite:
    def test_random_ideals_pass_s_pair_reduction(self, rng):
        for trial in range(20):
            nvars = rng.choice((3, 4))
            ring = PolynomialRing(tuple(f"x{i}" for i in range(nvars)))
            gens = [
                random_homogeneous(ring, rng.randint(1, 3), rng)
                for _ in range(rng.randint(2, 3))
            ]
            basis = Ideal(ring, gens).groebner_basis()
            members = list(basis)
            for f, g in combinations(basis, 2):
                assert normal_form_against(s_polynomial(f, g), members).is_zero()

    def test_membership_of_random_combinations(self, ring3, rng):
        gens = [random_homogeneous(ring3, 2, rng) for _ in range(2)]
        ideal = Ideal(ring3, gens)
        for _ in range(15):
            member = ring3.zero()
            for g in gens:
                member = member + random_poly(ring3, 2, rng) * g
            assert ideal.contains(member)
