"""Buchberger engine and derived ideal-theoretic queries.

The engine uses the normal-pair (Gebauer-Moeller) criteria with sugar
selection; inputs are desk scale, so no signature-based machinery.  On top
of reduced Groebner bases sit normal forms and one elimination of a tag
variable, which gives intersections, ideal quotients and saturations
(I : f^infinity by Rabinowitsch's 1 - t*f).  The leading ideal of the
reduced basis gives the rest: Hilbert series data of homogeneous ideals,
and graded pieces as monomials minus their normal forms.

Division runs on packed monomials rather than `Polynomial` values, after
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (2007).  Each monomial is one int (`_Packing`)
whose integer order is the monomial order, so a product is an int addition
and divisibility one subtraction and mask; the pending terms live in a dict
keyed by these ints plus a max-heap with lazy deletion, so a step touches
only the terms of the reducer.  The field width comes from the input degree,
and a run whose monomials outgrow it is repeated with wider fields.  One
fraction-free kernel serves both fields.  Over Q it divides by the
primitive integer forms of the divisors and keeps the accumulated scale, so
that each remainder coefficient is the exact rational; over F_q the forms
are monic and every coefficient is reduced mod q, so each step is the field
step and the scale stays 1.  `buchberger` runs entirely on these forms and
packed monomials, S-pairs and pair criteria included, and builds
`Fraction`/`Polynomial` values only for the reduced basis it returns.

Whether a homogeneous ideal over Q cuts out the empty scheme is first
asked at one fixed prime, EMPTINESS_PRIME.  For integer generators the rank
of each degree-D Macaulay matrix can only drop mod p, so the Hilbert
function mod p bounds the one over Q from above, and a scheme empty over
the closure of F_p is empty over the closure of Q (Arnold, "Modular
algorithms for computing Groebner bases", J. Symbolic Comput. 35 (2003);
Pauer, "On lucky ideals for Groebner basis computations", J. Symbolic
Comput. 14 (1992)).  `hilbert_data` tries this only on ideals whose basis
over Q is not cached and which have at least nvars generators, since fewer
forms of positive degree always meet.  `buchberger`'s pair loop runs on
the generators' primitive integer forms read mod p, and a leading ideal
primary to the irrelevant ideal is the proof.  Every other outcome, an unlucky prime included, falls
back to the basis over Q, so the prime costs time and never an answer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le, mul, sub

from .polynomials import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    QQ,
)


logger = logging.getLogger(__name__)

# the prime of the emptiness certificate in `hilbert_data`; fixed, so that
# every run takes the same route
EMPTINESS_PRIME = 32003


class NonHomogeneousError(ValueError):
    pass


# -- packed monomials -----------------------------------------------------------


class _Overflow(Exception):
    """A new monomial has outgrown the fields of its packing."""


class _Packing:
    """Monomials of `order` packed into one int each: 2n + 1 fields of `bits`
    value bits under a guard bit, high to low the order key as non-negative
    partial sums (grevlex S_n ... S_1 of the permuted exponents, lex the
    permuted exponents, elimination each block's sums), the n exponents and
    the degree.  Packing is linear, so a product is a sum and ints compare
    as their monomials; m | m' iff (m' - m) & guard == 0, because a field of
    m' below that of m borrows into its guard bit.  A new monomial with a
    guard bit set has outgrown the fields and raises `_Overflow`."""

    __slots__ = ("order", "units", "guard", "mask", "shifts")

    def __init__(self, order, bits):
        self.order = order
        n, width = order.nvars, bits + 1
        perm = order.permutation or tuple(range(n))
        if order.kind == "lex":
            fields = [perm[k : k + 1] for k in range(n)]
        else:
            split = order.split if order.kind == "elimination" else n
            blocks = (perm[:split], perm[split:])
            fields = [block[:k] for block in blocks for k in range(len(block), 0, -1)]
        fields += [(j,) for j in range(n)] + [range(n)]
        top = len(fields) - 1
        self.units = [
            sum(1 << width * (top - k) for k, f in enumerate(fields) if j in f) for j in range(n)
        ]
        self.guard = sum(1 << width * k + bits for k in range(len(fields)))
        self.mask = (1 << bits) - 1  # the degree field
        self.shifts = [width * (n - j) for j in range(n)]

    def pack(self, exps):
        return sum(map(mul, exps, self.units))

    def unpack(self, m):
        mask = self.mask
        return tuple(m >> s & mask for s in self.shifts)

    def lcm(self, a, b):
        m = self.pack(map(max, self.unpack(a), self.unpack(b)))
        if m & self.guard:
            raise _Overflow
        return m


_packing = lru_cache(maxsize=128)(_Packing)


def _packed(run, order, polys):
    """run(packing) with fields sized from the degree of the polynomials;
    while a new monomial overflows them, the whole run is repeated with
    fields of twice the width."""
    degree = max((g.total_degree() for g in polys if g), default=0)
    bits = max(degree, 1).bit_length() + 2
    while True:
        try:
            return run(_packing(order, bits))
        except _Overflow:
            bits *= 2


# -- division ------------------------------------------------------------------


def _cleared(poly, packing, q):
    """Packed (monomial, integer coefficient) pairs of a polynomial, largest
    first, and the denominator cleared from them: over Q (q = 0) the least
    common denominator, over F_q the field elements as they are and 1."""
    den = 1 if q else lcm(*(c.denominator for _, c in poly.terms))
    pack = packing.pack
    terms = [
        (pack(m), c if q else c.numerator * (den // c.denominator))
        for m, c in poly.terms
    ]
    terms.sort(reverse=True)
    return terms, den


def _forms(polys, packing, q):
    """The `_form` of each nonzero polynomial, in the form the division
    kernel reduces with; q is the characteristic, 0 over Q."""
    return [_form(_cleared(g, packing, q)[0], q) for g in polys if g]


def _form(terms, q):
    """The form (lm, lc, tail) of nonzero integer terms, largest first.

    Over Q (q = 0) it is the primitive integer multiple with positive lc;
    over F_q the monic multiple, lc = 1.  The tail is a list of
    (monomial, coefficient) pairs.
    """
    (lm, lc), tail = terms[0], terms[1:]
    if q:
        inverse = pow(lc, -1, q)
        return lm, 1, [(e, c * inverse % q) for e, c in tail]
    content = gcd(*(c for _, c in terms))
    if lc < 0:
        content = -content
    return lm, lc // content, [(e, c // content) for e, c in tail]


def _polynomial(ring, packing, terms):
    """The polynomial of `ring` with the packed terms, largest first."""
    unpack = packing.unpack
    terms = [(unpack(m), c) for m, c in terms]
    return Polynomial(ring, terms) if ring.order == packing.order else ring.from_terms(terms)


def _divide(pending, forms, guard, q):
    """Fraction-free division of the integer terms `pending` by the forms.

    Monomials are packed ints with guard bits `guard`.  Returns
    (remainder, scale): remainder terms, largest first, with integer
    coefficients whose quotients by scale are the exact remainder of the
    division of `pending`.  Each step is P <- a*P - b*x^u*g with
    a = lc / gcd(lc, c), b = c / gcd(lc, c), the field step
    p - (c/lc)*x^u*g scaled by a.  Over F_q (q > 0) the forms are monic, so
    a = 1 and b = c: the step is the field step, each updated coefficient
    is reduced mod q and the scale stays 1.  `pending` is consumed.
    """
    scale = 1
    heap = [-m for m in pending]
    heapify(heap)
    remainder = []  # (monomial, coefficient, scale when it left)
    while heap:
        m = -heappop(heap)
        c = pending.pop(m, None)
        if c is None:  # cancelled after it was pushed
            continue
        for lm, lc, tail in forms:
            if not (m - lm) & guard:
                break
        else:
            remainder.append((m, c, scale))
            continue
        u = m - lm
        common = gcd(lc, c)
        a, b = lc // common, c // common
        if a != 1:
            scale *= a
            pending = {e: v * a for e, v in pending.items()}
        for e, gc in tail:
            e += u
            v = pending.get(e)
            if v is None:
                if e & guard:
                    raise _Overflow
                pending[e] = -b * gc % q if q else -b * gc
                heappush(heap, -e)
            else:
                v -= b * gc
                if q:
                    v %= q
                if v:
                    pending[e] = v
                else:
                    del pending[e]
    return [(m, c if s == scale else c * (scale // s)) for m, c, s in remainder], scale


def normal_form_against(f, basis, order=None):
    """Full remainder of f under multivariate division by `basis`.

    Every term of the result is divisible by no leading monomial of the
    basis; with a Groebner basis this is the canonical normal form.  The
    leading term is always reduced by the first basis element whose
    leading monomial divides it.
    """
    ring = f.ring
    if order is None:
        order = ring.order
    q = ring.field.characteristic

    def run(packing):
        terms, den = _cleared(f, packing, q)
        remainder, scale = _divide(dict(terms), _forms(basis, packing, q), packing.guard, q)
        if not q:
            remainder = [(m, Fraction(c, den * scale)) for m, c in remainder]
        return _polynomial(ring, packing, remainder)

    return _packed(run, order, [f, *basis])


def divide_exact(f, g):
    """Quotient f / g when the division is exact; raises otherwise."""
    ring = f.ring
    field = ring.field
    lm, lc = g.leading_monomial(), g.leading_coefficient()
    quotient_terms = []
    p = f
    while p.terms:
        mono, coeff = p.terms[0]
        if not all(map(le, lm, mono)):
            raise ValueError("division is not exact")
        c = field.mul(coeff, field.invert(lc))
        q = tuple(map(sub, mono, lm))
        quotient_terms.append((q, c))
        p = p.sub_scaled(c, q, g)
    return ring.from_terms(quotient_terms)


def _s_pair(f, g, top, guard, q):
    """The S-pair of two forms as pending terms; `top` is the packed lcm of
    their leading monomials.

    The terms are those of (lc_g/c)*x^u*tail_f - (lc_f/c)*x^v*tail_g with
    c = gcd(lc_f, lc_g), which is lcm(lc_f, lc_g) times the field
    S-polynomial.  Over F_q (q > 0) the forms are monic, so the terms,
    reduced mod q, are x^u*tail_f - x^v*tail_g, the field S-polynomial
    itself.
    """
    lm_f, lc_f, tail_f = f
    lm_g, lc_g, tail_g = g
    u, v = top - lm_f, top - lm_g
    common = gcd(lc_f, lc_g)
    a, b = lc_g // common, lc_f // common
    pending = {e + u: a * c for e, c in tail_f}
    for e, c in tail_g:
        e += v
        w = pending.get(e, 0) - b * c
        if q:
            w %= q
        if w:
            pending[e] = w
        else:
            del pending[e]
    if any(e & guard for e in pending):
        raise _Overflow
    return pending


def s_polynomial(f, g):
    """The S-polynomial x^u*f/lc(f) - x^v*g/lc(g), x^u*lm(f) = x^v*lm(g) = lcm.

    Computed by the integer S-pair step of `buchberger`: over Q it is that
    step's result on the forms of f and g divided by the lcm of their
    leading coefficients.
    """
    if f.ring != g.ring:
        raise ValueError("polynomials come from different rings")
    if not (f and g):
        raise ValueError("zero polynomial has no leading monomial")
    ring = f.ring
    q = ring.field.characteristic

    def run(packing):
        form_f, form_g = _forms((f, g), packing, q)
        top = packing.lcm(form_f[0], form_g[0])
        pending = _s_pair(form_f, form_g, top, packing.guard, q)
        if not q:
            common = lcm(form_f[1], form_g[1])
            pending = {m: Fraction(c, common) for m, c in pending.items()}
        return _polynomial(ring, packing, sorted(pending.items(), reverse=True))

    return _packed(run, ring.order, (f, g))


# -- Buchberger ------------------------------------------------------------------


def _normalize(p):
    return p.primitive() if p.ring.field == QQ else p.monic()


def _update_pairs(pairs, lms, sugars, t, packing):
    """Gebauer-Moeller criteria when basis element with index t arrives.

    Monomials are packed.  A pair is (i, j, lcm, rank) with
    rank = (sugar, lcm), fixed when the pair is created.
    """
    guard, mask = packing.guard, packing.mask
    lmt = lms[t]
    lcms = [packing.lcm(lms[i], lmt) for i in range(t)]
    survivors = [
        i
        for i, li in enumerate(lcms)
        if not any(lj != li and not (li - lj) & guard for lj in lcms)
    ]
    seen = set()
    fresh = []
    for i in survivors:
        top = lcms[i]
        if top in seen:
            continue
        seen.add(top)
        if top != lms[i] + lmt:  # not coprime
            degree = top & mask
            sugar = max(
                sugars[i] + degree - (lms[i] & mask), sugars[t] + degree - (lmt & mask)
            )
            fresh.append((i, t, top, (sugar, top)))
    kept = [
        pair
        for pair in pairs
        if (pair[2] - lmt) & guard or lcms[pair[0]] == pair[2] or lcms[pair[1]] == pair[2]
    ]
    kept.extend(fresh)
    return kept


def _degree(form, mask):
    lm, _, tail = form
    return max(lm & mask, max((e & mask for e, _ in tail), default=0))


def _pair_loop(forms, packing, q):
    """Extend the forms of a generating set to those of a Groebner
    generating set, in place, and return them.

    Pairs pass the Gebauer-Moeller criteria and are taken least sugar
    first; each S-pair is divided by the forms so far and a nonzero
    remainder joins them as a new form.
    """
    guard, mask = packing.guard, packing.mask
    forms.sort(key=lambda form: form[0])
    lms, sugars, pairs = [], [], []
    for t, form in enumerate(forms):
        lms.append(form[0])
        sugars.append(_degree(form, mask))
        pairs = _update_pairs(pairs, lms, sugars, t, packing)
    while pairs:
        # the first pair of least rank, as a stable sort would give
        best = min(range(len(pairs)), key=lambda k: pairs[k][3])
        i, j, top, (sugar, _) = pairs.pop(best)
        remainder, _ = _divide(_s_pair(forms[i], forms[j], top, guard, q), forms, guard, q)
        if remainder:
            form = _form(remainder, q)
            forms.append(form)
            lms.append(form[0])
            sugars.append(max(sugar, _degree(form, mask)))
            pairs = _update_pairs(pairs, lms, sugars, len(forms) - 1, packing)
    return forms


def buchberger(generators, order=None):
    """Reduced monic Groebner basis of the given generators.

    Deterministic for fixed input and order; the empty input yields the
    empty basis.
    """
    gens = [g for g in generators if g]
    if not gens:
        return ()
    ring = gens[0].ring
    if order is None:
        order = ring.order
    q = ring.field.characteristic
    work = ring if order == ring.order else ring.with_order(order)

    def run(packing):
        forms = _pair_loop(_forms(gens, packing, q), packing, q)
        return _interreduce(forms, work, packing, q)

    return _packed(run, order, gens)


def _interreduce(forms, ring, packing, q):
    """Turn the forms of a Groebner generating set into the reduced monic basis.

    Reducing an element of a minimal basis by the others keeps its leading
    monomial, so a single pass leaves every element reduced, and the
    result, largest leading monomial first, is the minimal basis reversed.
    Over Q each output coefficient is made a `Fraction` once, by dividing
    by the lead.
    """
    guard = packing.guard
    minimal = []
    for form in sorted(forms, key=lambda form: form[0]):
        lm = form[0]
        if all((lm - other[0]) & guard for other in minimal):
            minimal.append(form)
    reduced = []
    for i, (lm, lc, tail) in enumerate(minimal):
        pending = dict(tail)
        pending[lm] = lc
        terms, _ = _divide(pending, minimal[:i] + minimal[i + 1 :], guard, q)
        if not q:
            lead = terms[0][1]
            terms = [(m, Fraction(c, lead)) for m, c in terms]
        reduced.append(_polynomial(ring, packing, terms))
    return tuple(reversed(reduced))


# -- ideals ----------------------------------------------------------------------


class Ideal:
    """A finite generator list plus a cache of reduced Groebner bases."""

    __slots__ = ("ring", "generators", "_basis_cache")

    def __init__(self, ring, generators=()):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be polynomials")
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if g:
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_basis_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def is_zero(self):
        return not self.generators

    @property
    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.generators)

    def groebner_basis(self, order=None):
        if order is None:
            order = self.ring.order
        cached = self._basis_cache.get(order)
        if cached is None:
            cached = buchberger(self.generators, order)
            self._basis_cache[order] = cached
        return cached

    def normal_form(self, f, order=None):
        """Remainder of f modulo the reduced basis; zero iff f is a member."""
        if order is None:
            order = self.ring.order
        return normal_form_against(f, self.groebner_basis(order), order)

    def contains(self, f):
        return not self.normal_form(f)

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.generators)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_unit(self):
        basis = self.groebner_basis()
        return len(basis) == 1 and not any(basis[0].leading_monomial())

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


# -- elimination machinery --------------------------------------------------------

def _eliminate_tag(ring, pairs):
    """Generators of K ∩ k[x], for K the ideal of k[t, x] generated by the
    a + t*b with (a, b) in `pairs`, polynomials of `ring`.

    The tag t is a new variable in front of the others under an
    elimination order; the elements of the reduced basis of K whose leading
    monomial is free of t are the reduced basis of K ∩ k[x], and come back
    with the tag dropped.  A reduced basis of a homogeneous ideal is
    homogeneous, so a homogeneous K ∩ k[x] gets homogeneous generators.
    """
    tag = "tag_"
    while tag in ring.names:
        tag += "_"
    ext = PolynomialRing(
        (tag, *ring.names), ring.field, MonomialOrder.elimination(ring.nvars + 1, 1)
    )
    gens = [
        ext.from_terms(
            [((0, *m), c) for m, c in a.terms] + [((1, *m), c) for m, c in b.terms]
        )
        for a, b in pairs
    ]
    return [
        ring.from_terms((m[1:], c) for m, c in g.terms)
        for g in buchberger(gens, ext.order)
        if not g.leading_monomial()[0]
    ]


def intersect(I, J):
    """Intersection of two ideals: I ∩ J = (t*I + (1 - t)*J) ∩ k[x]."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    zero = ring.zero()
    pairs = [(zero, g) for g in I.generators] + [(g, -g) for g in J.generators]
    return Ideal(ring, [_normalize(g) for g in _eliminate_tag(ring, pairs)])


def ideal_quotient(J, I):
    """The quotient (J : I) = {g : g * I is contained in J}."""
    if J.ring != I.ring:
        raise ValueError("ideals from different rings")
    ring = J.ring
    if I.is_zero():
        return Ideal(ring, (ring.one(),))
    if J.is_zero():
        return Ideal(ring, ())
    result = None
    for f in I.generators:
        meet = intersect(J, Ideal(ring, (f,)))
        part = Ideal(ring, [_normalize(divide_exact(g, f)) for g in meet.generators])
        result = part if result is None else intersect(result, part)
    return result


def saturate(I, J):
    """The saturation I : J^infinity = {g : g * J^k is contained in I for some k}.

    Computed as I : J^infinity = ∩_f (I : f^infinity) over the generators f
    of J, each factor by one elimination, I : f^infinity =
    (I + (1 - t*f)) ∩ k[x] (Rabinowitsch; Cox, Little and O'Shea, "Ideals,
    Varieties, and Algorithms", §4.4).  Every factor contains I, so once one
    of them lies in I the saturation is I itself, returned as it is.  The
    zero ideal J gives the unit ideal.
    """
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if J.is_zero():
        return Ideal(ring, (ring.one(),))
    zero, one = ring.zero(), ring.one()
    result = None
    for f in J.generators:
        pairs = [(g, zero) for g in I.generators] + [(one, -f)]
        part = Ideal(ring, [_normalize(g) for g in _eliminate_tag(ring, pairs)])
        if I.contains_ideal(part):
            return I
        result = part if result is None else intersect(result, part)
    return result


# -- Hilbert data -----------------------------------------------------------------


@dataclass(frozen=True)
class HilbertData:
    """Projective dimension, degree and Hilbert polynomial of Proj(R/I).

    ``dimension`` is -1 for the empty scheme, where the Hilbert polynomial
    is identically zero and ``degree`` is None.  ``hilbert_polynomial``
    holds exact rational coefficients, constant term first.
    """

    dimension: int
    degree: int | None
    hilbert_polynomial: tuple

    @property
    def is_empty(self):
        return self.dimension == -1


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_shift(a, k):
    return [0] * k + a if a else []


def _minimalize(gens):
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    minimal = []
    for g in ordered:
        if not any(all(m <= e for m, e in zip(keep, g)) for keep in minimal):
            minimal.append(g)
    return minimal


def _hilbert_numerator(gens, nvars):
    """Numerator of the Hilbert series of R/M over (1-t)^nvars for monomial M."""
    gens = _minimalize(gens)
    if not gens:
        return [1]
    if any(sum(g) == 0 for g in gens):
        return []
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        poly = [1]
        for g in gens:
            factor = [1] + [0] * (sum(g) - 1) + [-1]
            poly = _poly_mul(poly, factor)
        return poly
    counts = [0] * nvars
    for g in mixed:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    pivot = max(range(nvars), key=lambda i: counts[i])
    # split on x_pivot^k, k the least pivot exponent of a mixed generator:
    # the recursion depth then does not grow with the exponents
    k = min(g[pivot] for g in mixed if g[pivot])
    e_pivot = tuple(k if i == pivot else 0 for i in range(nvars))
    plus = gens + [e_pivot]
    quotient = [
        tuple(max(e - k, 0) if i == pivot else e for i, e in enumerate(g)) for g in gens
    ]
    return _poly_add(
        _hilbert_numerator(plus, nvars),
        _poly_shift(_hilbert_numerator(quotient, nvars), k),
    )


def _leading_numerator(I):
    """Hilbert-series numerator of R/I, read off the basis leading terms."""
    if I.is_zero():
        return [1]
    return _hilbert_numerator([g.leading_monomial() for g in I.groebner_basis()], I.ring.nvars)


def _strip_unit_root(numerator, nvars):
    """Divide out (1-t) factors; returns (quotient, D) with quotient(1) != 0."""
    divisions = 0
    poly = list(numerator)
    while poly and sum(poly) == 0:
        # synthetic division by (1 - t):  poly = (1 - t) * q
        q = [0] * (len(poly) - 1)
        carry = 0
        for i in range(len(poly) - 1):
            carry = poly[i] + carry
            q[i] = carry
        poly = q
        while poly and poly[-1] == 0:
            poly.pop()
        divisions += 1
    return poly, nvars - divisions


def _binomial_polynomial(shift, k):
    """Coefficients of binom(m + shift, k) as a polynomial in m."""
    coeffs = [Fraction(1)]
    for i in range(1, k + 1):
        root = Fraction(shift - i + 1)
        longer = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            longer[j] += c * root
            longer[j + 1] += c
        coeffs = longer
    if k:
        fact = 1
        for i in range(2, k + 1):
            fact *= i
        coeffs = [c / fact for c in coeffs]
    return coeffs


def _certified_empty(I):
    """Whether one prime proves V(I) empty over the algebraic closure of Q.

    I is a homogeneous ideal over Q.  Its generators' primitive integer
    forms are read mod p = EMPTINESS_PRIME and the Buchberger pair loop
    runs on them over F_p.  If the leading monomials hold a pure power of
    every variable, or a constant, the leading ideal mod p is primary to
    the irrelevant ideal.  That proves V(I) empty: the rank of a
    degree-D Macaulay matrix of integer forms can only drop mod p, so
    HF(R/I, D) <= HF(F_p[x]/(I mod p), D) for every D, and the right side
    is 0 for large D (Arnold, "Modular algorithms for computing Groebner
    bases", J. Symbolic Comput. 35 (2003); Pauer, "On lucky ideals for
    Groebner basis computations", J. Symbolic Comput. 14 (1992)).  False
    means only that this prime proves nothing.
    """
    started = time.perf_counter()
    p, n = EMPTINESS_PRIME, I.ring.nvars

    def run(packing):
        forms = []
        for lm, lc, tail in _forms(I.generators, packing, 0):
            terms = [(m, c % p) for m, c in [(lm, lc), *tail] if c % p]
            if terms:
                forms.append(_form(terms, p))
        missing = set(range(n))
        for lm, _, _ in _pair_loop(forms, packing, p):
            support = [j for j, e in enumerate(packing.unpack(lm)) if e]
            if len(support) <= 1:
                missing.difference_update(support or range(n))
        return not missing

    empty = _packed(run, I.ring.order, I.generators)
    logger.debug(
        "emptiness mod %d: %d generators, %d variables, %s in %.1f ms",
        p, len(I.generators), n, "certified empty" if empty else "fell back to Q",
        1000 * (time.perf_counter() - started),
    )
    return empty


def hilbert_data(I):
    """Dimension, degree and Hilbert polynomial of Proj of the quotient ring.

    Computed from the leading-term ideal of a Groebner basis; the caller
    passes the saturated ideal when scheme-level graded answers matter, but
    dimension and degree are insensitive to saturation.

    Over Q an ideal with at least nvars generators whose basis is not
    cached yet is first tested for emptiness at one fixed prime
    (`_certified_empty`, which states the theorem).  Fewer forms of
    positive degree always meet in P^(nvars - 1), by the projective
    dimension theorem, so the test is left out for them; so it is when
    no generator has an x0^deg term, since V(I) then holds [1:0:...:0]
    (the ideals of `supported_only_at_basepoint` do).  A proof mod p
    returns the empty data at once; otherwise, an unlucky prime included,
    the Groebner basis over Q decides, so the prime costs time and never
    changes an answer.
    """
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("hilbert_data needs a homogeneous ideal")
    if (
        ring.field == QQ
        and len(I.generators) >= ring.nvars
        and ring.order not in I._basis_cache
        and any(not any(m[1:]) for g in I.generators for m, _ in g.terms)
        and _certified_empty(I)
    ):
        return HilbertData(-1, None, ())
    numerator = _leading_numerator(I)
    if not numerator:
        return HilbertData(-1, None, ())
    quotient, D = _strip_unit_root(numerator, ring.nvars)
    if D < 0:
        raise RuntimeError("Hilbert series reduced below constant rank")
    if D == 0:
        return HilbertData(-1, None, ())
    degree = sum(quotient)
    coeffs = [Fraction(0)] * D
    for j, q in enumerate(quotient):
        if q:
            part = _binomial_polynomial(D - 1 - j, D - 1)
            for k, c in enumerate(part):
                coeffs[k] += q * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return HilbertData(D - 1, degree, tuple(coeffs))


def hilbert_function(I, d):
    """Exact dimension of the degree-d part of R/I for homogeneous I."""
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("hilbert_function needs a homogeneous ideal")
    if d < 0:
        return 0
    numerator = _leading_numerator(I)
    n = ring.nvars
    total = 0
    for j, c in enumerate(numerator):
        if c and d - j >= 0:
            total += c * _choose(d - j + n - 1, n - 1)
    return total


def _choose(a, b):
    if b < 0 or a < 0 or a < b:
        return 0
    out = 1
    for i in range(b):
        out = out * (a - i) // (i + 1)
    return out


def monomials_of_degree(nvars, d):
    """All exponent vectors of total degree d, lexicographically."""
    if nvars == 1:
        yield (d,)
        return
    for head in range(d, -1, -1):
        for tail in monomials_of_degree(nvars - 1, d - head):
            yield (head,) + tail


def graded_piece(I, d):
    """Vector-space basis of the degree-d component of a homogeneous ideal,
    in reduced row echelon form: leading monomials strictly decreasing,
    each with coefficient 1 and absent from every other element.

    With NF the normal form by the reduced basis in the ring's order, the
    elements m - NF(m), m a degree-d monomial of the leading ideal LT(I),
    lie in I and are a basis of I_d: the monomials outside LT(I) are a
    basis of R/I (Macaulay; Cox, Little and O'Shea, "Ideals, Varieties, and
    Algorithms", sec. 5.3, Prop. 4), so dim I_d is the number of such m.
    Each NF(m) holds only monomials outside LT(I), so no element meets the
    leading monomial of another: this is the echelon form.
    """
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("graded_piece needs a homogeneous ideal")
    if d <= 0:
        raise ValueError("degree must be positive")
    basis = I.groebner_basis()
    leads = [g.leading_monomial() for g in basis]
    pivots = sorted(
        (m for m in monomials_of_degree(ring.nvars, d)
         if any(all(map(le, lm, m)) for lm in leads)),
        key=ring.order.key,
        reverse=True,
    )
    piece = []
    for m in pivots:
        monomial = Polynomial(ring, ((m, ring.field.one),))
        piece.append(monomial - normal_form_against(monomial, basis))
    return piece
