"""Buchberger engine and derived ideal-theoretic queries.

The engine uses the Gebauer-Moeller criteria, pairs taken least lcm degree
first from one sorted queue; inputs are desk scale, so no signature-based
machinery.  On top of reduced Groebner bases sit normal forms and one
elimination of a tag variable, which gives intersections, ideal quotients
and saturations (I : f^infinity by Rabinowitsch's 1 - t*f).  The leading
ideal of the reduced basis gives the rest: Hilbert series data of
homogeneous ideals, and graded pieces as monomials minus their normal
forms.

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
are monic, so each step is the field step and the scale stays 1, and a
coefficient is reduced mod q when its term is popped.  `buchberger` runs
entirely on these forms and packed monomials, S-pairs and pair criteria
included, and builds `Fraction`/`Polynomial` values only for the reduced
basis it returns.

Two questions about a homogeneous ideal I over Q are first asked at one
fixed prime, EMPTINESS_PRIME, in `certified_hilbert_data`: the Buchberger
pair loop runs on the generators' primitive integer forms read mod p, and
its leading monomials bound the Krull dimension of F_p[x]/I_p.  The
theorems they rest on:

- The one-sided bound.  For integer generators the rank of each degree-D
  Macaulay matrix can only drop mod p, so HF(R/I, D) <= HF(F_p[x]/I_p, D)
  for every D, and dim R/I <= dim F_p[x]/I_p (Arnold, "Modular algorithms
  for computing Groebner bases", J. Symbolic Comput. 35 (2003); Pauer, "On
  lucky ideals for Groebner basis computations", J. Symbolic Comput. 14
  (1992)).
- Krull's principal ideal theorem.  An ideal generated by r elements has
  height at most r, so r forms in n variables give dim R/I >= n - r.
- Regular sequences.  r forms of height r in a polynomial ring (a
  Cohen-Macaulay ring) are a regular sequence, and R/I then has the
  Hilbert series prod (1 - t^d_i) / (1 - t)^n.  Their ideal is unmixed
  (Macaulay's unmixedness theorem): every associated prime has height r,
  so for r < n the irrelevant ideal is not one, I is saturated, and
  Proj(R/I) has no embedded or lower-dimensional component.

The pair loop mod p keeps a watch on the leads found so far, which
generate a subideal L of LT(I_p): R/L has at least as many standard
monomials in each degree as F_p[x]/I_p, and at least its dimension.  With
s = min(r, n), F_p[x]/I_p has dimension at least n - s for r forms, so
one rule stops the loop for every r:

- (b) Once no s - 1 variables meet the support of every lead, R/L has
  dimension at most n - s, and so have F_p[x]/I_p and, by the bound, R/I.
  For r < n, I then has height r by Krull's theorem: the forms are a
  regular sequence over Q and R/I has the series above (or I = R, when a
  form is a nonzero constant, and the series is zero).  For r >= n a pure
  power of every variable, or a constant, is among the leads: LT(I_p),
  hence I_p and I, is primary to the irrelevant ideal, and V(I) is empty.

For r <= n forms the loop also knows the series it is asked to confirm,
T = prod (1 - t^d_i) / (1 - t)^n, and is driven by it (after Traverso,
"Hilbert functions and the Buchberger algorithm", J. Symbolic Comput. 22
(1996)).  Its input is homogeneous, so it takes its pairs in
nondecreasing degree D.

- (a) Once L leaves at most T(D) standard monomials in degree D, the
  remaining pairs of degree D are skipped.  When the forms are a regular
  sequence mod p, F_p[x]/I_p has the series T, so L then agrees with
  LT(I_p) in degree D and every skipped pair reduces to zero.
- (c) Once a degree D is done with more than T(D) standard monomials left,
  the loop stops: for a regular sequence every pair of degree <= D has
  been reduced or skipped as zero by then, so L would agree with LT(I_p)
  in degree D, and I_p is not one.

Whatever is skipped, the leads generate a subideal of LT(I_p), so a stop
by (b) is proved; and for a regular sequence no pair that decides is
skipped, so the series rules change no verdict.

Every Hilbert question goes through `hilbert_data`, and one function,
`certified_hilbert_data`, decides whether the prime is asked: for r > 0
forms over Q whose basis over Q is not cached (a cached basis answers at
once), and for r >= n only when some generator has an x0^deg term, since
otherwise V(I) holds [1:0:...:0].  A stop by (b) gives the closed form
above for r < n forms (`complete intersection` in the debug log) and the
empty scheme for r >= n (`emptiness`).  Every other outcome, an unlucky
prime included, falls back to the basis over Q, so the prime costs time
and never an answer.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, factorial, gcd, inf, lcm
from operator import le, mul, sub

from .polynomials import (
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    QQ,
)


logger = logging.getLogger(__name__)

# the prime of `certified_hilbert_data`; fixed, so that every run takes the
# same route
EMPTINESS_PRIME = 32003


class NonHomogeneousError(ValueError):
    pass


# -- packed monomials -----------------------------------------------------------


class _Overflow(Exception):
    """A new monomial has outgrown the fields of its packing."""


class _Packing:
    """Monomials of `order` packed into one int each: 2n + 1 fields of `bits`
    value bits under a guard bit, high to low the order key as non-negative
    partial sums (grevlex S_n ... S_1 of the exponents, elimination the
    exponent of x_0 and then the same sums of the other exponents), the n
    exponents and the degree.  Packing is linear, so a product is a sum and
    ints compare as their monomials; m | m' iff (m' - m) & guard == 0,
    because a field of m' below that of m borrows into its guard bit.  A new
    monomial with a guard bit set has outgrown the fields and raises
    `_Overflow`."""

    __slots__ = ("order", "units", "guard", "mask", "shifts")

    def __init__(self, order, bits):
        self.order = order
        n, width = order.nvars, bits + 1
        split = 1 if order.kind == "elimination" else n
        blocks = (range(split), range(split, n))
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
    a = 1 and b = c: the step is the field step and the scale stays 1.
    Pending coefficients are then integers congruent to the field elements,
    reduced mod q only when their term is popped; a multiple of q there is
    a cancelled term.  `pending` is consumed.
    """
    scale = 1
    heap = [-m for m in pending]
    heapify(heap)
    remainder = []  # (monomial, coefficient, scale when it left)
    while heap:
        m = -heappop(heap)
        c = pending.pop(m, 0)
        if q:
            c %= q
        if not c:  # cancelled after it was pushed, or 0 mod q
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
                pending[e] = -b * gc
                heappush(heap, -e)
            else:
                v -= b * gc
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
        c = field.coerce(coeff * field.invert(lc))
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


def _update_pairs(pairs, exps, lms, t, packing):
    """Gebauer-Moeller criteria when basis element with index t arrives.

    Monomials are packed, and `exps` holds the leading monomials unpacked.
    A pair of forms i < j is (degree, lcm, j, i), degree that of the lcm,
    and `pairs` is the queue, kept sorted last to first: the next pair,
    least lcm degree first, is `pairs[-1]`.  The new lcms that survive are
    those no other lcm properly divides: a divisor is a smaller int, and
    divisibility is transitive, so each distinct lcm, taken in increasing
    order, is tested against the survivors before it only.
    """
    guard, mask, pack = packing.guard, packing.mask, packing.pack
    lmt, et = lms[t], exps[t]
    lcms = [pack(map(max, e, et)) for e in exps[:t]]
    if any(top & guard for top in lcms):
        raise _Overflow
    minimal = []
    for top in sorted(set(lcms)):
        if all((top - low) & guard for low in minimal):
            minimal.append(top)
    unseen = set(minimal)
    kept = [
        pair
        for pair in pairs
        if (pair[1] - lmt) & guard or lcms[pair[3]] == pair[1] or lcms[pair[2]] == pair[1]
    ]
    for i, top in enumerate(lcms):
        if top in unseen:
            unseen.remove(top)
            if top != lms[i] + lmt:  # not coprime
                kept.append((top & mask, top, t, i))
    kept.sort(reverse=True)
    return kept


class _Target:
    """The watch of the module docstring on the leads so far, L, for r
    forms in n variables: `size` is min(r, n) - 1, and `numerator`, given
    for r <= n only, that of the series T = numerator / (1 - t)^n, as a
    dict {exponent of t: coefficient} (`_regular_numerator`).

    `transversals` holds, as bitmasks, sets of at most `size` variables
    that meet the support of every lead, among them every minimal such set
    (Berge's extension, one lead at a time); rule (b) holds once none is
    left.

    `standard` maps the monomials of degree `degree` outside L, packed, to
    their supports, and `limit` is T(degree).  A monomial m of the next
    degree is standard iff it is not a lead and every m/x_j, x_j | m, is
    standard, since a lead of lower degree that divides m divides some
    m/x_j: so iff m arises from as many standard monomials, times a
    variable, as it has variables.  They are counted from `start` on, the
    least degree d_i + d_j of a Koszul syzygy of two of the forms: below it
    a regular sequence has no syzygy, and the count would cost more than
    the few pairs it could skip.  Without a numerator `start` is infinite.
    """

    def __init__(self, size, numerator, packing, exps, lms):
        n = packing.order.nvars
        self.size, self.numerator, self.nvars, self.mask = size, numerator, n, packing.mask
        self.steps = [(1 << j, u) for j, u in enumerate(packing.units)]
        self.degree, self.start = 0, inf
        if numerator is not None:
            self.limit = _coefficient(numerator, n, 0)
            # a single lead has no pair, so its start is never reached
            self.start = sum(sorted(lm & self.mask for lm in lms)[:2])
        self.standard = {0: 0}  # 0 packs the monomial 1
        self.transversals = {0}
        for e, lm in zip(exps, lms):
            self.add(e, lm)

    def add(self, exps, lm):
        """A new lead, unpacked and packed.  Only one of degree `degree` is
        among the standard monomials; the others are left out as `advance`
        reaches their degree."""
        self.standard.pop(lm, None)
        support = sum(1 << k for k, e in enumerate(exps) if e)
        family = set()
        for S in self.transversals:
            if S & support:
                family.add(S)
            elif S.bit_count() < self.size:
                family.update(S | bit for bit, _ in self.steps if bit & support)
        self.transversals = family

    def advance(self, degree, lms):
        """Step the standard monomials up to `degree`; False as soon as a
        degree left behind has more than T of them.  Every monomial of
        `degree` fits the packing, since the lcm of a pair of that degree
        did."""
        while self.degree < degree:
            if len(self.standard) > self.limit:
                return False
            self.degree += 1
            self.limit = _coefficient(self.numerator, self.nvars, self.degree)
            parents, supports = {}, {}
            for s, support in self.standard.items():
                for bit, u in self.steps:
                    m = s + u
                    parents[m] = parents.get(m, 0) + 1
                    supports[m] = support | bit
            leads = {lm for lm in lms if lm & self.mask == self.degree}
            self.standard = {
                m: support
                for m, support in supports.items()
                if parents[m] == support.bit_count() and m not in leads
            }
        return True


def _pair_loop(forms, packing, q, size=None, numerator=None):
    """Extend the forms of a generating set to those of a Groebner
    generating set, in place; returns them, the counts (S-pairs reduced,
    reduced to zero, skipped) and whether rule (b) stopped the loop.

    Pairs pass the Gebauer-Moeller criteria and are taken least lcm degree
    first from one sorted queue (`_update_pairs`), ties by lcm and then in
    the order they were made; each S-pair is divided by the forms so far
    and a nonzero remainder joins them as a new form.

    With `size`, min(r, n) - 1 for r homogeneous forms in n variables, the
    loop keeps the watch of the module docstring (`_Target`) and stops by
    rule (b).  With `numerator` too, that of the series of a regular
    sequence of the forms' degrees, given for r <= n, it applies rules (a)
    and (c), which need the pairs in nondecreasing degree, as the queue
    gives them.
    """
    guard = packing.guard
    forms.sort(key=lambda form: form[0])
    exps, lms, pairs = [], [], []
    for t, form in enumerate(forms):
        exps.append(packing.unpack(form[0]))
        lms.append(form[0])
        pairs = _update_pairs(pairs, exps, lms, t, packing)
    watch = None if size is None else _Target(size, numerator, packing, exps, lms)
    reduced = zero = skipped = 0
    while pairs and not (watch and not watch.transversals):  # (b)
        degree, top, j, i = pairs[-1]
        if watch and degree >= watch.start:
            if not watch.advance(degree, lms):  # (c)
                break
            if len(watch.standard) <= watch.limit:  # (a): drop the run of degree D
                while pairs and pairs[-1][0] == degree:
                    pairs.pop()
                    skipped += 1
                continue
        pairs.pop()
        remainder, _ = _divide(_s_pair(forms[i], forms[j], top, guard, q), forms, guard, q)
        reduced += 1
        if not remainder:
            zero += 1
            continue
        form = _form(remainder, q)
        forms.append(form)
        exps.append(packing.unpack(form[0]))
        lms.append(form[0])
        pairs = _update_pairs(pairs, exps, lms, len(forms) - 1, packing)
        if watch:
            watch.add(exps[-1], form[0])
    stopped = watch is not None and not watch.transversals
    return forms, (reduced, zero, skipped + len(pairs)), stopped


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
        forms, _, _ = _pair_loop(_forms(gens, packing, q), packing, q)
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
        (tag, *ring.names), ring.field, MonomialOrder.elimination(ring.nvars + 1)
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


def _times(a, b, plus=None):
    """plus + a*b for polynomials in t held sparse, as dicts {exponent of t:
    coefficient} without zero coefficients; plus defaults to zero."""
    out = dict(plus or {})
    for i, c in a.items():
        for j, d in b.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _minimalize(gens):
    ordered = sorted(set(gens), key=lambda g: (sum(g), g))
    minimal = []
    for g in ordered:
        if not any(all(m <= e for m, e in zip(keep, g)) for keep in minimal):
            minimal.append(g)
    return minimal


def _hilbert_numerator(gens, nvars):
    """Numerator of the Hilbert series of R/M over (1-t)^nvars for monomial M,
    as a dict {exponent of t: coefficient}."""
    gens = _minimalize(gens)
    if not gens:
        return {0: 1}
    if any(sum(g) == 0 for g in gens):
        return {}
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if not mixed:
        numerator = {0: 1}
        for g in gens:
            numerator = _times(numerator, {sum(g): -1}, numerator)
        return numerator
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
    return _times({k: 1}, _hilbert_numerator(quotient, nvars), _hilbert_numerator(plus, nvars))


def _leading_numerator(I):
    """Hilbert-series numerator of R/I, read off the basis leading terms."""
    if I.is_zero():
        return {0: 1}
    return _hilbert_numerator([g.leading_monomial() for g in I.groebner_basis()], I.ring.nvars)


@lru_cache(maxsize=None)
def _binomial_polynomial(shift, k):
    """Coefficients of binom(m + shift, k) as a polynomial in m, as a tuple:
    cached, since every Hilbert question asks for the same few."""
    coeffs = [Fraction(1)]
    for i in range(1, k + 1):
        root = Fraction(shift - i + 1)
        longer = [Fraction(0)] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            longer[j] += c * root
            longer[j + 1] += c
        coeffs = longer
    return tuple(c / factorial(k) for c in coeffs)


def _regular_numerator(generators):
    """prod (1 - t^d_i) over the generators' degrees d_i: the numerator of
    the Hilbert series of R/I over (1 - t)^n when they are a regular
    sequence.  A constant generator, d_i = 0, makes it zero, as R/I is."""
    numerator = {0: 1}
    for g in generators:
        numerator = _times(numerator, {g.total_degree(): -1}, numerator)
    return numerator


def _coefficient(numerator, nvars, d):
    """The coefficient of t^d, d >= 0, in numerator(t) / (1 - t)^nvars, the
    numerator a dict {exponent of t: coefficient}."""
    if not nvars:  # R is the field: the series is the numerator itself
        return numerator.get(d, 0)
    return sum(c * comb(d - j + nvars - 1, nvars - 1) for j, c in numerator.items() if j <= d)


def _at_one(numerator, nvars):
    """The coefficients b_m of numerator(1 - s) = sum_m b_m s^m, from the
    first nonzero one up to m = nvars: b_m = (-1)^m sum_j c_j binom(j, m)
    for numerator(t) = sum_j c_j t^j, a nonzero dict {j: c_j}.

    With b_m the first nonzero one, numerator / (1 - t)^nvars is
    Q(t) / (1 - t)^D with D = nvars - m and Q(t) = sum_k b_(m+k) (1 - t)^k,
    so the list returned has D + 1 entries and begins with Q(1) != 0.
    Raises RuntimeError when b_0, ..., b_nvars all vanish.
    """
    b = [(-1) ** m * sum(c * comb(j, m) for j, c in numerator.items()) for m in range(nvars + 1)]
    for m, b_m in enumerate(b):
        if b_m:
            return b[m:]
    raise RuntimeError("Hilbert series reduced below constant rank")


def _hilbert_from_numerator(numerator, nvars):
    """Hilbert data of R/M from the numerator of its Hilbert series over
    (1 - t)^nvars, a dict {exponent of t: coefficient}.

    The series is Q(t) / (1 - t)^D with Q(t) = sum_k a_k (1 - t)^k, the
    a_k read off at t = 1 in one pass (`_at_one`): the terms k >= D add a
    polynomial in t to the series, and each k < D adds a_k binom(m + e, e),
    e = D - 1 - k, to the Hilbert polynomial, one cached binomial per
    dimension.  Its top coefficient is a_0 / (D - 1)!, never zero.  D = 0
    and the zero numerator give the empty scheme.
    """
    if not numerator:
        return HilbertData(-1, None, ())
    a = _at_one(numerator, nvars)
    D = len(a) - 1
    if D == 0:
        return HilbertData(-1, None, ())
    coeffs = [Fraction(0)] * D
    for k, a_k in enumerate(a[:D]):
        for i, c in enumerate(_binomial_polynomial(D - 1 - k, D - 1 - k)):
            coeffs[i] += a_k * c
    return HilbertData(D - 1, a[0], tuple(coeffs))


def regular_sequence_data(I):
    """The Hilbert data of R/I when the generators of I are a regular
    sequence: the closed form prod (1 - t^d_i) / (1 - t)^n of their
    degrees.  The caller vouches for regularity."""
    return _hilbert_from_numerator(_regular_numerator(I.generators), I.ring.nvars)


def certified_hilbert_data(I):
    """The Hilbert data of R/I that one prime proves, else None.

    I is a homogeneous ideal of r forms in n variables.  The gate and the
    rule are those of the module docstring: the pair loop runs on the
    generators' primitive integer forms read mod p, and a stop by rule (b)
    proves the closed form for r < n and the empty scheme for r >= n.  None
    means only that this prime proves nothing.  Each attempt logs one debug
    line.
    """
    ring = I.ring
    n, r = ring.nvars, len(I.generators)
    if (
        ring.field != QQ
        or not r
        or ring.order in I._basis_cache
        or (r >= n and not any(not any(m[1:]) for g in I.generators for m, _ in g.terms))
    ):
        return None
    started = time.perf_counter()
    p = EMPTINESS_PRIME
    numerator = _regular_numerator(I.generators) if r <= n else None

    def run(packing):
        # a primitive form has a coefficient prime to p
        forms = [
            _form([(m, c % p) for m, c in [(lm, lc), *tail] if c % p], p)
            for lm, lc, tail in _forms(I.generators, packing, 0)
        ]
        return _pair_loop(forms, packing, p, min(r, n) - 1, numerator)[1:]

    (reduced, zero, skipped), certified = _packed(run, ring.order, I.generators)
    if r < n:
        test, verdict = "complete intersection", "certified"
    else:
        test, verdict = "emptiness", "certified empty"
    logger.debug(
        "%s mod %d: %d generators, %d variables, %s in %.1f ms, "
        "%d S-pairs reduced (%d to zero), %d skipped",
        test, p, r, n, verdict if certified else "fell back to Q",
        1000 * (time.perf_counter() - started), reduced, zero, skipped,
    )
    if not certified:
        return None
    if r >= n:
        return HilbertData(-1, None, ())
    return regular_sequence_data(I)


def hilbert_data(I):
    """Dimension, degree and Hilbert polynomial of Proj of the quotient ring.

    Computed from the leading-term ideal of a Groebner basis; the caller
    passes the saturated ideal when scheme-level graded answers matter, but
    dimension and degree are insensitive to saturation.  The data one prime
    proves (`certified_hilbert_data`) comes first; where it proves nothing,
    an unlucky prime included, the basis over Q decides, so the prime costs
    time and never changes an answer.
    """
    if not I.is_homogeneous:
        raise NonHomogeneousError("hilbert_data needs a homogeneous ideal")
    certified = certified_hilbert_data(I)
    if certified is not None:
        return certified
    return _hilbert_from_numerator(_leading_numerator(I), I.ring.nvars)


def hilbert_function(I, d):
    """Exact dimension of the degree-d part of R/I for homogeneous I."""
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("hilbert_function needs a homogeneous ideal")
    if d < 0:
        return 0
    return _coefficient(_leading_numerator(I), ring.nvars, d)


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
