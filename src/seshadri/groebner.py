"""Buchberger engine and derived ideal-theoretic queries.

The engine uses the normal-pair (Gebauer-Moeller) criteria with sugar
selection; inputs are desk scale, so no signature-based machinery.  On top
of reduced Groebner bases sit normal forms, ideal quotients via the
one-tag-variable intersection trick, saturation by iterated quotients,
Hilbert series data of homogeneous ideals, and graded pieces.

Division runs on exponent tuples rather than `Polynomial` values, after
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors" (2007): the pending terms live in a dict keyed by
exponents plus a max-heap of flat order keys with lazy deletion, so a step
touches only the terms of the reducer.  One fraction-free kernel serves both
fields.  Over Q it divides by the primitive integer forms of the divisors
and keeps the accumulated scale, so that each remainder coefficient is the
exact rational; over F_q the forms are monic and every coefficient is
reduced mod q, so each step is the field step and the scale stays 1.
`buchberger` runs entirely on these forms: each S-pair is formed from two
forms straight into the pending terms of the division, each new basis
element is made primitive (or monic) once on its integer remainder, and
`Fraction`/`Polynomial` values are built only for the reduced basis it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, neg, sub

from . import linalg
from .polynomials import (
    Monomial,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    QQ,
)


class NonHomogeneousError(ValueError):
    pass


# -- division ------------------------------------------------------------------


def _cleared(terms, q):
    """(exponents, integer coefficient) pairs of the terms of a polynomial and
    the denominator cleared from them: over Q (q = 0) the least common
    denominator, over F_q the field elements as they are and 1."""
    if q:
        return [(m.exponents, c) for m, c in terms], 1
    den = lcm(*(c.denominator for _, c in terms))
    return [(m.exponents, c.numerator * (den // c.denominator)) for m, c in terms], den


def _forms(polys, order, q):
    """The `_form` under `order` of each nonzero polynomial, in the form the
    division kernel reduces with; q is the characteristic, 0 over Q."""
    key = order.exponent_key
    forms = []
    for g in polys:
        if not g:
            continue
        terms, _ = _cleared(g.terms, q)
        if g.ring.order != order:
            terms.sort(key=lambda t: key(t[0]), reverse=True)
        forms.append(_form(terms, q))
    return forms


def _form(terms, q):
    """The form (lm, lc, tail) of nonzero integer terms, largest first.

    Over Q (q = 0) it is the primitive integer multiple with positive lc;
    over F_q the monic multiple, lc = 1.  The tail is a list of
    (exponents, coefficient) pairs.
    """
    (lm, lc), tail = terms[0], terms[1:]
    if q:
        inverse = pow(lc, -1, q)
        return lm, 1, [(e, c * inverse % q) for e, c in tail]
    content = gcd(*(c for _, c in terms))
    if lc < 0:
        content = -content
    return lm, lc // content, [(e, c // content) for e, c in tail]


def _divide(pending, forms, exponent_key, q):
    """Fraction-free division of the integer terms `pending` by the forms.

    Returns (remainder, scale): remainder terms, largest first, with integer
    coefficients whose quotients by scale are the exact remainder of the
    division of `pending`.  Each step is P <- a*P - b*x^u*g with
    a = lc / gcd(lc, c), b = c / gcd(lc, c), the field step
    p - (c/lc)*x^u*g scaled by a.  Over F_q (q > 0) the forms are monic, so
    a = 1 and b = c: the step is the field step, each updated coefficient
    is reduced mod q and the scale stays 1.  `pending` is consumed.
    """
    scale = 1
    heap = [(tuple(map(neg, exponent_key(e))), e) for e in pending]
    heapify(heap)
    remainder = []  # (exponents, coefficient, scale when it left)
    while heap:
        m = heappop(heap)[1]
        c = pending.pop(m, None)
        if c is None:  # cancelled after it was pushed
            continue
        for lm, lc, tail in forms:
            if all(map(le, lm, m)):
                break
        else:
            remainder.append((m, c, scale))
            continue
        u = tuple(map(sub, m, lm))
        common = gcd(lc, c)
        a, b = lc // common, c // common
        if a != 1:
            scale *= a
            pending = {e: v * a for e, v in pending.items()}
        for e, gc in tail:
            e = tuple(map(add, e, u))
            v = pending.get(e)
            if v is None:
                pending[e] = -b * gc % q if q else -b * gc
                heappush(heap, (tuple(map(neg, exponent_key(e))), e))
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
    terms, den = _cleared(f.terms, q)
    remainder, scale = _divide(dict(terms), _forms(basis, order, q), order.exponent_key, q)
    if not q:
        remainder = [(e, Fraction(c, den * scale)) for e, c in remainder]
    if order != ring.order:
        return ring.from_terms(remainder)
    return Polynomial(ring, tuple((Monomial(e), c) for e, c in remainder))


def divide_exact(f, g):
    """Quotient f / g when the division is exact; raises otherwise."""
    ring = f.ring
    field = ring.field
    lm, lc = g.leading_monomial(), g.leading_coefficient()
    quotient_terms = []
    p = f
    while p.terms:
        mono, coeff = p.terms[0]
        if not lm.divides(mono):
            raise ValueError("division is not exact")
        c = field.mul(coeff, field.invert(lc))
        q = mono / lm
        quotient_terms.append((q, c))
        p = p.sub_scaled(c, q, g)
    return ring.from_terms(quotient_terms)


def _s_pair(f, g, top, q):
    """The S-pair of two forms as pending terms; `top` is the exponent tuple
    of the lcm of their leading monomials.

    The terms are those of (lc_g/c)*x^u*tail_f - (lc_f/c)*x^v*tail_g with
    c = gcd(lc_f, lc_g), which is lcm(lc_f, lc_g) times the field
    S-polynomial.  Over F_q (q > 0) the forms are monic, so the terms,
    reduced mod q, are x^u*tail_f - x^v*tail_g, the field S-polynomial
    itself.
    """
    lm_f, lc_f, tail_f = f
    lm_g, lc_g, tail_g = g
    u = tuple(map(sub, top, lm_f))
    v = tuple(map(sub, top, lm_g))
    common = gcd(lc_f, lc_g)
    a, b = lc_g // common, lc_f // common
    pending = {tuple(map(add, e, u)): a * c for e, c in tail_f}
    for e, c in tail_g:
        e = tuple(map(add, e, v))
        w = pending.get(e, 0) - b * c
        if q:
            w %= q
        if w:
            pending[e] = w
        else:
            del pending[e]
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
    form_f, form_g = _forms((f, g), ring.order, q)
    pending = _s_pair(form_f, form_g, tuple(map(max, form_f[0], form_g[0])), q)
    if not q:
        common = lcm(form_f[1], form_g[1])
        pending = {e: Fraction(c, common) for e, c in pending.items()}
    key = ring.order.exponent_key
    terms = sorted(pending.items(), key=lambda t: key(t[0]), reverse=True)
    return Polynomial(ring, tuple((Monomial(e), c) for e, c in terms))


# -- Buchberger ------------------------------------------------------------------


def _normalize(p):
    return p.primitive() if p.ring.field == QQ else p.monic()


def _update_pairs(pairs, lms, sugars, t, order):
    """Gebauer-Moeller criteria when basis element with index t arrives.

    A pair is (i, j, lcm, rank) with rank = (sugar, key(lcm)), fixed when
    the pair is created.
    """
    lmt = lms[t]
    lcms = [lms[i].lcm(lmt) for i in range(t)]
    survivors = []
    for i in range(t):
        li = lcms[i]
        dominated = False
        for j in range(t):
            if j != i and lcms[j] != li and lcms[j].divides(li):
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    seen = set()
    fresh = []
    for i in survivors:
        lcm = lcms[i]
        if lcm.exponents in seen:
            continue
        seen.add(lcm.exponents)
        if not lms[i].is_coprime(lmt):
            sugar = max(
                sugars[i] + lcm.degree - lms[i].degree, sugars[t] + lcm.degree - lmt.degree
            )
            fresh.append((i, t, lcm, (sugar, order.key(lcm))))
    kept = [
        pair
        for pair in pairs
        if not (lmt.divides(pair[2]) and lcms[pair[0]] != pair[2] and lcms[pair[1]] != pair[2])
    ]
    kept.extend(fresh)
    return kept


def _degree(form):
    lm, _, tail = form
    return max(sum(lm), max((sum(e) for e, _ in tail), default=0))


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
    key = order.exponent_key
    q = ring.field.characteristic
    forms = _forms(gens, order, q)
    forms.sort(key=lambda form: key(form[0]))
    lms = []
    sugars = []
    pairs = []
    for t, form in enumerate(forms):
        lms.append(Monomial(form[0]))
        sugars.append(_degree(form))
        pairs = _update_pairs(pairs, lms, sugars, t, order)
    while pairs:
        # the first pair of least rank, as a stable sort would give
        best = min(range(len(pairs)), key=lambda k: pairs[k][3])
        i, j, top, (sugar, _) = pairs.pop(best)
        pending = _s_pair(forms[i], forms[j], top.exponents, q)
        remainder, _ = _divide(pending, forms, key, q)
        if remainder:
            form = _form(remainder, q)
            forms.append(form)
            lms.append(Monomial(form[0]))
            sugars.append(max(sugar, _degree(form)))
            pairs = _update_pairs(pairs, lms, sugars, len(forms) - 1, order)
    work = ring if order == ring.order else ring.with_order(order)
    return _interreduce(forms, work, q)


def _interreduce(forms, ring, q):
    """Turn the forms of a Groebner generating set into the reduced monic basis.

    Reducing an element of a minimal basis by the others keeps its leading
    monomial, so a single pass leaves every element reduced, and the
    result, largest leading monomial first, is the minimal basis reversed.
    Over Q each output coefficient is made a `Fraction` once, by dividing
    by the lead.
    """
    key = ring.order.exponent_key
    minimal = []
    for form in sorted(forms, key=lambda form: key(form[0])):
        lm = form[0]
        if not any(all(map(le, other[0], lm)) for other in minimal):
            minimal.append(form)
    reduced = []
    for i, (lm, lc, tail) in enumerate(minimal):
        pending = dict(tail)
        pending[lm] = lc
        terms, _ = _divide(pending, minimal[:i] + minimal[i + 1 :], key, q)
        if not q:
            lead = terms[0][1]
            terms = [(e, Fraction(c, lead)) for e, c in terms]
        reduced.append(Polynomial(ring, tuple((Monomial(e), c) for e, c in terms)))
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
        return len(basis) == 1 and basis[0].leading_monomial().degree == 0

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"


# -- elimination machinery --------------------------------------------------------

_TAG = "tag_"


def _tagged_ring(ring):
    name = _TAG
    while name in ring.names:
        name += "_"
    names = (name,) + ring.names
    return PolynomialRing(names, ring.field, MonomialOrder.elimination(ring.nvars + 1, 1))


def _lift(f, ext):
    return ext.from_terms(((0,) + m.exponents, c) for m, c in f.terms)


def _drop_tag(f, ring):
    return ring.from_terms((m.exponents[1:], c) for m, c in f.terms)


def _split_components(gens, homogeneous):
    if not homogeneous:
        return list(gens)
    out = []
    for g in gens:
        out.extend(g.homogeneous_components().values())
    return out


def intersect(I, J):
    """Intersection of two ideals via the tag-variable trick."""
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    ext = _tagged_ring(ring)
    u = ext.variable(0)
    one_minus_u = ext.one() - u
    gens = [u * _lift(g, ext) for g in I.generators]
    gens += [one_minus_u * _lift(g, ext) for g in J.generators]
    basis = buchberger(gens, ext.order)
    kept = [g for g in basis if all(m.exponents[0] == 0 for m, _ in g.terms)]
    result = [_drop_tag(g, ring) for g in kept]
    result = _split_components(result, I.is_homogeneous and J.is_homogeneous)
    return Ideal(ring, [_normalize(g) for g in result if g])


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


def saturate(I, J, max_rounds=64):
    """I : J^infinity by iterating the quotient until it stabilizes.

    Stabilization is detected by generator-wise membership of the next
    quotient in the current one (the chain only ascends).
    """
    current = I
    for _ in range(max_rounds):
        nxt = ideal_quotient(current, J)
        if current.contains_ideal(nxt):
            return current
        current = nxt
    raise RuntimeError("saturation did not stabilize")


def saturate_variable(I, var):
    """Fast path for I : x_var^infinity on a homogeneous ideal.

    A reduced grevlex basis with x_var as the smallest variable stays a
    basis of the saturation after stripping x_var powers from each element.
    """
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("variable saturation needs a homogeneous ideal")
    if I.is_zero():
        return I
    perm = tuple(i for i in range(ring.nvars) if i != var) + (var,)
    order = MonomialOrder.grevlex(ring.nvars, permutation=perm)
    basis = I.groebner_basis(order)
    stripped = []
    for g in basis:
        drop = min(m.exponents[var] for m, _ in g.terms)
        if drop:
            g = Polynomial(
                g.ring,
                tuple(
                    (Monomial(tuple(e - drop if k == var else e for k, e in enumerate(m.exponents))), c)
                    for m, c in g.terms
                ),
            )
        stripped.append(ring.from_terms(g.terms))
    return Ideal(ring, [_normalize(g) for g in stripped])


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

    def polynomial_value(self, m):
        total = Fraction(0)
        power = Fraction(1)
        for c in self.hilbert_polynomial:
            total += c * power
            power *= m
        return total


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
    return _hilbert_numerator(
        [g.leading_monomial().exponents for g in I.groebner_basis()], I.ring.nvars
    )


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


def hilbert_data(I):
    """Dimension, degree and Hilbert polynomial of Proj of the quotient ring.

    Computed from the leading-term ideal of a Groebner basis; the caller
    passes the saturated ideal when scheme-level graded answers matter, but
    dimension and degree are insensitive to saturation.
    """
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("hilbert_data needs a homogeneous ideal")
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
    """Vector-space basis of the degree-d component of a saturated ideal.

    Degree-d multiples of the generators are reduced to reduced row echelon
    form over the coefficient field; the echelon rows come back as
    polynomials, leading monomials strictly decreasing.
    """
    ring = I.ring
    if not I.is_homogeneous:
        raise NonHomogeneousError("graded_piece needs a homogeneous ideal")
    if d <= 0:
        raise ValueError("degree must be positive")
    columns = sorted(
        (Monomial(e) for e in monomials_of_degree(ring.nvars, d)),
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
            shifted = g.mul_term(ring.field.one, Monomial(exps))
            row = [ring.field.zero] * len(columns)
            for m, c in shifted.terms:
                row[index[m]] = c
            rows.append(row)
    if not rows:
        return []
    echelon, _ = linalg.rref(rows, ring.field)
    basis = []
    for row in echelon:
        terms = [(columns[i], c) for i, c in enumerate(row) if not ring.field.is_zero(c)]
        basis.append(Polynomial(ring, tuple(terms)))
    return basis
