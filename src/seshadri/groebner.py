"""Buchberger engine and derived ideal-theoretic queries.

The engine uses the normal-pair (Gebauer-Moeller) criteria with sugar
selection; inputs are desk scale, so no signature-based machinery.  On top
of reduced Groebner bases sit normal forms, ideal quotients via the
one-tag-variable intersection trick, saturation by iterated quotients,
Hilbert series data of homogeneous ideals, and graded pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def normal_form_against(f, basis, order=None):
    """Full remainder of f under multivariate division by `basis`.

    Every term of the result is divisible by no leading monomial of the
    basis; with a Groebner basis this is the canonical normal form.
    """
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
            if lm.divides(mono):
                p = p.sub_scaled(field.mul(coeff, field.invert(lc)), mono / lm, g)
                break
        else:
            remainder.append((mono, coeff))
            p = Polynomial(p.ring, p.terms[1:])
    result = Polynomial(f.ring, tuple(remainder))
    if order is not None and order != ring.order:
        result = ring.from_terms(result.terms)
    return result


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


def s_polynomial(f, g):
    field = f.ring.field
    lcm = f.leading_monomial().lcm(g.leading_monomial())
    lhs = f.mul_term(field.invert(f.leading_coefficient()), lcm / f.leading_monomial())
    return lhs.sub_scaled(field.invert(g.leading_coefficient()), lcm / g.leading_monomial(), g)


# -- Buchberger ------------------------------------------------------------------


def _normalize(p):
    return p.primitive() if p.ring.field == QQ else p.monic()


def _update_pairs(pairs, lms, t):
    """Gebauer-Moeller criteria when basis element with index t arrives."""
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
        key = lcms[i].exponents
        if key in seen:
            continue
        seen.add(key)
        if not lms[i].is_coprime(lmt):
            fresh.append((i, t))
    kept = []
    for i, j in pairs:
        lij = lms[i].lcm(lms[j])
        if lmt.divides(lij) and lcms[i] != lij and lcms[j] != lij:
            continue
        kept.append((i, j))
    kept.extend(fresh)
    return kept


def _pair_sugar(i, j, lms, sugars):
    lcm = lms[i].lcm(lms[j])
    return max(
        sugars[i] + lcm.degree - lms[i].degree,
        sugars[j] + lcm.degree - lms[j].degree,
    ), lcm


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
    if order != ring.order:
        work = ring.with_order(order)
        gens = [work.from_terms(g.terms) for g in gens]
    basis = []
    lms = []
    sugars = []
    pairs = []
    for g in sorted((_normalize(g) for g in gens), key=lambda p: order.key(p.leading_monomial())):
        basis.append(g)
        lms.append(g.leading_monomial())
        sugars.append(g.total_degree())
        pairs = _update_pairs(pairs, lms, len(basis) - 1)
    while pairs:
        ranked = [
            (sugar, order.key(lcm), k)
            for k, (sugar, lcm) in enumerate(_pair_sugar(i, j, lms, sugars) for i, j in pairs)
        ]
        sugar, _, best = min(ranked)
        i, j = pairs.pop(best)
        s = s_polynomial(basis[i], basis[j])
        r = normal_form_against(s, basis)
        if not r:
            continue
        r = _normalize(r)
        basis.append(r)
        lms.append(r.leading_monomial())
        sugars.append(max(sugar, r.total_degree()))
        pairs = _update_pairs(pairs, lms, len(basis) - 1)
    return _interreduce(basis, order)


def _interreduce(polys, order):
    """Turn a Groebner generating set into the reduced monic basis.

    Reducing an element of a minimal basis by the others keeps its leading
    monomial, so a single pass leaves every element reduced.
    """
    polys = sorted(
        (p.monic() for p in polys if p), key=lambda p: order.key(p.leading_monomial())
    )
    minimal = []
    for p in polys:
        lm = p.leading_monomial()
        if not any(q.leading_monomial().divides(lm) for q in minimal):
            minimal.append(p)
    reduced = [
        normal_form_against(p, minimal[:i] + minimal[i + 1 :]).monic()
        for i, p in enumerate(minimal)
    ]
    reduced.sort(key=lambda p: order.key(p.leading_monomial()), reverse=True)
    return tuple(reduced)


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
        basis = self.groebner_basis(order)
        result = normal_form_against(f, basis, order)
        if result.ring != f.ring:
            result = f.ring.from_terms(result.terms)
        return result

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
    e_pivot = tuple(1 if i == pivot else 0 for i in range(nvars))
    plus = gens + [e_pivot]
    quotient = [
        tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g)) for g in gens
    ]
    return _poly_add(
        _hilbert_numerator(plus, nvars),
        _poly_shift(_hilbert_numerator(quotient, nvars), 1),
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
