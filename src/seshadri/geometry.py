"""Pointed-variety constructions: normalization of the base point, slice
decompositions (tuples of slices, lifted back by `lift_slices`), the scheme
of lines through the point, the local cut-out degree d_p, and the local
invariants mult_p and ord_p.

A pointed variety carries a saturated homogeneous ideal together with an
invertible coordinate change sending the base point to [1:0:...:0].  Every
Hilbert question goes through `groebner.hilbert_data`, which asks one prime
before a basis over Q (see `groebner.certified_hilbert_data`).

The local answers come from reduced Groebner bases for the order comparing
x_0 degrees first, which are local standard bases at the point: their
leading monomials generate the local leading ideal, whose Hilbert-series
numerator gives the local dimension and mult_p, with no tangent-cone basis;
reduction by the basis is a local normal form (ord_p); and equal local
leading ideals show that a subideal cuts out the same scheme near the
point (d_p, and ord_p = INFINITE).  Whether a zero-dimensional scheme is
supported at the point alone is read off two Hilbert-series numerators as
well: its degree against its length there.  Every answer is exact; no
truncation level, cap or degree bound is involved.

When the prime proves the r < n normalized generators a regular sequence,
the dimension and degree of X are in closed form, and so are those of the
line scheme when its slices are.  `multiplicity_at` asks the same of the
lowest forms at the point, `lowest_forms_multiplicity`: when they are a
regular sequence in k[x_1..x_N], the associated graded ring of the local
ring of P^N at p, they generate the tangent cone (Valabrega and Valla,
"Form rings and regular sequences", Nagoya Math. J. 72 (1978), 93-101), a
complete intersection of degrees ord_p(g_i), so mult_p = prod ord_p(g_i).

Dimension counts decide before any basis where they can: `cut_out_degree`
skips every degree whose generators are too few to cut out X near the
point, by Krull's principal ideal theorem, so a complete intersection has
d_p equal to its top cutting degree without a local basis; and a degree
whose generators have local dimension above dim X skips X's local basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le

from . import linalg
from .groebner import (
    HilbertData,
    Ideal,
    _at_one,
    _hilbert_numerator,
    certified_hilbert_data,
    hilbert_data,
)
from .polynomials import (
    MonomialOrder,
    PolynomialRing,
    substitute_linear,
)

INFINITE = math.inf


class PointError(ValueError):
    """The base point is invalid for the requested construction."""


def slice_ring(ring):
    """The ring in x_1..x_N: directions of lines through the base point."""
    return PolynomialRing(ring.names[1:], ring.field)


def lift_slices(slices, ring, upto):
    """The sum of x_0^(upto-i) * slices[i-1] over i = 1..upto, in `ring`: on the
    slices of a form f of degree d, f itself for upto = d and the truncation
    x_0^(upto-1) f^1 + ... + f^upto below."""
    pieces = enumerate(slices[:upto], start=1)
    return ring.from_terms(((upto - i, *m), c) for i, s in pieces for m, c in s.terms)


def base_point(ring):
    """The point [1:0:...:0] that pointed varieties are normalized to."""
    return (ring.field.one,) + (ring.field.zero,) * (ring.nvars - 1)


def slice_decomposition(f):
    """The slices of a homogeneous f vanishing at [1:0:...:0]: the tuple
    whose entry i-1 is the form f^i of degree i in the slice ring, so that
    f = sum of x_0^(d-i) * f^i."""
    if f.is_zero():
        raise ValueError("zero polynomial has no slice decomposition")
    if not f.is_homogeneous():
        raise ValueError("slice decomposition needs a homogeneous polynomial")
    ring = f.ring
    d = f.total_degree()
    target = slice_ring(ring)
    # keyed by slice degree: the cost goes with the terms, and every empty
    # degree shares one zero
    buckets = {}
    for mono, coeff in f.terms:
        rest = mono[1:]
        rest_degree = sum(rest)
        if rest_degree == 0:
            raise ValueError("polynomial does not vanish at the base point")
        buckets.setdefault(rest_degree, []).append((rest, coeff))
    zero = target.zero()
    slices = [zero] * d
    for i, terms in buckets.items():
        slices[i - 1] = target.from_terms(terms)
    return tuple(slices)


@dataclass(frozen=True)
class LineScheme:
    """Scheme of lines through the base point, inside P^(N-1) of directions."""

    ideal: Ideal
    hilbert: HilbertData

    @property
    def dimension(self):
        return self.hilbert.dimension

    @property
    def is_empty(self):
        return self.hilbert.is_empty


class PointedVariety:
    """A projective scheme with a chosen point, normalized to [1:0:...:0]."""

    __slots__ = (
        "ring",
        "ideal",
        "point",
        "basis_matrix",
        "normalized_ideal",
        "_hilbert",
        "_line_scheme",
        "_d_p",
    )

    def __init__(self, ring, ideal, point, basis_matrix, normalized_ideal):
        self.ring = ring
        self.ideal = ideal
        self.point = tuple(point)
        self.basis_matrix = basis_matrix
        self.normalized_ideal = normalized_ideal
        self._hilbert = None
        self._line_scheme = None
        self._d_p = None

    @property
    def ambient_dimension(self):
        return self.ring.nvars - 1

    @property
    def hilbert(self):
        if self._hilbert is None:
            self._hilbert = hilbert_data(self.normalized_ideal)
        return self._hilbert

    @property
    def dimension(self):
        return self.hilbert.dimension

    @property
    def degree(self):
        return self.hilbert.degree

    @property
    def d_p(self):
        """The local cut-out degree, computed once per variety."""
        if self._d_p is None:
            self._d_p = cut_out_degree(self)
        return self._d_p

    def normalized_point(self):
        return base_point(self.ring)

    def to_normalized(self, f):
        """f in the coordinates that move the point to [1:0:...:0]; f itself
        when the point is there already, as `normalize_point` leaves the
        ideal then."""
        if _is_base_point(self.point):
            return f
        return substitute_linear(f, self.basis_matrix)

    def __repr__(self):
        return f"PointedVariety(point={self.point}, ideal={self.ideal})"


def _is_base_point(point):
    """Whether a nonzero point is [1:0:...:0] up to scaling."""
    return bool(point[0]) and not any(point[1:])


def normalize_point(ideal, point):
    """Attach a base point, moving it to [1:0:...:0] by a coordinate change.

    The change of basis pivots on the first nonzero coordinate of the point
    and appends the complementary standard basis vectors.
    """
    ring = ideal.ring
    field = ring.field
    point = tuple(field.coerce(x) for x in point)
    if len(point) != ring.nvars:
        raise PointError("point length does not match the ambient dimension")
    if not any(point):
        raise PointError("the zero vector is not a projective point")
    for g in ideal.generators:
        if g.evaluate(point):
            raise PointError("point does not lie on the variety")
    n = ring.nvars
    if _is_base_point(point):
        return PointedVariety(ring, ideal, point, linalg.identity(n, field), ideal)
    pivot = next(i for i in range(n) if point[i])
    basis = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        basis[i][0] = point[i]
    col = 1
    for j in range(n):
        if j == pivot:
            continue
        basis[j][col] = field.one
        col += 1
    normalized = Ideal(
        ring, [substitute_linear(g, basis).primitive() for g in ideal.generators]
    )
    return PointedVariety(ring, ideal, point, basis, normalized)


def line_scheme(X):
    """The scheme of lines on X through the base point, defined by all slices
    of the normalized generators; computed once per variety."""
    if X._line_scheme is not None:
        return X._line_scheme
    target = slice_ring(X.ring)
    slices = []
    for g in X.normalized_ideal.generators:
        slices.extend(s for s in slice_decomposition(g) if s)
    scheme_ideal = Ideal(target, slices)
    X._line_scheme = LineScheme(scheme_ideal, hilbert_data(scheme_ideal))
    return X._line_scheme


def cone_ideal(Z, ambient_ring=None):
    """Generators of Z reinterpreted in the full ring: the cone with vertex
    [1:0:...:0] over the direction scheme Z."""
    if not Z.is_homogeneous:
        raise ValueError("cone needs a homogeneous ideal of directions")
    source = Z.ring
    if ambient_ring is None:
        vertex_name = "x0"
        while vertex_name in source.names:
            vertex_name += "_"
        ambient_ring = PolynomialRing((vertex_name,) + source.names, source.field)
    if ambient_ring.names[1:] != source.names:
        raise ValueError("ambient ring does not extend the direction ring")
    return Ideal(ambient_ring, [lift_slices((g,), ambient_ring, 1) for g in Z.generators])


def cut_out_degree(X):
    """The least d at which degree-d members of the ideal cut X out at p.

    Only the distinct generator degrees d of the normalized ideal I need a
    test: the generators of degree <= d span I_<=d, which agrees near the
    point with the ideal of I_d because x_0 is a unit there.  The first d at
    which I_<=d and I agree at the point is returned; the top degree always
    qualifies.  On a scheme that is reducible or non-reduced at the point
    the answer may exceed deg X.  Each call recomputes; `X.d_p` caches.

    A degree whose generators J number fewer than codim X = N - dim X is
    skipped without a local basis.  Were J to agree with I at p, every
    component of X through p would be a component of V(J) there, of
    codimension at most #J by Krull's principal ideal theorem (Matsumura,
    "Commutative Ring Theory", Thm. 13.5); and codim X is at most the
    codimension of any component, so #J >= codim X.  For a complete
    intersection in P^N no lower degree passes, and d_p is the top
    cutting degree.  A degree past the count is skipped on J's local basis
    alone when V(J) has local dimension above dim X at p: were J to agree
    with I there, that would be the local dimension of X, at most dim X.
    """
    I = X.normalized_ideal
    if X.hilbert.is_empty:
        raise ValueError("variety is empty")
    degrees = sorted({g.total_degree() for g in I.generators})
    if not degrees:
        return 1
    N = X.ambient_dimension
    codim = N - X.dimension
    for d in degrees[:-1]:
        J = Ideal(X.ring, [g for g in I.generators if g.total_degree() <= d])
        if (
            len(J.generators) >= codim
            and len(_local_series(_local_leads(J), N)) - 1 <= X.dimension
            and _agree_at_point(J, I)
        ):
            return d
    return degrees[-1]


def supported_only_at_basepoint(K):
    """Whether V(K) = {[1:0:...:0]} as sets, for homogeneous K.

    The degree of a zero-dimensional Proj(R/K) is the sum, over its points
    q, of [k(q) : k] times the length of the local ring at q (in a chart,
    dim k[x]/K is the sum of the local lengths: Cox, Little and O'Shea,
    "Using Algebraic Geometry", ch. 4, sec. 2).  Every term is positive, so
    the base point p is the only point, over the algebraic closure too,
    exactly when the degree equals the length at p, which `multiplicity_at`
    reads off the local leading ideal.
    """
    hd = hilbert_data(K)
    if hd.dimension != 0:
        return False
    try:
        X = normalize_point(K, base_point(K.ring))
    except PointError:  # the base point is not on V(K)
        return False
    return hd.degree == multiplicity_at(X)


def _det(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    total = ring.zero()
    for col in range(len(matrix)):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        piece = entry * _det(minor)
        total = total + piece if col % 2 == 0 else total - piece
    return total


def singular_locus_is_empty(X):
    """Jacobian criterion: no point of X drops the expected Jacobian rank.

    Optional validation helper; the singular locus is cut out by the ideal
    together with the codimension-sized minors of the Jacobian matrix.  A
    hypersurface whose degree the characteristic does not divide is cut out
    by its partials alone.
    """
    from itertools import combinations

    gens = X.normalized_ideal.generators
    if not gens:
        return True
    ring = X.ring
    codim = X.ambient_dimension - X.dimension
    if codim <= 0:
        return True
    jacobian = [[g.derivative(i) for i in range(ring.nvars)] for g in gens]
    if len(gens) == 1 and ring.field.coerce(gens[0].total_degree()):
        # Euler: deg(f) * f = sum of x_i * df/dx_i puts f in the ideal of
        # its partials, which are then N + 1 forms in N + 1 variables, the
        # shape whose emptiness certificate mod p knows its Hilbert series
        return hilbert_data(Ideal(ring, [d for d in jacobian[0] if d])).is_empty
    minors = []
    for rows in combinations(range(len(gens)), min(codim, len(gens))):
        for cols in combinations(range(ring.nvars), min(codim, len(gens))):
            minors.append(_det([[jacobian[r][c] for c in cols] for r in rows]))
    K = Ideal(ring, list(gens) + [m for m in minors if m])
    return hilbert_data(K).is_empty


# -- local invariants -------------------------------------------------------------


def _local_basis(ideal):
    """The order putting x_0 degree first, and the ideal's reduced basis.

    For homogeneous generators this basis is Lazard's standard basis for the
    local degree order at [1:0:...:0] (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, sec. 1.7), and the lowest forms of
    its elements generate the ideal of lowest forms (Sturmfels, Groebner
    Bases and Convex Polytopes, Prop. 1.13).
    """
    order = MonomialOrder.elimination(ideal.ring.nvars, 1)
    return order, ideal.groebner_basis(order)


def _local_leads(ideal):
    """Leading monomials of the local basis with x_0 dropped; they generate
    the leading ideal of the ideal in the local ring at [1:0:...:0]."""
    return [g.leading_monomial()[1:] for g in _local_basis(ideal)[1]]


def _local_series(leads, N):
    """`groebner._at_one` of S/L, S = k[x_1..x_N] and L the local leading
    ideal that `leads` generate: D + 1 entries, D = dim O_p at [1:0:...:0],
    the first the multiplicity of O_p (its length for D = 0).  S/L has the
    Hilbert function of the tangent cone gr(O_p) (Greuel-Pfister, sec.
    5.5), of series Q(t)/(1 - t)^D, and Q(1) is the Hilbert-Samuel
    multiplicity (Cox, Little and O'Shea, "Ideals, Varieties, and
    Algorithms", sec. 9.3).  No leads, X = P^N near p, give D = N."""
    return _at_one(_hilbert_numerator(leads, N), N)


def _agree_at_point(J, I):
    """Whether J inside I generate the same ideal at [1:0:...:0], that is, their
    local leading ideals coincide (Greuel-Pfister, sec. 1.6)."""
    leads_J = _local_leads(J)
    return all(any(all(map(le, a, b)) for a in leads_J) for b in _local_leads(I))


def multiplicity_at(X):
    """Hilbert-Samuel multiplicity of the local ring of X at its base point:
    the product of the orders when one prime proves the lowest forms of
    the generators a regular sequence (`lowest_forms_multiplicity`), else
    read off the local leading ideal (`_local_multiplicity`)."""
    mult = lowest_forms_multiplicity(X)
    return _local_multiplicity(X) if mult is None else mult


def _local_multiplicity(X):
    """mult_p over any field, off the local leading ideal."""
    return _local_series(_local_leads(X.normalized_ideal), X.ambient_dimension)[0]


def lowest_forms_multiplicity(X):
    """mult_p as the product of the orders ord_p(g_i) of the normalized
    generators, when one prime proves their lowest forms at the base point
    a regular sequence in the slice ring; None otherwise.

    The lowest form of g at [1:0:...:0] is its first nonzero slice, of
    degree ord_p(g).  If the lowest forms of g_1 .. g_r are a regular
    sequence in k[x_1..x_N], the associated graded ring of the local ring
    of P^N at p, they generate the tangent cone ideal (Valabrega and
    Valla, "Form rings and regular sequences", Nagoya Math. J. 72 (1978)),
    which is then a complete intersection of degrees ord_p(g_i) and
    multiplicity their product, the degree of the cone's closed-form data
    from `groebner.certified_hilbert_data` in the slice ring.  Only fewer
    lowest forms than slice variables are tried.
    """
    lowest = _lowest_forms(X.normalized_ideal.generators)
    if len(lowest) >= X.ring.nvars - 1:
        return None
    certified = certified_hilbert_data(Ideal(slice_ring(X.ring), lowest))
    return None if certified is None else certified.degree


def _lowest_forms(gens):
    """The lowest form at [1:0:...:0] of each form: its first nonzero slice."""
    return [next(s for s in slice_decomposition(g) if s) for g in gens]


def ord_at(f, X, normalized=False):
    """Largest m with f in (ideal + m^m) in the local ring at the point.

    0 means f does not vanish at the point; INFINITE means f is zero in the
    local ring, that is, ideal + (f) agrees with the ideal at the point.
    Otherwise x_0^k f is reduced by the local basis for k = 0, A, 2A, ...,
    where A is the largest x_0 power among the basis' leading monomials,
    until the remainder's leading x_0 power b reaches A.  The remainder's
    lowest form then has a leading monomial outside the tangent cone's
    initial ideal, so ord = deg f + k - b.  The loop ends because ord is
    finite (Krull's intersection theorem).
    """
    if not f.is_homogeneous():
        raise ValueError("ord_at needs a homogeneous polynomial")
    if f.is_zero():
        return INFINITE
    if not normalized:
        f = X.to_normalized(f)
    ring = X.ring
    field = ring.field
    e0 = X.normalized_point()
    if f.evaluate(e0):
        return 0
    I = X.normalized_ideal
    if _agree_at_point(I, Ideal(ring, I.generators + (f,))):
        return INFINITE
    order, basis = _local_basis(I)
    A = max((g.leading_monomial()[0] for g in basis), default=0)
    k = 0
    while True:
        shifted = f.mul_term(field.one, (k,) + (0,) * (ring.nvars - 1))
        remainder = I.normal_form(shifted, order)
        b = max(m[0] for m, _ in remainder.terms)
        if b >= A:
            return f.total_degree() + k - b
        k += A
