"""Independent finite-field brute-force checks.

Everything here avoids the Groebner machinery on purpose: lines through
the base point are found by enumerating every direction of the embedded
tangent space ker J(p) over F_q (plain linear algebra) and restricting
generators to the parametrized line directly; conics come from a
randomized search; plane-curve multiplicities read off the lowest form
after translating the point to the affine origin.

Direction enumeration is sequential, since the interpreter lock would
serialise threads over this pure-Python scan; the directions found come
back in sorted order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from . import linalg
from .polynomials import (
    BadReductionError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    compose,
    substitute_linear,
)

DEFAULT_PRIMES = (7, 11, 13)


@dataclass(frozen=True)
class ModularInstance:
    """Generators and base point of a pointed variety reduced mod q."""

    prime: int
    ring: PolynomialRing
    generators: tuple
    point: tuple

    def __post_init__(self):
        field = self.ring.field
        if not isinstance(field, PrimeField) or field.q != self.prime:
            raise ValueError("ring field must be the prime field of the instance")
        if all(field.is_zero(x) for x in self.point):
            raise BadReductionError("base point reduces to zero")
        for g in self.generators:
            if not field.is_zero(g.evaluate(self.point)):
                raise BadReductionError("a generator misses the reduced point")


def modular_instance(X, q):
    """Reduce a pointed variety mod q; raises BadReductionError on bad primes."""
    field = PrimeField(q)
    ring = X.ring.with_field(field)
    gens = tuple(
        ring.from_terms(((m.exponents, c) for m, c in g.terms))
        for g in X.ideal.generators
    )
    point = tuple(field.coerce(x) for x in X.point)
    return ModularInstance(prime=q, ring=ring, generators=gens, point=point)


def _gradient(instance):
    """Rows of the Jacobian matrix of the generators at the point."""
    point = instance.point
    return [
        [g.derivative(i).evaluate(point) for i in range(instance.ring.nvars)]
        for g in instance.generators
    ]


def _directions(rows, q):
    """Representatives of the points of P(span of rows), for reduced echelon
    rows: r_i + sum_{j>i} c_j*r_j, whose first nonzero coordinate is one."""
    for i, lead in enumerate(rows):
        tail = rows[i + 1 :]
        for coeffs in itertools.product(range(q), repeat=len(tail)):
            v = lead
            for c, row in zip(coeffs, tail):
                if c:
                    v = [(a + c * b) % q for a, b in zip(v, row)]
            yield tuple(v)


def _binomials(n):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


def _line_vanishes(g, point, direction, q):
    """Whether g(s*point + t*direction) is the zero polynomial in (s, t)."""
    degree = g.total_degree()
    coeffs = [0] * (degree + 1)
    for mono, c in g.terms:
        term = [c]
        for i, e in enumerate(mono.exponents):
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


def _convolve(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return out


@dataclass(frozen=True)
class LineCount:
    count: int
    directions: tuple


# the scan visits q^0 + ... + q^(k-1) directions, k = dim ker J(p) - 1;
# beyond this many the caller must lower q
ENUMERATION_LIMIT = 2_000_000


def count_lines_mod_q(instance):
    """Count of lines on X through the point over F_q.

    A line through p with direction v lies in the embedded tangent space:
    the s^(d-1)*t coefficient of g(s*p + t*v) is grad g(p) . v, for every
    homogeneous part of g.  So only the directions of ker J(p) with pivot
    coordinate zero (the pivot is the first coordinate of p nonzero mod q)
    are scanned, normalized to first nonzero coordinate one; those on which
    all generators restrict to the zero polynomial are kept.  Returns the
    count and the sorted direction list.
    """
    q = instance.prime
    field = instance.ring.field
    nvars = instance.ring.nvars
    point = instance.point
    pivot = next(i for i, x in enumerate(point) if x % q != 0)
    rows = _gradient(instance) + [[int(i == pivot) for i in range(nvars)]]
    _, kernel = linalg.solve_affine(rows, [0] * len(rows), field)
    basis, _ = linalg.rref(kernel, field)
    total = sum(q**k for k in range(len(basis)))
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"{total} directions exceed the enumeration limit; lower q")
    hits = sorted(
        v
        for v in _directions(basis, q)
        if all(_line_vanishes(g, point, v, q) for g in instance.generators)
    )
    return LineCount(count=len(hits), directions=tuple(hits))


@dataclass(frozen=True)
class ConicSearchResult:
    """Witness (point, tangent, curvature) for p + t*v + t^2*w, or NOT_FOUND.

    NOT_FOUND is inconclusive and never downgrades a classification; it
    only annotates reports.
    """

    found: bool
    witness: tuple | None
    attempts: int

    @property
    def inconclusive(self):
        return not self.found


def _rank(vectors, field):
    rows, _ = linalg.rref([list(v) for v in vectors], field)
    return len(rows)


def find_conic_mod_q(instance, budget=200, seed=0):
    """Randomized search for a conic on X through the point over F_q.

    Draws tangent directions from the Jacobian kernel at the point, solves
    the linear part of the curvature constraints, fills the free choices at
    random, and keeps a draw only if every restriction coefficient
    vanishes and the three defining vectors are independent.
    """
    q = instance.prime
    field = instance.ring.field
    nvars = instance.ring.nvars
    point = list(instance.point)
    gens = instance.generators
    # with no generators the zero row leaves the whole space tangent
    gradient = _gradient(instance) or [[0] * nvars]
    _, tangent_basis = linalg.solve_affine(gradient, [0] * len(gradient), field)
    if not tangent_basis:
        return ConicSearchResult(False, None, 0)

    w_ring = PolynomialRing(
        tuple(f"w{i}" for i in range(nvars)) + ("t",), field
    )
    t = w_ring.variable(nvars)
    rng = random.Random(seed)

    for attempt in range(1, budget + 1):
        v = [0] * nvars
        for vec in tangent_basis:
            c = rng.randrange(q)
            v = [(a + c * b) % q for a, b in zip(v, vec)]
        if all(x == 0 for x in v) or _rank([point, v], field) < 2:
            continue
        images = [
            w_ring.constant(point[i]) + t.scale(v[i]) + (t * t) * w_ring.variable(i)
            for i in range(nvars)
        ]
        linear_rows = []
        linear_rhs = []
        higher = []
        for g in gens:
            restricted = compose(g, images)
            buckets = {}
            for mono, c in restricted.terms:
                k = mono.exponents[nvars]
                buckets.setdefault(k, []).append(
                    (mono.exponents[:nvars] + (0,), c)
                )
            for k, terms in buckets.items():
                piece = w_ring.from_terms(terms)
                if piece.total_degree() <= 1:
                    row = [piece.coefficient(tuple(1 if j == i else 0 for j in range(nvars)) + (0,)) for i in range(nvars)]
                    const = piece.coefficient((0,) * (nvars + 1))
                    linear_rows.append(row)
                    linear_rhs.append(field.neg(const))
                else:
                    higher.append(piece)
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
        if _rank([point, v, w], field) < 3:
            continue
        w_point = [field.coerce(x) for x in w] + [0]
        if all(field.is_zero(h.evaluate(w_point)) for h in higher):
            witness = (tuple(point), tuple(v), tuple(w))
            return ConicSearchResult(True, witness, attempt)
    return ConicSearchResult(False, None, budget)


def lowest_form_mult(plane_curve, point):
    """Multiplicity of a plane curve at a point via the lowest form.

    Translates the point to the affine origin and returns the minimal total
    degree among the surviving terms.  Independent of the Groebner-based
    multiplicity machinery.
    """
    ring = plane_curve.ring
    if ring.nvars != 3:
        raise ValueError("plane curves live in three homogeneous variables")
    field = ring.field
    point = [field.coerce(x) for x in point]
    if not field.is_zero(plane_curve.evaluate(point)):
        raise ValueError("point does not lie on the curve")
    pivot = next(i for i, x in enumerate(point) if not field.is_zero(x))
    basis = [[field.zero] * 3 for _ in range(3)]
    for i in range(3):
        basis[i][pivot] = point[i]
    col = 0
    for j in range(3):
        if j == pivot:
            continue
        while col == pivot:
            col += 1
        basis[j][col] = field.one
        col += 1
    shifted = substitute_linear(plane_curve, basis)
    lowest = None
    for mono, _ in shifted.terms:
        affine_degree = mono.degree - mono.exponents[pivot]
        if lowest is None or affine_degree < lowest:
            lowest = affine_degree
    return lowest
