"""Independent finite-field brute-force checks.

Everything here avoids the Groebner machinery on purpose: lines through
the base point are found among the directions of the embedded tangent
space ker J(p) over F_q (plain linear algebra), one coset of the reduced
kernel basis at a time: g(p + t*v) is expanded once per generator with t
and the coset's free digits symbolic, and the digits are then fixed one
at a time, a branch ending as soon as one t-coefficient becomes a nonzero
constant.  Conics come from a randomized search that expands
g(p + t*v + t^2*w); both expansions run on packed exponent keys.
Plane-curve multiplicities read off the lowest form after translating
the point to the affine origin.  The hot loops run on plain ints mod q.

The scan is sequential, since the interpreter lock would serialise
threads over this pure-Python work; the directions found come back in
sorted order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from . import linalg
from .polynomials import (
    BadReductionError,
    PolynomialRing,
    PrimeField,
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
    gens = tuple(ring.from_terms(g.terms) for g in X.ideal.generators)
    point = tuple(field.coerce(x) for x in X.point)
    return ModularInstance(prime=q, ring=ring, generators=gens, point=point)


def _gradient(instance):
    """Rows of the Jacobian matrix of the generators at the point."""
    point = instance.point
    return [
        [g.derivative(i).evaluate(point) for i in range(instance.ring.nvars)]
        for g in instance.generators
    ]


def _form(g):
    """Terms of a polynomial over F_q as (coefficient, ((index, exponent), ...))."""
    return [(c, tuple((i, e) for i, e in enumerate(m) if e)) for m, c in g.terms]


def _value(form, x, q):
    """The value mod q of a form at a vector of ints."""
    total = 0
    for c, factors in form:
        for i, e in factors:
            c *= x[i] if e == 1 else pow(x[i], e, q)
        total += c
    return total % q


def _times(f, g, q):
    """Product mod q of two sparse polynomials {key: coefficient} whose
    keys are additive monomial codes."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            out[k1 + k2] = (out.get(k1 + k2, 0) + c1 * c2) % q
    return {k: c for k, c in out.items() if c}


def _power(f, e, q, span=None):
    """f^e mod q for a sparse polynomial with additive keys.

    Over F_q, f^(q^j) is f with every key multiplied by q^j (Frobenius),
    so f^e is the product of f^(e_j), keys scaled by q^j, over the base-q
    digits e_j of e (Lucas): x1^200000 costs a handful of short products.
    Given span, a key is k + span*code, with k the exponent of t and code
    packing variables that only take values in F_q; as functions on F_q
    those satisfy c^q = c, so only k is scaled.
    """
    out = {0: 1}
    place = 1
    while e:
        e, digit = divmod(e, q)
        piece = {0: 1}
        for _ in range(digit):
            piece = _times(piece, f, q)
        if span is None:
            piece = {k * place: c for k, c in piece.items()}
        else:
            piece = {k + k % span * (place - 1): c for k, c in piece.items()}
        out = _times(out, piece, q)
        place *= q
    return out


def _expand(form, images, q, span=None):
    """g(images) mod q, each variable replaced by a sparse polynomial
    {key: coefficient} with additive keys; zero coefficients are dropped.
    span is passed to `_power`."""
    powers = {}
    total = {}
    for c, factors in form:
        term = {0: c}
        for i, e in factors:
            if (i, e) not in powers:
                powers[i, e] = _power(images[i], e, q, span)
            term = _times(term, powers[i, e], q)
        for k, x in term.items():
            total[k] = (total.get(k, 0) + x) % q
    return {k: x for k, x in total.items() if x}


def _common_zeros(polys, depth, q, base):
    """The digit vectors (c_0, ..., c_(depth-1)) in F_q^depth at which
    every one of polys vanishes.

    A polynomial is {code: coefficient}, code = sum a_j*base^j for the
    monomial prod c_j^a_j, and none is zero.  The digit c_0 is fixed to
    each value in turn; a branch ends as soon as one polynomial becomes a
    nonzero constant, and the last digit is tested on univariates.
    """
    if not polys:
        return list(itertools.product(range(q), repeat=depth))
    if depth == 0:  # every polynomial left is a nonzero constant
        return []
    if depth == 1:
        return [
            (a,)
            for a in range(q)
            if not any(sum(x * pow(a, e, q) for e, x in f.items()) % q for f in polys)
        ]
    zeros = []
    for a in range(q):
        rest = []
        for f in polys:
            g = {}
            for code, x in f.items():
                code, e = divmod(code, base)
                g[code] = g.get(code, 0) + x * pow(a, e, q)
            g = {code: x % q for code, x in g.items() if x % q}
            if len(g) == 1 and 0 in g:
                break
            if g:
                rest.append(g)
        else:
            zeros.extend((a,) + z for z in _common_zeros(rest, depth - 1, q, base))
    return zeros


def _line_directions(forms, point, rows, q):
    """The vectors v = r_i + sum_{j>i} c_j*r_j (c_j in F_q) with
    g(point + t*v) = 0 in F_q[t] for every form, in sorted order.

    Per coset i, one `_expand` per form of g(point + t*v) with t and the
    digits c_j symbolic gives each t^k coefficient as a polynomial in the
    digits; `_common_zeros` finds the digits at which all of them vanish.
    """
    degree = max((sum(e for _, e in f) for form in forms for _, f in form), default=1)
    span = degree + 1
    hits = []
    for i, lead in enumerate(rows):
        tail = rows[i + 1 :]
        # x_l -> p_l + t*(lead_l + sum_j c_j*r_jl); t^k*prod c_j^a_j has the
        # key k + sum_j a_j*span^(j+1), which stays additive: `_power` scales
        # only k, so no exponent passes deg g
        keys = [0, 1] + [1 + span ** (j + 1) for j in range(len(tail))]
        images = [
            {k: x for k, x in zip(keys, column) if x}
            for column in zip(point, lead, *tail)
        ]
        polys = {}
        for n, form in enumerate(forms):
            for key, x in _expand(form, images, q, span).items():
                code, k = divmod(key, span)
                polys.setdefault((n, k), {})[code] = x
        polys = sorted(polys.values(), key=len)
        for digits in _common_zeros(polys, len(tail), q, span):
            v = list(lead)
            for c, row in zip(digits, tail):
                if c:
                    v = [(a + c * b) % q for a, b in zip(v, row)]
            hits.append(tuple(v))
    return sorted(hits)


@dataclass(frozen=True)
class LineCount:
    count: int
    directions: tuple


# the scan decides q^0 + ... + q^(k-1) directions, k = dim ker J(p) - 1,
# and may list every one of them; beyond this many the caller must lower q
ENUMERATION_LIMIT = 2_000_000


class EnumerationLimitError(ValueError):
    """The tangent directions at one prime exceed ENUMERATION_LIMIT."""


def count_lines_mod_q(instance):
    """Count of lines on X through the point over F_q.

    A line through p with direction v lies in the embedded tangent space:
    the s^(d-1)*t coefficient of g(s*p + t*v) is grad g(p) . v, for every
    homogeneous part of g.  So only the directions of ker J(p) with pivot
    coordinate zero (the pivot is the first coordinate of p nonzero mod q)
    are scanned, normalized to first nonzero coordinate one: the vectors
    r_i + sum_{j>i} c_j*r_j of its reduced echelon basis.  A direction is
    kept iff g(p + t*v) = 0 in F_q[t] for every generator g, for every q
    and degree; `_line_directions` decides this for a whole coset from one
    expansion per generator.  Returns the count and the sorted direction
    list; raises EnumerationLimitError beyond ENUMERATION_LIMIT directions.
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
        raise EnumerationLimitError(
            f"{total} directions exceed the enumeration limit; lower q"
        )
    hits = _line_directions([_form(g) for g in instance.generators], point, basis, q)
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


def _conic_buckets(form, point, v, q):
    """The t-buckets of g(point + t*v + t^2*w) over F_q, for w symbolic.

    Returns {t-degree: {w-factors: coefficient}} without zero entries,
    where w-factors is ((index, exponent), ...) as in `_form`.  While
    expanding, w^c*t^k is the integer key k + span*sum c_i*base^i
    (base > deg g bounds each c_i, span > 2 deg g bounds k), so a product
    of monomials is a sum of keys.
    """
    degree = max((sum(e for _, e in factors) for _, factors in form), default=0)
    base, span = degree + 1, 2 * degree + 1
    images = [
        {k: x for k, x in ((0, a), (1, b), (span * base**i + 2, 1)) if x}
        for i, (a, b) in enumerate(zip(point, v))
    ]
    buckets = {}
    for key, x in _expand(form, images, q).items():
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


def find_conic_mod_q(instance, budget=200, seed=0):
    """Randomized search for a conic on X through the point over F_q.

    Draws tangent directions from the Jacobian kernel at the point and
    expands each generator along p + t*v + t^2*w with w symbolic
    (`_conic_buckets`).  Every t-coefficient of total degree at most one
    in w is a linear constraint on w; the search solves those, fills the
    free choices at random, and keeps a draw only if the remaining
    coefficients vanish at w and the three vectors are independent.
    """
    q = instance.prime
    field = instance.ring.field
    nvars = instance.ring.nvars
    point = list(instance.point)
    forms = [_form(g) for g in instance.generators]
    # with no generators the zero row leaves the whole space tangent
    gradient = _gradient(instance) or [[0] * nvars]
    _, tangent_basis = linalg.solve_affine(gradient, [0] * len(gradient), field)
    if not tangent_basis:
        return ConicSearchResult(False, None, 0)

    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        v = [0] * nvars
        for vec in tangent_basis:
            c = rng.randrange(q)
            v = [(a + c * b) % q for a, b in zip(v, vec)]
        if all(x == 0 for x in v) or _rank([point, v], field) < 2:
            continue
        linear_rows = []
        linear_rhs = []
        higher = []
        for form in forms:
            for piece in _conic_buckets(form, point, v, q).values():
                if all(sum(e for _, e in f) <= 1 for f in piece):
                    row = [0] * nvars
                    for f, c in piece.items():
                        if f:
                            row[f[0][0]] = c
                    linear_rows.append(row)
                    linear_rhs.append(-piece.get((), 0) % q)
                else:
                    higher.append([(c, f) for f, c in piece.items()])
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
        if not any(_value(h, w, q) for h in higher):
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
        affine_degree = sum(mono) - mono[pivot]
        if lowest is None or affine_degree < lowest:
            lowest = affine_degree
    return lowest
