"""Independent finite-field brute-force checks.

X is read mod q as integers of content 1 (`modular_instance`): the point
as an integer vector whose entries have gcd 1, each generator as its
primitive integer form.  So every prime reduces, and a form keeps a
coefficient that q does not divide.

Everything here avoids the Groebner machinery on purpose: lines through
the base point are found among the directions of the embedded tangent
space ker J(p) over F_q (plain linear algebra), one coset of the reduced
kernel basis at a time: g(p + t*v) is expanded once per generator with t
and the coset's free digits symbolic, and the digits are then fixed one
at a time, a branch ending as soon as one t-coefficient becomes a nonzero
constant; a coefficient in the next digit alone limits that digit to its
roots.  A coset too large to expand at once is split by its lowest digit
first.  Conics come from a randomized search over tangent
directions v = sum_j c_j*b_j: g(p + t*v + t^2*w) is expanded once per
generator with the tangent coordinates c_j and w symbolic, and each draw
only evaluates that expansion at its c: one packed sum of integers whose
fields, read in one pass, are the t-coefficients, split into the
constraints linear in w and the higher ones, since each group of terms
is classed once by its w-monomial; a higher one is read only when the
draw tests it.  One bound read off the base-q digits of the exponents
(`_expansion_bound`) serves both searches, before anything is expanded:
a coset whose expansion might exceed COSET_TERM_LIMIT terms is split,
and a prime whose conic expansion might exceed CONIC_TERM_LIMIT terms is
refused.  Both expansions run on packed exponent keys.  Plane-curve
multiplicities read off the lowest form after translating the point to
the affine origin.  Everything runs on plain ints mod q, the linear
algebra too: the Jacobian comes from the terms, the tangent kernel and
the solve for w are one reduced echelon form (`_echelon`, `_solve`), and
the test that p, v, w are independent is two eliminations (`_reduce`),
so `linalg` stays an independent reference for them.

The scan is sequential, since the interpreter lock would serialise
threads over this pure-Python work; the directions found come back in
sorted order.
"""

from __future__ import annotations

import itertools
import logging
import random
import struct
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from .polynomials import (
    BadReductionError,
    PolynomialRing,
    PrimeField,
    substitute_linear,
)

DEFAULT_PRIMES = (7, 11, 13)

logger = logging.getLogger(__name__)


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
        if not any(self.point):
            raise BadReductionError("base point reduces to zero")
        for g in self.generators:
            if g.evaluate(self.point):
                raise BadReductionError("a generator misses the reduced point")


def modular_instance(X, q):
    """Reduce a pointed variety mod q, read as integers of content 1: the
    point scaled to an integer vector whose entries have gcd 1, keeping its
    sign, and each generator to its primitive integer form.  Such a vector
    has a coordinate prime to q, such a form a coefficient prime to q, and
    g(p) = 0 over Z stays 0 mod q, so every prime reduces."""
    field = PrimeField(q)
    ring = X.ring.with_field(field)
    gens = tuple(ring.from_terms(g.primitive().terms) for g in X.ideal.generators)
    point = X.point
    scale = Fraction(lcm(*(x.denominator for x in point)), gcd(*(x.numerator for x in point)))
    point = tuple(field.coerce(x * scale) for x in point)
    return ModularInstance(prime=q, ring=ring, generators=gens, point=point)


def _gradient(forms, point, q):
    """Rows of the Jacobian matrix at a point of F_q^n of the `_form`s: the
    partial derivative d/dx_i of c*x^a is c*a_i*x^(a - e_i), and a term
    whose a_i is divisible by q adds nothing."""
    rows = []
    for form in forms:
        row = [0] * len(point)
        for c, factors in form:
            for i, e in factors:
                if e % q:
                    x = c * e
                    for j, f in factors:
                        x = x * pow(point[j], f - (j == i), q) % q
                    row[i] += x
        rows.append([x % q for x in row])
    return rows


def _echelon(rows, q):
    """Reduced row echelon form over F_q of rows of ints; returns (rows,
    pivot columns) with zero rows dropped and monic pivots cleared above
    and below, as `linalg.rref` does."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        lead = rows[rank] = [x * inv % q for x in rows[rank]]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                f = row[col]
                rows[r] = [(x - f * y) % q for x, y in zip(row, lead)]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _solve(rows, rhs, q):
    """Solve rows*x = rhs over F_q; returns (particular, free vectors), or
    None if there is no solution.  As in `linalg.solve_affine`, the
    particular solution is zero on the free columns, and the free vector
    of free column f is one at f and zero at the other free columns, in
    increasing f.  Both are read off the reduced echelon form, which is
    unique, so they do not depend on the order of the rows."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    reduced, pivots = _echelon([list(row) + [b] for row, b in zip(rows, rhs)], q)
    if ncols in pivots:
        return None
    particular = [0] * ncols
    for row, col in zip(reduced, pivots):
        particular[col] = row[-1]
    taken = set(pivots)
    free = []
    for f in range(ncols):
        if f not in taken:
            vec = [0] * ncols
            vec[f] = 1
            for row, col in zip(reduced, pivots):
                vec[col] = -row[f] % q
            free.append(vec)
    return particular, free


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


def _power(f, e, q, span):
    """f^e mod q for a sparse polynomial with additive keys.

    Over F_q, f^(q^j) is f with every key multiplied by q^j (Frobenius),
    so f^e is the product of f^(e_j), keys scaled by q^j, over the base-q
    digits e_j of e (Lucas): x1^200000 costs a handful of short products.
    A key is k + span*code, with k < span the exponent of t and code
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
        piece = {k + k % span * (place - 1): c for k, c in piece.items()}
        out = _times(out, piece, q)
        place *= q
    return out


def _expand(form, images, q, span):
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


def _common_zeros(polys, depth, q, base, tried):
    """The digit vectors (c_0, ..., c_(depth-1)) in F_q^depth at which
    every one of polys vanishes.

    A polynomial is {code: coefficient}, code = sum a_j*base^j for the
    monomial prod c_j^a_j, and none is zero.  Every common zero is a root
    of each polynomial in c_0 alone, so c_0 runs over the roots of one
    such polynomial if there is one (-y/x for x*c_0 + y, none for a
    nonzero constant), and over F_q otherwise; at the last digit every
    polynomial is one.  Each value of c_0 is substituted into every
    polynomial, a branch ending as soon as one of them becomes a nonzero
    constant; tried[0] counts the values substituted.
    """
    if not polys:
        return list(itertools.product(range(q), repeat=depth))
    values, univariate = range(q), None
    for f in polys:
        top = max(f)
        if top >= base:  # f involves a later digit
            continue
        if top == 0:  # a nonzero constant
            return []
        if top == 1:
            values = [-f.get(0, 0) * pow(f[1], -1, q) % q]
            break
        univariate = univariate or f
    else:
        if univariate:
            values = [
                a
                for a in range(q)
                if not sum(x * pow(a, e, q) for e, x in univariate.items()) % q
            ]
    tried[0] += len(values)
    zeros = []
    for a in values:
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
            zeros.extend(
                (a,) + z for z in _common_zeros(rest, depth - 1, q, base, tried)
            )
    return zeros


def _line_directions(forms, point, rows, q, tried=None):
    """The vectors v = r_i + sum_{j>i} c_j*r_j (c_j in F_q) with
    g(point + t*v) = 0 in F_q[t] for every form, in sorted order; one
    `_coset_directions` per coset i.  tried[0], if given, gains the digit
    values `_common_zeros` tried.
    """
    degree = max((sum(e for _, e in f) for form in forms for _, f in form), default=1)
    tried = tried or [0]
    hits = []
    for i, lead in enumerate(rows):
        hits.extend(
            _coset_directions(forms, point, lead, rows[i + 1 :], q, degree + 1, tried)
        )
    return sorted(hits)


# a coset whose expansion may hold more terms than this is split by fixing
# its lowest digit to each value in F_q
COSET_TERM_LIMIT = 1 << 16


def _coset_directions(forms, point, lead, tail, q, span, tried):
    """The vectors v = lead + sum_j c_j*tail_j (c_j in F_q) with
    g(point + t*v) = 0 in F_q[t] for every form; span > every degree.

    One `_expand` per form of g(point + t*v) with t and the digits c_j
    symbolic gives each t^k coefficient as a polynomial in the digits;
    `_common_zeros` finds the digits at which all of them vanish.  A coset
    whose expansion may exceed COSET_TERM_LIMIT terms (`_expansion_bound`,
    with t and the digits as its symbols) is split into q cosets with its
    lowest digit fixed.  A single direction v is first tested on the
    t^(deg g) coefficient of each g(point + t*v), the top form of g at v,
    which rejects all but about 1/q of the directions without an
    expansion.
    """
    # x_l -> p_l + t*(lead_l + sum_j c_j*tail_jl); t^k*prod c_j^a_j has the
    # key k + sum_j a_j*span^(j+1), which stays additive: `_power` scales
    # only k, so no exponent passes deg g
    keys = [0, 1] + [1 + span ** (j + 1) for j in range(len(tail))]
    images = [
        {k: x for k, x in zip(keys, column) if x} for column in zip(point, lead, *tail)
    ]
    if not tail:
        for form in forms:
            degree = max((sum(e for _, e in f) for _, f in form), default=0)
            if _value([t for t in form if sum(e for _, e in t[1]) == degree], lead, q):
                return []
    elif _expansion_bound(forms, images, q, len(tail) + 1) > COSET_TERM_LIMIT:
        return [
            v
            for a in range(q)
            for v in _coset_directions(
                forms,
                point,
                [(x + a * y) % q for x, y in zip(lead, tail[0])],
                tail[1:],
                q,
                span,
                tried,
            )
        ]
    polys = {}
    for n, form in enumerate(forms):
        for key, x in _expand(form, images, q, span).items():
            code, k = divmod(key, span)
            polys.setdefault((n, k), {})[code] = x
    polys = sorted(polys.values(), key=len)
    hits = []
    for digits in _common_zeros(polys, len(tail), q, span, tried):
        v = list(lead)
        for c, row in zip(digits, tail):
            if c:
                v = [(a + c * b) % q for a, b in zip(v, row)]
        hits.append(tuple(v))
    return hits


def _term_bound(factors, images, q):
    """An upper bound on the terms `_expand` forms for one term
    prod x_i^e_i at `images`: by Lucas, f^e is the product of f^(e_j) over
    the base-q digits e_j of e, and f^(e_j) has at most C(e_j + s - 1, e_j)
    terms for s terms of f."""
    size = 1
    for i, e in factors:
        s = max(len(images[i]), 1)
        while e:
            e, d = divmod(e, q)
            size *= comb(d + s - 1, d)
    return size


def _expansion_bound(forms, images, q, symbols):
    """An upper bound on the terms of every product `_expand` forms for the
    forms at `images`, read off before anything is expanded.

    Each term is bounded digit by digit (`_term_bound`).  Where none of
    its exponents reaches q, `_power` scales no key, so a term of degree d
    yields only monomials that match one to one monomials of degree at
    most d in `symbols` symbols: in the line scan t^k*c^a with
    |a| <= k <= d, that is t^(k - |a|)*c^a in t and the digits c_j; in
    the conic search t^(|b| + 2|a|)*c^b*w^a with |a| + |b| <= d, in the
    c_j and w_i.  Such terms of a generator of degree d together hold at
    most C(d + symbols, symbols) monomials.  The terms with an exponent
    past q, whose keys `_power` scales, count one by one.
    """
    total = 0
    for form in forms:
        plain = carried = degree = 0
        for _, factors in form:
            size = _term_bound(factors, images, q)
            if all(e < q for _, e in factors):
                plain += size
            else:
                carried += size
            degree = max(degree, sum(e for _, e in factors))
        total += min(plain, comb(degree + symbols, symbols)) + carried
    return total


@dataclass(frozen=True)
class LineCount:
    count: int
    directions: tuple


# the scan decides q^0 + ... + q^(k-1) directions, k = dim ker J(p) - 1,
# and may list every one of them; beyond this many the caller must lower q
ENUMERATION_LIMIT = 2_000_000

# the conic search holds its whole expansion at once; a prime whose
# expansion may exceed this many terms (`_expansion_bound`) is refused
CONIC_TERM_LIMIT = 1 << 16


class EnumerationLimitError(ValueError):
    """A search at one prime exceeds its capacity: the line scan's tangent
    directions ENUMERATION_LIMIT, or the conic expansion's terms
    CONIC_TERM_LIMIT."""


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
    started = time.perf_counter()
    q = instance.prime
    nvars = instance.ring.nvars
    point = instance.point
    forms = [_form(g) for g in instance.generators]
    pivot = next(i for i, x in enumerate(point) if x % q != 0)
    rows = _gradient(forms, point, q) + [[int(i == pivot) for i in range(nvars)]]
    _, kernel = _solve(rows, [0] * len(rows), q)
    basis, _ = _echelon(kernel, q)
    total = sum(q**k for k in range(len(basis)))
    if total > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{total} directions exceed the enumeration limit; lower q"
        )
    tried = [0]
    hits = _line_directions(forms, point, basis, q, tried)
    logger.debug(
        "line scan mod %d: %d tangent directions decided, %d lines, "
        "%d digit values tried, in %.1f ms",
        q, total, len(hits), tried[0], 1000 * (time.perf_counter() - started),
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


def _conic_expansion(forms, point, tangent_basis, q):
    """Every generator along p + t*v + t^2*w, v = sum_j c_j*b_j, expanded
    once with the tangent coordinates c_j and w symbolic; raises
    EnumerationLimitError first when `_expansion_bound` exceeds
    CONIC_TERM_LIMIT.

    Returns (terms, constraints): the number of terms of the expansion,
    and constraints(c), the conditions on w for g(p + t*v + t^2*w) = 0
    over F_q at the coordinates c, as (linear_rows, rhs, higher).  Each
    t-coefficient of each generator, a bucket, is a polynomial in w.  A
    bucket of total degree at most one in w at c is the row of a linear
    equation linear_rows*w = rhs, unless it is zero at c.  higher is an
    iterator over the other buckets, each read only when it is reached, as
    its nonzero terms (coefficient, w-factors), with w-factors
    ((i, a_i), ...) as in `_form` and w^(q^j) kept; a caller that stops at
    the first bucket nonzero at its w reads no more of them.

    A key is k + tspan*wcode + span*ccode for t^k*w^a*c^b, with wcode =
    sum a_i*base^i and ccode = sum b_j*base^j (base > deg g bounds every
    exponent, tspan > 2 deg g bounds k), so products add keys.  The c_j
    take values in F_q only, so `_power` scales k + tspan*wcode alone.
    The terms are grouped by (generator, k, w-monomial), and each group
    is classed once by its w-monomial: constant, linear in one w_i, or
    higher.  constraints(c) evaluates each c-monomial with one product, as
    an earlier one times its lowest variable, and sums every group at
    once: each c-monomial carries its groups' coefficients in fixed-width
    byte fields of one integer, wide enough that no field's sum carries
    into the next.  Fields of at most 8 bytes are widened to 1, 2, 4 or 8
    and read in one pass, a memoryview cast of the sum's bytes in native
    order; wider ones, which primes near 2^32 and above need, are read
    one slice at a time.  A bucket is then read off the fields of its groups.
    """
    nvars = len(point)
    degree = max((sum(e for _, e in f) for form in forms for _, f in form), default=0)
    base, tspan = degree + 1, 2 * degree + 1
    span = tspan * base**nvars
    images = []
    for i, a in enumerate(point):
        image = {0: a, 2 + tspan * base**i: 1}
        for j, b in enumerate(tangent_basis):
            if b[i]:
                image[1 + span * base**j] = b[i]
        images.append({k: x for k, x in image.items() if x})
    bound = _expansion_bound(forms, images, q, nvars + len(tangent_basis))
    if bound > CONIC_TERM_LIMIT:
        raise EnumerationLimitError(
            f"the conic expansion may hold {bound} terms, more than the limit "
            f"{CONIC_TERM_LIMIT}"
        )
    groups = {}
    for n, form in enumerate(forms):
        for key, x in _expand(form, images, q, span).items():
            ccode, key = divmod(key, span)
            wcode, k = divmod(key, tspan)
            groups.setdefault((n, k, wcode), []).append((ccode, x))
    # close the c-monomials under dividing by their lowest variable; the
    # divisors this adds carry no terms
    codes = {0}
    for terms in groups.values():
        for code, _ in terms:
            while code not in codes:
                codes.add(code)
                code -= _lowest(code, base)[1]
    codes = sorted(codes)
    position = {code: i for i, code in enumerate(codes)}
    chain = []
    for code in codes[1:]:
        j, step = _lowest(code, base)
        chain.append((position[code - step], j))
    # a group's value before reduction fits in `width` bytes; a width of at
    # most 8 is rounded up to that of a native unsigned type, so that one
    # cast of the packed sum reads every field
    width = ((len(codes) * (q - 1) ** 2).bit_length() + 7) // 8
    cast = next((f for f in "BHIQ" if struct.calcsize(f) >= width), None)
    if cast:
        width = struct.calcsize(cast)
    members = {}
    rows = [[] for _ in codes]
    for g, ((n, k, wcode), terms) in enumerate(groups.items()):
        members.setdefault((n, k), []).append((g, _digits(wcode, base)))
        for code, x in terms:
            rows[position[code]].append((width * g, x))
    size = width * len(groups)
    order = sys.byteorder
    packed = []
    for row in rows:
        data = bytearray(size)
        for at, x in row:
            data[at : at + width] = x.to_bytes(width, order)
        packed.append(int.from_bytes(data, order))
    # per bucket: its constant group (or None), its groups linear in one
    # w_i as (i, group), its other groups, and all of them with w-factors
    buckets = []
    for bucket in members.values():
        constant, linear, rest = None, [], []
        for g, factors in bucket:
            if not factors:
                constant = g
            elif len(factors) == 1 and factors[0][1] == 1:
                linear.append((factors[0][0], g))
            else:
                rest.append(g)
        buckets.append((constant, linear, rest, bucket))
    offsets = range(0, size, width)

    def constraints(c):
        values = [1]
        for i, j in chain:
            values.append(values[i] * c[j] % q)
        data = sum(map(mul, values, packed)).to_bytes(size, order)
        if cast:
            x = [f % q for f in memoryview(data).cast(cast)]
        else:
            x = [int.from_bytes(data[at : at + width], order) % q for at in offsets]
        linear_rows, rhs, higher = [], [], []
        for constant, linear, rest, bucket in buckets:
            if any(x[g] for g in rest):
                higher.append(bucket)
                continue
            row = [0] * nvars
            for i, g in linear:
                row[i] = x[g]
            b = 0 if constant is None else -x[constant] % q
            if b or any(row):
                linear_rows.append(row)
                rhs.append(b)
        return linear_rows, rhs, (
            [(x[g], factors) for g, factors in bucket if x[g]] for bucket in higher
        )

    return sum(map(len, groups.values())), constraints


def _reduce(u, span, q):
    """u*b_k - u_k*b mod q for each (b, k) of span in turn, where b_k is
    nonzero and every b is zero at the k of the pairs before it: the
    result is zero at every such k, and it is zero iff u lies in the span
    of the b, one O(n) elimination per pair."""
    for b, k in span:
        u = [(x * b[k] - u[k] * y) % q for x, y in zip(u, b)]
    return u


def _lowest(code, base):
    """(j, base^j) for the lowest nonzero base-`base` digit of code > 0."""
    j, step = 0, 1
    while code // step % base == 0:
        j, step = j + 1, step * base
    return j, step


def _digits(code, base):
    """((i, a_i), ...) for the nonzero base-`base` digits a_i of code."""
    factors = []
    i = 0
    while code:
        code, e = divmod(code, base)
        if e:
            factors.append((i, e))
        i += 1
    return tuple(factors)


def find_conic_mod_q(instance, budget=200, seed=0):
    """Randomized search for a conic on X through the point over F_q.

    Draws tangent directions v = sum_j c_j*b_j from the Jacobian kernel
    basis b_j at the point.  Each generator is expanded once along
    p + t*v + t^2*w with the c_j and w symbolic (`_conic_expansion`); a
    draw evaluates the c-monomials at its c and reads the t-coefficients
    of g(p + t*v + t^2*w), w symbolic, off one packed sum, already split
    into the linear constraints on w (those of total degree at most one
    in w) and the higher ones.  The search solves the linear ones, fills
    the free choices at random, and keeps a draw only if p, v, w are
    independent and then the higher coefficients vanish at w, read up to
    the first that does not.  The solve is a reduced echelon form on ints
    mod q (`_solve`); the draw's w is its canonical solution, so the draws
    do not depend on how the constraints are ordered.  Independence takes
    two O(n) eliminations (`_reduce`): v is cleared at the first nonzero
    coordinate of p, which leaves zero iff v is a multiple of p, and w at
    that coordinate and at the first nonzero one of what is left of v.
    """
    started = time.perf_counter()
    q = instance.prime
    nvars = instance.ring.nvars
    point = list(instance.point)
    forms = [_form(g) for g in instance.generators]
    # with no generators the zero row leaves the whole space tangent
    gradient = _gradient(forms, point, q) or [[0] * nvars]
    _, tangent_basis = _solve(gradient, [0] * len(gradient), q)

    def done(result, terms=0):
        logger.debug(
            "conic search mod %d: %d tangent coordinates, %d terms, %d draws, %s in %.1f ms",
            q, len(tangent_basis), terms, result.attempts,
            "found" if result.found else "inconclusive",
            1000 * (time.perf_counter() - started),
        )
        return result

    if not tangent_basis:
        return done(ConicSearchResult(False, None, 0))
    terms, constraints = _conic_expansion(forms, point, tangent_basis, q)
    # k is the first coordinate of p that is nonzero
    k = next(i for i, x in enumerate(point) if x % q)
    rng = random.Random(seed)
    for attempt in range(1, budget + 1):
        c = [rng.randrange(q) for _ in tangent_basis]
        v = [sum(map(mul, c, column)) % q for column in zip(*tangent_basis)]
        span = [(point, k)]
        u = _reduce(v, span, q)
        m = next((i for i, x in enumerate(u) if x), None)
        if m is None:  # v is a multiple of p
            continue
        span.append((u, m))
        linear_rows, rhs, higher = constraints(c)
        if linear_rows:
            solved = _solve(linear_rows, rhs, q)
            if solved is None:
                continue
            w, free_basis = solved
        else:
            w = [0] * nvars
            free_basis = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
        for vec in free_basis:
            a = rng.randrange(q)
            w = [(x + a * y) % q for x, y in zip(w, vec)]
        if not any(_reduce(w, span, q)):
            continue
        if not any(_value(h, w, q) for h in higher):
            witness = (tuple(point), tuple(v), tuple(w))
            return done(ConicSearchResult(True, witness, attempt), terms)
    return done(ConicSearchResult(False, None, budget), terms)


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
    if plane_curve.evaluate(point):
        raise ValueError("point does not lie on the curve")
    pivot = next(i for i, x in enumerate(point) if x)
    # the identity with the pivot column replaced by the point
    basis = [
        [point[i] if j == pivot else field.one if i == j else field.zero for j in range(3)]
        for i in range(3)
    ]
    shifted = substitute_linear(plane_curve, basis)
    lowest = None
    for mono, _ in shifted.terms:
        affine_degree = sum(mono) - mono[pivot]
        if lowest is None or affine_degree < lowest:
            lowest = affine_degree
    return lowest
