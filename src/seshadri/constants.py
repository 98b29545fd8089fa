"""Seshadri-constant procedures on embedded projective varieties.

Exact rationals end to end: a report either certifies the exact value of
the Seshadri constant of O_X(1) at the base point (a line through the
point forces 1; complete intersections in line-covered ambients get the
closed-form value), or a certified lower bound d_p/(d_p - 1) from the
local cut-out degree.  Curve certificates recompute their degree and
multiplicity from scratch; nothing is trusted from the construction trace.

"General" choices become seeded random draws whose required consequences
(empty line scheme, expected dimension, the target degree/multiplicity
ratio) are verified after the fact; failed draws retry up to a budget.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .groebner import Ideal, graded_piece, monomials_of_degree, regular_sequence_data
from .geometry import (
    PointedVariety,
    _local_multiplicity,
    base_point,
    cone_ideal,
    lift_slices,
    line_scheme,
    lowest_forms_multiplicity,
    multiplicity_at,
    normalize_point,
    ord_at,
    slice_decomposition,
    slice_ring,
    supported_only_at_basepoint,
    singular_locus_is_empty,
)
from .polynomials import PolynomialRing

logger = logging.getLogger(__name__)

LINE_FOUND = "LINE_FOUND"
EXACT = "EXACT"
LOWER_BOUND_ONLY = "LOWER_BOUND_ONLY"


class HypothesisError(ValueError):
    """A named hypothesis of the classification failed on this input."""

    def __init__(self, condition, message):
        super().__init__(f"condition {condition}: {message}")
        self.condition = condition


class InconsistencyError(RuntimeError):
    """Certificate and classification disagree: a counterexample candidate.

    Never swallowed; carries the full certificate payload for inspection.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class SeshadriReport:
    """Outcome of a Seshadri-constant computation, all values exact."""

    status: str
    epsilon: Fraction | None
    lower_bound: Fraction
    cut_out_degree: int | None
    line_scheme_dimension: int
    assumptions: tuple = ()

    def __post_init__(self):
        if self.status == LINE_FOUND and self.epsilon != 1:
            raise ValueError("a line through the point forces epsilon = 1")
        if self.lower_bound < 1:
            raise ValueError("Seshadri constants of O(1) are at least 1")


@dataclass(frozen=True)
class AuxDivisor:
    """Divisor x0^(i-1) f_j^1 + ... + f_j^i attached to basis element j."""

    i: int
    j: int
    polynomial: object
    order: object  # vanishing order along X at the point; may be INFINITE

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("divisor index starts at 1")


@dataclass
class CurveCertificate:
    """A 1-dimensional scheme through the point with recomputed invariants."""

    ideal: Ideal
    degree: int
    multiplicity: int
    ratio: Fraction
    trace: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ratio != Fraction(self.degree, self.multiplicity):
            raise ValueError("ratio must equal degree/multiplicity")
        if self.ratio < 1:
            raise ValueError("degree below multiplicity is impossible for a curve")


@dataclass
class CompleteIntersectionInput:
    """X = Y intersected with hypersurfaces f_1 .. f_r of ascending degrees.

    The cutting polynomials live in the original ambient coordinates and
    must vanish at the base point of Y.  Homogeneity of the ambient is a
    user assertion consumed only by the hyperplane-section branch.
    """

    ambient: PointedVariety
    cutting: tuple
    ambient_homogeneous: bool = False
    validate_smoothness: bool = False
    _variety: PointedVariety | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cuts = list(self.cutting)
        if not cuts:
            raise ValueError("at least one cutting polynomial is required")
        for f in cuts:
            if f.ring != self.ambient.ring:
                raise ValueError("cutting polynomial from a different ring")
            if f.is_zero() or not f.is_homogeneous():
                raise ValueError("cutting polynomials must be nonzero homogeneous")
            if f.evaluate(self.ambient.point):
                raise ValueError("cutting polynomial does not vanish at the point")
        cuts.sort(key=lambda f: f.total_degree())
        self.cutting = tuple(cuts)

    @property
    def degrees(self):
        return tuple(f.total_degree() for f in self.cutting)

    def variety(self):
        """X itself as a pointed variety (generators: ambient plus cuts), built once."""
        if self._variety is None:
            Y = self.ambient
            gens = list(Y.ideal.generators) + list(self.cutting)
            self._variety = normalize_point(Ideal(Y.ring, gens), Y.point)
        return self._variety


def _line_report(X, assumptions):
    """The LINE_FOUND report when a line on X passes through the point, else
    None; ValueError when X (of dimension 0) has no curve through the point."""
    if X.dimension < 1:
        raise ValueError("the variety must contain a curve through the point")
    scheme = line_scheme(X)
    if scheme.is_empty:
        return None
    return SeshadriReport(
        status=LINE_FOUND,
        epsilon=Fraction(1),
        lower_bound=Fraction(1),
        cut_out_degree=None,
        line_scheme_dimension=scheme.dimension,
        assumptions=tuple(assumptions),
    )


def lower_bound(X):
    """Certified lower bound for the Seshadri constant of O_X(1) at the point.

    X must contain a curve through the point: a zero-dimensional X raises
    ValueError.  A line through the point pins the constant to exactly 1;
    otherwise the bound is d_p/(d_p - 1) from the local cut-out degree.
    """
    report = _line_report(X, ("line through the point (verified)",))
    if report is not None:
        return report
    d = X.d_p
    if d == 1:
        raise InconsistencyError(
            "cut-out degree 1 with an empty line scheme: a linear space "
            "contains lines through every point"
        )
    return SeshadriReport(
        status=LOWER_BOUND_ONLY,
        epsilon=None,
        lower_bound=Fraction(d, d - 1),
        cut_out_degree=d,
        line_scheme_dimension=-1,
        assumptions=("empty line scheme (verified)",),
    )


def aux_divisors(X):
    """Auxiliary divisors for every basis element of the d_p-graded piece.

    Returns (divisors, common_zero_flag); the flag says whether X meets the
    intersection of all the divisors in the base point alone.
    """
    d = X.d_p
    basis = graded_piece(X.normalized_ideal, d) if X.normalized_ideal.generators else []
    divisors = []
    common = list(X.normalized_ideal.generators)
    for j, f in enumerate(basis, start=1):
        slices = slice_decomposition(f)
        for i in range(1, d):
            poly = lift_slices(slices, X.ring, i)
            order = ord_at(poly, X, normalized=True)
            divisors.append(AuxDivisor(i=i, j=j, polynomial=poly, order=order))
            if poly:
                common.append(poly)
    flag = supported_only_at_basepoint(Ideal(X.ring, common))
    return divisors, flag


def classify_ci(ci):
    """Exact Seshadri constant for a complete intersection in a line-covered
    ambient, after machine-checking every hypothesis that can be checked.

    The value is d_r/(d_r - 1), or 2 in the hyperplane-section branch
    (largest degree 1), which also needs the user-asserted homogeneity flag;
    without it the result downgrades to the lower bound 2 with a pointer at
    the conic oracle.  As in `lower_bound`, an X with no curve through the
    point raises ValueError.
    """
    Y = ci.ambient
    X = ci.variety()
    degrees = ci.degrees
    r = len(degrees)
    d_r = degrees[-1]
    assumptions = []

    codim = Y.dimension - X.dimension
    if codim != r:
        raise HypothesisError("i", f"codim(X, Y) = {codim} does not match r = {r}")
    assumptions.append("i: complete intersection of codimension r (verified)")

    scheme_y = line_scheme(Y)
    if scheme_y.is_empty:
        raise HypothesisError("ii", "no line on the ambient passes through the point")
    if sum(degrees) > scheme_y.dimension + 1:
        raise HypothesisError(
            "ii",
            f"sum of degrees {sum(degrees)} exceeds dim F_p(Y) + 1 = {scheme_y.dimension + 1}",
        )
    assumptions.append("ii: ambient line scheme large enough (verified)")

    d_p_y = Y.d_p
    if d_r >= 2:
        if d_p_y > d_r:
            raise HypothesisError(
                "iii", f"d_p(Y) = {d_p_y} exceeds the largest cutting degree {d_r}"
            )
        assumptions.append("iii: d_p(Y) <= d_r (verified)")
    else:
        if d_p_y > 2:
            raise HypothesisError(
                "iii", f"hyperplane branch needs d_p(Y) <= 2, found {d_p_y}"
            )
        assumptions.append("iii': d_p(Y) <= 2 (verified)")

    if ci.validate_smoothness:
        if not singular_locus_is_empty(X):
            raise HypothesisError("smoothness", "the intersection is singular")
        assumptions.append("smoothness (verified)")

    report = _line_report(X, (*assumptions, "line through the point on X (verified)"))
    if report is not None:
        return report

    assumptions.append("line scheme of X empty (verified)")
    exact = d_r >= 2 or ci.ambient_homogeneous
    if d_r == 1 and exact:
        assumptions.append("ambient homogeneity (user-asserted)")
    elif d_r == 1:
        assumptions.append(
            "ambient homogeneity not asserted: lower bound only; "
            "a conic through the point (see the oracle search) would close the gap"
        )
    degree = max(d_r, 2)
    value = Fraction(degree, degree - 1)
    return SeshadriReport(
        status=EXACT if exact else LOWER_BOUND_ONLY,
        epsilon=value if exact else None,
        lower_bound=value,
        cut_out_degree=degree,
        line_scheme_dimension=-1,
        assumptions=tuple(assumptions),
    )


def _random_form(ring, degree, rng, spread=3):
    while True:
        terms = [
            (exps, rng.randint(-spread, spread))
            for exps in monomials_of_degree(ring.nvars, degree)
        ]
        poly = ring.from_terms(terms)
        if poly:
            return poly


def _rerandomized_cutting(cuts, rng):
    """Replace each f_j by f_j + sum of random multiples of earlier cuts.

    Unit-triangular over the graded pieces, so the generated ideal, the
    degrees, and the cut-out variety are all unchanged.
    """
    ring = cuts[0].ring
    out = list(cuts)
    for j in range(len(out)):
        f = out[j]
        for k in range(j):
            gap = f.total_degree() - out[k].total_degree()
            if gap == 0:
                mixer = ring.constant(rng.randint(-2, 2))
            else:
                mixer = _random_form(ring, gap, rng, spread=2)
            f = f + mixer * out[k]
        out[j] = f.primitive()
    return tuple(out)


def _cone_cut(cuts, ring, gens):
    """gens followed by the cone cuts of forms f_1 .. f_r at [1:0:...:0]:
    every nonzero slice of each f_j, lifted to `ring`, except that the top
    two slices of f_r enter only as x_0 f_r^(d-1) + f_r^d, d = deg f_r."""
    *head, last = cuts
    gens = list(gens)
    for f in head:
        gens.extend(lift_slices((s,), ring, 1) for s in slice_decomposition(f) if s)
    pieces = slice_decomposition(last)
    gens.extend(lift_slices((s,), ring, 1) for s in pieces[:-2] if s)
    tail = lift_slices(pieces[-2:], ring, 2)
    return gens + [tail] if tail else gens


def _cone_cut_shape(curve):
    """Whether the normalized generators of `curve` are those of its ideal
    (the point is [1:0:...:0] already), and all of them but at most one
    are free of x0, that one of x0-degree 1: x0*h + k, h and k free of x0."""
    if curve.normalized_ideal is not curve.ideal:
        return False
    x0 = [max(m[0] for m, _ in g.terms) for g in curve.ideal.generators]
    return max(x0, default=0) <= 1 and sum(x0) <= 1


def _curve_certificate(curve_ideal, trace):
    """(dimension, certificate) of an ideal through [1:0:...:0]: the degree
    and multiplicity are recomputed from the ideal itself, and the
    certificate is None unless the scheme is a curve.

    The cone cuts have generators F in S = Q[x1..xN] and at most one
    g = x0*h + k with h, k in S (`_cone_cut_shape`), so the lowest forms at
    the point are F and h.  When one prime proves them a regular sequence
    in S (`lowest_forms_multiplicity`, which gives mult_p by Valabrega and
    Valla), F is one and h is a nonzerodivisor on S/F.  Every associated
    prime of (S/F)[x0] is P[x0] with P associated to S/F, and g in P[x0]
    would put its coefficient h in P, so g is a nonzerodivisor too: the
    ideal is a complete intersection in Q[x0..xN], and its Hilbert data is
    the closed form of its generator degrees
    (`groebner.regular_sequence_data`), with no pair loop on it.
    Otherwise `curve.hilbert` decides, and then the multiplicity comes
    from the local leading ideal where the lowest forms were asked already
    and from `multiplicity_at` where not, so the prime is asked about them
    at most once.
    """
    curve = normalize_point(curve_ideal, base_point(curve_ideal.ring))
    shaped = _cone_cut_shape(curve)
    mult = lowest_forms_multiplicity(curve) if shaped else None
    if mult is not None:
        hilbert = regular_sequence_data(curve.ideal)
        logger.debug(
            "cone-cut curve: lowest forms regular, Hilbert data of a complete "
            "intersection of degrees (%s)",
            ", ".join(str(g.total_degree()) for g in curve.ideal.generators),
        )
    else:
        hilbert = curve.hilbert
    if hilbert.dimension != 1:
        return hilbert.dimension, None
    if mult is None:
        mult = _local_multiplicity(curve) if shaped else multiplicity_at(curve)
    ratio = Fraction(hilbert.degree, mult)
    return 1, CurveCertificate(curve_ideal, hilbert.degree, mult, ratio, trace)


def seshadri_curve(ci, component=None, seed=0, retries=4):
    """Cut a curve certificate out of the cone over a component of F_p(Y).

    `component` must be an irreducible component of maximal dimension of
    the ambient line scheme (the caller vouches for irreducibility; the
    default takes the whole line-scheme ideal).  The hypotheses and the
    target ratio are `classify_ci`'s, and a line on X through the point
    fails hypothesis `line`; the cone cuts further need the degree sum to
    equal dim F_p(Y) + 1.  A degenerate random draw retries with fresh
    randomness; a dimension-1 result whose ratio misses the classified
    value is reported as a counterexample candidate, never accepted.

    The curve's degree and multiplicity are recomputed by
    `_curve_certificate`.  Its generators are the cone over Z and the cut
    slices, all free of x0, and one x0*f_r^(d-1) + f_r^d, so when one prime
    proves their lowest forms a regular sequence the curve is a complete
    intersection (the cone-cut lemma there) and no pair loop runs on it.
    """
    Y = ci.ambient
    degrees = ci.degrees
    r = len(degrees)
    d_r = degrees[-1]
    if d_r < 2:
        raise HypothesisError("d_r", "the cone-cut construction needs d_r >= 2")
    report = classify_ci(ci)
    scheme_y = line_scheme(Y)
    if sum(degrees) != scheme_y.dimension + 1:
        raise HypothesisError(
            "ii",
            f"cone cutting needs sum of degrees = dim F_p(Y) + 1 = {scheme_y.dimension + 1}, "
            f"got {sum(degrees)}",
        )
    if report.status == LINE_FOUND:
        raise HypothesisError("line", "a line on X passes through the point")
    target = report.epsilon
    Z = component if component is not None else scheme_y.ideal
    if Z.ring != slice_ring(Y.ring):
        raise ValueError("component ideal must live in the direction ring of Y")
    rng = random.Random(seed)
    # X's normalized generators end with the cuts, moved once by ci.variety()
    base_cuts = tuple(f.primitive() for f in ci.variety().normalized_ideal.generators[-r:])
    last_failure = None
    for attempt in range(retries + 1):
        cuts = base_cuts if attempt == 0 else _rerandomized_cutting(base_cuts, rng)
        gens = _cone_cut(cuts, Y.ring, cone_ideal(Z, ambient_ring=Y.ring).generators)
        trace = {
            "seed": seed,
            "attempt": attempt,
            "component": [str(g) for g in Z.generators],
            "cuts": [str(f) for f in cuts],
        }
        dimension, certificate = _curve_certificate(Ideal(Y.ring, gens), trace)
        if certificate is None:
            last_failure = f"attempt {attempt}: curve dimension {dimension}"
            continue
        if certificate.ratio != target:
            raise InconsistencyError(
                f"certificate ratio {certificate.ratio} differs from the classified "
                f"value {target}",
                certificate,
            )
        return certificate
    raise RuntimeError(
        f"no non-degenerate curve within {retries + 1} attempts ({last_failure})"
    )


def sharpness_example(n, d, seed=0, retries=8):
    """A degree-d hypersurface of dimension n with an empty line scheme at
    the point, together with a curve certificate of ratio d/(d-1).

    Needs d >= n + 1; smaller degrees are covered by the complete
    intersection classification instead.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if d < n + 1:
        raise HypothesisError(
            "d", "the direct family needs d >= n + 1; use classify_ci below that"
        )
    ring = PolynomialRing(tuple(f"x{i}" for i in range(n + 2)))
    chart = slice_ring(ring)
    rng = random.Random(seed)
    exponents = sorted(set(range(1, n)) | {d - 1, d})
    last_failure = None
    for attempt in range(retries + 1):
        drawn = {i: _random_form(chart, i, rng) for i in exponents}
        pieces = tuple(drawn.get(i, chart.zero()) for i in range(1, d + 1))
        form = lift_slices(pieces, ring, d)
        X = normalize_point(Ideal(ring, [form]), base_point(ring))
        if not line_scheme(X).is_empty:
            last_failure = f"attempt {attempt}: line scheme nonempty"
            continue
        gens = _cone_cut((form,), ring, ())
        trace = {"seed": seed, "attempt": attempt, "cuts": [str(g) for g in gens]}
        dimension, certificate = _curve_certificate(Ideal(ring, gens), trace)
        if certificate is None:
            last_failure = f"attempt {attempt}: curve dimension {dimension}"
            continue
        if certificate.ratio != Fraction(d, d - 1):
            last_failure = f"attempt {attempt}: ratio {certificate.ratio}"
            continue
        return X, certificate
    raise RuntimeError(
        f"no verified sharpness instance within {retries + 1} attempts ({last_failure})"
    )
