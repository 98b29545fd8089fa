"""Exact computation of Seshadri constants of O_X(1) on embedded varieties.

The toolkit computes, over the rationals: the scheme of lines through a
point, the local cut-out degree, certified lower bounds d_p/(d_p - 1) for
Seshadri constants, exact values for complete intersections in ambients
covered by lines, and explicit curve certificates, all cross-checked by a
finite-field brute-force oracle.
"""

from .polynomials import (
    BadReductionError,
    MonomialOrder,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    compose,
    evaluate,
    parse_polynomial,
    restrict_to_line,
    substitute_linear,
)
from .groebner import (
    HilbertData,
    Ideal,
    buchberger,
    graded_piece,
    hilbert_data,
    hilbert_function,
    ideal_quotient,
    intersect,
    normal_form_against,
    s_polynomial,
    saturate,
)
from .geometry import (
    INFINITE,
    LineScheme,
    PointedVariety,
    cone_ideal,
    cut_out_degree,
    line_scheme,
    multiplicity_at,
    normalize_point,
    ord_at,
    slice_decomposition,
    slice_ring,
    supported_only_at_basepoint,
)
from .constants import (
    EXACT,
    LINE_FOUND,
    LOWER_BOUND_ONLY,
    AuxDivisor,
    CompleteIntersectionInput,
    CurveCertificate,
    HypothesisError,
    InconsistencyError,
    SeshadriReport,
    aux_divisors,
    classify_ci,
    lower_bound,
    seshadri_curve,
    sharpness_example,
)
from .oracle import (
    ConicSearchResult,
    LineCount,
    ModularInstance,
    count_lines_mod_q,
    find_conic_mod_q,
    lowest_form_mult,
    modular_instance,
)

__version__ = "0.1.0"
