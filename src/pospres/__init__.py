"""Positivity preservers on polynomial spaces.

Truncated differential-operator algebra, moment-sequence calculus,
positivity-preserver certification on closed sets, semigroup-generator
construction and checks, and eventual-positivity threshold analysis.
"""

from .polyalg import (
    BasisMap,
    DimensionMismatchError,
    Poly,
    format_poly,
    iter_multiindices,
    parse_poly,
)
from .diffop import (
    DegreeBoundError,
    DiffOp,
    NotInvertibleError,
    OpMatrix,
    TruncationError,
    apply,
    build_substitution_preserver,
    canonical_from_action,
    compose,
    exp_limit_check,
    exp_op,
    format_operator,
    invert,
    log_op,
    matrix_rep,
    parse_operator,
)
from .momseq import (
    DiscreteMeasure,
    MomentMatrix,
    MomentSeq,
    carleman_indicator,
    conv_exp,
    convolve,
    convolve_measures,
    dop_from_seq,
    format_measure,
    format_sequence,
    from_measure,
    hadamard,
    hadamard_measures,
    is_psd,
    moment_matrix,
    parse_measure,
    parse_sequence,
)
from .preserver import (
    KDescriptor,
    PreserverVerdict,
    Witness,
    check_degree2_pointwise,
    check_preserver_halfline,
    check_preserver_rn,
    compact_rigidity_check,
    falsify_on_grid,
    format_kdescriptor,
    global_min_univariate,
    grid_points,
    halfline_trials,
    ksharp,
    parse_kdescriptor,
    quadratic_square_trials,
    sample_points,
    square_trials,
)
from .levygen import (
    LevyField,
    LevyTriple,
    check_finite_order_generator,
    check_generator_field_sufficient,
    check_generator_rn,
    format_levy_triple,
    generator_from_levy,
    generator_from_levy_halfline,
    one_plus_check,
    parse_levy_triple,
    resolvent_check,
    semigroup_moments,
)
from .eventual import (
    NoSignChangeError,
    NoThresholdError,
    ThresholdResult,
    drift_curve_rows,
    drift_example_expm,
    drift_generator_matrix,
    find_tau,
    find_tau_drift,
    find_tau_sigma,
    h2_closed,
    m_min,
    polynomial_positivity_threshold,
    sigma_curve_rows,
    sigma_example_curve,
    sigma_scaling_sequence,
)

__version__ = "0.1.0"
