"""relmargin: relative-deviation margin bounds and their empirical validation.

The package computes margin losses, empirical covering numbers, exact and
Monte-Carlo Rademacher complexities (including the peeling-based variant),
closed-form dimension caps, and the resulting risk bounds for bounded and
unbounded losses, plus a harness that validates bound coverage on
synthetic problems.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundParams,
    BoundReport,
    bound_cov_alpha,
    bound_cov_alpha2,
    bound_cov_fat,
    bound_cov_uniform_rho,
    bound_rad,
    bound_rad_all_alpha,
    bound_rad_smooth,
    bound_unbounded,
    bound_unbounded_uniform_rho,
    explicit_lemma_d1,
    gamma_factor,
    solve_relative,
)
from .checks import verify_binomial_lemma, verify_monotone_ratio
from .comparison import compare_tightness, compare_tightness_direct, tightness_row
from .covers import covering_number_l2, covering_number_linf
from .errors import (
    ApplicabilityError,
    CapabilityError,
    DataError,
    DomainError,
    InputError,
    RelmarginError,
)
from .estimates import ComplexityEstimate
from .fatdim import FatDimParams, cover_log_bound_from_fat, fat_dim_formula, fat_shattering_exact
from .hypotheses import (
    DecisionStump,
    EnsembleHypothesis,
    FFNNHypothesis,
    Hypothesis,
    LinearHypothesis,
    TableHypothesis,
    hypothesis_from_json,
    margin,
    margins,
    truncate,
)
from .lossmatrix import (
    LossMatrix,
    count_dichotomies,
    outputs_matrix,
    peel,
    transform_matrix,
)
from .rademacher import (
    peeling_complexity,
    peeling_complexity_for_matrices,
    rademacher_exact,
    rademacher_mc,
    rm_upper_dichotomy,
    rm_upper_dudley,
    rm_upper_smooth,
    worst_case_rademacher,
)
from .rng import substream
from .samples import LabeledSample, MarginSeparable, TwoGaussianMixture, generate, make_distribution
from .training import train, train_bound_min, train_boost_stumps, train_hinge_linear, train_tiny_mlp
from .transforms import (
    MarginTransform,
    empirical_margin_loss,
    empirical_risk,
    half_step,
    hypothesis_losses,
    loss_moment,
    ramp,
    smooth_cos,
    step,
    true_risk,
)
from .validation import ExperimentConfig, ValidityReport, exact_binomial_ci, validate_bounds
