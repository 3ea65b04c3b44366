"""Sparse Bayesian and penalized solvers for underdetermined linear systems.

The package recovers column-sparse source maps J from observations
V = K J + noise with far fewer sensors than sources.  Two evidence-driven
solvers learn their own regularization (an elastic-net flavored model
with per-column hyperparameters, and a mixed-norm model with one global
scale); classical penalized least-squares arms and the evaluation
metrics used to compare them are included, along with a ring phantom for
desk-scale experiments and a small batch CLI.
"""

from .baselines import (
    PenaltySpec,
    gcv_select,
    mm_objective,
    mm_solve,
    ridge_solve,
    ring_laplacian,
)
from .enet import (
    SolverConfig,
    Solution,
    solve_enet,
    update_alpha1,
    update_beta_enet,
    update_k,
    update_lambda_bar_enet,
)
from .errors import (
    ConfigError,
    DegenerateStateError,
    DomainError,
    NumericError,
    RankError,
    RootFindError,
    RvmixError,
    SelectionError,
    UndefinedMetricError,
)
from .metrics import (
    EvalReport,
    MM_ZERO_TOL_REL,
    RVM_ZERO_TOL_REL,
    evaluate,
    mixed_norm,
    one_minus_corr,
    roc_auc,
    sens_spec,
    sparseness_pct,
)
from .mxio import read_matrix, write_matrix
from .mxn import (
    solve_mxn,
    update_alpha_mxn,
    update_delta,
    update_lambda_bar_mxn,
)
from .objective import (
    neg_log_posterior_enet,
    neg_log_posterior_mxn,
    w_inverse_apply,
)
from .phantom import (
    NoiseSpec,
    RingPhantom,
    SNR_PRESETS_DB,
    SourceSpec,
    add_noise,
    make_phantom,
)
from .posterior import (
    LeadFieldSVD,
    PosteriorMoments,
    ProblemData,
    posterior_moments,
    svd_decompose,
)
from .special import (
    gamma_half_hazard,
    gamma_half_log_tail,
    gamma_half_tail,
    normal_laplace_log_z,
    scale_mixture_density,
    tgamma_half_pdf,
    truncation_coefficient,
)

__version__ = "0.1.0"
