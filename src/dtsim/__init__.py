"""Scale-invariant processes sampled on geometric grids.

Covariance closed forms, quasi-Lamperti transforms, seeded Monte Carlo,
self-similar embeddings, and spectral density matrices for discrete-time
scale-invariant Markov processes observed at the points ``alpha**k``.
"""

from .core import (
    CovarianceSeed,
    DsiParams,
    HChain,
    convergence_ratio,
    h_tilde,
    make_chain,
    make_params,
)
from .covariance import (
    annulus_index,
    cov_table,
    dtsim_cov,
    markov_triangle_residual,
    pc_counterpart_cov,
    simple_bm_cov,
    simple_bm_seed,
)
from .errors import ConvergenceError, DomainError, DtsimError, GridError, PoleError
from .lamperti import (
    SampledFunction,
    dilate,
    lamperti_forward,
    lamperti_inverse,
    shift,
    verify_commutation,
)
from .multidim import q_cov
from .simulate import (
    CovEstimate,
    Ensemble,
    empirical_cov,
    simulate_brownian,
    simulate_simple_bm,
)
from .spectral import (
    BkTable,
    FrequencyGrid,
    SpectralMatrix,
    auto_truncation,
    bk_from_pc_cov,
    build_bk_table,
    dsi_cov_from_spectra,
    f_matrix,
    f_matrix_grid,
    fjk,
    fk_from_bk,
    simple_bm_spectral,
    spectral_closed_grid,
    spectral_diag,
    spectral_matrix_grid,
    spectral_sum,
    spectral_sum_grid,
)
from .verify import CheckResult, perturb_seed, run_checks

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "DtsimError",
    "GridError",
    "PoleError",
    "DsiParams",
    "CovarianceSeed",
    "HChain",
    "make_params",
    "make_chain",
    "h_tilde",
    "convergence_ratio",
    "annulus_index",
    "simple_bm_seed",
    "simple_bm_cov",
    "cov_table",
    "dtsim_cov",
    "pc_counterpart_cov",
    "markov_triangle_residual",
    "SampledFunction",
    "shift",
    "dilate",
    "lamperti_forward",
    "lamperti_inverse",
    "verify_commutation",
    "Ensemble",
    "CovEstimate",
    "simulate_brownian",
    "simulate_simple_bm",
    "empirical_cov",
    "q_cov",
    "FrequencyGrid",
    "BkTable",
    "SpectralMatrix",
    "auto_truncation",
    "bk_from_pc_cov",
    "build_bk_table",
    "fk_from_bk",
    "fjk",
    "f_matrix",
    "f_matrix_grid",
    "dsi_cov_from_spectra",
    "spectral_sum",
    "spectral_sum_grid",
    "spectral_closed_grid",
    "spectral_diag",
    "simple_bm_spectral",
    "spectral_matrix_grid",
    "CheckResult",
    "perturb_seed",
    "run_checks",
]
