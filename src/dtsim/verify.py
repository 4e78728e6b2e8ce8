"""Self-check suites: each invariant measured against its declared tolerance.

Used by the command-line ``verify`` subcommand and handy in notebooks.  Every
suite returns the worst observed residual so a report can show the margin, not
just a boolean.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import CovarianceSeed, DsiParams, HChain, make_chain
from .covariance import cov_table, simple_bm_cov
from .errors import DomainError
from .lamperti import SampledFunction, lamperti_forward, lamperti_inverse, verify_commutation
from .spectral import (
    FrequencyGrid,
    _asymmetry,
    _density_entries,
    _f_matrix_entries,
    build_bk_table,
    dsi_cov_from_spectra,
    spectral_closed_grid,
    spectral_sum_grid,
)

__all__ = ["CheckResult", "perturb_seed", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.observed <= self.tolerance


def perturb_seed(seed: CovarianceSeed, eps: float, rng_seed: int = 0) -> CovarianceSeed:
    """Multiply each one-step covariance by ``1 + eps * u`` with u ~ U(-1, 1) from ``random.Random(rng_seed)``."""
    if rng_seed < 0:
        raise DomainError(f"rng_seed must be >= 0, got {rng_seed}")
    rng = random.Random(rng_seed)
    noise = 1.0 + eps * np.array([rng.uniform(-1.0, 1.0) for _ in range(seed.T)])
    return CovarianceSeed(r0=np.array(seed.r0), r1=np.array(seed.r1) * noise)


def _check_commutation(params: DsiParams) -> CheckResult:
    # fixed values: the identity holds for any input, so no random draw is needed
    values = np.array([0.3, -1.7, 2.4, 0.0, -0.05, 1.1, -2.9, 0.8, -0.6])
    y = SampledFunction(domain=np.arange(9.0), values=values)
    worst = 0.0
    for k in (params.alpha, params.alpha ** 2, params.alpha ** -1):
        worst = max(worst, verify_commutation(y, params.H, params.alpha, k))
    return CheckResult("commutation", worst, 1e-12)


def _check_roundtrip(params: DsiParams) -> CheckResult:
    # fixed values: the identities hold for any input, so no random draw is needed
    values = np.array([-0.6, 0.8, -2.9, 1.1, -0.05, 0.0, 2.4, -1.7, 0.3])
    y = SampledFunction(domain=np.arange(-3.0, 6.0), values=values)
    fwd = lamperti_forward(y, params.H, params.alpha)
    back = lamperti_inverse(fwd, params.H, params.alpha)
    scale = np.maximum(1.0, np.abs(y.values))
    worst = float(np.max(np.abs(back.values - y.values) / scale))
    worst = max(worst, float(np.max(np.abs(back.domain - y.domain))))
    again = lamperti_forward(back, params.H, params.alpha)
    scale = np.maximum(1.0, np.abs(fwd.values))
    worst = max(worst, float(np.max(np.abs(again.values - fwd.values) / scale)))
    return CheckResult("lamperti_roundtrip", worst, 1e-12)


def _check_oracle(chain: HChain) -> CheckResult:
    p = chain.params
    n, tau = np.meshgrid(np.arange(2 * p.T), np.arange(-2 * p.T, 2 * p.T + 1), indexing="ij")
    keep = n + tau >= 0
    n, tau = n[keep], tau[keep]
    closed = cov_table(chain, n, tau)
    oracle = simple_bm_cov(np.float_power(p.alpha, n + tau), np.float_power(p.alpha, n), p.H, p.l)
    worst = np.max(np.abs(closed - oracle) / np.maximum(np.abs(closed), np.abs(oracle)))
    return CheckResult("oracle_equivalence", float(worst), 1e-12)


def _check_seed(chain: HChain, reference: CovarianceSeed) -> CheckResult:
    """``cov_table`` at lags 0 and 1 on the first period against ``reference``'s ``r0`` and ``r1``."""
    j = np.arange(chain.T)
    closed = np.concatenate([cov_table(chain, j, 0), cov_table(chain, j, 1)])
    seed = np.concatenate([reference.r0, reference.r1])
    scale = np.maximum(np.maximum(np.abs(closed), np.abs(seed)), np.finfo(float).tiny)
    return CheckResult("seed_reproduction", float(np.max(np.abs(closed - seed) / scale)), 1e-12)


def _check_triangle(chain: HChain) -> CheckResult:
    idx = np.arange(4 * chain.T + 1)
    table = cov_table(chain, np.minimum.outer(idx, idx), np.abs(np.subtract.outer(idx, idx)))
    # row and column i scaled by 2**-e_i, with 2**e_i about sqrt|C[i, i]|: exact, both
    # products of a triple carry the same factor, and they stay far from overflow
    e = np.frexp(np.sqrt(np.abs(np.diagonal(table))))[1]
    table = np.ldexp(table, -np.add.outer(e, e))
    worst = []
    for b in idx:  # all ordered triples a <= b <= c, one middle index at a time
        left = table[: b + 1, b:] * table[b, b]  # cov(a, c) cov(b, b)
        right = table[: b + 1, b, np.newaxis] * table[b, b:]  # cov(a, b) cov(b, c)
        scale = np.maximum(np.abs(left), np.abs(right))
        worst.append(np.max(np.abs(left - right) / np.maximum(scale, 1e-300)))
    return CheckResult("markov_triangle", float(np.max(worst)), 1e-12)  # nan, and so a failure, if C overflowed


def _check_hermitian(chain: HChain) -> CheckResult:
    # the raw entries: a SpectralMatrix would refuse a non-Hermitian route before it is measured
    grid = FrequencyGrid(16)
    worst = _asymmetry(_f_matrix_entries(build_bk_table(chain), grid, None))
    worst = max(worst, _asymmetry(_density_entries(chain, grid.omegas)))
    return CheckResult("hermitian_spectral", worst, 1e-12)


def _check_series_vs_closed(chain: HChain) -> CheckResult:
    omegas = FrequencyGrid(64).omegas
    closed = spectral_closed_grid(chain, omegas)
    scale = np.max(np.abs(closed), axis=0)  # each (j, r) entry's largest value over the grid
    diff = np.abs(spectral_sum_grid(chain, omegas) - closed)
    return CheckResult("series_vs_closed", float(np.max(diff / scale)), 1e-9)


def _check_phase_roundtrip(chain: HChain) -> CheckResult:
    """Covariances through the ``B_k`` table and back, in units of ``T * eps * max |pc|``."""
    p, T = chain.params, chain.T
    n, tau = np.arange(2 * T)[:, np.newaxis], np.arange(-2 * T, 2 * T + 1)
    factor = p.alpha ** ((2 * n + tau) * p.H)
    pc = cov_table(chain, n, tau) / factor
    recon = dsi_cov_from_spectra(chain, n, tau, build_bk_table(chain, tau_window=2 * T)) / factor
    unit = T * np.finfo(float).eps * np.max(np.abs(pc))
    return CheckResult("phase_expansion_roundtrip", float(np.max(np.abs(recon - pc)) / unit), 8.0)


def run_checks(params: DsiParams, seed: CovarianceSeed, reference: CovarianceSeed | None = None) -> list[CheckResult]:
    """Run every suite against ``seed`` under ``params``.

    Without a ``reference``, the third suite, ``oracle_equivalence``,
    compares against the exact simple-BM covariance for ``params``, so a
    perturbed or foreign seed fails it.  With one, that suite is
    ``seed_reproduction``: the chain's covariances at lags 0 and 1 on the
    first period must give back ``reference.r0`` and ``reference.r1``, so any
    admissible seed passes against itself and a seed perturbed away from its
    reference fails.  Either way the structural suites (triangle, Hermitian,
    series against closed form) still hold on a perturbed seed, which is the
    intended fault-injection signature.
    """
    chain = make_chain(params, seed)
    with np.errstate(all="ignore"):  # an overflow reads as a nan or inf residual, which fails its check
        return [
            _check_commutation(params),
            _check_roundtrip(params),
            _check_oracle(chain) if reference is None else _check_seed(chain, reference),
            _check_triangle(chain),
            _check_hermitian(chain),
            _check_series_vs_closed(chain),
            _check_phase_roundtrip(chain),
        ]
