"""Seeded Monte Carlo ensembles on the geometric grid.

Paths are generated batch by batch with sub-seeds spawned deterministically
from the master seed (numpy SeedSequence over PCG64), so results are
byte-for-byte reproducible and do not depend on how many batches run at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DsiParams, _readonly
from .errors import DomainError

__all__ = ["Ensemble", "CovEstimate", "simulate_brownian", "simulate_simple_bm", "empirical_cov"]

#: Paths per generation batch; fixed so batch boundaries never move.
BATCH_SIZE = 4096


@dataclass(frozen=True)
class Ensemble:
    """Sample paths on the grid alpha**k, one row per path."""

    params: DsiParams
    k_max: int
    n_paths: int
    rng_seed: int
    paths: np.ndarray

    def __post_init__(self) -> None:
        if self.paths.shape != (self.n_paths, self.k_max + 1):
            raise DomainError(
                f"paths shape {self.paths.shape} does not match "
                f"(n_paths, k_max + 1) = ({self.n_paths}, {self.k_max + 1})"
            )
        object.__setattr__(self, "paths", _readonly(self.paths))

    @property
    def times(self) -> np.ndarray:
        return self.params.alpha ** np.arange(self.k_max + 1)

    def to_csv(self, path) -> None:
        """Write rows ``path,k,t,value`` with 17-significant-digit floats."""
        times = self.times
        with open(path, "w", newline="") as fh:
            fh.write("path,k,t,value\n")
            for p in range(self.n_paths):
                row = self.paths[p]
                fh.writelines(
                    f"{p},{k},{times[k]:.17g},{row[k]:.17g}\n" for k in range(self.k_max + 1)
                )


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance with its standard error."""

    value: float
    std_error: float
    n_paths: int

    @property
    def degenerate(self) -> bool:
        """True when too few paths exist for a standard error (n_paths < 2)."""
        return self.n_paths < 2


def _brownian_paths(alpha: float, n_paths: int, k_max: int, rng_seed: int) -> np.ndarray:
    # increment variances: Var B(1) = 1, then alpha**k - alpha**(k-1)
    var_inc = np.empty(k_max + 1)
    var_inc[0] = 1.0
    ks = np.arange(1, k_max + 1)
    var_inc[1:] = alpha ** ks - alpha ** (ks - 1)
    scale = np.sqrt(var_inc)

    out = np.empty((n_paths, k_max + 1))
    n_batches = (n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    children = np.random.SeedSequence(rng_seed).spawn(n_batches)
    for i, child in enumerate(children):
        lo = i * BATCH_SIZE
        hi = min(lo + BATCH_SIZE, n_paths)
        rng = np.random.default_rng(child)
        z = rng.standard_normal((hi - lo, k_max + 1))
        np.cumsum(z * scale, axis=1, out=out[lo:hi])
    return out


def _check_sim_args(n_paths: int, k_max: int) -> None:
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")


def simulate_brownian(
    params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0
) -> Ensemble:
    """Brownian motion sampled at alpha**k for k = 0..k_max."""
    _check_sim_args(n_paths, k_max)
    paths = _brownian_paths(params.alpha, n_paths, k_max, rng_seed)
    return Ensemble(params=params, k_max=k_max, n_paths=n_paths, rng_seed=rng_seed, paths=paths)


def simulate_simple_bm(
    params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0
) -> Ensemble:
    """Piecewise-rescaled Brownian motion driven by the same seed as simulate_brownian.

    Each grid column of the Brownian ensemble is multiplied by
    ``lam**(n (H - 1/2))`` where ``n`` counts crossings of powers of
    ``lam = alpha**T``; with H = 1/2 the output is bit-identical to the
    driving Brownian ensemble.
    """
    _check_sim_args(n_paths, k_max)
    paths = _brownian_paths(params.alpha, n_paths, k_max, rng_seed)
    ks = np.arange(k_max + 1)
    amp = params.l ** ((ks // params.T + 1) * (params.H - 0.5))
    paths = paths * amp
    return Ensemble(params=params, k_max=k_max, n_paths=n_paths, rng_seed=rng_seed, paths=paths)


def empirical_cov(ensemble: Ensemble, n: int, tau: int) -> CovEstimate:
    """Zero-mean covariance estimate mean(X[n+tau] * X[n]) across paths.

    The processes here have mean zero by construction, so no sample mean is
    subtracted.  The standard error is the sample standard deviation of the
    per-path products over sqrt(n_paths); it is reported as 0 for a single
    path (see CovEstimate.degenerate).
    """
    if not (0 <= n <= ensemble.k_max and 0 <= n + tau <= ensemble.k_max):
        raise IndexError(
            f"(n, n + tau) = ({n}, {n + tau}) outside grid indices 0..{ensemble.k_max}"
        )
    prod = ensemble.paths[:, n + tau] * ensemble.paths[:, n]
    value = float(prod.mean())
    if ensemble.n_paths < 2:
        return CovEstimate(value=value, std_error=0.0, n_paths=ensemble.n_paths)
    se = float(prod.std(ddof=1) / math.sqrt(ensemble.n_paths))
    return CovEstimate(value=value, std_error=se, n_paths=ensemble.n_paths)
