"""Seeded Monte Carlo ensembles on the geometric grid.

Paths are generated batch by batch with sub-seeds spawned deterministically
from the master seed (numpy SeedSequence over PCG64), so results are
byte-for-byte reproducible and do not depend on how many batches run at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DsiParams, _readonly
from .errors import DomainError
from .table import write_table

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

    def columns(self) -> dict[str, np.ndarray]:
        """Table columns ``path, k, t, value``, one row per (path, k), as ``table.write_table`` takes them."""
        return {
            "path": np.arange(self.n_paths)[:, np.newaxis],
            "k": np.arange(self.k_max + 1),
            "t": self.times,
            "value": self.paths,
        }

    def to_csv(self, path) -> None:
        """Write rows ``path,k,t,value`` with 17-significant-digit floats, as ``dtsim simulate`` does."""
        write_table([self.columns()], "csv", path)


@dataclass(frozen=True)
class CovEstimate:
    """Empirical covariance with its standard error: floats, or arrays of one shape."""

    value: float | np.ndarray
    std_error: float | np.ndarray
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


def empirical_cov(ensemble: Ensemble, n, tau) -> CovEstimate:
    """Zero-mean covariance estimate mean(X[n+tau] * X[n]) across paths.

    The processes here have mean zero by construction, so no sample mean is
    subtracted.  The standard error is the sample standard deviation of the
    per-path products over sqrt(n_paths); it is reported as 0 for a single
    path (see CovEstimate.degenerate).  ``n`` and ``tau`` may be broadcast
    integer arrays.  Both come from path sums of ``X_a X_b`` and
    ``X_a**2 X_b**2`` over all grid columns, so no entry depends on which
    others were asked for; as ``Var(XY) >= E[XY]**2`` for zero-mean Gaussian
    pairs, the one-pass variance loses at most about one bit.
    """
    n, m = np.asarray(n), np.asarray(n) + tau
    bad = (np.minimum(n, m) < 0) | (np.maximum(n, m) > ensemble.k_max)
    if np.any(bad):
        a, b = (int(x[bad].flat[0]) for x in np.broadcast_arrays(n, m))
        raise IndexError(f"(n, n + tau) = ({a}, {b}) outside grid indices 0..{ensemble.k_max}")
    sums = np.zeros((2, ensemble.k_max + 1, ensemble.k_max + 1))
    for lo in range(0, ensemble.n_paths, BATCH_SIZE):
        block = ensemble.paths[lo : lo + BATCH_SIZE]
        sums += [block.T @ block, (block * block).T @ (block * block)]
    count = ensemble.n_paths
    value = sums[0, m, n] / count
    var = np.maximum(sums[1, m, n] - count * value * value, 0.0) / max(count - 1, 1)
    se = np.sqrt(var / count) * (count > 1)  # 0 for a single path
    return CovEstimate(value=value, std_error=se, n_paths=count)
