"""Closed-form covariances for Markov processes on geometric grids.

The central object is ``R_n(tau) = Cov(X(alpha^(n+tau)), X(alpha^n))`` for a
scale-invariant Markov process pinned down by a one-period seed.  It has one
implementation, :func:`cov_table`, which takes broadcast integer arrays
``n`` and ``tau``; :func:`dtsim_cov` is a length-1 call into it.  The
earlier grid point of a pair is ``bT + r`` and the later one
``(b + s)T + j``; the covariance is

    alpha**(2 T H b) * htilde_period**s * A[j, r],    A[j, r] = htilde(j-1) / htilde(r-1) * r0[r]

where ``alpha**(2 T H)`` is the variance extension of one period and ``A``
is the lag-0 embedding covariance ``dtsim.multidim.q_cov(chain, 0, 0)``.
A negative lag only swaps which point is earlier, so both orders of a pair
give the same entry, which is covariance symmetry.  The powers are formed
in extended range by the kernel in :mod:`dtsim.core`.

The stationarized counterpart ``alpha**(-(2n + tau) H) * R_n(tau)`` is
formed over the same split as one power of the per-period ratio
``rho = alpha**(-H T) * htilde_period``:

    rho**s * alpha**(-(j + r) H) * A[j, r]

``|rho| <= 1`` for every admissible seed, so ``rho**s`` stays in range where
the split factors ``alpha**(-tau H)`` and ``htilde_period**s`` would not.

The independent oracle for all of this is the piecewise-rescaled Brownian
motion ("simple BM"): Brownian motion whose amplitude is multiplied by
``lam**(H - 1/2)`` each time ``t`` crosses a power of ``lam``.  Its covariance
has the elementary closed form ``lam**((n + m) (H - 1/2)) * min(t, s)`` with
``n``, ``m`` the crossing counts of ``t`` and ``s``; no ratio-chain algebra is
involved, so agreement between the two routes is a genuine two-sided check.
"""

from __future__ import annotations

import math

import numpy as np

from .core import _GRID_RTOL, CovarianceSeed, DsiParams, HChain, _cov_kernel, _snap_log, convergence_ratio
from .errors import DomainError
from .multidim import q_cov

__all__ = [
    "annulus_index",
    "simple_bm_seed",
    "simple_bm_cov",
    "cov_table",
    "dtsim_cov",
    "pc_counterpart_cov",
]

def annulus_index(t, lam: float, rtol: float = _GRID_RTOL):
    """Index ``n`` with ``lam**(n-1) <= t < lam**n`` (half-open on the right).

    Grid points are snapped to exact powers within ``rtol`` on the log scale,
    so ``annulus_index(lam**k, lam) == k + 1`` even when ``lam**k`` carries
    floating-point rounding.  Arrays give integer-valued floats (``inf`` at ``t = inf``).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise DomainError(f"annulus index needs t > 0, got {np.min(t)}")
    if not (lam > 1 and math.isfinite(lam)):
        raise DomainError(f"annulus scale must be > 1, got {lam}")
    with np.errstate(invalid="ignore"):  # inf - inf while snapping t = inf
        u = _snap_log(t, lam, rtol)[0]
    return np.floor(u) + 1


def simple_bm_seed(params: DsiParams) -> CovarianceSeed:
    """One-period seed of the piecewise-rescaled Brownian motion.

    With ``Hp = H - 1/2``: ``r0[j] = alpha**(2 T Hp + j)``; the one-step ratio
    is 1 inside a period and ``alpha**(T Hp)`` across the period seam.  A
    power past float range is ``inf``, which the seed rejects as not finite.
    """
    T = params.T
    hp = params.H - 0.5
    with np.errstate(over="ignore"):
        r0 = params.alpha ** (2 * T * hp + np.arange(T, dtype=float))
        r1 = r0 * np.append(np.ones(T - 1), np.float_power(params.alpha, T * hp))
    return CovarianceSeed(r0=r0, r1=r1)


def simple_bm_cov(t, s, H: float, lam: float):
    """Oracle covariance ``lam**((n+m)(H-1/2)) * min(t, s)`` of simple BM.

    ``n`` and ``m`` are the annulus indices of ``t`` and ``s`` with respect to
    ``lam``.  Defined on the grid's reach ``t, s >= 1`` (the process is built
    from a Brownian motion started at time 1's annulus).  ``t`` and ``s`` may
    be broadcast arrays; ``float_power`` is the C ``pow`` of Python's ``**``.

    Raises
    ------
    DomainError
        If ``t`` or ``s`` is below 1, or ``lam <= 1``.
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if np.any(t < 1) or np.any(s < 1):
        raise DomainError(f"simple_bm_cov needs t, s >= 1, got t={np.min(t)}, s={np.min(s)}")
    n = annulus_index(t, lam)
    m = annulus_index(s, lam)
    return np.float_power(lam, (n + m) * (H - 0.5)) * np.minimum(t, s)


def _split(T: int, n, tau):
    """Grid points ``n`` and ``n + tau`` as ``bT + r`` (the earlier) and ``(b + s)T + j``: ``(b, r, s, j)``."""
    b, r = divmod(np.minimum(n, n + tau), T)
    s, j = divmod(r + np.abs(tau), T)
    return b, r, s, j


def cov_table(chain: HChain, n, tau):
    """Covariances ``Cov(X(alpha^(n+tau)), X(alpha^n))`` over broadcast integer arrays.

    Each entry is ``alpha**(2THb) * htilde_period**s * A[j, r]`` with
    ``bT + r`` the earlier grid point and ``(b + s)T + j`` the later one, so
    ``cov_table(chain, n, tau) == cov_table(chain, n + tau, -tau)`` bit for
    bit.  The base index may sit anywhere on the two-sided integer grid.
    ``n`` and ``tau`` are integers or integer numpy arrays; plain integers
    give a scalar from the same numpy evaluation, so an entry past float
    range is ``inf`` either way.
    """
    b, r, s, j = _split(chain.T, n, tau)
    den = chain._prefix[r]
    if not den.all():
        raise DomainError(
            f"h-chain vanishes before index {np.min(np.where(den == 0.0, r, chain.T))}; covariance "
            "at this base index is not determined by the factorization (a zero one-step "
            "covariance splits the chain)"
        )
    return _cov_kernel(chain.params, chain.htilde_period, b, s, chain._prefix[j] / den * chain.seed.r0[r])


def dtsim_cov(chain: HChain, n: int, tau: int) -> float:
    """Covariance ``Cov(X(alpha^(n+tau)), X(alpha^n))``: one entry of :func:`cov_table`.

    Symmetric by construction: ``dtsim_cov(chain, n, tau) ==
    dtsim_cov(chain, n + tau, -tau)`` bit for bit.
    """
    return float(cov_table(chain, n, tau))


def pc_counterpart_cov(chain: HChain, n, tau):
    """Covariance of the stationarized (periodically correlated) counterpart.

    ``alpha**(-(2n + tau) H) * dtsim_cov(chain, n, tau)``, periodic in ``n``
    with period T, evaluated as ``rho**s * alpha**(-(j + r) H) * A[j, r]``
    where ``r`` and ``j`` are the phases of the earlier and later grid point
    and ``s`` counts the periods between them.  ``n`` and ``tau`` may be
    broadcast integer arrays; scalars give a float.
    """
    p = chain.params
    _, r, s, j = _split(p.T, np.asarray(n), np.asarray(tau))
    out = convergence_ratio(chain) ** s * p.alpha ** (-(j + r) * p.H) * q_cov(chain, 0, 0)[j, r]
    return float(out) if out.ndim == 0 else out
