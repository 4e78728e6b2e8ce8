"""Closed-form covariances for Markov processes on geometric grids.

The central object is ``R_n(tau) = Cov(X(alpha^(n+tau)), X(alpha^n))`` for a
scale-invariant Markov process pinned down by a one-period seed.  It has one
implementation, :func:`cov_table`, which takes broadcast integer arrays
``n`` and ``tau``; :func:`dtsim_cov` and :func:`kernel_cov` are length-1
calls into it and into the one-sided kernel it applies.  With
``n = qT + n0`` (``0 <= n0 < T``) and ``tau >= 0`` that kernel is

    R_n(tau) = alpha**(2 T H q) * htilde(n0 + tau - 1) / htilde(n0 - 1) * r0[n0]

where the variance extension ``R_(n+T)(tau) = alpha**(2 T H) * R_n(tau)``
moves the base index by whole periods and ``htilde`` is evaluated over
arrays by :func:`dtsim.core.h_tilde`.  Negative lags are first reflected,

    R_n(-kT + v) = alpha**(-2 k T H) * R_(n+v)(kT - v)

which is exactly covariance symmetry in disguise; it is the only negative-lag
rule compatible with Cov(X(t), X(s)) = Cov(X(s), X(t)).  Both period
weights enter the kernel as one power ``alpha**(2 T H (q - k))``.

The stationarized counterpart ``alpha**(-(2n + tau) H) * R_n(tau)`` is
formed as one power of the per-period ratio
``rho = alpha**(-H T) * htilde_period``:

    rho**s * alpha**(-(j + r) H) * A[j, r]

with ``r`` and ``j`` the phases of the earlier and later grid point, ``s``
the number of periods between them, and ``A = C * r0`` the lag-0 embedding
covariance ``dtsim.multidim.q_cov(chain, 0, 0)``.  The split factors
``alpha**(-tau H)`` and ``htilde_period**s`` under- and overflow at long lags
near ``|rho| = 1``; their product ``rho**s`` does not.

The independent oracle for all of this is the piecewise-rescaled Brownian
motion ("simple BM"): Brownian motion whose amplitude is multiplied by
``lam**(H - 1/2)`` each time ``t`` crosses a power of ``lam``.  Its covariance
has the elementary closed form ``lam**((n + m) (H - 1/2)) * min(t, s)`` with
``n``, ``m`` the crossing counts of ``t`` and ``s``; no ratio-chain algebra is
involved, so agreement between the two routes is a genuine two-sided check.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import _GRID_RTOL, CovarianceSeed, DsiParams, HChain, _h_tilde, _snap_log, convergence_ratio
from .errors import DomainError
from .multidim import q_cov

__all__ = [
    "annulus_index",
    "simple_bm_seed",
    "simple_bm_cov",
    "cov_table",
    "dtsim_cov",
    "kernel_cov",
    "pc_counterpart_cov",
    "markov_triangle_residual",
    "dsi_cov_check",
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
    is 1 inside a period and ``alpha**(T Hp)`` across the period seam.
    """
    T = params.T
    hp = params.H - 0.5
    r0 = params.alpha ** (2 * T * hp + np.arange(T, dtype=float))
    r1 = r0.copy()
    r1[T - 1] = params.alpha ** (T * hp) * r0[T - 1]
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


def _kernel(chain: HChain, n, tau, k=0):
    """Kernel ``alpha**(2TH(q-k)) htilde(n0+tau-1)/htilde(n0-1) r0[n0]``, ``n = qT + n0``, ``k`` reflections.

    Powers are ``np.power`` calls, which take one numpy loop for scalars and
    arrays alike (Python's ``**`` on floats may differ in the last bit).
    """
    p = chain.params
    q, n0 = divmod(n, p.T)
    den = _h_tilde(chain, n0 - 1)
    if not den.all():
        raise DomainError(
            f"h-chain vanishes before index {np.min(np.where(den == 0.0, n0, p.T))}; covariance "
            "at this base index is not determined by the factorization (a zero one-step "
            "covariance splits the chain)"
        )
    return np.power(p.alpha, 2 * p.T * p.H * (q - k)) * _h_tilde(chain, n0 + tau - 1) / den * chain.seed.r0[n0]


def cov_table(chain: HChain, n, tau):
    """Covariances ``Cov(X(alpha^(n+tau)), X(alpha^n))`` over broadcast integer arrays.

    Negative lags ``tau = -kT + v`` (``k >= 1``, ``0 <= v < T``) are reflected
    onto ``alpha**(-2 k T H) * R_(n+v)(-tau)``; the one-sided kernel then
    evaluates every entry at a nonnegative lag.  The base index may sit
    anywhere on the two-sided integer grid.  ``n`` and ``tau`` are integers or
    integer numpy arrays; plain integers give a scalar from the same numpy
    evaluation, so an entry past float range is ``inf`` either way.
    """
    p = chain.params
    neg = tau < 0
    k, v = neg * -(tau // p.T), neg * (tau % p.T)
    return _kernel(chain, n + v, abs(tau), k)


def dtsim_cov(chain: HChain, n: int, tau: int) -> float:
    """Covariance ``Cov(X(alpha^(n+tau)), X(alpha^n))``: one entry of :func:`cov_table`.

    Symmetric by construction: ``dtsim_cov(chain, n, tau) ==
    dtsim_cov(chain, n + tau, -tau)`` up to rounding.
    """
    return float(cov_table(chain, n, tau))


def kernel_cov(chain: HChain, n: int, tau: int) -> float:
    """One-sided factorization kernel ``htilde(n+tau-1)/htilde(n-1) * R_n(0)``.

    For ``tau >= 0`` this equals :func:`dtsim_cov`.  For ``tau < 0`` it
    continues the same ratio recursion instead of reflecting, which is the
    convention the embedding matrix identities use; it is *not* the symmetric
    covariance there.  Requires ``n + tau >= 0`` and ``(n mod T) + tau >= 0``
    so the ratio stays defined.
    """
    if min(n, n % chain.T) + tau < 0:
        raise DomainError(
            f"kernel_cov needs n + tau >= 0 and (n mod T) + tau >= 0, got n={n}, tau={tau}"
        )
    return float(_kernel(chain, n, tau))


def pc_counterpart_cov(chain: HChain, n, tau):
    """Covariance of the stationarized (periodically correlated) counterpart.

    ``alpha**(-(2n + tau) H) * dtsim_cov(chain, n, tau)``, periodic in ``n``
    with period T, evaluated as ``rho**s * alpha**(-(j + r) H) * A[j, r]``
    where ``r`` and ``j`` are the phases of the earlier and later grid point
    and ``s`` counts the periods between them.  ``n`` and ``tau`` may be
    broadcast integer arrays; scalars give a float.
    """
    p = chain.params
    n, tau = np.asarray(n), np.asarray(tau)
    r = np.minimum(n, n + tau) % p.T
    s, j = np.divmod(r + np.abs(tau), p.T)
    out = convergence_ratio(chain) ** s * p.alpha ** (-(j + r) * p.H) * q_cov(chain, 0, 0)[j, r]
    return float(out) if out.ndim == 0 else out


def markov_triangle_residual(
    cov: Callable[[float, float], float], t1: float, t2: float, t3: float
) -> float:
    """Residual ``cov(t1,t3) cov(t2,t2) - cov(t1,t2) cov(t2,t3)`` for t1 <= t2 <= t3.

    Zero exactly when the covariance factors as G(min) K(max), the defining
    property of wide-sense Markov processes.  The points may be broadcast
    arrays when ``cov`` accepts them.
    """
    if not np.all((np.asarray(t1) <= t2) & (np.asarray(t2) <= t3)):
        raise DomainError(f"need t1 <= t2 <= t3, got {t1}, {t2}, {t3}")
    return cov(t1, t3) * cov(t2, t2) - cov(t1, t2) * cov(t2, t3)


def dsi_cov_check(
    cov: Callable[[float, float], float], params: DsiParams, t: float, s: float
) -> float:
    """Residual ``cov(l t, l s) - l**(2H) cov(t, s)`` with ``l = alpha**T``.

    Zero for covariances that are scale-invariant with exponent ``H`` at scale
    ``l``; a smoke detector for mismatched H or a non-invariant kernel.
    """
    l = params.l
    return cov(l * t, l * s) - l ** (2 * params.H) * cov(t, s)
