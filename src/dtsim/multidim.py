"""T-dimensional self-similar embedding of a geometric-grid process.

Reading the grid indices ``nT + k`` as step ``n`` of component ``k`` turns the
scalar sequence ``X(alpha**j)`` into a T-vector process ``W`` on the grid
``l**n`` (``l = alpha**T``) that is self-similar with exponent H.  Its matrix
covariance has the rank-one structure

    Q(n, tau) = alpha**(2 n H T) * htilde_period**tau * C * diag(r0)

where ``C[j, k] = htilde(j-1) / htilde(k-1)``.  Entrywise this is the
one-sided factorization kernel of module covariance evaluated at lag
``tau*T + j - k``.  Negative matrix lags follow covariance symmetry,
``Q(n, -s) = Q(n - s, s)^T``.  Both weights come from the extended-range
kernel in :mod:`dtsim.core`, so an entry is ``inf`` or 0 only where it
leaves float range itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DsiParams, HChain, _cov_kernel
from .errors import DomainError

__all__ = ["Embedding", "QCov", "build_embedding", "build_qcov", "q_cov"]


@dataclass(frozen=True)
class Embedding:
    """Component series W^k(l**n) = X(alpha**(nT + k)), k = 0..T-1."""

    params: DsiParams
    components: tuple
    n_max: int

    @property
    def T(self) -> int:
        return self.params.T


def build_embedding(values: np.ndarray, params: DsiParams) -> Embedding:
    """Re-index grid samples into T component series.

    ``values`` holds samples at alpha**j along its last axis (a single path,
    or an ensemble's path matrix).  Pure re-indexing: component ``k`` at step
    ``n`` is ``values[..., n*T + k]``.  Raises IndexError when fewer than T
    samples are available (no complete step exists).
    """
    values = np.asarray(values, dtype=float)
    count = values.shape[-1]
    if count < params.T:
        raise IndexError(
            f"need at least T = {params.T} grid samples to embed, got {count}"
        )
    n_steps = count // params.T
    comps = tuple(
        np.ascontiguousarray(values[..., k : n_steps * params.T : params.T])
        for k in range(params.T)
    )
    return Embedding(params=params, components=comps, n_max=n_steps - 1)


@dataclass(frozen=True)
class QCov:
    """Structured form of the embedding covariance: C, diag(r0), period factor."""

    params: DsiParams
    C: np.ndarray
    r0: np.ndarray
    scale_base: float

    def matrix(self, n, tau) -> np.ndarray:
        """``Q(n, tau)`` over broadcast integer arrays: ``C * r0`` weighted from its earlier step ``min(n, n + tau)``."""
        n, tau = np.asarray(n)[..., np.newaxis, np.newaxis], np.asarray(tau)[..., np.newaxis, np.newaxis]
        A = self.C * self.r0[np.newaxis, :]
        A = np.where(tau < 0, A.T, A)  # Q(n, -s) = Q(n - s, s)^T
        return _cov_kernel(self.params, self.scale_base, np.minimum(n, n + tau), np.abs(tau), A)


def build_qcov(chain: HChain) -> QCov:
    """Assemble the rank-one covariance structure of the embedded process.

    ``C`` is a ratio matrix, so it is rank one with unit diagonal and
    satisfies the cocycle relation C[j,k] C[k,m] = C[j,m].
    """
    u = chain._prefix[:-1]  # htilde(j-1), j = 0..T-1
    if not u.all():
        raise DomainError("h-chain vanishes inside the period; ratio matrix undefined")
    C = u[:, np.newaxis] / u[np.newaxis, :]
    return QCov(
        params=chain.params,
        C=C,
        r0=np.array(chain.seed.r0),
        scale_base=chain.htilde_period,
    )


def q_cov(chain: HChain, n, tau) -> np.ndarray:
    """Embedding covariance matrices Cov(W(l**(n+tau)), W(l**n)), shape ``broadcast(n, tau) + (T, T)``."""
    return build_qcov(chain).matrix(n, tau)
