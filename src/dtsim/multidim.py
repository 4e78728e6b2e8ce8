"""T-dimensional self-similar embedding of a geometric-grid process.

Reading the grid indices ``nT + k`` as step ``n`` of component ``k`` turns the
scalar sequence ``X(alpha**j)`` into a T-vector process ``W`` on the grid
``l**n`` (``l = alpha**T``) that is self-similar with exponent H.  Its matrix
covariance :func:`q_cov` has the rank-one structure

    Q(n, tau) = alpha**(2 n H T) * htilde_period**tau * C * diag(r0)

where ``C[j, k] = htilde(j-1) / htilde(k-1)`` is a ratio matrix: rank one,
unit diagonal, and ``C[j, k] C[k, m] = C[j, m]``.  Entry ``(j, k)`` is the
covariance between the grid points ``nT + k`` and ``(n + tau)T + j``, except
at ``tau = 0`` with ``j < k``: there the entry is the one-sided kernel of
``nT + k`` continued to the negative lag ``j - k``, not a covariance, and the
covariance of that pair is entry ``(k, j)`` (simple BM at ``alpha = 2``,
``T = 2``, ``H = 1`` has 8 at ``(0, 1)`` of ``Q(0, 0)``, where the covariance
is 4).  Negative matrix lags follow covariance symmetry,
``Q(n, -s) = Q(n - s, s)^T``.  Both weights come from the extended-range
kernel in :mod:`dtsim.core`, so an entry is ``inf`` or 0 only where it
leaves float range itself.
"""

from __future__ import annotations

import numpy as np

from .core import HChain, _cov_kernel
from .errors import DomainError

__all__ = ["q_cov"]


def q_cov(chain: HChain, n, tau) -> np.ndarray:
    """Embedding covariance matrices Cov(W(l**(n+tau)), W(l**n)), shape ``broadcast(n, tau) + (T, T)``.

    ``C * r0`` weighted from its earlier step ``min(n, n + tau)``; ``n`` and
    ``tau`` are integers or broadcast integer arrays.  At ``tau = 0`` the
    entries ``(j, k)`` with ``j < k`` are the one-sided kernel, not
    covariances (see the module docstring).
    """
    u = chain._prefix[:-1]  # htilde(j-1), j = 0..T-1
    if not u.all():
        raise DomainError("h-chain vanishes inside the period; ratio matrix undefined")
    A = u[:, np.newaxis] / u * chain.seed.r0
    n, tau = np.asarray(n)[..., np.newaxis, np.newaxis], np.asarray(tau)[..., np.newaxis, np.newaxis]
    A = np.where(tau < 0, A.T, A)  # Q(n, -s) = Q(n - s, s)^T
    return _cov_kernel(chain.params, chain.htilde_period, np.minimum(n, n + tau), np.abs(tau), A)
