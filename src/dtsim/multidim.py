"""T-dimensional self-similar embedding of a geometric-grid process.

Reading the grid indices ``nT + k`` as step ``n`` of component ``k`` turns the
scalar sequence ``X(alpha**j)`` into a T-vector process ``W`` on the grid
``l**n`` (``l = alpha**T``) that is self-similar with exponent H.  Its matrix
covariance has the rank-one structure

    Q(n, tau) = alpha**(2 n H T) * htilde_period**tau * C * diag(r0)

where ``C[j, k] = htilde(j-1) / htilde(k-1)``.  Entrywise this is the
one-sided factorization kernel of module covariance evaluated at lag
``tau*T + j - k``.  Negative matrix lags follow covariance symmetry,
``Q(n, -s) = Q(b, s)^T`` with ``b = n - s``, whose weight

    alpha**(2 b H T) * htilde_period**s
        = alpha**(2 x H T) * htilde_period**(s - x + b) * (l**(-2 H) * htilde_period)**(x - b)

is evaluated at the index ``x`` of ``[b, n]`` nearest 0: the positive-lag
form when ``b >= 0``, the reflected form ``alpha**(2 n H T) * (l**(-2 H) *
htilde_period)**s`` when ``n <= 0``, and ``htilde_period**n * (l**(-2 H) *
htilde_period)**(-b)`` in between.  Neither a large base index nor a long
lag then sets an overflowing factor against an underflowing one.  Where two
factors still meet that way (a ``nan`` product, far from the origin at
large T), the entry is one exponential of the summed logarithms of its
factors instead, accurate to about ``|log(entry)|`` ulps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DsiParams, HChain
from .errors import DomainError

__all__ = ["Embedding", "QCov", "build_embedding", "build_qcov", "q_cov", "gamma_k"]


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
        """``Q(n, tau)`` over broadcast integer arrays; ``float_power`` is the C ``pow`` of ``**``."""
        p = self.params
        n, tau = np.asarray(n)[..., np.newaxis, np.newaxis], np.asarray(tau)[..., np.newaxis, np.newaxis]
        neg = tau < 0
        b = np.where(neg, n + tau, n)  # base index of the positive-lag matrix
        x = np.clip(0, b, n)  # the index of [b, n] nearest 0 carries the period weight
        k = x - b  # periods of the reflected ratio, nonzero only where a negative lag crosses 0
        k = k if k.any() else 0  # when none does, one matrix per lag, broadcast over n
        reflected = self.scale_base * p.l ** (-2 * p.H)
        w = np.float_power(self.scale_base, np.abs(tau) - k) * np.float_power(reflected, k)
        base = w * self.C * self.r0[np.newaxis, :]
        base = np.where(neg, np.swapaxes(base, -1, -2), base)
        out = np.float_power(p.alpha, 2 * x * p.H * p.T) * base
        lost = np.isnan(out)  # an overflowing power met an underflowing one
        if lost.any():  # those entries as one exponential of summed logarithms
            at = np.nonzero(lost)
            b, s, neg = (np.broadcast_to(v, out.shape)[at] for v in (b, np.abs(tau), neg))
            m = self.C * self.r0[np.newaxis, :]
            m = np.where(neg, m[at[-1], at[-2]], m[at[-2], at[-1]])
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf gives a 0 entry
                s_log = np.where(s > 0, s * np.log(np.abs(self.scale_base)), 0.0)
            out[at] = np.sign(self.scale_base) ** s * np.sign(m) * np.exp(
                2 * b * p.H * p.T * np.log(p.alpha) + s_log + np.log(np.abs(m)))
        return out


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


def gamma_k(chain: HChain, k: int, n: int, tau: int) -> float:
    """Diagonal entry ``q_cov(chain, n, tau)[k, k]`` for tau >= 0.

    Equals ``alpha**(2 n H T) * htilde_period**tau * r0[k]``; as a function on
    the l-grid it is again a scale-invariant Markov covariance.
    """
    if tau < 0:
        raise DomainError(f"gamma_k is defined for tau >= 0, got {tau}")
    if not 0 <= k < chain.T:
        raise IndexError(f"component index {k} outside 0..{chain.T - 1}")
    return float(q_cov(chain, n, tau)[k, k])
