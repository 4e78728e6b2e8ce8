"""Core parameter and covariance-seed types for geometric-grid sampling.

A process is sampled at the points ``alpha**k`` (k = 0, 1, 2, ...).  Wide-sense
invariance under dilation by ``l = alpha**T`` with Hurst-type exponent ``H``
makes the sampled sequence a discrete-time scale-invariant (DT-SIM when also
Markov) process with period ``T``.

A Markov process of this kind is pinned down by ``2 T`` numbers: the variances
``r0[j] = Cov(X(alpha^j), X(alpha^j))`` and the one-step covariances
``r1[j] = Cov(X(alpha^(j+1)), X(alpha^j))`` for ``j = 0..T-1``.  Everything
else follows from the ratio chain

    h[j]           = r1[j] / r0[j]                       (period T in j)
    htilde(r)      = h[0] * h[1] * ... * h[r]            (htilde(-1) = 1)
    htilde(kT+n-1) = htilde(T-1)**k * htilde(n-1)        (0 <= n < T)

which this module evaluates, in log space when every factor is positive so
that large lags neither overflow nor lose precision.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "DsiParams",
    "GeometricGrid",
    "CovarianceSeed",
    "HChain",
    "make_params",
    "make_chain",
    "h_ratio",
    "h_tilde",
    "convergence_ratio",
]

#: Relative slack applied to the one-step Cauchy-Schwarz bound so that seeds
#: sitting exactly on the boundary (perfect correlation) survive rounding.
_CS_SLACK = 1e-12

#: Relative tolerance for snapping a log-scale coordinate onto an integer
#: grid index, shared by every grid-membership test in the package.
_GRID_RTOL = 1e-9


def _snap_log(x, base: float, rtol: float = _GRID_RTOL):
    """``log_base(x)`` snapped onto integers within ``rtol``, and the mask of snapped (grid) entries."""
    u = np.log(x) / np.log(base)
    on = np.abs(u - np.round(u)) <= rtol * np.maximum(1.0, np.abs(u))
    return np.where(on, np.round(u), u), on


def _readonly(a) -> np.ndarray:
    """Read-only float copy of ``a``."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DsiParams:
    """Scale-invariance parameters: exponent ``H``, grid ratio ``alpha``, period ``T``.

    The dilation scale is always recomputed as ``l = alpha**T``; it is never
    stored, so it cannot drift out of sync with ``alpha`` and ``T``.
    """

    H: float
    alpha: float
    T: int

    def __post_init__(self) -> None:
        if not (isinstance(self.T, int) and not isinstance(self.T, bool)):
            raise DomainError(f"period T must be an integer, got {self.T!r}")
        if self.T < 1:
            raise DomainError(f"period T must be >= 1, got {self.T}")
        if not (math.isfinite(self.H) and self.H > 0):
            raise DomainError(f"exponent H must be finite and > 0, got {self.H}")
        if not (math.isfinite(self.alpha) and self.alpha > 1):
            raise DomainError(f"grid ratio alpha must be finite and > 1, got {self.alpha}")

    @property
    def l(self) -> float:
        """Dilation scale ``alpha**T``."""
        return self.alpha ** self.T


def make_params(H: float, alpha: float, T: int) -> DsiParams:
    """Validate and build a :class:`DsiParams`.

    Raises
    ------
    DomainError
        If ``H <= 0``, ``alpha <= 1``, or ``T`` is not a positive integer.
    """
    return DsiParams(H=float(H), alpha=float(alpha), T=T)


@dataclass(frozen=True)
class GeometricGrid:
    """The sampling grid ``alpha**k`` for ``k = 0..k_max``."""

    alpha: float
    k_max: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 1):
            raise DomainError(f"grid ratio alpha must be finite and > 1, got {self.alpha}")
        if self.k_max < 0:
            raise DomainError(f"k_max must be >= 0, got {self.k_max}")

    @property
    def times(self) -> np.ndarray:
        """Grid points, ``times[0] == 1`` and strictly increasing."""
        return _readonly(self.alpha ** np.arange(self.k_max + 1))


@dataclass(frozen=True)
class CovarianceSeed:
    """Variances ``r0`` and one-step covariances ``r1`` on one period.

    ``r0[j]`` must be strictly positive.  The parameter-dependent bound
    ``|r1[j]| <= sqrt(r0[j] * r0[(j+1) % T] * ext)`` (with ``ext`` the
    variance extension factor ``alpha**(2 T H)`` at the period seam) is
    enforced when a chain is built, see :func:`make_chain`.
    """

    r0: np.ndarray
    r1: np.ndarray

    def __post_init__(self) -> None:
        r0 = _readonly(self.r0)
        r1 = _readonly(self.r1)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)
        if r0.ndim != 1 or r1.ndim != 1 or len(r0) != len(r1) or len(r0) == 0:
            raise DomainError("r0 and r1 must be 1-d arrays of equal, nonzero length")
        if not (np.all(np.isfinite(r0)) and np.all(np.isfinite(r1))):
            raise DomainError("seed values must be finite")
        if np.any(r0 <= 0):
            raise DomainError("all variances r0[j] must be strictly positive")

    @property
    def T(self) -> int:
        return len(self.r0)

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the seed as CSV with header ``j,r0,r1`` and round-trip floats."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j", "r0", "r1"])
            for j in range(self.T):
                writer.writerow([j, repr(float(self.r0[j])), repr(float(self.r1[j]))])

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "CovarianceSeed":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["j", "r0", "r1"]:
                raise DomainError(f"seed file {path!s} must have header 'j,r0,r1'")
            rows = sorted(reader, key=lambda row: int(row["j"]))
        if [int(row["j"]) for row in rows] != list(range(len(rows))):
            raise DomainError(f"seed file {path!s} must contain rows j = 0..T-1 exactly once")
        r0 = np.array([float(row["r0"]) for row in rows])
        r1 = np.array([float(row["r1"]) for row in rows])
        return cls(r0=r0, r1=r1)


@dataclass(frozen=True)
class HChain:
    """Ratio chain derived from a seed; build with :func:`make_chain`.

    Carries the per-index ratios ``h``, the cumulative products
    ``htilde_base[j] = htilde(j)`` for ``j = 0..T-1``, and the per-period
    factor ``htilde_period = htilde(T-1)``.  When every ratio is positive a
    log-space representation is kept alongside for stable evaluation at
    large lags.
    """

    params: DsiParams
    seed: CovarianceSeed
    h: np.ndarray = field(init=False)
    htilde_base: np.ndarray = field(init=False)
    htilde_period: float = field(init=False)
    all_positive: bool = field(init=False)
    _prefix: np.ndarray = field(init=False, repr=False)
    _log_prefix: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.params.T != self.seed.T:
            raise DomainError(
                f"seed period {self.seed.T} does not match params period {self.params.T}"
            )
        h = self.seed.r1 / self.seed.r0
        base = np.cumprod(h)
        pos = bool(np.all(h > 0))
        object.__setattr__(self, "h", _readonly(h))
        object.__setattr__(self, "htilde_base", _readonly(base))
        object.__setattr__(self, "htilde_period", float(base[-1]))
        object.__setattr__(self, "all_positive", pos)
        # htilde(n - 1) for n = 0..T, and its logarithm for positive chains
        object.__setattr__(self, "_prefix", _readonly(np.concatenate(([1.0], base))))
        log_prefix = _readonly(np.concatenate(([0.0], np.cumsum(np.log(h))))) if pos else None
        object.__setattr__(self, "_log_prefix", log_prefix)

    @property
    def T(self) -> int:
        return self.params.T


def make_chain(params: DsiParams, seed: CovarianceSeed) -> HChain:
    """Build the ratio chain for ``seed`` under ``params``.

    Enforces the one-step Cauchy-Schwarz bound
    ``|r1[j]| <= sqrt(r0[j] * r0[(j+1) % T] * ext_j)`` where ``ext_j`` is 1
    except at ``j = T-1``, where the next variance lives one period up and
    carries the extension factor ``alpha**(2 T H)``.

    Raises
    ------
    DomainError
        On period mismatch or a bound violation.
    """
    chain = HChain(params=params, seed=seed)
    T = params.T
    ext = np.ones(T)
    ext[T - 1] = params.alpha ** (2 * T * params.H)
    bound = np.sqrt(seed.r0 * np.roll(seed.r0, -1) * ext)
    bad = np.nonzero(np.abs(seed.r1) > bound * (1 + _CS_SLACK))[0]
    if bad.size:
        j = int(bad[0])
        raise DomainError(
            f"|r1[{j}]| = {abs(seed.r1[j])!r} exceeds the Cauchy-Schwarz bound {bound[j]!r}"
        )
    return chain


def h_ratio(chain: HChain, j: int) -> float:
    """One-step ratio ``h[j] = r1[j] / r0[j]``, periodic in ``j`` with period T."""
    return float(chain.h[j % chain.T])


def h_tilde(chain: HChain, r):
    """Cumulative ratio product ``h[0] * ... * h[r]`` with ``h_tilde(chain, -1) == 1``.

    ``r`` is an integer or an integer array; the result is a float or an
    array of the same shape.  Lags at or beyond one period decompose as
    ``htilde(kT + n - 1) = htilde_period**k * htilde(n - 1)``; positive
    chains evaluate that in log space.

    Raises
    ------
    DomainError
        If any ``r < -1`` (the empty product is the earliest defined value).
    """
    if np.min(r) < -1:
        raise DomainError(f"h_tilde is defined for r >= -1, got {np.min(r)}")
    return _h_tilde(chain, r)


def _h_tilde(chain: HChain, r):
    """:func:`h_tilde` without the domain check, for lags ``r >= -1`` by construction."""
    k, n = divmod(r + 1, chain.T)
    if chain.all_positive:
        return np.exp(k * chain._log_prefix[-1] + chain._log_prefix[n])
    return np.power(chain.htilde_period, k) * chain._prefix[n]


def convergence_ratio(chain: HChain) -> float:
    """Per-period spectral series ratio ``alpha**(-H T) * htilde_period``.

    Spectral closed forms and their defining series converge exactly when the
    absolute value of this ratio is below 1.
    """
    p = chain.params
    return p.alpha ** (-p.H * p.T) * chain.htilde_period
