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

Every covariance entry is ``alpha**(2 T H b) * htilde_period**s * A[j, r]``
for an earlier grid point ``bT + r``, a later one ``(b + s)T + j`` and the
lag-0 matrix ``A[j, r] = htilde(j-1) / htilde(r-1) * r0[r]``.  One private
kernel forms both powers as (mantissa, exponent of 2) pairs, so an entry is
``inf`` or 0 only where it leaves float range itself, however far its
factors do.
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
    "CovarianceSeed",
    "HChain",
    "make_params",
    "make_chain",
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


@dataclass(frozen=True, eq=False)
class CovarianceSeed:
    """Variances ``r0`` and one-step covariances ``r1`` on one period.

    ``r0[j]`` must be strictly positive.  The parameter-dependent bound
    ``|r1[j]| <= sqrt(r0[j] * r0[(j+1) % T] * ext)`` (with ``ext`` the
    variance extension factor ``alpha**(2 T H)`` at the period seam) is
    enforced when a chain is built, see :class:`HChain`.  Equality and
    hashing are by identity, as the fields are arrays.
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
            reader.fieldnames = ["j", "r0", "r1"]  # the check above strips spaces; so must the row keys
            try:
                rows = sorted((int(row["j"]), float(row["r0"]), float(row["r1"])) for row in reader)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"seed file {path!s} has a missing or malformed cell: {exc}") from None
        if [row[0] for row in rows] != list(range(len(rows))):
            raise DomainError(f"seed file {path!s} must contain rows j = 0..T-1 exactly once")
        _, r0, r1 = np.array(rows, dtype=float).reshape(-1, 3).T
        return cls(r0=r0, r1=r1)


@dataclass(frozen=True, eq=False)
class HChain:
    """Ratio chain derived from a seed.

    Equality and hashing are by identity, as for :class:`CovarianceSeed`.

    Carries the per-index ratios ``h``, the cumulative products
    ``htilde_base[j] = htilde(j)`` for ``j = 0..T-1``, and the per-period
    factor ``htilde_period = htilde(T-1)``.  Building one enforces the
    one-step Cauchy-Schwarz bound
    ``|r1[j]| <= sqrt(r0[j] * r0[(j+1) % T] * ext_j)`` where ``ext_j`` is 1
    except at ``j = T-1``, where the next variance lives one period up and
    carries the extension factor ``alpha**(2 T H)``.

    Raises
    ------
    DomainError
        On period mismatch or a bound violation.
    """

    params: DsiParams
    seed: CovarianceSeed
    h: np.ndarray = field(init=False)
    htilde_base: np.ndarray = field(init=False)
    htilde_period: float = field(init=False)
    _prefix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.params.T != self.seed.T:
            raise DomainError(
                f"seed period {self.seed.T} does not match params period {self.params.T}"
            )
        p, r0, r1 = self.params, self.seed.r0, self.seed.r1
        ext = np.ones(p.T)
        ext[-1] = p.alpha ** (2 * p.T * p.H)
        bound = np.sqrt(r0 * np.roll(r0, -1) * ext)
        bad = np.nonzero(np.abs(r1) > bound * (1 + _CS_SLACK))[0]
        if bad.size:
            j = int(bad[0])
            raise DomainError(f"|r1[{j}]| = {abs(float(r1[j]))} exceeds the Cauchy-Schwarz bound {float(bound[j])}")
        h = r1 / r0
        base = np.cumprod(h)
        object.__setattr__(self, "h", _readonly(h))
        object.__setattr__(self, "htilde_base", _readonly(base))
        object.__setattr__(self, "htilde_period", float(base[-1]))
        # htilde(n - 1) for n = 0..T
        object.__setattr__(self, "_prefix", _readonly(np.concatenate(([1.0], base))))

    @property
    def T(self) -> int:
        return self.params.T


def make_chain(params: DsiParams, seed: CovarianceSeed) -> HChain:
    """The ratio chain for ``seed`` under ``params``: ``HChain(params, seed)``, which checks the seed."""
    return HChain(params=params, seed=seed)


def _pow2(x: float, e):
    """``x**e`` over an exponent array ``e`` as ``(mantissa, exponent of 2)`` that never leaves range.

    ``float_power(|x|, e / 2**h)`` is taken with the fewest halvings ``h``
    that keep it a normal float, so ``h = 0`` and the mantissa is that of
    ``x**e`` itself wherever ``x**e`` is one.  It is then squared back ``h``
    times with an ``frexp`` renormalisation after each squaring.  The sign of
    a negative ``x`` at odd ``e`` is applied last.
    """
    lg = e * (math.log2(abs(x)) if x else 0.0)  # log2 |x**e|
    h = np.frexp(np.maximum(lg / 1024, lg / -1022))[1]  # fewest h with -1022 < lg / 2**h < 1024
    h = h * (h > 0)
    m, k = np.frexp(np.float_power(abs(x), np.ldexp(e, -h)))
    for i in range(np.maximum.reduce(h, axis=None, initial=0)):
        sq = h > i
        m, dk = np.frexp(np.where(sq, m * m, m))
        k = np.where(sq, 2 * k, k).astype(np.int64) + dk  # 2**h-fold exponents outgrow int32
    return (np.where(e % 2 == 1, -m, m) if x < 0 else m), k


def _cov_kernel(params: DsiParams, period: float, b, s, a):
    """``alpha**(2 T H b) * period**s * a`` over broadcast arrays, ``inf`` or 0 only out of float range.

    With ``period = htilde_period`` and ``a = A[j, r]`` this is the
    covariance between the grid points ``bT + r`` and ``(b + s)T + j``
    (``s >= 0``): the one place where either power is formed.  Where ``2TH``
    is not an integer, the float ``e`` of the exponent ``2THb`` may be
    rounded, so the remainder of that rounding, ``rest``, is carried apart:
    it is exact for ``|2Tb| < 2**26``, as ``H = hi + lo`` in 26-bit halves
    makes ``2Tb hi`` and ``2Tb lo`` exact, and ``alpha**rest`` is applied to
    the mantissa of ``alpha**e``, whose bits stay as they are where ``e`` is
    exact.
    """
    e = 2 * params.T * params.H * b
    m_l, k_l = _pow2(params.alpha, e)
    num, den = params.H.as_integer_ratio()
    if (2 * params.T * num) % den:
        m, x = math.frexp(params.H)
        hi = math.ldexp(round(m * 2**26), x - 26)
        rest = (2 * params.T * b * hi - e) + 2 * params.T * b * (params.H - hi)
        m_l = m_l + m_l * np.expm1(rest * math.log(params.alpha))
    m_h, k_h = _pow2(period, s)
    with np.errstate(over="ignore"):  # inf is the cell out of range
        return np.ldexp(m_l * m_h * a, k_l + k_h)


def convergence_ratio(chain: HChain) -> float:
    """Per-period spectral series ratio ``alpha**(-H T) * htilde_period``.

    Spectral closed forms and their defining series converge exactly when the
    absolute value of this ratio is below 1.
    """
    p = chain.params
    return p.alpha ** (-p.H * p.T) * chain.htilde_period
