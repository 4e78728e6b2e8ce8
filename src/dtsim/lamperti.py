"""Shift, dilation, and the quasi-Lamperti transform pair on sampled paths.

The transforms move between a stationary-side function y(t) sampled at integer
points and a scale-invariant-side function x(t) sampled at powers of alpha:

    forward:  x(t) = t**H * y(log_alpha t),   t = alpha**n
    inverse:  y(n) = alpha**(-n H) * x(alpha**n)

Renormalized dilation by a grid-compatible factor k = alpha**m on the
scale-invariant side corresponds, through the pair, to a plain shift by m on
the stationary side.  ``verify_commutation`` measures that correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _GRID_RTOL, _readonly, _snap_log
from .errors import DomainError, GridError

__all__ = [
    "SampledFunction",
    "evaluate",
    "shift",
    "dilate",
    "lamperti_forward",
    "lamperti_inverse",
    "verify_commutation",
]

@dataclass(frozen=True)
class SampledFunction:
    """A function known at finitely many strictly increasing sample points."""

    domain: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        domain = _readonly(self.domain)
        values = _readonly(self.values)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)
        if domain.ndim != 1 or values.ndim != 1 or len(domain) != len(values):
            raise DomainError("domain and values must be 1-d arrays of equal length")
        if len(domain) == 0:
            raise DomainError("a sampled function needs at least one sample")
        if not np.all(np.isfinite(domain)):
            raise DomainError("sample points must be finite")
        if len(domain) > 1 and not np.all(np.diff(domain) > 0):
            raise DomainError("sample points must be strictly increasing")


def evaluate(f: SampledFunction, t: float, rtol: float = _GRID_RTOL) -> float:
    """Value at sample point ``t`` (matched within ``rtol`` relative)."""
    i = int(np.argmin(np.abs(f.domain - t)))
    if abs(f.domain[i] - t) > rtol * max(1.0, abs(t)):
        raise DomainError(f"{t} is not a sample point of this function")
    return float(f.values[i])


def shift(f: SampledFunction, tau: float) -> SampledFunction:
    """Time shift: the result evaluated at t equals f(t + tau).

    Implemented by moving the sample points (values untouched), so shifts
    compose exactly and need no interpolation.
    """
    return SampledFunction(domain=f.domain - tau, values=f.values)


def dilate(f: SampledFunction, H: float, lam: float) -> SampledFunction:
    """Renormalized dilation: the result evaluated at t equals lam**(-H) f(lam t)."""
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"dilation factor must be positive, got {lam}")
    return SampledFunction(domain=f.domain / lam, values=lam ** (-H) * f.values)


def lamperti_forward(y: SampledFunction, H: float, alpha: float) -> SampledFunction:
    """Map a stationary-side sample y(u) to x(alpha**u) = (alpha**u)**H y(u).

    Sample points u may be any reals; they land on the positive half-line at
    alpha**u.  Raises DomainError unless alpha > 1 and H > 0.
    """
    if not (alpha > 1 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be > 1, got {alpha}")
    if not (H > 0 and math.isfinite(H)):
        raise DomainError(f"H must be > 0, got {H}")
    t = alpha ** y.domain
    return SampledFunction(domain=t, values=t ** H * y.values)


def lamperti_inverse(x: SampledFunction, H: float, alpha: float) -> SampledFunction:
    """Map x sampled at integer powers alpha**n back to y(n) = alpha**(-nH) x(alpha**n).

    Every sample point must be alpha**n for an integer n within 1e-9 relative
    tolerance on the log scale; the exponents are snapped to those integers so
    a forward/inverse round trip reproduces an integer grid exactly.

    Raises DomainError for nonpositive sample points or points off the
    integer-power grid.
    """
    if not (alpha > 1 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be > 1, got {alpha}")
    if not (H > 0 and math.isfinite(H)):
        raise DomainError(f"H must be > 0, got {H}")
    if np.any(x.domain <= 0):
        raise DomainError("inverse transform needs positive sample points")
    n, on = _snap_log(x.domain, alpha)
    if not on.all():
        bad = float(x.domain[int(np.argmin(on))])
        raise DomainError(
            f"sample point {bad!r} is not an integer power of alpha={alpha} "
            f"within {_GRID_RTOL} relative"
        )
    return SampledFunction(domain=n, values=alpha ** (-n * H) * x.values)


def verify_commutation(y: SampledFunction, H: float, alpha: float, k: float) -> float:
    """Max discrepancy between inverse∘dilate(k)∘forward and shift by log_alpha k.

    ``k`` must be a power of alpha with integer exponent (within 1e-9 relative
    on the log scale), otherwise GridError: only grid-compatible dilations map
    to shifts the sampled grid can represent.
    """
    if not (k > 0 and math.isfinite(k)):
        raise GridError(f"dilation factor must be positive, got {k}")
    m, on = _snap_log(k, alpha)
    if not on:
        raise GridError(f"k={k} is not an integer power of alpha={alpha}")
    lhs = lamperti_inverse(dilate(lamperti_forward(y, H, alpha), H, k), H, alpha)
    rhs = shift(y, float(m))
    if len(lhs.domain) != len(rhs.domain) or np.any(
        np.abs(lhs.domain - rhs.domain) > _GRID_RTOL * np.maximum(1.0, np.abs(rhs.domain))
    ):
        raise GridError("transformed sample grids do not align")
    return float(np.max(np.abs(lhs.values - rhs.values)))
