"""Shared fixtures: the parameter lattice and seed builders used across the suite."""

import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from dtsim import CovarianceSeed, DsiParams, cov_table, make_chain, make_params, simple_bm_seed, simulate_simple_bm

ALPHAS = (1.5, 2.0, 3.0)
PERIODS = (1, 2, 4)
HURSTS = (0.3, 0.5, 0.75, 1.0)

LATTICE = tuple(
    make_params(H, alpha, T) for alpha in ALPHAS for T in PERIODS for H in HURSTS
)


def lattice_ids(p: DsiParams) -> str:
    return f"a{p.alpha}-T{p.T}-H{p.H}"


@pytest.fixture(params=LATTICE, ids=lattice_ids)
def lattice_params(request) -> DsiParams:
    return request.param


def correlated_seed(params: DsiParams, corrs) -> CovarianceSeed:
    """Seed with r0 from the simple-BM chain and one-step correlations ``corrs`` (repeated to length T).

    ``r1[j] = corrs[j] * sqrt(r0[j] r0[j+1] ext_j)``, the bound of
    :class:`HChain`, so each corr in [-1, 1] gives an admissible seed whose
    chain correlations ``c`` are ``corrs`` to rounding.
    """
    r0 = simple_bm_seed(params).r0
    ext = np.ones(params.T)
    ext[-1] = params.alpha ** (2 * params.T * params.H)
    return CovarianceSeed(r0=r0, r1=np.resize(corrs, params.T) * np.sqrt(r0 * np.roll(r0, -1) * ext))


def seed_shape(T: int, rho: float, alpha: float = 2.0, H: float = 0.75) -> CovarianceSeed:
    """Unit variances with per-period ratio ``rho``: near ``rho = 1`` the series needs long lags."""
    r1 = np.full(T, rho ** (1.0 / T))
    r1[-1] *= alpha ** (H * T)
    return CovarianceSeed(r0=np.ones(T), r1=r1)


#: Correlations of the negative-ratio seed in :func:`chain_variants`.
NEG_CORRS = (-0.4, 0.7, -0.25, 0.55)


def chain_variants(params: DsiParams):
    """A simple-BM chain plus two generic admissible chains (one with a negative h)."""
    yield make_chain(params, simple_bm_seed(params))
    yield make_chain(params, correlated_seed(params, (0.6, 0.35, 0.8, 0.5)))
    yield make_chain(params, correlated_seed(params, NEG_CORRS))


def plain_entry(chain, b: int, s: int, j: int, r: int) -> float:
    """``alpha**(2THb) * htilde_period**s * A[j, r]`` as a plain float product, apart from the package's kernel.

    The one-step ratios ``h[i % T]`` for ``i = r .. sT + j - 1`` carry grid
    point ``bT + r`` to ``(b + s)T + j``; when ``sT + j < r`` the product
    runs the other way and divides.
    """
    p = chain.params
    lo, hi = sorted((r, s * p.T + j))
    ratio = math.prod(chain.h[i % p.T] for i in range(lo, hi))
    if s * p.T + j < r:
        ratio = 1 / ratio
    return ratio * p.alpha ** (2 * p.T * p.H * b) * chain.seed.r0[r]


def exact_entry(chain, b: int, s: int, j: int, r: int) -> Fraction:
    """``alpha**(2THb) * htilde_period**s * A[j, r]`` in rational arithmetic on the chain's own floats.

    Exact when ``2THb`` is an integer, as for H = 0.75 at even T.
    """
    p = chain.params
    e = Fraction(2 * p.T * p.H) * b
    assert e.denominator == 1, f"2THb = {e} is not an integer"
    pre, r0 = chain._prefix, chain.seed.r0
    return (Fraction(p.alpha) ** int(e) * Fraction(chain.htilde_period) ** s
            * Fraction(pre[j]) / Fraction(pre[r]) * Fraction(r0[r]))


def exact_cov(chain, n: int, tau: int) -> Fraction:
    """Exact ``Cov(X(alpha^(n+tau)), X(alpha^n))``: earlier point ``bT + r``, later ``(b + s)T + j``."""
    b, r = divmod(min(n, n + tau), chain.T)
    s, j = divmod(r + abs(tau), chain.T)
    return exact_entry(chain, b, s, j, r)


def assert_exact(got, want: Fraction, rtol: float = 1e-13) -> None:
    """``got`` is within ``rtol`` of ``want`` (plus one subnormal step), or a signed ``inf`` past float range."""
    got = float(got)
    if abs(want) > sys.float_info.max:
        assert got == (math.inf if want > 0 else -math.inf), got
    else:
        assert math.isfinite(got), (got, float(want))
        assert abs(Fraction(got) - want) <= Fraction(rtol) * abs(want) + Fraction(2) ** -1074, (got, float(want))


def simulate_brownian(params: DsiParams, n_paths: int, k_max: int, rng_seed: int = 0):
    """Brownian motion sampled at alpha**k: simple BM at ``H = 1/2``, as ``dtsim simulate --process brownian``."""
    return simulate_simple_bm(make_params(0.5, params.alpha, params.T), n_paths, k_max, rng_seed)


def triangle_residual(cov, t1, t2, t3):
    """Markov triangle residual ``cov(t1, t3) cov(t2, t2) - cov(t1, t2) cov(t2, t3)`` for ``t1 <= t2 <= t3``.

    Zero exactly when the covariance factors as ``G(min) K(max)``, the
    defining property of wide-sense Markov processes.
    """
    return cov(t1, t3) * cov(t2, t2) - cov(t1, t2) * cov(t2, t3)


def triangle_residuals(chain, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Markov triangle residuals over every grid-index triple ``i <= j <= k <= k_max``, and their norms.

    The residual is ``C[i,k] C[j,j] - C[i,j] C[j,k]`` and its norm
    ``|C[i,k] C[j,j]| + |C[i,j] C[j,k]|``, with ``C`` one broadcast
    ``cov_table`` table (symmetric bit for bit), so they equal those of
    scalar ``dtsim_cov`` calls at the same points.
    """
    idx = np.arange(k_max + 1)
    table = cov_table(chain, np.minimum.outer(idx, idx), np.abs(np.subtract.outer(idx, idx)))
    cov = lambda a, b: table[a, b]
    i, j, k = np.array(list(combinations_with_replacement(idx, 3))).T
    return triangle_residual(cov, i, j, k), np.abs(cov(i, k) * cov(j, j)) + np.abs(cov(i, j) * cov(j, k))
