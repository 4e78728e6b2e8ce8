"""The T-dimensional embedding and its rank-one matrix covariance.

Entries of Q(n, tau) follow the one-sided factorization kernel at lag
``tau*T + j - k``.  For tau >= 1, or tau = 0 with j >= k, that coincides with
the true matrix covariance of the embedded process; at tau = 0 with j < k it
is the kernel's continuation, not the symmetric covariance (see the frozen
8-vs-4 pair in test_covariance), so Monte Carlo comparisons below stick to
the coinciding region.
"""

import math

import numpy as np
import pytest

from dtsim import (
    CovarianceSeed,
    DomainError,
    dtsim_cov,
    make_chain,
    make_params,
    q_cov,
    simple_bm_seed,
    simulate_simple_bm,
)

from conftest import NEG_CORRS, assert_exact, chain_variants, correlated_seed, exact_entry, plain_entry, triangle_residual


def test_qcov_frozen_example():
    # alpha=2, T=2, H=1: u = (1, 1), C all ones, r0 = (4, 8), period factor 2
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    q00 = q_cov(chain, 0, 0)
    assert np.array_equal(q00 / chain.seed.r0, np.ones((2, 2)))
    assert chain.htilde_period == pytest.approx(2.0, rel=1e-15)
    assert np.allclose(q00, [[4.0, 8.0], [4.0, 8.0]], rtol=1e-15)
    # Q(0,0)[0,1] is the one-sided kernel value 8, deliberately not the
    # symmetric covariance 4 (frozen discriminator pair)
    assert plain_entry(chain, 0, 0, 0, 1) == pytest.approx(q00[0, 1], rel=1e-15)
    assert dtsim_cov(chain, 1, -1) == pytest.approx(4.0, rel=1e-15)


def test_qcov_matches_kernel_route(lattice_params):
    """Matrix route vs a plain product of one-step ratios from ``nT + k`` to ``(n + tau)T + j``."""
    p = lattice_params
    for chain in chain_variants(p):
        for n in (0, 1, 2):
            for tau in (0, 1, 2, 3):
                q = q_cov(chain, n, tau)
                for j in range(p.T):
                    for k in range(p.T):
                        want = plain_entry(chain, n, tau, j, k)
                        assert q[j, k] == pytest.approx(want, rel=1e-12), (n, tau, j, k)


def test_qcov_matches_true_covariance_off_step(lattice_params):
    # for tau >= 1 every entry pairs a strictly later grid point with an
    # earlier one, so the kernel value IS the covariance
    p = lattice_params
    chain = make_chain(p, simple_bm_seed(p))
    for tau in (1, 2):
        q = q_cov(chain, 1, tau)
        for j in range(p.T):
            for k in range(p.T):
                want = dtsim_cov(chain, p.T + k, tau * p.T + j - k)
                assert q[j, k] == pytest.approx(want, rel=1e-12)


def test_qcov_negative_lag_reflection(lattice_params):
    for chain in chain_variants(lattice_params):
        l = lattice_params.l
        H = lattice_params.H
        for s in (1, 2):
            neg = q_cov(chain, 1, -s)
            pos = q_cov(chain, 1, s)
            assert np.allclose(neg, l ** (-2 * s * H) * pos.T, rtol=1e-13)


@pytest.mark.parametrize("T,n,tau", [(32, 22, -27), (32, 40, -45), (8, 60, -70), (2, 400, -410)])
def test_qcov_negative_lag_at_large_base_is_finite(T, n, tau):
    """Q(n, tau) = Q(n + tau, -tau)^T where alpha**(2nHT) alone overflows and n + tau < 0."""
    p = make_params(0.75, 2.0, T)
    for chain in chain_variants(p):
        neg = q_cov(chain, n, tau)
        mirror = q_cov(chain, n + tau, -tau).T
        assert np.all(np.isfinite(neg))
        assert np.all(np.abs(neg - mirror) <= 1e-12 * np.abs(mirror))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [21, 22])
def test_qcov_far_positive_lag_matches_exact(n):
    """At T = 32 ``alpha**(2nHT)`` and ``htilde_period**78`` leave float range in opposite directions; no entry does."""
    p = make_params(0.75, 2.0, 32)
    chain = make_chain(p, correlated_seed(p, NEG_CORRS))
    q = q_cov(chain, n, 78)
    for j in range(p.T):
        for k in range(p.T):
            assert_exact(q[j, k], exact_entry(chain, n, 78, j, k))


def test_qcov_scale_invariance(lattice_params):
    p = lattice_params
    chain = make_chain(p, simple_bm_seed(p))
    factor = p.l ** (2 * p.H)
    for tau in (0, 1, 3):
        assert np.allclose(
            q_cov(chain, 2, tau), factor * q_cov(chain, 1, tau), rtol=1e-13
        )


def test_c_matrix_rank_one_cocycle(lattice_params):
    for chain in chain_variants(lattice_params):
        C = q_cov(chain, 0, 0) / chain.seed.r0  # Q(0, 0) = C * r0
        T = lattice_params.T
        assert np.allclose(np.diag(C), 1.0, rtol=1e-15)
        sv = np.linalg.svd(C, compute_uv=False)
        assert sv[1:].max(initial=0.0) <= 1e-12 * sv[0]
        for j in range(T):
            for k in range(T):
                for m in range(T):
                    assert C[j, k] * C[k, m] == pytest.approx(C[j, m], rel=1e-12)


def test_qcov_rejects_vanishing_chain():
    p = make_params(0.5, 2.0, 2)
    seed = CovarianceSeed(r0=np.array([1.0, 1.0]), r1=np.array([0.0, 0.5]))
    chain = make_chain(p, seed)
    with pytest.raises(DomainError):
        q_cov(chain, 0, 0)


def test_gamma_frozen_and_diag():
    """The diagonal of Q(n, tau) is alpha**(2 n H T) * htilde_period**tau * r0[k]."""
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    assert q_cov(chain, 0, 1)[0, 0] == pytest.approx(8.0, rel=1e-15)  # 2 * 4
    for n in (0, 1):
        for tau in (0, 1, 2):
            want = p.alpha ** (2 * n * p.H * p.T) * chain.htilde_period ** tau * chain.seed.r0
            assert np.diagonal(q_cov(chain, n, tau)) == pytest.approx(want, rel=1e-14)


def test_gamma_is_markov_on_step_grid(lattice_params):
    """Each diagonal component is itself a scale-invariant Markov covariance."""
    p = lattice_params
    for chain in chain_variants(p):
        for k in range(p.T):
            def cov(t: float, s: float) -> float:
                i = round(math.log(t) / math.log(p.l))
                j = round(math.log(s) / math.log(p.l))
                lo, hi = min(i, j), max(i, j)
                return q_cov(chain, lo, hi - lo)[k, k]

            grid = [p.l ** n for n in range(4)]
            for a in range(4):
                for b in range(a, 4):
                    for c in range(b, 4):
                        t1, t2, t3 = grid[a], grid[b], grid[c]
                        res = triangle_residual(cov, t1, t2, t3)
                        norm = abs(cov(t1, t3) * cov(t2, t2)) + abs(cov(t1, t2) * cov(t2, t3))
                        assert abs(res) <= 1e-12 * max(1.0, norm)


def test_embedding_covariance_monte_carlo():
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    ens = simulate_simple_bm(p, n_paths=50_000, k_max=7, rng_seed=2024)
    for n, tau in ((0, 1), (1, 1), (0, 2)):
        q = q_cov(chain, n, tau)
        for j in range(2):
            for k in range(2):
                prod = ens.paths[:, (n + tau) * p.T + j] * ens.paths[:, n * p.T + k]
                est = float(prod.mean())
                se = float(prod.std(ddof=1) / math.sqrt(prod.shape[0]))
                assert abs(est - q[j, k]) <= 3 * se, (n, tau, j, k)
