import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsim import (
    CovarianceSeed,
    DomainError,
    HChain,
    convergence_ratio,
    cov_table,
    make_chain,
    make_params,
    simple_bm_seed,
)

from conftest import NEG_CORRS, assert_exact, chain_variants, correlated_seed


def test_params_validation():
    with pytest.raises(DomainError):
        make_params(H=0.0, alpha=2.0, T=1)
    with pytest.raises(DomainError):
        make_params(H=-0.5, alpha=2.0, T=1)
    with pytest.raises(DomainError):
        make_params(H=0.5, alpha=1.0, T=1)
    with pytest.raises(DomainError):
        make_params(H=0.5, alpha=0.5, T=2)
    with pytest.raises(DomainError):
        make_params(H=0.5, alpha=2.0, T=0)
    with pytest.raises(DomainError):
        make_params(H=0.5, alpha=2.0, T=2.5)  # type: ignore[arg-type]
    with pytest.raises(DomainError):
        make_params(H=math.inf, alpha=2.0, T=1)


def test_params_dilation_scale_derived():
    p = make_params(0.75, 2.0, 3)
    assert p.l == 8.0
    # frozen dataclass: the scale cannot be patched out of sync
    with pytest.raises(AttributeError):
        p.alpha = 3.0  # type: ignore[misc]


def test_seed_validation():
    CovarianceSeed(r0=np.array([1.0, 2.0]), r1=np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        CovarianceSeed(r0=np.array([1.0, 0.0]), r1=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        CovarianceSeed(r0=np.array([1.0, -2.0]), r1=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        CovarianceSeed(r0=np.array([1.0]), r1=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        CovarianceSeed(r0=np.array([]), r1=np.array([]))
    with pytest.raises(DomainError):
        CovarianceSeed(r0=np.array([1.0, math.nan]), r1=np.array([0.5, 0.5]))


def test_seed_arrays_are_readonly():
    s = CovarianceSeed(r0=np.array([1.0, 2.0]), r1=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        s.r0[0] = 9.0


def test_seed_csv_roundtrip(tmp_path):
    """repr-formatted floats survive a write/read cycle bit for bit."""
    p = make_params(0.75, 1.5, 4)
    seed = correlated_seed(p, (0.6, -0.35, 0.8, 0.5))
    path = tmp_path / "seed.csv"
    seed.to_csv(path)
    back = CovarianceSeed.from_csv(path)
    assert np.array_equal(back.r0, seed.r0)
    assert np.array_equal(back.r1, seed.r1)
    header = path.read_text().splitlines()[0]
    assert header == "j,r0,r1"


def test_seed_csv_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,c\n0,1.0,0.5\n")
    with pytest.raises(DomainError):
        CovarianceSeed.from_csv(bad_header)
    gap = tmp_path / "gap.csv"
    gap.write_text("j,r0,r1\n0,1.0,0.5\n2,1.0,0.5\n")
    with pytest.raises(DomainError):
        CovarianceSeed.from_csv(gap)


def test_simple_bm_chain_frozen_values():
    # alpha=2, T=2, H=1: r0 = (4, 8), h = (1, 2), per-period product 2,
    # convergence ratio 2**(-2) * 2 = 0.5.  All independently hand-checked
    # from Cov = lam**((n+m)(H-1/2)) * min(t, s) on the grid 1, 2, 4, ...
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    assert np.allclose(chain.seed.r0, [4.0, 8.0], rtol=0, atol=0)
    assert chain.h == pytest.approx((1.0, 2.0), rel=1e-15)
    assert chain.htilde_period == pytest.approx(2.0, rel=1e-15)
    assert convergence_ratio(chain) == pytest.approx(0.5, rel=1e-15)


def test_simple_bm_convergence_ratio_is_alpha_power(lattice_params):
    """For the simple-BM seed the ratio collapses to alpha**(-T/2) for every H."""
    chain = make_chain(lattice_params, simple_bm_seed(lattice_params))
    expected = lattice_params.alpha ** (-lattice_params.T / 2)
    assert convergence_ratio(chain) == pytest.approx(expected, rel=1e-12)


def h_tilde(chain, r):
    """Cumulative ratio product ``htilde(r) = h[0] * ... * h[r]`` (``htilde(-1) = 1``) from the covariance kernel.

    ``Cov(X(alpha^(r+1)), X(1)) = htilde(r) * r0[0]``: one ``cov_table`` entry at base index 0.
    """
    return cov_table(chain, 0, np.asarray(r) + 1) / chain.seed.r0[0]


def test_h_tilde_small_lags():
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    assert h_tilde(chain, -1) == 1.0
    assert h_tilde(chain, 0) == pytest.approx(1.0, rel=1e-15)
    assert h_tilde(chain, 1) == pytest.approx(2.0, rel=1e-15)
    assert h_tilde(chain, 3) == pytest.approx(4.0, rel=1e-15)  # 2 periods


def test_h_tilde_matches_raw_product(lattice_params):
    for corrs in ((0.6, 0.35, 0.8, 0.5), (-0.4, 0.7, -0.25, 0.55)):
        chain = make_chain(lattice_params, correlated_seed(lattice_params, corrs))
        for r in range(-1, 5 * lattice_params.T):
            raw = float(np.prod([chain.h[j % chain.T] for j in range(r + 1)])) if r >= 0 else 1.0
            assert h_tilde(chain, r) == pytest.approx(raw, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("T", [2, 8, 32])
def test_h_tilde_far_lags_match_exact(T):
    """Several hundred periods out, every in-range ``htilde(r) * r0[0]`` is within 1e-13 of exact rational arithmetic.

    The covariance at base index 0 is read as it is, not divided by ``r0[0]``,
    so an entry past float range is ``inf`` where the exact product is.
    """
    p = make_params(0.75, 2.0, T)
    k, n = np.meshgrid([200, 300, 500, 700], np.arange(T))
    for chain in chain_variants(p):
        with np.errstate(over="ignore"):
            got = cov_table(chain, 0, k * T + n)
        r0 = Fraction(chain.seed.r0[0])
        for kk, nn, g in zip(k.ravel().tolist(), n.ravel().tolist(), got.ravel()):
            assert_exact(g, Fraction(chain.htilde_period) ** kk * Fraction(chain._prefix[nn]) * r0)


@st.composite
def admissible_chains(draw):
    T = draw(st.integers(min_value=1, max_value=4))
    alpha = draw(st.sampled_from([1.5, 2.0, 3.0]))
    H = draw(st.floats(min_value=0.2, max_value=1.2))
    p = make_params(H, alpha, T)
    r0 = np.array([draw(st.floats(min_value=0.1, max_value=10.0)) for _ in range(T)])
    mag = st.floats(min_value=0.05, max_value=0.95)
    corr = np.array(
        [draw(mag) * (1 if draw(st.booleans()) else -1) for _ in range(T)]
    )
    ext = np.ones(T)
    ext[T - 1] = alpha ** (2 * T * H)
    r1 = corr * np.sqrt(r0 * np.roll(r0, -1) * ext)
    return make_chain(p, CovarianceSeed(r0=r0, r1=r1))


@settings(max_examples=50, deadline=None)
@given(admissible_chains(), st.integers(min_value=0, max_value=40))
def test_h_tilde_period_multiplicative(chain, r):
    """htilde(r + T) == htilde_period * htilde(r), the backbone of every closed form."""
    lhs = h_tilde(chain, r + chain.T)
    rhs = chain.htilde_period * h_tilde(chain, r)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=50, deadline=None)
@given(admissible_chains())
def test_h_tilde_log_path_consistent(chain):
    # the extended-range kernel and a plain power must agree where both apply
    r = 7 * chain.T + chain.T - 1
    k, n = divmod(r + 1, chain.T)
    plain = chain.htilde_period ** k * (1.0 if n == 0 else chain.htilde_base[n - 1])
    assert h_tilde(chain, r) == pytest.approx(plain, rel=1e-12, abs=1e-300)


def test_cauchy_schwarz_bound_enforced():
    p = make_params(0.75, 2.0, 2)
    sbm = simple_bm_seed(p)
    r1 = np.array(sbm.r1)
    r1[0] = math.sqrt(sbm.r0[0] * sbm.r0[1]) * 1.001
    with pytest.raises(DomainError):
        make_chain(p, CovarianceSeed(r0=sbm.r0, r1=r1))


def test_cauchy_schwarz_seam_uses_extension_factor():
    # at j = T-1 the bound involves the next period's variance, which is
    # alpha**(2 T H) times r0[0]; without that factor this seed would fail
    p = make_params(2.0, 2.0, 1)
    seed = CovarianceSeed(r0=np.array([1.0]), r1=np.array([3.9]))
    chain = make_chain(p, seed)  # bound is sqrt(1 * 1 * 2**4) = 4
    assert chain.h[0] == pytest.approx(3.9)
    with pytest.raises(DomainError):
        make_chain(p, CovarianceSeed(r0=np.array([1.0]), r1=np.array([4.1])))


def test_cauchy_schwarz_boundary_seed_accepted():
    """Perfect correlation sits exactly on the bound and must not be rejected."""
    p = make_params(0.5, 2.0, 1)
    seed = CovarianceSeed(r0=np.array([1.0]), r1=np.array([math.sqrt(2.0)]))
    chain = make_chain(p, seed)
    assert convergence_ratio(chain) == pytest.approx(1.0, abs=1e-15)


def test_directly_built_chain_checks_the_cauchy_schwarz_bound():
    """``HChain`` itself enforces the bound, not only ``make_chain``, and names the numbers as plain floats."""
    p = make_params(0.75, 2.0, 2)
    seed = CovarianceSeed(r0=np.array([1.0, 1.0]), r1=np.array([5.0, 1.0]))
    for build in (HChain, make_chain):
        with pytest.raises(DomainError, match=r"^\|r1\[0\]\| = 5\.0 exceeds the Cauchy-Schwarz bound 1\.0$"):
            build(p, seed)


@pytest.mark.parametrize("corrs", [(0.6,), (0.6, -0.35), (0.6, 0.35, -0.8), NEG_CORRS, (1.0, -1.0, 1.0, -1.0)],
                         ids=["T1", "T2", "T3", "neg-T4", "boundary-T4"])
def test_correlations_round_trip(corrs):
    """The chain's one-step correlations ``c`` are the ``corrs`` a seed was built from, to rounding, on the
    Cauchy-Schwarz boundary too: ``correlated_seed`` and ``HChain`` state one rule."""
    for alpha, H in ((2.0, 0.75), (1.5, 0.3), (3.0, 1.0)):
        p = make_params(H, alpha, len(corrs))
        np.testing.assert_allclose(make_chain(p, correlated_seed(p, corrs)).c, corrs, rtol=3e-16, atol=0)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_correlations_of_variances_whose_products_leave_float_range(scale):
    """Variances of 1e-170 or 1e160 put ``r0[0] r0[1]`` out of float range: ``c`` is still the seed's ratio to
    rounding, and an ``r1`` past the bound is rejected against its finite value, with no numpy warning."""
    p = make_params(0.75, 2.0, 2)
    r0 = np.array([scale, scale])
    seam = math.sqrt(p.alpha ** (2 * p.T * p.H))
    c = make_chain(p, CovarianceSeed(r0=r0, r1=[0.5 * scale, -0.25 * scale * seam])).c
    np.testing.assert_allclose(c, [0.5, -0.25], rtol=3e-16, atol=0)
    message = rf"^\|r1\[0\]\| = {re.escape(repr(2 * scale))} exceeds the Cauchy-Schwarz bound {re.escape(repr(scale))}$"
    with pytest.raises(DomainError, match=message):
        make_chain(p, CovarianceSeed(r0=r0, r1=[2 * scale, 0.0]))


def test_chain_period_mismatch():
    p = make_params(0.5, 2.0, 2)
    with pytest.raises(DomainError):
        make_chain(p, CovarianceSeed(r0=np.array([1.0]), r1=np.array([0.5])))
