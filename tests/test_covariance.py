"""Closed-form covariances checked against the independent min-kernel oracle.

The oracle is ``simple_bm_cov``: for piecewise-rescaled Brownian motion the
covariance is ``lam**((n+m)(H-1/2)) * min(t, s)`` with annulus indices n, m
computed directly from the time points.  It never touches the h-chain, so
agreement with ``dtsim_cov`` exercises the whole ratio-product route.
"""

import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtsim import (
    CovarianceSeed,
    DomainError,
    annulus_index,
    cov_table,
    dtsim_cov,
    empirical_cov,
    make_chain,
    make_params,
    pc_counterpart_cov,
    q_cov,
    simple_bm_cov,
    simple_bm_seed,
    simulate_simple_bm,
)

from dtsim.simulate import BATCH_SIZE
from dtsim import verify
from dtsim.verify import _check_triangle

from conftest import NEG_CORRS, assert_exact, chain_variants, correlated_seed, exact_cov, triangle_residual, triangle_residuals


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_annulus_index():
    assert annulus_index(1.0, 4.0) == 1
    assert annulus_index(3.9, 4.0) == 1
    assert annulus_index(4.0, 4.0) == 2
    assert annulus_index(16.0, 4.0) == 3
    # snapping: a grid point perturbed at the 1e-12 level still lands on it
    assert annulus_index(4.0 * (1 - 1e-12), 4.0) == 2
    # arrays give the same indices; an overflowed time is beyond every annulus
    t = np.array([1.0, 3.9, 4.0, 16.0, 4.0 * (1 - 1e-12), math.inf])
    assert annulus_index(t, 4.0).tolist() == [1, 1, 2, 3, 2, math.inf]


def test_oracle_frozen_values():
    # alpha=2, T=2, H=1 (lam = 4): hand-computed from the min kernel
    assert simple_bm_cov(1.0, 1.0, 1.0, 4.0) == pytest.approx(4.0, rel=1e-15)
    assert simple_bm_cov(2.0, 2.0, 1.0, 4.0) == pytest.approx(8.0, rel=1e-15)
    assert simple_bm_cov(4.0, 1.0, 1.0, 4.0) == pytest.approx(8.0, rel=1e-15)
    assert simple_bm_cov(2.0, 1.0, 1.0, 4.0) == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(DomainError):
        simple_bm_cov(0.5, 1.0, 1.0, 4.0)


def test_dtsim_cov_frozen_values():
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    assert dtsim_cov(chain, 0, 0) == pytest.approx(4.0, rel=1e-15)
    assert dtsim_cov(chain, 1, 0) == pytest.approx(8.0, rel=1e-15)
    assert dtsim_cov(chain, 0, 2) == pytest.approx(8.0, rel=1e-15)
    # negative lag via reflection: R_1(-1) = lam**(-2H) R_2(1)
    assert dtsim_cov(chain, 1, -1) == pytest.approx(4.0, rel=1e-15)


def test_oracle_equivalence_lattice(lattice_params):
    """dtsim_cov must reproduce the min-kernel oracle at every grid pair."""
    p = lattice_params
    chain = make_chain(p, simple_bm_seed(p))
    lam = p.l
    worst = 0.0
    for n in range(2 * p.T):
        for tau in range(-3 * p.T, 3 * p.T + 1):
            if n + tau < 0:
                continue
            want = simple_bm_cov(p.alpha ** (n + tau), p.alpha ** n, p.H, lam)
            got = dtsim_cov(chain, n, tau)
            worst = max(worst, _rel(got, want))
    assert worst <= 1e-12


@pytest.mark.parametrize("m", [800, 1000])
def test_long_reflected_lags_match_mirror(m):
    """R_m(-m) = R_0(m) where alpha**(-2kTH) alone underflows and the kernel's power overflows."""
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    want = cov_table(chain, 0, m)
    assert cov_table(chain, np.array([m]), np.array([-m]))[0] == pytest.approx(want, rel=1e-12)
    assert dtsim_cov(chain, m, -m) == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T,n,tau", [(32, 315, 2520), (32, 308, 2464), (2, 686, 686), (2, 900, 8002)])
def test_far_entries_match_exact(T, n, tau):
    """Far out ``alpha**(2THb)`` and ``htilde_period**s`` leave float range where the entry does not.

    The last case halves both powers at ``htilde_period < 0`` and the odd
    period count ``s = 4001``, so its sign must survive the squarings.
    """
    p = make_params(0.75, 2.0, T)
    chain = make_chain(p, correlated_seed(p, NEG_CORRS))
    got = cov_table(chain, n, tau)
    assert_exact(got, exact_cov(chain, n, tau))
    assert cov_table(chain, n + tau, -tau) == got == dtsim_cov(chain, n, tau)


def test_scalar_past_float_range_is_inf():
    """A scalar entry takes the array route: ``inf``, the documented cell, with no numpy overflow warning
    and no OverflowError."""
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = dtsim_cov(chain, 3000, 0)
        array = cov_table(chain, np.array([3000]), np.array([0]))
    assert scalar == array[0] == math.inf


def test_symmetry(lattice_params):
    """R_{n+tau}(-tau) == R_n(tau) for every admissible chain, not just simple BM."""
    for chain in chain_variants(lattice_params):
        for n in range(2 * lattice_params.T):
            for tau in range(0, 3 * lattice_params.T + 1):
                a = dtsim_cov(chain, n, tau)
                b = dtsim_cov(chain, n + tau, -tau)
                assert _rel(a, b) <= 1e-12, (n, tau)


def test_scale_extension(lattice_params):
    # R_{n+T}(tau) = alpha**(2 T H) R_n(tau): the variance grows with the
    # 2H power of the scale, not the 2nd power
    p = lattice_params
    factor = p.alpha ** (2 * p.T * p.H)
    for chain in chain_variants(p):
        for n in range(p.T):
            for tau in range(0, 2 * p.T + 1):
                assert dtsim_cov(chain, n + p.T, tau) == pytest.approx(
                    factor * dtsim_cov(chain, n, tau), rel=1e-12
                )


def test_kernel_cov_matches_covariance_at_nonnegative_lags(lattice_params):
    """The one-sided kernel at ``(n, tau >= 0)``, read off ``q_cov``, is the covariance."""
    T = lattice_params.T
    for chain in chain_variants(lattice_params):
        for n in range(2 * T):
            for tau in range(0, 2 * T + 1):
                b, r = divmod(n, T)
                s, j = divmod(r + tau, T)
                assert q_cov(chain, b, s)[j, r] == pytest.approx(
                    dtsim_cov(chain, n, tau), rel=1e-12
                )


def test_kernel_cov_is_one_sided_at_negative_lags():
    """At negative lags the ratio continuation is NOT the symmetric covariance.

    The one-sided kernel continues R_n(tau) = htilde(n+tau-1)/htilde(n-1) R_n(0)
    below tau = 0; the true covariance reflects instead.  For simple BM at
    alpha=2, T=2, H=1 the kernel at ``(n, tau) = (1, -1)``, which is
    ``q_cov(chain, 0, 0)[0, 1]``, gives 8 where the covariance is 4, a frozen
    discriminator pair that keeps the two routes from being silently conflated.
    """
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    assert q_cov(chain, 0, 0)[0, 1] == pytest.approx(8.0, rel=1e-15)
    assert dtsim_cov(chain, 1, -1) == pytest.approx(4.0, rel=1e-15)


def test_negative_lag_reflection_identity(lattice_params):
    # R_n(-(kT - v)) = lam**(-2kH) R_{n+v}(kT - v) is how negative lags are
    # defined; spot-check it against direct positive-lag evaluations.
    p = lattice_params
    for chain in chain_variants(p):
        for n in range(p.T, 3 * p.T):
            for k in (1, 2):
                for v in range(p.T):
                    tau = -(k * p.T - v)
                    if n + tau < 0 or tau >= 0:
                        continue
                    lhs = dtsim_cov(chain, n, tau)
                    rhs = p.l ** (-2 * k * p.H) * dtsim_cov(chain, n + v, k * p.T - v)
                    assert _rel(lhs, rhs) <= 1e-12


def test_markov_triangle_zero_on_chain(lattice_params):
    p = lattice_params
    for chain in chain_variants(p):
        res, norm = triangle_residuals(chain, 4 * p.T)  # all grid triples up to alpha**(4T)
        scale = dtsim_cov(chain, 0, 0)
        assert np.all(np.abs(res) <= 1e-12 * np.maximum(norm, scale ** 2))


def test_markov_triangle_negative_control(monkeypatch):
    """A squared-exponential kernel is not Markov; the residual must be visible, and ``verify``'s check must fail."""
    def gauss(t, s):
        return np.exp(-((np.asarray(t) - s) ** 2.0))

    res = triangle_residual(gauss, 0.0, 1.0, 2.0)
    assert res == pytest.approx(math.exp(-4.0) - math.exp(-2.0), rel=1e-12)
    assert abs(res) > 1e-3
    assert abs(triangle_residual(gauss, 1.0, 2.0, 4.0)) > 1e-3
    p = make_params(0.75, 2.0, 2)
    monkeypatch.setattr(verify, "cov_table", lambda chain, n, tau: gauss(n + tau, n))  # on grid indices
    result = _check_triangle(make_chain(p, simple_bm_seed(p)))
    assert result.observed > 0.5 and not result.passed  # 1 - exp(-2 (b - a) (c - b)) at the widest triple


@pytest.mark.parametrize("T, H, alpha, passes",
                         [(128, 0.75, 2.0, True), (32, 1.2, 3.0, True), (64, 1.5, 4.0, False)])
def test_markov_triangle_check_reads_every_triple(T, H, alpha, passes):
    """Covariances past 1e154 (their products overflow) are measured, not dropped; an overflowed table fails."""
    p = make_params(H, alpha, T)
    chain = make_chain(p, simple_bm_seed(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error" if passes else "ignore", RuntimeWarning)
        result = _check_triangle(chain)
    assert result.passed == passes
    assert passes or math.isnan(result.observed)


def _dsi_residual(cov, p, t: float, s: float) -> float:
    """``cov(l t, l s) - l**(2H) cov(t, s)``: zero for a covariance scale-invariant at ``l = alpha**T``."""
    return cov(p.l * t, p.l * s) - p.l ** (2 * p.H) * cov(t, s)


def test_dsi_cov_check(lattice_params):
    p = lattice_params

    def cov(t: float, s: float) -> float:
        return simple_bm_cov(t, s, p.H, p.l)

    for t, s in ((1.0, 1.0), (1.0, p.alpha), (p.alpha, p.alpha ** 2)):
        res = _dsi_residual(cov, p, t, s)
        assert abs(res) <= 1e-12 * max(1.0, abs(cov(t, s)) * p.l ** (2 * p.H))


def test_dsi_cov_check_negative_control():
    # plain min kernel (H = 1/2 invariance) against H = 1 params
    p = make_params(1.0, 2.0, 2)
    res = _dsi_residual(min, p, 1.0, 2.0)
    assert abs(res) > 1.0  # 4 - 16 * 1 = -12, nowhere near zero


def test_pc_counterpart_periodic_bit_exact(lattice_params):
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        for n in range(T):
            for tau in range(0, 2 * T + 1):
                base = pc_counterpart_cov(chain, n, tau)
                assert pc_counterpart_cov(chain, n + T, tau) == base
                assert pc_counterpart_cov(chain, n + 3 * T, tau) == base


def test_pc_counterpart_definition():
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    for n in range(2):
        for tau in range(0, 4):
            want = p.alpha ** (-(2 * n + tau) * p.H) * dtsim_cov(chain, n, tau)
            assert pc_counterpart_cov(chain, n, tau) == pytest.approx(want, rel=1e-15)


@st.composite
def lattice_chain_and_lag(draw):
    alpha = draw(st.sampled_from([1.5, 2.0, 3.0]))
    T = draw(st.integers(min_value=1, max_value=4))
    H = draw(st.floats(min_value=0.25, max_value=1.1))
    p = make_params(H, alpha, T)
    corrs = tuple(
        draw(st.floats(min_value=0.05, max_value=0.9)) * (1 if draw(st.booleans()) else -1)
        for _ in range(T)
    )
    chain = make_chain(p, correlated_seed(p, corrs))
    n = draw(st.integers(min_value=0, max_value=3 * T))
    tau = draw(st.integers(min_value=-n, max_value=3 * T))
    return chain, n, tau


@settings(max_examples=80, deadline=None)
@given(lattice_chain_and_lag())
def test_symmetry_property(case):
    chain, n, tau = case
    a = dtsim_cov(chain, n, tau)
    b = dtsim_cov(chain, n + tau, -tau)
    assert _rel(a, b) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(lattice_chain_and_lag())
def test_cauchy_schwarz_property(case):
    """|R_n(tau)| <= sqrt(R_{n+tau}(0) R_n(0)) holds for every admissible chain."""
    chain, n, tau = case
    lhs = abs(dtsim_cov(chain, n, tau))
    bound = math.sqrt(dtsim_cov(chain, n + tau, 0) * dtsim_cov(chain, n, 0))
    assert lhs <= bound * (1 + 1e-9)


@st.composite
def cov_table_cases(draw):
    """A chain at T in {1, 2, 8, 32}, alpha in {1.1, 1.5, 2} (simple BM, non-BM, negative ratio),
    index arrays, and for ``cov_table`` a base offset of up to 40 periods with a lag offset
    that balances the two powers, so both leave float range while the entry need not."""
    T = draw(st.sampled_from([1, 2, 8, 32]))
    p = make_params(0.75, draw(st.sampled_from([1.1, 1.5, 2.0])), T)
    kind = draw(st.sampled_from(["bm", "nonbm", "neg"]))
    seed = {
        "bm": lambda: simple_bm_seed(p),
        "nonbm": lambda: correlated_seed(p, (0.6, 0.35, 0.8, 0.5)),
        "neg": lambda: correlated_seed(p, NEG_CORRS),
    }[kind]()
    size = draw(st.integers(min_value=1, max_value=12))
    ints = st.lists(st.integers(min_value=-3 * T, max_value=3 * T), min_size=size, max_size=size)
    chain = make_chain(p, seed)
    # a base offset on the side where lag periods of htilde_period**s can bring
    # alpha**(2TH far_b) back towards 1, and that many lag periods
    log_p = math.log2(abs(chain.htilde_period))
    far_b = draw(st.integers(min_value=0, max_value=40)) * (-1 if log_p > 0 else 1)
    far_s = round(-2 * T * p.H * far_b * math.log2(p.alpha) / log_p) if log_p else 0
    far_s = max(0, far_s + draw(st.integers(min_value=-3, max_value=3)))
    return chain, np.array(draw(ints)), np.array(draw(ints)), T * np.array([far_b, far_s])


def _halving_case(T: int, far_b: int):
    """A negative-ratio case ``far_b`` periods out with a lag offset that balances the two powers.

    Both powers of every entry need halving there while the entry stays in
    range; at T = 2 ``htilde_period < 0``, so odd period counts check the sign.
    """
    p = make_params(0.75, 2.0, T)
    chain = make_chain(p, correlated_seed(p, NEG_CORRS))
    far_s = round(-1.5 * T * far_b / math.log2(abs(chain.htilde_period)))
    return chain, np.array([0, 1, -1, 3]), np.array([0, 1, 2, -3]), T * np.array([far_b, far_s])


@settings(max_examples=60, deadline=None)
@given(cov_table_cases())
@example(_halving_case(32, 30))
@example(_halving_case(2, 400))
def test_cov_table_matches_scalar_and_is_symmetric(case):
    """Array calls equal per-entry scalar calls bit for bit: ``cov_table``,
    ``q_cov``, ``simple_bm_cov`` and ``empirical_cov`` (two path blocks).

    ``cov_table`` also runs at the far offsets, where its powers may need
    halving: it is symmetric bit for bit there and matches exact rational
    arithmetic wherever ``2THb`` is an integer.
    """
    chain, n, tau, far = case
    p = chain.params
    with np.errstate(over="ignore"):  # an entry past float range is inf, in both calls
        q = q_cov(chain, n, tau)
        scalar = np.array([q_cov(chain, int(a), int(b)) for a, b in zip(n, tau)])
        assert np.array_equal(q, scalar)
    t, s = np.float_power(p.alpha, np.abs(n + tau)), np.float_power(p.alpha, np.abs(n))
    oracle = simple_bm_cov(t, s, p.H, p.l)
    assert np.array_equal(oracle, [simple_bm_cov(p.alpha ** abs(int(a + b)), p.alpha ** abs(int(a)), p.H, p.l)
                                   for a, b in zip(n, tau)])
    ens = simulate_simple_bm(p, BATCH_SIZE + 7, 6 * p.T)
    lo, hi = np.abs(n), np.abs(n + tau)
    est = empirical_cov(ens, lo, hi - lo)
    scalar = [empirical_cov(ens, int(a), int(b - a)) for a, b in zip(lo, hi)]
    assert np.array_equal(est.value, [e.value for e in scalar])
    assert np.array_equal(est.std_error, [e.std_error for e in scalar])
    n, tau = n + far[0], tau + far[1]
    with np.errstate(over="ignore"):
        table = cov_table(chain, n, tau)
        assert table.shape == n.shape
        scalar = np.array([dtsim_cov(chain, int(a), int(b)) for a, b in zip(n, tau)])
        assert np.array_equal(table, scalar)
        assert np.array_equal(table, cov_table(chain, n + tau, -tau))
        grid = cov_table(chain, n[:, np.newaxis], tau)
    for a, b, got in zip(n.tolist(), tau.tolist(), table):
        if (2 * p.T * p.H * (min(a, a + b) // p.T)).is_integer():
            assert_exact(got, exact_cov(chain, a, b))
    # broadcasting: a column of base indices against a row of lags
    assert np.array_equal(np.diagonal(grid), table)


@pytest.mark.parametrize("H, alpha, T, n, tau", [(1.1, 3.0, 32, -624, 2520), (0.3, 2.0, 3, 500, 1900),
                                                 (1 / 3, 1.1, 2, -700, 40)])
def test_cov_table_carries_the_exponent_remainder(H, alpha, T, n, tau):
    """``2THb`` is not a float at these entries.  Rounded once, it put the first
    1.25e-13 (896 ulps) from a 60-digit evaluation on the chain's own floats;
    its remainder, carried apart, holds each to a few ulps."""
    chain = make_chain(make_params(H, alpha, T), simple_bm_seed(make_params(H, alpha, T)))
    b, r = divmod(min(n, n + tau), T)
    s, j = divmod(r + abs(tau), T)
    a = chain._prefix[j] / chain._prefix[r] * chain.seed.r0[r]
    got = cov_table(chain, n, tau)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = ((2 * T * Decimal(H) * b * Decimal(alpha).ln()).exp()
                * Decimal(chain.htilde_period) ** s * Decimal(a))
        assert abs(Decimal(got) - want) <= 6 * Decimal(np.spacing(got)), float((Decimal(got) - want) / want)
