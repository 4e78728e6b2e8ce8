import math

import numpy as np
import pytest

from dtsim import (
    DomainError,
    GridError,
    SampledFunction,
    dilate,
    lamperti_forward,
    lamperti_inverse,
    make_chain,
    make_params,
    pc_counterpart_cov,
    shift,
    simple_bm_seed,
    simulate_simple_bm,
    verify_commutation,
)


def _f(domain, values) -> SampledFunction:
    return SampledFunction(domain=np.asarray(domain, float), values=np.asarray(values, float))


def _at(f: SampledFunction, t: float) -> float:
    """Value of ``f`` at its sample point ``t`` (matched within 1e-9 relative)."""
    i = int(np.argmin(np.abs(f.domain - t)))
    assert abs(f.domain[i] - t) <= 1e-9 * max(1.0, abs(t)), f"{t} is not a sample point"
    return float(f.values[i])


def test_sampled_function_validation():
    with pytest.raises(DomainError):
        _f([0.0, 1.0], [1.0])
    with pytest.raises(DomainError):
        _f([], [])
    with pytest.raises(DomainError):
        _f([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        _f([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        _f([0.0, math.inf], [1.0, 2.0])


def test_shift_moves_domain_only():
    f = _f([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    g = shift(f, 1.0)
    assert _at(g, 0.0) == _at(f, 1.0)
    assert _at(g, 1.0) == _at(f, 2.0)
    # shifts compose exactly
    h = shift(shift(f, 0.25), 0.75)
    assert np.array_equal(h.domain, f.domain - 1.0)
    assert np.array_equal(h.values, f.values)


def test_dilate_definition_and_group_law():
    f = _f([1.0, 2.0, 4.0], [3.0, 5.0, 9.0])
    H = 0.75
    g = dilate(f, H, 2.0)
    assert _at(g, 1.0) == pytest.approx(2.0 ** (-H) * _at(f, 2.0), rel=1e-15)
    # two dilations compose into one with the product factor
    a = dilate(dilate(f, H, 2.0), H, 2.0)
    b = dilate(f, H, 4.0)
    assert np.allclose(a.domain, b.domain, rtol=1e-15)
    assert np.allclose(a.values, b.values, rtol=1e-14)
    with pytest.raises(DomainError):
        dilate(f, H, 0.0)


def test_power_function_is_dilation_fixed_point():
    """t**H satisfies lam**(-H) f(lam t) = f(t): eigenfunction of the dilation."""
    H, lam = 0.6, 3.0
    t = 3.0 ** np.arange(-2, 5)
    f = _f(t, t ** H)
    g = dilate(f, H, lam)
    for point in t[:-1]:  # overlap of the two domains
        assert _at(g, point) == pytest.approx(_at(f, point), rel=1e-12)


def test_forward_then_inverse_roundtrip():
    rng = np.random.default_rng(3)
    u = np.arange(-3.0, 6.0)
    y = _f(u, rng.standard_normal(len(u)))
    back = lamperti_inverse(lamperti_forward(y, 0.75, 2.0), 0.75, 2.0)
    assert np.array_equal(back.domain, y.domain)
    assert np.allclose(back.values, y.values, rtol=1e-12, atol=1e-14)


def test_inverse_then_forward_roundtrip():
    rng = np.random.default_rng(4)
    t = 1.5 ** np.arange(0, 8)
    x = _f(t, rng.standard_normal(len(t)))
    back = lamperti_forward(lamperti_inverse(x, 0.3, 1.5), 0.3, 1.5)
    assert np.allclose(back.domain, x.domain, rtol=1e-12)
    assert np.allclose(back.values, x.values, rtol=1e-12, atol=1e-14)


def test_inverse_rejects_off_grid_points():
    x = _f([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])  # 3 is not a power of 2
    with pytest.raises(DomainError):
        lamperti_inverse(x, 0.5, 2.0)
    with pytest.raises(DomainError):
        lamperti_inverse(_f([-1.0, 2.0], [0.0, 0.0]), 0.5, 2.0)


def test_inverse_snaps_perturbed_grid():
    t = 2.0 ** np.arange(0, 5) * (1 + 1e-12)
    y = lamperti_inverse(_f(t, np.ones(5)), 0.5, 2.0)
    assert np.array_equal(y.domain, np.arange(0.0, 5.0))


def test_forward_of_constant_is_power_function():
    u = np.arange(0.0, 6.0)
    x = lamperti_forward(_f(u, np.ones(6)), 0.75, 2.0)
    assert np.allclose(x.values, x.domain ** 0.75, rtol=1e-14)


def test_commutation_shift_vs_dilation():
    """Dilating by alpha**m on the invariant side shifts by m on the stationary side."""
    rng = np.random.default_rng(7)
    u = np.arange(0.0, 9.0)
    y = _f(u, rng.standard_normal(len(u)))
    for alpha in (1.5, 2.0, 3.0):
        for H in (0.3, 0.75, 1.0):
            for k in (alpha, alpha ** 2, alpha ** -1):
                assert verify_commutation(y, H, alpha, k) <= 1e-12


def test_commutation_identity_function():
    # y(u) = u turns into y(u) - m after dilation by alpha**m; check one value
    u = np.arange(0.0, 6.0)
    y = _f(u, u)
    assert verify_commutation(y, 0.5, 2.0, 2.0) <= 1e-12
    lhs = lamperti_inverse(dilate(lamperti_forward(y, 0.5, 2.0), 0.5, 2.0), 0.5, 2.0)
    assert _at(lhs, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_commutation_rejects_off_grid_factor():
    y = _f(np.arange(0.0, 4.0), np.ones(4))
    with pytest.raises(GridError):
        verify_commutation(y, 0.5, 2.0, 3.0)
    with pytest.raises(GridError):
        verify_commutation(y, 0.5, 2.0, -2.0)


def test_inverse_transform_stationarizes_ensemble():
    """Pulling simulated paths back through the inverse transform must give a
    sequence whose covariance depends on the lag only, matching the
    periodically correlated counterpart at period multiples."""
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    ens = simulate_simple_bm(p, n_paths=40_000, k_max=8, rng_seed=515)
    ks = np.arange(9)
    y = ens.paths * p.alpha ** (-ks * p.H)  # inverse transform, path by path

    for n in (0, 1):
        for tau in (0, 2, 4):
            prod = y[:, n + tau] * y[:, n]
            est = float(prod.mean())
            se = float(prod.std(ddof=1) / math.sqrt(len(prod)))
            want = pc_counterpart_cov(chain, n, tau)
            assert abs(est - want) <= 3 * se, (n, tau, est, want, se)
    # stationarity across a period: lag-0 moments agree at n and n + T
    v0 = y[:, 0] * y[:, 0]
    v2 = y[:, 2] * y[:, 2]
    se = math.hypot(
        float(v0.std(ddof=1)), float(v2.std(ddof=1))
    ) / math.sqrt(len(v0))
    assert abs(float(v0.mean()) - float(v2.mean())) <= 3 * se
