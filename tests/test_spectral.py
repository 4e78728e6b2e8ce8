"""Spectral densities: periodic components, Hermitian matrices, closed forms.

Two distinct objects live here and the tests keep them apart:

* ``f_*``: densities of the stationarized scalar sequence on the alpha-grid,
  assembled from the periodic components B_k (build_bk_table -> fk_from_bk).
* ``spectral_*``: densities of the stationarized T-dimensional embedding on
  the l-grid, with a two-term closed form and a direct series as independent
  routes.

The closed form's raw output is Hermitian only on j >= r: the two routes
disagree by the constant (a - b) / 2 pi above the diagonal, mirroring the
8-vs-4 kernel/covariance split at lag 0.  ``spectral_matrix_grid`` is the
density of the process, ``[G0 + M + M^H] / 2 pi`` with the symmetric lag-0
block ``G0``, and is Hermitian bit for bit; below the diagonal it agrees
with the closed form to rounding.
"""

import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dtsim import spectral
from dtsim.cli import main as cli_main

from dtsim import (
    BkTable,
    ConvergenceError,
    CovarianceSeed,
    DomainError,
    FrequencyGrid,
    PoleError,
    SpectralMatrix,
    auto_truncation,
    bk_from_pc_cov,
    build_bk_table,
    convergence_ratio,
    dsi_cov_from_spectra,
    dtsim_cov,
    f_matrix,
    f_matrix_grid,
    fjk,
    fk_from_bk,
    make_chain,
    make_params,
    pc_counterpart_cov,
    q_cov,
    simple_bm_seed,
    simple_bm_spectral,
    spectral_closed_grid,
    spectral_diag,
    spectral_matrix_grid,
    spectral_sum,
    spectral_sum_grid,
)

from conftest import chain_variants

OMEGAS = (0.0, 0.7, 2.1, math.pi, 5.0)


def _scaled(diff: float, *refs: float) -> float:
    return diff / max(1.0, *map(abs, refs))


def _closed(chain, j: int, r: int, omega: float) -> complex:
    """Entry ``(j, r)`` of :func:`spectral_closed_grid` at one frequency."""
    return complex(spectral_closed_grid(chain, [omega])[0, j, r])


def _series_prefactors(chain, j: int, r: int) -> tuple[float, float]:
    """Coefficients of the closed form's s >= 0 side (a) and s <= -1 side (b)."""
    q00 = q_cov(chain, 0, 0)  # C * r0
    return float(q00[j, r]), float(q00[r, j])


def second_term_forms(chain, j: int, r: int, omega: float) -> tuple[complex, complex]:
    """Reference: the closed form's second term, two algebraically identical ways.

    Direct: ``-b / (1 - e^{-i omega T} alpha**(H T) / htilde_period)``.
    Geometric: ``b * e^{i omega T} rho / (1 - e^{i omega T} rho)``, the summed
    negative-lag geometric series.  Both are divided by 2 pi.  The direct form
    has a removable breakdown when the ratio chain vanishes.
    """
    p = chain.params
    rho = convergence_ratio(chain)
    _, b = _series_prefactors(chain, j, r)
    zbar = cmath.exp(1j * omega * p.T)
    geometric = b * zbar * rho / (1 - zbar * rho) / (2 * math.pi)
    if chain.htilde_period == 0.0:
        raise PoleError("ratio chain vanishes over a period; direct form undefined")
    z = cmath.exp(-1j * omega * p.T)
    denom = 1 - z * p.alpha ** (p.H * p.T) / chain.htilde_period
    if abs(denom) < 1e-14:
        raise PoleError(f"denominator {abs(denom)} within 1e-14 of a pole")
    direct = -b / denom / (2 * math.pi)
    return direct, geometric


def test_frequency_grid():
    g = FrequencyGrid(4)
    assert np.allclose(g.omegas, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    with pytest.raises(DomainError):
        FrequencyGrid(0)


def test_auto_truncation():
    assert auto_truncation(0.5) == 40  # ceil(log 1e-12 / log 0.5)
    assert auto_truncation(0.0) == 1
    assert auto_truncation(-0.5) == 40
    assert auto_truncation(0.5, tol=1e-3) == 10
    with pytest.raises(ConvergenceError):
        auto_truncation(1.0)
    with pytest.raises(ConvergenceError):
        auto_truncation(-1.2)


def test_bk_from_pc_cov_small_dft():
    assert bk_from_pc_cov([3.0, 1.0], 0) == pytest.approx(2.0)
    assert bk_from_pc_cov([3.0, 1.0], 1) == pytest.approx(1.0)
    assert bk_from_pc_cov([3.0, 1.0], 3) == bk_from_pc_cov([3.0, 1.0], 1)
    with pytest.raises(DomainError):
        bk_from_pc_cov([], 0)


def test_bk_table_roundtrip(lattice_params):
    """DFT then inverse phase sum must reproduce the pc covariance exactly."""
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        table = build_bk_table(chain, tau_window=2 * T)
        for n in range(T):
            for tau in range(-2 * T, 2 * T + 1):
                recon = sum(
                    table.value(k, tau) * cmath.exp(2j * math.pi * k * n / T)
                    for k in range(T)
                )
                want = pc_counterpart_cov(chain, n, tau)
                assert abs(recon.imag) <= 1e-12 * max(1.0, abs(want))
                assert _scaled(abs(recon.real - want), want) <= 1e-12


def test_bk_period_ratio(lattice_params):
    # B_k(tau + T) = rho B_k(tau) for tau >= 0: the geometric decay that
    # makes every frequency sum convergent and its tail computable
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        rho = convergence_ratio(chain)
        table = build_bk_table(chain, tau_window=3 * T)
        for k in range(T):
            for tau in range(0, 2 * T):
                lhs = table.value(k, tau + T)
                rhs = rho * table.value(k, tau)
                assert _scaled(abs(lhs - rhs), abs(rhs)) <= 1e-12


def test_bk_negative_lag_phase(lattice_params):
    """B_k(-tau) = B_k(tau) e^{-2 pi i k tau / T}, from R_n(-tau) = R_{n-tau}(tau)."""
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        table = build_bk_table(chain, tau_window=2 * T)
        for k in range(T):
            for tau in range(0, 2 * T + 1):
                lhs = table.value(k, -tau)
                rhs = table.value(k, tau) * cmath.exp(-2j * math.pi * k * tau / T)
                assert _scaled(abs(lhs - rhs), abs(rhs)) <= 1e-12
                # real input: components conjugate in mirrored index
                assert table.value(T - k if k else 0, tau) == pytest.approx(
                    table.value(k, tau).conjugate(), rel=1e-12, abs=1e-12
                )


def test_bk_table_window_errors():
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    table = build_bk_table(chain, tau_window=4)
    with pytest.raises(IndexError):
        table.value(0, 5)
    with pytest.raises(IndexError):
        fk_from_bk(table, 0, 0.3, s_trunc=3)  # needs window 3 + T = 5
    tiny = build_bk_table(chain, tau_window=1)
    with pytest.raises(IndexError):
        fk_from_bk(tiny, 0, 0.3)  # window 1 < T: no tail estimate possible


def test_dsi_cov_from_spectra(lattice_params):
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        table = build_bk_table(chain, tau_window=2 * T)
        for n in range(2 * T):
            for tau in range(-2 * T, 2 * T + 1):
                want = dtsim_cov(chain, n, tau)
                got = dsi_cov_from_spectra(chain, n, tau, table)
                assert _scaled(abs(got - want), want) <= 1e-10


def test_fk_quadrature_recovers_bk(lattice_params):
    """Rectangle-rule inversion of f_k on >= 2S+1 nodes is alias-free."""
    chain = make_chain(lattice_params, simple_bm_seed(lattice_params))
    T = lattice_params.T
    table = build_bk_table(chain)
    S = table.tau_window - T
    n = 2 * S + 2
    omegas = 2 * math.pi * np.arange(n) / n
    for k in range(T):
        f = np.array([fk_from_bk(table, k, w).value for w in omegas])
        for tau in (0, 1, T, 2 * T):
            quad = np.sum(f * np.exp(1j * omegas * tau)) * (2 * math.pi / n)
            want = table.value(k, tau)
            assert abs(quad - want) <= 1e-6 * max(1.0, abs(want))
            assert abs(quad - want) <= 1e-12 * max(1.0, abs(want))  # in fact exact


def test_fk_tail_bound_honest():
    p = make_params(0.75, 2.0, 2)
    for chain in chain_variants(p):
        table = build_bk_table(chain, tau_window=60)
        for k in range(p.T):
            for w in OMEGAS:
                small = fk_from_bk(table, k, w, s_trunc=6)
                large = fk_from_bk(table, k, w, s_trunc=50)
                # the bound is exactly tight at omega = 0 for geometric
                # chains, so allow rounding on top of it
                budget = (small.tail_bound + large.tail_bound) * (1 + 1e-9) + 1e-15
                assert abs(small.value - large.value) <= budget
                assert large.tail_bound < small.tail_bound


def test_f0_is_real():
    p = make_params(0.75, 2.0, 4)
    chain = make_chain(p, simple_bm_seed(p))
    table = build_bk_table(chain)
    for w in OMEGAS:
        v = fk_from_bk(table, 0, w).value
        assert abs(v.imag) <= 1e-12 * max(1.0, abs(v))


def test_fjk_reductions():
    p = make_params(0.5, 2.0, 3)
    chain = make_chain(p, simple_bm_seed(p))
    table = build_bk_table(chain)
    for w in (0.3, 1.9):
        base = fjk(table, 1, 2, w)
        assert fjk(table, 4, 5, w) == pytest.approx(base, rel=1e-12, abs=1e-15)
        assert fjk(table, 1, 2, w + 2 * math.pi * p.T) == pytest.approx(
            base, rel=1e-9, abs=1e-12
        )


def test_f_matrix_hermitian(lattice_params):
    for chain in chain_variants(lattice_params):
        table = build_bk_table(chain)
        for w in OMEGAS:
            m = f_matrix(table, w)
            scale = float(np.max(np.abs(m)))
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(1.0, scale)
            assert np.max(np.abs(np.diag(m).imag)) <= 1e-12 * max(1.0, scale)
        # grid constructor enforces the same thing
        f_matrix_grid(table, FrequencyGrid(8))


def test_spectral_matrix_validation():
    bad = np.array([[[1.0, 2.0], [3.0, 1.0]]], dtype=complex)
    with pytest.raises(DomainError):
        SpectralMatrix(grid=FrequencyGrid(1), entries=bad)
    with pytest.raises(DomainError):
        SpectralMatrix(grid=FrequencyGrid(2), entries=np.zeros((1, 2, 2), complex))
    ok = SpectralMatrix(grid=FrequencyGrid(1), entries=np.eye(2, dtype=complex)[None])
    assert not ok.entries.flags.writeable


def test_series_vs_closed(lattice_params):
    for chain in chain_variants(lattice_params):
        omegas = FrequencyGrid(64).omegas
        closed = spectral_closed_grid(chain, omegas)
        series = spectral_sum_grid(chain, omegas)
        assert np.max(np.abs(series - closed)) <= 1e-9


def test_scalar_and_grid_routes_agree():
    p = make_params(0.75, 1.5, 2)
    for chain in chain_variants(p):
        omegas = np.array(OMEGAS)
        cg = spectral_closed_grid(chain, omegas)
        sg = spectral_sum_grid(chain, omegas)
        for i, w in enumerate(OMEGAS):
            for j in range(2):
                for r in range(2):
                    assert _closed(chain, j, r, w) == pytest.approx(
                        cg[i, j, r], rel=1e-12, abs=1e-15
                    )
                    sv = spectral_sum(chain, j, r, w)
                    assert sv.value == pytest.approx(sg[i, j, r], rel=1e-10, abs=1e-13)


def test_spectral_sum_tail_honest():
    p = make_params(0.75, 2.0, 2)
    for chain in chain_variants(p):
        for w in OMEGAS:
            full = _closed(chain, 1, 0, w)
            part = spectral_sum(chain, 1, 0, w, s_trunc=4)
            assert abs(part.value - full) <= part.tail_bound * (1 + 1e-9)


def test_closed_matches_true_covariance_series(lattice_params):
    """On j >= r the closed form IS the density of the stationarized embedding.

    Brute-force the series with the symmetric covariance (not the one-sided
    kernel) and machine-level agreement on and below the diagonal follows;
    above the diagonal the routes differ by the constant Hermitian gap.
    """
    p = lattice_params
    for chain in chain_variants(p):
        rho = convergence_ratio(chain)
        S = auto_truncation(rho, tol=1e-13) + 10
        l, H, T = p.l, p.H, p.T
        for w in (0.0, 0.7, math.pi):
            for j in range(T):
                for r in range(j + 1):
                    tot = dtsim_cov(chain, r, j - r) + 0j
                    for s in range(1, S + 1):
                        fwd = l ** (-s * H) * dtsim_cov(chain, r, s * T + j - r)
                        bwd = l ** (-s * H) * dtsim_cov(chain, j, s * T + r - j)
                        tot += fwd * cmath.exp(-1j * s * w * T)
                        tot += bwd * cmath.exp(1j * s * w * T)
                    tot /= 2 * math.pi
                    got = _closed(chain, j, r, w)
                    assert _scaled(abs(got - tot), abs(tot)) <= 1e-11, (j, r, w)


def test_hermitian_gap_identity(lattice_params):
    """closed(j,r) - conj(closed(r,j)) == (a - b) / 2 pi, independent of omega."""
    for chain in chain_variants(lattice_params):
        T = lattice_params.T
        for j in range(T):
            for r in range(T):
                a, b = _series_prefactors(chain, j, r)
                want = (a - b) / (2 * math.pi)
                for w in OMEGAS:
                    gap = _closed(chain, j, r, w) - _closed(
                        chain, r, j, w
                    ).conjugate()
                    assert abs(gap - want) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_hermitian_gap_frozen_example():
    # alpha=2, T=2, H=1 at omega=0: entry (0,1) sums to 20/2pi one way and
    # 16/2pi the other; the 4/2pi gap is the lag-0 kernel/covariance split
    p = make_params(1.0, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    d01 = _closed(chain, 0, 1, 0.0)
    d10 = _closed(chain, 1, 0, 0.0)
    assert d01 * 2 * math.pi == pytest.approx(20.0, rel=1e-12)
    assert d10 * 2 * math.pi == pytest.approx(16.0, rel=1e-12)
    gap = (d01 - d10.conjugate()) * 2 * math.pi
    assert gap == pytest.approx(4.0, rel=1e-12)


def _hermitian(closed: np.ndarray) -> np.ndarray:
    """Reference: the closed form's lower triangle, conjugated across the diagonal."""
    return np.tril(closed) + np.conj(np.swapaxes(np.tril(closed, -1), -1, -2))


def test_spectral_matrix_hermitian_and_closed(lattice_params):
    grid = FrequencyGrid(16)
    for chain in chain_variants(lattice_params):
        e = spectral_matrix_grid(chain, grid).entries
        want = _hermitian(spectral_closed_grid(chain, grid.omegas))
        scale = np.max(np.abs(want), axis=(1, 2))  # each frequency's largest entry
        assert np.all(np.abs(e - want) <= 2e-15 * scale[:, np.newaxis, np.newaxis])


@pytest.mark.parametrize("T", [1, 2, 8, 32])
def test_spectral_matrix_is_hermitian_bit_for_bit(T):
    for H, alpha in ((0.75, 2.0), (0.3, 1.5), (1.2, 3.0)):
        for chain in chain_variants(make_params(H, alpha, T)):
            e = spectral_matrix_grid(chain, FrequencyGrid(64)).entries
            assert np.array_equal(e, np.conj(np.swapaxes(e, 1, 2))), (H, alpha)


def test_spectral_diag_identities(lattice_params):
    p = lattice_params
    for chain in chain_variants(p):
        rho = convergence_ratio(chain)
        for k in range(p.T):
            r0 = dtsim_cov(chain, k, 0)
            for w in OMEGAS:
                d = spectral_diag(chain, k, w)
                c = _closed(chain, k, k, w)
                assert _scaled(abs(d - c.real), d) <= 1e-12
                assert _scaled(abs(c.imag), d) <= 1e-12
                assert d > 0
            # extreme frequencies in closed form
            at_pi = r0 * (1 - rho) / (2 * math.pi * (1 + rho))
            assert spectral_diag(chain, k, math.pi / p.T) == pytest.approx(
                at_pi, rel=1e-12
            )
            at_zero = r0 * (1 + rho) / (2 * math.pi * (1 - rho))
            assert spectral_diag(chain, k, 0.0) == pytest.approx(at_zero, rel=1e-12)


def test_diag_hand_value():
    # alpha=2, T=1, H=1: rho = 2**-0.5, R_0(0) = 2, so the density at
    # omega = 0 is 2 (1+rho) / (2 pi (1-rho)) = (3 + 2 sqrt 2) / pi = 1.8552...
    p = make_params(1.0, 2.0, 1)
    chain = make_chain(p, simple_bm_seed(p))
    assert convergence_ratio(chain) == pytest.approx(2 ** -0.5, rel=1e-15)
    assert spectral_diag(chain, 0, 0.0) == pytest.approx(1.8552459747, abs=5e-11)
    assert spectral_diag(chain, 0, 0.0) == pytest.approx(
        (3 + 2 * math.sqrt(2)) / math.pi, rel=1e-13
    )


def test_simple_bm_explicit_form(lattice_params):
    p = lattice_params
    chain = make_chain(p, simple_bm_seed(p))
    for w in OMEGAS:
        for j in range(p.T):
            for r in range(p.T):
                explicit = simple_bm_spectral(p, j, r, w)
                general = _closed(chain, j, r, w)
                assert _scaled(abs(explicit - general), abs(general)) <= 1e-12
    with pytest.raises(IndexError):
        simple_bm_spectral(p, p.T, 0, 0.0)


def test_second_term_forms_agree(lattice_params):
    T = lattice_params.T
    for chain in chain_variants(lattice_params):
        rho = convergence_ratio(chain)
        for w in OMEGAS:
            for j in range(T):
                direct, geometric = second_term_forms(chain, j, 0, w)
                assert _scaled(abs(direct - geometric), abs(direct)) <= 1e-12
                a, _ = _series_prefactors(chain, j, 0)
                first = a / (1 - cmath.exp(-1j * w * T) * rho) / (2 * math.pi)
                full = _closed(chain, j, 0, w)
                assert _scaled(abs(first + direct - full), abs(full)) <= 1e-12


def test_divergent_chain_raises():
    # perfectly correlated seed: rho reaches 1 and every density blows up
    p = make_params(0.5, 2.0, 1)
    chain = make_chain(p, CovarianceSeed(r0=np.array([1.0]), r1=np.array([math.sqrt(2.0)])))
    assert abs(convergence_ratio(chain)) >= 1
    with pytest.raises(ConvergenceError):
        _closed(chain, 0, 0, 0.3)
    with pytest.raises(ConvergenceError):
        spectral_sum(chain, 0, 0, 0.3)
    with pytest.raises(ConvergenceError):
        spectral_diag(chain, 0, 0.3)
    with pytest.raises(ConvergenceError):
        build_bk_table(chain)  # default window needs a convergent tail
    table = build_bk_table(chain, tau_window=3)
    with pytest.raises(ConvergenceError):
        fk_from_bk(table, 0, 0.3)


def test_white_noise_chain():
    """r1 = 0 kills the negative-lag side: the density is flat at r0 / 2 pi."""
    p = make_params(0.5, 2.0, 1)
    chain = make_chain(p, CovarianceSeed(r0=np.array([2.0]), r1=np.array([0.0])))
    assert convergence_ratio(chain) == 0.0
    for w in OMEGAS:
        assert _closed(chain, 0, 0, w) == pytest.approx(2.0 / (2 * math.pi))
    with pytest.raises(PoleError):
        second_term_forms(chain, 0, 0, 0.3)


def _seed_shape(T: int, rho: float, alpha: float = 2.0, H: float = 0.75) -> CovarianceSeed:
    """Unit variances with per-period ratio ``rho``: near ``rho = 1`` the series needs long lags."""
    r1 = np.full(T, rho ** (1.0 / T))
    r1[-1] *= alpha ** (H * T)
    return CovarianceSeed(r0=np.ones(T), r1=r1)


@pytest.mark.parametrize("T, rho", [(2, 0.95), (2, 0.98), (4, 0.95)])
def test_long_series_seeds_stay_finite(T, rho, tmp_path, capsys):
    """Period weights and chain powers enter as one power of rho, so nothing under- or overflows."""
    p = make_params(0.75, 2.0, T)
    seed = _seed_shape(T, rho)
    chain = make_chain(p, seed)
    assert convergence_ratio(chain) == pytest.approx(rho, rel=1e-12)
    table = build_bk_table(chain)
    assert np.all(np.isfinite(table.values))
    e = f_matrix_grid(table, FrequencyGrid(16)).entries
    assert np.max(np.abs(e - np.conj(np.swapaxes(e, 1, 2)))) <= 1e-12 * np.max(np.abs(e))
    omegas = FrequencyGrid(16).omegas
    closed = spectral_closed_grid(chain, omegas)
    series = spectral_sum_grid(chain, omegas)
    assert np.max(np.abs(series - closed)) <= 1e-10 * np.max(np.abs(closed))
    seed_path = tmp_path / "seed.csv"
    seed.to_csv(seed_path)
    out = tmp_path / "spectra.csv"
    code = cli_main(["spectra", "--T", str(T), "--seed-file", str(seed_path), "--methods",
                     "closed,sum,diag", "--n-omega", "16", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 16 * (2 * T * T + T)


def test_f_matrix_grid_matches_direct_sum():
    """FFT evaluation against the plain exponential sum at long-series size (about 1079 lags)."""
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, _seed_shape(2, 0.95))
    table = build_bk_table(chain)
    S = table.tau_window - p.T
    grid = FrequencyGrid(512)
    got = f_matrix_grid(table, grid).entries
    taus = np.arange(-S, S + 1)
    want = np.empty_like(got)
    for j in range(p.T):
        arg = ((grid.omegas - 2 * math.pi * j) / p.T) % (2 * math.pi)
        waves = np.exp(-1j * np.outer(arg, taus))
        for k in range(p.T):
            row = table.values[(k - j) % p.T, table.tau_window - S : table.tau_window + S + 1]
            want[:, j, k] = waves @ row / (2 * math.pi * p.T)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("T", [1, 2, 8, 32])
def test_f_matrix_grid_matches_horner(T):
    """The FFT route equals the Horner route at the grid frequencies.

    Grids of 1, 2, 3 and 5 frequencies hold fewer than 2S + 1 bins, so the
    lags wrap around the transform length before it is taken.
    """
    p = make_params(0.75, 2.0, T)
    for chain in chain_variants(p):
        table = build_bk_table(chain)
        for s_trunc in (None, 0, 1):
            for n in (1, 2, 3, 5, 16):
                grid = FrequencyGrid(n)
                got = f_matrix_grid(table, grid, s_trunc).entries
                want = f_matrix(table, grid.omegas, s_trunc)
                assert got.shape == want.shape == (n, T, T)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_f_matrix_grid_exact_arguments():
    """At the long-series seed the FFT is within 1e-15 of an exact-argument direct sum.

    Every grid argument is ``2 pi q / N``; the reference reduces ``tau q mod N``
    in integers, to the nearer side of zero, and sums pairwise.  The Horner
    route, which rounds its arguments, misses this bound by more than 10x.
    """
    p = make_params(0.75, 2.0, 2)
    table = build_bk_table(make_chain(p, _seed_shape(2, 0.95)))
    S, W, n = table.tau_window - p.T, table.tau_window, 512
    N = n * p.T
    got = f_matrix_grid(table, FrequencyGrid(n)).entries
    taus = np.arange(-S, S + 1)
    want = np.empty_like(got)
    for j in range(p.T):
        r = np.outer((np.arange(n) - j * n) % N, taus) % N
        waves = np.exp(-2j * math.pi * np.where(r > N // 2, r - N, r) / N)
        for k in range(p.T):
            want[:, j, k] = (waves * table.values[(k - j) % p.T, W - S : W + S + 1]).sum(axis=1)
    want /= 2 * math.pi * p.T
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("T", [2, 8, 16, 32])
def test_default_bk_table_converges_and_is_positive(T):
    """The default window holds ``auto_truncation(rho)`` periods of T lags, not that many lags.

    On 64 frequencies (simple BM, H = 0.75, alpha = 2) the density from the
    default table is within 1e-12 of one from a table four times as wide,
    relative to its largest entry, and positive definite.  A window of
    ``auto_truncation(rho) + T`` lags missed by 2.4e-2 at T = 8, and at T = 32
    had a smallest eigenvalue of -0.015 times the largest entry.
    """
    p = make_params(0.75, 2.0, T)
    chain = make_chain(p, simple_bm_seed(p))
    grid = FrequencyGrid(64)
    table = build_bk_table(chain)
    assert table.tau_window == T * auto_truncation(convergence_ratio(chain)) + T
    got = f_matrix_grid(table, grid).entries
    want = f_matrix_grid(build_bk_table(chain, tau_window=4 * table.tau_window), grid).entries
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.min(np.linalg.eigvalsh(got)) > 0


def test_f_matrix_grid_errors():
    """Divergence first, then the table window, then the sign of the truncation."""
    p = make_params(0.5, 2.0, 1)
    divergent = make_chain(p, CovarianceSeed(r0=np.array([1.0]), r1=np.array([math.sqrt(2.0)])))
    with pytest.raises(ConvergenceError):
        f_matrix_grid(build_bk_table(divergent, tau_window=0), FrequencyGrid(4))
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    with pytest.raises(IndexError):
        f_matrix_grid(build_bk_table(chain, tau_window=1), FrequencyGrid(4), s_trunc=-1)
    table = build_bk_table(chain, tau_window=4)
    with pytest.raises(IndexError):
        f_matrix_grid(table, FrequencyGrid(4), s_trunc=3)
    f_matrix_grid(table, FrequencyGrid(4), s_trunc=2)


def test_negative_truncation_rejected():
    """A negative truncation is a domain error on every ``B_k`` route, not the lag-0 value."""
    p = make_params(0.75, 2.0, 2)
    table = build_bk_table(make_chain(p, simple_bm_seed(p)))
    for s_trunc in (-1, -5):
        with pytest.raises(DomainError):
            fk_from_bk(table, 0, 0.3, s_trunc=s_trunc)
        with pytest.raises(DomainError):
            f_matrix(table, 0.3, s_trunc=s_trunc)
        with pytest.raises(DomainError):
            f_matrix_grid(table, FrequencyGrid(8), s_trunc=s_trunc)
    # S = 0 stays valid: the bound sums the first untabulated period, lags 1..T
    at_zero = fk_from_bk(table, 0, 0.3, s_trunc=0)
    edge = np.sum(np.abs(table.values[0, table.tau_window + 1 : table.tau_window + p.T + 1]))
    assert at_zero.tail_bound == pytest.approx(edge / ((1 - abs(table.rho)) * math.pi), rel=1e-15)


def _horner_powers(chain, omegas, S: int) -> np.ndarray:
    """Reference for ``spectral._sum_powers``: ``sum_{s=1..S} zr**s`` by one Horner step per lag."""
    zr = convergence_ratio(chain) * np.exp(-1j * np.asarray(omegas) * chain.T)
    powers = np.zeros_like(zr)
    for _ in range(S):
        powers = (powers + 1) * zr
    return powers


_DOUBLING_TRUNCATIONS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 1023, 1024, 1025, None]


@pytest.mark.parametrize("rho, s_trunc", [(0.95, s) for s in _DOUBLING_TRUNCATIONS]
                         + [(-0.95, s) for s in (2, 3, 16, 17, None)]
                         + [(0.0, s) for s in (0, 1, 5, None)]
                         + [(0.999, None), (-0.999, None), (0.999, 4097)])
def test_sum_powers_by_doubling_match_horner(rho, s_trunc):
    """The doubling over the bits of ``S`` gives the density of the Horner sum within 1e-14 of its largest
    value, at the default ``S`` (539 at 0.95, 27618 at 0.999) and at overrides about powers of two.
    ``rho = 0`` is ``r1 = (0.5, 0)``, whose h-chain does not vanish inside the period."""
    p = make_params(0.75, 2.0, 2)
    r1 = [0.5, 0.0] if rho == 0 else [math.copysign(abs(rho) ** 0.5, rho), abs(rho) ** 0.5 * 2**1.5]
    chain = make_chain(p, CovarianceSeed(r0=np.ones(2), r1=np.array(r1)))
    assert convergence_ratio(chain) == pytest.approx(rho, abs=1e-15)
    omegas = FrequencyGrid(64).omegas
    S = auto_truncation(convergence_ratio(chain)) if s_trunc is None else s_trunc
    got, want = spectral._sum_powers(chain, omegas, s_trunc), _horner_powers(chain, omegas, S)
    if S <= 1:
        assert np.array_equal(got, want)
    A = q_cov(chain, 0, 0)
    AAt = np.stack([A, A.T])
    density = spectral._sum_density(AAt, want)
    assert np.max(np.abs(spectral._sum_density(AAt, got) - density)) <= 1e-14 * np.max(np.abs(density))
    assert np.array_equal(spectral_sum_grid(chain, omegas, s_trunc), spectral._sum_density(AAt, got))


def test_sum_near_the_unit_circle_ends(tmp_path):
    """``spectra --methods sum`` at ``|rho| = 1 - 3.8e-15`` (the pole seed of
    ``test_failing_spectra_leaves_no_file``, ``S`` about 7.3e15 lags) finishes, with finite cells: at
    omega = 0 the power sum is ``rho / (1 - rho)``, about 2.6e14, to within its ``rho**S`` < 1e-12."""
    p = make_params(0.5, 2.0, 1)
    seed = CovarianceSeed(r0=np.array([1.0]), r1=np.array([math.sqrt(2.0) * (1 - 4e-15)]))
    rho = convergence_ratio(make_chain(p, seed))
    seed.to_csv(tmp_path / "seed.csv")
    out = tmp_path / "sum.csv"
    code = ("import sys, dtsim.cli; sys.exit(dtsim.cli.main(['spectra', '--H', '0.5', '--alpha', '2', '--T', '1', "
            f"'--seed-file', {str(tmp_path / 'seed.csv')!r}, '--methods', 'sum', '--n-omega', '64', "
            f"'--out', {str(out)!r}]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    re, im = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(3, 4), unpack=True)
    assert len(re) == 64 and np.all(np.isfinite(re)) and np.all(np.isfinite(im))
    assert re[0] == pytest.approx((1 + 2 * rho / (1 - rho)) / (2 * math.pi), rel=1e-6)
