"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints one ``ACCEPTANCE <n> <PASS|FAIL>`` line (straight to the
terminal, past pytest's capture) and asserts the same condition, so the gate
reads off either the printed lines or the pytest summary.  The parameter
lattice is alpha in {1.5, 2, 3} x T in {1, 2, 4} x H in {0.3, 0.5, 0.75, 1}.
"""

import json
import math
import time

import numpy as np

from dtsim import (
    FrequencyGrid,
    SampledFunction,
    build_bk_table,
    cov_table,
    dsi_cov_from_spectra,
    dtsim_cov,
    empirical_cov,
    f_matrix_grid,
    lamperti_forward,
    lamperti_inverse,
    make_chain,
    pc_counterpart_cov,
    q_cov,
    simple_bm_cov,
    simple_bm_seed,
    simple_bm_spectral,
    simulate_simple_bm,
    spectral_closed_grid,
    spectral_diag,
    spectral_matrix_grid,
    spectral_sum_grid,
    verify_commutation,
)
from dtsim.cli import main as cli_main

from conftest import LATTICE, plain_entry, triangle_residual, triangle_residuals


def _report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")


def _chains():
    for p in LATTICE:
        yield p, make_chain(p, simple_bm_seed(p))


def test_acceptance_1_oracle_equivalence(capsys):
    """Closed-form covariance equals the independent min-kernel oracle,
    relative error <= 1e-12, across the whole lattice, in under a second."""
    t0 = time.perf_counter()
    worst = 0.0
    for p, chain in _chains():
        for n in range(2 * p.T):
            for tau in range(-3 * p.T, 3 * p.T + 1):
                if n + tau < 0:
                    continue
                want = simple_bm_cov(p.alpha ** (n + tau), p.alpha ** n, p.H, p.l)
                got = dtsim_cov(chain, n, tau)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(capsys, 1, ok, f"oracle equivalence worst rel {worst:.2e} (tol 1e-12), {elapsed:.2f}s (budget 1s)")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_acceptance_2_monte_carlo(capsys):
    """1e5 simulated paths at alpha=2, T=2, H=0.75 reproduce the closed form
    within 3 standard errors on 10 covariance cells (at most one excursion)."""
    t0 = time.perf_counter()
    p = next(q for q in LATTICE if (q.alpha, q.T, q.H) == (2.0, 2, 0.75))
    chain = make_chain(p, simple_bm_seed(p))
    ens = simulate_simple_bm(p, n_paths=100_000, k_max=8, rng_seed=20240817)
    excursions = 0
    worst_z = 0.0
    for n in range(p.T):
        for tau in range(0, 2 * p.T + 1):
            est = empirical_cov(ens, n, tau)
            z = abs(est.value - dtsim_cov(chain, n, tau)) / est.std_error
            worst_z = max(worst_z, z)
            if z > 3:
                excursions += 1
    elapsed = time.perf_counter() - t0
    ok = excursions <= 1 and elapsed < 60.0
    _report(capsys, 2, ok, f"{excursions}/10 cells beyond 3 SE (allow 1), worst z {worst_z:.2f}, {elapsed:.1f}s (budget 60s)")
    assert excursions <= 1
    assert elapsed < 60.0


def test_acceptance_3_series_vs_closed(capsys):
    """Truncated spectral series and two-term closed form agree to 1e-9
    absolutely on 64 frequencies, lattice-wide, in under five seconds."""
    t0 = time.perf_counter()
    omegas = FrequencyGrid(64).omegas
    worst = 0.0
    for _, chain in _chains():
        closed = spectral_closed_grid(chain, omegas)
        series = spectral_sum_grid(chain, omegas)
        worst = max(worst, float(np.max(np.abs(series - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(capsys, 3, ok, f"series vs closed worst abs {worst:.2e} (tol 1e-9), {elapsed:.2f}s (budget 5s)")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_acceptance_4_explicit_spectral_form(capsys):
    """The general closed form instantiated with the builtin seed matches the
    fully explicit two-pole expression entry by entry (1e-12, relative above
    unit magnitude), and the frozen hand value at omega = 0 holds."""
    omegas = FrequencyGrid(64).omegas
    worst = 0.0
    for p, chain in _chains():
        closed = spectral_closed_grid(chain, omegas)
        for i, w in enumerate(omegas):
            for j in range(p.T):
                for r in range(p.T):
                    d = abs(simple_bm_spectral(p, j, r, w) - closed[i, j, r])
                    worst = max(worst, d / max(1.0, abs(closed[i, j, r])))
    hand_p = next(q for q in LATTICE if (q.alpha, q.T, q.H) == (2.0, 1, 1.0))
    hand_chain = make_chain(hand_p, simple_bm_seed(hand_p))
    hand = spectral_diag(hand_chain, 0, 0.0)
    hand_ok = abs(hand - 1.8552459747) <= 5e-11
    ok = worst <= 1e-12 and hand_ok
    _report(capsys, 4, ok, f"explicit form worst scaled {worst:.2e} (tol 1e-12), diag(0) = {hand:.10f} vs 1.8552459747")
    assert worst <= 1e-12
    assert hand_ok


def test_acceptance_5_structural_invariants(capsys):
    """Lattice-wide structure: Hermitian density matrices from both spectral
    constructions, vanishing wide-sense-Markov triangle residuals, exact
    2TH-power scale extension, and transform round-trip/commutation at 1e-12."""
    grid = FrequencyGrid(16)
    worst_h = worst_t = worst_s = worst_l = 0.0
    rng = np.random.default_rng(7)
    for p, chain in _chains():
        # Hermitian density matrices (constructors also enforce this)
        for sm in (spectral_matrix_grid(chain, grid), f_matrix_grid(build_bk_table(chain), grid)):
            e = sm.entries
            scale = max(1.0, float(np.max(np.abs(e))))
            worst_h = max(worst_h, float(np.max(np.abs(e - np.conj(np.swapaxes(e, 1, 2))))) / scale)

        # Markov triangle on all grid triples up to alpha**(4T)
        res, norm = triangle_residuals(chain, 4 * p.T)
        worst_t = max(worst_t, float(np.max(np.abs(res) / np.maximum(1.0, norm))))

        # scale extension and the scalar DSI residual
        factor = p.alpha ** (2 * p.T * p.H)
        n, tau = np.arange(p.T)[:, np.newaxis], np.arange(0, 2 * p.T + 1)
        a, b = cov_table(chain, n + p.T, tau), factor * cov_table(chain, n, tau)
        worst_s = max(worst_s, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
        cov = lambda u, v: simple_bm_cov(u, v, p.H, p.l)
        for t, s in ((1.0, 1.0), (1.0, p.alpha), (p.alpha, p.alpha ** 2)):
            res = cov(p.l * t, p.l * s) - p.l ** (2 * p.H) * cov(t, s)  # zero under DSI at scale l
            worst_s = max(worst_s, abs(res) / max(1.0, factor))

        # transform round trip and shift/dilation commutation
        y = SampledFunction(domain=np.arange(0.0, 9.0), values=rng.standard_normal(9))
        back = lamperti_inverse(lamperti_forward(y, p.H, p.alpha), p.H, p.alpha)
        worst_l = max(worst_l, float(np.max(np.abs(back.values - y.values))))
        worst_l = max(worst_l, verify_commutation(y, p.H, p.alpha, p.alpha))
        worst_l = max(worst_l, verify_commutation(y, p.H, p.alpha, p.alpha ** 2))
    ok = max(worst_h, worst_t, worst_s, worst_l) <= 1e-12
    _report(capsys, 5, ok, f"hermitian {worst_h:.2e}, triangle {worst_t:.2e}, scale {worst_s:.2e}, transform {worst_l:.2e} (tol 1e-12)")
    assert worst_h <= 1e-12
    assert worst_t <= 1e-12
    assert worst_s <= 1e-12
    assert worst_l <= 1e-12


def test_acceptance_6_phase_expansion_roundtrip(capsys):
    """Periodic phase components invert exactly (1e-12) and rebuild the
    scale-invariant covariance through the spectral route at 1e-10."""
    worst_b = worst_c = 0.0
    for p, chain in _chains():
        T = p.T
        table = build_bk_table(chain, tau_window=2 * T)
        for n in range(T):
            for tau in range(-2 * T, 2 * T + 1):
                want_pc = pc_counterpart_cov(chain, n, tau)
                recon = sum(
                    table.value(k, tau) * np.exp(2j * math.pi * k * n / T)
                    for k in range(T)
                )
                worst_b = max(
                    worst_b,
                    abs(complex(recon) - want_pc) / max(1.0, abs(want_pc)),
                )
        for n in range(2 * T):
            for tau in range(-2 * T, 2 * T + 1):
                want = dtsim_cov(chain, n, tau)
                got = dsi_cov_from_spectra(chain, n, tau, table)
                worst_c = max(worst_c, abs(got - want) / max(1.0, abs(want)))
    ok = worst_b <= 1e-12 and worst_c <= 1e-10
    _report(capsys, 6, ok, f"phase inversion {worst_b:.2e} (tol 1e-12), covariance rebuild {worst_c:.2e} (tol 1e-10)")
    assert worst_b <= 1e-12
    assert worst_c <= 1e-10


def test_acceptance_7_embedding_two_routes(capsys):
    """Matrix covariance of the T-dimensional embedding equals a plain product
    of one-step ratios from grid point nT + k to (n + tau)T + j (1e-12
    relative), including the lag-0 block."""
    worst = 0.0
    for p, chain in _chains():
        for n in (0, 1, 2):
            for tau in (0, 1, 2, 3):
                q = q_cov(chain, n, tau)
                for j in range(p.T):
                    for k in range(p.T):
                        want = plain_entry(chain, n, tau, j, k)
                        worst = max(
                            worst, abs(q[j, k] - want) / max(1.0, abs(want))
                        )
    ok = worst <= 1e-12
    _report(capsys, 7, ok, f"two-route embedding covariance worst rel {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_acceptance_8_negative_controls(capsys):
    """Verification machinery detects what it should: non-Markov kernels,
    mismatched scale exponents, and injected seed faults."""
    def gauss(t: float, s: float) -> float:
        return math.exp(-((t - s) ** 2))

    r1 = triangle_residual(gauss, 0.0, 1.0, 2.0)
    r2 = triangle_residual(gauss, 1.0, 2.0, 4.0)
    triangle_ok = abs(r1) > 1e-3 and abs(r2) > 1e-3

    p = next(q for q in LATTICE if (q.alpha, q.T, q.H) == (2.0, 2, 1.0))
    dsi_residual = lambda cov, t, s: cov(p.l * t, p.l * s) - p.l ** (2 * p.H) * cov(t, s)
    mismatch = dsi_residual(min, 1.0, 2.0)  # plain min kernel is invariant at H = 1/2, not H = 1
    dsi_ok = abs(mismatch) > 1.0

    code = cli_main(["verify", "--perturb", "1e-3", "--json"])
    payload = json.loads(capsys.readouterr().out)
    failing = {c["name"] for c in payload["checks"] if not c["passed"]}
    inject_ok = code == 1 and "oracle_equivalence" in failing

    ok = triangle_ok and dsi_ok and inject_ok
    _report(capsys, 8, ok, f"non-Markov residual {abs(r1):.2e} > 1e-3, H-mismatch residual {abs(mismatch):.1f}, fault injection exit {code} failing {sorted(failing)}")
    assert triangle_ok
    assert dsi_ok
    assert inject_ok
