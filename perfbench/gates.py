"""Correctness gates, run outside the timed region.

Each gate compares a program output with a reference the benchmark builds
itself, or with an independent route of the library, and returns a
:class:`Gate`. Tolerances are relative to the largest reference magnitude
unless stated otherwise. :func:`self_test` feeds every gate outputs made from
a perturbed seed and confirms that each one fires.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from dtsim import cli, core, covariance, simulate, spectral, verify

#: Hermitian density against the directly summed symmetric-covariance series.
DENSITY_RTOL = 1e-10
#: Closed form against the paper's explicit simple-BM formula.
EXPLICIT_RTOL = 1e-12
#: Truncated series against the closed form.
SERIES_RTOL = 1e-10
#: Hermitian symmetry of a density matrix grid.
HERMITIAN_RTOL = 1e-12
#: Covariance closed form against the simple-BM oracle.
ORACLE_RTOL = 1e-12
#: Monte Carlo estimate against the closed form, in standard errors.
MC_SE = 5.0
#: Values read back from written files against library values.
FILE_RTOL = 1e-12


@dataclass(frozen=True)
class Gate:
    ok: bool
    detail: str


def _relative(got: np.ndarray, want: np.ndarray, rtol: float, what: str) -> Gate:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return Gate(False, f"{what}: shape {got.shape} != {want.shape}")
    if not np.all(np.isfinite(got)):
        return Gate(False, f"{what}: non-finite values")
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) / scale if scale > 0 else float(np.max(np.abs(got)))
    return Gate(err <= rtol, f"{what}: rel err {err:.3e} (tol {rtol:.0e})")


def symmetric_series_density(chain, omegas: np.ndarray) -> np.ndarray:
    """Embedding density summed directly from the symmetric covariance.

    ``d(w) = (1/2pi) sum_s l**(-H s) e^{-i w s T} Q(s)`` with
    ``Q_jr(s) = Cov(W^j(l**s), W^r(1)) = dtsim_cov(chain, r, s T + j - r)``.
    Negative lags use covariance symmetry with scale invariance,
    ``Q(-s) = l**(-2 H s) Q(s)^T``, so every term is built from nonnegative
    lags and none overflows before the series has converged. The sum stops
    where ``|rho|**S`` drops below 1e-14.
    """
    p = chain.params
    T = p.T
    rho = abs(core.convergence_ratio(chain))
    S = max(1, math.ceil(math.log(1e-14) / math.log(rho))) if rho > 0 else 1
    omegas = np.asarray(omegas, dtype=float)
    out = np.zeros((len(omegas), T, T), dtype=complex)
    for s in range(S + 1):
        Q = np.array(
            [[covariance.dtsim_cov(chain, r, s * T + j - r) for r in range(T)] for j in range(T)]
        )
        if s == 0:
            out += Q
            continue
        z = np.exp(-1j * omegas * s * T)[:, None, None]
        out += p.l ** (-p.H * s) * (z * Q + np.conj(z) * Q.T)
    return out / (2 * math.pi)


def density(entries: np.ndarray, chain, omegas: np.ndarray) -> Gate:
    want = symmetric_series_density(chain, omegas)
    return _relative(entries, want, DENSITY_RTOL, "density vs symmetric series")


def explicit_form(closed: np.ndarray, params, omegas: np.ndarray) -> Gate:
    T = params.T
    want = np.array(
        [[[spectral.simple_bm_spectral(params, j, r, w) for r in range(T)] for j in range(T)]
         for w in omegas]
    )
    return _relative(closed, want, EXPLICIT_RTOL, "closed vs explicit simple-BM form")


def series_vs_closed(series: np.ndarray, closed: np.ndarray) -> Gate:
    return _relative(series, closed, SERIES_RTOL, "series vs closed")


def hermitian(entries: np.ndarray) -> Gate:
    e = np.asarray(entries)
    if not np.all(np.isfinite(e)):
        return Gate(False, "hermitian: non-finite values")
    scale = max(float(np.max(np.abs(e))), 1e-300)
    asym = float(np.max(np.abs(e - np.conj(np.swapaxes(e, 1, 2))))) / scale
    diag = np.diagonal(e, axis1=1, axis2=2)
    neg = float(max(0.0, -np.min(diag.real))) / scale
    ok = asym <= HERMITIAN_RTOL and neg <= HERMITIAN_RTOL
    return Gate(ok, f"hermitian: asym {asym:.3e}, negative diag {neg:.3e} (tol {HERMITIAN_RTOL:.0e})")


def finite_table(table) -> Gate:
    return Gate(bool(np.all(np.isfinite(table.values))), "finite B_k table")


def exit_code(rc, expected: int) -> Gate:
    return Gate(rc == expected, f"exit {rc}, expected {expected}")


# -- covariance tables -------------------------------------------------------
def read_cov_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cov_row(row: dict, params, builtin: bool) -> Gate:
    """One ``dtsim cov`` row: closed form against the oracle, and MC within 5 SE."""
    n, tau = int(row["n"]), int(row["tau"])
    closed = float(row["closed_form"])
    notes = []
    ok = True
    if builtin:
        oracle = covariance.simple_bm_cov(params.alpha ** (n + tau), params.alpha ** n, params.H, params.l)
        err = abs(closed - oracle) / max(abs(closed), abs(oracle))
        ok &= err <= ORACLE_RTOL
        notes.append(f"oracle rel err {err:.1e}")
    if row.get("mc_estimate"):
        z = abs(float(row["mc_estimate"]) - closed) / float(row["mc_stderr"])
        ok &= z <= MC_SE
        notes.append(f"|mc-closed| = {z:.2f} SE")
    return Gate(bool(ok), ", ".join(notes))


# -- written files -----------------------------------------------------------
def _ensemble_rows(got: np.ndarray, ensemble, what: str) -> Gate:
    """Rows ``path,k,t,value`` against the ensemble: indices exact, floats per column."""
    want_rows = ensemble.n_paths * (ensemble.k_max + 1)
    if got.shape != (want_rows, 4):
        return Gate(False, f"{what}: shape {got.shape}, expected ({want_rows}, 4)")
    index_ok = np.array_equal(got[:, 0], np.repeat(np.arange(ensemble.n_paths), ensemble.k_max + 1))
    index_ok &= np.array_equal(got[:, 1], np.tile(np.arange(ensemble.k_max + 1), ensemble.n_paths))
    t = _relative(got[:, 2], np.tile(ensemble.times, ensemble.n_paths), FILE_RTOL, "t")
    v = _relative(got[:, 3], ensemble.paths.ravel(), FILE_RTOL, "value")
    ok = bool(index_ok) and t.ok and v.ok
    return Gate(ok, f"{what} ({want_rows} rows): indices {'ok' if index_ok else 'WRONG'}; {t.detail}; {v.detail}")


def simulate_csv(path: str, ensemble) -> tuple[Gate, int]:
    """Parse the whole file, check its header and row count, compare every value."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "path,k,t,value":
        return Gate(False, f"simulate csv: header {header!r}"), 0
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return _ensemble_rows(got, ensemble, "simulate csv"), len(got)


def simulate_json(path: str, ensemble) -> tuple[Gate, int]:
    with open(path) as fh:
        rows = json.load(fh)
    got = np.array([[r["path"], r["k"], r["t"], r["value"]] for r in rows], dtype=float)
    return _ensemble_rows(got, ensemble, "simulate json"), len(rows)


def _spectra_values(chain, omegas: np.ndarray, method: str) -> np.ndarray:
    """Library values behind one ``dtsim spectra`` method, one row per frequency."""
    if method == "closed":
        return spectral.spectral_closed_grid(chain, omegas).reshape(len(omegas), -1)
    if method == "sum":
        return spectral.spectral_sum_grid(chain, omegas).reshape(len(omegas), -1)
    if method == "diag":
        return np.array([[spectral.spectral_diag(chain, k, w) for k in range(chain.T)] for w in omegas])
    raise ValueError(f"no reference for method {method!r}")


def spectra_csv(path: str, chain, n_omega: int, methods: list[str], n_check: int = 64) -> tuple[Gate, int]:
    """Parse the whole file, check row counts per method, spot-check ``n_check`` frequencies."""
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "omega,j,r,re,im,method":
        return Gate(False, f"spectra csv: header {header!r}"), 0
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(5), ndmin=2)
    method_col = np.loadtxt(path, delimiter=",", skiprows=1, usecols=5, dtype=str, ndmin=1)
    omegas = spectral.FrequencyGrid(n_omega).omegas
    idx = np.unique(np.linspace(0, n_omega - 1, min(n_check, n_omega)).astype(int))
    ok = set(np.unique(method_col)) == set(methods)
    notes = []
    for method in methods:
        got = data[method_col == method]
        per_omega = chain.T if method == "diag" else chain.T ** 2
        if got.shape != (n_omega * per_omega, 5):
            ok = False
            notes.append(f"{method}: {len(got)} rows, expected {n_omega * per_omega}")
            continue
        got = got.reshape(n_omega, per_omega, 5)[idx]
        gate = _relative(got[:, :, 3] + 1j * got[:, :, 4], _spectra_values(chain, omegas[idx], method),
                         FILE_RTOL, method)
        ok &= gate.ok and np.allclose(got[:, :, 0], omegas[idx, None], rtol=FILE_RTOL, atol=0)
        notes.append(gate.detail)
    return Gate(bool(ok), f"spectra csv ({len(data)} rows): " + "; ".join(notes)), len(data)


# -- self-test ---------------------------------------------------------------
def self_test(tmp: str) -> list[tuple[str, bool, str]]:
    """Feed each gate outputs built from a perturbed seed; every gate must fire.

    Each gate is also run on the exact outputs, where it must pass, so a gate
    that fires on everything is caught too. The exit-code gate is fed the
    other way round: a perturbed ``verify`` must exit 1, an exact one must not. Returns (gate, passed, detail)
    rows; the self-test passed when every row passed.
    """
    results = []

    def expect(name: str, must_pass: Gate, must_fire: Gate) -> None:
        ok = must_pass.ok and not must_fire.ok
        results.append((name, ok, f"must pass: {must_pass.detail} | must fire: {must_fire.detail}"))

    params = core.make_params(0.75, 2.0, 2)
    seed = covariance.simple_bm_seed(params)
    chain = core.make_chain(params, seed)
    bad_seed = verify.perturb_seed(seed, 1e-3, 1)
    bad = core.make_chain(params, bad_seed)
    grid = spectral.FrequencyGrid(32)
    w = grid.omegas

    expect("density", density(spectral.spectral_matrix_grid(chain, grid).entries, chain, w),
           density(spectral.spectral_matrix_grid(bad, grid).entries, chain, w))
    expect("explicit_form", explicit_form(spectral.spectral_closed_grid(chain, w), params, w),
           explicit_form(spectral.spectral_closed_grid(bad, w), params, w))
    closed = spectral.spectral_closed_grid(chain, w)
    expect("series_vs_closed", series_vs_closed(spectral.spectral_sum_grid(chain, w), closed),
           series_vs_closed(spectral.spectral_sum_grid(bad, w), closed))
    # The raw one-sided closed form is not Hermitian at T = 2.
    expect("hermitian", hermitian(spectral.spectral_matrix_grid(chain, grid).entries),
           hermitian(spectral.spectral_closed_grid(chain, w)))
    rc_exact = cli.main(["verify", "--T", "2", "--out", os.path.join(tmp, "v0.txt")])
    rc_bad = cli.main(["verify", "--T", "2", "--perturb", "1e-3", "--out", os.path.join(tmp, "v1.txt")])
    expect("exit_code", exit_code(rc_bad, 1), exit_code(rc_exact, 1))

    # Covariance rows: perturbed closed forms against the exact oracle and
    # against Monte Carlo paths of the exact process (a larger fault, so that
    # it stands out of 5 standard errors at this path count).
    mc_bad = core.make_chain(params, verify.perturb_seed(seed, 0.2, 1))
    ens = simulate.simulate_simple_bm(params, 20000, 6, 3)

    def rows(ch):
        out = []
        for n in range(3):
            for tau in range(-n, 4):
                est = simulate.empirical_cov(ens, n, tau)
                out.append({"n": n, "tau": tau, "closed_form": covariance.dtsim_cov(ch, n, tau),
                            "mc_estimate": est.value, "mc_stderr": est.std_error})
        return out

    def all_rows(rs, builtin):
        checked = [cov_row(r, params, builtin) for r in rs]
        return Gate(all(g.ok for g in checked), f"{sum(not g.ok for g in checked)} of {len(checked)} rows fail")

    expect("cov_oracle", all_rows(rows(chain), True), all_rows(rows(bad), True))
    expect("cov_mc", all_rows(rows(chain), False), all_rows(rows(mc_bad), False))

    # Written files: a spectra file from a perturbed seed file, and a
    # simulate file from another RNG seed, against the exact library values.
    seed_path = os.path.join(tmp, "bad_seed.csv")
    bad_seed.to_csv(seed_path)
    exact_csv = os.path.join(tmp, "spectra_exact.csv")
    bad_csv = os.path.join(tmp, "spectra_bad.csv")
    methods = ["closed", "sum", "diag"]
    cli.main(["spectra", "--methods", ",".join(methods), "--n-omega", "16", "--out", exact_csv])
    cli.main(["spectra", "--seed-file", seed_path, "--methods", ",".join(methods),
              "--n-omega", "16", "--out", bad_csv])
    expect("spectra_csv", spectra_csv(exact_csv, chain, 16, methods)[0],
           spectra_csv(bad_csv, chain, 16, methods)[0])

    ens = simulate.simulate_simple_bm(params, 50, 4, 5)
    for fmt, check in (("csv", simulate_csv), ("json", simulate_json)):
        paths = {}
        for rng in (5, 6):
            paths[rng] = os.path.join(tmp, f"sim{rng}.{fmt}")
            cli.main(["simulate", "--paths", "50", "--kmax", "4", "--seed", str(rng),
                      "--format", fmt, "--out", paths[rng]])
        expect(f"simulate_{fmt}", check(paths[5], ens)[0], check(paths[6], ens)[0])
    return results
