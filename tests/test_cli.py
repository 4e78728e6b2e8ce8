import argparse
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dtsim import (
    CovarianceSeed,
    FrequencyGrid,
    auto_truncation,
    bk_from_pc_cov,
    convergence_ratio,
    cov_table,
    empirical_cov,
    make_chain,
    make_params,
    q_cov,
    simple_bm_cov,
    simple_bm_seed,
    simple_bm_spectral,
    simulate_simple_bm,
    spectral_closed_grid,
    spectral_diag,
    spectral_sum_grid,
)
import dtsim
from dtsim import cli, spectral, table
from dtsim.cli import main
from dtsim.simulate import BATCH_SIZE
from dtsim.table import write_table

from conftest import NEG_CORRS, correlated_seed, seed_shape, simulate_brownian


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_cov_defaults(capsys):
    code, out = run_cli(capsys, "cov")
    assert code == 0
    rows = parse_csv(out)
    # defaults: T=2, n in 0..3, tau in -2..4, pairs with n + tau < 0 skipped
    assert len(rows) == 25
    assert out.splitlines()[0] == "n,tau,closed_form,oracle,mc_estimate,mc_stderr"
    for row in rows:
        closed, oracle = float(row["closed_form"]), float(row["oracle"])
        assert abs(closed - oracle) <= 1e-12 * max(1.0, abs(oracle))
        assert row["mc_estimate"] == ""


def test_cov_seed_file_has_no_oracle(capsys, tmp_path):
    p = make_params(0.75, 2.0, 2)
    seed_path = tmp_path / "seed.csv"
    simple_bm_seed(p).to_csv(seed_path)
    code, out = run_cli(capsys, "cov", "--seed-file", str(seed_path))
    assert code == 0
    rows = parse_csv(out)
    assert all(row["oracle"] == "" for row in rows)
    # same chain as builtin, so the closed forms must match it
    code2, out2 = run_cli(capsys, "cov", "--builtin")
    assert [r["closed_form"] for r in rows] == [r["closed_form"] for r in parse_csv(out2)]


def test_cov_monte_carlo_columns(capsys):
    code, out = run_cli(
        capsys, "cov", "--mc-paths", "4000", "--mc-seed", "3", "--n-max", "1",
        "--tau-min", "0", "--tau-max", "2",
    )
    assert code == 0
    for row in parse_csv(out):
        est = float(row["mc_estimate"])
        se = float(row["mc_stderr"])
        assert se > 0
        assert abs(est - float(row["closed_form"])) <= 4 * se


def test_cov_bad_ranges(capsys):
    code, _ = run_cli(capsys, "cov", "--n-min", "3", "--n-max", "1")
    assert code == 2


@pytest.mark.parametrize("command", ["cov", "embed"])
@pytest.mark.parametrize("ranges", [
    ("--n-min", "3", "--n-max", "1"),
    ("--tau-min", "2", "--tau-max", "0"),
    ("--n-min", "-2"),
])
def test_reversed_or_negative_ranges_exit_2(capsys, command, ranges):
    code, out = run_cli(capsys, command, *ranges)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_mc_paths_exit_2(capsys, tmp_path, source):
    """Only 0 disables Monte Carlo; a negative path count is a configuration error."""
    if source == "flag":
        argv = ("--mc-paths", "-5")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": {"n_paths": -5}}))
        argv = ("--config", str(cfg))
    code, out = run_cli(capsys, "cov", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["cov", "--mc-paths", "10", "--mc-seed", "-5"],
    ["simulate", "--config", "{cfg}"],
    ["verify", "--perturb", "1e-3", "--seed", "-1"],
])
def test_negative_rng_seed_exit_2(capsys, tmp_path, argv):
    """A negative RNG seed is a configuration error caught before the output file is opened."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mc": {"rng_seed": -3}}))
    out = tmp_path / "out.csv"
    code = main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "rng_seed must be >= 0" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("seed", [
    CovarianceSeed(r0=[1.0, 2.0], r1=[0.5, 1.0]),
    CovarianceSeed(r0=[1.0, 2.0], r1=[-0.5, 1.0]),
    correlated_seed(make_params(0.75, 2.0, 4), NEG_CORRS),
], ids=["non-bm", "negative-ratio", "T4"])
def test_cov_seed_file_monte_carlo_simulates_the_seed(capsys, tmp_path, seed):
    """Monte Carlo paths of a seed file have that seed's covariance: every row within 5 SE of the closed form."""
    seed.to_csv(tmp_path / "seed.csv")
    code, out = run_cli(capsys, "cov", "--T", str(seed.T), "--seed-file", str(tmp_path / "seed.csv"),
                        "--mc-paths", "20000", "--mc-seed", "12")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) >= 25
    for row in rows:
        z = abs(float(row["mc_estimate"]) - float(row["closed_form"])) / float(row["mc_stderr"])
        assert z <= 5, row


def test_cov_split_chain_monte_carlo_exit_2(capsys, tmp_path):
    """``r1[T-1] = 0`` has a closed form but no paths: exit 2 before the output file is opened."""
    CovarianceSeed(r0=[1.0, 2.0], r1=[0.5, 0.0]).to_csv(tmp_path / "seed.csv")
    argv = ["cov", "--seed-file", str(tmp_path / "seed.csv")]
    assert main(argv + ["--out", str(tmp_path / "closed.csv")]) == 0
    out = tmp_path / "out.csv"
    code = main(argv + ["--mc-paths", "100", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "one-step covariance 0 at k = 1 " in captured.err
    assert not out.exists()


def test_simulate_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run_cli(
            capsys, "simulate", "--paths", "20", "--kmax", "5", "--seed", "11",
            "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "path,k,t,value"
    assert len(lines) == 1 + 20 * 6


def test_simulate_brownian_is_h_half_simple_bm(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "simulate", "--H", "0.5", "--process", "brownian",
            "--paths", "10", "--kmax", "4", "--out", str(a))
    run_cli(capsys, "simulate", "--H", "0.5", "--process", "simple-bm",
            "--paths", "10", "--kmax", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_simulate_brownian_rejects_another_h(tmp_path, capsys, where):
    """``--process brownian`` is H = 0.5: another H, from the flag or the config, exits 2 and writes nothing;
    without one, the paths are those of ``--H 0.5``."""
    argv = ["simulate", "--process", "brownian", "--paths", "10", "--kmax", "4"]
    if where == "flag":
        argv += ["--H", "0.9"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"H": 0.9}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "paths.csv"
    assert main([*argv, "--out", str(out)]) == 2 and not out.exists()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "H = 0.9" in captured.err
    code, implicit = run_cli(capsys, *argv[:6])
    assert (code, implicit) == run_cli(capsys, *argv[:6], "--H", "0.5")


def test_verify_seed_file_names_the_cauchy_schwarz_bound_as_floats(tmp_path, capsys):
    CovarianceSeed(r0=np.array([1.0, 1.0]), r1=np.array([5.0, 1.0])).to_csv(tmp_path / "seed.csv")
    assert main(["verify", "--T", "2", "--seed-file", str(tmp_path / "seed.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: |r1[0]| = 5.0 exceeds the Cauchy-Schwarz bound 1.0\n"


def test_spectra_row_counts_and_agreement(capsys):
    code, out = run_cli(capsys, "spectra", "--n-omega", "16", "--T", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2 * 16 * 4  # closed,sum x n_omega x T^2
    closed = {(r["omega"], r["j"], r["r"]): complex(float(r["re"]), float(r["im"]))
              for r in rows if r["method"] == "closed"}
    for r in rows:
        if r["method"] == "sum":
            c = closed[(r["omega"], r["j"], r["r"])]
            assert abs(complex(float(r["re"]), float(r["im"])) - c) <= 1e-9


def test_spectra_diag_and_example(capsys):
    code, out = run_cli(capsys, "spectra", "--methods", "diag", "--n-omega", "8", "--T", "3")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 8 * 3
    assert all(r["j"] == r["r"] and float(r["im"]) == 0.0 for r in rows)
    code, out = run_cli(
        capsys, "spectra", "--methods", "example,closed", "--n-omega", "4"
    )
    assert code == 0
    rows = parse_csv(out)
    ex = {k: v for k, v in (((r["omega"], r["j"], r["r"]), r) for r in rows)
          if v["method"] == "example"}
    assert len(ex) == 4 * 4


def test_spectra_example_needs_builtin(capsys, tmp_path):
    p = make_params(0.75, 2.0, 2)
    seed_path = tmp_path / "seed.csv"
    simple_bm_seed(p).to_csv(seed_path)
    code, _ = run_cli(capsys, "spectra", "--methods", "example",
                      "--seed-file", str(seed_path))
    assert code == 2


def test_spectra_unknown_method(capsys):
    code, _ = run_cli(capsys, "spectra", "--methods", "fourier")
    assert code == 2


@pytest.mark.parametrize("methods", [",", ""])
def test_spectra_empty_method_list(capsys, methods):
    code, out = run_cli(capsys, "spectra", "--methods", methods)
    assert code == 2
    assert out == ""


def test_embed_rows(capsys):
    code, out = run_cli(capsys, "embed", "--T", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3 * 4 * 4  # n 0..2, tau 0..3, T^2 entries
    assert out.splitlines()[0] == "n,tau,j,k,value"


def test_embed_json_format(capsys):
    code, out = run_cli(capsys, "embed", "--format", "json", "--n-max", "0",
                        "--tau-max", "0")
    assert code == 0
    rows = json.loads(out)
    assert isinstance(rows, list) and rows[0].keys() == {"n", "tau", "j", "k", "value"}


def test_embed_long_negative_lag_is_finite(capsys, tmp_path):
    """Near the Cauchy-Schwarz bound ``htilde_period**700`` alone overflows; the one-power form does not."""
    seed = CovarianceSeed(r0=np.array([1.0, 1.0]), r1=np.array([0.98 ** 0.5, 0.98 ** 0.5 * 2 ** 1.5]))
    seed.to_csv(tmp_path / "seed.csv")
    code, out = run_cli(capsys, "embed", "--seed-file", str(tmp_path / "seed.csv"),
                        "--n-max", "0", "--tau-min", "-700", "--tau-max", "-700")
    assert code == 0
    values = [float(row["value"]) for row in parse_csv(out)]
    assert len(values) == 4 and all(math.isfinite(v) for v in values)


@pytest.mark.filterwarnings("error")
def test_cov_far_entry_is_finite(capsys, tmp_path):
    """``alpha**(2THb)`` alone overflows at (686, 686); the negative-ratio entry is -2.0703e275."""
    p = make_params(0.75, 2.0, 2)
    correlated_seed(p, NEG_CORRS).to_csv(tmp_path / "neg2.csv")
    code, out = run_cli(capsys, "cov", "--T", "2", "--seed-file", str(tmp_path / "neg2.csv"),
                        "--n-min", "686", "--n-max", "686", "--tau-min", "686", "--tau-max", "686")
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["closed_form"]) == pytest.approx(-2.0702989096562552e275, rel=1e-13)


@pytest.mark.filterwarnings("error")
def test_embed_far_positive_lag_has_no_inf(capsys, tmp_path):
    """At T = 32 the powers in ``q_cov(chain, 22, 78)`` leave float range in opposite directions; no entry does."""
    p = make_params(0.75, 2.0, 32)
    correlated_seed(p, NEG_CORRS).to_csv(tmp_path / "neg32.csv")
    code, out = run_cli(capsys, "embed", "--T", "32", "--seed-file", str(tmp_path / "neg32.csv"),
                        "--n-min", "22", "--n-max", "22", "--tau-min", "78", "--tau-max", "78")
    assert code == 0
    values = [float(row["value"]) for row in parse_csv(out)]
    assert len(values) == 32 * 32 and all(math.isfinite(v) for v in values)


def test_cov_monte_carlo_past_1e154_is_finite(capsys):
    """Covariances of about 1.3e154 have fourth moments out of float range: the moments pass scales each
    grid point's paths by a power of two, so ``mc_estimate`` and ``mc_stderr`` stay finite, with no numpy
    warning, and the estimates lie within 5 standard errors of the closed form."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, "cov", "--T", "4", "--mc-paths", "3000", "--n-min", "340", "--n-max", "340",
                            "--tau-max", "2")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 7 and max(float(row["closed_form"]) for row in rows) > 1e154
    for row in rows:
        closed, est, se = (float(row[c]) for c in ("closed_form", "mc_estimate", "mc_stderr"))
        assert math.isfinite(est) and 0 < se < math.inf and abs(est - closed) < 5 * se


def test_cov_overflow_gives_inf_cells(capsys):
    """Covariances beyond float range are inf in the closed form and the oracle alike, exit 0."""
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out = run_cli(capsys, "cov", "--H", "3", "--alpha", "1e5", "--n-max", "30", "--tau-max", "40")
    assert code == 0
    rows = parse_csv(out)
    closed = np.array([float(row["closed_form"]) for row in rows])
    oracle = np.array([float(row["oracle"]) for row in rows])
    assert np.isinf(closed).any()
    assert np.array_equal(np.isinf(closed), np.isinf(oracle))
    finite = np.isfinite(closed)
    assert np.all(np.abs(closed[finite] - oracle[finite]) <= 1e-12 * np.abs(oracle[finite]))


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert "overall: pass" in out
    code, out = run_cli(capsys, "verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 7
    assert all(c["observed"] <= c["tolerance"] for c in payload["checks"])


def test_verify_format_and_output_config(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True
    report = tmp_path / "report.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"path": str(report), "format": "json"}}))
    code, out = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert json.loads(report.read_text())["passed"] is True
    # flags beat the config file; csv, the default, selects the text report
    text = tmp_path / "report.txt"
    code, out = run_cli(capsys, "verify", "--config", str(cfg), "--format", "csv",
                        "--out", str(text))
    assert code == 0
    assert out == ""
    assert text.read_text().endswith("overall: pass\n")


def test_verify_fault_injection(capsys):
    code, out = run_cli(capsys, "verify", "--perturb", "1e-3", "--json")
    assert code == 1
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert "oracle_equivalence" in failing
    # structural invariants that hold for ANY admissible chain keep passing
    assert "markov_triangle" not in failing
    assert "hermitian_spectral" not in failing


def _failing_checks(out: str) -> list[str]:
    return [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


@pytest.mark.parametrize("H, alpha", [(0.75, 2.0), (0.3, 1.5)])
@pytest.mark.parametrize("T", [1, 2, 4, 8, 16, 32])
def test_verify_passes_the_builtin_seed_at_large_periods(capsys, T, H, alpha):
    """Residuals are scaled to the entries they compare, so valid seeds do not false-fail at large T."""
    code, out = run_cli(capsys, "verify", "--T", str(T), "--H", str(H), "--alpha", str(alpha), "--json")
    assert (code, _failing_checks(out)) == (0, [])


def test_verify_overflow_fails_its_checks_without_numpy_warnings(capsys):
    """At T=64, H=1.5, alpha=4 the covariance table overflows: two checks read nan and fail, and
    numpy's RuntimeWarnings, which name no check, are not printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(capsys, "verify", "--T", "64", "--H", "1.5", "--alpha", "4", "--json")
    assert [str(w.message) for w in caught] == []
    assert (code, _failing_checks(out)) == (1, ["markov_triangle", "phase_expansion_roundtrip"])
    assert all(math.isnan(c["observed"]) for c in json.loads(out)["checks"] if not c["passed"])


def test_verify_names_a_cov_table_overflow(capsys):
    """The check whose covariance table overflowed says so after its status, and in JSON as a fifth key."""
    argv = ["verify", "--T", "64", "--H", "1.5", "--alpha", "4"]
    code, out = run_cli(capsys, *argv, "--json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and checks.pop("markov_triangle")["note"] == "cov_table overflow"
    assert all(c.keys() == {"name", "observed", "tolerance", "passed"} for c in checks.values())
    code, out = run_cli(capsys, *argv)
    noted = [line.split()[0] for line in out.splitlines() if line.endswith("  FAIL  cov_table overflow")]
    assert (code, noted) == (1, ["markov_triangle"])


@pytest.mark.parametrize("T", [2, 8, 32])
def test_verify_perturbed_seed_fails_at_large_periods(capsys, T):
    code, out = run_cli(capsys, "verify", "--T", str(T), "--perturb", "1e-3", "--json")
    assert code == 1
    assert "oracle_equivalence" in _failing_checks(out)


_VALID_SEEDS = {
    "ratio-0.95": ([1.0, 1.0], [0.95 ** 0.5, 0.95 ** 0.5 * 2 ** 1.5]),
    "ratio-0.98": ([1.0, 1.0], [0.98 ** 0.5, 0.98 ** 0.5 * 2 ** 1.5]),
    "uneven": ([1.0, 1.0], [0.5, 1.2]),
    "T4": ([1.0, 2.0, 0.5, 3.0], [0.3, -0.4, 0.9, 1.1]),
}


@pytest.mark.parametrize("name", _VALID_SEEDS)
def test_verify_seed_file_passes_valid_seeds(capsys, tmp_path, name):
    """A seed file is checked against itself: ``seed_reproduction`` takes the place of the simple-BM oracle,
    every check passes, and ``--perturb`` fails that check alone."""
    r0, r1 = _VALID_SEEDS[name]
    CovarianceSeed(r0=np.array(r0), r1=np.array(r1)).to_csv(tmp_path / "seed.csv")
    argv = ["verify", "--T", str(len(r0)), "--seed-file", str(tmp_path / "seed.csv"), "--json"]
    code, out = run_cli(capsys, *argv)
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert (code, _failing_checks(out)) == (0, [])
    assert "seed_reproduction" in names and "oracle_equivalence" not in names
    code, out = run_cli(capsys, *argv, "--perturb", "1e-3")
    assert (code, _failing_checks(out)) == (1, ["seed_reproduction"])


def test_verify_loads_no_numpy_random():
    """``verify`` takes fixed test values and draws its fault from ``random``: with and without ``--perturb``,
    a fresh interpreter running it never loads ``numpy.random``."""
    code = ("import os, sys, dtsim.cli; "
            "codes = [dtsim.cli.main(['verify', *argv, '--out', os.devnull]) for argv in ([], ['--perturb', '1e-3'])]; "
            "print(codes, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 1] False"


def test_verify_builtin_and_run_checks_keep_the_oracle(capsys):
    """``--builtin`` and ``run_checks`` without a reference compare with the simple-BM oracle, so a foreign
    seed still fails it; with the seed as its own reference it passes."""
    code, out = run_cli(capsys, "verify", "--builtin", "--json")
    assert code == 0 and "oracle_equivalence" in [c["name"] for c in json.loads(out)["checks"]]
    p = make_params(0.75, 2.0, 2)
    seed = CovarianceSeed(r0=np.ones(2), r1=np.array([0.95 ** 0.5, 0.95 ** 0.5 * 2 ** 1.5]))
    assert [r.name for r in dtsim.run_checks(p, seed) if not r.passed] == ["oracle_equivalence"]
    assert all(r.passed for r in dtsim.run_checks(p, seed, seed))
    assert [r.name for r in dtsim.run_checks(p, simple_bm_seed(p), seed) if not r.passed] == ["seed_reproduction"]


_FFT = np.fft.fft


def _truncated_sum(chain, omegas, s_trunc=None):
    """Half the terms the series needs."""
    return spectral_sum_grid(chain, omegas, auto_truncation(convergence_ratio(chain)) // 2)


def _bk_index_off_by_one(pc, k):
    return bk_from_pc_cov(pc, np.asarray(k) + 1)


def _fft_input_rolled(a, axis=-1):
    """Lags shifted by one before the transform."""
    return _FFT(np.roll(a, 1, axis=axis), axis=axis)


def _fft_input_conjugated(a, axis=-1):
    return _FFT(np.conj(a), axis=axis)


@pytest.mark.parametrize("T", [8, 32])
@pytest.mark.parametrize("target, fault, check", [
    ("dtsim.verify.spectral_sum_grid", _truncated_sum, "series_vs_closed"),
    ("dtsim.spectral.bk_from_pc_cov", _bk_index_off_by_one, "phase_expansion_roundtrip"),
    ("numpy.fft.fft", _fft_input_rolled, "hermitian_spectral"),
    ("numpy.fft.fft", _fft_input_conjugated, "hermitian_spectral"),
], ids=["truncated_sum", "bk_index_off_by_one", "fft_input_rolled", "fft_input_conjugated"])
def test_verify_injected_fault_fails_its_check(capsys, monkeypatch, T, target, fault, check):
    """Each fault is reported by its own check with exit 1, not refused as a bad configuration."""
    monkeypatch.setattr(target, fault)
    code, out = run_cli(capsys, "verify", "--T", str(T), "--json")
    assert code == 1
    assert check in _failing_checks(out)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "H": 0.5, "alpha": 2.0, "T": 1,
        "mc": {"n_paths": 7, "k_max": 3, "rng_seed": 5},
    }))
    code, out = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert len(parse_csv(out)) == 7 * 4
    # flag beats config
    code, out = run_cli(capsys, "simulate", "--config", str(cfg), "--kmax", "1")
    assert code == 0
    assert len(parse_csv(out)) == 7 * 2


def test_config_rejects_non_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run_cli(capsys, "cov", "--config", str(cfg))[0] == 2
    cfg.write_text("{not json")
    assert run_cli(capsys, "cov", "--config", str(cfg))[0] == 2
    assert run_cli(capsys, "cov", "--config", str(tmp_path / "missing.json"))[0] == 3


def test_exit_code_config_errors(capsys, tmp_path):
    assert run_cli(capsys, "cov", "--alpha", "0.5")[0] == 2
    p = make_params(0.75, 2.0, 2)
    seed_path = tmp_path / "seed.csv"
    simple_bm_seed(p).to_csv(seed_path)
    assert run_cli(capsys, "cov", "--builtin", "--seed-file", str(seed_path))[0] == 2
    # seed length 2 against T=3
    assert run_cli(capsys, "cov", "--T", "3", "--seed-file", str(seed_path))[0] == 2


@pytest.mark.parametrize("config", [{"T": "abc"}, {"T": 2.5}, {"H": "abc"}, {"mc": {"n_paths": 2.5}}, {"seed_file": 2}],
                         ids=["T-abc", "T-2.5", "H-abc", "n_paths-2.5", "seed_file-2"])
def test_malformed_config_values_exit_2(capsys, tmp_path, config):
    """A config value that is not exactly a number of the right kind is rejected, never truncated."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run_cli(capsys, "cov", "--config", str(cfg))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("rows", ["0,abc,0.5\n1,2,1\n", "0,1,0.5\nx,2,1\n", "0,1,0.5\n1,2\n"],
                         ids=["r0-abc", "j-x", "r1-missing"])
def test_malformed_seed_file_exit_2(capsys, tmp_path, rows):
    path = tmp_path / "seed.csv"
    path.write_text("j,r0,r1\n" + rows)
    code, out = run_cli(capsys, "cov", "--seed-file", str(path))
    assert code == 2
    assert out == ""


def test_seed_file_header_may_have_spaces(capsys, tmp_path):
    path = tmp_path / "seed.csv"
    path.write_text("j, r0, r1\n0, 1.0, 0.5\n1, 2.0, 1.0\n")
    assert CovarianceSeed.from_csv(path).r1.tolist() == [0.5, 1.0]
    assert run_cli(capsys, "cov", "--seed-file", str(path))[0] == 0


def test_exit_code_io_error(capsys):
    code, _ = run_cli(capsys, "cov", "--out", "/nonexistent-dir/x.csv")
    assert code == 3


def test_exit_code_convergence(capsys, tmp_path):
    # perfectly correlated boundary seed: |rho| = 1, no spectral density
    seed = CovarianceSeed(r0=np.array([1.0]), r1=np.array([math.sqrt(2.0)]))
    path = tmp_path / "boundary.csv"
    seed.to_csv(path)
    code, _ = run_cli(capsys, "spectra", "--H", "0.5", "--alpha", "2", "--T", "1",
                      "--seed-file", str(path))
    assert code == 4
    # the covariance itself is still fine
    code, _ = run_cli(capsys, "cov", "--H", "0.5", "--alpha", "2", "--T", "1",
                      "--seed-file", str(path))
    assert code == 0


@pytest.mark.parametrize("case", ["convergence", "pole", "truncation", "vanishing", "vanishing-sum", "repeated"])
def test_failing_spectra_leaves_no_file(capsys, tmp_path, case):
    """``spectra`` checks every method's inputs before it opens its output: ``|rho| = 1`` (the seed of
    ``test_exit_code_convergence``) and a pole on the grid exit 4, a negative truncation, an h-chain
    that vanishes inside the period (the seed of ``test_qcov_rejects_vanishing_chain``, for ``closed``
    and for ``sum``) and a method named twice exit 2, and no file is left and nothing is written."""
    if case == "truncation":
        argv, want = ["--truncation", "-1"], 2
    elif case == "repeated":
        argv, want = ["--methods", "closed,closed"], 2
    elif case.startswith("vanishing"):  # rho = 0: no convergence or pole error comes first
        CovarianceSeed(r0=np.array([1.0, 1.0]), r1=np.array([0.0, 0.5])).to_csv(tmp_path / "seed.csv")
        argv, want = ["--H", "0.5", "--alpha", "2", "--T", "2", "--seed-file", str(tmp_path / "seed.csv")], 2
        argv += ["--methods", "diag,sum"] if case == "vanishing-sum" else []
    else:  # |rho| = 1, or |rho| = 1 - 3.8e-15, a pole at omega = 0
        r1 = math.sqrt(2.0) * (1.0 if case == "convergence" else 1 - 4e-15)
        CovarianceSeed(r0=np.array([1.0]), r1=np.array([r1])).to_csv(tmp_path / "seed.csv")
        argv, want = ["--H", "0.5", "--alpha", "2", "--T", "1", "--seed-file", str(tmp_path / "seed.csv")], 4
    out = tmp_path / "spectra.csv"
    assert main(["spectra", *argv, "--out", str(out)]) == want and not out.exists()
    assert main(["spectra", *argv]) == want
    captured = capsys.readouterr()
    assert captured.out == "" and ("pole" in captured.err) == (case == "pole")


def test_spectra_sums_the_series_once(monkeypatch, tmp_path):
    """``spectra`` runs the truncated power sum, and forms ``A = q_cov(chain, 0, 0)``, once for the whole
    grid, not once per part (three or four parts a method here), and writes what ``spectral_closed_grid``,
    ``spectral_sum_grid``, ``spectral_diag`` and ``simple_bm_spectral`` give on the whole grid, bit for
    bit: for the builtin seed and a seed file, at T = 2 and 16, on no format worker and on two.  Only the
    writer's calls are counted: on no worker every part is built in the writer."""
    calls, matrices = [], []
    truncation = spectral._sum_truncation
    monkeypatch.setattr(spectral, "_sum_truncation", lambda *args: calls.append(args) or truncation(*args))
    for module in (dtsim.cli, spectral):
        monkeypatch.setattr(module, "q_cov", lambda *args, q_cov=module.q_cov: matrices.append(args) or q_cov(*args))
    for seed_file, (T, n_omega), workers in itertools.product((False, True), ((2, 4500), (16, 100)), (0, 2)):
        monkeypatch.setattr(table, "_FORMAT_WORKERS", workers)
        p = make_params(0.75, 2.0, T)
        seed = seed_shape(T, 0.95) if seed_file else simple_bm_seed(p)
        methods = ["closed", "sum", "diag"] + ([] if seed_file else ["example"])
        argv = ["spectra", "--T", str(T), "--n-omega", str(n_omega), "--methods", ",".join(methods)]
        if seed_file:
            seed.to_csv(tmp_path / "seed.csv")
            argv += ["--seed-file", str(tmp_path / "seed.csv")]
        out = tmp_path / "spectra.csv"
        calls.clear()
        matrices.clear()
        assert main([*argv, "--out", str(out)]) == 0
        assert len(calls) == 1 and len(matrices) == 1
        chain = make_chain(p, seed)
        omegas = FrequencyGrid(n_omega).omegas
        idx = np.arange(T)
        want = {"closed": spectral_closed_grid(chain, omegas), "sum": spectral_sum_grid(chain, omegas),
                "diag": spectral_diag(chain, idx, omegas[:, np.newaxis]),
                "example": simple_bm_spectral(p, idx[:, np.newaxis], idx, omegas[:, np.newaxis, np.newaxis])}
        want = np.concatenate([want[method].ravel() for method in methods])
        re, im = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(3, 4), unpack=True)
        assert np.array_equal(re, want.real) and np.array_equal(im, want.imag), (seed_file, T, workers)


def test_embed_out_of_float_range_is_inf_without_a_warning(monkeypatch, tmp_path):
    """At T = 128, ``embed`` at ``(n, tau) = (4, 4)`` has entries past float range: they are written as
    ``inf``, the documented cell, with no numpy overflow warning (an error under this suite's filter)."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", 0)
    out = tmp_path / "embed.csv"
    assert main(["embed", "--T", "128", "--n-min", "4", "--n-max", "4", "--tau-min", "4", "--tau-max", "4",
                 "--out", str(out)]) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1, usecols=4)
    assert len(values) == 128 * 128 and np.any(np.isposinf(values)) and np.any(np.isfinite(values))


def test_spectra_holds_a_few_blocks(monkeypatch):
    """``spectra --T 64 --n-omega 1024`` on no format worker builds each method's grid, 67 MB, one chunk of
    two frequencies at a time: the peak stays below 2 MB, 16 blocks of complex entries.  The text of
    each block is left out, as formatting 4.2e6 rows a method under ``tracemalloc`` takes seconds; a
    block's text is bounded by ``test_format_compacts_a_large_block_in_chunks``."""
    monkeypatch.setattr(table, "_FORMAT_WORKERS", 0)
    monkeypatch.setattr(table, "_format", lambda job: b"")
    tracemalloc.start()
    try:
        code = main(["spectra", "--T", "64", "--n-omega", "1024", "--methods", "closed,sum,example,diag",
                     "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * table.BLOCK_ROWS * 16


def test_argparse_errors_map_to_config_exit(capsys):
    assert main(["cov", "--no-such-flag"]) == 2
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["cov", "--no-such-flag"], ["cov", "--T", "x"], ["cov", "--n-max"], ["simulate", "--help"],
    ["simulate", "--process", "foo"], ["spectra", "-h"], ["spectra", "--format", "xml"], ["embed", "--help"],
    ["verify", "--json", "extra"], ["verify", "--perturb", "abc"],
])
def test_one_command_parser_reads_as_the_full_parser(capsys, argv):
    """The parser ``main`` builds for the named subcommand prints the full parser's help and usage errors,
    and exits with its codes."""
    seen = []
    for parser in (cli.build_parser(), cli.build_parser(argv[0])):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        seen.append((exc.value.code, capsys.readouterr()))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--paths", "5", "--process", "brownian"], ["cov", "--T", "4", "--mc-paths", "9"],
    ["spectra", "--builtin", "--methods", "sum"], ["embed", "--n-max", "3", "--format", "json"],
    ["verify", "--perturb", "0.1", "--json"],
])
def test_one_command_parser_parses_as_the_full_parser(argv):
    assert vars(cli.build_parser(argv[0]).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_main_builds_the_named_parser_once(monkeypatch, tmp_path):
    """A command line that names a subcommand builds that subcommand's parser alone, once per process:
    two ``ArgumentParser`` objects on the first call, none on the next."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        for calls in (2, 2):
            assert main(["cov", "--n-max", "1", "--tau-max", "1", "--out", str(tmp_path / "c.csv")]) == 0
            assert len(built) == calls
    finally:
        cli._parser.cache_clear()
    assert built == ["dtsim", "dtsim cov"]


def test_main_runs_the_command_the_module_holds_now(monkeypatch, capsys):
    """``main`` looks a subcommand's function up in ``dtsim.cli`` when it runs it, so a wrapper set there
    after the parser was built and cached, as a tracer sets one, is the one called."""
    assert main(["cov", "--n-max", "0", "--tau-max", "0"]) == 0
    monkeypatch.setattr(cli, "cmd_cov", lambda args: 7)
    assert main(["cov", "--n-max", "0", "--tau-max", "0"]) == 7
    capsys.readouterr()


def test_module_entry_point():
    # the child imports dtsim from where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(dtsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dtsim.cli", "verify", "--json"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


# -- byte identity against the row-dict writer the table writer replaced -----
def _ref_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _ref_emit(rows: list[dict], columns: list[str], fmt: str) -> str:
    """One dict per row, one ``_ref_fmt`` per cell: the reference text."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_ref_fmt(row[c]) for c in columns) for row in rows)
        return "\n".join(lines) + "\n"
    return json.dumps(rows, indent=2) + "\n"


_PARAMS = make_params(0.75, 2.0, 2)


def _ref_simulate(tmp_path, fmt, process):
    sim = simulate_brownian if process == "brownian" else simulate_simple_bm
    ens = sim(_PARAMS, 600, 16, 5)
    times = ens.times
    rows = [
        {"path": p, "k": k, "t": float(times[k]), "value": float(ens.paths[p, k])}
        for p in range(ens.n_paths)
        for k in range(ens.k_max + 1)
    ]
    argv = ["simulate", "--paths", "600", "--kmax", "16", "--seed", "5", "--process", process]
    return argv, _ref_emit(rows, ["path", "k", "t", "value"], fmt)


def _ref_cov(tmp_path, fmt, seed):
    seed_file = seed == "seed-file"
    argv = ["cov", "--n-max", "3", "--tau-min", "-3", "--tau-max", "5"]
    if seed_file:
        seed = CovarianceSeed(r0=np.array([1.0, 2.0]), r1=np.array([0.5, 1.0]))
        seed.to_csv(tmp_path / "seed.csv")
        argv += ["--seed-file", str(tmp_path / "seed.csv")]
    else:  # 300 paths fill part of one generation block, 2 * BATCH_SIZE + 7 span three
        n_paths = 300 if seed == "builtin-mc" else 2 * BATCH_SIZE + 7
        argv += ["--mc-paths", str(n_paths), "--mc-seed", "4"]
        seed = simple_bm_seed(_PARAMS)
        ens = simulate_simple_bm(_PARAMS, n_paths, 8, 4)
    chain = make_chain(_PARAMS, seed)
    p = _PARAMS
    n, tau = np.meshgrid(np.arange(0, 4), np.arange(-3, 6), indexing="ij")
    keep = n + tau >= 0
    n, tau = n[keep], tau[keep]
    rows = []
    for n, tau, closed_form in zip(n.tolist(), tau.tolist(), cov_table(chain, n, tau).tolist()):
        oracle = mc_est = mc_se = None
        if not seed_file:
            oracle = simple_bm_cov(p.alpha ** (n + tau), p.alpha ** n, p.H, p.l)
            est = empirical_cov(ens, n, tau)
            mc_est, mc_se = est.value, est.std_error
        rows.append({"n": n, "tau": tau, "closed_form": closed_form, "oracle": oracle,
                     "mc_estimate": mc_est, "mc_stderr": mc_se})
    return argv, _ref_emit(rows, ["n", "tau", "closed_form", "oracle", "mc_estimate", "mc_stderr"], fmt)


def _ref_spectra(tmp_path, fmt, _):
    p = make_params(0.75, 2.0, 3)
    chain = make_chain(p, simple_bm_seed(p))
    omegas = FrequencyGrid(12).omegas
    idx = np.arange(p.T)
    rows = []
    for method in ("closed", "sum", "example", "diag"):
        if method == "closed":
            vals = spectral_closed_grid(chain, omegas)
        elif method == "sum":
            vals = spectral_sum_grid(chain, omegas)
        elif method == "example":
            vals = simple_bm_spectral(p, idx[:, np.newaxis], idx, omegas[:, np.newaxis, np.newaxis])
        else:
            vals = spectral_diag(chain, idx, omegas[:, np.newaxis])
        js, rs = (idx, idx) if method == "diag" else np.divmod(np.arange(p.T ** 2), p.T)
        js, rs = js.tolist(), rs.tolist()
        rows.extend(
            {"omega": w, "j": a, "r": b, "re": v.real, "im": v.imag, "method": method}
            for w, row in zip(omegas.tolist(), vals.reshape(len(omegas), -1).tolist())
            for a, b, v in zip(js, rs, row)
        )
    argv = ["spectra", "--T", "3", "--n-omega", "12", "--methods", "closed,sum,example,diag"]
    return argv, _ref_emit(rows, ["omega", "j", "r", "re", "im", "method"], fmt)


def _ref_embed(tmp_path, fmt, _):
    p = make_params(0.75, 2.0, 3)
    chain = make_chain(p, simple_bm_seed(p))
    rows = []
    for n in range(1, 4):
        for tau in range(-2, 4):
            mat = q_cov(chain, n, tau)
            for j in range(p.T):
                for k in range(p.T):
                    rows.append({"n": n, "tau": tau, "j": j, "k": k, "value": float(mat[j, k])})
    argv = ["embed", "--T", "3", "--n-min", "1", "--n-max", "3", "--tau-min", "-2"]
    return argv, _ref_emit(rows, ["n", "tau", "j", "k", "value"], fmt)


@pytest.mark.parametrize("dest", ["out", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("reference,variant", [
    (_ref_simulate, "simple-bm"),
    (_ref_simulate, "brownian"),
    (_ref_cov, "builtin-mc"),
    (_ref_cov, "builtin-mc-blocks"),
    (_ref_cov, "seed-file"),
    (_ref_spectra, None),
    (_ref_embed, None),
])
def test_tables_match_row_dict_reference(capsys, tmp_path, monkeypatch, reference, variant, fmt, dest):
    argv, want = reference(tmp_path, fmt, variant)
    # small blocks, so every table spans several of them
    monkeypatch.setattr(table, "BLOCK_ROWS", 50)
    argv += ["--format", fmt]
    if dest == "out":
        path = tmp_path / f"table.{fmt}"
        code, out = run_cli(capsys, *argv, "--out", str(path))
        assert out == ""
        got = path.read_bytes()
    else:
        code, out = run_cli(capsys, *argv)
        got = out.encode()
    assert code == 0
    assert got == want.encode()


def test_default_block_size_matches_reference(capsys, tmp_path):
    argv, want = _ref_simulate(tmp_path, "csv", "simple-bm")
    assert 600 * 17 > table.BLOCK_ROWS
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == want


# -- the writer on special values and empty tables ---------------------------
_SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, np.finfo(float).max, 0.1, -2.5e-310, 1e16, 123456789.0])


@pytest.mark.parametrize("block_rows", [1, 3, 8192])
def test_writer_special_values(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(table, "BLOCK_ROWS", block_rows)
    parts = [
        {"i": np.arange(len(_SPECIAL)), "x": _SPECIAL, "absent": None, "s": np.array("a")},
        {"i": np.array(-7), "x": np.array([[1.5], [-np.inf]]), "absent": None, "s": np.array(["b", "c"])},
    ]
    rows = [{"i": int(i), "x": float(x), "absent": None, "s": "a"} for i, x in enumerate(_SPECIAL)]
    rows += [{"i": -7, "x": x, "absent": None, "s": s} for x in (1.5, -math.inf) for s in "bc"]
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        write_table(parts, fmt, str(path))
        text = path.read_text()
        assert text == _ref_emit(rows, ["i", "x", "absent", "s"], fmt)
    csv_rows = (tmp_path / "t.csv").read_text().splitlines()[1:5]
    assert csv_rows == ["0,inf,,a", "1,-inf,,a", "2,nan,,a", "3,-0,,a"]
    objs = (tmp_path / "t.json").read_text()
    assert '"x": Infinity' in objs and '"x": -Infinity' in objs and '"x": NaN' in objs
    assert '"x": -0.0' in objs and '"absent": null' in objs
    back = json.loads(objs)
    assert math.isnan(back[2]["x"]) and math.copysign(1.0, back[3]["x"]) == -1.0


def test_writer_zero_rows(tmp_path, capsys):
    empty = {"a": np.arange(0)[:, np.newaxis], "b": np.zeros((0, 3)), "c": None}
    write_table([empty], "csv", None)
    assert capsys.readouterr().out == "a,b,c\n"
    write_table([empty, empty], "json", None)
    assert capsys.readouterr().out == "[]\n"
    for fmt, want in (("csv", "n,tau,closed_form,oracle,mc_estimate,mc_stderr\n"), ("json", "[]\n")):
        code, out = run_cli(capsys, "cov", "--n-max", "0", "--tau-min", "-3", "--tau-max", "-1",
                            "--format", fmt)
        assert code == 0
        assert out == want == _ref_emit([], want.strip().split(","), fmt)


def test_writer_rejects_mismatched_parts(tmp_path):
    with pytest.raises(ValueError):
        write_table([{"a": np.arange(2)}, {"b": np.arange(2)}], "csv", None)
    with pytest.raises(ValueError):
        write_table([{"a": np.arange(2)}], "xml", None)
    with pytest.raises(TypeError, match="sequence"):  # read by index, so not read whole into memory
        write_table(({"a": np.arange(2)} for _ in range(2)), "csv", str(tmp_path / "t.csv"))
    assert not (tmp_path / "t.csv").exists()
