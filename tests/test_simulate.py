import math

import numpy as np
import pytest

from dtsim import (
    DomainError,
    Ensemble,
    dtsim_cov,
    empirical_cov,
    make_chain,
    make_params,
    simple_bm_seed,
    simulate_brownian,
    simulate_simple_bm,
)
from dtsim.cli import main
from dtsim.simulate import BATCH_SIZE


def test_reproducible_bit_for_bit():
    p = make_params(0.75, 2.0, 2)
    a = simulate_simple_bm(p, n_paths=512, k_max=6, rng_seed=42)
    b = simulate_simple_bm(p, n_paths=512, k_max=6, rng_seed=42)
    assert np.array_equal(a.paths, b.paths)
    c = simulate_simple_bm(p, n_paths=512, k_max=6, rng_seed=43)
    assert not np.array_equal(a.paths, c.paths)


def test_batching_does_not_change_early_paths():
    """Per-batch child seeds make path i independent of n_paths."""
    p = make_params(0.5, 2.0, 1)
    small = simulate_brownian(p, n_paths=BATCH_SIZE, k_max=4, rng_seed=9)
    large = simulate_brownian(p, n_paths=BATCH_SIZE + 700, k_max=4, rng_seed=9)
    assert np.array_equal(large.paths[:BATCH_SIZE], small.paths)


def test_h_half_couples_to_brownian_exactly():
    # at H = 1/2 the rescaling amplitude is 1, so the two simulators must
    # agree bit for bit, not merely statistically
    p = make_params(0.5, 1.5, 3)
    bm = simulate_brownian(p, n_paths=300, k_max=7, rng_seed=5)
    sbm = simulate_simple_bm(p, n_paths=300, k_max=7, rng_seed=5)
    assert np.array_equal(bm.paths, sbm.paths)


def test_argument_validation():
    p = make_params(0.5, 2.0, 1)
    with pytest.raises(DomainError):
        simulate_brownian(p, n_paths=0, k_max=3)
    with pytest.raises(DomainError):
        simulate_brownian(p, n_paths=10, k_max=-1)
    with pytest.raises(DomainError):
        Ensemble(params=p, k_max=3, n_paths=2, rng_seed=0, paths=np.zeros((2, 3)))


def test_brownian_moments():
    p = make_params(0.5, 2.0, 2)
    ens = simulate_brownian(p, n_paths=60_000, k_max=6, rng_seed=1234)
    times = ens.times
    for k in (0, 2, 5):
        est = empirical_cov(ens, k, 0)
        assert abs(est.value - times[k]) <= 3 * est.std_error
    est = empirical_cov(ens, 1, 3)  # Cov(B(16), B(2)) = 2
    assert abs(est.value - 2.0) <= 3 * est.std_error


def test_simple_bm_matches_closed_form():
    p = make_params(0.75, 2.0, 2)
    chain = make_chain(p, simple_bm_seed(p))
    ens = simulate_simple_bm(p, n_paths=60_000, k_max=8, rng_seed=99)
    for n, tau in ((0, 0), (1, 0), (0, 2), (1, 3), (2, 4)):
        est = empirical_cov(ens, n, tau)
        want = dtsim_cov(chain, n, tau)
        assert abs(est.value - want) <= 3 * est.std_error, (n, tau)


def test_ensemble_scale_invariance():
    """Second moments one period apart differ by the factor alpha**(2TH)."""
    p = make_params(0.75, 2.0, 2)
    ens = simulate_simple_bm(p, n_paths=60_000, k_max=6, rng_seed=77)
    factor = p.l ** (2 * p.H)
    for n in (0, 1, 2):
        lo = empirical_cov(ens, n, 0)
        hi = empirical_cov(ens, n + p.T, 0)
        se = math.hypot(hi.std_error, factor * lo.std_error)
        assert abs(hi.value - factor * lo.value) <= 3 * se, n


def test_empirical_cov_bounds_and_degenerate():
    p = make_params(0.5, 2.0, 1)
    ens = simulate_brownian(p, n_paths=8, k_max=3, rng_seed=0)
    with pytest.raises(IndexError):
        empirical_cov(ens, 3, 1)
    with pytest.raises(IndexError):
        empirical_cov(ens, 0, -1)
    single = simulate_brownian(p, n_paths=1, k_max=3, rng_seed=0)
    est = empirical_cov(single, 1, 1)
    assert est.degenerate
    assert est.std_error == 0.0


def test_paths_are_readonly():
    p = make_params(0.5, 2.0, 1)
    ens = simulate_brownian(p, n_paths=4, k_max=2, rng_seed=0)
    with pytest.raises(ValueError):
        ens.paths[0, 0] = 1.0


def test_ensemble_csv(tmp_path):
    p = make_params(0.5, 2.0, 1)
    ens = simulate_brownian(p, n_paths=3, k_max=2, rng_seed=21)
    out = tmp_path / "paths.csv"
    ens.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path,k,t,value"
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "1"]
    assert float(first[3]) == ens.paths[0, 0]


@pytest.mark.parametrize("process,sim", [("simple-bm", simulate_simple_bm), ("brownian", simulate_brownian)])
def test_ensemble_csv_is_the_cli_table(tmp_path, process, sim):
    p = make_params(0.75, 1.5, 3)
    ens = sim(p, n_paths=700, k_max=13, rng_seed=8)
    lib, cli = tmp_path / "lib.csv", tmp_path / "cli.csv"
    ens.to_csv(lib)
    code = main(["simulate", "--alpha", "1.5", "--T", "3", "--H", "0.75", "--paths", "700",
                 "--kmax", "13", "--seed", "8", "--process", process, "--out", str(cli)])
    assert code == 0
    assert lib.read_bytes() == cli.read_bytes()
