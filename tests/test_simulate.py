import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dtsim import (
    CovarianceSeed,
    DomainError,
    Ensemble,
    cov_table,
    dtsim_cov,
    empirical_cov,
    make_chain,
    make_params,
    simple_bm_seed,
    simulate_simple_bm,
)
import dtsim.simulate as simulate
from dtsim.cli import main
from dtsim.simulate import BATCH_SIZE
from dtsim.table import BLOCK_ROWS

from conftest import NEG_CORRS, correlated_seed, simulate_brownian


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
    # at H = 1/2 the rescaling amplitude is 1, so simple BM and Brownian motion's
    # own seed (Cov = min(t, s), so r0 = r1 = alpha**j) must agree bit for bit,
    # not merely statistically
    p = make_params(0.5, 1.5, 3)
    grid = p.alpha ** np.arange(p.T, dtype=float)
    bm = Ensemble(make_chain(p, CovarianceSeed(r0=grid, r1=grid)), k_max=7, n_paths=300, rng_seed=5)
    sbm = simulate_simple_bm(p, n_paths=300, k_max=7, rng_seed=5)
    assert np.array_equal(bm.paths, sbm.paths)


def test_argument_validation():
    p = make_params(0.5, 2.0, 1)
    chain = make_chain(p, simple_bm_seed(p))
    with pytest.raises(DomainError):
        simulate_brownian(p, n_paths=0, k_max=3)
    with pytest.raises(DomainError):
        simulate_brownian(p, n_paths=10, k_max=-1)
    with pytest.raises(DomainError):
        Ensemble(chain, k_max=3, n_paths=0, rng_seed=0)
    with pytest.raises(DomainError):
        Ensemble(chain, k_max=-1, n_paths=2, rng_seed=0)
    with pytest.raises(DomainError):
        simulate_simple_bm(p, n_paths=2, k_max=3, rng_seed=-1)


def _split_seed(p, base, j: int) -> CovarianceSeed:
    """``base`` (the simple-BM seed, or the negative-ratio one) with ``r1[j] = 0``: ``c_j = 0`` splits the chain."""
    seed = simple_bm_seed(p) if base == "simple-bm" else correlated_seed(p, NEG_CORRS)
    r1 = np.array(seed.r1)
    r1[j] = 0.0
    return CovarianceSeed(r0=seed.r0, r1=r1)


def _z_scores(ens: Ensemble, want: np.ndarray) -> np.ndarray:
    """``(estimate - want) / std_error`` of ``empirical_cov`` over every pair ``(n, n + tau)`` of grid points."""
    n, m = np.meshgrid(np.arange(ens.k_max + 1), np.arange(ens.k_max + 1), indexing="ij")
    est = empirical_cov(ens, n, m - n)
    return (est.value - want) / est.std_error


@pytest.mark.parametrize("base", ["simple-bm", "negative-ratio"])
@pytest.mark.parametrize("T", [1, 2, 3])
def test_split_chain_simulates(T, base):
    """``r1[T - 1] = 0`` splits the chain at every period seam: the paths reach any ``k_max`` whose scale is in
    float range, and the estimates lie within 5 SE of ``cov_table``, which is 0 across each seam."""
    p = make_params(0.75, 2.0, T)
    chain = make_chain(p, _split_seed(p, base, T - 1))
    assert np.all(np.isfinite(Ensemble(chain, k_max=1000, n_paths=2, rng_seed=0).paths))
    ens = Ensemble(chain, k_max=3 * T + 2, n_paths=20_000, rng_seed=6)
    ks = np.arange(ens.k_max + 1)
    want = cov_table(chain, np.minimum.outer(ks, ks), np.abs(np.subtract.outer(ks, ks)))
    assert np.sum(want == 0) >= 2 * (3 * T + 3) and np.all(np.abs(_z_scores(ens, want)) <= 5)


@pytest.mark.parametrize("base", ["simple-bm", "negative-ratio"])
def test_chain_split_inside_the_period_simulates(base):
    """``r1[0] = 0`` at T = 3 splits the chain between ``k = 3b`` and ``3b + 1``, where ``cov_table`` has no
    entry: the estimates across each split lie within 5 SE of 0, and the variances within 5 SE of the seed's."""
    p = make_params(0.75, 2.0, 3)
    seed = _split_seed(p, base, 0)
    ens = Ensemble(make_chain(p, seed), k_max=10, n_paths=20_000, rng_seed=8)
    ks = np.arange(ens.k_max + 1)
    stretch = (ks + 2) // 3  # k = 3b + 1 .. 3b + 3 share a stretch; k = 0 is alone
    z = _z_scores(ens, np.diag(seed.r0[ks % 3] * p.alpha ** (2 * p.T * p.H * (ks // 3))))
    across = stretch[:, np.newaxis] != stretch
    assert np.all(np.abs(z[across]) <= 5) and np.all(np.abs(np.diag(z)) <= 5)


@pytest.mark.parametrize("p, seed", [
    (make_params(22.0, 2.0, 8), simple_bm_seed(make_params(22.0, 2.0, 8))),
    (make_params(0.75, 2.0, 2), CovarianceSeed(r0=[1e160, 1e160], r1=[5e159, 5e159])),
], ids=["H22-T8", "variances-1e160"])
def test_correlations_whose_bound_squared_leaves_float_range_simulate(p, seed):
    """The squared bound ``r0[j] r0[j+1] ext_j`` is 2**1047 at the seam of simple BM at T = 8, H = 22,
    alpha = 2, and 1e320 for variances of 1e160: the seam correlation ``c[T-1]`` is formed without it, and
    the estimates lie within 5 SE of ``cov_table`` across the seam too."""
    chain = make_chain(p, seed)
    ens = Ensemble(chain, k_max=p.T + 1, n_paths=20_000, rng_seed=9)
    ks = np.arange(ens.k_max + 1)
    want = cov_table(chain, np.minimum.outer(ks, ks), np.abs(np.subtract.outer(ks, ks)))
    assert chain.c[-1] > 0.17 and np.all(np.abs(_z_scores(ens, want)) <= 5)


def test_factors_out_of_float_range_are_rejected():
    p = make_params(0.75, 2.0, 2)
    assert np.all(np.isfinite(simulate_simple_bm(p, n_paths=2, k_max=1300).paths))
    with pytest.raises(DomainError, match="overflow"):
        simulate_simple_bm(p, n_paths=2, k_max=2000)
    # variances twenty decades apart, correlated 0.9
    chain = make_chain(p, CovarianceSeed(r0=[1e-300, 1e10], r1=[0.9 * math.sqrt(1e-290), 1e-146]))
    assert np.all(np.isfinite(Ensemble(chain, k_max=9, n_paths=2, rng_seed=0).paths))


def test_factor_overflow_names_its_first_grid_index():
    """Simple BM at H = 0.75, alpha = 2: ``64 sd_k`` first leaves float range at k = 1357, where ``sd_k`` is
    about 2**1018; the paths at the largest grid it admits are all finite."""
    p = make_params(0.75, 2.0, 2)
    with pytest.raises(DomainError, match=r"path factor overflow at k = 1357: paths reach k = 1356 at most$"):
        simulate_simple_bm(p, n_paths=2, k_max=1400)
    assert np.all(np.isfinite(simulate_simple_bm(p, n_paths=BATCH_SIZE, k_max=1356).paths))


@pytest.mark.parametrize("corr", [1.0, -1.0])
def test_perfectly_correlated_steps_simulate(corr):
    """A seed on the Cauchy-Schwarz boundary repeats the previous point, scaled; rounding never makes a NaN."""
    p = make_params(0.75, 1.5, 3)
    chain = make_chain(p, correlated_seed(p, (corr, 0.5, corr * (1 + 5e-13))))
    ens = Ensemble(chain, k_max=9, n_paths=BATCH_SIZE, rng_seed=4)
    assert np.all(np.isfinite(ens.paths))
    for k in (0, 2, 3, 5, 6, 8):  # R_k(1) at the bound: X_{k+1} is a multiple of X_k
        ratio = cov_table(chain, k, 1) / cov_table(chain, k, 0)
        np.testing.assert_allclose(ens.paths[:, k + 1], ratio * ens.paths[:, k], rtol=1e-6, atol=1e-6)


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
    with pytest.raises(IndexError):
        empirical_cov(ens, np.array([0, 1, 2]), np.array([0, 2, 2]))
    single = simulate_brownian(p, n_paths=1, k_max=3, rng_seed=0)
    est = empirical_cov(single, 1, 1)
    assert est.n_paths == 1
    assert est.std_error == 0.0
    est = empirical_cov(single, np.arange(3), 1)
    assert est.value.tolist() == [single.paths[0, k + 1] * single.paths[0, k] for k in range(3)]
    assert est.std_error.tolist() == [0.0, 0.0, 0.0]


def test_ensembles_on_one_chain_are_equal_and_hashable():
    """Seeds and chains compare by identity, so ``==`` gives a bool, never an array's ambiguous truth value."""
    p = make_params(0.75, 2.0, 2)
    seed = simple_bm_seed(p)
    chain = make_chain(p, seed)
    assert (make_chain(p, seed) == make_chain(p, seed)) is False
    assert (seed == simple_bm_seed(p)) is False
    a, b = Ensemble(chain, 3, 10, 0), Ensemble(chain, 3, 10, 0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Ensemble(chain, 3, 10, 1)}) == 2
    assert a != Ensemble(make_chain(p, seed), 3, 10, 0)


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
    code = main(["simulate", "--alpha", "1.5", "--T", "3", "--H", "0.75" if process == "simple-bm" else "0.5",
                 "--paths", "700", "--kmax", "13", "--seed", "8", "--process", process, "--out", str(cli)])
    assert code == 0
    assert lib.read_bytes() == cli.read_bytes()


# -- the streamed estimator against the matrix it no longer builds -----------
def _ar1(normals: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The periodic AR(1) ``Z_0 = xi_0``, ``Z_{k+1} = |c_{k mod T}| Z_k + sqrt(1 - c**2) xi_{k+1}`` over whole columns."""
    z = np.empty_like(normals)
    z[:, 0] = normals[:, 0]
    for k in range(1, normals.shape[1]):
        cj = c[(k - 1) % len(c)]
        z[:, k] = abs(cj) * z[:, k - 1] + np.sqrt(np.maximum(1.0 - cj * cj, 0.0)) * normals[:, k]
    return z


def _ref_sd(ens: Ensemble) -> np.ndarray:
    """``s_k sd_k``: ``sd_k = sqrt(r0[k mod T]) alpha**((k div T) T H)`` from the ensemble's seed, and ``s_k`` the
    sign of ``c_0 ... c_{k-1}``."""
    p, c = ens.chain.params, ens.chain.c
    b, j = np.divmod(np.arange(ens.k_max + 1), p.T)
    sign = [math.prod(-1.0 if c[i % p.T] < 0 else 1.0 for i in range(k)) for k in range(ens.k_max + 1)]
    return sign * np.sqrt(ens.chain.seed.r0[j]) * np.float_power(p.alpha, b * (p.T * p.H))


def _ref_normals(ens: Ensemble) -> np.ndarray:
    """The normals of every path as one array, block ``i`` from child ``i`` of ``SeedSequence(rng_seed)``."""
    out = np.empty((ens.n_paths, ens.k_max + 1))
    n_batches = (ens.n_paths + BATCH_SIZE - 1) // BATCH_SIZE
    for i, child in enumerate(np.random.SeedSequence(ens.rng_seed).spawn(n_batches)):
        lo, hi = i * BATCH_SIZE, min((i + 1) * BATCH_SIZE, ens.n_paths)
        out[lo:hi] = np.random.default_rng(child).standard_normal((hi - lo, ens.k_max + 1))
    return out


def _ref_unit(ens: Ensemble) -> np.ndarray:
    """Unit-variance paths ``Z`` as one array: the periodic AR(1) of the chain's correlations ``c``."""
    return _ar1(_ref_normals(ens), ens.chain.c)


def _ref_paths(ens: Ensemble) -> np.ndarray:
    """Path matrix as one array: ``X_k = s_k sd_k Z_k``."""
    return _ref_unit(ens) * _ref_sd(ens)


@pytest.mark.parametrize("H, alpha, T", [(0.75, 2.0, 4), (0.5, 2.0, 2), (0.8, 1.5, 3), (0.3, 3.0, 1), (1.0, 1.5, 4)])
def test_builtin_and_brownian_paths_match_their_closed_forms(H, alpha, T):
    """On the same normals, the recursion gives the hand-written simple-BM and Brownian paths to rounding.

    Brownian motion has increment variances 1, then ``alpha**k - alpha**(k-1)``;
    simple BM multiplies column ``k`` by ``lam**((k // T + 1) (H - 1/2))``.
    """
    p = make_params(H, alpha, T)
    ks = np.arange(17)
    scale = np.sqrt(np.concatenate(([1.0], alpha ** ks[1:] - alpha ** (ks[1:] - 1))))
    for sim, amp in ((simulate_brownian, 1.0), (simulate_simple_bm, p.l ** ((ks // T + 1) * (H - 0.5)))):
        ens = sim(p, n_paths=BATCH_SIZE + 5, k_max=16, rng_seed=11)
        want = np.cumsum(_ref_normals(ens) * scale, axis=1) * amp
        assert np.all(np.abs(ens.paths - want) <= 2e-15 * np.max(np.abs(want), axis=0)), sim.__name__


def _ref_empirical_cov(ens: Ensemble, n, tau, general: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``empirical_cov`` as it read the whole matrix of unit-variance paths: value and standard error.

    The estimates of ``Z`` are scaled by ``s_a sd_a s_b sd_b``.  Each product is on
    one buffer, which numpy sends to a symmetric kernel as ``moments`` does;
    ``general`` takes the fourth moments from two buffers, a general product,
    instead.
    """
    n, m = np.asarray(n), np.asarray(n) + tau
    z, sd = _ref_unit(ens), _ref_sd(ens)
    k = z.shape[1]
    sums = np.zeros((2, k, k))
    for lo in range(0, len(z), BATCH_SIZE):
        block = z[lo : lo + BATCH_SIZE]
        sq = block * block
        sums += [block.T @ block, sq.T @ (sq.copy() if general else sq)]
    count = len(z)
    value = sums[0, m, n] / count
    var = np.maximum(sums[1, m, n] - count * value * value, 0.0) / max(count - 1, 1)
    return value * sd[m] * sd[n], np.abs(np.sqrt(var / count) * (count > 1) * sd[m] * sd[n])


def _assert_matches_reference(ens: Ensemble) -> None:
    """``paths``, ``blocks()`` and ``empirical_cov`` at every pair of grid points equal the one-matrix
    references bit for bit."""
    ref = _ref_paths(ens)
    assert np.array_equal(ens.paths, ref)
    assert np.array_equal(np.concatenate(list(ens.blocks())), ref)
    n, m = np.meshgrid(np.arange(ens.k_max + 1), np.arange(ens.k_max + 1), indexing="ij")
    est = empirical_cov(ens, n, m - n)
    value, se = _ref_empirical_cov(ens, n, m - n)
    assert np.array_equal(est.value, value)
    assert np.array_equal(est.std_error, se)


def _simulate_negative_ratio(params, n_paths: int, k_max: int, rng_seed: int) -> Ensemble:
    """The negative-ratio seed's ensemble, whose signs ``s_k`` of ``c_0 ... c_{k-1}`` alternate."""
    return Ensemble(make_chain(params, correlated_seed(params, NEG_CORRS)), k_max, n_paths, rng_seed)


@pytest.mark.parametrize("n_paths", [1, BATCH_SIZE, 2 * BATCH_SIZE + 7])
@pytest.mark.parametrize("sim", [simulate_simple_bm, simulate_brownian, _simulate_negative_ratio])
def test_streamed_estimator_matches_matrix_reference(n_paths, sim):
    _assert_matches_reference(sim(make_params(0.8, 1.5, 3), n_paths=n_paths, k_max=10, rng_seed=17))


def test_moments_are_one_cached_pass(monkeypatch):
    """Repeated estimates read ``Ensemble.moments``: each of the two blocks is filled once."""
    p = make_params(0.75, 2.0, 2)
    ens = simulate_simple_bm(p, n_paths=BATCH_SIZE + 9, k_max=5, rng_seed=3)
    fills = []
    fill = Ensemble._batch

    def counted(self, i, *args):
        fills.append(i)
        return fill(self, i, *args)

    monkeypatch.setattr(Ensemble, "_batch", counted)
    first = empirical_cov(ens, np.arange(4), 1)
    for n in range(4):
        assert empirical_cov(ens, n, 1).value == first.value[n]
    assert sorted(fills) == [0, 1]
    assert ens.moments.shape == (2, 6, 6)
    with pytest.raises(ValueError):
        ens.moments[0, 0, 0] = 1.0


@pytest.mark.parametrize("argv", [
    ["cov", "--T", "4", "--mc-paths", str(20 * BATCH_SIZE)],
    ["simulate", "--kmax", "15", "--paths", str(20 * BATCH_SIZE)],
])
def test_streamed_commands_hold_a_few_blocks(tmp_path, monkeypatch, argv):
    """Both commands use 20 blocks of 16 grid points, a 10.5 MB path matrix, and peak below 8 blocks."""
    def no_matrix(self):
        raise AssertionError("Ensemble.paths was built")

    monkeypatch.setattr(Ensemble, "paths", property(no_matrix))
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "out.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * BATCH_SIZE * 16 * 8


# -- moments reduced on worker threads ----------------------------------------
@pytest.mark.parametrize("threads", [0, 1, 2, 3])
def test_paths_do_not_depend_on_the_fill_threads(monkeypatch, threads):
    """Part of one block, or five with a partial last one, reduced by 1-3 threads, match the
    one-matrix reference bit for bit."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
    for n_paths in (BATCH_SIZE - 5, 4 * BATCH_SIZE + 7):
        _assert_matches_reference(simulate_simple_bm(make_params(0.8, 1.5, 3), n_paths=n_paths,
                                                     k_max=10, rng_seed=17))


@pytest.mark.parametrize("threads", [0, 2])
def test_wide_blocks_match_the_reference(monkeypatch, threads):
    """64 grid points, where a general product of the fourth moments would go to BLAS's own threads:
    the rows-last blocks and their symmetric products still match the references bit for bit."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
    _assert_matches_reference(simulate_simple_bm(make_params(0.75, 2.0, 16), n_paths=2 * BATCH_SIZE + 3,
                                                 k_max=63, rng_seed=5))


@pytest.mark.parametrize("k_max", [7, 15, 31, 63])
def test_std_error_is_the_general_products_to_rounding(k_max):
    """The symmetric fourth-moment product moves ``std_error`` from a general product's by rounding only."""
    ens = simulate_simple_bm(make_params(0.75, 2.0, 4), n_paths=3 * BATCH_SIZE + 5, k_max=k_max, rng_seed=12)
    n, m = np.meshgrid(np.arange(k_max + 1), np.arange(k_max + 1), indexing="ij")
    _, se = _ref_empirical_cov(ens, n, m - n, general=True)
    np.testing.assert_allclose(empirical_cov(ens, n, m - n).std_error, se, rtol=4e-15, atol=0)


def test_cli_outputs_do_not_depend_on_the_fill_threads(monkeypatch, tmp_path):
    commands = {
        "cov.csv": ["cov", "--mc-paths", str(3 * BATCH_SIZE + 5), "--mc-seed", "6"],
        "cov.json": ["cov", "--mc-paths", str(3 * BATCH_SIZE + 5), "--mc-seed", "6", "--format", "json"],
        "simulate.csv": ["simulate", "--paths", str(2 * BATCH_SIZE + 3), "--kmax", "3", "--seed", "6"],
        "simulate.json": ["simulate", "--paths", str(2 * BATCH_SIZE + 3), "--kmax", "3", "--seed", "6",
                          "--format", "json"],
    }
    for threads in (0, 1, 2, 3):
        monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / f"{threads}-{name}")]) == 0
    for name in commands:
        one = (tmp_path / f"0-{name}").read_bytes()
        for threads in (1, 2, 3):
            assert (tmp_path / f"{threads}-{name}").read_bytes() == one, (threads, name)


def test_many_fill_threads_with_fast_thread_switches(monkeypatch):
    """More threads than cores and a thread switch every microsecond still add the products in block order."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", 8)
    ens = simulate_brownian(make_params(0.5, 2.0, 1), n_paths=40 * BATCH_SIZE + 1, k_max=9, rng_seed=23)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ens.moments
    finally:
        sys.setswitchinterval(interval)
    _assert_matches_reference(ens)


@pytest.mark.parametrize("cores, threads", [(1, 0), (2, 2), (64, 2)])
def test_fill_threads_do_not_grow_with_the_core_count(cores, threads):
    """On a host with ``cores`` usable cores the modules pick ``threads`` fill threads and as many format workers."""
    code = (f"import os; os.sched_getaffinity = lambda pid: set(range({cores})); "
            "import dtsim.simulate as s, dtsim.table as t; print(s._FILL_THREADS, t._FORMAT_WORKERS)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(threads)] * 2


def test_cli_import_leaves_out_queue_and_logging(tmp_path):
    """No module of the package imports ``queue`` or ``multiprocessing``, not even to write a table of
    several blocks on format workers; the CSV float kernel's tables are built from Python ints, without
    ``fractions`` or ``decimal``."""
    out = tmp_path / "out.csv"
    code = ("import sys, dtsim.cli, dtsim.table as t; t._FORMAT_WORKERS = 2; "
            f"assert dtsim.cli.main(['simulate', '--paths', '9000', '--kmax', '3', '--out', {str(out)!r}]) == 0; "
            "print(sorted({'queue', 'concurrent.futures', 'logging', 'multiprocessing', 'fractions', 'decimal'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert out.read_text().count("\n") == 1 + 9000 * 4 > BLOCK_ROWS


@pytest.mark.parametrize("threads", [0, 2])
def test_moments_hold_a_few_blocks(monkeypatch, threads):
    """200 blocks of 32 grid points, a 210 MB path matrix: peak below two blocks per thread and two more.

    The 200 product pairs of 16 KB, 3.2 blocks, would break that bound if they piled up.
    """
    monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
    ens = simulate_simple_bm(make_params(0.75, 2.0, 4), n_paths=200 * BATCH_SIZE, k_max=31, rng_seed=2)
    tracemalloc.start()
    try:
        assert ens.moments.shape == (2, 32, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * max(threads, 1) + 2) * BATCH_SIZE * 32 * 8


@pytest.mark.parametrize("k_max, threads", [(15, 2), (255, 1)])
def test_moments_hold_one_block_per_fill_thread(monkeypatch, k_max, threads):
    """Each fill thread fills and reduces its blocks in one buffer: the pass peaks at one block per thread,
    the ``2 * threads`` product pairs in flight and the sums, and 256 KiB for numpy's ufunc buffers and the
    generators.  At 256 grid points one thread fills every block (see ``_BLAS_THREADS_K``)."""
    import numpy.random  # noqa: F401 -- loaded before the trace, as a process that ran a pass has it

    monkeypatch.setattr(simulate, "_FILL_THREADS", 2)
    K = k_max + 1
    ens = simulate_simple_bm(make_params(0.75, 2.0, 32), n_paths=6 * BATCH_SIZE + 5, k_max=k_max, rng_seed=2)
    tracemalloc.start()
    try:
        assert ens.moments.shape == (2, K, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < threads * BATCH_SIZE * K * 8 + (2 * threads + 1) * 2 * K * K * 8 + 256 * 1024


class _NoSpawn(np.random.SeedSequence):
    def spawn(self, n_children):
        raise AssertionError("SeedSequence.spawn was called")


def test_batch_seeds_are_made_per_batch(monkeypatch):
    """A 1e9-path ensemble spawns no list of 244,141 seeds: its first block and part 12345 of its table
    are drawn from ``SeedSequence(rng_seed, spawn_key=(i,))``, which is child ``i`` of ``spawn``."""
    ens = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=10**9, k_max=16, rng_seed=31)
    first, part = np.random.SeedSequence(31).spawn(12346)[::12345]
    want = [_ar1(np.random.default_rng(child).standard_normal((BATCH_SIZE, 17)), ens.chain.c) * _ref_sd(ens)
            for child in (first, part)]
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
    assert np.array_equal(next(ens.blocks()), want[0])
    table = ens.columns()
    assert len(table) == -(-10**9 // BATCH_SIZE) == 244141
    assert np.array_equal(table[12345]["value"], want[1])
    assert np.array_equal(table[12345]["path"][:, 0], np.arange(12345 * BATCH_SIZE, 12346 * BATCH_SIZE))


def test_columns_load_numpy_random_before_the_fork():
    """Building an ensemble loads no ``numpy.random``; asking for its table parts does, in the writer,
    so the format workers it forks find the module loaded."""
    code = ("import sys; from dtsim import make_params, simulate_simple_bm; "
            "ens = simulate_simple_bm(make_params(0.75, 2.0, 2), 10**6, 16); before = 'numpy.random' in sys.modules; "
            "ens.columns(); print(before, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]


class _CountedThread(threading.Thread):
    started: list[threading.Thread] = []

    def start(self):
        self.started.append(self)
        super().start()


@pytest.mark.parametrize("end", ["paths", "moments"])
def test_fill_threads_end_with_the_iteration(monkeypatch, end):
    """``paths`` fills on the calling thread; ``moments`` starts one helper and joins it before it returns."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", 2)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", [])
    base = threading.active_count()
    ens = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=3 * BATCH_SIZE, k_max=3, rng_seed=1)
    assert getattr(ens, end).shape[-1] == 4
    assert len(_CountedThread.started) == (end == "moments")
    assert not any(t.is_alive() for t in _CountedThread.started)
    assert threading.active_count() == base


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started")


@pytest.mark.parametrize("k_max", [126, 127])
def test_moments_fill_alone_from_128_grid_points(monkeypatch, k_max):
    """From K = 128, where BLAS ``syrk`` runs on threads of its own, ``moments`` starts no fill thread;
    below it one helper starts.  The sums equal the one-thread pass bit for bit either way."""
    ens = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=2 * BATCH_SIZE + 3, k_max=k_max, rng_seed=4)
    monkeypatch.setattr(simulate, "_FILL_THREADS", 0)
    expected = ens.moments
    monkeypatch.setattr(simulate, "_FILL_THREADS", 2)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", [])
    sums = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=2 * BATCH_SIZE + 3, k_max=k_max, rng_seed=4).moments
    assert len(_CountedThread.started) == (k_max + 1 < 128)
    assert np.array_equal(sums, expected)


def test_table_writer_fills_inline(monkeypatch, tmp_path):
    """``dtsim simulate`` fills the blocks on the writing thread, fill threads or not."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", 2)
    monkeypatch.setattr(threading, "Thread", _NoThread)
    assert main(["simulate", "--paths", str(2 * BATCH_SIZE + 3), "--kmax", "3",
                 "--out", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("threads", [0, 2])
def test_fill_error_reaches_the_reader(monkeypatch, threads):
    monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
    base = threading.active_count()
    default_rng = np.random.default_rng
    ens = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=5 * BATCH_SIZE, k_max=3, rng_seed=4)
    want = _ref_paths(ens)[: 2 * BATCH_SIZE]

    def failing(seed):
        if seed.spawn_key == (2,):
            raise RuntimeError("cannot seed the third child")
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", failing)
    got = []
    with pytest.raises(RuntimeError, match="third child"):
        for block in ens.blocks():
            got.append(block)
    # the blocks handed out before the error are whole: filling the next one reused none of them
    assert np.array_equal(np.concatenate(got), want)
    assert threading.active_count() == base


@pytest.mark.parametrize("threads", [0, 2, 8])
def test_fill_error_leaves_moments(monkeypatch, threads):
    """A block that cannot be filled stops the pass: its error is raised and every helper is joined."""
    monkeypatch.setattr(simulate, "_FILL_THREADS", threads)
    base = threading.active_count()
    default_rng = np.random.default_rng

    def failing(seed):
        if seed.spawn_key == (2,):
            raise RuntimeError("cannot seed the third child")
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", failing)
    ens = simulate_simple_bm(make_params(0.75, 2.0, 2), n_paths=20 * BATCH_SIZE, k_max=3, rng_seed=4)
    with pytest.raises(RuntimeError, match="third child"):
        ens.moments
    assert threading.active_count() == base
