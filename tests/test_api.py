"""Public names resolve, and the benchmark's tracer can wrap every one of them.

``perfbench/tracing.py`` wraps each name in a module's ``__all__`` and binds
the signatures of the truncated-series functions (parameters ``chain`` or
``table``, and ``s_trunc``), so renaming or dropping any of them breaks
``perfbench/run.py --trace 1`` as well as importers.
"""

import importlib
import os
import sys

import numpy as np
import pytest

import dtsim
from dtsim import cli, spectral
from dtsim.simulate import BATCH_SIZE

MODULES = ("core", "covariance", "lamperti", "multidim", "simulate", "spectral", "verify")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"dtsim.{name}")
    names = getattr(mod, "__all__", [])
    assert names, f"dtsim.{name} has no __all__"
    assert len(names) == len(set(names))
    for attr in names:
        assert hasattr(mod, attr), f"dtsim.{name}.{attr}"


def test_package_all_resolves():
    assert len(dtsim.__all__) == len(set(dtsim.__all__))
    for attr in dtsim.__all__:
        assert hasattr(dtsim, attr), attr


def _tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    originals = {name: getattr(spectral, name) for name in spectral.__all__}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spectral.spectral_sum_grid is not originals["spectral_sum_grid"]
        p = dtsim.make_params(0.75, 2.0, 2)
        chain = dtsim.make_chain(p, dtsim.simple_bm_seed(p))
        table = dtsim.build_bk_table(chain)
        grid = dtsim.FrequencyGrid(4)
        dtsim.spectral_sum(chain, 0, 1, 0.3)
        dtsim.spectral_sum_grid(chain, grid.omegas, 3)
        dtsim.fk_from_bk(table, 1, 0.3)
        dtsim.fjk(table, 0, 1, 0.3, s_trunc=2)
        dtsim.f_matrix(table, 0.3)
        dtsim.f_matrix_grid(table, grid)
        assert tracer.counters["spectral.series_terms"] > 0
        assert tracer.layer_totals()["spectral"]["calls"] >= 6
    finally:
        tracer.uninstall()
    assert {name: getattr(spectral, name) for name in spectral.__all__} == originals
    assert np.isfinite(dtsim.spectral_closed(chain, 0, 0, 0.3))


def test_tracer_counts_cov_monte_carlo_samples(tmp_path):
    """``perfbench/report.py`` divides by ``simulate.samples``, which the tracer reads from ``.paths``."""
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["cov", "--mc-paths", str(BATCH_SIZE + 7), "--n-max", "3", "--tau-max", "2",
                         "--out", str(tmp_path / "cov.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    k_need = 3 + 2
    assert tracer.counters["simulate.samples"] == (BATCH_SIZE + 7) * (k_need + 1)
