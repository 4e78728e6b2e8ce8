"""Public names resolve, the README example runs, and the benchmark's tracer can wrap every name.

``perfbench/tracing.py`` wraps each name in a module's ``__all__`` and binds
the signatures of six truncated-series functions: ``spectral_sum`` and
``spectral_sum_grid`` (parameter ``chain``), and ``f_matrix``,
``f_matrix_grid``, ``fjk`` and ``fk_from_bk`` (parameter ``table``), each
with ``s_trunc``.  Renaming or dropping any of those six breaks
``perfbench/run.py --trace 1`` as well as importers.

The tracer counts ``simulate.samples`` only on calls to the named
constructor ``simulate_simple_bm`` (it also names ``simulate_brownian``,
which is gone: Brownian motion is ``simulate_simple_bm`` at ``H = 1/2``),
and ``perfbench/report.py`` divides by that count.  It keeps its signature,
and ``dtsim simulate`` and ``dtsim cov`` build their builtin-seed ensembles
through it.  A seed-file ensemble is built as ``Ensemble(chain, ...)``
and its samples are not counted.
"""

import ast
import csv
import importlib
import os
import re
import sys

import numpy as np
import pytest

import dtsim
from dtsim import cli, spectral
from dtsim.simulate import BATCH_SIZE

MODULES = ("errors", "core", "covariance", "lamperti", "multidim", "simulate", "spectral", "verify")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def test_package_all_comes_from_modules():
    """``dtsim.__all__`` is its modules' ``__all__`` in order, and ``from dtsim import *`` binds exactly those."""
    exported = [attr for name in MODULES for attr in importlib.import_module(f"dtsim.{name}").__all__]
    assert dtsim.__all__ == exported
    namespace = {}
    exec("from dtsim import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exported)


def test_readme_example_runs_on_public_names():
    """README's python block runs, and imports only names in ``dtsim.__all__``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    code = blocks[0]
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "dtsim"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(dtsim.__all__), sorted(set(imported) - set(dtsim.__all__))
    exec(compile(code, "README.md", "exec"), {})


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
    assert np.all(np.isfinite(dtsim.spectral_closed_grid(chain, [0.3])))


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


def test_tracer_runs_seed_file_monte_carlo(tmp_path):
    """``dtsim cov --seed-file --mc-paths`` builds ``Ensemble(chain, ...)``, and runs under the tracer."""
    dtsim.CovarianceSeed(r0=[1.0, 2.0], r1=[0.5, 1.0]).to_csv(tmp_path / "seed.csv")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = cli.main(["cov", "--seed-file", str(tmp_path / "seed.csv"), "--mc-paths", str(BATCH_SIZE + 7),
                         "--out", str(tmp_path / "cov.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.layer_totals()["simulate"]["calls"] > 0
    with open(tmp_path / "cov.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["mc_estimate"] for row in rows)
