"""The benchmark workloads: inputs, the timed job, untimed probes and gates.

Each workload builds its inputs in :meth:`Workload.setup`, runs the timed job
in :meth:`Workload.run`, runs untimed probes in :meth:`Workload.probe`, and
gates every operation in :meth:`Workload.check`. An operation is one CLI
command, one library call, one verify check or one Monte Carlo table row. It
fails when it raises, exits with another code than expected, or misses its
gate. The workload seed sets ``--seed``, ``--mc-seed`` and the ``--perturb``
RNG; the covariance seeds are fixed inputs.

Operations that fail at the seed commit because of a defect the ROADMAP
already names carry that item in ``known``. They still count as failed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import gates
from dtsim import cli, core, covariance, simulate, spectral, verify

ALPHA, H = 2.0, 0.75

DEFECT_TOLERANCE = "ROADMAP 3(b): absolute series_vs_closed and phase tolerances false-fail at T=32"
DEFECT_MC = "ROADMAP 4: Monte Carlo ignores --seed-file and simulates simple BM"
DEFECT_OVERFLOW = "raw x**s powers overflow near rho=1 (OverflowError, CLI exit 1 instead of 4)"


@dataclass
class Op:
    name: str
    timed: bool = True
    known: str | None = None
    wall_s: float = 0.0
    error: str | None = None
    gate: gates.Gate | None = None
    value: object = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None and self.gate is not None and self.gate.ok

    def record(self) -> dict:
        detail = self.error or (self.gate.detail if self.gate else "not gated")
        return {"name": self.name, "ok": self.ok, "timed": self.timed, "wall_s": self.wall_s,
                "known": self.known, "detail": detail}


def seed_shape(T: int, rho: float) -> core.CovarianceSeed:
    """Admissible non-BM seed with unit variances and per-period ratio ``rho``.

    ``r1 = rho**(1/T)`` inside the period, times ``alpha**(H T)`` at the seam;
    at T = 2 this is ``r0 = [1, 1]``, ``r1 = [sqrt(rho), sqrt(rho) 2**1.5]``.
    """
    r1 = np.full(T, rho ** (1.0 / T))
    r1[-1] *= ALPHA ** (H * T)
    return core.CovarianceSeed(r0=np.ones(T), r1=r1)


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int, tmp: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self.ops: list[Op] = []
        self.counters: dict[str, float] = {"cli.rows": 0, "cli.out_mb": 0.0, "verify.checks_failed": 0}

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def setup(self) -> None:
        """Build the params, seeds and chains; ``setup_s`` ends when this returns."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed job."""
        raise NotImplementedError

    def probe(self) -> None:
        """Untimed operations; none by default."""

    def check(self) -> None:
        """Gate every operation, outside the timed region."""
        raise NotImplementedError

    # -- running operations ----------------------------------------------
    def call(self, name: str, fn, *args, timed: bool = True, known: str | None = None) -> Op:
        op = Op(name, timed=timed, known=known)
        t0 = time.perf_counter()
        try:
            op.value = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            op.error = f"raised {type(exc).__name__}: {exc}"
        op.wall_s = time.perf_counter() - t0
        self.ops.append(op)
        return op

    def run_cli(self, name: str, argv: list[str], timed: bool = True, known: str | None = None) -> Op:
        # Looked up on the module at call time, so a traced run sees the wrapper.
        op = self.call(name, lambda: cli.main(argv), timed=timed, known=known)
        if op.error is not None:
            op.error += " (uncaught: the dtsim process exits 1)"
        return op

    def gate(self, op: Op, fn, *args) -> None:
        """Attach ``fn(*args)`` as the op's gate unless the op already failed to run."""
        if op.error is None:
            try:
                op.gate = fn(*args)
            except Exception as exc:  # output the gate cannot read fails the gate
                op.gate = gates.Gate(False, f"gate raised {type(exc).__name__}: {exc}")

    def gate_output(self, op: Op, out: str, read=None, rc: int = 0) -> None:
        """Gate a CLI op on its exit code, then on the file it wrote; count that output.

        ``read(path)`` parses the file and returns its gate and row count.
        """
        self.gate(op, gates.exit_code, op.value, rc)
        rows = 0
        if op.ok and read is not None:
            def file_gate():
                nonlocal rows
                gate, rows = read(self.path(out))
                return gate
            self.gate(op, file_gate)
        if os.path.exists(self.path(out)):
            self.counters["cli.out_mb"] += os.path.getsize(self.path(out)) / 1e6
        self.counters["cli.rows"] += rows

    def verify_checks(self, op: Op, report: str, known: dict[str, str]) -> None:
        """One op per named check in a ``verify --json`` report that should pass."""
        try:
            with open(report) as fh:
                checks = json.load(fh)["checks"]
        except (OSError, ValueError, KeyError) as exc:
            self.ops.append(Op(f"{op.name}: checks", error=f"no report: {exc}"))
            return
        for c in checks:
            check = Op(f"{op.name}: {c['name']}", known=known.get(c["name"]))
            check.gate = gates.Gate(
                bool(c["passed"]), f"observed {c['observed']:.3e}, tolerance {c['tolerance']:.0e}"
            )
            self.counters["verify.checks_failed"] += not c["passed"]
            self.ops.append(check)

    def result(self) -> dict:
        failed = [op for op in self.ops if not op.ok]
        return {
            "attempted": len(self.ops),
            "failed": len(failed),
            "unexpected": [op.name for op in failed if op.known is None],
            "ops": [op.record() for op in self.ops],
            "counters": self.counters,
        }


class LargeT(Workload):
    """Builtin simple-BM seed at T = 32: entry-by-entry Python loops grow as T**2 to T**3."""

    name = "large-T"
    sizes = {"T": 32, "alpha": ALPHA, "H": H, "matrix_grid_n_omega": 64, "f_matrix_n_omega": 4,
             "closed_sum_n_omega": 256, "verify_T": 32, "control_T": 8, "control_perturb": 1e-3}

    def setup(self) -> None:
        self.params = core.make_params(H, ALPHA, self.sizes["T"])
        self.chain = core.make_chain(self.params, covariance.simple_bm_seed(self.params))
        self.matrix_grid = spectral.FrequencyGrid(self.sizes["matrix_grid_n_omega"])
        self.f_grid = spectral.FrequencyGrid(self.sizes["f_matrix_n_omega"])
        self.omegas = spectral.FrequencyGrid(self.sizes["closed_sum_n_omega"]).omegas

    def run(self) -> None:
        s = self.sizes
        self.verify = self.run_cli(f"dtsim verify --T {s['verify_T']}", [
            "verify", "--T", str(s["verify_T"]), "--json", "--out", self.path("verify.json")],
            known=DEFECT_TOLERANCE)
        self.control = self.run_cli(f"dtsim verify --T {s['control_T']} --perturb {s['control_perturb']}", [
            "verify", "--T", str(s["control_T"]), "--perturb", str(s["control_perturb"]),
            "--seed", str(self.seed), "--json", "--out", self.path("control.json")])
        self.matrix = self.call("spectral_matrix_grid", spectral.spectral_matrix_grid,
                                self.chain, self.matrix_grid)
        self.table = self.call("build_bk_table", spectral.build_bk_table, self.chain)
        self.fmat = self.call("f_matrix_grid", lambda: spectral.f_matrix_grid(self.table.value, self.f_grid))
        self.closed = self.call("spectral_closed_grid", spectral.spectral_closed_grid, self.chain, self.omegas)
        self.series = self.call("spectral_sum_grid", spectral.spectral_sum_grid, self.chain, self.omegas)

    def check(self) -> None:
        self.gate_output(self.verify, "verify.json")
        self.verify_checks(self.verify, self.path("verify.json"), {
            "series_vs_closed": DEFECT_TOLERANCE, "phase_expansion_roundtrip": DEFECT_TOLERANCE})
        self.gate_output(self.control, "control.json", rc=1)
        self.gate(self.matrix, lambda m: gates.density(m.entries, self.chain, self.matrix_grid.omegas),
                  self.matrix.value)
        self.gate(self.table, gates.finite_table, self.table.value)
        self.gate(self.fmat, lambda m: gates.hermitian(m.entries), self.fmat.value)
        idx = slice(None, None, len(self.omegas) // 16)
        self.gate(self.closed, lambda c: gates.explicit_form(c[idx], self.params, self.omegas[idx]),
                  self.closed.value)
        if self.closed.ok:
            self.gate(self.series, gates.series_vs_closed, self.series.value, self.closed.value)
        else:
            self.series.gate = gates.Gate(False, "no closed form to compare with")


class LongSeries(Workload):
    """T = 2 seed file at rho = 0.95: 4 entries, about 1079 lags each (S = 539)."""

    name = "long-series"
    sizes = {"T": 2, "rho": 0.95, "spectra_n_omega": 8192, "f_matrix_n_omega": 4096,
             "matrix_grid_n_omega": 4096, "probe_rho": 0.98, "probe_T4_rho": 0.95, "probe_n_omega": 16}
    methods = ["closed", "sum", "diag"]

    def setup(self) -> None:
        s = self.sizes
        self.params = core.make_params(H, ALPHA, s["T"])
        seed = seed_shape(s["T"], s["rho"])
        seed.to_csv(self.path("seed.csv"))
        self.chain = core.make_chain(self.params, core.CovarianceSeed.from_csv(self.path("seed.csv")))
        self.f_grid = spectral.FrequencyGrid(s["f_matrix_n_omega"])
        self.matrix_grid = spectral.FrequencyGrid(s["matrix_grid_n_omega"])

    def run(self) -> None:
        n = self.sizes["spectra_n_omega"]
        self.spectra = self.run_cli(f"dtsim spectra --seed-file --methods closed,sum,diag --n-omega {n}", [
            "spectra", "--seed-file", self.path("seed.csv"), "--methods", ",".join(self.methods),
            "--n-omega", str(n), "--out", self.path("spectra.csv")])
        self.table = self.call("build_bk_table", spectral.build_bk_table, self.chain)
        self.fmat = self.call("f_matrix_grid", lambda: spectral.f_matrix_grid(self.table.value, self.f_grid))
        self.matrix = self.call("spectral_matrix_grid", spectral.spectral_matrix_grid,
                                self.chain, self.matrix_grid)

    def probe(self) -> None:
        """The same seed shape nearer the unit circle, and at T = 4."""
        s = self.sizes
        rho, grid = s["probe_rho"], spectral.FrequencyGrid(s["probe_n_omega"])
        seed = seed_shape(2, rho)
        seed.to_csv(self.path("seed_probe.csv"))
        chain = core.make_chain(self.params, seed)
        tag = f"probe rho={rho}"
        self.probes = [
            (self.call(f"{tag}: build_bk_table", spectral.build_bk_table, chain,
                       timed=False, known=DEFECT_OVERFLOW), gates.finite_table),
            (self.call(f"{tag}: f_matrix_grid(build_bk_table)",
                       lambda: spectral.f_matrix_grid(spectral.build_bk_table(chain), grid),
                       timed=False, known=DEFECT_OVERFLOW), lambda m: gates.hermitian(m.entries)),
            (self.call(f"{tag}: spectral_sum_grid", spectral.spectral_sum_grid, chain, grid.omegas,
                       timed=False, known=DEFECT_OVERFLOW),
             lambda v: gates.series_vs_closed(v, spectral.spectral_closed_grid(chain, grid.omegas))),
            (self.call(f"{tag}: run_checks", verify.run_checks, self.params, seed,
                       timed=False, known=DEFECT_OVERFLOW),
             lambda res: gates.Gate(all(r.passed for r in res),
                                    ", ".join(f"{r.name} {'ok' if r.passed else 'FAIL'}" for r in res))),
            (self.run_cli(f"{tag}: dtsim spectra", [
                "spectra", "--seed-file", self.path("seed_probe.csv"), "--methods", ",".join(self.methods),
                "--n-omega", str(grid.n_omega), "--out", self.path("spectra_probe.csv")],
                timed=False, known=DEFECT_OVERFLOW),
             # Exit 4 is the documented code for a series the package cannot sum.
             lambda rc: gates.Gate(rc in (0, 4), f"exit {rc}, expected 0 or 4")),
        ]
        T4 = core.make_params(H, ALPHA, 4)
        chain4 = core.make_chain(T4, seed_shape(4, s["probe_T4_rho"]))
        self.probes.append((
            self.call(f"probe T=4 rho={s['probe_T4_rho']}: spectral_sum_grid", spectral.spectral_sum_grid,
                      chain4, grid.omegas, timed=False, known=DEFECT_OVERFLOW),
            lambda v: gates.series_vs_closed(v, spectral.spectral_closed_grid(chain4, grid.omegas))))

    def check(self) -> None:
        self.gate_output(self.spectra, "spectra.csv", lambda p: gates.spectra_csv(
            p, self.chain, self.sizes["spectra_n_omega"], self.methods))
        self.gate(self.table, gates.finite_table, self.table.value)
        self.gate(self.fmat, lambda m: gates.hermitian(m.entries), self.fmat.value)
        self.gate(self.matrix, lambda m: gates.density(m.entries, self.chain, self.matrix_grid.omegas),
                  self.matrix.value)
        for op, gate in self.probes:
            self.gate(op, gate, op.value)


class MCCov(Workload):
    """Monte Carlo covariance tables: path generation and per-row estimates do the work."""

    name = "mc-cov"
    sizes = {"builtin_T": 4, "builtin_mc_paths": 1_000_000, "seed_file_T": 2, "seed_file_rho": 0.95,
             "seed_file_mc_paths": 200_000}

    def setup(self) -> None:
        s = self.sizes
        self.params = core.make_params(H, ALPHA, s["builtin_T"])
        self.chain = core.make_chain(self.params, covariance.simple_bm_seed(self.params))
        self.file_params = core.make_params(H, ALPHA, s["seed_file_T"])
        seed_shape(s["seed_file_T"], s["seed_file_rho"]).to_csv(self.path("seed.csv"))
        self.file_chain = core.make_chain(self.file_params, core.CovarianceSeed.from_csv(self.path("seed.csv")))

    def run(self) -> None:
        s = self.sizes
        self.builtin = self.run_cli(f"dtsim cov --T {s['builtin_T']} --mc-paths {s['builtin_mc_paths']}", [
            "cov", "--T", str(s["builtin_T"]), "--mc-paths", str(s["builtin_mc_paths"]),
            "--mc-seed", str(self.seed), "--out", self.path("cov_builtin.csv")])
        self.seeded = self.run_cli(f"dtsim cov --T {s['seed_file_T']} --seed-file --mc-paths {s['seed_file_mc_paths']}", [
            "cov", "--T", str(s["seed_file_T"]), "--seed-file", self.path("seed.csv"),
            "--mc-paths", str(s["seed_file_mc_paths"]), "--mc-seed", str(self.seed),
            "--out", self.path("cov_seed_file.csv")])

    @staticmethod
    def _expected_rows(T: int) -> list[tuple[int, int]]:
        return [(n, tau) for n in range(2 * T) for tau in range(-T, 2 * T + 1) if n + tau >= 0]

    def check(self) -> None:
        for op, params, builtin, out in (
            (self.builtin, self.params, True, "cov_builtin.csv"),
            (self.seeded, self.file_params, False, "cov_seed_file.csv"),
        ):
            want = self._expected_rows(params.T)

            def table(path):
                got = [(int(r["n"]), int(r["tau"])) for r in gates.read_cov_csv(path)]
                return gates.Gate(got == want, f"{len(got)} rows, default (n, tau) table: {got == want}"), len(got)

            self.gate_output(op, out, table)
            if not op.ok:
                continue
            tag = op.name.split(" --mc")[0]
            for r in gates.read_cov_csv(self.path(out)):
                row = Op(f"{tag} row (n={r['n']}, tau={r['tau']})", known=None if builtin else DEFECT_MC)
                row.gate = gates.cov_row(r, params, builtin)
                self.ops.append(row)


class CliWrite(Workload):
    """CLI runs that write large tables: row building and writing do nearly all the work.

    A quarter of the sizes first profiled (10**5 paths, 1024 frequencies), so
    that a run holds several jobs: this workload is the noisiest per job.
    """

    name = "cli-write"
    sizes = {"simulate_paths": 25_000, "simulate_kmax": 16, "spectra_T": 16, "spectra_n_omega": 256,
             "json_paths": 2500, "json_kmax": 16}

    def setup(self) -> None:
        s = self.sizes
        self.params = core.make_params(H, ALPHA, 2)
        self.spectra_params = core.make_params(H, ALPHA, s["spectra_T"])
        self.spectra_chain = core.make_chain(self.spectra_params, covariance.simple_bm_seed(self.spectra_params))

    def run(self) -> None:
        s = self.sizes
        seed = str(self.seed)
        self.csv = self.run_cli(f"dtsim simulate --paths {s['simulate_paths']} --kmax {s['simulate_kmax']}", [
            "simulate", "--paths", str(s["simulate_paths"]), "--kmax", str(s["simulate_kmax"]),
            "--seed", seed, "--out", self.path("simulate.csv")])
        self.spectra = self.run_cli(f"dtsim spectra --T {s['spectra_T']} --n-omega {s['spectra_n_omega']}", [
            "spectra", "--T", str(s["spectra_T"]), "--n-omega", str(s["spectra_n_omega"]),
            "--out", self.path("spectra.csv")])
        self.json = self.run_cli(f"dtsim simulate --paths {s['json_paths']} --kmax {s['json_kmax']} --format json", [
            "simulate", "--paths", str(s["json_paths"]), "--kmax", str(s["json_kmax"]), "--seed", seed,
            "--format", "json", "--out", self.path("simulate.json")])

    def check(self) -> None:
        s = self.sizes
        self.gate_output(self.csv, "simulate.csv", lambda p: gates.simulate_csv(
            p, simulate.simulate_simple_bm(self.params, s["simulate_paths"], s["simulate_kmax"], self.seed)))
        self.gate_output(self.spectra, "spectra.csv", lambda p: gates.spectra_csv(
            p, self.spectra_chain, s["spectra_n_omega"], ["closed", "sum"]))
        self.gate_output(self.json, "simulate.json", lambda p: gates.simulate_json(
            p, simulate.simulate_simple_bm(self.params, s["json_paths"], s["json_kmax"], self.seed)))


WORKLOADS = {w.name: w for w in (LargeT, LongSeries, MCCov, CliWrite)}
