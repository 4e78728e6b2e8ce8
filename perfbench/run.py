"""dtsim benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload large-T --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``BENCHMARK.json`` at the root declares the workloads and metrics; this
script reads their names and units from it. Workloads (see
``perfbench/workloads.py`` for sizes and the reason for each):

* ``large-T``     verify, Hermitian and f-matrix densities, closed and series
                  grids at T = 32 (spectral, multidim, covariance, verify).
* ``long-series`` ``dtsim spectra --seed-file`` and the spectral grids on a
                  T = 2 seed with rho = 0.95, about 1079 lags per entry.
* ``mc-cov``      ``dtsim cov`` with 10**6 and 2 * 10**5 Monte Carlo paths.
* ``cli-write``   ``dtsim simulate`` and ``dtsim spectra`` writing large tables.

Each job runs in its own fresh interpreter, one at a time, with the BLAS
thread pools capped at the number of usable cores. A run first runs the gate
self-test and several set-up-only interpreters, then starts jobs while the
next one is predicted to end within ``--seconds`` (at least one job, and with
``--trace 1`` at least one untraced and one traced job, alternating).

Metrics, each a median over the run's samples:

* ``setup_s``     interpreter start until ``import dtsim`` is done and the
                  workload's params, seed and chain are built.
* ``job_s``       wall time of the timed job, tracing off.
* ``peak_rss_mb`` peak RSS of the job's process after the timed job.
* ``ok_frac``     operations that passed over operations attempted, so
                  ``fail_frac = 1 - ok_frac``. It is reported as the passing
                  share because a metric must never be 0.

With ``--trace 1`` the last line carries the per-layer metrics of the traced
jobs instead (see ``perfbench/tracing.py``). Every job checks its outputs
outside the timed region (``perfbench/gates.py``); ``correct`` is false when
the gate self-test fails or an operation fails that is not one of the
defects known at the seed commit. Known defects still count in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (provenance, every operation, every traced edge) is written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
#: A run stops its children rather than outlive this many seconds.
RUN_LIMIT_S = 170
SETUP_SAMPLES = 5
CHECKS = ("commutation", "lamperti_roundtrip", "oracle_equivalence", "markov_triangle",
          "hermitian_spectral", "series_vs_closed", "phase_expansion_roundtrip")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values):
    return statistics.median(values) if values else float("nan")


# -- environment and provenance ------------------------------------------
def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    return env


def provenance(seed: int, job_meta: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dtsim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "python": job_meta.get("python"),
        "numpy": job_meta.get("numpy"),
        "dtsim": job_meta.get("dtsim"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


# -- child processes -----------------------------------------------------
def child(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one ``job.py`` interpreter to completion and return its result.

    The child is killed, and the run fails, if it is still running at
    ``deadline`` (a CLOCK_MONOTONIC time).
    """
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT)
    result_path = os.path.join(tmp, "result.json")
    try:
        start = _now()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "job.py"), mode, workload, str(seed), tmp, result_path],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - start),
        )
        wall = _now() - start
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(f"{mode} job for {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(result_path) as fh:
            out = json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} job for {workload} still running after {RUN_LIMIT_S} s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out["setup_s"] = out["ready"] - start
    out["wall_s"] = wall
    return out


# -- one workload --------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = _now()
    deadline = t_start + RUN_LIMIT_S
    selftest = child("selftest", workload, seed, deadline)
    setups = [child("setup", workload, seed, deadline) for _ in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(untraced)
        job = child("traced" if want_traced else "job", workload, seed, deadline)
        (traced if want_traced else untraced).append(job)
        done = untraced + traced
        if untraced and (traced or not trace):
            predicted_end = _now() - t_start + statistics.mean(j["wall_s"] for j in done)
            if predicted_end > seconds:
                break
    return summarize(workload, seed, selftest, setups, untraced, traced)


def summarize(workload, seed, selftest, setups, untraced, traced) -> dict:
    jobs = untraced + traced
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    unexpected = sorted({name for j in jobs for name in j["unexpected"]})
    selftest_ok = all(row["ok"] for row in selftest["selftest"])
    e2e = {
        "setup_s": _median([j["setup_s"] for j in setups + untraced]),
        "job_s": _median([j["job_s"] for j in untraced]),
        "peak_rss_mb": _median([j["peak_rss_mb"] for j in untraced]),
        "ok_frac": (attempted - failed) / attempted,
    }
    failing = {}
    for j in jobs:
        for op in j["ops"]:
            if not op["ok"]:
                failing.setdefault(op["name"], op)
    op_wall = {}
    for j in untraced:
        for op in j["ops"]:
            op_wall.setdefault(op["name"], []).append(op["wall_s"])
    summary = {
        "workload": workload,
        "correct": selftest_ok and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "fail_frac": failed / attempted,
        "failing_ops": list(failing.values()),
        "unexpected_failures": unexpected,
        "selftest": selftest["selftest"],
        "op_wall_s": {name: _median(v) for name, v in op_wall.items()},
        "setup_rss_mb": _median([j["peak_rss_mb"] for j in setups]),
        "samples": {"setup": len(setups) + len(untraced), "untraced": len(untraced), "traced": len(traced)},
        "sample_values": {"setup_s": [j["setup_s"] for j in setups + untraced],
                          "job_s": [j["job_s"] for j in untraced],
                          "traced_job_s": [j["job_s"] for j in traced],
                          "peak_rss_mb": [j["peak_rss_mb"] for j in untraced]},
        "provenance": provenance(seed, selftest),
        "sizes": selftest.get("sizes"),
    }
    if traced:
        traced_job_s = _median([j["job_s"] for j in traced])
        per_job = [layer_metrics(j) for j in traced]
        per_layer = {name: _median([m[name] for m in per_job]) for name in per_job[0]}
        per_layer["trace.overhead_s"] = traced_job_s - e2e["job_s"]
        summary.update(per_layer=per_layer, traced_job_s=traced_job_s, edges=traced[0]["edges"])
    return summary


def layer_metrics(job: dict) -> dict:
    """Per-layer values of one traced job, named as in BENCHMARK.json."""
    layers, counters, own = job["layers"], job["trace_counters"], job["counters"]
    out = {}
    for layer, t in layers.items():
        out[f"{layer}.calls"] = t["calls"]
        out[f"{layer}.self_s"] = t["self_s"]
        out[f"{layer}.span_s"] = t["span_s"]

    def rate(count, layer):
        span = layers[layer]["span_s"]
        return count / span if span > 0 else 0.0

    entries = counters.get("spectral.entries", 0)
    samples = counters.get("simulate.samples", 0)
    out.update({
        "spectral.entries": entries,
        "spectral.series_terms": counters.get("spectral.series_terms", 0),
        "spectral.entries_per_s": rate(entries, "spectral"),
        "simulate.samples": samples,
        "simulate.samples_per_s": rate(samples, "simulate"),
        "simulate.path_mb": counters.get("simulate.path_mb", 0.0),
        "verify.checks_failed": own["verify.checks_failed"],
        "cli.rows": own["cli.rows"],
        "cli.out_mb": own["cli.out_mb"],
        "cli.rows_per_s": rate(own["cli.rows"], "cli"),
    })
    for check in CHECKS:
        out[f"verify.{check}_s"] = counters.get(f"verify.{check}_s", 0.0)
    return out


# -- output --------------------------------------------------------------
def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        raise BenchError(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def print_summary(s: dict, spec: dict) -> None:
    p = s["provenance"]
    print(f"== {s['workload']}  seed={p['workload_seed']}  correct={s['correct']}")
    print(f"   provenance: nproc={p['nproc']} blas_threads={p['blas_threads']} python={p['python']} "
          f"numpy={p['numpy']} dtsim={p['dtsim']} commit={p['git_commit']} src={p['src_sha256']}")
    print(f"   sizes: {json.dumps(s['sizes'])}")
    n = s["samples"]
    print(f"   samples: setup={n['setup']} untraced={n['untraced']} traced={n['traced']}")
    for m in spec["end_to_end"]:
        print(f"   {m['name']:<12} {s['end_to_end'][m['name']]:.6g} {m['unit']}")
    print(f"   {'fail_frac':<12} {s['fail_frac']:.6g} ratio  ({s['failed']} of {s['attempted']} operations failed)")
    for op in s["failing_ops"]:
        tag = f"known: {op['known']}" if op["known"] else "UNEXPECTED"
        print(f"     FAILED {op['name']}: {op['detail']} [{tag}]")
    for r in s["selftest"]:
        if not r["ok"]:
            print(f"     SELF-TEST gate {r['gate']} did not behave as required: {r['detail']}")
    if "per_layer" in s:
        print(f"   traced job_s {s['traced_job_s']:.6g} s")
        for m in spec["per_layer"]:
            print(f"   {m['name']:<36} {s['per_layer'][m['name']]:.6g} {m['unit']}")


def result_line(s: dict, spec: dict, trace: bool) -> str:
    if trace:
        metrics = {m["name"]: {"value": s["per_layer"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": s["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
                       "metrics": metrics})


def record(s: dict, name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(s, fh, indent=1)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.exists(os.path.join(ROOT, "src", "dtsim", "__init__.py")):
            raise BenchError(f"dtsim sources not found under {os.path.join(ROOT, 'src')}")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            from report import report_all

            return report_all(names, args.seed, args.seconds, spec)
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
        s = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_summary(s, spec)
        print(f"   recorded {record(s, f'{args.workload}-seed{args.seed}-trace{args.trace}.json')}")
        print(result_line(s, spec, bool(args.trace)))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
