"""One benchmark job in a fresh interpreter; started by ``run.py``, not by hand.

Usage: ``python3 perfbench/job.py MODE WORKLOAD SEED TMPDIR RESULT``

MODE is ``setup`` (import and build inputs, then stop), ``job`` (the timed
job, untraced), ``traced`` (the same job under the layer tracer) or
``selftest`` (the gate self-test). The result is written as JSON to RESULT.
``ready`` is the CLOCK_MONOTONIC time at which ``import dtsim`` had finished
and the workload's params, seed and chain were built; the parent subtracts
its own clock reading from just before it started this process.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dtsim  # noqa: E402
import dtsim.cli  # noqa: E402,F401
import numpy  # noqa: E402

import gates  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(mode: str, workload: str, seed: int, tmp: str) -> dict:
    w = WORKLOADS[workload](seed, tmp)
    w.setup()
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "mode": mode, "sizes": w.sizes,
           "numpy": numpy.__version__, "python": sys.version.split()[0], "dtsim": dtsim.__version__}
    if mode == "setup":
        out["peak_rss_mb"] = _peak_rss_mb()
        return out
    if mode == "selftest":
        rows = gates.self_test(tmp)
        out["selftest"] = [{"gate": g, "ok": ok, "detail": d} for g, ok, d in rows]
        return out

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        w.run()
    finally:
        job_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out["job_s"] = job_s
    out["peak_rss_mb"] = _peak_rss_mb()
    # Probes and gates run untimed and untraced.
    w.probe()
    w.check()
    out.update(w.result())
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        out["trace_counters"] = dict(tracer.counters)
        out["edges"] = tracer.edge_list()
    return out


if __name__ == "__main__":
    mode, workload, seed, tmp, result = sys.argv[1:6]
    payload = main(mode, workload, int(seed), tmp)
    with open(result, "w") as fh:
        json.dump(payload, fh)
