"""``run.py --workload all``: every workload, traced and untraced, in one report.

Besides each workload's end-to-end and per-layer metrics, the report
cross-checks the numbers against the ROADMAP baseline table (single runs on
a shared 2-core machine, so "in range" means within a factor of 2 after
scaling to the baseline's size) and checks that each workload's traced self
time is dominated by the layers it was chosen to stress.
"""

from __future__ import annotations

import json

import run
from tracing import LAYERS

#: (what, baseline seconds, workload, how to read the observed seconds)
BASELINE = [
    ("spectral_closed_grid, T=32, 256 frequencies", 0.0073, "large-T",
     lambda s: s["op_wall_s"]["spectral_closed_grid"]),
    ("spectral_matrix_grid, T=32, 256 frequencies (64 measured, x4)", 5.5, "large-T",
     lambda s: s["op_wall_s"]["spectral_matrix_grid"] * 256 / s["sizes"]["matrix_grid_n_omega"]),
    ("f_matrix_grid, T=32, 16 frequencies (4 measured, x4)", 0.77, "large-T",
     lambda s: s["op_wall_s"]["f_matrix_grid"] * 16 / s["sizes"]["f_matrix_n_omega"]),
    ("run_checks at T=32 (dtsim verify --T 32)", 4.2, "large-T",
     lambda s: s["op_wall_s"]["dtsim verify --T 32"]),
    ("run_checks at T=8 (perturbed negative control)", 0.13, "large-T",
     lambda s: s["op_wall_s"]["dtsim verify --T 8 --perturb 0.001"]),
    ("path generation, 1e6 paths x 17 points (scaled by samples)", 0.58, "mc-cov",
     lambda s: _edge_s(s, "simulate.simulate_simple_bm") * 17e6 / s["per_layer"]["simulate.samples"]),
    ("dtsim simulate --paths 100000 --kmax 16, CSV (scaled by paths)", 8.3, "cli-write",
     lambda s: _op_s(s, "dtsim simulate --paths {simulate_paths} --kmax {simulate_kmax}")
     * 100_000 / s["sizes"]["simulate_paths"]),
    ("dtsim spectra --T 16 --n-omega 1024 (scaled by frequencies)", 4.2, "cli-write",
     lambda s: _op_s(s, "dtsim spectra --T {spectra_T} --n-omega {spectra_n_omega}")
     * 1024 / s["sizes"]["spectra_n_omega"]),
]

#: Layers each workload was chosen to stress, and the share of traced self time they must hold.
DOMINANT = {
    "large-T": (("spectral", "multidim", "covariance", "verify"), 0.8),
    "long-series": (("spectral",), 0.5),
    "mc-cov": (("simulate",), 0.8),
    "cli-write": (("cli",), 0.9),
}


def _op_s(s: dict, name: str) -> float:
    return s["op_wall_s"][name.format(**s["sizes"])]


def _edge_s(s: dict, callee: str) -> float:
    return sum(e["total_s"] for e in s["edges"] if e["callee"] == callee and e["caller"] != "simulate")


def baseline_rows(summaries: dict) -> list[dict]:
    rows = []
    for what, base, workload, read in BASELINE:
        if workload in summaries:
            rows.append({"what": what, "baseline": base, "observed": read(summaries[workload]), "unit": "s"})
    if "cli-write" in summaries:
        # Set-up RSS plus what the job added, scaled to the baseline's 10**5 paths.
        s = summaries["cli-write"]
        setup, peak = s["setup_rss_mb"], s["end_to_end"]["peak_rss_mb"]
        rows.append({"what": "peak RSS of cli-write, scaled to 100000 paths (simulate CSV alone)",
                     "baseline": 737.0, "unit": "MB",
                     "observed": setup + (peak - setup) * 100_000 / s["sizes"]["simulate_paths"]})
    for row in rows:
        ratio = row["observed"] / row["baseline"]
        row["ratio"] = ratio
        row["in_range"] = 0.5 <= ratio <= 2.0
    if "cli-write" in summaries:
        s = summaries["cli-write"]
        share = s["per_layer"]["cli.self_s"] / s["traced_job_s"]
        rows.append({"what": "cli.self_s share of cli-write traced job_s (baseline: about 99%, >= 90%)",
                     "baseline": 0.9, "observed": share, "unit": "ratio", "ratio": share / 0.9,
                     "in_range": share >= 0.9})
    return rows


def dominance_rows(summaries: dict) -> list[dict]:
    rows = []
    for workload, (layers, need) in DOMINANT.items():
        if workload not in summaries:
            continue
        per_layer = summaries[workload]["per_layer"]
        self_s = {layer: per_layer[f"{layer}.self_s"] for layer in LAYERS}
        total = sum(self_s.values())
        share = sum(self_s[layer] for layer in layers) / total if total > 0 else 0.0
        top = max(self_s, key=self_s.get)
        rows.append({"workload": workload, "layers": layers, "share": share, "need": need,
                     "top_layer": top, "ok": share >= need and top in layers,
                     "self_s": self_s})
    return rows


def report_all(names: list[str], seed: int, seconds: float, spec: dict) -> int:
    summaries = {}
    for name in names:
        summaries[name] = run.measure(name, seed, seconds, trace=True)
        run.print_summary(summaries[name], spec)
    print("== ROADMAP baseline cross-check (in range: observed/baseline within 0.5..2)")
    base = baseline_rows(summaries)
    for r in base:
        flag = "in range" if r["in_range"] else "MISMATCH"
        print(f"   {r['what']:<72} baseline {r['baseline']:<8g} observed {r['observed']:.4g} {r['unit']}"
              f"  ({r['ratio']:.2f}x) {flag}")
    print("== layers stressed (share of traced self time)")
    dom = dominance_rows(summaries)
    for r in dom:
        shares = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(r["self_s"].items(), key=lambda kv: -kv[1]) if v > 0)
        print(f"   {r['workload']:<12} {'+'.join(r['layers'])}: {r['share']:.1%} (need {r['need']:.0%}), "
              f"top {r['top_layer']} -> {'ok' if r['ok'] else 'MISMATCH'}  [{shares}]")
    path = run.record({"workloads": summaries, "baseline": base, "dominance": dom}, f"report-seed{seed}.json")
    print(f"   recorded {path}")
    correct = all(s["correct"] for s in summaries.values())
    print(json.dumps({"correct": correct, "workloads": {
        n: {"attempted": s["attempted"], "failed": s["failed"], "end_to_end": s["end_to_end"]}
        for n, s in summaries.items()}}))
    return 0
