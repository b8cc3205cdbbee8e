#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by name.

    python3 perfbench/report.py --seeds 1,2,3 --seconds 10 --trace

For each workload it runs ``run.py`` once per seed, untraced, and prints each
end-to-end metric with its unit, median and quartile spread (the distance
between the first and third quartile as a share of the median).  With
``--trace`` it also makes one traced run per workload (first seed) and prints
the per-layer metrics that are not zero, the tracing overhead (traced minus
median untraced ``wall_s``) and the layer numbers next to the one-shot
ROADMAP baseline.  Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (workload, ROADMAP re-anchor label, seconds, [(layer, calls per item)])
BASELINE = (
    ("delta_sweep", "h=0.05 mesh", 0.16, [("geometry.build_mesh", 1)]),
    ("delta_sweep", "h=0.05 first direct solve", 0.62,
     [("direct.solve_transmission", 1), ("direct.transmission_system", 1),
      ("fem.source_load", 1), ("fem.solve_cold", 1)]),
    ("delta_sweep", "h=0.05 repeat solve, cached LU", 0.16, [("fem.solve_warm", 1)]),
    ("delta_sweep", "h=0.05 auxiliary set", 0.71,
     [("auxiliary.solve_auxiliary_set", 1), ("auxiliary.exterior_system", 1),
      ("auxiliary.dopant_system", 1), ("auxiliary.solve_s", 1),
      ("auxiliary.solve_psi_e", 1), ("auxiliary.solve_psi_d", 1)]),
    ("corrector_series", "h=0.025 auxiliary set", 4.9,
     [("auxiliary.solve_auxiliary_set", 1), ("auxiliary.exterior_system", 1),
      ("auxiliary.dopant_system", 1), ("auxiliary.solve_s", 1),
      ("auxiliary.solve_psi_e", 1), ("auxiliary.solve_psi_d", 1)]),
    ("corrector_series", "h=0.025 estimate_radius(30), as 30 steps", 7.8,
     [("correctors.step", 30), ("correctors.enz_solve", 30), ("correctors.lift", 30),
      ("fem.flux_extract", 60), ("correctors.state_norm", 30)]),
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for wl in args.workloads.split(","):
        runs = [run_once(wl, s, args.seconds, 0) for s in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n== {wl}: {len(runs)} run(s), fail_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} ops), correct={all(r['correct'] for r in runs)}")
        print(f"  {'metric':<12} {'unit':<6} {'median':>12} {'IQR/med':>8} {'bound':>6}  values")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<12} {unit:<6} {statistics.median(vals):>12.6g} "
                  f"{spread(vals):>8.3f} {bound:>6}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        if not args.trace:
            continue
        traced = run_once(wl, seeds[0], args.seconds, 1)["metrics"]
        print(f"  -- traced run, seed {seeds[0]} (self times; zero layers omitted)")
        for name, m in traced.items():
            if m["value"]:
                print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in runs)
        over = traced["trace.wall_s"]["value"] - wall
        print(f"  tracing overhead: traced wall_s - untraced wall_s = {over:.3f} s "
              f"({100 * over / wall:.1f} %)")
        for bw, label, base, layers in BASELINE:
            if bw == wl:
                val = sum(n * traced[f"{layer}.p50_s"]["value"] for layer, n in layers)
                print(f"  baseline {label:<42} ROADMAP {base:>6.2f} s   now {val:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
