#!/usr/bin/env python3
"""Run one enzlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload delta_sweep --seed 1 --seconds 4 --trace 0

Run from the root of a source checkout: enzlab is imported from ``src/``.
An untraced run first times two set-ups of the workload in fresh processes,
then sets it up itself and runs closed-loop ops (one caller) in whole blocks
until ``--seconds`` have passed and the workload's minimum op count is
reached, checking every op's output.  Human-readable
lines (environment, inputs, metrics) go to standard output first; the last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The full record, with the
spans of a traced run, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# One thread everywhere: ENZ_THREADS=1 is the CLI default, and a threaded BLAS
# only adds noise to sparse direct solves; 1 is within nproc on any machine.
THREAD_ENV = {"ENZ_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups timed per untraced run, each the first in its own process.
SETUP_REPEATS = 3
# Seed kept for confirming a claimed gain; do not use it while writing a change.
CONFIRM_SEED = 20260417


def l3_bytes():
    """L3 size from glibc's sysconf (cpuid), or None where it is unknown."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        size = libc.sysconf(194)           # _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
    }


def tail_latency(lat):
    """Latency at the highest percentile with ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or fewer,
    the maximum with none beyond.
    """
    s = sorted(lat)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    return s[-11], 100.0 * (len(s) - 10) / len(s), 10


def fresh_setup(argv) -> float:
    """``import enzlab`` plus the workload's preparation, in a new process.

    Every set-up is the first one in its process, so nothing the program
    keeps between calls can make a repeat cheaper than what a user pays.
    """
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv,
                           "--setup-only"], cwd=ROOT, capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(workload, seconds: float, tr, host) -> dict:
    """Set-up, then timed blocks of ops with their output checks.

    Op times are (start, seconds) pairs; ``host`` samples the reference
    kernel before the set-up and between ops.
    """
    from enzlab import EnzLabError
    host.sample()
    t0 = time.perf_counter()
    state = workload.prepare(tr)
    prep = time.perf_counter() - t0
    lat, reasons = [], []
    t_begin = time.perf_counter()
    i = 0
    try:
        while True:
            workload.begin_chunk(state, i // workload.chunk)
            results = []
            for _ in range(workload.chunk):
                if tr is not None:
                    tr.op = i
                t0 = time.perf_counter()
                try:
                    res = workload.op(state, i, tr)
                except EnzLabError as exc:
                    res = exc
                lat.append((t0, time.perf_counter() - t0))
                results.append(res)
                i += 1
                host.sample_if_due()
            if tr is not None:
                tr.op = "check"
            reasons += workload.check_chunk(state, results)
            if i >= workload.min_ops and time.perf_counter() - t_begin >= seconds:
                break
        divergence = workload.trace_divergence(state) if tr is not None else 0.0
        counts = workload.counts(state)
    finally:
        workload.close(state)
    return {"prep": prep, "ops": lat, "reasons": reasons, "counts": counts,
            "trace_divergence": divergence}


def normalized(pairs, norm) -> list:
    """Seconds of (start, seconds) pairs, each scaled at its midpoint."""
    return [dt * norm(t + 0.5 * dt) for t, dt in pairs]


def end_to_end(workload, res: dict, norm) -> dict:
    """End-to-end metrics of a run in normalized seconds.

    ``res["setups"]`` holds set-up seconds, ``res["ops"]`` (start, seconds)
    pairs of the ops; ``norm`` maps a moment to the factor that turns seconds measured around
    it into normalized seconds, and ``norm(None)`` gives the whole run's
    factor.  Set-ups take the whole run's factor: they last seconds and run
    in other processes, so the few kernel samples around one say less about
    them than all of the run's samples do.  ``wall_s`` is set-up plus the
    mean time of one solution: a run holds whole solutions, and averaging
    all of them is steadier than timing the first.
    """
    setup_s = statistics.median(res["setups"]) * norm(None)
    lat = normalized(res["ops"], norm)
    n = len(lat)
    ok = sum(r is None for r in res["reasons"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (setup_s + sum(lat) * workload.solution_ops / n, "s"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "ok_frac": (ok / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "enzlab" / "__init__.py").is_file():
        print(f"perfbench: no enzlab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import enzlab                 # first, so NumPy and SciPy count as its cost
    imported = time.perf_counter() - t0
    if Path(enzlab.__file__).resolve().parent != (SRC / "enzlab").resolve():
        print(f"perfbench: imported enzlab from {enzlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import COUNTS, LAYERS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        t0 = time.perf_counter()
        workload.close(workload.prepare(None))
        print(json.dumps({"setup_s": imported + time.perf_counter() - t0}))
        return 0

    from hostspeed import HostSpeed
    host = HostSpeed()
    # The other set-ups run first, one at a time, so that no two processes
    # hold a workload's factors at once.
    setups = []
    if not args.trace:
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
        for _ in range(SETUP_REPEATS - 1):
            host.sample()
            setups.append(fresh_setup(base))
    tr = Tracer() if args.trace else None
    t_run = time.perf_counter()
    res = run(workload, args.seconds, tr, host)
    t_run = time.perf_counter() - t_run
    res["setups"] = setups + [imported + res["prep"]]
    e2e = end_to_end(workload, res, host.factor)
    tail, pct, beyond = tail_latency(normalized(res["ops"], host.factor))
    if tr is None:
        metrics = e2e
    else:
        metrics = tr.layer_metrics(LAYERS, host.factor)
        metrics.update({c: (res["counts"].get(c, 0), "count") for c in COUNTS})
        metrics["trace.spans"] = (len(tr.spans), "count")
        metrics["trace.wall_s"] = (e2e["wall_s"][0], "s")

    failed = sum(r is not None for r in res["reasons"])
    attempted = len(res["reasons"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs": workload.inputs(attempted), "counts": res["counts"],
        "import_s": imported, "prep_s": res["prep"], "setups_s": res["setups"],
        "run_s": t_run, "latencies_s": res["ops"], "host_samples_s": host.samples,
        "op_tail": {"value_s": tail, "percentile": pct, "samples": len(res["ops"]),
                    "beyond": beyond},
        "failures": [(i, r) for i, r in enumerate(res["reasons"]) if r],
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "trace_divergence": res["trace_divergence"],
    }
    if tr is not None:
        record["spans"] = tr.dump()
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print("inputs " + json.dumps(record["inputs"], default=str))
    print("input size " + json.dumps(res["counts"]))
    for i, reason in record["failures"]:
        print(f"FAILED op {i}: {reason}")
    if res["trace_divergence"] > 1e-9:
        print(f"WARNING: traced composition differs from the public function "
              f"by {res['trace_divergence']:.2e}; per-layer numbers may not "
              "describe the program")
    if tr is not None:
        cost = len(tr.spans) * Tracer.span_cost()
        print(f"tracing overhead: {len(tr.spans)} spans cost about {cost:.4f} s; "
              "report.py --trace prints the wall_s difference to the untraced "
              "run, which includes the extra warm solves")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} ops)")
    print(f"setup_s is the median of {len(res['setups'])} set-up(s), each the first "
          "in its process: " + " ".join(f"{v:.4f}" for v in res["setups"])
          + " s unnormalized")
    print(f"op_tail_s {tail:.6g} s, not gated: p{pct:.1f} of {len(res['ops'])} "
          f"op latencies ({beyond} beyond); below about 30 ops it is no tail")
    print(f"host factor {host.factor():.4f} over the run, from {len(host.samples)} "
          "reference-kernel samples; times below are normalized seconds")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
