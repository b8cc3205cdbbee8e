#!/usr/bin/env python3
"""Self-test of the benchmark's output checks on small inputs.

    python3 perfbench/selftest.py

Each workload runs one block of ops on a coarse mesh through the same code
as a benchmark run; every check must accept the real results and reject a
deliberately perturbed copy.  Exits 0 when every check behaves, 1 otherwise.
Runs in well under a minute.
"""

from __future__ import annotations

import os
import sys

from run import SRC, THREAD_ENV

os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))

from workloads import (CANONICAL, CLI_SUBCOMMANDS, EXPANSION_C,  # noqa: E402
                       ORACLE_LAYERS, RING, AuxRefine, CliPipeline,
                       CorrectorSeries, DeltaSweep,
                       check_artifacts, check_aux, check_expansion, check_growth)
from enzlab import PhysicsConfig, build_mesh, solve_auxiliary_set  # noqa: E402
from enzlab import oracle  # noqa: E402

FAILURES = []


def expect(label: str, reason, should_pass: bool) -> None:
    ok = (reason is None) == should_pass
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {label}: {'accepted' if reason is None else 'rejected (' + reason + ')'}")
    if not ok:
        FAILURES.append(label)


def block(workload, state):
    """One block of ops, as a benchmark run executes it."""
    workload.begin_chunk(state, 0)
    results = [workload.op(state, i, None) for i in range(workload.chunk)]
    return results, workload.check_chunk(state, results)


def delta_sweep():
    w = DeltaSweep(seed=0, h=0.1)
    state = w.prepare(None)
    results, reasons = block(w, state)
    for (d, _), reason in zip(results, reasons):
        expect(f"delta_sweep delta={d:.3g}", reason, True)
    d, errs = results[0]
    expect("delta_sweep J1/J2 swapped", check_expansion(d, [errs[0], errs[2], errs[1]]), False)
    expect("delta_sweep err_J0 x3", check_expansion(d, [3 * errs[0], errs[1], errs[2]]), False)
    expect("delta_sweep err_J2 / 3", check_expansion(d, [errs[0], errs[1], errs[2] / 3]), False)
    d, errs = max(results, key=lambda r: abs(r[0]))
    expect(f"delta_sweep err_J2 x3 at delta={d:.3g}",
           check_expansion(d, [errs[0], errs[1], 3 * errs[2]]), False)
    # At the smallest |delta| the roundoff allowance must still catch a J = 2
    # error several times too large.
    preds = [c * 1e-3 ** (j + 1) for j, c in enumerate(EXPANSION_C)]
    expect("delta_sweep prediction at |delta|=1e-3", check_expansion(1e-3, preds), True)
    expect("delta_sweep err_J2 x5 at |delta|=1e-3",
           check_expansion(1e-3, preds[:2] + [5 * preds[2]]), False)


def corrector_series():
    w = CorrectorSeries(seed=0, h=0.1)
    state = w.prepare(None)
    results, reasons = block(w, state)
    expect("corrector_series chain", reasons[0], True)
    expect("corrector_series ratios x1.15", check_growth([1.15 * r for r in results]), False)
    expect("corrector_series NaN norm", check_growth(results[:-1] + [float("nan")]), False)


def aux_refine():
    w = AuxRefine(seed=0, h=0.07)
    state = w.prepare(None)
    results, reasons = block(w, state)
    for (geometry, h, k), reason in zip(w.cases, reasons):
        expect(f"aux_refine {geometry} k={k}", reason, True)
    cfg = PhysicsConfig.from_k(1.0, sources=RING)
    aux = solve_auxiliary_set(build_mesh(CANONICAL, 0.07), cfg)
    ref = oracle.axisym_solution(ORACLE_LAYERS, k=1.0, mu=cfg.mu).scalars
    good = (cfg.k, aux.beta, aux.c_star, aux.mu_eff, ref)
    expect("aux_refine concentric k=1 vs oracle", check_aux(*good), True)
    expect("aux_refine beta conjugated",
           check_aux(cfg.k, aux.beta.conjugate(), aux.c_star, aux.mu_eff, ref), False)
    expect("aux_refine mu_eff x1.02",
           check_aux(cfg.k, aux.beta, aux.c_star, 1.02 * aux.mu_eff, ref), False)
    no_mu = oracle.axisym_solution(ORACLE_LAYERS, k=2.0).scalars    # mu defaults to 1
    cfg2 = PhysicsConfig.from_k(2.0, sources=RING)
    aux2 = solve_auxiliary_set(build_mesh(CANONICAL, 0.07), cfg2)
    expect("aux_refine oracle without mu (k=2)",
           check_aux(cfg2.k, aux2.beta, aux2.c_star, aux2.mu_eff, no_mu), False)


def cli_pipeline():
    w = CliPipeline(seed=0, h=0.1)
    state = w.prepare(None)
    try:
        _, reasons = block(w, state)
        for sub, reason in zip(CLI_SUBCOMMANDS, reasons):
            expect(f"cli_pipeline first {sub}", reason, True)
        results = [w.op(state, w.chunk + i, None) for i in range(w.chunk)]
        csv = results[0][2] / "aux.csv"            # flip one digit of the rerun
        data = bytearray(csv.read_bytes())
        data[-2] ^= 1
        csv.write_bytes(bytes(data))
        reasons = w.check_chunk(state, results)
        expect("cli_pipeline rerun aux with one digit flipped", reasons[0], False)
        for sub, reason in zip(CLI_SUBCOMMANDS[1:], reasons[1:]):
            expect(f"cli_pipeline rerun {sub}", reason, True)
        expect("cli_pipeline exit code 4", check_artifacts(4, {}, None), False)
    finally:
        w.close(state)


def main() -> int:
    for test in (delta_sweep, corrector_series, aux_refine, cli_pipeline):
        test()
    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
