"""The four benchmark workloads: seeded inputs, set-up, one op, output checks.

Each workload drives public enzlab functions only.  With a tracer the ops
call the parts of the thin compositions themselves (``solve_transmission``,
``CorrectorEngine.step``, ``solve_auxiliary_set``), in the order the
composition runs them, inside spans named ``<module>.<function>``; without a
tracer they call the compositions.  Outputs are checked after each block of
ops, outside the op timings.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import shutil
from pathlib import Path

import numpy as np

from enzlab import (BoundaryFunctional, Circle, CorrectorEngine, DomainSpec,
                    EnzLabError, PhysicsConfig, ScalarField, SourceRing,
                    SourceSpec, build_mesh, compare_fields, solve_auxiliary_set,
                    solve_transmission)
from enzlab import auxiliary, direct, fem, oracle
from enzlab.auxiliary import AuxiliarySet
from enzlab.cli import main as cli_main
from enzlab.correctors import IterState
from enzlab.errors import BetaNearZero
from enzlab.geometry import Bnd, Region

# CLI artifacts of cli_pipeline go here, inside the checkout; a run removes
# its own subdirectory when it ends.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"
CANONICAL = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 0.3),
                       truncation_radius=4.0, pml_thickness=1.0)
OFF_CENTRE = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.3, 0.0), 0.2),
                        truncation_radius=4.0, pml_thickness=1.0)
RING = SourceSpec((SourceRing(2.3, 2.7, 1.0 + 0.0j),))
CFG = PhysicsConfig(omega=1.0, mu=1.0 + 0.0j, delta=1e-2 + 0.0j, sources=RING)
RAYS = (1.0 + 0.0j, 1.0j, -1.0j)          # real, loss and gain delta rays
ORACLE_LAYERS = oracle.RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=CFG.delta.real,
                                    source_r1=2.3, source_r2=2.7, amplitude=1.0)

# Truncation-error constants err_J ~ C_J |delta|^(J+1) of the canonical case,
# measured on the initial enzlab code, commit 442bd39 (h = 0.05, all three
# rays; h = 0.1 and 0.2 agree to a few percent).
EXPANSION_C = (0.45, 0.078, 0.0137)
# Roundoff allowance on the upper bound.  Near |delta| = 1e-3, C_2 |delta|^3
# is about 1.4e-11 and err_J2 sits on the solve's roundoff: over 103 deltas in
# [1e-3, 3.3e-3] it read 0.92 to 2.8 times C_2 |delta|^3, at most 1.2e-11
# above the factor-2 band.  This allows 2.5 times that excess.
EXPANSION_FLOOR = 3e-11
# Tail growth ratio of the normalized corrector chain at h = 0.025 from
# estimate_radius(30, seed=0) on that code; criterion 8 allows 10 % drift.
GROWTH_REF = 1.0472
GROWTH_DRIFT = 0.10
ORACLE_RTOL = 0.01                        # criterion 1 at h <= 0.07
BETA_MARGIN = 1e-4                        # criterion 4

LAYERS = (
    "geometry.build_mesh",
    "auxiliary.solve_auxiliary_set",
    "auxiliary.exterior_system",
    "auxiliary.dopant_system",
    "auxiliary.solve_s",
    "auxiliary.solve_psi_e",
    "auxiliary.solve_psi_d",
    "auxiliary.compute_beta",
    "auxiliary.compute_cstar",
    "auxiliary.compute_mueff",
    "correctors.CorrectorEngine",
    "correctors.build_hierarchy",
    "correctors.step",
    "correctors.enz_solve",
    "correctors.lift",
    "fem.flux_extract",
    "correctors.state_norm",
    "correctors.assemble_expansion",
    "direct.solve_transmission",
    "direct.transmission_system",
    "fem.source_load",
    "fem.solve_cold",
    "fem.solve_warm",
    "direct.compare_fields",
    "oracle.axisym_solution",
)
CLI_SUBCOMMANDS = ("aux", "expand", "direct", "sweep-delta", "oracle-check",
                   "radius", "resonance-sweep", "poynting", "convergence-table")
LAYERS += tuple(f"cli.{s}" for s in CLI_SUBCOMMANDS)
COUNTS = ("geometry.nodes", "geometry.triangles", "geometry.enz_nodes",
          "geometry.interface_nodes", "fem.system_nnz", "correctors.steps",
          "cli.bytes_written")


# ---------------------------------------------------------------------------
# output checks (pure, so the self-test can feed them perturbed results)


def check_expansion(delta: complex, errs) -> str | None:
    """err_J0 > err_J1 > err_J2, each within 2x of C_J |delta|^(J+1).

    The upper bound also admits the direct solve's own error, EXPANSION_FLOOR.
    """
    if not errs[0] > errs[1] > errs[2]:
        return f"errors not decreasing in J: {errs}"
    for j, err in enumerate(errs):
        pred = EXPANSION_C[j] * abs(delta) ** (j + 1)
        if not 0.5 * pred <= err <= 2.0 * pred + EXPANSION_FLOOR:
            return f"err_J{j} = {err:.3e} not within 2x of {pred:.3e}"
    return None


def check_growth(ratios) -> str | None:
    """Tail growth ratio of a normalized chain within 10 % of GROWTH_REF."""
    r = np.asarray(ratios, dtype=float)
    if not (np.isfinite(r).all() and (r > 0).all()):
        return "non-finite or zero state norm"
    tail = float(np.exp(np.mean(np.log(r[len(r) // 2:]))))
    if abs(tail / GROWTH_REF - 1.0) > GROWTH_DRIFT:
        return f"tail growth ratio {tail:.4f} drifts from {GROWTH_REF}"
    return None


def check_aux(k: complex, beta: complex, c_star: complex, mu_eff: complex,
              ref: dict | None) -> str | None:
    """Im(k conj beta) < 0 with margin; oracle agreement when ``ref`` is given."""
    im = (k * np.conj(beta)).imag
    margin = -im / (abs(k) * abs(beta))
    if not (im < 0 and margin >= BETA_MARGIN):
        return f"Im(k conj beta) = {im:.3e}, relative margin {margin:.2e}"
    if ref is not None:
        for key, val in (("beta", beta), ("c_star", c_star), ("mu_eff", mu_eff)):
            gap = abs(val - ref[key]) / abs(ref[key])
            if gap > ORACLE_RTOL:
                return f"{key} off the oracle by {gap:.2e}"
    return None


def check_artifacts(rc: int, digests: dict, earlier: dict | None) -> str | None:
    """Exit code 0 and artifacts byte-identical to the earlier run, if any."""
    if rc != 0:
        return f"exit code {rc}"
    if earlier is not None and digests != earlier:
        changed = sorted(f for f in set(digests) | set(earlier)
                         if digests.get(f) != earlier.get(f))
        return f"artifacts differ from the earlier run: {changed}"
    return None


def _checked(results, check) -> list:
    return [f"{type(r).__name__}: {r}" if isinstance(r, EnzLabError) else check(r)
            for r in results]


# ---------------------------------------------------------------------------
# traced compositions (same calls, same order as the public function)


class _Untraced:
    """Stands in for a Tracer where a composition runs without spans."""

    def span(self, name):
        return contextlib.nullcontext()


_UNTRACED = _Untraced()


def _traced_aux_set(mesh, cfg, tr) -> AuxiliarySet:
    with tr.span("auxiliary.solve_auxiliary_set"):
        with tr.span("auxiliary.exterior_system"):
            ext = auxiliary.exterior_system(mesh, cfg)
        with tr.span("auxiliary.dopant_system"):
            dop = auxiliary.dopant_system(mesh, cfg)
        with tr.span("auxiliary.solve_s"):
            s, flux_s = auxiliary.solve_s(mesh, cfg, system=ext)
        with tr.span("auxiliary.solve_psi_e"):
            psi_e, flux_psi_e = auxiliary.solve_psi_e(mesh, cfg, system=ext)
        with tr.span("auxiliary.solve_psi_d"):
            psi_d, flux_psi_d = auxiliary.solve_psi_d(mesh, cfg, system=dop)
        with tr.span("auxiliary.compute_beta"):
            beta = auxiliary.compute_beta(flux_psi_e, flux_psi_d, mesh, cfg)
        with tr.span("auxiliary.compute_cstar"):
            c_star = auxiliary.compute_cstar(beta, flux_s)
        with tr.span("auxiliary.compute_mueff"):
            mu_eff = auxiliary.compute_mueff(mesh, psi_d, cfg)
        with tr.span("auxiliary.compute_mueff"):
            mu_eff_flux = auxiliary.compute_mueff(mesh, psi_d, cfg, flux_psi_d,
                                                  method="flux")
        if abs(mu_eff - mu_eff_flux) > 1e-8 * max(1.0, abs(mu_eff)):
            raise BetaNearZero("volume and variational-flux permeability disagree")
        return AuxiliarySet(mesh, cfg, s, psi_e, psi_d, flux_s, flux_psi_e,
                            flux_psi_d, beta, c_star, mu_eff,
                            ext_system=ext, dop_system=dop)


def _traced_transmission(mesh, cfg, tr, repeat: bool = True):
    """solve_transmission in parts; ``repeat`` adds one warm re-solve."""
    with tr.span("direct.solve_transmission"):
        with tr.span("direct.transmission_system"):
            system = direct.transmission_system(mesh, cfg)
        with tr.span("fem.source_load"):
            rhs = fem.source_load(mesh, system.regions, cfg.sources)
        bc = {Bnd.GAMMA_INF: 0.0} if int(Region.PML) in system.regions else None
        with tr.span("fem.solve_cold"):
            u = fem.solve(system, rhs, bc, rtol=cfg.rtol)
    if repeat:
        with tr.span("fem.solve_warm"):
            fem.solve(system, rhs, bc, rtol=cfg.rtol)
    return u


def _traced_step(engine, state, tr) -> IterState:
    with tr.span("correctors.step"):
        with tr.span("correctors.enz_solve"):
            phi = engine.enz_solve(state)
        trace_e, trace_d = phi.trace(Bnd.GAMMA_OMEGA), phi.trace(Bnd.GAMMA_D)
        with tr.span("correctors.lift"):
            lam, chi = engine.lift(trace_e, trace_d)
        with tr.span("fem.flux_extract"):
            h_e = fem.flux_extract(lam, engine.ext_system, Bnd.GAMMA_OMEGA,
                                   orientation="canonical")
        with tr.span("fem.flux_extract"):
            h_d = fem.flux_extract(chi, engine.dop_system, Bnd.GAMMA_D,
                                   orientation="canonical")
        return IterState(phi, h_e, h_d)


def _prepare_engine(spec, h, tr):
    with (tr or _UNTRACED).span("geometry.build_mesh"):
        mesh = build_mesh(spec, h)
    if tr is None:
        return mesh, CorrectorEngine(mesh, CFG)
    aux = _traced_aux_set(mesh, CFG, tr)
    with tr.span("correctors.CorrectorEngine"):
        return mesh, CorrectorEngine(mesh, CFG, aux=aux)


def mesh_counts(mesh) -> dict:
    return {
        "geometry.nodes": int(mesh.num_nodes),
        "geometry.triangles": int(mesh.num_triangles),
        "geometry.enz_nodes": int(len(mesh.region_nodes(Region.ENZ))),
        "geometry.interface_nodes": int(len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))
                                        + len(mesh.boundary_nodes(Bnd.GAMMA_D))),
    }


def _rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(np.abs(a).max(), 1e-300))


def _cplx(z: complex) -> list:
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    chunk = 1             # ops per block; a run ends only at a block end
    solution_ops = 1      # ops that make one solution (wall_s)
    min_ops = 1

    def __init__(self, seed: int, h: float | None = None):
        self.rng = np.random.default_rng(seed)
        if h is not None:
            self.h = h

    def prepare(self, tr):
        return {}

    def begin_chunk(self, state, c: int) -> None:
        pass

    def close(self, state) -> None:
        pass

    def inputs(self, n_ops: int) -> dict:
        return {}

    def trace_divergence(self, state) -> float:
        """Relative gap between a traced composition and the public function."""
        return 0.0


class DeltaSweep(Workload):
    """One seeded delta per op: direct solve, expansion J = 0..2, comparison."""

    name = "delta_sweep"
    chunk = 3
    solution_ops = 9
    min_ops = 9
    h = 0.05

    def __init__(self, seed, h=None):
        super().__init__(seed, h)
        self.deltas = []

    def delta(self, i: int) -> complex:
        while len(self.deltas) <= i:       # each block covers the three rays
            rays = self.rng.permutation(len(RAYS))
            mags = 10.0 ** self.rng.uniform(-3.0, -1.0, len(RAYS))
            self.deltas += [RAYS[r] * m for r, m in zip(rays, mags)]
        return self.deltas[i]

    def prepare(self, tr):
        mesh, engine = _prepare_engine(CANONICAL, self.h, tr)
        with (tr or _UNTRACED).span("correctors.build_hierarchy"):
            hier = engine.build_hierarchy(2)
        return {"mesh": mesh, "engine": engine, "hier": hier}

    def op(self, state, i, tr):
        d = self.delta(i)
        mesh, engine, hier = state["mesh"], state["engine"], state["hier"]
        cfg = dataclasses.replace(CFG, delta=d)
        if tr is None:
            u = solve_transmission(mesh, cfg)
        else:
            u = _traced_transmission(mesh, cfg, tr)
        span = (tr or _UNTRACED).span
        errs = []
        for j in (0, 1, 2):
            with span("correctors.assemble_expansion"):
                v = engine.assemble_expansion(hier, d, order=j)
            with span("direct.compare_fields"):
                errs.append(compare_fields(u, v).h1_error)
        state.setdefault("nnz", u.record.system.A.nnz)
        return d, errs

    def check_chunk(self, state, results):
        return _checked(results, lambda r: check_expansion(*r))

    def inputs(self, n_ops):
        return {"h": self.h, "deltas": [_cplx(d) for d in self.deltas[:n_ops]]}

    def counts(self, state):
        return {**mesh_counts(state["mesh"]), "fem.system_nnz": state["nnz"],
                "correctors.steps": 3}

    def trace_divergence(self, state):
        cfg = dataclasses.replace(CFG, delta=self.deltas[0])
        u = solve_transmission(state["mesh"], cfg)
        v = _traced_transmission(state["mesh"], cfg, _UNTRACED, repeat=False)
        return _rel_gap(u.values, v.values)


class CorrectorSeries(Workload):
    """One corrector step per op, in normalized 30-step power chains."""

    name = "corrector_series"
    chunk = 30
    solution_ops = 30
    min_ops = 60
    h = 0.025

    def __init__(self, seed, h=None):
        super().__init__(seed, h)
        self.chain_seeds = []

    def prepare(self, tr):
        mesh, engine = _prepare_engine(CANONICAL, self.h, tr)
        return {"mesh": mesh, "engine": engine}

    def begin_chunk(self, state, c):
        """Seeded mean-zero start, built as estimate_radius builds it."""
        while len(self.chain_seeds) <= c:
            self.chain_seeds.append(int(self.rng.integers(2**31)))
        rng = np.random.default_rng(self.chain_seeds[c])
        mesh, engine = state["mesh"], state["engine"]

        def cplx(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        n = len(engine.neumann.nodes)
        g = ScalarField(mesh, Region.ENZ, cplx(n))
        g = g - ScalarField(mesh, Region.ENZ,
                            np.full(n, np.dot(engine.neumann.m_vec, g.values)
                                    / engine.neumann.area))
        st = IterState(
            g,
            BoundaryFunctional(mesh, Bnd.GAMMA_OMEGA,
                               cplx(len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA)))),
            BoundaryFunctional(mesh, Bnd.GAMMA_D,
                               cplx(len(mesh.boundary_nodes(Bnd.GAMMA_D)))))
        state["chain_start"] = st * (1.0 / engine.state_norm(st))
        state["cur"] = state["chain_start"]

    def op(self, state, i, tr):
        engine = state["engine"]
        if tr is None:
            nxt = engine.step(state["cur"])
            r = engine.state_norm(nxt)
        else:
            nxt = _traced_step(engine, state["cur"], tr)
            with tr.span("correctors.state_norm"):
                r = engine.state_norm(nxt)
        state["cur"] = nxt * (1.0 / r)
        return r

    def check_chunk(self, state, results):
        if any(isinstance(r, EnzLabError) for r in results):
            return _checked(results, lambda r: "chain broken by a failed step")
        reason = check_growth(results)
        return [reason] * len(results)

    def inputs(self, n_ops):
        return {"h": self.h,
                "chain_seeds": self.chain_seeds[:-(-n_ops // self.chunk)]}

    def counts(self, state):
        e = state["engine"]
        return {**mesh_counts(state["mesh"]),
                "fem.system_nnz": e.ext_system.A.nnz + e.dop_system.A.nnz,
                "correctors.steps": self.solution_ops}

    def trace_divergence(self, state):
        engine, st = state["engine"], state["chain_start"]
        a, b = engine.step(st), _traced_step(engine, st, _UNTRACED)
        return max(_rel_gap(a.g.values, b.g.values),
                   _rel_gap(a.h_e.values, b.h_e.values),
                   _rel_gap(a.h_d.values, b.h_d.values))


class AuxRefine(Workload):
    """Fresh mesh and auxiliary set per op over seeded (geometry, h, k)."""

    name = "aux_refine"
    chunk = 9
    solution_ops = 9
    min_ops = 18
    h_range = (0.05, 0.07)
    K_VALUES = tuple(kr + ki for kr in (0.5, 1.0, 2.0) for ki in (0.0, 0.1j, 0.5j))

    def __init__(self, seed, h=None):
        super().__init__(seed)
        if h is not None:
            self.h_range = (h, h)
        self.cases = []

    def case(self, i: int):
        """Block of nine: every k once, one h per stratum of log h."""
        while len(self.cases) <= i:
            ks = self.rng.permutation(len(self.K_VALUES))
            strata = self.rng.permutation(len(ks))
            jitter = self.rng.uniform(size=len(ks))
            geo = self.rng.integers(2, size=len(ks))
            lo, hi = (math.log(v) for v in self.h_range)
            for kk, s, u, g in zip(ks, strata, jitter, geo):
                h = math.exp(lo + (hi - lo) * (s + u) / len(ks))
                self.cases.append(("offcentre" if g else "concentric", h,
                                   self.K_VALUES[kk]))
        return self.cases[i]

    def prepare(self, tr):
        """Oracle scalars for the real wavenumbers, the concentric reference."""
        refs = {}
        for k in self.K_VALUES:
            if k.imag == 0:
                mu = PhysicsConfig.from_k(k).mu
                with (tr or _UNTRACED).span("oracle.axisym_solution"):
                    refs[k] = oracle.axisym_solution(ORACLE_LAYERS, k=k.real, mu=mu).scalars
        return {"refs": refs}

    def op(self, state, i, tr):
        geometry, h, k = self.case(i)
        spec = CANONICAL if geometry == "concentric" else OFF_CENTRE
        cfg = PhysicsConfig.from_k(k, sources=RING)
        with (tr or _UNTRACED).span("geometry.build_mesh"):
            mesh = build_mesh(spec, h)
        if tr is None:
            aux = solve_auxiliary_set(mesh, cfg)
        else:
            aux = _traced_aux_set(mesh, cfg, tr)
        counts = {**mesh_counts(mesh),
                  "fem.system_nnz": aux.ext_system.A.nnz + aux.dop_system.A.nnz}
        ref = state["refs"].get(k) if geometry == "concentric" else None
        return (cfg.k, aux.beta, aux.c_star, aux.mu_eff, ref), counts

    def check_chunk(self, state, results):
        state.setdefault("solution", []).extend(
            r[1] for r in results if not isinstance(r, EnzLabError))
        return _checked(results, lambda r: check_aux(*r[0]))

    def inputs(self, n_ops):
        return {"cases": [(g, h, _cplx(k)) for g, h, k in self.cases[:n_ops]]}

    def counts(self, state):
        sol = state.get("solution", [])[:self.solution_ops]
        total = {key: sum(c[key] for c in sol) for key in sol[0]} if sol else {}
        return {**total, "correctors.steps": 0}

    def trace_divergence(self, state):
        geometry, h, k = self.cases[0]
        mesh = build_mesh(CANONICAL if geometry == "concentric" else OFF_CENTRE, h)
        cfg = PhysicsConfig.from_k(k, sources=RING)
        a = solve_auxiliary_set(mesh, cfg)
        b = _traced_aux_set(mesh, cfg, _UNTRACED)
        return max(abs(a.beta - b.beta) / abs(a.beta),
                   abs(a.mu_eff - b.mu_eff) / abs(a.mu_eff))


_CLI_CONFIG = """[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3
truncation_radius = 4
pml_thickness = 1
h = {h!r}

[physics]
omega = 1
mu = 1,0
delta = 0.01,0
sources = ring 2.3 2.7 1,0

[run]
order = 2
rho_iters = 12
gammas = 0.1 0.001
seed = 0
"""


class CliPipeline(Workload):
    """In-process ``enzlab.cli.main`` cycling the nine subcommands."""

    name = "cli_pipeline"
    chunk = len(CLI_SUBCOMMANDS)
    solution_ops = len(CLI_SUBCOMMANDS)
    min_ops = 2 * len(CLI_SUBCOMMANDS)    # every artifact gets one rerun
    h = 0.05

    def __init__(self, seed, h=None):
        super().__init__(seed, h)

        def seeded_delta():
            d = RAYS[int(self.rng.integers(len(RAYS)))] * 10.0 ** self.rng.uniform(-3.0, -1.0)
            return f"{d.real!r},{d.imag!r}"

        self.delta = seeded_delta()
        self.deltas = " ".join(seeded_delta() for _ in range(2))

    def argv(self, sub: str, cfg_path: Path, out: Path) -> list:
        argv = [sub, str(cfg_path), "--out", str(out)]
        if sub == "expand":
            argv += ["--order", "2", "--delta", self.delta]
        elif sub == "sweep-delta":
            argv += ["--deltas", self.deltas]
        return argv

    def prepare(self, tr):
        work = WORK_DIR / f"run{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cfg_path = work / "canonical.cfg"
        cfg_path.write_text(_CLI_CONFIG.format(h=self.h), encoding="utf-8")
        return {"work": work, "cfg": cfg_path, "digests": {}, "bytes": {}}

    def op(self, state, i, tr):
        sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
        out = state["work"] / f"op{i}"
        argv = self.argv(sub, state["cfg"], out)
        if tr is None:
            rc = cli_main(argv)
        else:
            with tr.span(f"cli.{sub}"):
                rc = cli_main(argv)
        return sub, rc, out

    def check_chunk(self, state, results):
        reasons = []
        for sub, rc, out in results:
            digests = {}
            if out.is_dir():
                for f in sorted(out.iterdir()):
                    if f.suffix in (".csv", ".json") and f.name != "manifest.json":
                        data = f.read_bytes()
                        digests[f.name] = hashlib.sha256(data).hexdigest()
                        state["bytes"].setdefault(sub, {})[f.name] = len(data)
                shutil.rmtree(out)
            reasons.append(check_artifacts(rc, digests, state["digests"].get(sub)))
            if rc == 0:
                state["digests"].setdefault(sub, digests)
        return reasons

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)

    def inputs(self, n_ops):
        return {"h": self.h, "order": list(CLI_SUBCOMMANDS),
                "expand_delta": self.delta, "sweep_deltas": self.deltas}

    def counts(self, state):
        mesh = build_mesh(CANONICAL, self.h)
        nnz = direct.transmission_system(mesh, CFG).A.nnz
        written = sum(n for files in state["bytes"].values() for n in files.values())
        return {**mesh_counts(mesh), "fem.system_nnz": nnz, "correctors.steps": 0,
                "cli.bytes_written": written}


WORKLOADS = {w.name: w for w in (DeltaSweep, CorrectorSeries, AuxRefine, CliPipeline)}
