"""Acceptance suite: one test per criterion, each printing a PASS line.

Canonical configuration: unit-disk scatterer, dopant disk of radius 0.3
(concentric for oracle runs, center (0.3, 0) radius 0.2 for generic runs),
ring source on [2.3, 2.7] for oracle-comparable runs and a disk source at
(2.5, 0) radius 0.2 for generic runs, truncation radius 4, collar thickness
1, mesh size 0.05, real unit wavenumber unless stated.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from enzlab.auxiliary import (PhysicsConfig, compute_mueff, solve_auxiliary_set)
from enzlab.cli import main as cli_main
from enzlab.correctors import CorrectorEngine
from enzlab.direct import PHYSICAL_REGIONS, compare_fields, solve_transmission
from enzlab.fem import (ScalarField, dirichlet_eigs, h1_norm, l2_norm,
                        mass_matrix, solve, assemble)
from enzlab.fields import compute_poynting, ideal_fluid_residuals, poynting_limit
from enzlab.geometry import (Bnd, Circle, DomainSpec, Region, SourceSpec,
                             build_mesh, structured_rectangle_mesh)
from enzlab.oracle import RadialLayers, axisym_solution, j0_zero
from enzlab.resonance import gamma_sweep

from conftest import CANONICAL_SPEC, GENERIC_SPEC, RING_SOURCE, DISK_SOURCE

_SUITE_T0 = time.perf_counter()
_BUDGET_S = 1800.0


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


@pytest.fixture(scope="module")
def mesh_finest():
    return build_mesh(CANONICAL_SPEC, 0.025)


@pytest.fixture(scope="module")
def aux_fine(mesh_fine, cfg_ring):
    return solve_auxiliary_set(mesh_fine, cfg_ring)


@pytest.fixture(scope="module")
def engine_fine(mesh_fine, cfg_ring, aux_fine):
    return CorrectorEngine(mesh_fine, cfg_ring, aux=aux_fine)


@pytest.fixture(scope="module")
def hier_fine(engine_fine):
    return engine_fine.build_hierarchy(8)


def _oracle_ref(delta):
    layers = RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=delta,
                          source_r1=2.3, source_r2=2.7, amplitude=1.0)
    return axisym_solution(layers, k=1.0)


def test_criterion_1_oracle_agreement(mesh_fine, mesh_finest, cfg_ring, aux_fine):
    delta = 1e-2
    ref = _oracle_ref(delta)
    gaps = {}
    for label, mesh, aux in (("h", mesh_fine, aux_fine),
                             ("h/2", mesh_finest, None)):
        t0 = time.process_time()
        if aux is None:
            aux = solve_auxiliary_set(mesh, cfg_ring)
        u = solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
        solve_time = time.process_time() - t0
        assert solve_time <= 60.0, f"solve exceeded budget: {solve_time:.1f}s"
        r = np.linalg.norm(mesh.nodes[u.nodes], axis=1)
        phys = r <= 3.0
        exact = ref(r[phys])
        gaps[label] = {
            "beta": abs(aux.beta - ref.scalars["beta"]) / abs(ref.scalars["beta"]),
            "c_star": abs(aux.c_star - ref.scalars["c_star"]) / abs(ref.scalars["c_star"]),
            "mu_eff": abs(aux.mu_eff - ref.scalars["mu_eff"]) / abs(ref.scalars["mu_eff"]),
            "field": (np.linalg.norm(u.values[phys] - exact)
                      / np.linalg.norm(exact)),
        }
    for key, val in gaps["h"].items():
        assert val < 0.01, f"{key} gap {val:.2e} exceeds 1 percent"
    ratios = {k: gaps["h"][k] / gaps["h/2"][k] for k in gaps["h"]}
    for key, ratio in ratios.items():
        assert ratio >= 3.0, f"{key} gap only improved {ratio:.2f}x on halving"
    _report(1, "oracle gaps at h=0.05: "
            + ", ".join(f"{k}={v:.2e}" for k, v in gaps["h"].items())
            + "; halving ratios: "
            + ", ".join(f"{k}={v:.1f}" for k, v in ratios.items()))


def test_criterion_2_expansion_slopes(mesh_fine, cfg_ring, engine_fine, hier_fine):
    deltas = 10.0 ** (-np.arange(1.0, 3.01, 0.2))
    slopes = {}
    for rot_label, rot in (("real", 1.0), ("loss", 1j), ("gain", -1j)):
        errs = {0: [], 1: [], 2: []}
        for d in deltas:
            delta = complex(rot) * d
            u = solve_transmission(mesh_fine,
                                   dataclasses.replace(cfg_ring, delta=delta))
            for j in errs:
                v = engine_fine.assemble_expansion(hier_fine, delta, order=j)
                errs[j].append(compare_fields(u, v).h1_error)
        for j in errs:
            slopes[(rot_label, j)] = float(
                np.polyfit(np.log10(deltas), np.log10(errs[j]), 1)[0])
    for (rot_label, j), slope in slopes.items():
        tol = 0.3 if j == 2 else 0.2
        assert abs(slope - (j + 1)) < tol, \
            f"{rot_label} J={j}: slope {slope:.3f} outside {j + 1}+/-{tol}"
    _report(2, "H1 error slopes (real/loss/gain): "
            + "; ".join(f"J={j}: " + ",".join(
                f"{slopes[(r, j)]:.2f}" for r in ("real", "loss", "gain"))
                for j in (0, 1, 2)))


def test_criterion_3_neumann_recovery(mesh_fine, cfg_ring, engine_fine):
    rho = engine_fine.estimate_radius(iters=30)
    delta = 0.3 / rho
    hier = engine_fine.build_hierarchy(40)
    u = solve_transmission(mesh_fine, dataclasses.replace(cfg_ring, delta=delta))
    v = engine_fine.assemble_expansion(hier, delta, order=None)
    rel = compare_fields(u, v).h1_error / h1_norm(u, PHYSICAL_REGIONS & u.regions)
    assert rel <= 1e-6
    resolvent = engine_fine.resolvent_residual(hier, delta)
    assert resolvent <= 1e-8
    _report(3, f"J=40 recovery rel H1 = {rel:.2e}; "
               f"resolvent defect = {resolvent:.2e} at |delta|*rho = 0.3")


# The relative H1 gaps measured for orders 0, 1 and 2 at h = 0.05, R = 0.5 and
# N = 64 were 8.8e-14, 3.9e-13 and 2.4e-12: the direct solves' roundoff over
# R^j.  Each bound is ten times its gap.
_CAUCHY_BOUNDS = (8.8e-13, 3.9e-12, 2.4e-11)


def test_direct_solves_taylor_coefficients_are_the_hierarchys(mesh_fine, cfg_ring,
                                                               engine_fine, hier_fine):
    # the paper's central claim on one mesh, with no fit: the order-j Taylor
    # coefficient of delta -> u(delta), by the trapezoid rule on |delta| = R
    # (Cauchy's formula), is the hierarchy's order-j field
    R, N = 0.5, 64
    deltas = R * np.exp(2j * np.pi * (np.arange(N) + 0.5) / N)
    coeffs = 0.0
    for delta in deltas:
        u = solve_transmission(mesh_fine, dataclasses.replace(cfg_ring, delta=delta))
        coeffs = coeffs + np.outer(delta ** -np.arange(len(_CAUCHY_BOUNDS)), u.values) / N
    gaps, prev = [], None
    for j, bound in enumerate(_CAUCHY_BOUNDS):
        total = engine_fine.assemble_expansion(hier_fine, 1.0, order=j)
        v = total if prev is None else total - prev
        prev = total
        gap = (compare_fields(ScalarField(mesh_fine, u.regions, coeffs[j]), v).h1_error
               / h1_norm(v, PHYSICAL_REGIONS & v.regions))
        assert gap <= bound, f"order {j}: relative H1 gap {gap:.2e} above {bound:.1e}"
        gaps.append(gap)
    print("PASS Taylor coefficients of the direct solve (R = 0.5, N = 64) equal the "
          "hierarchy's: relative H1 gaps " + ", ".join(f"{g:.1e}" for g in gaps)
          + " at orders 0, 1, 2")


def test_criterion_4_beta_sign_certificate(mesh_fine):
    generic_mesh = build_mesh(GENERIC_SPEC, 0.05)
    worst = math.inf
    for mesh, label in ((mesh_fine, "concentric"), (generic_mesh, "generic")):
        for k_re in (0.5, 1.0, 2.0):
            for k_im in (0.0, 0.1, 0.5):
                cfg = PhysicsConfig.from_k(k_re + 1j * k_im, sources=RING_SOURCE)
                aux = solve_auxiliary_set(mesh, cfg)
                margin = -aux.im_k_beta_conj / (abs(cfg.k) * abs(aux.beta))
                assert aux.im_k_beta_conj < 0, f"{label} k={cfg.k}: wrong sign"
                assert margin >= 1e-4, f"{label} k={cfg.k}: margin {margin:.2e}"
                worst = min(worst, margin)
    _report(4, f"Im(k conj(beta)) < 0 on all 18 (geometry, k) cases; "
               f"smallest relative margin {worst:.2e}")


def test_criterion_5_mueff_equivalence(mesh_coarse, mesh_fine, cfg_ring,
                                       aux_coarse, aux_fine):
    gaps = []
    for aux, mesh in ((aux_coarse, mesh_coarse), (aux_fine, mesh_fine)):
        flux_val = compute_mueff(mesh, aux.psi_d, cfg_ring, method="flux_recovered")
        gaps.append(abs(flux_val - aux.mu_eff) / abs(aux.mu_eff))
    assert gaps[1] <= 5e-3
    rate = math.log2(gaps[0] / gaps[1])
    assert 1.4 <= rate <= 2.8, f"refinement rate {rate:.2f} not ~2"
    # the variational route agrees to solver precision by construction
    var_val = compute_mueff(mesh_fine, aux_fine.psi_d, cfg_ring,
                            aux_fine.flux_psi_d, method="flux")
    assert abs(var_val - aux_fine.mu_eff) <= 1e-10 * abs(aux_fine.mu_eff)
    _report(5, f"volume vs recovered-flux gap {gaps[1]:.2e} at h=0.05, "
               f"rate {rate:.2f}; variational identity at solver precision")


def test_criterion_6_poynting_limit(mesh_fine, cfg_ring, engine_fine, hier_fine):
    s_lim = poynting_limit(hier_fine.phi[0], engine_fine.aux.c_star, cfg_ring)
    res = ideal_fluid_residuals(s_lim, engine_fine.aux, cfg_ring)
    for key, val in res.items():
        assert val <= 1e-8, f"{key} = {val:.2e}"
    from enzlab.fields import poynting_gap
    deltas = 10.0 ** (-np.arange(1.0, 3.01, 0.5))
    gaps = []
    for d in deltas:
        cfg_d = dataclasses.replace(cfg_ring, delta=d)
        u = solve_transmission(mesh_fine, cfg_d)
        gaps.append(poynting_gap(compute_poynting(u, cfg_d), s_lim))
    slope = float(np.polyfit(np.log10(deltas), np.log10(gaps), 1)[0])
    assert slope >= 0.8
    _report(6, f"Poynting limit slope {slope:.2f}; weak residuals "
            + ", ".join(f"{k}={v:.1e}" for k, v in res.items()))


def test_criterion_7_resonance_scalings(mesh_fine, cfg_ring):
    target = (j0_zero(1) / 0.3) ** 2
    gammas_re = 10.0 ** (-np.arange(1.0, 3.01, 0.25))
    gammas_im = -1j * gammas_re      # k^2 = lambda* + i|gamma|
    summaries = []
    for label, gammas in (("real", gammas_re), ("lossy", gammas_im)):
        study = gamma_sweep(mesh_fine, cfg_ring, target, gammas)
        ga = np.abs(study.gammas)
        cs = np.array([abs(r.c_star) for r in study.records])
        mu = np.array([abs(r.mu_eff) for r in study.records])
        pg = np.array([r.phi_gap for r in study.records])
        s_c = float(np.polyfit(np.log10(ga), np.log10(cs), 1)[0])
        s_m = float(np.polyfit(np.log10(ga), np.log10(mu), 1)[0])
        s_p = float(np.polyfit(np.log10(ga), np.log10(pg), 1)[0])
        assert abs(s_c - 1.0) < 0.1, f"{label}: c* slope {s_c:.3f}"
        assert abs(s_m + 1.0) < 0.1, f"{label}: mu_eff slope {s_m:.3f}"
        assert s_p >= 0.8, f"{label}: phi gap slope {s_p:.3f}"
        cbar_gap = (abs(study.c_bar_extrapolated - study.c_bar)
                    / abs(study.c_bar))
        assert cbar_gap <= 0.02
        summaries.append(f"{label}: c*~{s_c:+.2f}, mueff~{s_m:+.2f}, "
                         f"phi~{s_p:+.2f}, Cbar gap {cbar_gap:.1e}")
    _report(7, "; ".join(summaries))


def test_criterion_8_radius_stability(mesh_fine, mesh_finest, cfg_ring,
                                      engine_fine, hier_fine):
    rho_1 = engine_fine.estimate_radius(iters=30)
    engine_2 = CorrectorEngine(mesh_finest, cfg_ring)
    rho_2 = engine_2.estimate_radius(iters=30)
    drift = abs(rho_1 - rho_2) / rho_1
    assert drift <= 0.10, f"rho drift {drift:.3f} between h=0.05 and h=0.025"
    # the observed convergence/divergence boundary brackets 1/rho
    norms = np.asarray(hier_fine.state_norms)

    def tail_ratio(delta):
        ratios = norms[1:] / norms[:-1] * abs(delta)
        return float(np.exp(np.mean(np.log(ratios[-3:]))))

    lo, hi = 1.0 / (1.5 * rho_1), 1.5 / rho_1
    assert tail_ratio(lo) < 1.0 < tail_ratio(hi)
    _report(8, f"rho_hat {rho_1:.4f} (h=0.05) vs {rho_2:.4f} (h=0.025), "
               f"drift {100 * drift:.1f} percent; divergence onset inside "
               f"[{lo:.3f}, {hi:.3f}]")


def test_criterion_9_fem_verification(mesh_finest):
    # patch test
    mesh = structured_rectangle_mesh(9, 7)
    sys_ = assemble(mesh, Region.EXTERIOR, {Region.EXTERIOR: 1.0},
                    {Region.EXTERIOR: 0.0})
    xb = mesh.nodes[mesh.boundary_nodes(Bnd.GAMMA_OMEGA), 0]
    u = solve(sys_, np.zeros(len(sys_.nodes)), {Bnd.GAMMA_OMEGA: xb})
    patch_err = float(np.abs(u.values - mesh.nodes[u.nodes, 0]).max())
    assert patch_err <= 1e-12
    # manufactured-solution L2 rate
    errs = []
    for n in (16, 32, 64):
        rect = structured_rectangle_mesh(n, n)
        sysr = assemble(rect, Region.EXTERIOR, {Region.EXTERIOR: 1.0},
                        {Region.EXTERIOR: 0.0})
        exact = np.sin(rect.nodes[:, 0]) * np.sin(rect.nodes[:, 1])
        b = (mass_matrix(rect, Region.EXTERIOR) @ (2.0 * exact).astype(complex))[sysr.nodes]
        uh = solve(sysr, b, {Bnd.GAMMA_OMEGA: exact[rect.boundary_nodes(Bnd.GAMMA_OMEGA)]})
        import enzlab.fem as fem
        vals, gx, gy, area = fem._tri_values_and_grads(uh, np.ones(rect.num_triangles, bool))
        cen = rect.tri_centroids
        u_c = np.sin(cen[:, 0]) * np.sin(cen[:, 1])
        errs.append(math.sqrt(float((np.abs(vals.mean(axis=1) - u_c) ** 2) @ area)))
    l2_rate = float(np.mean([math.log2(errs[i] / errs[i + 1]) for i in range(2)]))
    assert abs(l2_rate - 2.0) <= 0.15
    # dopant eigenvalue at h = 0.025
    exact = (j0_zero(1) / 0.3) ** 2
    lam = dirichlet_eigs(mesh_finest, 1, target=exact)[0][0]
    eig_rel = abs(lam - exact) / exact
    assert eig_rel <= 1e-3
    _report(9, f"patch error {patch_err:.1e}; L2 rate {l2_rate:.2f}; "
               f"eigenvalue relative error {eig_rel:.2e} at h=0.025")


def test_criterion_10_determinism(tmp_path):
    cfg_text = """
[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3
truncation_radius = 4
pml_thickness = 1
h = 0.2

[physics]
omega = 1
mu = 1,0
delta = 0.01,0
sources = ring 2.3 2.7 1,0

[run]
order = 2
rho_iters = 12
seed = 0
"""
    cfg_path = tmp_path / "canonical.cfg"
    cfg_path.write_text(cfg_text)
    artifacts = ("aux.csv", "expand_field.csv", "expand_summary.json",
                 "sweep_delta.csv", "radius.json")
    payload = {}
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert cli_main(["aux", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["expand", str(cfg_path), "--out", str(out),
                         "--order", "2", "--delta", "0.01,0"]) == 0
        assert cli_main(["sweep-delta", str(cfg_path), "--out", str(out),
                         "--deltas", "0.1,0 0.01,0"]) == 0
        assert cli_main(["radius", str(cfg_path), "--out", str(out)]) == 0
        payload[run_dir] = {f: (out / f).read_bytes() for f in artifacts}
    for f in artifacts:
        assert payload["a"][f] == payload["b"][f], f"{f} differs between reruns"
    elapsed = time.perf_counter() - _SUITE_T0
    assert elapsed <= _BUDGET_S, f"suite exceeded 30-minute budget: {elapsed:.0f}s"
    _report(10, f"byte-identical CLI reruns; suite wall time so far {elapsed:.0f}s")
