import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from enzlab import auxiliary, oracle
from enzlab.auxiliary import (PhysicsConfig, compute_beta, compute_cstar,
                              compute_mueff, exterior_system, rellich_residual,
                              solve_auxiliary_set, solve_psi_d, solve_psi_e,
                              solve_s)
from enzlab.errors import ResonantDopant
from enzlab.fem import l2_norm
from enzlab.geometry import (Bnd, Circle, DomainSpec, Region, SourceRing,
                             SourceSpec, build_mesh)

from conftest import CANONICAL_SPEC, DISK_SOURCE, GENERIC_SPEC, RING_SOURCE


def _oracle_scalars(delta=1e-2, k=1.0):
    layers = oracle.RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=delta,
                                 source_r1=2.3, source_r2=2.7, amplitude=1.0)
    return oracle.axisym_solution(layers, k=k).scalars


def test_branch_of_wavenumber():
    assert PhysicsConfig(omega=2.0, mu=1.0).k == pytest.approx(2.0)
    k = PhysicsConfig(omega=1.0, mu=-4.0).k          # mu < 0: arg k = pi/2
    assert k == pytest.approx(2j)
    k = PhysicsConfig(omega=1.0, mu=-1 - 0.01j).k    # arg in (pi/2, pi)
    assert k.imag > 0 and k.real < 0


@pytest.mark.parametrize("kwargs", [
    dict(omega=1e200),                      # omega**2 overflows
    dict(omega=1e-200),                     # omega**2 underflows to 0
    dict(omega=0.0), dict(omega=-1.0), dict(omega=math.inf), dict(omega=math.nan),
    dict(omega=1e154, mu=1e308 + 0j),       # k^2 overflows
    dict(mu=0j), dict(mu=complex(math.nan, 1.0)),
])
def test_unusable_frequency_or_wavenumber_raises(kwargs):
    with pytest.raises(ValueError):
        PhysicsConfig(**kwargs)


@pytest.mark.parametrize("k, omega", [
    (1.0, 0.0), (1.0, 1e-200), (1.0, 1e200),   # ZeroDivisionError or OverflowError before
    (1e200, 1.0), (0.0, 1.0), (-1.0, 1.0), (1 - 1j, 1.0),
])
def test_from_k_checks_omega_and_k(k, omega):
    with pytest.raises(ValueError):
        PhysicsConfig.from_k(k, omega=omega)


@pytest.mark.parametrize("k", [1 + 0j, complex(1.0, -0.0), 0.5 + 0.1j, 2j])
def test_from_k_forms_mu_as_k_k_over_omega_squared(k):
    for kwargs, omega in (({}, 1.0), ({"omega": 0.5}, 0.5)):
        cfg = PhysicsConfig.from_k(k, **kwargs)
        assert repr(cfg.mu) == repr(k * k / omega**2)   # the sign of a zero part too
        assert cfg.omega == omega and cfg.k == pytest.approx(k)


def test_trivial_source_gives_zero_s(mesh_coarse):
    cfg = PhysicsConfig(sources=SourceSpec())
    s, flux = solve_s(mesh_coarse, cfg)
    assert np.abs(s.values).max() == 0.0
    assert flux.total() == 0.0


def test_source_superposition(mesh_coarse):
    cfg_p = PhysicsConfig(sources=RING_SOURCE)
    cfg_m = PhysicsConfig(sources=SourceSpec((SourceRing(2.3, 2.7, -1.0),)))
    system = exterior_system(mesh_coarse, cfg_p)
    s_p, _ = solve_s(mesh_coarse, cfg_p, system=system)
    s_m, _ = solve_s(mesh_coarse, cfg_m, system=system)
    assert np.abs(s_p.values + s_m.values).max() < 1e-12 * np.abs(s_p.values).max()


def test_s_matches_oracle(mesh_fine, cfg_ring):
    s, flux = solve_s(mesh_fine, cfg_ring)
    layers = oracle.RadialLayers(a=0.3, b=1.0, c=4.0, source_r1=2.3,
                                 source_r2=2.7, amplitude=1.0)
    sol = oracle.axisym_solution(layers, k=1.0)
    r = np.linalg.norm(mesh_fine.nodes[s.nodes], axis=1)
    phys = (r >= 1.0 + 1e-9) & (r <= 3.0)   # collar values are damped artifacts
    exact = sol.source_field(r[phys])
    rel = np.linalg.norm(s.values[phys] - exact) / np.linalg.norm(exact)
    assert rel < 0.01
    assert abs(flux.total() - sol.scalars["flux_s"]) / abs(sol.scalars["flux_s"]) < 0.01


def test_psi_e_matches_hankel_closed_form(mesh_fine, cfg_ring):
    psi_e, flux = solve_psi_e(mesh_fine, cfg_ring)
    k = 1.0
    exact_flux = -2 * math.pi * k * complex(oracle.bessel("H1_1", k)) / complex(oracle.bessel("H1_0", k))
    assert abs(flux.total() - exact_flux) / abs(exact_flux) < 0.01
    # pointwise profile in the physical exterior
    r = np.linalg.norm(mesh_fine.nodes[psi_e.nodes], axis=1)
    sel = (r > 1.0 + 1e-9) & (r < 3.0)
    exact = np.array([complex(oracle.bessel("H1_0", k * rr)) for rr in r[sel]])
    exact /= complex(oracle.bessel("H1_0", k))
    rel = np.linalg.norm(psi_e.values[sel] - exact) / np.linalg.norm(exact)
    assert rel < 0.01


def test_psi_e_rellich_sign(mesh_coarse, cfg_ring):
    _, flux = solve_psi_e(mesh_coarse, cfg_ring)
    k = cfg_ring.k
    assert (k * np.conj(flux.total())).imag < 0


def test_truncation_doubling_changes_psi_e_little(cfg_ring):
    vals = {}
    for r_t in (4.0, 8.0):
        spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 0.3),
                          truncation_radius=r_t, pml_thickness=1.0)
        mesh = build_mesh(spec, 0.1)
        psi_e, _ = solve_psi_e(mesh, cfg_ring)
        full = psi_e.to_full()
        r = np.linalg.norm(mesh.nodes, axis=1)
        ring = np.where((r > 1.05) & (r < 1.3))[0]
        order = np.lexsort((mesh.nodes[ring, 1], mesh.nodes[ring, 0]))
        vals[r_t] = (mesh.nodes[ring[order]], full[ring[order]])
    # meshes differ; interpolate the r_t=8 solution onto the r_t=4 sample points
    from scipy.interpolate import griddata
    p4, v4 = vals[4.0]
    p8, v8 = vals[8.0]
    v8_on_4 = griddata(p8, v8, p4, method="linear")
    ok = np.isfinite(v8_on_4)
    rel = np.linalg.norm(v8_on_4[ok] - v4[ok]) / np.linalg.norm(v4[ok])
    assert rel < 0.005


def test_psi_d_matches_bessel(mesh_fine, cfg_ring):
    psi_d, flux = solve_psi_d(mesh_fine, cfg_ring)
    k, a = 1.0, 0.3
    j0a = oracle.bessel("J0", k * a)
    center = np.argmin(np.linalg.norm(mesh_fine.nodes[psi_d.nodes], axis=1))
    assert abs(psi_d.values[center] - 1.0 / j0a) < 2e-3   # O(h^2) at h = 0.05
    # polygonal-boundary area deficit dominates: O(h^2) with constant ~1
    exact_int = 2 * math.pi * a * oracle.bessel("J1", k * a) / (k * j0a)
    from enzlab.fem import integrate
    assert abs(integrate(psi_d) - exact_int) < 5e-3 * abs(exact_int)
    # flux identity: total = -k^2 int psi_d, exact discretely
    assert abs(flux.total() + k * k * integrate(psi_d)) < 1e-10


def test_psi_d_real_for_real_k(mesh_coarse, cfg_ring):
    psi_d, _ = solve_psi_d(mesh_coarse, cfg_ring)
    assert np.abs(psi_d.values.imag).max() <= 1e-8 * np.abs(psi_d.values).max()


def test_resonant_dopant_guard(mesh_coarse):
    k_res = oracle.j0_zero(1) / 0.3
    cfg = PhysicsConfig.from_k(k_res + 0j, sources=RING_SOURCE)
    # at the continuum eigenvalue the discrete pencil is close enough to
    # singular for the guard at this mesh resolution
    lam = None
    from enzlab.fem import dirichlet_eigs
    lam = dirichlet_eigs(mesh_coarse, 1, target=k_res**2)[0][0]
    cfg = PhysicsConfig.from_k(math.sqrt(lam) + 0j, sources=RING_SOURCE)
    with pytest.raises(ResonantDopant):
        solve_psi_d(mesh_coarse, cfg)


def _singular_ratio_by_splu(A_ff, iters=12):
    """``_smallest_singular_ratio`` on SuperLU's default LU of ``A_ff`` as it stands."""
    lu = spla.splu(A_ff)
    x = np.ones(A_ff.shape[0], dtype=complex) / math.sqrt(A_ff.shape[0])
    for _ in range(iters):
        w = lu.solve(lu.solve(x, trans="H"))
        lam = float(np.linalg.norm(w))
        x = w / lam
    return 1.0 / math.sqrt(lam) / spla.norm(A_ff, 1)


@pytest.mark.parametrize("spec", [CANONICAL_SPEC, GENERIC_SPEC], ids=["canonical", "offcentre"])
def test_singular_ratio_is_taken_in_the_blocks_own_numbering(spec, cfg_ring):
    # the block's LU is of A_ff in its node order; the inverse iteration
    # must still run on A_ff itself (at most 5e-16 relative seen)
    mesh = build_mesh(spec, 0.1)
    systems = [(auxiliary.dopant_system(mesh, cfg_ring), [Bnd.GAMMA_D]),
               (exterior_system(mesh, cfg_ring), [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF])]
    for system, tags in systems:
        got = auxiliary._smallest_singular_ratio(system, tags)
        free = system.dirichlet_block(tags).rows
        ref = _singular_ratio_by_splu(system.A[np.ix_(free, free)].tocsc())
        assert abs(got - ref) <= 1e-8 * ref


def test_beta_source_independent(mesh_coarse):
    auxs = []
    for src in (RING_SOURCE, DISK_SOURCE):
        cfg = PhysicsConfig(sources=src)
        aux = solve_auxiliary_set(mesh_coarse, cfg)
        auxs.append(aux)
    # bit identical: the solves never see the source
    assert auxs[0].beta == auxs[1].beta
    assert np.array_equal(auxs[0].psi_e.values, auxs[1].psi_e.values)
    assert np.array_equal(auxs[0].psi_d.values, auxs[1].psi_d.values)
    assert auxs[0].mu_eff == auxs[1].mu_eff
    assert auxs[0].c_star != auxs[1].c_star


def test_beta_sign_certificate_grid(mesh_coarse):
    for k_re in (0.5, 1.0, 2.0):
        for k_im in (0.0, 0.1, 0.5):
            cfg = PhysicsConfig.from_k(k_re + 1j * k_im, sources=RING_SOURCE)
            aux = solve_auxiliary_set(mesh_coarse, cfg)
            margin = 1e-4 * abs(cfg.k) * abs(aux.beta)
            assert aux.im_k_beta_conj < -margin


def test_beta_matches_oracle(mesh_fine, cfg_ring):
    aux = solve_auxiliary_set(mesh_fine, cfg_ring)
    ref = _oracle_scalars()
    assert abs(aux.beta - ref["beta"]) / abs(ref["beta"]) < 0.01
    assert abs(aux.c_star - ref["c_star"]) / abs(ref["c_star"]) < 0.01
    assert abs(aux.mu_eff - ref["mu_eff"]) / abs(ref["mu_eff"]) < 0.01


def test_cstar_linearity(mesh_coarse):
    alpha = 2.0 - 3.0j
    cfg1 = PhysicsConfig(sources=RING_SOURCE)
    cfg2 = PhysicsConfig(sources=SourceSpec((SourceRing(2.3, 2.7, alpha),)))
    a1 = solve_auxiliary_set(mesh_coarse, cfg1)
    a2 = solve_auxiliary_set(mesh_coarse, cfg2)
    assert abs(a2.c_star - alpha * a1.c_star) < 1e-10 * abs(a1.c_star)
    # zero source
    a0 = solve_auxiliary_set(mesh_coarse, PhysicsConfig(sources=SourceSpec()))
    assert a0.c_star == 0.0


def test_mueff_small_k_limit(mesh_coarse):
    cfg = PhysicsConfig.from_k(1e-3 + 0j, sources=RING_SOURCE)
    psi_d, _ = solve_psi_d(mesh_coarse, cfg)
    mu_eff = compute_mueff(mesh_coarse, psi_d, cfg)
    assert abs(mu_eff - cfg.mu) / abs(cfg.mu) < 1e-4


def test_mueff_two_formulas(mesh_coarse, aux_coarse, cfg_ring):
    # variational flux route is identical by construction
    mf = compute_mueff(mesh_coarse, aux_coarse.psi_d, cfg_ring,
                       aux_coarse.flux_psi_d, method="flux")
    assert abs(mf - aux_coarse.mu_eff) < 1e-10 * abs(aux_coarse.mu_eff)
    # recovered-gradient route measures the discretization honestly
    mg = compute_mueff(mesh_coarse, aux_coarse.psi_d, cfg_ring,
                       method="flux_recovered")
    assert abs(mg - aux_coarse.mu_eff) / abs(aux_coarse.mu_eff) < 5e-3


def test_rellich_residual_small_and_decreasing(cfg_ring, mesh_coarse, mesh_fine):
    resids = []
    for mesh in (mesh_coarse, mesh_fine):
        psi_e, flux = solve_psi_e(mesh, cfg_ring)
        lhs = abs(-2.0 * (cfg_ring.k * np.vdot(flux.values,
                                               psi_e.trace(Bnd.GAMMA_OMEGA))).imag)
        resids.append(rellich_residual(mesh, cfg_ring, psi_e, flux) / lhs)
    assert resids[-1] <= 0.02
    assert resids[-1] < resids[0]


def test_mesh_without_collar_radiates_by_default():
    # the default radiation spec on a collar-less mesh once solved a closed
    # cavity: beta = 0.6466 + 0i, Im(k conj beta) = 0, Rellich residual 6.65
    mesh = build_mesh(dataclasses.replace(CANONICAL_SPEC, pml_thickness=0.0), 0.2)
    cfg = PhysicsConfig(sources=RING_SOURCE)
    aux = solve_auxiliary_set(mesh, cfg)
    assert aux.im_k_beta_conj < 0   # -6.70
    assert rellich_residual(mesh, cfg, aux.psi_e, aux.flux_psi_e) < 1   # 0.30


def test_rellich_zero_field(mesh_coarse):
    cfg = PhysicsConfig(sources=SourceSpec())
    s, flux = solve_s(mesh_coarse, cfg)
    assert rellich_residual(mesh_coarse, cfg, s, flux) == 0.0
