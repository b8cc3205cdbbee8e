import dataclasses
import math

import numpy as np
import pytest

from enzlab import fem
from enzlab.auxiliary import PhysicsConfig
from enzlab.correctors import CorrectorEngine, IterState, flux_average
from enzlab.direct import PHYSICAL_REGIONS, compare_fields, solve_transmission
from enzlab.errors import DivergentSeries
from enzlab.fem import BoundaryFunctional, ScalarField, h1_norm, l2_norm
from enzlab.geometry import Bnd, Region, SourceSpec, build_mesh

from conftest import CANONICAL_SPEC, GENERIC_SPEC


@pytest.fixture(scope="module")
def engine_generic(cfg_ring):
    """Off-centre dopant at h = 0.1; the dense spectrum of its map gives rho 1.3864."""
    return CorrectorEngine(build_mesh(GENERIC_SPEC, 0.1), cfg_ring)


def test_flux_average_zero_and_linearity(mesh_coarse, aux_coarse):
    z_e = BoundaryFunctional.zeros(mesh_coarse, Bnd.GAMMA_OMEGA)
    z_d = BoundaryFunctional.zeros(mesh_coarse, Bnd.GAMMA_D)
    assert flux_average(z_e, z_d, aux_coarse.beta) == 0.0
    rng = np.random.default_rng(3)
    h_e = BoundaryFunctional(mesh_coarse, Bnd.GAMMA_OMEGA,
                             rng.standard_normal(len(z_e.values)) + 0j)
    h_d = BoundaryFunctional(mesh_coarse, Bnd.GAMMA_D,
                             rng.standard_normal(len(z_d.values)) + 0j)
    alpha = 1.7 - 0.4j
    lhs = flux_average(alpha * h_e, alpha * h_d, aux_coarse.beta)
    rhs = alpha * flux_average(h_e, h_d, aux_coarse.beta)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_average_of_source_flux_is_cstar(aux_coarse, mesh_coarse):
    z_d = BoundaryFunctional.zeros(mesh_coarse, Bnd.GAMMA_D)
    val = flux_average(aux_coarse.flux_s, z_d, aux_coarse.beta)
    assert abs(val - aux_coarse.c_star) <= 1e-14 * abs(aux_coarse.c_star)


def test_enz_solve_zero_state(engine_coarse):
    phi = engine_coarse.enz_solve(engine_coarse.zero_state())
    assert np.abs(phi.values).max() == 0.0


def test_enz_solve_seed_matches_leading_corrector(engine_coarse, hier8):
    # the seed state produces the first corrector by definition
    phi0 = engine_coarse.enz_solve(engine_coarse.seed_state())
    assert np.abs(phi0.values - hier8.phi[0].values).max() < 1e-14


def test_enz_solve_compatible_for_random_states(engine_coarse, mesh_coarse):
    # the balance shift makes arbitrary states compatible by construction
    rng = np.random.default_rng(7)
    ns = engine_coarse.neumann
    for _ in range(3):
        g_vals = rng.standard_normal(len(ns.nodes)) + 1j * rng.standard_normal(len(ns.nodes))
        g_vals -= np.dot(ns.m_vec, g_vals) / ns.area
        st = IterState(ScalarField(mesh_coarse, Region.ENZ, g_vals),
                       BoundaryFunctional(mesh_coarse, Bnd.GAMMA_OMEGA,
                                          rng.standard_normal(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_OMEGA))) + 0j),
                       BoundaryFunctional(mesh_coarse, Bnd.GAMMA_D,
                                          rng.standard_normal(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_D))) + 0j))
        phi = engine_coarse.enz_solve(st)   # would raise INCOMPATIBLE_DATA otherwise
        mean = abs(np.dot(ns.m_vec, phi.values)) / ns.area
        assert mean <= 1e-10 * max(1.0, float(np.abs(phi.values).max()))


def test_lift_of_unit_traces_reproduces_auxiliary_fields(engine_coarse, aux_coarse, mesh_coarse):
    ones_e = np.ones(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_OMEGA)), dtype=complex)
    ones_d = np.ones(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_D)), dtype=complex)
    lam, chi = engine_coarse.lift(ones_e, ones_d)
    assert np.abs(lam.values - aux_coarse.psi_e.values).max() < 1e-12
    assert np.abs(chi.values - aux_coarse.psi_d.values).max() < 1e-12


def test_lift_zero_traces(engine_coarse, mesh_coarse):
    z_e = np.zeros(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_OMEGA)), dtype=complex)
    z_d = np.zeros(len(mesh_coarse.boundary_nodes(Bnd.GAMMA_D)), dtype=complex)
    lam, chi = engine_coarse.lift(z_e, z_d)
    assert np.abs(lam.values).max() == 0.0
    assert np.abs(chi.values).max() == 0.0


def test_step_zero_and_homogeneity(engine_coarse):
    out = engine_coarse.step(engine_coarse.zero_state())
    assert engine_coarse.state_norm(out) == 0.0
    alpha = 0.3 + 2.2j
    seed = engine_coarse.seed_state()
    a = engine_coarse.step(alpha * seed)
    b = alpha * engine_coarse.step(seed)
    diff = engine_coarse.state_norm(a - b)
    assert diff <= 1e-10 * engine_coarse.state_norm(b)


def test_iterates_match_hierarchy(engine_coarse, hier8):
    # applying the map j+1 times to the seed lands on the j-th correctors
    cur = engine_coarse.seed_state()
    for j in range(3):
        cur = engine_coarse.step(cur)
        assert np.abs(cur.g.values - hier8.phi[j].values).max() < 1e-13
        assert np.abs(cur.h_e.values - hier8.flux_lam[j].values).max() < 1e-13
        assert np.abs(cur.h_d.values - hier8.flux_chi[j].values).max() < 1e-13


def test_trivial_source_gives_zero_hierarchy(mesh_coarse):
    from enzlab.auxiliary import PhysicsConfig
    from enzlab.geometry import SourceSpec
    cfg = PhysicsConfig(sources=SourceSpec())
    eng = CorrectorEngine(mesh_coarse, cfg)
    hier = eng.build_hierarchy(2)
    assert np.abs(hier.e).max() == 0.0
    for j in range(3):
        assert np.abs(hier.phi[j].values).max() == 0.0


def test_growth_stabilizes_near_radius(engine_coarse, hier8):
    rho = engine_coarse.estimate_radius(iters=25)
    ratios = hier8.growth_ratios()
    assert (ratios[4:] <= 1.2 * rho).all()


def test_radius_estimator_is_seed_stable(engine_coarse):
    r1 = engine_coarse.estimate_radius(iters=25, seed=0)
    r2 = engine_coarse.estimate_radius(iters=25, seed=12345)
    assert r1 >= 0 and r2 >= 0
    assert abs(r1 - r2) / r1 < 0.05


def test_radius_validates_iters(engine_coarse):
    with pytest.raises(ValueError):
        engine_coarse.estimate_radius(iters=5)


def test_series_convergence_boundary(engine_coarse, hier8):
    rho = engine_coarse.estimate_radius(iters=25)
    norms = np.asarray(hier8.state_norms)
    for fac, should_converge in ((0.5, True), (2.0, False)):
        d = fac / rho
        tail = (norms[1:] * d ** np.arange(1, len(norms))) / \
               (norms[:-1] * d ** np.arange(len(norms) - 1))
        tail_ratio = float(np.exp(np.mean(np.log(tail[-3:]))))
        if should_converge:
            assert tail_ratio < 1.0
            assert abs(tail_ratio - d * rho) < 0.35 * d * rho
        else:
            assert tail_ratio > 1.0


def test_expansion_order_zero_is_limit_profile(engine_coarse, hier8, aux_coarse, mesh_coarse):
    v0 = engine_coarse.assemble_expansion(hier8, 0.0, order=0)
    full = v0.to_full()
    enz = mesh_coarse.region_nodes(Region.ENZ)
    assert np.abs(full[enz] - aux_coarse.c_star).max() == 0.0
    ext = np.setdiff1d(mesh_coarse.region_nodes([Region.EXTERIOR, Region.PML]),
                       mesh_coarse.boundary_nodes(Bnd.GAMMA_OMEGA))
    expect = (aux_coarse.c_star * aux_coarse.psi_e.to_full()
              + aux_coarse.s.to_full())[ext]
    assert np.abs(full[ext] - expect).max() == 0.0
    dop = np.setdiff1d(mesh_coarse.region_nodes(Region.DOPANT),
                       mesh_coarse.boundary_nodes(Bnd.GAMMA_D))
    assert np.abs(full[dop] - aux_coarse.c_star * aux_coarse.psi_d.to_full()[dop]).max() == 0.0


def test_expansion_interface_single_valued(engine_coarse, hier8, aux_coarse, mesh_coarse):
    delta = 0.01 + 0.003j
    v = engine_coarse.assemble_expansion(hier8, delta, order=3)
    full = v.to_full()
    c_d = hier8.c_delta(delta, 2)
    # scatterer interface: exterior formula evaluates to the ENZ formula bit-for-bit
    om = mesh_coarse.boundary_nodes(Bnd.GAMMA_OMEGA)
    lam_sum = sum((delta ** j) * hier8.lam[j].to_full() for j in range(3))
    ext_side = (c_d * aux_coarse.psi_e.to_full() + aux_coarse.s.to_full()
                + delta * lam_sum)[om]
    assert np.array_equal(full[om], ext_side)
    dpn = mesh_coarse.boundary_nodes(Bnd.GAMMA_D)
    chi_sum = sum((delta ** j) * hier8.chi[j].to_full() for j in range(3))
    dop_side = (c_d * aux_coarse.psi_d.to_full() + delta * chi_sum)[dpn]
    assert np.array_equal(full[dpn], dop_side)


def test_expansion_order_one_matches_hand_built(engine_coarse, hier8, aux_coarse, mesh_coarse):
    delta = 0.01
    v = engine_coarse.assemble_expansion(hier8, delta, order=1)
    c_d = aux_coarse.c_star + delta * hier8.e[0]
    full_hand = np.zeros(mesh_coarse.num_nodes, dtype=complex)
    ext = mesh_coarse.region_nodes([Region.EXTERIOR, Region.PML])
    full_hand[ext] = (c_d * aux_coarse.psi_e.to_full()
                      + aux_coarse.s.to_full()
                      + delta * hier8.lam[0].to_full())[ext]
    enz = mesh_coarse.region_nodes(Region.ENZ)
    full_hand[enz] = c_d + delta * hier8.phi[0].to_full()[enz]
    dop = mesh_coarse.region_nodes(Region.DOPANT)
    full_hand[dop] = (c_d * aux_coarse.psi_d.to_full()
                      + delta * hier8.chi[0].to_full())[dop]
    assert np.abs(v.to_full() - full_hand).max() <= 1e-12 * np.abs(full_hand).max()


def test_full_sum_requires_convergence(engine_coarse, hier8):
    rho = engine_coarse.estimate_radius(iters=25)
    with pytest.raises(DivergentSeries):
        engine_coarse.assemble_expansion(hier8, 1.5 / rho, order=None)


def test_full_sum_guard_rejects_divergent_generic_sum(engine_generic):
    # |delta| rho = 1.32: the J = 8 sum lies 30 % (relative H1) from the
    # direct solve
    hier = engine_generic.build_hierarchy(8)
    with pytest.raises(DivergentSeries):
        engine_generic.assemble_expansion(hier, -0.95, order=None)


@pytest.mark.parametrize("mesh_label", ["canonical", "generic"])
def test_certified_full_sums_match_direct_solve(mesh_label, engine_coarse, engine_generic,
                                                cfg_ring):
    # every full sum the resolvent certificate lets through is the direct
    # solve; inside half the radius the J = 40 sums must get through
    engine = engine_coarse if mesh_label == "canonical" else engine_generic
    rho = engine.estimate_radius(iters=30)
    hiers = {J: engine.build_hierarchy(J) for J in (8, 40)}
    for delta, converges_by_40 in ((-0.95, False), (-0.8, False), (0.3 / rho, True),
                                   (0.5 / rho, True), (0.9 / rho, False), (-0.3, True)):
        u = solve_transmission(engine.mesh, dataclasses.replace(cfg_ring, delta=delta))
        for J, hier in hiers.items():
            try:
                v = engine.assemble_expansion(hier, delta, order=None)
            except DivergentSeries:
                assert not (J == 40 and converges_by_40), f"delta {delta:.4f}"
                continue
            rel = compare_fields(u, v).h1_error / h1_norm(u, PHYSICAL_REGIONS & u.regions)
            assert rel <= 1e-8, f"J {J}, delta {delta:.4f}"


def test_full_sum_of_trivial_source_is_zero(mesh_coarse):
    eng = CorrectorEngine(mesh_coarse, PhysicsConfig(sources=SourceSpec()))
    hier = eng.build_hierarchy(2)
    assert eng.resolvent_residual(hier, 0.5) == 0.0
    assert np.abs(eng.assemble_expansion(hier, 0.5, order=None).values).max() == 0.0


def test_neumann_series_recovery_and_resolvent(engine_coarse, hier8, cfg_ring, mesh_coarse):
    rho = engine_coarse.estimate_radius(iters=25)
    delta = 0.3 / rho
    cfgd = dataclasses.replace(cfg_ring, delta=delta)
    u = solve_transmission(mesh_coarse, cfgd)
    hier = engine_coarse.build_hierarchy(40)
    v = engine_coarse.assemble_expansion(hier, delta, order=None)
    assert compare_fields(u, v).h1_error / h1_norm(u, PHYSICAL_REGIONS & u.regions) <= 1e-6
    assert engine_coarse.resolvent_residual(hier, delta) <= 1e-8


def test_self_consistency_slopes(engine_coarse, hier8, cfg_ring, mesh_coarse):
    # coarse-mesh version of the expansion-order test; the acceptance suite
    # repeats it on the canonical resolution with rotated delta as well
    deltas = 10.0 ** (-np.arange(1.0, 3.1, 0.4))
    errs = {J: [] for J in (0, 1, 2)}
    for d in deltas:
        u = solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=d))
        for J in errs:
            v = engine_coarse.assemble_expansion(hier8, d, order=J)
            errs[J].append(compare_fields(u, v).h1_error)
    for J, expect in ((0, 1.0), (1, 2.0), (2, 3.0)):
        slope = np.polyfit(np.log10(deltas), np.log10(errs[J]), 1)[0]
        assert abs(slope - expect) < (0.2 if J < 2 else 0.3)


def test_corrector_bound_surrogate(engine_coarse, hier8):
    # norm(phi_j) <= K rho^j with K fitted at j=0, within 20 percent
    rho = engine_coarse.estimate_radius(iters=25)
    phi_norms = np.array([h1_norm(p) for p in hier8.phi])
    K = phi_norms[0]
    bound = 1.2 * K * rho ** np.arange(len(phi_norms))
    assert (phi_norms <= bound).all()


def test_engines_at_two_k_step_in_turn_on_their_own_exterior_lus(monkeypatch, cfg_ring):
    # each engine's exterior system holds its one LU, so taking turns refactors nothing
    mesh = build_mesh(CANONICAL_SPEC, 0.1)
    engines = [CorrectorEngine(mesh, dataclasses.replace(cfg_ring, mu=mu)) for mu in (1.0, 1.7)]
    states = [e.step(e.seed_state()) for e in engines]
    factored = []
    factor = fem.factor
    monkeypatch.setattr(fem, "factor", lambda A: factored.append(A.shape[0]) or factor(A))
    for _ in range(3):
        states = [e.step(s) for e, s in zip(engines, states)]
    assert factored == []
    (block_1,), (block_2,) = (e.ext_system._blocks.values() for e in engines)
    assert isinstance(block_1, fem.DirichletBlock) and block_1.ff.lu is not block_2.ff.lu
