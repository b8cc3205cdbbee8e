import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from enzlab import auxiliary, direct, fem, oracle
from enzlab.auxiliary import PhysicsConfig, exterior_system, outer_dirichlet
from enzlab.correctors import CorrectorEngine
from enzlab.direct import (PHYSICAL_REGIONS, compare_fields, enz_absorption,
                           solve_transmission, transmission_system)
from enzlab.errors import SingularSystem, ValidationError, ZeroCoefficient
from enzlab.fem import (RadiationSpec, ScalarField, dirichlet_eigs, h1_norm, h1_seminorm,
                        l2_norm)
from enzlab.geometry import (Bnd, Circle, Region, SourceRing, SourceSpec, _as_region_set,
                             build_mesh)
from enzlab.oracle import j0_zero

from conftest import CANONICAL_SPEC, DISK_SOURCE, GENERIC_SPEC, RING_SOURCE


def test_zero_source_zero_field(mesh_coarse, cfg_ring):
    cfg = dataclasses.replace(cfg_ring, sources=SourceSpec())
    u = solve_transmission(mesh_coarse, cfg)
    assert np.abs(u.values).max() == 0.0


def test_delta_zero_rejected(mesh_coarse, cfg_ring):
    cfg = dataclasses.replace(cfg_ring, delta=0.0 + 0.0j)
    with pytest.raises(ValidationError):
        solve_transmission(mesh_coarse, cfg)


def test_delta_is_checked_before_anything_is_factored(monkeypatch, cfg_ring):
    # both errors came only after the exterior was assembled and B factored
    # (1,956 unknowns at h = 0.2)
    factored, factor = [], fem.factor
    monkeypatch.setattr(fem, "factor", lambda A: factored.append(A.shape[0]) or factor(A))
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    for delta, error in ((0.0, ValidationError), (1e308 + 1e308j, ZeroCoefficient)):
        with pytest.raises(error):
            solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
    assert factored == []


def test_uniform_delta_matches_oracle(mesh_fine, cfg_ring):
    # delta = 1 removes the contrast: the scatterer is invisible
    cfg = dataclasses.replace(cfg_ring, delta=1.0 + 0.0j)
    u = solve_transmission(mesh_fine, cfg)
    layers = oracle.RadialLayers(a=0.3, b=1.0, c=4.0, source_r1=2.3,
                                 source_r2=2.7, amplitude=1.0)
    sol = oracle.axisym_solution(layers, k=1.0)
    r = np.linalg.norm(mesh_fine.nodes[u.nodes], axis=1)
    phys = r <= 3.0
    exact = sol(r[phys])
    rel = np.linalg.norm(u.values[phys] - exact) / np.linalg.norm(exact)
    assert rel < 0.01


def test_enz_contrast_matches_oracle(mesh_fine, cfg_ring):
    u = solve_transmission(mesh_fine, cfg_ring)   # delta = 1e-2
    layers = oracle.RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=1e-2,
                                 source_r1=2.3, source_r2=2.7, amplitude=1.0)
    sol = oracle.axisym_solution(layers, k=1.0)
    r = np.linalg.norm(mesh_fine.nodes[u.nodes], axis=1)
    phys = r <= 3.0
    exact = sol(r[phys])
    rel = np.linalg.norm(u.values[phys] - exact) / np.linalg.norm(exact)
    assert rel < 0.01


def test_enz_field_near_constant(mesh_coarse, cfg_ring):
    # H1-deviation of the shell field from its mean shrinks linearly in delta
    devs = []
    deltas = (1e-1, 1e-2, 1e-3)
    for d in deltas:
        u = solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=d))
        enz_nodes = mesh_coarse.region_nodes(Region.ENZ)
        vals = u.to_full()[enz_nodes]
        dev = ScalarField(mesh_coarse, Region.ENZ, vals - vals.mean())
        from enzlab.fem import h1_norm
        devs.append(h1_norm(dev) / np.abs(vals.mean()))
    slope = np.polyfit(np.log10(deltas), np.log10(devs), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_identical_fields_compare_to_zero(mesh_coarse, cfg_ring):
    u = solve_transmission(mesh_coarse, cfg_ring)
    c = compare_fields(u, u)
    assert c.h1_error == 0.0 and c.l2_error == 0.0


def test_loss_and_gain_absorption_signs(mesh_coarse, cfg_ring):
    for sgn in (+1.0, -1.0):
        cfg = dataclasses.replace(cfg_ring, delta=1e-2 * (1 + 0.3j * sgn))
        u = solve_transmission(mesh_coarse, cfg)
        power = enz_absorption(u, cfg)
        assert math.copysign(1.0, power) == sgn


def test_compare_fields_equals_separate_norms(mesh_coarse, cfg_ring):
    u = solve_transmission(mesh_coarse, cfg_ring)
    v = solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=2e-2 + 1e-3j))
    disk = Circle((0.4, -0.2), 1.5)
    for window, norm_window in ((None, PHYSICAL_REGIONS), (disk, disk)):
        c = compare_fields(u, v, window=window)
        diff = u - v
        assert (c.h1_error, c.l2_error) == (h1_norm(diff, norm_window), l2_norm(diff, norm_window))


def _single_pass_system(mesh, cfg):
    """The transmission operator assembled in one pass, 1/delta on ENZ."""
    k = cfg.k
    regs = {int(Region.DOPANT), int(Region.ENZ)} | set(exterior_system(mesh, cfg).regions)
    diffusion = {Region(r): 1.0 + 0.0j for r in regs}
    diffusion[Region.ENZ] = 1.0 / complex(cfg.delta)
    reaction = {Region(r): k * k for r in regs}
    return fem.assemble(mesh, regs, diffusion, reaction, radiation=cfg.radiation, k=k)


def test_affine_operator_matches_single_pass_assembly():
    # A_1 + (1/delta - 1) K_ENZ on every ray, with a collar and with Robin
    worst = 0.0
    for spec in (CANONICAL_SPEC, GENERIC_SPEC):
        for thickness in (spec.pml_thickness, 0.0):
            mesh = build_mesh(dataclasses.replace(spec, pml_thickness=thickness), 0.1)
            for ray in (1.0, 1.0j, -1.0j):
                for mag in (1e-3, 1e-2, 1e-1):
                    cfg = PhysicsConfig(mu=1.0 + 0.1j, delta=ray * mag, sources=RING_SOURCE)
                    system = transmission_system(mesh, cfg)
                    ref = _single_pass_system(mesh, cfg)
                    assert system.regions == ref.regions
                    assert np.array_equal(system.nodes, ref.nodes)
                    assert np.array_equal(system.A.indptr, ref.A.indptr)
                    assert np.array_equal(system.A.indices, ref.A.indices)
                    gap = np.abs(system.A.data - ref.A.data).max() / np.abs(ref.A.data).max()
                    worst = max(worst, gap)
    assert worst <= 1e-15   # 5.2e-16 seen


def test_second_delta_reuses_operator_and_load(monkeypatch, cfg_ring):
    integrate = fem._integrate_sources
    counts = {"assemble": 0, "load": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(direct, "assemble", counted("assemble", direct.assemble))
    monkeypatch.setattr(fem, "_integrate_sources", counted("load", integrate))
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    cfg = cfg_ring
    steps = [({}, (1, 1)),
             ({"delta": 3e-3 + 1e-3j}, (1, 1)),                        # reused
             ({"mu": 1.5 + 0.0j}, (2, 1)),                             # new k
             ({"radiation": RadiationSpec(stretch_order=3)}, (3, 1)),  # new radiation
             ({"sources": SourceSpec((SourceRing(2.2, 2.6, 1.0),))}, (3, 2))]
    for change, expected in steps:
        cfg = dataclasses.replace(cfg, **change)
        u = solve_transmission(mesh, cfg)
        assert (counts["assemble"], counts["load"]) == expected
        # what the memo returned is the operator and load of this cfg
        system, ref = u.record.system, _single_pass_system(mesh, cfg)
        gap = np.abs(system.A - ref.A).max() / np.abs(ref.A.data).max()
        assert gap <= 1e-15
        assert np.array_equal(u.record.rhs, integrate(mesh, system.regions, cfg.sources))


def test_memo_dies_with_its_mesh(cfg_ring):
    # reference counting alone must free the mesh: a cached value that
    # referred to its mesh would form a cycle only the collector breaks
    gc.disable()
    try:
        mesh = build_mesh(CANONICAL_SPEC, 0.2)
        engine = CorrectorEngine(mesh, cfg_ring)
        hier = engine.build_hierarchy(2)
        u = solve_transmission(mesh, cfg_ring)
        v = solve_transmission(mesh, dataclasses.replace(cfg_ring, sources=DISK_SOURCE))
        compare_fields(u, v)
        engine.state_norm(engine.seed_state())
        assert {"exterior", "dopant", "transmission operator", "condensed load",
                ("neumann", frozenset({int(Region.ENZ)})),
                ("load", exterior_system(mesh, cfg_ring).regions),
                ("norm forms", u.regions, PHYSICAL_REGIONS),
                ("norm forms", frozenset({int(Region.ENZ)}), None)} <= set(mesh._memo)
        ref = weakref.ref(mesh)
        del mesh, engine, hier, u, v
        assert ref() is None
    finally:
        gc.enable()


def _monolithic_solve(mesh, cfg):
    """The reference: the assembled transmission system, factored whole."""
    system = transmission_system(mesh, cfg)
    bc = {Bnd.GAMMA_INF: 0.0} if int(Region.PML) in system.regions else None
    return fem.solve(system, fem.source_load(mesh, system.regions, cfg.sources), bc)


def _condensed_gaps(mesh, cfgs):
    """Gaps to the reference along ``cfgs``, the first solved as a first call."""
    for name in ("transmission operator", "condensed load"):
        mesh._memo.pop(name, None)
    gaps = []
    for cfg in cfgs:
        ref = _monolithic_solve(mesh, cfg).values
        u = solve_transmission(mesh, cfg)
        gaps.append(np.abs(u.values - ref).max() / np.abs(ref).max())
    return gaps


def test_condensed_solve_matches_monolithic_solve():
    # on each ray the first delta builds the condensation and the interface-last
    # LU, and every delta solves on that LU
    worst = 0.0
    for spec in (CANONICAL_SPEC, GENERIC_SPEC):
        for thickness in (spec.pml_thickness, 0.0):
            mesh = build_mesh(dataclasses.replace(spec, pml_thickness=thickness), 0.1)
            for ray in (1.0, 1.0j, -1.0j):
                cfgs = [PhysicsConfig(delta=ray * mag, sources=RING_SOURCE)
                        for mag in (1e-3, 1e-2, 1e-1)]
                worst = max(worst, *_condensed_gaps(mesh, cfgs))
    assert worst <= 1e-10   # 5.0e-12 seen


def test_condensed_solve_at_a_dopant_resonance(mesh_coarse):
    # k^2 at the dopant's first discrete Dirichlet eigenvalue: the dopant is
    # not condensed, so only the exterior's Dirichlet block must be regular
    lam = dirichlet_eigs(mesh_coarse, 1, target=(j0_zero(1) / 0.3) ** 2)[0][0]
    cfgs = [PhysicsConfig(mu=complex(lam), delta=delta, sources=RING_SOURCE)
            for delta in (1e-2, 1e-3j)]
    assert max(_condensed_gaps(mesh_coarse, cfgs)) <= 1e-10   # 2.8e-14 seen


def test_condensed_solve_is_certified_on_the_global_system(cfg_ring):
    # a condensed load off by 1e-4 solves Omega's system to roundoff, but
    # the glued field fails the transmission system's backward-error bound
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    solve_transmission(mesh, cfg_ring)
    key, z = mesh._memo["condensed load"]
    mesh._memo["condensed load"] = (key, z * (1.0 + 1e-4))   # backward error 2.2e-9 seen
    with pytest.raises(SingularSystem):
        solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=3e-3))


def test_engine_and_direct_solves_share_the_exterior(monkeypatch, cfg_ring):
    factored = []
    factor = fem.factor

    def counted(A, *args, **kwargs):
        factored.append(A.shape[0])
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(fem, "factor", counted)
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    CorrectorEngine(mesh, cfg_ring)
    for delta in (1e-2, 3e-3 + 1e-3j, -0.05j):
        solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
    ext = auxiliary.exterior_system(mesh, cfg_ring)
    n_free = len(fem.split_nodes(mesh, ext.regions, [Bnd.GAMMA_INF, Bnd.GAMMA_OMEGA])[0])
    n_gamma = len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))
    n_omega = len(mesh.region_nodes([Region.DOPANT, Region.ENZ]))
    system = transmission_system(mesh, cfg_ring)
    n_global = len(system.dirichlet_block([Bnd.GAMMA_INF]).rows)
    sizes = {"exterior Dirichlet block": n_free, "interface-last exterior": n_free + n_gamma,
             "Omega": n_omega, "transmission block": n_global}
    assert len(set(sizes.values())) == len(sizes)
    counts = {name: factored.count(n) for name, n in sizes.items()}
    # the engine factors the Dirichlet block, which the first direct solve
    # releases; every delta then solves on the one interface-last LU
    assert counts == {"exterior Dirichlet block": 1, "interface-last exterior": 1,
                      "Omega": 3, "transmission block": 0}
    assert len(system.nodes) not in factored


def test_direct_sweep_factors_the_exterior_once(monkeypatch, cfg_ring):
    factored = []
    factor = fem.factor

    def counted(A):
        factored.append(A.shape[0])
        return factor(A)

    monkeypatch.setattr(fem, "factor", counted)
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    for delta in (1e-2, 3e-3 + 1e-3j, -0.05j):
        solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
    ext = auxiliary.exterior_system(mesh, cfg_ring)
    n_free = len(fem.split_nodes(mesh, ext.regions, [Bnd.GAMMA_INF, Bnd.GAMMA_OMEGA])[0])
    n_gamma = len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))
    assert factored.count(n_free + n_gamma) == 1   # the interface-last exterior
    assert n_free not in factored                  # no exterior Dirichlet block
    (block,) = ext._blocks.values()
    assert block is auxiliary._held_schur(ext)     # B is the system's one LU


def _trimmed_run(cfg, events):
    """The auxiliary fields and two direct solves on a fresh mesh, and the events of each."""
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    aux = auxiliary.solve_auxiliary_set(mesh, cfg)
    stages = [events[:]]
    fields = [aux.s, aux.psi_e, aux.psi_d]
    for delta in (1e-2, 3e-3 + 1e-3j):
        events.clear()
        fields.append(solve_transmission(mesh, dataclasses.replace(cfg, delta=delta)))
        stages.append(events[:])
    events.clear()
    return fields, stages


def test_heap_is_trimmed_before_each_large_factorization(monkeypatch, cfg_ring):
    events = []
    factor, trim = fem.factor, fem.trim_heap
    monkeypatch.setattr(fem, "factor", lambda A: events.append("factor") or factor(A))
    monkeypatch.setattr(fem, "trim_heap", lambda: events.append("trim") or trim())
    fields, stages = _trimmed_run(cfg_ring, events)
    # the auxiliary set: a trim right before each Dirichlet-block LU (exterior,
    # dopant); the first delta: one before the interface-last exterior LU, none
    # before Omega's; the second delta: Omega's LU only
    assert stages == [["trim", "factor", "trim", "factor"], ["trim", "factor", "factor"],
                      ["factor"]]
    # without malloc_trim the helper does nothing, and nothing else changes
    monkeypatch.setattr(fem, "_LIBC", object())
    trim()
    untrimmed, _ = _trimmed_run(cfg_ring, events)
    for u, v in zip(fields, untrimmed):
        assert np.array_equal(u.values, v.values)


def test_engine_steps_the_same_after_a_direct_solve(monkeypatch, cfg_ring):
    # the direct solve puts B in the place of the exterior's Dirichlet block;
    # the engine's next step solves on B, factors nothing, and moves at roundoff
    mesh = build_mesh(CANONICAL_SPEC, 0.1)
    engine = CorrectorEngine(mesh, cfg_ring)
    seed = engine.seed_state()
    before = engine.step(seed)
    (block,) = engine.ext_system._blocks.values()
    assert isinstance(block, fem.DirichletBlock)
    block_ref = weakref.ref(block)   # the block is the LU's one holder
    del block
    solve_transmission(mesh, cfg_ring)
    factored = []
    factor = fem.factor
    monkeypatch.setattr(fem, "factor", lambda A: factored.append(A.shape[0]) or factor(A))
    after = engine.step(seed)
    assert factored == []
    gc.collect()
    (held,) = engine.ext_system._blocks.values()
    assert block_ref() is None and held is auxiliary._held_schur(engine.ext_system)
    for a, b in zip((before.g, before.h_e, before.h_d), (after.g, after.h_e, after.h_d)):
        assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(a.values).max()


@pytest.mark.parametrize("thickness", [1.0, 0.0])
def test_exterior_schur_complement_maps_a_trace_to_its_flux(cfg_ring, thickness):
    # S_e t is the exterior flux on Gamma_Omega of the Dirichlet field of trace t
    mesh = build_mesh(dataclasses.replace(CANONICAL_SPEC, pml_thickness=thickness), 0.1)
    ext = auxiliary.exterior_system(mesh, cfg_ring)
    rng = np.random.default_rng(0)
    t = rng.standard_normal(len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))) + 1j
    lam = auxiliary.solve_exterior(ext, cfg_ring, np.zeros(len(ext.nodes), dtype=complex), t)
    (block,) = ext._blocks.values()
    assert block is ext.held_block(auxiliary._exterior_dirichlet(ext.regions))   # not B
    h_e = fem.flux_extract(lam, ext, Bnd.GAMMA_OMEGA, orientation="canonical").values
    S_e = auxiliary.exterior_schur(ext).schur
    flux = fem.curve_sign(ext.regions, Bnd.GAMMA_OMEGA) * (S_e @ t)
    assert np.abs(flux - h_e).max() <= 1e-12 * np.abs(h_e).max()


def test_each_node_order_is_built_once_and_shared(monkeypatch, cfg_ring):
    built, factored = [], []
    dissect, factor = fem._nested_dissection, fem.factor

    def counted(xy, *edges):
        built.append(len(xy))
        return dissect(xy, *edges)

    def counted_factor(A):
        factored.append(A.shape[0])
        return factor(A)

    monkeypatch.setattr(fem, "_nested_dissection", counted)
    monkeypatch.setattr(fem, "factor", counted_factor)
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    CorrectorEngine(mesh, cfg_ring).build_hierarchy(1)
    for delta in (1e-2, 3e-3 + 1e-3j, -0.05j):
        solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
    ext = auxiliary.exterior_system(mesh, cfg_ring)
    block = ext.dirichlet_block({Bnd.GAMMA_OMEGA: 0.0, **outer_dirichlet(ext.regions)})
    n_omega = len(mesh.region_nodes(direct.OMEGA_REGIONS))
    sizes = {"exterior free": len(block.rows),
             "Omega less Gamma_Omega": n_omega - len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA)),
             "dopant free": len(fem.split_nodes(mesh, Region.DOPANT, [Bnd.GAMMA_D])[0]),
             "ENZ": len(mesh.region_nodes(Region.ENZ))}
    assert len(set(sizes.values())) == len(sizes)
    assert sorted(built) == sorted(sizes.values())
    # the interface-last exterior leads with the Dirichlet block's order
    keep = fem.split_nodes(mesh, ext.regions, [Bnd.GAMMA_INF])[0]
    last = fem.node_order(mesh, ext.regions, [Bnd.GAMMA_INF], [Bnd.GAMMA_OMEGA])
    assert np.array_equal(keep[last[:len(block.rows)]], block.order)
    # a second k on the same mesh orders nothing and factors everything anew
    # but the k-independent ENZ Neumann system
    cfg_k = dataclasses.replace(cfg_ring, mu=1.7 + 0.0j)
    n_factored = len(factored)
    CorrectorEngine(mesh, cfg_k).build_hierarchy(1)
    solve_transmission(mesh, cfg_k)
    assert len(factored) == 2 * n_factored - 3   # all but Neumann and the second and third Omega
    assert len(built) == len(sizes)


def test_engine_and_direct_solves_assemble_and_load_the_exterior_once(monkeypatch, cfg_ring):
    calls = {"exterior elements": 0, "load": 0}
    region_elements, integrate = fem._region_elements, fem._integrate_sources

    def elements(mesh, regions):
        calls["exterior elements"] += int(Region.EXTERIOR) in _as_region_set(regions)
        return region_elements(mesh, regions)

    def load(*args):
        calls["load"] += 1
        return integrate(*args)

    monkeypatch.setattr(fem, "_region_elements", elements)
    monkeypatch.setattr(fem, "_integrate_sources", load)
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    CorrectorEngine(mesh, cfg_ring)
    for delta in (1e-2, 3e-3 + 1e-3j, -0.05j):
        solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=delta))
    assert calls == {"exterior elements": 1, "load": 1}


def test_condensed_operator_is_omega_plus_exterior_schur_complement(mesh_coarse, cfg_ring):
    solve_transmission(mesh_coarse, cfg_ring)
    C_1 = direct._affine_operator(mesh_coarse, cfg_ring).C_1
    k = cfg_ring.k
    A_om = fem.assemble(mesh_coarse, direct.OMEGA_REGIONS, {Region.DOPANT: 1.0, Region.ENZ: 1.0},
                        {Region.DOPANT: k * k, Region.ENZ: k * k}).A
    D = (C_1 - A_om).toarray()
    gamma = fem._local_boundary(mesh_coarse, direct.OMEGA_REGIONS, Bnd.GAMMA_OMEGA)
    off = np.ones(D.shape, dtype=bool)
    off[np.ix_(gamma, gamma)] = False
    assert not D[off].any()
    # S_e by column solves on the exterior system, as in tests/test_fem.py
    ext = auxiliary.exterior_system(mesh_coarse, cfg_ring)
    free = fem.split_nodes(mesh_coarse, ext.regions, [Bnd.GAMMA_INF, Bnd.GAMMA_OMEGA])[0]
    g = ext.local_boundary(Bnd.GAMMA_OMEGA)
    X = spla.splu(ext.A[np.ix_(free, free)].tocsc()).solve(ext.A[np.ix_(free, g)].toarray())
    S_e = ext.A[np.ix_(g, g)].toarray() - ext.A[np.ix_(g, free)] @ X
    assert np.abs(D[np.ix_(gamma, gamma)] - S_e).max() <= 1e-13 * np.abs(S_e).max()


def test_a_field_scaled_past_overflow_has_no_norm(mesh_coarse, cfg_ring):
    # the squares of its norms overflow: they raise rather than return inf or nan
    u = solve_transmission(mesh_coarse, cfg_ring)
    big = u * 1e200
    with pytest.raises(ValidationError, match="squared norm is not finite"):
        compare_fields(big, u)
    for norm in (h1_norm, h1_seminorm, l2_norm):
        with pytest.raises(ValidationError):
            norm(big, PHYSICAL_REGIONS)
    assert math.isfinite(compare_fields(u * 1e150, u).h1_error)


def test_alternating_norm_windows_build_each_form_once(monkeypatch, mesh_coarse, cfg_ring):
    u = solve_transmission(mesh_coarse, cfg_ring)
    v = solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=2e-2 + 1e-3j))
    first = (compare_fields(u, v), enz_absorption(u, cfg_ring))
    scatter, builds = fem._scatter, []

    def counted(*args):
        builds.append(args[2])
        return scatter(*args)

    monkeypatch.setattr(fem, "_scatter", counted)
    assert (compare_fields(u, v), enz_absorption(u, cfg_ring)) == first
    assert builds == []
