import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from enzlab import direct, fem, oracle
from enzlab.auxiliary import PhysicsConfig, exterior_regions
from enzlab.direct import (PHYSICAL_REGIONS, compare_fields, enz_absorption,
                           solve_transmission, transmission_system)
from enzlab.errors import ValidationError
from enzlab.fem import RadiationSpec, ScalarField, h1_norm, h1_seminorm, l2_norm
from enzlab.geometry import Region, SourceRing, SourceSpec, build_mesh

from conftest import CANONICAL_SPEC, GENERIC_SPEC, RING_SOURCE


def test_zero_source_zero_field(mesh_coarse, cfg_ring):
    cfg = dataclasses.replace(cfg_ring, sources=SourceSpec())
    u = solve_transmission(mesh_coarse, cfg)
    assert np.abs(u.values).max() == 0.0


def test_delta_zero_rejected(mesh_coarse, cfg_ring):
    cfg = dataclasses.replace(cfg_ring, delta=0.0 + 0.0j)
    with pytest.raises(ValidationError):
        solve_transmission(mesh_coarse, cfg)


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
    disk = (0.4, -0.2, 1.5)
    for window, norm_window in ((None, PHYSICAL_REGIONS), (disk, disk)):
        c = compare_fields(u, v, window=window)
        diff = u - v
        assert (c.h1_error, c.l2_error) == (h1_norm(diff, norm_window), l2_norm(diff, norm_window))
        assert c.h1_rel == c.h1_error / h1_norm(u, norm_window)
        assert c.l2_rel == c.l2_error / l2_norm(u, norm_window)


def _single_pass_system(mesh, cfg):
    """The transmission operator assembled in one pass, 1/delta on ENZ."""
    k = cfg.k
    regs = {int(Region.DOPANT), int(Region.ENZ)} | set(exterior_regions(mesh, cfg))
    diffusion = {Region(r): 1.0 + 0.0j for r in regs}
    diffusion[Region.ENZ] = 1.0 / complex(cfg.delta)
    reaction = {Region(r): k * k for r in regs}
    return fem.assemble(mesh, regs, diffusion, reaction, radiation=cfg.radiation, k=k)


def test_affine_operator_matches_single_pass_assembly():
    # A_1 + (1/delta - 1) K_ENZ on every ray, with a collar and with Robin
    worst = 0.0
    for spec in (CANONICAL_SPEC, GENERIC_SPEC):
        for mode, thickness in (("pml", spec.pml_thickness), ("robin", 0.0)):
            mesh = build_mesh(dataclasses.replace(spec, pml_thickness=thickness), 0.1)
            for ray in (1.0, 1.0j, -1.0j):
                for mag in (1e-3, 1e-2, 1e-1):
                    cfg = PhysicsConfig(mu=1.0 + 0.1j, delta=ray * mag, sources=RING_SOURCE,
                                        radiation=RadiationSpec(mode))
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
    mesh = build_mesh(CANONICAL_SPEC, 0.2)
    u = solve_transmission(mesh, cfg_ring)
    ref = weakref.ref(mesh)
    del mesh, u
    gc.collect()
    assert ref() is None

