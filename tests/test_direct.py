import dataclasses
import math

import numpy as np
import pytest

from enzlab import oracle
from enzlab.direct import (PHYSICAL_REGIONS, compare_fields, enz_absorption,
                           solve_transmission)
from enzlab.errors import ValidationError
from enzlab.fem import ScalarField, h1_norm, h1_seminorm, l2_norm
from enzlab.geometry import Region, SourceSpec

from conftest import RING_SOURCE


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
