import dataclasses
import math

import numpy as np
import pytest

from enzlab.auxiliary import PhysicsConfig
from enzlab.direct import solve_transmission
from enzlab.fem import ScalarField, _tri_values_and_grads, split_nodes
from enzlab.fields import (PiecewiseVectorField, compute_poynting,
                           ideal_fluid_residuals, poynting_gap, poynting_limit)
from enzlab.geometry import Bnd, Region, SourceSpec, structured_rectangle_mesh


def test_constant_field_zero_poynting(mesh_coarse, cfg_ring):
    nodes = mesh_coarse.region_nodes([Region.DOPANT, Region.ENZ, Region.EXTERIOR])
    u = ScalarField(mesh_coarse, [Region.DOPANT, Region.ENZ, Region.EXTERIOR],
                    np.full(len(nodes), 2.0 + 1.0j))
    s = compute_poynting(u, cfg_ring)
    # gradients of a constant cancel to rounding (the 1/delta factor scales it)
    assert np.abs(s.vectors).max() < 1e-10


def test_poynting_reads_each_triangles_permittivity(mesh_coarse, cfg_ring):
    cfg = dataclasses.replace(cfg_ring, delta=0.02 + 0.01j)
    u = solve_transmission(mesh_coarse, cfg)
    s = compute_poynting(u, cfg)
    keep = mesh_coarse.region_triangles([Region.DOPANT, Region.ENZ, Region.EXTERIOR])
    assert np.array_equal(s.tri_index, np.flatnonzero(keep))   # the collar is skipped
    vals, gx, gy, _ = _tri_values_and_grads(u, keep)
    # reference: the permittivity looked up triangle by triangle
    eps = np.array([cfg.delta if r == Region.ENZ else 1.0 for r in s.region], dtype=complex)
    factor = np.conj(vals.mean(axis=1)) / (2j * cfg.omega * eps)
    assert np.array_equal(s.vectors, factor[:, None] * np.column_stack([gx, gy]))


def test_plane_wave_poynting():
    mesh = structured_rectangle_mesh(24, 24)
    k, omega = 2.0, 2.0   # mu = 1
    cfg = PhysicsConfig(omega=omega, mu=1.0, delta=1.0, sources=SourceSpec())
    nodes = mesh.region_nodes(Region.EXTERIOR)
    u = ScalarField(mesh, Region.EXTERIOR, np.exp(1j * k * mesh.nodes[nodes, 0]))
    s = compute_poynting(u, cfg)
    expect = k / (2 * omega)
    # nodal interpolation error only; direction (1, 0)
    assert np.abs(s.vectors[:, 0].real - expect).max() < 2e-2 * expect
    assert np.abs(s.vectors[:, 1]).max() < 1e-10


def test_poynting_limit_slope(mesh_coarse, cfg_ring, engine_coarse, hier8):
    s_lim = poynting_limit(hier8.phi[0], engine_coarse.aux.c_star, cfg_ring)
    deltas = (1e-1, 1e-2, 1e-3)
    gaps = []
    for d in deltas:
        u = solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=d))
        gaps.append(poynting_gap(compute_poynting(u, dataclasses.replace(cfg_ring, delta=d)), s_lim))
    slope = np.polyfit(np.log10(deltas), np.log10(gaps), 1)[0]
    assert slope >= 0.8


def test_ideal_fluid_residuals_discrete_identities(engine_coarse, hier8, cfg_ring):
    s_lim = poynting_limit(hier8.phi[0], engine_coarse.aux.c_star, cfg_ring)
    res = ideal_fluid_residuals(s_lim, engine_coarse.aux, cfg_ring)
    assert res["div_residual"] <= 1e-8
    assert res["curl_residual"] <= 1e-12
    assert res["bc_residual_omega"] <= 1e-8
    assert res["bc_residual_dopant"] <= 1e-8


def test_zero_source_zero_residuals(mesh_coarse):
    from enzlab.correctors import CorrectorEngine
    cfg = PhysicsConfig(sources=SourceSpec())
    eng = CorrectorEngine(mesh_coarse, cfg)
    hier = eng.build_hierarchy(0)
    s_lim = poynting_limit(hier.phi[0], eng.aux.c_star, cfg)
    assert np.abs(s_lim.vectors).max() == 0.0
    res = ideal_fluid_residuals(s_lim, eng.aux, cfg)
    assert res["div_residual"] == 0.0 and res["curl_residual"] == 0.0


def test_curl_of_any_gradient_field_vanishes(mesh_coarse, cfg_ring, engine_coarse):
    # P1 gradients are exactly weakly curl-free against interior tests
    rng = np.random.default_rng(5)
    nodes = mesh_coarse.region_nodes(Region.ENZ)
    w = ScalarField(mesh_coarse, Region.ENZ,
                    rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes)))
    _, gx, gy, _ = _tri_values_and_grads(w, mesh_coarse.region_triangles(Region.ENZ))
    f = PiecewiseVectorField(mesh_coarse,
                             np.where(mesh_coarse.region_triangles(Region.ENZ))[0],
                             np.column_stack([gx, gy]),
                             mesh_coarse.tri_region[mesh_coarse.region_triangles(Region.ENZ)])
    res = ideal_fluid_residuals(f, engine_coarse.aux, cfg_ring)
    assert res["curl_residual"] <= 1e-12


def test_potential_split_weak_laplacians(engine_coarse, hier8, cfg_ring, mesh_coarse):
    # real/imaginary parts of the limit flow are gradients of potentials
    # solving a constant-right-hand-side Poisson equation
    phi0 = hier8.phi[0]
    c_star = engine_coarse.aux.c_star
    factor = np.conj(c_star) / (2j * cfg_ring.omega)
    const = 1j * cfg_ring.omega * complex(cfg_ring.mu) * abs(c_star) ** 2 / 2.0
    ns = engine_coarse.neumann
    loc = split_nodes(mesh_coarse, Region.ENZ, [Bnd.GAMMA_D, Bnd.GAMMA_OMEGA])[0]
    for part in (np.real, np.imag):
        w_vals = part(factor * phi0.values).astype(complex)
        resid = (ns.K @ w_vals)[loc] + part(const) * ns.m_vec[loc]
        scale = max(np.abs((ns.K @ w_vals)[loc]).max(), abs(const) * ns.m_vec[loc].max())
        assert np.abs(resid).max() <= 1e-8 * scale
