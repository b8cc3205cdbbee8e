import math

import numpy as np
import pytest

from enzlab import fem
from enzlab.errors import (EmptyWindow, IncompatibleData, SingularSystem,
                           TagMismatch, ZeroCoefficient)
from enzlab.fem import (BoundaryFunctional, NeumannSystem, ScalarField,
                        assemble, dirichlet_eigs, flux_extract, h1_norm,
                        l2_norm, mass_matrix, recovered_boundary_flux, solve)
from enzlab.geometry import (Bnd, Circle, DomainSpec, Region, build_mesh,
                             structured_rectangle_mesh)

CANONICAL = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                       dopant=Circle((0.0, 0.0), 0.3),
                       truncation_radius=4.0, pml_thickness=1.0)


@pytest.fixture(scope="module")
def annulus_mesh():
    return build_mesh(CANONICAL, 0.1)


@pytest.fixture(scope="module")
def annulus_mesh_fine():
    return build_mesh(CANONICAL, 0.05)


def _laplace_system(mesh, regions):
    return assemble(mesh, regions, {Region(r): 1.0 for r in np.atleast_1d(regions)},
                    {Region(r): 0.0 for r in np.atleast_1d(regions)})


def test_patch_test_linear_exactness():
    mesh = structured_rectangle_mesh(7, 9)
    sys_ = _laplace_system(mesh, Region.EXTERIOR)
    xb = mesh.nodes[mesh.boundary_nodes(Bnd.GAMMA_OMEGA), 0]
    u = solve(sys_, np.zeros(len(sys_.nodes)), {Bnd.GAMMA_OMEGA: xb})
    assert np.abs(u.values - mesh.nodes[u.nodes, 0]).max() <= 1e-12


def test_zero_data_gives_zero_field():
    mesh = structured_rectangle_mesh(5, 5)
    sys_ = _laplace_system(mesh, Region.EXTERIOR)
    u = solve(sys_, np.zeros(len(sys_.nodes)), {Bnd.GAMMA_OMEGA: 0.0})
    assert np.abs(u.values).max() == 0.0


def test_zero_coefficient_rejected():
    mesh = structured_rectangle_mesh(4, 4)
    with pytest.raises(ZeroCoefficient):
        assemble(mesh, Region.EXTERIOR, {Region.EXTERIOR: 0.0}, {Region.EXTERIOR: 0.0})


def test_plane_wave_dirichlet_converges_quadratically():
    k = 2.0
    errs = []
    for n in (16, 32, 64):
        mesh = structured_rectangle_mesh(n, n)
        sys_ = assemble(mesh, Region.EXTERIOR, {Region.EXTERIOR: 1.0},
                        {Region.EXTERIOR: k * k})
        exact = np.exp(1j * k * mesh.nodes[:, 0])
        u = solve(sys_, np.zeros(len(sys_.nodes)),
                  {Bnd.GAMMA_OMEGA: exact[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]})
        diff = ScalarField(mesh, Region.EXTERIOR, u.values - exact[u.nodes])
        errs.append(l2_norm(diff))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) > 1.7


def test_manufactured_solution_rates():
    # errors measured against the true solution (not its interpolant)
    errs_l2, errs_h1 = [], []
    for n in (8, 16, 32, 64):
        mesh = structured_rectangle_mesh(n, n)
        sys_ = _laplace_system(mesh, Region.EXTERIOR)
        exact = np.sin(mesh.nodes[:, 0]) * np.sin(mesh.nodes[:, 1])
        rhs_nodal = 2.0 * exact  # -lap(sin x sin y) = 2 sin x sin y
        M = mass_matrix(mesh, Region.EXTERIOR)
        b = (M @ rhs_nodal.astype(complex))[sys_.nodes]
        u = solve(sys_, b, {Bnd.GAMMA_OMEGA: exact[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]})
        vals, gx, gy, area = fem._tri_values_and_grads(u, np.ones(mesh.num_triangles, bool))
        cen = mesh.tri_centroids
        u_c = np.sin(cen[:, 0]) * np.sin(cen[:, 1])
        gx_c = np.cos(cen[:, 0]) * np.sin(cen[:, 1])
        gy_c = np.sin(cen[:, 0]) * np.cos(cen[:, 1])
        l2sq = float((np.abs(vals.mean(axis=1) - u_c) ** 2) @ area)
        h1sq = float((np.abs(gx - gx_c) ** 2 + np.abs(gy - gy_c) ** 2) @ area)
        errs_l2.append(math.sqrt(l2sq))
        errs_h1.append(math.sqrt(l2sq + h1sq))
    l2_rates = [math.log2(errs_l2[i] / errs_l2[i + 1]) for i in range(3)]
    h1_rates = [math.log2(errs_h1[i] / errs_h1[i + 1]) for i in range(3)]
    assert abs(np.mean(l2_rates) - 2.0) < 0.15
    assert abs(np.mean(h1_rates) - 1.0) < 0.15


def test_enz_contrast_scales_assembly(annulus_mesh):
    mesh = annulus_mesh
    regions = [Region.DOPANT, Region.ENZ]
    base = assemble(mesh, regions, {Region.DOPANT: 1.0, Region.ENZ: 1.0},
                    {Region.DOPANT: 0.0, Region.ENZ: 0.0})
    delta = 1e-3
    contrast = assemble(mesh, regions, {Region.DOPANT: 1.0, Region.ENZ: 1.0 / delta},
                        {Region.DOPANT: 0.0, Region.ENZ: 0.0})
    enz_only = assemble(mesh, Region.ENZ, {Region.ENZ: 1.0}, {Region.ENZ: 0.0})
    pos = np.full(mesh.num_nodes, -1, dtype=np.int64)
    pos[base.nodes] = np.arange(len(base.nodes))
    lift = (contrast.A - base.A)
    expect = (1.0 / delta - 1.0)
    enz_lift = enz_only.A.tocoo()
    rows = pos[enz_only.nodes[enz_lift.row]]
    cols = pos[enz_only.nodes[enz_lift.col]]
    import scipy.sparse as sp
    enz_on_base = sp.coo_matrix((enz_lift.data, (rows, cols)), shape=lift.shape).tocsc()
    assert abs(lift - expect * enz_on_base).max() < 1e-9 / delta


def test_singular_at_discrete_eigenvalue(annulus_mesh):
    mesh = annulus_mesh
    lam, _ = dirichlet_eigs(mesh, 1, target=64.0)[0]
    sys_ = assemble(mesh, Region.DOPANT, {Region.DOPANT: 1.0},
                    {Region.DOPANT: lam})
    with pytest.raises(SingularSystem):
        solve(sys_, np.zeros(len(sys_.nodes)), {Bnd.GAMMA_D: 1.0})


def test_mean_zero_neumann_zero_data(annulus_mesh):
    ns = NeumannSystem(annulus_mesh, Region.ENZ)
    u = ns.solve(None, {})
    assert np.abs(u.values).max() == 0.0


def test_mean_zero_neumann_incompatible_data(annulus_mesh):
    mesh = annulus_mesh
    ns = NeumannSystem(mesh, Region.ENZ)
    h = BoundaryFunctional.zeros(mesh, Bnd.GAMMA_OMEGA)
    h = h + BoundaryFunctional(mesh, Bnd.GAMMA_OMEGA,
                               np.ones(len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))))
    with pytest.raises(IncompatibleData):
        ns.solve(None, {Bnd.GAMMA_OMEGA: h})


def test_mean_zero_neumann_balanced_data(annulus_mesh):
    # opposite total fluxes through the two interfaces are compatible
    mesh = annulus_mesh
    ns = NeumannSystem(mesh, Region.ENZ)
    w_om = mesh.boundary_lumped_lengths(Bnd.GAMMA_OMEGA)
    w_d = mesh.boundary_lumped_lengths(Bnd.GAMMA_D)
    h_om = BoundaryFunctional(mesh, Bnd.GAMMA_OMEGA, w_om / w_om.sum())
    h_d = BoundaryFunctional(mesh, Bnd.GAMMA_D, w_d / w_d.sum())
    u = ns.solve(None, {Bnd.GAMMA_OMEGA: h_om, Bnd.GAMMA_D: h_d})
    mean = np.dot(ns.m_vec, u.values) / ns.area
    assert abs(mean) <= 1e-10 * max(1.0, float(np.abs(u.values).max()))
    assert np.abs(u.values).max() > 0


def test_neumann_field_rejected_by_flux_extract(annulus_mesh):
    # a Neumann solution carries no record of a LinearSystem solve
    ns = NeumannSystem(annulus_mesh, Region.ENZ)
    u = ns.solve(None, {})
    with pytest.raises(TagMismatch):
        flux_extract(u, ns, Bnd.GAMMA_OMEGA)


def test_dirichlet_block_cached_per_tag_set(annulus_mesh):
    sys_ = _laplace_system(annulus_mesh, [Region.EXTERIOR, Region.PML])
    both = sys_.dirichlet_block([Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF])
    assert sys_.dirichlet_block((int(Bnd.GAMMA_INF), Bnd.GAMMA_OMEGA)) is both
    inf_only = sys_.dirichlet_block([Bnd.GAMMA_INF])
    assert inf_only is not both
    assert len(inf_only.fixed) == len(annulus_mesh.boundary_nodes(Bnd.GAMMA_INF))
    assert sorted(np.concatenate([both.free, both.fixed])) == list(range(len(sys_.nodes)))


def test_flux_constant_field_is_zero(annulus_mesh):
    mesh = annulus_mesh
    sys_ = _laplace_system(mesh, Region.ENZ)
    ones_d = np.ones(len(mesh.boundary_nodes(Bnd.GAMMA_D)))
    ones_om = np.ones(len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA)))
    u = solve(sys_, np.zeros(len(sys_.nodes)),
              {Bnd.GAMMA_D: ones_d, Bnd.GAMMA_OMEGA: ones_om})
    fl = flux_extract(u, sys_, Bnd.GAMMA_D)
    assert abs(fl.total()) < 1e-10


def test_flux_log_annulus():
    # u = log|x| is harmonic; its flux through the inner circle with respect
    # to the ENZ-domain outward normal is -2*pi, independent of the radius.
    # The error envelope is O(h^2) but oscillates as the ring ladder
    # reconfigures, so the rate is fitted over several resolutions.
    hs = (0.14, 0.1, 0.07, 0.05, 0.035)
    errs = []
    for h in hs:
        mesh = build_mesh(CANONICAL, h)
        sys_ = _laplace_system(mesh, Region.ENZ)
        r = np.linalg.norm(mesh.nodes, axis=1)
        logr = np.log(np.where(r > 0, r, 1.0))
        u = solve(sys_, np.zeros(len(sys_.nodes)),
                  {Bnd.GAMMA_D: logr[mesh.boundary_nodes(Bnd.GAMMA_D)],
                   Bnd.GAMMA_OMEGA: logr[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]})
        total = flux_extract(u, sys_, Bnd.GAMMA_D).total()
        errs.append(abs(total - (-2 * math.pi)))
    assert errs[0] < 0.05
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope > 1.5


def test_flux_pairing_matches_weak_residual(annulus_mesh):
    # the defining identity: pairing with constant = assembled residual sum
    mesh = annulus_mesh
    sys_ = _laplace_system(mesh, Region.ENZ)
    r = np.linalg.norm(mesh.nodes, axis=1)
    logr = np.log(np.where(r > 0, r, 1.0))
    u = solve(sys_, np.zeros(len(sys_.nodes)),
              {Bnd.GAMMA_D: logr[mesh.boundary_nodes(Bnd.GAMMA_D)],
               Bnd.GAMMA_OMEGA: logr[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]})
    fl = flux_extract(u, sys_, Bnd.GAMMA_D)
    resid = sys_.A @ u.values - u.record.rhs
    loc = sys_.local_boundary(Bnd.GAMMA_D)
    assert abs(fl.total() - resid[loc].sum()) <= 1e-10 * max(1.0, abs(fl.total()))


def test_recovered_flux_second_order():
    errs = []
    for h in (0.1, 0.05):
        mesh = build_mesh(CANONICAL, h)
        r = np.linalg.norm(mesh.nodes, axis=1)
        vals = np.log(np.where(r > 0, r, 1.0))
        field = ScalarField(mesh, Region.ENZ, vals[mesh.region_nodes(Region.ENZ)])
        _, total = recovered_boundary_flux(field, Bnd.GAMMA_D, from_regions=Region.ENZ)
        errs.append(abs(total - 2 * math.pi * 0.3 * (1 / 0.3)))
    assert errs[0] / errs[1] > 3.0


def test_h1_norm_values_and_monotonicity():
    mesh = structured_rectangle_mesh(40, 40)
    zeros = ScalarField.zeros(mesh, Region.EXTERIOR)
    assert h1_norm(zeros) == 0.0
    xfield = ScalarField(mesh, Region.EXTERIOR,
                         mesh.nodes[mesh.region_nodes(Region.EXTERIOR), 0].astype(complex))
    assert h1_norm(xfield) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
    small = h1_norm(xfield, window=(0.5, 0.5, 0.25))
    big = h1_norm(xfield, window=(0.5, 0.5, 0.5))
    assert small <= big <= h1_norm(xfield)
    with pytest.raises(EmptyWindow):
        h1_norm(xfield, window=(10.0, 10.0, 0.1))


def test_dirichlet_eigs_disk(annulus_mesh_fine):
    from scipy.special import jn_zeros
    mesh = annulus_mesh_fine
    j0z = jn_zeros(0, 2)
    lam1_exact = (j0z[0] / 0.3) ** 2
    lam2_exact = (j0z[1] / 0.3) ** 2
    pairs = dirichlet_eigs(mesh, 4, target=lam1_exact)
    lam1, u1 = pairs[0]
    assert lam1 == pytest.approx(lam1_exact, rel=5e-3)
    lam2 = dirichlet_eigs(mesh, 1, target=lam2_exact)[0][0]
    assert lam2 == pytest.approx(lam2_exact, rel=2e-2)
    # mass orthonormality
    M = mass_matrix(mesh, Region.DOPANT)[np.ix_(u1.nodes, u1.nodes)]
    for i, (_, ui) in enumerate(pairs):
        for j, (_, uj) in enumerate(pairs):
            g = np.vdot(ui.values, M @ uj.values)
            assert abs(g - (1.0 if i == j else 0.0)) < 1e-8


def test_system_is_complex_symmetric(annulus_mesh):
    mesh = annulus_mesh
    sys_ = assemble(mesh, [Region.EXTERIOR, Region.PML],
                    {Region.EXTERIOR: 1.0, Region.PML: 1.0},
                    {Region.EXTERIOR: 4.0, Region.PML: 4.0},
                    radiation=fem.RadiationSpec("pml"), k=2.0)
    asym = abs(sys_.A - sys_.A.T)
    assert asym.max() < 1e-12
    assert abs(sys_.A.imag).max() > 0  # genuinely complex from the collar
