import dataclasses
import gc
import math
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzlab import auxiliary, direct, fem
from enzlab.auxiliary import PhysicsConfig, exterior_system, outer_dirichlet
from enzlab.correctors import CorrectorEngine
from enzlab.errors import (EmptyWindow, GeometryInvalid, IncompatibleData, MeshFailure,
                           SingularSystem, TagMismatch, ZeroCoefficient)
from enzlab.fem import (BoundaryFunctional, NeumannSystem, ScalarField,
                        assemble, dirichlet_eigs, flux_extract, h1_norm,
                        l2_norm, mass_matrix, recovered_boundary_flux, solve,
                        stiffness_matrix)
from enzlab.geometry import (Bnd, Circle, DomainSpec, Region, SourceDisk,
                             SourceRing, SourceSpec, _as_region_set, build_mesh,
                             structured_rectangle_mesh)
from enzlab.oracle import j0_zero, j1_zero

from conftest import GENERIC_SPEC, RING_SOURCE

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
    enz_on_base = sp.coo_matrix((enz_lift.data, (rows, cols)), shape=lift.shape).tocsc()
    assert abs(lift - expect * enz_on_base).max() < 1e-9 / delta


def test_singular_at_discrete_eigenvalue(annulus_mesh):
    mesh = annulus_mesh
    lam, _ = dirichlet_eigs(mesh, 1, target=64.0)[0]
    sys_ = assemble(mesh, Region.DOPANT, {Region.DOPANT: 1.0},
                    {Region.DOPANT: lam})
    with pytest.raises(SingularSystem):
        solve(sys_, np.zeros(len(sys_.nodes)), {Bnd.GAMMA_D: 1.0})


def test_eigenpairs_need_more_interior_dopant_nodes_than_asked():
    # at h = 0.2 a dopant of radius 0.1 has 9 interior nodes; ARPACK finds at most 8
    spec = dataclasses.replace(CANONICAL, dopant=Circle((0.0, 0.0), 0.1))
    mesh = build_mesh(spec, 0.2)
    assert len(dirichlet_eigs(mesh, 8, target=600.0)) == 8
    with pytest.raises(MeshFailure, match="9 interior dopant nodes"):
        dirichlet_eigs(mesh, 9, target=600.0)


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


def test_mean_zero_neumann_dopant_balanced_data(annulus_mesh):
    # the dopant lies inside its own curve, so its canonical GAMMA_D flux is
    # its domain flux: a unit sink balanced by a uniform outflow is compatible
    mesh = annulus_mesh
    ns = NeumannSystem(mesh, Region.DOPANT)
    w = mesh.boundary_lumped_lengths(Bnd.GAMMA_D)
    h = BoundaryFunctional(mesh, Bnd.GAMMA_D, ns.area * w / w.sum())
    u = ns.solve(-ns.m_vec, {Bnd.GAMMA_D: h})
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
    assert sorted(np.concatenate([both.rows, both.fixed])) == list(range(len(sys_.nodes)))


def test_a_system_holds_one_block_and_drops_it_for_another(annulus_mesh):
    sys_ = _laplace_system(annulus_mesh, [Region.EXTERIOR, Region.PML])
    copy = dataclasses.replace(sys_)   # copies share the one block
    requests = [([Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF], ()), ([Bnd.GAMMA_INF], ()),
                ([Bnd.GAMMA_INF], [Bnd.GAMMA_OMEGA]), ([Bnd.GAMMA_INF], ())]
    for (tags, last), (next_tags, next_last) in zip(requests, requests[1:]):
        block = sys_.dirichlet_block(tags, last=last)
        block.lu
        held = weakref.ref(block)
        del block
        new = copy.dirichlet_block(next_tags, last=next_last)
        gc.collect()
        assert held() is None   # the old block and its LU are gone
        assert list(sys_._blocks.values()) == [new] and sys_.held_block(tags, last) is None
        assert sys_.held_block(next_tags, next_last) is new
        del new


def test_a_full_request_replaces_a_folded_block_and_a_fold_keeps_a_full_one(annulus_mesh):
    sys_ = _laplace_system(annulus_mesh, [Region.EXTERIOR, Region.PML])
    tags = [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF]
    folded = sys_.dirichlet_block(tags, fold=True)
    assert isinstance(folded, fem.FoldedBlock)
    assert sys_.dirichlet_block(tags, fold=True) is folded
    full = sys_.dirichlet_block(tags)
    assert not isinstance(full, fem.FoldedBlock) and np.array_equal(full.rows, folded.rows)
    assert sys_.dirichlet_block(tags, fold=True) is full
    assert list(sys_._blocks.values()) == [full]
    # a solve of invariant data takes the held folded block, and builds a full one
    sys_._blocks.clear()
    folded = sys_.dirichlet_block(tags, fold=True)
    bc = {Bnd.GAMMA_OMEGA: 1.0, Bnd.GAMMA_INF: 0.0}
    u = solve(sys_, np.zeros(len(sys_.nodes)), bc)
    assert list(sys_._blocks.values()) == [folded] and np.isfinite(u.values).all()
    sys_._blocks.clear()
    solve(sys_, np.zeros(len(sys_.nodes)), bc)
    assert [isinstance(b, fem.FoldedBlock) for b in sys_._blocks.values()] == [False]


def test_no_module_but_fem_touches_a_systems_blocks():
    src = pathlib.Path(fem.__file__).parent
    touching = [p.name for p in sorted(src.glob("*.py")) if "._blocks" in p.read_text()]
    assert touching == ["fem.py"]


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
        _, total = recovered_boundary_flux(field, Bnd.GAMMA_D)
        errs.append(abs(total - 2 * math.pi * 0.3 * (1 / 0.3)))
    assert errs[0] / errs[1] > 3.0


def test_recovered_flux_outside_field_rejected(annulus_mesh):
    field = ScalarField.zeros(annulus_mesh, Region.ENZ)
    with pytest.raises(TagMismatch):
        recovered_boundary_flux(field, Bnd.GAMMA_INF)


def test_tri_values_read_on_field_numbering(annulus_mesh):
    mesh = annulus_mesh
    rng = np.random.default_rng(3)
    nodes = mesh.region_nodes(Region.ENZ)
    field = ScalarField(mesh, Region.ENZ, rng.standard_normal(len(nodes)) + 1j)
    mask = mesh.region_triangles(Region.ENZ)
    vals, _, _, _ = fem._tri_values_and_grads(field, mask)
    assert np.array_equal(vals, field.to_full()[mesh.triangles[mask]])
    # dopant triangles touch GAMMA_D nodes of the field but are not its own
    with pytest.raises(TagMismatch):
        fem._tri_values_and_grads(field, mesh.region_triangles(Region.DOPANT))


def test_h1_norm_values_and_monotonicity():
    mesh = structured_rectangle_mesh(40, 40)
    zeros = ScalarField.zeros(mesh, Region.EXTERIOR)
    assert h1_norm(zeros) == 0.0
    xfield = ScalarField(mesh, Region.EXTERIOR,
                         mesh.nodes[mesh.region_nodes(Region.EXTERIOR), 0].astype(complex))
    assert h1_norm(xfield) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
    small = h1_norm(xfield, window=Circle((0.5, 0.5), 0.25))
    big = h1_norm(xfield, window=Circle((0.5, 0.5), 0.5))
    assert small <= big <= h1_norm(xfield)
    with pytest.raises(EmptyWindow):
        h1_norm(xfield, window=Circle((10.0, 10.0), 0.1))


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
    M = mass_matrix(mesh, Region.DOPANT)
    for i, (_, ui) in enumerate(pairs):
        for j, (_, uj) in enumerate(pairs):
            g = np.vdot(ui.values, M @ uj.values)
            assert abs(g - (1.0 if i == j else 0.0)) < 1e-8


def test_dirichlet_eigs_shift_is_factored_by_fem_factor(mesh_coarse):
    # the shift-invert operator comes from fem.factor, so a NaN shift is a
    # SINGULAR_SYSTEM, not a RuntimeError from a hidden splu
    with pytest.raises(SingularSystem):
        dirichlet_eigs(mesh_coarse, 1, target=math.nan)


def _sliced_dirichlet_eigs(mesh, count, target):
    """Eigenvalues and interior vectors as ``eigsh`` gave them on ``np.ix_`` slices of K and M."""
    il = fem.split_nodes(mesh, Region.DOPANT, [Bnd.GAMMA_D])[0]
    K = stiffness_matrix(mesh, Region.DOPANT).real.tocsc()
    M = mass_matrix(mesh, Region.DOPANT).real.tocsc()
    K_ii, M_ii = K[np.ix_(il, il)].tocsc(), M[np.ix_(il, il)].tocsc()
    order = fem.node_order(mesh, Region.DOPANT, [Bnd.GAMMA_D])
    shifted = fem.Factored((K - target * M).tocsc(), il[order])
    op_inv = spla.LinearOperator(K_ii.shape, dtype=float, matvec=shifted.solve)
    vals, vecs = spla.eigsh(K_ii, k=count, M=M_ii, sigma=target,
                            v0=np.ones(len(il)) / math.sqrt(len(il)), OPinv=op_inv)
    nearest = np.argsort(np.abs(vals - target))
    vals, vecs = vals[nearest], vecs[:, nearest]
    L = np.linalg.cholesky(vecs.T @ (M_ii @ vecs))
    return il, vals, vecs @ np.linalg.inv(L).T


@pytest.mark.parametrize("spec", [CANONICAL, GENERIC_SPEC], ids=["canonical", "offcentre"])
@pytest.mark.parametrize("zero, count", [(j0_zero, 1), (j1_zero, 2)], ids=["j01", "j11"])
def test_dirichlet_eigs_read_the_interior_off_k_and_m_as_their_slices(spec, zero, count):
    # the interior operators pad their vectors to every dopant node instead of
    # slicing K_ii and M_ii out: ARPACK must see the same bits
    mesh = build_mesh(spec, 0.1)
    target = (zero(1) / spec.dopant.radius) ** 2
    il, vals, vecs = _sliced_dirichlet_eigs(mesh, count, target)
    pairs = dirichlet_eigs(mesh, count, target)
    assert [lam for lam, _ in pairs] == list(vals)
    for (_, u), ref in zip(pairs, vecs.T):
        full = np.zeros(len(u.values), dtype=complex)
        full[il] = ref
        assert np.array_equal(u.values, full)


NO_COLLAR = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                       dopant=Circle((0.0, 0.0), 0.3),
                       truncation_radius=4.0, pml_thickness=0.0)


def _sliced_from_global(monkeypatch, mesh, build):
    """Operator as assembled on all mesh nodes, then cut to the region's nodes.

    The element kernel and the scatter are switched to global numbering, so
    ``build`` sees the same element matrices as on the region numbering.
    """
    scatter = fem._scatter

    def boundary_mass(mesh_, regions, tag):
        lens = mesh_.boundary_edge_lengths(tag)
        entries = np.outer(np.array([2.0, 1.0, 2.0]) / 6.0, lens)   # (0, 0), (0, 1), (1, 1)
        return scatter(mesh_.boundary_edges[tag], entries, mesh_.num_nodes)

    with monkeypatch.context() as m:
        m.setattr(fem, "_region_elements", lambda mesh_, regions: fem._p1_geometry(
            mesh_, mesh_.region_triangles(regions)))
        m.setattr(fem, "_scatter", lambda tris, local, n: scatter(tris, local, mesh.num_nodes))
        m.setattr(fem, "_boundary_mass", boundary_mass)
        A, regions = build()
    nodes = mesh.region_nodes(regions)
    return A[np.ix_(nodes, nodes)].tocsc()


def _assert_same_csc(new, old):
    assert new.shape == old.shape
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.array_equal(new.data, old.data)


def test_region_operators_equal_sliced_global_ones(annulus_mesh, monkeypatch):
    def operator(system):
        return system.A, system.regions

    def exterior(mesh, cfg):
        # assemble anew, so the patched kernels build it too, not the memo
        mesh._memo.pop("exterior", None)
        return operator(exterior_system(mesh, cfg))

    def omega():
        k = cfg_pml.k
        return operator(assemble(annulus_mesh, direct.OMEGA_REGIONS,
                                 {Region.DOPANT: 1.0, Region.ENZ: 1.0},
                                 {Region.DOPANT: k * k, Region.ENZ: k * k}))

    robin_mesh = build_mesh(NO_COLLAR, 0.1)
    cfg_pml = PhysicsConfig(mu=1.0 + 0.1j)
    cases = [(annulus_mesh, lambda: exterior(annulus_mesh, cfg_pml)), (annulus_mesh, omega),
             (robin_mesh, lambda: exterior(robin_mesh, PhysicsConfig()))]
    cases += [(annulus_mesh, lambda op=op, r=r: (op(annulus_mesh, r), r))
              for r in (Region.ENZ, Region.DOPANT) for op in (stiffness_matrix, mass_matrix)]
    for mesh, build in cases:
        new, _ = build()
        _assert_same_csc(new, _sliced_from_global(monkeypatch, mesh, build))
    annulus_mesh._memo.pop("exterior")   # the one assembled on global numbering


def test_robin_outside_system_rejected(annulus_mesh):
    # with a collar the truncation circle does not bound the exterior alone
    with pytest.raises(TagMismatch):
        assemble(annulus_mesh, Region.EXTERIOR, {Region.EXTERIOR: 1.0},
                 {Region.EXTERIOR: 1.0}, radiation=fem.RadiationSpec(), k=1.0)


def test_system_is_complex_symmetric(annulus_mesh):
    mesh = annulus_mesh
    sys_ = assemble(mesh, [Region.EXTERIOR, Region.PML],
                    {Region.EXTERIOR: 1.0, Region.PML: 1.0},
                    {Region.EXTERIOR: 4.0, Region.PML: 4.0},
                    radiation=fem.RadiationSpec(), k=2.0)
    asym = abs(sys_.A - sys_.A.T)
    assert asym.max() < 1e-12
    assert abs(sys_.A.imag).max() > 0  # genuinely complex from the collar


def _broadcast_assembly(mesh, regions, diffusion, reaction, radiation=None, k=None):
    """Reference operator: full 3 x 3 element matrices by broadcasting, summed by COO."""
    regions = frozenset(int(r) for r in regions)
    tri_idx = np.flatnonzero(mesh.region_triangles(regions))
    tris = mesh.triangles[tri_idx]
    p = mesh.nodes[tris]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = mesh.tri_areas[tri_idx]
    reg = mesh.tri_region[tri_idx]
    a_t = np.array([complex(diffusion[Region(r)]) for r in reg])
    c_t = np.array([complex(reaction.get(Region(r), 0.0)) for r in reg])
    g11, g12, g22 = a_t.copy(), np.zeros_like(a_t), a_t.copy()
    sel = reg == int(Region.PML)
    if radiation is not None and sel.any():
        p11, p12, p22, react = fem._pml_coefficients(mesh, tri_idx[sel], k, radiation)
        g11[sel], g12[sel], g22[sel] = a_t[sel] * p11, a_t[sel] * p12, a_t[sel] * p22
        c_t[sel] = c_t[sel] * react
    f = 1.0 / (4.0 * area)
    stiff = f[:, None, None] * (
        g11[:, None, None] * b[:, :, None] * b[:, None, :]
        + g12[:, None, None] * (b[:, :, None] * c[:, None, :] + c[:, :, None] * b[:, None, :])
        + g22[:, None, None] * c[:, :, None] * c[:, None, :])
    ca = (c_t * area)[:, None, None]
    mass = ((1.0 - fem.MASS_LUMP_FRACTION) * ca * (np.ones((3, 3)) + np.eye(3)) / 12.0
            + fem.MASS_LUMP_FRACTION * ca * np.eye(3) / 3.0)
    pos = mesh.region_pos(regions)[tris]
    n = len(mesh.region_nodes(regions))
    A = sp.coo_matrix(((stiff - mass).ravel(), (np.repeat(pos, 3, axis=1).ravel(),
                                                 np.tile(pos, (1, 3)).ravel())), shape=(n, n))
    if radiation is not None and not sel.any():
        edges = mesh.region_pos(regions)[mesh.boundary_edges[Bnd.GAMMA_INF]]
        lens = mesh.boundary_edge_lengths(Bnd.GAMMA_INF)
        q = complex(diffusion.get(Region.EXTERIOR, 1.0)) * (1j * k - 0.5 / mesh.truncation_radius)
        local = q * lens[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        A = A - sp.coo_matrix((local.ravel(), (np.repeat(edges, 2, axis=1).ravel(),
                                               np.tile(edges, (1, 2)).ravel())), shape=(n, n))
    return A.tocsc()


def test_element_kernel_matches_broadcast_reference(mesh_coarse):
    k = 1.3 + 0.1j
    radiation = fem.RadiationSpec()
    everywhere = {Region(r): 1.0 for r in Region}
    complex_diffusion = {Region.DOPANT: 0.5 + 0.2j, Region.ENZ: 1.0 / (0.02 - 0.01j),
                         Region.EXTERIOR: 1.0, Region.PML: 1.0}
    reaction = {Region(r): k * k for r in Region}
    exterior = [Region.EXTERIOR, Region.PML]
    cases = [(mesh_coarse, exterior, everywhere, reaction, radiation),
             (mesh_coarse, list(Region), complex_diffusion, reaction, radiation),
             (mesh_coarse, [Region.DOPANT, Region.ENZ], complex_diffusion,
              {Region.DOPANT: 2.0 - 0.5j, Region.ENZ: -1.5j}, None),
             (build_mesh(NO_COLLAR, 0.1), [Region.EXTERIOR], {Region.EXTERIOR: 0.7 - 0.3j},
              reaction, radiation)]
    for mesh, regions, diffusion, react, rad in cases:
        new = assemble(mesh, regions, diffusion, react, radiation=rad, k=k).A
        ref = _broadcast_assembly(mesh, regions, diffusion, react, radiation=rad, k=k)
        assert np.array_equal(new.indptr, ref.indptr)
        assert np.array_equal(new.indices, ref.indices)
        assert np.abs(new.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


def _scipy_sum(elems, entries, n):
    """SciPy's own COO -> CSC sum of the full element blocks, element after element."""
    m = elems.shape[1]
    full = np.zeros((len(elems), m, m), dtype=entries.dtype)
    for e, (i, j) in enumerate(zip(*np.triu_indices(m))):
        full[:, i, j] = full[:, j, i] = entries[e]
    rows = np.broadcast_to(elems[:, :, None], full.shape).ravel()
    cols = np.broadcast_to(elems[:, None, :], full.shape).ravel()
    return sp.coo_matrix((full.ravel(), (rows, cols)), shape=(n, n)).tocsc()


def test_scatter_sums_as_scipy_coo_conversion(mesh_coarse):
    # SciPy sums a position's entries in the order its conversion leaves them,
    # not in element order, so the scatter is pinned to that conversion bit for bit
    k = 1.3 + 0.1j
    radiation = fem.RadiationSpec()
    robin = build_mesh(NO_COLLAR, 0.1)
    exterior = _as_region_set((Region.EXTERIOR, Region.PML))
    cases = [(mesh_coarse, exterior, radiation), (robin, _as_region_set(Region.EXTERIOR), None)]
    for mesh, regions, rad in cases:
        tris, local = fem._element_entries(mesh, regions, dict.fromkeys(regions, 1.0),
                                           dict.fromkeys(regions, k * k), rad, k)
        n = len(mesh.region_nodes(regions))
        _assert_same_csc(fem._scatter(tris, local, n), _scipy_sum(tris, local, n))
    regions = _as_region_set(Region.EXTERIOR)
    edges = robin.region_pos(regions)[robin.boundary_edges[Bnd.GAMMA_INF]]
    entries = np.outer(np.array([2.0, 1.0, 2.0]) / 6.0, robin.boundary_edge_lengths(Bnd.GAMMA_INF))
    n = len(robin.region_nodes(regions))
    _assert_same_csc(fem._boundary_mass(robin, regions, Bnd.GAMMA_INF),
                     _scipy_sum(edges, entries, n))
    # the collar-less exterior with its Robin term, as assemble builds it
    q = 1j * k - 0.5 / robin.truncation_radius
    react = {Region.EXTERIOR: k * k}
    A = assemble(robin, regions, {Region.EXTERIOR: 1.0}, react, radiation=radiation, k=k).A
    tris, local = fem._element_entries(robin, regions, {Region.EXTERIOR: 1.0}, react, None, k)
    _assert_same_csc(A, _scipy_sum(tris, local, n) - q * _scipy_sum(edges, entries, n))


def test_exterior_assembly_peaks_below_nine_matrices(cfg_ring):
    mesh = build_mesh(CANONICAL, 0.1)
    exterior_system(mesh, dataclasses.replace(cfg_ring, omega=1.2))   # the mesh's caches
    tracemalloc.start()
    try:
        A = exterior_system(mesh, cfg_ring).A
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.9 here; 10.7 with the element arrays alive through the scatter
    assert peak <= 9 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def test_collar_assembly_runs_each_kernel_once_per_triangle(mesh_coarse, monkeypatch):
    seen = {"stiffness": [], "mass": []}
    for name, kernel in (("stiffness", fem._stiffness_entries), ("mass", fem._mass_entries)):
        def counted(*args, name=name, kernel=kernel, **kw):
            seen[name].append(len(args[2] if name == "stiffness" else args[0]))
            return kernel(*args, **kw)
        monkeypatch.setattr(fem, f"_{name}_entries", counted)
    regions = _as_region_set((Region.EXTERIOR, Region.PML))
    assemble(mesh_coarse, regions, dict.fromkeys(regions, 1.0), dict.fromkeys(regions, 4.0),
             radiation=fem.RadiationSpec(), k=2.0)
    n_tri = np.count_nonzero(mesh_coarse.region_triangles(regions))
    n_collar = np.count_nonzero(mesh_coarse.region_triangles(Region.PML))
    assert seen["stiffness"] == seen["mass"] == [n_tri - n_collar, n_collar]


def test_certify_lifts_nonzero_dirichlet_values(mesh_coarse, cfg_ring):
    # psi_e's problem: no load, unit trace on the scatterer.  Its free load is
    # the lift of that trace alone, so a certify that skipped the lift would
    # see a zero load and reject the solved field as amplified.
    ext = exterior_system(mesh_coarse, cfg_ring)
    bc = {Bnd.GAMMA_OMEGA: 1.0, **outer_dirichlet(ext.regions)}
    rhs = np.zeros(len(ext.nodes), dtype=complex)
    u = solve(ext, rhs, bc)
    v = fem.certify(ext, rhs, bc, u.values)
    assert np.array_equal(v.values, u.values) and v.record.rhs is rhs
    free = ext.dirichlet_block(bc).rows
    rng = np.random.default_rng(5)
    bad = u.values.copy()
    bad[free] += 1e-6 * np.abs(u.values).max() * rng.standard_normal(len(free))
    with pytest.raises(SingularSystem):
        fem.certify(ext, rhs, bc, bad)


def test_flux_extract_is_the_checked_residual(mesh_coarse, cfg_ring):
    # the source field, both lifts and a certified direct field: the flux is
    # the tag's rows of A u - rhs, bit for bit, with no matvec of its own
    ext = exterior_system(mesh_coarse, cfg_ring)
    dop = auxiliary.dopant_system(mesh_coarse, cfg_ring)
    cases = [(auxiliary.solve_s(mesh_coarse, cfg_ring, system=ext)[0], ext, Bnd.GAMMA_OMEGA),
             (auxiliary.solve_psi_e(mesh_coarse, cfg_ring, system=ext)[0], ext, Bnd.GAMMA_OMEGA),
             (auxiliary.solve_psi_d(mesh_coarse, cfg_ring, system=dop)[0], dop, Bnd.GAMMA_D)]
    u = direct.solve_transmission(mesh_coarse, cfg_ring)
    cases += [(u, u.record.system, tag) for tag in (Bnd.GAMMA_OMEGA, Bnd.GAMMA_D)]
    for field, system, tag in cases:
        ref = (system.A @ field.values - field.record.rhs)[system.local_boundary(tag)]
        assert np.abs(ref).max() > 0
        assert np.array_equal(flux_extract(field, system, tag).values, ref)


def test_dirichlet_solve_checks_the_field_it_returns(mesh_coarse, monkeypatch):
    # the Dirichlet block is solved off its LU unchecked; the contract lives in
    # the one field check, so a solution perturbed by 1e-6 relative is refused
    sys_ = assemble(mesh_coarse, Region.DOPANT, {Region.DOPANT: 1.0}, {Region.DOPANT: 2.0})
    bc = {Bnd.GAMMA_D: 1.0}
    rhs = np.zeros(len(sys_.nodes), dtype=complex)
    good = solve(sys_, rhs, bc)
    lu_solve = fem.Factored.lu_solve
    rng = np.random.default_rng(7)

    def perturbed(self, b):
        x = lu_solve(self, b)
        return x + 1e-6 * np.abs(x).max() * rng.standard_normal(len(x))
    monkeypatch.setattr(fem.Factored, "lu_solve", perturbed)
    with pytest.raises(SingularSystem):
        solve(sys_, rhs, bc)
    monkeypatch.undo()
    assert np.array_equal(solve(sys_, rhs, bc).values, good.values)


def test_zero_load_field_is_checked_once_and_factors_nothing(mesh_coarse, monkeypatch):
    sys_ = assemble(mesh_coarse, Region.DOPANT, {Region.DOPANT: 1.0}, {Region.DOPANT: 2.0})
    checks, check = [], fem._check_backward_error
    monkeypatch.setattr(fem, "_check_backward_error",
                        lambda *args: checks.append(args) or check(*args))
    u = solve(sys_, np.zeros(len(sys_.nodes), dtype=complex), {Bnd.GAMMA_D: 0.0})
    assert len(checks) == 1
    assert not u.values.any() and not u.record.resid.any()
    assert "lu" not in sys_.held_block([Bnd.GAMMA_D]).__dict__


def test_factor_uses_fill_reducing_ordering(mesh_coarse, cfg_ring):
    blocks = [direct.transmission_system(mesh_coarse, cfg_ring).dirichlet_block([Bnd.GAMMA_INF]),
              exterior_system(mesh_coarse, cfg_ring).dirichlet_block(
                  [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF])]
    for block in blocks:   # 0.70 (transmission) and 0.74 (exterior) seen
        lu = block.lu
        colamd = spla.splu(block.A[np.ix_(block.rows, block.rows)].tocsc(), permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= 0.8 * (colamd.L.nnz + colamd.U.nnz)


def test_bordered_neumann_fills_less_than_minimum_degree(mesh_coarse):
    # SuperLU's stored entries of L + U, explicit zeros of its supernodes
    # included: minimum degree on A + A^T, without the postorder symmetric mode
    # skips, leaves them padded (0.76 of it seen; 0.51 at h = 0.025)
    bordered = NeumannSystem(mesh_coarse, Region.ENZ)._bordered
    mmd = spla.splu(bordered.A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                    options=dict(SymmetricMode=True))
    assert bordered.lu.nnz <= 0.8 * mmd.nnz


def _rectangle():
    return structured_rectangle_mesh(14, 9, lx=1.4, ly=0.9)


def _small_rectangle():
    # its top split leaves a lower part of at most _ND_LEAF nodes
    return structured_rectangle_mesh(8, 7, lx=0.8, ly=0.7)


def _canonical():
    return build_mesh(CANONICAL, 0.1)


OMEGA = (Region.DOPANT, Region.ENZ)
ORDER_CASES = [
    (_rectangle, Region.EXTERIOR, (), ()),
    (_rectangle, Region.EXTERIOR, [Bnd.GAMMA_OMEGA], ()),
    (_rectangle, Region.EXTERIOR, (), [Bnd.GAMMA_OMEGA]),
    (_small_rectangle, Region.EXTERIOR, (), ()),
    (_canonical, Region.ENZ, (), ()),
    (_canonical, Region.DOPANT, [Bnd.GAMMA_D], ()),
    (_canonical, OMEGA, (), [Bnd.GAMMA_OMEGA]),
    (_canonical, (Region.EXTERIOR, Region.PML), [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF], ()),
    (_canonical, (Region.EXTERIOR, Region.PML), [Bnd.GAMMA_INF], [Bnd.GAMMA_OMEGA]),
]


@pytest.mark.parametrize("build, regions, fixed, last", ORDER_CASES)
def test_node_order_is_a_nested_dissection(build, regions, fixed, last):
    mesh = build()
    order = fem.node_order(mesh, regions, fixed, last)
    keep = fem.split_nodes(mesh, regions, fixed)[0]
    assert np.array_equal(np.sort(order), np.arange(len(keep)))
    assert np.array_equal(fem.node_order(build(), regions, fixed, last), order)
    # the last curves close the order, each in boundary order
    tail = np.concatenate([np.zeros(0, dtype=int)]
                          + [fem._local_boundary(mesh, regions, t) for t in last])
    head = keep[order[:len(order) - len(tail)]]
    assert np.array_equal(keep[order[len(head):]], tail)
    # the top split: the lower half by the longer extent, ties by node index;
    # the separator is its nodes with an upper neighbour
    inner = np.sort(head)
    xy = mesh.nodes[mesh.region_nodes(regions)[inner]]
    n = len(inner)
    assert n > fem._ND_LEAF
    by = np.argsort(xy[:, int(np.ptp(xy[:, 1]) > np.ptp(xy[:, 0]))], kind="stable")
    tris = mesh.region_pos(regions)[mesh.triangles[mesh.region_triangles(regions)]]
    edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lower = set(inner[by[:n // 2]].tolist())
    upper = set(inner[by[n // 2:]].tolist())
    sep = {a for a, b in edges.tolist() + edges[:, ::-1].tolist() if a in lower and b in upper}
    m = n // 2 - len(sep)
    assert set(head[:m].tolist()) == lower - sep
    assert set(head[m:n - len(sep)].tolist()) == upper
    assert set(head[n - len(sep):].tolist()) == sep
    if m <= fem._ND_LEAF:   # a leaf keeps its natural order
        assert (np.diff(head[:m]) > 0).all()
    parts = np.full(len(mesh.region_nodes(regions)), -1)
    parts[head[:m]], parts[head[m:n - len(sep)]] = 0, 1
    assert not ((parts[edges[:, 0]] == 0) & (parts[edges[:, 1]] == 1)).any()
    assert not ((parts[edges[:, 0]] == 1) & (parts[edges[:, 1]] == 0)).any()


def test_factor_pivots_on_diagonal(mesh_coarse):
    cfg = PhysicsConfig(delta=-0.05 + 0.0j, sources=RING_SOURCE)
    block = direct.transmission_system(mesh_coarse, cfg).dirichlet_block([Bnd.GAMMA_INF])
    lu = block.lu
    assert np.array_equal(lu.perm_r, lu.perm_c)
    # the zero border diagonal of the Neumann system still gets a sound pivot:
    # any right-hand side, compatible or not, is solved to roundoff
    ns = NeumannSystem(mesh_coarse, Region.ENZ)
    A = ns._bordered.A
    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    x = ns._bordered.lu_solve(b)
    backward = np.linalg.norm(A @ x - b) / (spla.norm(A, np.inf) * np.linalg.norm(x) + np.linalg.norm(b))
    assert backward <= 1e-14   # 7.3e-17 seen; 2.6e-4 with threshold 0


def test_neumann_solve_holds_backward_error_contract(monkeypatch):
    # threshold 0 accepts a roundoff-sized diagonal pivot in the singular
    # stiffness block; the wrong field must raise instead of being returned
    def diagonal_only(A):
        return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))

    monkeypatch.setattr(fem, "factor", diagonal_only)
    # a mesh of its own: the factorization is kept per mesh, and this one
    # must come from the patched factor and die with the test
    mesh = build_mesh(CANONICAL, 0.1)
    ns = NeumannSystem(mesh, Region.ENZ)
    w_om = mesh.boundary_lumped_lengths(Bnd.GAMMA_OMEGA)
    w_d = mesh.boundary_lumped_lengths(Bnd.GAMMA_D)
    # balanced up to 5e-7 of the data, inside the 1e-6 compatibility tolerance
    h_om = BoundaryFunctional(mesh, Bnd.GAMMA_OMEGA, (1 + 5e-7) * w_om / w_om.sum())
    h_d = BoundaryFunctional(mesh, Bnd.GAMMA_D, w_d / w_d.sum())
    with pytest.raises(SingularSystem):   # backward error 4.3e-10 seen
        ns.solve(None, {Bnd.GAMMA_OMEGA: h_om, Bnd.GAMMA_D: h_d})


def test_factor_breakdown_is_singular_system():
    A = sp.csc_matrix(np.array([[1, 1, 0], [1, 1, 0], [0, 0, 2]], dtype=complex))
    with pytest.raises(SingularSystem):
        fem.factor(A)


def _tail_block(A, n_last):
    """The block of all of ``A`` in its own order, with its last ``n_last`` rows last."""
    return fem.DirichletBlock(sp.csc_matrix(A), np.arange(A.shape[0]), np.arange(0), n_last=n_last)


def test_schur_complement_under_threshold_pivoting():
    # the leading diagonal 1e-3 is below 0.1 of the interface entry under it,
    # so threshold pivoting takes the interface row first
    A = np.array([[1e-3, 0.0, 1.0], [0.0, 2.0, 0.5], [1.0, 0.5, 3.0]], dtype=complex) * (1.0 + 0.2j)
    with pytest.raises(SingularSystem):
        _tail_block(A, 1).schur
    # a pivot swap inside the interface block still leaves S, rows put back
    A = np.array([[4.0, 1.0, 0.0], [1.0, 0.26, 1.0], [0.0, 1.0, 2.0]], dtype=complex) * (1.0 - 0.3j)
    B = _tail_block(A, 2)
    S = B.schur
    assert not np.array_equal(B.lu.perm_r, np.arange(3))
    ref = A[1:, 1:] - np.outer(A[1:, 0], A[0, 1:]) / A[0, 0]
    assert np.abs(S - ref).max() <= 1e-15 * np.abs(ref).max()


def _exterior_of_its_own(mesh, cfg):
    """The memoized exterior's matrix in a system of its own, whose blocks no other test sees."""
    return dataclasses.replace(exterior_system(mesh, cfg), _blocks={})


def test_schur_complement_equals_column_solves(mesh_coarse, cfg_ring):
    ext = _exterior_of_its_own(mesh_coarse, cfg_ring)
    free = fem.split_nodes(mesh_coarse, ext.regions, [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF])[0]
    gamma = ext.local_boundary(Bnd.GAMMA_OMEGA)
    B = ext.dirichlet_block([Bnd.GAMMA_INF], last=[Bnd.GAMMA_OMEGA])
    S = B.schur
    assert np.array_equal(B.rows, fem.split_nodes(mesh_coarse, ext.regions, [Bnd.GAMMA_INF])[0])
    assert np.array_equal(np.sort(B.order[:len(free)]), free)
    assert np.array_equal(B.order[len(free):], gamma)
    assert np.array_equal(B.rows[B.tail], gamma)
    A_ff = ext.A[np.ix_(free, free)].tocsc()
    X = spla.splu(A_ff).solve(ext.A[np.ix_(free, gamma)].toarray())
    ref = ext.A[np.ix_(gamma, gamma)].toarray() - ext.A[np.ix_(gamma, free)] @ X
    assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()   # 6.8e-16 seen


def test_an_engine_after_an_auxiliary_only_set_refactors_in_double(cfg_ring, factored):
    mesh = build_mesh(CANONICAL, 0.2)
    auxiliary.solve_auxiliary_set(mesh, cfg_ring)
    engine = CorrectorEngine(mesh, cfg_ring)   # same mesh and k: it finds the folded block
    (block,) = engine.ext_system._blocks.values()
    assert not isinstance(block, fem.FoldedBlock)
    engine.build_hierarchy(2)
    direct.solve_transmission(mesh, cfg_ring)
    # the folded exterior block, a quarter of the free nodes, and the
    # dopant's, then the full exterior block, the bordered Neumann system, B
    # and Omega's operator, all in double
    n_block = len(block.rows)
    assert factored == [(n_block // 4, np.dtype(complex)), (factored[1][0], np.dtype(complex)),
                        (n_block, np.dtype(complex))] + [(n, np.dtype(complex))
                                                         for n, _ in factored[3:]]
    assert len(factored) == 6


def test_an_engine_handed_a_folded_set_refactors_in_full_at_its_first_lift(cfg_ring, factored):
    # the ring source and psi_e's trace are invariant under the quarter turn,
    # so the set leaves the folded block, which cannot take a lift's trace
    mesh = build_mesh(CANONICAL, 0.2)
    engine = CorrectorEngine(mesh, cfg_ring, aux=auxiliary.solve_auxiliary_set(mesh, cfg_ring))
    (block,) = engine.ext_system._blocks.values()
    assert isinstance(block, fem.FoldedBlock)
    n_factored = len(factored)
    engine.enz_solve(engine.seed_state())   # no lift: the exterior keeps its folded LU
    assert list(engine.ext_system._blocks.values()) == [block]
    hier = engine.build_hierarchy(3)   # every lift passes its field's check
    (stepped,) = engine.ext_system._blocks.values()
    assert not isinstance(stepped, fem.FoldedBlock) and np.array_equal(stepped.rows, block.rows)
    # the Neumann system, then the full exterior block once, in double, at the first lift
    assert factored[n_factored:] == [(factored[n_factored][0], np.dtype(complex)),
                                     (len(block.rows), np.dtype(np.complex128))]
    # the same hierarchy off an LU that was full from the start, on a mesh of its own
    ref = CorrectorEngine(build_mesh(CANONICAL, 0.2), cfg_ring).build_hierarchy(3)
    assert np.abs(hier.e - ref.e).max() <= 1e-10 * np.abs(ref.e).max()


def test_schur_complement_empties_the_factor_copies_and_solves_the_same(mesh_coarse, cfg_ring):
    ext = _exterior_of_its_own(mesh_coarse, cfg_ring)
    B = ext.dirichlet_block([Bnd.GAMMA_INF], last=[Bnd.GAMMA_OMEGA])
    S = B.schur
    assert B.lu.L.nnz == B.lu.U.nnz == 0
    assert B.schur is S   # read once
    # a second factorization of the same block, its copies read and kept
    ref = fem.Factored(ext.A, B.order)
    m = len(B.order) - len(B.tail)
    L, U = ref.lu.L, ref.lu.U
    assert L.nnz > 0 and U.nnz > 0
    S_ref = (L[m:, m:] @ U[m:, m:]).toarray()[ref.lu.perm_r[m:] - m]
    assert np.array_equal(S, S_ref)
    b = np.random.default_rng(0).standard_normal((len(B.rows), 2)) @ np.array([1.0, 1.0j])
    assert np.array_equal(B.solve(b), ref.solve(b))


def test_blocks_factor_in_place_as_their_sliced_copies(cfg_ring, monkeypatch):
    # each block is factored off its system's own A, and gives the bits of
    # a Factored of the block sliced out as a copy, the way blocks were made
    lu_inputs, factor = [], fem.factor   # copied: SuperLU sorts its input's indices in place
    monkeypatch.setattr(fem, "factor", lambda A: lu_inputs.append(A.copy()) or factor(A))
    mesh = build_mesh(CANONICAL, 0.1)   # its own, so that no block is factored yet
    ext = exterior_system(mesh, cfg_ring)
    dop = auxiliary.dopant_system(mesh, cfg_ring)
    tags = [Bnd.GAMMA_OMEGA, *outer_dirichlet(ext.regions)]
    ext_order = fem.node_order(mesh, ext.regions, tags)   # positions in the block's rows
    block = ext.dirichlet_block(tags)
    block.lu   # each block's LU is factored on first use: here, in the order of the cases
    cases = [(ext, block.rows, ext_order, block)]
    B = auxiliary.exterior_schur(ext)
    order = fem.node_order(mesh, ext.regions, outer_dirichlet(ext.regions), [Bnd.GAMMA_OMEGA])
    cases.append((ext, B.rows, order, B))
    block = dop.dirichlet_block([Bnd.GAMMA_D])
    block.lu
    cases.append((dop, block.rows, fem.node_order(mesh, dop.regions, [Bnd.GAMMA_D]), block))
    assert len(lu_inputs) == len(cases)
    rng = np.random.default_rng(5)
    for (system, rows, order, ff), lu_input in zip(cases, lu_inputs):
        assert ff.A is system.A
        A_ff = system.A[np.ix_(rows, rows)].tocsc()
        ref_input = A_ff[order][:, order].tocsc()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lu_input, name), getattr(ref_input, name)), name
        ref = fem.Factored(A_ff, order)
        assert ff.norm == ref.norm
        b = rng.standard_normal((len(rows), 2)) @ np.array([1.0, 1.0j])
        assert np.array_equal(ff.lu_solve(b), ref.lu_solve(b))
        assert np.array_equal(ff.solve(b), ref.solve(b))


def test_factoring_a_block_leaves_its_systems_matrix_unchanged(cfg_ring):
    # SuperLU sorts its input's indices in place: each block hands it a fresh
    # cut, never its system's A
    mesh = build_mesh(CANONICAL, 0.1)
    ext = exterior_system(mesh, cfg_ring)
    dop = auxiliary.dopant_system(mesh, cfg_ring)
    before = [(A, A.indptr.copy(), A.indices.copy(), A.data.copy()) for A in (ext.A, dop.A)]
    ext.dirichlet_block([Bnd.GAMMA_OMEGA, *outer_dirichlet(ext.regions)]).lu
    auxiliary.exterior_schur(ext)
    dop.dirichlet_block([Bnd.GAMMA_D]).lu
    for A, indptr, indices, data in before:
        assert np.array_equal(A.indptr, indptr)
        assert np.array_equal(A.indices, indices)
        assert np.array_equal(A.data, data)


def test_a_block_folds_only_where_its_matrix_is_invariant(cfg_ring):
    # the mesh and the data are invariant; the matrix, moved at one free node's
    # diagonal, is checked against the turn's tolerance, never assumed
    mesh = build_mesh(CANONICAL, 0.1)
    ext = exterior_system(mesh, cfg_ring)
    tags = [Bnd.GAMMA_OMEGA, *outer_dirichlet(ext.regions)]
    i = fem.split_nodes(mesh, ext.regions, tags)[0][0]
    for moved, folds in ((1e-13, True), (1e-9, False)):
        A = ext.A.copy()
        A[i, i] *= 1.0 + moved
        block = fem.LinearSystem(mesh, ext.regions, A).dirichlet_block(tags, fold=True)
        assert isinstance(block, fem.FoldedBlock) == folds


def test_a_block_folds_only_where_its_triangles_turn_too():
    # a centred grid's nodes turn onto nodes, its diagonals do not: the mass
    # matrix has entries across the diagonals, so the matrix check refuses
    grid = structured_rectangle_mesh(5, 5, 2.0, 2.0, origin=(-1.0, -1.0))
    assert grid.quarter_turn(Region.EXTERIOR) is not None
    system = assemble(grid, Region.EXTERIOR, {Region.EXTERIOR: 1.0}, {Region.EXTERIOR: 1.0})
    rhs = np.zeros(len(system.nodes))
    assert system.turn_invariant(rhs, {Bnd.GAMMA_OMEGA: 1.0})
    block = system.dirichlet_block([Bnd.GAMMA_OMEGA], fold=True)
    assert not isinstance(block, fem.FoldedBlock)
    # the Laplacian alone has no entry across a right triangle's hypotenuse
    laplace = fem.LinearSystem(grid, system.regions, stiffness_matrix(grid, Region.EXTERIOR))
    assert isinstance(laplace.dirichlet_block([Bnd.GAMMA_OMEGA], fold=True), fem.FoldedBlock)
    u = solve(laplace, rhs, {Bnd.GAMMA_OMEGA: 1.0})
    assert np.allclose(u.values, 1.0, rtol=0, atol=1e-14)


def test_dirichlet_blocks_trim_the_heap_right_before_their_lu(cfg_ring, monkeypatch):
    # an exterior solve makes a folded or full block, unfactored;
    # its first lu_solve trims the heap and factors.  Factoring when
    # the block is made put the source load and the solves' temporaries under
    # the LU's peak, and trimming then but factoring later did too:
    # convergence-table's manifest peak_rss_mb at h = 0.05 rose by about 28
    # and 26 MB.
    calls = []
    trim, factor = fem.trim_heap, fem.factor
    monkeypatch.setattr(fem, "trim_heap", lambda: calls.append("trim") or trim())
    monkeypatch.setattr(fem, "factor", lambda A: calls.append(A.dtype) or factor(A))
    mesh = build_mesh(CANONICAL, 0.1)
    auxiliary.solve_s(mesh, cfg_ring)   # makes the exterior's folded block
    assert calls == ["trim", np.dtype(complex)]
    calls.clear()
    # a load the quarter turn moves makes the full block, on a mesh of its own
    disk = PhysicsConfig(sources=SourceSpec((SourceDisk((2.5, 0.0), 0.2),)))
    auxiliary.solve_s(build_mesh(CANONICAL, 0.1), disk)
    assert calls == ["trim", np.dtype(complex)]
    calls.clear()
    # the guard factors the dopant block, and the solve reuses it
    auxiliary.solve_psi_d(mesh, cfg_ring)
    assert calls == ["trim", np.dtype(complex)]


def _per_triangle_source_load(mesh, regions, sources):
    """Reference load: each cut triangle subdivided on its own, in turn."""
    pos = mesh.region_pos(regions)
    out = np.zeros(len(mesh.region_nodes(regions)), dtype=complex)
    tri_idx = np.where(mesh.region_triangles(regions))[0]
    tris = mesh.triangles[tri_idx]
    pts = mesh.nodes[tris]
    area = mesh.tri_areas[tri_idx]
    sub = []
    for i in range(16):
        for j in range(16 - i):
            sub.append(((3 * i + 1) / 48, (3 * j + 1) / 48))
            if j < 16 - i - 1:
                sub.append(((3 * i + 2) / 48, (3 * j + 2) / 48))
    l1, l2 = np.asarray(sub).T
    lam = np.column_stack([1.0 - l1 - l2, l1, l2])
    for src in sources.disks:
        if hasattr(src, "r1"):
            d_min = fem._dist_point_tri(np.zeros(2), pts)
            d_max = np.linalg.norm(pts, axis=2).max(axis=1)
            inside_all = (d_min >= src.r1) & (d_max <= src.r2)
            outside_all = (d_max <= src.r1) | (d_min >= src.r2)

            def indicator(p, lo=src.r1, hi=src.r2):
                r = np.linalg.norm(p, axis=1)
                return (r >= lo) & (r <= hi)
        else:
            ctr = np.asarray(src.center)
            inside_all = np.linalg.norm(pts - ctr, axis=2).max(axis=1) <= src.radius
            outside_all = fem._dist_point_tri(ctr, pts) > src.radius

            def indicator(p, c=ctr, rad=src.radius):
                return ((p - c) ** 2).sum(axis=1) <= rad * rad
        cut = ~inside_all & ~outside_all
        w_full = src.amplitude * area[inside_all] / 3.0
        np.add.at(out, pos[tris[inside_all]].ravel(), np.repeat(w_full, 3))
        for t in np.where(cut)[0]:
            inside = indicator(lam @ pts[t])
            out[pos[tris[t]]] += src.amplitude * (lam[inside].sum(axis=0) * (area[t] / 256))
    return out


def test_source_load_matches_per_triangle_reference(mesh_coarse):
    disk = SourceSpec((SourceDisk((1.7, -0.9), 0.35, 0.7 - 1.3j),))
    regions = [Region.DOPANT, Region.ENZ, Region.EXTERIOR, Region.PML]
    for mesh in (mesh_coarse, build_mesh(GENERIC_SPEC, 0.1)):
        for sources in (RING_SOURCE, disk):
            load = fem.source_load(mesh, regions, sources)
            assert np.array_equal(load, _per_triangle_source_load(mesh, regions, sources))


def test_source_load_where_an_edge_dips_into_the_support():
    # every vertex of these triangles lies outside the disk, or inside the
    # ring's inner circle, yet an edge crosses it: only the exact distance
    # to the triangle finds the cut
    cases = [(structured_rectangle_mesh(8, 8),
              SourceSpec((SourceDisk((0.5625, -0.05), 0.055, 1.0 - 0.5j),))),
             (structured_rectangle_mesh(8, 8, origin=(-0.5625, 1.0)),
              SourceSpec((SourceRing(1.001, 3.0, 2.0),)))]
    for mesh, sources in cases:
        load = fem.source_load(mesh, Region.EXTERIOR, sources)
        ref = _per_triangle_source_load(mesh, frozenset({int(Region.EXTERIOR)}), sources)
        assert np.array_equal(load, ref)
        bottom = np.flatnonzero(mesh.nodes[:, 1] == mesh.nodes[:, 1].min())
        assert load[bottom].any()


def test_source_load_is_kept_read_only(mesh_coarse):
    regions = [Region.DOPANT, Region.ENZ, Region.EXTERIOR, Region.PML]
    load = fem.source_load(mesh_coarse, regions, RING_SOURCE)
    assert fem.source_load(mesh_coarse, set(regions), RING_SOURCE) is load
    with pytest.raises(ValueError):
        load[0] = 1.0
    other = SourceSpec((SourceDisk((1.7, -0.9), 0.35),))
    assert not np.array_equal(fem.source_load(mesh_coarse, regions, other), load)


def _elementwise_norms(field, tri_mask):
    """Reference (h1, l2, seminorm): vertex values and gradients, triangle by triangle."""
    vals, gx, gy, area = fem._tri_values_and_grads(field, tri_mask)
    semi_sq = float((np.abs(gx) ** 2 + np.abs(gy) ** 2) @ area)
    # u^H M_T u with the consistent elemental mass A/12 (ones + eye)
    l2_sq = float((((np.abs(vals) ** 2).sum(axis=1) + np.abs(vals.sum(axis=1)) ** 2) / 12.0)
                  @ area)
    return math.sqrt(semi_sq + l2_sq), math.sqrt(l2_sq), math.sqrt(semi_sq)


def _form_norms(field, window):
    h1, l2 = fem.h1_l2_norms(field, window)
    assert h1 == h1_norm(field, window) and l2 == l2_norm(field, window)
    return h1, l2, fem.h1_seminorm(field, window)


def _disk_mask(field, disk):
    (cx, cy), r = disk.center, disk.radius
    cen = field.mesh.tri_centroids
    return (field.mesh.region_triangles(field.regions)
            & ((cen[:, 0] - cx) ** 2 + (cen[:, 1] - cy) ** 2 <= r * r))


def test_norm_forms_match_elementwise_reference(mesh_coarse, cfg_ring):
    rng = np.random.default_rng(11)
    disk = Circle((0.2, -0.1), 1.5)
    for mesh in (mesh_coarse, build_mesh(GENERIC_SPEC, 0.1)):
        engine = CorrectorEngine(mesh, cfg_ring)
        hier = engine.build_hierarchy(1)
        d = 0.02 - 0.01j
        u = direct.solve_transmission(mesh, dataclasses.replace(cfg_ring, delta=d))
        v = engine.assemble_expansion(hier, d, order=1)
        fields = [u - v]
        for regions in (u.regions, Region.ENZ):
            n = len(mesh.region_nodes(regions))
            fields.append(ScalarField(mesh, regions, rng.standard_normal(n)
                                      + 1j * rng.standard_normal(n)))
        for field in fields:
            region_window = direct.PHYSICAL_REGIONS & field.regions
            for window, mask in ((region_window, mesh.region_triangles(region_window)
                                  & mesh.region_triangles(field.regions)),
                                 (disk, _disk_mask(field, disk))):
                got, ref = _form_norms(field, window), _elementwise_norms(field, mask)
                assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_seminorm_of_near_constant_field(mesh_coarse, cfg_ring):
    # at delta = 1e-4 the shell field is constant up to 1e-4: an unshifted
    # x^H K x cancels to about 1e-6 relative there
    u = direct.solve_transmission(mesh_coarse, dataclasses.replace(cfg_ring, delta=1e-4))
    ref = _elementwise_norms(u, mesh_coarse.region_triangles(Region.ENZ))[2]
    assert fem.h1_seminorm(u, Region.ENZ) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_region_tuple_is_not_a_disk(mesh_coarse, cfg_ring):
    u = direct.solve_transmission(mesh_coarse, cfg_ring)
    physical = (Region.DOPANT, Region.ENZ, Region.EXTERIOR)
    # (0, 1, 2) are the codes of the same three regions
    norms = {h1_norm(u, w) for w in (physical, list(physical), set(physical), (0, 1, 2))}
    assert norms == {h1_norm(u, direct.PHYSICAL_REGIONS)}
    # a disk is a Circle, of floats or of ints alike
    disk = Circle((0.0, 1.0), 2.0)
    ref = _elementwise_norms(u, _disk_mask(u, disk))[0]
    assert h1_norm(u, disk) == pytest.approx(ref, rel=1e-13, abs=0.0)
    assert h1_norm(u, Circle((0, 1), 2)) == h1_norm(u, disk) != norms.pop()


def test_region_codes_name_regions_in_every_container(aux_coarse):
    # read as a disk, (1, 2, 3) was the disk of radius 3 about (1, 2)
    windows = ((1, 2, 3), [1, 2, 3], {Region.ENZ, Region.EXTERIOR, Region.PML})
    norms = {h1_norm(aux_coarse.s, w) for w in windows}
    assert norms == {h1_norm(aux_coarse.s)}   # the source field lives on 2 and 3


@pytest.mark.parametrize("code", [7, -1])
def test_unknown_region_code_raises(mesh_coarse, code):
    def field(regions):
        return ScalarField(mesh_coarse, regions, np.zeros(0, dtype=complex))

    for make in (_as_region_set, mesh_coarse.region_nodes, field):
        for regions in (code, [Region.ENZ, code]):
            with pytest.raises(ValueError):
                make(regions)


def test_disk_window_includes_its_rim():
    mesh = structured_rectangle_mesh(8, 8)
    x, y = mesh.nodes[mesh.region_nodes(Region.EXTERIOR)].T
    field = ScalarField(mesh, Region.EXTERIOR, x * x + 2j * y)
    cx, cy = mesh.tri_centroids[72]
    disk = Circle((cx, cy / 2), cy / 2)   # halving is exact: the rim meets the centroid
    assert not disk.contains(mesh.tri_centroids[72:73])[0]
    assert _disk_mask(field, disk)[72]
    got = fem.h1_l2_norms(field, disk)
    assert np.allclose(got, _elementwise_norms(field, _disk_mask(field, disk))[:2],
                       rtol=1e-13, atol=0.0)
    # the norms of the same disk as the 3-tuple window (cx, cy / 2, cy / 2),
    # when a tuple of three numbers was read as a disk
    assert got == (1.1586881482935478, 0.34111865374592315)


def test_every_form_of_a_region_set_gives_one_result(mesh_coarse):
    groups = ((Region.ENZ, 1, np.int16(1), [1], {Region.ENZ}, frozenset({1})),
              ([0, 1], {Region.DOPANT, 1}, frozenset({0, Region.ENZ}), (Region.ENZ, 0)))
    rng = np.random.default_rng(3)
    for group in groups:
        nodes = mesh_coarse.region_nodes(group[0])
        values = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
        results = []
        for regions in group:
            A = assemble(mesh_coarse, regions, {Region.DOPANT: 1.0, 1: 2.0 + 1.0j},
                         {0: 3.0, Region.ENZ: 0.5}).A.tocsr()
            neumann = NeumannSystem(mesh_coarse, regions)
            x = mesh_coarse.nodes[neumann.nodes, 0]
            vol = neumann.m_vec * (x - neumann.m_vec @ x / neumann.area)
            phi = neumann.solve(vol, {})
            field = ScalarField(mesh_coarse, regions, values)
            results.append((A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes(),
                            phi.values.tobytes(), h1_norm(field), h1_norm(field, regions)))
        assert len(set(results)) == 1


@pytest.mark.parametrize("r", [-1.0, 0.0, math.nan])
def test_disk_window_needs_a_positive_radius(r):
    # (0, 0, -1) would otherwise select the disk of radius 1; no such window can be made
    with pytest.raises(GeometryInvalid):
        Circle((0.0, 0.0), r)


def test_empty_window_raises_and_caches_nothing():
    mesh = structured_rectangle_mesh(8, 8)
    field = ScalarField(mesh, Region.EXTERIOR,
                        np.ones(len(mesh.region_nodes(Region.EXTERIOR)), dtype=complex))
    for _ in range(2):
        with pytest.raises(EmptyWindow):
            h1_norm(field, window=Circle((10.0, 10.0), 0.1))
    assert not any(name[0] == "norm forms" for name in mesh._memo if isinstance(name, tuple))
