import math

import numpy as np
import pytest

from enzlab.errors import GeometryInvalid, MeshFailure
from enzlab.geometry import (Bnd, Circle, DomainSpec, Polygon, Region,
                             SourceDisk, SourceSpec, build_mesh, load_mesh,
                             region_measures, save_mesh,
                             structured_rectangle_mesh)

CANONICAL = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                       dopant=Circle((0.0, 0.0), 0.3),
                       truncation_radius=4.0, pml_thickness=1.0)


def test_canonical_mesh_has_all_region_tags():
    mesh = build_mesh(CANONICAL, 0.1)
    present = set(np.unique(mesh.tri_region))
    assert present == {int(r) for r in Region}
    for tag in (Bnd.GAMMA_D, Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF):
        edges = mesh.boundary_edges[tag]
        # closed loop: each node appears once as head and once as tail
        assert sorted(edges[:, 0]) == sorted(edges[:, 1])


def test_dopant_not_inside_scatterer_rejected():
    bad = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                     dopant=Circle((0.0, 0.0), 1.2),
                     truncation_radius=4.0, pml_thickness=1.0)
    with pytest.raises(GeometryInvalid):
        build_mesh(bad, 0.1)


def test_refinement_doubles_boundary_edges_and_converges_areas():
    areas_err = []
    edge_counts = []
    for h in (0.2, 0.1, 0.05):
        mesh = build_mesh(CANONICAL, h)
        m = region_measures(mesh)
        exact_dop = math.pi * 0.3**2
        exact_enz = math.pi * (1.0 - 0.3**2)
        err = abs(m["areas"][Region.DOPANT] - exact_dop) + abs(m["areas"][Region.ENZ] - exact_enz)
        areas_err.append(err)
        edge_counts.append(len(mesh.boundary_edges[Bnd.GAMMA_OMEGA]))
    for fine, coarse in zip(edge_counts[1:], edge_counts[:-1]):
        assert 1.7 <= fine / coarse <= 2.3
    rates = [math.log2(areas_err[i] / areas_err[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


def test_boundary_length_convergence_rate():
    errs = []
    for h in (0.2, 0.1, 0.05):
        mesh = build_mesh(CANONICAL, h)
        m = region_measures(mesh)
        errs.append(abs(m["lengths"][Bnd.GAMMA_OMEGA] - 2 * math.pi))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


def test_zero_collar_thickness_means_no_pml_region():
    spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 0.3),
                      truncation_radius=4.0, pml_thickness=0.0)
    mesh = build_mesh(spec, 0.15)
    m = region_measures(mesh)
    assert m["areas"][Region.PML] == 0.0
    assert mesh.pml_inner_radius is None


def test_interface_edges_pair_correct_regions():
    mesh = build_mesh(CANONICAL, 0.15)
    # adjacency audit: every tagged edge must separate the right two regions
    edge_owner, edge_tris = {}, {}
    for t_idx, tri in enumerate(mesh.triangles):
        for k in range(3):
            key = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
            edge_owner.setdefault(key, []).append(int(mesh.tri_region[t_idx]))
            edge_tris.setdefault(key, []).append(t_idx)
    expected = {Bnd.GAMMA_D: {int(Region.DOPANT), int(Region.ENZ)},
                Bnd.GAMMA_OMEGA: {int(Region.ENZ), int(Region.EXTERIOR)}}
    for tag, want in expected.items():
        for i, j in mesh.boundary_edges[tag]:
            owners = edge_owner[tuple(sorted((int(i), int(j))))]
            assert len(owners) == 2 and set(owners) == want
    for i, j in mesh.boundary_edges[Bnd.GAMMA_INF]:
        owners = edge_owner[tuple(sorted((int(i), int(j))))]
        assert len(owners) == 1
    # the vectorized edge map reproduces the brute-force owners, in order
    for a, b in ((Region.ENZ, Region.EXTERIOR), (Region.DOPANT, Region.ENZ),
                 (Region.EXTERIOR, Region.PML)):
        want = [e for e, regs in edge_owner.items()
                if sorted(regs) == sorted((int(a), int(b)))]
        got = mesh.interface_edges(a, b)
        assert [tuple(e) for e in got.tolist()] == want
        assert mesh.edge_triangles(got).tolist() == [edge_tris[e] for e in want]
    inf = mesh.edge_triangles(mesh.boundary_edges[Bnd.GAMMA_INF]).tolist()
    assert inf == [edge_tris[tuple(sorted((int(i), int(j))))] + [-1]
                   for i, j in mesh.boundary_edges[Bnd.GAMMA_INF]]


def test_topology_queries_memoized_and_read_only():
    mesh = build_mesh(CANONICAL, 0.15)
    nodes = mesh.region_nodes([Region.ENZ, Region.DOPANT])
    assert mesh.region_nodes((int(Region.DOPANT), Region.ENZ)) is nodes
    pos = mesh.region_pos([Region.DOPANT, Region.ENZ])
    assert (pos[nodes] == np.arange(len(nodes))).all() and (pos >= 0).sum() == len(nodes)
    on_bnd = {int(x) for e in mesh.boundary_edges.values() for x in e.ravel()}
    for reg in Region:
        want = [n for n in mesh.region_nodes(reg).tolist() if n not in on_bnd]
        assert mesh.interior_nodes(reg).tolist() == want
    for arr in (nodes, pos, mesh.region_triangles(Region.ENZ), mesh.interior_nodes(Region.ENZ)):
        assert not arr.flags.writeable


def test_normals_point_outward():
    mesh = build_mesh(CANONICAL, 0.15)
    for tag, center_sign in ((Bnd.GAMMA_D, 1.0), (Bnd.GAMMA_OMEGA, 1.0), (Bnd.GAMMA_INF, 1.0)):
        edges = mesh.boundary_edges[tag]
        normals = mesh.boundary_normals[tag]
        mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
        # outward from the origin-centered enclosed domain
        assert (np.einsum("ij,ij->i", normals, mids) * center_sign > 0).all()


def test_meshing_is_deterministic():
    m1 = build_mesh(CANONICAL, 0.12)
    m2 = build_mesh(CANONICAL, 0.12)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.tri_region, m2.tri_region)


def test_offcenter_dopant_meshes_cleanly():
    spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.3, 0.0), 0.2),
                      truncation_radius=4.0, pml_thickness=1.0)
    mesh = build_mesh(spec, 0.08)
    assert (mesh.tri_areas > 0).all()
    m = region_measures(mesh)
    # inscribed-polygon area deficit is O(h^2)
    assert m["areas"][Region.DOPANT] == pytest.approx(math.pi * 0.04, rel=2.5e-2)


def test_polygonal_dopant():
    sq = Polygon(((-0.25, -0.25), (0.25, -0.25), (0.25, 0.25), (-0.25, 0.25)))
    spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=sq,
                      truncation_radius=4.0, pml_thickness=1.0)
    mesh = build_mesh(spec, 0.1)
    m = region_measures(mesh)
    assert m["areas"][Region.DOPANT] == pytest.approx(0.25, rel=2e-2)
    assert m["lengths"][Bnd.GAMMA_D] == pytest.approx(2.0, rel=1e-6)


def test_too_coarse_h_rejected():
    with pytest.raises(MeshFailure):
        build_mesh(CANONICAL, 0.5)


def test_source_validation():
    SourceSpec((SourceDisk((2.5, 0.0), 0.2),)).validate(CANONICAL)
    with pytest.raises(GeometryInvalid):
        SourceSpec((SourceDisk((0.5, 0.0), 0.2),)).validate(CANONICAL)
    with pytest.raises(GeometryInvalid):
        SourceSpec((SourceDisk((2.95, 0.0), 0.2),)).validate(CANONICAL)


def test_mesh_io_roundtrip(tmp_path):
    mesh = build_mesh(CANONICAL, 0.15)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.allclose(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.tri_region, mesh.tri_region)
    for tag in mesh.boundary_edges:
        assert np.array_equal(back.boundary_edges[tag], mesh.boundary_edges[tag])
        assert np.allclose(back.boundary_normals[tag], mesh.boundary_normals[tag])


def test_rectangle_helper_topology():
    mesh = structured_rectangle_mesh(4, 3)
    assert mesh.num_triangles == 24
    assert (mesh.tri_areas > 0).all()
    assert mesh.tri_areas.sum() == pytest.approx(1.0)
