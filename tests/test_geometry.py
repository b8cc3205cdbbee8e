import dataclasses
import math

import numpy as np
import pytest

from enzlab import geometry
from enzlab.auxiliary import _physical_rim
from enzlab.errors import GeometryInvalid, MeshFailure
from enzlab.fem import split_nodes
from enzlab.geometry import (Bnd, Circle, DomainSpec, Polygon, Region,
                             SourceDisk, SourceRing, SourceSpec, _Builder, build_mesh,
                             load_mesh, region_measures, save_mesh,
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
    with pytest.raises(GeometryInvalid, match="strictly inside the scatterer"):
        DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 1.2),
                   truncation_radius=4.0, pml_thickness=1.0)


def _spec(**kwargs):
    return dataclasses.replace(CANONICAL, **kwargs)


@pytest.mark.parametrize("make", [
    lambda: Circle((0.0, 0.0), 0.0),
    lambda: Circle((0.0, 0.0), -1.0),
    lambda: Circle((0.0, 0.0), math.nan),
    lambda: Circle((0.0, 0.0), math.inf),
    lambda: Circle((math.nan, 0.0), 1.0),
    lambda: Polygon(((0.0, 0.0), (1.0, 0.0), (math.nan, 1.0))),
    lambda: Polygon(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))),   # no area
    lambda: SourceRing(2.7, 2.3),
    lambda: SourceRing(0.0, 1.0),
    lambda: SourceDisk((2.5, 0.0), 0.0),
    lambda: SourceDisk((2.5, 0.0), -0.2),
    lambda: _spec(truncation_radius=math.nan),
    lambda: _spec(truncation_radius=0.0),
    lambda: _spec(pml_thickness=-1.0),
    lambda: _spec(pml_thickness=math.nan),
    lambda: _spec(dopant=Circle((0.8, 0.0), 0.3)),   # leaves the scatterer
], ids=["circle-r0", "circle-r-1", "circle-rnan", "circle-rinf", "circle-nan-centre",
        "polygon-nan-vertex", "polygon-no-area", "ring-r1-above-r2", "ring-r1-zero",
        "disk-r0", "disk-r-neg", "truncation-nan", "truncation-0", "collar-neg",
        "collar-nan", "dopant-outside"])
def test_bad_values_are_refused_when_made(make):
    with pytest.raises(GeometryInvalid):
        make()


C_SHAPE = Polygon(((-0.5, -0.5), (0.5, -0.5), (0.5, -0.3), (-0.3, -0.3), (-0.3, 0.3),
                   (0.5, 0.3), (0.5, 0.5), (-0.5, 0.5)))


@pytest.mark.parametrize("make, message", [
    (lambda: Polygon(((-1, -1), (1, -1), (1, -1), (1, 1), (-1, 1))),
     r"repeats vertex \(1, -1\) as vertices 2 and 3"),
    (lambda: Polygon(((-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1))),
     r"repeats vertex \(-1, -1\) as vertices 5 and 1"),
    (lambda: _spec(dopant=C_SHAPE), "star-shaped about its centroid"),
], ids=["repeated-vertex", "last-repeats-first", "dopant-not-star-shaped"])
def test_refusals_name_their_rule(make, message):
    with pytest.raises(GeometryInvalid, match=message):
        make()


def test_clockwise_star_shaped_dopant_passes():
    # given clockwise, the square is normalized to counterclockwise before
    # its edges are checked against the centroid
    _spec(dopant=Polygon(((-0.25, -0.25), (-0.25, 0.25), (0.25, 0.25), (0.25, -0.25))))


def test_circles_and_disks_keep_float_fields():
    for obj in (Circle((0, 1), 2), SourceDisk((0, 1), 2)):
        assert obj.center == (0.0, 1.0) and obj.radius == 2.0
        assert all(type(v) is float for v in (*obj.center, obj.radius))


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


def _brute_force_edges(mesh):
    """Each edge as a sorted node pair, in first-reach order: its regions and its triangles."""
    edge_owner, edge_tris = {}, {}
    for t_idx, tri in enumerate(mesh.triangles):
        for k in range(3):
            key = tuple(sorted((int(tri[k]), int(tri[(k + 1) % 3]))))
            edge_owner.setdefault(key, []).append(int(mesh.tri_region[t_idx]))
            edge_tris.setdefault(key, []).append(t_idx)
    return edge_owner, edge_tris


def test_interface_edges_pair_correct_regions():
    mesh = build_mesh(CANONICAL, 0.15)
    # adjacency audit: every tagged edge must separate the right two regions
    edge_owner, edge_tris = _brute_force_edges(mesh)
    expected = {Bnd.GAMMA_D: {int(Region.DOPANT), int(Region.ENZ)},
                Bnd.GAMMA_OMEGA: {int(Region.ENZ), int(Region.EXTERIOR)}}
    for tag, want in expected.items():
        for i, j in mesh.boundary_edges[tag]:
            owners = edge_owner[tuple(sorted((int(i), int(j))))]
            assert len(owners) == 2 and set(owners) == want
    for i, j in mesh.boundary_edges[Bnd.GAMMA_INF]:
        owners = edge_owner[tuple(sorted((int(i), int(j))))]
        assert len(owners) == 1
    # the radiation rim read off node sets: with a collar, the EXTERIOR-PML
    # edges in first-reach order, each with its EXTERIOR triangle
    want = [e for e, regs in edge_owner.items()
            if sorted(regs) == [int(Region.EXTERIOR), int(Region.PML)]]
    _assert_rim(mesh, want,
                [[t for t in edge_tris[e] if mesh.tri_region[t] == Region.EXTERIOR] for e in want])
    # without a collar, the GAMMA_INF loop, each edge with its one triangle
    robin = build_mesh(dataclasses.replace(CANONICAL, pml_thickness=0.0), 0.15)
    want = [tuple(sorted(e)) for e in robin.boundary_edges[Bnd.GAMMA_INF].tolist()]
    robin_tris = _brute_force_edges(robin)[1]
    _assert_rim(robin, want, [robin_tris[e] for e in want])


def _assert_rim(mesh, edges, tris):
    got_edges, got_tris = _physical_rim(mesh)
    assert [tuple(sorted(e)) for e in got_edges.tolist()] == edges
    assert [[t] for t in got_tris.tolist()] == tris
    on_rim = np.zeros(mesh.num_nodes, dtype=bool)
    on_rim[got_edges] = True
    assert (on_rim[mesh.triangles[mesh.tri_region == Region.EXTERIOR]].sum(axis=1) < 3).all()


def test_topology_queries_memoized_and_read_only():
    mesh = build_mesh(CANONICAL, 0.15)
    nodes = mesh.region_nodes([Region.ENZ, Region.DOPANT])
    assert mesh.region_nodes((int(Region.DOPANT), Region.ENZ)) is nodes
    pos = mesh.region_pos([Region.DOPANT, Region.ENZ])
    assert (pos[nodes] == np.arange(len(nodes))).all() and (pos >= 0).sum() == len(nodes)
    on_bnd = {int(x) for e in mesh.boundary_edges.values() for x in e.ravel()}
    for reg in Region:
        reg_nodes = mesh.region_nodes(reg)
        tags = [t for t in Bnd if set(mesh.boundary_nodes(t)) <= set(reg_nodes)]
        off, on = split_nodes(mesh, reg, tags)
        assert reg_nodes[off].tolist() == [n for n in reg_nodes.tolist() if n not in on_bnd]
        assert reg_nodes[on].tolist() == [n for n in reg_nodes.tolist() if n in on_bnd]
    for arr in (nodes, pos, mesh.region_triangles(Region.ENZ)):
        assert not arr.flags.writeable


def test_normals_point_outward(tmp_path):
    mesh = build_mesh(CANONICAL, 0.15)
    save_mesh(mesh, tmp_path / "mesh.txt")
    loaded = load_mesh(tmp_path / "mesh.txt")
    rect = structured_rectangle_mesh(4, 3, 2.0, 1.5, origin=(-1.0, -0.75))
    for m in (mesh, rect, loaded):
        for tag, edges in m.boundary_edges.items():
            normals = m.boundary_normals[tag]
            mids = 0.5 * (m.nodes[edges[:, 0]] + m.nodes[edges[:, 1]])
            # outward from the origin-centered enclosed domain
            assert (np.einsum("ij,ij->i", normals, mids) > 0).all()
            assert not normals.flags.writeable
    for tag in mesh.boundary_edges:
        assert np.array_equal(loaded.boundary_normals[tag], mesh.boundary_normals[tag])


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


def _merge_band_loop(self, ring_in, ring_out, center):
    """The ring merge as a sweep over both rings, one triangle per step."""
    (a, ta), (b, tb) = self._merge_coords(ring_in, ring_out, center)
    na, nb = len(a), len(b)
    tris = []
    i = j = 0
    while i < na or j < nb:
        pa = ta[(i + 1) % na] + (1.0 if i + 1 >= na else 0.0) if i < na else math.inf
        pb = tb[(j + 1) % nb] + (1.0 if j + 1 >= nb else 0.0) if j < nb else math.inf
        if pa <= pb:
            tris.append((a[i % na], b[j % nb], a[(i + 1) % na]))
            i += 1
        else:
            tris.append((a[i % na], b[j % nb], b[(j + 1) % nb]))
            j += 1
    self.tris.append(np.array(tris))


BAND_SPECS = pytest.mark.parametrize("spec", [
    CANONICAL,
    DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.3, 0.0), 0.2),
               truncation_radius=4.0, pml_thickness=1.0),
    DomainSpec(outer=Polygon(((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))),
               dopant=Circle((0.0, 0.0), 0.3), truncation_radius=4.0, pml_thickness=0.0),
], ids=["canonical", "offcentre", "square_no_collar"])


def _assert_same_mesh(mesh, ref):
    assert np.array_equal(mesh.nodes, ref.nodes)
    assert np.array_equal(mesh.triangles, ref.triangles)
    assert np.array_equal(mesh.tri_region, ref.tri_region)
    assert mesh.boundary_edges.keys() == ref.boundary_edges.keys()
    for tag, edges in ref.boundary_edges.items():
        assert np.array_equal(mesh.boundary_edges[tag], edges)


@BAND_SPECS
def test_merge_band_matches_sweep_loop(monkeypatch, spec):
    mesh = build_mesh(spec, 0.1)
    monkeypatch.setattr(_Builder, "merge_band", _merge_band_loop)
    _assert_same_mesh(mesh, build_mesh(spec, 0.1))


def _param_grid_loop(self, spacing):
    """The polygon grid one parameter at a time."""
    v = self._v()
    lens = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    cum = np.concatenate(([0.0], np.cumsum(lens)))
    total = cum[-1]
    params = []
    for e, le in enumerate(lens):
        m = max(1, int(math.ceil(le / spacing)))
        params.extend((cum[e] + le * k / m) / total for k in range(m))
    return np.asarray(params)


@BAND_SPECS
@pytest.mark.parametrize("h", [0.1, 0.05])
def test_band_parameters_match_per_ring_loop(monkeypatch, spec, h):
    # the band's parameter offset once per band and the polygon grid per
    # edge give the mesh of an offset found again for every ring and a grid
    # built one parameter at a time
    mesh = build_mesh(spec, h)
    blend = geometry._blend_params
    monkeypatch.setattr(geometry, "_blend_params", lambda c_in, c_out, tau, spacing, off: blend(
        c_in, c_out, tau, spacing, geometry._param_offset(c_in, c_out)))
    monkeypatch.setattr(Polygon, "param_grid", _param_grid_loop)
    _assert_same_mesh(mesh, build_mesh(spec, h))


def test_too_coarse_h_rejected():
    with pytest.raises(MeshFailure):
        build_mesh(CANONICAL, 0.5)


def test_node_cap_refuses_a_mesh_before_building_it(monkeypatch):
    mesh = build_mesh(CANONICAL, 0.2)
    # the estimate stays below the true count, so a cap at the true count passes
    monkeypatch.setattr(geometry, "MAX_NODES", mesh.num_nodes)
    build_mesh(CANONICAL, 0.2)
    monkeypatch.setattr(geometry, "MAX_NODES", mesh.num_nodes // 2)
    monkeypatch.setattr(geometry, "_Builder", None)   # nothing may be built
    with pytest.raises(MeshFailure, match="above the cap"):
        build_mesh(CANONICAL, 0.2)
    monkeypatch.undo()
    for h in (1e-4, 1e-300):   # 7.5e9 nodes; a count that overflows to inf
        with pytest.raises(MeshFailure, match="above the cap of 1,000,000"):
            build_mesh(CANONICAL, h)


def test_spec_evaluates_the_interface_gap_once(monkeypatch):
    calls = []
    samples = geometry._curve_samples

    def counted(shape, n):
        if n == 512:   # the gap's samples; a build samples its bands at 256
            calls.append(shape)
        return samples(shape, n)

    monkeypatch.setattr(geometry, "_curve_samples", counted)
    spec = _spec(dopant=Circle((0.1, 0.0), 0.3))
    assert calls == [spec.dopant, spec.outer]   # one evaluation, when made
    build_mesh(spec, 0.2)
    assert len(calls) == 2                      # and none per build
    # the gap is the pairwise minimum over 512 samples of each curve
    a = samples(spec.dopant, 512)
    b = samples(spec.outer, 512)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert spec.interface_gap == float(np.sqrt(d2.min()))
    assert "interface_gap" not in repr(spec) and spec == _spec(dopant=spec.dopant)


def _min_angle_every_corner(mesh):
    """The smallest corner angle in degrees, an arccos at every corner."""
    p = mesh.nodes[mesh.triangles]
    lens = np.linalg.norm(np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]),
                          axis=2)
    a, b, c = lens
    cosines = [(s1**2 + s2**2 - opp**2) / (2 * s1 * s2)
               for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b))]
    return min(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min() for cos in cosines)


@BAND_SPECS
def test_quality_floor_is_the_true_minimum_angle(monkeypatch, spec):
    true_min = _min_angle_every_corner(build_mesh(spec, 0.1))
    monkeypatch.setattr(geometry, "QUALITY_MIN_ANGLE_DEG", true_min + 1e-9)
    message = f"^minimum angle {true_min:.2f} deg below quality floor$"
    with pytest.raises(MeshFailure, match=message):
        build_mesh(spec, 0.1)
    monkeypatch.setattr(geometry, "QUALITY_MIN_ANGLE_DEG", true_min - 1e-9)
    build_mesh(spec, 0.1)


def test_source_validation():
    # what relates a source to the domain; a source checks its own fields when made
    SourceSpec((SourceDisk((2.5, 0.0), 0.2), SourceRing(2.3, 2.7))).validate(CANONICAL)
    for bad in (SourceDisk((0.5, 0.0), 0.2), SourceDisk((2.95, 0.0), 0.2),
                SourceRing(0.9, 2.7), SourceRing(2.3, 3.0)):
        with pytest.raises(GeometryInvalid):
            SourceSpec((bad,)).validate(CANONICAL)


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


# the line (the first triangle's or edge's), the word and its new value; a
# word past the row's end widens it, and no word cuts the file off there
_MALFORMED = {
    "negative node index": ("triangle", 0, "-1"),
    "node index past the end": ("edge", 1, "6"),
    "region code 7": ("triangle", 3, "7"),
    "boundary tag 5": ("edge", 2, "5"),
    "value that is not an integer": ("triangle", 1, "1.0"),
    "row of the wrong width": ("triangle", 4, "0"),
    "truncated file": ("edge", None, None),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_load_mesh_rejects_malformed_file(tmp_path, case):
    # each loaded silently, as an inverted or region-less triangle, or raised
    # numpy's or Enum's ValueError, before load_mesh checked its rows
    path = tmp_path / "mesh.txt"
    save_mesh(structured_rectangle_mesh(2, 1), path)   # 6 nodes, 4 triangles, 6 edges
    lines = path.read_text().splitlines()
    row, col, word = _MALFORMED[case]
    n = {"triangle": 7, "edge": 11}[row]   # zero-based
    if col is None:
        del lines[n:]
    else:
        words = lines[n].split()
        words[col:col + 1] = [word]
        lines[n] = " ".join(words)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFailure, match=f"^{path}, line {n + 1}: "):
        load_mesh(path)


def test_rectangle_helper_topology():
    mesh = structured_rectangle_mesh(4, 3)
    assert mesh.num_triangles == 24
    assert (mesh.tri_areas > 0).all()
    assert mesh.tri_areas.sum() == pytest.approx(1.0)
