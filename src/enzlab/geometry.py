"""Region-conforming triangulations of a doped scatterer in a truncated plane.

The computational domain is a disk of radius ``truncation_radius`` split into
four concentric (not necessarily circular) regions:

* ``DOPANT``   -- interior of the dopant curve,
* ``ENZ``      -- annulus between the dopant curve and the outer scatterer curve,
* ``EXTERIOR`` -- annulus between the scatterer and the absorbing collar,
* ``PML``      -- optional absorbing collar of prescribed thickness.

Meshes are produced by a layered advancing front: each region is filled with
rings obtained by interpolating between its two bounding curves, and
consecutive rings are stitched by an angular merge sweep.  The construction is
fully deterministic.  Rings adjacent to the tagged interfaces reuse the
interface node count so that boundary nodes have radially aligned neighbours
(used by higher-order one-sided flux stencils).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import GeometryInvalid, MeshFailure, TagMismatch

QUALITY_MIN_ANGLE_DEG = 15.0
EDGE_LENGTH_FACTOR = 1.5


class Region(IntEnum):
    DOPANT = 0
    ENZ = 1
    EXTERIOR = 2
    PML = 3


class Bnd(IntEnum):
    GAMMA_D = 0
    GAMMA_OMEGA = 1
    GAMMA_INF = 2


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float

    def perimeter(self) -> float:
        return 2.0 * math.pi * self.radius

    def points(self, t: np.ndarray) -> np.ndarray:
        """Arclength-uniform boundary points at parameters ``t`` in [0, 1)."""
        ang = 2.0 * math.pi * np.asarray(t)
        cx, cy = self.center
        return np.column_stack((cx + self.radius * np.cos(ang),
                                cy + self.radius * np.sin(ang)))

    def param_grid(self, spacing: float) -> np.ndarray:
        # counts are multiples of 4 so concentric meshes carry an exact
        # quarter-turn symmetry (zero-mean eigenmodes then have exactly
        # zero discrete means)
        n = max(8, 4 * int(math.ceil(self.perimeter() / spacing / 4.0)))
        return np.arange(n) / n

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = np.asarray(pts) - np.asarray(self.center)
        return np.einsum("ij,ij->i", d, d) < self.radius**2

    def centroid(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    def circumradius(self) -> float:
        """Largest distance from the origin to the curve."""
        return math.hypot(*self.center) + self.radius

    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape[0] < 3:
            raise GeometryInvalid("polygon needs at least 3 vertices")
        if _signed_area(v) < 0:  # normalize to counterclockwise
            object.__setattr__(self, "vertices", tuple(map(tuple, v[::-1])))
        if _self_intersects(np.asarray(self.vertices, dtype=float)):
            raise GeometryInvalid("polygon is self-intersecting")

    def _v(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def perimeter(self) -> float:
        v = self._v()
        return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())

    def points(self, t: np.ndarray) -> np.ndarray:
        v = self._v()
        seg = np.roll(v, -1, axis=0) - v
        lens = np.linalg.norm(seg, axis=1)
        cum = np.concatenate(([0.0], np.cumsum(lens)))
        s = (np.asarray(t) % 1.0) * cum[-1]
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(v) - 1)
        frac = (s - cum[idx]) / lens[idx]
        return v[idx] + frac[:, None] * seg[idx]

    def param_grid(self, spacing: float) -> np.ndarray:
        """Monotone arclength parameters that hit every vertex."""
        v = self._v()
        lens = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        cum = np.concatenate(([0.0], np.cumsum(lens)))
        total = cum[-1]
        params = []
        for e, le in enumerate(lens):
            m = max(1, int(math.ceil(le / spacing)))
            params.extend((cum[e] + le * k / m) / total for k in range(m))
        return np.asarray(params)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        v = self._v()
        pts = np.atleast_2d(pts)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        x1, y1 = v[:, 0], v[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        for a1, b1, a2, b2 in zip(x1, y1, x2, y2):
            crosses = (b1 > y) != (b2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = a1 + (y - b1) * (a2 - a1) / (b2 - b1)
            inside ^= crosses & (x < xint)
        return inside

    def centroid(self) -> np.ndarray:
        v = self._v()
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        cx = ((x + xn) * cross).sum() / (6.0 * a)
        cy = ((y + yn) * cross).sum() / (6.0 * a)
        return np.array([cx, cy])

    def circumradius(self) -> float:
        return float(np.linalg.norm(self._v(), axis=1).max())

    def area(self) -> float:
        return float(abs(_signed_area(self._v())))


Shape = Union[Circle, Polygon]


def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _self_intersects(v: np.ndarray) -> bool:
    n = len(v)
    segs = [(v[i], v[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*segs[i], *segs[j]):
                return True
    return False


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


# ---------------------------------------------------------------------------
# specifications


@dataclass(frozen=True)
class SourceDisk:
    """Uniform-amplitude source supported on a disk in the exterior region."""

    center: tuple[float, float]
    radius: float
    amplitude: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class SourceRing:
    """Axisymmetric uniform source on the annulus r1 <= |x| <= r2.

    This is the source the radial oracle can represent exactly; disk sources
    are for generic (non-axisymmetric) runs.
    """

    r1: float
    r2: float
    amplitude: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class SourceSpec:
    disks: tuple = ()   # SourceDisk and/or SourceRing entries

    def validate(self, spec: "DomainSpec") -> None:
        physical_outer = spec.truncation_radius - spec.pml_thickness
        rim = _curve_samples(spec.outer, 512)
        for d in self.disks:
            if isinstance(d, SourceRing):
                if not (0 < d.r1 < d.r2):
                    raise GeometryInvalid("ring source needs 0 < r1 < r2")
                if d.r1 <= spec.outer.circumradius():
                    raise GeometryInvalid("ring source must lie strictly outside the scatterer")
                if d.r2 >= physical_outer:
                    raise GeometryInvalid("ring source must lie inside the physical exterior annulus")
                continue
            if d.radius <= 0:
                raise GeometryInvalid("source disk radius must be positive")
            dist_to_outer = np.linalg.norm(rim - np.asarray(d.center), axis=1).min()
            if spec.outer.contains(np.atleast_2d(d.center))[0] or dist_to_outer <= d.radius:
                raise GeometryInvalid("source disk must lie strictly outside the scatterer")
            if math.hypot(*d.center) + d.radius >= physical_outer:
                raise GeometryInvalid("source disk must lie inside the physical exterior annulus")

    def is_trivial(self) -> bool:
        return all(d.amplitude == 0 for d in self.disks) or not self.disks


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the doped scatterer with truncation and optional collar."""

    outer: Shape
    dopant: Shape
    truncation_radius: float
    pml_thickness: float = 0.0

    def validate(self) -> None:
        if self.truncation_radius <= 0:
            raise GeometryInvalid("truncation radius must be positive")
        if self.pml_thickness < 0:
            raise GeometryInvalid("collar thickness must be nonnegative")
        gap = self.interface_gap()
        if gap <= 0:
            raise GeometryInvalid("dopant closure must be strictly inside the scatterer")
        dop = _curve_samples(self.dopant, 256)
        if not self.outer.contains(dop).all():
            raise GeometryInvalid("dopant curve leaves the scatterer")
        if not self.outer.contains(np.atleast_2d(self.dopant.centroid())).all():
            raise GeometryInvalid("dopant centroid outside the scatterer")
        if self.outer.circumradius() >= self.truncation_radius - self.pml_thickness:
            raise GeometryInvalid("scatterer must sit strictly inside the physical truncation disk")

    def interface_gap(self) -> float:
        """Minimum distance between the dopant and scatterer curves."""
        a = _curve_samples(self.dopant, 512)
        b = _curve_samples(self.outer, 512)
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        if self.outer.contains(a).all():
            return float(np.sqrt(d2.min()))
        return -1.0


def _curve_samples(shape: Shape, n: int) -> np.ndarray:
    return shape.points(np.arange(n) / n)


# ---------------------------------------------------------------------------
# mesh container


@dataclass(eq=False)
class Mesh:
    """Immutable conforming triangulation with region and boundary tags.

    Topology queries are memoized per normalized region set and return
    read-only arrays shared by every caller.
    """

    nodes: np.ndarray                       # (N, 2) float64
    triangles: np.ndarray                   # (T, 3) int32, CCW
    tri_region: np.ndarray                  # (T,) int16
    boundary_edges: dict                    # Bnd -> (E, 2) int32, CCW loops
    boundary_normals: dict                  # Bnd -> (E, 2) float64, outward
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.tri_region):
            arr.setflags(write=False)
        for d in (self.boundary_edges, self.boundary_normals):
            for arr in d.values():
                arr.setflags(write=False)

    def _memoized(self, key, build) -> np.ndarray:
        arr = self._memo.get(key)
        if arr is None:
            arr = build()
            arr.setflags(write=False)
            self._memo[key] = arr
        return arr

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def tri_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    @cached_property
    def tri_centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    def region_triangles(self, regions) -> np.ndarray:
        regions = _as_region_set(regions)
        return self._memoized(("triangles", regions),
                              lambda: np.isin(self.tri_region, sorted(regions)))

    def region_nodes(self, regions) -> np.ndarray:
        """Sorted global indices of nodes touched by the given regions."""
        regions = _as_region_set(regions)
        return self._memoized(
            ("nodes", regions),
            lambda: np.unique(self.triangles[self.region_triangles(regions)]))

    def region_pos(self, regions) -> np.ndarray:
        """Position of each global node in ``region_nodes(regions)``, -1 outside."""
        regions = _as_region_set(regions)

        def build():
            nodes = self.region_nodes(regions)
            pos = np.full(self.num_nodes, -1, dtype=np.int64)
            pos[nodes] = np.arange(len(nodes))
            return pos
        return self._memoized(("pos", regions), build)

    def interior_nodes(self, regions) -> np.ndarray:
        """Sorted nodes of ``region_nodes(regions)`` on no tagged boundary."""
        regions = _as_region_set(regions)
        return self._memoized(("interior", regions), lambda: np.setdiff1d(
            self.region_nodes(regions),
            np.concatenate([e.ravel() for e in self.boundary_edges.values()])))

    def boundary_nodes(self, tag: Bnd) -> np.ndarray:
        """Boundary nodes in loop order (first node of each directed edge)."""
        if tag not in self.boundary_edges:
            raise TagMismatch(f"mesh has no boundary {tag!r}")
        return self.boundary_edges[tag][:, 0].copy()

    def boundary_edge_lengths(self, tag: Bnd) -> np.ndarray:
        e = self.boundary_edges[tag]
        return np.linalg.norm(self.nodes[e[:, 1]] - self.nodes[e[:, 0]], axis=1)

    def boundary_lumped_lengths(self, tag: Bnd) -> np.ndarray:
        """Per-node lumped arclength weights, aligned with boundary_nodes."""
        lens = self.boundary_edge_lengths(tag)
        return 0.5 * (lens + np.roll(lens, 1))

    @cached_property
    def pml_inner_radius(self) -> float | None:
        nodes = self.region_nodes(Region.PML)
        if not len(nodes):
            return None
        return float(np.linalg.norm(self.nodes[nodes], axis=1).min())

    @cached_property
    def truncation_radius(self) -> float:
        return float(np.linalg.norm(self.nodes, axis=1).max())

    @cached_property
    def _edge_map(self):
        """Every edge once, ordered by its key ``i * N + j`` (i < j).

        Returns the keys, the position of each edge's first half-edge in the
        triangle list, and its one or two triangles in increasing order (-1
        on the missing side of a boundary edge).
        """
        half = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                       axis=1).astype(np.int64)
        keys, first, inv = np.unique(half[:, 0] * self.num_nodes + half[:, 1],
                                     return_index=True, return_inverse=True)
        tri = np.arange(len(half)) // 3
        owners = np.full((len(keys), 2), -1, dtype=np.int64)
        owners[:, 0] = tri[first]
        later = np.ones(len(half), dtype=bool)
        later[first] = False
        owners[inv[later], 1] = tri[later]
        for arr in (keys, first, owners):
            arr.setflags(write=False)
        return keys, first, owners

    def edge_triangles(self, edges) -> np.ndarray:
        """The two triangles on each given mesh edge, increasing, -1 if absent."""
        keys, _, owners = self._edge_map
        e = np.sort(np.asarray(edges, dtype=np.int64), axis=1)
        return owners[np.searchsorted(keys, e[:, 0] * self.num_nodes + e[:, 1])]

    def interface_edges(self, region_a: Region, region_b: Region) -> np.ndarray:
        """Edges shared by one ``region_a`` and one ``region_b`` triangle.

        Each edge is a sorted node pair; edges come in the order in which the
        triangle list first reaches them.
        """
        keys, first, owners = self._edge_map
        regs = np.sort(np.append(self.tri_region, -1)[owners], axis=1)
        a, b = sorted((int(region_a), int(region_b)))
        sel = np.flatnonzero((regs[:, 0] == a) & (regs[:, 1] == b))
        sel = sel[np.argsort(first[sel])]
        n = self.num_nodes
        return np.column_stack((keys[sel] // n, keys[sel] % n)).astype(np.int32)


def _as_region_set(regions) -> frozenset:
    if isinstance(regions, (Region, int)):
        return frozenset({int(regions)})
    return frozenset(int(r) for r in regions)


# ---------------------------------------------------------------------------
# ring ladder construction
#
# Layer placement balances two constraints: the arclength step along a ring
# stays below _ANG * h, and the perimeter may grow by at most a factor
# (1 + _GROW) from one ring to the next (with an absolute floor near a fan
# center).  Under these the longest merge diagonal stays below 1.5 * h.

_ANG = 0.8
_GROW = 0.5625
_MIN_RING = 6


def _layer_taus(p_in: float, p_out: float, gap: float, h: float) -> np.ndarray:
    """Interpolation parameters of the rings filling one band.

    Equidistributes the layer density implied by the radial-step and
    perimeter-growth constraints; returns tau values in (0, 1].
    """
    grid = np.linspace(0.0, 1.0, 513)
    peri = p_in + (p_out - p_in) * grid
    dens_gap = gap / (_ANG * h)
    dens_grow = abs(p_out - p_in) / np.maximum(_GROW * peri, _GROW * _MIN_RING * _ANG * h)
    dens = np.maximum(dens_gap, dens_grow)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
    layers = max(1, int(math.ceil(cum[-1])))
    targets = np.arange(1, layers + 1) * (cum[-1] / layers)
    return np.interp(targets, cum, grid)


@dataclass
class _Ring:
    idx: np.ndarray        # node indices, CCW
    labels: np.ndarray     # monotone merge coordinates in [0, 1)
    family: tuple          # rings of equal family have comparable labels


class _Builder:
    def __init__(self):
        self.points: list[np.ndarray] = []
        self.count = 0
        self.tris: list = []

    def add_ring(self, pts: np.ndarray, labels: np.ndarray, family: tuple) -> _Ring:
        idx = np.arange(self.count, self.count + len(pts), dtype=np.int32)
        self.points.append(pts)
        self.count += len(pts)
        return _Ring(idx, np.asarray(labels, dtype=float), family)

    def add_node(self, p) -> int:
        self.points.append(np.asarray(p, dtype=float).reshape(1, 2))
        self.count += 1
        return self.count - 1

    def coords(self, idx: np.ndarray) -> np.ndarray:
        return np.vstack(self.points)[idx]

    def _merge_coords(self, ring_a: _Ring, ring_b: _Ring, center):
        if ring_a.family == ring_b.family:
            return (ring_a.idx, ring_a.labels), (ring_b.idx, ring_b.labels)
        out = []
        for ring in (ring_a, ring_b):
            pts = self.coords(ring.idx)
            ang = (np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
                   % (2 * math.pi)) / (2 * math.pi)
            k = int(np.argmin(ang))
            out.append((np.roll(ring.idx, -k), np.roll(ang, -k)))
        return out[0], out[1]

    def merge_band(self, ring_in: _Ring, ring_out: _Ring, center) -> None:
        """Stitch two nested CCW rings by a monotone label sweep.

        Rings of the same label family are merged by their exact labels (this
        keeps the stitch equivariant under the quarter-turn symmetry of
        concentric grids); otherwise geometric angles are used.
        """
        (a, ta), (b, tb) = self._merge_coords(ring_in, ring_out, center)
        na, nb = len(a), len(b)
        i = j = 0
        while i < na or j < nb:
            pa = ta[(i + 1) % na] + (1.0 if i + 1 >= na else 0.0) if i < na else math.inf
            pb = tb[(j + 1) % nb] + (1.0 if j + 1 >= nb else 0.0) if j < nb else math.inf
            if pa <= pb:
                self.tris.append((a[i % na], b[j % nb], a[(i + 1) % na]))
                i += 1
            else:
                self.tris.append((a[i % na], b[j % nb], b[(j + 1) % nb]))
                j += 1


def _param_offset(curve_in: Shape, curve_out: Shape) -> float:
    """Parameter shift aligning the two curves' start directions."""
    c = curve_in.centroid()
    p0 = curve_in.points(np.array([0.0]))[0]
    theta0 = math.atan2(p0[1] - c[1], p0[0] - c[0])
    t = np.arange(2048) / 2048
    q = curve_out.points(t)
    ang = np.arctan2(q[:, 1] - c[1], q[:, 0] - c[0])
    diff = np.abs((ang - theta0 + math.pi) % (2 * math.pi) - math.pi)
    return float(t[int(np.argmin(diff))])


def _family(shape: Shape) -> tuple:
    if isinstance(shape, Polygon):
        return ("polygon", id(shape.vertices))
    return ("circle",)


def _blend_params(curve_in: Shape, curve_out: Shape, tau: float, spacing: float):
    """Ring parameters, per-curve offsets, and label family for one blend.

    The grid comes from whichever curve carries corners (polygons) so that
    interface rings conform to them exactly; the offset rotates the other
    curve so the blend does not twist.
    """
    off = _param_offset(curve_in, curve_out)
    if isinstance(curve_out, Polygon) and not isinstance(curve_in, Polygon):
        ref, in_off, out_off = curve_out, -off, 0.0
    elif isinstance(curve_in, Polygon):
        ref, in_off, out_off = curve_in, 0.0, off
    else:
        ref = curve_in if tau <= 0.5 else curve_out
        in_off, out_off = 0.0, off
    p_tau = (1.0 - tau) * curve_in.perimeter() + tau * curve_out.perimeter()
    params = ref.param_grid(spacing * ref.perimeter() / p_tau)
    return params, in_off, out_off, _family(ref)


def _homotopy_band(builder: _Builder, curve_in: Shape, curve_out: Shape,
                   ring_in: _Ring, h: float) -> _Ring:
    """Fill the band between two nested curves; returns the outer ring."""
    t = np.arange(256) / 256
    gap = float(np.linalg.norm(curve_out.points(t) - curve_in.points(t), axis=1).max())
    center = curve_in.centroid()
    prev = ring_in
    for tau in _layer_taus(curve_in.perimeter(), curve_out.perimeter(), gap, h):
        params, in_off, out_off, family = _blend_params(curve_in, curve_out, tau, _ANG * h)
        pts = ((1.0 - tau) * curve_in.points((params + in_off) % 1.0)
               + tau * curve_out.points((params + out_off) % 1.0))
        ring = builder.add_ring(pts, params, family)
        builder.merge_band(prev, ring, center)
        prev = ring
    return prev


def _disk_fan(builder: _Builder, curve: Shape, h: float) -> _Ring:
    """Fill the interior of a closed curve; returns the boundary ring."""
    center = curve.centroid()
    t = np.arange(256) / 256
    reach = float(np.linalg.norm(curve.points(t) - center, axis=1).max())
    p_out = curve.perimeter()
    c_idx = builder.add_node(center)
    prev = None
    for tau in _layer_taus(0.0, p_out, reach, h):
        params = curve.param_grid(_ANG * h / tau)
        pts = (1.0 - tau) * center + tau * curve.points(params)
        ring = builder.add_ring(pts, params, _family(curve))
        if prev is None:
            n = len(ring.idx)
            for j in range(n):
                builder.tris.append((c_idx, ring.idx[j], ring.idx[(j + 1) % n]))
        else:
            builder.merge_band(prev, ring, center)
        prev = ring
    return prev


def _classify_regions(spec: DomainSpec, centroids: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(centroids, axis=1)
    physical_outer = spec.truncation_radius - spec.pml_thickness
    region = np.full(len(centroids), int(Region.EXTERIOR), dtype=np.int16)
    in_outer = spec.outer.contains(centroids)
    in_dop = spec.dopant.contains(centroids)
    region[in_outer] = int(Region.ENZ)
    region[in_dop] = int(Region.DOPANT)
    if spec.pml_thickness > 0:
        region[(~in_outer) & (r > physical_outer)] = int(Region.PML)
    return region


def _ring_boundary_edges(ring: np.ndarray, nodes: np.ndarray):
    edges = np.column_stack((ring, np.roll(ring, -1))).astype(np.int32)
    tang = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    normals = np.column_stack((tang[:, 1], -tang[:, 0]))
    return edges, normals


def build_mesh(spec: DomainSpec, target_h: float) -> Mesh:
    """Triangulate a validated :class:`DomainSpec` at resolution ``target_h``.

    The returned mesh conforms to the dopant curve, the scatterer curve, the
    collar inner circle, and the truncation circle; its maximum edge length is
    at most ``1.5 * target_h`` and its minimum angle at least 15 degrees.
    Identical inputs always produce identical meshes.
    """
    spec.validate()
    if target_h <= 0:
        raise MeshFailure("target_h must be positive")
    if target_h >= 0.5 * spec.interface_gap():
        raise MeshFailure("target_h must be smaller than half the dopant-scatterer gap")

    builder = _Builder()
    dop_ring = _disk_fan(builder, spec.dopant, target_h)
    outer_ring = _homotopy_band(builder, spec.dopant, spec.outer, dop_ring, target_h)

    physical_outer = spec.truncation_radius - spec.pml_thickness
    trunc_circle = Circle((0.0, 0.0), spec.truncation_radius)
    if spec.pml_thickness > 0:
        collar_inner = Circle((0.0, 0.0), physical_outer)
        ring = _homotopy_band(builder, spec.outer, collar_inner, outer_ring, target_h)
        inf_ring = _homotopy_band(builder, collar_inner, trunc_circle, ring, target_h)
    else:
        inf_ring = _homotopy_band(builder, spec.outer, trunc_circle, outer_ring, target_h)

    nodes = np.vstack(builder.points)
    triangles = np.asarray(builder.tris, dtype=np.int32)
    centroids = nodes[triangles].mean(axis=1)
    region = _classify_regions(spec, centroids)

    b_edges, b_normals = {}, {}
    for tag, ring in ((Bnd.GAMMA_D, dop_ring), (Bnd.GAMMA_OMEGA, outer_ring),
                      (Bnd.GAMMA_INF, inf_ring)):
        b_edges[tag], b_normals[tag] = _ring_boundary_edges(ring.idx, nodes)

    mesh = Mesh(nodes, triangles, region, b_edges, b_normals)
    _check_quality(mesh, target_h)
    return mesh


def _check_quality(mesh: Mesh, target_h: float) -> None:
    if (mesh.tri_areas <= 0).any():
        raise MeshFailure("mesh contains inverted triangles")
    p = mesh.nodes[mesh.triangles]
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    lens = np.linalg.norm(e, axis=2)
    if lens.max() > EDGE_LENGTH_FACTOR * target_h:
        raise MeshFailure(
            f"max edge length {lens.max():.4g} exceeds {EDGE_LENGTH_FACTOR} * target_h")
    # law of cosines per corner
    a, b, c = lens[0], lens[1], lens[2]
    angles = []
    for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)):
        cosang = np.clip((s1**2 + s2**2 - opp**2) / (2 * s1 * s2), -1.0, 1.0)
        angles.append(np.degrees(np.arccos(cosang)))
    min_angle = np.minimum(np.minimum(angles[0], angles[1]), angles[2]).min()
    if min_angle < QUALITY_MIN_ANGLE_DEG:
        raise MeshFailure(f"minimum angle {min_angle:.2f} deg below quality floor")


# ---------------------------------------------------------------------------
# measures, structured helper, I/O


def region_measures(mesh: Mesh) -> dict:
    """Areas per region tag and lengths per boundary tag."""
    areas = {r: float(mesh.tri_areas[mesh.tri_region == int(r)].sum()) for r in Region}
    lengths = {tag: float(mesh.boundary_edge_lengths(tag).sum())
               for tag in mesh.boundary_edges}
    return {"areas": areas, "lengths": lengths}


def structured_rectangle_mesh(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0,
                              region: Region = Region.EXTERIOR,
                              origin=(0.0, 0.0)) -> Mesh:
    """Right-triangle grid on a rectangle; boundary tagged GAMMA_OMEGA.

    Used by the verification suite (patch tests, manufactured solutions).
    """
    x = origin[0] + np.linspace(0.0, lx, nx + 1)
    y = origin[1] + np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(x, y, indexing="xy")
    nodes = np.column_stack((X.ravel(), Y.ravel()))

    def nid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    loop = ([nid(i, 0) for i in range(nx)] + [nid(nx, j) for j in range(ny)]
            + [nid(i, ny) for i in range(nx, 0, -1)] + [nid(0, j) for j in range(ny, 0, -1)])
    edges, normals = _ring_boundary_edges(np.asarray(loop, dtype=np.int32), nodes)
    return Mesh(nodes, np.asarray(tris, dtype=np.int32),
                np.full(len(tris), int(region), dtype=np.int16),
                {Bnd.GAMMA_OMEGA: edges}, {Bnd.GAMMA_OMEGA: normals})


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (zero-based indices)."""
    n_edges = sum(len(e) for e in mesh.boundary_edges.values())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"nodes {mesh.num_nodes} triangles {mesh.num_triangles} edges {n_edges}\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.17g} {y:.17g}\n")
        for (i, j, k), reg in zip(mesh.triangles, mesh.tri_region):
            f.write(f"{i} {j} {k} {int(reg)}\n")
        for tag in sorted(mesh.boundary_edges):
            for i, j in mesh.boundary_edges[tag]:
                f.write(f"{i} {j} {int(tag)}\n")


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`save_mesh`."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 6 or header[0] != "nodes":
            raise MeshFailure(f"{path}: bad mesh header")
        nn, nt, ne = int(header[1]), int(header[3]), int(header[5])
        nodes = np.array([[float(v) for v in f.readline().split()] for _ in range(nn)])
        tri_rows = [[int(v) for v in f.readline().split()] for _ in range(nt)]
        edge_rows = [[int(v) for v in f.readline().split()] for _ in range(ne)]
    tris = np.asarray([r[:3] for r in tri_rows], dtype=np.int32)
    region = np.asarray([r[3] for r in tri_rows], dtype=np.int16)
    b_edges, b_normals = {}, {}
    for tag in sorted({r[2] for r in edge_rows}):
        e = np.asarray([r[:2] for r in edge_rows if r[2] == tag], dtype=np.int32)
        tang = nodes[e[:, 1]] - nodes[e[:, 0]]
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        b_edges[Bnd(tag)] = e
        b_normals[Bnd(tag)] = np.column_stack((tang[:, 1], -tang[:, 0]))
    return Mesh(nodes, tris, region, b_edges, b_normals)
