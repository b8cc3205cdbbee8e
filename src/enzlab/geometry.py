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
from typing import Union

import numpy as np

from .errors import GeometryInvalid, MeshFailure, TagMismatch

QUALITY_MIN_ANGLE_DEG = 15.0
EDGE_LENGTH_FACTOR = 1.5
# Largest mesh a build accepts.  At h = 0.025 an auxiliary set peaked at
# about 3.4 kB per node and a direct solve at about 7.5 kB per node, and the
# LU fill per node grows with the mesh: a million nodes ask for several GB.
MAX_NODES = 1_000_000
# Nodes per h^2 of truncation-disk area, below every mesh measured (1.58 to
# 1.83 on circles from h = 0.2 to 0.025), so the estimate never overshoots.
_NODES_PER_H2_AREA = 1.5
# Largest difference between data and its image under the quarter turn, over
# the data's largest modulus, that counts as invariant: for node coordinates
# (:meth:`Mesh.quarter_turn`) and for a system's matrix, load and Dirichlet
# values (:mod:`enzlab.fem`).  Far above the roundoff of the canonical mesh
# from h = 0.2 to 0.025 (coordinates 9.4e-16 of the largest radius, the
# exterior matrix 1.5e-14 to 1.8e-13 and the ring load 6.2e-15 to 8.9e-14,
# at k = 1 and 1.3 + 0.2i) and far below the 1e-10 of a solve's
# backward-error contract.
TURN_RTOL = 1e-11


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


class _Disk:
    """A centre and a radius, kept as floats: GEOMETRY_INVALID unless the
    centre is two finite numbers and the radius finite and positive."""

    def __post_init__(self):
        center, radius = tuple(map(float, self.center)), float(self.radius)
        if len(center) != 2 or not all(map(math.isfinite, center)) or not 0 < radius < math.inf:
            raise GeometryInvalid(f"{type(self).__name__} needs a finite centre and a finite "
                                  f"radius > 0, got {self!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


@dataclass(frozen=True)
class Circle(_Disk):
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


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.shape[0] < 3:
            raise GeometryInvalid("polygon needs at least 3 vertices")
        edge = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)   # points() divides by it
        if np.isfinite(v).all() and not (edge > 0).all():
            i = int(np.argmin(edge > 0))
            raise GeometryInvalid(f"polygon repeats vertex ({v[i, 0]:g}, {v[i, 1]:g}) as vertices "
                                  f"{i + 1} and {(i + 1) % len(v) + 1}: an edge of length 0")
        if not np.isfinite(v).all() or _signed_area(v) == 0:
            raise GeometryInvalid("polygon vertices must be finite and enclose an area")
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
        parts = []
        for e, le in enumerate(lens):
            m = max(1, int(math.ceil(le / spacing)))
            parts.append((cum[e] + le * np.arange(m) / m) / total)
        return np.concatenate(parts)

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
class SourceDisk(_Disk):
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

    def __post_init__(self):
        if not 0 < self.r1 < self.r2 < math.inf:
            raise GeometryInvalid(f"SourceRing needs finite 0 < r1 < r2, got {self!r}")


@dataclass(frozen=True)
class SourceSpec:
    disks: tuple = ()   # SourceDisk and/or SourceRing entries

    def validate(self, spec: "DomainSpec") -> None:
        """GEOMETRY_INVALID unless each source lies strictly outside ``spec``'s
        scatterer and inside its physical exterior annulus."""
        physical_outer = spec.truncation_radius - spec.pml_thickness
        rim = _curve_samples(spec.outer, 512)
        for d in self.disks:
            if isinstance(d, SourceRing):
                outside, reach = d.r1 > spec.outer.circumradius(), d.r2
            else:
                outside = (not spec.outer.contains(np.atleast_2d(d.center))[0]
                           and np.linalg.norm(rim - d.center, axis=1).min() > d.radius)
                reach = math.hypot(*d.center) + d.radius
            if not outside:
                raise GeometryInvalid(f"{d!r} must lie strictly outside the scatterer")
            if reach >= physical_outer:
                raise GeometryInvalid(f"{d!r} must lie inside the physical exterior annulus")

    def is_trivial(self) -> bool:
        return all(d.amplitude == 0 for d in self.disks) or not self.disks


@dataclass(frozen=True)
class DomainSpec:
    """Geometry of the doped scatterer with truncation and optional collar."""

    outer: Shape
    dopant: Shape
    truncation_radius: float
    pml_thickness: float = 0.0
    # the dopant-scatterer distance build_mesh needs: the minimum over 512
    # samples of each curve, taken once, when the spec is made
    interface_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.truncation_radius < math.inf:
            raise GeometryInvalid("truncation radius must be finite and positive")
        if not 0 <= self.pml_thickness < math.inf:
            raise GeometryInvalid("collar thickness must be finite and nonnegative")
        if isinstance(self.dopant, Polygon):   # build_mesh fans the dopant from its centroid
            d = self.dopant._v() - self.dopant.centroid()
            if not (d[:, 0] * np.roll(d[:, 1], -1) - np.roll(d[:, 0], -1) * d[:, 1] > 0).all():
                raise GeometryInvalid("dopant polygon must be star-shaped about its centroid: "
                                      "every edge must strictly face the centroid")
        # every pair's squared distance dx**2 + dy**2, summed in place on two 512 x 512 arrays
        a = _curve_samples(self.dopant, 512)
        b = _curve_samples(self.outer, 512)
        d2 = np.subtract.outer(a[:, 0], b[:, 0])
        d2 *= d2
        dy = np.subtract.outer(a[:, 1], b[:, 1])
        dy *= dy
        d2 += dy
        object.__setattr__(self, "interface_gap", float(np.sqrt(d2.min())))
        if not (self.outer.contains(a).all() and self.interface_gap > 0):
            raise GeometryInvalid("dopant closure must be strictly inside the scatterer")
        if not self.outer.contains(np.atleast_2d(self.dopant.centroid())).all():
            raise GeometryInvalid("dopant centroid outside the scatterer")
        if self.outer.circumradius() >= self.truncation_radius - self.pml_thickness:
            raise GeometryInvalid("scatterer must sit strictly inside the physical truncation disk")


def _curve_samples(shape: Shape, n: int) -> np.ndarray:
    return shape.points(np.arange(n) / n)


# ---------------------------------------------------------------------------
# mesh container


@dataclass(eq=False)
class Mesh:
    """Immutable conforming triangulation with region and boundary tags.

    It holds only what it cannot derive: the nodes, the triangles, their
    regions and the boundary loops.  Areas, centroids, boundary normals and
    region node sets are derived from these when first asked for.  Topology
    queries are memoized per normalized region set and return
    read-only arrays shared by every caller.  :meth:`cached` is the one
    per-mesh cache: topology, the node orders of the factorizations, source
    loads, the exterior and dopant systems with their LUs, the condensed load,
    the transmission operator, and the norm forms live in it.
    """

    nodes: np.ndarray                       # (N, 2) float64
    triangles: np.ndarray                   # (T, 3) int32, CCW
    tri_region: np.ndarray                  # (T,) int16
    boundary_edges: dict                    # Bnd -> (E, 2) int32, CCW loops
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for arr in (self.nodes, self.triangles, self.tri_region, *self.boundary_edges.values()):
            arr.setflags(write=False)

    def cached(self, name, key, build):
        """``build()``, kept under ``name`` and rebuilt when asked with another ``key``.

        Each ``name`` holds its latest value only; arrays come back read-only.
        No value may refer to the mesh, so that reference counting alone
        frees the mesh and everything cached on it, without waiting for the
        cycle collector.
        """
        hit = self._memo.get(name)
        if hit is None or hit[0] != key:
            value = build()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            hit = self._memo[name] = (key, value)
        return hit[1]

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def tri_areas(self) -> np.ndarray:
        x, y = _corners(self.nodes, self.triangles)
        return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))

    @cached_property
    def tri_centroids(self) -> np.ndarray:
        return _centroids(self.nodes, self.triangles)

    def region_triangles(self, regions) -> np.ndarray:
        regions = _as_region_set(regions)
        return self.cached(("triangles", regions), None,
                           lambda: np.isin(self.tri_region, sorted(regions)))

    def region_nodes(self, regions) -> np.ndarray:
        """Sorted global indices of nodes touched by the given regions."""
        regions = _as_region_set(regions)

        def build():
            # a mark per node: a quarter of the time of np.unique
            touched = np.zeros(self.num_nodes, dtype=bool)
            touched[self.triangles[self.region_triangles(regions)]] = True
            return np.flatnonzero(touched).astype(self.triangles.dtype)
        return self.cached(("nodes", regions), None, build)

    def region_pos(self, regions) -> np.ndarray:
        """Position of each global node in ``region_nodes(regions)``, -1 outside."""
        regions = _as_region_set(regions)

        def build():
            nodes = self.region_nodes(regions)
            pos = np.full(self.num_nodes, -1, dtype=np.int64)
            pos[nodes] = np.arange(len(nodes))
            return pos
        return self.cached(("pos", regions), None, build)

    def quarter_turn(self, regions) -> np.ndarray | None:
        """The quarter turn ``(x, y) -> (-y, x)`` as a map of ``region_nodes(regions)``, or None.

        Entry ``i`` is the position of the node at the image of the ``i``-th
        node, within :data:`TURN_RTOL` of the largest node radius; None if
        some image is no node of the set.  Kept in :meth:`cached` under
        ``("quarter turn", regions)``, None included.  The concentric meshes
        have the symmetry (:meth:`Circle.param_grid`), triangles and regions
        included, and so has the exterior of an off-centre dopant, whose whole
        mesh has not.  The map is of the nodes only: whether an operator is
        invariant too is for its matrix to show (:mod:`enzlab.fem`).

        Each image is looked up among the nodes whose projections on one
        direction lie within the tolerance of its own, the direction at one
        radian, so that no row or column of a grid shares a projection.
        """
        regions = _as_region_set(regions)

        def build():
            xy = self.nodes[self.region_nodes(regions)]
            image = np.column_stack((-xy[:, 1], xy[:, 0]))
            tol = TURN_RTOL * np.sqrt((xy * xy).sum(axis=1).max(initial=0.0))
            axis = np.array([math.cos(1.0), math.sin(1.0)])
            by_proj = np.argsort(xy @ axis)
            proj = (xy @ axis)[by_proj]
            lo = np.searchsorted(proj, image @ axis - tol)
            count = np.searchsorted(proj, image @ axis + tol, side="right") - lo
            of = np.repeat(np.arange(len(xy)), count)   # each candidate's node
            cand = by_proj[_spans(lo, count)]
            hit = np.hypot(*(xy[cand] - image[of]).T) <= tol
            turn = np.full(len(xy), -1)
            turn[of[hit]] = cand[hit]
            return None if (turn < 0).any() else turn
        return self.cached(("quarter turn", regions), None, build)

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
    def boundary_normals(self) -> dict:
        """Bnd -> (E, 2) outward unit normals: each loop edge's unit tangent, turned right."""
        normals = {}
        for tag, e in self.boundary_edges.items():
            tang = self.nodes[e[:, 1]] - self.nodes[e[:, 0]]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            normals[tag] = np.column_stack((tang[:, 1], -tang[:, 0]))
            normals[tag].setflags(write=False)
        return normals

    @cached_property
    def pml_inner_radius(self) -> float | None:
        nodes = self.region_nodes(Region.PML)
        if not len(nodes):
            return None
        return float(np.linalg.norm(self.nodes[nodes], axis=1).min())

    @cached_property
    def truncation_radius(self) -> float:
        return float(np.linalg.norm(self.nodes, axis=1).max())


def _corners(nodes: np.ndarray, triangles: np.ndarray):
    """The x and the y of every triangle's corners, each as a (3, T) array.

    One gather per coordinate: indexing the (N, 2) nodes by the (T, 3)
    triangles takes about three times as long.
    """
    t = triangles.T
    return nodes[:, 0][t], nodes[:, 1][t]


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[start, start + size)``, one after another."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _centroids(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    x, y = _corners(nodes, triangles)
    return np.column_stack(((x[0] + x[1] + x[2]) / 3, (y[0] + y[1] + y[2]) / 3))


def _as_region_set(regions) -> frozenset[Region]:
    """One region or an iterable of them, Regions or codes, as a frozenset of
    :class:`Region`; ValueError on an unknown code.  It equals its set of codes."""
    if isinstance(regions, (int, np.integer)):
        regions = (regions,)
    return frozenset(Region(r) for r in regions)


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

        Each step advances the ring whose next label is smaller, ring a on a
        tie (past the last node the next label is the first one + 1).  Both
        key lists are sorted, so a stable sort of the two, a first, orders
        the steps; the counts of earlier steps on each ring give (i, j).
        """
        (a, ta), (b, tb) = self._merge_coords(ring_in, ring_out, center)
        na, nb = len(a), len(b)
        keys = np.concatenate((ta[1:], [ta[0] + 1.0], tb[1:], [tb[0] + 1.0]))
        step_a = np.argsort(keys, kind="stable") < na
        i = np.cumsum(step_a) - step_a
        j = np.arange(na + nb) - i
        third = np.where(step_a, a[(i + 1) % na], b[(j + 1) % nb])
        self.tris.append(np.column_stack((a[i % na], b[j % nb], third)))


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


def _blend_params(curve_in: Shape, curve_out: Shape, tau: float, spacing: float, off: float):
    """Ring parameters, per-curve offsets, and label family for one blend.

    The grid comes from whichever curve carries corners (polygons) so that
    interface rings conform to them exactly; the offset ``off``, the band's
    :func:`_param_offset`, rotates the other curve so the blend does not twist.
    """
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
    gap = float(np.linalg.norm(_curve_samples(curve_out, 256) - _curve_samples(curve_in, 256),
                               axis=1).max())
    center = curve_in.centroid()
    off = _param_offset(curve_in, curve_out)
    prev = ring_in
    for tau in _layer_taus(curve_in.perimeter(), curve_out.perimeter(), gap, h):
        params, in_off, out_off, family = _blend_params(curve_in, curve_out, tau, _ANG * h, off)
        pts = ((1.0 - tau) * curve_in.points((params + in_off) % 1.0)
               + tau * curve_out.points((params + out_off) % 1.0))
        ring = builder.add_ring(pts, params, family)
        builder.merge_band(prev, ring, center)
        prev = ring
    return prev


def _disk_fan(builder: _Builder, curve: Shape, h: float) -> _Ring:
    """Fill the interior of a closed curve; returns the boundary ring."""
    center = curve.centroid()
    reach = float(np.linalg.norm(_curve_samples(curve, 256) - center, axis=1).max())
    p_out = curve.perimeter()
    c_idx = builder.add_node(center)
    prev = None
    for tau in _layer_taus(0.0, p_out, reach, h):
        params = curve.param_grid(_ANG * h / tau)
        pts = (1.0 - tau) * center + tau * curve.points(params)
        ring = builder.add_ring(pts, params, _family(curve))
        if prev is None:
            builder.tris.append(np.column_stack(
                (np.full(len(ring.idx), c_idx), ring.idx, np.roll(ring.idx, -1))))
        else:
            builder.merge_band(prev, ring, center)
        prev = ring
    return prev


def _classify_regions(spec: DomainSpec, centroids: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(centroids, axis=1)
    physical_outer = spec.truncation_radius - spec.pml_thickness
    region = np.full(len(centroids), Region.EXTERIOR, dtype=np.int16)
    in_outer = spec.outer.contains(centroids)
    in_dop = spec.dopant.contains(centroids)
    region[in_outer] = Region.ENZ
    region[in_dop] = Region.DOPANT
    if spec.pml_thickness > 0:
        region[(~in_outer) & (r > physical_outer)] = Region.PML
    return region


def _ring_boundary_edges(ring: np.ndarray) -> np.ndarray:
    return np.column_stack((ring, np.roll(ring, -1))).astype(np.int32)


def build_mesh(spec: DomainSpec, target_h: float) -> Mesh:
    """Triangulate a :class:`DomainSpec` at resolution ``target_h``.

    The returned mesh conforms to the dopant curve, the scatterer curve, the
    collar inner circle, and the truncation circle; its maximum edge length is
    at most ``1.5 * target_h`` and its minimum angle at least 15 degrees.
    Identical inputs always produce identical meshes.  The dopant is fanned
    from its centroid, so a polygonal one must be star-shaped about it.

    Cost (medians of 7 in each of two sets of runs on a 2-core host with
    one BLAS thread), the canonical spec: 26-29 ms at h = 0.05 (31,989 nodes)
    and 0.10 s at h = 0.025 (126,749 nodes).  The interface gap comes with
    the spec, made once in about 1.4 ms, so a build evaluates none.

    MESH_FAILURE before anything is allocated when the truncation disk's
    area asks for more than :data:`MAX_NODES` nodes at ``target_h``.
    """
    half_gap = 0.5 * spec.interface_gap
    if target_h <= 0:
        raise MeshFailure("target_h must be positive")
    if target_h >= half_gap:
        raise MeshFailure(f"target_h = {target_h:g} must be smaller than half the "
                          f"dopant-scatterer gap ({half_gap:g})")
    ratio = spec.truncation_radius / target_h   # a product, so a tiny h gives inf, not an error
    nodes = _NODES_PER_H2_AREA * math.pi * ratio * ratio
    if nodes > MAX_NODES:
        raise MeshFailure(f"target_h = {target_h:g} asks for about {nodes:.2g} nodes, "
                          f"above the cap of {MAX_NODES:,}")

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
    triangles = np.concatenate(builder.tris).astype(np.int32)
    region = _classify_regions(spec, _centroids(nodes, triangles))

    b_edges = {tag: _ring_boundary_edges(ring.idx) for tag, ring in (
        (Bnd.GAMMA_D, dop_ring), (Bnd.GAMMA_OMEGA, outer_ring), (Bnd.GAMMA_INF, inf_ring))}
    mesh = Mesh(nodes, triangles, region, b_edges)
    _check_quality(mesh, target_h)
    return mesh


def _check_quality(mesh: Mesh, target_h: float) -> None:
    inverted = mesh.tri_areas <= 0
    if inverted.any():
        where = ", ".join(Region(r).name for r in np.unique(mesh.tri_region[inverted]))
        raise MeshFailure(f"mesh contains {inverted.sum()} inverted triangles, in {where}")
    x, y = _corners(mesh.nodes, mesh.triangles)
    ex, ey = x[[1, 2, 0]] - x, y[[1, 2, 0]] - y   # the edges p1 - p0, p2 - p1, p0 - p2
    lens = np.sqrt(ex * ex + ey * ey)
    if lens.max() > EDGE_LENGTH_FACTOR * target_h:
        raise MeshFailure(
            f"max edge length {lens.max():.4g} exceeds {EDGE_LENGTH_FACTOR} * target_h")
    # law of cosines per corner; arccos falls, so the smallest angle is the
    # arccos of the largest cosine
    a, b, c = lens[0], lens[1], lens[2]
    cosang = max(((s1**2 + s2**2 - opp**2) / (2 * s1 * s2)).max()
                 for opp, s1, s2 in ((a, b, c), (b, c, a), (c, a, b)))
    min_angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    if min_angle < QUALITY_MIN_ANGLE_DEG:
        raise MeshFailure(f"minimum angle {min_angle:.2f} deg below quality floor")


# ---------------------------------------------------------------------------
# measures, structured helper, I/O


def region_measures(mesh: Mesh) -> dict:
    """Areas per region tag and lengths per boundary tag."""
    areas = {r: float(mesh.tri_areas[mesh.tri_region == r].sum()) for r in Region}
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
    return Mesh(nodes, np.asarray(tris, dtype=np.int32),
                np.full(len(tris), int(region), dtype=np.int16),
                {Bnd.GAMMA_OMEGA: _ring_boundary_edges(np.asarray(loop, dtype=np.int32))})


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
    """Read the plain-text mesh format of :func:`save_mesh`.

    MeshFailure names the path and the line of a malformed row, of a
    coordinate that is not finite, or of a triangle whose corners do not run
    counterclockwise (area not positive).
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    def row(n: int, *columns) -> list:
        """Line ``n``'s words (one-based; none past the end), each read by its column's parser."""
        words = lines[n - 1].split() if n <= len(lines) else []
        try:
            if len(words) != len(columns):
                raise ValueError(f"{len(words)} values where {len(columns)} are due")
            return [read(w) for read, w in zip(columns, words)]
        except ValueError as exc:
            raise MeshFailure(f"{path}, line {n}: {exc}") from None

    def node(word: str) -> int:
        if not 0 <= int(word) < nn:
            raise ValueError(f"node index {word} outside 0..{nn - 1}")
        return int(word)

    def coordinate(word: str) -> float:
        if not math.isfinite(float(word)):
            raise ValueError(f"coordinate {word} is not finite")
        return float(word)

    word, nn, _, nt, _, ne = row(1, str, int, str, int, str, int)
    if word != "nodes" or min(nn, nt, ne) < 0:
        raise MeshFailure(f"{path}, line 1: bad mesh header")
    tri, edge = 2 + nn, 2 + nn + nt   # the first triangle's line and the first edge's
    nodes = np.array([row(n, coordinate, coordinate) for n in range(2, tri)])
    tri_rows = [row(n, node, node, node, lambda w: Region(int(w))) for n in range(tri, edge)]
    edge_rows = [row(n, node, node, lambda w: Bnd(int(w))) for n in range(edge, edge + ne)]
    tris = np.asarray([r[:3] for r in tri_rows], dtype=np.int32)
    region = np.asarray([r[3] for r in tri_rows], dtype=np.int16)
    b_edges = {tag: np.asarray([r[:2] for r in edge_rows if r[2] == tag], dtype=np.int32)
               for tag in sorted({r[2] for r in edge_rows})}
    mesh = Mesh(nodes, tris, region, b_edges)
    inverted = np.flatnonzero(mesh.tri_areas <= 0)
    if len(inverted):
        t = inverted[0]
        raise MeshFailure(f"{path}, line {tri + t}: triangle of area {mesh.tri_areas[t]:.6g}; "
                          "its corners must run counterclockwise")
    return mesh
