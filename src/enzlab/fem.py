"""Complex-valued P1 finite elements on tagged sub-regions.

Every operator is assembled directly on the node numbering of its region
set, ``mesh.region_nodes(regions)``: row and column ``i`` belong to the
``i``-th node of that sorted list.  Fields are evaluated on the same
numbering: a :class:`ScalarField` is read through ``mesh.region_pos`` of its
own regions, never scattered to every mesh node.

Provides sparse assembly of ``int a grad(u).grad(v) - c u v`` with either a
first-order Robin condition or a polynomially stretched absorbing collar on
the truncation circle, direct sparse solves, mean-zero pure-Neumann solves
via a scalar multiplier, variational (residual-based) flux extraction,
recovered higher-order boundary fluxes, windowed discrete norms, and
Dirichlet eigenpairs of sub-regions.

Every factorization goes through one SuperLU routine, :func:`factor`, whose
breakdown raises SINGULAR_SYSTEM, and takes its order from one function,
:func:`node_order`: the geometric nested dissection of a node set's triangle
edges, computed once per mesh and node set and kept in :meth:`Mesh.cached`,
so that no new k or delta reorders.  SuperLU factors the ordered matrix as
it comes, in symmetric mode, pivoting on the diagonal whenever the diagonal
entry is at least 0.1 of its column's largest.  That skips the column
search of partial pivoting at the same fill and cuts the factor time by a
quarter to a half.  The threshold is 0.1, not 0, because the bordered
(Neumann and deflated) systems need the pivoting fallback: with 0 they take
roundoff-sized pivots and solve wrongly without a breakdown.  A
:class:`Factored` block holds a matrix by reference, the positions of its
unknowns in an order, its norm and its LU, in double precision or, where the
caller chose single when it made the block, in single precision with every
solve refined to double.  The block may be all of the matrix or a principal
block of it (a :class:`DirichletBlock` on its free nodes, the exterior off
its collar's outer boundary); no caller slices a copy of it: the LU's input
is cut from the matrix in one step, and the norm (:func:`block_norm`) and
every product (:func:`block_product`, also the operators of
:func:`dirichlet_eigs`) read the matrix through the block's rows.  Every solve
meets one residual contract: a normwise backward error above 1e-10 raises
SINGULAR_SYSTEM.  A bare factorization, bordered ones included, is checked
by :meth:`Factored.solve`; a Dirichlet-constrained field, from :func:`solve`
or :func:`certify`, by one check that forms its residual ``A u - rhs`` once
over every node, tests the free rows and keeps it for :func:`flux_extract`.
Both take the free rows' load from one lift, :func:`free_load`, and the
free block's norm from :func:`block_norm`.

The heap is trimmed (:func:`trim_heap`, glibc's ``malloc_trim(0)``) right
before the largest factorizations of a mesh: each :class:`DirichletBlock`'s
LU (the exterior and the dopant), on its first use, and the interface-last
exterior LU (:func:`interface_last`).  The numpy temporaries
of the mesh build and the assembly stay resident after they are freed, and
SuperLU's factors, mapped on their own, never reuse them, so both used to sit
under the peak: at h = 0.025 a trim after the exterior assembly takes the
process from 137 to 96 MB.  Nothing else trims: a trim before each per-delta
Omega factorization makes a direct solve at h = 0.05 5% slower (48.3 against
46.1 ms, interleaved medians of 20).

Flux conventions: :func:`flux_extract` returns the weak residual paired
against boundary traces, i.e. the flux with respect to the *solve domain's*
outward normal.  ``orientation="canonical"`` re-expresses it with respect to
the outward normal of the enclosed curve (dopant normal on the dopant
interface, scatterer normal on the scatterer interface), which is the
convention used by every balance constant in :mod:`enzlab.auxiliary`.

Windowed norms are quadratic forms.  For a field's region set and a window
(None, a disk as a :class:`~enzlab.geometry.Circle`, or regions in any form
``_as_region_set`` reads, so a tuple of region codes is never a disk), the
P1 stiffness ``K``, the consistent mass ``M`` (area/12 (ones + eye) per
triangle) and the window's normalized hat integrals ``w`` are assembled once
on the window's triangles and kept in :meth:`Mesh.cached` under
``("norm forms", regions, window)``, the window normalized.  Each norm is
then ``Re x^H M x`` and ``Re xs^H K xs`` with ``xs = x - w.x``: two sparse
matvecs and no element geometry.  The mean shift is needed, not cosmetic: on
the near-constant ENZ field an unshifted ``x^H K x`` loses more digits the
smaller delta is (8.8e-5 relative at delta = 1e-5 and h = 0.05, against
5.8e-12 shifted).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (EmptyWindow, IncompatibleData, MeshFailure, NoConvergence,
                     SingularSystem, TagMismatch, ZeroCoefficient)
from .geometry import (Bnd, Circle, Mesh, Region, SourceRing, SourceSpec,
                       _as_region_set, _corners)

# Fraction of row-sum lumping mixed into every mass matrix.  One half cancels
# the leading dispersion error of the consistent mass on near-uniform meshes;
# row sums (and hence all discrete flux/compatibility identities) are
# unaffected by this choice.
MASS_LUMP_FRACTION = 0.5

# Auto-tuned collar strength: round-trip plane-wave reflection below 1e-6.
_PML_REFLECTION = 1e-6


@dataclass(frozen=True)
class RadiationSpec:
    """Absorption profile of a collar; whether one closes the exterior is the mesh's to say."""

    sigma0: float | None = None  # None: auto from target reflection
    stretch_order: int = 2

    def __post_init__(self):
        if self.sigma0 is not None and not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError("sigma0 must be finite and positive")
        if self.stretch_order < 0:
            raise ValueError("stretch_order must be nonnegative")

    def sigma(self, thickness: float) -> float:
        if self.sigma0 is not None:
            return self.sigma0
        return 1.05 * (self.stretch_order + 1) * math.log(1.0 / _PML_REFLECTION) / (2.0 * thickness)


# ---------------------------------------------------------------------------
# fields and boundary functionals


class ScalarField:
    """Complex nodal coefficients over the nodes of a set of regions."""

    def __init__(self, mesh: Mesh, regions, values: np.ndarray, record=None):
        self.mesh = mesh
        self.regions = _as_region_set(regions)
        self.nodes = mesh.region_nodes(self.regions)
        values = np.asarray(values, dtype=complex)
        if values.shape != self.nodes.shape:
            raise TagMismatch("coefficient count does not match active node count")
        self.values = values
        self.record = record

    @classmethod
    def zeros(cls, mesh: Mesh, regions) -> "ScalarField":
        return cls(mesh, regions, np.zeros(len(mesh.region_nodes(regions)), dtype=complex))

    def to_full(self) -> np.ndarray:
        out = np.zeros(self.mesh.num_nodes, dtype=complex)
        out[self.nodes] = self.values
        return out

    def trace(self, tag: Bnd) -> np.ndarray:
        return self.values[_local_boundary(self.mesh, self.regions, tag)]

    def copy(self) -> "ScalarField":
        return ScalarField(self.mesh, self.regions, self.values.copy())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_compatible(other)
        return ScalarField(self.mesh, self.regions, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_compatible(other)
        return ScalarField(self.mesh, self.regions, self.values - other.values)

    def __mul__(self, alpha) -> "ScalarField":
        return ScalarField(self.mesh, self.regions, self.values * alpha)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.mesh is not self.mesh or other.regions != self.regions:
            raise TagMismatch("fields live on different meshes or regions")


class BoundaryFunctional:
    """Complex dual vector on one tagged boundary (pairs against traces)."""

    def __init__(self, mesh: Mesh, tag: Bnd, values: np.ndarray):
        self.mesh = mesh
        self.tag = Bnd(tag)
        values = np.asarray(values, dtype=complex)
        if values.shape != mesh.boundary_nodes(self.tag).shape:
            raise TagMismatch("functional length does not match boundary node count")
        self.values = values

    @classmethod
    def zeros(cls, mesh: Mesh, tag: Bnd) -> "BoundaryFunctional":
        return cls(mesh, tag, np.zeros(len(mesh.boundary_nodes(tag)), dtype=complex))

    def total(self) -> complex:
        """Pairing with the constant-1 trace: the total boundary flux."""
        return complex(self.values.sum())

    def __add__(self, other: "BoundaryFunctional") -> "BoundaryFunctional":
        if other.tag != self.tag or other.mesh is not self.mesh:
            raise TagMismatch("functionals on different boundaries")
        return BoundaryFunctional(self.mesh, self.tag, self.values + other.values)

    def __sub__(self, other: "BoundaryFunctional") -> "BoundaryFunctional":
        if other.tag != self.tag or other.mesh is not self.mesh:
            raise TagMismatch("functionals on different boundaries")
        return BoundaryFunctional(self.mesh, self.tag, self.values - other.values)

    def __mul__(self, alpha) -> "BoundaryFunctional":
        return BoundaryFunctional(self.mesh, self.tag, self.values * alpha)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# the P1 element kernel, on each region set's own node numbering


def _p1_geometry(mesh: Mesh, tri_mask: np.ndarray):
    """Nodes ``(T, 3)``, gradient coefficients ``b``, ``c`` ``(3, T)`` and areas.

    The hat function of corner ``i`` has gradient ``(b[i], c[i]) / (2 area)``.
    """
    tris = mesh.triangles[tri_mask]
    x, y = _corners(mesh.nodes, tris)
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    return tris, b, c, mesh.tri_areas[tri_mask]


def _region_elements(mesh: Mesh, regions):
    """``_p1_geometry`` of a region set, triangles numbered on its own nodes."""
    tris, b, c, area = _p1_geometry(mesh, mesh.region_triangles(regions))
    # keep the mesh's int32 index width: the scatter builds 9 indices per triangle
    return mesh.region_pos(regions)[tris].astype(tris.dtype), b, c, area


def _local_boundary(mesh: Mesh, regions, tag: Bnd) -> np.ndarray:
    """Positions of ``boundary_nodes(tag)`` in ``region_nodes(regions)``."""
    loc = mesh.region_pos(regions)[mesh.boundary_nodes(Bnd(tag))]
    if (loc < 0).any():
        raise TagMismatch(f"boundary {Bnd(tag)!r} not contained in regions {sorted(regions)}")
    return loc


def split_nodes(mesh: Mesh, regions, tags) -> tuple[np.ndarray, np.ndarray]:
    """Sorted positions in ``region_nodes(regions)`` off and on the ``Bnd`` tags."""
    on = np.zeros(len(mesh.region_nodes(regions)), dtype=bool)
    for tag in tags:
        on[_local_boundary(mesh, regions, tag)] = True
    return np.flatnonzero(~on), np.flatnonzero(on)


def curve_sign(regions, tag: Bnd) -> float:
    """+1 if the regions lie inside the tagged curve, else -1.

    Multiplying a flux taken along the regions' outward normal by this sign
    gives the flux along the curve's canonical (outward) normal.
    """
    inside = {Bnd.GAMMA_D: {Region.DOPANT}, Bnd.GAMMA_OMEGA: {Region.DOPANT, Region.ENZ}}
    if tag == Bnd.GAMMA_INF:
        return 1.0
    return 1.0 if inside[tag] & _as_region_set(regions) else -1.0


# The element kernel.  An element matrix is symmetric, so it is held as its
# distinct entries, the upper triangle in ``np.triu_indices`` order, each a
# 1-D array over the elements: for a triangle (0, 0), (0, 1), (0, 2),
# (1, 1), (1, 2), (2, 2).
_ROW, _COL = np.triu_indices(3)


def _stiffness_entries(b: np.ndarray, c: np.ndarray, area: np.ndarray,
                       tensor=None) -> np.ndarray:
    """The six entries of each triangle's ``int g grad(u).grad(v)``, as ``(6, T)``.

    ``tensor`` None is the Laplacian, real; otherwise it is ``(g11, g12,
    g22)``, one complex symmetric tensor per triangle, which only the PML
    collar needs.  A diffusion that is a scalar times the identity scales
    the real entries instead.

    Cost of the kernel in use (medians of 5 in each of two sets of runs on
    a 2-core host with one BLAS thread): the first :func:`assemble` of the
    canonical exterior with its collar, on a fresh mesh, takes 80-90 ms at
    h = 0.05 (59,184 triangles) and 0.33-0.35 s at h = 0.025 (236,232),
    against 127-148 ms and 0.58-0.71 s with full 3 x 3 complex element
    matrices built by broadcasting.
    """
    f = 1.0 / (4.0 * area)
    if tensor is None:    # (b_i b_j + c_i c_j) f, in place
        entries, cc = b[_ROW], c[_ROW]
        entries *= b[_COL]
        cc *= c[_COL]
        entries += cc
        entries *= f
        return entries
    bi, bj, ci, cj = b[_ROW], b[_COL], c[_ROW], c[_COL]
    g11, g12, g22 = tensor
    return (g11 * (bi * bj) + g12 * (bi * cj + ci * bj) + g22 * (ci * cj)) * f


def _mass_entries(area: np.ndarray, lump: float) -> np.ndarray:
    """The six entries of each triangle's ``int u v``, as ``(6, T)``.

    The consistent mass, ``area / 12 (ones + eye)``, with the fraction
    ``lump`` of it replaced by its row-sum lumping ``area / 3 eye``: one
    diagonal and one off-diagonal weight times the area.
    """
    weight = np.where(_ROW == _COL, (1.0 - lump) / 6.0 + lump / 3.0, (1.0 - lump) / 12.0)
    return np.outer(weight, area)


def _scatter(elems: np.ndarray, entries: np.ndarray, n: int) -> sp.csc_matrix:
    """Sum symmetric element matrices into an ``n x n`` CSC matrix.

    ``elems`` is ``(E, m)`` local node numbers, ``entries`` the distinct
    entries of every element matrix, ``(m (m + 1) / 2, E)`` in
    ``np.triu_indices(m)`` order.  Each element's full ``m x m`` block is
    placed row by row, element after element, and SciPy's COO-to-CSC conversion
    sums the entries that land on one position in the order it leaves them: a
    stable sort by column, then an unstable sort within each column, so not in
    element order (in 3 x 3 tests with 200 entries per position, 7 to 9 of the
    9 sums differed from the element-order sum).  The artifacts' bytes
    depend on that order, which is why the scatter keeps SciPy's public
    conversion rather than summing the triplets itself.
    """
    m = elems.shape[1]
    full = np.zeros((m, m), dtype=np.intp)
    full[np.triu_indices(m)] = np.arange(len(entries))
    full = np.maximum(full, full.T).ravel()    # the distinct entry of each position
    rows = np.repeat(elems, m, axis=1).ravel()
    cols = np.tile(elems, (1, m)).ravel()
    data = np.take(entries.T, full, axis=1).ravel()
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()


def mass_matrix(mesh: Mesh, regions) -> sp.csc_matrix:
    """Region mass matrix on ``region_nodes(regions)`` numbering."""
    tris, _, _, area = _region_elements(mesh, regions)
    n = len(mesh.region_nodes(regions))
    return _scatter(tris, _mass_entries(area, MASS_LUMP_FRACTION), n).astype(complex)


def stiffness_matrix(mesh: Mesh, regions) -> sp.csc_matrix:
    """Region Laplace stiffness on ``region_nodes(regions)`` numbering."""
    tris, b, c, area = _region_elements(mesh, regions)
    n = len(mesh.region_nodes(regions))
    return _scatter(tris, _stiffness_entries(b, c, area), n).astype(complex)


def renumber(mesh: Mesh, A: sp.csc_matrix, regions, numbering) -> sp.csc_matrix:
    """``A``, on ``region_nodes(regions)``, placed on ``region_nodes(numbering)``.

    ``numbering`` is a region set containing ``regions``.  Both node lists are
    sorted, so each row and column keeps its order: the entries are moved,
    never summed or re-sorted.
    """
    pos = mesh.region_pos(numbering)[mesh.region_nodes(regions)]
    n = len(mesh.region_nodes(numbering))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[pos + 1] = np.diff(A.indptr)
    return sp.csc_matrix((A.data, pos[A.indices], np.cumsum(indptr)), shape=(n, n))


def _boundary_mass(mesh: Mesh, regions, tag: Bnd) -> sp.csc_matrix:
    """Mass of a tagged curve on ``region_nodes(regions)``; TagMismatch if outside."""
    _local_boundary(mesh, regions, tag)   # every edge node lies in the regions
    edges = mesh.region_pos(regions)[mesh.boundary_edges[tag]]
    lens = mesh.boundary_edge_lengths(tag)
    return _scatter(edges, np.outer(np.array([2.0, 1.0, 2.0]) / 6.0, lens),
                    len(mesh.region_nodes(regions)))


# ---------------------------------------------------------------------------
# the fill-reducing order and factorization


# Parts of at most this many nodes are not bisected again; they keep their
# natural (increasing) node order.
_ND_LEAF = 32

# The side of a node whose place in the order is final.  Between the sides
# lower (0), upper (1) and this, a difference is -1 only for a lower-upper
# pair and 1 only for an upper-lower one.
_PLACED = -100


def node_order(mesh: Mesh, regions, fixed_tags=(), last_tags=()) -> np.ndarray:
    """The fill-reducing order of the nodes of ``regions`` off ``fixed_tags``.

    The order is of positions in ``split_nodes(mesh, regions, fixed_tags)[0]``,
    the numbering of the Dirichlet block with those tags fixed.  The nodes on
    neither the fixed nor the ``last_tags`` curves come first, in the
    geometric nested-dissection order of :func:`_nested_dissection` on the
    regions' triangle edges; the nodes of each last curve follow, in boundary
    order.  The last curves are disjoint and not fixed.

    The order depends on the node set only, never on the coefficients: it is
    kept in :meth:`Mesh.cached` under ``("order", regions, fixed, last)`` with
    key None, so a new k or delta never reorders, and an order with last tags
    reuses the one that has those tags fixed.
    """
    regions = _as_region_set(regions)
    fixed = frozenset(Bnd(t) for t in fixed_tags)
    last = tuple(Bnd(t) for t in last_tags)

    def build():
        keep = split_nodes(mesh, regions, fixed)[0]
        if last:
            held = fixed | set(last)
            head = split_nodes(mesh, regions, held)[0][node_order(mesh, regions, held)]
            tail = [_local_boundary(mesh, regions, tag) for tag in last]
            return np.searchsorted(keep, np.concatenate([head, *tail]))
        pos = np.full(len(mesh.region_nodes(regions)), -1)
        pos[keep] = np.arange(len(keep))
        tris = pos[mesh.region_pos(regions)[mesh.triangles[mesh.region_triangles(regions)]]]
        ea, eb = tris.ravel(), tris[:, [1, 2, 0]].ravel()   # every triangle edge
        both = (ea >= 0) & (eb >= 0)
        return _nested_dissection(mesh.nodes[mesh.region_nodes(regions)[keep]], ea[both], eb[both])
    return mesh.cached(("order", regions, fixed, last), None, build)


def _nested_dissection(xy: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection order of points ``xy`` joined by edges ``(ea, eb)``.

    A part of more than ``_ND_LEAF`` points is bisected at the median of its
    longer coordinate extent (George, SIAM J. Numer. Anal. 10, 1973).  The
    separator is every lower-half point with an upper-half neighbour, so no
    edge joins what is left of the two halves, and the part is ordered as
    lower half less separator, upper half, separator.  Both halves are then
    bisected in turn.  A separator stays in coordinate order and a leaf in
    index order.

    One level of the recursion bisects every part at once: one sort of
    (part, coordinate rank) orders each part along its axis, the two
    coordinate ranks computed once with ties broken by index, so the order
    is deterministic.  Two parts are never joined by an edge, so the edges
    need no sorting into parts.  Returns the point indices in elimination
    order.
    """
    n = len(xy)
    by_rank = np.argsort(xy.T, axis=1, kind="stable")    # the points by x, then by y
    rank = np.empty_like(by_rank)
    np.put_along_axis(rank, by_rank, np.arange(n)[None, :], axis=1)
    by_rank, rank = by_rank.ravel(), rank.ravel()
    x_all, y_all = xy[:, 0].copy(), xy[:, 1].copy()
    order = np.arange(n)
    side = np.zeros(n, dtype=np.int8)     # 0 lower, 1 upper half, or _PLACED
    starts, sizes = np.zeros(1, dtype=np.intp), np.array([n])   # parts, as spans of order
    leaves = []
    while True:
        small = sizes <= _ND_LEAF
        leaves.append((starts[small], sizes[small]))
        side[order[_spans(starts[small], sizes[small])]] = _PLACED
        starts, sizes = starts[~small], sizes[~small]
        if not len(sizes):
            break
        first = np.cumsum(sizes) - sizes
        pos = _spans(starts, sizes)
        nodes = order[pos]
        x, y = x_all[nodes], y_all[nodes]
        tall = (np.maximum.reduceat(y, first) - np.minimum.reduceat(y, first)
                > np.maximum.reduceat(x, first) - np.minimum.reduceat(x, first))
        axis = np.repeat(tall * n, sizes)     # where the part's axis starts in rank
        key = np.sort(np.repeat(np.arange(len(sizes)) * 2 * n, sizes) + axis + rank[axis + nodes])
        nodes = by_rank[key % (2 * n)]
        half = sizes // 2
        side[nodes] = pos >= np.repeat(starts + half, sizes)
        lower_upper = side[ea] - side[eb]
        side[ea[lower_upper == -1]] = _PLACED
        side[eb[lower_upper == 1]] = _PLACED
        sep = side[nodes] == _PLACED
        before = np.cumsum(sep) - sep
        base = before[first]                                 # separator points before each part
        n_sep = before[first + sizes - 1] + sep[first + sizes - 1] - base
        # lower half less separator, upper half, separator
        dest = pos - before + np.repeat(base, sizes)
        at = np.flatnonzero(sep)
        part = np.searchsorted(first, at, side="right") - 1
        dest[at] = (starts + sizes - n_sep - base)[part] + before[at]
        order[dest] = nodes
        starts = np.stack([starts, starts + half - n_sep], axis=1).ravel()
        sizes = np.stack([half - n_sep, sizes - half], axis=1).ravel()
    starts, sizes = (np.concatenate(spans) for spans in zip(*leaves))
    at = _spans(starts, sizes)
    order[at] = np.sort(np.repeat(np.arange(len(sizes)), sizes) * n + order[at]) % n
    return order


def _spans(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[start, start + size)``, one after another."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def factor(A: sp.csc_matrix):
    """SuperLU factorization of a square CSC matrix, in the order given.

    The caller has already permuted ``A`` into a :func:`node_order` (see
    :class:`Factored`), so the columns are kept as they come
    (``permc_spec="NATURAL"``; symmetric mode does not postorder them).
    Every matrix factored here is structurally symmetric (P1 stiffness and
    mass, Dirichlet blocks of them, and their bordered Neumann and deflated
    forms), and the transmission, exterior and dopant blocks are complex
    symmetric as well.  Two choices follow from that:

    - The order is nested dissection on the node graph, which is the graph
      of ``A + A^T``.  Against the minimum degree on ``A + A^T`` that SuperLU
      computed on every call before (medians of 5 in each of two sessions
      on a 2-core host with one BLAS thread): the exterior Dirichlet block
      at h = 0.025 (117,328 nodes) factors in 1.07-1.13 s, after a 0.22 s
      order made once per mesh, against 1.83-2.20 s, with nnz(L + U) 10.61M
      against 11.48M (COLAMD: 18.85M); at h = 0.05 order and factorization
      take 0.29 s against 0.29-0.34 s.  The bordered Neumann system at
      h = 0.025 factors in 0.041-0.044 s against 0.12-0.16 s, and SuperLU
      stores 455k entries of its factors against 888k, though nnz(L + U) is
      454k against 411k: minimum degree without the postorder that
      symmetric mode skips pads the supernodes.  Omega's per-delta operator
      at h = 0.05 factors in 14.5-14.8 ms against 18.4-19.3 ms.
    - SuperLU runs in symmetric mode: rows are permuted like the columns and
      a diagonal entry is the pivot whenever its modulus is at least 0.1 of
      the largest in its column, so the column search of partial pivoting is
      skipped and the fill stays that of the order.  Medians of 3-5
      factorizations under the minimum-degree order, partial pivoting
      against symmetric mode: transmission block 0.57-0.64 s to 0.35-0.38 s
      at h = 0.05 (four deltas) and 4.95 s to 2.48 s at h = 0.025; exterior
      block 0.51 s to 0.31 s at h = 0.05 and 3.1 s to 2.3 s at h = 0.025;
      triangular solves equal or faster.  The threshold is not 0: the
      bordered Neumann and deflated systems have a zero border diagonal
      next to a (near-)singular block.  With threshold 0 they take a
      roundoff-sized diagonal pivot and, without any breakdown, solve with a
      backward error of 1e-4 to 1e-3 (canonical mesh, h = 0.1); 0.1 falls
      back to an off-diagonal pivot there.
    - The panel width of SuperLU's supernodal panel algorithm (Demmel,
      Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20, 1999) is
      4, not scipy's default: its work arrays grow with the width.  For the
      exterior Dirichlet block at h = 0.025 (117,328 unknowns, nnz(L + U)
      10.67M) the process grows by 212-213 MB during the factorization
      instead of 255-256 MB (width 2: 210-211 MB, width 1: 204 MB), in
      1.12 s against 1.18 s (width 2: 1.10 s, width 1: 1.30 s; interleaved
      medians of 3); at h = 0.05 (29,196 unknowns) it factors in 186 ms
      against 228 ms (medians of 15).  Measured on a 2-core host with one
      BLAS thread.  A solve moves by roundoff, about 5e-15 relative.

    ``A`` comes in double precision, or, from a single-precision
    :class:`Factored`, as its ``complex64`` copy, which is factored with the
    same options and order: on the exterior Dirichlet block at h = 0.025 in
    0.63 s against 1.01 s, with the process growing by +128 MB against
    +214 MB.  Its solves are refined to double by :meth:`Factored.lu_solve`.

    :func:`interface_last` reads a Schur complement off the CSC copies of
    both factors that reading ``lu.L`` and ``lu.U`` makes SuperLU keep on the
    LU, and empties them once read, so a kept LU costs its own factors only.

    ``splu`` sorts the column indices of ``A`` in place, so ``A`` is changed
    under a caller that keeps it.  Every caller passes a fresh cut, which
    nothing else holds (:attr:`Factored.lu`); a kept matrix, a whole
    :attr:`LinearSystem.A`, would have its products summed in another order.

    A breakdown (an exactly singular pivot) raises SINGULAR_SYSTEM.
    """
    try:
        return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.1, panel_size=4,
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(f"factorization failed: {exc}") from exc


try:
    _LIBC = ctypes.CDLL(None)     # the C library the process runs on
except (OSError, TypeError):      # no such handle on this platform
    _LIBC = None


def trim_heap() -> None:
    """Return the heap's free pages to the OS (glibc ``malloc_trim(0)``).

    Does nothing where the C library has no ``malloc_trim``.
    """
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def interface_last(A: sp.csc_matrix, order: np.ndarray, n_last: int):
    """Factor ``A``'s block on ``order`` and read off the Schur complement of its tail.

    ``order`` is the positions in ``A`` of the block's unknowns (see
    :class:`Factored`), in a :func:`node_order` with last tags, whose final
    ``n_last`` entries are the trailing nodes.  The trailing block of the
    factors of the block in that order is then ``S = A_tt - A_tl A_ll^-1
    A_lt``, as long as threshold pivoting kept every trailing row in the
    trailing block; SINGULAR_SYSTEM otherwise.

    Returns the block as a :class:`Factored`, and ``S`` as a dense array on
    the tail's order.  The CSC copies of ``lu.L`` and ``lu.U`` that SuperLU keeps
    (see :func:`factor`) are then emptied in place into valid matrices with no
    entries: the LU solves as before, and nothing may read them afterwards.
    """
    B = Factored(A, order)
    trim_heap()
    lu = B.lu
    m = len(order) - n_last
    if not (lu.perm_r[m:] >= m).all():
        raise SingularSystem("pivoting moved an interface row into the eliminated block")
    L, U = lu.L, lu.U
    # rows of the trailing block come out in perm_r's order; put them back
    S = (L[m:, m:] @ U[m:, m:]).toarray()[lu.perm_r[m:] - m]
    for F in (L, U):   # cached on the LU; were they fresh copies, dropping L, U would free them
        F.data, F.indices, F.indptr = F.data[:0].copy(), F.indices[:0].copy(), 0 * F.indptr
    return B, S


# Largest accepted normwise backward error ||Ax-b|| / (||A|| ||x|| + ||b||).
BACKWARD_RTOL = 1e-10


def block_norm(A: sp.spmatrix, rows: np.ndarray) -> float:
    """``||A_rr||_inf`` of ``A``'s principal block on ``rows``, read off ``A`` through a mask.

    The masked product adds the block's entries of each row in the order
    that the sliced block's own row sums would, so it gives the same bits.
    """
    mask = np.zeros(A.shape[0], dtype=bool)
    mask[rows] = True
    return float((abs(A) @ mask)[rows].max(initial=0.0))


def block_product(A: sp.spmatrix, rows: np.ndarray, x: np.ndarray, trans: str = "N") -> np.ndarray:
    """``A_rr x``, or ``A_rr^H x`` with ``trans="H"``, for ``A``'s principal block on ``rows``.

    ``x`` (a vector or columns of vectors on ``rows``) is padded with zeros to
    all of ``A``'s rows, so the product adds the same nonzero terms in the same
    order as one with the sliced block ``A_rr``, and gives the same bits.
    """
    z = np.zeros((A.shape[0],) + x.shape[1:], dtype=x.dtype)
    z[rows] = x
    return (A @ z if trans == "N" else np.conj(A.T @ np.conj(z)))[rows]


def free_load(A: sp.csc_matrix, rhs: np.ndarray, free, fixed, u: np.ndarray) -> np.ndarray:
    """``rhs_f - A_fd u_d``: the load on the ``free`` rows, with the values ``u[fixed]`` lifted.

    The lift is read off ``A``'s fixed columns, and only when some fixed
    value is not zero.
    """
    b = rhs[free]
    return b - (A[:, fixed] @ u[fixed])[free] if u[fixed].any() else b


# Most refinement steps of a single-precision LU's solve.
_REFINE_STEPS = 3
# A refined solve stops once its normwise backward error is at most this:
# a few units of double-precision roundoff.
_ROUNDOFF = 4 * np.finfo(float).eps


class Factored:
    """A principal block of a square CSC matrix, with its infinity norm and its LU.

    ``order`` holds the positions in ``A`` of the block's unknowns, in a
    fill-reducing elimination order: a :func:`node_order` on ``A``'s rows,
    with any border indices appended.  It covers every row of ``A`` or only
    some, and ``A`` is held by reference, never sliced into a copy.  Every
    vector lives on the block's rows in increasing order (``rows``): a solve
    reads ``b`` and returns ``x`` in that numbering, which is ``A``'s own when
    the block is all of ``A``.  The LU, built on first use, is the
    :func:`factor` of ``A[order][:, order]``, cut in one step from ``A``
    after the cast to the LU's precision (a cast after the cut can order the
    indices within a column differently).  The norm (:func:`block_norm`),
    the refinement's products and :meth:`solve`'s check read ``A`` through
    the block's rows, the products by :func:`block_product`, so they give the
    bits of the sliced block's.  :meth:`solve` is the residual contract of a
    bare factorization; a :class:`DirichletBlock` is checked by :func:`solve`.

    The precision of the LU is chosen when the matrix is made.  With
    ``single`` the LU is the :func:`factor` of the single-precision copy of
    ``A`` (``complex64`` for a complex ``A``), with the same options and
    order, and :meth:`lu_solve` refines its answer in double against the
    ``A`` it holds (Carson & Higham, SIAM J. Sci. Comput. 40, 2018; Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 12): each step
    solves for the double residual ``b - A x`` off the LU and adds the
    correction, until the residual stops halving or its backward error is
    at most 4 eps (double-precision roundoff), at most three steps.  So a
    caller gets a double-precision answer, and every check is unchanged.
    On the exterior Dirichlet block at h = 0.025 (117,328 unknowns, nnz(L +
    U) 10.67M), on a 2-core host with one BLAS thread, the factorization took
    0.63 s and grew the process by +128 MB in ``complex64``, against 1.01 s
    and +214 MB in ``complex128``; the backward error was 1.3e-8 after the
    single-precision solve, 2.8e-13 after one step and 1.8e-17 after two,
    against 2.5e-17 off the double LU, so a solve there takes three passes
    off the LU, not the four of the halving rule alone.  A step costs about
    a double solve, so single precision pays only for an LU that serves a
    few solves (see :func:`enzlab.auxiliary.exterior_single`).
    """

    def __init__(self, A: sp.csc_matrix, order: np.ndarray, single: bool = False):
        self.A = A
        self.order = order
        self.rows, self._perm = np.unique(order, return_inverse=True)   # rows[_perm] is order
        self.norm = block_norm(A, self.rows)
        self.single = single
        self.lu_dtype = (np.dtype(np.complex64 if A.dtype.kind == "c" else np.float32)
                         if single else A.dtype)

    @cached_property
    def lu(self):
        return factor(self.A.astype(self.lu_dtype, copy=False)[self.order][:, self.order].tocsc())

    def lu_solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """``A^-1 b``, or ``A^-H b`` with ``trans="H"``, off the LU, refined if single; unchecked."""
        x = self._off_lu(b, trans)
        if not self.single:
            return x
        r = b - block_product(self.A, self.rows, x, trans)
        res, b_norm = np.linalg.norm(r), np.linalg.norm(b)
        for _ in range(_REFINE_STEPS):
            if res <= _ROUNDOFF * (self.norm * np.linalg.norm(x) + b_norm):   # at roundoff
                break
            x_new = x + self._off_lu(r, trans)
            r_new = b - block_product(self.A, self.rows, x_new, trans)
            res_new = np.linalg.norm(r_new)
            if res_new < res:
                x, r = x_new, r_new
            if not res_new < 0.5 * res:   # stopped halving
                break
            res = res_new
        return x

    def _off_lu(self, b: np.ndarray, trans: str) -> np.ndarray:
        """One solve off the LU alone, on the block's rows and in ``A``'s precision."""
        lu = self.lu   # a first use factors here, before b's permuted copy can sit under its peak
        y = b[self._perm]
        if self.single:   # scaled to 1, so that a small residual does not underflow
            scale = np.abs(y).max(initial=0.0) or 1.0
            y = lu.solve((y / scale).astype(self.lu_dtype), trans=trans)
            y = y.astype(np.result_type(self.A.dtype, b.dtype)) * scale
        else:
            y = lu.solve(y, trans=trans)
        x = np.empty_like(y)
        x[self._perm] = y
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """:meth:`lu_solve`, checked against the block.

        Raises SINGULAR_SYSTEM if the solution is not finite or its normwise
        backward error ||Ax-b|| / (||A|| ||x|| + ||b||) exceeds ``BACKWARD_RTOL``:
        a bad pivot then shows as an error, not as a wrong field.
        """
        x = self.lu_solve(b)
        _check_backward_error(block_product(self.A, self.rows, x) - b, self.norm, x, b,
                              BACKWARD_RTOL)
        return x


def _check_backward_error(resid: np.ndarray, norm: float, x: np.ndarray,
                          b: np.ndarray, rtol: float) -> None:
    """SINGULAR_SYSTEM unless ``x`` is finite and ||r|| <= rtol (||A|| ||x|| + ||b||)."""
    if not np.isfinite(x).all():
        raise SingularSystem("factorization produced non-finite values")
    resid = np.linalg.norm(resid)
    denom = norm * np.linalg.norm(x) + np.linalg.norm(b)
    if resid > rtol * denom:
        raise SingularSystem(
            f"backward error {resid / denom:.3e} exceeds {rtol:.1e}; "
            "system is numerically singular")


# ---------------------------------------------------------------------------
# system assembly


def bordered(A: sp.spmatrix, B: np.ndarray) -> sp.csc_matrix:
    """The saddle-point matrix ``[[A, B], [B^H, 0]]`` for constraint columns ``B``."""
    B = sp.csc_matrix(B)
    return sp.bmat([[A, B], [B.conj().T, None]], format="csc")


class DirichletBlock(Factored):
    """The free block of a system for one set of Dirichlet tags, a :class:`Factored`.

    ``order`` is the free nodes' positions in the system's ``A`` in their
    :func:`node_order`, so :attr:`rows` are the free nodes.  The block adds
    the ``fixed`` nodes, whose columns :func:`free_load` reads, and an LU
    factored on first use on a trimmed heap.  It holds ``A`` by reference and
    no slice of it, so no copy of the free block (16.1 MiB for the exterior
    at h = 0.025) is alive next to ``A`` while its LU is factored.
    """

    def __init__(self, A: sp.csc_matrix, order: np.ndarray, fixed: np.ndarray,
                 single: bool = False):
        super().__init__(A, order, single)
        self.fixed = fixed   # local indices of the constrained nodes

    @cached_property
    def lu(self):
        # trimmed right before the factorization: a trim when the block is made
        # leaves what the loads and lifts allocate after it under the LU's peak
        trim_heap()
        return super().lu


@dataclass(eq=False)
class LinearSystem:
    """Assembled sparse operator on the active nodes of a region set."""

    mesh: Mesh
    regions: frozenset
    A: sp.csc_matrix
    nodes: np.ndarray
    _blocks: dict = dc_field(default_factory=dict, repr=False)   # every copy shares them

    def dirichlet_block(self, tags, single: bool = False) -> DirichletBlock:
        """Block with the nodes of the ``Bnd`` tags fixed; built once per tag set.

        ``single`` is the precision of the LU of a block this call builds; a
        block built before keeps its own.
        """
        tags = frozenset(Bnd(t) for t in tags)
        block = self._blocks.get(tags)
        if block is None:
            free, fixed = split_nodes(self.mesh, self.regions, tags)
            block = self._blocks[tags] = DirichletBlock(
                self.A, free[node_order(self.mesh, self.regions, tags)], fixed, single)
        return block

    def local_boundary(self, tag: Bnd) -> np.ndarray:
        return _local_boundary(self.mesh, self.regions, tag)


def _pml_coefficients(mesh: Mesh, tri_idx: np.ndarray, k: complex, rad: RadiationSpec):
    """Stretch tensor (g11, g12, g22) and reaction factor per collar triangle."""
    r_in = mesh.pml_inner_radius
    r_out = mesh.truncation_radius
    t = r_out - r_in
    cen = mesh.tri_centroids[tri_idx]
    r = np.linalg.norm(cen, axis=1)
    s = np.clip((r - r_in) / t, 0.0, 1.0)
    sig0 = rad.sigma(t)
    p = rad.stretch_order
    sigma = sig0 * s**p
    integ = sig0 * t * s**(p + 1) / (p + 1)
    gam = r + (1j / k) * integ
    gamp = 1.0 + (1j / k) * sigma
    g_rr = gam / (gamp * r)
    g_tt = gamp * r / gam
    ex, ey = cen[:, 0] / r, cen[:, 1] / r
    g11 = g_rr * ex**2 + g_tt * ey**2
    g12 = (g_rr - g_tt) * ex * ey
    g22 = g_rr * ey**2 + g_tt * ex**2
    react = gam * gamp / r
    return g11, g12, g22, react


def _element_entries(mesh: Mesh, regions, diffusion: dict, reaction: dict,
                     radiation: RadiationSpec | None, k: complex | None):
    """The regions' triangles, on their own nodes, and their ``(6, T)`` entries.

    With ``radiation`` the collar's triangles take the stretched tensor.
    Each kernel runs only on the triangles whose entries it gives, and every
    element array dies with this frame, before :func:`_scatter` expands the
    entries.
    """
    mask = mesh.region_triangles(regions)
    tris, b, c, area = _region_elements(mesh, regions)
    reg = mesh.tri_region[mask]

    a_t = np.zeros(len(tris), dtype=complex)
    c_t = np.zeros(len(tris), dtype=complex)
    for r in regions:
        sel = reg == r
        if not sel.any():
            continue
        a_val = complex(diffusion[r])
        if a_val == 0:
            raise ZeroCoefficient(f"zero diffusion coefficient on region {r.name}")
        a_t[sel] = a_val
        c_t[sel] = complex(reaction.get(r, 0.0))

    local = np.empty((6, len(tris)), dtype=complex)
    iso = slice(None) if radiation is None else np.flatnonzero(reg != Region.PML)
    local[:, iso] = (a_t[iso] * _stiffness_entries(b[:, iso], c[:, iso], area[iso])
                     - c_t[iso] * _mass_entries(area[iso], MASS_LUMP_FRACTION))
    if radiation is not None:
        collar = np.flatnonzero(reg == Region.PML)
        p11, p12, p22, react = _pml_coefficients(mesh, np.flatnonzero(mask)[collar], k, radiation)
        a, area_c = a_t[collar], area[collar]
        stiff = _stiffness_entries(b[:, collar], c[:, collar], area_c,
                                   (a * p11, a * p12, a * p22))
        mass = _mass_entries(area_c, MASS_LUMP_FRACTION)
        local[:, collar] = stiff - c_t[collar] * react * mass
    return tris, local


def assemble(mesh: Mesh, regions, diffusion: dict, reaction: dict,
             radiation: RadiationSpec | None = None, k: complex | None = None) -> LinearSystem:
    """Assemble ``int a grad(u).grad(v) - c u v`` plus radiation terms.

    ``diffusion`` and ``reaction`` map each active region tag to a complex
    constant.  With ``radiation`` the collar triangles get the complex-stretched
    anisotropic tensor; regions without any get a first-order absorbing term
    on the truncation circle, which must then bound them (TAG_MISMATCH
    otherwise).  The result is complex symmetric (not Hermitian) and
    numbered on ``region_nodes(regions)``.

    Its peak memory is the scatter's, since :func:`_element_entries` frees
    the element arrays first.  In a fresh process at h = 0.025 the
    canonical exterior raises the peak from 121 to 223 MB (282 MB with the
    element arrays alive through the scatter), below the 246 MB of its
    single-precision factorization.
    """
    regions = _as_region_set(regions)
    if not mesh.region_triangles(regions).any():
        raise TagMismatch("no triangles in requested regions")
    if radiation is not None and k is None:
        raise ValueError("radiation assembly needs the wavenumber k")
    collar = Region.PML in regions and mesh.region_triangles(Region.PML).any()
    nodes = mesh.region_nodes(regions)
    A = _scatter(*_element_entries(mesh, regions, diffusion, reaction,
                                   radiation if collar else None, k), len(nodes))
    if radiation is not None and not collar:
        r_t = mesh.truncation_radius
        q = complex(diffusion.get(Region.EXTERIOR, 1.0)) * (1j * k - 1.0 / (2.0 * r_t))
        A = A - q * _boundary_mass(mesh, regions, Bnd.GAMMA_INF)
    return LinearSystem(mesh, regions, A, nodes)


# ---------------------------------------------------------------------------
# solving


@dataclass
class SolveRecord:
    """The system, load and residual of a field that passed :func:`solve`'s check."""

    system: LinearSystem
    rhs: np.ndarray            # full right-hand side on active nodes
    resid: np.ndarray          # system.A @ u - rhs, formed once by the field's check


# Solutions amplified beyond this (relative to ||b|| / ||A||) indicate a
# numerically singular operator even when the backward error looks fine.
_AMPLIFICATION_LIMIT = 1e13


def solve(system: LinearSystem, rhs: np.ndarray, dirichlet: dict | None = None,
          rtol: float = BACKWARD_RTOL) -> ScalarField:
    """Direct sparse solve with a residual contract.

    ``rhs`` is a dual vector aligned with ``system.nodes``.  ``dirichlet``
    maps boundary tags to trace values (scalar or per-node array).  The free
    block is solved off its LU and checked as :func:`certify` checks, on the
    block's norm: SINGULAR_SYSTEM if factorization breaks down, the normwise
    backward error exceeds ``rtol``, or the solution is amplified at the
    working-precision singularity level (the strongly scaled shell block
    makes a plain ||Ax-b|| <= rtol ||b|| test unattainable in double
    precision while the solve is still perfectly reliable).
    """
    rhs = np.asarray(rhs, dtype=complex)
    dirichlet = dict(dirichlet or {})
    block = system.dirichlet_block(dirichlet)
    u = np.zeros(len(system.nodes), dtype=complex)
    for tag, val in dirichlet.items():
        u[system.local_boundary(Bnd(tag))] = val
    b_free = free_load(system.A, rhs, block.rows, block.fixed, u)
    if np.linalg.norm(b_free) == 0.0:     # the free values stay zero
        return _checked_field(system, rhs, u)
    u[block.rows] = block.lu_solve(b_free)
    return _checked_field(system, rhs, u, block.rows, block.norm, b_free, rtol)


def _checked_field(system: LinearSystem, rhs: np.ndarray, u: np.ndarray, free=None,
                   norm: float = 0.0, b_free=None, rtol: float = BACKWARD_RTOL) -> ScalarField:
    """``u`` as a field of ``system``, with its residual ``A u - rhs`` formed once.

    Unless ``free`` is None, the residual's ``free`` rows are checked against
    the free block, of infinity norm ``norm`` and load ``b_free``:
    SINGULAR_SYSTEM if the normwise backward error exceeds ``rtol`` or
    ``u[free]`` is amplified at the singularity level.
    """
    resid = system.A @ u - rhs
    if free is not None:
        x = u[free]
        _check_backward_error(resid[free], norm, x, b_free, rtol)
        if norm * np.linalg.norm(x) > _AMPLIFICATION_LIMIT * np.linalg.norm(b_free):
            raise SingularSystem("solution amplification at working-precision singularity level")
    return ScalarField(system.mesh, system.regions, u, SolveRecord(system, rhs, resid))


def certify(system: LinearSystem, rhs: np.ndarray, dirichlet: dict,
            values: np.ndarray) -> ScalarField:
    """A field solved without factoring ``system``, held to :func:`solve`'s contract.

    ``values`` must carry the ``dirichlet`` values on the fixed nodes.  The
    free rows go through :func:`solve`'s check at ``BACKWARD_RTOL``, with
    :func:`solve`'s norm rule (:func:`block_norm`) and lift
    (:func:`free_load`), so nothing is ordered, sliced or factored, and
    the field carries the same :class:`SolveRecord` as one from
    :func:`solve`.  With every fixed value zero, as in the direct solve, the
    free load is ``rhs`` itself, so only nonzero values cost the lift.  On
    the canonical exterior at h = 0.025 (2-core host, one BLAS thread,
    medians of 60) the lift through the fixed columns took 0.41 ms, against
    2.5 ms for a matvec with all of ``system.A`` and 0.06 ms off a kept
    ``A_fd`` slice, and all three gave the same bits; no slice is kept to
    win back the 0.35 ms.
    """
    free, fixed = split_nodes(system.mesh, system.regions, dirichlet)
    return _checked_field(system, rhs, values, free, block_norm(system.A, free),
                          free_load(system.A, rhs, free, fixed, values))


def flux_extract(fieldval: ScalarField, system: LinearSystem, tag: Bnd,
                 orientation: str = "domain") -> BoundaryFunctional:
    """Variational flux of a solved field on a tagged boundary.

    The pairing of the result with any discrete trace g equals
    ``a(u, Eg) - l(Eg)`` for the nodal extension E of g; pairing with the
    constant trace gives the total flux through the boundary with respect to
    the domain's outward normal (``orientation="domain"``) or the enclosed
    curve's outward normal (``orientation="canonical"``).  It is read off the
    residual the field's check kept (:class:`SolveRecord`).
    """
    rec = fieldval.record
    if rec is None or rec.system is not system:
        raise TagMismatch("field does not carry a solve record for this system")
    coeffs = rec.resid[system.local_boundary(Bnd(tag))]
    if orientation == "canonical":
        coeffs = coeffs * curve_sign(system.regions, Bnd(tag))
    elif orientation != "domain":
        raise ValueError(f"unknown orientation {orientation!r}")
    return BoundaryFunctional(system.mesh, Bnd(tag), coeffs)


# ---------------------------------------------------------------------------
# mean-zero Neumann solves


# Largest accepted |total data| relative to the summed data moduli.
COMPATIBILITY_RTOL = 1e-6


class NeumannSystem:
    """Pure-Neumann Laplacian on a region set with a mean-zero multiplier.

    The operator does not depend on k: its stiffness ``K``, mass ``M``, hat
    integrals ``m_vec`` and the bordered :class:`Factored` are kept in
    :meth:`Mesh.cached` under ``("neumann", regions)``, so every system on
    one mesh and region set (each corrector engine, each k of a sweep)
    shares one assembly and one factorization.
    """

    def __init__(self, mesh: Mesh, regions=Region.ENZ):
        self.mesh = mesh
        self.regions = _as_region_set(regions)
        self.nodes = mesh.region_nodes(self.regions)

        def build():
            K = stiffness_matrix(mesh, self.regions)
            M = mass_matrix(mesh, self.regions)
            m_vec = np.asarray(M.sum(axis=1)).ravel()   # integral of each hat
            m_vec.setflags(write=False)
            order = np.append(node_order(mesh, self.regions), len(self.nodes))
            # K bordered by the mean-value row
            return K, M, m_vec, Factored(bordered(K, m_vec.real[:, None]), order)
        self.K, self.M, self.m_vec, self._bordered = mesh.cached(
            ("neumann", self.regions), None, build)
        self.area = float(self.m_vec.sum().real)

    def solve(self, volume: np.ndarray | None, fluxes: dict) -> ScalarField:
        """Solve -Lap(u) = volume data with prescribed boundary fluxes.

        ``fluxes`` maps boundary tags to :class:`BoundaryFunctional` given in
        the canonical orientation of each curve; orientation relative to this
        domain is handled internally.  Raises INCOMPATIBLE_DATA when the
        total data violates the discrete solvability condition, and
        SINGULAR_SYSTEM when the bordered solve breaks the backward-error
        contract of :meth:`Factored.solve` or the mean-zero constraint.
        """
        n = len(self.nodes)
        b = np.zeros(n, dtype=complex)
        scale = 0.0
        if volume is not None:
            b += volume
            scale = max(scale, float(np.abs(volume).sum()))
        for tag, h in (fluxes or {}).items():
            tag = Bnd(tag)
            if h.tag != tag:
                raise TagMismatch("functional tag does not match key")
            loc = _local_boundary(self.mesh, self.regions, tag)
            b[loc] += curve_sign(self.regions, tag) * h.values
            scale = max(scale, float(np.abs(h.values).sum()))
        total = b.sum()
        if scale > 0 and abs(total) > COMPATIBILITY_RTOL * scale:
            raise IncompatibleData(
                f"compatibility residual {abs(total):.3e} exceeds "
                f"{COMPATIBILITY_RTOL:.1e} * {scale:.3e}")
        u = self._bordered.solve(np.concatenate([b, [0.0]]))[:n]
        mean = np.dot(self.m_vec, u) / self.area
        norm = math.sqrt(float(np.vdot(u, self.M @ u).real)) if n else 0.0
        if norm > 0 and abs(mean) * math.sqrt(self.area) > 1e-10 * norm:
            raise SingularSystem("mean-zero constraint violated beyond tolerance")
        return ScalarField(self.mesh, self.regions, u)


# ---------------------------------------------------------------------------
# norms and derived quantities


def _window_key(window):
    """The one normal form of a norm window: None, a :class:`Circle`, or a region set.

    A disk is a Circle, valid and in float form when made; anything else names
    regions, as :func:`_as_region_set` reads them.  The result is a window
    again, so normalizing twice changes nothing, and it keys the norm forms.
    """
    if window is None or isinstance(window, Circle):
        return window
    return _as_region_set(window)


def _window_tri_mask(field: ScalarField, window) -> np.ndarray:
    """Triangles of the field inside ``window``; EMPTY_WINDOW if there are none.

    ``window`` is None, a :class:`Circle` or regions (see :func:`_window_key`).
    A triangle is in a Circle when its centroid is, the rim included, which
    :meth:`Circle.contains` leaves out.
    """
    mesh = field.mesh
    window = _window_key(window)
    mask = mesh.region_triangles(field.regions)
    if isinstance(window, Circle):
        (cx, cy), r = window.center, window.radius
        cen = mesh.tri_centroids
        mask = mask & ((cen[:, 0] - cx) ** 2 + (cen[:, 1] - cy) ** 2 <= r * r)
    elif window is not None:
        mask = mask & mesh.region_triangles(window)
    if not mask.any():
        raise EmptyWindow("window selects no triangles")
    return mask


def _tri_values_and_grads(field: ScalarField, tris):
    """Vertex values, gradient and area of the field on the selected triangles.

    ``tris`` is a boolean mask or an index array over the mesh triangles.
    Values are read on the field's own node numbering; a triangle outside the
    field's regions raises TAG_MISMATCH.
    """
    mesh = field.mesh
    if not mesh.region_triangles(field.regions)[tris].all():
        raise TagMismatch(f"triangles outside the field's regions {sorted(field.regions)}")
    tri_nodes, b, c, area = _p1_geometry(mesh, tris)
    vals = field.values[mesh.region_pos(field.regions)[tri_nodes]]
    gx = (vals * b.T).sum(axis=1) / (2.0 * area)
    gy = (vals * c.T).sum(axis=1) / (2.0 * area)
    return vals, gx, gy, area


@dataclass(frozen=True, eq=False)
class _NormForms:
    """The windowed norms of fields on one region set, as quadratic forms.

    ``K`` is the P1 stiffness and ``M`` the consistent mass, both assembled
    on the window's triangles only, on the field's node numbering; ``w``
    holds the window's hat integrals divided by their sum.
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    w: np.ndarray

    def seminorm_sq(self, x: np.ndarray) -> float:
        # K x is blind to constants; taking them out first keeps x^H K x of
        # a near-constant field from cancelling
        return max(_real_form(self.K, x - self.w @ x), 0.0)

    def l2_sq(self, x: np.ndarray) -> float:
        return _real_form(self.M, x)


def _real_form(A: sp.csr_matrix, x: np.ndarray) -> float:
    """``Re x^H A x``, one sparse matvec."""
    return float(np.vdot(x, A @ x).real)


def _norm_forms(field: ScalarField, window) -> _NormForms:
    """The :class:`_NormForms` of the field's regions and ``window``.

    Kept in :meth:`Mesh.cached` under ``("norm forms", field.regions,
    window)``, the window normalized, so every window keeps its own forms; a
    build that finds the window empty raises EMPTY_WINDOW and keeps nothing.
    """
    mesh, regions, key = field.mesh, field.regions, _window_key(window)

    def build():
        tris, b, c, area = _p1_geometry(mesh, _window_tri_mask(field, key))
        tris = mesh.region_pos(regions)[tris].astype(tris.dtype)
        n = len(field.nodes)
        K = _scatter(tris, _stiffness_entries(b, c, area), n).tocsr()
        M = _scatter(tris, _mass_entries(area, 0.0), n).tocsr()
        hat = np.asarray(M.sum(axis=1)).ravel()   # integral of each hat over the window
        w = hat / hat.sum()
        w.setflags(write=False)
        return _NormForms(K, M, w)
    return mesh.cached(("norm forms", regions, key), None, build)


def h1_l2_norms(field: ScalarField, window=None) -> tuple[float, float]:
    """:func:`h1_norm` and :func:`l2_norm` from one lookup of the forms."""
    forms, x = _norm_forms(field, window), field.values
    l22 = forms.l2_sq(x)
    return math.sqrt(forms.seminorm_sq(x) + l22), math.sqrt(l22)


def h1_norm(field: ScalarField, window=None) -> float:
    """Discrete (L2^2 + |grad|^2)^(1/2) over triangles inside the window.

    Every windowed norm reads the cached forms of :func:`_norm_forms`:
    ``||u||^2 = Re x^H M x`` with the consistent mass, and
    ``|u|_1^2 = Re xs^H K xs`` with ``xs = x - w.x``, the field less its
    window mean.  Both equal the triangle-by-triangle sums; the shift keeps
    the seminorm of a near-constant field (the ENZ shell's at small delta)
    from losing the digits an unshifted ``x^H K x`` cancels away.
    """
    return h1_l2_norms(field, window)[0]


def h1_seminorm(field: ScalarField, window=None) -> float:
    """Discrete ``|grad u|`` over the window, from the mean-shifted stiffness form."""
    return math.sqrt(_norm_forms(field, window).seminorm_sq(field.values))


def l2_norm(field: ScalarField, window=None) -> float:
    """Discrete L2 norm over the window, from the consistent-mass form."""
    return math.sqrt(_norm_forms(field, window).l2_sq(field.values))


def integrate(field: ScalarField, window=None) -> complex:
    """Integral of the P1 interpolant over the window."""
    vals, _, _, area = _tri_values_and_grads(field, _window_tri_mask(field, window))
    return complex((vals.mean(axis=1) * area).sum())


def source_load(mesh: Mesh, regions, sources: SourceSpec) -> np.ndarray:
    """Dual vector of ``int f v`` for disk-supported piecewise-constant f.

    Triangles cut by a disk boundary are integrated by uniform subdivision;
    fully covered/uncovered triangles are exact.  The load does not depend on
    the coefficients, so it is kept read-only in :meth:`Mesh.cached`, one per
    region set, until other sources on that region set replace it.

    A triangle's class comes from its vertex distances to the centre; the
    exact distance to the triangle is taken only where the nearest vertex
    is within an edge length of a support circle, and the cut triangles'
    weights are summed in sub-triangle order, so the load is the same, bit
    for bit, as with exact distances everywhere.  Cost (medians of 5 in
    each of two sets of runs on a 2-core host with one BLAS thread), the
    canonical ring source on the exterior with its collar, on a fresh mesh:
    29-34 ms at h = 0.05 (59,184 triangles) and 96-105 ms at h = 0.025
    (236,232), against 74-92 ms and 0.29-0.31 s with the exact distance to
    every triangle.
    """
    regions = _as_region_set(regions)
    return mesh.cached(("load", regions), sources,
                       lambda: _integrate_sources(mesh, regions, sources))


def _integrate_sources(mesh: Mesh, regions, sources: SourceSpec) -> np.ndarray:
    pos = mesh.region_pos(regions)
    out = np.zeros(len(mesh.region_nodes(regions)), dtype=complex)
    if sources is None or sources.is_trivial():
        return out
    tri_idx = np.flatnonzero(mesh.region_triangles(regions))
    tris = mesh.triangles[tri_idx]
    area = mesh.tri_areas[tri_idx]
    x, y = _corners(mesh.nodes, tris)
    edge = np.sqrt(((x[[1, 2, 0]] - x) ** 2 + (y[[1, 2, 0]] - y) ** 2).max(axis=0))
    slack = 1e-9 * mesh.truncation_radius     # far above the roundoff of a distance
    for src in sources.disks:
        if src.amplitude == 0:
            continue
        ring = isinstance(src, SourceRing)   # axisymmetric
        cx, cy = ctr = np.zeros(2) if ring else np.asarray(src.center, dtype=float)
        vertex = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        d_max = vertex.max(axis=0)
        # the distance from the centre to a triangle lies in [closest - edge,
        # closest]; the exact one can compare with a radius otherwise than
        # ``closest`` does only where that bracket reaches the radius
        closest = vertex.min(axis=0)
        unsure = np.zeros(len(tris), dtype=bool)
        for rad in ((src.r1, src.r2) if ring else (src.radius,)):
            unsure |= (closest - edge - slack <= rad) & (rad <= closest + slack)
        d_min = closest.copy()
        d_min[unsure] = _dist_point_tri(ctr, mesh.nodes[tris[unsure]])
        if ring:
            inside_all = (d_min >= src.r1) & (d_max <= src.r2)
            outside_all = (d_max <= src.r1) | (d_min >= src.r2)

            def indicator(px, py, lo=src.r1, hi=src.r2):
                r = np.sqrt(px * px + py * py)
                return (r >= lo) & (r <= hi)
        else:
            inside_all = d_max <= src.radius
            outside_all = d_min > src.radius

            def indicator(px, py, rad=src.radius):
                return (px - cx) ** 2 + (py - cy) ** 2 <= rad * rad
        cut = np.flatnonzero(~inside_all & ~outside_all)
        # fully covered: exact P1 load  amp * area / 3 per vertex
        w_full = src.amplitude * area[inside_all] / 3.0
        np.add.at(out, pos[tris[inside_all]].ravel(), np.repeat(w_full, 3))
        # cut: 16 x 16 sub-triangles each; sum the barycentric weights of
        # those whose centroid lies in the support, in sub-triangle order
        sub = _SUB_LAM @ mesh.nodes[tris[cut]]
        inside = np.ascontiguousarray(indicator(sub[..., 0], sub[..., 1]).T)
        lam_sum = np.zeros((3, len(cut)))
        for lam, row in zip(_SUB_LAM, inside):
            lam_sum += lam[:, None] * row
        w_cut = src.amplitude * (lam_sum.T * (area[cut] / len(_SUB_LAM))[:, None])
        np.add.at(out, pos[tris[cut]].ravel(), w_cut.ravel())
    return out


def _dist_point_tri(p: np.ndarray, tri_pts: np.ndarray) -> np.ndarray:
    """Distance from point p to each triangle (vectorized over triangles)."""
    d = np.full(len(tri_pts), np.inf)
    for k in range(3):
        a = tri_pts[:, k]
        bb = tri_pts[:, (k + 1) % 3]
        ab = bb - a
        tpar = np.clip(((p - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0.0, 1.0)
        proj = a + tpar[:, None] * ab
        d = np.minimum(d, np.linalg.norm(p - proj, axis=1))
    # zero if p inside triangle
    sgn = np.ones(len(tri_pts), dtype=bool)
    for k in range(3):
        a = tri_pts[:, k]
        bb = tri_pts[:, (k + 1) % 3]
        cross = (bb[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (bb[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
        sgn &= cross >= 0
    d[sgn] = 0.0
    return d


def _sub_centroids(n: int) -> np.ndarray:
    """Barycentric centroids of the n^2 subtriangles of a reference triangle.

    One row per subtriangle, holding its three barycentric coordinates.
    """
    cents = []
    for i in range(n):
        for j in range(n - i):
            cents.append(((3 * i + 1) / (3 * n), (3 * j + 1) / (3 * n)))   # upward
            if j < n - i - 1:
                cents.append(((3 * i + 2) / (3 * n), (3 * j + 2) / (3 * n)))  # downward
    l1, l2 = np.asarray(cents).T
    return np.column_stack([1.0 - l1 - l2, l1, l2])


_SUB_LAM = _sub_centroids(16)


# ---------------------------------------------------------------------------
# recovered boundary flux (independent of the variational route)


def recovered_boundary_flux(field: ScalarField, tag: Bnd) -> tuple[np.ndarray, complex]:
    """Normal derivative on a tagged boundary by local quadratic recovery.

    Fits a complex quadratic to the nodal values in the 2-ring patch of each
    boundary node (within the field's regions) and differentiates it along
    the canonical outward normal of the curve.  Second-order accurate, and
    deliberately independent of the variational flux route.  Returns the
    per-node derivative and its trapezoidal integral over the boundary.
    Raises TAG_MISMATCH when the boundary is not in the field's regions.
    """
    mesh = field.mesh
    loc = _local_boundary(mesh, field.regions, tag)
    tris = _region_elements(mesh, field.regions)[0]
    n = len(field.nodes)
    # node adjacency on the field's own numbering; every node neighbours itself
    adj = (_scatter(tris, np.ones((6, len(tris))), n)
           + sp.identity(n, format="csc")).tocsr()
    bn = mesh.boundary_nodes(tag)
    normals = mesh.boundary_normals[tag]
    # node i of the loop starts edge i and ends edge i - 1
    node_normals = np.mean([normals, np.roll(normals, 1, axis=0)], axis=0)
    deriv = np.zeros(len(bn), dtype=complex)
    for idx, n0 in enumerate(bn):
        pl = loc[idx:idx + 1]   # one ring, then up to two more below 10 nodes
        for _ in range(3):
            if len(pl) >= 10:
                break
            pl = np.unique(adj[pl].indices)
        p0 = mesh.nodes[n0]
        d = (mesh.nodes[field.nodes[pl]] - p0)
        scale = max(np.abs(d).max(), 1e-30)
        d = d / scale
        X = np.column_stack([np.ones(len(pl)), d[:, 0], d[:, 1],
                             d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2])
        coef, *_ = np.linalg.lstsq(X, field.values[pl], rcond=None)
        nv = node_normals[idx] / np.linalg.norm(node_normals[idx])
        deriv[idx] = (coef[1] * nv[0] + coef[2] * nv[1]) / scale
    weights = mesh.boundary_lumped_lengths(tag)
    return deriv, complex(np.dot(weights, deriv))


# ---------------------------------------------------------------------------
# Dirichlet eigenpairs


# Largest accepted ||K u - lambda M u|| / (max(1, |lambda|) ||u||).
_EIG_RESID_TOL = 1e-8


def dirichlet_eigs(mesh: Mesh, count: int, target: float) -> list:
    """Eigenpairs of the Dirichlet Laplacian on the dopant.

    Solves the generalized problem K u = lambda M u on the interior nodes
    via shift-invert Lanczos around ``target``; eigenvectors are returned
    mass-orthonormal as :class:`ScalarField` objects vanishing on the
    dopant boundary.  Every inverse application is a :meth:`Factored.solve`
    on K - target M, factored on the interior rows, so a singular shift
    raises SINGULAR_SYSTEM.  The interior blocks of K and M are read off the
    dopant's K and M by :func:`block_product`, never sliced out.  MESH_FAILURE
    when the dopant has no more interior nodes than ``count``: ARPACK needs
    more unknowns than eigenpairs.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    il = split_nodes(mesh, Region.DOPANT, [Bnd.GAMMA_D])[0]
    if count >= len(il):
        raise MeshFailure(f"{count} eigenpairs need more than the {len(il)} interior "
                          "dopant nodes; refine h")
    order = node_order(mesh, Region.DOPANT, [Bnd.GAMMA_D])
    K = stiffness_matrix(mesh, Region.DOPANT).real
    M = mass_matrix(mesh, Region.DOPANT).real
    shape = (len(il), len(il))
    K_ii, M_ii = (spla.LinearOperator(shape, dtype=float, matvec=partial(block_product, A, il))
                  for A in (K, M))
    v0 = np.ones(len(il)) / math.sqrt(len(il))
    shifted = Factored((K - target * M).tocsc(), il[order])
    op_inv = spla.LinearOperator(shape, dtype=float, matvec=shifted.solve)
    try:
        vals, vecs = spla.eigsh(K_ii, k=count, M=M_ii, sigma=target, v0=v0,
                                OPinv=op_inv)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"eigen iteration did not converge: {exc}") from exc
    nearest = np.argsort(np.abs(vals - target))
    vals, vecs = vals[nearest], vecs[:, nearest]
    # re-orthonormalize in the M inner product (defensive; ARPACK is close)
    G = vecs.T @ block_product(M, il, vecs)
    L = np.linalg.cholesky(G)
    vecs = vecs @ np.linalg.inv(L).T
    pairs = []
    for j in range(count):
        u = vecs[:, j]
        resid = np.linalg.norm(block_product(K, il, u) - vals[j] * block_product(M, il, u))
        if resid > _EIG_RESID_TOL * max(1.0, abs(vals[j])) * np.linalg.norm(u):
            raise NoConvergence(f"eigenpair residual {resid:.2e} above tolerance")
        vloc = np.zeros(K.shape[0], dtype=complex)
        vloc[il] = u
        pairs.append((float(vals[j]), ScalarField(mesh, Region.DOPANT, vloc)))
    return pairs


def eigen_flux(mesh: Mesh, lam: float, mode: ScalarField,
               tag: Bnd = Bnd.GAMMA_D) -> BoundaryFunctional:
    """Variational normal flux of a Dirichlet eigenfunction on its boundary."""
    K = stiffness_matrix(mesh, mode.regions)
    M = mass_matrix(mesh, mode.regions)
    resid = K @ mode.values - lam * (M @ mode.values)
    return BoundaryFunctional(mesh, tag, resid[_local_boundary(mesh, mode.regions, tag)])
