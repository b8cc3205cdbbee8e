"""Complex-valued P1 finite elements on tagged sub-regions.

Provides sparse assembly of ``int a grad(u).grad(v) - c u v`` with either a
first-order Robin condition or a polynomially stretched absorbing collar on
the truncation circle, direct sparse solves with a residual contract,
mean-zero pure-Neumann solves via a scalar multiplier, variational
(residual-based) flux extraction, recovered higher-order boundary fluxes,
windowed discrete norms, and Dirichlet eigenpairs of sub-regions.

Flux conventions: :func:`flux_extract` returns the weak residual paired
against boundary traces, i.e. the flux with respect to the *solve domain's*
outward normal.  ``orientation="canonical"`` re-expresses it with respect to
the outward normal of the enclosed curve (dopant normal on the dopant
interface, scatterer normal on the scatterer interface), which is the
convention used by every balance constant in :mod:`enzlab.auxiliary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (EmptyWindow, IncompatibleData, NoConvergence,
                     SingularSystem, TagMismatch, ZeroCoefficient)
from .geometry import Bnd, Mesh, Region, SourceSpec, _as_region_set

# Fraction of row-sum lumping mixed into every mass matrix.  One half cancels
# the leading dispersion error of the consistent mass on near-uniform meshes;
# row sums (and hence all discrete flux/compatibility identities) are
# unaffected by this choice.
MASS_LUMP_FRACTION = 0.5

# Auto-tuned collar strength: round-trip plane-wave reflection below 1e-6.
_PML_REFLECTION = 1e-6


@dataclass(frozen=True)
class RadiationSpec:
    """Treatment of the outgoing-wave condition on the truncation circle."""

    mode: str = "pml"            # "pml" or "robin"
    sigma0: float | None = None  # None: auto from target reflection
    stretch_order: int = 2

    def __post_init__(self):
        if self.mode not in ("pml", "robin"):
            raise ValueError(f"unknown radiation mode {self.mode!r}")
        if self.sigma0 is not None and self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")

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
        bn = self.mesh.boundary_nodes(tag)
        loc = self.mesh.region_pos(self.regions)[bn]
        if (loc < 0).any():
            raise TagMismatch(f"field does not cover boundary {tag!r}")
        return self.values[loc]

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

    def pairing(self, trace_values: np.ndarray) -> complex:
        return complex(np.dot(self.values, np.asarray(trace_values)))

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
# geometry helpers shared by assembly


def _p1_geometry(mesh: Mesh, tri_mask: np.ndarray):
    tris = mesh.triangles[tri_mask]
    p = mesh.nodes[tris]
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = mesh.tri_areas[tri_mask]
    return tris, b, c, area


def _scatter(tris: np.ndarray, local: np.ndarray, n: int) -> sp.csc_matrix:
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsc()


def _element_mass(area: np.ndarray, coeff: np.ndarray, lump: float) -> np.ndarray:
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = coeff[:, None, None] * area[:, None, None] * base[None, :, :]
    if lump > 0.0:
        lumped = coeff[:, None, None] * area[:, None, None] * (np.eye(3) / 3.0)[None, :, :]
        local = (1.0 - lump) * local + lump * lumped
    return local


def mass_matrix(mesh: Mesh, regions, lump: float = MASS_LUMP_FRACTION) -> sp.csc_matrix:
    """Region mass matrix on global node indexing."""
    mask = mesh.region_triangles(regions)
    tris, _, _, area = _p1_geometry(mesh, mask)
    local = _element_mass(area, np.ones(len(area)), lump).astype(complex)
    return _scatter(tris, local, mesh.num_nodes)


def stiffness_matrix(mesh: Mesh, regions, coeff: complex = 1.0) -> sp.csc_matrix:
    mask = mesh.region_triangles(regions)
    tris, b, c, area = _p1_geometry(mesh, mask)
    f = coeff / (4.0 * area)
    local = (f[:, None, None]
             * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])).astype(complex)
    return _scatter(tris, local, mesh.num_nodes)


def _boundary_mass(mesh: Mesh, tag: Bnd) -> sp.csc_matrix:
    edges = mesh.boundary_edges[tag]
    lens = mesh.boundary_edge_lengths(tag)
    block = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    local = lens[:, None, None] * block[None, :, :]
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.num_nodes, mesh.num_nodes)).tocsc()


# ---------------------------------------------------------------------------
# system assembly


@dataclass(eq=False)
class DirichletBlock:
    """Split of a system into free and fixed nodes for one set of Dirichlet tags."""

    free: np.ndarray           # local indices of the unconstrained nodes
    fixed: np.ndarray          # local indices of the constrained nodes
    A_ff: sp.csc_matrix
    A_fd: sp.csc_matrix
    norm: float                # infinity norm of A_ff

    @cached_property
    def lu(self):
        """SuperLU factorization of ``A_ff``, computed on first use."""
        try:
            return spla.splu(self.A_ff)
        except RuntimeError as exc:
            raise SingularSystem(f"factorization failed: {exc}") from exc


@dataclass(eq=False)
class LinearSystem:
    """Assembled sparse operator on the active nodes of a region set."""

    mesh: Mesh
    regions: frozenset
    A: sp.csc_matrix
    nodes: np.ndarray
    pos: np.ndarray
    k: complex | None = None
    radiation: RadiationSpec | None = None
    _blocks: dict = dc_field(default_factory=dict, repr=False)

    def dirichlet_block(self, tags) -> DirichletBlock:
        """Block with the nodes of the ``Bnd`` tags fixed; built once per tag set."""
        tags = frozenset(Bnd(t) for t in tags)
        block = self._blocks.get(tags)
        if block is None:
            fixed = np.zeros(len(self.nodes), dtype=bool)
            for tag in tags:
                fixed[self.local_boundary(tag)] = True
            free_idx, fixed_idx = np.flatnonzero(~fixed), np.flatnonzero(fixed)
            A_ff = self.A[np.ix_(free_idx, free_idx)].tocsc()
            block = self._blocks[tags] = DirichletBlock(
                free_idx, fixed_idx, A_ff, self.A[np.ix_(free_idx, fixed_idx)],
                float(np.asarray(np.abs(A_ff).sum(axis=1)).max(initial=0.0)))
        return block

    def local_boundary(self, tag: Bnd) -> np.ndarray:
        bn = self.mesh.boundary_nodes(tag)
        loc = self.pos[bn]
        if (loc < 0).any():
            raise TagMismatch(f"boundary {tag!r} not contained in system regions")
        return loc

    def curve_sign(self, tag: Bnd) -> float:
        """+1 if the system domain lies inside the tagged curve, else -1."""
        inside = {Bnd.GAMMA_D: {int(Region.DOPANT)},
                  Bnd.GAMMA_OMEGA: {int(Region.DOPANT), int(Region.ENZ)}}
        if tag == Bnd.GAMMA_INF:
            return 1.0
        return 1.0 if inside[tag] & self.regions else -1.0


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


def assemble(mesh: Mesh, regions, diffusion: dict, reaction: dict,
             radiation: RadiationSpec | None = None, k: complex | None = None,
             mass_lump: float = MASS_LUMP_FRACTION) -> LinearSystem:
    """Assemble ``int a grad(u).grad(v) - c u v`` plus radiation terms.

    ``diffusion`` and ``reaction`` map each active region tag to a complex
    constant.  With ``radiation.mode == "pml"`` the collar triangles get the
    complex-stretched anisotropic tensor; with ``"robin"`` a first-order
    absorbing term is added on the truncation circle.  The result is complex
    symmetric (not Hermitian).
    """
    regions = _as_region_set(regions)
    mask = mesh.region_triangles(regions)
    if not mask.any():
        raise TagMismatch("no triangles in requested regions")
    tris, b, c, area = _p1_geometry(mesh, mask)
    reg = mesh.tri_region[mask]

    a_t = np.zeros(len(tris), dtype=complex)
    c_t = np.zeros(len(tris), dtype=complex)
    for r in regions:
        sel = reg == r
        if not sel.any():
            continue
        a_val = complex(diffusion[Region(r)])
        if a_val == 0:
            raise ZeroCoefficient(f"zero diffusion coefficient on region {Region(r).name}")
        a_t[sel] = a_val
        c_t[sel] = complex(reaction.get(Region(r), 0.0))

    g11, g12, g22 = a_t.copy(), np.zeros_like(a_t), a_t.copy()
    if radiation is not None and radiation.mode == "pml" and int(Region.PML) in regions:
        if k is None:
            raise ValueError("PML assembly needs the wavenumber k")
        pml_sel = reg == int(Region.PML)
        if pml_sel.any():
            tri_idx = np.where(mask)[0][pml_sel]
            p11, p12, p22, react = _pml_coefficients(mesh, tri_idx, k, radiation)
            g11[pml_sel] = a_t[pml_sel] * p11
            g12[pml_sel] = a_t[pml_sel] * p12
            g22[pml_sel] = a_t[pml_sel] * p22
            c_t[pml_sel] = c_t[pml_sel] * react

    f = 1.0 / (4.0 * area)
    k_local = f[:, None, None] * (
        g11[:, None, None] * b[:, :, None] * b[:, None, :]
        + g12[:, None, None] * (b[:, :, None] * c[:, None, :] + c[:, :, None] * b[:, None, :])
        + g22[:, None, None] * c[:, :, None] * c[:, None, :])
    local = k_local - _element_mass(area, c_t, mass_lump)
    A = _scatter(tris, local, mesh.num_nodes)

    if radiation is not None and radiation.mode == "robin":
        if k is None:
            raise ValueError("Robin assembly needs the wavenumber k")
        r_t = mesh.truncation_radius
        q = complex(diffusion.get(Region.EXTERIOR, 1.0)) * (1j * k - 1.0 / (2.0 * r_t))
        A = A - q * _boundary_mass(mesh, Bnd.GAMMA_INF)

    nodes = mesh.region_nodes(regions)
    A_local = A[np.ix_(nodes, nodes)].tocsc()
    return LinearSystem(mesh, regions, A_local, nodes, mesh.region_pos(regions),
                        k=k, radiation=radiation)


# ---------------------------------------------------------------------------
# solving


@dataclass
class SolveRecord:
    system: LinearSystem
    rhs: np.ndarray            # full right-hand side on active nodes
    dirichlet: dict            # tag -> values imposed


# Solutions amplified beyond this (relative to ||b|| / ||A||) indicate a
# numerically singular operator even when the backward error looks fine.
_AMPLIFICATION_LIMIT = 1e13


def solve(system: LinearSystem, rhs: np.ndarray, dirichlet: dict | None = None,
          rtol: float = 1e-10) -> ScalarField:
    """Direct sparse solve with a residual contract.

    ``rhs`` is a dual vector aligned with ``system.nodes``.  ``dirichlet``
    maps boundary tags to trace values (scalar or per-node array).  Raises
    SINGULAR_SYSTEM if factorization breaks down, the normwise backward
    error ||Ax-b|| / (||A|| ||x|| + ||b||) exceeds ``rtol``, or the solution
    is amplified at the working-precision singularity level (the strongly
    scaled shell block makes a plain ||Ax-b|| <= rtol ||b|| test unattainable
    in double precision while the solve is still perfectly reliable).
    """
    rhs = np.asarray(rhs, dtype=complex)
    dirichlet = dict(dirichlet or {})
    block = system.dirichlet_block(dirichlet)
    u = np.zeros(len(system.nodes), dtype=complex)
    for tag, val in dirichlet.items():
        u[system.local_boundary(Bnd(tag))] = val
    if len(block.free):
        b_free = rhs[block.free] - block.A_fd @ u[block.fixed]
        scale = np.linalg.norm(b_free)
        if scale != 0.0:
            x = block.lu.solve(b_free)
            if not np.isfinite(x).all():
                raise SingularSystem("factorization produced non-finite values")
            resid = np.linalg.norm(block.A_ff @ x - b_free)
            x_norm = np.linalg.norm(x)
            backward = resid / (block.norm * x_norm + scale)
            if backward > rtol:
                raise SingularSystem(
                    f"backward error {backward:.3e} exceeds {rtol:.1e}; "
                    "system is numerically singular")
            if block.norm * x_norm > _AMPLIFICATION_LIMIT * scale:
                raise SingularSystem(
                    "solution amplification at working-precision singularity level")
            u[block.free] = x
    field = ScalarField(system.mesh, system.regions, u)
    field.record = SolveRecord(system, rhs, dirichlet)
    return field


def flux_extract(fieldval: ScalarField, system: LinearSystem, tag: Bnd,
                 orientation: str = "domain") -> BoundaryFunctional:
    """Variational flux of a solved field on a tagged boundary.

    The pairing of the result with any discrete trace g equals
    ``a(u, Eg) - l(Eg)`` for the nodal extension E of g; pairing with the
    constant trace gives the total flux through the boundary with respect to
    the domain's outward normal (``orientation="domain"``) or the enclosed
    curve's outward normal (``orientation="canonical"``).
    """
    rec = fieldval.record
    if rec is None or rec.system is not system:
        raise TagMismatch("field does not carry a solve record for this system")
    loc = system.local_boundary(Bnd(tag))
    u_local = np.zeros(len(system.nodes), dtype=complex)
    u_pos = system.pos[fieldval.nodes]
    u_local[u_pos] = fieldval.values
    resid = system.A @ u_local - rec.rhs
    coeffs = resid[loc]
    if orientation == "canonical":
        coeffs = coeffs * system.curve_sign(Bnd(tag))
    elif orientation != "domain":
        raise ValueError(f"unknown orientation {orientation!r}")
    return BoundaryFunctional(system.mesh, Bnd(tag), coeffs)


# ---------------------------------------------------------------------------
# mean-zero Neumann solves


class NeumannSystem:
    """Pure-Neumann Laplacian on a region set with a mean-zero multiplier."""

    def __init__(self, mesh: Mesh, regions=Region.ENZ, ctol: float = 1e-6,
                 mass_lump: float = MASS_LUMP_FRACTION):
        self.mesh = mesh
        self.regions = _as_region_set(regions)
        self.ctol = ctol
        self.nodes = mesh.region_nodes(self.regions)
        self.pos = mesh.region_pos(self.regions)
        K = stiffness_matrix(mesh, self.regions)
        self.M = mass_matrix(mesh, self.regions, lump=mass_lump)[np.ix_(self.nodes, self.nodes)].tocsc()
        self.K = K[np.ix_(self.nodes, self.nodes)].tocsc()
        self.m_vec = np.asarray(self.M.sum(axis=1)).ravel()   # integral of each hat
        self.area = float(self.m_vec.sum().real)
        n = len(self.nodes)
        col = sp.csc_matrix(self.m_vec.reshape(n, 1))
        self._bordered = sp.bmat([[self.K, col], [col.T, None]], format="csc")
        self._lu = None

    def _factor(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self._bordered)
            except RuntimeError as exc:
                raise SingularSystem(f"bordered factorization failed: {exc}") from exc
        return self._lu

    def solve(self, volume: np.ndarray | None, fluxes: dict) -> ScalarField:
        """Solve -Lap(u) = volume data with prescribed boundary fluxes.

        ``fluxes`` maps boundary tags to :class:`BoundaryFunctional` given in
        the canonical orientation of each curve; orientation relative to this
        domain is handled internally.  Raises INCOMPATIBLE_DATA when the
        total data violates the discrete solvability condition.
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
            loc = self.pos[self.mesh.boundary_nodes(tag)]
            if (loc < 0).any():
                raise TagMismatch(f"boundary {tag!r} not in Neumann domain")
            sign = 1.0 if tag == Bnd.GAMMA_OMEGA else -1.0
            b[loc] += sign * h.values
            scale = max(scale, float(np.abs(h.values).sum()))
        total = b.sum()
        if scale > 0 and abs(total) > self.ctol * scale:
            raise IncompatibleData(
                f"compatibility residual {abs(total):.3e} exceeds "
                f"{self.ctol:.1e} * {scale:.3e}")
        rhs = np.concatenate([b, [0.0]])
        x = self._factor().solve(rhs)
        u = x[:n]
        if not np.isfinite(u).all():
            raise SingularSystem("mean-zero solve produced non-finite values")
        mean = np.dot(self.m_vec, u) / self.area
        norm = math.sqrt(float(np.vdot(u, self.M @ u).real)) if n else 0.0
        if norm > 0 and abs(mean) * math.sqrt(self.area) > 1e-10 * norm:
            raise SingularSystem("mean-zero constraint violated beyond tolerance")
        return ScalarField(self.mesh, self.regions, u)


# ---------------------------------------------------------------------------
# norms and derived quantities


def _window_tri_mask(mesh: Mesh, regions, window) -> np.ndarray:
    mask = mesh.region_triangles(regions)
    if window is None:
        return mask
    if isinstance(window, tuple) and len(window) == 3:
        cx, cy, r = window
        cen = mesh.tri_centroids
        inside = (cen[:, 0] - cx) ** 2 + (cen[:, 1] - cy) ** 2 <= r * r
        return mask & inside
    # otherwise interpret as a region selection
    return mask & mesh.region_triangles(window)


def _tri_values_and_grads(field: ScalarField, tri_mask: np.ndarray):
    mesh = field.mesh
    tris, b, c, area = _p1_geometry(mesh, tri_mask)
    full = field.to_full()
    vals = full[tris]
    gx = (vals * b).sum(axis=1) / (2.0 * area)
    gy = (vals * c).sum(axis=1) / (2.0 * area)
    return vals, gx, gy, area


def h1_norm(field: ScalarField, window=None) -> float:
    """Discrete (L2^2 + |grad|^2)^(1/2) over triangles inside the window."""
    mask = _window_tri_mask(field.mesh, field.regions, window)
    if not mask.any():
        raise EmptyWindow("window selects no triangles")
    vals, gx, gy, area = _tri_values_and_grads(field, mask)
    grad2 = (np.abs(gx) ** 2 + np.abs(gy) ** 2) @ area
    l22 = _l2_sq(vals, area)
    return math.sqrt(float(grad2 + l22))


def h1_seminorm(field: ScalarField, window=None) -> float:
    mask = _window_tri_mask(field.mesh, field.regions, window)
    if not mask.any():
        raise EmptyWindow("window selects no triangles")
    _, gx, gy, area = _tri_values_and_grads(field, mask)
    return math.sqrt(float((np.abs(gx) ** 2 + np.abs(gy) ** 2) @ area))


def _l2_sq(vals: np.ndarray, area: np.ndarray) -> float:
    # u^H M_T u with the consistent elemental mass A/12 (ones + eye)
    s_aa = (np.abs(vals) ** 2).sum(axis=1)
    s_sum = np.abs(vals.sum(axis=1)) ** 2
    return float(((s_aa + s_sum) / 12.0) @ area)


def l2_norm(field: ScalarField, window=None) -> float:
    mask = _window_tri_mask(field.mesh, field.regions, window)
    if not mask.any():
        raise EmptyWindow("window selects no triangles")
    vals, _, _, area = _tri_values_and_grads(field, mask)
    return math.sqrt(_l2_sq(vals, area))


def integrate(field: ScalarField, window=None) -> complex:
    """Integral of the P1 interpolant over the window."""
    mask = _window_tri_mask(field.mesh, field.regions, window)
    if not mask.any():
        raise EmptyWindow("window selects no triangles")
    tris = field.mesh.triangles[mask]
    area = field.mesh.tri_areas[mask]
    return complex((field.to_full()[tris].mean(axis=1) * area).sum())


def source_load(mesh: Mesh, regions, sources: SourceSpec) -> np.ndarray:
    """Dual vector of ``int f v`` for disk-supported piecewise-constant f.

    Triangles cut by a disk boundary are integrated by uniform subdivision;
    fully covered/uncovered triangles are exact.
    """
    pos = mesh.region_pos(regions)
    out = np.zeros(len(mesh.region_nodes(regions)), dtype=complex)
    if sources is None or sources.is_trivial():
        return out
    mask = mesh.region_triangles(regions)
    tri_idx = np.where(mask)[0]
    tris = mesh.triangles[tri_idx]
    pts = mesh.nodes[tris]
    area = mesh.tri_areas[tri_idx]
    origin = np.zeros(2)
    for src in sources.disks:
        if src.amplitude == 0:
            continue
        if hasattr(src, "r1"):   # axisymmetric ring
            d_min = _dist_point_tri(origin, pts)
            d_max = np.linalg.norm(pts, axis=2).max(axis=1)
            inside_all = (d_min >= src.r1) & (d_max <= src.r2)
            outside_all = (d_max <= src.r1) | (d_min >= src.r2)

            def indicator(p, lo=src.r1, hi=src.r2):
                r = np.linalg.norm(p, axis=1)
                return (r >= lo) & (r <= hi)
        else:
            ctr = np.asarray(src.center)
            circum = np.linalg.norm(pts - ctr, axis=2).max(axis=1)
            inside_all = circum <= src.radius
            outside_all = _dist_point_tri(ctr, pts) > src.radius

            def indicator(p, c=ctr, rad=src.radius):
                return ((p - c) ** 2).sum(axis=1) <= rad * rad
        cut = ~inside_all & ~outside_all
        # fully covered: exact P1 load  amp * area / 3 per vertex
        w_full = src.amplitude * area[inside_all] / 3.0
        np.add.at(out, pos[tris[inside_all]].ravel(), np.repeat(w_full, 3))
        for t_loc in np.where(cut)[0]:
            out[pos[tris[t_loc]]] += src.amplitude * _subdivided_load(pts[t_loc], indicator)
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
    """Barycentric centroids of the n^2 subtriangles of a reference triangle."""
    cents = []
    for i in range(n):
        for j in range(n - i):
            cents.append(((3 * i + 1) / (3 * n), (3 * j + 1) / (3 * n)))   # upward
            if j < n - i - 1:
                cents.append(((3 * i + 2) / (3 * n), (3 * j + 2) / (3 * n)))  # downward
    return np.asarray(cents)


_SUB_CENTROIDS = _sub_centroids(16)


def _subdivided_load(tri: np.ndarray, indicator) -> np.ndarray:
    """P1 load of a support indicator on one cut triangle via subdivision."""
    l1, l2 = _SUB_CENTROIDS[:, 0], _SUB_CENTROIDS[:, 1]
    lam = np.column_stack([1.0 - l1 - l2, l1, l2])
    pts = lam @ tri
    inside = indicator(pts)
    sub_area = _tri_area(tri) / (16 * 16)
    return lam[inside].sum(axis=0) * sub_area


def _tri_area(tri: np.ndarray) -> float:
    return 0.5 * abs((tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
                     - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1]))


# ---------------------------------------------------------------------------
# recovered boundary flux (independent of the variational route)


def recovered_boundary_flux(field: ScalarField, tag: Bnd,
                            from_regions=None) -> tuple[np.ndarray, complex]:
    """Normal derivative on a tagged boundary by local quadratic recovery.

    Fits a complex quadratic to the nodal values in the 2-ring patch of each
    boundary node (restricted to ``from_regions``) and differentiates it along
    the canonical outward normal of the curve.  Second-order accurate, and
    deliberately independent of the variational flux route.  Returns the
    per-node derivative and its trapezoidal integral over the boundary.
    """
    mesh = field.mesh
    regions = field.regions if from_regions is None else _as_region_set(from_regions)
    tris = mesh.triangles[mesh.region_triangles(regions)]
    # node adjacency within the chosen side; every node neighbours itself
    adj = (_scatter(tris, np.ones((len(tris), 3, 3)), mesh.num_nodes)
           + sp.identity(mesh.num_nodes, format="csc")).tocsr()
    bn = mesh.boundary_nodes(tag)
    edges = mesh.boundary_edges[tag]
    normals = mesh.boundary_normals[tag]
    node_normal = {}
    for (i, _), nv in zip(edges, normals):
        node_normal.setdefault(int(i), []).append(nv)
    for (_, j), nv in zip(edges, normals):
        node_normal.setdefault(int(j), []).append(nv)
    full = field.to_full()
    deriv = np.zeros(len(bn), dtype=complex)
    for idx, n0 in enumerate(bn):
        pl = np.array([n0])     # one ring, then up to two more below 10 nodes
        for _ in range(3):
            if len(pl) >= 10:
                break
            pl = np.unique(adj[pl].indices)
        p0 = mesh.nodes[n0]
        d = (mesh.nodes[pl] - p0)
        scale = max(np.abs(d).max(), 1e-30)
        d = d / scale
        X = np.column_stack([np.ones(len(pl)), d[:, 0], d[:, 1],
                             d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2])
        coef, *_ = np.linalg.lstsq(X, full[pl], rcond=None)
        nv = np.mean(node_normal[int(n0)], axis=0)
        nv = nv / np.linalg.norm(nv)
        deriv[idx] = (coef[1] * nv[0] + coef[2] * nv[1]) / scale
    weights = mesh.boundary_lumped_lengths(tag)
    return deriv, complex(np.dot(weights, deriv))


# ---------------------------------------------------------------------------
# Dirichlet eigenpairs


def dirichlet_eigs(mesh: Mesh, count: int, target: float,
                   regions=Region.DOPANT, resid_tol: float = 1e-8) -> list:
    """Eigenpairs of the Dirichlet Laplacian on a sub-region.

    Solves the generalized problem K u = lambda M u on the interior nodes
    via shift-invert Lanczos around ``target``; eigenvectors are returned
    mass-orthonormal as :class:`ScalarField` objects vanishing on the
    region boundary.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    regions = _as_region_set(regions)
    nodes = mesh.region_nodes(regions)
    il = mesh.region_pos(regions)[mesh.interior_nodes(regions)]
    K = stiffness_matrix(mesh, regions)[np.ix_(nodes, nodes)].real.tocsc()
    M = mass_matrix(mesh, regions)[np.ix_(nodes, nodes)].real.tocsc()
    K_ii = K[np.ix_(il, il)].tocsc()
    M_ii = M[np.ix_(il, il)].tocsc()
    v0 = np.ones(len(il)) / math.sqrt(len(il))
    try:
        vals, vecs = spla.eigsh(K_ii, k=count, M=M_ii, sigma=target, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(f"eigen iteration did not converge: {exc}") from exc
    order = np.argsort(np.abs(vals - target))
    vals, vecs = vals[order], vecs[:, order]
    # re-orthonormalize in the M inner product (defensive; ARPACK is close)
    G = vecs.T @ (M_ii @ vecs)
    L = np.linalg.cholesky(G)
    vecs = vecs @ np.linalg.inv(L).T
    pairs = []
    for j in range(count):
        u = vecs[:, j]
        resid = np.linalg.norm(K_ii @ u - vals[j] * (M_ii @ u))
        if resid > resid_tol * max(1.0, abs(vals[j])) * np.linalg.norm(u):
            raise NoConvergence(f"eigenpair residual {resid:.2e} above tolerance")
        vloc = np.zeros(len(nodes), dtype=complex)
        vloc[il] = u
        pairs.append((float(vals[j]), ScalarField(mesh, regions, vloc)))
    return pairs


def eigen_flux(mesh: Mesh, lam: float, mode: ScalarField,
               tag: Bnd = Bnd.GAMMA_D) -> BoundaryFunctional:
    """Variational normal flux of a Dirichlet eigenfunction on its boundary."""
    regions = mode.regions
    nodes = mode.nodes
    K = stiffness_matrix(mesh, regions)[np.ix_(nodes, nodes)]
    M = mass_matrix(mesh, regions)[np.ix_(nodes, nodes)]
    resid = K @ mode.values - lam * (M @ mode.values)
    loc = mesh.region_pos(regions)[mesh.boundary_nodes(tag)]
    if (loc < 0).any():
        raise TagMismatch(f"boundary {tag!r} not covered by eigenfunction")
    return BoundaryFunctional(mesh, tag, resid[loc])
