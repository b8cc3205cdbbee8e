"""Auxiliary fields and scalar constants of the small-permittivity limit.

Three auxiliary problems feed every limit object: the source field ``s``
(exterior Helmholtz, zero trace on the scatterer), the exterior lifting field
``psi_e`` (unit trace on the scatterer, radiating), and the dopant lifting
field ``psi_d`` (unit trace on the dopant boundary).  Their boundary fluxes
combine into the flux balance constant ``beta``, the coupling constant
``c_star = -flux(s)/beta`` that the field locks onto inside the near-zero
region, and the effective permeability.

All fluxes returned here follow the canonical orientation: outward normal of
the dopant on its interface, outward normal of the scatterer on its
interface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import ClassVar

import numpy as np

from .errors import BetaNearZero, IncompatibleData, ResonantDopant
from . import fem
from .fem import (BoundaryFunctional, RadiationSpec, ScalarField,
                  _tri_values_and_grads, assemble, flux_extract, h1_seminorm,
                  integrate, l2_norm, recovered_boundary_flux, solve,
                  source_load)
from .geometry import Bnd, Mesh, Region, SourceSpec, _as_region_set, region_measures

RESONANCE_GUARD = 1e-8   # smallest-singular-value threshold relative to |A|
_GUARD_ITERS = 12        # the guard's inverse-iteration steps


def _branch_sqrt(w: complex) -> complex:
    k = cmath.sqrt(w)
    if k.imag < 0 or (k.imag == 0 and k.real < 0):
        k = -k
    return k


@dataclass(frozen=True)
class PhysicsConfig:
    """Frequency, material constants, sources and the profile of the mesh's collar, if any."""

    omega: float = 1.0
    mu: complex = 1.0 + 0.0j
    delta: complex = 1e-2 + 0.0j
    sources: SourceSpec = dc_field(default_factory=SourceSpec)
    radiation: RadiationSpec = dc_field(default_factory=RadiationSpec)
    rtol: ClassVar[float] = fem.BACKWARD_RTOL   # every solve's backward-error bound

    def __post_init__(self):
        ksq = _omega_squared(self.omega) * complex(self.mu)
        if ksq == 0 or not cmath.isfinite(ksq):
            raise ValueError(f"k^2 = omega^2 mu must be finite and nonzero, got {ksq!r}")

    @property
    def k(self) -> complex:
        """Wavenumber k with k^2 = omega^2 mu and 0 <= arg k < pi."""
        return _branch_sqrt(self.omega**2 * complex(self.mu))

    @classmethod
    def from_k(cls, k: complex, **kwargs) -> "PhysicsConfig":
        """Configuration with mu = k^2 / omega^2, omega checked before it divides."""
        k = complex(k)
        if not 0 <= cmath.phase(k) < math.pi:
            raise ValueError("wavenumber must satisfy 0 <= arg k < pi")
        omega = kwargs.pop("omega", cls.omega)
        return cls(omega=omega, mu=k * k / _omega_squared(omega), **kwargs)


def _omega_squared(omega: float) -> float:
    """``omega**2``; ValueError unless omega and its square are finite and positive."""
    try:
        w2 = omega**2
    except OverflowError:   # a float power raises where a product gives inf
        w2 = math.inf
    if not (omega > 0 and 0 < w2 < math.inf):
        raise ValueError(f"omega and omega^2 must be finite and positive, got omega = {omega!r}")
    return w2


# ---------------------------------------------------------------------------
# systems


def _memoized_system(mesh: Mesh, name: str, key, build) -> fem.LinearSystem:
    """The latest system under ``name`` in :meth:`Mesh.cached`, kept without its mesh.

    Every caller gets the same matrix and the same Dirichlet blocks with
    their LUs, in a copy that carries the mesh again.
    """
    return replace(mesh.cached(name, key, lambda: replace(build(), mesh=None)), mesh=mesh)


def exterior_system(mesh: Mesh, cfg: PhysicsConfig) -> fem.LinearSystem:
    """The radiating exterior operator, on the mesh's collar too, once per mesh and (k, radiation).

    Its one LU lives in the one block that every copy of the system shares, for as
    long as anything holds the system: the Dirichlet block with Gamma_Omega fixed
    until a caller asks for ``S_e`` (:func:`exterior_schur`), and ``B``, with
    Gamma_Omega last, from then on.  Each reader asks for the block it needs: an
    exterior solve for one folded on the quarter turn's invariant sector where its
    data is invariant, else for the full one (:func:`solve_exterior`); a corrector
    engine for the full one (:func:`stepping_lu`).
    """
    def build():
        k = cfg.k
        regs = _as_region_set((Region.EXTERIOR, Region.PML)
                              if mesh.region_triangles(Region.PML).any() else Region.EXTERIOR)
        return assemble(mesh, regs, dict.fromkeys(regs, 1.0 + 0.0j), dict.fromkeys(regs, k * k),
                        radiation=cfg.radiation, k=k)
    return _memoized_system(mesh, "exterior", (complex(cfg.k), cfg.radiation), build)


def outer_dirichlet(regions) -> dict:
    """Dirichlet data on Gamma_inf: zero at the end of a collar, none on a Robin boundary."""
    return {Bnd.GAMMA_INF: 0.0} if Region.PML in regions else {}


def _exterior_dirichlet(regions, trace=0.0) -> dict:
    """The exterior's Dirichlet data: ``trace`` on Gamma_Omega, and :func:`outer_dirichlet`'s."""
    return {Bnd.GAMMA_OMEGA: trace, **outer_dirichlet(regions)}


def stepping_lu(ext: fem.LinearSystem) -> fem.LinearSystem:
    """``ext``, holding a full LU, for a caller that lifts a trace off it at every step.

    A held ``B`` (:func:`exterior_schur`) or full Dirichlet block stays; a folded
    block, which :func:`solve_exterior` leaves, is replaced once by the full one
    (:meth:`fem.LinearSystem.dirichlet_block`): it solves only invariant data, and
    a lift's trace is not.
    """
    if _held_schur(ext) is None:
        ext.dirichlet_block(_exterior_dirichlet(ext.regions))
    return ext


def _held_schur(ext: fem.LinearSystem) -> fem.DirichletBlock | None:
    """``B`` if ``ext`` holds it (see :func:`exterior_schur`), else None."""
    return ext.held_block(outer_dirichlet(ext.regions), [Bnd.GAMMA_OMEGA])


def exterior_schur(ext: fem.LinearSystem) -> fem.DirichletBlock:
    """``B``, ``ext``'s one LU from now on, in its Dirichlet block's place.

    ``B`` is ``ext``'s block off the collar's outer boundary with Gamma_Omega last;
    ``B.schur`` is ``S_e = A_gg - A_gf A_ff^-1 A_fg`` on its Gamma_Omega nodes ``B.tail``.
    """
    B = ext.dirichlet_block(outer_dirichlet(ext.regions), last=[Bnd.GAMMA_OMEGA])
    B.schur   # factored and read now, before a direct solve's A(delta) is made
    return B


def condensed_load(ext: fem.LinearSystem, cfg: PhysicsConfig) -> np.ndarray:
    """``z = A_gf A_ff^-1 b_f`` for the load of ``cfg.sources``, per (k, radiation, sources)."""
    B = exterior_schur(ext)

    def build():
        r = source_load(ext.mesh, ext.regions, cfg.sources)[B.rows]
        r[B.tail] = 0.0   # B [x; y] = [b_f; 0] has S_e y = -z
        return -B.schur @ B.lu_solve(r)[B.tail]
    return ext.mesh.cached("condensed load", (complex(cfg.k), cfg.radiation, cfg.sources), build)


def exterior_values(ext: fem.LinearSystem, cfg: PhysicsConfig, rhs: np.ndarray,
                    trace) -> np.ndarray:
    """:func:`solve_exterior`'s values off ``B``, unchecked, by ``B [x; y] = [b_f; z + S_e t]``."""
    B = exterior_schur(ext)
    S, keep, g = B.schur, B.rows, B.tail
    r = rhs[keep]
    r[g] = (condensed_load(ext, cfg) if rhs.any() else 0.0) + S @ np.broadcast_to(trace, len(g))
    u = np.zeros(len(rhs), dtype=complex)
    u[keep] = B.lu_solve(r)   # x = A_ff^-1 (b_f - A_fg t), and y = t to roundoff
    u[keep[g]] = trace
    return u


def solve_exterior(system: fem.LinearSystem, cfg: PhysicsConfig, rhs: np.ndarray, trace):
    """The exterior field of load ``rhs`` (zero or from ``cfg.sources``), ``trace`` on Gamma_Omega.

    Solved on the system's one LU: ``B``, by :func:`exterior_values` and
    :func:`fem.certify`, or otherwise its Dirichlet block by :func:`fem.solve`.
    A held full block stays, and so does a held folded one for invariant
    data; :func:`fem.solve` replaces a folded one by the full one for data
    that is not.  When the system holds no block, the block is folded
    (:class:`fem.FoldedBlock`) where the system, ``rhs`` and the trace are
    invariant under the quarter turn (:meth:`fem.LinearSystem.turn_invariant`):
    ``psi_e``, and ``s`` of ring sources, on a scatterer centred on the
    origin.  Else it is full, as for a disk source or a scatterer off the
    origin.  Either way the field passes the same check.  A run that reads
    only ``s`` and ``psi_e`` off the exterior (``aux``, ``convergence-table``
    and the resonance sweep) so factors a quarter of the unknowns on a
    concentric scatterer.  On the ``aux_refine`` workload
    (h in [0.05, 0.07], 2-core host, one BLAS thread, 10 alternating pairs)
    the fold took the op median from 0.287 to 0.177 normalized seconds,
    faster in every pair, and the peak from 121.3 to 119.5 MB.
    """
    bc = _exterior_dirichlet(system.regions, trace)
    if _held_schur(system) is not None:
        return fem.certify(system, rhs, bc, exterior_values(system, cfg, rhs, trace))
    if system.held_block(bc) is None and system.turn_invariant(rhs, bc):
        system.dirichlet_block(bc, fold=True)
    return solve(system, rhs, bc)


def dopant_system(mesh: Mesh, cfg: PhysicsConfig) -> fem.LinearSystem:
    """The dopant's Helmholtz operator, shared like :func:`exterior_system`, per k."""
    k = cfg.k
    return _memoized_system(mesh, "dopant", complex(k), lambda: assemble(
        mesh, Region.DOPANT, {Region.DOPANT: 1.0 + 0.0j}, {Region.DOPANT: k * k}))


def _smallest_singular_ratio(system: fem.LinearSystem, fixed_tags) -> float:
    """sigma_min(A_ff) / ||A_ff||_1, by inverse iteration with :meth:`fem.Factored.lu_solve`.

    ``A_ff`` is complex symmetric, so ``A^-H y = conj(A^-1 conj(y))`` and ``||A||_1 = block.norm``.
    """
    block = system.dirichlet_block(fixed_tags)
    x = np.ones(len(block.rows), dtype=complex) / math.sqrt(len(block.rows))
    for _ in range(_GUARD_ITERS):
        y = np.conj(block.lu_solve(np.conj(x)))
        w = block.lu_solve(y)
        lam = float(np.linalg.norm(w))
        x = w / lam
    return 1.0 / math.sqrt(lam) / block.norm   # sigma_min / ||A_ff||_1


# ---------------------------------------------------------------------------
# the three auxiliary solves


def solve_s(mesh: Mesh, cfg: PhysicsConfig, system=None):
    """Source field: exterior Helmholtz, zero trace on the scatterer.

    Returns the field and its flux through the scatterer boundary (canonical
    orientation).  A trivial source yields the zero field.
    """
    system = system or exterior_system(mesh, cfg)
    u = solve_exterior(system, cfg, source_load(mesh, system.regions, cfg.sources), 0.0)
    return u, flux_extract(u, system, Bnd.GAMMA_OMEGA, orientation="canonical")


def solve_psi_e(mesh: Mesh, cfg: PhysicsConfig, system=None):
    """Exterior lifting field: unit trace on the scatterer, radiating."""
    system = system or exterior_system(mesh, cfg)
    u = solve_exterior(system, cfg, np.zeros(len(system.nodes), dtype=complex), 1.0)
    return u, flux_extract(u, system, Bnd.GAMMA_OMEGA, orientation="canonical")


def solve_psi_d(mesh: Mesh, cfg: PhysicsConfig, system=None, guard: bool = True):
    """Dopant lifting field: unit trace on the dopant boundary.

    Raises RESONANT_DOPANT when the constrained dopant operator is
    numerically singular (k^2 at a Dirichlet eigenvalue).
    """
    system = system or dopant_system(mesh, cfg)
    if guard:
        ratio = _smallest_singular_ratio(system, [Bnd.GAMMA_D])
        if ratio < RESONANCE_GUARD:
            raise ResonantDopant(
                f"dopant operator near-singular (sigma_min/|A| = {ratio:.2e})")
    u = solve(system, np.zeros(len(system.nodes), dtype=complex), {Bnd.GAMMA_D: 1.0})
    return u, flux_extract(u, system, Bnd.GAMMA_D, orientation="canonical")


# ---------------------------------------------------------------------------
# scalar constants


def compute_beta(flux_psi_e: BoundaryFunctional, flux_psi_d: BoundaryFunctional,
                 mesh: Mesh, cfg: PhysicsConfig) -> complex:
    """Flux balance constant: k^2 |ENZ| + flux(psi_e) - flux(psi_d)."""
    k = cfg.k
    area_enz = region_measures(mesh)["areas"][Region.ENZ]
    beta = k * k * area_enz + flux_psi_e.total() - flux_psi_d.total()
    scale = max(abs(k * k) * area_enz, abs(flux_psi_e.total()),
                abs(flux_psi_d.total()))
    if abs(beta) <= 1e-10 * scale:
        raise BetaNearZero(
            f"|beta| = {abs(beta):.3e} below 1e-10 * {scale:.3e}; "
            "discretization failure")
    return beta


def compute_cstar(beta: complex, flux_s: BoundaryFunctional) -> complex:
    """Coupling constant: the ENZ-region limit value, -flux(s)/beta."""
    return -flux_s.total() / beta


def compute_mueff(mesh: Mesh, psi_d: ScalarField, cfg: PhysicsConfig,
                  flux_psi_d: BoundaryFunctional | None = None,
                  method: str = "volume") -> complex:
    """Effective permeability of the doped shell.

    ``method="volume"`` uses mu (|ENZ| + int psi_d) / |Omega|;
    ``method="flux"`` uses the variational dopant flux;
    ``method="flux_recovered"`` integrates a locally recovered normal
    derivative and is the discretization-independent cross-check.
    """
    k = cfg.k
    areas = region_measures(mesh)["areas"]
    area_enz = areas[Region.ENZ]
    area_omega = area_enz + areas[Region.DOPANT]
    if method == "volume":
        val = area_enz + complex(integrate(psi_d))
    elif method == "flux":
        if flux_psi_d is None:
            raise ValueError("flux method needs the dopant flux functional")
        val = area_enz - flux_psi_d.total() / (k * k)
    elif method == "flux_recovered":
        _, total = recovered_boundary_flux(psi_d, Bnd.GAMMA_D)
        val = area_enz - total / (k * k)
    else:
        raise ValueError(f"unknown method {method!r}")
    return complex(cfg.mu) * val / area_omega


# ---------------------------------------------------------------------------
# bundled auxiliary set


@dataclass
class AuxiliarySet:
    """All auxiliary fields, fluxes, and constants for one (mesh, config)."""

    mesh: Mesh
    cfg: PhysicsConfig
    s: ScalarField
    psi_e: ScalarField
    psi_d: ScalarField
    flux_s: BoundaryFunctional
    flux_psi_e: BoundaryFunctional
    flux_psi_d: BoundaryFunctional
    beta: complex
    c_star: complex
    mu_eff: complex
    ext_system: fem.LinearSystem
    dop_system: fem.LinearSystem

    @property
    def k(self) -> complex:
        return self.cfg.k

    @property
    def im_k_beta_conj(self) -> float:
        """Dissipation certificate; strictly negative for admissible k."""
        return float((self.k * np.conj(self.beta)).imag)


def solve_auxiliary_set(mesh: Mesh, cfg: PhysicsConfig,
                        guard: bool = True) -> AuxiliarySet:
    """Run the three auxiliary solves and assemble every scalar constant.

    ``psi_e`` and then ``s`` are solved by :func:`solve_psi_e` and
    :func:`solve_s`, one load each, on the LU the exterior holds, or on the
    one :func:`solve_exterior` makes if it holds none.  ``psi_e`` goes first:
    its data, a unit trace and no load, is invariant and the same for every
    source, so it takes the same route, and gives the same bits, whatever the
    sources, and so do ``beta`` and ``mu_eff``.  The load of ``s`` may then
    replace a folded block by a full one, if the quarter turn moves it.
    """
    ext = exterior_system(mesh, cfg)
    dop = dopant_system(mesh, cfg)
    psi_e, flux_psi_e = solve_psi_e(mesh, cfg, system=ext)
    s, flux_s = solve_s(mesh, cfg, system=ext)
    psi_d, flux_psi_d = solve_psi_d(mesh, cfg, system=dop, guard=guard)
    beta = compute_beta(flux_psi_e, flux_psi_d, mesh, cfg)
    c_star = compute_cstar(beta, flux_s)
    mu_eff = compute_mueff(mesh, psi_d, cfg)
    mu_eff_flux = compute_mueff(mesh, psi_d, cfg, flux_psi_d, method="flux")
    if abs(mu_eff - mu_eff_flux) > 1e-8 * max(1.0, abs(mu_eff)):
        raise IncompatibleData(
            "volume and variational-flux permeability evaluations disagree; "
            "flux extraction is inconsistent")
    return AuxiliarySet(mesh, cfg, s, psi_e, psi_d, flux_s, flux_psi_e,
                        flux_psi_d, beta, c_star, mu_eff,
                        ext_system=ext, dop_system=dop)


# ---------------------------------------------------------------------------
# radiation-identity diagnostic


def _physical_rim(mesh: Mesh):
    """Edges of the circle bounding the physical exterior, with their exterior triangles.

    The rim nodes are those the exterior and the mesh's collar share, or the
    truncation circle's without a collar.  Each exterior triangle with two
    rim nodes gives the edge between them, in triangle order.
    """
    collar = mesh.region_nodes(Region.PML)
    if len(collar):
        rim = np.intersect1d(mesh.region_nodes(Region.EXTERIOR), collar, assume_unique=True)
    else:
        rim = mesh.boundary_nodes(Bnd.GAMMA_INF)
    on_rim = np.zeros(mesh.num_nodes, dtype=bool)
    on_rim[rim] = True
    tris = np.flatnonzero(mesh.region_triangles(Region.EXTERIOR))
    hit = on_rim[mesh.triangles[tris]]
    two = hit.sum(axis=1) == 2
    return mesh.triangles[tris[two]][hit[two]].reshape(-1, 2), tris[two]


def rellich_residual(mesh: Mesh, cfg: PhysicsConfig, field: ScalarField,
                     flux_omega: BoundaryFunctional) -> float:
    """Defect of the radiation energy identity for an exterior solution.

    Compares -2 Im(k * int_bnd u conj(du/dn)) against the dissipation volume
    term plus the outgoing-flux term evaluated on the rim of the physical
    exterior annulus.  Small values certify the radiation treatment.
    """
    k = complex(cfg.k)
    u_om = field.trace(Bnd.GAMMA_OMEGA)
    lhs = -2.0 * (k * np.vdot(flux_omega.values, u_om)).imag
    # dissipation over the physical exterior
    l2 = l2_norm(field, window=Region.EXTERIOR)
    h1s = h1_seminorm(field, window=Region.EXTERIOR)
    vol = 2.0 * k.imag * (abs(k) ** 2 * l2 * l2 + h1s * h1s)
    # rim term
    pos = mesh.region_pos(field.regions)
    rim_edges, rim_tris = _physical_rim(mesh)
    _, rim_gx, rim_gy, _ = _tri_values_and_grads(field, rim_tris)
    pi, pj = mesh.nodes[rim_edges[:, 0]], mesh.nodes[rim_edges[:, 1]]
    length = np.linalg.norm(pj - pi, axis=1)
    mid = 0.5 * (pi + pj)
    rhat = mid / np.linalg.norm(mid, axis=1)[:, None]
    dr = rim_gx * rhat[:, 0] + rim_gy * rhat[:, 1]
    u_sq = 0.5 * (np.abs(field.values[pos[rim_edges[:, 0]]]) ** 2
                  + np.abs(field.values[pos[rim_edges[:, 1]]]) ** 2)
    rim = float(np.sum(length * (np.abs(dr) ** 2 + (k * k).real * u_sq)))
    return float(abs(lhs - (vol + rim)))
