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

import numpy as np

from .errors import BetaNearZero, ResonantDopant
from . import fem
from .fem import (BoundaryFunctional, RadiationSpec, ScalarField,
                  _tri_values_and_grads, assemble, flux_extract, h1_seminorm,
                  integrate, l2_norm, recovered_boundary_flux, solve,
                  source_load)
from .geometry import Bnd, Mesh, Region, SourceSpec, _as_region_set, region_measures

RESONANCE_GUARD = 1e-8   # smallest-singular-value threshold relative to |A|


def _branch_sqrt(w: complex) -> complex:
    k = cmath.sqrt(w)
    if k.imag < 0 or (k.imag == 0 and k.real < 0):
        k = -k
    return k


@dataclass(frozen=True)
class PhysicsConfig:
    """Frequency, material constants, sources, and numerical tolerances."""

    omega: float = 1.0
    mu: complex = 1.0 + 0.0j
    delta: complex = 1e-2 + 0.0j
    sources: SourceSpec = dc_field(default_factory=SourceSpec)
    radiation: RadiationSpec = dc_field(default_factory=RadiationSpec)
    rtol: float = 1e-10
    ctol: float = 1e-6

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.k == 0:
            raise ValueError("wavenumber must be nonzero")

    @property
    def k(self) -> complex:
        """Wavenumber k with k^2 = omega^2 mu and 0 <= arg k < pi."""
        return _branch_sqrt(self.omega**2 * complex(self.mu))

    @classmethod
    def from_k(cls, k: complex, **kwargs) -> "PhysicsConfig":
        """Configuration with unit frequency and mu = k^2."""
        return cls(omega=1.0, mu=complex(k) ** 2, **kwargs)

    def with_sources(self, sources: SourceSpec) -> "PhysicsConfig":
        return replace(self, sources=sources)


# ---------------------------------------------------------------------------
# systems


def exterior_regions(mesh: Mesh, cfg: PhysicsConfig):
    regs = {Region.EXTERIOR}
    if cfg.radiation.mode == "pml" and mesh.region_triangles(Region.PML).any():
        regs.add(Region.PML)
    return _as_region_set(regs)


def exterior_system(mesh: Mesh, cfg: PhysicsConfig) -> fem.LinearSystem:
    k = cfg.k
    regs = exterior_regions(mesh, cfg)
    diffusion = {Region(r): 1.0 + 0.0j for r in regs}
    reaction = {Region(r): k * k for r in regs}
    return assemble(mesh, regs, diffusion, reaction, radiation=cfg.radiation, k=k)


def exterior_dirichlet(mesh: Mesh, cfg: PhysicsConfig, trace_omega) -> dict:
    bc = {Bnd.GAMMA_OMEGA: trace_omega}
    if int(Region.PML) in exterior_regions(mesh, cfg):
        bc[Bnd.GAMMA_INF] = 0.0
    return bc


def dopant_system(mesh: Mesh, cfg: PhysicsConfig) -> fem.LinearSystem:
    k = cfg.k
    return assemble(mesh, Region.DOPANT, {Region.DOPANT: 1.0 + 0.0j},
                    {Region.DOPANT: k * k})


def _smallest_singular_ratio(system: fem.LinearSystem, fixed_tags, iters: int = 12) -> float:
    """sigma_min(A_ff) / ||A_ff||_1, via inverse iteration on the LU factors."""
    import scipy.sparse.linalg as spla
    block = system.dirichlet_block(fixed_tags)
    x = np.ones(len(block.free), dtype=complex) / math.sqrt(len(block.free))
    lam = 0.0
    for _ in range(iters):
        y = block.lu.solve(x, trans="H")
        w = block.lu.solve(y, trans="N")
        lam = float(np.linalg.norm(w))
        x = w / lam
    sigma_min = 1.0 / math.sqrt(lam)
    norm_a = float(spla.onenormest(block.A_ff))
    return sigma_min / norm_a


# ---------------------------------------------------------------------------
# the three auxiliary solves


def solve_s(mesh: Mesh, cfg: PhysicsConfig, system=None):
    """Source field: exterior Helmholtz, zero trace on the scatterer.

    Returns the field and its flux through the scatterer boundary (canonical
    orientation).  A trivial source yields the zero field.
    """
    system = system or exterior_system(mesh, cfg)
    rhs = source_load(mesh, system.regions, cfg.sources)
    u = solve(system, rhs, exterior_dirichlet(mesh, cfg, 0.0), rtol=cfg.rtol)
    flux = flux_extract(u, system, Bnd.GAMMA_OMEGA, orientation="canonical")
    return u, flux


def solve_psi_e(mesh: Mesh, cfg: PhysicsConfig, system=None):
    """Exterior lifting field: unit trace on the scatterer, radiating."""
    system = system or exterior_system(mesh, cfg)
    rhs = np.zeros(len(system.nodes), dtype=complex)
    u = solve(system, rhs, exterior_dirichlet(mesh, cfg, 1.0), rtol=cfg.rtol)
    flux = flux_extract(u, system, Bnd.GAMMA_OMEGA, orientation="canonical")
    return u, flux


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
    rhs = np.zeros(len(system.nodes), dtype=complex)
    u = solve(system, rhs, {Bnd.GAMMA_D: 1.0}, rtol=cfg.rtol)
    flux = flux_extract(u, system, Bnd.GAMMA_D, orientation="canonical")
    return u, flux


# ---------------------------------------------------------------------------
# scalar constants


def compute_beta(flux_psi_e: BoundaryFunctional, flux_psi_d: BoundaryFunctional,
                 mesh: Mesh, cfg: PhysicsConfig) -> complex:
    """Flux balance constant: k^2 |ENZ| + flux(psi_e) - flux(psi_d)."""
    k = cfg.k
    area_enz = float(mesh.tri_areas[mesh.tri_region == int(Region.ENZ)].sum())
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
    area_enz = float(mesh.tri_areas[mesh.tri_region == int(Region.ENZ)].sum())
    area_omega = area_enz + float(mesh.tri_areas[mesh.tri_region == int(Region.DOPANT)].sum())
    if method == "volume":
        val = area_enz + complex(integrate(psi_d))
    elif method == "flux":
        if flux_psi_d is None:
            raise ValueError("flux method needs the dopant flux functional")
        val = area_enz - flux_psi_d.total() / (k * k)
    elif method == "flux_recovered":
        _, total = recovered_boundary_flux(psi_d, Bnd.GAMMA_D, from_regions=Region.DOPANT)
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
    ext_system: object = None
    dop_system: object = None

    @property
    def k(self) -> complex:
        return self.cfg.k

    @property
    def im_k_beta_conj(self) -> float:
        """Dissipation certificate; strictly negative for admissible k."""
        return float((self.k * np.conj(self.beta)).imag)


def solve_auxiliary_set(mesh: Mesh, cfg: PhysicsConfig,
                        guard: bool = True) -> AuxiliarySet:
    """Run the three auxiliary solves and assemble every scalar constant."""
    ext = exterior_system(mesh, cfg)
    dop = dopant_system(mesh, cfg)
    s, flux_s = solve_s(mesh, cfg, system=ext)
    psi_e, flux_psi_e = solve_psi_e(mesh, cfg, system=ext)
    psi_d, flux_psi_d = solve_psi_d(mesh, cfg, system=dop, guard=guard)
    beta = compute_beta(flux_psi_e, flux_psi_d, mesh, cfg)
    c_star = compute_cstar(beta, flux_s)
    mu_eff = compute_mueff(mesh, psi_d, cfg)
    mu_eff_flux = compute_mueff(mesh, psi_d, cfg, flux_psi_d, method="flux")
    if abs(mu_eff - mu_eff_flux) > 1e-8 * max(1.0, abs(mu_eff)):
        raise BetaNearZero(
            "volume and variational-flux permeability evaluations disagree; "
            "flux extraction is inconsistent")
    return AuxiliarySet(mesh, cfg, s, psi_e, psi_d, flux_s, flux_psi_e,
                        flux_psi_d, beta, c_star, mu_eff,
                        ext_system=ext, dop_system=dop)


# ---------------------------------------------------------------------------
# radiation-identity diagnostic


def _physical_rim(mesh: Mesh, cfg: PhysicsConfig):
    """Edges of the circle bounding the physical exterior, with side triangles.

    Returns the rim edges that have an exterior side, in rim order, and for
    each its exterior triangle (the later one if both sides are exterior).
    """
    if int(Region.PML) in exterior_regions(mesh, cfg):
        edges = mesh.interface_edges(Region.EXTERIOR, Region.PML)
    else:
        edges = mesh.boundary_edges[Bnd.GAMMA_INF]
    owners = mesh.edge_triangles(edges)
    ext = np.append(mesh.tri_region, -1)[owners] == int(Region.EXTERIOR)
    side = np.where(ext[:, 1], owners[:, 1], owners[:, 0])
    keep = ext.any(axis=1)
    return edges[keep], side[keep]


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
    full = field.to_full()
    rim_edges, rim_tris = _physical_rim(mesh, cfg)
    _, rim_gx, rim_gy, _ = _tri_values_and_grads(field, rim_tris)
    rim = 0.0
    for (i, j), gx, gy in zip(rim_edges, rim_gx, rim_gy):
        pi, pj = mesh.nodes[int(i)], mesh.nodes[int(j)]
        length = float(np.linalg.norm(pj - pi))
        mid = 0.5 * (pi + pj)
        rhat = mid / np.linalg.norm(mid)
        dr = gx * rhat[0] + gy * rhat[1]
        u_sq = 0.5 * (abs(full[int(i)]) ** 2 + abs(full[int(j)]) ** 2)
        rim += length * (abs(dr) ** 2 + (k * k).real * u_sq)
    return float(abs(lhs - (vol + rim)))
