"""Full transmission solves at finite contrast and expansion comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .auxiliary import PhysicsConfig, exterior_regions
from .fem import ScalarField, assemble, h1_l2_norms, h1_seminorm, solve, source_load
from .geometry import Bnd, Mesh, Region, _as_region_set


def transmission_system(mesh: Mesh, cfg: PhysicsConfig):
    """Global system with piecewise coefficient 1/eps and reaction k^2."""
    if cfg.delta == 0:
        raise ValidationError("delta must be nonzero for a direct transmission solve")
    k = cfg.k
    regs = {int(Region.DOPANT), int(Region.ENZ)} | set(exterior_regions(mesh, cfg))
    diffusion = {Region(r): 1.0 + 0.0j for r in regs}
    diffusion[Region.ENZ] = 1.0 / complex(cfg.delta)
    reaction = {Region(r): k * k for r in regs}
    return assemble(mesh, regs, diffusion, reaction, radiation=cfg.radiation, k=k)


def solve_transmission(mesh: Mesh, cfg: PhysicsConfig, system=None) -> ScalarField:
    """Solve the scattering problem at finite ENZ permittivity ``cfg.delta``.

    The interface conditions (continuity of the field and of the scaled
    normal flux) hold weakly through conformity of the mesh; radiation is
    treated per ``cfg.radiation``.
    """
    system = system or transmission_system(mesh, cfg)
    rhs = source_load(mesh, system.regions, cfg.sources)
    bc = {Bnd.GAMMA_INF: 0.0} if int(Region.PML) in system.regions else None
    return solve(system, rhs, bc, rtol=cfg.rtol)


@dataclass(frozen=True)
class Comparison:
    h1_error: float
    l2_error: float
    h1_rel: float
    l2_rel: float


PHYSICAL_REGIONS = frozenset({int(Region.DOPANT), int(Region.ENZ), int(Region.EXTERIOR)})


def compare_fields(u: ScalarField, v: ScalarField, window=None) -> Comparison:
    """Windowed norms of u - v; the window excludes the collar by default."""
    if window is None:
        window = PHYSICAL_REGIONS & u.regions
    common = u.regions & v.regions
    uu = _restrict(u, common)
    vv = _restrict(v, common)
    diff = uu - vv
    h1e, l2e = h1_l2_norms(diff, window)
    h1u, l2u = h1_l2_norms(uu, window)
    return Comparison(h1e, l2e, h1e / h1u if h1u > 0 else math.inf,
                      l2e / l2u if l2u > 0 else math.inf)


def _restrict(field: ScalarField, regions) -> ScalarField:
    if field.regions == _as_region_set(regions):
        return field
    mesh = field.mesh
    return ScalarField(mesh, regions,
                       field.values[mesh.region_pos(field.regions)[mesh.region_nodes(regions)]])


def enz_absorption(u: ScalarField, cfg: PhysicsConfig) -> float:
    """Time-averaged power absorbed in the ENZ annulus.

    Positive for a lossy shell (Im delta > 0), negative for gain; the sign
    convention follows the physical-power orientation of the fields.
    """
    semi = h1_seminorm(u, window=Region.ENZ)
    return float(np.imag(np.conj(1.0 / complex(cfg.delta))) * semi * semi
                 / (2.0 * cfg.omega))
