"""Full transmission solves at finite contrast and expansion comparison."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, ZeroCoefficient
from .auxiliary import PhysicsConfig, exterior_regions
from .fem import (LinearSystem, ScalarField, assemble, h1_l2_norms, h1_seminorm,
                  solve, source_load, stiffness_matrix)
from .geometry import Bnd, Mesh, Region, _as_region_set


# Per mesh, the delta-independent parts of the transmission operator for the
# latest (k, radiation).  An entry holds matrices and its key, never its
# mesh, and is dropped when the mesh is.
_OPERATORS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class _AffineOperator:
    """``A(delta) = A_1 + (1/delta - 1) K_ENZ`` on one region set's numbering."""

    key: tuple                 # (k, radiation)
    regions: frozenset
    A_1: sp.csc_matrix         # the operator at unit ENZ coefficient
    K_ENZ: sp.csc_matrix       # the annulus stiffness; its pattern lies inside A_1's


def _affine_operator(mesh: Mesh, cfg: PhysicsConfig) -> _AffineOperator:
    k = cfg.k
    key = (complex(k), cfg.radiation)
    op = _OPERATORS.get(mesh)
    if op is None or op.key != key:
        regs = _as_region_set({int(Region.DOPANT), int(Region.ENZ)} | exterior_regions(mesh, cfg))
        A_1 = assemble(mesh, regs, {Region(r): 1.0 + 0.0j for r in regs},
                       {Region(r): k * k for r in regs}, radiation=cfg.radiation, k=k).A
        K_ENZ = stiffness_matrix(mesh, Region.ENZ, numbering=regs)
        op = _OPERATORS[mesh] = _AffineOperator(key, regs, A_1, K_ENZ)
    return op


def transmission_system(mesh: Mesh, cfg: PhysicsConfig) -> LinearSystem:
    """Global system with piecewise coefficient 1/eps and reaction k^2.

    Only the ENZ coefficient 1/delta depends on delta, so the operator is
    ``A_1 + (1/delta - 1) K_ENZ``: ``A_1`` at unit ENZ coefficient, ``K_ENZ``
    the annulus stiffness on ``A_1``'s numbering.  Both are assembled once
    per mesh and (k, radiation), and kept until the mesh is collected or
    another (k, radiation) replaces them; each call returns a new system,
    whose Dirichlet blocks and LU are its own.
    """
    if cfg.delta == 0:
        raise ValidationError("delta must be nonzero for a direct transmission solve")
    a_enz = 1.0 / complex(cfg.delta)
    if a_enz == 0:
        raise ZeroCoefficient("zero diffusion coefficient on region ENZ")
    op = _affine_operator(mesh, cfg)
    A = op.A_1 + (a_enz - 1.0) * op.K_ENZ
    return LinearSystem(mesh, op.regions, A, mesh.region_nodes(op.regions))


def solve_transmission(mesh: Mesh, cfg: PhysicsConfig) -> ScalarField:
    """Solve the scattering problem at finite ENZ permittivity ``cfg.delta``.

    The interface conditions (continuity of the field and of the scaled
    normal flux) hold weakly through conformity of the mesh; radiation is
    treated per ``cfg.radiation``.
    """
    system = transmission_system(mesh, cfg)
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
