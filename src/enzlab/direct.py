"""Full transmission solves at finite contrast and expansion comparison.

Only the ENZ coefficient 1/delta depends on delta, so the transmission
operator is ``A_1 + (1/delta - 1) K_ENZ`` (:func:`transmission_system`).
``A_1`` is the exterior system of :func:`auxiliary.exterior_system` plus
Omega's own operator at unit ENZ coefficient, Omega = ENZ + dopant, and
``K_ENZ`` is the annulus stiffness; each part is assembled on its own region
set and placed on the global numbering by :func:`fem.renumber`.

The exterior reaches a solve only through its Dirichlet-to-Neumann map
``S_e`` on the scatterer boundary Gamma_Omega (:func:`auxiliary.exterior_schur`).
:func:`solve_transmission` therefore solves each delta on Omega alone, with
``C_1 + (1/delta - 1) K_ENZ``, where ``C_1`` is Omega's operator plus ``S_e``
on Gamma_Omega, and the load less the condensed term ``A_gf A_ff^-1 b_f``.
One exterior solve with the Omega field's trace as Dirichlet data recovers
the rest, and the glued field is certified on the global operator with the
backward-error bound and amplification check of :func:`enzlab.fem.solve`
(:func:`fem.certify`).  The load is the exterior's, the same one the
auxiliary source field reads, since no source reaches the scatterer.  The
dopant is not condensed, so k^2 at a dopant Dirichlet eigenvalue still
solves.

``S_e`` (``B.schur``), the condensed load and the recovery come off the
exterior system's one LU, ``B``, its block with Gamma_Omega last, that
:func:`auxiliary.exterior_schur` asks for; the auxiliary set and the corrector
engine, which hold the same system, then solve on ``B`` too.  Each delta
factors Omega's operator, with Gamma_Omega last since ``S_e`` is dense there,
as one sum of the kept ``C_1`` and ``K_ENZ`` in Omega's numbering.  The node
orders are the mesh's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import ValidationError, ZeroCoefficient
from .auxiliary import (PhysicsConfig, condensed_load, exterior_schur, exterior_system,
                        exterior_values, outer_dirichlet)
from .fem import (LinearSystem, ScalarField, assemble, h1_l2_norms, h1_seminorm,
                  renumber, source_load, stiffness_matrix)
from .geometry import Bnd, Mesh, Region, _as_region_set

OMEGA_REGIONS = _as_region_set({Region.DOPANT, Region.ENZ})


@dataclass(eq=False)
class _AffineOperator:
    """``A(delta) = A_1 + (1/delta - 1) K_ENZ``, on the global numbering and on Omega's."""

    regions: frozenset
    A_1: sp.csc_matrix         # the exterior system plus A_om
    K_ENZ: sp.csc_matrix       # the annulus stiffness; its pattern lies inside A_1's
    omega: np.ndarray          # Omega's nodes, as positions in A(delta)
    exterior: np.ndarray       # the exterior's nodes, as positions in A(delta)
    A_om: sp.csc_matrix        # Omega's operator at unit ENZ coefficient, on Omega
    K_om: sp.csc_matrix        # K_ENZ on Omega
    order: np.ndarray          # Omega's node order, Gamma_Omega last
    C_1: sp.csc_matrix | None = None   # A_om plus S_e on Gamma_Omega, set by the first solve


def _affine_operator(mesh: Mesh, cfg: PhysicsConfig) -> _AffineOperator:
    def build():
        k = cfg.k
        ext = exterior_system(mesh, cfg)
        regs = OMEGA_REGIONS | ext.regions
        A_om = assemble(mesh, OMEGA_REGIONS, dict.fromkeys(OMEGA_REGIONS, 1.0 + 0.0j),
                        dict.fromkeys(OMEGA_REGIONS, k * k)).A
        K_om = renumber(mesh, stiffness_matrix(mesh, Region.ENZ), Region.ENZ, OMEGA_REGIONS)
        A_1 = renumber(mesh, ext.A, ext.regions, regs) + renumber(mesh, A_om, OMEGA_REGIONS, regs)
        pos = mesh.region_pos(regs)
        return _AffineOperator(regs, A_1, renumber(mesh, K_om, OMEGA_REGIONS, regs),
                               pos[mesh.region_nodes(OMEGA_REGIONS)], pos[ext.nodes], A_om, K_om,
                               fem.node_order(mesh, OMEGA_REGIONS, (), [Bnd.GAMMA_OMEGA]))
    return mesh.cached("transmission operator", (complex(cfg.k), cfg.radiation), build)


def _enz_coefficient(delta) -> complex:
    """``1/delta``; ValidationError at delta = 0, ZeroCoefficient where ``1/delta`` rounds to 0."""
    if delta == 0:
        raise ValidationError("delta must be nonzero for a direct transmission solve")
    if 1.0 / complex(delta) == 0:
        raise ZeroCoefficient("zero diffusion coefficient on region ENZ")
    return 1.0 / complex(delta)


def transmission_system(mesh: Mesh, cfg: PhysicsConfig) -> LinearSystem:
    """Global system with piecewise coefficient 1/eps and reaction k^2.

    Only the ENZ coefficient 1/delta depends on delta, so the operator is
    ``A_1 + (1/delta - 1) K_ENZ``: ``A_1``, the exterior system plus Omega's
    operator at unit ENZ coefficient, and ``K_ENZ``, the annulus stiffness.
    Both are composed once per mesh and (k, radiation), and kept until
    another (k, radiation) replaces them; each call returns a new system,
    whose Dirichlet blocks and LU are its own.
    """
    a_enz = _enz_coefficient(cfg.delta)
    op = _affine_operator(mesh, cfg)
    A = op.A_1 + (a_enz - 1.0) * op.K_ENZ
    return LinearSystem(mesh, op.regions, A)


def solve_transmission(mesh: Mesh, cfg: PhysicsConfig) -> ScalarField:
    """Solve the scattering problem at finite ENZ permittivity ``cfg.delta``.

    The interface conditions (continuity of the field and of the scaled
    normal flux) hold weakly through conformity of the mesh.  Delta is
    checked first.  The solve runs on Omega with the exterior condensed
    onto Gamma_Omega (see the module docstring): one factorization of the
    Omega operator per delta and one exterior solve.
    The glued field is certified on the global system by
    :func:`fem.certify` and carries that system's :class:`fem.SolveRecord`.
    """
    c = _enz_coefficient(cfg.delta) - 1.0
    op = _affine_operator(mesh, cfg)
    ext = exterior_system(mesh, cfg)
    b_ext = source_load(mesh, ext.regions, cfg.sources)
    gamma = fem._local_boundary(mesh, OMEGA_REGIONS, Bnd.GAMMA_OMEGA)
    if b_ext.any() and op.C_1 is None:   # first, so A(delta) is not alive while S_e is read
        S, n_g = exterior_schur(ext).schur, len(gamma)
        op.C_1 = (op.A_om + sp.csc_matrix((S.ravel(), (np.repeat(gamma, n_g), np.tile(gamma, n_g))),
                                          shape=op.A_om.shape)).tocsc()
    system = transmission_system(mesh, cfg)
    rhs = np.zeros(len(system.nodes), dtype=complex)
    rhs[op.exterior] = b_ext
    u = np.zeros(len(system.nodes), dtype=complex)
    if b_ext.any():
        b_om = rhs[op.omega]
        b_om[gamma] -= condensed_load(ext, cfg)
        u_om = fem.Factored(op.C_1 + c * op.K_om, op.order).solve(b_om)
        u[op.exterior] = exterior_values(ext, cfg, b_ext, u_om[gamma])   # Gamma_Omega takes u_om
        u[op.omega] = u_om
    return fem.certify(system, rhs, outer_dirichlet(system.regions), u)


@dataclass(frozen=True)
class Comparison:
    h1_error: float
    l2_error: float


PHYSICAL_REGIONS = _as_region_set({Region.DOPANT, Region.ENZ, Region.EXTERIOR})


def compare_fields(u: ScalarField, v: ScalarField, window=None) -> Comparison:
    """Windowed norms of u - v; the window excludes the collar by default."""
    if window is None:
        window = PHYSICAL_REGIONS & u.regions
    common = u.regions & v.regions
    uu = _restrict(u, common)
    vv = _restrict(v, common)
    return Comparison(*h1_l2_norms(uu - vv, window))


def _restrict(field: ScalarField, regions) -> ScalarField:
    if field.regions == regions:
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
