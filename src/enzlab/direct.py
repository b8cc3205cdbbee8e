"""Full transmission solves at finite contrast and expansion comparison.

Only the ENZ coefficient 1/delta depends on delta, so the transmission
operator is ``A_1 + (1/delta - 1) K_ENZ`` (:func:`transmission_system`), and
the exterior reaches a solve only through its Dirichlet-to-Neumann map on
the scatterer boundary Gamma_Omega: the Schur complement
``S_e = A_gg - A_gf A_ff^-1 A_fg`` of the exterior operator onto Gamma_Omega,
with ``f`` the exterior's free nodes (Gamma_inf is fixed under the collar).
:func:`solve_transmission` therefore solves each delta on
Omega = ENZ + dopant alone, with the operator ``A(delta)`` on Omega's rows
and columns in which the exterior's own Gamma_Omega block is replaced by
``S_e``, and the load less the condensed term ``A_gf A_ff^-1 b_f``.  The
Omega operator is again affine in 1/delta.  One exterior solve with the
Omega field's trace as Dirichlet data recovers the rest, and the glued field
is certified on the assembled global operator with the backward-error bound
and amplification check of :func:`enzlab.fem.solve` (:func:`fem.certify`).
The dopant is not condensed, so k^2 at a dopant Dirichlet eigenvalue still
solves.

``S_e`` comes, per mesh and (k, radiation), from one factorization of the
exterior's free nodes with Gamma_Omega ordered last
(:func:`fem.interface_last`), and is kept as a dense array.  That LU serves
the call that builds ``S_e`` and is then dropped: reading ``S_e`` off its
factors makes SuperLU keep copies of both on it (at h = 0.025 a kept one
raised the resident set from 426 to 668 MB).  Later calls back-substitute
on the exterior's Dirichlet block instead, which
:func:`auxiliary.exterior_system` shares with the auxiliary set and the
corrector engine.

Two entries of :meth:`Mesh.cached` hold what does not depend on delta: the
affine operator of the latest (k, radiation), with the condensation filled
in by its first solve, and the load term of the latest (k, radiation,
sources), solved on whichever exterior LU that solve has at hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import ValidationError, ZeroCoefficient
from .auxiliary import PhysicsConfig, exterior_dirichlet, exterior_regions, exterior_system
from .fem import (LinearSystem, ScalarField, assemble, h1_l2_norms, h1_seminorm,
                  solve, source_load, stiffness_matrix)
from .geometry import Bnd, Mesh, Region, _as_region_set

OMEGA_REGIONS = _as_region_set({Region.DOPANT, Region.ENZ})


@dataclass(frozen=True)
class _Condensation:
    """``A(delta)`` condensed onto Omega: ``C_1 + (1/delta - 1) K_ENZ``."""

    omega: np.ndarray          # Omega's nodes, as positions in A(delta)
    exterior: np.ndarray       # the exterior's nodes, as positions in A(delta)
    gamma: np.ndarray          # Gamma_Omega, as positions in Omega
    C_1: sp.csc_matrix         # A_1 on Omega, less A_gf A_ff^-1 A_fg on Gamma_Omega
    K_ENZ: sp.csc_matrix       # the annulus stiffness on Omega


@dataclass(eq=False)
class _AffineOperator:
    """``A(delta) = A_1 + (1/delta - 1) K_ENZ`` on one region set's numbering."""

    regions: frozenset
    A_1: sp.csc_matrix         # the operator at unit ENZ coefficient
    K_ENZ: sp.csc_matrix       # the annulus stiffness; its pattern lies inside A_1's
    condensation: _Condensation | None = None   # filled by the first solve with a load


def _affine_operator(mesh: Mesh, cfg: PhysicsConfig) -> _AffineOperator:
    def build():
        k = cfg.k
        regs = _as_region_set(OMEGA_REGIONS | exterior_regions(mesh, cfg))
        A_1 = assemble(mesh, regs, {Region(r): 1.0 + 0.0j for r in regs},
                       {Region(r): k * k for r in regs}, radiation=cfg.radiation, k=k).A
        return _AffineOperator(regs, A_1, stiffness_matrix(mesh, Region.ENZ, numbering=regs))
    return mesh.cached("transmission operator", (complex(cfg.k), cfg.radiation), build)


def transmission_system(mesh: Mesh, cfg: PhysicsConfig) -> LinearSystem:
    """Global system with piecewise coefficient 1/eps and reaction k^2.

    Only the ENZ coefficient 1/delta depends on delta, so the operator is
    ``A_1 + (1/delta - 1) K_ENZ``: ``A_1`` at unit ENZ coefficient, ``K_ENZ``
    the annulus stiffness on ``A_1``'s numbering.  Both are assembled once
    per mesh and (k, radiation), and kept until another (k, radiation)
    replaces them; each call returns a new system, whose Dirichlet blocks
    and LU are its own.
    """
    if cfg.delta == 0:
        raise ValidationError("delta must be nonzero for a direct transmission solve")
    a_enz = 1.0 / complex(cfg.delta)
    if a_enz == 0:
        raise ZeroCoefficient("zero diffusion coefficient on region ENZ")
    op = _affine_operator(mesh, cfg)
    A = op.A_1 + (a_enz - 1.0) * op.K_ENZ
    return LinearSystem(mesh, op.regions, A, mesh.region_nodes(op.regions))


def _condense(mesh: Mesh, cfg: PhysicsConfig, op: _AffineOperator):
    """The condensation of ``op``, and the interface-last LU it came from.

    The LU is of ``A_1`` on the exterior's free nodes, then Gamma_Omega.  Its
    Gamma_Omega block is the exterior's plus Omega's, so its Schur complement
    is ``S_e`` plus Omega's block: less ``A_1``'s block it leaves
    ``-A_gf A_ff^-1 A_fg``, which condensing adds to ``A_1`` on Omega.
    """
    pos = mesh.region_pos(op.regions)
    ext_nodes = mesh.region_nodes(exterior_regions(mesh, cfg))
    fixed = [mesh.boundary_nodes(tag) for tag in exterior_dirichlet(mesh, cfg, 0.0)]
    gamma = pos[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]
    schur = fem.interface_last(op.A_1, pos[np.setdiff1d(ext_nodes, np.concatenate(fixed))],
                               gamma)
    D = schur[2] - op.A_1[np.ix_(gamma, gamma)].toarray()
    omega = pos[mesh.region_nodes(OMEGA_REGIONS)]
    gamma_om = mesh.region_pos(OMEGA_REGIONS)[mesh.boundary_nodes(Bnd.GAMMA_OMEGA)]
    n_g = len(gamma)
    dtn = sp.csc_matrix((D.ravel(), (np.repeat(gamma_om, n_g), np.tile(gamma_om, n_g))),
                        shape=(len(omega), len(omega)))
    cond = _Condensation(omega, pos[ext_nodes], gamma_om,
                         (op.A_1[np.ix_(omega, omega)] + dtn).tocsc(),
                         op.K_ENZ[np.ix_(omega, omega)].tocsc())
    return cond, schur


def solve_transmission(mesh: Mesh, cfg: PhysicsConfig) -> ScalarField:
    """Solve the scattering problem at finite ENZ permittivity ``cfg.delta``.

    The interface conditions (continuity of the field and of the scaled
    normal flux) hold weakly through conformity of the mesh; radiation is
    treated per ``cfg.radiation``.  The solve runs on Omega with the
    exterior condensed onto Gamma_Omega (see the module docstring): one
    factorization of the Omega operator per delta and one exterior solve.
    The glued field is certified on the assembled system by
    :func:`fem.certify` and carries that system's :class:`fem.SolveRecord`.
    The first call per mesh and (k, radiation) factors the exterior with
    Gamma_Omega last, solves on that LU and drops it; later calls solve on
    the exterior's Dirichlet block, shared through
    :func:`auxiliary.exterior_system`.
    """
    system = transmission_system(mesh, cfg)
    rhs = source_load(mesh, system.regions, cfg.sources)
    bc = {Bnd.GAMMA_INF: 0.0} if int(Region.PML) in system.regions else {}
    u = np.zeros(len(system.nodes), dtype=complex)
    if rhs.any():
        op = _affine_operator(mesh, cfg)
        schur = None
        if op.condensation is None:
            op.condensation, schur = _condense(mesh, cfg, op)
        cond = op.condensation
        if schur is not None:
            B, order, S = schur
            n_f = len(order) - len(S)
            b_f = rhs[order[:n_f]]
        else:
            ext = exterior_system(mesh, cfg)
            b_ext = rhs[cond.exterior]

        def load_term():
            if schur is not None:
                # with S = S_e + Omega's block and z = A_gf A_ff^-1 b_f,
                # B [x; y] = [b_f; 0] has S y = -z, and
                # B [x; y] = [b_f; z + S t] has y = t and x = A_ff^-1 (b_f - A_fg t)
                return -S @ B.solve(np.concatenate([b_f, np.zeros(len(S))]))[n_f:]
            # the exterior field of zero trace is A_ff^-1 b_f
            s = solve(ext, b_ext, exterior_dirichlet(mesh, cfg, 0.0))
            return (ext.A @ s.values)[ext.local_boundary(Bnd.GAMMA_OMEGA)]
        z = mesh.cached("condensed load", (complex(cfg.k), cfg.radiation, cfg.sources),
                        load_term)
        b_om = rhs[cond.omega].copy()
        b_om[cond.gamma] -= z
        A_om = cond.C_1 + (1.0 / complex(cfg.delta) - 1.0) * cond.K_ENZ
        u_om = fem.Factored(A_om).solve(b_om)
        trace = u_om[cond.gamma]
        if schur is not None:
            x = B.solve(np.concatenate([b_f, z + S @ trace]))
            u[order[:n_f]] = x[:n_f]
        else:
            u[cond.exterior] = solve(ext, b_ext, exterior_dirichlet(mesh, cfg, trace)).values
        u[cond.omega] = u_om
    return fem.certify(system, rhs, bc, u)


@dataclass(frozen=True)
class Comparison:
    h1_error: float
    l2_error: float


PHYSICAL_REGIONS = frozenset({int(Region.DOPANT), int(Region.ENZ), int(Region.EXTERIOR)})


def compare_fields(u: ScalarField, v: ScalarField, window=None) -> Comparison:
    """Windowed norms of u - v; the window excludes the collar by default."""
    if window is None:
        window = PHYSICAL_REGIONS & u.regions
    common = u.regions & v.regions
    uu = _restrict(u, common)
    vv = _restrict(v, common)
    return Comparison(*h1_l2_norms(uu - vv, window))


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
