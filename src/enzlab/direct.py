"""Full transmission solves at finite contrast and expansion comparison.

Only the ENZ coefficient 1/delta depends on delta, so the transmission
operator is ``A_1 + (1/delta - 1) K_ENZ`` (:func:`transmission_system`).
``A_1`` is the exterior system of :func:`auxiliary.exterior_system` plus
Omega's own operator at unit ENZ coefficient, Omega = ENZ + dopant, and
``K_ENZ`` is the annulus stiffness; each part is assembled on its own region
set and placed on the global numbering by :func:`fem.renumber`.

The exterior reaches a solve only through its Dirichlet-to-Neumann map on
the scatterer boundary Gamma_Omega: ``S_e = A_gg - A_gf A_ff^-1 A_fg``, the
Schur complement of the exterior system onto Gamma_Omega, with ``f`` the
exterior's free nodes (Gamma_inf is fixed under the collar).
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

``S_e`` is read, per mesh and (k, radiation), off the one exterior
factorization the direct solve keeps: ``B``, the exterior system in the
order of :func:`fem.node_order` with Gamma_Omega last
(:func:`fem.interface_last`).  Every delta back-substitutes on ``B``: the
condensed load is ``-S_e`` times the Gamma_Omega part of ``B^-1 (b_f; 0)``,
and the recovery is ``B^-1 (b_f; z + S_e t)`` for the trace ``t``.  The
exterior's Dirichlet blocks are released before ``B`` is built, so no second
exterior LU is alive beside it; a later Dirichlet solve on the exterior (the
auxiliary set, the corrector engine) factors its block again.  Each delta
factors Omega's operator with Gamma_Omega last, since ``S_e`` is dense there.

Two entries of :meth:`Mesh.cached` hold what does not depend on delta: the
affine operator of the latest (k, radiation), with ``K_ENZ`` and ``C_1`` in
Omega's numbering only, so that each delta forms one sum, and ``B`` with
``S_e`` (set by its first solve); and the load term of the latest
(k, radiation, sources).  The node orders are the mesh's own, so a new k or
delta reorders nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .errors import ValidationError, ZeroCoefficient
from .auxiliary import PhysicsConfig, exterior_dirichlet, exterior_system
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
    condensed: tuple | None = None   # (C_1, B, S_e, keep) of _condense, set by the first solve


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


def transmission_system(mesh: Mesh, cfg: PhysicsConfig) -> LinearSystem:
    """Global system with piecewise coefficient 1/eps and reaction k^2.

    Only the ENZ coefficient 1/delta depends on delta, so the operator is
    ``A_1 + (1/delta - 1) K_ENZ``: ``A_1``, the exterior system plus Omega's
    operator at unit ENZ coefficient, and ``K_ENZ``, the annulus stiffness.
    Both are composed once per mesh and (k, radiation), and kept until
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


def _condense(mesh: Mesh, cfg: PhysicsConfig, op: _AffineOperator, ext: LinearSystem):
    """``C_1``, Omega's operator plus ``S_e``, and the exterior system ``B`` it came from.

    ``B`` is the exterior's on ``keep``, its nodes off the collar's fixed
    outer boundary, factored in the exterior free order with Gamma_Omega
    last, so that its trailing Schur complement is ``S_e``, returned dense.
    """
    ext.release_blocks()   # no exterior Dirichlet LU stays alive beside B
    fixed = [tag for tag in exterior_dirichlet(mesh, cfg, 0.0) if tag != Bnd.GAMMA_OMEGA]
    keep = fem.split_nodes(mesh, ext.regions, fixed)[0]
    gamma = fem._local_boundary(mesh, OMEGA_REGIONS, Bnd.GAMMA_OMEGA)
    n_g, n = len(gamma), op.A_om.shape[0]
    B, S = fem.interface_last(ext.A[np.ix_(keep, keep)].tocsc(),
                              fem.node_order(mesh, ext.regions, fixed, [Bnd.GAMMA_OMEGA]), n_g)
    S_e = sp.csc_matrix((S.ravel(), (np.repeat(gamma, n_g), np.tile(gamma, n_g))), shape=(n, n))
    return (op.A_om + S_e).tocsc(), B, S, keep


def solve_transmission(mesh: Mesh, cfg: PhysicsConfig) -> ScalarField:
    """Solve the scattering problem at finite ENZ permittivity ``cfg.delta``.

    The interface conditions (continuity of the field and of the scaled
    normal flux) hold weakly through conformity of the mesh; radiation is
    treated per ``cfg.radiation``.  The solve runs on Omega with the
    exterior condensed onto Gamma_Omega (see the module docstring): one
    factorization of the Omega operator per delta and one exterior solve.
    The glued field is certified on the global system by
    :func:`fem.certify` and carries that system's :class:`fem.SolveRecord`.
    The first call per mesh and (k, radiation) releases the exterior's
    Dirichlet blocks and factors the exterior with Gamma_Omega last, which
    every call then solves on.
    """
    op = _affine_operator(mesh, cfg)
    ext = exterior_system(mesh, cfg)
    b_ext = source_load(mesh, ext.regions, cfg.sources)
    if b_ext.any() and op.condensed is None:   # first, so A(delta) is not alive while S_e is read
        op.condensed = _condense(mesh, cfg, op, ext)
    system = transmission_system(mesh, cfg)
    rhs = np.zeros(len(system.nodes), dtype=complex)
    rhs[op.exterior] = b_ext
    bc = {Bnd.GAMMA_INF: 0.0} if Region.PML in system.regions else {}
    u = np.zeros(len(system.nodes), dtype=complex)
    if b_ext.any():
        C_1, B, S, keep = op.condensed
        g = B.order[len(keep) - len(S):]   # Gamma_Omega, as positions in keep
        r = b_ext[keep]
        r[g] = 0.0
        # with z = A_gf A_ff^-1 b_f, B [x; y] = [b_f; 0] has S_e y = -z, and
        # B [x; y] = [b_f; z + S_e t] has y = t and x = A_ff^-1 (b_f - A_fg t)
        z = mesh.cached("condensed load", (complex(cfg.k), cfg.radiation, cfg.sources),
                        lambda: -S @ B.solve(r)[g])
        gamma = fem._local_boundary(mesh, OMEGA_REGIONS, Bnd.GAMMA_OMEGA)
        b_om = rhs[op.omega]
        b_om[gamma] -= z
        c = 1.0 / complex(cfg.delta) - 1.0
        u_om = fem.Factored(C_1 + c * op.K_om, op.order).solve(b_om)
        r[g] = z + S @ u_om[gamma]
        u[op.exterior[keep]] = B.solve(r)   # Gamma_Omega takes u_om below
        u[op.omega] = u_om
    return fem.certify(system, rhs, bc, u)


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
