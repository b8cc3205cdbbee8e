"""Electromagnetic post-processing: Poynting vector and its small-delta limit.

The magnetic field is the scalar unknown itself; the electric field is a
rotated scaled gradient, so the Poynting vector reduces to a per-triangle
complex 2-vector built from P1 gradients.  Its limit in the near-zero shell
is a constant multiple of the gradient of the leading ENZ corrector, and the
limit satisfies a constant-divergence, curl-free system that this module
verifies weakly (pointwise derivatives of piecewise-constant fields are
meaningless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auxiliary import AuxiliarySet, PhysicsConfig
from .errors import EmptyWindow
from .fem import (ScalarField, _local_boundary, _p1_geometry,
                  _tri_values_and_grads, curve_sign, split_nodes)
from .geometry import Bnd, Mesh, Region, _as_region_set


@dataclass
class PiecewiseVectorField:
    """Per-triangle complex 2-vector (piecewise constant) with region tags."""

    mesh: Mesh
    tri_index: np.ndarray     # global triangle indices covered
    vectors: np.ndarray       # (n, 2) complex
    region: np.ndarray        # (n,) region tag per triangle

    def restrict(self, regions) -> "PiecewiseVectorField":
        sel = np.isin(self.region, sorted(_as_region_set(regions)))
        return PiecewiseVectorField(self.mesh, self.tri_index[sel],
                                    self.vectors[sel], self.region[sel])

    def l2_norm(self, regions=None) -> float:
        f = self if regions is None else self.restrict(regions)
        area = f.mesh.tri_areas[f.tri_index]
        return math.sqrt(float((np.abs(f.vectors) ** 2).sum(axis=1) @ area))


def compute_poynting(u: ScalarField, cfg: PhysicsConfig) -> PiecewiseVectorField:
    """Poynting vector of a field at finite contrast, per non-collar triangle.

    Per triangle: S = conj(u_centroid) / (2 i omega eps) * grad(u), the
    in-plane reduction of (1/2) E x conj(H).
    """
    mesh = u.mesh
    eps = np.ones(len(Region), dtype=complex)   # indexed by region; the collar is skipped
    eps[Region.ENZ] = cfg.delta
    mask = mesh.region_triangles(u.regions - {Region.PML})
    vals, gx, gy, _ = _tri_values_and_grads(u, mask)
    u_cen = vals.mean(axis=1)
    reg = mesh.tri_region[mask]
    factor = np.conj(u_cen) / (2j * cfg.omega * eps[reg])
    return PiecewiseVectorField(mesh, np.where(mask)[0],
                                factor[:, None] * np.column_stack([gx, gy]),
                                reg.astype(np.int16))


def poynting_limit(phi0: ScalarField, c_star: complex,
                   cfg: PhysicsConfig) -> PiecewiseVectorField:
    """Limiting Poynting field in the shell: conj(c*) / (2 i omega) grad(phi0)."""
    mesh = phi0.mesh
    mask = mesh.region_triangles(Region.ENZ)
    _, gx, gy, _ = _tri_values_and_grads(phi0, mask)
    factor = np.conj(c_star) / (2j * cfg.omega)
    return PiecewiseVectorField(mesh, np.where(mask)[0], factor * np.column_stack([gx, gy]),
                                mesh.tri_region[mask].astype(np.int16))


def poynting_gap(s_delta: PiecewiseVectorField, s_limit: PiecewiseVectorField) -> float:
    """L2 distance between two piecewise-constant vector fields on the shell."""
    a = s_delta.restrict(Region.ENZ)
    b = s_limit.restrict(Region.ENZ)
    if len(a.tri_index) == 0 or not np.array_equal(a.tri_index, b.tri_index):
        raise EmptyWindow("fields do not share shell triangles")
    return PiecewiseVectorField(a.mesh, a.tri_index, a.vectors - b.vectors, a.region).l2_norm()


def ideal_fluid_residuals(s_limit: PiecewiseVectorField, aux: AuxiliarySet,
                          cfg: PhysicsConfig) -> dict:
    """Weak defects of the limiting flow system on the shell.

    Checks, against every interior P1 test function, that the divergence of
    the limit field equals i omega mu |c*|^2 / 2 and that its curl vanishes;
    boundary residuals compare the variational normal flux against the
    prescribed interface data.  All values are relative to the data scale.
    """
    mesh = s_limit.mesh
    f = s_limit.restrict(Region.ENZ)
    tri_nodes, b, c, area = _p1_geometry(mesh, f.tri_index)
    tris = mesh.region_pos(Region.ENZ)[tri_nodes]
    n = len(mesh.region_nodes(Region.ENZ))
    div_acc = np.zeros(n, dtype=complex)
    curl_acc = np.zeros(n, dtype=complex)
    # int_T S.grad(v_i) = S.(b_i, c_i)/2 ; rotated gradient for the curl
    for loc in range(3):
        np.add.at(div_acc, tris[:, loc],
                  0.5 * (f.vectors[:, 0] * b[loc] + f.vectors[:, 1] * c[loc]))
        np.add.at(curl_acc, tris[:, loc],
                  0.5 * (-f.vectors[:, 0] * c[loc] + f.vectors[:, 1] * b[loc]))
    m_vec = np.zeros(n, dtype=float)
    for loc in range(3):
        np.add.at(m_vec, tris[:, loc], area / 3.0)
    const = 1j * cfg.omega * complex(cfg.mu) * abs(aux.c_star) ** 2 / 2.0
    interior = split_nodes(mesh, Region.ENZ, [Bnd.GAMMA_D, Bnd.GAMMA_OMEGA])[0]
    scale = max(float(np.abs(div_acc[interior]).max(initial=0.0)),
                abs(const) * float(m_vec[interior].max(initial=0.0)), 1e-300)
    div_res = float(np.abs(div_acc[interior] + const * m_vec[interior]).max(initial=0.0)) / scale
    curl_scale = max(float(np.abs(curl_acc[interior]).max(initial=0.0)), scale)
    curl_res = float(np.abs(curl_acc[interior]).max(initial=0.0)) / curl_scale

    # boundary data: nu.S must match the prescribed interface fluxes
    # (div_acc already carries the limit prefactor through the vectors)
    factor = np.conj(aux.c_star) / (2j * cfg.omega)
    bc = {}
    for tag, data in (
            (Bnd.GAMMA_OMEGA, aux.c_star * aux.flux_psi_e.values + aux.flux_s.values),
            (Bnd.GAMMA_D, aux.c_star * aux.flux_psi_d.values)):
        bn = _local_boundary(mesh, Region.ENZ, tag)
        actual = curve_sign(Region.ENZ, tag) * (div_acc[bn] + const * m_vec[bn])
        target = factor * data
        sc = max(float(np.abs(target).max(initial=0.0)), 1e-300)
        bc[tag] = float(np.abs(actual - target).max(initial=0.0)) / sc
    return {"div_residual": div_res, "curl_residual": curl_res,
            "bc_residual_omega": bc[Bnd.GAMMA_OMEGA],
            "bc_residual_dopant": bc[Bnd.GAMMA_D]}
