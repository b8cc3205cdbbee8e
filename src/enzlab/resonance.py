"""Resonant-dopant limits: detuning sweeps and their k^2 -> eigenvalue limit.

When k^2 approaches a Dirichlet eigenvalue of the dopant, the lifting field
psi_d blows up and the balance constant grows like 1/gamma in the detuning
gamma = lambda* - k^2.  If some eigenfunction of the cluster has nonzero mean
("excited" resonance) the coupling constant shrinks like gamma and the
effective permeability diverges like 1/gamma, while the leading ENZ corrector
converges to the solution of a Laplace problem driven by eigenfunction
fluxes.  This module computes the discrete versions of all these objects on
one shared mesh so the limits are free of remeshing noise.

Everything uses the discrete eigenvalue as the detuning origin: the sweep,
the closed-form limit ratio, and the limit corrector are then consistent to
solver precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import Degenerate, ResonantDopant, SingularSystem
from .auxiliary import PhysicsConfig, _branch_sqrt, solve_auxiliary_set, solve_s
from .fem import (BoundaryFunctional, NeumannSystem, ScalarField, dirichlet_eigs,
                  eigen_flux, h1_norm, integrate, mass_matrix, stiffness_matrix)
from .geometry import Bnd, Mesh, Region

EXCITED = "EXCITED"
NOT_EXCITED = "NOT_EXCITED"
MEAN_THRESHOLD = 1e-6


def resonant_cluster(mesh: Mesh, target: float, count: int = 6,
                     rel_tol: float = 1e-3):
    """Discrete eigenvalue cluster nearest ``target`` on the dopant.

    Returns (lambda_star, [(lambda_j, U_j), ...]) where lambda_star is the
    cluster mean; the cluster collects computed eigenvalues within
    ``rel_tol`` (relative) of the nearest one.
    """
    pairs = dirichlet_eigs(mesh, count, target=target)
    lam0 = pairs[0][0]
    cluster = [(l, u) for l, u in pairs if abs(l - lam0) <= rel_tol * abs(lam0)]
    lam_star = float(np.mean([l for l, _ in cluster]))
    return lam_star, cluster


def eigen_means(mesh: Mesh, eigenpairs) -> np.ndarray:
    """Integrals of the eigenfunctions over the dopant."""
    return np.array([complex(integrate(u)).real for _, u in eigenpairs])


def classify_eigenpairs(mesh: Mesh, eigenpairs) -> str:
    """EXCITED when any cluster eigenfunction has nonzero mean."""
    for _, u in eigenpairs:
        m = abs(complex(integrate(u)))
        l1 = ScalarField(mesh, Region.DOPANT, np.abs(u.values).astype(complex))
        scale = abs(complex(integrate(l1)))
        if m > MEAN_THRESHOLD * max(scale, 1e-300):
            return EXCITED
    return NOT_EXCITED


def compute_cbar(lambda_star: float, means: np.ndarray,
                 flux_s: BoundaryFunctional) -> complex:
    """Limit of c*_gamma / gamma: -total_flux(s) / (lambda*^2 sum_j (int U_j)^2)."""
    msq = float(np.sum(np.asarray(means) ** 2))
    if msq < 1e-20:
        raise Degenerate("cluster means vanish; resonance is not excited")
    return -flux_s.total() / (lambda_star**2 * msq)


def solve_phi_hat0(mesh: Mesh, cluster, c_bar: complex, means: np.ndarray,
                   flux_s: BoundaryFunctional,
                   neumann: NeumannSystem | None = None) -> ScalarField:
    """Limit ENZ corrector: mean-zero Laplace solve with eigenfunction fluxes.

    The dopant-side datum is C-bar lambda* sum_j (int U_j) dU_j/dn, whose
    total flux balances the scatterer-side source flux exactly (discretely,
    by the eigenvalue identity total_flux(U_j) = -lambda_j int U_j).
    """
    neumann = neumann or NeumannSystem(mesh, Region.ENZ)
    lam_star = float(np.mean([l for l, _ in cluster]))
    datum = BoundaryFunctional.zeros(mesh, Bnd.GAMMA_D)
    for (lam_j, u_j), m_j in zip(cluster, means):
        datum = datum + (c_bar * lam_star * m_j) * eigen_flux(mesh, lam_j, u_j)
    return neumann.solve(None, {Bnd.GAMMA_OMEGA: flux_s, Bnd.GAMMA_D: datum})


@dataclass
class GammaRecord:
    gamma: complex
    k: complex
    beta: complex
    c_star: complex
    mu_eff: complex
    phi0: ScalarField
    phi_gap: float = math.nan   # H1 distance to the limit corrector


@dataclass
class ResonanceStudy:
    lambda_star: float
    cluster: list
    means: np.ndarray
    classification: str
    records: list = dc_field(default_factory=list)
    c_bar: complex = 0.0
    c_bar_extrapolated: complex = 0.0
    phi_hat0: ScalarField = None
    flux_s: BoundaryFunctional = None

    @property
    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])


def gamma_sweep(mesh: Mesh, cfg: PhysicsConfig, target: float,
                gammas) -> ResonanceStudy:
    """Sweep the detuning gamma with k^2 = lambda* - gamma on one fixed mesh.

    ``gammas`` may be real (approach along the real axis) or imaginary
    (resonance prevented by losses); the classification must be EXCITED.
    Produces per-gamma constants and leading correctors, the closed-form
    limit ratio with its sweep extrapolation, and the limit corrector.
    """
    gammas = list(gammas)
    if len(gammas) < 2:
        raise ValueError("detuning sweep needs at least two gamma values")
    lam_star, cluster = resonant_cluster(mesh, target)
    means = eigen_means(mesh, cluster)
    classification = classify_eigenpairs(mesh, cluster)
    if classification != EXCITED:
        raise Degenerate("detuning sweep requires an excited resonance")
    study = ResonanceStudy(lam_star, cluster, means, classification)
    neumann = NeumannSystem(mesh, Region.ENZ, ctol=cfg.ctol)

    # limit objects use the exterior problem exactly at the eigenvalue
    cfg_star = PhysicsConfig.from_k(_branch_sqrt(lam_star), sources=cfg.sources,
                                    radiation=cfg.radiation, rtol=cfg.rtol)
    _, flux_s_star = solve_s(mesh, cfg_star)
    study.flux_s = flux_s_star
    study.c_bar = compute_cbar(lam_star, means, flux_s_star)
    study.phi_hat0 = solve_phi_hat0(mesh, cluster, study.c_bar, means,
                                    flux_s_star, neumann)

    for gamma in gammas:
        k = _branch_sqrt(lam_star - complex(gamma))
        cfg_g = PhysicsConfig.from_k(k, sources=cfg.sources,
                                     radiation=cfg.radiation, rtol=cfg.rtol)
        try:
            aux = solve_auxiliary_set(mesh, cfg_g, guard=False)
        except SingularSystem as exc:
            raise ResonantDopant(
                f"gamma {gamma} lands on another discrete eigenvalue") from exc
        vol = k * k * aux.c_star * neumann.m_vec
        phi0 = neumann.solve(vol, {
            Bnd.GAMMA_OMEGA: aux.c_star * aux.flux_psi_e + aux.flux_s,
            Bnd.GAMMA_D: aux.c_star * aux.flux_psi_d,
        })
        rec = GammaRecord(complex(gamma), k, aux.beta, aux.c_star, aux.mu_eff, phi0)
        rec.phi_gap = h1_norm(phi0 - study.phi_hat0)
        study.records.append(rec)

    # first-order Richardson on the two smallest detunings
    order = np.argsort([abs(r.gamma) for r in study.records])
    r2, r1 = study.records[order[0]], study.records[order[1]]
    v2, v1 = r2.c_star / r2.gamma, r1.c_star / r1.gamma
    g2, g1 = r2.gamma, r1.gamma
    study.c_bar_extrapolated = (g1 * v2 - g2 * v1) / (g1 - g2)
    return study


# ---------------------------------------------------------------------------
# deflated solves for the un-excited (mean-zero) resonance


def _deflated_system(mesh: Mesh, lambda_star: float, cluster):
    nodes = mesh.region_nodes(Region.DOPANT)
    il = mesh.region_pos(Region.DOPANT)[mesh.interior_nodes(Region.DOPANT)]
    K = stiffness_matrix(mesh, Region.DOPANT)[np.ix_(nodes, nodes)]
    M = mass_matrix(mesh, Region.DOPANT)[np.ix_(nodes, nodes)]
    A = (K - lambda_star * M).tocsc()
    B = np.column_stack([(M @ u.values)[il] for _, u in cluster])
    A_ii = A[np.ix_(il, il)]
    m = B.shape[1]
    bordered = sp.bmat([[A_ii, sp.csc_matrix(B)],
                        [sp.csc_matrix(B.conj().T), None]], format="csc")
    return nodes, il, A, spla.splu(bordered), m


def deflated_dirichlet_solve(mesh: Mesh, lambda_star: float, cluster,
                             trace: np.ndarray,
                             volume: np.ndarray | None = None) -> ScalarField:
    """Dopant Helmholtz solve at the eigenvalue with near-kernel deflation.

    Projects the cluster eigenvectors out of the residual via a bordered
    system, returning the solution component mass-orthogonal to the cluster.
    Any multiple of a cluster eigenfunction may be added to the result and it
    still satisfies the same equation and trace.
    """
    nodes, il, A, lu, m = _deflated_system(mesh, lambda_star, cluster)
    vals = np.zeros(len(nodes), dtype=complex)
    bn = mesh.region_pos(Region.DOPANT)[mesh.boundary_nodes(Bnd.GAMMA_D)]
    vals[bn] = trace
    rhs = -(A @ vals)
    if volume is not None:
        rhs = rhs + volume
    x = lu.solve(np.concatenate([rhs[il], np.zeros(m)]))
    vals[il] = x[:len(il)]
    if not np.isfinite(vals).all():
        raise SingularSystem("deflated solve produced non-finite values")
    return ScalarField(mesh, Region.DOPANT, vals)


def deflated_psi_d(mesh: Mesh, lambda_star: float, cluster) -> ScalarField:
    """Dopant lifting field at an un-excited resonance (mean-zero cluster).

    Realizes the eigen-series formula without summing the spectrum: the
    returned representative has no component along the cluster.
    """
    n_bnd = len(mesh.boundary_nodes(Bnd.GAMMA_D))
    return deflated_dirichlet_solve(mesh, lambda_star, cluster,
                                    np.ones(n_bnd, dtype=complex))


def psi_d_flux_total(mesh: Mesh, psi_d: ScalarField, ksq: complex) -> complex:
    """Total dopant flux via the volume identity total = -k^2 int(psi_d)."""
    return -ksq * complex(integrate(psi_d))
