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

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, ResonantDopant, SingularSystem
from .auxiliary import PhysicsConfig, _branch_sqrt, solve_auxiliary_set, solve_s
from .correctors import CorrectorEngine
from .fem import (BoundaryFunctional, Factored, NeumannSystem, ScalarField, _local_boundary,
                  bordered, dirichlet_eigs, eigen_flux, free_load, h1_norm, integrate,
                  mass_matrix, node_order, split_nodes, stiffness_matrix)
from .geometry import Bnd, Mesh, Region

EXCITED = "EXCITED"
NOT_EXCITED = "NOT_EXCITED"
MEAN_THRESHOLD = 1e-6
CLUSTER_REL_TOL = 1e-3


def resonant_cluster(mesh: Mesh, target: float, count: int = 6):
    """Discrete eigenvalue cluster nearest ``target`` on the dopant.

    Returns (lambda_star, [(lambda_j, U_j), ...]) where lambda_star is the
    cluster mean; the cluster collects computed eigenvalues within
    ``CLUSTER_REL_TOL`` (relative) of the nearest one.
    """
    pairs = dirichlet_eigs(mesh, count, target=target)
    lam0 = pairs[0][0]
    cluster = [(l, u) for l, u in pairs if abs(l - lam0) <= CLUSTER_REL_TOL * abs(lam0)]
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
                   flux_s: BoundaryFunctional) -> ScalarField:
    """Limit ENZ corrector: mean-zero Laplace solve with eigenfunction fluxes.

    The dopant-side datum is C-bar lambda* sum_j (int U_j) dU_j/dn, whose
    total flux balances the scatterer-side source flux exactly (discretely,
    by the eigenvalue identity total_flux(U_j) = -lambda_j int U_j).
    """
    lam_star = float(np.mean([l for l, _ in cluster]))
    datum = BoundaryFunctional.zeros(mesh, Bnd.GAMMA_D)
    for (lam_j, u_j), m_j in zip(cluster, means):
        datum = datum + (c_bar * lam_star * m_j) * eigen_flux(mesh, lam_j, u_j)
    neumann = NeumannSystem(mesh, Region.ENZ)
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
    records: list
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
    if len({complex(g) for g in gammas}) < len(gammas):
        raise ValueError("detuning sweep needs distinct gamma values")
    lam_star, cluster = resonant_cluster(mesh, target)
    means = eigen_means(mesh, cluster)
    classification = classify_eigenpairs(mesh, cluster)
    if classification != EXCITED:
        raise Degenerate("detuning sweep requires an excited resonance")
    study = ResonanceStudy(lam_star, cluster, means, classification, [])

    # limit objects use the exterior problem exactly at the eigenvalue
    cfg_star = PhysicsConfig.from_k(_branch_sqrt(lam_star), sources=cfg.sources,
                                    radiation=cfg.radiation)
    flux_s_star = solve_s(mesh, cfg_star)[1]   # not the field, which holds the k* exterior LU
    study.flux_s = flux_s_star
    study.c_bar = compute_cbar(lam_star, means, flux_s_star)
    study.phi_hat0 = solve_phi_hat0(mesh, cluster, study.c_bar, means, flux_s_star)

    for gamma in gammas:
        k = _branch_sqrt(lam_star - complex(gamma))
        cfg_g = PhysicsConfig.from_k(k, sources=cfg.sources,
                                     radiation=cfg.radiation)
        try:
            aux = solve_auxiliary_set(mesh, cfg_g, guard=False)
        except SingularSystem as exc:
            raise ResonantDopant(
                f"gamma {gamma} lands on another discrete eigenvalue") from exc
        engine = CorrectorEngine(mesh, cfg_g, aux=aux)
        phi0 = engine.enz_solve(engine.seed_state())   # the leading corrector
        rec = GammaRecord(complex(gamma), k, aux.beta, aux.c_star, aux.mu_eff, phi0)
        rec.phi_gap = h1_norm(phi0 - study.phi_hat0)
        study.records.append(rec)
        del aux, engine   # this k's factorizations, before the next k's are built

    # first-order Richardson on the two smallest detunings
    order = np.argsort([abs(r.gamma) for r in study.records])
    r2, r1 = study.records[order[0]], study.records[order[1]]
    v2, v1 = r2.c_star / r2.gamma, r1.c_star / r1.gamma
    g2, g1 = r2.gamma, r1.gamma
    study.c_bar_extrapolated = (g1 * v2 - g2 * v1) / (g1 - g2)
    return study


# ---------------------------------------------------------------------------
# deflated solves for the un-excited (mean-zero) resonance


def deflated_dirichlet_solve(mesh: Mesh, lambda_star: float, cluster,
                             trace: np.ndarray,
                             volume: np.ndarray | None = None) -> ScalarField:
    """Dopant Helmholtz solve at the eigenvalue with near-kernel deflation.

    Projects the cluster eigenvectors out of the residual via a bordered
    system, returning the solution component mass-orthogonal to the cluster.
    Any multiple of a cluster eigenfunction may be added to the result and it
    still satisfies the same equation and trace.  Raises SINGULAR_SYSTEM when
    the bordered system breaks down or its solve breaks the backward-error
    contract of :meth:`enzlab.fem.Factored.solve`.
    """
    M = mass_matrix(mesh, Region.DOPANT)
    A = (stiffness_matrix(mesh, Region.DOPANT) - lambda_star * M).tocsc()
    free, fixed = split_nodes(mesh, Region.DOPANT, [Bnd.GAMMA_D])
    B = np.column_stack([M @ u.values for _, u in cluster])
    vals = np.zeros(A.shape[0], dtype=complex)
    vals[_local_boundary(mesh, Region.DOPANT, Bnd.GAMMA_D)] = trace
    rhs = free_load(A, np.zeros(len(vals)) if volume is None else volume, free, fixed, vals)
    # the bordered whole operator, factored on its free rows and the border's
    order = np.concatenate([free[node_order(mesh, Region.DOPANT, [Bnd.GAMMA_D])],
                            len(vals) + np.arange(B.shape[1])])
    x = Factored(bordered(A, B), order).solve(np.concatenate([rhs, np.zeros(B.shape[1])]))
    vals[free] = x[:len(free)]
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
