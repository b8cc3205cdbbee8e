"""Corrector hierarchy and Neumann series of the small-permittivity expansion.

The expansion is generated by one linear iteration map acting on triples
(mean-zero ENZ field, scatterer-boundary flux, dopant-boundary flux):

1. solve the mean-zero Poisson problem on the ENZ annulus whose constant
   right-hand side and flux data are shifted by the balance functional so the
   problem is solvable by construction,
2. lift the resulting interface traces to the exterior (radiating) and the
   dopant (interior Helmholtz),
3. extract the variational fluxes of the lifted fields.

Iterating from the seed (0, flux of the source field, 0) produces the
corrector sequences whose delta-weighted sums reconstruct the transmission
solution on the same mesh, exactly in the discrete algebra.  Because every
operator is cached behind an LU factorization, one iteration costs three
triangular solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentSeries, NoConvergence, ValidationError
from .auxiliary import (AuxiliarySet, PhysicsConfig, exterior_system, solve_auxiliary_set,
                        solve_exterior, stepping_lu)
from .fem import (BACKWARD_RTOL, BoundaryFunctional, NeumannSystem, ScalarField,
                  flux_extract, h1_norm, solve)
from .geometry import Bnd, Mesh, Region

# Largest standard deviation of the power iteration's tail log-ratios for
# which the radius estimate is accepted.
RADIUS_SPREAD_TOL = 0.25


def flux_average(h_e: BoundaryFunctional, h_d: BoundaryFunctional,
                 beta: complex) -> complex:
    """Balance functional: -(total(h_e) - total(h_d)) / beta.

    This is the unique constant shift that makes the annulus Neumann problem
    with data (h_e, h_d) solvable.
    """
    return -(h_e.total() - h_d.total()) / beta


@dataclass
class IterState:
    """State triple moved by the iteration map."""

    g: ScalarField                # mean-zero field on the ENZ annulus
    h_e: BoundaryFunctional       # flux on the scatterer boundary
    h_d: BoundaryFunctional       # flux on the dopant boundary

    def __post_init__(self):
        if self.h_e.tag != Bnd.GAMMA_OMEGA or self.h_d.tag != Bnd.GAMMA_D:
            raise ValueError("state fluxes must live on the two interfaces")

    def __add__(self, other: "IterState") -> "IterState":
        return IterState(self.g + other.g, self.h_e + other.h_e, self.h_d + other.h_d)

    def __sub__(self, other: "IterState") -> "IterState":
        return IterState(self.g - other.g, self.h_e - other.h_e, self.h_d - other.h_d)

    def __mul__(self, alpha) -> "IterState":
        return IterState(self.g * alpha, self.h_e * alpha, self.h_d * alpha)

    __rmul__ = __mul__


@dataclass
class CorrectorHierarchy:
    """Corrector sequences through order J plus growth diagnostics.

    ``e[j]``, ``phi[j]``, ``lam[j]``, ``chi[j]`` are the order-j corrections;
    the order -1 members are the coupling constant and the auxiliary fields
    themselves.
    """

    order: int
    c_star: complex
    e: np.ndarray                  # e_0 .. e_J
    phi: list                      # ENZ fields
    lam: list                      # exterior fields
    chi: list                      # dopant fields
    flux_lam: list                 # canonical fluxes of lam on the scatterer
    flux_chi: list                 # canonical fluxes of chi on the dopant
    state_norms: list              # norms of the iterated states

    def c_delta(self, delta: complex, order: int | None = None) -> complex:
        """Compensated sum  c* + sum_{j<=order} delta^(j+1) e_j.

        ``order=-1`` returns the bare coupling constant.
        """
        j_max = self.order if order is None else min(order, self.order)
        total = complex(self.c_star)
        comp = 0.0 + 0.0j
        d_pow = 1.0 + 0.0j
        for j in range(j_max + 1):
            d_pow *= delta
            term = d_pow * self.e[j] - comp
            new_total = total + term
            comp = (new_total - total) - term
            total = new_total
        return total

    def growth_ratios(self) -> np.ndarray:
        ns = np.asarray(self.state_norms)
        return ns[1:] / ns[:-1]


class CorrectorEngine:
    """Builds and iterates the corrector hierarchy on one (mesh, config).

    Every step lifts a trace off the exterior's one LU, so the engine asks for
    a full one (:func:`enzlab.auxiliary.stepping_lu`): built without ``aux``,
    before it builds its auxiliary set, and before each lift.  A folded block
    that an auxiliary-only run left on the same mesh and k, or that
    :func:`solve_auxiliary_set` factored for the ``aux`` it was handed, is then
    replaced once: at construction, or at the first lift.  An engine that never
    lifts, as in the resonance sweep, never pays for that full LU.
    """

    def __init__(self, mesh: Mesh, cfg: PhysicsConfig, aux: AuxiliarySet | None = None):
        self.mesh = mesh
        self.cfg = cfg
        if aux is None:
            stepping_lu(exterior_system(mesh, cfg))
            aux = solve_auxiliary_set(mesh, cfg)
        self.aux = aux
        self.ext_system = self.aux.ext_system
        self.dop_system = self.aux.dop_system
        self.neumann = NeumannSystem(mesh, Region.ENZ)
        self._dual_w = {
            Bnd.GAMMA_OMEGA: mesh.boundary_lumped_lengths(Bnd.GAMMA_OMEGA),
            Bnd.GAMMA_D: mesh.boundary_lumped_lengths(Bnd.GAMMA_D),
        }

    # -- elementary operators ------------------------------------------------

    def average(self, h_e: BoundaryFunctional, h_d: BoundaryFunctional) -> complex:
        return flux_average(h_e, h_d, self.aux.beta)

    def zero_state(self) -> IterState:
        return IterState(ScalarField.zeros(self.mesh, Region.ENZ),
                         BoundaryFunctional.zeros(self.mesh, Bnd.GAMMA_OMEGA),
                         BoundaryFunctional.zeros(self.mesh, Bnd.GAMMA_D))

    def seed_state(self) -> IterState:
        """(0, flux of the source field, 0): the expansion generator."""
        z = self.zero_state()
        return IterState(z.g, self.aux.flux_s, z.h_d)

    def enz_solve(self, state: IterState) -> ScalarField:
        """Mean-zero annulus solve with balance-shifted data."""
        k2 = self.cfg.k ** 2
        avg = self.average(state.h_e, state.h_d)
        vol = k2 * (avg * self.neumann.m_vec + self.neumann.M @ state.g.values)
        h_e = avg * self.aux.flux_psi_e + state.h_e
        h_d = avg * self.aux.flux_psi_d + state.h_d
        return self.neumann.solve(vol, {Bnd.GAMMA_OMEGA: h_e, Bnd.GAMMA_D: h_d})

    def lift(self, trace_e: np.ndarray, trace_d: np.ndarray):
        """Radiating exterior and interior dopant solves from interface traces."""
        rhs_e = np.zeros(len(self.ext_system.nodes), dtype=complex)
        lam = solve_exterior(stepping_lu(self.ext_system), self.cfg, rhs_e, trace_e)
        rhs_d = np.zeros(len(self.dop_system.nodes), dtype=complex)
        chi = solve(self.dop_system, rhs_d, {Bnd.GAMMA_D: trace_d})
        return lam, chi

    def step(self, state: IterState, keep_fields: bool = False):
        """One application of the iteration map."""
        phi = self.enz_solve(state)
        lam, chi = self.lift(phi.trace(Bnd.GAMMA_OMEGA), phi.trace(Bnd.GAMMA_D))
        h_e = flux_extract(lam, self.ext_system, Bnd.GAMMA_OMEGA, orientation="canonical")
        h_d = flux_extract(chi, self.dop_system, Bnd.GAMMA_D, orientation="canonical")
        new = IterState(phi, h_e, h_d)
        if keep_fields:
            return new, lam, chi
        return new

    def state_norm(self, state: IterState) -> float:
        """Composite norm: H1 on the field, lumped-dual norm on the fluxes."""
        g2 = h1_norm(state.g) ** 2 if len(state.g.values) else 0.0
        he2 = float(np.sum(np.abs(state.h_e.values) ** 2 / self._dual_w[Bnd.GAMMA_OMEGA]))
        hd2 = float(np.sum(np.abs(state.h_d.values) ** 2 / self._dual_w[Bnd.GAMMA_D]))
        return math.sqrt(g2 + he2 + hd2)

    # -- hierarchy -----------------------------------------------------------

    def build_hierarchy(self, order: int) -> CorrectorHierarchy:
        """Corrector sequences e_j, phi_j, lam_j, chi_j for j = 0..order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        e = np.zeros(order + 1, dtype=complex)
        phi, lam, chi, f_lam, f_chi, norms = [], [], [], [], [], []
        cur = self.seed_state()
        for j in range(order + 1):
            nxt, lam_j, chi_j = self.step(cur, keep_fields=True)
            phi.append(nxt.g)
            lam.append(lam_j)
            chi.append(chi_j)
            f_lam.append(nxt.h_e)
            f_chi.append(nxt.h_d)
            e[j] = self.average(nxt.h_e, nxt.h_d)
            norms.append(self.state_norm(nxt))
            cur = nxt
        return CorrectorHierarchy(order, self.aux.c_star, e, phi, lam, chi,
                                  f_lam, f_chi, norms)

    def estimate_radius(self, iters: int = 30, seed: int = 0) -> float:
        """Spectral radius of the iteration map by power iteration.

        Returns ``rho_hat``; 1/rho_hat is the empirical convergence radius of
        the expansion.  Raises NO_CONVERGENCE when the standard deviation of
        the tail log-ratios exceeds ``RADIUS_SPREAD_TOL``.
        """
        if iters < 10:
            raise ValueError("iters must be >= 10")
        rng = np.random.default_rng(seed)

        def cplx(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        g = ScalarField(self.mesh, Region.ENZ, cplx(len(self.neumann.nodes)))
        g = g - ScalarField(self.mesh, Region.ENZ,
                            np.full(len(self.neumann.nodes),
                                    np.dot(self.neumann.m_vec, g.values) / self.neumann.area))
        st = IterState(g,
                       BoundaryFunctional(self.mesh, Bnd.GAMMA_OMEGA,
                                          cplx(len(self._dual_w[Bnd.GAMMA_OMEGA]))),
                       BoundaryFunctional(self.mesh, Bnd.GAMMA_D,
                                          cplx(len(self._dual_w[Bnd.GAMMA_D]))))
        st = st * (1.0 / self.state_norm(st))
        log_ratios = []
        for _ in range(iters):
            st = self.step(st)
            r = self.state_norm(st)
            log_ratios.append(math.log(r))
            st = st * (1.0 / r)
        tail = np.asarray(log_ratios[len(log_ratios) // 2:])
        if tail.std() > RADIUS_SPREAD_TOL:
            raise NoConvergence(
                f"power-iteration ratios oscillate (std {tail.std():.3f})")
        return float(np.exp(tail.mean()))

    # -- expansion assembly ----------------------------------------------------

    def assemble_expansion(self, hier: CorrectorHierarchy, delta: complex,
                           order: int | None = None) -> ScalarField:
        """Glue the three regional sums into one global nodal field.

        ``order`` is the highest kept power of delta: order 0 is the pure
        limit profile (constant in the annulus), order 1 adds the first
        corrector, and so on.  An explicit truncation order is allowed for any
        delta.  ``order=None`` sums the whole hierarchy and certifies the sum:
        its :meth:`resolvent_residual` must be at most ``BACKWARD_RTOL``, the
        bound every linear solve meets, or DIVERGENT_SERIES is raised.
        """
        if order is None:
            defect = self.resolvent_residual(hier, delta)
            if not defect <= BACKWARD_RTOL:   # NaN fails too
                raise DivergentSeries(
                    f"resolvent defect {defect:.2e} > {BACKWARD_RTOL:.0e}: the series "
                    f"diverges or has not converged by order J = {hier.order}")
            order = hier.order + 1
        if order > hier.order + 1:
            raise ValueError(f"order {order} beyond hierarchy depth {hier.order}")
        j_inner = order - 1   # corrector fields enter at delta^(j+1)

        def summed(fields):
            acc = np.zeros(len(fields[0].values), dtype=complex)
            d_pow = 1.0 + 0.0j
            for j in range(j_inner + 1):
                acc += d_pow * fields[j].values
                d_pow *= delta
            return acc

        with np.errstate(over="ignore", invalid="ignore"):   # a sum that overflows raises below
            c_d = hier.c_delta(delta, j_inner)
            # each block lives on its own system's nodes; on the shared interface
            # nodes the later block wins: exterior, then ENZ, then dopant
            blocks = [
                (self.ext_system.nodes, c_d * self.aux.psi_e.values + self.aux.s.values
                 + delta * summed(hier.lam)),
                (self.neumann.nodes, c_d + delta * summed(hier.phi)),
                (self.dop_system.nodes, c_d * self.aux.psi_d.values + delta * summed(hier.chi)),
            ]
        regions = self.ext_system.regions | self.neumann.regions | self.dop_system.regions
        pos = self.mesh.region_pos(regions)
        out = np.zeros(len(self.mesh.region_nodes(regions)), dtype=complex)
        for nodes, vals in blocks:
            out[pos[nodes]] = vals
        if not np.isfinite(out).all():   # c_d enters every ENZ value
            raise ValidationError(f"the expansion at delta = {complex(delta)} truncated at "
                                  f"order {order} is not finite")
        return ScalarField(self.mesh, regions, out)

    def resolvent_residual(self, hier: CorrectorHierarchy, delta: complex) -> float:
        """Relative defect ||x - delta T x - seed|| / ||seed|| of the summed state.

        x = seed + sum_j delta^(j+1) T^(j+1) seed solves (I - delta T) x = seed
        once the series has converged; the check costs one ``step``.
        """
        seed = self.seed_state()
        x = seed
        d_pow = 1.0 + 0.0j
        for phi, f_lam, f_chi in zip(hier.phi, hier.flux_lam, hier.flux_chi):
            d_pow *= delta
            x = x + d_pow * IterState(phi, f_lam, f_chi)
        defect = self.state_norm(x - delta * self.step(x) - seed)
        return defect / self.state_norm(seed) if defect else 0.0
