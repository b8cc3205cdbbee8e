"""Finite element auxiliary fields versus the radial oracle.

Three auxiliary solves generate every limit object: the source field s
(zero trace on the scatterer), the exterior lifting field psi_e (unit trace,
radiating), and the dopant lifting field psi_d (unit trace on the rod).
Their fluxes combine into the balance constant beta, the coupling constant
c*, and the effective permeability.  This script cross-checks all of them
against the oracle and prints the dissipation certificate Im(k conj(beta)),
which must be strictly negative.
"""

import dataclasses

import numpy as np

from enzlab import (Circle, DomainSpec, PhysicsConfig, RadialLayers,
                    SourceRing, SourceSpec, axisym_solution, build_mesh,
                    rellich_residual, solve_auxiliary_set)

spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 0.3),
                  truncation_radius=4.0, pml_thickness=1.0)
cfg = PhysicsConfig(omega=1.0, mu=1.0, delta=1e-2,
                    sources=SourceSpec((SourceRing(2.3, 2.7, 1.0),)))

ref = axisym_solution(RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=1e-2,
                                   source_r1=2.3, source_r2=2.7, amplitude=1.0),
                      k=1.0).scalars

print(f"{'h':>6} {'beta rel err':>14} {'c* rel err':>12} {'mueff rel err':>14} "
      f"{'Im(k conj b)':>13} {'radiation defect':>17}")
for h in (0.2, 0.1, 0.05):
    mesh = build_mesh(spec, h)
    aux = solve_auxiliary_set(mesh, cfg)
    rel = lambda a, b: abs(a - b) / abs(b)
    rr = rellich_residual(mesh, cfg, aux.psi_e, aux.flux_psi_e)
    lhs = abs(2 * (cfg.k * np.vdot(aux.flux_psi_e.values,
                                   aux.psi_e.trace(list(mesh.boundary_edges)[1]))).imag)
    print(f"{h:6.3f} {rel(aux.beta, ref['beta']):14.2e} "
          f"{rel(aux.c_star, ref['c_star']):12.2e} "
          f"{rel(aux.mu_eff, ref['mu_eff']):14.2e} "
          f"{aux.im_k_beta_conj:+13.4f} {rr / lhs:17.3f}")

print("\nthe constants are independent of the source; only s and c* react:")
aux2 = solve_auxiliary_set(build_mesh(spec, 0.1), dataclasses.replace(
    cfg, sources=SourceSpec((SourceRing(2.3, 2.7, 2.0),))))
aux1 = solve_auxiliary_set(build_mesh(spec, 0.1), cfg)
print(f"  beta identical: {aux1.beta == aux2.beta}")
print(f"  c* doubled:     {abs(aux2.c_star / aux1.c_star - 2) < 1e-12}")
