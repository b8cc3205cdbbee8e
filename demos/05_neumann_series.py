"""Summing the whole corrector series and estimating its convergence radius.

Inside the convergence disk the full Neumann series reproduces the direct
solve on the shared mesh to solver precision, and applying one step of
(identity - delta * iteration map) to the summed state returns the seed.
The empirical radius comes from power iteration on the iteration map; the
observed divergence onset of the partial sums brackets its inverse.
"""

import dataclasses

import numpy as np

from enzlab import (Circle, CorrectorEngine, DomainSpec, PhysicsConfig,
                    SourceRing, SourceSpec, build_mesh, compare_fields,
                    solve_transmission)
from enzlab.direct import PHYSICAL_REGIONS
from enzlab.fem import h1_norm

spec = DomainSpec(outer=Circle((0.0, 0.0), 1.0), dopant=Circle((0.0, 0.0), 0.3),
                  truncation_radius=4.0, pml_thickness=1.0)
cfg = PhysicsConfig(omega=1.0, mu=1.0, delta=1e-2,
                    sources=SourceSpec((SourceRing(2.3, 2.7, 1.0),)))
mesh = build_mesh(spec, 0.1)
engine = CorrectorEngine(mesh, cfg)

rho = engine.estimate_radius(iters=30, seed=0)
print(f"spectral radius of the iteration map: rho = {rho:.4f}")
print(f"empirical convergence radius:        1/rho = {1 / rho:.4f}")

hier = engine.build_hierarchy(40)
delta = 0.3 / rho
u = solve_transmission(mesh, dataclasses.replace(cfg, delta=delta))
v = engine.assemble_expansion(hier, delta, order=None)
print(f"\nfull 40-term sum at |delta| rho = 0.3:")
gap = compare_fields(u, v).h1_error / h1_norm(u, PHYSICAL_REGIONS & u.regions)
print(f"  relative H1 gap to the direct solve: {gap:.2e}")
print(f"  resolvent identity defect:           {engine.resolvent_residual(hier, delta):.2e}")

print("\npartial-sum tail ratios around the convergence boundary:")
norms = np.asarray(hier.state_norms)
for fac in (0.5, 0.9, 1.1, 2.0):
    d = fac / rho
    ratios = norms[1:] / norms[:-1] * d
    tail = float(np.exp(np.mean(np.log(ratios[-3:]))))
    verdict = "converges" if tail < 1 else "diverges"
    print(f"  |delta| = {fac:.1f}/rho: tail ratio {tail:.3f} -> {verdict}")
