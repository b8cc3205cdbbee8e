"""Helmholtz transmission solver and small-permittivity expansion toolkit.

The package studies 2D time-harmonic scattering off a scatterer whose shell
is filled with an epsilon-near-zero (ENZ) material and doped with a
dielectric rod: a region-tagged mesher, a complex-coefficient P1 finite
element core with an absorbing collar, the auxiliary fields and scalar
constants of the small-|epsilon| limit, a corrector hierarchy whose Neumann
series reconstructs the transmission solve on the same mesh, a semi-analytic
radial oracle for concentric geometry, resonant-dopant limits, and Poynting
post-processing.
"""

from .errors import EnzLabError
from .geometry import (Bnd, Circle, DomainSpec, Mesh, Polygon, Region,
                       SourceDisk, SourceRing, SourceSpec, build_mesh,
                       load_mesh, region_measures, save_mesh,
                       structured_rectangle_mesh)
from .fem import (BoundaryFunctional, NeumannSystem, RadiationSpec,
                  ScalarField, assemble, dirichlet_eigs, flux_extract,
                  h1_norm, h1_seminorm, l2_norm, recovered_boundary_flux,
                  solve)
from .auxiliary import (AuxiliarySet, PhysicsConfig, compute_beta,
                        compute_cstar, compute_mueff, rellich_residual,
                        solve_auxiliary_set, solve_psi_d, solve_psi_e, solve_s)
from .correctors import (CorrectorEngine, CorrectorHierarchy, IterState,
                         flux_average)
from .direct import (Comparison, compare_fields, enz_absorption,
                     solve_transmission)
from .oracle import (RadialLayers, RadialSolution, axisym_solution, bessel,
                     j0_zero, j1_zero)
from .resonance import (ResonanceStudy, classify_eigenpairs, compute_cbar,
                        deflated_psi_d, gamma_sweep, resonant_cluster,
                        solve_phi_hat0)
from .fields import (PiecewiseVectorField, compute_poynting,
                     ideal_fluid_residuals, poynting_gap, poynting_limit)

__version__ = "0.1.0"
