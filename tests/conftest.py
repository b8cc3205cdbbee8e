import os

# One BLAS thread, as perfbench runs: OpenBLAS's threads slow the sparse direct
# solves.  Set before numpy is first imported, or it has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from enzlab import fem
from enzlab.auxiliary import PhysicsConfig, solve_auxiliary_set
from enzlab.correctors import CorrectorEngine
from enzlab.geometry import (Circle, DomainSpec, SourceDisk, SourceRing,
                             SourceSpec, build_mesh)

CANONICAL_SPEC = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                            dopant=Circle((0.0, 0.0), 0.3),
                            truncation_radius=4.0, pml_thickness=1.0)

GENERIC_SPEC = DomainSpec(outer=Circle((0.0, 0.0), 1.0),
                          dopant=Circle((0.3, 0.0), 0.2),
                          truncation_radius=4.0, pml_thickness=1.0)

RING_SOURCE = SourceSpec((SourceRing(2.3, 2.7, 1.0 + 0.0j),))
DISK_SOURCE = SourceSpec((SourceDisk((2.5, 0.0), 0.2, 1.0 + 0.0j),))


@pytest.fixture(scope="session")
def mesh_coarse():
    """Canonical concentric mesh at h = 0.1 (fast structural tests)."""
    return build_mesh(CANONICAL_SPEC, 0.1)


@pytest.fixture(scope="session")
def mesh_fine():
    """Canonical concentric mesh at h = 0.05 (accuracy tests)."""
    return build_mesh(CANONICAL_SPEC, 0.05)


@pytest.fixture(scope="session")
def cfg_ring():
    return PhysicsConfig(omega=1.0, mu=1.0 + 0.0j, delta=1e-2 + 0.0j,
                         sources=RING_SOURCE)


@pytest.fixture(scope="session")
def aux_coarse(mesh_coarse, cfg_ring):
    return solve_auxiliary_set(mesh_coarse, cfg_ring)


@pytest.fixture(scope="session")
def engine_coarse(mesh_coarse, cfg_ring, aux_coarse):
    return CorrectorEngine(mesh_coarse, cfg_ring, aux=aux_coarse)


@pytest.fixture(scope="session")
def hier8(engine_coarse):
    return engine_coarse.build_hierarchy(8)


@pytest.fixture()
def factored(monkeypatch):
    """``(size, dtype)`` of each matrix that ``fem.factor`` is handed from now on, in order."""
    seen = []
    factor = fem.factor
    monkeypatch.setattr(fem, "factor", lambda A: seen.append((A.shape[0], A.dtype)) or factor(A))
    return seen
