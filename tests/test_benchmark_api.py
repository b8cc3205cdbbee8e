"""The benchmark's traced compositions still agree with the public functions.

``perfbench/workloads.py`` rebuilds ``solve_transmission``,
``CorrectorEngine.step`` and ``solve_auxiliary_set`` from enzlab's public
parts so that it can time them.  Each workload's ``trace_divergence`` checks
its copy against the original; running it here at a coarse mesh makes a
change that breaks one of those copies fail the test suite.  The
``delta_sweep`` output check runs here too, so a change to the norms that
moves an expansion error out of its band fails the suite, not only the
benchmark's ``ok_frac``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from enzlab import build_mesh, solve_auxiliary_set
from enzlab.geometry import Bnd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


# what each workload's trace_divergence reads besides its prepared state
STARTS = {
    "delta_sweep": lambda w, state: w.delta(0),
    "corrector_series": lambda w, state: w.begin_chunk(state, 0),
    "aux_refine": lambda w, state: w.case(0),
}


@pytest.mark.parametrize("name", list(STARTS))
def test_traced_composition_matches_public_function(name):
    w = workloads.WORKLOADS[name](seed=1, h=0.1)
    state = w.prepare(None)
    STARTS[name](w, state)
    assert w.trace_divergence(state) <= 1e-9


def test_delta_sweep_ops_pass_their_output_check():
    w = workloads.DeltaSweep(seed=1, h=0.1)
    state = w.prepare(None)
    reasons = []
    for c in range(2):
        ops = range(c * w.chunk, (c + 1) * w.chunk)
        reasons += w.check_chunk(state, [w.op(state, i, None) for i in ops])
    assert reasons == [None] * 2 * w.chunk


def _exterior_lu(aux):
    """The kind, size and precision of the exterior's LU."""
    (block,) = aux.ext_system._blocks.values()
    return type(block).__name__, block.lu.shape[0], block.lu.L.dtype


def test_traced_auxiliary_set_factors_the_exterior_as_the_product_does():
    # the traced copy times the exterior LU that solve_auxiliary_set builds:
    # the folded block, a quarter of the free nodes, in double
    traced = workloads._traced_aux_set(build_mesh(workloads.CANONICAL, 0.2), workloads.CFG,
                                       workloads._UNTRACED)
    product = solve_auxiliary_set(build_mesh(workloads.CANONICAL, 0.2), workloads.CFG)
    n_free = len(product.ext_system.held_block([Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF]).rows)
    assert _exterior_lu(traced) == _exterior_lu(product) == ("FoldedBlock", n_free // 4,
                                                             np.complex128)
