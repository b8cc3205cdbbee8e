"""Every demo runs to the end, each in its own process.

``01_mesh_regions`` round-trips a mesh through ``save_mesh``/``load_mesh``,
``02_radial_oracle`` evaluates the closed-form oracle, and the rest reach an
exterior solve.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_mesh_regions", "02_radial_oracle",
                                  "03_auxiliary_constants", "04_expansion_orders",
                                  "05_neumann_series", "06_poynting_flow", "07_resonant_dopant",
                                  "08_cli_workflow"])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
