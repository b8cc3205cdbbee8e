import json
import subprocess
import sys
from pathlib import Path

import pytest

from enzlab.cli import main
from enzlab.config import parse_config
from enzlab.errors import ParseError, ValidationError
from enzlab.fem import dirichlet_eigs
from enzlab.oracle import j0_zero

CANONICAL_CFG = """
[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3
truncation_radius = 4
pml_thickness = 1
h = 0.2

[physics]
omega = 1
mu = 1,0
delta = 0.01,0
sources = ring 2.3 2.7 1,0

[run]
order = 2
rho_iters = 12
seed = 0
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "canonical.cfg"
    path.write_text(CANONICAL_CFG)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "min.cfg"
    path.write_text("""
[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3

[physics]
k = 1,0
sources = disk 2.5 0 0.2 1,0

[run]
""")
    spec, cfg, opts = parse_config(path)
    import math
    # 4x circumradius of physical exterior plus a one-wavelength collar
    assert spec.truncation_radius == pytest.approx(4.0 + 2 * math.pi)
    assert spec.pml_thickness == pytest.approx(2 * math.pi)
    assert opts.h == pytest.approx(2 * math.pi / 20.0)
    assert opts.order == 2 and opts.rho_iters == 30
    assert cfg.k == pytest.approx(1.0)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[domain]\nouter = circle 0 0 1\ndopant circle\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "line 3" in str(err.value)


def test_negative_real_wavenumber_rejected(tmp_path):
    path = tmp_path / "badk.cfg"
    path.write_text("""
[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3
[physics]
k = -1,0
[run]
""")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_delta_zero_direct_run_rejected(tmp_path):
    path = tmp_path / "d0.cfg"
    path.write_text("""
[domain]
outer = circle 0 0 1
dopant = circle 0 0 0.3
h = 0.2
[physics]
omega = 1
delta = 0,0
sources = ring 2.3 2.7 1,0
[run]
""")
    code = main(["direct", str(path), "--out", str(path.parent / "out")])
    assert code == 4   # VALIDATION_ERROR


def _exit_code(tmp_path, cfg_text, sub="aux"):
    path = tmp_path / "case.cfg"
    path.write_text(cfg_text)
    return main([sub, str(path), "--out", str(tmp_path / "out")])


def test_malformed_config_exits_3(tmp_path):
    text = CANONICAL_CFG.replace("dopant = circle", "dopant circle")
    assert _exit_code(tmp_path, text) == 3   # PARSE_ERROR


def test_dopant_leaving_scatterer_exits_5(tmp_path):
    text = CANONICAL_CFG.replace("dopant = circle 0 0 0.3", "dopant = circle 0.8 0 0.3")
    assert _exit_code(tmp_path, text) == 5   # GEOMETRY_INVALID


def test_mesh_size_at_half_gap_exits_6(tmp_path):
    text = CANONICAL_CFG.replace("h = 0.2", "h = 0.35")   # gap is 0.7
    assert _exit_code(tmp_path, text) == 6   # MESH_FAILURE


def test_resonant_dopant_exits_12(tmp_path, mesh_coarse):
    # mesh_coarse is the mesh this config builds; mu = its dopant eigenvalue
    lam = dirichlet_eigs(mesh_coarse, 1, target=(j0_zero(1) / 0.3) ** 2)[0][0]
    text = CANONICAL_CFG.replace("h = 0.2", "h = 0.1").replace("mu = 1,0", f"mu = {lam!r},0")
    assert _exit_code(tmp_path, text) == 12   # RESONANT_DOPANT


def test_unknown_subcommand_exits_2(cfg_file):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command", str(cfg_file)])
    assert err.value.code == 2


def test_aux_run_writes_finite_row(cfg_file, tmp_path):
    out = tmp_path / "out_aux"
    assert main(["aux", str(cfg_file), "--out", str(out)]) == 0
    lines = (out / "aux.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:4] == ["k_re", "k_im", "delta_re", "delta_im"]
    vals = [float(v) for v in lines[1].split(",")]
    assert all(abs(v) < 1e6 for v in vals)
    beta = complex(vals[4], vals[5])
    assert abs(beta) > 0.1
    assert (out / "manifest.json").exists()


def test_rerun_is_byte_identical(cfg_file, tmp_path):
    outs = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert main(["aux", str(cfg_file), "--out", str(out)]) == 0
        assert main(["expand", str(cfg_file), "--out", str(out),
                     "--order", "1", "--delta", "0.01,0"]) == 0
        outs.append(out)
    for fname in ("aux.csv", "expand_field.csv", "expand_summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_sweep_delta_csv_shape(cfg_file, tmp_path):
    out = tmp_path / "out_sweep"
    code = main(["sweep-delta", str(cfg_file), "--out", str(out),
                 "--deltas", "0.1,0 0.01,0", "--order", "2",
                 "--window", "disk:0,0,3"])
    assert code == 0
    lines = (out / "sweep_delta.csv").read_text().strip().splitlines()
    assert lines[0] == "delta_abs,delta_arg,h1_err_J0,h1_err_J1,h1_err_J2"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    second = [float(v) for v in lines[2].split(",")]
    assert first[2] > second[2]  # larger delta, larger order-0 error


def test_sweep_delta_threads_byte_identical(cfg_file, tmp_path, monkeypatch):
    # the worker threads share one mesh and one corrector engine
    csv = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("ENZ_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert main(["sweep-delta", str(cfg_file), "--out", str(out),
                     "--deltas", "0.1,0 0.01,0"]) == 0
        csv[threads] = (out / "sweep_delta.csv").read_bytes()
    assert csv["1"] == csv["2"]


def test_oracle_check_and_convergence_table(cfg_file, tmp_path):
    out = tmp_path / "out_oracle"
    assert main(["oracle-check", str(cfg_file), "--out", str(out)]) == 0
    lines = (out / "oracle_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "r,u_re,u_im"
    assert len(lines) > 100
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert "beta" in summary and "c_star" in summary


def test_console_entry_point_runs(cfg_file, tmp_path):
    out = tmp_path / "out_cli"
    proc = subprocess.run(
        [sys.executable, "-m", "enzlab.cli", "radius", str(cfg_file),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads((out / "radius.json").read_text())
    assert data["rho_hat"] > 0
