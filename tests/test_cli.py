import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enzlab.cli import _write_csv, main
from enzlab.auxiliary import PhysicsConfig
from enzlab.config import RunOptions, parse_config
from enzlab.direct import solve_transmission
from enzlab.errors import EnzLabError, ParseError, ValidationError
from enzlab.fem import dirichlet_eigs
from enzlab.fields import compute_poynting
from enzlab.geometry import Bnd, Region, build_mesh
from enzlab.oracle import RadialLayers, axisym_solution, j0_zero

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
    # 4x circumradius of physical exterior plus a one-wavelength collar
    assert spec.truncation_radius == pytest.approx(4.0 + 2 * math.pi)
    assert spec.pml_thickness == pytest.approx(2 * math.pi)
    assert opts.h == pytest.approx(2 * math.pi / 20.0)
    assert opts.order == 2 and opts.rho_iters == 30
    assert cfg.k == pytest.approx(1.0)
    # every other value is its dataclass field's default
    assert opts == RunOptions(h=opts.h)
    assert cfg == PhysicsConfig.from_k(1.0, sources=cfg.sources)


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


def test_delta_zero_poynting_run_rejected(tmp_path):
    text = CANONICAL_CFG.replace("delta = 0.01,0", "delta = 0,0")
    assert _exit_code(tmp_path, text, sub="poynting") == 4   # VALIDATION_ERROR


def _exit_code(tmp_path, cfg_text, sub="aux"):
    path = tmp_path / "case.cfg"
    path.write_text(cfg_text)
    return main([sub, str(path), "--out", str(tmp_path / "out")])


def test_malformed_config_exits_3(tmp_path):
    text = CANONICAL_CFG.replace("dopant = circle", "dopant circle")
    assert _exit_code(tmp_path, text) == 3   # PARSE_ERROR


def test_malformed_window_key_exits_3(tmp_path):
    text = CANONICAL_CFG.replace("seed = 0", "seed = 0\nwindow = disk 0 0 x")
    assert _exit_code(tmp_path, text) == 3   # PARSE_ERROR


@pytest.mark.parametrize("subcommand, flags, code", [
    ("expand", ["--delta", "abc"], 3),
    ("sweep-delta", ["--deltas", "0.1,x"], 3),
    ("sweep-delta", ["--window", "disk:1,2"], 3),
    ("expand", ["--order", "-1"], 4),
])
def test_flag_values_checked_like_config_keys(cfg_file, tmp_path, subcommand, flags, code):
    assert main([subcommand, str(cfg_file), "--out", str(tmp_path / "o"), *flags]) == code
    assert not (tmp_path / "o").exists()   # a rejected flag leaves no output directory


@pytest.mark.parametrize("value, code", [("abc", 3), ("nan", 4)])   # PARSE_ERROR, VALIDATION_ERROR
def test_pml_sigma0_checked(tmp_path, capsys, value, code):
    text = CANONICAL_CFG.replace("[physics]", f"[physics]\npml_sigma0 = {value}")
    assert _exit_code(tmp_path, text) == code
    if code == 3:
        assert "line 10" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, old, new, flags", [
    ("aux", "h = 0.2", "h = nan", []),
    ("aux", "truncation_radius = 4", "truncation_radius = nan", []),
    ("aux", "pml_thickness = 1", "pml_thickness = nan", []),
    ("aux", "delta = 0.01,0", "delta = inf,0", []),
    ("aux", "mu = 1,0", "mu = nan,0", []),
    ("aux", "ring 2.3 2.7 1,0", "ring 2.3 2.7 nan,0", []),
    ("resonance-sweep", "seed = 0", "seed = 0\nresonance_target = nan", []),
    ("resonance-sweep", "seed = 0", "seed = 0\ngammas = 0.1 nan", []),
    ("sweep-delta", "seed = 0", "seed = 0\ndeltas = 0.1,0\nwindow = disk 0 0 nan", []),
    ("expand", "seed = 0", "seed = 0", ["--delta", "nan,0"]),
])
def test_nonfinite_numbers_exit_4(tmp_path, capsys, subcommand, old, new, flags):
    path = tmp_path / "case.cfg"
    path.write_text(CANONICAL_CFG.replace(old, new))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out"), *flags]) == 4
    err = capsys.readouterr().err
    assert "finite" in err
    assert ("--delta" if flags else "line ") in err


@pytest.mark.parametrize("line", ["pml_order = -1", "pml_order = -3"])
def test_negative_pml_order_exits_4(tmp_path, line):
    text = CANONICAL_CFG.replace("[physics]", f"[physics]\n{line}")
    assert _exit_code(tmp_path, text) == 4   # VALIDATION_ERROR


def test_single_gamma_exits_4(tmp_path):
    text = CANONICAL_CFG.replace("seed = 0", "seed = 0\ngammas = 0.1")
    assert _exit_code(tmp_path, text, sub="resonance-sweep") == 4   # VALIDATION_ERROR


# A [physics] section after [run] replaces the canonical physics keys.
@pytest.mark.parametrize("subcommand, new, flags", [
    ("resonance-sweep", "seed = 0\ngammas = 0.1 0.1 0.5", []),   # was a ZeroDivisionError
    ("radius", "seed = -3", []),                                 # was a ValueError of default_rng
    ("sweep-delta", "seed = 0\ndeltas = 0.1,0\nwindow = disk 0 0 -1", []),   # ran radius 1
    ("sweep-delta", "seed = 0\ndeltas = 0.1,0", ["--window", "disk:0,0,-1"]),
    ("aux", "[physics]\nomega = 1e200", []),             # OverflowError of omega**2
    ("aux", "[physics]\nomega = 1e308", []),
    ("aux", "[physics]\nomega = 0\nk = 1,0", []),        # ZeroDivisionError of k k / omega**2
    ("aux", "[physics]\nomega = 1e-200\nk = 1,0", []),
    ("aux", "[physics]\nomega = 1e200\nk = 1,0", []),    # OverflowError of omega**2
])
def test_values_that_ended_in_a_traceback_exit_4(tmp_path, capsys, subcommand, new, flags):
    path = tmp_path / "case.cfg"
    path.write_text(CANONICAL_CFG.replace("seed = 0", new))
    assert main([subcommand, str(path), "--out", str(tmp_path / "out"), *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error [VALIDATION_ERROR]: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_KEYS = {"domain": ["outer", "dopant", "truncation_radius", "pml_thickness", "h"],
         "physics": ["omega", "mu", "k", "delta", "sources", "radiation", "pml_sigma0",
                     "pml_order"],
         "run": ["order", "rho_iters", "seed", "deltas", "window", "gammas",
                 "resonance_target"]}
_EDGE_VALUES = ["", "abc", "0", "-1", "1e-200", "1e200", "1e308", "1e400", "nan", "-inf",
                "0,0", "-1,0", "1e308,1e308", "1e-200,0", "0.1 0.1", "circle 0 0 0",
                "circle 0 0 -1", "polygon 0 0 1 0 1 0", "ring 2.7 2.3 1,0",
                "disk 2.5 0 0.2 1e308,0", "disk 0 0 -1", "robin", "auto"]


def test_every_edited_key_parses_or_raises_a_named_error(tmp_path):
    # one key at a time, in a second copy of its section so that it wins
    path = tmp_path / "edit.cfg"
    for section, keys in _KEYS.items():
        for key, value in itertools.product(keys, _EDGE_VALUES):
            path.write_text(f"{CANONICAL_CFG}\n[{section}]\n{key} = {value}\n")
            try:
                parse_config(path)
            except EnzLabError:
                pass
            except Exception as exc:   # anything but a named error is a defect
                pytest.fail(f"{key} = {value!r}: {type(exc).__name__}: {exc}")


@pytest.mark.parametrize("new", [
    "mu = 1e308,0",     # exited 13 BETA_NEAR_ZERO with |beta| = inf
    "omega = 1e154",    # the same k^2 = 1e308
    "k = 1e200,0",      # exited 8 SINGULAR_SYSTEM; k^2 overflows
])
def test_wavenumber_the_mesh_cannot_resolve_exits_4(tmp_path, capsys, new):
    text = CANONICAL_CFG.replace("seed = 0", f"seed = 0\n[physics]\n{new}")
    assert _exit_code(tmp_path, text) == 4
    err = capsys.readouterr().err
    assert err.startswith("error [VALIDATION_ERROR]: ") and err.count("\n") == 1


def test_mesh_needs_two_points_per_wavelength(tmp_path):
    # h = 0.2 resolves |k| up to pi / 0.2, i.e. fewer than two points per wavelength above it
    for k, ok in ((0.999 * math.pi / 0.2, True), (1.001 * math.pi / 0.2, False)):
        path = tmp_path / "k.cfg"
        path.write_text(CANONICAL_CFG.replace("mu = 1,0", f"k = {k!r},0"))
        if ok:
            assert parse_config(path)[1].k == k
        else:
            with pytest.raises(ValidationError, match="two points per wavelength"):
                parse_config(path)


@pytest.mark.parametrize("subcommand, old, new", [
    # the dopant has one interior node: ARPACK raised TypeError (k >= N)
    ("resonance-sweep", "dopant = circle 0 0 0.3", "dopant = circle 0 0 0.05"),
    # about 7.5e9 nodes: refused before the mesh is allocated
    ("aux", "h = 0.2", "h = 1e-4"),
])
def test_mesh_too_small_or_too_large_exits_6(tmp_path, capsys, subcommand, old, new):
    assert _exit_code(tmp_path, CANONICAL_CFG.replace(old, new), sub=subcommand) == 6
    err = capsys.readouterr().err
    assert err.startswith("error [MESH_FAILURE]: ") and err.count("\n") == 1


def test_run_options_check_their_fields():
    opts = RunOptions(h=0.1)
    for kwargs in (dict(h=0.0), dict(h=math.nan), dict(order=-1), dict(rho_iters=9),
                   dict(seed=-1), dict(gammas=(0.1,)), dict(gammas=(0.1, 0.1))):
        with pytest.raises(ValidationError):
            dataclasses.replace(opts, **kwargs)


def test_direct_with_reciprocal_underflow_exits_7(tmp_path):
    # delta is finite, but 1/delta rounds to 0 in the ENZ coefficient
    text = CANONICAL_CFG.replace("delta = 0.01,0", "delta = 1e308,1e308")
    assert _exit_code(tmp_path, text, sub="direct") == 7   # ZERO_COEFFICIENT


@pytest.mark.parametrize("old, new", [
    ("dopant = circle 0 0 0.3", "dopant = circle 0.8 0 0.3"),
    ("dopant = circle 0 0 0.3", "dopant = circle 0 0 0"),     # was a ValueError traceback
    ("dopant = circle 0 0 0.3", "dopant = circle 0 0 -0.3"),  # exited 6, inverted triangles
    ("outer = circle 0 0 1", "outer = circle 0 0 -1"),        # exited 6 the same way
    ("outer = circle 0 0 1", "outer = polygon -1 -1 1 -1 1 -1 1 1 -1 1"),   # repeated vertex
    ("dopant = circle 0 0 0.3",                               # a C shape: exited 6 at h = 0.05
     "dopant = polygon -0.5 -0.5 0.5 -0.5 0.5 -0.3 -0.3 -0.3 -0.3 0.3 0.5 0.3 0.5 0.5 -0.5 0.5"),
], ids=["dopant_leaving_scatterer", "dopant_radius_0", "dopant_radius_negative",
        "outer_radius_negative", "outer_repeated_vertex", "dopant_not_star_shaped"])
def test_bad_geometry_exits_5(tmp_path, capsys, old, new):
    assert _exit_code(tmp_path, CANONICAL_CFG.replace(old, new)) == 5   # GEOMETRY_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error [GEOMETRY_INVALID]: ") and err.count("\n") == 1


def test_folded_band_exits_6_naming_its_regions(tmp_path, capsys):
    # a C-shaped scatterer folds the homotopy band between it and the dopant
    text = (CANONICAL_CFG.replace("h = 0.2", "h = 0.05")
            .replace("outer = circle 0 0 1",
                     "outer = polygon -1 -1 1 -1 1 -0.6 -0.6 -0.6 -0.6 0.6 1 0.6 1 1 -1 1")
            .replace("dopant = circle 0 0 0.3", "dopant = circle -0.8 0 0.1"))
    assert _exit_code(tmp_path, text) == 6   # MESH_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error [MESH_FAILURE]: mesh contains ") and err.count("\n") == 1
    assert "inverted triangles, in ENZ, EXTERIOR" in err   # 9896 of them


def _exterior_sizes(mesh):
    """Unknowns of the interface-last exterior ``B`` and of the exterior Dirichlet block."""
    n_keep = (len(mesh.region_nodes([Region.EXTERIOR, Region.PML]))
              - len(mesh.boundary_nodes(Bnd.GAMMA_INF)))
    return n_keep, n_keep - len(mesh.boundary_nodes(Bnd.GAMMA_OMEGA))


def test_sweep_delta_factors_the_exterior_once(tmp_path, factored):
    text = CANONICAL_CFG.replace("seed = 0", "seed = 0\ndeltas = 0.1,0 0.01,0.01")
    assert _exit_code(tmp_path, text, sub="sweep-delta") == 0
    n_keep, n_block = _exterior_sizes(build_mesh(parse_config(tmp_path / "case.cfg")[0], 0.2))
    sizes = [n for n, _ in factored]
    assert sizes.count(n_keep) == 1    # the interface-last exterior
    assert sizes.count(n_block) == 0   # no exterior Dirichlet block


@pytest.mark.parametrize("sub, flags", [
    ("aux", []), ("expand", []), ("radius", []),
    ("sweep-delta", ["--deltas", "0.1,0"]), ("resonance-sweep", [])])
def test_subcommands_factor_in_double(cfg_file, tmp_path, factored, sub, flags):
    # only convergence-table asks for a single-precision exterior LU; the
    # resonance sweep's Dirichlet eigenpairs factor a real matrix, and keep it real
    text = cfg_file.read_text().replace("seed = 0", "seed = 0\ngammas = 0.1 0.001")
    cfg_file.write_text(text)
    assert main([sub, str(cfg_file), "--out", str(tmp_path / "out"), *flags]) == 0
    dtypes = {d for _, d in factored}
    assert dtypes == ({np.dtype(complex), np.dtype(float)} if sub == "resonance-sweep"
                      else {np.dtype(complex)})


def test_mesh_size_at_half_gap_exits_6(tmp_path):
    text = CANONICAL_CFG.replace("h = 0.2", "h = 0.35")   # gap is 0.7
    assert _exit_code(tmp_path, text) == 6   # MESH_FAILURE


def test_resonant_dopant_exits_12(tmp_path, mesh_coarse):
    # mesh_coarse is the mesh this config builds; mu = its dopant eigenvalue
    lam = dirichlet_eigs(mesh_coarse, 1, target=(j0_zero(1) / 0.3) ** 2)[0][0]
    text = CANONICAL_CFG.replace("h = 0.2", "h = 0.1").replace("mu = 1,0", f"mu = {lam!r},0")
    assert _exit_code(tmp_path, text) == 12   # RESONANT_DOPANT


def test_empty_window_exits_11(tmp_path):
    # the disk lies outside the truncation circle, so it selects no triangle
    text = CANONICAL_CFG.replace("seed = 0", "seed = 0\nwindow = disk 20 20 0.1\ndeltas = 0.1,0")
    assert _exit_code(tmp_path, text, sub="sweep-delta") == 11   # EMPTY_WINDOW


def test_inconsistent_dopant_flux_exits_9(tmp_path, capsys, monkeypatch):
    # the auxiliary set checks mu_eff from the variational dopant flux
    # against mu_eff from the volume integral; make the first miss by 1e-6
    from enzlab import auxiliary
    compute_mueff = auxiliary.compute_mueff

    def off(*args, method="volume", **kwargs):
        val = compute_mueff(*args, method=method, **kwargs)
        return val * (1.0 + 1e-6) if method == "flux" else val

    monkeypatch.setattr(auxiliary, "compute_mueff", off)
    assert _exit_code(tmp_path, CANONICAL_CFG) == 9   # INCOMPATIBLE_DATA
    err = capsys.readouterr().err
    assert err.startswith("error [INCOMPATIBLE_DATA]: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oracle_beyond_bessel_range_exits_16(tmp_path):
    text = CANONICAL_CFG.replace("truncation_radius = 4", "truncation_radius = 400")
    assert _exit_code(tmp_path, text, sub="oracle-check") == 16   # DOMAIN


def test_oracle_ill_conditioned_match_exits_17(tmp_path):
    # the ENZ coefficient 1/delta = 1e14 puts the matching condition near 7e14
    text = CANONICAL_CFG.replace("delta = 0.01,0", "delta = 1e-14,0")
    assert _exit_code(tmp_path, text, sub="oracle-check") == 17   # SINGULAR_MATCH


def test_resonance_sweep_on_zero_mean_pair_exits_18(tmp_path):
    # (j1_zero(1) / 0.3)^2: the dopant's first angular pair, whose means vanish
    text = CANONICAL_CFG.replace("seed = 0", "seed = 0\nresonance_target = 163.13")
    assert _exit_code(tmp_path, text, sub="resonance-sweep") == 18   # DEGENERATE


def test_robin_with_collar_exits_4(tmp_path):
    text = CANONICAL_CFG.replace("[physics]", "[physics]\nradiation = robin")
    assert _exit_code(tmp_path, text) == 4   # VALIDATION_ERROR


def test_pml_without_collar_exits_4(tmp_path, capsys, monkeypatch):
    # ran as a closed cavity: beta = 0.6466 + 0i, Rellich residual 6.65 at h = 0.2
    monkeypatch.setattr("enzlab.cli.build_mesh", None)   # refused before any mesh is built
    text = CANONICAL_CFG.replace("pml_thickness = 1", "pml_thickness = 0")
    assert _exit_code(tmp_path, text) == 4   # VALIDATION_ERROR
    assert capsys.readouterr().err == ("error [VALIDATION_ERROR]: "
                                       "radiation = pml requires pml_thickness > 0\n")


def test_robin_aux_certificate(tmp_path):
    text = (CANONICAL_CFG.replace("pml_thickness = 1", "pml_thickness = 0")
            .replace("h = 0.2", "h = 0.1")
            .replace("[physics]", "[physics]\nradiation = robin"))
    assert _exit_code(tmp_path, text) == 0
    vals = [float(v) for v in (tmp_path / "out" / "aux.csv").read_text().splitlines()[1].split(",")]
    k, beta = complex(vals[0], vals[1]), complex(vals[4], vals[5])
    assert (k * beta.conjugate()).imag < 0
    ref = axisym_solution(RadialLayers(a=0.3, b=1.0, c=4.0, eps_enz=0.01, source_r1=2.3,
                                       source_r2=2.7, amplitude=1.0), k=1.0, mu=1.0)
    assert abs(beta - ref.scalars["beta"]) < 0.02 * abs(ref.scalars["beta"])   # 0.7 % seen


def test_convergence_table_checks_resolution_at_2h(tmp_path, capsys, monkeypatch):
    # k = 15 at h = 0.15: |k| h = 2.25 passes, but the coarsest level is 2h, |k| 2h = 4.5 > pi
    monkeypatch.setattr("enzlab.cli.build_mesh", None)   # refused before any mesh is built
    text = CANONICAL_CFG.replace("h = 0.2", "h = 0.15").replace("mu = 1,0", "mu = 225,0")
    assert _exit_code(tmp_path, text, sub="convergence-table") == 4   # VALIDATION_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [VALIDATION_ERROR]: mesh size 2h = 0.3 ") and err.count("\n") == 1


def test_convergence_table_names_failing_mesh_size(tmp_path, capsys):
    # the table meshes at 2h = 0.4, above half the 0.7 gap
    assert _exit_code(tmp_path, CANONICAL_CFG, sub="convergence-table") == 6
    assert "0.4" in capsys.readouterr().err


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


def test_manifest_records_flag_values(cfg_file, tmp_path):
    out = tmp_path / "out_flags"
    assert main(["expand", str(cfg_file), "--out", str(out),
                 "--order", "1", "--delta", "0.05,0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["physics"]["delta"] == [0.05, 0.0]
    assert manifest["run"]["order"] == 1
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0
    assert main(["sweep-delta", str(cfg_file), "--out", str(out),
                 "--deltas", "0.05,0 0.002,0.001", "--window", "disk:0,0,3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # the config sets no deltas; complex values are [re, im] pairs, as in "physics"
    assert manifest["run"]["deltas"] == [[0.05, 0.0], [0.002, 0.001]]
    assert manifest["run"]["window"] == {"center": [0.0, 0.0], "radius": 3.0}


def test_expand_estimates_no_radius(cfg_file, tmp_path, monkeypatch):
    from enzlab.correctors import CorrectorEngine

    def no_radius(self, *args, **kwargs):
        raise AssertionError("expand must not estimate the radius")

    monkeypatch.setattr(CorrectorEngine, "estimate_radius", no_radius)
    out = tmp_path / "out_expand"
    assert main(["expand", str(cfg_file), "--out", str(out),
                 "--order", "2", "--delta", "0.01,0"]) == 0
    assert "rho_hat" not in json.loads((out / "expand_summary.json").read_text())


def test_sweep_delta_csv_shape(cfg_file, tmp_path):
    out = tmp_path / "out_sweep"
    code = main(["sweep-delta", str(cfg_file), "--out", str(out),
                 "--deltas", "0.1,0 0.01,0", "--window", "disk:0,0,3"])
    assert code == 0
    lines = (out / "sweep_delta.csv").read_text().strip().splitlines()
    assert lines[0] == "delta_abs,delta_arg,h1_err_J0,h1_err_J1,h1_err_J2"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    second = [float(v) for v in lines[2].split(",")]
    assert first[2] > second[2]  # larger delta, larger order-0 error


def _ref_line(ints, floats) -> str:
    """One CSV line as the artifacts are specified: %d integers, then %.12e floats."""
    return ",".join([str(int(v)) for v in ints] + ["{:.12e}".format(float(v)) for v in floats])


def test_csv_writer_format_contract(tmp_path):
    ints = np.array([0, 7, -3, 2**40, 31989, 12, 1])
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-300, 1e308])
    plain = [1.0, -2.5, 0.1, 1 / 3, 6.02214076e23, -1e-7, 2.0]
    path = tmp_path / "table.csv"
    _write_csv(path, ["n", "special", "plain"], [ints, specials, plain])
    expected = ["n,special,plain"] + [_ref_line([i], [a, b])
                                      for i, a, b in zip(ints, specials, plain)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_direct_field_and_poynting_csv_contents(cfg_file, tmp_path):
    out = tmp_path / "out_fields"
    assert main(["direct", str(cfg_file), "--out", str(out)]) == 0
    assert main(["poynting", str(cfg_file), "--out", str(out)]) == 0
    spec, cfg, opts = parse_config(cfg_file)
    mesh = build_mesh(spec, opts.h)
    u = solve_transmission(mesh, cfg)
    field = ["node_index,x,y,re,im"] + [
        _ref_line([n], [*mesh.nodes[n], v.real, v.imag]) for n, v in zip(u.nodes, u.values)]
    assert (out / "direct_field.csv").read_text().splitlines() == field
    s = compute_poynting(u, cfg)
    cen = mesh.tri_centroids[s.tri_index]
    flow = ["tri_centroid_x,tri_centroid_y,S1_re,S1_im,S2_re,S2_im,region"] + [
        _ref_line([], [*c, v[0].real, v[0].imag, v[1].real, v[1].imag, r])
        for c, v, r in zip(cen, s.vectors, s.region)]
    lines = (out / "poynting.csv").read_text().splitlines()
    assert lines == flow
    assert "2.000000000000e+00" in {line.rsplit(",", 1)[1] for line in lines[1:]}   # a float


def test_oracle_check_and_convergence_table(cfg_file, tmp_path, factored, monkeypatch):
    out = tmp_path / "out_oracle"
    assert main(["oracle-check", str(cfg_file), "--out", str(out)]) == 0
    lines = (out / "oracle_profile.csv").read_text().strip().splitlines()
    assert lines[0] == "r,u_re,u_im"
    assert len(lines) > 100
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert "beta" in summary and "c_star" in summary
    # the table meshes at 2h, h and h/2; at h = 0.2, 2h is above half the gap
    cfg_file.write_text(cfg_file.read_text().replace("h = 0.2", "h = 0.1"))
    meshes = []
    monkeypatch.setattr("enzlab.cli.build_mesh", lambda *a: meshes.append(build_mesh(*a))
                        or meshes[-1])
    assert main(["convergence-table", str(cfg_file), "--out", str(out)]) == 0
    lines = (out / "convergence_table.csv").read_text().splitlines()
    assert lines[0] == "h,beta_rel_err,cstar_rel_err,mueff_rel_err,beta_rate,cstar_rate,mueff_rate"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], [0.2, 0.1, 0.05])
    assert (np.diff(table[:, 1:4], axis=0) < 0).all()      # every error falls with h
    assert np.isnan(table[0, 4:]).all() and np.isfinite(table[1:, 4:]).all()
    # each level's exterior block is factored in single precision, the dopant's in double
    blocks = [(_exterior_sizes(mesh)[1], np.dtype(np.complex64)) for mesh in meshes]
    assert [f for f in factored if f[1] != np.dtype(complex)] == blocks
    assert len(factored) == 2 * len(blocks)


def test_console_entry_point_runs(cfg_file, tmp_path):
    out = tmp_path / "out_cli"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "enzlab.cli", "radius", str(cfg_file),
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    data = json.loads((out / "radius.json").read_text())
    assert data["rho_hat"] > 0
