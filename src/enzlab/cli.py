"""Command-line experiment runner.

Every subcommand reads one configuration file, writes UTF-8 CSV artifacts
(with header rows) plus a JSON run manifest into the output directory, and
exits with a distinct nonzero code per error class.  Identical inputs produce
byte-identical CSVs; timings and the peak resident set live only in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import EnzLabError, ValidationError
from .auxiliary import exterior_schur, exterior_system, rellich_residual, solve_auxiliary_set
from .config import _parse_complex, _parse_int, _parse_window, check_resolution, parse_config
from .correctors import CorrectorEngine
from .direct import compare_fields, solve_transmission
from .fem import ScalarField
from .fields import compute_poynting
from .geometry import Circle, SourceRing, build_mesh
from .oracle import RadialLayers, axisym_solution
from .resonance import gamma_sweep

def _write_csv(path: Path, header: list, columns) -> None:
    """One table from equal-length 1-D columns.

    Integer columns are written as ``%d``, every other column as ``%.12e``;
    the whole table is formatted by one ``%`` over one flat tuple.
    """
    columns = [np.asarray(c) for c in columns]
    width, rows = len(columns), len(columns[0])
    flat = [None] * (width * rows)
    for j, col in enumerate(columns):
        flat[j::width] = col.tolist()   # raises on a column of another length
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.12e" for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n" + line * rows % tuple(flat))


def _field_table(field: ScalarField):
    """Header and columns of a nodal field's CSV."""
    xy = field.mesh.nodes[field.nodes]
    return (["node_index", "x", "y", "re", "im"],
            [field.nodes, xy[:, 0], xy[:, 1], field.values.real, field.values.imag])


def _write_json(path: Path, data) -> None:
    """Indented JSON; complex values become [re, im] pairs."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, default=lambda z: [z.real, z.imag])


def _peak_rss_mb() -> float:
    """The whole process's peak resident set so far, in MB.

    ``ru_maxrss`` counts bytes on macOS and kilobytes on Linux.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _manifest(outdir: Path, name: str, spec, cfg, opts, timings: dict) -> None:
    data = {
        "subcommand": name,
        "version": __version__,
        "numpy": np.__version__,
        "domain": repr(spec),
        "physics": {
            "omega": cfg.omega, "mu": complex(cfg.mu), "delta": complex(cfg.delta),
            "k": complex(cfg.k),
            "radiation": "pml" if spec.pml_thickness > 0 else "robin",
        },
        "run": dataclasses.asdict(opts),
        "timings_s": timings,
        "peak_rss_mb": _peak_rss_mb(),
    }
    _write_json(outdir / "manifest.json", data)


def _require_concentric(spec, cfg):
    outer, dopant = spec.outer, spec.dopant
    if not (isinstance(outer, Circle) and isinstance(dopant, Circle)
            and outer.center == (0.0, 0.0) and dopant.center == (0.0, 0.0)):
        raise ValidationError("oracle comparison requires concentric circles at the origin")
    k = complex(cfg.k)
    if abs(k.imag) > 0 or k.real <= 0:
        raise ValidationError("oracle comparison requires a real positive wavenumber")
    ring = [s for s in cfg.sources.disks if isinstance(s, SourceRing)]
    if len(cfg.sources.disks) != len(ring):
        raise ValidationError("oracle comparison requires ring sources only")
    return ring


def _oracle_reference(spec, cfg):
    ring = _require_concentric(spec, cfg)
    delta = complex(cfg.delta)
    if abs(delta.imag) > 0 or delta.real <= 0:
        raise ValidationError("oracle comparison requires real positive delta")
    kwargs = dict(a=spec.dopant.radius, b=spec.outer.radius,
                  c=spec.truncation_radius, eps_enz=delta.real)
    if ring:
        kwargs.update(source_r1=ring[0].r1, source_r2=ring[0].r2,
                      amplitude=ring[0].amplitude)
    return axisym_solution(RadialLayers(**kwargs), k=complex(cfg.k).real,
                           mu=complex(cfg.mu))


# ---------------------------------------------------------------------------
# subcommands


def run_aux(spec, cfg, opts, outdir: Path) -> None:
    mesh = build_mesh(spec, opts.h)
    aux = solve_auxiliary_set(mesh, cfg)
    rres = rellich_residual(mesh, cfg, aux.psi_e, aux.flux_psi_e)
    row = np.append(np.array([cfg.k, cfg.delta, aux.beta, aux.c_star, aux.mu_eff],
                             dtype=complex).view(float), rres)
    _write_csv(outdir / "aux.csv",
               ["k_re", "k_im", "delta_re", "delta_im", "beta_re", "beta_im",
                "cstar_re", "cstar_im", "mueff_re", "mueff_im", "rellich_residual"],
               row[:, None])   # one row: eleven one-entry columns


def run_expand(spec, cfg, opts, outdir: Path) -> None:
    order, delta = opts.order, complex(cfg.delta)
    mesh = build_mesh(spec, opts.h)
    engine = CorrectorEngine(mesh, cfg)
    hier = engine.build_hierarchy(max(order, 1))
    field = engine.assemble_expansion(hier, delta, order=order)
    _write_csv(outdir / "expand_field.csv", *_field_table(field))
    _write_json(outdir / "expand_summary.json",
                {"c_star": hier.c_star, "e": list(hier.e),
                 "c_delta": hier.c_delta(delta, order - 1)})


def run_direct(spec, cfg, opts, outdir: Path) -> None:
    mesh = build_mesh(spec, opts.h)
    u = solve_transmission(mesh, cfg)
    _write_csv(outdir / "direct_field.csv", *_field_table(u))


def run_sweep_delta(spec, cfg, opts, outdir: Path) -> None:
    if not opts.deltas:
        raise ValidationError("sweep needs a nonempty deltas list")
    mesh = build_mesh(spec, opts.h)
    exterior_schur(exterior_system(mesh, cfg))   # the direct solves' LU, which the engine shares
    engine = CorrectorEngine(mesh, cfg)
    hier = engine.build_hierarchy(2)

    def errors(delta):
        u = solve_transmission(mesh, dataclasses.replace(cfg, delta=delta))
        errs = []
        for j in (0, 1, 2):
            v = engine.assemble_expansion(hier, delta, order=j)
            try:
                errs.append(compare_fields(u, v, window=opts.window).h1_error)
            except ValidationError as exc:   # its square overflowed in the norm
                raise ValidationError(f"the H1 error of the expansion at delta = {delta} "
                                      f"truncated at order {j} is not finite") from exc
        return errs

    deltas = [complex(d) for d in opts.deltas]
    errs = np.array([errors(d) for d in deltas]).T
    _write_csv(outdir / "sweep_delta.csv",
               ["delta_abs", "delta_arg", "h1_err_J0", "h1_err_J1", "h1_err_J2"],
               [[abs(d) for d in deltas], [math.atan2(d.imag, d.real) for d in deltas],
                *errs])


def run_oracle_check(spec, cfg, opts, outdir: Path) -> None:
    sol = _oracle_reference(spec, cfg)
    radii = np.linspace(1e-3, spec.truncation_radius - spec.pml_thickness, 400)
    vals = sol(radii)
    _write_csv(outdir / "oracle_profile.csv", ["r", "u_re", "u_im"],
               [radii, vals.real, vals.imag])
    _write_json(outdir / "oracle_summary.json",
                {key: sol.scalars[key] for key in ("beta", "c_star", "mu_eff", "flux_psi_e",
                                                   "flux_psi_d", "int_psi_d", "flux_s")})


def run_radius(spec, cfg, opts, outdir: Path) -> None:
    mesh = build_mesh(spec, opts.h)
    engine = CorrectorEngine(mesh, cfg)
    rho = engine.estimate_radius(iters=opts.rho_iters, seed=opts.seed)
    _write_json(outdir / "radius.json", {"rho_hat": rho, "convergence_radius": 1.0 / rho,
                                         "iters": opts.rho_iters, "seed": opts.seed})


def run_resonance_sweep(spec, cfg, opts, outdir: Path) -> None:
    mesh = build_mesh(spec, opts.h)
    if opts.resonance_target is not None:
        target = opts.resonance_target
    else:
        if not isinstance(spec.dopant, Circle):
            raise ValidationError("resonance_target is required for non-circular dopants")
        from .oracle import j0_zero
        target = (j0_zero(1) / spec.dopant.radius) ** 2
    gammas = opts.gammas or tuple(10.0 ** (-x) for x in np.arange(1.0, 3.1, 0.25))
    study = gamma_sweep(mesh, cfg, target, gammas)
    recs = study.records
    _write_csv(outdir / "resonance_sweep.csv",
               ["gamma_re", "gamma_im", "cstar_abs", "mueff_abs", "phi_gap_h1"],
               [study.gammas.real, study.gammas.imag, [abs(r.c_star) for r in recs],
                [abs(r.mu_eff) for r in recs], [r.phi_gap for r in recs]])
    _write_json(outdir / "resonance_summary.json", {
        "lambda_star": study.lambda_star,
        "classification": study.classification,
        "c_bar": study.c_bar,
        "c_bar_extrapolated": study.c_bar_extrapolated,
        "cluster_size": len(study.cluster),
    })


def run_poynting(spec, cfg, opts, outdir: Path) -> None:
    mesh = build_mesh(spec, opts.h)
    u = solve_transmission(mesh, cfg)
    s = compute_poynting(u, cfg)
    cen, vec = mesh.tri_centroids[s.tri_index], s.vectors
    _write_csv(outdir / "poynting.csv",
               ["tri_centroid_x", "tri_centroid_y", "S1_re", "S1_im",
                "S2_re", "S2_im", "region"],
               [cen[:, 0], cen[:, 1], vec[:, 0].real, vec[:, 0].imag,
                vec[:, 1].real, vec[:, 1].imag, s.region.astype(float)])


def run_convergence_table(spec, cfg, opts, outdir: Path) -> None:
    check_resolution(cfg.k, 2.0 * opts.h, "2h")   # the coarsest level
    ref = _oracle_reference(spec, cfg).scalars
    hs = [opts.h * 2.0, opts.h, opts.h / 2.0]
    errs = []
    for h in hs:
        mesh = build_mesh(spec, h)
        aux = solve_auxiliary_set(mesh, cfg)
        errs.append([abs(aux.beta - ref["beta"]) / abs(ref["beta"]),
                     abs(aux.c_star - ref["c_star"]) / max(abs(ref["c_star"]), 1e-300),
                     abs(aux.mu_eff - ref["mu_eff"]) / abs(ref["mu_eff"])])
        del mesh, aux   # this level's mesh and factorizations, before the next level's are built
    errs = np.array(errs).T   # one row per constant, one entry per h
    rates = [[math.nan] + [math.log2(p / e) if e > 0 else math.nan for p, e in zip(err, err[1:])]
             for err in errs]
    _write_csv(outdir / "convergence_table.csv",
               ["h", "beta_rel_err", "cstar_rel_err", "mueff_rel_err",
                "beta_rate", "cstar_rate", "mueff_rate"], [hs, *errs, *rates])


_SUBCOMMANDS = {
    "aux": run_aux,
    "expand": run_expand,
    "direct": run_direct,
    "sweep-delta": run_sweep_delta,
    "oracle-check": run_oracle_check,
    "radius": run_radius,
    "resonance-sweep": run_resonance_sweep,
    "poynting": run_poynting,
    "convergence-table": run_convergence_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enzlab",
        description="Doped ENZ scatterer laboratory: direct solves, "
                    "expansions, oracles, and sweeps.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="configuration file")
        p.add_argument("--out", help="output directory (overrides [run] out)")
        if name == "expand":
            p.add_argument("--order", type=str, default=None)
            p.add_argument("--delta", type=str, default=None,
                           help="complex value as RE,IM")
        if name == "sweep-delta":
            p.add_argument("--deltas", type=str, default=None,
                           help="space-separated list of RE,IM values")
            p.add_argument("--window", type=str, default=None,
                           help="disk:cx,cy,r")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        spec, cfg, opts = parse_config(args.config)
        # flag values are checked like their config keys and replace them
        if getattr(args, "order", None) is not None:
            opts = dataclasses.replace(opts, order=_parse_int(args.order, "--order"))
        if getattr(args, "delta", None) is not None:
            cfg = dataclasses.replace(cfg, delta=_parse_complex(args.delta, "--delta"))
        if getattr(args, "deltas", None) is not None:
            opts = dataclasses.replace(opts, deltas=tuple(
                _parse_complex(v, "--deltas") for v in args.deltas.split()))
        if getattr(args, "window", None) is not None:
            kind, _, body = args.window.partition(":")
            opts = dataclasses.replace(
                opts, window=_parse_window(kind, body.split(","), "--window"))
        outdir = Path(args.out or opts.out)
        outdir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        _SUBCOMMANDS[args.subcommand](spec, cfg, opts, outdir)
        _manifest(outdir, args.subcommand, spec, cfg, opts,
                  {"total": time.perf_counter() - t0})
    except EnzLabError as exc:
        print(f"error [{exc.name}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
