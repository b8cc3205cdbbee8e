"""Flat key-value configuration files with [domain] / [physics] / [run] sections.

Complex numbers are written as ``re,im`` pairs; shapes as
``circle cx cy r`` or ``polygon x1 y1 x2 y2 ...``; sources as
semicolon-separated ``disk cx cy r amp`` or ``ring r1 r2 amp`` entries.

Defaults (documented here, applied in :func:`parse_config`):
truncation radius 4x the scatterer circumradius, collar thickness one
wavelength, mesh size one twentieth of a wavelength, expansion order 2,
30 power iterations for the radius estimate, seed 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .fem import RadiationSpec
from .geometry import Circle, DomainSpec, Polygon, SourceDisk, SourceRing, SourceSpec
from .auxiliary import PhysicsConfig, _branch_sqrt

_SECTIONS = ("domain", "physics", "run")


@dataclass
class RunOptions:
    h: float
    order: int = 2
    rho_iters: int = 30
    seed: int = 0
    deltas: tuple = ()
    window: Circle | None = None          # a disk window, or None
    gammas: tuple = ()
    resonance_target: float | None = None
    out: str = "out"


# Value parsers take the text and where it came from ("line 7" in a file, a
# flag name on the command line), which their PARSE_ERROR or, for a number
# that is not finite, VALIDATION_ERROR names.


def _floats(tokens, where: str) -> list:
    """Floats of ``tokens``: ValueError if one does not parse, VALIDATION_ERROR
    if one is NaN or infinite."""
    vals = [float(t) for t in tokens]
    for tok, val in zip(tokens, vals):
        if not math.isfinite(val):
            raise ValidationError(f"{where}: numbers must be finite, got {tok!r}")
    return vals


def _parse_float(text: str, where: str) -> float:
    try:
        return _floats([text], where)[0]
    except ValueError:
        raise ParseError(f"{where}: expected number, got {text!r}") from None


def _parse_complex(text: str, where: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) in (1, 2):
            return complex(*_floats(parts, where))
    except ValueError:
        pass
    raise ParseError(f"{where}: cannot parse complex number {text!r}")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{where}: expected integer, got {text!r}") from None


def _parse_order(text: str, where: str) -> int:
    """Expansion order: an integer, VALIDATION_ERROR when negative."""
    order = _parse_int(text, where)
    if order < 0:
        raise ValidationError("expansion order must be nonnegative")
    return order


def _parse_window(kind: str, numbers: list, where: str) -> Circle:
    """Disk window ``Circle((cx, cy), r)`` from its kind and its three numbers;
    VALIDATION_ERROR unless ``r > 0``."""
    try:
        if kind == "disk" and len(numbers) == 3:
            cx, cy, r = _floats(numbers, where)
            if r <= 0:
                raise ValidationError(f"{where}: window radius must be positive, "
                                      f"got {numbers[2]!r}")
            return Circle((cx, cy), r)
    except ValueError:
        pass
    raise ParseError(f"{where}: expected a disk window 'disk cx cy r'")


def _parse_shape(text: str, where: str):
    toks = text.split()
    try:
        if toks[0] == "circle" and len(toks) == 4:
            cx, cy, r = _floats(toks[1:], where)
            return Circle((cx, cy), r)
        if toks[0] == "polygon" and len(toks) >= 7 and (len(toks) - 1) % 2 == 0:
            vals = _floats(toks[1:], where)
            return Polygon(tuple(zip(vals[0::2], vals[1::2])))
    except (ValueError, IndexError):
        pass
    raise ParseError(f"{where}: cannot parse shape {text!r}")


def _parse_sources(text: str, where: str) -> SourceSpec:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        toks = chunk.split()
        try:
            if toks[0] == "disk" and len(toks) == 5:
                cx, cy, r = _floats(toks[1:4], where)
                entries.append(SourceDisk((cx, cy), r, _parse_complex(toks[4], where)))
                continue
            if toks[0] == "ring" and len(toks) == 4:
                r1, r2 = _floats(toks[1:3], where)
                entries.append(SourceRing(r1, r2, _parse_complex(toks[3], where)))
                continue
        except ValueError:
            pass
        raise ParseError(f"{where}: cannot parse source entry {chunk!r}")
    return SourceSpec(tuple(entries))


def _read_sections(path) -> dict:
    sections: dict = {name: {} for name in _SECTIONS}
    current = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in sections:
                    raise ParseError(f"line {lineno}: unknown section [{name}]")
                current = name
                continue
            if "=" not in line:
                raise ParseError(f"line {lineno}: expected key = value, got {line!r}")
            if current is None:
                raise ParseError(f"line {lineno}: key outside any section")
            key, val = (s.strip() for s in line.split("=", 1))
            sections[current][key] = (val, lineno)
    return sections


def parse_config(path):
    """Parse and validate a configuration file.

    Returns (DomainSpec, PhysicsConfig, RunOptions).  Parse failures carry
    line numbers; validation failures name the violated invariant.
    """
    sec = _read_sections(path)
    dom, phy, run = sec["domain"], sec["physics"], sec["run"]

    def take(table, key, conv, default=None, required=False):
        if key not in table:
            if required:
                raise ValidationError(f"missing required key {key!r}")
            return default
        val, lineno = table[key]
        return conv(val, f"line {lineno}")

    outer = take(dom, "outer", _parse_shape, required=True)
    dopant = take(dom, "dopant", _parse_shape, required=True)

    omega = take(phy, "omega", _parse_float, default=1.0)
    mu = take(phy, "mu", _parse_complex, default=1.0 + 0.0j)
    k_override = take(phy, "k", _parse_complex, default=None)
    if k_override is not None:
        k = complex(k_override)
        if k == 0:
            raise ValidationError("wavenumber k must be nonzero")
        if not (0 <= cmath.phase(k) < math.pi):
            raise ValidationError("wavenumber must satisfy 0 <= arg k < pi")
        mu = k * k / omega**2
    delta = take(phy, "delta", _parse_complex, default=1e-2 + 0.0j)
    sources = take(phy, "sources", _parse_sources, default=SourceSpec())
    rad_mode = take(phy, "radiation", lambda v, n: v.strip(), default="pml")
    sigma0 = take(phy, "pml_sigma0",
                  lambda v, where: None if v.strip() == "auto" else _parse_float(v, where))
    order_pml = take(phy, "pml_order", _parse_int, default=2)
    try:
        radiation = RadiationSpec(rad_mode, sigma0, order_pml)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    k_eff = _branch_sqrt(omega**2 * complex(mu))
    wavelength = 2.0 * math.pi / max(abs(k_eff), 1e-12)
    # default truncation keeps a 4x-circumradius physical exterior and adds
    # the collar on top; an explicit truncation caps the default collar so
    # the physical annulus never collapses
    default_collar = wavelength if radiation.mode == "pml" else 0.0
    trunc = take(dom, "truncation_radius", _parse_float, default=None)
    if trunc is None:
        trunc = 4.0 * outer.circumradius() + default_collar
        pml_t = take(dom, "pml_thickness", _parse_float, default=default_collar)
    else:
        cap = 0.5 * (trunc - outer.circumradius())
        pml_t = take(dom, "pml_thickness", _parse_float,
                     default=min(default_collar, max(cap, 0.0)))
    if radiation.mode == "robin" and pml_t > 0:
        # the Robin term lives on the truncation circle, which a collar
        # would take out of the exterior problem
        raise ValidationError("radiation = robin requires pml_thickness = 0")
    h = take(dom, "h", _parse_float, default=wavelength / 20.0)
    if h <= 0:
        raise ValidationError("mesh size h must be positive")

    spec = DomainSpec(outer=outer, dopant=dopant, truncation_radius=trunc,
                      pml_thickness=pml_t)
    spec.validate()
    sources.validate(spec)
    try:
        cfg = PhysicsConfig(omega=omega, mu=complex(mu), delta=complex(delta),
                            sources=sources, radiation=radiation)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    def fclist(val, where):
        return tuple(_parse_complex(v, where) for v in val.split())

    def fwindow(val, where):
        kind, *numbers = val.split() or [""]
        return _parse_window(kind, numbers, where)

    opts = RunOptions(
        h=h,
        order=take(run, "order", _parse_order, default=2),
        rho_iters=take(run, "rho_iters", _parse_int, default=30),
        seed=take(run, "seed", _parse_int, default=0),
        deltas=take(run, "deltas", fclist, default=()),
        window=take(run, "window", fwindow, default=None),
        gammas=take(run, "gammas", fclist, default=()),
        resonance_target=take(run, "resonance_target", _parse_float, default=None),
        out=take(run, "out", lambda v, n: v.strip(), default="out"),
    )
    if opts.rho_iters < 10:
        raise ValidationError("rho_iters must be at least 10")
    if opts.seed < 0:
        raise ValidationError("seed must be nonnegative")
    if len(opts.gammas) == 1:
        raise ValidationError("gammas needs at least two values for a detuning sweep")
    if len(set(opts.gammas)) < len(opts.gammas):
        raise ValidationError("gammas must be distinct for a detuning sweep")
    return spec, cfg, opts
