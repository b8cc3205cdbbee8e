"""Flat key-value configuration files with [domain] / [physics] / [run] sections.

Complex numbers are written as ``re,im`` pairs; shapes as
``circle cx cy r`` or ``polygon x1 y1 x2 y2 ...``; sources as
semicolon-separated ``disk cx cy r amp`` or ``ring r1 r2 amp`` entries.

A key a file leaves out takes its dataclass field's default, except the
three scaled by the wavelength: truncation radius 4x the scatterer
circumradius plus the collar, collar thickness one wavelength, mesh size one
twentieth of a wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .fem import RadiationSpec
from .geometry import Circle, DomainSpec, Polygon, SourceDisk, SourceRing, SourceSpec
from .auxiliary import PhysicsConfig

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

    def __post_init__(self):
        if not self.h > 0:
            raise ValidationError("mesh size h must be positive")
        if self.order < 0:
            raise ValidationError("expansion order must be nonnegative")
        if self.rho_iters < 10:
            raise ValidationError("rho_iters must be at least 10")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if len(self.gammas) == 1 or len(set(self.gammas)) < len(self.gammas):
            raise ValidationError("gammas needs at least two values, all distinct, "
                                  "for a detuning sweep")


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


def _parse_text(text: str, where: str) -> str:
    return text.strip()


def _parse_sigma0(text: str, where: str) -> float | None:
    return None if text.strip() == "auto" else _parse_float(text, where)


def _parse_complex_list(text: str, where: str) -> tuple:
    return tuple(_parse_complex(v, where) for v in text.split())


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


def _parse_window_key(text: str, where: str) -> Circle:
    kind, *numbers = text.split() or [""]
    return _parse_window(kind, numbers, where)


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
            sections[current][key] = (val, f"line {lineno}")
    return sections


def check_resolution(k: complex, h: float, name: str = "h") -> None:
    """VALIDATION_ERROR, naming ``h`` as ``name``, unless |k| h <= pi: two points per wavelength."""
    if abs(k) * h > math.pi:
        raise ValidationError(f"mesh size {name} = {h:g} gives fewer than two points per "
                              f"wavelength (|k| {name} = {abs(k) * h:.3g} > pi)")


def parse_config(path):
    """Parse a configuration file into (DomainSpec, PhysicsConfig, RunOptions).

    Only the keys a file gives are read here; each dataclass holds every
    other default and checks its own fields.  Parse failures carry line
    numbers; validation failures name the violated invariant.
    """
    sec = _read_sections(path)

    def read(section, **convs) -> dict:
        """``{key: conv(text, where)}`` for each ``key=conv`` the section gives."""
        given = sec[section]
        return {key: conv(*given[key]) for key, conv in convs.items() if key in given}

    dom = read("domain", outer=_parse_shape, dopant=_parse_shape, h=_parse_float,
               truncation_radius=_parse_float, pml_thickness=_parse_float)
    for key in ("outer", "dopant"):
        if key not in dom:
            raise ValidationError(f"missing required key {key!r}")
    phy = read("physics", omega=_parse_float, mu=_parse_complex, k=_parse_complex,
               delta=_parse_complex, sources=_parse_sources)
    rad = read("physics", radiation=_parse_text, pml_sigma0=_parse_sigma0, pml_order=_parse_int)
    mode = rad.pop("radiation", "pml")   # picks the default collar; the mesh picks the treatment
    if mode not in ("pml", "robin"):
        raise ValidationError(f"unknown radiation mode {mode!r}")
    try:
        phy["radiation"] = RadiationSpec(**{field: rad[key] for key, field in (
            ("pml_sigma0", "sigma0"), ("pml_order", "stretch_order")) if key in rad})
        if "k" in phy:   # k replaces mu
            phy.pop("mu", None)
            cfg = PhysicsConfig.from_k(phy.pop("k"), **phy)
        else:
            cfg = PhysicsConfig(**phy)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    # default truncation keeps a 4x-circumradius physical exterior and adds
    # the collar on top; an explicit truncation caps the default collar so
    # the physical annulus never collapses
    wavelength = 2.0 * math.pi / abs(cfg.k)
    outer_r = dom["outer"].circumradius()
    collar = wavelength if mode == "pml" else 0.0
    if "truncation_radius" in dom:
        collar = min(collar, max(0.5 * (dom["truncation_radius"] - outer_r), 0.0))
    else:
        dom["truncation_radius"] = 4.0 * outer_r + collar
    dom.setdefault("pml_thickness", collar)
    h = dom.pop("h", wavelength / 20.0)
    spec = DomainSpec(**dom)
    if (mode == "pml") != (spec.pml_thickness > 0):
        # the mesh picks the treatment; a key that disagrees with it is a mistake
        need = "> 0" if mode == "pml" else "= 0"
        raise ValidationError(f"radiation = {mode} requires pml_thickness {need}")
    cfg.sources.validate(spec)

    opts = RunOptions(h=h, **read("run", order=_parse_int, rho_iters=_parse_int, seed=_parse_int,
                                  deltas=_parse_complex_list, window=_parse_window_key,
                                  gammas=_parse_complex_list, resonance_target=_parse_float,
                                  out=_parse_text))
    check_resolution(cfg.k, h)
    return spec, cfg, opts
