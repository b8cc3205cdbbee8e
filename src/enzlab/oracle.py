"""Semi-analytic reference solutions for concentric-circle geometry.

Everything here is discretization-free in angle: the mode-0 radial problem is
solved exactly in terms of Bessel/Hankel functions with interface matching,
and the scalar constants (flux balance constant, coupling constant, effective
permeability) come out in closed form.  This module is the independent truth
source the finite element solvers are validated against: its Bessel
functions and their zeros come from ``scipy.special``, which the FEM path
does not use.

Restrictions: real wavenumber, real positive per-layer permittivities, and a
radially symmetric annular source.  Off-center sources and complex wavenumber
are covered by invariant tests elsewhere, not by oracle comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as ss

from .errors import DomainError, ResonantDopant, SingularMatch

_Z_MAX = 200.0


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, Y0, Y1 and the outgoing Hankel combinations


# H1_n is built as J_n + i Y_n from the same calls, so it equals
# complex(J_n, Y_n) exactly.
_KINDS = {
    "J0": ss.j0, "J1": ss.j1, "Y0": ss.y0, "Y1": ss.y1,
    "H1_0": lambda z: ss.j0(z) + 1j * ss.y0(z),
    "H1_1": lambda z: ss.j1(z) + 1j * ss.y1(z),
}


def _check_domain(z, allow_zero: bool) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    ok = ((z >= 0.0) if allow_zero else (z > 0.0)) & (z <= _Z_MAX)   # NaN fails both
    if not ok.all():
        raise DomainError(f"argument {float(z[~ok].flat[0])!r} outside supported range "
                          f"(0, {_Z_MAX}]")
    return z


def bessel(kind: str, z):
    """Evaluate J0/J1/Y0/Y1 or the outgoing Hankel functions H1_0/H1_1.

    Defined on (0, 200]; J kinds also accept z = 0.  A scalar gives a Python
    scalar, an array an array of the same shape; any entry outside the
    domain raises ``DomainError``.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown Bessel kind {kind!r}")
    out = _KINDS[kind](_check_domain(z, allow_zero=kind.startswith("J")))
    return out.item() if out.ndim == 0 else out


def j0_zero(n: int) -> float:
    """n-th positive zero of J0 (n >= 1), up to z = 200."""
    return _bessel_zero(0, n)


def j1_zero(n: int) -> float:
    """n-th positive zero of J1 (n >= 1, excluding z = 0), up to z = 200."""
    return _bessel_zero(1, n)


# the m-th zero of J0 or J1 exceeds (m - 1/4) pi, so this many include every
# zero up to _Z_MAX
_N_ZEROS = int(_Z_MAX / math.pi) + 1


def _bessel_zero(order: int, n: int) -> float:
    zeros = ss.jn_zeros(order, _N_ZEROS)
    zeros = zeros[zeros <= _Z_MAX]
    if not 1 <= n <= len(zeros):
        raise DomainError(f"zero index {n} outside 1..{len(zeros)}, the zeros of "
                          f"J{order} up to z = {_Z_MAX}")
    return float(zeros[n - 1])


# ---------------------------------------------------------------------------
# mode-0 layered solution


@dataclass(frozen=True)
class RadialLayers:
    """Concentric three-layer medium with an annular ring source.

    ``a < b`` are the dopant and scatterer radii, ``c`` the profile extent.
    ``eps_*`` are the real positive per-layer permittivities (the PDE
    coefficient is 1/eps).  The source has uniform amplitude on
    ``r1 <= r <= r2`` with ``b < r1 < r2 <= c``.
    """

    a: float
    b: float
    c: float
    eps_dopant: float = 1.0
    eps_enz: float = 1.0
    eps_exterior: float = 1.0
    source_r1: float = 0.0
    source_r2: float = 0.0
    amplitude: complex = 0.0

    def __post_init__(self):
        if not (0 < self.a < self.b < self.c):
            raise DomainError("layer radii must satisfy 0 < a < b < c")
        for e in (self.eps_dopant, self.eps_enz, self.eps_exterior):
            if not (np.isreal(e) and e > 0):
                raise DomainError("oracle permittivities must be real and positive")
        if self.amplitude != 0 and not (self.b < self.source_r1 < self.source_r2 <= self.c):
            raise DomainError("source annulus must satisfy b < r1 < r2 <= c")


class RadialSolution:
    """Evaluated mode-0 field with its layer coefficients and scalars."""

    def __init__(self, layers: RadialLayers, k: float, coeffs, particular, scalars):
        self.layers = layers
        self.k = k
        self._c = coeffs          # (A_d, A_z, B_z, A_e, B_e)
        self._part = particular   # (F, r1, r2) or None
        self.scalars = scalars

    def _u_particular(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r, dtype=complex)
        if self._part is None:
            return out
        F, r1, r2 = self._part
        k = self.k
        act = r > r1
        if not act.any():
            return out
        i_j, i_y = _ring_integrals(r1, k, np.minimum(r[act], r2))
        out[act] = -F * (math.pi / 2.0) * (bessel("Y0", k * r[act]) * i_j
                                           - bessel("J0", k * r[act]) * i_y)
        return out

    def __call__(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        L, k = self.layers, self.k
        a_d, a_z, b_z, a_e, b_e = self._c
        kd = k * math.sqrt(L.eps_dopant)
        kz = k * math.sqrt(L.eps_enz)
        out = np.empty(r.shape, dtype=complex)
        dop = r <= L.a
        enz = (r > L.a) & (r <= L.b)
        ext = r > L.b
        out[dop] = a_d * bessel("J0", kd * r[dop])
        out[enz] = a_z * bessel("J0", kz * r[enz]) + b_z * bessel("Y0", kz * r[enz])
        out[ext] = (a_e * bessel("J0", k * r[ext]) + b_e * bessel("Y0", k * r[ext])
                    + self._u_particular(r[ext]))
        return out

    def source_field(self, r) -> np.ndarray:
        """Exterior field with zero trace on the scatterer circle (r >= b)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        a_s, b_s = self.scalars["s_coeffs"]
        k = self.k
        return (a_s * bessel("J0", k * r) + b_s * bessel("Y0", k * r)
                + self._u_particular(r))

    def derivative(self, r) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        eps = 1e-6 * max(1.0, float(np.max(r)))
        return (self(r + eps) - self(r - eps)) / (2 * eps)

    def disk_integral(self, rho: float, n_quad: int = 200) -> complex:
        """2*pi * int_0^rho u(r) r dr by composite Gauss quadrature."""
        L = self.layers
        cuts = [0.0, L.a, L.b]
        if self._part is not None:
            cuts += [self._part[1], self._part[2]]
        cuts = sorted({c for c in cuts if c < rho}) + [rho]
        x, w = np.polynomial.legendre.leggauss(n_quad)
        total = 0.0 + 0.0j
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rr = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            total += 0.5 * (hi - lo) * np.sum(w * rr * self(rr))
        return 2.0 * math.pi * total


def _ring_integrals(r1: float, k: float, rho):
    """(int_r1^rho s J0(ks) ds, int_r1^rho s Y0(ks) ds), since s Z0(ks) = (s Z1(ks))' / k.

    With a ring source F on r1 <= r <= r2, variation of parameters writes the
    particular solution at r > r1 as -F (pi/2) (Y0(kr) i_j - J0(kr) i_y) at
    rho = min(r, r2); at rho = r2 these give the outgoing-matching coefficients.
    """
    i_j = (rho * bessel("J1", k * rho) - r1 * bessel("J1", k * r1)) / k
    i_y = (rho * bessel("Y1", k * rho) - r1 * bessel("Y1", k * r1)) / k
    return i_j, i_y


def _scalar_constants(layers: RadialLayers, k: float, mu: complex, p_j, p_y) -> dict:
    """Closed-form scalars; psi_d = J0(kd r) / J0(kd a) with kd = k sqrt(eps_dopant).

    The dopant flux is the co-normal one, (1/eps_dopant) dpsi_d/dr, so
    ``flux_psi_d = -k^2 int_psi_d`` as in the finite element identity.
    """
    a, b = layers.a, layers.b
    kd = k * math.sqrt(layers.eps_dopant)
    j0a, j1a = bessel("J0", kd * a), bessel("J1", kd * a)
    if abs(j0a) < 1e-10:
        raise ResonantDopant(f"J0(kd*a) = {j0a:.2e}: dopant resonance")
    h0b, h1b = bessel("H1_0", k * b), bessel("H1_1", k * b)
    flux_psi_e = -2.0 * math.pi * b * k * h1b / h0b
    flux_psi_d = -2.0 * math.pi * a * kd * j1a / (layers.eps_dopant * j0a)
    int_psi_d = 2.0 * math.pi * a * j1a / (kd * j0a)
    area_enz = math.pi * (b * b - a * a)
    beta = k * k * area_enz + flux_psi_e - flux_psi_d
    mu_eff = mu * (area_enz + int_psi_d) / (math.pi * b * b)
    out = {"beta": beta, "flux_psi_e": flux_psi_e, "flux_psi_d": flux_psi_d,
           "int_psi_d": int_psi_d, "mu_eff": mu_eff, "flux_s": 0.0 + 0.0j,
           "c_star": 0.0 + 0.0j, "s_coeffs": (0.0 + 0.0j, 0.0 + 0.0j)}
    if layers.amplitude != 0:
        y0b = bessel("Y0", k * b)
        a_s = (p_y - 1j * p_j) * y0b / h0b
        b_s = 1j * a_s + 1j * p_j - p_y
        flux_s = 2.0 * math.pi * b * k * (-a_s * bessel("J1", k * b)
                                          - b_s * bessel("Y1", k * b))
        out["flux_s"] = flux_s
        out["c_star"] = -flux_s / beta
        out["s_coeffs"] = (a_s, b_s)
    return out


def axisym_solution(layers: RadialLayers, k: float, mu: complex = 1.0) -> RadialSolution:
    """Solve the mode-0 transmission problem exactly.

    Matches ``u`` and ``(1/eps) du/dr`` at both interfaces, imposes
    regularity at the origin and the outgoing condition at infinity, and
    attaches the closed-form scalars (flux balance constant, coupling
    constant, effective permeability, auxiliary fluxes).
    """
    if k <= 0 or k != float(k):
        raise DomainError("oracle requires a real positive wavenumber")
    L = layers
    kd = k * math.sqrt(L.eps_dopant)
    kz = k * math.sqrt(L.eps_enz)
    id_, iz, ie = 1.0 / L.eps_dopant, 1.0 / L.eps_enz, 1.0 / L.eps_exterior
    if L.eps_exterior != 1.0:
        raise DomainError("exterior permittivity must be 1 for the radiation condition")
    if L.amplitude == 0:
        return RadialSolution(L, k, (0j, 0j, 0j, 0j, 0j), None,
                              _scalar_constants(L, k, mu, 0j, 0j))
    i_j, i_y = _ring_integrals(L.source_r1, k, L.source_r2)
    p_j = L.amplitude * (math.pi / 2.0) * i_y
    p_y = -L.amplitude * (math.pi / 2.0) * i_j
    scalars = _scalar_constants(L, k, mu, p_j, p_y)

    # unknowns: A_d, A_z, B_z, A_e, B_e
    A = np.zeros((5, 5), dtype=complex)
    rhs = np.zeros(5, dtype=complex)
    A[0] = [bessel("J0", kd * L.a), -bessel("J0", kz * L.a),
            -bessel("Y0", kz * L.a), 0, 0]
    A[1] = [-id_ * kd * bessel("J1", kd * L.a), iz * kz * bessel("J1", kz * L.a),
            iz * kz * bessel("Y1", kz * L.a), 0, 0]
    A[2] = [0, bessel("J0", kz * L.b), bessel("Y0", kz * L.b),
            -bessel("J0", k * L.b), -bessel("Y0", k * L.b)]
    A[3] = [0, -iz * kz * bessel("J1", kz * L.b), -iz * kz * bessel("Y1", kz * L.b),
            ie * k * bessel("J1", k * L.b), ie * k * bessel("Y1", k * L.b)]
    A[4] = [0, 0, 0, -1j, 1.0]
    rhs[4] = 1j * p_j - p_y
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularMatch(f"interface matching system condition {cond:.2e}")
    coeffs = np.linalg.solve(A, rhs)
    sol = RadialSolution(L, k, tuple(coeffs), (L.amplitude, L.source_r1, L.source_r2),
                         scalars)

    # interface matching residuals must sit at solver precision
    for r0 in (L.a, L.b):
        lo, hi = sol(np.array([r0 * (1 - 1e-12)])), sol(np.array([r0 * (1 + 1e-12)]))
        if abs(lo - hi) > 1e-9 * max(1.0, abs(hi)):
            raise SingularMatch("interface continuity residual above tolerance")
    return sol
