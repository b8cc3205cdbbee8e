import math

import numpy as np
import pytest
import scipy.special as ss

from enzlab import oracle
from enzlab.errors import DomainError, ResonantDopant
from enzlab.oracle import RadialLayers, axisym_solution, bessel, j0_zero, j1_zero


def test_series_values_at_zero():
    assert bessel("J0", 0.0) == 1.0
    assert bessel("J1", 0.0) == 0.0


def test_y_kind_rejects_zero_and_out_of_range():
    for kind in ("Y0", "Y1", "H1_0"):
        with pytest.raises(DomainError):
            bessel(kind, 0.0)
    with pytest.raises(DomainError):
        bessel("J0", 250.0)
    with pytest.raises(DomainError):
        bessel("J0", -1.0)


# Abramowitz & Stegun, Handbook of Mathematical Functions, Table 9.1,
# rounded to 10 decimals: x, J0(x), J1(x), Y0(x), Y1(x)
_TABLE_9_1 = np.array([
    (0.1, 0.9975015621, 0.0499375260, -1.5342386514, -6.4589510947),
    (1.0, 0.7651976866, 0.4400505857, 0.0882569642, -0.7812128213),
    (2.5, -0.0483837765, 0.4970941025, 0.4980703596, 0.1459181380),
    (4.0, -0.3971498099, -0.0660433280, -0.0169407393, 0.3979257106),
    (7.5, 0.2663396579, 0.1352484276, 0.1173132861, -0.2591285105),
    (10.0, -0.2459357645, 0.0434727462, 0.0556711673, 0.2490154242),
    (13.0, 0.2069261024, -0.0703180521, -0.0782078645, -0.2100814084),
    (17.5, -0.1031103982, -0.1634199694, -0.1604111925, 0.0985727987),
])


@pytest.mark.parametrize("kind,col", [("J0", 1), ("J1", 2), ("Y0", 3), ("Y1", 4)],
                         ids=["J0-j0", "J1-j1", "Y0-y0", "Y1-y1"])
def test_bessel_absolute_accuracy(kind, col):
    x = _TABLE_9_1[:, 0]
    assert np.abs(bessel(kind, x) - _TABLE_9_1[:, col]).max() < 1e-10


def test_bessel_zeros_match_table_9_5():
    # Abramowitz & Stegun Table 9.5, 10 decimals
    for n, (z0, z1) in enumerate([(2.4048255577, 3.8317059702),
                                  (5.5200781103, 7.0155866698),
                                  (8.6537279129, 10.1734681351)], start=1):
        assert abs(j0_zero(n) - z0) < 1e-10
        assert abs(j1_zero(n) - z1) < 1e-10


def test_array_input_keeps_shape_and_checks_every_entry():
    z = np.array([[0.5, 1.0, 2.0], [5.0, 50.0, 200.0]])
    for kind in ("J0", "J1", "Y0", "Y1", "H1_0", "H1_1"):
        out = bessel(kind, z)
        assert out.shape == z.shape
        assert out[1, 2] == bessel(kind, 200.0)
    for kind, bad in (("J0", np.nan), ("J0", -1.0), ("J1", 250.0), ("Y0", 0.0)):
        with pytest.raises(DomainError):
            bessel(kind, np.array([[1.0, 2.0], [bad, 3.0]]))
    with pytest.raises(DomainError):
        bessel("J2", 1.0)


def test_zero_index_outside_range_rejected():
    for zero in (j0_zero, j1_zero):
        assert zero(63) < 200.0   # the 64th zero lies above z = 200
        for n in (0, 64):
            with pytest.raises(DomainError):
                zero(n)


def test_hankel_combination():
    z = 3.7
    h = bessel("H1_0", z)
    assert h == complex(bessel("J0", z), bessel("Y0", z))


def test_first_j0_root_by_bisection():
    assert abs(j0_zero(1) - 2.404826) < 1e-6
    assert abs(j0_zero(2) - 5.520078) < 1e-6
    assert abs(j1_zero(1) - 3.831706) < 1e-6


def test_wronskian_identity():
    z = np.linspace(0.25, 180, 700)
    w = bessel("J0", z) * bessel("Y1", z) - bessel("J1", z) * bessel("Y0", z)
    assert np.abs(w + 2.0 / (math.pi * z)).max() < 1e-9


def _source_layers(**kw):
    base = dict(a=0.3, b=1.0, c=4.0, eps_dopant=1.0, eps_enz=1.0,
                source_r1=2.3, source_r2=2.7, amplitude=1.0)
    base.update(kw)
    return RadialLayers(**base)


def test_uniform_medium_is_smooth_across_interfaces():
    sol = axisym_solution(_source_layers(), k=1.0)
    for r0 in (0.3, 1.0):
        jump = sol(np.array([r0 - 1e-10]))[0] - sol(np.array([r0 + 1e-10]))[0]
        assert abs(jump) < 1e-9


def test_green_identity_per_disk():
    k = 1.0
    sol = axisym_solution(_source_layers(eps_enz=0.05), k=k)
    r1, r2 = 2.3, 2.7
    for rho in (0.5, 1.5, 3.5):
        eps_at = 0.05 if 0.3 < rho <= 1.0 else 1.0
        flux = 2 * math.pi * rho * (1.0 / eps_at) * sol.derivative(np.array([rho]))[0]
        intu = sol.disk_integral(rho)
        intf = math.pi * (min(rho, r2) ** 2 - r1 ** 2) if rho > r1 else 0.0
        resid = flux + k * k * intu + intf
        scale = max(abs(flux), abs(intu), 1.0)
        assert abs(resid) < 1e-8 * scale


def test_quadrature_refinement_is_converged():
    sol = axisym_solution(_source_layers(eps_enz=0.01), k=1.0)
    v1 = sol.disk_integral(3.5, n_quad=200)
    v2 = sol.disk_integral(3.5, n_quad=400)
    assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


def test_resonant_dopant_detected():
    k = j0_zero(1) / 0.3
    with pytest.raises(ResonantDopant):
        axisym_solution(_source_layers(), k=k)


def test_scalars_match_reference_formulas():
    k, a, b = 1.0, 0.3, 1.0
    sol = axisym_solution(_source_layers(eps_enz=0.01), k=k)
    s = sol.scalars
    h0, h1 = ss.hankel1(0, k * b), ss.hankel1(1, k * b)
    flux_e = -2 * math.pi * b * k * h1 / h0
    flux_d = -2 * math.pi * a * k * ss.j1(k * a) / ss.j0(k * a)
    beta = k * k * math.pi * (b * b - a * a) + flux_e - flux_d
    assert s["beta"] == pytest.approx(beta, rel=1e-10)
    assert s["mu_eff"] == pytest.approx(
        (math.pi * (b * b - a * a) + 2 * math.pi * a * ss.j1(k * a) / (k * ss.j0(k * a)))
        / (math.pi * b * b), rel=1e-10)
    # the balance constant has the dissipative sign
    assert (k * np.conj(s["beta"])).imag < 0


def test_enz_field_approaches_coupling_constant():
    gaps = []
    for delta in (1e-1, 1e-2, 1e-3):
        sol = axisym_solution(_source_layers(eps_enz=delta), k=1.0)
        r = np.linspace(0.35, 0.95, 13)
        gaps.append(np.abs(sol(r) - sol.scalars["c_star"]).max())
    assert gaps[0] > gaps[1] > gaps[2]
    slope = math.log10(gaps[0] / gaps[2]) / 2.0
    assert slope > 0.8


def test_enz_field_approaches_coupling_constant_with_dielectric_dopant():
    # the shell field approaches c_star like delta only when psi_d and its
    # co-normal flux use kd = k sqrt(eps_dopant); built from k it stalls
    # near 3e-4
    gaps = []
    for delta in (1e-3, 1e-4, 1e-5):
        sol = axisym_solution(_source_layers(eps_dopant=2.0, eps_enz=delta), k=1.0)
        r = np.linspace(0.35, 0.95, 13)
        gaps.append(np.abs(sol(r) - sol.scalars["c_star"]).max())
    assert gaps[1] < 0.2 * gaps[0] and gaps[2] < 0.2 * gaps[1]
    assert gaps[2] < 1e-5
