import math
import weakref

import numpy as np
import pytest

from enzlab import fem
from enzlab.auxiliary import PhysicsConfig, compute_cstar, compute_beta, exterior_system
from enzlab.errors import Degenerate, SingularSystem
from enzlab.fem import BoundaryFunctional, ScalarField, h1_norm, integrate
from enzlab.geometry import Bnd, Region, build_mesh
from enzlab.oracle import j0_zero, j1_zero
from enzlab.resonance import (EXCITED, NOT_EXCITED, classify_eigenpairs,
                              compute_cbar, deflated_dirichlet_solve,
                              deflated_psi_d, eigen_means, gamma_sweep,
                              psi_d_flux_total, resonant_cluster,
                              solve_phi_hat0)

from conftest import CANONICAL_SPEC, RING_SOURCE

A_DOP = 0.3
LAM_RADIAL = (j0_zero(1) / A_DOP) ** 2      # first radial mode: nonzero mean
LAM_ANGULAR = (j1_zero(1) / A_DOP) ** 2     # first angular pair: zero mean


@pytest.fixture(scope="module")
def radial_cluster(mesh_fine):
    return resonant_cluster(mesh_fine, LAM_RADIAL)


@pytest.fixture(scope="module")
def angular_cluster(mesh_fine):
    return resonant_cluster(mesh_fine, LAM_ANGULAR, count=6)


@pytest.fixture(scope="module")
def study(mesh_fine, radial_cluster):
    cfg = PhysicsConfig(sources=RING_SOURCE)
    gammas = 10.0 ** (-np.arange(1.0, 3.1, 0.5))
    return gamma_sweep(mesh_fine, cfg, LAM_RADIAL, gammas)


def test_radial_mode_is_excited(mesh_fine, radial_cluster):
    lam_star, cluster = radial_cluster
    assert lam_star == pytest.approx(LAM_RADIAL, rel=2e-3)
    assert classify_eigenpairs(mesh_fine, cluster) == EXCITED
    # the discrete mean matches the closed-form radial-mode mean
    m = eigen_means(mesh_fine, cluster)
    j01 = j0_zero(1)
    from enzlab.oracle import bessel
    norm = math.sqrt(math.pi) * A_DOP * abs(bessel("J1", j01))
    exact = 2 * math.pi * A_DOP**2 * bessel("J1", j01) / j01 / norm
    assert abs(abs(m[0]) - abs(exact)) < 5e-3 * abs(exact)


def test_angular_pair_not_excited(mesh_fine, angular_cluster):
    lam_star, cluster = angular_cluster
    assert lam_star == pytest.approx(LAM_ANGULAR, rel=5e-3)
    assert len(cluster) == 2
    assert classify_eigenpairs(mesh_fine, cluster) == NOT_EXCITED


def test_synthetic_zero_mean_not_excited(mesh_fine, radial_cluster):
    # shift the excited mode by a constant so its mean is machine zero:
    # the threshold test must then classify NOT_EXCITED
    _, cluster = radial_cluster
    lam, u = cluster[0]
    ones = ScalarField(mesh_fine, Region.DOPANT, np.ones_like(u.values))
    area = complex(integrate(ones))
    zm = ScalarField(mesh_fine, Region.DOPANT,
                     u.values - complex(integrate(u)) / area)
    assert abs(complex(integrate(zm))) < 1e-12
    assert classify_eigenpairs(mesh_fine, [(lam, zm)]) == NOT_EXCITED


def test_gamma_sweep_requires_excited(mesh_fine):
    cfg = PhysicsConfig(sources=RING_SOURCE)
    with pytest.raises(Degenerate):
        gamma_sweep(mesh_fine, cfg, LAM_ANGULAR, [1e-2, 1e-3])


@pytest.mark.parametrize("gammas", [[0.1], [0.1, 0.1, 0.5], [0.01, 0.01j, 0.01 + 0j]])
def test_gamma_sweep_needs_distinct_gammas(mesh_coarse, gammas):
    # the extrapolation divides by the difference of the two smallest
    with pytest.raises(ValueError):
        gamma_sweep(mesh_coarse, PhysicsConfig.from_k(1.0, sources=RING_SOURCE),
                    LAM_RADIAL, gammas)


def test_k_star_exterior_lu_is_freed_before_the_first_gamma(monkeypatch):
    # the sweep keeps the k* source flux, not the field, whose solve record
    # would keep the k* exterior system and its LU alive through every gamma
    mesh = build_mesh(CANONICAL_SPEC, 0.1)
    cfg = PhysicsConfig(sources=RING_SOURCE)
    n_ext = len(fem.split_nodes(mesh, exterior_system(mesh, cfg).regions,
                                [Bnd.GAMMA_OMEGA, Bnd.GAMMA_INF])[0])
    k_star_block, dead = [], []
    factor = fem.factor

    def watched(A):
        if A.shape[0] == n_ext and not k_star_block:   # the k* exterior Dirichlet block
            (block,) = mesh._memo["exterior"][1]._blocks.values()
            k_star_block.append(weakref.ref(block))
        elif A.shape[0] == n_ext and not dead:         # the first gamma's
            dead.append(k_star_block[0]() is None)
        return factor(A)

    monkeypatch.setattr(fem, "factor", watched)
    gamma_sweep(mesh, cfg, LAM_RADIAL, [1e-1, 1e-2])
    assert dead == [True]


def test_cstar_and_mueff_scalings(study):
    ga = np.abs(study.gammas)
    cs = np.array([abs(r.c_star) for r in study.records])
    mu = np.array([abs(r.mu_eff) for r in study.records])
    assert abs(np.polyfit(np.log10(ga), np.log10(cs), 1)[0] - 1.0) < 0.1
    assert abs(np.polyfit(np.log10(ga), np.log10(mu), 1)[0] + 1.0) < 0.1


def test_lossy_path_scalings(mesh_fine):
    cfg = PhysicsConfig(sources=RING_SOURCE)
    gammas = -1j * 10.0 ** (-np.arange(1.0, 3.1, 0.5))   # k^2 = lam* + i|g|
    st = gamma_sweep(mesh_fine, cfg, LAM_RADIAL, gammas)
    ga = np.abs(st.gammas)
    cs = np.array([abs(r.c_star) for r in st.records])
    mu = np.array([abs(r.mu_eff) for r in st.records])
    assert abs(np.polyfit(np.log10(ga), np.log10(cs), 1)[0] - 1.0) < 0.1
    assert abs(np.polyfit(np.log10(ga), np.log10(mu), 1)[0] + 1.0) < 0.1
    assert (np.array([r.k.imag for r in st.records]) > 0).all()


def test_cbar_closed_form_vs_extrapolation(study):
    assert abs(study.c_bar_extrapolated - study.c_bar) <= 0.02 * abs(study.c_bar)


def test_cbar_zero_for_zero_source(study, mesh_fine):
    zero_flux = BoundaryFunctional.zeros(mesh_fine, Bnd.GAMMA_OMEGA)
    assert compute_cbar(study.lambda_star, study.means, zero_flux) == 0.0


def test_gamma_beta_converges_monotonically(study):
    lim = study.lambda_star**2 * float(np.sum(study.means**2))
    order = np.argsort(-np.abs(study.gammas))
    errs = [abs(study.records[i].gamma * study.records[i].beta - lim) for i in order]
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


def test_phi_limit_convergence(study):
    ga = np.abs(study.gammas)
    gaps = np.array([r.phi_gap for r in study.records])
    assert (gaps > 0).all()
    slope = np.polyfit(np.log10(ga), np.log10(gaps), 1)[0]
    assert slope >= 0.8


def test_phi_hat0_compatibility(study, mesh_fine):
    # the dopant flux datum integrates to +total_flux(s) over the dopant
    # boundary (divergence balance of the limit problem)
    from enzlab.fem import eigen_flux
    total = 0.0 + 0.0j
    for (lam_j, u_j), m_j in zip(study.cluster, study.means):
        total += (study.c_bar * study.lambda_star * m_j
                  * eigen_flux(mesh_fine, lam_j, u_j).total())
    assert abs(total - study.flux_s.total()) <= 1e-8 * abs(study.flux_s.total())


def test_deflated_psi_d_cstar_insensitive(mesh_fine, angular_cluster):
    lam_star, cluster = angular_cluster
    psi0 = deflated_psi_d(mesh_fine, lam_star, cluster)
    cfg = PhysicsConfig.from_k(math.sqrt(lam_star) + 0j, sources=RING_SOURCE)
    from enzlab.auxiliary import solve_psi_e, solve_s, exterior_system
    ext = exterior_system(mesh_fine, cfg)
    _, flux_s = solve_s(mesh_fine, cfg, system=ext)
    _, flux_e = solve_psi_e(mesh_fine, cfg, system=ext)
    area_enz = float(mesh_fine.tri_areas[mesh_fine.tri_region == int(Region.ENZ)].sum())

    def cstar_of(psi):
        k2 = lam_star
        beta = k2 * area_enz + flux_e.total() - psi_d_flux_total(mesh_fine, psi, k2)
        return -flux_s.total() / beta

    base = cstar_of(psi0)
    for alpha in (1.0, -0.5 + 0.3j):
        for _, u in cluster:
            shifted = ScalarField(mesh_fine, Region.DOPANT,
                                  psi0.values + alpha * u.values)
            assert abs(cstar_of(shifted) - base) <= 1e-8 * abs(base)


def test_deflated_dopant_solve_nonuniqueness(mesh_fine, angular_cluster):
    # adding cluster modes changes the interior corrector but not its trace
    lam_star, cluster = angular_cluster
    n_bnd = len(mesh_fine.boundary_nodes(Bnd.GAMMA_D))
    rng = np.random.default_rng(11)
    trace = rng.standard_normal(n_bnd) + 1j * rng.standard_normal(n_bnd)
    chi = deflated_dirichlet_solve(mesh_fine, lam_star, cluster, trace)
    _, u1 = cluster[0]
    chi_shift = ScalarField(mesh_fine, Region.DOPANT, chi.values + 0.5 * u1.values)
    assert np.abs(chi.trace(Bnd.GAMMA_D) - chi_shift.trace(Bnd.GAMMA_D)).max() < 1e-14
    assert h1_norm(chi_shift - chi) > 0.1 * h1_norm(chi)


def test_deflated_solve_breakdown_is_singular_system(mesh_fine, angular_cluster):
    # a zero cluster vector leaves an empty row in the bordered matrix
    lam_star, cluster = angular_cluster
    degenerate = cluster + [(lam_star, ScalarField.zeros(mesh_fine, Region.DOPANT))]
    n_bnd = len(mesh_fine.boundary_nodes(Bnd.GAMMA_D))
    with pytest.raises(SingularSystem):
        deflated_dirichlet_solve(mesh_fine, lam_star, degenerate,
                                 np.ones(n_bnd, dtype=complex))


def test_deflated_solve_holds_backward_error_contract(mesh_coarse, monkeypatch):
    # the patched factorization is of the bordered matrix with its largest
    # diagonal entry made 1e-3 larger, so every solve off it is wrong by
    # construction; the solve must raise instead of returning the field
    import scipy.sparse as sp
    from enzlab import fem

    exact = fem.factor

    def one_pivot_off(A):
        i = np.argmax(np.abs(A.diagonal()))
        E = sp.csc_matrix(([1e-3 * A[i, i]], ([i], [i])), shape=A.shape)
        return exact((A + E).tocsc())

    lam_star, cluster = resonant_cluster(mesh_coarse, LAM_RADIAL)
    n_bnd = len(mesh_coarse.boundary_nodes(Bnd.GAMMA_D))
    trace = np.ones(n_bnd, dtype=complex)
    deflated_dirichlet_solve(mesh_coarse, lam_star, cluster, trace)
    monkeypatch.setattr(fem, "factor", one_pivot_off)
    with pytest.raises(SingularSystem):   # backward error 1.1e-5 seen
        deflated_dirichlet_solve(mesh_coarse, lam_star, cluster, trace)


def _deflated_reference(mesh, lambda_star, cluster, trace, volume=None):
    """The deflated solve built from the interior node split by hand."""
    from enzlab import fem
    il = fem.split_nodes(mesh, Region.DOPANT, [Bnd.GAMMA_D])[0]
    M = fem.mass_matrix(mesh, Region.DOPANT)
    A = (fem.stiffness_matrix(mesh, Region.DOPANT) - lambda_star * M).tocsc()
    B = np.column_stack([(M @ u.values)[il] for _, u in cluster])
    D = fem.bordered(A[np.ix_(il, il)], B)
    vals = np.zeros(A.shape[0], dtype=complex)
    vals[mesh.region_pos(Region.DOPANT)[mesh.boundary_nodes(Bnd.GAMMA_D)]] = trace
    rhs = -(A @ vals)
    if volume is not None:
        rhs = rhs + volume
    order = np.append(fem.node_order(mesh, Region.DOPANT, [Bnd.GAMMA_D]),
                      len(il) + np.arange(B.shape[1]))
    x = fem.Factored(D, order).lu_solve(np.concatenate([rhs[il], np.zeros(B.shape[1])]))
    vals[il] = x[:len(il)]
    return vals


@pytest.mark.parametrize("case", ["angular_fine", "radial_coarse"])
def test_deflated_solve_equals_interior_split_reference(case, request, mesh_coarse):
    if case == "angular_fine":
        mesh = request.getfixturevalue("mesh_fine")
        lam_star, cluster = request.getfixturevalue("angular_cluster")
    else:
        mesh = mesh_coarse
        lam_star, cluster = resonant_cluster(mesh_coarse, LAM_RADIAL)
    rng = np.random.default_rng(5)
    n_bnd = len(mesh.boundary_nodes(Bnd.GAMMA_D))
    n_dop = len(mesh.region_nodes(Region.DOPANT))
    trace = rng.standard_normal(n_bnd) + 1j * rng.standard_normal(n_bnd)
    volume = rng.standard_normal(n_dop) + 1j * rng.standard_normal(n_dop)
    for vol in (None, volume):
        got = deflated_dirichlet_solve(mesh, lam_star, cluster, trace, volume=vol)
        assert np.array_equal(got.values,
                              _deflated_reference(mesh, lam_star, cluster, trace, vol))
