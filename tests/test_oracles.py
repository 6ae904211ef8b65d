import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import serrinlab.oracles as oracles
from serrinlab.mesh import build_grid
from serrinlab.oracles import (
    RadialSolutionEuclidean,
    RadialSolutionSpaceForm,
    euclid_u,
    euclid_u_prime,
    overdetermined_constant,
    pde_residual_euclid,
    pde_residual_spaceform,
    sample_values,
    spaceform_u,
    spaceform_u_prime,
)
from serrinlab.profiles import (
    make_mean_curvature_profile,
    make_power_profile,
)
from serrinlab.spaceforms import EUCLIDEAN, HYPERBOLIC, SPHERE, ConeSection

P2 = make_power_profile(2.0)
P3 = make_power_profile(3.0)
MC = make_mean_curvature_profile()


def test_euclid_u_laplacian_closed_form():
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    assert euclid_u(sol, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert euclid_u(sol, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert euclid_u(sol, 0.5) == pytest.approx((1 - 0.25) / 4, abs=1e-15)


def test_euclid_u_p3_matches_hand_integral():
    sol = RadialSolutionEuclidean(P3, 2, 1.0)
    # integral of sqrt(s/2) from rho to 1 = (sqrt(2)/3)(1 - rho^(3/2))
    for rho in (0.0, 0.3, 0.9):
        expected = (math.sqrt(2.0) / 3.0) * (1.0 - rho**1.5)
        assert euclid_u(sol, rho) == pytest.approx(expected, abs=1e-10)
    assert euclid_u(sol, 0.0) == pytest.approx(2.0 / (3.0 * math.sqrt(2.0)), abs=1e-12)


def test_euclid_u_quadrature_cross_check():
    # independent quadrature of g'(s/N) against the package's closed form
    # through the conjugate g
    cases = (
        (P2, 2, 1.0), (P3, 2, 1.0), (P3, 3, 2.0), (MC, 2, 1.0),
        (make_power_profile(1.5), 2, 1.0), (make_power_profile(6.0), 2, 1.0),
        (MC, 2, 1.9),  # R/N = 0.95, near the slope bound
    )
    for profile, N, R in cases:
        sol = RadialSolutionEuclidean(profile, N, R)
        for rho in (0.0, 0.4 * R, 0.8 * R):
            ref, _ = quad(lambda s: float(profile.g_prime(s / N)), rho, R,
                          epsabs=1e-13, epsrel=1e-13, limit=300)
            assert euclid_u(sol, rho) == pytest.approx(ref, abs=1e-10)


def test_euclid_u_quad_fallback_without_conjugate(monkeypatch):
    calls = []

    def counted_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(oracles, "quad", counted_quad)
    rho = np.linspace(0.0, 1.0, 9)
    closed = euclid_u(RadialSolutionEuclidean(P3, 2, 1.0), rho)
    assert not calls
    fallback = euclid_u(RadialSolutionEuclidean(dataclasses.replace(P3, g=None), 2, 1.0), rho)
    assert len(calls) == len(rho) - 1  # rho = R is 0 without integrating
    assert np.max(np.abs(fallback - closed)) <= 1e-10


def test_euclid_u_domain_validation():
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    with pytest.raises(ValueError):
        euclid_u(sol, 1.5)
    with pytest.raises(ValueError):
        euclid_u(sol, -0.1)


def test_mean_curvature_radius_bound():
    # R/N must stay below the slope bound sup f' = 1
    RadialSolutionEuclidean(MC, 2, 1.0)
    with pytest.raises(ValueError):
        RadialSolutionEuclidean(MC, 2, 2.0)


def test_euclid_gradient_matches_finite_differences():
    # u' = -g'(rho/N): the Laplacian slope at R = 1 and the p = 3 slope at 0.5
    # are both -1/2, and central differences of u match u' at interior radii
    assert float(euclid_u_prime(RadialSolutionEuclidean(P2, 2, 1.0), 1.0)) == pytest.approx(-0.5, rel=1e-15)
    assert float(euclid_u_prime(RadialSolutionEuclidean(P3, 2, 1.0), 0.5)) == pytest.approx(-0.5, rel=1e-13)
    rho = np.linspace(0.1, 0.9, 9)
    step = 1e-6
    for profile in (P2, P3, MC):
        sol = RadialSolutionEuclidean(profile, 2, 1.0)
        du = (euclid_u(sol, rho + step) - euclid_u(sol, rho - step)) / (2 * step)
        assert np.allclose(du, euclid_u_prime(sol, rho), rtol=1e-6, atol=1e-8), profile.name


@pytest.mark.parametrize("profile", [P2, P3, MC], ids=lambda p: p.name)
def test_pde_residual_euclid_vanishes(profile):
    sol = RadialSolutionEuclidean(profile, 2, 1.0)
    for rho in np.linspace(0.01, 0.99, 100):
        assert abs(pde_residual_euclid(sol, (rho, 0.0))) <= 1e-9


def test_pde_residual_euclid_higher_dimension():
    sol = RadialSolutionEuclidean(P3, 4, 1.5)
    for rho in np.linspace(0.05, 1.45, 50):
        assert abs(pde_residual_euclid(sol, (rho, 0.0, 0.0, 0.0))) <= 1e-10


def test_spaceform_u_values():
    solH = RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)
    assert spaceform_u(solH, 1.0) == pytest.approx(0.0, abs=1e-15)
    expected = (math.cosh(1.0) - 1.0) / (2.0 * math.cosh(1.0))
    assert spaceform_u(solH, 0.0) == pytest.approx(expected, rel=1e-14)
    solS = RadialSolutionSpaceForm(SPHERE, 2, math.pi / 4)
    expected_s = (1.0 - math.cos(math.pi / 4)) / (2.0 * math.cos(math.pi / 4))
    assert spaceform_u(solS, 0.0) == pytest.approx(expected_s, rel=1e-14)


def test_spaceform_u_monotone_positive():
    for sf, R in ((EUCLIDEAN, 1.0), (HYPERBOLIC, 1.3), (SPHERE, 0.7)):
        sol = RadialSolutionSpaceForm(sf, 2, R)
        d = np.linspace(0.0, R, 64)
        u = np.asarray(spaceform_u(sol, d))
        assert np.all(np.diff(u) < 0)
        assert np.all(u[:-1] > 0)


@pytest.mark.parametrize(
    "sf,N,R",
    [(EUCLIDEAN, 2, 1.0), (HYPERBOLIC, 2, 1.0), (HYPERBOLIC, 3, 1.7), (SPHERE, 2, math.pi / 4), (SPHERE, 3, 0.6)],
    ids=["K0-N2", "Km1-N2", "Km1-N3", "Kp1-N2", "Kp1-N3"],
)
def test_pde_residual_spaceform_vanishes(sf, N, R):
    sol = RadialSolutionSpaceForm(sf, N, R)
    for d in np.linspace(R / 200, R * 0.995, 100):
        assert abs(pde_residual_spaceform(sol, d)) <= 1e-10


def test_overdetermined_constant_examples():
    assert overdetermined_constant(RadialSolutionEuclidean(P2, 2, 1.0)) == pytest.approx(0.5, abs=0)
    assert overdetermined_constant(RadialSolutionEuclidean(P3, 2, 1.0)) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert overdetermined_constant(RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)) == pytest.approx(
        math.tanh(1.0) / 2.0, rel=1e-15
    )


@pytest.mark.parametrize("profile", [P2, P3, MC], ids=lambda p: p.name)
def test_boundary_gradient_matches_constant_euclid(profile):
    sol = RadialSolutionEuclidean(profile, 2, 1.0)
    c = overdetermined_constant(sol)
    assert abs(-euclid_u_prime(sol, 1.0) - c) <= 1e-10


@pytest.mark.parametrize("sf,R", [(EUCLIDEAN, 1.0), (HYPERBOLIC, 1.0), (SPHERE, math.pi / 4)],
                         ids=lambda v: getattr(v, "name", v))
def test_boundary_gradient_matches_constant_spaceform(sf, R):
    sol = RadialSolutionSpaceForm(sf, 2, R)
    c = overdetermined_constant(sol)
    assert abs(-spaceform_u_prime(sol, R) - c) <= 1e-10


def test_sector_measure_consistency_euclidean():
    # |Omega|/|Gamma_0| = R/N on a planar sector, so g'(ratio) recovers c
    alpha = math.pi / 2
    for profile in (P2, P3):
        sol = RadialSolutionEuclidean(profile, 2, 1.0)
        area = alpha * 1.0**2 / 2.0
        length = alpha * 1.0
        c = overdetermined_constant(sol)
        assert float(profile.g_prime(area / length)) == pytest.approx(c, rel=1e-12)


def test_wall_centered_solution():
    # center on a wall point (half-ball over a flat wall of the half-plane)
    sol = RadialSolutionEuclidean(P2, 2, 0.5, center=(0.3, 0.0))
    assert euclid_u(sol, 0.5) == pytest.approx(0.0, abs=1e-15)
    # the slope along the wall, 0.2 from the center: -g'(rho/N) = -0.1
    assert float(euclid_u_prime(sol, 0.2)) == pytest.approx(-0.1, abs=1e-15)
    assert abs(pde_residual_euclid(sol, (0.3, 0.25))) <= 1e-12


def test_sample_values_matches_pointwise():
    cone = ConeSection(HYPERBOLIC, math.pi / 2)
    grid = build_grid(cone, 12, 12)
    sol = RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)
    vals = sample_values(sol, grid)
    assert vals[3, 5] == pytest.approx(float(spaceform_u(sol, grid.r_centers[3, 5])), rel=1e-14)
