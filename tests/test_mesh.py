import math

import numpy as np
import pytest

from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.spaceforms import EUCLIDEAN, HYPERBOLIC, SPHERE, ConeSection


def quarter(sf=EUCLIDEAN):
    return ConeSection(sf, math.pi / 2)


def test_cell_and_face_counts():
    g = build_grid(quarter(), 16, 16)
    assert g.n_cells == 256
    assert g.gamma0_weights.shape == (16,)
    assert g.gamma0_normals.shape == (16, 2)


def test_zero_perturbation_bitwise_equal():
    g0 = build_grid(quarter(), 16, 16)
    gz = build_grid(quarter(), 16, 16, BoundaryRadius(1.0, 0.0, 2))
    assert np.array_equal(g0.r_centers, gz.r_centers)
    assert np.array_equal(g0.area_weights, gz.area_weights)
    assert np.array_equal(g0.gamma0_weights, gz.gamma0_weights)


def test_euclid_measures_exact():
    # midpoint quadrature integrates r dr exactly, so the planar sector is exact
    g = build_grid(quarter(), 16, 16)
    area, length = g.area_weights.sum(), g.gamma0_weights.sum()
    assert area == pytest.approx(math.pi / 4, rel=1e-14)
    assert length == pytest.approx(math.pi / 2, rel=1e-14)


def test_hyperbolic_measures():
    g = build_grid(quarter(HYPERBOLIC), 64, 64)
    area, length = g.area_weights.sum(), g.gamma0_weights.sum()
    assert area == pytest.approx(math.pi / 2 * (math.cosh(1.0) - 1.0), rel=5e-3)
    # the constant-radius arc is a single latitude circle arc: quadrature exact
    assert length == pytest.approx(math.pi / 2 * math.sinh(1.0), rel=1e-14)


def test_refinement_order_of_measures():
    # Richardson estimate over three dyadic grids on the hyperbolic sector
    errs = []
    exact = math.pi / 2 * (math.cosh(1.0) - 1.0)
    for n in (16, 32, 64):
        area = build_grid(quarter(HYPERBOLIC), n, n).area_weights.sum()
        errs.append(abs(area - exact))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(o >= 1.8 for o in orders), orders


def test_perturbed_boundary_is_longer():
    base = build_grid(quarter(), 64, 64)
    pert = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.1, 2))
    assert pert.gamma0_weights.sum() > base.gamma0_weights.sum()


def test_perturbed_measures_match_quadrature_oracle():
    # independent fine quadrature of the perturbed sector area and arc length
    radius = BoundaryRadius(1.0, 0.1, 2)
    g = build_grid(quarter(), 64, 64, radius)
    theta = (np.arange(200000) + 0.5) * (math.pi / 2) / 200000
    area_ref = np.mean(radius(theta) ** 2 / 2) * (math.pi / 2)
    arc_ref = np.mean(np.sqrt(radius.derivative(theta) ** 2 + radius(theta) ** 2)) * (math.pi / 2)
    area, length = g.area_weights.sum(), g.gamma0_weights.sum()
    assert area == pytest.approx(float(area_ref), rel=1e-4)
    assert length == pytest.approx(float(arc_ref), rel=1e-4)


def test_outer_normals():
    g = build_grid(quarter(), 16, 16)
    assert np.allclose(g.gamma0_normals[5], [1.0, 0.0])
    gp = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.1, 2))
    j = int(np.argmin(np.abs(gp.theta_centers - math.pi / 8)))
    n = gp.gamma0_normals[j]
    assert n[1] != 0.0
    assert np.sign(n[1]) == -np.sign(gp.Rp_centers[j])
    assert np.hypot(*n) == pytest.approx(1.0, rel=1e-14)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(quarter(), 4, 16)
    with pytest.raises(ValueError):
        build_grid(quarter(SPHERE), 16, 16, BoundaryRadius(1.6))  # beyond the hemisphere interval
    with pytest.raises(ValueError):
        BoundaryRadius(1.0, -0.1, 2)
    with pytest.raises(ValueError):
        BoundaryRadius(1.0, 0.1, 0)


def test_grid_hash_distinguishes_configs():
    g1 = build_grid(quarter(), 16, 16)
    g2 = build_grid(quarter(), 16, 16, BoundaryRadius(1.0, 0.05, 2))
    g3 = build_grid(quarter(), 16, 16)
    assert g1.grid_hash() == g3.grid_hash()
    assert g1.grid_hash() != g2.grid_hash()


def test_area_weights_definition():
    # weights are h(r) dr dtheta (reducing to r dr dtheta in the plane)
    g = build_grid(quarter(HYPERBOLIC), 16, 16)
    i, j = 5, 7
    expected = math.sinh(g.r_centers[i, j]) * g.dr[j] * g.dtheta
    assert g.area_weights[i, j] == pytest.approx(expected, rel=1e-14)
