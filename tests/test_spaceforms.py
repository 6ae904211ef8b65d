import math

import numpy as np
import pytest

from serrinlab.spaceforms import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    ConeSection,
    geodesic_distance,
    space_form_from_id,
)

ALL_FORMS = [EUCLIDEAN, HYPERBOLIC, SPHERE]


def test_warping_triples():
    assert (EUCLIDEAN.h(2.0), EUCLIDEAN.h_dot(2.0), EUCLIDEAN.H(2.0)) == (2.0, 1.0, 2.0)
    assert HYPERBOLIC.h(1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert HYPERBOLIC.h_dot(1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert HYPERBOLIC.H(1.0) == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-15)


def test_hemisphere_boundary_handling():
    with pytest.raises(ValueError):
        SPHERE.check_radius(math.pi / 2)
    r = SPHERE.check_radius(math.pi / 2, inclusive=True)
    assert SPHERE.h(r) == pytest.approx(1.0, rel=1e-15)
    assert abs(SPHERE.h_dot(r)) <= 1e-15
    assert SPHERE.H(r) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        SPHERE.check_radius(math.pi / 2 + 1e-6, inclusive=True)


@pytest.mark.parametrize("sf", ALL_FORMS, ids=lambda s: s.name)
def test_first_integral_exact(sf):
    r_max = min(sf.r_max, 2.5)
    r = np.linspace(0.0, r_max * 0.99, 200)
    assert np.max(np.abs(sf.h_dot(r) + sf.curvature * sf.H(r) - 1.0)) <= 1e-12


@pytest.mark.parametrize("sf", ALL_FORMS, ids=lambda s: s.name)
def test_H_prime_matches_h_by_finite_differences(sf):
    r = np.linspace(0.05, min(sf.r_max * 0.9, 2.0), 100)
    step = 1e-5
    dH = (sf.H(r + step) - sf.H(r - step)) / (2 * step)
    assert np.max(np.abs(dH - sf.h(r))) <= 1e-8


@pytest.mark.parametrize("sf", ALL_FORMS, ids=lambda s: s.name)
def test_h_ddot_is_minus_K_h(sf):
    r = np.linspace(0.05, min(sf.r_max * 0.9, 2.0), 100)
    step = 1e-4
    ddh = (sf.h(r + step) - 2 * sf.h(r) + sf.h(r - step)) / step**2
    target = -sf.curvature * sf.h(r)
    assert np.max(np.abs(ddh - target)) <= 1e-6 * max(1.0, float(np.max(np.abs(sf.h(r)))))


def test_cone_convexity_angle_test():
    assert ConeSection(EUCLIDEAN, math.pi / 2).convex is True
    assert ConeSection(EUCLIDEAN, math.pi).convex is True
    assert ConeSection(EUCLIDEAN, 3 * math.pi / 2).convex is False


def test_cone_angle_validation():
    with pytest.raises(ValueError):
        ConeSection(EUCLIDEAN, 0.0)
    with pytest.raises(ValueError):
        ConeSection(EUCLIDEAN, 2 * math.pi + 0.1)
    ConeSection(EUCLIDEAN, 2 * math.pi)  # slit disk is admissible


@pytest.mark.parametrize("sf", ALL_FORMS, ids=lambda s: s.name)
def test_geodesic_distance_degenerate_cases(sf):
    # distance to the pole reduces to the radius
    r = np.array([0.3, 0.7, 1.2]) if sf.curvature <= 0 else np.array([0.3, 0.7, 1.2])
    r = np.minimum(r, sf.r_max * 0.9)
    d = geodesic_distance(sf, (r, np.full_like(r, 0.4)), (0.0, 0.0))
    assert np.allclose(d, r, rtol=1e-12, atol=1e-12)
    # same point gives zero
    assert geodesic_distance(sf, (0.5, 0.2), (0.5, 0.2)) == pytest.approx(0.0, abs=1e-7)


def test_geodesic_distance_euclidean_law_of_cosines():
    d = geodesic_distance(EUCLIDEAN, (1.0, math.pi / 3), (1.0, 0.0))
    assert d == pytest.approx(1.0, rel=1e-12)  # equilateral triangle


def test_space_form_from_id():
    assert space_form_from_id("euclidean").curvature == 0
    assert space_form_from_id("hyperbolic").curvature == -1
    assert space_form_from_id("sphere").curvature == 1
    with pytest.raises(ValueError):
        space_form_from_id("desitter")
