import math

import numpy as np
import pytest
from scipy.integrate import quad

from serrinlab.profiles import (
    make_mean_curvature_profile,
    make_power_profile,
    profile_from_id,
    regularize,
)

ALL_PROFILES = [
    make_power_profile(2.0),
    make_power_profile(3.0),
    make_power_profile(1.5),
    make_mean_curvature_profile(),
]


def test_power_profile_examples():
    p2 = make_power_profile(2.0)
    assert p2.f_prime(3.0) == pytest.approx(3.0, abs=0)
    assert p2.g_prime(3.0) == pytest.approx(3.0, abs=0)
    p3 = make_power_profile(3.0)
    assert p3.g_prime(4.0) == pytest.approx(2.0, rel=1e-15)


def test_power_profile_rejects_sublinear():
    for bad in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(ValueError):
            make_power_profile(bad)


def test_round_trip_p15():
    p = make_power_profile(1.5)
    assert abs(p.g_prime(p.f_prime(0.7)) - 0.7) <= 1e-10


def test_mean_curvature_basics():
    mc = make_mean_curvature_profile()
    assert mc.f(0.0) == 0.0
    assert mc.f_prime(0.0) == 0.0
    assert abs(mc.g_prime(mc.f_prime(2.0)) - 2.0) <= 1e-10
    with pytest.raises(ValueError):
        mc.g_prime(1.0)
    with pytest.raises(ValueError):
        mc.g_prime(1.5)


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_round_trip_log_grid(profile):
    s_max = 1e3 if math.isinf(profile.slope_sup) else 1e2
    s = np.logspace(-6, math.log10(s_max), 60)
    err = np.abs(profile.g_prime(profile.f_prime(s)) - s) / np.maximum(1.0, s)
    assert float(err.max()) <= 1e-9
    # f(0) = f'(0) = 0 and strict convexity on the same grid
    assert float(profile.f(0.0)) == 0.0 and float(profile.f_prime(0.0)) == 0.0
    assert np.all(np.asarray(profile.f_second(s)) > 0.0)


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_fenchel_value_identity(profile):
    # g recovered by integrating g' from 0 must satisfy g(f'(t)) = t f'(t) - f(t)
    s_max = 1e2 if math.isinf(profile.slope_sup) else 10.0
    for t in np.logspace(-3, math.log10(s_max), 25):
        target = float(profile.f_prime(t))
        g_val, _ = quad(lambda s: float(profile.g_prime(s)), 0.0, target,
                        epsabs=1e-13, epsrel=1e-13, limit=200)
        expected = t * target - float(profile.f(t))
        assert abs(g_val - expected) <= 1e-10 * max(1.0, abs(expected))


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_conjugate_closed_form(profile):
    # the hand-derived conjugate g: g(0) = 0 and the Fenchel equality
    assert float(profile.g(0.0)) == 0.0
    s_max = 1e2 if math.isinf(profile.slope_sup) else 10.0
    t = np.logspace(-3, math.log10(s_max), 25)
    slope = profile.f_prime(t)
    expected = t * slope - profile.f(t)
    assert np.all(np.abs(profile.g(slope) - expected) <= 1e-12 * np.abs(expected))


def test_g_second_is_inverse_second_derivative():
    p3 = make_power_profile(3.0)
    # g'(s) = sqrt(s) so g''(s) = 1/(2 sqrt(s))
    for s in (0.25, 1.0, 4.0):
        assert p3.g_second(s) == pytest.approx(0.5 / math.sqrt(s), rel=1e-12)


def test_regularization_composition():
    p3 = make_power_profile(3.0)
    reg = regularize(p3, 0.1)
    t = np.array([0.0, 0.3, 1.7])
    q = np.hypot(0.1, t)
    assert np.allclose(reg.f_eps(t), q**3 / 3 - 0.1**3 / 3, rtol=0, atol=1e-15)
    # quadratic profile is regularization-invariant
    reg2 = regularize(make_power_profile(2.0), 0.1)
    assert reg2.f_eps(0.7) == pytest.approx(0.7**2 / 2, rel=1e-14)


def test_regularized_coefficient_extends_to_zero():
    reg = regularize(make_power_profile(3.0), 0.1)
    # a_eps(0) = f'(eps)/eps = eps for the cubic profile
    assert float(reg.coefficient(0.0)) == pytest.approx(0.1, rel=1e-12)
    t = np.array([1e-9, 1e-3])
    ratio = reg.f_eps_prime(t) / t
    assert np.allclose(ratio, reg.coefficient(t), rtol=1e-9)


def test_regularization_pointwise_convergence():
    p3 = make_power_profile(3.0)
    vals = [float(regularize(p3, e).f_eps(1.0)) for e in (1e-1, 1e-2, 1e-3, 1e-5)]
    errs = [abs(v - 1.0 / 3.0) for v in vals]
    assert errs[-1] <= 1e-9
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_regularization_monotone_in_epsilon():
    # d f_eps/d eps = eps (q^(p-2) - eps^(p-2)) with q = sqrt(eps^2 + t^2),
    # so f_eps is nondecreasing in eps for p >= 2 and nonincreasing for p <= 2
    t = np.linspace(0.0, 3.0, 50)
    ladder = [0.05, 0.1, 0.2, 0.4]
    for p in (2.0, 2.5, 3.0):
        prof = make_power_profile(p)
        vals = [regularize(prof, e).f_eps(t) for e in ladder]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(hi >= lo - 1e-14)
    prof = make_power_profile(1.5)
    vals = [regularize(prof, e).f_eps(t) for e in ladder]
    for lo, hi in zip(vals, vals[1:]):
        assert np.all(hi <= lo + 1e-14)


def test_regularize_requires_positive_epsilon():
    with pytest.raises(ValueError):
        regularize(make_power_profile(2.0), 0.0)


def test_profile_from_id():
    assert profile_from_id("laplacian").is_laplacian
    assert profile_from_id("p-laplacian:3").degeneracy_exponent == 3.0
    assert profile_from_id("mean-curvature").name == "mean-curvature"
    with pytest.raises(ValueError):
        profile_from_id("p-laplacian:abc")
    with pytest.raises(ValueError):
        profile_from_id("bilaplacian")
