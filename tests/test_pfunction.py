import math

import numpy as np
import pytest

import serrinlab.pfunction as pfunction
import serrinlab.solver as solver
from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.oracles import (
    RadialSolutionSpaceForm,
    overdetermined_constant,
    sample_values,
    spaceform_u,
    spaceform_u_prime,
)
from serrinlab.pfunction import (
    hessian_proportionality_defect,
    max_principle_check,
    p_field,
    pfunction_suite,
    step3_identity,
    subharmonicity_probe,
)
from serrinlab.solver import metric_gradient, normal_derivative_gamma0, solve_linear_spaceform
from serrinlab.spaceforms import EUCLIDEAN, HYPERBOLIC, SPHERE, ConeSection

from reference import float_bits, obata_ode_profile, pfunction_report, step3_identity_analytic

FORMS = [(EUCLIDEAN, 1.0), (HYPERBOLIC, 1.0), (SPHERE, math.pi / 4)]


def grid_for(sf, R0, n=64, eps=0.0):
    cone = ConeSection(sf, math.pi / 2)
    return build_grid(cone, n, n, BoundaryRadius(R0, eps, 2))


# each statistic on u's fields, derived as pfunction_suite derives them


def p_of(g, u):
    return p_field(g, u, metric_gradient(g, u))


def max_principle(g, u):
    return max_principle_check(g, normal_derivative_gamma0(g, u), p_of(g, u))


def step3(g, u, c):
    return step3_identity(g, u, c, metric_gradient(g, u)[0])


def defect_of(g, u):
    return hessian_proportionality_defect(g, u, metric_gradient(g, u, return_coordinates=True)[2:])


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_p_constant_on_oracle_analytic(sf, R):
    # analytic derivatives: P = u'(d)^2 + u + K u^2 must equal c^2 to 1e-10
    sol = RadialSolutionSpaceForm(sf, 2, R)
    c2 = overdetermined_constant(sol) ** 2
    d = np.linspace(0.0, R, 500)
    P = np.asarray(spaceform_u_prime(sol, d)) ** 2 + np.asarray(spaceform_u(sol, d)) + sf.curvature * np.asarray(spaceform_u(sol, d)) ** 2
    assert float(np.max(np.abs(P - c2))) <= 1e-10


def test_p_field_values():
    g = grid_for(EUCLIDEAN, 1.0)
    sol = RadialSolutionSpaceForm(EUCLIDEAN, 2, 1.0)
    P = p_of(g, sample_values(sol, g))
    assert type(P) is np.ndarray and P.shape == (g.Nr, g.Nt)
    assert np.max(np.abs(P - 0.25)) <= 1e-12  # quadratic data: exact
    hyp = grid_for(HYPERBOLIC, 1.0)
    solh = RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)
    Ph = p_of(hyp, sample_values(solh, hyp))
    c2 = math.tanh(1.0) ** 2 / 4.0
    assert np.max(np.abs(Ph - c2)) <= 5e-4  # grid derivatives: O(h^2)
    zero = p_of(g, np.zeros((64, 64)))
    assert np.array_equal(zero, np.zeros((64, 64)))


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_subharmonicity_on_solved_fields(sf, R):
    g = grid_for(sf, R)
    u, rep = solve_linear_spaceform(g, 2)
    assert rep.converged
    P = p_of(g, u)
    _, frac, _ = subharmonicity_probe(g, P)
    assert frac == 0.0


def test_subharmonicity_flat_oracle_exact():
    # the flat radial oracle gives an exactly constant discrete P
    g = grid_for(EUCLIDEAN, 1.0)
    sol = RadialSolutionSpaceForm(EUCLIDEAN, 2, 1.0)
    P = p_of(g, sample_values(sol, g))
    min_lap, frac, _ = subharmonicity_probe(g, P)
    assert abs(min_lap) <= 1e-9
    assert frac == 0.0


def test_subharmonicity_violation_fraction_refines():
    fracs = []
    for n in (32, 64):
        g = grid_for(HYPERBOLIC, 1.0, n=n, eps=0.1)
        u, _ = solve_linear_spaceform(g, 2)
        _, frac, _ = subharmonicity_probe(g, p_of(g, u))
        fracs.append(frac)
    assert fracs[-1] <= max(fracs[0], 0.02)


def test_random_field_probe_reports_without_judging():
    g = grid_for(EUCLIDEAN, 1.0, n=16)
    rng = np.random.default_rng(3)
    min_lap, frac, tol = subharmonicity_probe(g, rng.standard_normal((16, 16)))
    assert np.isfinite(min_lap) and 0.0 <= frac <= 1.0 and tol > 0


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_max_principle_oracle_and_solved(sf, R):
    g = grid_for(sf, R)
    sol = RadialSolutionSpaceForm(sf, 2, R)
    mp = max_principle(g, sample_values(sol, g))
    assert mp["interior_bound_ok"] and mp["wall_sign_ok"]
    c_exact = overdetermined_constant(sol)
    assert mp["c"] == pytest.approx(c_exact, rel=5e-3)
    u, _ = solve_linear_spaceform(g, 2)
    mp2 = max_principle(g, u)
    assert mp2["interior_bound_ok"] and mp2["wall_sign_ok"]
    assert mp2["max_P"] <= mp2["c_squared"] * 1.02


def test_perturbed_domain_rigid_gap_opens():
    # off the rigid configuration the boundary data spreads, so max P detaches
    # from the mean-based reference c^2 while staying below the boundary max
    g = grid_for(HYPERBOLIC, 1.0, eps=0.1)
    u, _ = solve_linear_spaceform(g, 2)
    mp = max_principle(g, u)
    assert mp["rigid_gap"] > 1e-2 * mp["c_squared"]
    assert mp["interior_bound_ok"]
    g0 = grid_for(HYPERBOLIC, 1.0)
    u0, _ = solve_linear_spaceform(g0, 2)
    mp0 = max_principle(g0, u0)
    assert abs(mp0["rigid_gap"]) <= 2e-2 * mp0["c_squared"]


def test_step3_identity_euclidean_value():
    g = grid_for(EUCLIDEAN, 1.0)
    sol = RadialSolutionSpaceForm(EUCLIDEAN, 2, 1.0)
    lhs, rhs, resid = step3(g, sample_values(sol, g), overdetermined_constant(sol))
    assert lhs == pytest.approx(math.pi / 16, rel=1e-12)  # c^2 |Omega| exactly
    assert rhs == pytest.approx(math.pi / 16, rel=1e-3)
    assert abs(resid) <= 1e-2 * lhs


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_step3_identity_analytic_equality(sf, R):
    sol = RadialSolutionSpaceForm(sf, 2, R)
    lhs, rhs, resid = step3_identity_analytic(sol)
    assert abs(resid) <= 1e-8 * abs(lhs)


def test_step3_identity_analytic_higher_dimension():
    sol = RadialSolutionSpaceForm(HYPERBOLIC, 3, 1.2)
    lhs, _, resid = step3_identity_analytic(sol)
    assert abs(resid) <= 1e-8 * abs(lhs)


def test_step3_zero_field():
    g = grid_for(EUCLIDEAN, 1.0, n=16)
    lhs, rhs, resid = step3(g, np.zeros((16, 16)), 0.0)
    assert lhs == 0.0 and rhs == 0.0 and resid == 0.0


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_hessian_defect_refines_on_oracles(sf, R):
    defects = []
    for n in (32, 64):
        g = grid_for(sf, R, n=n)
        sol = RadialSolutionSpaceForm(sf, 2, R)
        defects.append(defect_of(g, sample_values(sol, g)))
    if sf.curvature == 0:
        assert defects[-1] <= 1e-12  # quadratic data: exactly proportional
    else:
        assert defects[1] <= 0.6 * defects[0]


def test_hessian_defect_contrast():
    g = grid_for(HYPERBOLIC, 1.0)
    u, _ = solve_linear_spaceform(g, 2)
    rigid = defect_of(g, u)
    gp = grid_for(HYPERBOLIC, 1.0, eps=0.1)
    up, _ = solve_linear_spaceform(gp, 2)
    perturbed = defect_of(gp, up)
    assert perturbed > 5 * rigid


def test_obata_profile_euclidean_closed_form():
    s = np.linspace(0.0, 1.0, 17)
    f = obata_ode_profile(2, 0, 0.25, s)
    assert np.max(np.abs(f - (0.25 - s * s / 4.0))) <= 1e-12


@pytest.mark.parametrize("sf,R", [(HYPERBOLIC, 1.0), (SPHERE, math.pi / 4)], ids=["Km1", "Kp1"])
def test_obata_profile_matches_oracle(sf, R):
    sol = RadialSolutionSpaceForm(sf, 2, R)
    s = np.linspace(0.0, R, 65)
    f = obata_ode_profile(2, sf.curvature, float(spaceform_u(sol, 0.0)), s)
    assert np.max(np.abs(f - np.asarray(spaceform_u(sol, s)))) <= 1e-8
    assert abs(f[-1]) <= 1e-8  # vanishes at the cap radius


def test_obata_profile_input_validation():
    with pytest.raises(ValueError):
        obata_ode_profile(2, 0, 0.1, [0.5, 0.2])
    with pytest.raises(ValueError):
        obata_ode_profile(2, 0, 0.1, [-0.1, 0.2])


@pytest.mark.parametrize("sf", [HYPERBOLIC, SPHERE], ids=lambda s: s.name)
def test_obata_profile_closed_form_cross_check(sf):
    # for K != 0 the ODE solution is (u_p + 1/(N K)) h_dot(s) - 1/(N K)
    N, K = 2, sf.curvature
    u_p = 0.21
    s = np.linspace(0.0, 0.9, 33)
    f = obata_ode_profile(N, K, u_p, s)
    closed = (u_p + 1.0 / (N * K)) * np.asarray(sf.h_dot(s)) - 1.0 / (N * K)
    assert np.max(np.abs(f - closed)) <= 1e-12


@pytest.mark.parametrize("sf,R", FORMS, ids=lambda v: getattr(v, "name", v))
def test_pfunction_suite_passes(sf, R):
    g = grid_for(sf, R)
    u, _ = solve_linear_spaceform(g, 2)
    rep = pfunction_suite(g, u)
    assert rep.passed, rep.to_dict()
    d = rep.to_dict()
    assert d["c_squared"] == pytest.approx(rep.c**2, rel=1e-15)


def test_pfunction_suite_oracle_field():
    g = grid_for(HYPERBOLIC, 1.0)
    sol = RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)
    rep = pfunction_suite(g, sample_values(sol, g))
    assert rep.passed
    assert abs(rep.step3_residual) <= 1e-2 * abs(rep.step3_lhs)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sf,R", [(HYPERBOLIC, 1.0), (SPHERE, math.pi / 4)], ids=["hyperbolic", "sphere"])
def test_pfunction_suite_is_the_per_statistic_forms_bit_for_bit(sf, R, eps):
    # one shared gradient and the defect's largest of three maxima give every
    # float of the report; the defect's vertex ring is where a reassociation
    # would show first
    g = grid_for(sf, R, eps=eps)
    u, _ = solve_linear_spaceform(g, 2)
    assert float_bits(pfunction_suite(g, u).to_dict()) == float_bits(pfunction_report(g, u).to_dict())


def test_pfunction_suite_derives_the_gradient_once(monkeypatch):
    # one metric gradient and one Gamma_0 normal derivative per suite,
    # wherever the name is looked up
    calls = {"metric_gradient": 0, "normal_derivative_gamma0": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        for module in (solver, pfunction):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    g = grid_for(HYPERBOLIC, 1.0, n=16, eps=0.1)
    u, _ = solve_linear_spaceform(g, 2)
    calls.update(dict.fromkeys(calls, 0))
    pfunction_suite(g, u)
    assert calls == {"metric_gradient": 1, "normal_derivative_gamma0": 1}
