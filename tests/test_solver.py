import math

import numpy as np
import pytest

from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.oracles import (
    RadialSolutionEuclidean,
    RadialSolutionSpaceForm,
    overdetermined_constant,
    sample_values,
)
from serrinlab.profiles import make_mean_curvature_profile, make_power_profile
from serrinlab.solver import (
    ScalarField,
    _operator_matrix,
    gradient_field,
    hessian_W_field,
    interior_cell_mask,
    laplace_beltrami_probe,
    metric_gradient,
    normal_derivative_gamma0,
    solve_Lf,
    solve_linear_spaceform,
)
from serrinlab.spaceforms import EUCLIDEAN, HYPERBOLIC, SPHERE, ConeSection

P2 = make_power_profile(2.0)
P3 = make_power_profile(3.0)


def quarter(sf=EUCLIDEAN):
    return ConeSection(sf, math.pi / 2)


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC], ids=lambda s: s.name)
def test_assembly_matches_operator_application(sf, eps):
    # the solver matrix at a = 1, N K = 0 is the Laplace probe on its valid cells
    rng = np.random.default_rng(7)
    grid = build_grid(quarter(sf), 12, 10, BoundaryRadius(1.0, eps, 2))
    u = rng.standard_normal((12, 10))
    A = _operator_matrix(grid, 2, 0)(np.ones((12, 10)))
    lhs = (A @ u.ravel()).reshape(12, 10)
    rhs, valid = laplace_beltrami_probe(grid, u)
    assert valid.sum() == 11 * 8
    assert np.max(np.abs(lhs - rhs)[valid]) <= 1e-12 * float(np.max(np.abs(lhs[valid])))


@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC], ids=lambda s: s.name)
def test_linear_solver_second_order(sf):
    if sf.curvature == 0:
        oracle = RadialSolutionEuclidean(P2, 2, 1.0)
    else:
        oracle = RadialSolutionSpaceForm(sf, 2, 1.0)
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(quarter(sf), n, n)
        u, rep = solve_linear_spaceform(grid, 2)
        assert rep.converged and rep.final_residual <= 1e-9
        errs.append(float(np.max(np.abs(u.values - sample_values(oracle, grid)))))
    assert errs[2] < errs[1] < errs[0]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_sphere_cap_solve_positive():
    grid = build_grid(quarter(SPHERE), 64, 64, R0=math.pi / 4)
    u, rep = solve_linear_spaceform(grid, 2)
    assert rep.converged
    assert np.min(u.values) > 0
    oracle = RadialSolutionSpaceForm(SPHERE, 2, math.pi / 4)
    assert np.max(np.abs(u.values - sample_values(oracle, grid))) <= 1e-4


def test_linear_solver_K_mismatch_rejected():
    grid = build_grid(quarter(), 16, 16)
    with pytest.raises(ValueError):
        solve_linear_spaceform(grid, 2, K=-1)


@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC], ids=lambda s: s.name)
def test_positivity_probe(sf):
    for eps in (0.0, 0.1):
        grid = build_grid(quarter(sf), 32, 32, BoundaryRadius(1.0, eps, 2))
        u, _ = solve_linear_spaceform(grid, 2)
        assert np.min(u.values) > 0


def test_flux_balance_discrete():
    # sum over Gamma_0 of f'(|grad u|) against the domain area (integrated equation)
    for profile in (P2, P3):
        grid = build_grid(quarter(), 64, 64)
        u, _ = solve_Lf(grid, profile)
        flux = float(
            np.sum(profile.f_prime(np.abs(normal_derivative_gamma0(grid, u.values))) * grid.gamma0_weights)
        )
        area = float(np.sum(grid.area_weights))
        assert abs(flux - area) <= 1e-2 * area


def test_laplacian_profile_single_linear_solve():
    grid = build_grid(quarter(), 32, 32)
    u_lin, rep_lin = solve_linear_spaceform(grid, 2, K=0)
    u_lf, rep_lf = solve_Lf(grid, P2)
    assert rep_lf.iterations == 1
    assert np.array_equal(u_lin.values, u_lf.values)


def test_p3_picard_monotone_convergence():
    oracle = RadialSolutionEuclidean(P3, 2, 1.0)
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(quarter(), n, n)
        u, rep = solve_Lf(grid, P3, tol=1e-8)
        assert rep.converged and rep.final_residual <= 1e-8
        errs.append(float(np.max(np.abs(u.values - sample_values(oracle, grid)))))
    assert errs[2] < errs[1] < errs[0]
    order = math.log2(errs[1] / errs[2])
    assert order >= 1.0


def test_p15_converges_with_damping():
    grid = build_grid(quarter(), 32, 32)
    p15 = make_power_profile(1.5)
    u, rep = solve_Lf(grid, p15, tol=1e-8)
    assert rep.converged
    oracle = RadialSolutionEuclidean(p15, 2, 1.0)
    assert np.max(np.abs(u.values - sample_values(oracle, grid))) <= 5e-4


def test_mean_curvature_converges():
    grid = build_grid(quarter(), 32, 32)
    mc = make_mean_curvature_profile()
    u, rep = solve_Lf(grid, mc, tol=1e-8)
    assert rep.converged
    oracle = RadialSolutionEuclidean(mc, 2, 1.0)
    assert np.max(np.abs(u.values - sample_values(oracle, grid))) <= 5e-4


@pytest.mark.parametrize(
    "profile, budget",
    [
        (make_power_profile(1.5), 25),
        (make_mean_curvature_profile(), 20),
        (make_power_profile(2.5), 15),
    ],
    ids=["p=1.5", "mean-curvature", "p=2.5"],
)
def test_picard_iteration_budget(profile, budget):
    # Anderson mixing on the warm-started stages keeps the total Picard count low
    grid = build_grid(quarter(), 32, 32)
    _, rep = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged
    assert rep.iterations <= budget, rep.iterations


@pytest.mark.parametrize(
    "profile, R0, converges",
    [
        (make_power_profile(4.0), 1.0, True),
        (make_mean_curvature_profile(), 1.5, True),
        (make_power_profile(1.1), 1.0, False),
        (make_power_profile(6.0), 1.0, False),
        (P3, 1e3, False),
    ],
    ids=["p=4", "mean-curvature-R1.5", "p=1.1", "p=6", "p=3-R1e3"],
)
def test_solver_envelope_converges_or_says_why(profile, R0, converges):
    grid = build_grid(quarter(), 32, 32, R0=R0)
    u, rep = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged is converges, rep.message
    if converges:
        exact = sample_values(RadialSolutionEuclidean(profile, 2, R0), grid)
        rel = np.max(np.abs(u.values - exact)) / np.max(np.abs(exact))
        assert rel <= 2e-3, rel
    else:
        assert "epsilon=" in rep.message, rep.message


def test_solve_Lf_schedule_validation():
    grid = build_grid(quarter(), 16, 16)
    with pytest.raises(ValueError):
        solve_Lf(grid, P3, schedule=[1e-2, 1e-1])
    with pytest.raises(ValueError):
        solve_Lf(grid, P3, schedule=[1e-1, 1e-8])
    with pytest.raises(ValueError):
        solve_Lf(build_grid(quarter(HYPERBOLIC), 16, 16), P3)


def test_normal_derivative_on_oracle_field():
    grid = build_grid(quarter(), 64, 64)
    for profile in (P2, P3):
        sol = RadialSolutionEuclidean(profile, 2, 1.0)
        dn = normal_derivative_gamma0(grid, sample_values(sol, grid))
        c = overdetermined_constant(sol)
        assert np.max(np.abs(dn + c)) <= 5e-3 * c
    # zero field gives zeros, perturbed solves give nonconstant data
    assert np.array_equal(normal_derivative_gamma0(grid, np.zeros((64, 64))), np.zeros(64))
    pert = build_grid(quarter(), 32, 32, BoundaryRadius(1.0, 0.1, 2))
    u, _ = solve_linear_spaceform(pert, 2)
    dn = normal_derivative_gamma0(pert, u.values)
    assert np.max(dn) - np.min(dn) > 1e-2


def test_gradient_field_matches_oracle():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    gf = gradient_field(grid, sample_values(sol, grid))
    theta = grid.theta_centers[None, :]
    gx_exact = -grid.r_centers * np.cos(theta) / 2.0
    gy_exact = -grid.r_centers * np.sin(theta) / 2.0
    assert np.max(np.abs(gf.values[..., 0] - gx_exact)) <= 1e-10
    assert np.max(np.abs(gf.values[..., 1] - gy_exact)) <= 1e-10
    with pytest.raises(ValueError):
        gradient_field(build_grid(quarter(HYPERBOLIC), 16, 16), np.zeros((16, 16)))


def test_hessian_W_field_radial_laplacian():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    W = hessian_W_field(grid, sample_values(sol, grid), P2)
    interior = interior_cell_mask(grid) & ~W.mask
    tr = np.trace(W.values, axis1=-2, axis2=-1)
    assert np.max(np.abs(tr[interior] + 1.0)) <= 5e-2
    assert np.max(np.abs((W.values + np.eye(2) / 2)[interior])) <= 5e-2
    assert W.masked_count == 0


def test_constant_field_fully_masked():
    grid = build_grid(quarter(), 16, 16)
    W = hessian_W_field(grid, np.full((16, 16), 0.7), P2)
    assert W.masked_count == grid.n_cells


def test_laplace_probe_annihilates_constants():
    grid = build_grid(quarter(HYPERBOLIC), 24, 24, BoundaryRadius(1.0, 0.1, 2))
    lap, valid = laplace_beltrami_probe(grid, np.full((24, 24), 3.25))
    assert np.max(np.abs(lap[valid])) <= 1e-10


def test_laplace_probe_consistency_smooth_field():
    # radial test field q = cosh(r): q'' + (cosh/sinh) q' = cosh + cosh = 2 cosh
    vals = []
    for n in (32, 64):
        grid = build_grid(quarter(HYPERBOLIC), n, n)
        r = grid.r_centers
        lap, valid = laplace_beltrami_probe(grid, np.cosh(r))
        exact = 2.0 * np.cosh(r)
        vals.append(float(np.max(np.abs((lap - exact)[valid]))))
    assert vals[1] <= vals[0] * 0.35


def test_metric_gradient_radial_field():
    grid = build_grid(quarter(HYPERBOLIC), 32, 32)
    sol = RadialSolutionSpaceForm(HYPERBOLIC, 2, 1.0)
    u_r, u_tan = metric_gradient(grid, sample_values(sol, grid))
    exact = -np.sinh(grid.r_centers) / (2.0 * math.cosh(1.0))
    assert np.max(np.abs(u_tan)) <= 1e-12
    assert np.max(np.abs(u_r - exact)) <= 2e-3


def test_solve_report_roundtrip_dict():
    grid = build_grid(quarter(), 16, 16)
    _, rep = solve_linear_spaceform(grid, 2)
    d = rep.to_dict()
    assert d["converged"] is True
    assert set(d) == {"iterations", "final_residual", "epsilon_schedule", "converged", "message"}
