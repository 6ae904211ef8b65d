import math

import numpy as np
import pytest

import serrinlab.identities as identities
import serrinlab.solver as solver
from serrinlab.identities import (
    audit_W,
    c_consistency,
    identity_suite,
    integral_inequality_gap,
    pohozaev_residual,
    w12_diagnostic,
)
from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.oracles import (
    RadialSolutionEuclidean,
    sample_values,
)
from serrinlab.profiles import make_mean_curvature_profile, make_power_profile
from serrinlab.solver import (
    MatrixField,
    hessian_W_field,
    interior_cell_mask,
    mapped_gradient,
    normal_derivative_gamma0,
    solve_Lf,
)
from serrinlab.spaceforms import EUCLIDEAN, ConeSection

from reference import (
    _trace,
    float_bits,
    identity_report,
    newton_gap,
    oracle_W_field,
    proportionality_defect,
    s2_consistency_gap,
    s2_minor_form,
    s2_of_matrix,
)

P2 = make_power_profile(2.0)
P3 = make_power_profile(3.0)


def quarter():
    return ConeSection(EUCLIDEAN, math.pi / 2)


# each statistic on u's fields, derived as identity_suite derives them


def w_field(grid, u, profile):
    return hessian_W_field(grid, mapped_gradient(grid, u, profile))


def pohozaev(grid, u, profile):
    speed = mapped_gradient(grid, u, profile)[3]
    return pohozaev_residual(grid, u, profile, speed, normal_derivative_gamma0(grid, u))


def inequality_gap(grid, u, profile):
    mapped = mapped_gradient(grid, u, profile)
    W = hessian_W_field(grid, mapped)
    return integral_inequality_gap(grid, u, W, mapped)


def c_of(grid, u, profile):
    return c_consistency(grid, normal_derivative_gamma0(grid, u), profile)


def test_s2_examples():
    assert s2_of_matrix(np.eye(2)) == pytest.approx(1.0, abs=0)
    assert s2_of_matrix(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=0)
    assert s2_of_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0, abs=1e-14)


def test_s2_minor_form_definition():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = s2_minor_form(A)
    assert np.allclose(S, np.array([[-1.0 + 5.0, -3.0], [-2.0, -4.0 + 5.0]]))


def test_s2_consistency_random_matrices():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for _ in range(200):
            A = rng.standard_normal((n, n))
            assert s2_consistency_gap(A) <= 1e-12 * max(1.0, float(np.abs(A).max()) ** 2)


def test_newton_gap_examples():
    gap = newton_gap(np.eye(2))
    assert gap == pytest.approx(0.0, abs=1e-15)
    assert proportionality_defect(np.eye(2)) == 0.0
    gap = newton_gap(np.diag([1.0, 0.0]))
    assert gap == pytest.approx(0.25, abs=1e-15)
    gap = newton_gap(np.diag([2.0, 1.0]))
    assert gap == pytest.approx(0.25, abs=1e-15)


def test_newton_gap_random_witnessed_products():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for _ in range(2000):
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            B = Q @ np.diag(rng.random(n)) @ Q.T
            B = 0.5 * (B + B.T)
            C = rng.standard_normal((n, n))
            C = 0.5 * (C + C.T)
            A = B @ C
            assert newton_gap(A) >= -1e-12


def test_newton_equality_case_forces_proportionality():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for _ in range(100):
            lam, mu = rng.random() + 0.1, rng.standard_normal()
            A = (lam * np.eye(n)) @ (mu * np.eye(n))
            assert abs(newton_gap(A)) <= 1e-12
            assert proportionality_defect(A) <= 1e-12


@pytest.mark.parametrize("profile", [P2, P3], ids=lambda p: p.name)
def test_oracle_W_field_is_minus_identity_over_N(profile):
    grid = build_grid(quarter(), 32, 32)
    sol = RadialSolutionEuclidean(profile, 2, 1.0)
    W = oracle_W_field(sol, grid)
    assert W.masked_count == 0
    dev = np.max(np.abs(W.values + np.eye(2) / 2.0))
    assert dev <= 1e-13
    rep = audit_W(grid, W)
    gap_check = next(c for c in rep.checks if c.name == "newton_gap_min")
    assert gap_check.value >= -1e-10


def test_audit_W_discrete_radial_laplacian_refines():
    devs = []
    for n in (32, 64):
        grid = build_grid(quarter(), n, n)
        sol = RadialSolutionEuclidean(P2, 2, 1.0)
        W = w_field(grid, sample_values(sol, grid), P2)
        rep = audit_W(grid, W)
        sup = next(c for c in rep.checks if c.name == "W_plus_id_over_N_sup_interior")
        devs.append(sup.value)
        assert rep.passed
    assert devs[1] < devs[0] * 0.5


def test_audit_W_perturbed_defect_persists():
    devs = []
    for n in (32, 64):
        grid = build_grid(quarter(), n, n, BoundaryRadius(1.0, 0.1, 2))
        u, _ = solve_Lf(grid, P2)
        W = w_field(grid, u, P2)
        keep = interior_cell_mask(grid) & ~W.mask
        devs.append(float(np.max(np.abs((W.values + np.eye(2) / 2.0)[keep]))))
    assert all(d > 0.1 for d in devs)


def test_pohozaev_radial_disk():
    # slit-disk grid (alpha = 2 pi): both sides approach the closed-form pi/4
    cone = ConeSection(EUCLIDEAN, 2 * math.pi)
    grid = build_grid(cone, 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    u = sample_values(sol, grid)
    lhs, rhs, resid = pohozaev(grid, u, P2)
    assert lhs == pytest.approx(math.pi / 4, rel=1e-2)
    assert rhs == pytest.approx(math.pi / 4, rel=1e-2)
    assert abs(resid) <= 1e-2 * abs(lhs)


def test_pohozaev_sector_scaling():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    u = sample_values(sol, grid)
    lhs, rhs, resid = pohozaev(grid, u, P2)
    assert lhs == pytest.approx(math.pi / 16, rel=1e-2)
    assert abs(resid) <= 1e-2 * abs(lhs)
    zero_lhs, zero_rhs, zero_resid = pohozaev(grid, np.zeros((64, 64)), P2)
    assert zero_lhs == 0.0 and zero_rhs == 0.0 and zero_resid == 0.0


def test_pohozaev_refines_at_first_order():
    sol = RadialSolutionEuclidean(P3, 2, 1.0)
    resids = []
    for n in (32, 64, 128):
        grid = build_grid(quarter(), n, n)
        _, _, resid = pohozaev(grid, sample_values(sol, grid), P3)
        resids.append(abs(resid))
    order = math.log2(resids[0] / resids[2]) / 2.0
    assert order >= 1.0, (resids, order)


def test_integral_inequality_equality_on_convex_oracle():
    grid = build_grid(quarter(), 64, 64)
    for profile in (P2, P3):
        sol = RadialSolutionEuclidean(profile, 2, 1.0)
        u = sample_values(sol, grid)
        gap, tol, equality = inequality_gap(grid, u, profile)
        assert gap >= -tol
        assert equality, (gap, tol)


def test_integral_inequality_zero_field():
    grid = build_grid(quarter(), 16, 16)
    zero = np.zeros((16, 16))
    gap, _, _ = inequality_gap(grid, zero, P2)
    assert gap == 0.0


def test_integral_inequality_solved_perturbed_sign():
    grid = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.1, 2))
    u, _ = solve_Lf(grid, P2)
    gap, tol, _ = inequality_gap(grid, u, P2)
    assert gap >= -tol


def test_c_consistency_values():
    grid = build_grid(quarter(), 64, 64)
    u, _ = solve_Lf(grid, P2)
    mean, formula, spread = c_of(grid, u, P2)
    assert formula == pytest.approx(0.5, rel=1e-12)
    assert mean == pytest.approx(0.5, rel=1e-3)
    assert spread <= 1e-10
    u3, _ = solve_Lf(grid, P3)
    mean3, formula3, _ = c_of(grid, u3, P3)
    assert formula3 == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert abs(mean3 - formula3) / formula3 <= 2e-2


def test_c_spread_positive_on_perturbed_domain():
    grid = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.1, 2))
    u, _ = solve_Lf(grid, P2)
    _, _, spread = c_of(grid, u, P2)
    assert spread > 1e-2


def test_w12_diagnostic_radial_value():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    W = w_field(grid, sample_values(sol, grid), P2)
    # ||-Id/2||_F^2 = 1/2 pointwise, so the norm tends to sqrt(|Omega|/2)
    assert w12_diagnostic(grid, W) == pytest.approx(math.sqrt(math.pi / 8), rel=1e-3)
    empty = MatrixField(np.zeros((64, 64, 2, 2)), np.zeros((64, 64), dtype=bool))
    assert w12_diagnostic(grid, empty) == 0.0


def test_w12_stability_for_p15():
    p15 = make_power_profile(1.5)
    norms = []
    for n in (32, 64):
        grid = build_grid(quarter(), n, n)
        u, _ = solve_Lf(grid, p15)
        W = w_field(grid, u, p15)
        norms.append(w12_diagnostic(grid, W))
    assert abs(norms[1] - norms[0]) <= 0.1 * abs(norms[0])


def test_identity_suite_passes_on_oracle_and_solved():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    rep = identity_suite(grid, sample_values(sol, grid), P2)
    assert rep.passed, rep.to_dict()
    u, _ = solve_Lf(grid, P2)
    rep2 = identity_suite(grid, u, P2)
    assert rep2.passed, rep2.to_dict()


def test_identity_suite_nonconvex_oracle_informational():
    cone = ConeSection(EUCLIDEAN, 3 * math.pi / 2)
    grid = build_grid(cone, 48, 48)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    rep = identity_suite(grid, sample_values(sol, grid), P2)
    assert rep.passed  # equality audits still pass; inequality is unjudged
    gap_check = next(c for c in rep.checks if c.name == "s2_integral_inequality_gap")
    assert gap_check.passed is None


def test_equality_propagation_constant_reported():
    # when W hugs -Id/N on all unmasked cells, the Neumann spread is bounded
    # by a multiple of the W defect plus discretization error; the constant is
    # measured and reported rather than fixed in advance
    grid = build_grid(quarter(), 64, 64)
    u, _ = solve_Lf(grid, P2)
    W = w_field(grid, u, P2)
    keep = interior_cell_mask(grid) & ~W.mask
    tau = float(np.max(np.abs((W.values + np.eye(2) / 2.0)[keep])))
    _, _, spread = c_of(grid, u, P2)
    disc = (1.0 / 64) ** 2
    C = spread / (tau + disc)
    print(f"equality propagation constant C = {C:.3f} (tau={tau:.2e}, spread={spread:.2e})")
    assert spread <= max(C, 1.0) * (tau + disc)


def test_mean_curvature_profile_through_suite():
    grid = build_grid(quarter(), 48, 48)
    mc = make_mean_curvature_profile()
    sol = RadialSolutionEuclidean(mc, 2, 1.0)
    rep = identity_suite(grid, sample_values(sol, grid), mc)
    assert rep.passed, rep.to_dict()


@pytest.mark.parametrize("shape", [(40, 30, 2, 2), (1200, 3, 3), (2, 2), (3, 3)])
def test_s2_contractions_bitwise_equal_matrix_product_traces(shape):
    # tr(A) and tr(A^2) are contracted directly; they must equal the trace of
    # the matrix product bit for bit, on C-ordered, transposed and Fortran stacks
    rng = np.random.default_rng(7)
    A = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    for M in (A, np.swapaxes(A, -1, -2), np.asfortranarray(A)):
        tr = np.trace(M, axis1=-2, axis2=-1)
        tr_sq = np.trace(np.einsum("...ij,...jk->...ik", M, M), axis1=-2, axis2=-1)
        assert np.asarray(_trace(M)).tobytes() == np.asarray(tr).tobytes()
        assert np.asarray(s2_of_matrix(M)).tobytes() == np.asarray(0.5 * (tr * tr - tr_sq)).tobytes()


@pytest.mark.parametrize("shape", [(5, 7, 2, 2), (4, 3, 3)])
def test_s2_algebra_on_stacks_matches_per_matrix(shape):
    rng = np.random.default_rng(11)
    A = rng.normal(size=shape)
    n = shape[-1]
    flat = A.reshape(-1, n, n)
    # per-matrix references: S2 as the sum of the principal 2x2 minors
    s2_ref = np.array([sum(M[i, i] * M[j, j] - M[i, j] * M[j, i]
                           for i in range(n) for j in range(i + 1, n)) for M in flat])
    tr = np.trace(flat, axis1=1, axis2=2)
    expected = {
        s2_of_matrix: s2_ref,
        s2_minor_form: np.array([-M.T + np.trace(M) * np.eye(n) for M in flat]),
        s2_consistency_gap: np.zeros(len(flat)),
        newton_gap: (n - 1) / (2.0 * n) * tr * tr - s2_ref,
    }
    for fn, ref in expected.items():
        stacked = fn(A)
        per_matrix = np.array([fn(M) for M in flat])
        assert stacked.shape == shape[:-2] + ref.shape[1:]
        np.testing.assert_allclose(stacked.reshape(ref.shape), per_matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(per_matrix, ref, rtol=0, atol=1e-12)
    # a witnessed stack: A = B C with B symmetric PSD and C symmetric
    X = rng.normal(size=shape)
    B = X @ np.swapaxes(X, -1, -2)
    C = X + np.swapaxes(X, -1, -2)
    assert np.min(newton_gap(B @ C)) >= -1e-12


def _random_W(shape, rng):
    """W entries over 16 decades, some +0.0 and -0.0, stored as hessian_W_field stores them."""
    comp = rng.uniform(-1.0, 1.0, (2, 2) + shape) * 10.0 ** rng.uniform(-8.0, 8.0, (2, 2) + shape)
    comp[rng.random(comp.shape) < 0.05] = 0.0
    comp[rng.random(comp.shape) < 0.05] = -0.0
    return MatrixField(np.moveaxis(comp, (0, 1), (2, 3)), np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("shape", [(60, 70), (90, 91), (64, 128), (96, 96)])
def test_component_algebra_is_the_general_forms_bit_for_bit(shape):
    # each statistic of W's own algebra (MatrixField) against its general stack form,
    # cell by cell, signed zeros included; from 8192 cells on numpy stores the
    # general minor form transposed, and einsum sums S2_ij x_i y_j by columns
    rng = np.random.default_rng(3)
    W = _random_W(shape, rng)
    A = np.ascontiguousarray(W.values)
    x, y = (np.moveaxis(rng.normal(size=(2,) + shape) * 10.0 ** rng.uniform(-8, 8, (2,) + shape), 0, -1)
            for _ in range(2))
    S = s2_minor_form(A)
    contracted = np.einsum("...ij,...i,...j->...", S, np.ascontiguousarray(x), np.ascontiguousarray(y))
    pairs = [
        (W.tr, _trace(A)),
        (W.s2, s2_of_matrix(A)),
        (W.newton_gap(), newton_gap(A)),
        (W.consistency_gap(), s2_consistency_gap(A)),
        (W.contract(x, y), contracted),
        *((m, S[..., i, j]) for m, (i, j) in zip(W.minor, ((0, 0), (0, 1), (1, 0), (1, 1)))),
    ]
    for got, want in pairs:
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_w12_diagnostic_is_the_general_form_cell_by_cell():
    # with one cell unmasked the diagnostic is that cell's Frobenius norm times
    # its weight, so a reassociated sum of squares shows
    grid = build_grid(quarter(), 16, 16)
    W = _random_W((16, 16), np.random.default_rng(4))
    frob2 = np.sum(np.ascontiguousarray(W.values) ** 2, axis=(-2, -1))
    for k in range(0, 256, 3):
        mask = np.ones((16, 16), dtype=bool)
        mask.flat[k] = False
        want = float(np.sqrt(np.sum(frob2[~mask] * grid.area_weights[~mask])))
        assert w12_diagnostic(grid, MatrixField(W.values, mask)) == want


def _solved(profile, alpha, eps, n=32):
    grid = build_grid(ConeSection(EUCLIDEAN, alpha), n, n, BoundaryRadius(1.0, eps, 2))
    u, rep = solve_Lf(grid, profile)
    assert rep.converged
    return grid, u


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize(
    "profile,alpha",
    [(P3, math.pi / 2), (make_power_profile(1.5), math.pi / 2),
     (make_mean_curvature_profile(), math.pi / 2), (P2, math.pi / 3)],
    ids=["p3", "p1.5", "mean-curvature", "laplacian-pi3"],
)
def test_identity_suite_is_the_general_forms_bit_for_bit(profile, alpha, eps):
    # the component forms sum in the general forms' order: every float of the
    # report, signed zeros included, is the reference's
    grid, u = _solved(profile, alpha, eps)
    assert float_bits(identity_suite(grid, u, profile).to_dict()) == float_bits(
        identity_report(grid, u, profile).to_dict())


def test_identity_suite_bit_for_bit_with_masked_cells():
    # a flat patch makes degenerate cells, so W.mask and the masked branches
    # of every check are exercised; an affine field has W = 0 up to roundoff
    grid, u = _solved(P3, math.pi / 2, 0.1)
    u = u.copy()
    u[10:18, 12:20] = u[14, 16]
    assert identity_suite(grid, u, P3).masked_cells > 0
    x = grid.r_centers * np.cos(grid.theta_centers)
    for field in (u, 0.3 - 0.25 * x):
        rep = identity_suite(grid, field, P3)
        assert float_bits(rep.to_dict()) == float_bits(identity_report(grid, field, P3).to_dict())


def test_identity_suite_derives_each_field_once(monkeypatch):
    # one mapped gradient, one W and one Gamma_0 normal derivative per suite,
    # wherever the name is looked up; the Cartesian derivatives are u's once
    # (in the mapped gradient) and each component of V's once (in W)
    calls = {"mapped_gradient": 0, "hessian_W_field": 0, "normal_derivative_gamma0": 0, "_cartesian_derivatives": 0}
    kinds = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_cartesian_derivatives":
                kinds.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        for module in (solver, identities):
            if hasattr(module, name):
                counted(module, name)
    grid, u = _solved(P3, math.pi / 2, 0.1, n=16)
    identity_suite(grid, u, P3)
    assert calls == {"mapped_gradient": 1, "hessian_W_field": 1, "normal_derivative_gamma0": 1,
                     "_cartesian_derivatives": 3}
    assert kinds == ["solution", "generic", "generic"]
