import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import serrinlab.solver as solver
from serrinlab.identities import identity_suite
from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.oracles import RadialSolutionEuclidean, RadialSolutionSpaceForm, sample_values
from serrinlab.profiles import make_mean_curvature_profile, make_power_profile, profile_from_id
from serrinlab.solver import (
    LINEAR_TOL,
    _apply_stencil,
    _cell_difference,
    _dilate,
    _factor,
    _flux_terms,
    _gmres,
    _linear_solve,
    _operator_matrix,
    _scaled_residual,
    _separable,
    hessian_W_field,
    interior_cell_mask,
    laplace_beltrami_probe,
    mapped_gradient,
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


def kronecker_product_matrix(grid, N, K, a):
    """The operator's matrix as the sparse product of its stacked Kronecker factors.

    diag(inv_volume) [D_1 .. D_m] diag(c) [G_1; ..; G_m] (+ N K I), from 1-D
    factors built here and the weights of `_flux_terms`: the assembly the
    fill of `_operator_matrix` must reproduce bit for bit, dropped exact
    zeros included, once each row lists its columns in ascending order (the
    product leaves them unsorted).
    """
    inv_volume, _, terms = _flux_terms(grid)
    Nr, Nt = grid.Nr, grid.Nt
    diff_s = sp.diags([np.r_[-np.ones(Nr - 1), -2.0], 1.0], [0, 1], shape=(Nr, Nr))
    avg_s = sp.diags([np.r_[np.full(Nr - 1, 0.5), 1.0], 0.5], [0, 1], shape=(Nr, Nr))
    div_s = sp.diags([1.0, -1.0], [0, -1], shape=(Nr, Nr))
    diff_t = sp.diags([-1.0, 1.0], [0, 1], shape=(Nt - 1, Nt))
    avg_t = sp.diags([0.5, 0.5], [0, 1], shape=(Nt - 1, Nt))
    div_t = sp.diags([1.0, -1.0], [0, -1], shape=(Nt, Nt - 1))
    der_s = sp.csr_matrix(0.5 * _cell_difference(np.eye(Nr), 0, "one-sided", "dirichlet"))
    der_t = sp.csr_matrix(0.5 * _cell_difference(np.eye(Nt), 0, "mirror", "mirror"))

    def kron(r, t):
        return sp.kron(sp.identity(Nr) if r is None else r, sp.identity(Nt) if t is None else t, format="csr")

    # (divergence, face average of a, stencil) of each term, in the order of the term list
    s_face, t_face = (kron(div_s, None), avg_s @ a), (kron(None, div_t), (avg_t @ a.T).T)
    factors = [(*s_face, kron(diff_s, None)), (*s_face, kron(avg_s, der_t)),
               (*t_face, kron(None, diff_t)), (*t_face, kron(der_s, avg_t))]
    factors = factors if len(terms) == 4 else factors[::2]
    div = sp.diags(inv_volume.ravel()) @ sp.hstack([d for d, _, _ in factors], format="csr")
    grad = sp.vstack([g for _, _, g in factors], format="csr")
    c = np.concatenate([(w * avg).ravel() for (_, w, *_), (_, avg, _) in zip(terms, factors)])
    weighted = sp.csr_matrix((div.data * c[div.indices], div.indices, div.indptr), div.shape)
    A = weighted @ grad
    A = A + (N * K) * sp.identity(grid.n_cells, format="csr") if N * K != 0 else A
    A.sort_indices()
    return A


def coefficient_fields(shape, rng):
    """a = 1, U(0.01, 50), U(1e-6, 1e6), log-uniform over 1e-6..1e6, and a field that vanishes on a block."""
    patchy = rng.uniform(0.5, 2.0, shape)
    patchy[2:5, 3:6] = 0.0  # rows around it lose entries to exact zeros
    return {
        "one": np.ones(shape),
        "U(0.01,50)": rng.uniform(0.01, 50.0, shape),
        "U(1e-6,1e6)": rng.uniform(1e-6, 1e6, shape),
        "log-uniform": 10.0 ** rng.uniform(-6.0, 6.0, shape),
        "zero-block": patchy,
    }


def assert_same_matrix(got, want, name=""):
    """got has want's CSR arrays, entry bits included; a factor, a residual and a product leave got as it is."""
    csr, want = got.tocsr(), want.tocsr()
    assert np.array_equal(csr.indptr, want.indptr), name
    assert np.array_equal(csr.indices, want.indices), name
    assert np.array_equal(csr.data.view(np.int64), want.data.view(np.int64)), name
    data, offsets = got.data.copy(), got.offsets.copy()
    x = np.linspace(-1.0, 2.0, got.shape[0])
    _factor(got)
    _scaled_residual(got, x, np.ones_like(x))
    got @ x
    assert np.array_equal(got.data.view(np.int64), data.view(np.int64)), name
    assert np.array_equal(got.offsets, offsets), name


@pytest.mark.parametrize("shape", [(8, 8), (24, 20), (16, 40)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 2, 4.5, 2 * math.pi], ids=["pi/3", "pi/2", "4.5", "2pi"])
@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC, SPHERE], ids=lambda s: s.name)
def test_band_expansion_is_the_kronecker_product_bit_for_bit(sf, alpha, eps, shape):
    # same CSR arrays as the sorted product, every entry to the bit
    grid = build_grid(ConeSection(sf, alpha), *shape, BoundaryRadius(1.0, eps, 2))
    K = sf.curvature
    matrix = _operator_matrix(grid, 2, K)
    seed = [EUCLIDEAN, HYPERBOLIC, SPHERE].index(sf) * 1000 + int(100 * alpha) + int(10 * eps) + shape[1]
    for name, a in coefficient_fields(shape, np.random.default_rng(seed)).items():
        want, got = kronecker_product_matrix(grid, 2, K, a), matrix(a)
        assert_same_matrix(got, want, name)


def test_band_expansion_drops_exact_zeros():
    # a vanishing coefficient leaves rows whose product entries are all exact
    # zeros: CSR drops them, and with N K != 0 the shift alone is left on the diagonal
    grid = build_grid(ConeSection(HYPERBOLIC, math.pi / 2), 12, 10, BoundaryRadius(1.0, 0.1, 2))
    a = np.ones((12, 10))
    a[:, 4:7] = 0.0
    for K in (0, -1):
        want, got = kronecker_product_matrix(grid, 2, K, a), _operator_matrix(grid, 2, K)(a)
        assert got.tocsr().nnz < 12 * 10 * 9
        assert_same_matrix(got, want, "K=%d" % K)
    assert np.array_equal(_operator_matrix(grid, 2, -1)(np.zeros((12, 10))).toarray(), -2.0 * np.eye(120))


def test_band_expansion_memory_peak():
    # building and filling the hyperbolic 256^2 matrix at eps = 0.1 holds at
    # most 3.5x the bytes of its diagonals at its peak (2.34x; the Kronecker
    # product held 5.7x the bytes of its CSR matrix)
    grid = build_grid(ConeSection(HYPERBOLIC, math.pi / 2), 256, 256, BoundaryRadius(1.0, 0.1, 2))
    a = np.ones((256, 256))
    tracemalloc.start()
    try:
        A = _operator_matrix(grid, 2, -1)(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * A.data.nbytes, (peak, A.data.nbytes)


def test_refills_are_the_conversion_bit_for_bit():
    # every fill of one operator is a fresh operator's fill of the same a, and
    # the product's: a first fill with a zeroed on some columns, a = 1, which
    # has entries where that one had exact zeros, then generic fields with
    # and without exact zeros.  A matrix held across later fills keeps its entries
    grid = build_grid(ConeSection(HYPERBOLIC, math.pi / 2), 12, 10, BoundaryRadius(1.0, 0.1, 2))
    fields = coefficient_fields((12, 10), np.random.default_rng(11))
    blocked = np.ones((12, 10))
    blocked[:, 4:7] = 0.0
    sequence = [("blocked", blocked), ("one", fields["one"]), ("U(0.01,50)", fields["U(0.01,50)"]),
                ("zero-block", fields["zero-block"]), ("log-uniform", fields["log-uniform"])]
    for K in (0, -1):
        matrix, held = _operator_matrix(grid, 2, K), []
        for name, a in sequence:
            got = matrix(a)
            assert_same_matrix(got, _operator_matrix(grid, 2, K)(a), name)
            assert_same_matrix(got, kronecker_product_matrix(grid, 2, K, a), name)
            held.append((name, got, got.data.copy()))
        for name, got, data in held:
            assert np.array_equal(got.data.view(np.int64), data.view(np.int64)), name


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC, SPHERE], ids=lambda s: s.name)
def test_dia_operator_is_its_csr_bit_for_bit(sf, eps):
    # the product, the scaled residual and the factor's solution on the DIA
    # matrix are those on its CSR form, bit for bit: the product sums each
    # row's stored entries in offset order, which is column order, and a
    # stored exact zero adds +-0
    grid = build_grid(quarter(sf), 24, 20, BoundaryRadius(1.0, eps, 2))
    rng = np.random.default_rng(13)
    matrix = _operator_matrix(grid, 2, sf.curvature)
    x, b = rng.standard_normal(grid.n_cells), rng.standard_normal(grid.n_cells)

    def bits(v):
        return np.asarray(v, dtype=float).view(np.int64)

    for name, a in coefficient_fields((24, 20), rng).items():
        A = matrix(a)
        csr = A.tocsr()
        assert np.array_equal(bits(A @ x), bits(csr @ x)), name
        assert bits(_scaled_residual(A, x, b)) == bits(_scaled_residual(csr, x, b)), name
        lu, lu_csr = _factor(A), _factor(csr)
        assert (lu is None) == (lu_csr is None), name
        if lu is not None:
            assert np.array_equal(bits(lu.solve(b)), bits(lu_csr.solve(b))), name


def test_refill_memory_peak():
    # on the hyperbolic 256^2 matrix at eps = 0.1, with the previous matrix
    # still held as a Picard step holds it, each fill holds its fresh
    # diagonals and temporaries that stay below their bytes (1.67x them)
    grid = build_grid(ConeSection(HYPERBOLIC, math.pi / 2), 256, 256, BoundaryRadius(1.0, 0.1, 2))
    matrix = _operator_matrix(grid, 2, -1)
    fields = [np.full((256, 256), value) for value in (1.0, 2.0, 3.0)]
    peaks = []
    tracemalloc.start()
    try:
        for a in fields:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            A = matrix(a)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2.0 * A.data.nbytes, (peaks, A.data.nbytes)


@pytest.mark.parametrize("shape", [(8, 8), (16, 40), (40, 16), (1, 1), (3, 7)], ids=lambda s: "%dx%d" % s)
def test_dilation_matches_binary_dilation(shape):
    from scipy.ndimage import binary_dilation  # the oracle only; the package does without scipy.ndimage

    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    corner = np.zeros(shape, dtype=bool)
    corner[-1, -1] = True
    masks = [rng.random(shape) < p for p in (0.02, 0.1, 0.5)]
    masks += [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), corner]
    square = np.ones((5, 5), dtype=bool)
    for mask in masks:
        assert np.array_equal(_dilate(mask, 2), binary_dilation(mask, structure=square))


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
        errs.append(float(np.max(np.abs(u - sample_values(oracle, grid)))))
    assert errs[2] < errs[1] < errs[0]
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_sphere_cap_solve_positive():
    grid = build_grid(quarter(SPHERE), 64, 64, BoundaryRadius(math.pi / 4))
    u, rep = solve_linear_spaceform(grid, 2)
    assert rep.converged
    assert np.min(u) > 0
    oracle = RadialSolutionSpaceForm(SPHERE, 2, math.pi / 4)
    assert np.max(np.abs(u - sample_values(oracle, grid))) <= 1e-4


@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC], ids=lambda s: s.name)
def test_positivity_probe(sf):
    for eps in (0.0, 0.1):
        grid = build_grid(quarter(sf), 32, 32, BoundaryRadius(1.0, eps, 2))
        u, _ = solve_linear_spaceform(grid, 2)
        assert np.min(u) > 0


def test_flux_balance_discrete():
    # sum over Gamma_0 of f'(|grad u|) against the domain area (integrated equation)
    for profile in (P2, P3):
        grid = build_grid(quarter(), 64, 64)
        u, _ = solve_Lf(grid, profile)
        flux = float(
            np.sum(profile.f_prime(np.abs(normal_derivative_gamma0(grid, u))) * grid.gamma0_weights)
        )
        area = float(np.sum(grid.area_weights))
        assert abs(flux - area) <= 1e-2 * area


def test_laplacian_profile_single_linear_solve():
    grid = build_grid(quarter(), 32, 32)
    u_lin, rep_lin = solve_linear_spaceform(grid, 2)
    u_lf, rep_lf = solve_Lf(grid, P2)
    assert rep_lf.iterations == 1
    assert np.array_equal(u_lin, u_lf)


def test_laplacian_solve_Lf_is_the_linear_solve():
    # on every space form no regularization is used, so the report is the
    # linear solve's: an empty epsilon_schedule and the caller's tol
    for sf in (EUCLIDEAN, HYPERBOLIC, SPHERE):
        grid = build_grid(quarter(sf), 32, 32, BoundaryRadius(1.0, 0.1, 2))
        u_lin, rep_lin = solve_linear_spaceform(grid, 2, tol=1e-8)
        u_lf, rep_lf = solve_Lf(grid, P2, tol=1e-8)
        assert u_lf.tobytes() == u_lin.tobytes(), sf.name
        assert repr(rep_lf) == repr(rep_lin), sf.name
        assert rep_lf.epsilon_schedule == [] and rep_lf.converged, sf.name


def test_iteration_cap_reported_not_converged(monkeypatch):
    # a cap too small for the last stage ends the solve with a message that
    # names the cap and the stage's epsilon
    monkeypatch.setattr(solver, "MAX_ITERS", 2)
    grid = build_grid(quarter(), 16, 16, BoundaryRadius(1.0, 0.1, 2))
    _, rep = solve_Lf(grid, P3)
    assert rep.converged is False
    assert rep.message == f"iteration cap 2 hit at epsilon={solver.SCHEDULE[-1]}"


def test_p3_picard_monotone_convergence():
    oracle = RadialSolutionEuclidean(P3, 2, 1.0)
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(quarter(), n, n)
        u, rep = solve_Lf(grid, P3, tol=1e-8)
        assert rep.converged and rep.final_residual <= 1e-8
        errs.append(float(np.max(np.abs(u - sample_values(oracle, grid)))))
    assert errs[2] < errs[1] < errs[0]
    order = math.log2(errs[1] / errs[2])
    assert order >= 1.0


def test_p15_converges_with_damping():
    grid = build_grid(quarter(), 32, 32)
    p15 = make_power_profile(1.5)
    u, rep = solve_Lf(grid, p15, tol=1e-8)
    assert rep.converged
    oracle = RadialSolutionEuclidean(p15, 2, 1.0)
    assert np.max(np.abs(u - sample_values(oracle, grid))) <= 5e-4


def test_mean_curvature_converges():
    grid = build_grid(quarter(), 32, 32)
    mc = make_mean_curvature_profile()
    u, rep = solve_Lf(grid, mc, tol=1e-8)
    assert rep.converged
    oracle = RadialSolutionEuclidean(mc, 2, 1.0)
    assert np.max(np.abs(u - sample_values(oracle, grid))) <= 5e-4


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
    "profile, R0, eps, converges",
    [
        (make_power_profile(4.0), 1.0, 0.0, True),
        (make_mean_curvature_profile(), 1.5, 0.0, True),
        (make_power_profile(1.1), 1.0, 0.0, False),
        (make_power_profile(6.0), 1.0, 0.0, True),
        (P3, 1e3, 0.0, True),
        # p > 3 starts damped: undamped, this solve stalls at epsilon=0.1 after 16 iterations
        (make_power_profile(6.0), 1.0, 0.1, True),
        # f'(q) = q^999 overflows: the solve ends on its non-finite Picard coefficient, warning nothing
        (make_power_profile(1000.0), 1.0, 0.0, False),
    ],
    ids=["p=4", "mean-curvature-R1.5", "p=1.1", "p=6", "p=3-R1e3", "p=6-eps0.1", "p=1000"],
)
def test_solver_envelope_converges_or_says_why(profile, R0, eps, converges):
    grid = build_grid(quarter(), 32, 32, BoundaryRadius(R0, eps, 2))
    u, rep = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged is converges, rep.message
    if not converges:
        assert "epsilon=" in rep.message, rep.message
    elif eps == 0.0:
        exact = sample_values(RadialSolutionEuclidean(profile, 2, R0), grid)
        rel = np.max(np.abs(u - exact)) / np.max(np.abs(exact))
        assert rel <= 2e-3, rel


def test_radial_warm_start():
    # every solve starts from the closed-form radial profile (on the unperturbed
    # sector, the oracle itself) and mixes every stage by Anderson; pinned counts.
    # p = 1.5 and mean-curvature start undamped (11 and 8 iterations damped)
    grid = build_grid(quarter(), 32, 32)
    for profile, iters in [
        (make_power_profile(1.5), 6),
        (P3, 10),
        (make_mean_curvature_profile(), 6),
    ]:
        u, rep = solve_Lf(grid, profile, tol=1e-8)
        assert rep.converged and rep.iterations == iters, (profile.name, rep.iterations, rep.message)
        exact = sample_values(RadialSolutionEuclidean(profile, 2, 1.0), grid)
        assert np.max(np.abs(u - exact)) / np.max(np.abs(exact)) <= 2e-3, profile.name


@pytest.mark.parametrize("R0, eps", [(1.9, 0.1), (1.98, 0.2)])
def test_mean_curvature_past_the_slope_bound_converges(R0, eps):
    # max R/N > 1 but |Omega|/|Gamma_0| < 1: a solution exists.  The start caps
    # each column's R/N at 1, where g is finite, the solve converges without a
    # warning, and the measured c approaches g'(|Omega|/|Gamma_0|) as the grid refines
    mc = make_mean_curvature_profile()
    errors = []
    for n in (32, 64):
        grid = build_grid(quarter(), n, n, BoundaryRadius(R0, eps, 2))
        assert grid.radius.max_radius / 2 > 1.0 > grid.area_over_gamma0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, rep = solve_Lf(grid, mc, tol=1e-8)
        assert rep.converged, (n, rep.message)
        checks = {c.name: c for c in identity_suite(grid, u, mc).checks}
        errors.append(checks["c_measured_vs_formula"].value)
    assert errors[1] <= errors[0] / 2, errors


@pytest.mark.parametrize(
    "alpha, R0, eps, ratio",
    [(math.pi / 2, 2.05, 0.0, "1.025"), (math.pi / 3, 1.98, 0.2, "1.03655")],
    ids=["pi/2-R2.05", "pi/3-R1.98-eps0.2"],
)
def test_mean_curvature_no_solution_at_the_slope_bound(alpha, R0, eps, ratio):
    # |Omega|/|Gamma_0| >= sup f' = 1 rules out a solution (|V| < 1 on Gamma_0),
    # so the solve reports that without a Picard step
    grid = build_grid(ConeSection(EUCLIDEAN, alpha), 32, 32, BoundaryRadius(R0, eps, 2))
    _, rep = solve_Lf(grid, make_mean_curvature_profile(), tol=1e-8)
    assert not rep.converged and rep.iterations == 0
    assert rep.message == (f"no solution: |Omega|/|Gamma_0| = {ratio} reaches the slope bound 1 "
                           "of mean-curvature"), rep.message


@pytest.mark.parametrize(
    "profile",
    [make_power_profile(p) for p in (1.5, 2.5, 3.0, 4.0, 6.0)] + [make_mean_curvature_profile()],
    ids=lambda profile: profile.name,
)
def test_solver_envelope_sweep(profile):
    # every opening and perturbation converges; unperturbed sectors match the oracle
    for alpha in (math.pi / 2, math.pi / 3, 4.5):
        for eps in (0.0, 0.1):
            grid = build_grid(ConeSection(EUCLIDEAN, alpha), 16, 16, BoundaryRadius(1.0, eps, 2))
            u, rep = solve_Lf(grid, profile, tol=1e-8)
            assert rep.converged, (alpha, eps, rep.message)
            if eps == 0.0:
                exact = sample_values(RadialSolutionEuclidean(profile, 2, 1.0), grid)
                rel = np.max(np.abs(u - exact)) / np.max(np.abs(exact))
                assert rel <= 5e-3, (alpha, rel)


@pytest.mark.xfail(strict=True, reason="the absolute epsilon schedule swamps the gradient scale g'(R0/N)")
@pytest.mark.parametrize("R0", [1e-2, 1e-3])
def test_p15_small_sector_converged_means_accurate(R0):
    # converged=True must not hide a solution far from the radial oracle
    p15 = make_power_profile(1.5)
    grid = build_grid(quarter(), 32, 32, BoundaryRadius(R0))
    u, rep = solve_Lf(grid, p15, tol=1e-8)
    exact = sample_values(RadialSolutionEuclidean(p15, 2, R0), grid)
    err = np.max(np.abs(u - exact)) / np.max(np.abs(exact))
    assert not rep.converged or err <= 2e-3, err


class _Factor:
    """A SuperLU factor behind a Python object, so that a weak reference sees whether it is alive."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        return self._lu.solve(b)


class _CountingSpla:
    """Stands in for scipy.sparse.linalg inside serrinlab.solver; counts factorizations and those alive."""

    def __init__(self, real):
        self._real = real
        self.factorizations = 0
        self.alive = weakref.WeakSet()

    def splu(self, *args, **kwargs):
        self.factorizations += 1
        lu = _Factor(self._real.splu(*args, **kwargs))
        self.alive.add(lu)
        return lu

    def __getattr__(self, name):
        return getattr(self._real, name)


def _no_separable(monkeypatch):
    """Make the separable solve unavailable, so that every solve takes the SuperLU path."""
    monkeypatch.setattr(solver, "_separable", lambda grid, A: None)


def _record(monkeypatch, events: list, **names) -> None:
    """Append name to events on each call of serrinlab.solver's function `names[name]`."""
    for name, attribute in names.items():
        real = getattr(solver, attribute)
        monkeypatch.setattr(solver, attribute, lambda *args, _name=name, _real=real: events.append(_name) or _real(*args))


def _stages(events: list) -> list:
    """The events of each Picard stage, split where a stage regularizes its profile."""
    return " ".join(events).split("stage")[1:]


@pytest.mark.parametrize(
    "profile",
    [make_power_profile(1.5), make_mean_curvature_profile()],
    ids=["p=1.5", "mean-curvature"],
)
def test_perturbed_picard_factors_at_most_once_a_stage(profile, monkeypatch):
    # on a perturbed sector every Picard step first tries the separable part
    # of its own matrix, and only a stage where that missed factors: here at
    # most one step a stage builds a SuperLU factor.  Without the separable
    # part every step factors.  Either way no factor or separable part is
    # alive when the next step fills its matrix
    grid = build_grid(quarter(), 32, 32, BoundaryRadius(1.0, 0.1, 2))
    counting = _CountingSpla(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    separable, parts = solver._separable, []

    def watched_separable(grid, A):
        part = separable(grid, A)
        if part is not None:
            parts.append(weakref.ref(part))
        return part

    monkeypatch.setattr(solver, "_separable", watched_separable)
    alive_at_fill, events = [], []
    operator = solver._operator_matrix

    def alive():
        return len(counting.alive) + sum(part() is not None for part in parts)

    def watched(*args):
        matrix = operator(*args)
        return lambda a: alive_at_fill.append(alive()) or matrix(a)

    monkeypatch.setattr(solver, "_operator_matrix", watched)
    _record(monkeypatch, events, stage="regularize", factor="_factor")
    _, rep = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged
    factors = [stage.count("factor") for stage in _stages(events)]
    assert len(factors) == len(solver.SCHEDULE) and max(factors) <= 1, factors
    assert len(alive_at_fill) == rep.iterations + len(solver.SCHEDULE) and not any(alive_at_fill)

    _no_separable(monkeypatch)
    alive_at_fill.clear()
    _, rep_factored = solve_Lf(grid, profile, tol=1e-8)
    assert rep_factored.converged and rep_factored.iterations == rep.iterations
    assert counting.factorizations == rep.iterations + sum(factors)
    assert len(alive_at_fill) == rep.iterations + len(solver.SCHEDULE) and not any(alive_at_fill)


def test_picard_step_refines_its_iterate(monkeypatch):
    # a Picard step's GMRES starts from the iterate, which the step's solution
    # nears as Picard converges, and aims only as low as the step needs
    # (FORCING times its residual): on the benchmark's top p = 3 rung (64^2,
    # eps 0.24) no stage factors, and the steps take 12 GMRES cycles in all
    # (at LINEAR_TOL, 9 cycles and 3 SuperLU factors)
    grid = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.24, 2))
    events = []
    _record(monkeypatch, events, stage="regularize", factor="_factor", cycle="_gmres")
    _, rep = solve_Lf(grid, P3, tol=1e-8)
    assert rep.converged
    factors = [stage.count("factor") for stage in _stages(events)]
    assert len(factors) == len(solver.SCHEDULE) and not any(factors), factors
    assert events.count("cycle") <= rep.iterations + len(solver.SCHEDULE), events.count("cycle")


@pytest.mark.parametrize(
    "profile, n, eps",
    [(P3, 64, 0.24), (make_power_profile(1.5), 32, 0.1), (make_mean_curvature_profile(), 32, 0.1)],
    ids=["p=3", "p=1.5", "mean-curvature"],
)
def test_inexact_steps_keep_the_picard_iterations(profile, n, eps, monkeypatch):
    # steps solved to FORCING times their residual take the iterations, the
    # verdict and, within 1e-9, the solution of steps solved to LINEAR_TOL
    grid = build_grid(quarter(), n, n, BoundaryRadius(1.0, eps, 2))
    u, rep = solve_Lf(grid, profile, tol=1e-8)
    monkeypatch.setattr(solver, "FORCING", 0.0)
    u_exact, rep_exact = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged
    assert (rep.iterations, rep.converged, rep.message) == (
        rep_exact.iterations, rep_exact.converged, rep_exact.message)
    assert np.max(np.abs(u - u_exact)) <= 1e-9 * np.max(np.abs(u_exact))


def test_linear_solve_meets_the_tolerance_it_is_given(monkeypatch):
    # a looser tolerance stops GMRES sooner, above LINEAR_TOL but within it;
    # a linear rung meets the tol it is given whatever FORCING: LINEAR_TOL
    # when asked, and its default 1e-9 otherwise
    grid = build_grid(quarter(), 32, 32, BoundaryRadius(1.0, 0.1, 2))
    A = _operator_matrix(grid, 2, 0)(1.0 + 0.3 * np.random.default_rng(2).random((32, 32)))
    b = -np.ones(grid.n_cells)
    separable = _separable(grid, A)
    assert _scaled_residual(A, separable.solve(b), b) > 1e-4
    for tol in (1e-4, 1e-8):
        x, res = _linear_solve(A, b, separable, tol=tol)
        assert LINEAR_TOL < res == _scaled_residual(A, x, b) <= tol
    x, res = _linear_solve(A, b, separable, LINEAR_TOL)
    assert res == _scaled_residual(A, x, b) <= LINEAR_TOL
    monkeypatch.setattr(solver, "FORCING", 1.0)
    _, rep = solve_linear_spaceform(grid, 2, tol=LINEAR_TOL)
    assert rep.converged and rep.final_residual <= LINEAR_TOL
    _, rep = solve_linear_spaceform(grid, 2)
    assert rep.converged and rep.final_residual <= 1e-9


def _counting_separable_solves(monkeypatch) -> list:
    """Count the `_Separable.solve` calls inside serrinlab.solver: the preconditioner solves."""
    calls = []
    real = solver._Separable.solve
    monkeypatch.setattr(solver._Separable, "solve", lambda self, b: calls.append(1) or real(self, b))
    return calls


def test_perturbed_rung_stops_at_its_tolerance(monkeypatch):
    # a perturbed hyperbolic rung at tol = 1e-8 stops above LINEAR_TOL, after
    # fewer preconditioner solves than at LINEAR_TOL, and its u is within
    # 1e-9 relative of the LINEAR_TOL solve's
    grid = build_grid(quarter(HYPERBOLIC), 64, 64, BoundaryRadius(1.0, 0.1, 2))
    calls = _counting_separable_solves(monkeypatch)
    u, rep = solve_linear_spaceform(grid, 2, tol=1e-8)
    assert rep.converged and LINEAR_TOL < rep.final_residual <= 1e-8
    loose = len(calls)
    calls.clear()
    u_tight, rep_tight = solve_linear_spaceform(grid, 2, tol=LINEAR_TOL)
    assert rep_tight.converged and rep_tight.final_residual <= LINEAR_TOL
    assert 0 < loose < len(calls), (loose, len(calls))
    assert np.max(np.abs(u - u_tight)) <= 1e-9 * np.max(np.abs(u_tight))


@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC], ids=lambda s: s.name)
def test_unperturbed_rung_is_the_same_at_any_tolerance(sf, monkeypatch):
    # at eps = 0 the separable solve is exact up to roundoff: one
    # preconditioner solve meets LINEAR_TOL, so a looser tol keeps every bit
    grid = build_grid(quarter(sf), 64, 64)
    calls = _counting_separable_solves(monkeypatch)
    u, rep = solve_linear_spaceform(grid, 2, tol=1e-8)
    u_tight, rep_tight = solve_linear_spaceform(grid, 2, tol=LINEAR_TOL)
    assert len(calls) == 2 and rep.final_residual <= LINEAR_TOL
    assert np.array_equal(u.view(np.int64), u_tight.view(np.int64))
    assert rep.final_residual == rep_tight.final_residual and rep.converged and rep_tight.converged


def test_p6_misses_the_separable_part_at_most_once_a_stage(monkeypatch):
    # p = 6 at 64^2, eps 0.05 is a solve whose separable parts often miss;
    # each miss costs one GMRES cycle, after which the rest of its stage
    # factors.  The iterations and the verdict are those of factored steps
    grid = build_grid(quarter(), 64, 64, BoundaryRadius(1.0, 0.05, 2))
    p6 = make_power_profile(6.0)
    events = []
    _record(monkeypatch, events, stage="regularize", separable="_separable", factor="_factor")
    _, rep = solve_Lf(grid, p6, tol=1e-8)
    misses = [stage.count("separable factor") for stage in _stages(events)]
    assert sum(misses) > 0 and max(misses) <= 1, misses
    _no_separable(monkeypatch)
    _, rep_factored = solve_Lf(grid, p6, tol=1e-8)
    assert (rep.iterations, rep.converged, rep.message) == (
        rep_factored.iterations, rep_factored.converged, rep_factored.message)


@pytest.mark.parametrize(
    "profile",
    [make_power_profile(1.5), make_mean_curvature_profile()],
    ids=["p=1.5", "mean-curvature"],
)
def test_unperturbed_picard_factors_nothing(profile, monkeypatch):
    # at 128^2 and the first R0 that benchmark seed 1 draws, every Picard step
    # is the separable solve of the theta-mean coefficient, with no SuperLU
    # factor; the steps and the solution are those of factored steps
    R0 = 0.8 + 0.45 * float(np.random.default_rng(1).random())
    grid = build_grid(quarter(), 128, 128, BoundaryRadius(R0))
    counting = _CountingSpla(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    u, rep = solve_Lf(grid, profile, tol=1e-8)
    assert rep.converged and counting.factorizations == 0
    _no_separable(monkeypatch)
    u_ref, rep_ref = solve_Lf(grid, profile, tol=1e-8)
    assert rep_ref.converged and counting.factorizations > 0
    assert rep.iterations == rep_ref.iterations
    assert np.max(np.abs(u - u_ref)) <= 1e-9 * np.max(np.abs(u_ref))


@pytest.mark.parametrize("alpha", [math.pi / 3, math.pi / 2, 2 * math.pi], ids=["pi/3", "pi/2", "2pi"])
@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC, SPHERE], ids=lambda s: s.name)
def test_separable_solve_matches_superlu(sf, alpha):
    # Nr != Nt, so that a mixed-up axis cannot pass
    grid = build_grid(ConeSection(sf, alpha), 48, 40, BoundaryRadius(0.9))
    A = _operator_matrix(grid, 2, sf.curvature)(np.ones((48, 40)))
    b = -np.ones(grid.n_cells)
    x = _separable(grid, A).solve(b)
    direct = _factor(A).solve(b)
    assert _scaled_residual(A, x, b) <= LINEAR_TOL
    assert np.max(np.abs(x - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
@pytest.mark.parametrize(
    "cone, n, R0",
    [(quarter(HYPERBOLIC), 64, 1.0), (ConeSection(EUCLIDEAN, math.pi / 3), 64, 1.0), (quarter(SPHERE), 48, 0.7)],
    ids=["hyperbolic", "pi/3", "sphere"],
)
def test_separable_part_preconditions_a_perturbed_matrix(cone, n, R0, eps, monkeypatch):
    # the separable part of a perturbed sector's own matrix serves GMRES,
    # with no SuperLU factor
    grid = build_grid(cone, n, n, BoundaryRadius(R0, eps, 2))
    A = _operator_matrix(grid, 2, cone.space_form.curvature)(np.ones((n, n)))
    b = -np.ones(grid.n_cells)
    counting = _CountingSpla(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    x, res = _linear_solve(A, b, _separable(grid, A), LINEAR_TOL)
    assert res == _scaled_residual(A, x, b) <= LINEAR_TOL
    assert counting.factorizations == 0


def _counting_operator(monkeypatch) -> dict:
    """Count the operators `_operator_matrix` builds inside serrinlab.solver, and their fills."""
    counts = {"operators": 0, "fills": 0}
    real = solver._operator_matrix

    def operator(*args):
        counts["operators"] += 1
        matrix = real(*args)

        def fill(a):
            counts["fills"] += 1
            return matrix(a)

        return fill

    monkeypatch.setattr(solver, "_operator_matrix", operator)
    return counts


def test_each_solve_builds_one_operator_and_fills_it_once_a_step(monkeypatch):
    # a perturbed linear rung fills its own matrix only, with no second
    # (unperturbed) sector; an eps = 0 Picard step fills A(a) once, plus one
    # fill whose residual ends each stage
    counts = _counting_operator(monkeypatch)
    _, rep = solve_linear_spaceform(build_grid(quarter(HYPERBOLIC), 32, 32, BoundaryRadius(1.0, 0.1, 2)), 2)
    assert rep.converged and counts == {"operators": 1, "fills": 1}
    counts.update(operators=0, fills=0)
    _, rep = solve_Lf(build_grid(quarter(), 32, 32), make_power_profile(1.5))
    assert rep.converged
    assert counts == {"operators": 1, "fills": rep.iterations + len(solver.SCHEDULE)}


def test_each_iterate_takes_one_speed_field(monkeypatch):
    # the check that ends a stage and the next stage's first fill read the
    # same iterate, and its gradient once: one per Picard step, plus the start
    calls = []
    real = solver.metric_gradient
    monkeypatch.setattr(solver, "metric_gradient", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    _, rep = solve_Lf(build_grid(quarter(), 32, 32), make_power_profile(1.5))
    assert rep.converged and len(calls) == rep.iterations + 1


@pytest.mark.parametrize("R0", [1.55, 1.57])
def test_sphere_cap_near_the_equator(R0, monkeypatch):
    # Delta + N K nears resonance as R0 -> pi/2; the separable solve still
    # serves, and agrees with the factored solve as far as the conditioning
    # allows (at 64^2 and R0 = 1.57 they differ by 1.2e-9, each with a scaled
    # residual below 4e-16)
    grid = build_grid(quarter(SPHERE), 48, 48, BoundaryRadius(R0))
    counting = _CountingSpla(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    u, rep = solve_linear_spaceform(grid, 2)
    assert rep.converged and rep.final_residual <= LINEAR_TOL and counting.factorizations == 0
    _no_separable(monkeypatch)
    ref, rep_ref = solve_linear_spaceform(grid, 2)
    assert rep_ref.converged and counting.factorizations == 1
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_far_rung_falls_back_to_superlu(monkeypatch):
    # GMRES on the separable part of the matrix cannot reach LINEAR_TOL at
    # eps = 0.45, 128^2 and alpha = pi/3 in one cycle (it serves eps = 0.35):
    # that rung is factored, bit for bit the factored solve
    grid = build_grid(ConeSection(EUCLIDEAN, math.pi / 3), 128, 128, BoundaryRadius(1.0, 0.45, 2))
    counting = _CountingSpla(solver.spla)
    monkeypatch.setattr(solver, "spla", counting)
    u, rep = solve_linear_spaceform(grid, 2, tol=LINEAR_TOL)
    assert rep.converged and counting.factorizations == 1
    A = _operator_matrix(grid, 2, 0)(np.ones((128, 128)))
    b = -np.ones(grid.n_cells)
    assert np.array_equal(u.ravel(), _factor(A).solve(b))


def _pi3_k2_matrix(eps: float):
    grid = build_grid(ConeSection(EUCLIDEAN, math.pi / 3), 64, 64, BoundaryRadius(1.0, eps, 2))
    return _operator_matrix(grid, 2, 0)(np.ones((64, 64)))


def test_stale_solve_refines_a_cycle_that_stops_early(monkeypatch):
    # preconditioned by the stale eps = 0 factor, GMRES stops on its own
    # normwise estimate after 11 steps at a scaled residual of 1.8e-13; a
    # correction cycle on the residual brings it under LINEAR_TOL
    b = -np.ones(64 * 64)
    lu = _factor(_pi3_k2_matrix(0.0))
    A = _pi3_k2_matrix(0.059)
    x, res = _linear_solve(A, b, lu, LINEAR_TOL)
    assert res == _scaled_residual(A, x, b) <= LINEAR_TOL
    direct = _factor(A).solve(b)
    assert np.max(np.abs(x - direct)) <= 1e-10 * np.max(np.abs(direct))
    monkeypatch.setattr(solver, "REFINE_CYCLES", 0)
    assert _linear_solve(A, b, lu, LINEAR_TOL) is None


def test_linear_solve_refines_or_rejects_its_start():
    # every solution is checked against LINEAR_TOL: an exact factor's start is
    # kept bit for bit, a nearby factor's start is refined, and a start that
    # cannot be refined is rejected
    grid = build_grid(quarter(), 32, 32)
    matrix = _operator_matrix(grid, 2, 0)
    rng = np.random.default_rng(3)
    b = -np.ones(grid.n_cells)
    A = matrix(1.0 + 0.2 * rng.random((32, 32)))
    lu = _factor(A)
    x, res = _linear_solve(A, b, lu, LINEAR_TOL)
    assert np.array_equal(x, lu.solve(b)) and res == _scaled_residual(A, x, b)
    near = _factor(matrix(np.ones((32, 32))))
    assert _scaled_residual(A, near.solve(b), b) > LINEAR_TOL
    x, res = _linear_solve(A, b, near, LINEAR_TOL)
    assert res == _scaled_residual(A, x, b) <= LINEAR_TOL
    far = matrix(1.0 + 99.0 * rng.random((32, 32)))
    assert _linear_solve(far, b, near, LINEAR_TOL) is None


def test_gmres_meets_linear_tol_or_rejects(monkeypatch):
    # the GMRES of `_linear_solve` on the near and far matrices of
    # test_linear_solve_refines_or_rejects_its_start, preconditioned by the
    # factor of the unperturbed coefficient.  A cycle stops once the
    # preconditioned residual it tracks is rtol times its start's, and that
    # is the true one.  The near matrix meets LINEAR_TOL in one cycle; the
    # far one needs more steps than a cycle has, so its solve is rejected,
    # and cycles twice as long take it to LINEAR_TOL too
    grid = build_grid(quarter(), 32, 32)
    matrix = _operator_matrix(grid, 2, 0)
    rng = np.random.default_rng(3)
    b = -np.ones(grid.n_cells)
    near = matrix(1.0 + 0.2 * rng.random((32, 32)))
    far = matrix(1.0 + 99.0 * rng.random((32, 32)))
    lu = _factor(matrix(np.ones((32, 32))))
    for A in (near, far):
        r = b - A @ lu.solve(b)
        dx, early = _gmres(A, lu, r, 1e-8)
        assert early and np.linalg.norm(lu.solve(r - A @ dx)) <= 1.01e-8 * np.linalg.norm(lu.solve(r))

    def meets_linear_tol(A):
        x, res = _linear_solve(A, b, lu, LINEAR_TOL)
        direct = _factor(A).solve(b)
        return res == _scaled_residual(A, x, b) <= LINEAR_TOL and np.max(np.abs(x - direct)) <= 1e-10 * np.max(np.abs(direct))

    assert meets_linear_tol(near)
    assert _linear_solve(far, b, lu, LINEAR_TOL) is None
    monkeypatch.setattr(solver, "GMRES_RESTART", 2 * solver.GMRES_RESTART)
    assert meets_linear_tol(far)


@pytest.mark.parametrize("eps", [0.0, 0.2])
@pytest.mark.parametrize("sf", [EUCLIDEAN, HYPERBOLIC, SPHERE], ids=lambda s: s.name)
def test_separable_part_reads_only_its_matrix(sf, eps):
    # the separable part reads its bands off the matrix's entries alone: the
    # fill's DIA matrix and its CSR copy give the same factor and the same
    # solve, bit for bit, so no detail of the DIA layout reaches it
    rng = np.random.default_rng(5)
    grid = build_grid(ConeSection(sf, math.pi / 3), 24, 20, BoundaryRadius(0.9, eps, 3))
    A = _operator_matrix(grid, 2, sf.curvature)(0.5 + rng.random((24, 20)))
    dia, csr = _separable(grid, A), _separable(grid, A.tocsr())
    for got, want in zip(dia.factor, csr.factor):
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    b = rng.standard_normal(grid.n_cells)
    assert np.array_equal(dia.solve(b).view(np.int64), csr.solve(b).view(np.int64))


def test_each_grid_builds_its_operator_once(monkeypatch):
    # the solver's matrices build one `_flux_terms` per grid, the Laplace
    # probe reads the same one, and it goes with the grid
    cache = weakref.WeakKeyDictionary()
    monkeypatch.setattr(solver, "_FLUX_TERMS", cache)
    grid = build_grid(quarter(), 16, 12, BoundaryRadius(1.0, 0.1, 2))
    _operator_matrix(grid, 2, 0)(np.ones((16, 12)))
    operator = cache[grid]
    laplace_beltrami_probe(grid, np.ones((16, 12)))
    assert _flux_terms(grid) is operator and len(cache) == 1
    assert _flux_terms(build_grid(quarter(), 16, 12, BoundaryRadius(1.0, 0.1, 2))) is not operator
    gone = weakref.ref(operator[0])
    del grid, operator
    gc.collect()
    assert gone() is None


def test_each_grid_computes_its_cell_volumes_once(monkeypatch):
    # the volume ratio of every operator on a grid reads the volumes its
    # flux terms divide by, bit for bit, and they are computed once
    calls = []
    real = solver.cell_volumes
    monkeypatch.setattr(solver, "cell_volumes", lambda grid: calls.append(1) or real(grid))
    grid = build_grid(quarter(HYPERBOLIC), 16, 12, BoundaryRadius(1.0, 0.1, 2))
    for _ in range(2):
        A = _operator_matrix(grid, 2, -1)(np.ones((16, 12)))
    V = real(grid)
    inv_volume, volume, _ = _flux_terms(grid)
    assert len(calls) == 1 and np.array_equal(volume, V)
    assert np.array_equal(_separable(grid, A).ratio, V / V[:, :1])
    assert np.array_equal(inv_volume, 1.0 / V)


@pytest.mark.parametrize("shape", [(8, 8), (24, 20), (16, 40)], ids=lambda s: "%dx%d" % s)
def test_cross_stencils_are_the_cell_derivatives(shape):
    # the operator's cross-derivative stencils are the 'solution'-kind cell
    # derivatives, times the spacing: one closure table serves both
    grid = build_grid(ConeSection(HYPERBOLIC, 4.5), *shape, BoundaryRadius(1.0, 0.1, 2))
    _, _, terms = _flux_terms(grid)
    (_, _, _, der_t), (_, _, der_s, _) = terms[1], terms[3]
    q = np.random.default_rng(shape[1]).standard_normal(shape)
    radial = _apply_stencil(der_s, q, 0, shape[0]) / grid.ds
    angular = _apply_stencil(der_t, q, 1, shape[1]) / grid.dtheta
    assert np.array_equal(radial.view(np.int64), solver._d_ds(grid, q, "solution").view(np.int64))
    assert np.array_equal(angular.view(np.int64), solver._d_dtheta(grid, q, "solution").view(np.int64))


@pytest.mark.parametrize(
    "solve, message",
    [
        (lambda grid: solve_Lf(grid, P3), "linear stage solve failed at epsilon=0.1"),
        (lambda grid: solve_linear_spaceform(grid, 2, tol=1e-10), "missed 1.0e-10"),
    ],
    ids=["solve_Lf", "solve_linear_spaceform"],
)
def test_fresh_factor_is_checked(solve, message, monkeypatch):
    # a factor of the wrong matrix solves nothing here: its solution misses
    # the solve's tolerance and one GMRES cycle cannot refine it, so the
    # solve fails on its first step instead of taking that solution, and
    # says which tolerance it missed
    _no_separable(monkeypatch)
    monkeypatch.setattr(solver, "_factor", lambda A: _factor(sp.identity(A.shape[0], format="csc")))
    _, rep = solve(build_grid(quarter(), 16, 16))
    assert rep.converged is False and rep.iterations == 1
    assert message in rep.message, rep.message


def test_factor_of_singular_matrix_is_none():
    assert _factor(sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))) is None


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_separable_part_singular_or_not_finite_is_none(bad):
    # an exactly singular separable part (LAPACK's gttrf reports a zero
    # pivot), or a non-finite entry on a band it reads, gives no solver
    grid = build_grid(quarter(), 16, 12)
    A = _operator_matrix(grid, 2, 0)(np.ones((16, 12)))
    assert _separable(grid, A) is not None
    assert _separable(grid, 0.0 * A) is None
    A = A.tocsr()
    A[5, 5 + 12] = bad
    assert _separable(grid, A) is None


@pytest.mark.parametrize(
    "solve, message",
    [
        (lambda grid: solve_Lf(grid, P3), "linear stage solve failed at epsilon=0.1"),
        (lambda grid: solve_linear_spaceform(grid, 2), "linear solve produced non-finite values"),
    ],
    ids=["solve_Lf", "solve_linear_spaceform"],
)
def test_singular_factor_reported_not_converged(solve, message, monkeypatch):
    _no_separable(monkeypatch)
    monkeypatch.setattr(solver, "_factor", lambda A: None)
    _, rep = solve(build_grid(quarter(), 16, 16))
    assert rep.converged is False
    assert message in rep.message, rep.message


def test_solve_Lf_rejects_curved_space_form():
    # a quasilinear profile is Euclidean-only; the error names the profile space forms take
    for sf in (HYPERBOLIC, SPHERE):
        with pytest.raises(ValueError, match="space-form problems take the 'laplacian' profile"):
            solve_Lf(build_grid(quarter(sf), 16, 16), profile_from_id("p-laplacian:3"))


def test_normal_derivative_on_oracle_field():
    grid = build_grid(quarter(), 64, 64)
    for profile in (P2, P3):
        sol = RadialSolutionEuclidean(profile, 2, 1.0)
        dn = normal_derivative_gamma0(grid, sample_values(sol, grid))
        c = sol.c
        assert np.max(np.abs(dn + c)) <= 5e-3 * c
    # zero field gives zeros, perturbed solves give nonconstant data
    assert np.array_equal(normal_derivative_gamma0(grid, np.zeros((64, 64))), np.zeros(64))
    pert = build_grid(quarter(), 32, 32, BoundaryRadius(1.0, 0.1, 2))
    u, _ = solve_linear_spaceform(pert, 2)
    dn = normal_derivative_gamma0(pert, u)
    assert np.max(dn) - np.min(dn) > 1e-2


def test_gradient_field_matches_oracle():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    grad = mapped_gradient(grid, sample_values(sol, grid), P2)[0]
    theta = grid.theta_centers[None, :]
    gx_exact = -grid.r_centers * np.cos(theta) / 2.0
    gy_exact = -grid.r_centers * np.sin(theta) / 2.0
    assert np.max(np.abs(grad[..., 0] - gx_exact)) <= 1e-10
    assert np.max(np.abs(grad[..., 1] - gy_exact)) <= 1e-10
    with pytest.raises(ValueError):
        mapped_gradient(build_grid(quarter(HYPERBOLIC), 16, 16), np.zeros((16, 16)), P2)


def test_hessian_W_field_radial_laplacian():
    grid = build_grid(quarter(), 64, 64)
    sol = RadialSolutionEuclidean(P2, 2, 1.0)
    W = hessian_W_field(grid, mapped_gradient(grid, sample_values(sol, grid), P2))
    interior = interior_cell_mask(grid) & ~W.mask
    tr = np.trace(W.values, axis1=-2, axis2=-1)
    assert np.max(np.abs(tr[interior] + 1.0)) <= 5e-2
    assert np.max(np.abs((W.values + np.eye(2) / 2)[interior])) <= 5e-2
    assert W.masked_count == 0


def test_constant_field_fully_masked():
    grid = build_grid(quarter(), 16, 16)
    W = hessian_W_field(grid, mapped_gradient(grid, np.full((16, 16), 0.7), P2))
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


def test_derivative_closures_exact_on_quadratics():
    # each end closure of _d_ds / _d_dtheta is exact on the quadratics it assumes
    g = build_grid(quarter(), 16, 12, BoundaryRadius(1.0))
    s = g.s_centers[:, None] + 0.0 * g.theta_centers[None, :]
    t = 0.0 * s + g.theta_centers[None, :]

    def exact(got, want):
        return float(np.max(np.abs(got - want))) <= 1e-12

    # one-sided rows (the vertex, and every end of the generic kind): any quadratic
    q = 0.3 + 1.1 * s - 0.7 * s * s + 0.4 * t - 0.9 * t * t + 0.6 * s * t
    q_s, q_t = 1.1 - 1.4 * s + 0.6 * t, 0.4 - 1.8 * t + 0.6 * s
    assert exact(solver._d_ds(g, q, "generic"), q_s)
    assert exact(solver._d_dtheta(g, q, "generic"), q_t)
    assert exact(solver._d_ds(g, q, "solution")[:-1], q_s[:-1])
    # the quadratic Gamma_0 ghost: quadratics in s with u(1) = 0
    d = (1.0 - s) * (0.5 + 2.0 * s) * np.cos(t)
    assert exact(solver._d_ds(g, d, "solution"), (1.5 - 4.0 * s) * np.cos(t))
    # the wall mirror: quadratics in theta even about the wall
    for wall, rows in ((0.0, slice(0, -1)), (g.cone.alpha, slice(1, None))):
        e = (2.0 - s) * (t - wall) ** 2
        got = solver._d_dtheta(g, e, "solution")
        assert exact(got[:, rows], (2.0 * (2.0 - s) * (t - wall))[:, rows])


def test_solvers_return_arrays_of_the_grid_shape():
    # a solution is a plain float array of one value per cell, whichever solver ran
    grid = build_grid(quarter(), 12, 10, BoundaryRadius(1.0, 0.1, 2))
    hyp = build_grid(quarter(HYPERBOLIC), 12, 10, BoundaryRadius(1.0, 0.1, 2))
    for u, rep in (solve_Lf(grid, P3), solve_Lf(grid, P2), solve_linear_spaceform(hyp, 2)):
        assert rep.converged
        assert type(u) is np.ndarray and u.dtype == np.float64 and u.shape == (12, 10)
