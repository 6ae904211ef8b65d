"""Reference forms that the lab's statistics are tested against.

- The general (..., n, n) stack forms of the S_2 algebra.  For N = 2,
  `serrinlab.identities` computes the same statistics on the four component
  arrays of W, in the same summation order.
- `identity_report` and `pfunction_report`: the two audit reports assembled
  from these forms and each statistic's own function.  The suites must give
  the same report, float for float.
- Ground truths that only tests use: the proportionality defect of one
  matrix, the Obata-type radial ODE, the analytic W of a radial oracle and
  the radial quadrature of the step-3 P-function identity.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from serrinlab.identities import (
    AuditCheck,
    AuditReport,
    c_consistency,
    pohozaev_residual,
    tol_discrete,
)
from serrinlab.oracles import RadialSolutionEuclidean, RadialSolutionSpaceForm
from serrinlab.pfunction import (
    PFieldReport,
    max_principle_check,
    p_field,
    step3_identity,
    subharmonicity_probe,
)
from serrinlab.solver import (
    MatrixField,
    _beta_centers,
    _cell_difference,
    _d_ds,
    _d_dtheta,
    grid_h,
    hessian_W_field,
    interior_cell_mask,
    mapped_gradient,
    metric_gradient,
    normal_derivative_gamma0,
)

# ---------------------------------------------------------------------------
# matrix algebra: each function takes one matrix or a stack of them (matrix
# axes last) and returns one value per matrix


def _trace(A: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...", A)


def s2_of_matrix(A):
    """Second elementary symmetric function via the trace formula.

    tr(A^2) is contracted directly, without forming A^2.  On a C-ordered
    stack einsum sums each diagonal entry of A^2 and then the diagonal in the
    order trace(einsum("...ij,...jk->...ik", A, A)) does, so the value is
    bitwise the same; other layouts sum in another order, hence the copy.
    """
    A = np.ascontiguousarray(A, dtype=float)
    tr = _trace(A)
    return 0.5 * (tr * tr - np.einsum("...ij,...ji->...", A, A))


def s2_minor_form(A) -> np.ndarray:
    """Cofactor-style form S2_ij(A) = -a_ji + delta_ij Tr(A)."""
    A = np.asarray(A, dtype=float)
    return -np.swapaxes(A, -1, -2) + _trace(A)[..., None, None] * np.eye(A.shape[-1])


def s2_consistency_gap(A):
    """|(1/2) sum_ij S2_ij a_ij - S2(A)|, an exact algebraic identity."""
    A = np.asarray(A, dtype=float)
    return np.abs(0.5 * np.einsum("...ij,...ij->...", s2_minor_form(A), A) - s2_of_matrix(A))


def newton_gap(A):
    """Gap (N-1)/(2N) Tr(A)^2 - S2(A); nonnegative for A = BC, B sym PSD, C sym."""
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    tr = _trace(A)
    return (n - 1) / (2.0 * n) * tr * tr - s2_of_matrix(A)


def proportionality_defect(A) -> float:
    """Sup-norm distance of A from (Tr(A)/N) Id (the Newton equality case)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return float(np.max(np.abs(A - (np.trace(A) / n) * np.eye(n))))


# ---------------------------------------------------------------------------
# the audit reports from the general forms


def identity_report(grid, u, profile) -> AuditReport:
    """`identity_suite`'s report on the general forms.

    The forms run on C-ordered copies of W, grad u and V, the layout their
    einsum summation order is stated for.
    """
    grad, V, degenerate, speed = mapped = mapped_gradient(grid, u, profile)
    du_dnu = normal_derivative_gamma0(grid, u)
    W = hessian_W_field(grid, mapped)
    A = np.ascontiguousarray(W.values)
    n = A.shape[-1]
    interior = interior_cell_mask(grid) & ~W.mask
    unmasked = ~W.mask
    report = AuditReport(masked_cells=W.masked_count, total_cells=int(W.mask.size))

    tr = _trace(A)
    tol_tr = tol_discrete(grid, 1.0)
    dev_int = float(np.max(np.abs(tr[interior] + 1.0))) if interior.any() else float("nan")
    report.add(AuditCheck("trace_W_plus_one_interior", dev_int, None, None,
                          extras={"cells": int(interior.sum())}))
    bulk = interior & (grid.s_centers[:, None] >= 0.1)
    dev_bulk = float(np.max(np.abs(tr[bulk] + 1.0))) if bulk.any() else float("nan")
    report.add(AuditCheck("trace_W_plus_one_bulk", dev_bulk, tol_tr,
                          bool(dev_bulk <= tol_tr) if bulk.any() else None,
                          extras={"cells": int(bulk.sum())}))
    gaps = newton_gap(A)
    min_gap = float(np.min(gaps[unmasked])) if unmasked.any() else float("nan")
    report.add(AuditCheck("newton_gap_min", min_gap, tol_tr,
                          bool(min_gap >= -tol_tr) if unmasked.any() else None,
                          extras={"cells": int(unmasked.sum())}))
    radial_defect = A + np.eye(n) / n
    dev = float(np.max(np.abs(radial_defect[interior]))) if interior.any() else float("nan")
    report.add(AuditCheck("W_plus_id_over_N_sup_interior", dev, None, None))

    worst = float(np.max(s2_consistency_gap(A)[unmasked])) if unmasked.any() else 0.0
    report.add(AuditCheck("s2_trace_vs_minor_form", worst, 1e-12, bool(worst <= 1e-12)))

    lhs, rhs, resid = pohozaev_residual(grid, u, profile, speed, du_dnu)
    denom = max(abs(lhs), abs(rhs), 1e-30)
    tol_p = tol_discrete(grid, denom)
    report.add(AuditCheck("pohozaev_residual", abs(resid), tol_p, bool(abs(resid) <= tol_p),
                          extras={"lhs": lhs, "rhs": rhs, "relative": abs(resid) / denom}))

    s2 = s2_of_matrix(A)
    second = np.einsum("...ij,...i,...j->...", s2_minor_form(A),
                       np.ascontiguousarray(V), np.ascontiguousarray(grad))
    keep = ~(W.mask | degenerate)
    w = grid.area_weights
    gap = float(np.sum((2.0 * s2 * u + second)[keep] * w[keep]))
    scale = float(np.sum((np.abs(2.0 * s2 * u) + np.abs(second))[keep] * w[keep]))
    tol = tol_discrete(grid, max(scale, 1e-30))
    convex = grid.cone.convex
    report.add(AuditCheck("s2_integral_inequality_gap", gap, tol, bool(gap >= -tol) if convex else None,
                          extras={"equality": bool(abs(gap) <= tol), "convex": convex}))

    mean, formula, spread = c_consistency(grid, du_dnu, profile)
    rel_c = abs(mean - formula) / max(abs(formula), 1e-30)
    tol_c = max(2e-2, 0.5 * grid_h(grid))
    report.add(AuditCheck("c_measured_vs_formula", rel_c, tol_c, bool(rel_c <= tol_c),
                          extras={"c_mean": mean, "c_formula": formula, "spread": spread}))
    frob2 = np.sum(A**2, axis=(-2, -1))
    w12 = float(np.sqrt(np.sum(frob2[unmasked] * w[unmasked])))
    report.add(AuditCheck("w12_diagnostic", w12, None, None))
    return report


def stacked_hessian_defect(grid, u) -> float:
    """`hessian_proportionality_defect` on its own differences, its maximum over one stack."""
    N, K = 2, grid.cone.space_form.curvature
    sf = grid.cone.space_form
    R = grid.R_centers[None, :]
    Rp = grid.Rp_centers[None, :]
    Rpp = grid.radius.second_derivative(grid.theta_centers)[None, :]
    s = grid.s_centers[:, None]
    beta = _beta_centers(grid)
    h = grid.h_centers
    hdot = sf.h_dot(grid.r_centers)

    us = _d_ds(grid, u, "solution")
    ut = _d_dtheta(grid, u, "solution")
    uss = _cell_difference(u, 0, "one-sided", "one-sided", second=True) / (grid.ds * grid.ds)
    utt = _cell_difference(u, 1, "mirror", "mirror", second=True) / (grid.dtheta * grid.dtheta)
    ust = _d_dtheta(grid, us, "solution")

    u_r = us / R
    u_t = ut - beta * us
    u_rr = uss / (R * R)
    u_rt = ust / R - us * Rp / (R * R) - beta * uss / R
    u_tt = utt - 2.0 * beta * ust + beta * beta * uss - s * (Rpp / R - 2.0 * (Rp / R) ** 2) * us

    phi = -1.0 / N - K * u
    d_rr = u_rr - phi
    d_rt = (u_rt - (hdot / h) * u_t) / h
    d_tt = (u_tt + h * hdot * u_r) / (h * h) - phi
    return float(np.max(np.abs(np.stack([d_rr, d_rt, d_tt]))))


def pfunction_report(grid, u) -> PFieldReport:
    """`pfunction_suite`'s report from u's gradient without its coordinates, and the stacked defect."""
    u_r, u_tan = metric_gradient(grid, u)
    P = p_field(grid, u, (u_r, u_tan))
    mp = max_principle_check(grid, normal_derivative_gamma0(grid, u), P)
    dp_min, frac, _ = subharmonicity_probe(grid, P)
    lhs, rhs, resid = step3_identity(grid, u, mp["c"], u_r)
    tol_step3 = tol_discrete(grid, max(abs(lhs), abs(rhs), 1e-30))
    return PFieldReport(
        c=mp["c"],
        c_squared=mp["c_squared"],
        max_P=float(np.max(P)),
        min_P=float(np.min(P)),
        max_P_minus_c2=float(np.max(P) - mp["c_squared"]),
        delta_P_min=dp_min,
        delta_P_violation_fraction=frac,
        wall_dP_dnu_max=mp["wall_dP_dnu_max"],
        hessian_defect=stacked_hessian_defect(grid, u),
        step3_lhs=lhs,
        step3_rhs=rhs,
        step3_residual=resid,
        verdicts={
            "max_principle": mp["interior_bound_ok"],
            "wall_sign": mp["wall_sign_ok"],
            "step3_direction": bool(resid >= -tol_step3),
        },
    )


# ---------------------------------------------------------------------------
# ground truths


def obata_ode_profile(N: int, K: int, u_p: float, s_grid) -> np.ndarray:
    """Integrate f'' = -1/N - K f with f(0) = u_p, f'(0) = 0 by RK4.

    Returns f at the (ascending, nonnegative) sample points; the radial oracle
    profile satisfies the same ODE with u_p = u(0).  The ODE system is the
    ground truth here; for K != 0 its solution has the closed form
    (u_p + 1/(N K)) h_dot(s) - 1/(N K), which the tests cross-check.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.ndim != 1 or np.any(np.diff(s_grid) < 0) or (s_grid.size and s_grid[0] < 0):
        raise ValueError("s_grid must be ascending and nonnegative")
    if s_grid.size == 0:
        return np.zeros(0)
    span = max(float(s_grid[-1]), 1.0)
    h_max = span / 4096.0

    def rhs(y):
        return np.array([y[1], -1.0 / N - K * y[0]])

    out = np.empty_like(s_grid)
    y = np.array([float(u_p), 0.0])
    s = 0.0
    for k, target in enumerate(s_grid):
        gap = target - s
        steps = max(1, int(np.ceil(gap / h_max))) if gap > 0 else 0
        hstep = gap / steps if steps else 0.0
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * hstep * k1)
            k3 = rhs(y + 0.5 * hstep * k2)
            k4 = rhs(y + hstep * k3)
            y = y + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            s += hstep
        s = target
        out[k] = y[0]
    return out


def oracle_W_field(sol: RadialSolutionEuclidean, grid):
    """Analytic W on a Euclidean grid, built as the product HessV(grad u) Hess u.

    The two factors are assembled from the hand-derived radial formulas and
    multiplied numerically, so the result tests the derivative compositions at
    roundoff level (exactly -Id/N in exact arithmetic).
    """
    if grid.cone.space_form.curvature != 0:
        raise ValueError("W is Euclidean-specific")
    rho = grid.r_centers
    mask = (rho < 1e-12 * sol.radius) | (rho > sol.radius * (1 + 1e-12))
    safe = np.where(mask, 1.0, rho)
    N = sol.dimension
    q = sol.profile.g_prime(safe / N)
    fp = np.asarray(sol.profile.f_prime(q))
    fpp = np.asarray(sol.profile.f_second(q))

    theta = np.broadcast_to(grid.theta_centers, rho.shape)
    e = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    ee = np.einsum("...i,...j->...ij", e, e)
    eye = np.broadcast_to(np.eye(2), ee.shape)
    hess_V = fpp[..., None, None] * ee + (fp / q)[..., None, None] * (eye - ee)
    upp = -1.0 / (N * fpp)
    hess_u = upp[..., None, None] * ee + (-q / safe)[..., None, None] * (eye - ee)
    W = np.einsum("...ij,...jk->...ik", hess_V, hess_u)
    return MatrixField(W, mask)


_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def step3_identity_analytic(sol: RadialSolutionSpaceForm):
    """Radial-quadrature version of the identity (holds exactly for oracles).

    The angular factor cancels between the two sides, so the reduction uses
    the 1-D weight h^{N-1} directly.
    """
    sf, N, R = sol.space_form, sol.dimension, sol.radius
    c = sol.c
    denom = N * float(sf.h_dot(R))
    HR = float(sf.H(R))

    def u(r):
        return (HR - float(sf.H(r))) / denom

    def up(r):
        return -float(sf.h(r)) / denom

    def wgt(r):
        return float(sf.h(r)) ** (N - 1)

    lhs = c * c * quad(lambda r: float(sf.h_dot(r)) * wgt(r), 0.0, R, **_QUAD_KW)[0]
    t1 = quad(lambda r: float(sf.h_dot(r)) * u(r) * wgt(r), 0.0, R, **_QUAD_KW)[0]
    t2 = quad(lambda r: float(sf.h(r)) * u(r) * up(r) * wgt(r), 0.0, R, **_QUAD_KW)[0]
    rhs = (1.0 + 2.0 / N) * (t1 - sf.curvature * t2)
    return lhs, rhs, lhs - rhs


def float_bits(report: dict):
    """A report dict with every float as its 8 bytes, so signed zeros, NaNs and last bits all count."""
    if isinstance(report, dict):
        return {k: float_bits(v) for k, v in report.items()}
    if isinstance(report, list):
        return [float_bits(v) for v in report]
    if isinstance(report, float):
        return np.float64(report).tobytes()
    return report
