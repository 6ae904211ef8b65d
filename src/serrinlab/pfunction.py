"""P-function machinery for the space-form rigidity argument.

P(u) = |grad u|^2 + (2/N) u + K u^2 is subharmonic along solutions of
Delta u + N K u = -1, equals c^2 on the Dirichlet boundary and is constant
exactly in the rigid spherical-cap configuration.  This module produces the
quantitative witnesses: discrete subharmonicity, the maximum principle, the
radial-field integral identity, Hessian proportionality and the Obata-type
radial ODE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .mesh import SectorGrid
from .oracles import RadialSolutionSpaceForm, overdetermined_constant
from .solver import (
    ScalarField,
    _beta_centers,
    _cell_difference,
    _d_ds,
    _d_dtheta,
    grid_h,
    laplace_beltrami_probe,
    metric_gradient,
    neumann_statistics,
    normal_derivative_gamma0,
)

__all__ = [
    "PFieldReport",
    "p_field",
    "subharmonicity_probe",
    "max_principle_check",
    "step3_identity",
    "step3_identity_analytic",
    "hessian_proportionality_defect",
    "obata_ode_profile",
    "pfunction_suite",
]

_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


def p_field(grid: SectorGrid, u, N: int = 2, K: int | None = None) -> ScalarField:
    """P = |grad u|^2 + (2/N) u + K u^2 with the metric gradient."""
    if K is None:
        K = grid.cone.space_form.curvature
    vals = np.asarray(u)
    u_r, u_tan = metric_gradient(grid, vals, kind="solution")
    P = u_r**2 + u_tan**2 + (2.0 / N) * vals + K * vals * vals
    return ScalarField(grid, P)


def subharmonicity_probe(grid: SectorGrid, P):
    """(min discrete Laplacian of P, violation fraction, tolerance).

    The Laplacian uses the solver's own flux stencil so "subharmonic" is
    tested in the scheme's own discrete sense; only full-stencil cells are
    probed.  A violation is Delta P < -tol with tol = 5 h scale(P).
    """
    vals = np.asarray(P)
    lap, valid = laplace_beltrami_probe(grid, vals)
    probed = lap[valid]
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    tol = 5.0 * grid_h(grid) * scale
    min_lap = float(np.min(probed))
    frac = float(np.mean(probed < -tol))
    return min_lap, frac, tol


def wall_normal_derivative(grid: SectorGrid, P) -> np.ndarray:
    """One-sided d P/d nu on both walls, stacked (2, Nr)."""
    vals = np.asarray(P)
    dt = grid.dtheta
    sf = grid.cone.space_form
    p_theta_0 = (-2.0 * vals[:, 0] + 3.0 * vals[:, 1] - vals[:, 2]) / dt
    p_theta_a = -(-2.0 * vals[:, -1] + 3.0 * vals[:, -2] - vals[:, -3]) / dt
    h_w0 = sf.h(grid.s_centers * float(grid.radius(0.0)))
    h_wa = sf.h(grid.s_centers * float(grid.radius(grid.cone.alpha)))
    return np.stack([-p_theta_0 / h_w0, p_theta_a / h_wa])


def max_principle_check(grid: SectorGrid, u, P, c: float | None = None):
    """Discrete maximum principle for P plus the wall sign condition.

    The judged bound is max_Omega P <= max_Gamma0 (du/dnu)^2: P is subharmonic
    with nonpositive wall flux, so its maximum sits on the Dirichlet boundary
    where P reduces to the squared Neumann data.  The rigid-reference gap
    max P - c^2 is recorded as data; it hugs zero exactly when the Neumann
    data is constant and turns positive on perturbed domains (the boundary
    maximum exceeds the mean).  c defaults to the measured Gamma_0 mean.
    """
    vals = np.asarray(P)
    if c is None:
        c = neumann_statistics(grid, u)[0]
    c2 = c * c
    tol = 5.0 * grid_h(grid) * max(c2, 1e-30)
    max_p = float(np.max(vals))
    boundary_p_max = float(np.max(normal_derivative_gamma0(grid, u) ** 2))
    wall = wall_normal_derivative(grid, P)
    wall_max = float(np.max(wall))
    return {
        "c": c,
        "c_squared": c2,
        "max_P": max_p,
        "boundary_P_max": boundary_p_max,
        "rigid_gap": max_p - c2,
        "interior_bound_ok": bool(max_p <= boundary_p_max + tol),
        "wall_dP_dnu_max": wall_max,
        "wall_sign_ok": bool(wall_max <= tol),
        "tolerance": tol,
    }


def step3_identity(grid: SectorGrid, u, N: int = 2, K: int | None = None, c: float | None = None):
    """Grid quadrature of c^2 int h_dot versus (1+2/N)(int h_dot u - K int h u u_r)."""
    if K is None:
        K = grid.cone.space_form.curvature
    vals = np.asarray(u)
    if c is None:
        c = neumann_statistics(grid, u)[0]
    sf = grid.cone.space_form
    w = grid.area_weights
    hdot = sf.h_dot(grid.r_centers)
    u_r, _ = metric_gradient(grid, vals, kind="solution")
    lhs = c * c * float(np.sum(hdot * w))
    rhs = (1.0 + 2.0 / N) * (
        float(np.sum(hdot * vals * w)) - K * float(np.sum(grid.h_centers * vals * u_r * w))
    )
    return lhs, rhs, lhs - rhs


def step3_identity_analytic(sol: RadialSolutionSpaceForm):
    """Radial-quadrature version of the identity (holds exactly for oracles).

    The angular factor cancels between the two sides, so the reduction uses
    the 1-D weight h^{N-1} directly.
    """
    sf, N, R = sol.space_form, sol.dimension, sol.radius
    c = overdetermined_constant(sol)
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


def hessian_proportionality_defect(grid: SectorGrid, u, N: int = 2, K: int | None = None) -> float:
    """Max metric-normalized deviation of the covariant Hessian from (-1/N - K u) g.

    Coordinate second derivatives are corrected by the warped-product
    Christoffel terms; raw second differences would fail the check even for
    radial oracles.
    """
    if K is None:
        K = grid.cone.space_form.curvature
    vals = np.asarray(u)
    sf = grid.cone.space_form
    R = grid.R_centers[None, :]
    Rp = grid.Rp_centers[None, :]
    Rpp = grid.radius.second_derivative(grid.theta_centers)[None, :]
    s = grid.s_centers[:, None]
    beta = _beta_centers(grid)
    h = grid.h_centers
    hdot = sf.h_dot(grid.r_centers)

    us = _d_ds(grid, vals, "solution")
    ut = _d_dtheta(grid, vals, "solution")
    # second radial differences stay one-sided at the outer ring: the audited
    # field need not satisfy any particular discrete ghost relation there
    uss = _cell_difference(vals, 0, "one-sided", "one-sided", second=True) / (grid.ds * grid.ds)
    utt = _cell_difference(vals, 1, "mirror", "mirror", second=True) / (grid.dtheta * grid.dtheta)
    ust = _d_dtheta(grid, us, "solution")

    u_r = us / R
    u_t = ut - beta * us  # du/dtheta at fixed r
    u_rr = uss / (R * R)
    u_rt = ust / R - us * Rp / (R * R) - beta * uss / R
    u_tt = utt - 2.0 * beta * ust + beta * beta * uss - s * (Rpp / R - 2.0 * (Rp / R) ** 2) * us

    phi = -1.0 / N - K * vals
    d_rr = u_rr - phi
    d_rt = (u_rt - (hdot / h) * u_t) / h
    d_tt = (u_tt + h * hdot * u_r) / (h * h) - phi
    return float(np.max(np.abs(np.stack([d_rr, d_rt, d_tt]))))


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


@dataclass
class PFieldReport:
    c: float
    c_squared: float
    max_P: float
    min_P: float
    max_P_minus_c2: float
    delta_P_min: float
    delta_P_violation_fraction: float
    wall_dP_dnu_max: float
    hessian_defect: float
    step3_lhs: float
    step3_rhs: float
    step3_residual: float
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "c_squared": self.c_squared,
            "max_P": self.max_P,
            "min_P": self.min_P,
            "max_P_minus_c2": self.max_P_minus_c2,
            "delta_P_min": self.delta_P_min,
            "delta_P_violation_fraction": self.delta_P_violation_fraction,
            "wall_dP_dnu_max": self.wall_dP_dnu_max,
            "hessian_defect": self.hessian_defect,
            "step3_lhs": self.step3_lhs,
            "step3_rhs": self.step3_rhs,
            "step3_residual": self.step3_residual,
            "verdicts": dict(self.verdicts),
            "passed": self.passed,
        }


def pfunction_suite(grid: SectorGrid, u, N: int = 2, K: int | None = None) -> PFieldReport:
    """Full P-function audit of one field on a space-form grid."""
    if K is None:
        K = grid.cone.space_form.curvature
    P = p_field(grid, u, N, K)
    mp = max_principle_check(grid, u, P)
    dp_min, frac, _dp_tol = subharmonicity_probe(grid, P)
    wall_max = mp["wall_dP_dnu_max"]
    defect = hessian_proportionality_defect(grid, u, N, K)
    lhs, rhs, resid = step3_identity(grid, u, N, K, c=mp["c"])
    tol_step3 = 5.0 * grid_h(grid) * max(abs(lhs), abs(rhs), 1e-30)
    verdicts = {
        "max_principle": mp["interior_bound_ok"],
        "wall_sign": mp["wall_sign_ok"],
        # equality can fail legitimately off the rigid configuration; only the
        # sign direction lhs >= rhs is contracted for solution fields
        "step3_direction": bool(resid >= -tol_step3),
    }
    return PFieldReport(
        c=mp["c"],
        c_squared=mp["c_squared"],
        max_P=float(np.max(P.values)),
        min_P=float(np.min(P.values)),
        max_P_minus_c2=float(np.max(P.values) - mp["c_squared"]),
        delta_P_min=dp_min,
        delta_P_violation_fraction=frac,
        wall_dP_dnu_max=wall_max,
        hessian_defect=defect,
        step3_lhs=lhs,
        step3_rhs=rhs,
        step3_residual=resid,
        verdicts=verdicts,
    )