"""P-function machinery for the space-form rigidity argument.

P(u) = |grad u|^2 + (2/N) u + K u^2 is subharmonic along solutions of
Delta u + N K u = -1, equals c^2 on the Dirichlet boundary and is constant
exactly in the rigid spherical-cap configuration.  This module produces the
quantitative witnesses: discrete subharmonicity, the maximum principle, the
radial-field integral identity and Hessian proportionality.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .identities import tol_discrete
from .mesh import SectorGrid
from .solver import (
    _beta_centers,
    _cell_difference,
    _d_dtheta,
    _face_slope,
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
    "hessian_proportionality_defect",
    "pfunction_suite",
]


def p_field(grid: SectorGrid, u: np.ndarray, gradient) -> np.ndarray:
    """P = |grad u|^2 + (2/N) u + K u^2 with the metric gradient, N = 2 and K the grid's.

    `gradient` is u's (u_r, u_tan) from `metric_gradient`.
    """
    N, K = 2, grid.cone.space_form.curvature
    u_r, u_tan = gradient
    return u_r**2 + u_tan**2 + (2.0 / N) * u + K * u * u


def subharmonicity_probe(grid: SectorGrid, P: np.ndarray):
    """(min discrete Laplacian of P, violation fraction, tolerance).

    The Laplacian uses the solver's own flux stencil so "subharmonic" is
    tested in the scheme's own discrete sense; only full-stencil cells are
    probed.  A violation is Delta P < -tol with tol = 5 h scale(P).
    """
    lap, valid = laplace_beltrami_probe(grid, P)
    probed = lap[valid]
    scale = max(float(np.max(np.abs(P))), 1e-30)
    tol = tol_discrete(grid, scale)
    min_lap = float(np.min(probed))
    frac = float(np.mean(probed < -tol))
    return min_lap, frac, tol


def wall_normal_derivative(grid: SectorGrid, P: np.ndarray) -> np.ndarray:
    """One-sided d P/d nu on both walls (`_face_slope` in theta), stacked (2, Nr)."""
    dt = grid.dtheta
    sf = grid.cone.space_form
    h_w0 = sf.h(grid.s_centers * float(grid.radius(0.0)))
    h_wa = sf.h(grid.s_centers * float(grid.radius(grid.cone.alpha)))
    return np.stack([
        _face_slope(P[:, 0], P[:, 1], P[:, 2], dt) / h_w0,
        _face_slope(P[:, -1], P[:, -2], P[:, -3], dt) / h_wa,
    ])


def max_principle_check(grid: SectorGrid, du_dnu: np.ndarray, P: np.ndarray):
    """Discrete maximum principle for P plus the wall sign condition.

    The judged bound is max_Omega P <= max_Gamma0 (du/dnu)^2: P is subharmonic
    with nonpositive wall flux, so its maximum sits on the Dirichlet boundary
    where P reduces to the squared Neumann data.  The rigid-reference gap
    max P - c^2 is recorded as data; it hugs zero exactly when the Neumann
    data is constant and turns positive on perturbed domains (the boundary
    maximum exceeds the mean).  c is the measured Gamma_0 mean of the
    Neumann data; `du_dnu` is u's `normal_derivative_gamma0`.
    """
    c = neumann_statistics(grid, du_dnu)[0]
    c2 = c * c
    tol = tol_discrete(grid, max(c2, 1e-30))
    max_p = float(np.max(P))
    boundary_p_max = float(np.max(du_dnu**2))
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


def step3_identity(grid: SectorGrid, u: np.ndarray, c: float, u_r: np.ndarray):
    """Grid quadrature of c^2 int h_dot versus (1+2/N)(int h_dot u - K int h u u_r).

    N = 2 and K is the grid's; c is the Neumann constant, the measured
    Gamma_0 mean in `pfunction_suite`.  `u_r` is the radial component of u's
    `metric_gradient`.
    """
    N, K = 2, grid.cone.space_form.curvature
    sf = grid.cone.space_form
    w = grid.area_weights
    hdot = sf.h_dot(grid.r_centers)
    lhs = c * c * float(np.sum(hdot * w))
    rhs = (1.0 + 2.0 / N) * (
        float(np.sum(hdot * u * w)) - K * float(np.sum(grid.h_centers * u * u_r * w))
    )
    return lhs, rhs, lhs - rhs


def hessian_proportionality_defect(grid: SectorGrid, u: np.ndarray, coordinates) -> float:
    """Max metric-normalized deviation of the covariant Hessian from (-1/N - K u) g.

    N = 2 and K is the grid's.  Coordinate second derivatives are corrected
    by the warped-product Christoffel terms; raw second differences would
    fail the check even for radial oracles.  `coordinates` is u's (d/ds,
    d/dtheta) from `metric_gradient(..., return_coordinates=True)`.
    """
    N, K = 2, grid.cone.space_form.curvature
    sf = grid.cone.space_form
    R = grid.R_centers[None, :]
    Rp = grid.Rp_centers[None, :]
    Rpp = grid.radius.second_derivative(grid.theta_centers)[None, :]
    s = grid.s_centers[:, None]
    beta = _beta_centers(grid)
    h = grid.h_centers
    hdot = sf.h_dot(grid.r_centers)

    us, ut = coordinates
    # second radial differences stay one-sided at the outer ring: the audited
    # field need not satisfy any particular discrete ghost relation there
    uss = _cell_difference(u, 0, "one-sided", "one-sided", second=True) / (grid.ds * grid.ds)
    utt = _cell_difference(u, 1, "mirror", "mirror", second=True) / (grid.dtheta * grid.dtheta)
    ust = _d_dtheta(grid, us, "solution")

    u_r = us / R
    u_t = ut - beta * us  # du/dtheta at fixed r
    u_rr = uss / (R * R)
    u_rt = ust / R - us * Rp / (R * R) - beta * uss / R
    u_tt = utt - 2.0 * beta * ust + beta * beta * uss - s * (Rpp / R - 2.0 * (Rp / R) ** 2) * us

    phi = -1.0 / N - K * u
    d_rr = u_rr - phi
    d_rt = (u_rt - (hdot / h) * u_t) / h
    d_tt = (u_tt + h * hdot * u_r) / (h * h) - phi
    return float(np.max([np.max(np.abs(d)) for d in (d_rr, d_rt, d_tt)]))


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
        return {**asdict(self), "passed": self.passed}


def pfunction_suite(grid: SectorGrid, u: np.ndarray) -> PFieldReport:
    """Full P-function audit of one field on a space-form grid.

    Each field is derived here once and handed to every statistic that
    reads it: u's gradient (`metric_gradient`, with its coordinate
    derivatives) to P, the Hessian defect and the step-3 identity, and the
    Neumann data du/dnu on each Gamma_0 face (`normal_derivative_gamma0`) to
    the maximum principle, which measures c from it.
    """
    u_r, u_tan, us, ut = metric_gradient(grid, u, kind="solution", return_coordinates=True)
    du_dnu = normal_derivative_gamma0(grid, u)
    P = p_field(grid, u, (u_r, u_tan))
    mp = max_principle_check(grid, du_dnu, P)
    dp_min, frac, _dp_tol = subharmonicity_probe(grid, P)
    wall_max = mp["wall_dP_dnu_max"]
    defect = hessian_proportionality_defect(grid, u, (us, ut))
    lhs, rhs, resid = step3_identity(grid, u, mp["c"], u_r)
    tol_step3 = tol_discrete(grid, max(abs(lhs), abs(rhs), 1e-30))
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
        max_P=mp["max_P"],
        min_P=float(np.min(P)),
        max_P_minus_c2=mp["rigid_gap"],
        delta_P_min=dp_min,
        delta_P_violation_fraction=frac,
        wall_dP_dnu_max=wall_max,
        hessian_defect=defect,
        step3_lhs=lhs,
        step3_rhs=rhs,
        step3_residual=resid,
        verdicts=verdicts,
    )