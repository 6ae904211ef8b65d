"""Euclidean identity and inequality audits on (grid, field) pairs.

Everything here reduces the rigidity argument to checkable numbers: the
elementary symmetric function algebra of W (formed by `MatrixField`), the
Newton inequality for products of symmetric matrices, the Pohozaev balance,
the S_2 integral inequality and the Neumann-data consistency of the constant c.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .mesh import SectorGrid
from .profiles import OperatorProfile
from .solver import (
    MatrixField,
    grid_h,
    hessian_W_field,
    interior_cell_mask,
    mapped_gradient,
    neumann_statistics,
    normal_derivative_gamma0,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "audit_W",
    "pohozaev_residual",
    "integral_inequality_gap",
    "c_consistency",
    "w12_diagnostic",
    "identity_suite",
    "tol_discrete",
]


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class AuditCheck:
    name: str
    value: float
    tolerance: float | None = None
    passed: bool | None = None  # None: informational only
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "passed": self.passed,
            **({"extras": self.extras} if self.extras else {}),
        }


@dataclass
class AuditReport:
    checks: list = field(default_factory=list)
    masked_cells: int = 0
    total_cells: int = 0

    def add(self, check: AuditCheck):
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    @property
    def pass_rate(self) -> float:
        judged = [c for c in self.checks if c.passed is not None]
        if not judged:
            return 1.0
        return sum(1 for c in judged if c.passed) / len(judged)

    def to_dict(self) -> dict:
        # each check renders through AuditCheck.to_dict, which leaves out an empty extras
        checks = [c.to_dict() for c in self.checks]
        return {**asdict(self), "checks": checks, "passed": self.passed, "pass_rate": self.pass_rate}


def tol_discrete(grid: SectorGrid, scale: float) -> float:
    """Discrete tolerance 5 * (grid h) * (field scale), reported openly."""
    return 5.0 * grid_h(grid) * max(abs(scale), 1e-300)


# ---------------------------------------------------------------------------
# audits


def audit_W(grid: SectorGrid, W: MatrixField) -> AuditReport:
    """Trace and Newton-gap checks of a W field; radial defect is reported too.

    The full-interior trace deviation is reported as data: for strongly
    degenerate profiles (p < 2) the vertex-adjacent rings carry a self-similar
    differencing artifact that no refinement removes (solutions are only C^1
    at the cone vertex).  The judged trace check therefore excludes the inner
    tenth of each radial line.
    """
    interior = interior_cell_mask(grid) & ~W.mask
    unmasked = ~W.mask
    report = AuditReport(masked_cells=W.masked_count, total_cells=int(W.mask.size))

    tol = tol_discrete(grid, 1.0)  # of the trace and Newton checks
    dev_int = float(np.max(np.abs(W.tr[interior] + 1.0))) if interior.any() else float("nan")
    report.add(AuditCheck("trace_W_plus_one_interior", dev_int, None, None,
                          extras={"cells": int(interior.sum())}))
    bulk = interior & (grid.s_centers[:, None] >= 0.1)
    dev_bulk = float(np.max(np.abs(W.tr[bulk] + 1.0))) if bulk.any() else float("nan")
    report.add(
        AuditCheck(
            "trace_W_plus_one_bulk",
            dev_bulk,
            tol,
            bool(dev_bulk <= tol) if bulk.any() else None,
            extras={"cells": int(bulk.sum())},
        )
    )

    gaps = W.newton_gap()
    min_gap = float(np.min(gaps[unmasked])) if unmasked.any() else float("nan")
    report.add(
        AuditCheck(
            "newton_gap_min",
            min_gap,
            tol,
            bool(min_gap >= -tol) if unmasked.any() else None,
            extras={"cells": int(unmasked.sum())},
        )
    )

    # sup |W + Id/N| over the interior, entry by entry (N = 2)
    if interior.any():
        entries = (W.a + 0.5, W.b, W.c, W.d + 0.5)
        dev = float(np.max([np.max(np.abs(w[interior])) for w in entries]))
    else:
        dev = float("nan")
    report.add(AuditCheck("W_plus_id_over_N_sup_interior", dev, None, None))
    return report


def pohozaev_residual(grid: SectorGrid, u: np.ndarray, profile: OperatorProfile, speed: np.ndarray,
                      du_dnu: np.ndarray):
    """Volume/boundary sides of the Pohozaev balance and their difference.

    lhs = int_Omega [(N+1) u - N f(|grad u|)], rhs = int_{Gamma_0}
    [f'(|grad u|)|grad u| - f(|grad u|)] x.nu.  The position vector x points
    from the cone vertex, so the wall contribution vanishes identically.
    `speed` is u's |grad u| from `mapped_gradient` and `du_dnu` its
    `normal_derivative_gamma0`.
    """
    if grid.cone.space_form.curvature != 0:
        raise ValueError("the Pohozaev balance is Euclidean-specific")
    N = 2
    lhs = float(np.sum(((N + 1) * u - N * profile.f(speed)) * grid.area_weights))

    bnd_speed = np.abs(du_dnu)
    x_dot_nu = grid.R_centers * grid.gamma0_normals[:, 0]
    integrand = (profile.f_prime(bnd_speed) * bnd_speed - profile.f(bnd_speed)) * x_dot_nu
    rhs = float(np.sum(integrand * grid.gamma0_weights))
    return lhs, rhs, lhs - rhs


def integral_inequality_gap(grid: SectorGrid, u: np.ndarray, W: MatrixField, mapped):
    """Gap of 2 int S2(W) u >= -int S2_ij(W) V_i(grad u) u_j by cell quadrature.

    Returns (gap, tol, equality_flag); the sign contract only holds over a
    convex section (alpha <= pi), equality when the walls carry no curvature
    (automatic for straight planar walls).  `mapped` is u's
    `mapped_gradient`.
    """
    grad, V, degenerate, _ = mapped
    s2 = W.s2
    second = W.contract(V, grad)

    keep = ~(W.mask | degenerate)
    w = grid.area_weights
    gap = float(np.sum((2.0 * s2 * u + second)[keep] * w[keep]))
    scale = float(np.sum((np.abs(2.0 * s2 * u) + np.abs(second))[keep] * w[keep]))
    tol = tol_discrete(grid, max(scale, 1e-30))
    return gap, tol, bool(abs(gap) <= tol)


def c_consistency(grid: SectorGrid, du_dnu: np.ndarray, profile: OperatorProfile):
    """(length-weighted mean of -du/dnu on Gamma_0, g'(|Omega|/|Gamma_0|), spread).

    `du_dnu` is u's `normal_derivative_gamma0`.
    """
    mean, spread, _ = neumann_statistics(grid, du_dnu)
    formula = float(profile.g_prime(grid.area_over_gamma0))
    return mean, formula, spread


def w12_diagnostic(grid: SectorGrid, W: MatrixField) -> float:
    """Discrete L2 norm of W over unmasked cells (a stability probe, not a proof)."""
    keep = ~W.mask
    frob2 = ((W.a * W.a + W.b * W.b) + W.c * W.c) + W.d * W.d
    return float(np.sqrt(np.sum(frob2[keep] * grid.area_weights[keep])))


def identity_suite(grid: SectorGrid, u: np.ndarray, profile: OperatorProfile) -> AuditReport:
    """Run the full Euclidean audit battery on one field.

    Each field is derived here once and handed to every check that reads
    it: grad u, V, the degenerate cells and |grad u| (`mapped_gradient`), W
    from them (`hessian_W_field`), which forms its own trace, S_2 and minor
    form, and the Neumann data du/dnu on each Gamma_0 face
    (`normal_derivative_gamma0`).
    """
    mapped = mapped_gradient(grid, u, profile)
    du_dnu = normal_derivative_gamma0(grid, u)
    W = hessian_W_field(grid, mapped)
    report = audit_W(grid, W)

    kept = ~W.mask
    worst = float(np.max(W.consistency_gap()[kept])) if kept.any() else 0.0
    report.add(AuditCheck("s2_trace_vs_minor_form", worst, 1e-12, bool(worst <= 1e-12)))

    lhs, rhs, resid = pohozaev_residual(grid, u, profile, mapped[3], du_dnu)
    denom = max(abs(lhs), abs(rhs), 1e-30)
    tol_p = tol_discrete(grid, denom)
    report.add(
        AuditCheck(
            "pohozaev_residual",
            abs(resid),
            tol_p,
            bool(abs(resid) <= tol_p),
            extras={"lhs": lhs, "rhs": rhs, "relative": abs(resid) / denom},
        )
    )

    gap, tol, equality = integral_inequality_gap(grid, u, W, mapped)
    convex = grid.cone.convex
    report.add(
        AuditCheck(
            "s2_integral_inequality_gap",
            gap,
            tol,
            bool(gap >= -tol) if convex else None,
            extras={"equality": equality, "convex": convex},
        )
    )

    mean, formula, spread = c_consistency(grid, du_dnu, profile)
    rel_c = abs(mean - formula) / max(abs(formula), 1e-30)
    # the measured c carries an O(h) extraction bias; 2e-2 is the bound at 64^2
    tol_c = max(2e-2, 0.5 * grid_h(grid))
    report.add(
        AuditCheck(
            "c_measured_vs_formula",
            rel_c,
            tol_c,
            bool(rel_c <= tol_c),
            extras={"c_mean": mean, "c_formula": formula, "spread": spread},
        )
    )
    report.add(AuditCheck("w12_diagnostic", w12_diagnostic(grid, W), None, None))
    return report