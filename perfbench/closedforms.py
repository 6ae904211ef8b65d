"""Closed-form radial references, derived here rather than taken from serrinlab.

The benchmark judges the lab's outputs against these formulas, so a defect in
``serrinlab.oracles`` cannot hide behind itself.  All references live on the
unperturbed sector (eps = 0), where the cell-centre radius is also the
distance from the solution centre.  The lab's dimension is N = 2.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

N = 2


def power_u(p: float, R: float, rho):
    """Power profile |t|^p / p: u = N^{-q} (R^{q+1} - rho^{q+1}) / (q+1), q = 1/(p-1)."""
    q = 1.0 / (p - 1.0)
    return N ** (-q) * (R ** (q + 1.0) - np.asarray(rho) ** (q + 1.0)) / (q + 1.0)


def power_c(p: float, R: float) -> float:
    """Neumann constant c = -u'(R) = (R/N)^q."""
    return (R / N) ** (1.0 / (p - 1.0))


def mean_curvature_u(R: float, rho):
    """Mean-curvature profile: u = N (sqrt(1 - (rho/N)^2) - sqrt(1 - (R/N)^2))."""
    return N * (np.sqrt(1.0 - (np.asarray(rho) / N) ** 2) - math.sqrt(1.0 - (R / N) ** 2))


def hyperbolic_u(R: float, d):
    """Hyperbolic Laplacian Delta u - N u = -1: u = (cosh R - cosh d) / (N cosh R)."""
    return (math.cosh(R) - np.cosh(np.asarray(d))) / (N * math.cosh(R))


def hyperbolic_c(R: float) -> float:
    return math.tanh(R) / N


def profile_exponent(profile: str) -> float | None:
    """The power p of a profile id, or None for the mean-curvature profile."""
    if profile == "laplacian":
        return 2.0
    if profile.startswith("p-laplacian:"):
        return float(profile.split(":", 1)[1])
    if profile == "mean-curvature":
        return None
    raise ValueError(f"no closed form for profile {profile!r}")


def reference_u(space_form: str, profile: str, R: float, rho):
    if space_form == "hyperbolic":
        return hyperbolic_u(R, rho)
    if space_form != "euclidean":
        raise ValueError(f"no closed form for space form {space_form!r}")
    p = profile_exponent(profile)
    return mean_curvature_u(R, rho) if p is None else power_u(p, R, rho)


def reference_c(space_form: str, profile: str, R: float) -> float:
    if space_form == "hyperbolic":
        return hyperbolic_c(R)
    return power_c(profile_exponent(profile), R)


def cell_centres(nr: int, nt: int, alpha: float, R: float):
    """(r, theta) of the lab's cell centres on the unperturbed sector, row-major in (i, j)."""
    s = (np.arange(nr) + 0.5) / nr
    theta = (np.arange(nt) + 0.5) * (alpha / nt)
    r = np.repeat(s * R, nt)
    return r, np.tile(theta, nr)


def write_solution_csv(path: Path, r, theta, u) -> None:
    """A solution CSV in the lab's format (header r,theta,u; 17 significant digits)."""
    rows = map("%.17g,%.17g,%.17g".__mod__, zip(r.tolist(), theta.tolist(), u.tolist()))
    path.write_text("r,theta,u\n" + "\n".join(rows) + "\n", encoding="utf-8", newline="\n")


def read_solution_csv(path: Path):
    """(r, theta, u) columns of a solution CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1], table[:, 2]


def relative_sup_error(u, exact) -> float:
    return float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
