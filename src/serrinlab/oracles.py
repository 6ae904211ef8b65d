"""Closed-form radial solutions serving as exact ground truth.

Every oracle is centred at the cone's vertex, the pole of the model space,
so the distance from the centre is the polar radius r.  Euclidean branch:
u(r) = int_r^R g'(s/N) ds solves L_f u = -1 in a ball with u = 0 on the
sphere.  The integral has the closed form N (g(R/N) - g(r/N)) through the
profile's convex conjugate g.  Space-form branch: u = (H(R) - H(d))/(N h_dot(R))
solves Delta u + N K u = -1 in a geodesic ball.  Both are evaluated with
analytic derivatives so the auditors can test at 1e-10 level.  ``quad`` is
the lab's one adaptive quadrature, used by the radial P-function identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import OperatorProfile
from .spaceforms import SpaceForm

__all__ = [
    "RadialSolutionEuclidean",
    "RadialSolutionSpaceForm",
    "euclid_u",
    "euclid_u_prime",
    "spaceform_u",
    "spaceform_u_prime",
    "pde_residual_euclid",
    "pde_residual_spaceform",
    "overdetermined_constant",
    "sample_values",
]

def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call: only the radial
    P-function identity integrates, and the import costs a fresh process
    about 0.3 s."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class RadialSolutionEuclidean:
    profile: OperatorProfile
    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.radius / self.dimension >= self.profile.slope_sup:
            raise ValueError(
                f"R/N = {self.radius / self.dimension} reaches the slope bound "
                f"{self.profile.slope_sup} of profile {self.profile.name}"
            )


@dataclass(frozen=True)
class RadialSolutionSpaceForm:
    """The geodesic ball of radius R about the pole of the model space."""

    space_form: SpaceForm
    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.space_form.check_radius(self.radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")


def euclid_u(sol: RadialSolutionEuclidean, rho) -> float:
    """Evaluate u at distance rho from the center, elementwise over arrays.

    The closed form N (g(R/N) - g(rho/N)) through the profile's conjugate g
    (the Laplacian gives (R^2 - rho^2)/(2N)).
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0) or np.any(rho_arr > sol.radius * (1 + 1e-12)):
        raise ValueError("rho must lie in [0, R]")
    N, R, g = sol.dimension, sol.radius, sol.profile.g
    return N * (g(R / N) - g(np.minimum(rho_arr, R) / N))


def euclid_u_prime(sol: RadialSolutionEuclidean, rho):
    """Radial derivative u'(rho) = -g'(rho/N)."""
    rho = np.asarray(rho, dtype=float)
    return -sol.profile.g_prime(rho / sol.dimension)


def pde_residual_euclid(sol: RadialSolutionEuclidean, rho) -> float:
    """Residual L_f u + 1 at distance rho from the center, from analytic derivatives.

    The radial divergence reduces to -f''(q) g''(rho/N)/N - (N-1) f'(q)/rho
    with q = g'(rho/N); the result vanishes exactly when the hand-derived
    derivative/inverse pairs are mutually consistent.
    """
    rho = float(rho)
    if not 0.0 < rho < sol.radius:
        raise ValueError("residual needs 0 < rho < R")
    N = sol.dimension
    q = float(sol.profile.g_prime(rho / N))
    lf = -float(sol.profile.f_second(q)) * float(sol.profile.g_second(rho / N)) / N
    lf -= (N - 1) * float(sol.profile.f_prime(q)) / rho
    return lf + 1.0


def spaceform_u(sol: RadialSolutionSpaceForm, d) -> float:
    """u(d) = (H(R) - H(d)) / (N h_dot(R)) at geodesic distance d."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0) or np.any(d_arr > sol.radius * (1 + 1e-12)):
        raise ValueError("d must lie in [0, R]")
    sf, N, R = sol.space_form, sol.dimension, sol.radius
    return (sf.H(R) - sf.H(d_arr)) / (N * sf.h_dot(R))


def spaceform_u_prime(sol: RadialSolutionSpaceForm, d):
    d = np.asarray(d, dtype=float)
    sf = sol.space_form
    return -sf.h(d) / (sol.dimension * sf.h_dot(sol.radius))


def pde_residual_spaceform(sol: RadialSolutionSpaceForm, d) -> float:
    """Residual u'' + (N-1)(h_dot/h) u' + N K u + 1 along the radius.

    Cancels through the first integral h_dot + K H = 1; any drift flags an
    inconsistent h/H pair.
    """
    d = float(d)
    if not 0.0 < d < sol.radius:
        raise ValueError("residual needs 0 < d < R")
    sf, N, R = sol.space_form, sol.dimension, sol.radius
    K = sf.curvature
    denom = N * float(sf.h_dot(R))
    upp = -float(sf.h_dot(d)) / denom
    up = -float(sf.h(d)) / denom
    u = (float(sf.H(R)) - float(sf.H(d))) / denom
    return upp + (N - 1) * (float(sf.h_dot(d)) / float(sf.h(d))) * up + N * K * u + 1.0


def overdetermined_constant(sol) -> float:
    """The constant c = -u'(R): g'(R/N) (Euclidean) or h(R)/(N h_dot(R))."""
    if isinstance(sol, RadialSolutionEuclidean):
        return float(sol.profile.g_prime(sol.radius / sol.dimension))
    if isinstance(sol, RadialSolutionSpaceForm):
        sf = sol.space_form
        return float(sf.h(sol.radius)) / (sol.dimension * float(sf.h_dot(sol.radius)))
    raise TypeError(f"not a radial solution: {type(sol)!r}")


def sample_values(sol, grid):
    """Oracle u sampled at the cell centers, at their distance r from the vertex (shape (Nr, Nt))."""
    if isinstance(sol, RadialSolutionEuclidean):
        return np.asarray(euclid_u(sol, grid.r_centers), dtype=float)
    return np.asarray(spaceform_u(sol, grid.r_centers), dtype=float)
