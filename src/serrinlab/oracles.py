"""Closed-form radial solutions serving as exact ground truth.

Every oracle is centred at the cone's vertex, the pole of the model space,
so the distance from the centre is the polar radius r, and evaluates
itself: its methods `u`, `u_prime` and `residual` (the PDE's residual from
analytic derivatives, so the auditors can test at 1e-10 level) and its
property `c`, the overdetermined constant -u'(R).
`RadialSolutionEuclidean` holds the formulas of u(r) = int_r^R g'(s/N) ds,
which solves L_f u = -1 in a ball with u = 0 on the sphere, in the closed
form N (g(R/N) - g(r/N)) through the profile's convex conjugate g.
`RadialSolutionSpaceForm` holds those of u = (H(R) - H(d))/(N h_dot(R)),
which solves Delta u + N K u = -1 in a geodesic ball.  `radial_solution`
picks the oracle of a space form, and `sample_values` samples one at a
grid's cell centers.  No program path integrates: ``quad`` stays only as
the name the benchmark's tracer patches and counts, until the benchmark
drops that span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import OperatorProfile
from .spaceforms import SpaceForm

__all__ = ["RadialSolutionEuclidean", "RadialSolutionSpaceForm", "radial_solution", "sample_values"]


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call (the import costs a
    fresh process about 0.3 s).  Nothing in the package calls it; the
    benchmark's tracer patches this name, so it stays until that span goes."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class RadialSolutionEuclidean:
    """The ball of radius R about the origin, for the operator L_f of the profile."""

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

    def u(self, rho):
        """Evaluate u at distance rho from the center, elementwise over arrays.

        The closed form N (g(R/N) - g(rho/N)) through the profile's conjugate g
        (the Laplacian gives (R^2 - rho^2)/(2N)).
        """
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr < 0) or np.any(rho_arr > self.radius * (1 + 1e-12)):
            raise ValueError("rho must lie in [0, R]")
        N, R, g = self.dimension, self.radius, self.profile.g
        return N * (g(R / N) - g(np.minimum(rho_arr, R) / N))

    def u_prime(self, rho):
        """Radial derivative u'(rho) = -g'(rho/N)."""
        rho = np.asarray(rho, dtype=float)
        return -self.profile.g_prime(rho / self.dimension)

    def residual(self, rho) -> float:
        """Residual L_f u + 1 at distance rho from the center, from analytic derivatives.

        The radial divergence reduces to -f''(q) g''(rho/N)/N - (N-1) f'(q)/rho
        with q = g'(rho/N); the result vanishes exactly when the hand-derived
        derivative/inverse pairs are mutually consistent.
        """
        rho = float(rho)
        if not 0.0 < rho < self.radius:
            raise ValueError("residual needs 0 < rho < R")
        N = self.dimension
        q = float(self.profile.g_prime(rho / N))
        lf = -float(self.profile.f_second(q)) * float(self.profile.g_second(rho / N)) / N
        lf -= (N - 1) * float(self.profile.f_prime(q)) / rho
        return lf + 1.0

    @property
    def c(self) -> float:
        """The overdetermined constant c = -u'(R) = g'(R/N)."""
        return float(self.profile.g_prime(self.radius / self.dimension))


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

    def u(self, d):
        """u(d) = (H(R) - H(d)) / (N h_dot(R)) at geodesic distance d."""
        d_arr = np.asarray(d, dtype=float)
        if np.any(d_arr < 0) or np.any(d_arr > self.radius * (1 + 1e-12)):
            raise ValueError("d must lie in [0, R]")
        sf, N, R = self.space_form, self.dimension, self.radius
        return (sf.H(R) - sf.H(d_arr)) / (N * sf.h_dot(R))

    def u_prime(self, d):
        """Radial derivative u'(d) = -h(d) / (N h_dot(R))."""
        d = np.asarray(d, dtype=float)
        sf = self.space_form
        return -sf.h(d) / (self.dimension * sf.h_dot(self.radius))

    def residual(self, d) -> float:
        """Residual u'' + (N-1)(h_dot/h) u' + N K u + 1 along the radius.

        Cancels through the first integral h_dot + K H = 1; any drift flags an
        inconsistent h/H pair.
        """
        d = float(d)
        if not 0.0 < d < self.radius:
            raise ValueError("residual needs 0 < d < R")
        sf, N, R = self.space_form, self.dimension, self.radius
        K = sf.curvature
        denom = N * float(sf.h_dot(R))
        upp = -float(sf.h_dot(d)) / denom
        up = -float(sf.h(d)) / denom
        u = (float(sf.H(R)) - float(sf.H(d))) / denom
        return upp + (N - 1) * (float(sf.h_dot(d)) / float(sf.h(d))) * up + N * K * u + 1.0

    @property
    def c(self) -> float:
        """The overdetermined constant c = -u'(R) = h(R) / (N h_dot(R))."""
        sf = self.space_form
        return float(sf.h(self.radius)) / (self.dimension * float(sf.h_dot(self.radius)))


def radial_solution(space_form: SpaceForm, profile: OperatorProfile, N: int, R: float):
    """The radial oracle of the ball of radius R about the pole of space_form.

    Euclidean space takes any profile; a curved space form only the Laplacian,
    whose operator there is Delta u + N K u.
    """
    if space_form.curvature == 0:
        return RadialSolutionEuclidean(profile, N, R)
    if not profile.is_laplacian:
        raise ValueError("space-form oracles are linear; use --profile laplacian")
    return RadialSolutionSpaceForm(space_form, N, R)


def sample_values(sol, grid):
    """Oracle u sampled at the cell centers, at their distance r from the vertex (shape (Nr, Nt))."""
    return np.asarray(sol.u(grid.r_centers), dtype=float)
