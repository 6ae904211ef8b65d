"""Closed-form radial solutions serving as exact ground truth.

Euclidean branch: u(x) = int_{|x-x0|}^{R} g'(s/N) ds solves L_f u = -1 in a
ball with u = 0 on the sphere.  The integral has the closed form
N (g(R/N) - g(|x-x0|/N)) through the profile's convex conjugate g; ``quad``
integrates g' only for profiles built without g.  Space-form branch:
u = (H(R) - H(d))/(N h_dot(R)) solves Delta u + N K u = -1 in a geodesic
ball.  Both are evaluated with analytic derivatives so the auditors can test
at 1e-10 level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import OperatorProfile
from .spaceforms import SpaceForm, geodesic_distance

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
    "distance_field",
    "sample_values",
]

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call: only profiles built
    without g integrate, and the import costs a fresh process about 0.3 s."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


@dataclass(frozen=True)
class RadialSolutionEuclidean:
    profile: OperatorProfile
    dimension: int
    radius: float
    center: tuple | None = None

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
        center = (0.0,) * self.dimension if self.center is None else tuple(self.center)
        if len(center) != self.dimension:
            raise ValueError("center must have one coordinate per dimension")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class RadialSolutionSpaceForm:
    """The geodesic ball of radius R about the pole of the model space."""

    space_form: SpaceForm
    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        self.space_form.check_radius(self.radius, inclusive=False)
        if not self.radius > 0:
            raise ValueError("radius must be positive")


def euclid_u(sol: RadialSolutionEuclidean, rho) -> float:
    """Evaluate u at distance rho from the center, elementwise over arrays.

    Closed form N (g(R/N) - g(rho/N)) when the profile carries its conjugate
    g (every built-in profile does; the Laplacian gives (R^2 - rho^2)/(2N)).
    Otherwise adaptive quadrature of g'(s/N), one call per point; adaptivity
    localizes the infinite slope of g' at 0 for p < 2.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0) or np.any(rho_arr > sol.radius * (1 + 1e-12)):
        raise ValueError("rho must lie in [0, R]")
    N, R = sol.dimension, sol.radius
    g = sol.profile.g
    if g is not None:
        return N * (g(R / N) - g(np.minimum(rho_arr, R) / N))

    def one(r):
        if r >= R:
            return 0.0
        val, _ = quad(lambda s: float(sol.profile.g_prime(s / N)), r, R, **_QUAD_KW)
        return val

    if rho_arr.ndim == 0:
        return one(float(rho_arr))
    return np.array([one(r) for r in rho_arr.ravel()]).reshape(rho_arr.shape)


def euclid_u_prime(sol: RadialSolutionEuclidean, rho):
    """Radial derivative u'(rho) = -g'(rho/N)."""
    rho = np.asarray(rho, dtype=float)
    return -sol.profile.g_prime(rho / sol.dimension)


def pde_residual_euclid(sol: RadialSolutionEuclidean, x) -> float:
    """Residual L_f u + 1 evaluated through the profile's analytic derivatives.

    The radial divergence reduces to -f''(q) g''(rho/N)/N - (N-1) f'(q)/rho
    with q = g'(rho/N); the result vanishes exactly when the hand-derived
    derivative/inverse pairs are mutually consistent.
    """
    x = np.asarray(x, dtype=float)
    rho = float(np.linalg.norm(x - np.asarray(sol.center, dtype=float)))
    if not 0.0 < rho < sol.radius:
        raise ValueError("residual needs 0 < |x - x0| < R")
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


def distance_field(sol, grid):
    """Geodesic distances from the solution center to the grid cell centers.

    Euclidean centers are Cartesian pairs; a space-form solution is centered
    at the pole of the model.
    """
    r = grid.r_centers
    theta = np.broadcast_to(grid.theta_centers[None, :], r.shape)
    if isinstance(sol, RadialSolutionEuclidean):
        x0, y0 = float(sol.center[0]), float(sol.center[1])
        center = (float(np.hypot(x0, y0)), float(np.arctan2(y0, x0)))
        return geodesic_distance(grid.cone.space_form, (r, theta), center)
    return geodesic_distance(sol.space_form, (r, theta), (0.0, 0.0))


def sample_values(sol, grid):
    """Oracle u sampled at the cell centers (array of shape (Nr, Nt))."""
    d = distance_field(sol, grid)
    if isinstance(sol, RadialSolutionEuclidean):
        return np.asarray(euclid_u(sol, d), dtype=float)
    return np.asarray(spaceform_u(sol, d), dtype=float)


def oracle_W_field(sol: RadialSolutionEuclidean, grid):
    """Analytic W on a Euclidean grid, built as the product HessV(grad u) Hess u.

    The two factors are assembled from the hand-derived radial formulas and
    multiplied numerically, so the result tests the derivative compositions at
    roundoff level (exactly -Id/N in exact arithmetic).
    """
    from .solver import MatrixField  # local import keeps module layering acyclic

    if grid.cone.space_form.curvature != 0:
        raise ValueError("W is Euclidean-specific")
    theta = grid.theta_centers[None, :]
    x = grid.r_centers * np.cos(theta)
    y = grid.r_centers * np.sin(theta)
    x0, y0 = float(sol.center[0]), float(sol.center[1])
    dx, dy = x - x0, y - y0
    rho = np.hypot(dx, dy)
    mask = (rho < 1e-12 * sol.radius) | (rho > sol.radius * (1 + 1e-12))
    safe = np.where(mask, 1.0, rho)
    N = sol.dimension
    q = sol.profile.g_prime(safe / N)
    fp = np.asarray(sol.profile.f_prime(q))
    fpp = np.asarray(sol.profile.f_second(q))

    e = np.stack([dx / safe, dy / safe], axis=-1)
    ee = np.einsum("...i,...j->...ij", e, e)
    eye = np.broadcast_to(np.eye(2), ee.shape)
    hess_V = fpp[..., None, None] * ee + (fp / q)[..., None, None] * (eye - ee)
    upp = -1.0 / (N * fpp)
    hess_u = upp[..., None, None] * ee + (-q / safe)[..., None, None] * (eye - ee)
    W = np.einsum("...ij,...jk->...ik", hess_V, hess_u)
    return MatrixField(grid, W, mask)
