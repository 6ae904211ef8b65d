"""Boundary-fitted curvilinear grid over a sector-like domain.

The domain is {(r, theta): 0 < r < R(theta), 0 < theta < alpha} in a model
space.  Cells are centered in the scaled radial coordinate s = r/R(theta) and
in theta, so the vertex r = 0 is never a node and the outer Dirichlet curve
passes exactly through the last cell face.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
import numpy as np

from .spaceforms import ConeSection

__all__ = [
    "BoundaryRadius",
    "require_mode",
    "SectorGrid",
    "build_grid",
]


def require_mode(k) -> None:
    """Reject a perturbation mode k that is not an integer >= 1 (a bool is not one)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"perturbation mode k must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class BoundaryRadius:
    """Radius family R(theta) = R0 (1 + eps cos(k theta)) with derivatives."""

    R0: float
    epsilon: float = 0.0
    k: int = 2

    def __post_init__(self):
        if not self.R0 > 0:
            raise ValueError("R0 must be positive")
        if not (0 <= self.epsilon < 1.0):
            raise ValueError("perturbation amplitude must lie in [0, 1)")
        require_mode(self.k)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.R0 * (1.0 + self.epsilon * np.cos(self.k * theta))

    def derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return -self.R0 * self.epsilon * self.k * np.sin(self.k * theta)

    def second_derivative(self, theta):
        theta = np.asarray(theta, dtype=float)
        return -self.R0 * self.epsilon * self.k * self.k * np.cos(self.k * theta)

    @property
    def max_radius(self) -> float:
        return self.R0 * (1.0 + self.epsilon)


@dataclass(eq=False)
class SectorGrid:
    """Cell-centered (s, theta) grid with metric factors and quadrature weights.

    Immutable after build; all arrays are shaped (Nr, Nt) or per-column.  A
    grid is equal only to itself and hashes by identity, so that data built
    from it can be kept with it (the solver's operator).
    """

    cone: ConeSection
    Nr: int
    Nt: int
    radius: BoundaryRadius
    ds: float = field(init=False)
    dtheta: float = field(init=False)
    s_centers: np.ndarray = field(init=False)
    theta_centers: np.ndarray = field(init=False)
    R_centers: np.ndarray = field(init=False)
    Rp_centers: np.ndarray = field(init=False)
    R_faces: np.ndarray = field(init=False)
    Rp_faces: np.ndarray = field(init=False)
    dr: np.ndarray = field(init=False)
    r_centers: np.ndarray = field(init=False)
    h_centers: np.ndarray = field(init=False)
    area_weights: np.ndarray = field(init=False)
    gamma0_weights: np.ndarray = field(init=False)
    gamma0_normals: np.ndarray = field(init=False)

    def __post_init__(self):
        cone, Nr, Nt = self.cone, self.Nr, self.Nt
        sf = cone.space_form
        self.ds = 1.0 / Nr
        self.dtheta = cone.alpha / Nt
        self.s_centers = (np.arange(Nr) + 0.5) * self.ds
        self.theta_centers = (np.arange(Nt) + 0.5) * self.dtheta
        self.R_centers = self.radius(self.theta_centers)
        self.Rp_centers = self.radius.derivative(self.theta_centers)
        faces = np.arange(Nt + 1) * self.dtheta  # theta at the Nt + 1 cell faces
        self.R_faces = self.radius(faces)
        self.Rp_faces = self.radius.derivative(faces)
        self.dr = self.R_centers * self.ds
        self.r_centers = self.s_centers[:, None] * self.R_centers[None, :]
        self.h_centers = sf.h(self.r_centers)
        self.area_weights = self.h_centers * self.dr[None, :] * self.dtheta
        hR = sf.h(self.R_centers)
        norm = np.sqrt(self.Rp_centers**2 + hR**2)
        self.gamma0_weights = norm * self.dtheta
        self.gamma0_normals = np.stack([hR / norm, -self.Rp_centers / norm], axis=1)

    @property
    def n_cells(self) -> int:
        return self.Nr * self.Nt

    @property
    def area_over_gamma0(self) -> float:
        """|Omega| / |Gamma_0| by the quadrature weights: the mean of f'(-du/dnu) over Gamma_0 when L_f u = -1."""
        return float(np.sum(self.area_weights)) / float(np.sum(self.gamma0_weights))

    def grid_hash(self) -> str:
        payload = hashlib.sha256()
        payload.update(
            f"{self.cone.space_form.name}|{self.cone.alpha!r}|{self.Nr}|{self.Nt}|"
            f"{self.radius.R0!r}|{self.radius.epsilon!r}|{self.radius.k}".encode()
        )
        payload.update(self.r_centers.tobytes())
        return payload.hexdigest()


def build_grid(
    cone: ConeSection, Nr: int, Nt: int, boundary_radius: BoundaryRadius | None = None
) -> SectorGrid:
    """Build a sector grid; the default boundary is the unit circle R = 1."""
    if Nr < 8 or Nt < 8:
        raise ValueError("grid needs at least 8 cells per direction")
    radius = boundary_radius if boundary_radius is not None else BoundaryRadius(1.0)
    if radius.max_radius >= cone.space_form.r_max:
        raise ValueError(
            f"boundary radius {radius.max_radius} exceeds the radial interval "
            f"of {cone.space_form.name}"
        )
    return SectorGrid(cone=cone, Nr=Nr, Nt=Nt, radius=radius)
