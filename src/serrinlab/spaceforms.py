"""Warped-product model geometries of constant curvature K in {-1, 0, +1}.

The metric is dr^2 + h(r)^2 g_{S^{N-1}} with h = r, sinh r or sin r, and
H(r) = integral of h from 0.  The exact first integral h_dot + K*H = 1 does a
lot of work in the radial identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceForm",
    "ConeSection",
    "EUCLIDEAN",
    "HYPERBOLIC",
    "SPHERE",
    "geodesic_distance",
    "space_form_from_id",
]


@dataclass(frozen=True)
class SpaceForm:
    curvature: int  # K
    name: str

    @property
    def r_max(self) -> float:
        # hemisphere cap: radial interval [0, pi/2)
        return math.pi / 2 if self.curvature > 0 else math.inf

    def check_radius(self, r, inclusive: bool = False):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        if self.curvature > 0:
            bound = self.r_max
            bad = (r > bound) if inclusive else (r >= bound)
            if np.any(bad):
                raise ValueError(
                    f"radius outside the admissible interval [0, pi/2{']' if inclusive else ')'}"
                )
        return r

    def h(self, r):
        r = np.asarray(r, dtype=float)
        if self.curvature == 0:
            return r + 0.0
        if self.curvature == -1:
            return np.sinh(r)
        return np.sin(r)

    def h_dot(self, r):
        r = np.asarray(r, dtype=float)
        if self.curvature == 0:
            return np.ones_like(r)
        if self.curvature == -1:
            return np.cosh(r)
        return np.cos(r)

    def H(self, r):
        r = np.asarray(r, dtype=float)
        if self.curvature == 0:
            return 0.5 * r * r
        if self.curvature == -1:
            return np.cosh(r) - 1.0
        return 1.0 - np.cos(r)


EUCLIDEAN = SpaceForm(0, "euclidean")
HYPERBOLIC = SpaceForm(-1, "hyperbolic")
SPHERE = SpaceForm(1, "sphere")

_BY_ID = {sf.name: sf for sf in (EUCLIDEAN, HYPERBOLIC, SPHERE)}


def space_form_from_id(spec: str) -> SpaceForm:
    try:
        return _BY_ID[spec.strip()]
    except KeyError:
        raise ValueError(
            f"unknown space form {spec!r}; expected one of {sorted(_BY_ID)}"
        ) from None


@dataclass(frozen=True)
class ConeSection:
    """Planar section of a cone: opening angle alpha over a model space.

    In dimension 2 the walls are geodesic rays (totally geodesic, II = 0), so
    convexity of the region reduces to alpha <= pi.
    """

    space_form: SpaceForm
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0 * math.pi:
            raise ValueError(f"opening angle must lie in (0, 2*pi], got {self.alpha}")

    @property
    def convex(self) -> bool:
        return self.alpha <= math.pi


def geodesic_distance(sf: SpaceForm, a, b):
    """Geodesic distance between polar points a=(r,theta), b=(r0,theta0)."""
    ra, ta = np.asarray(a[0], dtype=float), np.asarray(a[1], dtype=float)
    rb, tb = float(b[0]), float(b[1])
    dt = ta - tb
    if sf.curvature == 0:
        return np.sqrt(ra * ra + rb * rb - 2.0 * ra * rb * np.cos(dt))
    if sf.curvature == -1:
        arg = np.cosh(ra) * np.cosh(rb) - np.sinh(ra) * np.sinh(rb) * np.cos(dt)
        return np.arccosh(np.maximum(arg, 1.0))
    arg = np.cos(ra) * np.cos(rb) + np.sin(ra) * np.sin(rb) * np.cos(dt)
    return np.arccos(np.clip(arg, -1.0, 1.0))
