"""Convex scalar profiles generating the quasilinear operator family.

A profile ``f`` names the operator ``L_f u = div(f'(|grad u|) grad u / |grad u|)``.
Every profile carries hand-derived ``f'``, ``f''``, the inverse slope
``g' = (f')^{-1}`` and the convex conjugate ``g = f*`` itself; auditors need
1e-10-level accuracy, so derivatives and integrals are never formed
numerically.  The radial oracle and the solver's start are closed forms in
``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "OperatorProfile",
    "RegularizedProfile",
    "make_power_profile",
    "make_mean_curvature_profile",
    "regularize",
    "profile_from_id",
]


@dataclass(frozen=True)
class OperatorProfile:
    """Strictly convex profile with f(0) = f'(0) = 0 and its inverse slope.

    ``slope_sup`` is the supremum of ``f'``; ``g_prime`` rejects arguments at
    or beyond it (the mean-curvature slope saturates at 1).  ``g`` is the
    convex conjugate f*, normalized by g(0) = 0 so that g' = ``g_prime``, and
    finite at ``slope_sup`` when that is finite.
    """

    name: str
    f: Callable
    f_prime: Callable
    f_second: Callable
    g_prime: Callable
    g: Callable
    degeneracy_exponent: float | None = None
    slope_sup: float = math.inf

    def g_second(self, s):
        """Derivative of g', via the inverse-function rule g'' = 1/f''(g'(s))."""
        return 1.0 / self.f_second(self.g_prime(s))

    @property
    def is_laplacian(self) -> bool:
        return self.degeneracy_exponent == 2.0


@dataclass(frozen=True)
class RegularizedProfile:
    """Profile smoothed at the origin: f_eps(t) = f(sqrt(eps^2 + t^2)) - f(eps)."""

    base: OperatorProfile
    epsilon: float

    def coefficient(self, t):
        """Frozen Picard coefficient a_eps(t) = f_eps'(t)/t, continuous at t=0."""
        t = np.asarray(t, dtype=float)
        q = np.hypot(self.epsilon, t)
        return self.base.f_prime(q) / q


def make_power_profile(p: float) -> OperatorProfile:
    """Power profile f(t) = t^p / p, the p-Laplacian family.

    Requires a finite p > 1; at p <= 1 superlinearity fails and the inverse
    slope degenerates.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"power profile requires a finite p > 1, got {p}")
    p = float(p)
    q = 1.0 / (p - 1.0)

    def f(t):
        t = np.asarray(t, dtype=float)
        return t**p / p

    def f_prime(t):
        t = np.asarray(t, dtype=float)
        return t ** (p - 1.0)

    def f_second(t):
        t = np.asarray(t, dtype=float)
        return (p - 1.0) * t ** (p - 2.0)

    def g_prime(s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0):
            raise ValueError("g' is defined on [0, inf)")
        return s**q

    def g(s):
        s = np.asarray(s, dtype=float)
        return s ** (q + 1.0) / (q + 1.0)

    name = "laplacian" if p == 2.0 else f"p-laplacian:{p:g}"
    return OperatorProfile(
        name=name,
        f=f,
        f_prime=f_prime,
        f_second=f_second,
        g_prime=g_prime,
        degeneracy_exponent=p,
        g=g,
    )


def make_mean_curvature_profile() -> OperatorProfile:
    """Mean-curvature profile f(t) = sqrt(1+t^2) - 1.

    Shifted by -1 so f(0) = 0; the shift does not change the operator.  The
    slope f' is bounded by 1, so g' lives on [0, 1).
    """

    # f and g in the forms t^2/(1 + sqrt(1+t^2)) and s^2/(1 + sqrt(1-s^2)),
    # which do not cancel at small arguments
    def f(t):
        t = np.asarray(t, dtype=float)
        return t * t / (1.0 + np.sqrt(1.0 + t * t))

    def f_prime(t):
        t = np.asarray(t, dtype=float)
        return t / np.sqrt(1.0 + t * t)

    def f_second(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t * t) ** (-1.5)

    def g_prime(s):
        s = np.asarray(s, dtype=float)
        if np.any(s < 0) or np.any(s >= 1.0):
            raise ValueError("mean-curvature g' requires 0 <= s < 1")
        # (1-s)(1+s) keeps precision as s -> 1
        return s / np.sqrt((1.0 - s) * (1.0 + s))

    def g(s):
        s = np.asarray(s, dtype=float)
        return s * s / (1.0 + np.sqrt((1.0 - s) * (1.0 + s)))

    return OperatorProfile(
        name="mean-curvature",
        f=f,
        f_prime=f_prime,
        f_second=f_second,
        g_prime=g_prime,
        degeneracy_exponent=None,
        slope_sup=1.0,
        g=g,
    )


def regularize(profile: OperatorProfile, epsilon: float) -> RegularizedProfile:
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return RegularizedProfile(base=profile, epsilon=float(epsilon))


def profile_from_id(spec: str) -> OperatorProfile:
    """Resolve a profile id: 'laplacian', 'p-laplacian:<p>' or 'mean-curvature'."""
    spec = spec.strip()
    if spec == "laplacian":
        return make_power_profile(2.0)
    if spec == "mean-curvature":
        return make_mean_curvature_profile()
    if spec.startswith("p-laplacian:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad p-laplacian exponent in {spec!r}") from exc
        return make_power_profile(p)
    raise ValueError(f"unknown profile id {spec!r}")
