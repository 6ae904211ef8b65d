"""End-to-end rigidity experiments.

The rigidity theorems say constant Neumann data on the outer boundary forces
the spherical sector; the lab makes that quantitative by scanning the
length-weighted spread sigma of the measured Neumann data against domain
perturbations, together with the matrix/Hessian defects the proofs pivot on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .identities import identity_suite
from .mesh import BoundaryRadius, build_grid, require_mode
from .oracles import (
    RadialSolutionEuclidean,
    RadialSolutionSpaceForm,
    overdetermined_constant,
    sample_values,
)
from .pfunction import pfunction_suite
from .profiles import profile_from_id
from .solver import neumann_statistics, normal_derivative_gamma0, solve_Lf
# hessian_W_field and solve_linear_spaceform stay imported: perfbench/tracing.py patches them here
from .solver import hessian_W_field, solve_linear_spaceform
from .spaceforms import ConeSection, space_form_from_id

__all__ = [
    "ExperimentConfig",
    "RigidityRow",
    "RigidityReport",
    "deviation_scan",
    "convexity_contrast",
    "convergence_study",
]

DEFAULT_EPSILONS = (0.0, 0.05, 0.1, 0.2)


def _parse_grid(spec, key: str = "grid") -> tuple:
    """(Nr, Nt) from a spec 'NrxNt' or a pair of integers; anything else is an error naming key."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return tuple(_require_integer(f"{key}[{i}]", size) for i, size in enumerate(spec))
    parts = str(spec).lower().split("x")
    if len(parts) != 2 or not all(part.strip().isdecimal() for part in parts):
        raise ValueError(f"{key} must look like '64x64', got {spec!r}")
    return int(parts[0]), int(parts[1])


def _require_integer(key: str, value) -> int:
    """Return value if it is an integer (a bool, float or None is not one), else raise naming key."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _require_real(key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    space_form: str = "euclidean"
    profile: str = "laplacian"
    alpha: float = math.pi / 2
    R0: float = 1.0
    epsilons: tuple = DEFAULT_EPSILONS
    k: int = 2
    grids: tuple = ("64x64",)
    tol: float = 1e-8
    out_dir: str = "."

    def __post_init__(self):
        for key in ("space_form", "profile", "out_dir"):
            if not isinstance(getattr(self, key), str):
                raise ValueError(f"{key} takes a string, got {getattr(self, key)!r}")
        space_form_from_id(self.space_form)  # validates
        laplacian = profile_from_id(self.profile).is_laplacian
        for key in ("alpha", "R0", "tol"):
            _require_real(key, getattr(self, key))
        for key in ("grids", "epsilons"):
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} takes a JSON list, got {value!r}; use '{key[:-1]}' for one value")
        for i, e in enumerate(self.epsilons):
            _require_real(f"epsilons[{i}]", e)
        if not 0.0 < self.alpha <= 2.0 * math.pi:
            raise ValueError(f"alpha must lie in (0, 2*pi], got {self.alpha}")
        if not self.R0 > 0:
            raise ValueError("R0 must be positive")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if any(not (0 <= e < 1) for e in self.epsilons):
            raise ValueError("epsilon values must lie in [0, 1)")
        require_mode(self.k)
        sizes = [_parse_grid(g, f"grids[{i}]") for i, g in enumerate(self.grids)]
        object.__setattr__(self, "grids", tuple(f"{a}x{b}" for a, b in sizes))
        if not self.grids:
            raise ValueError("grids must name at least one grid")
        if any(s2 <= s1 for (s1, _), (s2, _) in zip(sizes, sizes[1:])):
            raise ValueError("grid list must be strictly increasing")
        if self.space_form != "euclidean" and not laplacian:
            raise ValueError("space-form runs use the linear operator; profile must be 'laplacian'")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    @property
    def grid_sizes(self) -> list:
        return [_parse_grid(g) for g in self.grids]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


@dataclass
class RigidityRow:
    epsilon: float
    sigma: float
    sigma_max: float
    c_mean: float
    c_formula: float
    defect: float
    audit_pass_rate: float
    converged: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RigidityReport:
    config: ExperimentConfig
    grid: str
    rows: list = field(default_factory=list)
    judged: bool = True

    @property
    def sigma_strictly_increasing(self) -> bool:
        sig = [r.sigma for r in self.rows if r.converged]
        return all(a < b for a, b in zip(sig, sig[1:]))

    @property
    def passed(self) -> bool:
        if not self.judged:
            return True
        return (
            all(r.converged for r in self.rows)
            and self.sigma_strictly_increasing
            and all(r.audit_pass_rate == 1.0 for r in self.rows)
        )

    def to_dict(self) -> dict:
        verdicts = {"sigma_strictly_increasing": self.sigma_strictly_increasing, "passed": self.passed}
        return {**asdict(self), **verdicts}


def _predictor(history: list, eps: float):
    """The start of a rung at eps from its ladder's last converged (eps, u) pairs, or None.

    One predecessor gives its own u; two give the secant through them,
    u1 + (u1 - u0) (eps - e1) / (e1 - e0), or u1 where e1 = e0.
    """
    if not history:
        return None
    (e0, u0), (e1, u1) = history[0], history[-1]
    if e1 == e0:  # one predecessor, or a repeated epsilon
        return u1
    return u1 + (u1 - u0) * ((eps - e1) / (e1 - e0))


def _scan_one(config: ExperimentConfig, size, eps: float, history=None) -> RigidityRow:
    """The row of the rung at eps, solved by `solve_Lf`.

    history is None on a Laplacian ladder, which holds no field across rungs.
    On a quasilinear one it is the ladder's last two converged (eps, u),
    updated here: the rung starts from their predictor (`_predictor`), a
    continued solve that does not converge is solved again from the cold
    start, and a rung that still does not converge clears the history.
    """
    sf = space_form_from_id(config.space_form)
    cone = ConeSection(sf, config.alpha)
    grid = build_grid(cone, size[0], size[1], BoundaryRadius(config.R0, eps, config.k))
    profile = profile_from_id(config.profile)
    start = None if history is None else _predictor(history, eps)
    u, rep = solve_Lf(grid, profile, tol=config.tol, start=start)
    if start is not None and not rep.converged:
        u, rep = solve_Lf(grid, profile, tol=config.tol)
    if history is not None:
        history[:] = [*history[-1:], (eps, u)] if rep.converged else []
    if not rep.converged:
        return RigidityRow(eps, float("nan"), float("nan"), float("nan"), float("nan"),
                           float("nan"), 0.0, False)
    c_mean, sigma, sigma_max = neumann_statistics(grid, normal_derivative_gamma0(grid, u))
    if sf.curvature == 0:
        audit = identity_suite(grid, u, profile)
        checks = {c.name: c for c in audit.checks}
        defect = checks["W_plus_id_over_N_sup_interior"].value
        c_formula = checks["c_measured_vs_formula"].extras["c_formula"]
        rate = audit.pass_rate
    else:
        c_formula = overdetermined_constant(RadialSolutionSpaceForm(sf, 2, config.R0))
        pf = pfunction_suite(grid, u)
        defect = pf.hessian_defect
        verdicts = list(pf.verdicts.values())
        rate = sum(verdicts) / len(verdicts)
    return RigidityRow(eps, sigma, sigma_max, c_mean, c_formula, defect, rate, True)


def deviation_scan(config: ExperimentConfig) -> RigidityReport:
    """Solve/audit across the epsilon ladder on the primary grid.

    The scan is judged only over a convex section (alpha <= pi), the
    convexity the rigidity theorem needs; over a reflex one its report
    records judged = False and passes.  Solver non-convergence is recorded
    per row without aborting the scan.  The rungs run in ladder order, each
    solved by `solve_Lf`.  A Laplacian ladder, the one profile of a curved
    space form, is linear: each rung is solved on its own, to the config's
    tol, by the separable part of its matrix (GMRES on it at eps > 0),
    SuperLU only if that misses, and its row is that of its one-rung scan.
    At eps = 0 that part's solution meets any tol with a roundoff residual;
    a perturbed rung stops between 1e-12 and tol = 1e-8 on the benchmark's
    ladders, and its sigma sat within 1.6e-8 relative of a 1e-13 solve's.
    A quasilinear ladder is a continuation (Allgower & Georg 2003): its
    first rung, and every rung after one that did not converge, starts
    cold, from the closed form and through the whole regularization
    schedule, so that row is its one-rung scan's.  Every other rung starts from the secant predictor of
    the last two converged rungs (the last one's u after one) and runs only
    the last stage (`solve_Lf`); if that does not converge, it is solved
    cold.  Such a row differs from its one-rung row within what the solve
    tolerance leaves unsettled: on the benchmark's p = 3 64x64 ladders its u
    sat closer than the cold u to a tol = 1e-12 solve on every rung, and
    its sigma at most 2.7e-6 relative from that solve's (the cold sigma at
    most 4.9e-6).  An empty ladder is rejected.
    """
    if not config.epsilons:
        raise ValueError("the deviation scan needs at least one value in epsilons")
    size = config.grid_sizes[0]
    history = None if profile_from_id(config.profile).is_laplacian else []
    rows = [_scan_one(config, size, e, history) for e in config.epsilons]
    judged = config.alpha <= math.pi
    return RigidityReport(config=config, grid=config.grids[0], rows=rows, judged=judged)


def convexity_contrast(config: ExperimentConfig) -> RigidityReport:
    """Same scan over a reflex (nonconvex) section; exploratory, no contracts."""
    if config.alpha <= math.pi:
        raise ValueError("convexity contrast needs alpha > pi")
    return deviation_scan(config)


def convergence_study(config: ExperimentConfig):
    """Errors and Richardson orders against the radial oracle over dyadic grids.

    Requires epsilon = 0 (otherwise no closed-form reference exists) and at
    least three strictly dyadic levels, each solved cold by `solve_Lf`.
    """
    sizes = config.grid_sizes
    if len(sizes) < 3:
        raise ValueError("convergence study needs at least three grid levels")
    for (a1, b1), (a2, b2) in zip(sizes, sizes[1:]):
        if (a2, b2) != (2 * a1, 2 * b1):
            raise ValueError("convergence study grids must double each level")
    sf = space_form_from_id(config.space_form)
    profile = profile_from_id(config.profile)
    cone = ConeSection(sf, config.alpha)
    if sf.curvature == 0:
        oracle = RadialSolutionEuclidean(profile, 2, config.R0)
    else:
        oracle = RadialSolutionSpaceForm(sf, 2, config.R0)

    rows = []
    prev = None
    for size in sizes:
        grid = build_grid(cone, size[0], size[1], BoundaryRadius(config.R0, 0.0, config.k))
        u, rep = solve_Lf(grid, profile, tol=config.tol)
        exact = sample_values(oracle, grid)
        diff = u - exact
        err_inf = float(np.max(np.abs(diff)))
        w = grid.area_weights
        err_l2 = float(np.sqrt(np.sum(diff * diff * w) / np.sum(w)))
        h = config.R0 / size[0]
        row = {
            "grid": f"{size[0]}x{size[1]}",
            "h": h,
            "err_inf": err_inf,
            "err_l2": err_l2,
            "order_inf": float("nan") if prev is None else math.log2(prev["err_inf"] / err_inf),
            "order_l2": float("nan") if prev is None else math.log2(prev["err_l2"] / err_l2),
            "converged": rep.converged,
        }
        rows.append(row)
        prev = row
    return rows