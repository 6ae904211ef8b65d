"""Seeded workloads: the CLI commands of one pass and the checks on their outputs.

A seed draws the outer radius R0 and the rigidity ladder step.  R0 is drawn
as an antithetic pair in [0.8, 1.25], R0 and 0.8 + 1.25 - R0, one per pass
slot; successive passes of a run alternate between the two slots.  The pair's
mean is the same for every seed, so a run's total work (Picard iterations grow
with R0) barely moves from seed to seed.  Grids, profiles, alpha and
k are fixed per workload.  The program sees only the generated config JSON
and closed-form CSV files.

Every command carries the exit code the mathematics predicts (0: the exact
solution on a sector satisfies every identity).  A few commands are known to
fail one audit check through a defect of the lab: their failures are counted
like any other, but named as known, so that ``correct`` only turns false on a
failure nobody has explained.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import closedforms as cf

R0_RANGE = (0.8, 1.25)
SLOTS = 2  # pass k runs slot k % SLOTS
LADDER_STEP = (0.04, 0.06)

EXIT_OK = 0
EXIT_AUDIT_FAIL = 2

# The judged trace check passes a mesh-independent stencil artifact next to
# the outer curve and the walls against a tolerance 5 h that shrinks with the
# grid and with R0; tr W = L_f u = -1 holds on any domain, so the predicted
# verdict is pass and a failure of this check is the lab's, not the input's.
TRACE_DEFECT = "trace_W_plus_one_bulk"

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Draw:
    """What a seed decides: one R0 per pass slot and the rigidity ladder step."""

    radii: tuple
    step: float


def draw(seed: int) -> Draw:
    rng = np.random.default_rng(seed)
    lo, hi = R0_RANGE
    offset = float(rng.random()) * (hi - lo)
    step = float(rng.uniform(*LADDER_STEP))
    return Draw((lo + offset, hi - offset), step)


@dataclass(frozen=True)
class Spec:
    """One CLI command of a pass, before its files exist."""

    name: str
    subcommand: str
    config: dict
    solution_from: str | None = None  # audit the solution CSV another spec wrote
    closed_form_input: bool = False  # audit a closed-form CSV the benchmark wrote
    scored: bool = False  # its relative error counts toward err_inf_rel
    known_defect: str | None = None  # audit check this command is known to fail

    @property
    def grid(self) -> tuple:
        nr, nt = self.config["grids"][-1].split("x")
        return int(nr), int(nt)


def _config(profile, grids, R0, space_form="euclidean", alpha=HALF_PI, epsilons=(0.0,), k=2):
    return {
        "space_form": space_form,
        "profile": profile,
        "alpha": alpha,
        "R0": R0,
        "epsilons": list(epsilons),
        "k": k,
        "grids": list(grids),
        "tol": 1e-8,
    }


def _g(n: int) -> str:
    return f"{n}x{n}"


def picard_specs(R0: float, step: float, toy: bool) -> list:
    n = 16 if toy else 128
    return [
        Spec("solve-p1.5", "solve", _config("p-laplacian:1.5", [_g(n)], R0), scored=True),
        Spec("solve-mc", "solve", _config("mean-curvature", [_g(n)], R0), scored=True),
    ]


def rigidity_specs(R0: float, step: float, toy: bool) -> list:
    small, large = (16, 16) if toy else (64, 256)
    ladder = (0.0, step, 2 * step, 4 * step)
    return [
        Spec("scan-p3", "rigidity",
             _config("p-laplacian:3", [_g(small)], R0, epsilons=ladder),
             scored=True, known_defect=TRACE_DEFECT),
        Spec("scan-hyperbolic", "rigidity",
             _config("laplacian", [_g(large)], R0, space_form="hyperbolic", epsilons=ladder),
             scored=True),
        Spec("scan-pi3-k2", "rigidity",
             _config("laplacian", [_g(small)], R0, alpha=math.pi / 3, epsilons=ladder),
             scored=True, known_defect=TRACE_DEFECT),
    ]


def verify_specs(R0: float, step: float, toy: bool) -> list:
    ladder = (8, 16, 32) if toy else (16, 32, 64)
    big, solve_n = (16, 16) if toy else (384, 256)
    return [
        Spec("convergence-p3", "convergence",
             _config("p-laplacian:3", [_g(n) for n in ladder], R0)),
        Spec("audit-p3-exact", "audit",
             _config("p-laplacian:3", [_g(big)], R0), closed_form_input=True),
        Spec("pfunction-hyperbolic-exact", "pfunction",
             _config("laplacian", [_g(big)], R0, space_form="hyperbolic"), closed_form_input=True),
        Spec("solve-laplacian", "solve", _config("laplacian", [_g(solve_n)], R0), scored=True),
        Spec("audit-laplacian-solved", "audit", _config("laplacian", [_g(solve_n)], R0),
             solution_from="solve-laplacian", known_defect=TRACE_DEFECT),
    ]


WORKLOADS = {
    "picard": picard_specs,
    "rigidity": rigidity_specs,
    "verify": verify_specs,
}


@dataclass
class Command:
    spec: Spec
    argv: list
    out_dir: Path
    R0: float
    exit_code: int | None = None  # of the latest run


def materialise(workload: str, seed: int, root: Path, toy: bool = False) -> list:
    """Write every pass slot's configs and closed-form CSVs under root.

    Returns one list of Commands per pass slot, in pass order.
    """
    d = draw(seed)
    slots = []
    for slot, R0 in enumerate(d.radii):
        slot_dir = root / f"slot{slot}"
        slot_dir.mkdir(parents=True, exist_ok=True)
        commands = []
        for spec in WORKLOADS[workload](R0, d.step, toy):
            out_dir = root / "out" / spec.name
            cfg_path = slot_dir / f"{spec.name}.json"
            cfg_path.write_text(json.dumps({**spec.config, "out_dir": str(out_dir)}), encoding="utf-8")
            argv = [spec.subcommand, "--config", str(cfg_path)]
            if spec.closed_form_input:
                csv_path = slot_dir / f"{spec.name}.csv"
                nr, nt = spec.grid
                r, theta = cf.cell_centres(nr, nt, spec.config["alpha"], R0)
                u = cf.reference_u(spec.config["space_form"], spec.config["profile"], R0, r)
                cf.write_solution_csv(csv_path, r, theta, u)
                argv += ["--solution", str(csv_path)]
            elif spec.solution_from is not None:
                argv += ["--solution", str(root / "out" / spec.solution_from / "solution.csv")]
            commands.append(Command(spec, argv, out_dir, R0))
        slots.append(commands)
    return slots


# ---------------------------------------------------------------------------
# checks on the outputs of one command


@dataclass
class Result:
    """What the checks found: the scored error, value problems and failed audit checks."""

    err: float | None = None
    problems: list = field(default_factory=list)
    audit_failures: list = field(default_factory=list)  # (check name, description)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def solution_tol(nr: int) -> float:
    # second-order fields: at full size the lab's errors sit 15-100x inside this
    return 0.1 / nr


def _c_tol(nr: int) -> float:
    # the measured c carries an O(h) extraction bias
    return 0.5 / nr


def _check_solve(cmd: Command, result: Result) -> None:
    spec = cmd.spec
    report = _load(cmd.out_dir / "solve_report.json")
    if not report["converged"]:
        result.problems.append(f"not converged: {report['message']}")
    r, _theta, u = cf.read_solution_csv(cmd.out_dir / "solution.csv")
    exact = cf.reference_u(spec.config["space_form"], spec.config["profile"], cmd.R0, r)
    result.err = cf.relative_sup_error(u, exact)
    tol = solution_tol(spec.grid[0])
    if not result.err <= tol:
        result.problems.append(f"solution error {result.err:.3g} > {tol:.3g}")


def _check_audit(cmd: Command, result: Result) -> None:
    report = _load(cmd.out_dir / "audit_report.json")
    for check in report["checks"]:
        if check["passed"] is False:
            result.audit_failures.append(
                (check["name"], f"{check['name']}={check['value']:.4g} > tol {check['tolerance']:.4g}")
            )


def _check_pfunction(cmd: Command, result: Result) -> None:
    spec = cmd.spec
    report = _load(cmd.out_dir / "pfunction_report.json")
    for name, ok in sorted(report["verdicts"].items()):
        if not ok:
            result.audit_failures.append((name, f"{name} verdict false"))
    exact = cf.reference_c(spec.config["space_form"], spec.config["profile"], cmd.R0)
    err = abs(report["c"] - exact) / exact
    tol = _c_tol(spec.grid[0])
    if not err <= tol:
        result.problems.append(f"c error {err:.3g} > {tol:.3g}")


def _check_convergence(cmd: Command, result: Result) -> None:
    spec = cmd.spec
    rows = _load(cmd.out_dir / "convergence_report.json")["rows"]
    if not all(row["converged"] for row in rows):
        result.problems.append("a convergence level did not converge")
    errs = [row["err_inf"] for row in rows]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        result.problems.append(f"errors do not decrease under refinement: {errs}")
    u_max = float(cf.reference_u(spec.config["space_form"], spec.config["profile"], cmd.R0, 0.0))
    rel = errs[-1] / u_max
    tol = solution_tol(spec.grid[0])
    if not rel <= tol:
        result.problems.append(f"finest relative error {rel:.3g} > {tol:.3g}")


def _check_rigidity(cmd: Command, result: Result, diagnose) -> None:
    """Acceptance criterion 8 on the scan, plus c at eps = 0 against its closed form."""
    spec = cmd.spec
    rows = _load(cmd.out_dir / "rigidity_report.json")["rows"]
    exact = cf.reference_c(spec.config["space_form"], spec.config["profile"], cmd.R0)
    if not all(row["converged"] for row in rows):
        result.problems.append("a scan row did not converge")
        return
    sigma = [row["sigma"] for row in rows]
    if not all(a < b for a, b in zip(sigma, sigma[1:])):
        result.problems.append(f"sigma not strictly increasing: {sigma}")
    if not sigma[0] <= 1e-2 * exact:
        result.problems.append(f"sigma(0) = {sigma[0]:.3g} > 1e-2 c")
    result.err = abs(rows[0]["c_mean"] - exact) / exact
    tol = _c_tol(spec.grid[0])
    if not result.err <= tol:
        result.problems.append(f"c error {result.err:.3g} > {tol:.3g}")
    for row in rows:
        if row["audit_pass_rate"] < 1.0:
            for name, text in diagnose(cmd, row["epsilon"]):
                result.audit_failures.append((name, f"{text} at eps={row['epsilon']:.3g}"))


def check(cmd: Command, diagnose) -> Result:
    result = Result()
    kind = cmd.spec.subcommand
    if kind == "solve":
        _check_solve(cmd, result)
    elif kind == "audit":
        _check_audit(cmd, result)
    elif kind == "pfunction":
        _check_pfunction(cmd, result)
    elif kind == "convergence":
        _check_convergence(cmd, result)
    elif kind == "rigidity":
        _check_rigidity(cmd, result, diagnose)
    else:
        raise ValueError(f"no check for subcommand {kind!r}")
    return result


class ScanDiagnosis:
    """Names the audit checks a failed scan row failed, by re-running that row.

    The rigidity report keeps only each row's audit pass rate.  Rows are
    deterministic, so each is diagnosed once per run, outside the timed passes.
    """

    def __init__(self):
        self._cache = {}

    def __call__(self, cmd: Command, eps: float) -> list:
        key = (json.dumps(cmd.spec.config, sort_keys=True), cmd.R0, eps)
        if key not in self._cache:
            self._cache[key] = self._diagnose(cmd.spec.config, cmd.R0, eps)
        return self._cache[key]

    @staticmethod
    def _diagnose(config: dict, R0: float, eps: float) -> list:
        from serrinlab.identities import identity_suite
        from serrinlab.mesh import BoundaryRadius, build_grid
        from serrinlab.pfunction import pfunction_suite
        from serrinlab.profiles import profile_from_id
        from serrinlab.solver import solve_Lf, solve_linear_spaceform
        from serrinlab.spaceforms import ConeSection, space_form_from_id

        sf = space_form_from_id(config["space_form"])
        nr, nt = (int(x) for x in config["grids"][0].split("x"))
        grid = build_grid(ConeSection(sf, config["alpha"]), nr, nt,
                          BoundaryRadius(R0, eps, config["k"]))
        if sf.curvature != 0:
            u, _ = solve_linear_spaceform(grid, 2)
            verdicts = pfunction_suite(grid, u).verdicts
            return [(name, f"{name} verdict false") for name, ok in sorted(verdicts.items()) if not ok]
        profile = profile_from_id(config["profile"])
        u, _ = solve_Lf(grid, profile, tol=config["tol"])
        return [
            (c.name, f"{c.name}={c.value:.4g} > tol {c.tolerance:.4g}")
            for c in identity_suite(grid, u, profile).checks
            if c.passed is False
        ]
