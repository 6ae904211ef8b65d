"""Command-line front end: oracle | solve | audit | pfunction | rigidity | convergence.

One concern per subcommand, composable through files: solvers emit solution
CSVs, auditors consume them, so every audit can also run on oracle fields
with no solver in the loop.  Exit codes: 0 all audits pass, 2 audit failures,
3 solver non-convergence, 4 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .identities import identity_suite
from .mesh import BoundaryRadius, build_grid
from .oracles import (
    RadialSolutionEuclidean,
    RadialSolutionSpaceForm,
    overdetermined_constant,
    euclid_u,
    euclid_u_prime,
    pde_residual_euclid,
    pde_residual_spaceform,
    spaceform_u,
    spaceform_u_prime,
)
from .pfunction import pfunction_suite
from .profiles import profile_from_id
from .reports import ConfigError, RunManifest, _render, emit_csv, emit_json, parse_config
from .rigidity import (
    ExperimentConfig,
    convergence_study,
    convexity_contrast,
    deviation_scan,
)
# solve_linear_spaceform stays imported: perfbench/tracing.py patches it here
from .solver import solve_Lf, solve_linear_spaceform
from .spaceforms import ConeSection, space_form_from_id

EXIT_OK = 0
EXIT_AUDIT_FAIL = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONFIG = 4


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    for key in ("space_form", "profile", "alpha", "R0", "k", "tol", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "eps", None) is not None:
        overrides["epsilons"] = [args.eps]
    if getattr(args, "grid", None) is not None:
        overrides["grids"] = [args.grid]
    if args.config:
        base = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if overrides:
            base = ExperimentConfig.from_dict({**base.to_dict(), **overrides})
        return base
    return ExperimentConfig.from_dict(overrides)


def _grid_from_config(cfg: ExperimentConfig):
    sf = space_form_from_id(cfg.space_form)
    cone = ConeSection(sf, cfg.alpha)
    nr, nt = cfg.grid_sizes[0]
    eps = cfg.epsilons[0] if cfg.epsilons else 0.0
    return build_grid(cone, nr, nt, BoundaryRadius(cfg.R0, eps, cfg.k))


def _solution_table(grid, u):
    theta = np.broadcast_to(grid.theta_centers, grid.r_centers.shape)
    table = np.column_stack((grid.r_centers.ravel(), theta.ravel(), u.ravel()))
    return "solution.csv", ["r", "theta", "u"], table


def _write_run(cfg: ExperimentConfig, subcommand: str, t0: float, report: dict, table=None, grid=None):
    """Write one run's files into cfg.out_dir, then its manifest listing them.

    The report goes to <subcommand>_report.json, naming its manifest; the
    optional table = (name, header, rows) goes to a CSV.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = f"{subcommand}.manifest.json"
    outputs = [emit_json(out_dir / f"{subcommand}_report.json", {**report, "manifest": manifest}).name]
    if table is not None:
        name, header, rows = table
        outputs.append(emit_csv(out_dir / name, header, rows).name)
    RunManifest(
        subcommand=subcommand,
        config=cfg.to_dict(),
        grid_hash="" if grid is None else grid.grid_hash(),
        timing_seconds=time.perf_counter() - t0,
        outputs=outputs,
    ).write(out_dir / manifest)


def _read_solution_csv(path, grid) -> np.ndarray:
    """The u column of a solution CSV as an (Nr, Nt) array.

    Every row must hold three numbers whose r and theta match the grid's cell
    and whose u is finite; the first row that does not is a ConfigError
    naming its file line.
    """
    def row_count(rows: int):
        if rows != grid.n_cells:
            raise ConfigError(f"{path}: {rows} rows do not match the {grid.Nr}x{grid.Nt} grid")

    with open(path, encoding="utf-8") as f:
        header = f.readline()
        while header and not header.strip():  # blank lines before the header are skipped
            header = f.readline()
        if header.strip() != "r,theta,u":
            raise ConfigError(f"{path}: expected header 'r,theta,u'")
        try:
            with warnings.catch_warnings():
                # numpy warns on a file with no rows; the row count below reports it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            # read the stripped text line by line: numpy numbers body rows from 0
            # or 1 by fault kind, so name the file line instead
            body = Path(path).read_text(encoding="utf-8").strip().splitlines()[1:]
            row_count(len(body))
            for k, line in enumerate(body):
                try:
                    parsed = np.loadtxt([line], delimiter=",", ndmin=2, comments=None)
                except ValueError:
                    parsed = None
                if parsed is None or parsed.shape != (1, 3):
                    raise ConfigError(f"{path}: row {k + 2} is not three numbers r,theta,u") from None
            data = np.loadtxt(body, delimiter=",", ndmin=2, comments=None)
    row_count(len(data))
    if data.shape != (grid.n_cells, 3):
        raise ConfigError(f"{path}: expected {grid.n_cells} rows of three fields r,theta,u")
    r_grid = grid.r_centers.ravel()
    t_grid = np.broadcast_to(grid.theta_centers, grid.r_centers.shape).ravel()
    # written as not (err <= tol) so that NaN coordinates fail the check
    bad_r = ~(np.abs(data[:, 0] - r_grid) <= 1e-9 * (1 + r_grid))
    bad_t = ~(np.abs(data[:, 1] - t_grid) <= 1e-9 * (1 + t_grid))
    bad = bad_r | bad_t
    if bad.any():
        k = int(np.argmax(bad))
        what = "radius" if bad_r[k] else "angle"
        raise ConfigError(f"{path}: row {k + 2} {what} does not match the grid spec")
    bad_u = ~np.isfinite(data[:, 2])
    if bad_u.any():
        raise ConfigError(f"{path}: row {int(np.argmax(bad_u)) + 2} u is not finite")
    # contiguous, as a solved field is, so reductions over it sum in the same order
    return np.ascontiguousarray(data[:, 2]).reshape(grid.Nr, grid.Nt)


def _cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    sf = space_form_from_id(args.space_form)
    profile = profile_from_id(args.profile)
    if sf.curvature == 0:
        sol = RadialSolutionEuclidean(profile, args.N, args.R)
        u, u_prime, residual = euclid_u, euclid_u_prime, pde_residual_euclid
    else:
        if not profile.is_laplacian:
            raise ConfigError("space-form oracles are linear; use --profile laplacian")
        sol = RadialSolutionSpaceForm(sf, args.N, args.R)
        u, u_prime, residual = spaceform_u, spaceform_u_prime, pde_residual_spaceform
    c = overdetermined_constant(sol)
    d = (np.arange(args.samples) + 0.5) * args.R / args.samples
    rows = [(dk, float(u(sol, dk)), float(u_prime(sol, dk)), residual(sol, dk), c) for dk in d]
    header = ["d", "u", "u_prime", "residual", "c"]
    if args.out_dir is None:
        print(",".join(header))
        for row in rows:
            print(",".join(_render(v) for v in row))
        return EXIT_OK
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = emit_csv(out_dir / "oracle.csv", header, rows)
    RunManifest(
        subcommand="oracle",
        config={
            "space_form": args.space_form,
            "profile": args.profile,
            "N": args.N,
            "R": args.R,
            "samples": args.samples,
        },
        timing_seconds=time.perf_counter() - t0,
        outputs=[csv_path.name],
    ).write(out_dir / "oracle.manifest.json")
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    grid = _grid_from_config(cfg)
    u, report = solve_Lf(grid, profile_from_id(cfg.profile), tol=cfg.tol)
    _write_run(cfg, "solve", t0, report.to_dict(), _solution_table(grid, u), grid)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_audit(args) -> int:
    cfg = _load_config(args)
    if cfg.space_form != "euclidean":
        raise ConfigError("identity audits are Euclidean; use the pfunction subcommand for space forms")
    t0 = time.perf_counter()
    grid = _grid_from_config(cfg)
    u = _read_solution_csv(args.solution, grid)
    report = identity_suite(grid, u, profile_from_id(cfg.profile))
    rows = [
        (c.name, c.value, "" if c.tolerance is None else c.tolerance,
         "" if c.passed is None else c.passed)
        for c in report.checks
    ]
    table = ("audit_report.csv", ["name", "value", "tolerance", "passed"], rows)
    _write_run(cfg, "audit", t0, report.to_dict(), table, grid)
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def _cmd_pfunction(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    grid = _grid_from_config(cfg)
    u = _read_solution_csv(args.solution, grid)
    report = pfunction_suite(grid, u)
    _write_run(cfg, "pfunction", t0, report.to_dict(), grid=grid)
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def _cmd_rigidity(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    if cfg.alpha > math.pi:
        report = convexity_contrast(cfg)
    else:
        report = deviation_scan(cfg)
    rows = [
        (r.epsilon, r.sigma, r.c_mean, r.c_formula, r.defect, r.audit_pass_rate == 1.0 and r.converged)
        for r in report.rows
    ]
    table = ("rigidity_report.csv", ["epsilon", "sigma", "c_mean", "c_formula", "defect", "pass"], rows)
    _write_run(cfg, "rigidity", t0, report.to_dict(), table)
    if any(not r.converged for r in report.rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    rows = convergence_study(cfg)
    header = ["grid", "h", "err_inf", "err_l2", "order_inf", "order_l2"]
    table = ("convergence_report.csv", header, [[r[key] for key in header] for r in rows])
    _write_run(cfg, "convergence", t0, {"rows": rows}, table)
    if any(not r["converged"] for r in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _add_config_flags(p, with_eps_grid=True):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--space-form", dest="space_form", choices=["euclidean", "hyperbolic", "sphere"])
    p.add_argument("--profile")
    p.add_argument("--alpha", type=float)
    p.add_argument("--R0", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    if with_eps_grid:
        p.add_argument("--eps", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--grid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serrinlab",
        description="Numerical lab for overdetermined torsion problems on cone sectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="closed-form radial solution tables")
    p.add_argument("--space-form", dest="space_form", default="euclidean",
                   choices=["euclidean", "hyperbolic", "sphere"])
    p.add_argument("--profile", default="laplacian")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out-dir", dest="out_dir", default=None,
                   help="write oracle.csv here instead of printing to stdout")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("solve", help="mixed boundary value solve on a sector grid")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("audit", help="Euclidean identity audits of a solution CSV")
    _add_config_flags(p)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("pfunction", help="space-form P-function audits of a solution CSV")
    _add_config_flags(p)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=_cmd_pfunction)

    p = sub.add_parser("rigidity", help="deviation scan over the epsilon ladder")
    _add_config_flags(p, with_eps_grid=False)
    p.add_argument("--k", type=int)
    p.add_argument("--grid")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("convergence", help="refinement study against the radial oracle")
    _add_config_flags(p, with_eps_grid=False)
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())