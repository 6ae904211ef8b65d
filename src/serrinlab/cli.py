"""Command-line front end: oracle | solve | audit | pfunction | rigidity | convergence.

One concern per subcommand, composable through files: solvers emit solution
CSVs, auditors consume them, so every audit can also run on oracle fields
with no solver in the loop.  Exit codes: 0 all audits pass, 2 audit failures,
3 solver non-convergence, 4 config error.
"""

from __future__ import annotations

import argparse
import io
import math
import re
import sys
import time
import warnings
from functools import cache
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
from .reports import ConfigError, RunManifest, _ring_text, csv_text, emit_csv, emit_json, parse_config
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


def _load_config(args, epsilons: str = "any", one_grid: bool = True) -> ExperimentConfig:
    """The run's config: the config file, if any, under the flags given.

    epsilons is what the subcommand can honour of the epsilons the user
    gives: "any", "one" (it solves one grid) or "zero" (it studies the
    unperturbed sector); more is a ConfigError.  The default ladder is not
    given, and a subcommand that solves one grid takes its first value.  A
    one_grid subcommand takes one value of grids too.
    """
    overrides = {}
    for key in ("space_form", "profile", "alpha", "R0", "k", "tol", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "eps", None) is not None:
        overrides["epsilons"] = [args.eps]
    if getattr(args, "grid", None) is not None:
        overrides["grids"] = [args.grid]
    given = "epsilons" in overrides
    if args.config:
        cfg, keys = parse_config(_read(args.config, Path.read_text, encoding="utf-8"))
        given = given or "epsilons" in keys
        if overrides:
            cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
    else:
        cfg = ExperimentConfig.from_dict(overrides)
    if one_grid and len(cfg.grids) > 1:
        raise ConfigError(f"{args.command} runs on one grid: grids takes one value, got {list(cfg.grids)}")
    if given and epsilons == "one" and len(cfg.epsilons) > 1:
        raise ConfigError(f"{args.command} solves one grid: epsilons takes one value, got {list(cfg.epsilons)}")
    if given and epsilons == "zero" and any(cfg.epsilons):
        raise ConfigError(f"{args.command} studies the unperturbed sector: epsilons takes only 0, "
                          f"got {list(cfg.epsilons)}")
    return cfg


def _grid_from_config(cfg: ExperimentConfig):
    sf = space_form_from_id(cfg.space_form)
    cone = ConeSection(sf, cfg.alpha)
    nr, nt = cfg.grid_sizes[0]
    eps = cfg.epsilons[0] if cfg.epsilons else 0.0
    return build_grid(cone, nr, nt, BoundaryRadius(cfg.R0, eps, cfg.k))


def _solution_table(grid, u):
    theta = np.broadcast_to(grid.theta_centers, grid.r_centers.shape)
    return "solution.csv", ["r", "theta", "u"], np.stack((grid.r_centers, theta, u), axis=-1)


def _write_run(out_dir, config: dict, subcommand: str, t0: float, report=None, table=None, grid=None):
    """Write one run's files into out_dir, then its manifest listing them.

    The optional report goes to <subcommand>_report.json, naming its
    manifest; the optional table = (name, header, rows) goes to a CSV.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = f"{subcommand}.manifest.json"
    outputs = []
    if report is not None:
        outputs.append(emit_json(out_dir / f"{subcommand}_report.json", {**report, "manifest": manifest}).name)
    if table is not None:
        name, header, rows = table
        outputs.append(emit_csv(out_dir / name, header, rows).name)
    RunManifest(
        subcommand=subcommand,
        config=config,
        grid_hash="" if grid is None else grid.grid_hash(),
        timing_seconds=time.perf_counter() - t0,
        outputs=outputs,
    ).write(out_dir / manifest)


def _read(path, read, **how):
    """read(Path(path), **how): an input file that cannot be read is a ConfigError naming it."""
    try:
        return read(Path(path), **how)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None


# one line of the writer's layout: three fields of 1-24 bytes of 0-9 + - . e E; at most 75 bytes
_LINE = re.compile(rb"([-+.0-9eE]{1,24}),([-+.0-9eE]{1,24}),([-+.0-9eE]{1,24})\n")


def _loadtxt(lines) -> np.ndarray:
    """np.loadtxt of solution CSV body lines, as rows of numbers."""
    with warnings.catch_warnings():
        # numpy warns on lines with no rows; the reader's row count reports it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def _read_body(f, nt: int):
    """(rows, k): the (n, 3) body of a solution CSV, whose first k rings were matched.

    f is a binary file just past its header.  Ring 0's lines give the theta texts; a
    ring is matched when its bytes are _ring_text of its first line's r and u, all in
    the writer's layout, and only those texts are converted (numpy's bytes-to-float
    cast rounds as np.loadtxt does).  _loadtxt reads the rest, as the text path reads
    a body.  rows is None when the rest is not rows of three numbers: the text path
    judges the file.
    """
    at = f.tell()
    lines = [_LINE.fullmatch(f.readline(75)) for _ in range(nt)]
    thetas, r, u = [m[2] for m in lines] if all(lines) else [], [], []
    f.seek(at)
    while thetas:
        line = _LINE.fullmatch(f.readline(75))
        ring = line and _ring_text(line[1], thetas, line[3])
        if not ring or line[0] + f.read(len(ring) - len(line[0])) != ring:
            break
        r.append(line[1])
        u.append(line[3])
        at += len(ring)
    f.seek(at)
    k, rows, text = len(r), np.empty((3, len(r), nt)), io.TextIOWrapper(f, encoding="utf-8")
    try:
        rest = _loadtxt(text)
        if k:
            with np.errstate(over="ignore"):  # a field past the largest double reads as inf, as in np.loadtxt
                r, thetas, u = (np.array(texts).astype(np.float64) for texts in (r, thetas, u))
            rows[0], rows[1], rows[2] = r[:, None], thetas, u[:, None]
    except ValueError:  # a field that is not a number
        return None, k
    finally:
        text.detach()  # f stays open
    rows = rows.reshape(3, -1).T  # columns contiguous, for the checks that follow
    if not rest.size:
        return rows, k
    return (np.concatenate((rows, rest)) if rest.shape[1] == 3 else None), k


def _read_solution_csv(path, grid) -> np.ndarray:
    """The u column of a solution CSV as an (Nr, Nt) array.

    Every row must hold three numbers whose r and theta match the grid's cell
    and whose u is finite; the first row that does not is a ConfigError
    naming its file line.
    """
    def row_count(rows: int):
        if rows != grid.n_cells:
            raise ConfigError(f"{path}: {rows} rows do not match the {grid.Nr}x{grid.Nt} grid")

    def body(f) -> list:
        # the (file line, line) of each body row, skipping empty lines as numpy does
        return [(number, line) for number, line in enumerate(f, 1) if number > top and line.rstrip("\n")]

    with _read(path, Path.open, mode="rb") as f:
        data, top = _read_body(f, grid.Nt)[0] if f.readline() == b"r,theta,u\n" else None, 1
    if data is None:
        with _read(path, Path.open, encoding="utf-8") as f:
            header = f.readline()
            while header and not header.strip():  # blank lines before the header are skipped
                header, top = f.readline(), top + 1
            if header.strip() != "r,theta,u":
                raise ConfigError(f"{path}: expected header 'r,theta,u'")
            try:
                data = _loadtxt(f)
            except ValueError:
                # read the body again line by line, skipping empty lines as numpy does:
                # numpy numbers body rows from 0 or 1 by fault kind, so name the file line
                f.seek(0)
                lines = body(f)
                row_count(len(lines))
                for number, line in lines:
                    try:
                        parsed = _loadtxt([line])
                    except ValueError:
                        parsed = None
                    if parsed is None or parsed.shape != (1, 3):
                        raise ConfigError(f"{path}: row {number} is not three numbers r,theta,u") from None
                data = _loadtxt([line for _, line in lines])
    row_count(len(data))
    if data.shape != (grid.n_cells, 3):
        raise ConfigError(f"{path}: expected {grid.n_cells} rows of three fields r,theta,u")
    r_grid = grid.r_centers.ravel()
    t_grid = np.broadcast_to(grid.theta_centers, grid.r_centers.shape).ravel()
    # written as not (err <= tol) so that NaN coordinates fail the check
    bad_r = ~(np.abs(data[:, 0] - r_grid) <= 1e-9 * (1 + r_grid))
    bad_t = ~(np.abs(data[:, 1] - t_grid) <= 1e-9 * (1 + t_grid))
    for bad, what in ((bad_r | bad_t, ""), (~np.isfinite(data[:, 2]), "u is not finite")):  # coordinates first
        if bad.any():
            k = int(np.argmax(bad))
            what = what or ("radius" if bad_r[k] else "angle") + " does not match the grid spec"
            with _read(path, Path.open, encoding="utf-8") as f:  # on the error path only: count file lines
                raise ConfigError(f"{path}: row {body(f)[k][0]} {what}")
    # a contiguous copy, as a solved field is, so reductions over it sum in the same order
    return data[:, 2].copy().reshape(grid.Nr, grid.Nt)


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
    with np.errstate(all="ignore"):  # a non-finite value is a ConfigError below, naming its column and d
        rows = [(dk, float(u(sol, dk)), float(u_prime(sol, dk)), residual(sol, dk), c) for dk in d]
    header = ["d", "u", "u_prime", "residual", "c"]
    bad = np.argwhere(~np.isfinite(np.array(rows, dtype=float).T))  # column by column
    if bad.size:
        raise ConfigError(f"oracle {header[bad[0, 0]]} is not finite at d = {float(d[bad[0, 1]])!r}")
    if args.out_dir is None:
        sys.stdout.write(csv_text(header, rows))
        return EXIT_OK
    config = {key: getattr(args, key) for key in ("space_form", "profile", "N", "R", "samples")}
    _write_run(args.out_dir, config, "oracle", t0, table=("oracle.csv", header, rows))
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load_config(args, epsilons="one")
    t0 = time.perf_counter()
    grid = _grid_from_config(cfg)
    u, report = solve_Lf(grid, profile_from_id(cfg.profile), tol=cfg.tol)
    _write_run(cfg.out_dir, cfg.to_dict(), "solve", t0, report.to_dict(), _solution_table(grid, u), grid)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_audit(args) -> int:
    cfg = _load_config(args, epsilons="one")
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
    _write_run(cfg.out_dir, cfg.to_dict(), "audit", t0, report.to_dict(), table, grid)
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def _cmd_pfunction(args) -> int:
    cfg = _load_config(args, epsilons="one")
    t0 = time.perf_counter()
    grid = _grid_from_config(cfg)
    u = _read_solution_csv(args.solution, grid)
    report = pfunction_suite(grid, u)
    _write_run(cfg.out_dir, cfg.to_dict(), "pfunction", t0, report.to_dict(), grid=grid)
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
    _write_run(cfg.out_dir, cfg.to_dict(), "rigidity", t0, report.to_dict(), table)
    if any(not r.converged for r in report.rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if report.passed else EXIT_AUDIT_FAIL


def _cmd_convergence(args) -> int:
    cfg = _load_config(args, epsilons="zero", one_grid=False)
    t0 = time.perf_counter()
    rows = convergence_study(cfg)
    header = ["grid", "h", "err_inf", "err_l2", "order_inf", "order_l2"]
    table = ("convergence_report.csv", header, [[r[key] for key in header] for r in rows])
    _write_run(cfg.out_dir, cfg.to_dict(), "convergence", t0, {"rows": rows}, table)
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


@cache  # once per process: parse_args keeps nothing of one call for the next
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