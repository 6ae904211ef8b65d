"""Sweep the quasilinear solver over its envelope and keep each case's outcome.

Usage, from the root of a checkout:

    python3 tools/envelope.py OUT.json                         # this checkout's src/, at 32x32
    python3 tools/envelope.py OUT.json --grid 64 --profile p-laplacian:1.5
    python3 tools/envelope.py OUT.json --src OTHER/src          # another checkout's sources
    python3 tools/envelope.py OUT.json --against BEFORE.json    # then compare with BEFORE

The sweep solves L_f u = -1 with `solve_Lf` at tol 1e-8 on an N x N grid
(N = 32 by default) for every profile p in {1.1, 1.2, 1.3, 1.5, 1.6, 1.7,
1.8, 1.9, 3.5, 4, 5, 6} and mean-curvature, R0 in {1e-3, 1e-2, 1, 37}
({0.5, 1, 1.5, 1.9} for mean-curvature, whose R0/N stays below its slope
bound 1), eps in {0, 0.05, 0.1, 0.2, 0.3} with k = 2, and alpha in {pi/3,
pi/2, 4.5}: 780 cases.  `--profile`, given once or more, keeps only the
named profiles.  OUT.json maps each case's name to its `converged`,
`iterations` and `message`, and at eps = 0 its `sup_error`, the largest
|u - u_exact| relative to the largest |u_exact| of the radial oracle.  It
holds no times, so two runs of one checkout compare byte for byte.

`--against` lists every case that BEFORE converged and this run did not
(lost) and every case the other way round (gained), each with both
messages, and how many cases only one of the two files has; then, per profile,
the Picard iterations summed over the cases both runs converge.  It exits 1
if a case was lost.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
POWERS = (1.1, 1.2, 1.3, 1.5, 1.6, 1.7, 1.8, 1.9, 3.5, 4.0, 5.0, 6.0)
PROFILES = [f"p-laplacian:{p:g}" for p in POWERS] + ["mean-curvature"]
RADII = (1e-3, 1e-2, 1.0, 37.0)
MEAN_CURVATURE_RADII = (0.5, 1.0, 1.5, 1.9)
EPSILONS = (0.0, 0.05, 0.1, 0.2, 0.3)
ALPHAS = {"pi/3": math.pi / 3, "pi/2": math.pi / 2, "4.5": 4.5}
TOL = 1e-8


def cases(profiles=PROFILES) -> list:
    """(name, profile id, R0, eps, alpha label) of every case, in run order."""
    out = []
    for profile in profiles:
        for R0 in MEAN_CURVATURE_RADII if profile == "mean-curvature" else RADII:
            for eps in EPSILONS:
                for label in ALPHAS:
                    out.append((f"{profile} R0={R0:g} eps={eps:g} alpha={label}", profile, R0, eps, label))
    return out


def run(selected: list, n: int) -> dict:
    """{name: outcome} of each case of `selected` (`cases`), solved on an n x n grid."""
    # imported here, once main has put the --src sources first on sys.path
    from serrinlab.mesh import BoundaryRadius, build_grid
    from serrinlab.oracles import RadialSolutionEuclidean, sample_values
    from serrinlab.profiles import profile_from_id
    from serrinlab.solver import solve_Lf
    from serrinlab.spaceforms import EUCLIDEAN, ConeSection

    outcomes = {}
    for name, profile_id, R0, eps, label in selected:
        profile = profile_from_id(profile_id)
        grid = build_grid(ConeSection(EUCLIDEAN, ALPHAS[label]), n, n, BoundaryRadius(R0, eps, 2))
        u, report = solve_Lf(grid, profile, tol=TOL)
        outcome = {"converged": report.converged, "iterations": report.iterations, "message": report.message}
        if eps == 0.0:
            exact = sample_values(RadialSolutionEuclidean(profile, 2, R0), grid)
            outcome["sup_error"] = float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
        outcomes[name] = outcome
    return outcomes


def compare(before: dict, after: dict) -> tuple:
    """(the lines that say what changed from before to after, the number of lost cases)."""
    old, new = before["cases"], after["cases"]
    both = [name for name in old if name in new]
    lines = [f"{len(old) - len(both)} cases only before, {len(new) - len(both)} only after"] if (
        len(both) < max(len(old), len(new))) else []
    lost = [n for n in both if old[n]["converged"] and not new[n]["converged"]]
    gained = [n for n in both if new[n]["converged"] and not old[n]["converged"]]
    count = [sum(side[n]["converged"] for n in both) for side in (old, new)]
    lines.append(f"converged {count[0]} -> {count[1]} of {len(both)}: {len(gained)} gained, {len(lost)} lost")
    for kind, names in (("lost", lost), ("gained", gained)):
        lines += [f"{kind} {n}: {old[n]['message'] or 'converged'!r} -> {new[n]['message'] or 'converged'!r}"
                  for n in names]
    totals = {}
    for n in both:
        if old[n]["converged"] and new[n]["converged"]:
            total = totals.setdefault(n.split(" ")[0], [0, 0, 0])
            total[0] += 1
            total[1] += old[n]["iterations"]
            total[2] += new[n]["iterations"]
    for profile, (shared, a, b) in totals.items():
        change = f"{(b - a) / a:+.0%}" if a else "n/a"
        lines.append(f"{profile}: {a} -> {b} iterations ({change}) over the {shared} cases both converge")
    return lines, len(lost)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--grid", type=int, default=32, help="cells per side of each grid (default 32)")
    parser.add_argument("--profile", action="append", choices=PROFILES, help="sweep only this profile")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the serrinlab package")
    parser.add_argument("--against", type=Path, help="another run's OUT.json to compare with after the run")
    args = parser.parse_args(argv)
    if not (args.src / "serrinlab" / "__init__.py").is_file():
        parser.error(f"no serrinlab package under {args.src}")
    if args.against is not None and not args.against.is_file():
        parser.error(f"no file {args.against}")
    if args.grid < 4:
        parser.error(f"--grid takes at least 4 cells, got {args.grid}")
    grid = f"{args.grid}x{args.grid}"
    before = None if args.against is None else json.loads(args.against.read_text(encoding="utf-8"))
    if before is not None and before["grid"] != grid:
        parser.error(f"{args.against} was swept at {before['grid']}, not {grid}")
    sys.path.insert(0, str(args.src.resolve()))
    outcomes = run(cases(args.profile or PROFILES), args.grid)
    document = {"grid": grid, "tol": TOL, "cases": outcomes}
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    converged = sum(o["converged"] for o in outcomes.values())
    print(f"{len(outcomes)} cases at {grid}, {converged} converged")
    if before is None:
        return 0
    lines, lost = compare(before, document)
    print(f"against {args.against}:", *lines, sep="\n")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
