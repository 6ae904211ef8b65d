"""Run a fixed set of serrinlab CLI commands and keep every file they write.

Usage, from the root of a checkout:

    python3 tools/outputs.py OUT_DIR                 # this checkout's src/
    python3 tools/outputs.py OUT_DIR --src OTHER/src  # another checkout's sources

Each command runs in a fresh interpreter inside its own directory
OUT_DIR/<name>, which keeps the command's config.json, the files it writes
under out/, and its stdout.txt, stderr.txt and exit_code.txt.  Every path a
command sees is relative, so two checkouts' outputs compare directly; only the
manifests carry wall-clock time:

    python3 tools/outputs.py /tmp/before --src ../before/src
    python3 tools/outputs.py /tmp/after
    diff -r -x '*.manifest.json' /tmp/before /tmp/after

The set covers every subcommand: rigidity scans over the ladder
[0, 0.05, 0.1, 0.2] (p = 3, p = 1.5 and mean-curvature at 32x32, hyperbolic at
64x64 with k = 2 and with k = 3, whose walls have R' != 0, sphere R0 = 0.7 at
48x48, the Laplacian at alpha = pi/3 with k = 2, reflex p = 3 at alpha = 4.5,
and p = 6 at 16x16), the hyperbolic scan at 256x256 over
[0, 0.06, 0.12, 0.24] (the linear ladders solve their perturbed rungs by
GMRES on the separable solve of the unperturbed sector; these two reach its
refinement and its longest cycle), convergence 16-32-64 for
p = 3 and hyperbolic, solve plus audit at 48x48 and eps = 0.1 for p = 1.5,
p = 3 and mean-curvature, solve plus pfunction at eps = 0.1 for hyperbolic
64x64 and sphere 48x48, solve p = 6 at 16x16, the Laplacian solve at 256x256
with eps = 0 and eps = 0.1, the hyperbolic solve at 256x256 with eps = 0.1
(the largest matrix, 9-point with the N K shift), `oracle --out-dir`, and
the Euclidean oracle in dimension 3, `oracle --N 3 --out-dir`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LADDER = [0.0, 0.05, 0.1, 0.2]


def _config(profile="laplacian", grids=("32x32",), epsilons=LADDER, **extra) -> dict:
    return {"profile": profile, "grids": list(grids), "epsilons": list(epsilons), "out_dir": "out", **extra}


def commands() -> list:
    """(name, subcommand, config or None, extra arguments), in run order."""
    hyperbolic = {"space_form": "hyperbolic", "grids": ["64x64"]}
    sphere = {"space_form": "sphere", "R0": 0.7, "grids": ["48x48"]}
    runs = [
        ("rigidity_p3", "rigidity", _config("p-laplacian:3"), []),
        ("rigidity_p1.5", "rigidity", _config("p-laplacian:1.5"), []),
        ("rigidity_mean_curvature", "rigidity", _config("mean-curvature"), []),
        ("rigidity_hyperbolic", "rigidity", _config(**hyperbolic), []),
        ("rigidity_hyperbolic_k3", "rigidity", _config(**hyperbolic, k=3), []),
        ("rigidity_hyperbolic_256", "rigidity",
         _config(grids=["256x256"], epsilons=[0.0, 0.06, 0.12, 0.24], space_form="hyperbolic"), []),
        ("rigidity_sphere", "rigidity", _config(**sphere), []),
        ("rigidity_laplacian_k2", "rigidity", _config(alpha=math.pi / 3, k=2), []),
        ("rigidity_reflex_p3", "rigidity", _config("p-laplacian:3", alpha=4.5), []),
        ("rigidity_p6", "rigidity", _config("p-laplacian:6", grids=["16x16"]), []),
        ("convergence_p3", "convergence", _config("p-laplacian:3", ["16x16", "32x32", "64x64"], [0.0]), []),
        ("convergence_hyperbolic", "convergence",
         _config(grids=["16x16", "32x32", "64x64"], epsilons=[0.0], space_form="hyperbolic"), []),
    ]
    for profile, tag in (("p-laplacian:1.5", "p1.5"), ("p-laplacian:3", "p3"), ("mean-curvature", "mean_curvature")):
        config = _config(profile, ["48x48"], [0.1])
        runs += [(f"solve_{tag}", "solve", config, []),
                 (f"audit_{tag}", "audit", config, ["--solution", f"../solve_{tag}/out/solution.csv"])]
    for tag, extra in (("hyperbolic", hyperbolic), ("sphere", sphere)):
        config = _config(epsilons=[0.1], **extra)
        runs += [(f"solve_{tag}", "solve", config, []),
                 (f"pfunction_{tag}", "pfunction", config, ["--solution", f"../solve_{tag}/out/solution.csv"])]
    runs += [
        ("solve_p6", "solve", _config("p-laplacian:6", ["16x16"], [0.0]), []),
        ("solve_laplacian_256", "solve", _config(grids=["256x256"], epsilons=[0.0]), []),
        ("solve_laplacian_256_eps0.1", "solve", _config(grids=["256x256"], epsilons=[0.1]), []),
        ("solve_hyperbolic_256_eps0.1", "solve",
         _config(grids=["256x256"], epsilons=[0.1], space_form="hyperbolic"), []),
        ("oracle", "oracle", None, ["--out-dir", "out"]),
        ("oracle_N3", "oracle", None, ["--N", "3", "--out-dir", "out"]),
    ]
    return runs


def run_all(out_dir: Path, src: Path) -> int:
    """Run every command; returns how many exited with a code other than 0."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    nonzero = 0
    for name, subcommand, config, extra in commands():
        work = out_dir / name
        work.mkdir(parents=True)
        argv = [sys.executable, "-m", "serrinlab.cli", subcommand, *extra]
        if config is not None:
            (work / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
            argv += ["--config", "config.json"]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=600)
        (work / "stdout.txt").write_text(done.stdout, encoding="utf-8")
        (work / "stderr.txt").write_text(done.stderr, encoding="utf-8")
        (work / "exit_code.txt").write_text(f"{done.returncode}\n", encoding="utf-8")
        print(f"{name}: exit {done.returncode}", flush=True)
        nonzero += done.returncode != 0
    return nonzero


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="new or empty directory for the outputs")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the serrinlab package")
    args = parser.parse_args(argv)
    if not (args.src / "serrinlab" / "__init__.py").is_file():
        parser.error(f"no serrinlab package under {args.src}")
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    nonzero = run_all(args.out_dir, args.src)
    print(f"{len(commands())} commands, {nonzero} with a nonzero exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
