"""Run a fixed set of serrinlab CLI commands and keep every file they write.

Usage, from the root of a checkout:

    python3 tools/outputs.py OUT_DIR                 # this checkout's src/
    python3 tools/outputs.py OUT_DIR --src OTHER/src  # another checkout's sources
    python3 tools/outputs.py OUT_DIR --against BEFORE  # then compare with BEFORE

Each command runs in a fresh interpreter inside its own directory
OUT_DIR/<name>, which keeps the command's config.json, the files it writes
under out/, and its stdout.txt, stderr.txt and exit_code.txt.  Every path a
command sees is relative, so two checkouts' outputs compare directly; only the
manifests carry wall-clock time:

    python3 tools/outputs.py /tmp/before --src ../before/src
    python3 tools/outputs.py /tmp/after --against /tmp/before
    diff -r -x '*.manifest.json' /tmp/before /tmp/after

`--against` prints what moved, and exits 1 if anything did.  It compares
every file of each command directory: every command or file that only one
of the two runs has, every command whose exit code differs, the largest
relative and absolute change of each numeric field of every JSON file
(list indices collapsed, so `rows[].sigma` covers every row; a changed
string, boolean or structure counts as inf; a manifest's `timing_seconds`
is left out), the largest change of `u` in each solution.csv, relative to
the largest |u|, and in every other file (config.json, table CSVs such as
oracle.csv, stdout.txt and stderr.txt) the number of lines that differ,
relative to the longer file's line count.  Fields that did not move are not
printed.

The set covers every subcommand: rigidity scans over the ladder
[0, 0.05, 0.1, 0.2] (p = 3, p = 1.5 and mean-curvature at 32x32, hyperbolic at
64x64 with k = 2 and with k = 3, whose walls have R' != 0, sphere R0 = 0.7 at
48x48, the Laplacian at alpha = pi/3 with k = 2, reflex p = 3 at alpha = 4.5,
and p = 6 at 16x16; the quasilinear ladders among them continue each rung
from its predecessors' secant predictor, so the p = 6 scan converges on every
rung and exits 0, where solved rung by rung from the cold start its eps = 0.2
rung stalled and it exited 3), the hyperbolic scan at 256x256 over
[0, 0.06, 0.12, 0.24] (the linear ladders solve their perturbed rungs by
GMRES preconditioned by the separable part of the rung's own matrix, to the
config's tol = 1e-8; its top rung takes 12 steps, 19 at 1e-13),
convergence 16-32-64 for p = 3 and hyperbolic, solve plus audit at 48x48 and
eps = 0.1 for p = 1.5, p = 3 and mean-curvature, solve plus pfunction at eps = 0.1 for hyperbolic
64x64 and sphere 48x48, solve p = 6 at 16x16, solve mean-curvature at 32x32
past its slope bound sup f' = 1 (R0 = 1.9 with eps = 0.1, where max R/N > 1
but |Omega|/|Gamma_0| < 1, so a solution exists and the solve converges; and
R0 = 2.05 with eps = 0, where |Omega|/|Gamma_0| > 1 rules out a solution and
the solve says so after no Picard step, exit 3), solve p = 1.5 at 128x128 with
eps = 0.1 (the largest perturbed Picard solve: GMRES on the separable part
serves all 12 of its steps, in 12 cycles, with no SuperLU factor), solve
plus audit for p = 1.5 at 128x128 with eps = 0, the Laplacian solve at
256x256 with eps = 0 and eps = 0.1, each followed by an audit of its
solution.csv, the hyperbolic solve at 256x256 with eps = 0.1 (the largest
matrix, 9-point with the N K shift), `oracle --out-dir`, the same oracle
with no `--out-dir`, whose table goes to stdout.txt, and the Euclidean
oracle in dimension 3, `oracle --N 3 --out-dir`.

The solution CSVs cover both paths of the writer and the reader.  A radial
ring (r and u the same on every line, theta ring 0's) is written and read
as one string; other rings are written column by column and read by
np.loadtxt.  Every ring of the p = 1.5 128x128 eps = 0 solve is radial, so
its solve writes and its audit reads it whole by the ring path; in the
Laplacian 256x256 eps = 0 file 252 of 256 rings are radial, and its audit
matches the leading 239 and reads the rest by np.loadtxt; every eps = 0.1
file has no radial ring and is written column by column and read by
np.loadtxt alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
        ("solve_mean_curvature_past_bound", "solve", _config("mean-curvature", epsilons=[0.1], R0=1.9), []),
        ("solve_mean_curvature_no_solution", "solve", _config("mean-curvature", epsilons=[0.0], R0=2.05), []),
        ("solve_p1.5_128_eps0.1", "solve", _config("p-laplacian:1.5", ["128x128"], [0.1]), []),
        ("solve_p1.5_128", "solve", _config("p-laplacian:1.5", ["128x128"], [0.0]), []),
        ("audit_p1.5_128", "audit", _config("p-laplacian:1.5", ["128x128"], [0.0]),
         ["--solution", "../solve_p1.5_128/out/solution.csv"]),
    ]
    for tag, eps in (("", 0.0), ("_eps0.1", 0.1)):
        config = _config(grids=["256x256"], epsilons=[eps])
        runs += [(f"solve_laplacian_256{tag}", "solve", config, []),
                 (f"audit_laplacian_256{tag}", "audit", config,
                  ["--solution", f"../solve_laplacian_256{tag}/out/solution.csv"])]
    runs += [
        ("solve_hyperbolic_256_eps0.1", "solve",
         _config(grids=["256x256"], epsilons=[0.1], space_form="hyperbolic"), []),
        ("oracle", "oracle", None, ["--out-dir", "out"]),
        ("oracle_stdout", "oracle", None, []),
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


def _change(before, after) -> tuple:
    """(relative, absolute) change, relative to the larger magnitude.

    (0, 0) if equal (NaN equals NaN); (inf, inf) for any change that is not
    between two finite numbers.
    """
    if before == after or before != before and after != after:  # only NaN differs from itself
        return 0.0, 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after))
    if not numbers or not (math.isfinite(before) and math.isfinite(after)):
        return math.inf, math.inf
    return abs(after - before) / max(abs(before), abs(after)), abs(after - before)


def _json_changes(before, after, path: str, out: dict) -> None:
    """Keep in out[path] the largest changes of each leaf, list indices collapsed to []."""
    if isinstance(before, dict) and isinstance(after, dict) and before.keys() == after.keys():
        for key in before:
            _json_changes(before[key], after[key], f"{path}.{key}" if path else key, out)
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        for b, a in zip(before, after):
            _json_changes(b, a, f"{path}[]", out)
    else:
        out[path] = tuple(map(max, out.get(path, (0.0, 0.0)), _change(before, after)))


def _file_changes(before: Path, after: Path) -> dict:
    """{field: (relative, absolute)} of a JSON file, of u in a solution CSV, or of the lines of any other file.

    A manifest's `timing_seconds` is left out.  The columns of a solution
    CSV are r, theta, u; a nonzero change is relative to the larger of the
    two files' max |u|.  Any other file counts its differing lines, and a
    line only the longer file has, relative to the longer file's line count.
    """
    if after.suffix == ".json":
        changes = {}
        documents = [json.loads(p.read_text(encoding="utf-8")) for p in (before, after)]
        if after.name.endswith(".manifest.json"):
            for document in documents:
                document.pop("timing_seconds", None)
        _json_changes(*documents, "", changes)
        return changes
    if after.name != "solution.csv":
        old, new = (p.read_bytes().splitlines() for p in (before, after))
        differ = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
        return {"lines": (differ / max(len(old), len(new)) if differ else 0.0, differ)}
    u0, u1 = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)[:, -1] for p in (before, after))
    if u0.shape != u1.shape:
        return {"u": (math.inf, math.inf)}
    du = float(np.max(np.abs(u1 - u0)))
    return {"u": (du / float(max(np.max(np.abs(u0)), np.max(np.abs(u1)))) if du else 0.0, du)}


def compare(before: Path, after: Path) -> list:
    """The lines that say what moved from the outputs under before to those under after."""
    lines = []
    for name in sorted({p.name for root in (before, after) for p in root.iterdir() if p.is_dir()}):
        old, work = before / name, after / name
        missing = [root for root in (before, after) if not (root / name).is_dir()]
        if missing:
            lines.append(f"{name}: not in {missing[0]}")
            continue
        codes = [(d / "exit_code.txt").read_text(encoding="utf-8").strip() for d in (old, work)]
        if codes[0] != codes[1]:
            lines.append(f"{name}: exit code {codes[0]} -> {codes[1]}")
        files = {p.relative_to(d).as_posix() for d in (old, work) for p in d.rglob("*") if p.is_file()}
        for file in sorted(files - {"exit_code.txt"}):
            label = f"{name}/{file}"
            missing = [root for root, d in ((before, old), (after, work)) if not (d / file).is_file()]
            if missing:
                lines.append(f"{label}: not in {missing[0]}")
                continue
            for key, (rel, absolute) in _file_changes(old / file, work / file).items():
                if absolute:
                    lines.append(f"{label} {key}: {rel:.2g} relative, {absolute:.2g} absolute")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="new or empty directory for the outputs")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding the serrinlab package")
    parser.add_argument("--against", type=Path, help="another run's OUT_DIR to compare with after the run")
    args = parser.parse_args(argv)
    if not (args.src / "serrinlab" / "__init__.py").is_file():
        parser.error(f"no serrinlab package under {args.src}")
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    if args.against is not None and not args.against.is_dir():
        parser.error(f"no directory {args.against}")
    nonzero = run_all(args.out_dir, args.src)
    print(f"{len(commands())} commands, {nonzero} with a nonzero exit code")
    if args.against is not None:
        moved = compare(args.against, args.out_dir)
        print(f"against {args.against}: {len(moved)} moved", *moved, sep="\n")
        return 1 if moved else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
