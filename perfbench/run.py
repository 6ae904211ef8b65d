"""End-to-end and per-layer benchmark of the serrinlab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload picard --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # summary table
    python3 -m pytest perfbench -q                                  # the benchmark's own tests

One process acts as one closed-loop client: it calls ``serrinlab.cli.main``
in-process, each command starting when the previous one returns.  A pass is
one workload's command list (see workloads.py) for one of the seed's two R0
slots.  A run makes a fixed number of passes, alternating the slots: as many
as take about ``--seconds`` on a 2-core x86 VM (PASS_SECONDS), and never
fewer than one per slot.  The count depends on ``--seconds`` only, never on
the clock, so the same seed always attempts the same commands and meets the
same failures.  Every command's output is checked against closed forms
computed in closedforms.py.

``--trace 0`` reports the end-to-end metrics: wall_s (best-case pass wall
time: for each slot, the sum over its commands of each command's fastest
time in the run, averaged over the two slots; a shared host slows whole
stretches of a run by up to 2x, and the fastest of several repetitions of
the same work is what stays put; the median pass is printed beside it),
setup_s (median of three set-ups, this process's own and two fresh
interpreters': imports plus writing the seeded configs and closed-form
CSVs), peak_rss_mb (this process) and err_inf_rel (median over passes of
the pass's worst relative error against the closed forms).  failed_frac is
printed with them and equals ``failed / attempted`` of the result line.
``--trace 1`` alternates untraced and traced passes on the same inputs and
reports the per-layer metrics of tracing.py, medians over traced passes,
plus the tracing overhead.

A command fails if it raises, if its exit code differs from the verdict the
mathematics predicts, or if its output fails a check.  ``correct`` is false
when any failure is not a known defect of the lab (workloads.TRACE_DEFECT on
the commands marked with it).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

WORKLOAD_NAMES = ("picard", "rigidity", "verify")
# typical wall time of one full-size pass on a 2-core x86 VM
PASS_SECONDS = {"picard": 5.5, "rigidity": 5.0, "verify": 4.5}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_inf_rel": "ratio"}
SETUP_SAMPLES = 3


def import_lab():
    """Import serrinlab from this checkout's src/, and from nowhere else."""
    package = SRC / "serrinlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no serrinlab sources at {package}")
    sys.path.insert(0, str(SRC))
    import serrinlab.cli

    if Path(serrinlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported serrinlab from {serrinlab.__file__}, not {package}")
    return serrinlab.cli


def set_up(workload: str, seed: int, workdir: Path, toy: bool):
    """The lab's imports plus input generation; returns (seconds, cli.main, slots)."""
    t0 = time.perf_counter()
    main = import_lab().main
    import workloads

    slots = workloads.materialise(workload, seed, workdir, toy)
    return time.perf_counter() - t0, main, slots


def probe_setups(args, workdir: Path, n: int) -> list:
    """Set-up times of n fresh interpreters, one after another."""
    samples = []
    for k in range(n):
        probe_dir = workdir / f"probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(probe_dir),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.toy:
            cmd.append("--toy")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return samples


def host_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "serrin_threads_set": "SERRIN_THREADS" in os.environ,
    }


class Runner:
    """Runs passes of one workload and keeps the tally of attempts and failures."""

    def __init__(self, main, workloads):
        self.main = main
        self.wl = workloads
        self.diagnose = workloads.ScanDiagnosis()
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = {}  # description -> occurrences

    def execute(self, commands, tracer=None):
        """Run the commands back to back.

        Returns (wall s of each command, cpu s, {index: exception text}).
        """
        raised, walls = {}, []
        cpu0 = time.process_time()
        for idx, cmd in enumerate(commands):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(cmd.argv)
                else:
                    tracer.command = idx
                    code = tracer.call(f"cli.{cmd.spec.subcommand}", self.main, cmd.argv)
            except Exception as exc:  # a raising command is a failed command, not a dead run
                raised[idx] = f"{type(exc).__name__}: {exc}"
                code = None
            cmd.exit_code = code
            walls.append(time.perf_counter() - t0)
        cpu = time.process_time() - cpu0
        return walls, cpu, raised

    def judge(self, commands, raised):
        """Check a pass's outputs; return its worst scored error, or None."""
        errs = [self.judge_one(cmd, raised.get(idx)) for idx, cmd in enumerate(commands)]
        errs = [e for e in errs if e is not None]
        return max(errs) if errs else None

    def judge_one(self, cmd, raised):
        """Count one command's attempt and failure; return its scored error."""
        spec = cmd.spec
        self.attempted += 1
        problems, result = [], None
        if raised is not None:
            problems.append(f"raised {raised}")
        else:
            try:
                result = self.wl.check(cmd, self.diagnose)
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        if result is not None:
            problems += result.problems
        audit = result.audit_failures if result is not None else []
        err = result.err if result is not None and spec.scored else None
        predicted = self.wl.EXIT_OK
        if not (problems or audit or cmd.exit_code != predicted):
            return err
        self.failed += 1
        known = (
            spec.known_defect is not None
            and not problems
            and audit
            and all(name == spec.known_defect for name, _ in audit)
            and cmd.exit_code in (predicted, self.wl.EXIT_AUDIT_FAIL)
        )
        if not known:
            self.unexpected += 1
        text = "; ".join([d for _, d in audit] + problems)
        key = (f"{spec.name} R0={cmd.R0:.4f}: exit {cmd.exit_code} (predicted {predicted}); "
               f"{text}; {'known defect' if known else 'UNEXPECTED'}")
        self.failures[key] = self.failures.get(key, 0) + 1
        return err


def quartile_text(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"; quartiles {q1:.4g}-{q3:.4g}"


def pass_count(workload: str, seconds: float, toy: bool, slots: int, traced: bool) -> int:
    """Passes of one run: whole rounds over the slots filling about ``seconds``.

    A traced run makes each pass twice, untraced and traced, so it makes half
    as many.
    """
    if toy:
        return slots
    per_round = slots * PASS_SECONDS[workload] * (2 if traced else 1)
    return slots * max(1, round(seconds / per_round))


def best_case_pass(times: dict, slots: int) -> float:
    """Mean over slots of the sum of each command's fastest time; times[(slot, idx)] lists them."""
    per_slot = [sum(min(v) for (s, _), v in times.items() if s == slot) for slot in range(slots)]
    return statistics.fmean(per_slot)


def run(args) -> dict:
    workdir = SCRATCH / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        # this process's own set-up is the first sample; fresh interpreters give the rest
        first, main, slots = set_up(args.workload, args.seed, workdir / "inputs", args.toy)
        # a traced run reports no setup_s, so it spends no time on probes
        setup_samples = [first] + ([] if args.trace else probe_setups(args, workdir, SETUP_SAMPLES - 1))
        import tracing
        import workloads

        facts = host_facts()
        print("host " + json.dumps(facts, sort_keys=True), flush=True)
        d = workloads.draw(args.seed)
        print(f"workload {args.workload} seed {args.seed} R0 by pass slot "
              f"{[round(r, 4) for r in d.radii]} ladder step {d.step:.4f}", flush=True)
        runner = Runner(main, workloads)
        if not args.toy:
            # fills caches and finishes lazy imports; its outcomes are not judged
            runner.execute(workloads.materialise(args.workload, args.seed, workdir / "warm", True)[0])

        walls, errs, layers, traced_walls = [], [], [], []
        spans, times = [], {}
        for k in range(pass_count(args.workload, args.seconds, args.toy, len(slots), bool(args.trace))):
            slot = k % len(slots)
            commands = slots[slot]
            cmd_walls, _cpu, raised = runner.execute(commands)
            err = runner.judge(commands, raised)
            wall = sum(cmd_walls)
            walls.append(wall)
            for idx, t in enumerate(cmd_walls):
                times.setdefault((slot, idx), []).append(t)
            if err is not None:
                errs.append(err)
            line = f"pass {k} R0={commands[0].R0:.4f} wall {wall:.4f} s"
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    t_walls, cpu, raised = runner.execute(commands, tracer)
                finally:
                    tracer.uninstall()
                runner.judge(commands, raised)
                t_wall = sum(t_walls)
                traced_walls.append(t_wall)
                metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
                metrics["cpu_s"] = cpu
                layers.append(metrics)
                spans.append({"pass": k, "R0": commands[0].R0, "spans": tracer.spans,
                              "counts": dict(tracer.counts)})
                line += f", traced {t_wall:.4f} s"
            print(line, flush=True)

        for text, n in sorted(runner.failures.items()):
            print(f"failure x{n} {args.workload}/{text}", flush=True)
        per_pass = len(slots[0])
        failed_frac = runner.failed / runner.attempted
        print(f"failed_frac {failed_frac:.4g} ratio ({runner.failed} of {runner.attempted} "
              f"commands over {len(walls) * (2 if args.trace else 1)} passes of {per_pass})", flush=True)

        if args.trace:
            out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
            out["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            units = tracing.LAYER_METRICS
            SCRATCH.mkdir(exist_ok=True)
            trace_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"host": facts, "passes": spans}), encoding="utf-8")
            print(f"spans written to {trace_path.relative_to(ROOT)}; "
                  f"per-layer values are medians of {len(layers)} traced passes", flush=True)
        else:
            out = {
                "wall_s": best_case_pass(times, len(slots)),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "err_inf_rel": statistics.median(errs) if errs else float("nan"),
            }
            units = END_TO_END
            counts = {"wall_s": f"best case of {len(walls)} passes over {len(slots)} slots; "
                                f"median pass {statistics.median(walls):.4g}{quartile_text(walls)}",
                      "setup_s": f"median of {len(setup_samples)} set-ups{quartile_text(setup_samples)}",
                      "peak_rss_mb": "1 sample",
                      "err_inf_rel": f"median of {len(errs)} passes{quartile_text(errs)}"}
            for name, value in out.items():
                print(f"metric {name} {value:.6g} {units[name]} ({counts[name]})", flush=True)
        return {
            "correct": runner.unexpected == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in out.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run each workload in its own process and print the end-to-end table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.toy:
            cmd.append("--toy")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        notes = [ln for ln in done.stdout.splitlines() if ln.startswith("metric ")]
        rows.append((name, result, notes))
    print("\nworkload   metric        value        unit   samples")
    for name, result, notes in rows:
        for line in notes:
            _, metric, value, unit, rest = line.split(" ", 4)
            print(f"{name:<10} {metric:<13} {value:<12} {unit:<6} {rest}")
        frac = result["failed"] / result["attempted"]
        print(f"{name:<10} {'failed_frac':<13} {frac:<12.4g} {'ratio':<6} "
              f"({result['failed']} of {result['attempted']} commands; correct={result['correct']})")
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="16x16 grids, no warm-up pass")
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe is not None:
        print(set_up(args.workload, args.seed, args.setup_probe, args.toy)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
