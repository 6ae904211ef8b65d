"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import closedforms as cf
import run as bench
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MAIN = bench.import_lab().main

import tracing  # noqa: E402  (needs the lab on sys.path)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_pass_prints_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        for name, unit in bench.END_TO_END.items():
            assert f"metric {name} " in done.stdout and f" {unit} (" in done.stdout
        assert "failed_frac " in done.stdout


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


def test_corrupted_solution_pushes_error_past_its_bound(tmp_path):
    slot = workloads.materialise("picard", 5, tmp_path, toy=True)[0]
    runner = bench.Runner(MAIN, workloads)
    err = runner.judge(slot, runner.execute(slot)[2])
    assert runner.failed == 0 and err is not None

    cmd = slot[0]
    csv = cmd.out_dir / "solution.csv"
    r, theta, u = cf.read_solution_csv(csv)
    cf.write_solution_csv(csv, r, theta, 1.01 * u)
    bad = runner.judge_one(cmd, None)
    assert bad > workloads.solution_tol(cmd.spec.grid[0]) > err
    assert (runner.failed, runner.unexpected) == (1, 1)
    assert any("solution error" in text for text in runner.failures)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.materialise("verify", 9, tmp_path / "a", toy=True)
    b = workloads.materialise("verify", 9, tmp_path / "b", toy=True)
    for slot_a, slot_b in zip(a, b):
        for ca, cb in zip(slot_a, slot_b):
            assert ca.R0 == cb.R0
            assert ca.argv[0] == cb.argv[0]
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    assert files_a and all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files_a
    )
    d = workloads.draw(9)
    lo, hi = workloads.R0_RANGE
    assert len(d.radii) == workloads.SLOTS
    assert all(lo <= r <= hi for r in d.radii)
    assert sum(d.radii) == pytest.approx(lo + hi)
    assert workloads.LADDER_STEP[0] <= d.step <= workloads.LADDER_STEP[1]


def test_pass_count_depends_on_seconds_only():
    # a fixed count keeps attempted and failed the same on every run of a seed
    for name in bench.WORKLOAD_NAMES:
        full = bench.pass_count(name, SPEC["run_seconds"], False, workloads.SLOTS, False)
        traced = bench.pass_count(name, SPEC["run_seconds"], False, workloads.SLOTS, True)
        assert full >= 2 * workloads.SLOTS and full % workloads.SLOTS == 0
        assert workloads.SLOTS <= traced <= full and traced % workloads.SLOTS == 0
    assert bench.pass_count("picard", 0.1, True, workloads.SLOTS, False) == workloads.SLOTS


def test_closed_forms_match_their_derivatives():
    # u' = -c at the boundary for each reference
    R, h = 0.9, 1e-6
    for sf, profile in [("euclidean", "laplacian"), ("euclidean", "p-laplacian:3"),
                        ("euclidean", "p-laplacian:1.5"), ("hyperbolic", "laplacian")]:
        slope = (cf.reference_u(sf, profile, R, R - h) - cf.reference_u(sf, profile, R, R)) / h
        assert abs(slope - cf.reference_c(sf, profile, R)) < 1e-5
        assert abs(float(cf.reference_u(sf, profile, R, R))) < 1e-15


def test_tracer_restores_every_patched_name():
    before = [getattr(m, a) for m, a, _ in tracing.SPANNED]
    import serrinlab.oracles
    import serrinlab.solver

    spla, quad = serrinlab.solver.spla, serrinlab.oracles.quad
    tracer = tracing.Tracer()
    tracer.install()
    assert serrinlab.solver.spla is not spla
    tracer.uninstall()
    assert [getattr(m, a) for m, a, _ in tracing.SPANNED] == before
    assert serrinlab.solver.spla is spla and serrinlab.oracles.quad is quad


def test_self_time_subtracts_the_union_of_children():
    span = {"start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 4.0}, {"start": 3.0, "end": 5.0}, {"start": 8.0, "end": 12.0}]
    assert tracing._self_time(span, kids) == pytest.approx(10.0 - 4.0 - 2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "picard", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
