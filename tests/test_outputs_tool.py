import importlib.util
import json
import math
import shutil
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def _command(root: Path, name: str, code: int, report: dict, u: list, manifest: dict) -> None:
    out = root / name / "out"
    out.mkdir(parents=True)
    (root / name / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    (out / "rigidity_report.json").write_text(json.dumps(report), encoding="utf-8")
    (out / "rigidity.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    rows = "".join(f"{0.1 * i},{0.2 * i},{v!r}\n" for i, v in enumerate(u))
    (out / "solution.csv").write_text("r,theta,u\n" + rows, encoding="utf-8")


def test_against_lists_exit_codes_and_largest_changes(tmp_path):
    # the largest change of each field over the rows; the manifest's clock
    # time and the unchanged command are not listed
    report = {"passed": True, "rows": [{"sigma": 1.0, "defect": 0.5, "c": float("nan")},
                                       {"sigma": 2.0, "defect": 0.5, "c": 0.25}]}
    moved = {"passed": False, "rows": [{"sigma": 1.01, "defect": 0.5, "c": float("nan")},
                                       {"sigma": 2.0, "defect": 0.5, "c": 0.5}]}
    before, after = tmp_path / "before", tmp_path / "after"
    runs = ((before, 0, report, [1.0, 2.0], 1.0), (after, 2, moved, [1.0, 2.004], 9.0))
    for root, code, rep, u, seconds in runs:
        _command(root, "scan", code, rep, u, {"timing_seconds": seconds})
        _command(root, "same", 0, report, [1.0, 2.0], {"timing_seconds": seconds})
    lines = outputs.compare(before, after)
    assert lines == [
        "scan: exit code 0 -> 2",
        "scan/out/rigidity_report.json passed: inf relative, inf absolute",
        "scan/out/rigidity_report.json rows[].sigma: 0.0099 relative, 0.01 absolute",
        "scan/out/rigidity_report.json rows[].c: 0.5 relative, 0.25 absolute",
        "scan/out/solution.csv u: 0.002 relative, 0.004 absolute",
    ]
    assert outputs.compare(before, before) == []
    assert outputs._change(1.0, float("nan")) == (math.inf, math.inf)


def test_against_lists_commands_of_either_run_and_exits_1_on_a_move(tmp_path, monkeypatch):
    # a command or report only BEFORE has is listed as one only AFTER has
    # is, and main exits 1 when anything moved, 0 when nothing did
    report = {"passed": True, "rows": [{"sigma": 1.0}]}
    before = tmp_path / "before"
    for name in ("gone", "same"):
        _command(before, name, 0, report, [1.0, 2.0], {"timing_seconds": 1.0})

    def run_same(out_dir, src):
        _command(out_dir, "same", 0, report, [1.0, 2.0], {"timing_seconds": 2.0})
        return 0

    monkeypatch.setattr(outputs, "run_all", run_same)
    after = tmp_path / "after"
    assert outputs.main([str(after), "--against", str(before)]) == 1
    assert outputs.compare(before, after) == [f"gone: not in {after}"]
    assert outputs.compare(after, before) == [f"gone: not in {after}"]
    shutil.rmtree(before / "gone")
    (before / "same" / "out" / "extra.json").write_text("{}", encoding="utf-8")
    assert outputs.compare(before, after) == [f"same/out/extra.json: not in {after}"]
    (before / "same" / "out" / "extra.json").unlink()
    assert outputs.main([str(tmp_path / "again"), "--against", str(before)]) == 0


def test_against_compares_every_file_of_a_command(tmp_path):
    # a table CSV without a JSON twin, stdout.txt and a manifest field other
    # than its clock time are compared too; an unchanged stderr.txt is not listed
    before, after = tmp_path / "before", tmp_path / "after"
    runs = ((before, "d,u\n0,1\n1,0\n", "", "0.1.0", 1.0), (after, "d,u\n0,1\n1,1e-17\n", "done\n", "0.2.0", 9.0))
    for root, table, stdout, version, seconds in runs:
        _command(root, "oracle", 0, {"passed": True}, [1.0], {"timing_seconds": seconds, "version": version})
        (root / "oracle" / "out" / "oracle.csv").write_text(table, encoding="utf-8")
        (root / "oracle" / "stdout.txt").write_text(stdout, encoding="utf-8")
        (root / "oracle" / "stderr.txt").write_text("", encoding="utf-8")
    assert outputs.compare(before, after) == [
        "oracle/out/oracle.csv lines: 0.33 relative, 1 absolute",
        "oracle/out/rigidity.manifest.json version: inf relative, inf absolute",
        "oracle/stdout.txt lines: 1 relative, 1 absolute",
    ]
    assert outputs.compare(after, after) == []
