import importlib.util
import json
import math
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
