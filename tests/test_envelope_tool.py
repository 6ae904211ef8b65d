import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "envelope.py"
spec = importlib.util.spec_from_file_location("envelope", TOOL)
envelope = importlib.util.module_from_spec(spec)
spec.loader.exec_module(envelope)

TWO = ("p-laplacian:1.5 R0=1 eps=0 alpha=pi/2", "mean-curvature R0=1.5 eps=0.1 alpha=4.5")


def test_sweep_is_780_cases_named_once():
    names = [name for name, *_ in envelope.cases()]
    assert len(names) == len(set(names)) == 780
    assert set(TWO) <= set(names)


def test_two_case_sweep_compares_and_exits_1_on_a_lost_case(tmp_path, monkeypatch, capsys):
    # the outcome of each case, the oracle error only at eps = 0, no times:
    # a second run writes the same bytes, and --against lists what moved
    every = envelope.cases()
    monkeypatch.setattr(envelope, "cases", lambda profiles: [c for c in every if c[0] in TWO])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert envelope.main([str(first), "--grid", "16"]) == 0
    document = json.loads(first.read_text(encoding="utf-8"))
    assert document["grid"] == "16x16" and set(document["cases"]) == set(TWO)
    radial, perturbed = (document["cases"][name] for name in TWO)
    assert radial["converged"] and perturbed["converged"] and radial["message"] == ""
    assert 0 < radial["sup_error"] <= 5e-3 and "sup_error" not in perturbed
    assert envelope.main([str(second), "--grid", "16", "--against", str(first)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert "converged 2 -> 2 of 2: 0 gained, 0 lost" in capsys.readouterr().out

    document["cases"][TWO[0]].update(converged=False, message="Picard stalled at epsilon=0.0001 (omega=0.25)")
    first.write_text(json.dumps(document), encoding="utf-8")
    assert envelope.main([str(second), "--grid", "16", "--against", str(first)]) == 0
    out = capsys.readouterr().out
    assert f"gained {TWO[0]}: 'Picard stalled at epsilon=0.0001 (omega=0.25)' -> 'converged'" in out
    assert f"mean-curvature: {perturbed['iterations']} -> {perturbed['iterations']} iterations" in out
    stalled = document["cases"]
    monkeypatch.setattr(envelope, "run", lambda selected, n: stalled)
    assert envelope.main([str(tmp_path / "third.json"), "--grid", "16", "--against", str(second)]) == 1
    out = capsys.readouterr().out
    assert f"lost {TWO[0]}: 'converged' -> 'Picard stalled at epsilon=0.0001 (omega=0.25)'" in out
    assert "converged 2 -> 1 of 2: 0 gained, 1 lost" in out
