import json
import math

import numpy as np
import pytest

import serrinlab.cli as cli
from serrinlab.rigidity import ExperimentConfig
from serrinlab.solver import ScalarField, SolveReport


def write_config(tmp_path, **overrides):
    base = {
        "profile": "laplacian",
        "alpha": math.pi / 2,
        "R0": 1.0,
        "grid": "16x16",
        "epsilon": 0.0,
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_solve_then_audit_round_trip(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    solution = tmp_path / "run" / "solution.csv"
    assert solution.exists()
    assert cli.main(["audit", "--config", str(cfg), "--solution", str(solution)]) == 0
    report = json.loads((tmp_path / "run" / "audit_report.json").read_text())
    assert report["passed"] is True
    assert report["manifest"] == "audit.manifest.json"
    csv_lines = (tmp_path / "run" / "audit_report.csv").read_text().splitlines()
    assert csv_lines[0] == "name,value,tolerance,passed"


def test_pfunction_subcommand(tmp_path):
    cfg = write_config(tmp_path, space_form="hyperbolic", out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    solution = tmp_path / "run" / "solution.csv"
    assert cli.main(["pfunction", "--config", str(cfg), "--solution", str(solution)]) == 0
    report = json.loads((tmp_path / "run" / "pfunction_report.json").read_text())
    assert report["passed"] is True


def test_audit_rejects_space_form_config(tmp_path):
    cfg = write_config(tmp_path, space_form="sphere", R0=0.7, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    solution = tmp_path / "run" / "solution.csv"
    assert cli.main(["audit", "--config", str(cfg), "--solution", str(solution)]) == cli.EXIT_CONFIG


def test_audit_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    solution = tmp_path / "run" / "solution.csv"
    # corrupt the field: scale breaks Tr W = -1 and the Pohozaev balance
    lines = solution.read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        r, t, u = line.split(",")
        rows.append(f"{r},{t},{float(u) * 1.5}")
    bad = tmp_path / "run" / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert cli.main(["audit", "--config", str(cfg), "--solution", str(bad)]) == cli.EXIT_AUDIT_FAIL


def test_solution_csv_grid_mismatch(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    other = write_config(tmp_path, grid="24x24", out_dir=str(tmp_path / "run"))
    assert (
        cli.main(["audit", "--config", str(other), "--solution", str(tmp_path / "run" / "solution.csv")])
        == cli.EXIT_CONFIG
    )


def test_oracle_subcommand(tmp_path):
    assert cli.main([
        "oracle", "--space-form", "hyperbolic", "--N", "2", "--R", "1.0",
        "--samples", "16", "--out-dir", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "d,u,u_prime,residual,c"
    assert len(lines) == 17
    last = lines[-1].split(",")
    assert abs(float(last[4]) - math.tanh(1.0) / 2.0) <= 1e-12


def test_oracle_prints_to_stdout(capsys):
    assert cli.main(["oracle", "--profile", "p-laplacian:3", "--samples", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d,u,u_prime,residual,c"
    assert len(out) == 5
    assert abs(float(out[1].split(",")[4]) - math.sqrt(0.5)) <= 1e-12


def test_rigidity_subcommand_and_determinism(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "rig"))
    cfg_data = json.loads(cfg.read_text())
    del cfg_data["epsilon"]
    cfg_data["epsilons"] = [0.0, 0.1]
    cfg.write_text(json.dumps(cfg_data))
    assert cli.main(["rigidity", "--config", str(cfg)]) == 0
    csv1 = (tmp_path / "rig" / "rigidity_report.csv").read_bytes()
    json1 = (tmp_path / "rig" / "rigidity_report.json").read_bytes()
    assert cli.main(["rigidity", "--config", str(cfg)]) == 0
    assert (tmp_path / "rig" / "rigidity_report.csv").read_bytes() == csv1
    assert (tmp_path / "rig" / "rigidity_report.json").read_bytes() == json1
    header = csv1.decode().splitlines()[0]
    assert header == "epsilon,sigma,c_mean,c_formula,defect,pass"


def test_convergence_subcommand(tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "conv"))
    data = json.loads(cfg.read_text())
    del data["grid"]
    del data["epsilon"]
    data["grids"] = ["16x16", "32x32", "64x64"]
    cfg.write_text(json.dumps(data))
    assert cli.main(["convergence", "--config", str(cfg)]) == 0
    lines = (tmp_path / "conv" / "convergence_report.csv").read_text().splitlines()
    assert lines[0] == "grid,h,err_inf,err_l2,order_inf,order_l2"
    assert len(lines) == 4


def test_config_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 9.9}')
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_CONFIG
    missing_cmd = cli.main([])
    assert missing_cmd == cli.EXIT_CONFIG


def test_solver_nonconvergence_exit(tmp_path, monkeypatch):
    def fake_solve(grid, profile, tol=1e-8, omega=None, schedule=None, max_iters=80):
        rep = SolveReport(iterations=1, final_residual=1.0, converged=False, message="stalled")
        return ScalarField(grid, np.zeros((grid.Nr, grid.Nt))), rep

    monkeypatch.setattr(cli, "solve_Lf", fake_solve)
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_NO_CONVERGENCE


def test_flag_overrides(tmp_path):
    out = tmp_path / "flagged"
    assert cli.main([
        "solve", "--space-form", "euclidean", "--profile", "laplacian",
        "--alpha", str(math.pi / 2), "--R0", "1.0", "--eps", "0.0",
        "--k", "2", "--grid", "16x16", "--tol", "1e-8", "--out-dir", str(out),
    ]) == 0
    assert (out / "solution.csv").exists()
    manifest = json.loads((out / "solve.manifest.json").read_text())
    assert manifest["config"]["grids"] == ["16x16"]
    assert manifest["grid_hash"]


def _reference_fmt_float(x) -> str:
    # per-value renderer with explicit nan/inf branches; the solution writer
    # must reproduce its bytes
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return f"{xf:.17g}"


def test_solution_csv_golden_bytes_and_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({"profile": "laplacian", "R0": 1.0, "grids": ["8x8"], "epsilons": [0.0]})
    grid = cli._grid_from_config(cfg)
    values = np.linspace(-1.0, 1.0, grid.n_cells).reshape(grid.Nr, grid.Nt)
    values[0, :6] = [0.1, -0.0, np.nan, 1e-300, np.inf, -np.inf]
    path = tmp_path / "solution.csv"
    cli._write_solution_csv(path, grid, ScalarField(grid, values))
    lines = ["r,theta,u"]
    for i in range(grid.Nr):
        for j in range(grid.Nt):
            lines.append(",".join(_reference_fmt_float(v) for v in
                                  (grid.r_centers[i, j], grid.theta_centers[j], values[i, j])))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    back = cli._read_solution_csv(path, grid).values
    assert back.tobytes() == values.tobytes()  # bitwise: keeps -0.0 and the nan payload


@pytest.fixture
def solved_8x8(tmp_path):
    cfg = write_config(tmp_path, grid="8x8", out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    return cfg, (tmp_path / "run" / "solution.csv").read_text().splitlines()


def _set_field(lines, line_no, col, text):
    fields = lines[line_no].split(",")
    fields[col] = text
    lines[line_no] = ",".join(fields)


def _nan_coordinates(lines):
    for n in range(1, len(lines)):
        _set_field(lines, n, 0, "nan")
        _set_field(lines, n, 1, "nan")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda lines: lines.__setitem__(0, "r,t,u"), "expected header 'r,theta,u'"),
        (lambda lines: lines.pop(), "63 rows do not match the 8x8 grid"),
        (lambda lines: _set_field(lines, 5, 0, "0.5"), "row 6 radius does not match the grid spec"),
        (lambda lines: _set_field(lines, 7, 1, "3.0"), "row 8 angle does not match the grid spec"),
        (lambda lines: _set_field(lines, 9, 2, "abc"), "row 10 is not three numbers r,theta,u"),
        (_nan_coordinates, "row 2 radius does not match the grid spec"),
        (lambda lines: lines.__setitem__(11, lines[11].rsplit(",", 1)[0]), "row 12 is not three numbers"),
    ],
    ids=["header", "row-count", "radius", "angle", "malformed", "nan-coordinates", "short-row"],
)
def test_solution_csv_rejections(tmp_path, capsys, solved_8x8, corrupt, message):
    cfg, lines = solved_8x8
    corrupt(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["audit", "--config", str(cfg), "--solution", str(bad)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "omega, code",
    [("0", cli.EXIT_CONFIG), ("-1", cli.EXIT_CONFIG), ("nan", cli.EXIT_CONFIG),
     ("inf", cli.EXIT_CONFIG), ("1.5", cli.EXIT_OK)],
)
def test_solve_omega_must_be_finite_and_positive(tmp_path, capsys, omega, code):
    # a bad damping weight is a config error, not a stalled solve; over-relaxation stays allowed
    cfg = write_config(tmp_path, profile="p-laplacian:3", out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg), f"--omega={omega}"]) == code
    if code == cli.EXIT_CONFIG:
        assert "omega" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
