import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import serrinlab.cli as cli
from serrinlab.rigidity import ExperimentConfig
from serrinlab.solver import SolveReport


def write_config(tmp_path, **overrides):
    base = {
        "profile": "laplacian",
        "alpha": math.pi / 2,
        "R0": 1.0,
        "grid": "16x16",
        "epsilon": 0.0,
    }
    base.update(overrides)
    for key, replaced in (("grids", "grid"), ("epsilons", "epsilon"), ("Nr", "grid")):
        if key in overrides:
            del base[replaced]
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


@pytest.mark.parametrize("N", [3, 4])
def test_oracle_euclidean_in_higher_dimension(tmp_path, N):
    # the residual is sampled at a point with one coordinate per dimension
    for profile in ("laplacian", "p-laplacian:1.5", "p-laplacian:3", "mean-curvature"):
        out = tmp_path / profile
        argv = ["oracle", "--N", str(N), "--profile", profile, "--samples", "8", "--out-dir", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        rows = [line.split(",") for line in (out / "oracle.csv").read_text().splitlines()[1:]]
        assert len(rows) == 8
        assert max(abs(float(row[3])) for row in rows) < 1e-12


def test_oracle_manifest_times_the_whole_run(tmp_path, monkeypatch):
    real = cli.euclid_u

    def slow_u(sol, rho):
        time.sleep(0.05)
        return real(sol, rho)

    monkeypatch.setattr(cli, "euclid_u", slow_u)
    assert cli.main([
        "oracle", "--profile", "p-laplacian:3", "--samples", "4", "--out-dir", str(tmp_path),
    ]) == 0
    manifest = json.loads((tmp_path / "oracle.manifest.json").read_text())
    assert manifest["timing_seconds"] >= 0.2, manifest["timing_seconds"]


def test_oracle_prints_to_stdout(capsys):
    assert cli.main(["oracle", "--profile", "p-laplacian:3", "--samples", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d,u,u_prime,residual,c"
    assert len(out) == 5
    assert abs(float(out[1].split(",")[4]) - math.sqrt(0.5)) <= 1e-12


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_oracle_rejects_sample_count_below_one(tmp_path, capsys, samples):
    # a header-only table is not a table of the oracle
    argv = ["oracle", "--samples", samples, "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "--samples" in captured.err and captured.out == ""
    assert not (tmp_path / "run").exists()


def test_rigidity_rejects_empty_epsilon_ladder(tmp_path, capsys):
    # a scan with no rows would pass without checking anything
    cfg = write_config(tmp_path, epsilons=[], out_dir=str(tmp_path / "rig"))
    assert cli.main(["rigidity", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "epsilons" in capsys.readouterr().err
    assert not (tmp_path / "rig").exists()


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


def test_epsilon_rules(tmp_path):
    # convergence always studies the unperturbed sector, and solve takes the
    # first epsilon of the list; the manifest records the list as given
    def run(subcommand, name, epsilons, grids):
        cfg = write_config(tmp_path, epsilons=epsilons, grids=grids, out_dir=str(tmp_path / name))
        assert cli.main([subcommand, "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / name / f"{subcommand}.manifest.json").read_text())
        assert manifest["config"]["epsilons"] == epsilons
        return tmp_path / name

    grids = ["8x8", "16x16", "32x32"]
    conv_01, conv_0 = (run("convergence", f"conv{e}", [e], grids) / "convergence_report.csv" for e in (0.1, 0.0))
    assert conv_01.read_bytes() == conv_0.read_bytes()
    sol_pair, sol_first = (run("solve", name, e, ["8x8"]) / "solution.csv"
                           for name, e in (("pair", [0.1, 0.2]), ("first", [0.1])))
    assert sol_pair.read_bytes() == sol_first.read_bytes()
    sol_0 = run("solve", "zero", [0.0], ["8x8"]) / "solution.csv"
    assert sol_pair.read_bytes() != sol_0.read_bytes()


def _loaded_by_cli_import(module: str) -> bool:
    """Whether importing serrinlab.cli in a fresh interpreter loads module."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import serrinlab.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip() == "True"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # quadrature imports scipy.integrate on its first call, so the CLI starts without it
    assert not _loaded_by_cli_import("scipy.integrate")


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # the W mask dilates without scipy.ndimage, which would also load scipy.special
    assert not _loaded_by_cli_import("scipy.ndimage")


def test_cli_import_leaves_scipy_fft_unloaded():
    # the separable solver transforms by a dense cosine basis: importing
    # scipy.fft would add 75-90 ms to every command's start-up
    assert not _loaded_by_cli_import("scipy.fft")


def test_config_error_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 9.9}')
    assert cli.main(["solve", "--config", str(bad)]) == cli.EXIT_CONFIG
    missing_cmd = cli.main([])
    assert missing_cmd == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "key, value",
    [("k", 2.5), ("k", True), ("tol", "1e-8"), ("tol", True), ("alpha", "1.5"), ("epsilon", "0.1"),
     ("grids", []), ("Nr", None), ("Nr", 8.7), ("Nr", True), ("Nr", [8]), ("Nt", 8.0),
     ("grids", [[8.9, 8]]), ("grids", "16x16"), ("epsilons", 0.1), ("epsilons", "0.1"),
     ("grid", "8.9x8"), ("grid", [8.9, 8])],
)
def test_config_rejects_mistyped_values(tmp_path, capsys, key, value):
    # a JSON config is checked for types before it is compared, and the error names the key
    sizes = {"Nr": {"Nr": value, "Nt": 8}, "Nt": {"Nr": 8, "Nt": value}}.get(key, {key: value})
    cfg = write_config(tmp_path, **sizes, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert {"k": "mode k"}.get(key, key) in err, err
    if key in ("grid", "epsilon"):
        # a singular key is named as written, not as the list it stands in for
        assert f"{key}s" not in err, err
    if key in ("grids", "epsilons") and not isinstance(value, list):
        # a plural key given one value points to its singular form
        assert "JSON list" in err and f"'{key[:-1]}'" in err, err
    assert not (tmp_path / "run").exists()


def test_solver_nonconvergence_exit(tmp_path, monkeypatch):
    # every solve goes through solve_Lf, a space-form one too
    def fake_solve(grid, profile, tol=1e-8):
        rep = SolveReport(iterations=1, final_residual=1.0, converged=False, message="stalled")
        return np.zeros((grid.Nr, grid.Nt)), rep

    monkeypatch.setattr(cli, "solve_Lf", fake_solve)
    for space_form in ("euclidean", "hyperbolic"):
        cfg = write_config(tmp_path, space_form=space_form, out_dir=str(tmp_path / space_form))
        assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_NO_CONVERGENCE, space_form


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


def _special_u_column(n):
    # 0.0, -0.0, two nan payloads (one with the sign bit), +-inf, and few distinct values
    payloads = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(np.float64)
    special = np.concatenate(([0.0, -0.0], payloads, [np.inf, -np.inf]))
    return np.resize(np.concatenate((special, [0.25, -0.25, 0.25, 1 / 3])), n)


def test_solution_csv_golden_bytes_and_round_trip(tmp_path):
    # the solution table is rendered column by column; its bytes must be the
    # per-value reference's on a plain, a perturbed and a special-values field
    cases = []
    for eps in (0.0, 0.1):
        cfg = ExperimentConfig.from_dict({"profile": "laplacian", "R0": 1.0, "grids": ["8x8"],
                                          "epsilons": [eps], "k": 2})
        grid = cli._grid_from_config(cfg)
        values = np.linspace(-1.0, 1.0, grid.n_cells).reshape(grid.Nr, grid.Nt)
        values[0, :6] = [0.1, -0.0, np.nan, 1e-300, np.inf, -np.inf]
        cases.append((grid, values))
    perturbed = cases[-1][0]
    assert len(set(perturbed.r_centers.ravel().tolist())) == perturbed.n_cells  # every r distinct
    cases.append((perturbed, _special_u_column(perturbed.n_cells).reshape(perturbed.Nr, perturbed.Nt)))

    def write(path, grid, values):
        _, header, table = cli._solution_table(grid, values)
        cli.emit_csv(path, header, table)
        lines = ["r,theta,u"]
        for i in range(grid.Nr):
            for j in range(grid.Nt):
                lines.append(",".join(_reference_fmt_float(v) for v in
                                      (grid.r_centers[i, j], grid.theta_centers[j], values[i, j])))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    for n, (grid, values) in enumerate(cases):
        # every nan payload is written as the one "nan"; a non-finite u is not read back
        path = tmp_path / f"solution{n}.csv"
        write(path, grid, values)
        first = int(np.argmax(~np.isfinite(values.ravel())))
        with pytest.raises(cli.ConfigError, match=f"row {first + 2} u is not finite"):
            cli._read_solution_csv(path, grid)
        # the finite values read back bitwise, -0.0 included, as an array of the grid's shape
        finite = np.where(np.isfinite(values), values, 0.5)
        path = tmp_path / f"finite{n}.csv"
        write(path, grid, finite)
        back = cli._read_solution_csv(path, grid)
        assert type(back) is np.ndarray and back.shape == (grid.Nr, grid.Nt)
        assert back.tobytes() == finite.tobytes()


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


@pytest.mark.parametrize("command", ["audit", "pfunction"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solution_csv_rejects_non_finite_u(tmp_path, capsys, solved_8x8, command, value):
    # a non-finite u is a bad input, not a field to audit: a config error that
    # names the file line, raised before any arithmetic could warn
    cfg, lines = solved_8x8
    _set_field(lines, 6, 2, value)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg), "--solution", str(bad)]) == cli.EXIT_CONFIG
    assert "row 7 u is not finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / f"{command}_report.json").exists()


@pytest.mark.parametrize("flag", ["--tol=inf", "--tol=nan", "--eps=nan", "--omega=1"])
def test_solve_rejects_bad_flags(tmp_path, capsys, flag):
    # a bad tolerance or epsilon is a config error, not a stalled or trivially
    # converged solve; the damping weight is the solver's own and has no flag
    cfg = write_config(tmp_path, profile="p-laplacian:3", out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg), flag]) == cli.EXIT_CONFIG
    assert flag[2:flag.index("=")] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_rejects_omega(tmp_path, capsys):
    cfg = write_config(tmp_path, profile="p-laplacian:3", omega=1.0, out_dir=str(tmp_path / "run"))
    assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "unknown config keys: omega" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["solve", "rigidity"])
def test_tol_applies_to_space_form_solves(tmp_path, command):
    # the linear space-form solve meets the requested tolerance or reports non-convergence
    args = [command, "--space-form", "hyperbolic", "--grid", "16x16", "--out-dir", str(tmp_path / "run")]
    assert cli.main(args + ["--tol", "1e-20"]) == cli.EXIT_NO_CONVERGENCE
    assert cli.main(args + ["--tol", "1e-8"]) == cli.EXIT_OK


CONFIG_KEYS = {"space_form", "profile", "alpha", "R0", "epsilons", "k", "grids", "tol", "out_dir"}
MANIFEST_KEYS = {"subcommand", "config", "grid_hash", "timing_seconds", "outputs", "version"}
REPORT_KEYS = {
    "solve": {"iterations", "final_residual", "epsilon_schedule", "converged", "message"},
    "audit": {"checks", "masked_cells", "total_cells", "passed", "pass_rate"},
    "pfunction": {
        "c", "c_squared", "max_P", "min_P", "max_P_minus_c2", "delta_P_min",
        "delta_P_violation_fraction", "wall_dP_dnu_max", "hessian_defect",
        "step3_lhs", "step3_rhs", "step3_residual", "verdicts", "passed",
    },
    "rigidity": {"config", "grid", "rows", "judged", "sigma_strictly_increasing", "passed"},
    "convergence": {"rows"},
}
RIGIDITY_ROW_KEYS = {
    "epsilon", "sigma", "sigma_max", "c_mean", "c_formula", "defect", "audit_pass_rate", "converged",
}
AUDIT_CHECK_KEYS = {"name", "value", "tolerance", "passed"}


def test_report_schemas_and_manifest_outputs(tmp_path):
    # a field added to a report dataclass changes these key sets on purpose
    base = ["--grid", "16x16", "--R0", "1.0"]
    conv = tmp_path / "convergence.json"
    conv.write_text(json.dumps({"grids": ["16x16", "32x32", "64x64"], "epsilons": [0.0]}))
    runs = [
        ("solve", "solve", base),
        ("solve", "solve_h", base + ["--space-form", "hyperbolic"]),
        ("audit", "audit", base + ["--solution", str(tmp_path / "solve" / "solution.csv")]),
        ("pfunction", "pfunction",
         base + ["--space-form", "hyperbolic", "--solution", str(tmp_path / "solve_h" / "solution.csv")]),
        ("rigidity", "rigidity", base),
        ("convergence", "convergence", ["--config", str(conv)]),
    ]
    for command, name, args in runs:
        out = tmp_path / name
        assert cli.main([command, *args, "--out-dir", str(out)]) == cli.EXIT_OK, name
        report = json.loads((out / f"{command}_report.json").read_text())
        assert set(report) == REPORT_KEYS[command] | {"manifest"}, name
        manifest = json.loads((out / report["manifest"]).read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert set(manifest["config"]) == CONFIG_KEYS
        assert {p.name for p in out.iterdir()} == {*manifest["outputs"], report["manifest"]}, name
        if command == "audit":
            keys = {frozenset(c) for c in report["checks"]}
            assert keys == {frozenset(AUDIT_CHECK_KEYS), frozenset(AUDIT_CHECK_KEYS | {"extras"})}
        if command == "rigidity":
            assert set(report["config"]) == CONFIG_KEYS
            assert all(set(row) == RIGIDITY_ROW_KEYS for row in report["rows"])
