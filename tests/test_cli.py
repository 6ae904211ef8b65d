import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import serrinlab.cli as cli
import serrinlab.reports as reports
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


def test_oracle_subcommand(tmp_path, capsys):
    argv = ["oracle", "--space-form", "hyperbolic", "--N", "2", "--R", "1.0", "--samples", "16"]
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0] == "d,u,u_prime,residual,c"
    assert len(lines) == 17
    last = lines[-1].split(",")
    assert abs(float(last[4]) - math.tanh(1.0) / 2.0) <= 1e-12
    # the run directory holds the table and its manifest, which records the flags
    assert {p.name for p in tmp_path.iterdir()} == {"oracle.csv", "oracle.manifest.json"}
    manifest = json.loads((tmp_path / "oracle.manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["outputs"] == ["oracle.csv"] and manifest["grid_hash"] == ""
    assert manifest["config"] == {"space_form": "hyperbolic", "profile": "laplacian", "N": 2, "R": 1.0,
                                  "samples": 16}
    # with no --out-dir the same table goes to stdout, byte for byte
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "oracle.csv").read_bytes()


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


def test_one_parser_parses_each_call_afresh(tmp_path, capsys):
    # the parser is built once per process, and no subcommand or flag of one call carries over to the next
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["oracle", "--samples", "3"]) == 0
    alone = capsys.readouterr().out
    argv = ["oracle", "--N", "3", "--profile", "p-laplacian:3", "--samples", "4", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert cli.main(["rigidity", "--space-form", "flat", "--grid", "8x8"]) == cli.EXIT_CONFIG
    capsys.readouterr()
    assert cli.main(["oracle", "--samples", "3"]) == 0
    assert capsys.readouterr().out == alone
    assert len(alone.splitlines()) == 4


@pytest.mark.parametrize("profile, message", [
    ("p-laplacian:inf", "power profile requires a finite p > 1, got inf"),
    # g' underflows to 0 and f''(0) is infinite: the residual is NaN
    ("p-laplacian:1.001", "oracle residual is not finite at d = 0.005"),
], ids=["p-inf", "p-1.001"])
@pytest.mark.parametrize("out_dir", [False, True], ids=["stdout", "out-dir"])
def test_oracle_rejects_a_non_finite_table(tmp_path, capsys, profile, message, out_dir):
    # a NaN in the oracle's table is a config error before anything is printed or written
    argv = ["oracle", "--profile", profile] + (["--out-dir", str(tmp_path / "run")] if out_dir else [])
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not (tmp_path / "run").exists()


def test_solve_rejects_an_infinite_exponent(tmp_path, capsys):
    argv = ["solve", "--profile", "p-laplacian:inf", "--grid", "8x8", "--out-dir", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "got inf" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_space_forms_take_every_spelling_of_the_laplacian(tmp_path):
    # the profile id is resolved, not compared as a string: each spelling solves the same problem
    solved = []
    for i, profile in enumerate(["laplacian", "p-laplacian:2", " laplacian"]):
        run = tmp_path / str(i)
        argv = ["solve", "--space-form", "hyperbolic", "--grid", "8x8", "--profile", profile, "--out-dir", str(run)]
        assert cli.main(argv) == cli.EXIT_OK
        solved.append((run / "solution.csv").read_bytes())
    assert solved[1] == solved[0] and solved[2] == solved[0]


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


def test_epsilon_rules(tmp_path, capsys):
    # convergence studies the unperturbed sector and takes only eps = 0; solve,
    # audit and pfunction solve one grid and take one epsilon.  What a
    # subcommand cannot honour is a config error that names epsilons and
    # writes nothing; the default ladder is not given, and the manifest
    # records the list as given
    def run(subcommand, name, epsilons, grids, extra=()):
        out = tmp_path / name
        cfg = write_config(tmp_path, epsilons=epsilons, grids=grids, out_dir=str(out))
        code = cli.main([subcommand, "--config", str(cfg), *extra])
        if code == cli.EXIT_CONFIG:
            assert "epsilons" in capsys.readouterr().err and not out.exists(), name
        else:
            manifest = json.loads((out / f"{subcommand}.manifest.json").read_text())
            assert manifest["config"]["epsilons"] == epsilons, name
        return code

    grids = ["8x8", "16x16", "32x32"]
    assert run("convergence", "conv0", [0.0], grids) == 0
    assert run("convergence", "conv0.1", [0.1], grids) == cli.EXIT_CONFIG
    assert run("convergence", "conv-ladder", [0.0, 0.1], grids) == cli.EXIT_CONFIG
    assert run("solve", "first", [0.1], ["8x8"]) == 0
    assert run("solve", "zero", [0.0], ["8x8"]) == 0
    assert (tmp_path / "first" / "solution.csv").read_bytes() != (tmp_path / "zero" / "solution.csv").read_bytes()
    solution = ["--solution", str(tmp_path / "first" / "solution.csv")]
    assert run("audit", "audit", [0.1], ["8x8"], solution) == 0
    for subcommand, extra in (("solve", ()), ("audit", solution), ("pfunction", solution)):
        assert run(subcommand, f"{subcommand}-pair", [0.1, 0.2], ["8x8"], extra) == cli.EXIT_CONFIG
    # the flag is one value, whatever the config lists
    cfg = write_config(tmp_path, epsilons=[0.1, 0.2], grids=["8x8"], out_dir=str(tmp_path / "flag"))
    assert cli.main(["solve", "--config", str(cfg), "--eps", "0.1"]) == 0
    assert (tmp_path / "flag" / "solution.csv").read_bytes() == (tmp_path / "first" / "solution.csv").read_bytes()
    for subcommand, data in (("solve", {"grid": "8x8"}), ("convergence", {"grids": grids})):
        path = tmp_path / f"default-{subcommand}.json"
        path.write_text(json.dumps({**data, "out_dir": str(tmp_path / f"default-{subcommand}")}))
        assert cli.main([subcommand, "--config", str(path)]) == 0


def test_one_grid_subcommands_reject_a_grid_list(tmp_path, capsys):
    # solve, audit, pfunction and rigidity run on one grid: a config that lists
    # more is a config error that names grids and writes nothing, before any
    # input is read; --grid gives one, and convergence keeps its list
    cfg = write_config(tmp_path, grids=["8x8", "16x16"], out_dir=str(tmp_path / "run"))
    solution = ["--solution", str(tmp_path / "missing.csv")]
    for subcommand, extra in (("solve", ()), ("audit", solution), ("pfunction", solution), ("rigidity", ())):
        assert cli.main([subcommand, "--config", str(cfg), *extra]) == cli.EXIT_CONFIG, subcommand
        err = capsys.readouterr().err
        assert "grids takes one value" in err and "missing.csv" not in err, err
        assert not (tmp_path / "run").exists(), subcommand
    assert cli.main(["solve", "--config", str(cfg), "--grid", "8x8"]) == cli.EXIT_OK
    assert len((tmp_path / "run" / "solution.csv").read_text().splitlines()) == 1 + 8 * 8


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
    "command, flag",
    [("solve", "--config"), ("audit", "--config"), ("audit", "--solution"), ("pfunction", "--config"),
     ("pfunction", "--solution"), ("rigidity", "--config"), ("convergence", "--config")],
)
def test_missing_input_file_is_a_config_error(tmp_path, capsys, command, flag):
    # an input file that cannot be read is a one-line config error naming
    # it, not a traceback, and the run writes nothing
    inputs = {"--config": write_config(tmp_path, grid="8x8"), "--solution": tmp_path / "solution.csv"}
    inputs[flag] = tmp_path / "missing"
    argv = [command, "--out-dir", str(tmp_path / "run"), "--config", str(inputs["--config"])]
    if command in ("audit", "pfunction"):
        argv += ["--solution", str(inputs["--solution"])]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{tmp_path / 'missing'}: No such file or directory" in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "key, value",
    [("k", 2.5), ("k", True), ("tol", "1e-8"), ("tol", True), ("alpha", "1.5"), ("epsilon", "0.1"),
     ("grids", []), ("Nr", None), ("Nr", 8.7), ("Nr", True), ("Nr", [8]), ("Nt", 8.0),
     ("grids", [[8.9, 8]]), ("grids", "16x16"), ("epsilons", 0.1), ("epsilons", "0.1"),
     ("grid", "8.9x8"), ("grid", [8.9, 8]), ("profile", 3), ("space_form", 5), ("profile", None),
     ("out_dir", 5), ("out_dir", None)],
)
def test_config_rejects_mistyped_values(tmp_path, capsys, key, value):
    # a JSON config is checked for types before it is compared, and the error names the key
    sizes = {"Nr": {"Nr": value, "Nt": 8}, "Nt": {"Nr": 8, "Nt": value}}.get(key, {key: value})
    cfg = write_config(tmp_path, **{"out_dir": str(tmp_path / "run"), **sizes})
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


def _radial(table):
    # per ring: r and u one bit pattern each, theta the bits of ring 0's
    bits = table.view(np.int64)
    return [len(set(ring[:, 0].tolist())) == len(set(ring[:, 2].tolist())) == 1
            and ring[:, 1].tolist() == bits[0, :, 1].tolist() for ring in bits]


def _grid(spec, eps=0.0):
    return cli._grid_from_config(ExperimentConfig.from_dict({"profile": "laplacian", "R0": 1.0, "grids": [spec],
                                                             "epsilons": [eps]}))


def _ring_field(grid, radial):
    # u = 1 - r^2, so on an unperturbed grid each ring is radial; a ring that
    # radial marks False takes the next double up on every other line, so its
    # u text differs from the radial ring's in the last digits
    u = 1.0 - grid.r_centers * grid.r_centers
    for k, keep in enumerate(radial):
        if not keep:
            u[k, 1::2] = np.nextafter(u[k, 1::2], np.inf)
    return u


def _write_field(path, grid, u):
    # the lab's own writer, as `solve` writes solution.csv
    return cli.emit_csv(path, *cli._solution_table(grid, u)[1:])


def _special_rings():
    # a ring of -0.0 beside a ring mixing 0.0 and -0.0, a ring of two nan
    # payloads beside a ring of one; ring 9 gets a reversed theta below
    grid = _grid("16x8")
    u = np.repeat(np.linspace(1.0, 0.0, grid.Nr)[:, None], grid.Nt, axis=1)
    payloads = np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], dtype=np.int64).view(np.float64)
    u[3], u[4], u[6], u[7] = -0.0, np.resize([0.0, -0.0], grid.Nt), np.resize(payloads, grid.Nt), payloads[1]
    return grid, u


@pytest.mark.parametrize("layout,radial", [
    (("128x128", 0.0), [True] * 128),
    (("256x256", 0.0), [k not in (239, 240, 248, 252) for k in range(256)]),
    (("64x64", 0.1), [False] * 64),
    (None, [k not in (4, 6, 9) for k in range(16)]),
], ids=["p1.5-128-eps0", "laplacian-256-eps0", "laplacian-64-eps0.1", "special-values"])
def test_ring_writer_is_the_column_writer_byte_for_byte(tmp_path, layout, radial):
    # radial rings are one join each, runs of the others go to the column
    # writer; the file is the column writer's byte for byte.  The ring
    # layouts are those the lab's solves wrote: every ring radial, a radial
    # prefix with a few rings whose u differs in its last digits, and a
    # perturbed grid, whose r differs along every ring
    if layout is None:
        grid, u = _special_rings()
    else:
        grid = _grid(*layout)
        u = _ring_field(grid, radial)
    name, header, table = cli._solution_table(grid, u)
    if layout is None:
        table[9, :, 1] = table[9, ::-1, 1]  # r and u one pattern each, theta not ring 0's
    assert table.shape == (grid.Nr, grid.Nt, 3) and _radial(table) == radial
    path = cli.emit_csv(tmp_path / name, header, table)
    assert path.read_bytes() == ("r,theta,u\n" + reports._render_table(table.reshape(-1, 3))).encode()


@pytest.fixture
def radial_8x8(tmp_path):
    # a config on an 8x8 grid and the lines of the lab's CSV of a radial field on it
    cfg = write_config(tmp_path, grid="8x8", out_dir=str(tmp_path / "run"))
    grid = cli._grid_from_config(cli.parse_config(cfg.read_text())[0])
    path = _write_field(tmp_path / "solution.csv", grid, _ring_field(grid, [True] * grid.Nr))
    return cfg, path.read_text().splitlines()


def _set_field(lines, line_no, col, text):
    fields = lines[line_no].split(",")
    fields[col] = text
    lines[line_no] = ",".join(fields)


def _blank_line_then_malformed(lines):
    # an empty line is skipped, as numpy skips it; the bad row is file line 10
    lines.insert(5, "")
    _set_field(lines, 9, 2, "abc")


def _blank_lines_before_header_then_malformed(lines):
    lines[0:0] = ["", ""]
    _set_field(lines, 22, 2, "abc")


def _blank_lines_before_header_then_nan_u(lines):
    # the bad row is file line 10, data row 6
    lines[0:0] = ["", ""]
    _set_field(lines, 9, 2, "nan")


def _blank_line_then_bad_radius(lines):
    # an empty line after file line 3; the bad row is file line 10, data row 7
    lines.insert(3, "")
    _set_field(lines, 9, 0, "0.5")


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
        (_blank_line_then_malformed, "row 10 is not three numbers"),
        (_blank_lines_before_header_then_malformed, "row 23 is not three numbers"),
        (_blank_lines_before_header_then_nan_u, "row 10 u is not finite"),
        (_blank_line_then_bad_radius, "row 10 radius does not match the grid spec"),
    ],
    ids=["header", "row-count", "radius", "angle", "malformed", "nan-coordinates", "short-row",
         "blank-line-malformed", "blank-header-malformed", "blank-header-non-finite-u", "blank-line-radius"],
)
def test_solution_csv_rejections(tmp_path, capsys, radial_8x8, corrupt, message):
    cfg, lines = radial_8x8
    corrupt(lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["audit", "--config", str(cfg), "--solution", str(bad)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["audit", "pfunction"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solution_csv_rejects_non_finite_u(tmp_path, capsys, radial_8x8, command, value):
    # a non-finite u is a bad input, not a field to audit: a config error that
    # names the file line, raised before any arithmetic could warn; blank
    # lines before the header or in the body count as file lines
    cfg, lines = radial_8x8
    plain, blank_header, blank_line = list(lines), ["", ""] + lines, lines[:3] + [""] + lines[3:]
    _set_field(plain, 6, 2, value)
    _set_field(blank_header, 9, 2, value)
    _set_field(blank_line, 9, 2, value)
    for layout, line in ((plain, 7), (blank_header, 10), (blank_line, 10)):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(layout) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(cfg), "--solution", str(bad)]) == cli.EXIT_CONFIG
        assert f"row {line} u is not finite" in capsys.readouterr().err
        assert not (tmp_path / "run" / f"{command}_report.json").exists()


def _strict(path, nt, block=-1):
    # the ring path's (body, matched rings) of a solution CSV, read through a
    # buffer of block bytes; (None, 0) for a file whose header it does not take
    with open(path, "rb", buffering=block) as f:
        return cli._read_body(f, nt) if f.readline() == b"r,theta,u\n" else (None, 0)


def _loadtxt(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)


def _closed_form_csv(path, grid):
    # the benchmark's layout: each field written by "%.17g", u a radial closed form
    r = grid.r_centers.ravel()
    theta = np.broadcast_to(grid.theta_centers, grid.r_centers.shape).ravel()
    rows = map("%.17g,%.17g,%.17g".__mod__, zip(r.tolist(), theta.tolist(), ((1 - r ** 3) / 3).tolist()))
    path.write_text("r,theta,u\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("block", [None, 100, 1000], ids=["one-block", "block-100", "block-1000"])
@pytest.mark.parametrize("kind", ["closed-form", "solved-eps0", "solved-eps0.1"])
def test_strict_parse_is_loadtxt_bit_for_bit(tmp_path, kind, block):
    # the closed-form layout, and the lab's own writer on a field with 23
    # leading radial rings and on a perturbed grid, whose r and u all differ:
    # every ring matched, the leading 23 rings then np.loadtxt, and np.loadtxt
    # alone; small read blocks end inside the first ring (24 lines) and
    # inside lines
    grid = _grid("32x24", 0.1 if kind == "solved-eps0.1" else 0.0)
    path = tmp_path / "solution.csv"
    if kind == "closed-form":
        _closed_form_csv(path, grid)
    else:
        _write_field(path, grid, _ring_field(grid, [k not in (23, 27, 30) for k in range(grid.Nr)]))
    want = _loadtxt(path)
    got, rings = _strict(path, 24, block or -1)
    assert got is not None and got.shape == (32 * 24, 3)
    assert rings == {"closed-form": 32, "solved-eps0": 23, "solved-eps0.1": 0}[kind]
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    if kind == "solved-eps0.1":
        assert len(set(want[:, 0].tolist())) == len(set(want[:, 2].tolist())) == 32 * 24


def test_strict_parse_of_hard_decimal_strings(tmp_path):
    # subnormals, 2^53 + 1 and other halfway cases, the largest doubles and
    # beyond, signs and bare points, and seeded random strings of 1-24 bytes
    # read to the bits np.loadtxt reads: the first 7 are ring 0's theta texts,
    # the others the r and u texts of radial rings of 7 lines, so that every
    # string goes through the ring conversion
    corpus = ["4.9406564584124654e-324", "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
              "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
              "1.7976931348623158e308", "1.7976931348623159e308", "1e400", "1e-400", "9007199254740993",
              "9007199254740995", "18014398509481986", "1152921504606847104", "0.30000000000000004",
              "1e+05", "1E5", "+.5", "5.", "-0", "-0.0", "0e0", "00000000000000000000001",
              "123456789012345678901234", ".5e-3", "-.5E+3", "7"]
    rng = np.random.default_rng(35)
    for _ in range(3000):
        digits = "".join(rng.choice(list("0123456789"), rng.integers(1, 20)))
        point = int(rng.integers(0, len(digits) + 1))
        text = str(rng.choice(["", "-", "+"])) + (digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits)
        if rng.random() < 0.6:
            text += str(rng.choice(["e", "E"])) + str(rng.choice(["", "+", "-"])) + str(rng.integers(0, 330))
        if len(text) <= 24:
            corpus.append(text)
    values = rng.standard_normal(3000) * 10.0 ** rng.integers(-325, 300, 3000)
    corpus += [f"{v:.17g}" for v in values.tolist()] + [repr(v) for v in values.tolist()]
    thetas, corpus = corpus[:7], corpus[7:] + corpus[7:][: len(corpus[7:]) % 2]
    path = tmp_path / "hard.csv"
    rings = [reports._ring_text(r, thetas, u) for r, u in zip(corpus[::2], corpus[1::2])]
    path.write_text("r,theta,u\n" + "".join(rings))
    got, matched = _strict(path, 7)
    assert matched == len(rings) > 4000
    assert np.ascontiguousarray(got).tobytes() == _loadtxt(path).tobytes()


def _field(lines, row, col, text):
    lines = list(lines)
    _set_field(lines, row, col, text)
    return lines


_OUTSIDE_STRICT = {
    # name: (the file's lines from the strict ones, the index among them of the
    # first line that differs (0 is the header), None for the strict file's array or the error)
    "crlf": (lambda ls: [line + "\r" for line in ls], 0, None),
    "blank-line": (lambda ls: ls[:4] + [""] + ls[4:], 4, None),
    "blank-end": (lambda ls: ls + [""], 65, None),
    "spaces": (lambda ls: _field(ls, 5, 2, " " + ls[5].split(",")[2] + " "), 5, None),
    "nan": (lambda ls: _field(ls, 5, 2, "nan"), 5, "row 6 u is not finite"),
    "inf": (lambda ls: _field(ls, 5, 1, "inf"), 5, "row 6 angle does not match the grid spec"),
    "underscore": (lambda ls: _field(ls, 5, 2, "1_0"), 5, "row 6 is not three numbers r,theta,u"),
    "field-25-bytes": (lambda ls: _field(ls, 5, 0, ls[5].split(",")[0].ljust(25, "0")), 5, None),
    "one-row-too-many": (lambda ls: ls + ls[-1:], 65, "65 rows do not match the 8x8 grid"),
    "one-row-too-few": (lambda ls: ls[:-1], 64, "63 rows do not match the 8x8 grid"),
    "two-fields": (lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0]] + ls[6:], 5, "row 6 is not three numbers r,theta,u"),
    "four-fields": (lambda ls: ls[:5] + [ls[5] + ",1"] + ls[6:], 5, "row 6 is not three numbers r,theta,u"),
    "header-space": (lambda ls: ["r,theta,u "] + ls[1:], 0, None),
    "last-ring-two-fields": (lambda ls: ls[:57] + [line.rsplit(",", 1)[0] for line in ls[57:]], 57,
                             "row 58 is not three numbers r,theta,u"),
}


def _read_outcome(path, grid):
    # the array a solution CSV reads to, or the message it is rejected with
    try:
        return cli._read_solution_csv(path, grid).tobytes()
    except cli.ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("name", [*_OUTSIDE_STRICT, "no-final-newline"])
def test_files_outside_the_strict_layout_take_the_text_path(tmp_path, monkeypatch, radial_8x8, name):
    # the line that leaves the writer's layout lies in no matched ring; the
    # file reads to the text path's array or its message, which are the
    # strict file's array or the listed message
    cfg, lines = radial_8x8
    grid = cli._grid_from_config(cli.parse_config(cfg.read_text())[0])
    strict = tmp_path / "strict.csv"
    strict.write_text("\n".join(lines) + "\n")
    want = cli._read_solution_csv(strict, grid)
    assert _strict(strict, grid.Nt)[1] == grid.Nr  # every ring of the radial field is matched
    assert "." in lines[5].split(",")[0]  # so that trailing zeros keep the value of the 25-byte field
    corrupt, fault, message = _OUTSIDE_STRICT.get(name, (lambda ls: ls, len(lines) - 1, None))
    path = tmp_path / "bad.csv"
    path.write_bytes(("\n".join(corrupt(lines)) + ("" if name == "no-final-newline" else "\n")).encode())
    assert not 1 <= fault <= _strict(path, grid.Nt)[1] * grid.Nt
    got = _read_outcome(path, grid)
    with monkeypatch.context() as text_only:
        text_only.setattr(cli, "_read_body", lambda f, nt: (None, 0))
        assert got == _read_outcome(path, grid)
    assert got == (want.tobytes() if message is None else f"{path}: {message}")


def _rewrite(index, col, how):
    # a change to a file's lines: field col of line index (0 is the header) becomes how(field)
    return lambda lines: _set_field(lines, index, col, how(lines[index].split(",")[col]))


_RING_FILES = {
    # name: (u on the 16x8 grid, a change to the file's lines, the rings matched);
    # line 1 + 8 i + j is line j of ring i
    "radial-prefix-then-tail": (lambda r, t: np.where(r < 0.6, 1 - r * r, t), None, 10),
    "byte-changed-in-last-line": (lambda r, t: 1 - r * r, _rewrite(1 + 8 * 5 + 7, 2, lambda u: u[:-1] + "0"), 5),
    "later-ring-theta-text": (lambda r, t: 1 - r * r, _rewrite(1 + 8 * 7 + 2, 1, "0{}".format), 7),
    "ring-0-not-radial": (lambda r, t: np.where(r < 0.1, t, 1 - r * r), None, 0),
    "ring-spans-blocks": (lambda r, t: 1 - r * r, None, 16),
}


@pytest.mark.parametrize("name", _RING_FILES)
def test_ring_reader_matches_leading_radial_rings(tmp_path, name):
    # the leading rings whose bytes are their radial text are matched, the
    # rest goes to np.loadtxt; the body is np.loadtxt's bit for bit, and so
    # is the u the reader returns
    field, change, matched = _RING_FILES[name]
    grid = _grid("16x8")
    r, theta = grid.r_centers, np.broadcast_to(grid.theta_centers, grid.r_centers.shape)
    path = cli.emit_csv(tmp_path / "solution.csv", ["r", "theta", "u"], cli._solution_table(grid, field(r, theta))[2])
    if change is not None:
        lines = path.read_text().splitlines()
        change(lines)
        path.write_text("\n".join(lines) + "\n")
    assert len(path.read_text().splitlines()[1]) * grid.Nt > 4 * 64  # a ring spans several 64-byte blocks
    got, rings = _strict(path, grid.Nt, 64 if name == "ring-spans-blocks" else -1)
    assert rings == matched
    assert got.tobytes() == _loadtxt(path).tobytes()
    assert cli._read_solution_csv(path, grid).tobytes() == _loadtxt(path)[:, 2].tobytes()


def test_solution_csv_read_memory_peak(tmp_path):
    # a 384x384 closed-form file, read ring by ring: at most 16 MB traced at
    # the peak, and np.loadtxt's values bit for bit
    cfg = ExperimentConfig.from_dict({"profile": "laplacian", "R0": 1.0, "grids": ["384x384"], "epsilons": [0.0]})
    grid = cli._grid_from_config(cfg)
    path = tmp_path / "closed_form.csv"
    _closed_form_csv(path, grid)
    assert path.stat().st_size > 16e6 / 2  # read whole, the text alone would be half the cap
    tracemalloc.start()
    try:
        u = cli._read_solution_csv(path, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak
    got, rings = _strict(path, grid.Nt)
    assert rings == grid.Nr and got.tobytes() == _loadtxt(path).tobytes()
    assert u.tobytes() == _loadtxt(path)[:, 2].tobytes()


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
