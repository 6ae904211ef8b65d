import dataclasses
import math

import numpy as np
import pytest

import serrinlab.solver as solver
from serrinlab.identities import identity_suite
from serrinlab.mesh import BoundaryRadius, build_grid
from serrinlab.pfunction import pfunction_suite
from serrinlab.profiles import profile_from_id
from serrinlab.rigidity import (
    ExperimentConfig,
    RigidityReport,
    convergence_study,
    convexity_contrast,
    deviation_scan,
)
from serrinlab.solver import solve_Lf, solve_linear_spaceform
from serrinlab.spaceforms import EUCLIDEAN, HYPERBOLIC, ConeSection


def test_config_defaults_and_validation():
    cfg = ExperimentConfig()
    assert cfg.space_form == "euclidean" and cfg.profile == "laplacian"
    assert cfg.epsilons == (0.0, 0.05, 0.1, 0.2)
    with pytest.raises(ValueError):
        ExperimentConfig(alpha=7.0)
    with pytest.raises(ValueError):
        ExperimentConfig(epsilons=[-0.1])
    with pytest.raises(ValueError):
        ExperimentConfig(grids=["64x64", "32x32"])
    with pytest.raises(ValueError):
        ExperimentConfig(space_form="hyperbolic", profile="p-laplacian:3")
    with pytest.raises(ValueError):
        ExperimentConfig(profile="nonsense")


def test_config_roundtrip():
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.0, 0.1], grids=["32x32"])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"bogus": 1})


def test_deviation_scan_laplacian():
    cfg = ExperimentConfig(epsilons=[0.0, 0.05, 0.1], grids=["32x32"])
    rep = deviation_scan(cfg)
    assert rep.sigma_strictly_increasing
    assert rep.passed
    assert rep.rows[0].sigma <= 1e-10 * rep.rows[0].c_mean
    assert rep.rows[2].sigma > 5 * rep.rows[0].sigma
    assert rep.rows[2].defect > rep.rows[0].defect


def test_deviation_scan_p3_separation():
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.1], grids=["32x32"])
    rep = deviation_scan(cfg)
    assert rep.passed
    assert rep.rows[1].sigma > 5 * rep.rows[0].sigma
    # a quasilinear rung ignores the scan's factor slot: each row is the bytes
    # of a one-rung scan
    for row in rep.rows:
        assert repr(row) == repr(deviation_scan(dataclasses.replace(cfg, epsilons=(row.epsilon,))).rows[0])


def test_deviation_scan_hyperbolic():
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.0, 0.05, 0.1], grids=["32x32"])
    rep = deviation_scan(cfg)
    assert rep.passed and rep.sigma_strictly_increasing


@pytest.mark.parametrize(
    "kwargs",
    [
        {"space_form": "sphere", "R0": math.pi / 4},
        {"profile": "mean-curvature"},
        {"profile": "p-laplacian:1.5"},
    ],
    ids=["sphere", "mean-curvature", "p1.5"],
)
def test_sigma_ladder_every_builtin(kwargs):
    # sigma strictly increasing over the default ladder is an acceptance
    # property for every built-in profile and space form
    cfg = ExperimentConfig(epsilons=[0.0, 0.05, 0.1, 0.2], grids=["32x32"], **kwargs)
    rep = deviation_scan(cfg)
    assert rep.sigma_strictly_increasing, [r.sigma for r in rep.rows]
    assert rep.passed


def test_deviation_scan_deterministic():
    cfg = ExperimentConfig(epsilons=[0.0, 0.1], grids=["16x16"])
    r1 = deviation_scan(cfg)
    r2 = deviation_scan(cfg)
    assert r1.to_dict() == r2.to_dict()


def _count_factorizations(monkeypatch) -> list:
    calls = []
    factor = solver._factor

    def counting(A):
        calls.append(A.shape)
        return factor(A)

    monkeypatch.setattr(solver, "_factor", counting)
    return calls


@pytest.mark.parametrize(
    "grid, ladder",
    [("64x64", [0.0, 0.05, 0.1, 0.2]), ("32x32", [0.0, 0.06, 0.12, 0.24])],
    ids=["64x64", "32x32-top-0.24"],
)
def test_linear_scan_factors_once(monkeypatch, grid, ladder):
    # every later rung is solved by GMRES on the first rung's factor, and the
    # rows match rungs each solved by its own factor; the top rung at 0.24
    # takes 25 GMRES steps, more than a cycle of 20 holds
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=ladder, grids=[grid])
    calls = _count_factorizations(monkeypatch)
    rep = deviation_scan(cfg)
    assert len(calls) == 1
    direct = [deviation_scan(dataclasses.replace(cfg, epsilons=(e,))).rows[0] for e in cfg.epsilons]
    assert len(calls) == 5
    for row, ref in zip(rep.rows, direct):
        assert (row.epsilon, row.converged, row.audit_pass_rate) == (ref.epsilon, ref.converged, ref.audit_pass_rate)
        for key in ("sigma", "sigma_max", "c_mean", "c_formula"):
            assert getattr(row, key) == pytest.approx(getattr(ref, key), rel=1e-10, abs=1e-300), key
        # the P-function defect takes second differences over (h dtheta)^2 next
        # to the vertex, which magnify the solutions' ~1e-13 difference
        assert row.defect == pytest.approx(ref.defect, rel=1e-6)
    ref = RigidityReport(config=cfg, grid=rep.grid, rows=direct)
    assert (rep.sigma_strictly_increasing, rep.passed) == (ref.sigma_strictly_increasing, ref.passed) == (True, True)


def test_linear_scan_refactors_a_rung_the_held_factor_cannot_serve(monkeypatch):
    # the eps = 0 factor is too far from eps = 0.5 for one GMRES cycle: that
    # rung gets its own factor, bit for bit the direct solve
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.0, 0.5], grids=["32x32"])
    calls = _count_factorizations(monkeypatch)
    rep = deviation_scan(cfg)
    assert len(calls) == 2
    direct = deviation_scan(dataclasses.replace(cfg, epsilons=(0.5,))).rows[0]
    assert repr(rep.rows[1]) == repr(direct)


def test_convexity_contrast_runs_reflex_sector():
    cfg = ExperimentConfig(alpha=3 * math.pi / 2, epsilons=[0.0, 0.1], grids=["16x16"])
    rep = convexity_contrast(cfg)
    assert not rep.judged
    assert rep.passed  # exploratory mode never fails
    assert all(r.converged for r in rep.rows)
    with pytest.raises(ValueError):
        convexity_contrast(ExperimentConfig(alpha=math.pi / 2))


def test_convergence_study_orders():
    cfg = ExperimentConfig(grids=["16x16", "32x32", "64x64"])
    rows = convergence_study(cfg)
    assert math.isnan(rows[0]["order_inf"])
    for row in rows[1:]:
        assert 1.7 <= row["order_inf"] <= 2.3
        assert 1.7 <= row["order_l2"] <= 2.3
    errs = [row["err_inf"] for row in rows]
    assert errs[2] < errs[1] < errs[0]


def test_convergence_study_validation():
    with pytest.raises(ValueError):
        convergence_study(ExperimentConfig(grids=["16x16", "32x32"]))
    with pytest.raises(ValueError):
        convergence_study(ExperimentConfig(grids=["16x16", "32x32", "48x48"]))


def test_sigma_decreases_under_refinement():
    # sigma(0) sits at solver roundoff on the symmetric scheme at every level
    for grid in ("16x16", "32x32"):
        cfg = ExperimentConfig(epsilons=[0.0], grids=[grid])
        rep = deviation_scan(cfg)
        assert rep.rows[0].sigma <= 1e-10 * rep.rows[0].c_mean


def test_rows_read_their_audits():
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.1], grids=["16x16"])
    row = deviation_scan(cfg).rows[0]
    grid = build_grid(ConeSection(EUCLIDEAN, cfg.alpha), 16, 16, BoundaryRadius(1.0, 0.1, 2))
    profile = profile_from_id(cfg.profile)
    u, rep = solve_Lf(grid, profile, tol=cfg.tol)
    assert rep.converged and row.converged
    checks = {c.name: c for c in identity_suite(grid, u, profile).checks}
    assert row.defect == checks["W_plus_id_over_N_sup_interior"].value
    assert row.c_formula == checks["c_measured_vs_formula"].extras["c_formula"]

    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.1], grids=["16x16"])
    row = deviation_scan(cfg).rows[0]
    grid = build_grid(ConeSection(HYPERBOLIC, cfg.alpha), 16, 16, BoundaryRadius(1.0, 0.1, 2))
    u, rep = solve_linear_spaceform(grid, 2)
    assert rep.converged and row.converged
    assert row.defect == pfunction_suite(grid, u).hessian_defect
