import dataclasses
import math

import numpy as np
import pytest

import serrinlab.rigidity as rigidity
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


def _recorded_solves(monkeypatch, fail=lambda eps, start: False) -> list:
    """Every `solve_Lf` call of the scans that follow, as (eps, start, u, report).

    A call for which fail(eps, start) holds returns its start (or zeros)
    unconverged, without solving.
    """
    calls = []
    real = rigidity.solve_Lf

    def recording(grid, profile, tol, start=None):
        eps = grid.radius.epsilon
        if fail(eps, start):
            u, rep = (np.zeros((grid.Nr, grid.Nt)) if start is None else start), solver.SolveReport(0, math.inf)
        else:
            u, rep = real(grid, profile, tol=tol, start=start)
        calls.append((eps, start, u, rep))
        return u, rep

    monkeypatch.setattr(rigidity, "solve_Lf", recording)
    return calls


def _one_rung(cfg, eps, **changes):
    return deviation_scan(dataclasses.replace(cfg, epsilons=(eps,), **changes)).rows[0]


def test_deviation_scan_p3_continuation(monkeypatch):
    # the first rung is solved cold, bytes for bytes its one-rung scan; the
    # second starts from the first one's u and runs only the last stage of
    # the schedule.  It sits at least as close as the cold one-rung solve to
    # a settled (tol = 1e-12) solve, in sigma and in u, and within 1e-5 of the
    # one-rung sigma, the gap between two starts that both meet tol = 1e-8
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.1], grids=["32x32"])
    solves = _recorded_solves(monkeypatch)
    rep = deviation_scan(cfg)
    assert rep.passed
    assert rep.rows[1].sigma > 5 * rep.rows[0].sigma
    (_, start0, u0, rep0), (_, start1, u1, rep1) = solves
    assert start0 is None and rep0.epsilon_schedule == list(solver.SCHEDULE)
    assert start1 is u0 and rep1.epsilon_schedule == [solver.SCHEDULE[-1]]
    assert repr(rep.rows[0]) == repr(_one_rung(cfg, 0.0))
    row, cold, settled = rep.rows[1], _one_rung(cfg, 0.1), _one_rung(cfg, 0.1, tol=1e-12)
    assert abs(row.sigma - settled.sigma) <= abs(cold.sigma - settled.sigma)
    assert row.sigma == pytest.approx(cold.sigma, rel=1e-5)
    (_, _, u_cold, _), (_, _, u_settled, _) = solves[-2:]  # the two one-rung scans at 0.1
    assert np.max(np.abs(u1 - u_settled)) <= np.max(np.abs(u_cold - u_settled))


def test_continued_rungs_start_from_the_secant_predictor(monkeypatch):
    # a rung after two converged ones starts from the secant through them;
    # every row stays within 1e-5 of its one-rung row in sigma
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.05, 0.1, 0.2], grids=["16x16"])
    solves = _recorded_solves(monkeypatch)
    rep = deviation_scan(cfg)
    assert rep.passed and len(solves) == 4
    u = [call[2] for call in solves]
    assert np.array_equal(solves[2][1], u[1] + (u[1] - u[0]) * ((0.1 - 0.05) / (0.05 - 0.0)))
    assert np.array_equal(solves[3][1], u[2] + (u[2] - u[1]) * ((0.2 - 0.1) / (0.1 - 0.05)))
    for row in rep.rows:
        assert row.sigma == pytest.approx(_one_rung(cfg, row.epsilon).sigma, rel=1e-5)


def test_repeated_epsilon_continues_from_its_last_rung(monkeypatch):
    # a repeated rung starts from the u of its twin (the secant's step is 0),
    # and the rung after the pair from the later twin's u, with no division
    # by their zero spacing
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.1, 0.1, 0.2], grids=["16x16"])
    solves = _recorded_solves(monkeypatch)
    rep = deviation_scan(cfg)
    assert all(row.converged for row in rep.rows) and len(solves) == 4
    assert np.array_equal(solves[2][1], solves[1][2])
    assert solves[3][1] is solves[2][2]
    assert rep.rows[2].sigma == pytest.approx(rep.rows[1].sigma, rel=1e-5)


def test_continued_solve_that_fails_is_solved_cold(monkeypatch):
    # every continued solve fails: each rung is solved again from the cold
    # start, and its row is bytes for bytes its one-rung row
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.05, 0.1], grids=["16x16"])
    solves = _recorded_solves(monkeypatch, fail=lambda eps, start: start is not None)
    rep = deviation_scan(cfg)
    assert [(eps, start is None, r.converged) for eps, start, _, r in solves] == [
        (0.0, True, True), (0.05, False, False), (0.05, True, True), (0.1, False, False), (0.1, True, True)]
    for row in rep.rows:
        assert repr(row) == repr(_one_rung(cfg, row.epsilon))


def test_rung_that_fails_clears_the_history(monkeypatch):
    # the 0.05 rung fails from both starts: its row is unconverged, the 0.1
    # rung starts cold, and the 0.2 rung from the 0.1 rung's u alone
    cfg = ExperimentConfig(profile="p-laplacian:3", epsilons=[0.0, 0.05, 0.1, 0.2], grids=["16x16"])
    solves = _recorded_solves(monkeypatch, fail=lambda eps, start: eps == 0.05)
    rep = deviation_scan(cfg)
    assert [row.converged for row in rep.rows] == [True, False, True, True]
    assert [(eps, start is None) for eps, start, _, _ in solves] == [
        (0.0, True), (0.05, False), (0.05, True), (0.1, True), (0.2, False)]
    assert solves[4][1] is solves[3][2]
    assert repr(rep.rows[2]) == repr(_one_rung(cfg, 0.1))


def test_p6_ladder_converges_by_continuation():
    # solved cold, the eps = 0.2 rung of this ladder stalls at the regularization
    # stage eps = 0.1; continued from its predecessors, every rung converges
    cfg = ExperimentConfig(profile="p-laplacian:6", epsilons=[0.0, 0.05, 0.1, 0.2], grids=["16x16"])
    rep = deviation_scan(cfg)
    assert all(row.converged for row in rep.rows) and rep.passed
    assert not _one_rung(cfg, 0.2).converged


@pytest.mark.parametrize(
    "kwargs",
    [{"space_form": "hyperbolic"}, {"alpha": math.pi / 3, "k": 2}],
    ids=["hyperbolic", "laplacian-pi/3-k2"],
)
def test_linear_ladders_keep_one_rung_rows(monkeypatch, kwargs):
    # a linear ladder holds no field across rungs: each rung is one
    # `solve_Lf` call given no start, and each row is the bytes of its
    # one-rung scan
    cfg = ExperimentConfig(epsilons=[0.0, 0.05, 0.1, 0.2], grids=["32x32"], **kwargs)
    solves = _recorded_solves(monkeypatch)
    rep = deviation_scan(cfg)
    assert [eps for eps, _, _, _ in solves] == list(cfg.epsilons)
    assert all(start is None for _, start, _, _ in solves)
    for row in rep.rows:
        assert repr(row) == repr(_one_rung(cfg, row.epsilon))


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
def test_linear_scan_factors_nothing(monkeypatch, grid, ladder):
    # the eps = 0 rung is the separable solve and every later rung GMRES on
    # it, with no SuperLU factor, even at a tol of 1e-13; the rows match
    # rungs each solved by its own factor; at 32x32 the top rung at 0.24
    # takes 18 GMRES steps (12 at the default tol of 1e-8)
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=ladder, grids=[grid], tol=1e-13)
    calls = _count_factorizations(monkeypatch)
    rep = deviation_scan(cfg)
    assert calls == []
    monkeypatch.setattr(solver, "_separable", lambda grid, A0: None)
    direct = deviation_scan(cfg).rows
    assert len(calls) == len(ladder)
    for row, ref in zip(rep.rows, direct):
        assert (row.epsilon, row.converged, row.audit_pass_rate) == (ref.epsilon, ref.converged, ref.audit_pass_rate)
        # at eps = 0 the spread is roundoff, smaller from the separable solve,
        # whose solution does not vary with theta
        for key in ("sigma", "sigma_max", "c_mean", "c_formula"):
            assert getattr(row, key) == pytest.approx(getattr(ref, key), rel=1e-10, abs=1e-12 * ref.c_mean), key
        # the P-function defect takes second differences over (h dtheta)^2 next
        # to the vertex, which magnify the solutions' ~1e-13 difference
        assert row.defect == pytest.approx(ref.defect, rel=1e-6)
    ref = RigidityReport(config=cfg, grid=rep.grid, rows=direct)
    assert (rep.sigma_strictly_increasing, rep.passed) == (ref.sigma_strictly_increasing, ref.passed) == (True, True)


def test_linear_scan_factors_a_rung_gmres_cannot_serve(monkeypatch):
    # at a tol of 1e-13 the eps = 0 sector is too far from eps = 0.5 for one
    # GMRES cycle: that rung alone gets a SuperLU factor, bit for bit the
    # factored solve.  At the default 1e-8 one cycle serves it, with no factor
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.0, 0.5], grids=["32x32"])
    calls = _count_factorizations(monkeypatch)
    rep = deviation_scan(cfg)
    assert calls == [] and all(row.converged for row in rep.rows)
    cfg = dataclasses.replace(cfg, tol=1e-13)
    rep = deviation_scan(cfg)
    assert len(calls) == 1
    monkeypatch.setattr(solver, "_separable", lambda grid, A0: None)
    direct = deviation_scan(dataclasses.replace(cfg, epsilons=(0.5,))).rows[0]
    assert repr(rep.rows[1]) == repr(direct)


def test_linear_ladder_verdicts_do_not_depend_on_a_tight_tolerance():
    # rungs solved to the config's tol = 1e-8 give the verdicts, the pass
    # rates and, within 1e-7 relative, the sigma of rungs solved to 1e-13
    cfg = ExperimentConfig(space_form="hyperbolic", epsilons=[0.0, 0.06, 0.12, 0.24], grids=["64x64"])
    rep = deviation_scan(cfg)
    tight = deviation_scan(dataclasses.replace(cfg, tol=1e-13))
    assert (rep.passed, rep.sigma_strictly_increasing) == (tight.passed, tight.sigma_strictly_increasing)
    for row, ref in zip(rep.rows, tight.rows):
        assert (row.epsilon, row.converged, row.audit_pass_rate) == (ref.epsilon, ref.converged, ref.audit_pass_rate)
        assert row.sigma == pytest.approx(ref.sigma, rel=1e-7)
    assert repr(rep.rows[0]) == repr(tight.rows[0])


def test_convexity_contrast_runs_reflex_sector():
    cfg = ExperimentConfig(alpha=3 * math.pi / 2, epsilons=[0.0, 0.1], grids=["16x16"])
    rep = convexity_contrast(cfg)
    assert not rep.judged
    assert rep.passed  # exploratory mode never fails
    assert all(r.converged for r in rep.rows)
    with pytest.raises(ValueError):
        convexity_contrast(ExperimentConfig(alpha=math.pi / 2))
    # the rigidity theorem needs a convex section: deviation_scan called directly
    # judges only alpha <= pi
    direct = deviation_scan(cfg)
    assert direct.to_dict()["judged"] is False and repr(direct) == repr(rep)
    assert deviation_scan(dataclasses.replace(cfg, alpha=math.pi, epsilons=(0.0,))).judged


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
