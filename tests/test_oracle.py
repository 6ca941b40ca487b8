import math

import numpy as np
import pytest

import cases
from rdcontrol import (
    Axis,
    BinarySource,
    BoxRegion,
    Diminishing,
    DomainError,
    DualState,
    GaussianMacRegion,
    GridSpec,
    GridTooLargeError,
    LogLinear,
    LogRate,
    PrimalAllocation,
    Scenario,
    SolverCaps,
    SourceSpec,
    UnsupportedCombinationError,
    VertexRegion,
    Zero,
    default_grid,
    grid_search_num,
    kkt_residuals,
    primal_violation,
    solve,
)


def test_axis_validation_and_refinement():
    with pytest.raises(DomainError):
        Axis(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        Axis(1.0, 1.0, 5)
    ax = Axis(0.0, 1.0, 5)
    fine = ax.refined()
    assert fine.steps == 9
    assert set(np.round(ax.points(), 12)).issubset(set(np.round(fine.points(), 12)))


def test_grid_too_large_refused():
    scn = cases.box_single_wide()
    spec = GridSpec((Axis(0.01, 10.0, 20_000),), (Axis(0.01, 10.0, 20_000),))
    with pytest.raises(GridTooLargeError):
        grid_search_num(scn, spec)


def test_oracle_rejects_unsupported_region():
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=VertexRegion(((1.0,), (0.0,))),
    )
    with pytest.raises(UnsupportedCombinationError):
        default_grid(scn)
    with pytest.raises(UnsupportedCombinationError):
        grid_search_num(scn, GridSpec((Axis(0.01, 1.0, 10),), (Axis(0.01, 1.0, 10),)))


def test_infeasible_grid_reports_no_point():
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=BoxRegion((0.0,)),
        caps=SolverCaps(c_min=0.5, c_max=10.0),
    )
    result = grid_search_num(scn, GridSpec((Axis(0.5, 5.0, 50),), (Axis(0.5, 5.0, 50),)))
    assert not result.found
    assert result.allocation is None
    assert result.objective == -np.inf


def test_oracle_best_point_feasible_and_deterministic():
    scn = cases.box_two_mixed()
    grid = default_grid(scn, steps=300)
    r1 = grid_search_num(scn, grid)
    r2 = grid_search_num(scn, grid)
    assert r1.found
    assert primal_violation(r1.allocation, scn) <= 1e-12
    assert r1.objective == r2.objective
    assert np.array_equal(r1.allocation.c, r2.allocation.c)


@pytest.mark.parametrize("factory", [cases.box_single_wide, cases.mac_symmetric])
def test_refinement_never_decreases_best(factory):
    scn = factory()
    grid = default_grid(scn, steps=80)
    best = grid_search_num(scn, grid).objective
    for _ in range(3):
        grid = grid.refined()
        refined_best = grid_search_num(scn, grid).objective
        assert refined_best >= best - 1e-12
        best = refined_best


def test_oracle_near_solver_on_simple_box():
    scn = cases.box_single_wide()
    report = solve(scn)
    result = grid_search_num(scn, default_grid(scn, steps=500))
    assert abs(result.objective - report.recovered_objective) <= 0.01 * abs(result.objective)


# --------------------------------------------------------------- KKT report

def test_kkt_residuals_requires_feasible_point():
    scn = cases.box_single_wide()
    bad = PrimalAllocation([5.0], [0.0], [1.0], [1.0])  # alpha+beta > c
    with pytest.raises(DomainError):
        kkt_residuals(bad, DualState([1.0], [1.0]), scn)


def test_kkt_residuals_small_after_convergence():
    scn = cases.box_single_tight()
    report = solve(scn)
    dual = DualState(report.trace.mu[-1], report.trace.lam[-1])
    rep = kkt_residuals(report.recovered, dual, scn)
    assert rep.max_residual < 1e-2


def test_kkt_residuals_grow_under_perturbed_duals():
    scn = cases.box_single_tight()
    report = solve(scn)
    dual = DualState(report.trace.mu[-1], report.trace.lam[-1])
    perturbed = DualState(dual.mu * 1.1, dual.lam * 1.1)
    at_opt = kkt_residuals(report.recovered, dual, scn)
    off_opt = kkt_residuals(report.recovered, perturbed, scn)
    assert off_opt.max_residual > at_opt.max_residual


def test_kkt_slackness_zero_at_zero_duals():
    scn = cases.box_single_wide()
    interior = PrimalAllocation([1.0], [-0.5], [1.0], [5.0])
    rep = kkt_residuals(interior, DualState([0.0], [0.0]), scn)
    assert rep.comp_slack_mu == 0.0
    assert rep.comp_slack_lam == 0.0


def _zero_and_log_rate_box() -> Scenario:
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), Zero()),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),
        ),
        region=BoxRegion((1.0, 1.0)),
        caps=SolverCaps(alpha_max=10.0, c_max=5.0, c_min=0.0),
    )


def test_kkt_residuals_with_a_zero_source_at_c_zero():
    # the Zero source sits at c = 0 = c_min in the primal and in the
    # subproblem (lam > mu), where w.ln(c) must read as 0, not 0 * -inf
    scn = _zero_and_log_rate_box()
    primal = PrimalAllocation([0.5, 1.0], [-0.5, 0.0], [0.0, 1.0], [0.0, 1.0])
    rep = kkt_residuals(primal, DualState([1.0, 0.5], [2.0, 1.0]), scn)
    # compression: source 0 gets (1, 0) against (0.5, -0.5), margin ln 2;
    # congestion: source 1 gets c = 2 against 1, margin ln 2 - 1/2;
    # scheduling: lam.r is 3 at the caps against 1
    assert (rep.comp_slack_mu, rep.comp_slack_lam) == (0.0, 0.0)
    assert rep.compression_margin == pytest.approx(math.log(2.0), abs=1e-12)
    assert rep.congestion_margin == pytest.approx(math.log(2.0) - 0.5, abs=1e-12)
    assert rep.scheduling_margin == 2.0


def test_kkt_residuals_refuse_a_feasible_primal_at_alpha_zero():
    # alpha = beta = c = 0 meets every constraint, but ln(alpha) is undefined
    scn = _zero_and_log_rate_box()
    primal = PrimalAllocation([0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0])
    assert primal_violation(primal, scn) == 0.0
    with pytest.raises(DomainError, match="alpha"):
        kkt_residuals(primal, DualState([1.0, 0.5], [2.0, 1.0]), scn)


def test_kkt_residuals_on_a_mac_above_sixteen_users():
    n = 20
    K = [(1.0, 2.0, 3.0)[j % 3] for j in range(n)]
    w = np.linspace(0.5, 2.0, n)
    scn = Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K[j]), LogRate(float(w[j])))
            for j in range(n)
        ),
        region=GaussianMacRegion(tuple(float(j + 1) for j in range(n)), 1.0),
        caps=SolverCaps(alpha_max=20.0, c_max=20.0, c_min=1e-9),
        step=Diminishing(0.3),
        tol_gap=1e-2,
    )
    report = solve(scn)
    assert report.converged
    dual = DualState(report.trace.mu[-1], report.trace.lam[-1])
    rep = kkt_residuals(report.recovered, dual, scn)
    assert np.isfinite(rep.max_residual)
    assert primal_violation(report.recovered, scn) <= 1e-9
