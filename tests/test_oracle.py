import itertools
import math
import tracemalloc
from dataclasses import replace

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
    capacity_C,
    default_grid,
    grid_search_num,
    kkt_residuals,
    primal_violation,
    solve,
)
from rdcontrol.oracle import _FEAS_SLACK, MAX_GRID_POINTS, GridSearchResult, _rate_candidates


def test_axis_validation_and_refinement():
    with pytest.raises(DomainError):
        Axis(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        Axis(1.0, 1.0, 5)
    ax = Axis(0.0, 1.0, 5)
    fine = ax.refined()
    assert fine.steps == 9
    assert set(np.round(ax.points(), 12)).issubset(set(np.round(fine.points(), 12)))


def test_grid_spec_refuses_axis_lists_of_different_lengths():
    axis = Axis(0.01, 10.0, 5)
    with pytest.raises(DomainError, match="must match in length"):
        GridSpec((axis, axis), (axis,))


def test_grid_search_refuses_a_grid_for_other_sources():
    # a grid of two sources for a one-source scenario
    scn = cases.box_single_wide()
    axis = Axis(0.01, 10.0, 5)
    with pytest.raises(DomainError, match="GridSpec covers 2 sources, scenario has 1"):
        grid_search_num(scn, GridSpec((axis, axis), (axis, axis)))


def test_grid_too_large_refused():
    # the cap counts each source's alpha and c points, which the scan builds
    scn = cases.box_single_wide()
    half = MAX_GRID_POINTS // 2
    spec = GridSpec((Axis(0.01, 10.0, half),), (Axis(0.01, 10.0, half + 1),))
    assert spec.total_points() == MAX_GRID_POINTS + 1
    with pytest.raises(GridTooLargeError):
        grid_search_num(scn, spec)


def test_grid_cap_counts_a_long_axis_before_allocating():
    # 2 alpha points and 1e7 c points once counted as 2e7 of 1e8, so the
    # scan built several arrays of 1e7 floats; the cap now refuses them
    scn = cases.box_single_wide()
    spec = GridSpec((Axis(0.01, 10.0, 2),), (Axis(0.01, 10.0, 10**7),))
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError):
            grid_search_num(scn, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_oracle_rejects_unsupported_region():
    # only the scan decides support: default_grid reads any region's rate
    # ceilings through max_weight, and grid_search_num refuses the region
    one = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0))
    vertex2 = Scenario(sources=(one, one), region=VertexRegion(((1.2, 0.2), (0.2, 1.4))))
    assert [axis.hi for axis in default_grid(vertex2, steps=10).c] == [1.2, 1.4]
    for scn in (
        Scenario(sources=(one,), region=VertexRegion(((1.0,), (0.0,)))),
        vertex2,
        Scenario(sources=(one,) * 3, region=GaussianMacRegion((1.0, 2.0, 3.0), 1.0)),
    ):
        with pytest.raises(UnsupportedCombinationError):
            grid_search_num(scn, default_grid(scn, steps=10))


def test_mac_refused_before_enumerating_its_orders(monkeypatch):
    # 40 users have 40! serving orders; none may be built before the refusal
    def no_orders(*args):
        raise AssertionError("enumerated the MAC's serving orders")

    monkeypatch.setattr(itertools, "permutations", no_orders)
    one = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0))
    mac40 = Scenario(sources=(one,) * 40, region=GaussianMacRegion(tuple(range(1, 41)), 1.0))
    with pytest.raises(UnsupportedCombinationError, match="at most 2 users"):
        _rate_candidates(mac40)


def test_default_grid_reads_rate_ceilings_through_max_weight():
    # a box's ceilings are its caps and a MAC user's is C(P_i, noise), bit for bit
    box, mac = cases.box16(), cases.mac_asymmetric()
    ceilings = (box.region.caps, [capacity_C(p, mac.region.noise) for p in mac.region.powers])
    for scn, want in zip((box, mac), ceilings):
        grid = default_grid(scn, steps=50)
        assert [axis.hi for axis in grid.c] == [min(scn.caps.c_max, w) for w in want]


@pytest.mark.parametrize("steps", [1, 0, -3])
def test_default_grid_refuses_too_few_steps(steps):
    # 0 steps once divided by zero while spacing the axes
    with pytest.raises(DomainError) as err:
        default_grid(cases.box_single_wide(), steps=steps)
    assert err.value.field == "steps"


def test_oracle_verifies_a_wide_box():
    # a box has one rate candidate, and the scan is linear per source, so
    # width costs only time; a MAC's n! vertices keep their guard
    scn = cases.box16()
    report = solve(scn)
    result = grid_search_num(scn, default_grid(scn, steps=400))
    assert result.found and report.converged
    rel = abs(result.objective - report.recovered_objective) / (1.0 + abs(result.objective))
    assert rel <= scn.tol_gap
    mac3 = Scenario(
        sources=tuple(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)) for _ in range(3)),
        region=GaussianMacRegion((1.0, 2.0, 3.0), 1.0),
    )
    with pytest.raises(UnsupportedCombinationError):
        grid_search_num(mac3, default_grid(mac3, steps=10))


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


# ------------------------------------------- against the dense matrix scan

def _matrix_grid_search(scn: Scenario, grid: GridSpec) -> GridSearchResult:
    """The oracle's former scan, kept as the reference: a steps x steps
    objective matrix per source, masked to its feasible points, whose
    column maxima feed the rate-candidate loop."""
    caps = scn.caps
    per_source = []
    for i, spec in enumerate(scn.sources):
        a_pts = grid.alpha[i].points()
        c_pts = grid.c[i].points()
        K, w = spec.V.K, spec.U.w
        with np.errstate(divide="ignore", invalid="ignore"):
            va = np.where(a_pts > 0, np.log(a_pts), -np.inf)
            # U = w*ln(c): -inf at c <= 0 where w > 0, 0 at every c where w = 0
            uc = np.where(c_pts > 0, w * np.log(c_pts), -np.inf) if w > 0 else np.zeros_like(c_pts)
        # objective[a, c] = ln(alpha) + K*(c - alpha) + U(c)
        obj = (va - K * a_pts)[:, None] + (K * c_pts + uc)[None, :]
        feasible = (
            (a_pts[:, None] >= c_pts[None, :])  # beta = c - alpha <= 0
            & (a_pts[:, None] > 0)
            & (a_pts[:, None] <= caps.alpha_max + _FEAS_SLACK)
            & (c_pts[None, :] >= caps.c_min - _FEAS_SLACK)
            & (c_pts[None, :] <= caps.c_max + _FEAS_SLACK)
        )
        obj = np.where(feasible, obj, -np.inf)
        best_per_c = obj.max(axis=0)
        arg_per_c = obj.argmax(axis=0)  # first maximizer on ties
        # prefix maxima over c and where each was last raised, which keeps
        # the smallest c on ties
        prefix_best = np.maximum.accumulate(best_per_c)
        new = np.concatenate(([True], best_per_c[1:] > prefix_best[:-1]))
        prefix_arg = np.maximum.accumulate(np.where(new, np.arange(len(c_pts)), 0))
        per_source.append((a_pts, c_pts, prefix_best, prefix_arg, arg_per_c))

    best_total = -math.inf
    best_alloc = None
    for r in _rate_candidates(scn):
        total = 0.0
        picks = []
        ok = True
        for i in range(scn.n):
            a_pts, c_pts, prefix_best, prefix_arg, arg_per_c = per_source[i]
            j = int(np.searchsorted(c_pts, r[i] + _FEAS_SLACK, side="right")) - 1
            if j < 0 or not math.isfinite(prefix_best[j]):
                ok = False
                break
            jj = int(prefix_arg[j])
            total += float(prefix_best[j])
            picks.append((float(a_pts[arg_per_c[jj]]), float(c_pts[jj])))
        if ok and total > best_total:
            alpha = np.array([p[0] for p in picks])
            c = np.array([p[1] for p in picks])
            best_total = total
            best_alloc = PrimalAllocation(alpha, c - alpha, c, np.asarray(r, dtype=float))

    if best_alloc is None:
        return GridSearchResult(False, None, -math.inf)
    if primal_violation(best_alloc, scn) > 1e-12:
        raise DomainError("grid_search_num produced an infeasible point")
    return GridSearchResult(True, best_alloc, best_total)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_same_result(scn: Scenario, grid: GridSpec) -> bool:
    """Assert the oracle gives the reference's result bit for bit; return
    whether it found a point."""
    got, want = grid_search_num(scn, grid), _matrix_grid_search(scn, grid)
    assert got.found == want.found
    assert _bits(got.objective) == _bits(want.objective)
    if want.found:
        for name in ("alpha", "beta", "c", "r"):
            assert _bits(getattr(got.allocation, name)) == _bits(getattr(want.allocation, name)), name
    else:
        assert got.allocation is None
    return want.found


@pytest.mark.parametrize("refine", [False, True], ids=["steps", "refined"])
@pytest.mark.parametrize("name,factory,steps", cases.SOLVER_CASES, ids=[c[0] for c in cases.SOLVER_CASES])
def test_oracle_matches_matrix_scan_on_the_paper_cases(name, factory, steps, refine):
    scn = factory()
    grid = default_grid(scn, steps=steps)
    assert _assert_same_result(scn, grid.refined() if refine else grid)


def _random_draw(rng: np.random.Generator) -> tuple[Scenario, GridSpec]:
    """A box or 2-user MAC with LogRate and Zero sources, caps that can
    leave every c column without a feasible alpha, zero-capacity links,
    and default or free-standing grids of 2 to 101 steps."""
    n = int(rng.integers(1, 3))
    mac = n == 2 and rng.random() < 0.5
    sources = tuple(
        SourceSpec(
            BinarySource(1.0, 0.5),
            LogLinear(float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))),
            LogRate(float(rng.choice([0.5, 1.0, 2.0]))) if rng.random() < 0.6 else Zero(),
        )
        for _ in range(n)
    )
    if mac:
        region = GaussianMacRegion(
            tuple(float(rng.choice([0.0, 0.5, 1.0, 5.0])) for _ in range(n)),
            float(rng.choice([0.5, 1.0])),
        )
    else:
        region = BoxRegion(tuple(float(rng.choice([0.0, 0.3, 1.0, 2.5, 10.0])) for _ in range(n)))
    c_min = float(rng.choice([0.0, 1e-9, 0.05]))
    caps = SolverCaps(
        alpha_max=float(rng.choice([0.02, 0.4, 1.5, 20.0])),
        c_max=float(rng.choice([0.5, 3.0, 20.0])),
        c_min=c_min,
    )
    scn = Scenario(sources=sources, region=region, caps=caps)
    steps = int(rng.choice([2, 3, 17, 101]))
    if rng.random() < 0.5:
        return scn, default_grid(scn, steps=steps)

    def axis() -> Axis:
        lo = float(rng.choice([-0.5, 0.0, c_min, 0.01, 0.3]))
        return Axis(lo, lo + float(rng.choice([0.5, 2.0, 8.0, 25.0])), steps)

    return scn, GridSpec(tuple(axis() for _ in range(n)), tuple(axis() for _ in range(n)))


def test_oracle_matches_matrix_scan_on_random_draws():
    rng = np.random.default_rng(20100801)
    kinds = set()
    found = 0
    for _ in range(240):
        scn, grid = _random_draw(rng)
        found += _assert_same_result(scn, grid)
        kinds.add((type(scn.region).__name__, grid.c[0].steps))
    # the draws reach both regions at every step count, with and without a point
    assert len(kinds) == 8
    assert 0 < found < 240


def test_oracle_allocates_no_steps_by_steps_matrix():
    scn = cases.mac_asymmetric()
    grid = default_grid(scn, steps=1200)
    grid_search_num(scn, grid)  # warm up imports and caches
    tracemalloc.start()
    try:
        grid_search_num(scn, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1200 x 1200 float matrix alone is 11.5 MB
    assert peak < 1_000_000


# --------------------------------------------------------------- KKT report

def test_kkt_residuals_requires_feasible_point():
    scn = cases.box_single_wide()
    bad = PrimalAllocation([5.0], [0.0], [1.0], [1.0])  # alpha+beta > c
    with pytest.raises(DomainError):
        kkt_residuals(bad, DualState([1.0], [1.0]), scn)


def test_kkt_residuals_small_after_convergence():
    # run to a gap of 1e-12, every solver case stops at an optimal
    # incumbent, and the prices it implies are KKT prices
    for _, factory, _ in cases.SOLVER_CASES:
        scn = replace(factory(), tol_gap=1e-12)
        report = solve(scn)
        dual = DualState(*cases.implied_prices(scn, report.recovered.r))
        rep = kkt_residuals(report.recovered, dual, scn)
        assert rep.max_residual <= 1e-9


def test_kkt_residuals_grow_under_perturbed_duals():
    scn = cases.box_single_tight()
    report = solve(scn)
    dual = DualState(*cases.implied_prices(scn, report.recovered.r))
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
