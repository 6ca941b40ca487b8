import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
from rdcontrol import (
    BinarySource,
    BoxRegion,
    Constant,
    Diminishing,
    DomainError,
    DualState,
    GaussianMacRegion,
    LogLinear,
    LogRate,
    PrimalAllocation,
    Scenario,
    SolverCaps,
    SourceSpec,
    UnsupportedCombinationError,
    VertexRegion,
    Zero,
    dual_iterate,
    dual_objective,
    kkt_residuals,
    lagrangian_value,
    primal_objective,
    primal_violation,
    solve,
)
from rdcontrol.layers import compression_subproblem, congestion_subproblem
from rdcontrol.orchestrator import MAX_ITERS, MAX_TRACE_CELLS, _Kernel


def single_source_scenario(cap=10.0, K=1.0, w=1.0, **kw):
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(w)),),
        region=BoxRegion((cap,)),
        caps=SolverCaps(alpha_max=50.0, c_max=50.0, c_min=1e-9),
        step=Diminishing(0.3),
        **kw,
    )


# ----------------------------------------------------------- scenario type

def test_scenario_validation():
    src = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0))
    with pytest.raises(DomainError):
        Scenario(sources=(), region=BoxRegion((1.0,)))
    with pytest.raises(DomainError):
        Scenario(sources=(src,), region=BoxRegion((1.0, 2.0)))


@pytest.mark.parametrize(
    "field, build",
    [
        ("model", lambda: SourceSpec(LogLinear(1.0), LogLinear(1.0))),
        ("V", lambda: SourceSpec(BinarySource(1.0, 0.5), LogRate(1.0))),
        ("U", lambda: SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogLinear(1.0))),
    ],
    ids=["model", "V", "U"],
)
def test_source_spec_refuses_a_field_of_the_wrong_type(field, build):
    # the one place that says which source and utility combinations exist
    with pytest.raises(UnsupportedCombinationError) as err:
        build()
    assert str(err.value).startswith(f"SourceSpec.{field}:")


@pytest.mark.parametrize("max_iters", [10.5, True, "10", 0, MAX_ITERS + 1])
def test_max_iters_must_be_an_integer_in_range(max_iters):
    with pytest.raises(DomainError) as err:
        single_source_scenario(max_iters=max_iters)
    assert err.value.field == "max_iters"


def test_default_max_iters_fits_the_trace_cap():
    # 50,000 iterations of 334 sources would keep 100.3 M trace floats
    src = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0))
    wide = Scenario(sources=(src,) * 334, region=BoxRegion((1.0,) * 334))
    assert 1 <= wide.max_iters < 50_000
    assert wide.max_iters * (6 * wide.n + 2) <= MAX_TRACE_CELLS
    assert Scenario(sources=(src,), region=BoxRegion((1.0,))).max_iters == 50_000


def test_overflowing_prices_blame_the_step():
    # the second cap is above c_max, so the prices the first incumbent
    # implies certify nothing and the run reaches iteration 2
    src = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0))
    scn = Scenario(sources=(src, src), region=BoxRegion((1.0, 2e6)), step=Constant(1e305))
    with pytest.raises(DomainError) as err:
        solve(scn)
    assert err.value.field == "gamma0"
    assert "iteration 2" in str(err.value) and "max_weight" not in str(err.value)


def test_dual_state_validation():
    # NaN passes a test written mu < 0, and an infinite price makes the
    # dual value NaN
    nan, inf = math.nan, math.inf
    for mu, lam in [([-0.1], [0.0]), ([nan, 1.0], [1.0, nan]), ([inf, 1.0], [1.0, inf]),
                    ([1.0], [-inf])]:
        with pytest.raises(DomainError):
            DualState(np.array(mu), np.array(lam))


def test_negative_zero_prices_are_zero_prices():
    # -0.0 passes the >= 0 checks, and the compression layer would read
    # 1/min(-0.0, K) as -inf: both entry points store +0.0 instead
    scn = cases.box_two_mixed()
    dual = DualState([-0.0, -0.0], [1.0, 1.0])
    assert not np.signbit(dual.mu).any()
    assert dual_objective(dual, scn) == dual_objective(DualState([0.0, 0.0], [1.0, 1.0]), scn)
    assert math.isfinite(dual_objective(dual, scn))
    # lam = -0.0 with mu = +0.0 would make lam - mu = -0.0, which no layer
    # floors: DualState is where the rule lives
    dual = DualState([0.0, 0.0], [-0.0, -0.0])
    assert not np.signbit(dual.lam).any()
    want = dual_objective(DualState([0.0, 0.0], [0.0, 0.0]), scn)
    assert np.float64(dual_objective(dual, scn)).view(np.int64) == np.float64(want).view(np.int64)

    def first_row(dual_init):
        tr = solve(replace(scn, dual_init=dual_init, max_iters=1)).trace
        rows = np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)
        return np.append(rows[0], tr.dual_obj[0]).view(np.int64)

    assert np.array_equal(first_row(-0.0), first_row(0.0))


def test_step_rules():
    assert Constant(0.5).step_size(9) == 0.5
    assert Diminishing(1.0).step_size(4) == 0.5
    with pytest.raises(DomainError):
        Diminishing(0.0)


# ------------------------------------------------------- objective algebra

def test_lagrangian_zero_duals_is_plain_objective():
    scn = single_source_scenario()
    primal = PrimalAllocation([2.0], [-0.5], [1.5], [3.0])
    dual = DualState([0.0], [0.0])
    assert lagrangian_value(primal, dual, scn) == pytest.approx(
        primal_objective(primal, scn), abs=1e-12
    )


def test_lagrangian_hand_value():
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),),
        region=BoxRegion((10.0,)),
    )
    primal = PrimalAllocation([1.0], [0.0], [1.0], [1.0])
    dual = DualState([1.0], [1.0])
    assert lagrangian_value(primal, dual, scn) == 0.0


def test_lagrangian_upper_bounds_feasible_objective():
    scn = single_source_scenario()
    primal = PrimalAllocation([1.0], [-0.2], [2.0], [5.0])  # strictly feasible
    for mu, lam in [(0.3, 0.7), (2.0, 0.1), (0.0, 4.0)]:
        dual = DualState([mu], [lam])
        assert lagrangian_value(primal, dual, scn) >= primal_objective(primal, scn) - 1e-12


def test_lagrangian_rejects_nonpositive_alpha():
    scn = single_source_scenario()
    primal = PrimalAllocation([0.0], [0.0], [1.0], [1.0])
    with pytest.raises(DomainError):
        lagrangian_value(primal, DualState([0.0], [0.0]), scn)


def test_dual_objective_zero_duals_box():
    scn = single_source_scenario()
    got = dual_objective(DualState([0.0], [0.0]), scn)
    caps = scn.caps
    assert got == pytest.approx(math.log(caps.alpha_max) + math.log(caps.c_max), abs=1e-12)


def test_weak_duality_random_pairs():
    scn = single_source_scenario()
    feasible = PrimalAllocation([1.0], [-0.5], [0.5], [8.0])
    assert primal_violation(feasible, scn) == 0.0
    f = primal_objective(feasible, scn)
    rng = np.random.default_rng(11)
    for _ in range(100):
        dual = DualState(rng.uniform(0, 5, 1), rng.uniform(0, 5, 1))
        assert dual_objective(dual, scn) >= f - 1e-12


def test_dual_objective_hand_built():
    # mu=2 > K=1 pins (alpha, beta) = (1, -1); lam=3 > mu gives c = w/(lam-mu)=1
    scn = single_source_scenario(cap=10.0)
    g = dual_objective(DualState([2.0], [3.0]), scn)
    expect = (math.log(1.0) + 1 * (-1.0) - 2.0 * 0.0) + (math.log(1.0) - 1.0 * 1.0) + 3.0 * 10.0
    assert g == pytest.approx(expect, abs=1e-12)


# ------------------------------------------------------------- dual_iterate

def test_dual_iterate_slack_primal_decreases_duals():
    scn = single_source_scenario()
    state = DualState([2.0], [2.5])  # alpha+beta = 0 < c, and c < r at these prices
    new, primal = dual_iterate(state, scn, 0.1)
    assert primal.alpha[0] + primal.beta[0] < primal.c[0]
    assert primal.c[0] < primal.r[0]
    assert new.mu[0] < state.mu[0]
    assert new.lam[0] < state.lam[0]


def test_dual_iterate_zero_start_hits_caps():
    scn = single_source_scenario()
    _, primal = dual_iterate(DualState([0.0], [0.0]), scn, 0.1)
    assert primal.alpha[0] == scn.caps.alpha_max
    assert primal.c[0] == scn.caps.c_max


def test_dual_iterate_projects_to_nonnegative():
    scn = single_source_scenario()
    state = DualState([5.0], [5.0])
    for _ in range(50):
        state, _ = dual_iterate(state, scn, 1.0)
        assert np.all(state.mu >= 0.0)
        assert np.all(state.lam >= 0.0)


def test_dual_iterate_converges_on_unit_cap():
    scn = single_source_scenario(cap=1.0, max_iters=20_000)
    report = solve(scn)
    oracle = cases.oracle_objective(scn, steps=500)
    assert report.converged
    assert abs(report.recovered_objective - oracle) <= 0.01 * (1.0 + abs(oracle))


# -------------------------------------------------------------------- solve

@pytest.mark.parametrize(
    "name, factory, steps", cases.SOLVER_CASES, ids=[case[0] for case in cases.SOLVER_CASES]
)
def test_solve_matches_grid_oracle(name, factory, steps):
    scn = factory()
    report = solve(scn)
    assert report.converged, name
    oracle = cases.oracle_objective(scn, steps)
    assert abs(report.recovered_objective - oracle) <= 0.01 * abs(oracle)


def test_solve_recovered_point_is_feasible():
    for _, factory, _ in cases.SOLVER_CASES:
        scn = factory()
        report = solve(scn)
        assert primal_violation(report.recovered, scn) <= 1e-6


def test_solve_weak_duality_along_trace():
    for _, factory, _ in cases.SOLVER_CASES:
        scn = factory()
        report = solve(scn)
        assert np.min(report.trace.dual_obj) >= report.recovered_objective - 1e-9
        assert report.gap >= -1e-12
        # dual objective dominates the running best-feasible column too
        assert np.all(report.trace.dual_obj >= report.trace.primal_obj - 1e-9)


def test_solve_equality_at_optimum():
    for _, factory, _ in cases.SOLVER_CASES:
        scn = factory()
        rec = solve(scn).recovered
        assert np.max(np.abs(rec.alpha + rec.beta - rec.c)) <= 1e-3


def test_solve_symmetric_sources_get_equal_allocations():
    report = solve(cases.mac_symmetric())
    rec = report.recovered
    for vec in (rec.alpha, rec.beta, rec.c, rec.r):
        assert abs(vec[0] - vec[1]) <= 1e-3


def test_solve_trace_duals_nonnegative():
    report = solve(cases.box_single_tight())
    assert np.all(report.trace.mu >= 0.0)
    assert np.all(report.trace.lam >= 0.0)


def test_solve_stops_on_gap_on_distortion_branch_links():
    # five independent box links (K, w, cap), three of them on the
    # distortion branch; the raw window average stays off feasibility
    # long after the repaired incumbent's gap is met
    links = [
        (1.0, 1.6875, 1.579167),
        (2.0, 1.0625, 0.84375),
        (3.0, 1.9375, 0.598611),
        (1.0, 1.5, 0.8),
        (1.0, 1.0, 0.9),
    ]
    scn = Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(w)) for K, w, _ in links
        ),
        region=BoxRegion(tuple(cap for _, _, cap in links)),
        caps=cases.CAPS_20,
        step=Diminishing(0.3),
        max_iters=8000,
    )
    report = solve(scn)
    assert report.converged
    assert report.iterations < 8000
    assert primal_violation(report.recovered, scn) <= 1e-9
    # closed form: c = cap, alpha = max(1/K, cap), beta = cap - alpha per link
    ref = -1.3699390599
    assert abs(report.recovered_objective - ref) <= scn.tol_gap * (1.0 + abs(ref))


def test_solve_repair_respects_alpha_cap():
    # 1/K = 1e7 is far above alpha_max = 1e6: the certified point must
    # belong to the capped problem the duals bound
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1e-7), LogRate(1.0)),),
        region=BoxRegion((1e7,)),
        max_iters=2000,
    )
    report = solve(scn)
    assert report.recovered.alpha[0] <= scn.caps.alpha_max
    assert report.gap >= 0.0
    assert primal_violation(report.recovered, scn) <= 1e-12


def repaired(r, scn):
    """The point the solver builds from an averaged scheduled rate r."""
    return PrimalAllocation(*_Kernel(scn).repair(r), r)


def test_repair_matches_layer_rule_under_alpha_cap():
    # the vectorized repair against the per-source closed form of the layer;
    # r up to twice c_max, so the saturation at c_max is exercised too
    from rdcontrol.layers import compression_given_rate

    Ks = (0.01, 0.5, 1.0, 3.0)
    scn = Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(1.0)) for K in Ks
        ),
        region=BoxRegion((50.0,) * len(Ks)),
        caps=cases.CAPS_20,
    )
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rng.uniform(0.0, 40.0, len(Ks))
        rep = repaired(r, scn)
        for i, K in enumerate(Ks):
            ci = min(r[i], scn.caps.c_max)
            alpha = min(compression_given_rate(K, ci), scn.caps.alpha_max)
            assert rep.c[i] == ci
            assert rep.alpha[i] == alpha
            assert rep.beta[i] == min(ci, scn.caps.alpha_max) - alpha
        assert primal_violation(rep, scn) <= 1e-12


@st.composite
def repair_draws(draw):
    """Sources (K, w; w = 0 is a Zero source), caps, an averaged c in
    [c_min, c_max] and an averaged r >= 0."""
    n = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    K = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    w = [draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in range(n)]
    alpha_max = 10.0 ** draw(st.floats(-1.0, 2.0))
    c_min = 10.0 ** draw(st.floats(-9.0, 0.0))
    c_max = c_min + 10.0 ** draw(st.floats(-3.0, 2.0))
    c = [draw(st.sampled_from([c_min, c_max])) if draw(st.booleans())
         else c_min + draw(unit) * (c_max - c_min) for _ in range(n)]
    r = [draw(st.sampled_from([0.0, c_min, c_max, c[i]])) if draw(st.booleans())
         else 2.0 * c_max * draw(unit) for i in range(n)]
    return K, w, alpha_max, c_min, c_max, np.array(c), np.array(r)


@settings(max_examples=300, deadline=None)
@given(repair_draws())
def test_saturated_repair_is_feasible_and_dominates_clipping(draw):
    # the objective is nondecreasing in c under the compression rule, so
    # c = min(r, c_max) beats the earlier repair, which clipped the averaged
    # subproblem c to r, wherever both are points of the capped problem
    K, w, alpha_max, c_min, c_max, c, r = draw
    scn = Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(k), LogRate(wi) if wi > 0 else Zero())
            for k, wi in zip(K, w)
        ),
        region=BoxRegion(tuple(r)),
        caps=SolverCaps(alpha_max=alpha_max, c_max=c_max, c_min=c_min),
    )
    new = repaired(r, scn)
    assert primal_violation(new, scn) <= 1e-12

    clipped = np.minimum(c, r)
    alpha = np.minimum(np.maximum(1.0 / np.array(K), clipped), alpha_max)
    old = PrimalAllocation(alpha, np.minimum(clipped, alpha_max) - alpha, clipped, r)
    assert np.array_equal(new.c, np.minimum(r, c_max))
    assert np.all(new.c >= old.c)
    if old.c.min() >= c_min and new.c.min() >= c_min:
        old_obj = primal_objective(old, scn)
        assert primal_objective(new, scn) >= old_obj - 1e-12 * (1.0 + abs(old_obj))


def test_solve_non_convergence_flag():
    scn = replace(mac_four(), max_iters=3)
    report = solve(scn)
    assert not report.converged
    assert report.iterations == 3
    assert len(report.trace) == 3


def test_solve_stop_reason():
    assert solve(cases.box_two_mixed()).stop_reason == "gap"
    assert solve(replace(mac_four(), max_iters=3)).stop_reason == "max_iters"
    # LogRate on a zero-capacity link: no repaired point has c >= c_min
    starved = solve(single_source_scenario(cap=0.0, max_iters=200))
    assert (starved.stop_reason, starved.recovered, starved.converged) == ("no_incumbent", None, False)


def test_solve_deterministic():
    scn = cases.box_two_mixed()
    r1 = solve(scn)
    r2 = solve(scn)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.trace.mu, r2.trace.mu)
    assert np.array_equal(r1.recovered.c, r2.recovered.c)
    assert r1.recovered_objective == r2.recovered_objective


# ------------------------------------------------------- the array kernel

PINNED_ITERATIONS = {
    "box_single_wide": 1,
    "box_single_tight": 1,
    "box_two_mixed": 1,
    "mac_symmetric": 5,
    "mac_asymmetric": 2,
}


@pytest.mark.parametrize(
    "name, factory, steps", cases.SOLVER_CASES, ids=[case[0] for case in cases.SOLVER_CASES]
)
def test_solve_iteration_counts_are_pinned(name, factory, steps):
    # a change to the loop that moves these has changed the algorithm
    assert solve(factory()).iterations == PINNED_ITERATIONS[name]


def vertex_base():
    # the benchmark's three time-sharing points with literal coordinates, so
    # no r row goes through ``math.log2``; 513 iterations
    return Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(w))
            for K, w in ((1.0, 0.5), (2.0, 2.0))
        ),
        region=VertexRegion(((1.2, 0.2), (0.9, 0.9), (0.2, 1.4))),
        caps=cases.CAPS_20,
        step=Diminishing(2.0),
        tol_gap=1e-2,
    )


def over_c_max(factory):
    """The scenario with c_max = 1, below some of its caps, so the implied
    prices certify no early row and the loop runs on."""
    return lambda: replace(factory(), caps=SolverCaps(alpha_max=20.0, c_max=1.0, c_min=1e-9))


# SHA-256 of the raw little-endian float64 bytes of the (mu, lam, alpha,
# beta, c, r) trace rows.  ``dual_iterate`` shares the layer code with
# ``solve``, so only a fixed record catches drift in that shared code.  The
# MAC cases are left out: their vertices go through ``math.log2``, whose
# last bit may differ between platforms.  The paper's boxes stop at row 1;
# ``box_two_mixed`` under c_max = 1 (445 rows) and ``vertex_base`` keep
# long runs under the record.
GOLDEN_TRACE_SHA256 = {
    "box_single_wide": (
        cases.box_single_wide, "9622a1a78d0ba119a5dfea5ec2af966b6e91f7bd8f0720711b654501ae6d1a91"
    ),
    "box_single_tight": (
        cases.box_single_tight, "6b5928f2e56d0ea26374fdc165216353cfa65ae1474ca1987ba315838e48fdc9"
    ),
    "box_two_mixed": (
        cases.box_two_mixed, "2b70b4a28d8de3118d6776ecb87105ab1957084440858e2a348de01c8173008d"
    ),
    "box_two_mixed-c_max1": (
        over_c_max(cases.box_two_mixed),
        "02a9e60f7a9b0b9b2543f007f1879291899e1ce27a7214449e6bec6d0e4a1f1d",
    ),
    "vertex_base": (
        vertex_base, "b41cb316860757e81fd6f392e7496c9f640cdf8919a78e737d273518be196d27"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_trace_rows_match_golden_bits(name):
    import hashlib

    factory, want = GOLDEN_TRACE_SHA256[name]
    tr = solve(factory()).trace
    rows = np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)
    digest = hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()
    assert digest == want


def test_solve_runs_no_scalar_layer(monkeypatch):
    # the per-source closed forms are the tested reference, not the solve path
    import rdcontrol.layers
    import rdcontrol.orchestrator

    def forbidden(*args, **kwargs):
        raise AssertionError("solve called a scalar layer")

    for module in (rdcontrol.orchestrator, rdcontrol.layers):
        for name in ("compression_subproblem", "congestion_subproblem"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    report = solve(replace(mac_four(), max_iters=50_000))
    assert report.converged
    assert report.iterations == 1030  # no implied prices certify it earlier


@pytest.mark.parametrize("region", ["mac", "vertex"])
def test_solve_schedules_through_the_region_class(region, monkeypatch):
    # a wrapper on the class, as a method tracer patches it, sees every
    # scheduling call of a solve: one per iteration, more for implied prices
    factory = {"mac": lambda: replace(mac_four(), max_iters=50_000), "vertex": vertex_base}[region]

    def bits(report):
        tr = report.trace
        rows = np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)
        tail = (report.best_dual, report.recovered_objective, report.gap)
        return np.append(rows.ravel(), tail).view(np.int64)

    plain = solve(factory())
    cls = type(factory().region)
    original = cls.__dict__["_schedule"]
    calls = []

    def counted(self, lam):
        calls.append(1)
        return original(self, lam)

    monkeypatch.setattr(cls, "_schedule", counted)
    wrapped = solve(factory())
    assert plain.iterations > 100
    assert len(calls) >= wrapped.iterations
    assert np.array_equal(bits(wrapped), bits(plain))
    assert (wrapped.iterations, wrapped.stop_reason) == (plain.iterations, plain.stop_reason)


def test_incumbent_needs_c_at_least_c_min():
    # a link below c_min leaves the capped problem (c >= c_min, c <= r)
    # infeasible: no repaired point may certify it
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),),
        region=BoxRegion((1e-10,)),
        max_iters=200,
    )
    report = solve(scn)
    assert not report.converged
    assert report.recovered is None
    assert report.recovered_objective == -math.inf
    assert report.gap == math.inf
    assert report.iterations == 200


def vertex_trio():
    # time sharing between three operating points of two links
    return Scenario(
        sources=tuple(SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(1.0)) for K in (1.0, 2.0)),
        region=VertexRegion(((1.0, 0.0), (0.0, 1.0), (0.6, 0.6))),
        caps=cases.CAPS_20,
        step=Diminishing(0.3),
        max_iters=400,
    )


def mac_four():
    return Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(w))
            for K, w in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5), (1.5, 1.0))
        ),
        region=GaussianMacRegion((3.0, 1.0, 2.0, 0.5), 1.0),
        caps=cases.CAPS_20,
        step=Diminishing(0.3),
        max_iters=400,
    )


# The box runs from here on put a cap above c_max: the repair saturates c at
# c_max, so the prices the incumbent implies leave lam.(r - c) > 0 in their
# dual value, and the run goes on past row 1
def zero_constant():
    # w = 0 puts c at c_min or c_max, and lam = mu at the start
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), LogRate(1.0)),
        ),
        region=BoxRegion((0.5, 0.8)),
        caps=SolverCaps(alpha_max=20.0, c_max=0.7, c_min=1e-9),
        step=Constant(0.05),
        max_iters=400,
    )


def beyond_K():
    # dual_init 1 > K: the first rows sit on the mu > K branch, beta < 0
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(0.25), LogRate(1.0)),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), LogRate(1.0)),
        ),
        region=BoxRegion((5.0, 1.0)),
        caps=SolverCaps(alpha_max=20.0, c_max=4.0, c_min=1e-9),
        step=Diminishing(0.3),
        max_iters=400,
    )


TRACE_RUNS = {
    "mac_asymmetric": (cases.mac_asymmetric, None),
    "vertex_trio": (vertex_trio, None),
    "mac_four": (mac_four, None),
    "vertex_base": (vertex_base, None),
    # the branch each run exists for, asserted so a retuned case still reaches it
    "zero_constant": (
        zero_constant, lambda tr: (tr.mu[:, 0] == tr.lam[:, 0]).any() and (tr.c[:, 0] == 1e-9).any()
    ),
    "beyond_K": (beyond_K, lambda tr: (tr.beta < 0).any()),
}


@pytest.mark.parametrize("name", list(TRACE_RUNS))
def test_trace_rows_are_the_subproblem_iterates(name):
    # a dual-only rerun reproduces every row bit for bit, signed zeros
    # included (the CSV prints -0.0 as -0): the repair never feeds back
    # into the prices
    factory, reaches = TRACE_RUNS[name]
    scn = factory()
    report = solve(scn)
    tr = report.trace
    assert len(tr) == report.iterations
    if reaches is not None:
        assert reaches(tr)

    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    state = DualState(np.full(scn.n, scn.dual_init), np.full(scn.n, scn.dual_init))
    for k in range(len(tr)):
        assert np.array_equal(bits(tr.mu[k]), bits(state.mu))
        assert np.array_equal(bits(tr.lam[k]), bits(state.lam))
        assert bits(tr.dual_obj[k]) == bits(dual_objective(state, scn))
        state, primal = dual_iterate(state, scn, scn.step.step_size(k + 1))
        raw = (primal.alpha, primal.beta, primal.c, primal.r)
        for got, want in zip((tr.alpha, tr.beta, tr.c, tr.r), raw):
            assert np.array_equal(bits(got[k]), bits(want))


def one_zero_box():
    # a Zero source alone: w = 0 puts c at c_min or c_max; the cap is above
    # c_max
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),),
        region=BoxRegion((25.0,)),
        caps=cases.CAPS_20,
        step=Constant(0.05),
        max_iters=400,
    )


def c_min_binds():
    return replace(
        cases.box_two_mixed(),
        region=BoxRegion((2.0, 25.0)),
        caps=SolverCaps(alpha_max=20.0, c_max=20.0, c_min=0.3),
        max_iters=400,
    )


LAYER_RUNS = {
    **{name: (factory, None) for name, factory, _ in cases.SOLVER_CASES},
    "one_zero_box": (one_zero_box, lambda tr: (tr.c == 1e-9).any() and (tr.c == 20.0).any()),
    "vertex_trio": (vertex_trio, None),
    "mac_four": (mac_four, None),
    "vertex_base": (vertex_base, None),
    "c_min_binds": (c_min_binds, lambda tr: (tr.c == 0.3).any()),
    "box_two_mixed-c_max1": (over_c_max(cases.box_two_mixed), lambda tr: len(tr) > 1),
}


@pytest.mark.parametrize("name", list(LAYER_RUNS))
def test_trace_rows_agree_with_the_reference_layers(name):
    # solve evaluates both layers in one stacked pass of its own, and the
    # trace derives alpha, beta and c with the kernel; every element must
    # still be the scalar reference layers' point, and r max_weight's
    factory, reaches = LAYER_RUNS[name]
    scn = factory()
    tr = solve(scn).trace
    if reaches is not None:
        assert reaches(tr)

    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    alpha, beta, c = (np.empty(tr.mu.shape) for _ in range(3))
    for (k, i), mu in np.ndenumerate(tr.mu):
        spec, lam = scn.sources[i], tr.lam[k, i]
        alpha[k, i], beta[k, i] = compression_subproblem(spec.V, mu, scn.caps)
        c[k, i] = congestion_subproblem(spec.U, lam, mu, scn.caps)
    assert np.array_equal(bits(tr.alpha), bits(alpha))
    assert np.array_equal(bits(tr.beta), bits(beta))
    assert np.array_equal(bits(tr.c), bits(c))
    for k in range(len(tr)):
        assert np.array_equal(bits(tr.r[k]), bits(scn.region.max_weight(tr.lam[k])))


def _stored_bytes(arrays):
    """Bytes of memory the arrays span together, shared spans counted once."""
    spans = []
    for a in arrays:
        lo = a.__array_interface__["data"][0]
        hi = lo + a.itemsize + sum((d - 1) * s for d, s in zip(a.shape, a.strides))
        spans.append((lo, hi))
    total, end = 0, 0
    for lo, hi in sorted(spans):
        total += max(0, hi - max(lo, end))
        end = max(end, hi)
    return total


@pytest.mark.parametrize(
    "factory",
    [cases.box_two_mixed, over_c_max(cases.box_two_mixed), cases.mac_asymmetric, vertex_trio],
    ids=["box_two_mixed", "box_two_mixed-c_max1", "mac_asymmetric", "vertex_trio"],
)
def test_trace_stores_prices_and_scheduled_rates(factory):
    # the prices fix alpha, beta and c, so a trace stores (mu, lam, r) and
    # the two objectives, the same on every region; the layer columns are
    # derived on the first read
    scn = factory()
    tr = solve(scn).trace
    rows, n = len(tr), scn.n
    names = [f.name for f in fields(tr)]
    assert names == ["t", "mu", "lam", "r", "primal_obj", "dual_obj"]
    assert all(isinstance(getattr(tr, f), np.ndarray) for f in names)
    floats = [getattr(tr, f) for f in names if f != "t"]
    assert all(a.dtype == np.float64 for a in floats)
    assert _stored_bytes(floats) == 8 * rows * (3 * n + 2)
    base = tr.mu.base
    assert base.shape == (rows, 3, n) and tr.lam.base is base and tr.r.base is base
    assert all(a.strides[0] == 8 * 3 * n for a in (tr.mu, tr.lam, tr.r))

    alpha, beta, c = tr.alpha, tr.beta, tr.c
    assert tr.alpha is alpha and tr.beta is beta and tr.c is c
    assert alpha.shape == beta.shape == c.shape == (rows, n)
    assert tr.r.base is base
    for col in ("alpha", "beta", "c"):
        with pytest.raises(AttributeError):
            setattr(tr, col, alpha)


SIGN_RUNS = [
    *[(name, factory, init) for name, factory, _ in cases.SOLVER_CASES for init in (1.0, 0.0, -0.0)],
    *[(name, factory, None) for name, (factory, _) in TRACE_RUNS.items()],
]


@pytest.mark.parametrize(
    "name, factory, dual_init", SIGN_RUNS, ids=[f"{name}-{init}" for name, _, init in SIGN_RUNS]
)
def test_trace_prices_carry_no_negative_zero(name, factory, dual_init):
    # solve's loop drops the congestion layer's + 0.0: a -0.0 price would
    # make lam - mu = -0.0 and w/(lam - mu) = -inf.  Prices start at
    # dual_init + 0.0, and max(0, price + h) of a price that is not -0.0 is
    # never -0.0, so none may appear, also where the projection binds.
    scn = factory() if dual_init is None else replace(factory(), dual_init=dual_init)
    tr = solve(scn).trace
    assert not np.signbit(tr.mu).any()
    assert not np.signbit(tr.lam).any()


def test_trace_prices_hit_the_projection():
    # the run the negative-zero test relies on for a projected price
    tr = solve(mac_four()).trace
    assert (tr.mu[1:] == 0.0).any()


def test_trace_primal_obj_is_the_best_repaired_window_average():
    # rebuild the power-of-two restarted window average of r from the raw
    # rows; the running best of its repaired points is the primal_obj column
    scn = cases.mac_asymmetric()
    report = solve(scn)
    tr = report.trace
    sum_r = np.zeros(scn.n)
    count, next_restart = 0, 2
    best, best_point = -math.inf, None
    for k, t in enumerate(tr.t):
        if t == next_restart:
            sum_r[:] = 0.0
            count, next_restart = 0, 2 * next_restart
        sum_r += tr.r[k]
        count += 1
        point = repaired(sum_r / count, scn)
        if point.c.min() >= scn.caps.c_min and primal_objective(point, scn) > best:
            best, best_point = primal_objective(point, scn), point
        assert tr.primal_obj[k] == best
    assert report.recovered_objective == best
    for name in ("alpha", "beta", "c", "r"):
        assert np.array_equal(getattr(report.recovered, name), getattr(best_point, name))


def test_primal_objective_domain_follows_the_utilities():
    scn = Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), Zero()),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(3.0)),
        ),
        region=BoxRegion((1.0, 1.0)),
    )
    # Zero is defined at c = 0, LogRate is not
    point = PrimalAllocation([0.5, 1.0], [0.0, -0.5], [0.0, 0.5], [0.0, 1.0])
    want = math.log(0.5) + math.log(1.0) - 0.5 + 3.0 * math.log(0.5)
    assert primal_objective(point, scn) == pytest.approx(want, abs=1e-12)
    with pytest.raises(DomainError, match="LogRate"):
        primal_objective(PrimalAllocation([0.5, 1.0], [0.0, -1.0], [0.5, 0.0], [1.0, 1.0]), scn)
    with pytest.raises(DomainError, match="LogLinear"):
        primal_objective(PrimalAllocation([0.5, math.nan], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]), scn)


PUBLIC_CALLS = {
    "primal_objective": (("primal",), lambda p, d, scn: primal_objective(p, scn)),
    "primal_violation": (("primal",), lambda p, d, scn: primal_violation(p, scn)),
    "lagrangian_value": (("primal", "dual"), lambda p, d, scn: lagrangian_value(p, d, scn)),
    "dual_objective": (("dual",), lambda p, d, scn: dual_objective(d, scn)),
    "dual_iterate": (("dual",), lambda p, d, scn: dual_iterate(d, scn, 0.1)),
    "kkt_residuals": (("primal", "dual"), lambda p, d, scn: kkt_residuals(p, d, scn)),
}


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_vectors_of_the_wrong_length_name_the_expected_shape(name):
    # n = 2: every vector of length 3 is refused with a DomainError naming
    # the expected shape, not numpy's broadcasting error
    reads, call = PUBLIC_CALLS[name]
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),) * 2,
        region=BoxRegion((1.0, 1.0)),
    )
    primal = PrimalAllocation([0.5, 0.5], [0.0, 0.0], [0.5, 0.5], [1.0, 1.0])
    dual = DualState([1.0, 1.0], [1.0, 1.0])
    call(primal, dual, scn)
    bad = []
    if "primal" in reads:
        bad += [(replace(primal, **{f: [0.5] * 3}), dual) for f in ("alpha", "beta", "c", "r")]
    if "dual" in reads:
        bad.append((primal, DualState([1.0] * 3, [1.0] * 3)))
    for p, d in bad:
        with pytest.raises(DomainError, match=r"must have shape \(2,\)"):
            call(p, d, scn)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Constant(math.inf),
        lambda: Constant(math.nan),
        lambda: Diminishing(math.inf),
        lambda: single_source_scenario(dual_init=math.inf),
        lambda: single_source_scenario(dual_init=math.nan),
        lambda: single_source_scenario(tol_gap=math.nan),
        lambda: single_source_scenario(tol_gap=0.0),
    ],
    ids=["constant-inf", "constant-nan", "diminishing-inf", "dual_init-inf", "dual_init-nan",
         "tol_gap-nan", "tol_gap-zero"],
)
def test_solver_options_reject_non_finite(build):
    with pytest.raises(DomainError):
        build()


def test_dual_value_is_exact_where_c_sits_at_c_max():
    # lam = mu puts c at c_max = 1e6 and r = 0: the c terms of the
    # Lagrangian must cancel exactly, or g drops below the objective of
    # the repaired point (c = 0), a feasible point
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(0.25), Zero()),),
        region=BoxRegion((0.0,)),
        caps=SolverCaps(alpha_max=20.0, c_max=1e6, c_min=0.0),
        max_iters=1,
    )
    report = solve(scn)
    assert report.recovered is not None
    assert report.gap >= 0.0
    assert report.best_dual >= report.recovered_objective


@pytest.mark.parametrize("max_iters", [1, 200])
def test_implied_prices_that_overflow_give_no_bound(max_iters):
    # the repaired c is the 5e-324 cap, so the implied lam = mu + w/c
    # overflows to inf; the dual value there is NaN, and the certificate
    # must pass over it, keeping the row's own dual value (the only one at
    # max_iters = 1)
    scn = Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)),),
        region=BoxRegion((5e-324,)),
        caps=SolverCaps(alpha_max=20.0, c_max=20.0, c_min=0.0),
        max_iters=max_iters,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(scn)
    assert report.recovered is not None
    assert cases.implied_prices(scn, report.recovered.c)[1] == [math.inf]
    assert report.best_dual >= report.recovered_objective
    assert report.best_dual == report.trace.dual_obj.min()


# ------------------------------------------------- the block certificate

def block_count(iterations):
    """How many blocks :func:`solve` runs to reach ``iterations``: at most
    64 rows each, and none spans a window restart at a power of two."""
    t, next_restart, blocks = 0, 2, 0
    while t < iterations:
        if t + 1 == next_restart:
            next_restart *= 2
        t += min(64, next_restart - 1 - t)
        blocks += 1
    return blocks


@pytest.mark.parametrize("name", ["box_two_mixed", "mac_asymmetric", "box_two_mixed-c_max1", "vertex_base"])
def test_solve_evaluates_the_dual_once_per_block(monkeypatch, name):
    # the block's rows and the implied-price rows of its new incumbents go
    # through one kernel pass, also in blocks where no incumbent improves
    calls = []
    dual = _Kernel.dual

    def counting(self, mu, lam, r):
        calls.append(len(mu))
        return dual(self, mu, lam, r)

    monkeypatch.setattr(_Kernel, "dual", counting)
    report = solve(LAYER_RUNS[name][0]())
    assert len(calls) == block_count(report.iterations)
    assert sum(calls) >= report.iterations


def sequential_solve(scn):
    """The solve loop one iteration at a time through the public functions:
    the reference for the blocked certificate in :func:`solve`.  Each new
    incumbent also offers the dual value at the finite prices it implies."""
    state = DualState(np.full(scn.n, scn.dual_init), np.full(scn.n, scn.dual_init))
    rows, pobj, dobj = [], [], []
    sum_r, count, next_restart = np.zeros(scn.n), 0, 2
    best_dual, best_obj, best_point, gap = math.inf, -math.inf, None, math.inf
    stop_reason = "max_iters"
    for t in range(1, scn.max_iters + 1):
        g = dual_objective(state, scn)
        best_dual = min(best_dual, g)
        new_state, primal = dual_iterate(state, scn, scn.step.step_size(t))
        if t == next_restart:
            sum_r, count, next_restart = np.zeros(scn.n), 0, 2 * next_restart
        sum_r = sum_r + primal.r
        count += 1
        point = repaired(sum_r / count, scn)
        if point.c.min() >= scn.caps.c_min:
            obj = primal_objective(point, scn)
            if obj > best_obj:
                best_obj, best_point = obj, point
                mu, lam = cases.implied_prices(scn, point.c)
                if all(map(math.isfinite, lam)):
                    best_dual = min(best_dual, dual_objective(DualState(mu, lam), scn))
        if best_point is not None:
            gap = (best_dual - best_obj) / (1.0 + abs(best_obj))
        rows.append(np.concatenate((state.mu, state.lam, primal.alpha, primal.beta, primal.c, primal.r)))
        pobj.append(best_obj)
        dobj.append(g)
        if gap < scn.tol_gap:
            stop_reason = "gap"
            break
        state = new_state
    if best_point is None:
        stop_reason = "no_incumbent"
    return dict(
        iterations=t, stop_reason=stop_reason, gap=gap, best_dual=best_dual,
        best_obj=best_obj, point=best_point, rows=np.array(rows), pobj=pobj, dobj=dobj,
    )


def starved_pair():
    # LogRate on a zero-capacity link: no incumbent, ever
    return Scenario(
        sources=tuple(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), LogRate(1.0)) for _ in range(2)),
        region=BoxRegion((0.0, 1.0)),
        caps=cases.CAPS_20,
        step=Diminishing(0.3),
    )


BLOCK_RUNS = [
    (name, factory, max_iters)
    for name, factory in (
        ("two", over_c_max(cases.box_two_mixed)), ("box16", over_c_max(cases.box16)),
    )
    for max_iters in (1, 2, 3, 63, 64, 65, 127, 128, 129, 50_000)
] + [("starved", starved_pair, 130)] + [
    # the scheduled rates of these regions move, so the block keeps them too
    (name, factory, max_iters)
    for name, factory in (("mac", mac_four), ("vertex", vertex_base))
    for max_iters in (1, 63, 64, 65, 129, 50_000)
] + [
    # the prices of the first incumbents certify these within five rows
    (name, factory, 50_000)
    for name, factory in (
        ("box_two_mixed", cases.box_two_mixed), ("mac_symmetric", cases.mac_symmetric),
        ("mac_asymmetric", cases.mac_asymmetric), ("vertex_trio", vertex_trio),
    )
]


@pytest.mark.parametrize(
    "name, factory, max_iters", BLOCK_RUNS, ids=[f"{run[0]}-{run[2]}" for run in BLOCK_RUNS]
)
def test_block_certificate_matches_sequential_loop(name, factory, max_iters):
    # block edges at every power of two up to 128, a gap stop in the middle
    # of a block (max_iters 50,000), a run with no incumbent and runs that
    # the implied prices stop
    scn = replace(factory(), max_iters=max_iters)
    report = solve(scn)
    ref = sequential_solve(scn)
    assert report.iterations == ref["iterations"]
    assert report.stop_reason == ref["stop_reason"]
    if max_iters == 50_000:
        assert report.stop_reason == "gap" and report.iterations % 64 not in (0, 63)
    assert report.gap == ref["gap"]
    assert report.best_dual == ref["best_dual"]
    assert report.recovered_objective == ref["best_obj"]
    if ref["point"] is None:
        assert report.recovered is None
    else:
        for field in ("alpha", "beta", "c", "r"):
            assert np.array_equal(getattr(report.recovered, field), getattr(ref["point"], field))
    tr = report.trace
    assert np.array_equal(tr.t, np.arange(1, ref["iterations"] + 1))
    got = np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)
    assert np.array_equal(got, ref["rows"])
    assert np.array_equal(tr.primal_obj, ref["pobj"])
    assert np.array_equal(tr.dual_obj, ref["dobj"])
