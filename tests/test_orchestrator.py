import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import rdcontrol.orchestrator
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
from rdcontrol.scenario import scenario_from_dict


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
    # the second cap is below c_min, so no point is an incumbent and the run
    # reaches iteration 2
    src = SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0))
    scn = Scenario(sources=(src, src), region=BoxRegion((1.0, 1e-10)), step=Constant(1e305))
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


def test_dual_state_refuses_prices_of_two_shapes():
    with pytest.raises(DomainError, match=r"dual shapes differ: \(2,\) vs \(1,\)"):
        DualState(np.array([1.0, 1.0]), np.array([1.0]))


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


@pytest.mark.parametrize("gamma", [0.0, -0.1, math.nan])
def test_dual_iterate_refuses_a_step_that_is_not_positive(gamma):
    with pytest.raises(DomainError, match="step must be > 0"):
        dual_iterate(DualState([1.0], [1.0]), single_source_scenario(), gamma)


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
    scn = replace(mac_four(), max_iters=3, tol_gap=UNMET_GAP)
    report = solve(scn)
    assert not report.converged
    assert report.iterations == 3
    assert len(report.trace) == 3


def test_solve_stop_reason():
    assert solve(cases.box_two_mixed()).stop_reason == "gap"
    assert solve(replace(mac_four(), max_iters=3, tol_gap=UNMET_GAP)).stop_reason == "max_iters"
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

def with_caps(factory, **changes):
    """The scenario with the named fields of its caps changed."""
    def build():
        scn = factory()
        return replace(scn, caps=replace(scn.caps, **changes))
    return build


def over_c_max(factory):
    """The scenario with c_max = 1, below some of its caps.  There c <= r is
    slack, the implied lam is 0, and a box certifies at row 1."""
    return with_caps(factory, c_max=1.0)


def under_c_min(factory):
    """The scenario with c_min = 1, above some of its caps, and 400
    iterations: no repaired point is an incumbent, so the loop runs them all
    under any price rule."""
    return lambda: replace(with_caps(factory, c_min=1.0)(), max_iters=400)


def box16_doc_scenario():
    return scenario_from_dict(cases.workload_doc("box_wide", "box16"))


# Boxes that leave a constraint slack at the optimum: c_max below a cap
# (c <= r), or alpha_max below the lossless rate (alpha + beta <= c).  The
# implied price of a slack constraint is 0, so each certifies at its first
# incumbent; prices that were not 0 there ran them for 445 to 8,000 rows.
# ``box_single_tight`` under alpha_max = 0.5 puts its source at c =
# alpha_max < 1/K, where the slope drops from K + w/c to w/c; mu = 1/alpha_max
# > K there ran it for 1,247 rows.
STRESS_BOXES = [
    ("box16-c_max1", with_caps(box16_doc_scenario, c_max=1.0)),
    ("box64-c_max1", with_caps(lambda: scenario_from_dict(cases.box64_doc()), c_max=1.0)),
    ("box_two_mixed-c_max1", over_c_max(cases.box_two_mixed)),
    ("box16-alpha_max0.5", with_caps(box16_doc_scenario, alpha_max=0.5)),
    ("box_two_mixed-alpha_max0.5", with_caps(cases.box_two_mixed, alpha_max=0.5)),
    ("box_single_tight-alpha_max0.5", with_caps(cases.box_single_tight, alpha_max=0.5)),
]


def shared_channel_scenario(name):
    return lambda: scenario_from_dict(cases.workload_doc("shared_channel", name))


def matrix_mac_scenario(n):
    return lambda: scenario_from_dict(cases.matrix_mac_doc(n))


# The wider MACs certify at row 1, the first block, once its incumbent is
# polished: the away steps run until the Frank-Wolfe gap meets tol_gap.  8
# plain Frank-Wolfe steps a block took 4, 4, 8 and 64 rows.
WIDE_MACS = [
    ("mac5", shared_channel_scenario("mac5")),
    ("mac6", shared_channel_scenario("mac6")),
    ("mac8", matrix_mac_scenario(8)),
    ("mac40", matrix_mac_scenario(40)),
]
PINNED_ITERATIONS = {
    "box_single_wide": 1,
    "box_single_tight": 1,
    "box_two_mixed": 1,
    "mac_symmetric": 1,
    "mac_asymmetric": 1,
    **{name: 1 for name, _ in STRESS_BOXES},
    **{name: 1 for name, _ in WIDE_MACS},
}
PINNED_RUNS = (
    [(name, factory) for name, factory, _ in cases.SOLVER_CASES] + STRESS_BOXES + WIDE_MACS
)


@pytest.mark.parametrize("name, factory", PINNED_RUNS, ids=[run[0] for run in PINNED_RUNS])
def test_solve_iteration_counts_are_pinned(name, factory, monkeypatch):
    # a change to the loop that moves these has changed the algorithm.  The
    # loop takes one price step per row it computes, and computes no row
    # past the one the run stops at
    scn = factory()
    rule = type(scn.step)
    step_size = rule.step_size
    steps = []

    def counting(self, t):
        steps.append(t)
        return step_size(self, t)

    monkeypatch.setattr(rule, "step_size", counting)
    report = solve(scn)
    assert report.iterations == PINNED_ITERATIONS[name]
    assert report.stop_reason == "gap"
    assert steps == list(range(1, report.iterations + 1))


def vertex_base():
    # the benchmark's three time-sharing points with literal coordinates, so
    # no r row goes through ``math.log2``; 1 iteration, 513 unpolished
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


# SHA-256 of the raw little-endian float64 bytes of the (mu, lam, alpha,
# beta, c, r) trace rows.  ``dual_iterate`` shares the layer code with
# ``solve``, so only a fixed record catches drift in that shared code.  The
# MAC cases are left out: their vertices go through ``math.log2``, whose
# last bit may differ between platforms.  The paper's boxes stop at row 1,
# and so does ``box_two_mixed`` under c_max = 1; ``box_two_mixed`` under
# c_min = 1 (400 rows, no incumbent) and ``vertex_base`` keep long runs
# under the record.  The rows are the dual loop's, which the
# polish never feeds, so the record is of runs without it: ``vertex_base``
# then certifies at row 513, where polished it stops at row 1.
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
        "7c9fb3d4acf82614ae3ca2fa68172a08baf86189eb500917ce1f878e54d90777",
    ),
    "box_two_mixed-c_min1": (
        under_c_min(cases.box_two_mixed),
        "e5e419d2432822291e63fedc3735cf9286daf3fed875c98744e220279c455e21",
    ),
    "vertex_base": (
        vertex_base, "b41cb316860757e81fd6f392e7496c9f640cdf8919a78e737d273518be196d27"
    ),
}


GOLDEN_ROWS = {"box_two_mixed-c_min1": 400, "vertex_base": 513}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_trace_rows_match_golden_bits(name, monkeypatch):
    import hashlib

    def rows(tr):
        return np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)

    factory, want = GOLDEN_TRACE_SHA256[name]
    polished = rows(solve(factory()).trace)
    monkeypatch.setattr(rdcontrol.orchestrator, "_POLISH", 0)
    loop = rows(solve(factory()).trace)
    assert len(loop) == GOLDEN_ROWS.get(name, 1)
    digest = hashlib.sha256(np.ascontiguousarray(loop, dtype="<f8").tobytes()).hexdigest()
    assert digest == want
    # the polish moves only the stopping row
    assert np.array_equal(polished, loop[: len(polished)])


def test_solve_runs_no_scalar_layer(monkeypatch):
    # the per-source closed forms are the tested reference, not the solve path
    import rdcontrol.layers
    import rdcontrol.orchestrator

    def forbidden(*args, **kwargs):
        raise AssertionError("solve called a scalar layer")

    for module in (rdcontrol.orchestrator, rdcontrol.layers):
        for name in ("compression_subproblem", "congestion_subproblem"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    report = solve(replace(mac_four(), max_iters=1030, tol_gap=UNMET_GAP))
    assert (report.iterations, report.stop_reason) == (1030, "max_iters")


@pytest.mark.parametrize("region", ["mac", "vertex"])
def test_solve_schedules_through_the_region_class(region, monkeypatch):
    # a wrapper on the class, as a method tracer patches it, sees every
    # scheduling call of a solve: one per iteration, more for implied prices
    # and the polish
    factory = {"mac": long_mac, "vertex": long_vertex}[region]

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


# A gap that no incumbent of ``long_mac`` or ``long_vertex`` meets, so they
# run to ``max_iters``.  On ``mac_four`` the polish certifies 3.3e-11 and no
# less.  Under c_max = 1 the prices ``vertex_base``'s incumbents imply
# certify nothing.
UNMET_GAP = 1e-12


def long_mac():
    return replace(mac_four(), tol_gap=UNMET_GAP)


def long_vertex():
    return replace(over_c_max(vertex_base)(), tol_gap=UNMET_GAP, max_iters=400)


# The box runs from here on put a cap below c_min: no repaired point is an
# incumbent, so they run to max_iters whatever prices an incumbent implies
def zero_constant():
    # w = 0 puts c at c_min or c_max, and lam = mu at the start
    return Scenario(
        sources=(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(2.0), LogRate(1.0)),
        ),
        region=BoxRegion((1e-10, 0.8)),
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
    # the runs above certify at row 1; this one's loop goes on, and its mu
    # hits the projection from row 2
    "long_mac": (long_mac, None),
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
    # a Zero source alone: w = 0 puts c at c_min or c_max; the cap is below
    # c_min
    return Scenario(
        sources=(SourceSpec(BinarySource(1.0, 0.5), LogLinear(1.0), Zero()),),
        region=BoxRegion((1e-10,)),
        caps=cases.CAPS_20,
        step=Constant(0.05),
        max_iters=400,
    )


def c_min_binds():
    return replace(
        cases.box_two_mixed(),
        region=BoxRegion((2.0, 0.2)),
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
    # the stress box: lam = 0 where r >= c_max, so its first incumbent certifies
    "box_two_mixed-c_max1": (over_c_max(cases.box_two_mixed), lambda tr: len(tr) == 1),
    "box_two_mixed-c_min1": (under_c_min(cases.box_two_mixed), lambda tr: len(tr) == 400),
    "long_mac": (long_mac, lambda tr: len(tr) == 400),
    "long_vertex": (long_vertex, lambda tr: len(tr) == 400),
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
    [cases.box_two_mixed, over_c_max(cases.box_two_mixed), under_c_min(cases.box_two_mixed),
     cases.mac_asymmetric, vertex_trio],
    ids=["box_two_mixed", "box_two_mixed-c_max1", "box_two_mixed-c_min1", "mac_asymmetric",
         "vertex_trio"],
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
    tr = solve(long_mac()).trace
    assert (tr.mu[1:] == 0.0).any()


def test_trace_primal_obj_is_the_best_repaired_window_average(monkeypatch):
    # rebuild the power-of-two restarted window average of r from the raw
    # rows, and take the points the polishes after each block, the last one
    # included, returned; the running best of these incumbents is the
    # primal_obj column, where a block's last row counts the points polished
    # after it.  After a block, a polish goes on from the incumbent with the
    # active set of a polish that raised it, unless a window average took
    # its place or that polish returned no active set, then, unless that
    # raised it again, one starts from the block's last record window
    # average.  The polishes of long_mac all end on a refused step toward v,
    # so none goes on; mac40's do
    scn = replace(matrix_mac_scenario(40)(), tol_gap=UNMET_GAP, max_iters=400)
    polish = _Kernel.polish
    calls = []

    def recording(self, schedule, r, obj, active=None):
        found = polish(self, schedule, r, obj, active)
        calls.append((r.copy(), obj, active, found))
        return found

    monkeypatch.setattr(_Kernel, "polish", recording)
    report = solve(scn)
    assert report.stop_reason == "max_iters"
    tr = report.trace
    ends = block_ends(len(tr))
    # both kinds of polish run, and some block end polishes nothing
    assert any(active is not None for _, _, active, _ in calls)
    assert any(active is None for _, _, active, _ in calls)
    polishes = iter(calls)
    sum_r = np.zeros(scn.n)
    count, next_restart = 0, 2
    best, best_point, best_avg, record, moved, active = -math.inf, None, -math.inf, None, False, None
    idle = 0
    for k, t in enumerate(tr.t):
        if t == next_restart:
            sum_r[:] = 0.0
            count, next_restart = 0, 2 * next_restart
        sum_r += tr.r[k]
        count += 1
        point = repaired(sum_r / count, scn)
        if point.c.min() >= scn.caps.c_min:
            obj = primal_objective(point, scn)
            if obj > best_avg:
                best_avg, record = obj, point
            if obj > best:
                best, best_point, moved = obj, point, True
        if t not in ends:
            assert tr.primal_obj[k] == best
            continue
        starts = [] if active is None or moved else [(best_point.r, best, active)]
        if record is not None:
            starts.append((record.r, best_avg, None))
        idle += not starts
        record, moved, active = None, False, None
        for start in starts:
            r, obj, carried, found = next(polishes)
            assert np.array_equal(r, start[0]) and obj == start[1] and carried is start[2]
            if found is not None:
                assert found[1] >= obj
            if found is not None and found[1] >= best:
                if found[1] > best:
                    active = found[3]
                best, best_point = found[1], PrimalAllocation(*found[0])
                assert primal_objective(best_point, scn) == best
            if active is not None:
                break
        assert tr.primal_obj[k] == best
    assert next(polishes, None) is None and idle
    assert report.recovered_objective == best == tr.primal_obj[-1]
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


def branch_scenario():
    # K = 0.01 puts 1/K = 100 above alpha_max = 5, so that source's kink is
    # alpha_max; the Zero source has w = 0
    return Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), U)
            for K, U in ((0.01, LogRate(1.0)), (1.0, Zero()), (4.0, LogRate(2.0)))
        ),
        region=BoxRegion((1.0, 1.0, 1.0)),
        caps=SolverCaps(alpha_max=5.0, c_max=20.0, c_min=1e-9),
    )


def test_implied_prices_match_the_reference_on_every_branch():
    # the rows put r below, at and above each kink, between alpha_max and
    # c_max, at c_max and above it; the certificate, the polish's linear
    # oracle and its line search all read these prices
    scn = branch_scenario()
    r = np.array([[x, x, x] for x in (0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 20.0, 30.0, 150.0)])
    mu, lam = _Kernel(scn).implied_prices(r)
    for row, m, l in zip(r, mu, lam):
        assert np.array_equal(np.array(cases.implied_prices(scn, row)), np.array([m, l]))


@pytest.mark.parametrize("x", [0.1, 1.0, 2.0, 10.0, 20.0, 30.0])
def test_implied_lam_is_the_slope_of_the_repaired_objective(x):
    # the one-sided difference quotient of phi(r) = objective(repair(r)) in
    # each r_i.  At x = 0.1 every source is on its distortion branch; at 1
    # and 2 the K = 0.01 source still is, the others are lossless; 10 is
    # above alpha_max = 5, where alpha + beta <= c is slack; 20 is c_max and
    # 30 above it, where c <= r is slack and phi is flat to the right
    scn = branch_scenario()
    kernel = _Kernel(scn)
    r = np.full(scn.n, x)
    lam = kernel.implied_prices(r)[1]

    def phi(r):
        return float(kernel.objective(*kernel.repair(r)))

    h = 1e-7 * x
    for i in range(scn.n):
        quotient = (phi(r + h * np.eye(scn.n)[i]) - phi(r)) / h
        assert lam[i] == pytest.approx(quotient, rel=1e-5, abs=1e-6)
    if x >= scn.caps.c_max:
        assert not lam.any()


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
    assert cases.implied_prices(scn, report.recovered.r)[1] == [math.inf]
    assert report.best_dual >= report.recovered_objective
    assert report.best_dual == report.trace.dual_obj.min()


# ------------------------------------------------- the block certificate

def block_ends(iterations):
    """The last iteration of each block :func:`solve` runs to reach
    ``iterations``: at most 64 rows each, and none spans a window restart
    at a power of two."""
    t, next_restart, ends = 0, 2, []
    while t < iterations:
        if t + 1 == next_restart:
            next_restart *= 2
        t = min(t + min(64, next_restart - 1 - t), iterations)
        ends.append(t)
    return ends


def block_count(iterations):
    """How many blocks :func:`solve` runs to reach ``iterations``."""
    return len(block_ends(iterations))


@pytest.mark.parametrize(
    "name",
    ["box_two_mixed", "mac_asymmetric", "box_two_mixed-c_max1", "box_two_mixed-c_min1",
     "vertex_base", "long_mac"],
)
def test_solve_evaluates_the_dual_once_per_block(monkeypatch, name):
    # the block's rows and the implied-price rows of its new incumbents go
    # through one kernel pass, also in blocks where no incumbent improves;
    # beside these, each polish that returns a point evaluates one row, at
    # the prices that point implies
    calls, points = [], []
    dual, polish = _Kernel.dual, _Kernel.polish

    def counting(self, mu, lam, r):
        calls.append(np.shape(mu))
        return dual(self, mu, lam, r)

    def returning(self, *args):
        found = polish(self, *args)
        points.append(found is not None)
        return found

    monkeypatch.setattr(_Kernel, "dual", counting)
    monkeypatch.setattr(_Kernel, "polish", returning)
    report = solve(LAYER_RUNS[name][0]())
    if name == "long_mac":
        assert report.stop_reason == "max_iters"
    blocks = [shape[0] for shape in calls if len(shape) == 2]
    assert len(blocks) == block_count(report.iterations)
    assert sum(blocks) >= report.iterations
    assert len(calls) - len(blocks) == calls.count((report.trace.mu.shape[1],)) == sum(points)


@pytest.mark.parametrize("alpha_max, c_max", [(20.0, 20.0), (0.5, 20.0), (20.0, 0.6)])
def test_step_length_maximizes_the_objective_along_the_segment(alpha_max, c_max):
    # the polish's line search against a grid of 20,001 points on segments
    # between random points of the region, whose rates cross alpha_max or
    # c_max in the last two cases
    scn = replace(mac_four(), caps=SolverCaps(alpha_max=alpha_max, c_max=c_max, c_min=1e-9))
    kernel, region = _Kernel(scn), scn.region
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 20_001)[:, None]

    def vertex():
        return region.vertex(rng.permutation(scn.n).tolist())

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(10):
            r = sum(share * vertex() for share in rng.dirichlet(np.ones(3)))
            v = vertex()
            gamma = kernel.step_length(r, v)
            best = kernel.objective(*kernel.repair((1.0 - grid) * r + grid * v)).max()
            got = kernel.objective(*kernel.repair((1.0 - gamma) * r + gamma * v))
            assert 0.0 <= gamma <= 1.0
            assert got >= best - 1e-12 * (1.0 + abs(best))


def test_polish_certifies_a_40_user_mac():
    # at tol_gap 1e-6 the dual loop with 8 plain Frank-Wolfe steps a block
    # ran to max_iters = 12,000 with a gap of 3.1e-6, and with 64 steps a
    # block it took 1,600 rows.  Away steps that restarted from the lone
    # incumbent every block took 1,216; carrying the active set to the next
    # block's polish takes 7
    report = solve(replace(matrix_mac_scenario(40)(), tol_gap=1e-6))
    assert report.stop_reason == "gap"
    assert report.iterations == 7


@pytest.mark.parametrize("name", ["mac5", "mac8"])
def test_polish_certifies_tight_gaps_at_row_1(name):
    # plain Frank-Wolfe, 8 steps a block, took 384 and 1,152 rows
    report = solve(replace(dict(WIDE_MACS)[name](), tol_gap=1e-6))
    assert (report.iterations, report.stop_reason) == (1, "gap")


def test_polish_takes_steps_that_tie_the_objective():
    # on a face of mac_four a step short enough to close the gap further
    # no longer raises the objective in floating point; refusing such a
    # step stalled the gap near 9.3e-10 (5.4e-10 under away steps), and the
    # run went to max_iters = 400.  The carried polish's first step is such
    # a step; tried again from r alone it certifies at row 1, where ending
    # that polish there took 32 rows
    report = solve(replace(mac_four(), tol_gap=1e-10))
    assert (report.iterations, report.stop_reason) == (1, "gap")


def first_incumbent(scn, kernel):
    """The scheduled rate of the first iteration, at ``dual_init`` prices,
    and the objective of its repair: the window average and the incumbent
    of row 1 before any polish."""
    r = scn.region._schedule(np.full(scn.n, float(scn.dual_init)))
    return r, float(kernel.incumbent(r)[1])


@pytest.mark.parametrize("name", ["mac5", "mac40"])
def test_polish_stops_at_its_first_certified_point(name, monkeypatch):
    # the Frank-Wolfe gap lam.(v - r) at a point is its dual value at the
    # implied prices less its objective, so the polish takes steps while
    # that gap is above tol_gap (1 + |obj|) and stops at the first point
    # where it is not, the dual value the solve's certificate then reads
    scn = dict(WIDE_MACS)[name]()
    kernel, schedule = _Kernel(scn), scn.region._schedule
    r, obj = first_incumbent(scn, kernel)
    implied = _Kernel.implied_prices
    visited = []

    def recording(self, r):
        if r.ndim == 1:  # a point of the polish, not the line search's grid
            visited.append(r.copy())
        return implied(self, r)

    monkeypatch.setattr(_Kernel, "implied_prices", recording)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        found = kernel.polish(schedule, r, obj)
        assert found is not None and len(visited) > 1 and np.array_equal(visited[0], r)
        point, obj, dual_value, _ = found
        certified = []
        for r in visited:
            lam = implied(kernel, r)[1]
            fw_gap = lam @ (schedule(lam) - r)
            certified.append(fw_gap <= scn.tol_gap * (1.0 + abs(kernel.objective(*kernel.repair(r)))))
        assert certified == [False] * (len(visited) - 1) + [True]
        assert np.array_equal(visited[-1], point[3])
        mu, lam = implied(kernel, point[3])
        assert dual_value == kernel.dual(mu, lam, schedule(lam))
        assert dual_value - obj == pytest.approx(fw_gap, rel=1e-9)


def test_polish_reads_the_slope_above_alpha_max():
    # at alpha_max = 0.5 some of mac5's rates pass alpha_max, where the slope
    # is w/c.  Prices of 1/alpha_max + w/c there, which overstate it, steer
    # the polish to an incumbent of objective -9.4320; the run reads the
    # slope and certifies -9.3638 at row 1,468
    scn = with_caps(shared_channel_scenario("mac5"), alpha_max=0.5)()
    report = solve(scn)
    assert report.stop_reason == "gap"
    assert report.recovered_objective > -9.41


@pytest.mark.parametrize(
    "name, searches, iterations", [("mac5", 107, 1468), ("vertex2", 19, 234)],
    ids=["mac5", "vertex2"],
)
def test_polish_retries_only_a_refused_away_step(name, searches, iterations, monkeypatch):
    # every refused away step is tried again from r alone, as a step toward
    # v.  A refused step toward v ends the polish with no active set: from r
    # alone, or from the same set one block later, it would run the same
    # line search on the same segment r -> v and be refused again
    step_length = _Kernel.step_length
    calls = []

    def counting(self, r, v):
        calls.append(None)
        return step_length(self, r, v)

    monkeypatch.setattr(_Kernel, "step_length", counting)
    report = solve(with_caps(shared_channel_scenario(name), alpha_max=0.5)())
    assert (report.iterations, report.stop_reason) == (iterations, "gap")
    assert len(calls) == searches


def test_polish_repeats_no_line_search(monkeypatch):
    # on mac5's kink rows every polish takes a step, and no line search runs
    # a segment that an earlier one of the same solve ran: a polish that
    # ended on a refused step toward v hands no active set to the next block
    step_length, polish = _Kernel.step_length, _Kernel.polish
    segments, found = [], []

    def recording(self, r, v):
        segments.append(r.tobytes() + v.tobytes())
        return step_length(self, r, v)

    def returning(self, *args):
        found.append(polish(self, *args))
        return found[-1]

    monkeypatch.setattr(_Kernel, "step_length", recording)
    monkeypatch.setattr(_Kernel, "polish", returning)
    report = solve(with_caps(shared_channel_scenario("mac5"), alpha_max=0.5)())
    assert report.stop_reason == "gap"
    assert (len(segments) - len(set(segments)), found.count(None)) == (0, 0)


@pytest.mark.parametrize("name", ["mac5", "mac6", "vertex2"])
def test_solve_polishes_after_the_last_block(name):
    # the polish after the one block of a one-row budget certifies the run
    report = solve(replace(shared_channel_scenario(name)(), max_iters=1))
    assert (report.iterations, report.stop_reason) == (1, "gap")


def random_mac(kw, powers, alpha_max, gamma0, tol_gap, c_max=20.0):
    """A MAC of sources with (K, w) from ``kw`` (w = 0 for ``Zero``), in the
    form of the random MACs the polish was checked on.  The parameters that
    a test passes define its document; no index in a random stream does."""
    return Scenario(
        sources=tuple(
            SourceSpec(BinarySource(1.0, 0.5), LogLinear(K), LogRate(w) if w else Zero())
            for K, w in kw
        ),
        region=GaussianMacRegion(powers, 1.0),
        caps=SolverCaps(alpha_max=alpha_max, c_max=c_max, c_min=1e-9),
        step=Diminishing(gamma0),
        max_iters=3000,
        tol_gap=tol_gap,
    )


# Random MACs that a polish of 8 plain Frank-Wolfe steps a block certifies
# within 3,000 rows (at rows 1,472, 2,560 and 2,377).  Away steps that
# start every polish from the lone incumbent crawl on the first two.  On
# the third the polish stalls near the kink at alpha_max, at a point above
# every later window average, and only a polish from one of those reaches
# a point the certificate can meet.  Either way they ran to max_iters.
CERTIFIED_MACS = {
    "mac7": lambda: random_mac(
        ((0.36, 0.276), (0.479, 0.77), (1.888, 1.506), (0.481, 2.852), (1.004, 2.992),
         (2.267, 2.253), (0.362, 1.392)),
        (4.094, 1.867, 6.009, 6.34, 5.382, 7.768, 7.789), 20.0, 0.3, 1e-6,
    ),
    "mac8": lambda: random_mac(
        ((0.459, 1.955), (0.254, 0.857), (1.995, 0.829), (0.586, 1.313), (0.614, 2.075),
         (0.604, 1.613), (0.258, 0.75), (4.003, 0.0)),
        (7.206, 4.529, 1.103, 7.525, 7.382, 5.208, 6.163, 8.858), 2.0, 1.0, 1e-4,
    ),
    "mac6-kink": lambda: random_mac(
        ((0.281, 0.356), (0.377, 1.226), (1.013, 0.864), (2.137, 0.693), (0.937, 1.582),
         (1.599, 0.572)),
        (1.942, 9.983, 8.001, 0.529, 0.907, 5.594), 0.5, 1.0, 1e-3,
    ),
}


@pytest.mark.parametrize("name", list(CERTIFIED_MACS))
def test_polish_keeps_the_certificates_of_random_macs(name):
    report = solve(CERTIFIED_MACS[name]())
    assert report.stop_reason == "gap"


def test_solve_takes_a_polished_point_that_ties_the_incumbent():
    # the last polish of this 7-user MAC returns a point whose objective
    # only ties the incumbent's, and the dual value at its implied prices
    # certifies 1e-9 at row 31.  Refusing such a point ran it to max_iters,
    # as 8 plain Frank-Wolfe steps a block do
    scn = random_mac(
        ((2.262, 1.739), (2.956, 0.0), (0.45, 1.012), (0.379, 0.0), (3.785, 2.29), (0.968, 0.0),
         (0.257, 2.182)),
        (6.761, 6.419, 4.992, 5.104, 3.745, 5.664, 4.407), 1.0, 1.0, 1e-9,
    )
    report = solve(scn)
    assert (report.iterations, report.stop_reason) == (31, "gap")


def test_polish_stops_once_its_gap_stops_halving(monkeypatch):
    # on this MAC of Zero utilities under alpha_max = 1 and c_max = 2 the
    # first polish's Frank-Wolfe gap stalls above tol_gap, and the polish
    # stops _STALL steps after the gap last halved.  The next block's
    # polish goes on from it with its active set, and the run certifies at
    # row 3 (128 with 8 plain Frank-Wolfe steps a block)
    scn = random_mac(((1.744, 0.0), (1.193, 0.0), (1.01, 0.0)), (2.951, 8.042, 8.558),
                     1.0, 0.3, 1e-6, c_max=2.0)
    report = solve(scn)
    assert (report.iterations, report.stop_reason) == (3, "gap")
    kernel, schedule = _Kernel(scn), scn.region._schedule
    r, obj = first_incumbent(scn, kernel)
    implied = _Kernel.implied_prices
    visited = []

    def recording(self, r):
        if r.ndim == 1:  # a point of the polish, not the line search's grid
            visited.append(r.copy())
        return implied(self, r)

    monkeypatch.setattr(_Kernel, "implied_prices", recording)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        found = kernel.polish(schedule, r, obj)
        gaps = []
        for r in visited:
            lam = implied(kernel, r)[1]
            gaps.append(lam @ (schedule(lam) - r))
    stall = rdcontrol.orchestrator._STALL
    assert found is not None and len(gaps) == stall + 2
    assert min(gaps) > scn.tol_gap * (1.0 + abs(found[1]))
    assert gaps[-1] > 0.5 * gaps[-1 - stall] and gaps[-2] <= 0.5 * gaps[-2 - stall]


def sequential_solve(scn):
    """The solve loop one iteration at a time through the public functions:
    the reference for the blocked certificate in :func:`solve`.  Each new
    incumbent also offers the dual value at the finite prices it implies.
    After each block that does not stop on the gap, the last one included,
    the kernel's polish goes on from the incumbent with the active set of a
    polish that raised it, unless a new incumbent came in the block or that
    polish returned no active set, then, unless that raised it again,
    starts from the block's last record window average.  A point it returns
    that is no worse than the incumbent is the new incumbent of the block's
    last row, and offers the dual value at its implied prices there."""
    state = DualState(np.full(scn.n, scn.dual_init), np.full(scn.n, scn.dual_init))
    rows, pobj, dobj = [], [], []
    sum_r, count, next_restart = np.zeros(scn.n), 0, 2
    best_dual, best_obj, best_point, gap = math.inf, -math.inf, None, math.inf
    best_avg, record, moved, active = -math.inf, None, False, None
    stop_reason = "max_iters"
    ends = set(block_ends(scn.max_iters))
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
            if obj > best_avg:
                best_avg, record = obj, point
            if obj > best_obj:
                best_obj, best_point, moved = obj, point, True
                mu, lam = cases.implied_prices(scn, point.r)
                if all(map(math.isfinite, lam)):
                    best_dual = min(best_dual, dual_objective(DualState(mu, lam), scn))
        if best_point is not None:
            gap = (best_dual - best_obj) / (1.0 + abs(best_obj))
        if t in ends and not gap < scn.tol_gap:
            starts = [] if active is None or moved else [(best_point.r, best_obj, active)]
            if record is not None:
                starts.append((record.r, best_avg, None))
            record, moved, active = None, False, None
            for start in starts:
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    found = _Kernel(scn).polish(scn.region._schedule, *start)
                if found is not None and found[1] >= best_obj:
                    point, value, _, atoms = found
                    if value > best_obj:
                        active = atoms
                    best_obj, best_point = value, PrimalAllocation(*point)
                    assert primal_objective(best_point, scn) == best_obj
                    mu, lam = cases.implied_prices(scn, best_point.r)
                    best_dual = min(best_dual, dual_objective(DualState(mu, lam), scn))
                    gap = (best_dual - best_obj) / (1.0 + abs(best_obj))
                if active is not None:
                    break
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
        ("two", under_c_min(cases.box_two_mixed)), ("box16", under_c_min(cases.box16)),
    )
    for max_iters in (1, 2, 3, 63, 64, 65, 127, 128, 129)
] + [
    # box_two_mixed and box16 under c_max = 1: their first incumbents
    # certify at row 1
    ("two", over_c_max(cases.box_two_mixed), 50_000), ("box16", over_c_max(cases.box16), 50_000),
    # on the kink at alpha_max the implied prices certify nothing, and the
    # gap stops the run at row 234, in the middle of a block
    ("vertex_kink", with_caps(vertex_base, alpha_max=0.5), 50_000),
] + [("starved", starved_pair, 130)] + [
    # the scheduled rates of these regions move, so the block keeps them
    # too; at a gap no incumbent meets, a polish runs after each block that
    # brings a record, the last one included
    (name, factory, max_iters)
    for name, factory in (("mac", long_mac), ("vertex", long_vertex))
    for max_iters in (1, 63, 64, 65, 129)
] + [
    # the polish of this random MAC goes on from the last one's active set
    # after every block
    ("carried", CERTIFIED_MACS["mac7"], max_iters) for max_iters in (1, 65, 129)
] + [
    # the polished incumbent of the first block certifies these at row 1
    ("mac", mac_four, 50_000), ("vertex", vertex_base, 50_000),
] + [
    # the prices of the first incumbents, polished or not, certify these at
    # row 1
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
    # block edges at every power of two up to 128, with polished incumbents
    # carried across them, gap stops in the middle of a block (max_iters
    # 50,000), runs with no incumbent and runs that the implied prices stop
    scn = replace(factory(), max_iters=max_iters)
    report = solve(scn)
    if factory in (long_mac, long_vertex, CERTIFIED_MACS["mac7"]):
        assert report.stop_reason == "max_iters"
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
