import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcontrol import (
    BoxRegion,
    DomainError,
    GaussianMacRegion,
    VertexRegion,
    capacity_C,
)

MARGINAL_3_OVER_3 = 0.4036774610288021  # (1/2)log2(7) - 1


def test_capacity_known_values():
    assert capacity_C(3.0, 1.0) == 1.0
    assert capacity_C(0.0, 1.0) == 0.0
    assert capacity_C(1.0, 1.0) == 0.5


def test_capacity_domain():
    with pytest.raises(DomainError):
        capacity_C(1.0, 0.0)
    with pytest.raises(DomainError):
        capacity_C(-0.5, 1.0)


@given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.01, max_value=50.0))
def test_capacity_monotone_concave(p, n):
    c0 = capacity_C(p, n)
    c1 = capacity_C(p + 1.0, n)
    c2 = capacity_C(p + 2.0, n)
    assert c1 > c0
    assert c1 - c0 >= c2 - c1 - 1e-12  # concavity: diminishing marginals


# ------------------------------------------------------------------- boxes

def test_box_contains_boundary():
    box = BoxRegion((5.0, 7.0))
    assert box.contains([5.0, 7.0])
    assert box.contains([0.0, 0.0])
    assert not box.contains([5.1, 0.0])


def test_box_max_weight_is_caps():
    box = BoxRegion((5.0, 7.0))
    assert np.array_equal(box.max_weight([2.0, 1.0]), [5.0, 7.0])
    # zero weights tie-break to the cap as well
    assert np.array_equal(box.max_weight([0.0, 0.0]), [5.0, 7.0])


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: BoxRegion((NAN,)),
        lambda: BoxRegion((INF,)),
        lambda: BoxRegion((1.0, -INF)),
        lambda: GaussianMacRegion((INF, 1.0), 1.0),
        lambda: GaussianMacRegion((NAN, 1.0), 1.0),
        lambda: GaussianMacRegion((1.0,), INF),
        lambda: GaussianMacRegion((1.0,), NAN),
        lambda: VertexRegion(((NAN, 1.0),)),
        lambda: VertexRegion(((1.0, 0.0), (0.0, INF))),
    ],
    ids=[
        "box-nan", "box-inf", "box-neg-inf", "mac-inf-power", "mac-nan-power",
        "mac-inf-noise", "mac-nan-noise", "vertex-nan", "vertex-inf",
    ],
)
def test_region_rejects_non_finite_field(build):
    with pytest.raises(DomainError, match="finite"):
        build()


def test_box_dimension_mismatch():
    with pytest.raises(DomainError):
        BoxRegion((1.0,)).contains([1.0, 2.0])


def test_negative_weight_rejected():
    with pytest.raises(DomainError):
        BoxRegion((1.0,)).max_weight([-0.1])
    with pytest.raises(DomainError):
        GaussianMacRegion((1.0,), 1.0).max_weight([-0.1])
    with pytest.raises(DomainError):
        VertexRegion(((1.0,),)).max_weight([-0.1])
    # a NaN weight fails every comparison: the greedy would serve it first,
    # and the vertex scan would warn and return row 0
    for bad in (NAN, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            GaussianMacRegion((1.0, 2.0), 1.0).max_weight([bad, 1.0])
        with pytest.raises(DomainError, match="finite"):
            VertexRegion(((1.0, 0.0), (0.0, 1.0))).max_weight([bad, 1.0])
        with pytest.raises(DomainError, match="finite"):
            BoxRegion((1.0, 2.0)).max_weight([bad, 1.0])


# --------------------------------------------------------------------- MAC

def test_mac_contains_examples():
    reg = GaussianMacRegion((3.0, 3.0), 1.0)
    assert reg.contains([0.0, 0.0])
    assert not reg.contains([1.0, 1.0])  # 2 > (1/2)log2(7)
    assert reg.contains([1.0, MARGINAL_3_OVER_3], tol=1e-9)


def test_mac_max_weight_examples():
    reg = GaussianMacRegion((3.0, 3.0), 1.0)
    r = reg.max_weight([1.0, 0.0])
    assert r[0] == 1.0
    assert r[1] == pytest.approx(MARGINAL_3_OVER_3, abs=1e-12)
    r = reg.max_weight([0.0, 1.0])
    assert r[1] == 1.0
    assert r[0] == pytest.approx(MARGINAL_3_OVER_3, abs=1e-12)


def test_mac_forty_users_schedule_without_subset_scan():
    powers = tuple(float(p) for p in np.linspace(0.5, 4.0, 40))
    reg = GaussianMacRegion(powers, 1.3)
    r = reg.max_weight(np.linspace(2.0, 0.1, 40))
    assert abs(float(np.sum(r)) - capacity_C(sum(powers), 1.3)) <= 1e-12
    assert np.all(r >= 0.0)
    assert reg.violation(r) <= 1e-12


def subset_scan_violation(reg, r):
    """Largest violation over r >= 0 and all 2^n - 1 subset constraints."""
    worst = max(0.0, float(np.max(-r)))
    for k in range(1, reg.dim + 1):
        for S in itertools.combinations(range(reg.dim), k):
            cap = capacity_C(sum(reg.powers[i] for i in S), reg.noise)
            worst = max(worst, sum(r[i] for i in S) - cap)
    return worst


@st.composite
def mac_and_rates(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    power = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 10.0))
    powers = draw(st.lists(power, min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(-1.0, 3.0), min_size=n, max_size=n))
    # some users get rate t * P_i, so their ratios r_i / P_i tie at t
    t = draw(st.floats(0.0, 1.0))
    tied = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rates = [t * p if k else x for x, p, k in zip(rates, powers, tied)]
    return GaussianMacRegion(tuple(powers), draw(st.floats(0.1, 5.0))), np.array(rates)


@settings(max_examples=300, deadline=None)
@given(mac_and_rates())
def test_mac_prefix_violation_matches_subset_scan(case):
    reg, r = case
    scale = 1.0 + float(np.abs(r).sum()) + capacity_C(sum(reg.powers), reg.noise)
    assert abs(reg.violation(r) - subset_scan_violation(reg, r)) <= 1e-12 * scale


def test_mac_vertex_order_validation():
    reg = GaussianMacRegion((1.0, 2.0), 1.0)
    with pytest.raises(DomainError):
        reg.vertex([0, 0])


@settings(max_examples=50)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_mac_greedy_matches_order_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    reg = GaussianMacRegion(tuple(rng.uniform(0.1, 10.0, n)), float(rng.uniform(0.2, 3.0)))
    lam = rng.uniform(0.0, 5.0, n)
    r = reg.max_weight(lam)
    best = max(float(lam @ reg.vertex(list(o))) for o in itertools.permutations(range(n)))
    assert float(lam @ r) == pytest.approx(best, abs=1e-9)
    assert reg.contains(r, tol=1e-9)


def test_mac_alternating_sum_exhausts_capacity():
    reg = GaussianMacRegion((2.0, 5.0, 1.0), 0.7)
    r = reg.max_weight([1.0, 2.0, 3.0])
    assert sum(r) == pytest.approx(capacity_C(8.0, 0.7), abs=1e-12)


def test_mac_tie_break_deterministic_and_scale_invariant():
    reg = GaussianMacRegion((4.0, 4.0, 2.0), 1.0)
    lam = np.array([0.5, 0.5, 0.2])
    r1 = reg.max_weight(lam)
    r2 = reg.max_weight(lam)
    r3 = reg.max_weight(10.0 * lam)
    assert np.array_equal(r1, r2)
    assert np.array_equal(r1, r3)
    # ties broken by ascending index: user 0 served first
    assert r1[0] == capacity_C(4.0, 1.0)


# ---------------------------------------------------------------- vertices

def test_vertex_region_membership():
    reg = VertexRegion(((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)))
    assert reg.contains([1.0, 1.0])  # on the hull face
    assert reg.contains([0.5, 0.5])
    assert not reg.contains([1.2, 1.2])


def test_vertex_region_max_weight_lowest_index_tie():
    reg = VertexRegion(((1.0, 0.0), (0.0, 1.0)))
    r = reg.max_weight([1.0, 1.0])  # both vertices score 1
    assert np.array_equal(r, [1.0, 0.0])


def test_vertex_region_violation():
    reg = VertexRegion(((1.0, 0.0), (0.0, 1.0)))
    assert reg.violation([0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
    assert reg.violation([1.0, 1.0]) == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------- shared properties

REGIONS = [
    BoxRegion((5.0, 7.0)),
    GaussianMacRegion((3.0, 3.0), 1.0),
    GaussianMacRegion((6.0, 1.5, 3.0), 0.8),
    VertexRegion(((0.0, 0.0), (2.0, 0.5), (0.5, 2.0), (1.5, 1.5))),
]


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: type(r).__name__ + str(r.dim))
def test_max_weight_in_region(region):
    rng = np.random.default_rng(42)
    for _ in range(50):
        lam = rng.uniform(0.0, 4.0, region.dim)
        assert region.contains(region.max_weight(lam), tol=1e-9)


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: type(r).__name__ + str(r.dim))
def test_max_weight_beats_sampled_points(region):
    rng = np.random.default_rng(7)
    lam = rng.uniform(0.0, 3.0, region.dim)
    score = float(lam @ region.max_weight(lam))
    hits = 0
    for _ in range(1000):
        r = rng.uniform(0.0, 3.0, region.dim)
        if region.contains(r, tol=1e-12):
            hits += 1
            assert score >= float(lam @ r) - 1e-9
    assert hits > 0  # the sampler actually exercised the region


@pytest.mark.parametrize("method", ["violation", "contains"])
@pytest.mark.parametrize("bad", [NAN, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("region", REGIONS, ids=lambda r: type(r).__name__ + str(r.dim))
def test_membership_rejects_non_finite_rate(region, bad, method):
    # a NaN drops out of a max and would hide the 5.0 violation beside it
    r = [bad, 5.0] + [0.0] * (region.dim - 2)
    with pytest.raises(DomainError, match="finite"):
        getattr(region, method)(r)


MAXIMIZER_REGIONS = REGIONS + [
    BoxRegion((0.0, 1.5, 1.5, 4.0)),
    GaussianMacRegion((2.0, 0.0, 2.0, 1.0, 0.5), 1.0),
    VertexRegion(((1.0, 0.0, 0.5), (0.0, 1.0, 0.5), (1.0, 0.0, 0.5), (0.5, 0.5, 0.0))),
]


def reference_maximizer(region, lam):
    """max lam.r over the region, built apart from the region's own code:
    the caps of a box, the greedy vertex of a stable descending sort on a
    MAC, the first argmax row of a vertex list."""
    if isinstance(region, BoxRegion):
        return np.array(region.caps)
    if isinstance(region, GaussianMacRegion):
        return region.vertex(np.argsort(-lam, kind="stable").tolist())
    V = np.array(region.vertices)
    scores = V @ lam
    return V[np.flatnonzero(scores == scores.max())[0]]


def maximizer_draws(dim):
    rng = np.random.default_rng(3)
    draws = [np.zeros(dim), np.ones(dim)]
    for _ in range(200):
        # a few distinct levels make ties and zeros common
        draws.append(rng.choice([0.0, 0.5, 1.0, 2.0], dim))
        draws.append(rng.uniform(0.0, 3.0, dim))
    return draws


@pytest.mark.parametrize("region", MAXIMIZER_REGIONS, ids=lambda r: type(r).__name__ + str(r.dim))
def test_private_maximizer_is_the_public_max_weight(region):
    # the solver binds ``_schedule`` and checks its prices once per block,
    # so ``_schedule`` must give the reference point bit for bit, ties and
    # zeros included, also from a MAC's memo and after the memo is emptied;
    # ``max_weight`` gives the same point, checked
    def bits(x):
        return np.asarray(x, dtype=float).view(np.int64)

    draws = maximizer_draws(region.dim)
    for rerun in range(3):
        if rerun == 2 and isinstance(region, GaussianMacRegion):
            region._memo.clear()
        for lam in draws:
            want = bits(reference_maximizer(region, lam))
            assert np.array_equal(bits(region._schedule(lam)), want)
            assert np.array_equal(bits(region.max_weight(lam)), want)
    with pytest.raises(DomainError, match="nonnegative"):
        region.max_weight(-draws[-1])
    for bad in (NAN, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            region.max_weight(np.append(bad, np.ones(region.dim - 1)))
    with pytest.raises(DomainError, match="length"):
        region.max_weight(np.ones(region.dim + 1))


@pytest.mark.parametrize("region", MAXIMIZER_REGIONS, ids=lambda r: type(r).__name__ + str(r.dim))
def test_schedule_returns_read_only_arrays(region):
    # ``_schedule`` hands out arrays the region keeps; no caller can edit
    # them, and ``max_weight``'s copy may be edited without reaching them
    for lam in maximizer_draws(region.dim)[:20]:
        r = region._schedule(lam)
        assert not r.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            r[0] = -1.0
        mine = region.max_weight(lam)
        mine[:] = -1.0
        assert np.array_equal(region._schedule(lam), reference_maximizer(region, lam))


def test_mac_scheduler_memo_is_bounded():
    # more distinct serving orders than the memo holds, then the first ones
    # again after they were dropped: the memo never passes its cap, and
    # every answer is still the reference point
    from rdcontrol.regions import _VERTEX_MEMO

    region = GaussianMacRegion((3.0, 1.0, 2.0, 0.5, 4.0, 1.5, 2.5), 1.0)
    orders = list(itertools.islice(itertools.permutations(range(7)), _VERTEX_MEMO + 200))
    draws = [np.array(order, dtype=float) for order in orders]
    sizes = []
    for lam in draws + draws[:50]:
        assert np.array_equal(region._schedule(lam), reference_maximizer(region, lam))
        sizes.append(len(region._memo))
    assert max(sizes) == _VERTEX_MEMO >= 1024
    assert sizes[-1] == 250  # emptied at the 1,025th order, then 200 + 50 more


def test_max_weight_result_does_not_alias_the_region():
    # the box returns one read-only array, built once, for any weights;
    # the public copy may be edited
    box = BoxRegion((5.0, 7.0))
    caps = box._schedule(np.array([1.0, 1.0]))
    assert not caps.flags.writeable and np.array_equal(caps, [5.0, 7.0])
    for lam in ([0.0, 0.0], [3.0, 0.5], [0.5, 3.0]):
        assert box._schedule(np.array(lam)) is caps
    box.max_weight([1.0, 1.0])[0] = -1.0
    assert np.array_equal(box.max_weight([1.0, 1.0]), [5.0, 7.0])
    reg = VertexRegion(((1.0, 0.0), (0.0, 1.0)))
    reg.max_weight([1.0, 0.0])[0] = -1.0
    assert np.array_equal(reg.max_weight([1.0, 0.0]), [1.0, 0.0])


def test_mac_max_weight_returns_a_fresh_array():
    # the region remembers one vertex per serving order;
    # max_weight must hand out an array no later call shares
    region = GaussianMacRegion((3.0, 1.0, 2.0), 1.0)
    lam = np.array([1.0, 3.0, 2.0])
    want = region.max_weight(lam).copy()
    got = region.max_weight(lam)
    got[:] = -7.0
    assert np.array_equal(region.max_weight(lam), want)


def test_mac_solves_are_unchanged_by_a_mutated_max_weight_point():
    import cases
    from rdcontrol import solve

    def bits(report):
        tr = report.trace
        rows = np.concatenate((tr.mu, tr.lam, tr.alpha, tr.beta, tr.c, tr.r), axis=1)
        return np.append(rows.ravel(), (report.best_dual, report.recovered_objective)).view(np.int64)

    scn = cases.mac_asymmetric()
    before = bits(solve(scn))
    lam = solve(scn).trace.lam[-1]
    scn.region.max_weight(lam)[:] = -7.0
    assert np.array_equal(bits(solve(scn)), before)
