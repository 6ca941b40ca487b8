import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdcontrol import (
    BinarySource,
    DomainError,
    MacScenario,
    binary_entropy,
    entropy_point,
    lp_oracle,
    solve_corner,
)

H_D2_CASE_B = 0.5963225389711979  # 2 - (1/2)log2(7)
D2_CASE_B = 0.14466332438063745


def scenario(s=(1.0, 1.0), p=(0.5, 0.5), P=(3.0, 3.0), N=1.0, deltas=(1.0, 1.0)):
    return MacScenario(
        (BinarySource(s[0], p[0]), BinarySource(s[1], p[1])),
        (P[0], P[1]),
        N,
        (deltas[0], deltas[1]),
    )


def lp_constraints_hold(scn, x1, x2, tol=1e-9):
    from rdcontrol import capacity_C

    h1, h2 = entropy_point(scn)
    C1 = capacity_C(scn.powers[0], scn.noise)
    C2 = capacity_C(scn.powers[1], scn.noise)
    C12 = capacity_C(scn.powers[0] + scn.powers[1], scn.noise)
    return (
        x1 >= h1 - C1 - tol
        and x2 >= h2 - C2 - tol
        and x1 + x2 >= h1 + h2 - C12 - tol
        and -tol <= x1 <= scn.sources[0].s + tol
        and -tol <= x2 <= scn.sources[1].s + tol
    )


# ------------------------------------------------------------ entropy point

def test_entropy_point_examples():
    assert entropy_point(scenario()) == (1.0, 1.0)
    h = entropy_point(scenario(s=(2.0, 1.0), p=(0.5, 0.25)))
    assert h[0] == 2.0
    assert h[1] == pytest.approx(0.8112781244591328, abs=1e-12)
    assert entropy_point(scenario(s=(0.5, 0.5))) == (0.5, 0.5)


def test_scenario_validation():
    with pytest.raises(DomainError):
        scenario(N=0.0)
    with pytest.raises(DomainError):
        scenario(deltas=(0.0, 1.0))
    with pytest.raises(DomainError):
        scenario(P=(-1.0, 1.0))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="powers"):
            scenario(P=(bad, 1.0))
        with pytest.raises(DomainError, match="noise"):
            scenario(N=bad)
        with pytest.raises(DomainError, match="deltas"):
            scenario(deltas=(1.0, bad))


def test_scenario_of_three_users_is_refused():
    source = BinarySource(1.0, 0.5)
    with pytest.raises(DomainError, match="two-user construction"):
        MacScenario((source,) * 3, (3.0,) * 3, 1.0, (1.0,) * 3)


# ------------------------------------------------------------- closed form

def test_case_a_when_entropy_point_fits():
    # individual: 1 <= C(15) = 2; sum: 2 <= (1/2)log2(31) ~ 2.477
    sol = solve_corner(scenario(P=(15.0, 15.0)))
    assert sol.case == "A"
    assert sol.D == (0.0, 0.0)
    assert sol.x == (0.0, 0.0)
    assert sol.objective == 0.0


def test_case_b_prefers_heavier_user():
    sol = solve_corner(scenario(deltas=(2.0, 1.0)))
    assert sol.case == "B"
    assert sol.D[0] == 0.0
    assert binary_entropy(sol.D[1]) == pytest.approx(H_D2_CASE_B, abs=1e-9)
    assert sol.D[1] == pytest.approx(D2_CASE_B, abs=1e-9)
    assert sol.objective == pytest.approx(H_D2_CASE_B, abs=1e-12)


def test_case_b_mirrored():
    sol = solve_corner(scenario(deltas=(1.0, 2.0)))
    assert sol.case == "B"
    assert sol.D[1] == 0.0
    assert sol.D[0] == pytest.approx(D2_CASE_B, abs=1e-9)


def test_case_b_tie_uses_first_branch():
    sol = solve_corner(scenario(deltas=(1.0, 1.0)))
    assert sol.case == "B"
    assert sol.x[0] == 0.0  # user 1 pinned to its (clipped) individual bound


def test_corner_feasible_for_lp():
    sol = solve_corner(scenario(deltas=(2.0, 1.0)))
    assert lp_constraints_hold(scenario(deltas=(2.0, 1.0)), *sol.x)


# ---------------------------------------------------------------- lp oracle

def test_lp_oracle_case_a_returns_origin():
    x1, x2, obj = lp_oracle(scenario(P=(15.0, 15.0)))
    assert (x1, x2, obj) == (0.0, 0.0, 0.0)


def test_lp_oracle_case_b_value():
    x1, x2, obj = lp_oracle(scenario(deltas=(2.0, 1.0)))
    assert obj == pytest.approx(H_D2_CASE_B, abs=1e-12)
    assert x1 == 0.0


def test_lp_oracle_scaling_deltas():
    base = scenario(deltas=(2.0, 1.0))
    scaled = scenario(deltas=(20.0, 10.0))
    x1, x2, obj = lp_oracle(base)
    y1, y2, obj10 = lp_oracle(scaled)
    assert (x1, x2) == (y1, y2)
    assert obj10 == pytest.approx(10.0 * obj, rel=1e-12)


# ---------------------------------------------- closed form == LP optimum

mac_draws = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)


@settings(max_examples=300, deadline=None)
@given(mac_draws)
# near-degenerate: the (h1-C1, h2-C2) vertex misses the sum bound by 6.5e-10
@example((1.0, 1.0, 0.5, 0.5, 0.0625, 5.960464477539063e-08, 2.0, 2.0, 2.0))
def test_corner_matches_lp_oracle(draw):
    s1, s2, p1, p2, P1, P2, N, d1, d2 = draw
    scn = scenario(s=(s1, s2), p=(p1, p2), P=(P1, P2), N=N, deltas=(d1, d2))
    sol = solve_corner(scn)
    x1, x2, obj = lp_oracle(scn)
    assert sol.objective == pytest.approx(obj, abs=1e-9)
    assert (sol.case == "A") == (x1 == 0.0 and x2 == 0.0)
    assert lp_constraints_hold(scn, *sol.x)
    assert sol.x[0] <= s1 + 1e-9 and sol.x[1] <= s2 + 1e-9


def test_objective_monotone_in_power():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.uniform(0.1, 5.0, 2)
        p = rng.uniform(0.05, 0.5, 2)
        P = rng.uniform(0.0, 10.0, 2)
        N = rng.uniform(0.1, 4.0)
        d = rng.uniform(0.1, 10.0, 2)
        small = scenario(s=s, p=p, P=P, N=N, deltas=d)
        big = scenario(s=s, p=p, P=(P[0] + 1.0, P[1] + 2.0), N=N, deltas=d)
        assert solve_corner(big).objective <= solve_corner(small).objective + 1e-12
