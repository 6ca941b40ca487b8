"""Tests of the benchmark's own helpers; none of them runs the solver.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math

import pytest

import benchgen
import benchref
import benchtrace


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = benchtrace.Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        tracer.call("leaf", leaf, (), {})
        tracer.call("leaf", leaf, (), {})
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        tracer.call("middle", middle, (), {})

    tracer.call("outer", outer, (), {})
    assert tracer.calls("leaf") == 2
    assert tracer.inclusive_s("leaf") == 4.0
    assert tracer.self_s("leaf") == 4.0
    assert tracer.inclusive_s("middle") == 5.5
    assert tracer.self_s("middle") == 1.5
    assert tracer.inclusive_s("outer") == 8.5
    assert tracer.self_s("outer") == 3.0
    assert tracer.calls("missing") == 0 and tracer.self_s("missing") == 0.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = benchtrace.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("boom", boom, (), {})
        clock.advance(2.0)

    tracer.call("outer", outer, (), {})
    assert tracer.self_s("boom") == 1.0
    assert tracer.self_s("outer") == 2.0


def test_patched_wraps_methods_and_restores_them():
    class Region:
        def max_weight(self, lam):
            return 2 * lam

    original = Region.__dict__["max_weight"]
    tracer = benchtrace.Tracer()
    seen = []
    targets = [(Region, "max_weight", "regions.max_weight"), (Region, "gone", "x.gone")]
    hooks = {"regions.max_weight": lambda args, result: seen.append(result)}
    with benchtrace.patched(targets, tracer, hooks):
        assert Region().max_weight(3) == 6
    assert Region.__dict__["max_weight"] is original
    assert tracer.calls("regions.max_weight") == 1 and seen == [6]
    assert tracer.calls("x.gone") == 0


def _single_link(K, cap, w):
    return {
        "sources": [{"kind": "binary", "s": 1.0, "p": 0.3,
                     "V": {"kind": "log_linear", "K": K}, "U": {"kind": "log_rate", "w": w}}],
        "region": {"kind": "box", "caps": [cap]},
        "solver": {"caps": {"alpha_max": 20.0, "c_max": 20.0}},
    }


def test_box_closed_form_single_link():
    # K = 1, cap = 0.5 < 1/K: alpha* = 1/K = 1, beta* = -0.5, c* = 0.5
    # ln 1 + 1 * (-0.5) + 1 * ln 0.5
    assert benchref.box_optimum(_single_link(1.0, 0.5, 1.0)) == pytest.approx(
        -0.5 + math.log(0.5), abs=1e-15
    )
    # K = 2, cap = 1.5 > 1/K: lossless, alpha* = c* = 1.5, beta* = 0
    assert benchref.box_optimum(_single_link(2.0, 1.5, 0.5)) == pytest.approx(
        1.5 * math.log(1.5), abs=1e-15
    )


def test_numeric_reference_matches_closed_form_on_one_user_mac():
    doc = _single_link(1.0, 0.5, 1.0)
    doc["region"] = {"kind": "mac", "powers": [1.0], "noise": 1.0}  # capacity 0.5
    assert benchref.numeric_optimum(doc) == pytest.approx(-0.5 + math.log(0.5), abs=1e-8)


def _inverse_entropy(y):
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if benchref.binary_entropy(mid) < y else (lo, mid)
    return lo


def test_fig1_check_accepts_the_rule_and_rejects_a_wrong_distortion():
    # K = 1, p = 1/2: H(D) = 1 - c below c = 1, D = 0 above
    params = {"K": 1.0, "p": 0.5, "c_min": 0.25, "c_max": 2.0, "steps": 2}
    good = [[0.25, 1.0, _inverse_entropy(0.75), 4.0], [2.0, 2.0, 0.0, 2.0]]
    benchref.check_fig1_rows(params, good)
    # the breakpoint row, its c printed just above 1/K, D = 0 up to bisection
    benchref.check_fig1_rows(params, [good[0], [1.0 + 1e-12, 1.0, 9e-13, 1.0]])
    with pytest.raises(benchref.CheckFailed):
        benchref.check_fig1_rows(params, [good[0], [2.0, 2.0, 0.1, 2.0]])
    with pytest.raises(benchref.CheckFailed):
        benchref.check_fig1_rows(params, [[0.25, 1.0, 0.3, 4.0], good[1]])


@pytest.mark.parametrize("workload", benchgen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert benchgen.workload_inputs(workload, 7) == benchgen.workload_inputs(workload, 7)
    assert benchgen.workload_inputs(workload, 7) != benchgen.workload_inputs(workload, 8)
