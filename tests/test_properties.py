"""Property suite for the solver's certificate and the ``solve``, ``mac``
and ``fig1`` commands.

Random 1-3 source scenarios on box, Gaussian MAC and vertex regions, and
random two-user MAC distortion documents, built as JSON documents so the
library and the CLI see the same input; solver runs use small ``max_iters``.
``fig1`` gets random flags, NaN and infinities among them.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcontrol import ScenarioError, primal_violation, solve
from rdcontrol.cli import main
from rdcontrol.scenario import mac_scenario_from_dict, scenario_from_dict

rate = st.one_of(st.sampled_from([0.0, 1e-10, 5e-324]), st.floats(0.0, 5.0))


@st.composite
def scenario_docs(draw):
    n = draw(st.integers(1, 3))
    sources = [
        {
            "kind": "binary",
            "s": 1.0,
            "p": 0.3,
            "V": {"kind": "log_linear", "K": draw(st.floats(0.1, 10.0))},
            "U": draw(st.one_of(
                st.just({"kind": "zero"}),
                st.builds(lambda w: {"kind": "log_rate", "w": w}, st.floats(0.1, 3.0)),
            )),
        }
        for _ in range(n)
    ]
    kind = draw(st.sampled_from(["box", "mac", "vertices"]))
    if kind == "box":
        region = {"kind": "box", "caps": draw(st.lists(rate, min_size=n, max_size=n))}
    elif kind == "mac":
        powers = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        region = {"kind": "mac", "powers": powers, "noise": draw(st.floats(0.1, 5.0))}
    else:
        vertex = st.lists(rate, min_size=n, max_size=n)
        region = {"kind": "vertices", "vertices": draw(st.lists(vertex, min_size=1, max_size=4))}
    c_min = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    solver = {
        "step": {
            "kind": draw(st.sampled_from(["diminishing", "constant"])),
            "gamma0": draw(st.floats(0.01, 1.0)),
        },
        "max_iters": draw(st.integers(1, 300)),
        "tol_gap": draw(st.sampled_from([1e-3, 1e-2, 1e-1, 0.5])),
        "caps": {
            "alpha_max": draw(st.sampled_from([1.0, 20.0, 1e6])),
            "c_max": c_min + draw(st.sampled_from([1.0, 20.0, 1e6])),
            "c_min": c_min,
        },
    }
    return {"sources": sources, "region": region, "solver": solver}


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _leaves(val, path + (key,))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _leaves(val, path + (i,))
    else:
        yield path


@st.composite
def mac_docs(draw):
    def source():
        return {
            "kind": "binary",
            "s": draw(st.floats(0.1, 5.0)),
            "p": draw(st.one_of(st.sampled_from([0.5, 1e-9]), st.floats(0.01, 0.99))),
            "V": {"kind": "linear_entropy_penalty", "delta": draw(st.floats(0.1, 5.0))},
        }

    power = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 10.0))
    return {
        "sources": [source(), source()],
        "region": {
            "kind": "mac",
            "powers": draw(st.lists(power, min_size=2, max_size=2)),
            "noise": draw(st.floats(0.1, 5.0)),
        },
    }


def _lists(doc, path=()):
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield from _lists(val, path + (key,))
    elif isinstance(doc, list):
        yield path
        for i, val in enumerate(doc):
            yield from _lists(val, path + (i,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(draw, doc):
    """``doc`` as is, with one leaf replaced by junk, or with the last entry
    of one rate list (caps, powers, vertices or a vertex row) dropped."""
    mutation = draw(st.sampled_from(["none", "junk", "shorten"]))
    if mutation == "junk":
        path = draw(st.sampled_from(list(_leaves(doc))))
        junk = draw(st.sampled_from(
            [math.nan, math.inf, -1.0, 0.0, "x", None, [], {}, True, 10**400]
        ))
        _node(doc, path[:-1])[path[-1]] = junk
    elif mutation == "shorten":
        paths = [p for p in _lists(doc) if p[0] == "region" and _node(doc, p)]
        _node(doc, draw(st.sampled_from(paths))).pop()
    return doc


@st.composite
def cli_docs(draw):
    """A valid scenario document, or one mutated by :func:`_mutated`."""
    return _mutated(draw, draw(scenario_docs()))


@st.composite
def cli_mac_docs(draw):
    """A valid MAC distortion document, or one mutated by :func:`_mutated`."""
    return _mutated(draw, draw(mac_docs()))


@settings(max_examples=120, deadline=None)
@given(scenario_docs())
def test_certificate_holds_on_random_scenarios(doc):
    scn = scenario_from_dict(doc)
    report = solve(scn)
    tr = report.trace
    assert len(tr) == report.iterations <= scn.max_iters

    # weak duality along the trace: every dual value bounds the best
    # incumbent (the last primal_obj), so the relative gap is >= -1e-12
    if report.recovered is not None:
        best = report.recovered_objective
        assert tr.primal_obj[-1] == best
        assert np.all(tr.dual_obj - best >= -1e-12 * (1.0 + abs(best)))

    if report.converged:
        assert report.stop_reason == "gap"
        assert report.gap < scn.tol_gap
        assert primal_violation(report.recovered, scn) <= 1e-9
    else:
        assert report.iterations == scn.max_iters

    again = solve(scn)
    assert (again.iterations, again.stop_reason, again.converged) == (
        report.iterations, report.stop_reason, report.converged
    )
    assert again.recovered_objective == report.recovered_objective
    assert again.best_dual == report.best_dual
    for name in ("mu", "lam", "alpha", "beta", "c", "r", "primal_obj", "dual_obj"):
        assert np.array_equal(getattr(again.trace, name), getattr(tr, name))
    if report.recovered is not None:
        for name in ("alpha", "beta", "c", "r"):
            assert np.array_equal(getattr(again.recovered, name), getattr(report.recovered, name))


def _run_cli(command, doc):
    """``main([command, doc, "--out", ...])``'s exit code; no traceback on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", str(Path(tmp) / "out.csv")])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(cli_docs())
def test_solve_command_exits_cleanly(doc):
    code = _run_cli("solve", doc)
    assert code in (0, 1, 2)
    try:
        scn = scenario_from_dict(doc)
    except Exception as exc:
        assert isinstance(exc, ScenarioError), repr(exc)
        assert code == 1
        return
    assert code == (0 if solve(scn).converged else 2)


@settings(max_examples=300, deadline=None)
@given(cli_mac_docs())
def test_mac_command_exits_cleanly(doc):
    code = _run_cli("mac", doc)
    assert code in (0, 1, 3)
    try:
        mac_scenario_from_dict(doc)
    except Exception as exc:
        assert isinstance(exc, ScenarioError), repr(exc)
        assert code == 1
        return
    assert code != 1


# any float, with the edge values drawn often
flag_value = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(
    K=flag_value,
    p=st.one_of(flag_value, st.floats(0.0, 1.0)),
    c_min=flag_value,
    c_max=flag_value,
    steps=st.integers(-3, 300),
)
def test_fig1_command_exits_cleanly(K, p, c_min, c_max, steps):
    flags = {"--K": K, "--p": p, "--c-min": c_min, "--c-max": c_max, "--steps": steps}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["fig1", *(f"{f}={v!r}" for f, v in flags.items()), "--out", str(Path(tmp) / "f.csv")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert [line.startswith("error: ") for line in err.getvalue().splitlines()] == [True]
