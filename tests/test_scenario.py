import json
import math
from dataclasses import replace

import pytest

from rdcontrol import (
    BoxRegion,
    Diminishing,
    DomainError,
    GaussianMacRegion,
    LogLinear,
    LogRate,
    MacScenario,
    ScenarioError,
    VertexRegion,
    Zero,
    mac_scenario_from_dict,
    scenario_from_dict,
)
from rdcontrol.orchestrator import MAX_TRACE_CELLS


def base_doc():
    return {
        "sources": [
            {
                "kind": "binary",
                "s": 1.0,
                "p": 0.5,
                "V": {"kind": "log_linear", "K": 1.0},
                "U": {"kind": "log_rate", "w": 1.0},
            }
        ],
        "region": {"kind": "box", "caps": [10.0]},
        "solver": {
            "step": {"kind": "diminishing", "gamma0": 0.3},
            "max_iters": 1000,
            "tol_gap": 1e-3,
            "caps": {"alpha_max": 50.0, "c_max": 50.0, "c_min": 1e-9},
        },
    }


def mac_doc():
    return {
        "sources": [
            {
                "kind": "binary",
                "s": 1.0,
                "p": 0.5,
                "V": {"kind": "linear_entropy_penalty", "delta": 2.0},
            },
            {
                "kind": "binary",
                "s": 1.0,
                "p": 0.5,
                "V": {"kind": "linear_entropy_penalty", "delta": 1.0},
            },
        ],
        "region": {"kind": "mac", "powers": [3.0, 3.0], "noise": 1.0},
    }


def test_full_document_builds():
    scn = scenario_from_dict(base_doc())
    assert scn.n == 1
    assert isinstance(scn.region, BoxRegion)
    assert isinstance(scn.sources[0].V, LogLinear)
    assert isinstance(scn.sources[0].U, LogRate)
    assert scn.step == Diminishing(0.3)
    assert scn.max_iters == 1000
    assert scn.caps.alpha_max == 50.0


def test_defaults_when_solver_and_u_omitted():
    doc = base_doc()
    del doc["solver"]
    del doc["sources"][0]["U"]
    scn = scenario_from_dict(doc)
    assert isinstance(scn.sources[0].U, Zero)
    assert scn.max_iters == 50_000
    assert scn.caps.alpha_max == 1e6


def test_region_kinds():
    doc = base_doc()
    doc["region"] = {"kind": "mac", "powers": [3.0], "noise": 1.0}
    assert isinstance(scenario_from_dict(doc).region, GaussianMacRegion)
    doc["region"] = {"kind": "vertices", "vertices": [[0.0], [2.0]]}
    assert isinstance(scenario_from_dict(doc).region, VertexRegion)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("sources"), "sources"),
        (lambda d: d.pop("region"), "region"),
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["sources"][0].pop("p"), "sources[0].p"),
        (lambda d: d["sources"][0].update(p=1.5), "sources[0].p"),
        (lambda d: d["sources"][0].update(bogus=1), "bogus"),
        (lambda d: d["sources"][0]["V"].update(kind="nope"), "sources[0].V.kind"),
        (lambda d: d["sources"][0]["V"].update(K=-1.0), "sources[0].V.K"),
        (lambda d: d["region"].update(caps=[-1.0]), "region.caps[0]"),
        (lambda d: d["solver"].update(weird=1), "weird"),
        (lambda d: d["solver"]["step"].update(kind="magic"), "solver.step.kind"),
        (lambda d: d["solver"]["caps"].update(c_min=-1.0), "solver.caps.c_min"),
        (lambda d: d["solver"].update(max_iters=0), "solver.max_iters"),
        pytest.param(
            lambda d: d["region"].update(caps=[math.nan]), "region.caps[0]", id="nan-cap"
        ),
        pytest.param(
            lambda d: d["sources"][0]["V"].update(K=math.inf), "sources[0].V.K", id="infinite-K"
        ),
        pytest.param(
            lambda d: d["solver"].update(tol_feas=1e-6), "tol_feas", id="removed-tol_feas"
        ),
        pytest.param(
            lambda d: d.update(region={"kind": "vertices", "vertices": [[1.0], [1.0, 2.0]]}),
            "region.vertices[1]",
            id="ragged-vertices",
        ),
        pytest.param(
            lambda d: d.update(region={"kind": "vertices", "vertices": []}),
            "region.vertices",
            id="empty-vertices",
        ),
        pytest.param(lambda d: d["region"].update(caps=[]), "region.caps", id="empty-caps"),
        pytest.param(
            lambda d: d.update(region={"kind": "mac", "powers": [], "noise": 1.0}),
            "region.powers",
            id="empty-powers",
        ),
        pytest.param(
            lambda d: d["solver"]["caps"].update(c_min=50.0), "solver.caps.c_max", id="c_min-at-c_max"
        ),
        pytest.param(
            lambda d: d["sources"][0]["V"].update(K=10**400), "sources[0].V.K", id="400-digit-K"
        ),
        pytest.param(
            lambda d: d["region"].update(caps=[10**400]), "region.caps[0]", id="400-digit-cap"
        ),
        pytest.param(
            lambda d: d["solver"].update(max_iters=10**400), "solver.max_iters", id="400-digit-max_iters"
        ),
    ],
)
def test_schema_errors_name_the_field(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert fragment in str(err.value)


def test_negative_power_names_field():
    doc = base_doc()
    doc["region"] = {"kind": "mac", "powers": [-3.0], "noise": 1.0}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "region.powers[0]" in str(err.value)


def test_gaussian_source_kind_is_refused():
    doc = base_doc()
    doc["sources"][0] = {
        "kind": "gaussian",
        "s": 1.0,
        "sigma2": 2.0,
        "V": {"kind": "log_linear", "K": 1.0},
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)  # refused by kind, before its unknown key sigma2
    assert str(err.value).startswith("sources[0].kind:")


def test_mac_document_builds():
    scn = mac_scenario_from_dict(mac_doc())
    assert isinstance(scn, MacScenario)
    assert scn.deltas == (2.0, 1.0)
    assert scn.powers == (3.0, 3.0)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["sources"].pop(), "exactly 2"),
        (lambda d: d["sources"][0]["V"].update(kind="log_linear", K=1.0), "linear_entropy_penalty"),
        (lambda d: d["region"].update(kind="box", caps=[1.0, 1.0], powers=None, noise=None), "region"),
        (lambda d: d["sources"][0].update(U={"kind": "log_rate", "w": 1.0}), "sources[0].U"),
        (lambda d: d["sources"][1]["V"].update(delta=-1.0), "sources[1].V.delta"),
        (lambda d: d["sources"][0]["V"].update(delta=math.nan), "sources[0].V.delta"),
        (lambda d: d["sources"][0].update(kind="gaussian", sigma2=2.0), "sources[0].kind"),
    ],
)
def test_mac_schema_errors(mutate, fragment):
    doc = mac_doc()
    mutate(doc)
    if doc["region"].get("powers") is None:
        doc["region"] = {"kind": "box", "caps": [1.0, 1.0]}
    with pytest.raises(ScenarioError) as err:
        mac_scenario_from_dict(doc)
    assert fragment in str(err.value)


def test_round_trips_through_json(tmp_path):
    from rdcontrol import load_scenario

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(base_doc()))
    scn = load_scenario(path)
    assert scn.n == 1


def _box_doc(n: int, max_iters: int) -> dict:
    doc = base_doc()
    doc["sources"] = doc["sources"] * n
    doc["region"]["caps"] = [10.0] * n
    doc["solver"]["max_iters"] = max_iters
    return doc


def test_trace_memory_bound_refuses_a_wide_long_solve():
    # 64 sources at 10^6 iterations would keep 3.9e8 trace floats (3.1 GB)
    with pytest.raises(ScenarioError, match=r"^solver\.max_iters:"):
        scenario_from_dict(_box_doc(64, 10**6))
    # an override goes through the same check
    scn = scenario_from_dict(_box_doc(64, 1000))
    with pytest.raises(DomainError) as err:
        replace(scn, max_iters=10**6)
    assert err.value.field == "max_iters"


def test_trace_memory_bound_admits_a_solve_exactly_at_it():
    # 33 sources keep 6 * 33 + 2 = 200 floats per iteration
    scn = scenario_from_dict(_box_doc(33, 500_000))
    assert scn.max_iters * (6 * scn.n + 2) == MAX_TRACE_CELLS
    with pytest.raises(ScenarioError, match=r"^solver\.max_iters:"):
        scenario_from_dict(_box_doc(33, 500_001))


def test_mac_document_refuses_a_box_by_its_kind():
    # the box is not built, so its NaN cap is not what the error names
    doc = mac_doc()
    doc["region"] = {"kind": "box", "caps": [math.nan, 1.0]}
    with pytest.raises(ScenarioError, match=r"^region\.kind: expected 'mac', got 'box'$"):
        mac_scenario_from_dict(doc)


@pytest.mark.parametrize("solver", ["garbage", {}, {"max_iters": 10}])
def test_mac_document_refuses_a_solver(solver):
    # the distortion program reads no solver options
    doc = mac_doc()
    doc["solver"] = solver
    with pytest.raises(ScenarioError, match=r"unknown key\(s\) \['solver'\]"):
        mac_scenario_from_dict(doc)
