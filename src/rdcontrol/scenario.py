"""JSON scenario documents and their validation.

Top-level keys: ``sources`` (required), ``region`` (required) and
``solver`` (optional; omitted options keep the ``Scenario`` and
``SolverCaps`` defaults).  This module checks the JSON shape only:
objects and arrays where the schema has them, numbers (bool and str
refused, and an integer too large for a float), integers, missing keys,
unknown keys and each ``kind``.  The constructors the document feeds
(``BinarySource``, ``LogLinear``, ``BoxRegion``, ``SolverCaps``,
``Scenario``, ...) own every value rule, such as finiteness (the NaN and
Infinity that ``json.loads`` accepts), signs and ranges, and name the
argument at fault in ``DomainError.field``.  Every error is a
:class:`ScenarioError` that names the offending field by its document
path, e.g. ``region.powers[0]``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import DomainError, ScenarioError
from .layers import LogLinear, LogRate, SolverCaps, UtilityU, Zero
from .mac import MacScenario
from .orchestrator import Constant, Diminishing, Scenario, SourceSpec, StepRule
from .regions import BoxRegion, GaussianMacRegion, RateRegion, VertexRegion
from .sources import BinarySource

# Scenario arguments that the document nests under "solver"
_SOLVER_FIELDS = ("max_iters", "tol_gap", "dual_init")

# constructor fields that the document spells at another path
_DOC_PATHS = {
    **{(Scenario, key): f"solver.{key}" for key in _SOLVER_FIELDS},
    **{(MacScenario, f"deltas[{i}]"): f"sources[{i}].V.delta" for i in range(2)},
}


def _require_mapping(val: Any, path: str) -> dict:
    if not isinstance(val, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(val).__name__}")
    return val


def _require_list(val: Any, path: str) -> list:
    if not isinstance(val, list):
        raise ScenarioError(f"{path}: expected an array, got {type(val).__name__}")
    return val


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ScenarioError(f"{path}: unknown key(s) {sorted(extra)}")


def _name(path: str, field: str | None) -> str:
    """The document path of ``field`` inside the object at ``path``."""
    return ".".join(part for part in (path, field) if part)


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise ScenarioError(f"{_name(path, key)}: missing required field")
    return obj[key]


def _float(val: Any, path: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {val!r}")
    try:
        return float(val)
    except OverflowError:  # a JSON integer past the float range
        raise ScenarioError(f"{path}: integer too large for a float") from None


def _number(obj: dict, key: str, path: str) -> float:
    return _float(_get(obj, key, path), f"{path}.{key}")


def _integer(obj: dict, key: str, path: str) -> int:
    val = _get(obj, key, path)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {val!r}")
    return val


def _number_list(val: Any, path: str) -> list[float]:
    return [_float(x, f"{path}[{i}]") for i, x in enumerate(_require_list(val, path))]


def _construct(path: str, cls, **kwargs):
    """``cls(**kwargs)``: the constructor checks every value of the document.

    A refusal becomes a ScenarioError named ``{path}.{field}`` by the
    error's ``field``, or by the document path ``_DOC_PATHS`` gives it.
    """
    try:
        return cls(**kwargs)
    except DomainError as exc:
        name = _name(path, _DOC_PATHS.get((cls, exc.field), exc.field))
        raise ScenarioError(f"{name}: {exc}" if name else str(exc)) from exc


def _build_model(obj: dict, path: str) -> BinarySource:
    kind = obj.get("kind")
    if kind != "binary":
        raise ScenarioError(f"{path}.kind: expected 'binary', got {kind!r}")
    _reject_unknown(obj, {"kind", "s", "p", "V", "U"}, path)
    return _construct(
        path, BinarySource, s=_number(obj, "s", path), p=_number(obj, "p", path)
    )


def _v_number(source: dict, path: str, kind: str, key: str) -> float:
    """The number ``key`` of the ``V`` object of the source at ``path``;
    that object must be of ``kind`` and hold nothing else."""
    v_path = f"{path}.V"
    obj = _require_mapping(_get(source, "V", path), v_path)
    if obj.get("kind") != kind:
        raise ScenarioError(f"{v_path}.kind: expected {kind!r}, got {obj.get('kind')!r}")
    _reject_unknown(obj, {"kind", key}, v_path)
    return _number(obj, key, v_path)


def _build_u(obj: Any, path: str) -> UtilityU:
    if obj is None:
        return Zero()
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "log_rate":
        _reject_unknown(obj, {"kind", "w"}, path)
        return _construct(path, LogRate, w=_number(obj, "w", path))
    if kind == "zero":
        _reject_unknown(obj, {"kind"}, path)
        return Zero()
    raise ScenarioError(f"{path}.kind: expected 'log_rate' or 'zero', got {kind!r}")


def _build_source(obj: Any, path: str) -> SourceSpec:
    obj = _require_mapping(obj, path)
    model = _build_model(obj, path)
    V = _construct(f"{path}.V", LogLinear, K=_v_number(obj, path, "log_linear", "K"))
    U = _build_u(obj.get("U"), f"{path}.U")
    return SourceSpec(model, V, U)


def _build_region(obj: Any, path: str) -> RateRegion:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "box":
        _reject_unknown(obj, {"kind", "caps"}, path)
        caps = _number_list(_get(obj, "caps", path), f"{path}.caps")
        return _construct(path, BoxRegion, caps=caps)
    if kind == "mac":
        _reject_unknown(obj, {"kind", "powers", "noise"}, path)
        powers = _number_list(_get(obj, "powers", path), f"{path}.powers")
        noise = _number(obj, "noise", path)
        return _construct(path, GaussianMacRegion, powers=powers, noise=noise)
    if kind == "vertices":
        _reject_unknown(obj, {"kind", "vertices"}, path)
        rows = _require_list(_get(obj, "vertices", path), f"{path}.vertices")
        verts = [_number_list(row, f"{path}.vertices[{i}]") for i, row in enumerate(rows)]
        return _construct(path, VertexRegion, vertices=verts)
    raise ScenarioError(f"{path}.kind: expected 'box', 'mac' or 'vertices', got {kind!r}")


def _build_step(obj: Any, path: str) -> StepRule:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind in ("constant", "diminishing"):
        _reject_unknown(obj, {"kind", "gamma0"}, path)
        rule = Constant if kind == "constant" else Diminishing
        return _construct(path, rule, gamma0=_number(obj, "gamma0", path))
    raise ScenarioError(f"{path}.kind: expected 'constant' or 'diminishing', got {kind!r}")


def _build_caps(obj: Any, path: str) -> SolverCaps:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"alpha_max", "c_max", "c_min"}, path)
    return _construct(path, SolverCaps, **{key: _number(obj, key, path) for key in obj})


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a solver scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region", "solver"}, "scenario")
    entries = _require_list(_get(doc, "sources", ""), "sources")
    sources = tuple(_build_source(e, f"sources[{i}]") for i, e in enumerate(entries))
    region = _build_region(_get(doc, "region", ""), "region")

    kwargs: dict[str, Any] = {}
    if "solver" in doc:
        solver = _require_mapping(doc["solver"], "solver")
        _reject_unknown(solver, {"step", *_SOLVER_FIELDS, "caps"}, "solver")
        if "step" in solver:
            kwargs["step"] = _build_step(solver["step"], "solver.step")
        if "max_iters" in solver:
            kwargs["max_iters"] = _integer(solver, "max_iters", "solver")
        for key in ("tol_gap", "dual_init"):
            if key in solver:
                kwargs[key] = _number(solver, key, "solver")
        if "caps" in solver:
            kwargs["caps"] = _build_caps(solver["caps"], "solver.caps")
    return _construct("", Scenario, sources=sources, region=region, **kwargs)


def mac_scenario_from_dict(doc: Any) -> MacScenario:
    """Build a two-user MAC distortion scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region", "solver"}, "scenario")
    entries = _require_list(_get(doc, "sources", ""), "sources")
    if len(entries) != 2:
        raise ScenarioError(f"sources: the MAC distortion program needs exactly 2, got {len(entries)}")
    models = []
    deltas = []
    for i, entry in enumerate(entries):
        path = f"sources[{i}]"
        entry = _require_mapping(entry, path)
        models.append(_build_model(entry, path))
        deltas.append(_v_number(entry, path, "linear_entropy_penalty", "delta"))
        if not isinstance(_build_u(entry.get("U"), f"{path}.U"), Zero):
            raise ScenarioError(f"{path}.U: must be omitted or 'zero'")
    region = _build_region(_get(doc, "region", ""), "region")
    if not isinstance(region, GaussianMacRegion):
        raise ScenarioError("region.kind: must be 'mac'")
    if region.dim != 2:
        raise ScenarioError(f"region.powers: need exactly 2 users, got {region.dim}")
    return _construct(
        "",
        MacScenario,
        sources=(models[0], models[1]),
        powers=region.powers,
        noise=region.noise,
        deltas=(deltas[0], deltas[1]),
    )


def load_json(path: str | Path) -> Any:
    """Parse a JSON file; syntax errors keep json's line/column diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:  # a syntax error, or an integer past int's digit limit
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(load_json(path))


def load_mac_scenario(path: str | Path) -> MacScenario:
    return mac_scenario_from_dict(load_json(path))
