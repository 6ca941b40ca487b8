"""JSON scenario documents and their validation.

Top-level keys: ``sources`` (required), ``region`` (required) and
``solver`` (optional, defaults documented in the README).  Validation is
strict: unknown keys and non-finite numbers (the NaN and Infinity that
``json.loads`` accepts) are rejected, and every error message names the
offending field by its path, e.g. ``region.powers[0]``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import ScenarioError, UnsupportedCombinationError
from .layers import (
    LinearEntropyPenalty,
    LogLinear,
    LogRate,
    SolverCaps,
    UtilityU,
    UtilityV,
    Zero,
)
from .mac import MacScenario
from .orchestrator import Constant, Diminishing, Scenario, SourceSpec, StepRule
from .regions import BoxRegion, GaussianMacRegion, RateRegion, VertexRegion
from .sources import BinarySource, GaussianSource, SourceModel


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


def _number(obj: dict, key: str, path: str, *, positive=False, nonneg=False) -> float:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required field")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {val!r}")
    x = float(val)
    if not math.isfinite(x):
        raise ScenarioError(f"{path}.{key}: must be finite, got {x}")
    if positive and not x > 0:
        raise ScenarioError(f"{path}.{key}: must be > 0, got {x}")
    if nonneg and x < 0:
        raise ScenarioError(f"{path}.{key}: must be >= 0, got {x}")
    return x


def _integer(obj: dict, key: str, path: str, *, minimum: int) -> int:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: missing required field")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {val!r}")
    if val < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _number_list(val: Any, path: str, *, nonneg=False) -> list[float]:
    items = _require_list(val, path)
    out = []
    for i, x in enumerate(items):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ScenarioError(f"{path}[{i}]: expected a number, got {x!r}")
        if not math.isfinite(x):
            raise ScenarioError(f"{path}[{i}]: must be finite, got {x}")
        if nonneg and x < 0:
            raise ScenarioError(f"{path}[{i}]: must be >= 0, got {x}")
        out.append(float(x))
    return out


def _build_model(obj: dict, path: str) -> SourceModel:
    kind = obj.get("kind")
    if kind == "binary":
        _reject_unknown(obj, {"kind", "s", "p", "V", "U"}, path)
        s = _number(obj, "s", path, positive=True)
        p = _number(obj, "p", path)
        if not 0.0 < p < 1.0:
            raise ScenarioError(f"{path}.p: must be in (0,1), got {p}")
        return BinarySource(s, p)
    if kind == "gaussian":
        _reject_unknown(obj, {"kind", "s", "sigma2", "V", "U"}, path)
        return GaussianSource(
            _number(obj, "s", path, positive=True),
            _number(obj, "sigma2", path, positive=True),
        )
    raise ScenarioError(f"{path}.kind: expected 'binary' or 'gaussian', got {kind!r}")


def _build_v(obj: Any, path: str) -> UtilityV:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "log_linear":
        _reject_unknown(obj, {"kind", "K"}, path)
        return LogLinear(_number(obj, "K", path, positive=True))
    if kind == "linear_entropy_penalty":
        _reject_unknown(obj, {"kind", "delta"}, path)
        return LinearEntropyPenalty(_number(obj, "delta", path, positive=True))
    raise ScenarioError(
        f"{path}.kind: expected 'log_linear' or 'linear_entropy_penalty', got {kind!r}"
    )


def _build_u(obj: Any, path: str) -> UtilityU:
    if obj is None:
        return Zero()
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "log_rate":
        _reject_unknown(obj, {"kind", "w"}, path)
        return LogRate(_number(obj, "w", path, positive=True))
    if kind == "zero":
        _reject_unknown(obj, {"kind"}, path)
        return Zero()
    raise ScenarioError(f"{path}.kind: expected 'log_rate' or 'zero', got {kind!r}")


def _build_source(obj: Any, path: str) -> SourceSpec:
    obj = _require_mapping(obj, path)
    model = _build_model(obj, path)
    if "V" not in obj:
        raise ScenarioError(f"{path}.V: missing required field")
    V = _build_v(obj["V"], f"{path}.V")
    U = _build_u(obj.get("U"), f"{path}.U")
    return SourceSpec(model, V, U)


def _build_region(obj: Any, path: str) -> RateRegion:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "box":
        _reject_unknown(obj, {"kind", "caps"}, path)
        if "caps" not in obj:
            raise ScenarioError(f"{path}.caps: missing required field")
        return BoxRegion(tuple(_number_list(obj["caps"], f"{path}.caps", nonneg=True)))
    if kind == "mac":
        _reject_unknown(obj, {"kind", "powers", "noise"}, path)
        if "powers" not in obj:
            raise ScenarioError(f"{path}.powers: missing required field")
        powers = _number_list(obj["powers"], f"{path}.powers", nonneg=True)
        noise = _number(obj, "noise", path, positive=True)
        return GaussianMacRegion(tuple(powers), noise)
    if kind == "vertices":
        _reject_unknown(obj, {"kind", "vertices"}, path)
        if "vertices" not in obj:
            raise ScenarioError(f"{path}.vertices: missing required field")
        rows = _require_list(obj["vertices"], f"{path}.vertices")
        verts = tuple(
            tuple(_number_list(row, f"{path}.vertices[{i}]", nonneg=True))
            for i, row in enumerate(rows)
        )
        return VertexRegion(verts)
    raise ScenarioError(f"{path}.kind: expected 'box', 'mac' or 'vertices', got {kind!r}")


def _build_step(obj: Any, path: str) -> StepRule:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    if kind == "constant":
        _reject_unknown(obj, {"kind", "gamma0"}, path)
        return Constant(_number(obj, "gamma0", path, positive=True))
    if kind == "diminishing":
        _reject_unknown(obj, {"kind", "gamma0"}, path)
        return Diminishing(_number(obj, "gamma0", path, positive=True))
    raise ScenarioError(f"{path}.kind: expected 'constant' or 'diminishing', got {kind!r}")


def _build_caps(obj: Any, path: str) -> SolverCaps:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"alpha_max", "c_max", "c_min"}, path)
    defaults = SolverCaps()
    return SolverCaps(
        alpha_max=_number(obj, "alpha_max", path, positive=True)
        if "alpha_max" in obj
        else defaults.alpha_max,
        c_max=_number(obj, "c_max", path, positive=True) if "c_max" in obj else defaults.c_max,
        c_min=_number(obj, "c_min", path, nonneg=True) if "c_min" in obj else defaults.c_min,
    )


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a solver scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region", "solver"}, "scenario")
    if "sources" not in doc:
        raise ScenarioError("sources: missing required field")
    if "region" not in doc:
        raise ScenarioError("region: missing required field")
    entries = _require_list(doc["sources"], "sources")
    if not entries:
        raise ScenarioError("sources: must contain at least one source")
    sources = tuple(_build_source(e, f"sources[{i}]") for i, e in enumerate(entries))
    region = _build_region(doc["region"], "region")

    kwargs: dict[str, Any] = {}
    if "solver" in doc:
        solver = _require_mapping(doc["solver"], "solver")
        _reject_unknown(
            solver,
            {"step", "max_iters", "tol_gap", "dual_init", "caps"},
            "solver",
        )
        if "step" in solver:
            kwargs["step"] = _build_step(solver["step"], "solver.step")
        if "max_iters" in solver:
            kwargs["max_iters"] = _integer(solver, "max_iters", "solver", minimum=1)
        if "tol_gap" in solver:
            kwargs["tol_gap"] = _number(solver, "tol_gap", "solver", positive=True)
        if "dual_init" in solver:
            kwargs["dual_init"] = _number(solver, "dual_init", "solver", nonneg=True)
        if "caps" in solver:
            kwargs["caps"] = _build_caps(solver["caps"], "solver.caps")
    try:
        return Scenario(sources=sources, region=region, **kwargs)
    except (ValueError, UnsupportedCombinationError) as exc:
        raise ScenarioError(str(exc)) from exc


def mac_scenario_from_dict(doc: Any) -> MacScenario:
    """Build a two-user MAC distortion scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region", "solver"}, "scenario")
    if "sources" not in doc:
        raise ScenarioError("sources: missing required field")
    if "region" not in doc:
        raise ScenarioError("region: missing required field")
    entries = _require_list(doc["sources"], "sources")
    if len(entries) != 2:
        raise ScenarioError(f"sources: the MAC distortion program needs exactly 2, got {len(entries)}")
    models = []
    deltas = []
    for i, entry in enumerate(entries):
        path = f"sources[{i}]"
        # check V's kind first: the generic build would report a wrong kind's
        # leftover keys (e.g. 'delta' on log_linear) instead of the real fault
        V = _require_mapping(entry, path).get("V")
        if isinstance(V, dict) and V.get("kind") != "linear_entropy_penalty":
            raise ScenarioError(f"{path}.V.kind: must be 'linear_entropy_penalty'")
        spec = _build_source(entry, path)
        if not isinstance(spec.model, BinarySource):
            raise ScenarioError(f"{path}.kind: the MAC distortion program needs binary sources")
        if not isinstance(spec.V, LinearEntropyPenalty):
            raise ScenarioError(f"{path}.V.kind: must be 'linear_entropy_penalty'")
        if not isinstance(spec.U, Zero):
            raise ScenarioError(f"{path}.U: must be omitted or 'zero'")
        models.append(spec.model)
        deltas.append(spec.V.delta)
    region = _build_region(doc["region"], "region")
    if not isinstance(region, GaussianMacRegion):
        raise ScenarioError("region.kind: must be 'mac'")
    if region.dim != 2:
        raise ScenarioError(f"region.powers: need exactly 2 users, got {region.dim}")
    return MacScenario(
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


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(load_json(path))


def load_mac_scenario(path: str | Path) -> MacScenario:
    return mac_scenario_from_dict(load_json(path))
