"""JSON scenario documents and their validation.

Top-level keys: ``sources`` (required), ``region`` (required) and
``solver`` (optional; omitted options keep the ``Scenario`` and
``SolverCaps`` defaults); a MAC distortion document has no ``solver``.
Each kinded object (a source's model, ``V`` and ``U``, the region and
``solver.step``) has one table that maps each ``kind`` to its
constructor and the readers of its keys, and one reader, :func:`_kinded`,
reads them all.  :func:`_fields` reads the unkinded ``solver`` and
``solver.caps``, whose keys are all optional.  This module checks the
JSON shape only: objects and arrays where the schema has them, numbers
(bool and str refused, and an integer too large for a float), integers,
missing keys, unknown keys and each ``kind``.  The constructors the
document feeds (``BinarySource``, ``LogLinear``, ``BoxRegion``,
``SolverCaps``, ``Scenario``, ...) own every value rule, such as
finiteness (the NaN and Infinity that ``json.loads`` accepts), signs and
ranges, and name the argument at fault in ``DomainError.field``.  Every
error is a :class:`ScenarioError` that names the offending field by its
document path, e.g. ``region.powers[0]``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from .errors import DomainError, ScenarioError
from .layers import LogLinear, LogRate, SolverCaps, Zero
from .mac import MacScenario
from .orchestrator import Constant, Diminishing, Scenario, SourceSpec
from .regions import BoxRegion, GaussianMacRegion, VertexRegion
from .sources import BinarySource

# constructor fields that the document spells at another path
_DOC_PATHS = {
    **{(Scenario, key): f"solver.{key}" for key in ("max_iters", "tol_gap", "dual_init")},
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


def _integer(val: Any, path: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{path}: expected an integer, got {val!r}")
    return val


def _number_list(val: Any, path: str) -> list[float]:
    return [_float(x, f"{path}[{i}]") for i, x in enumerate(_require_list(val, path))]


def _number_rows(val: Any, path: str) -> list[list[float]]:
    return [_number_list(row, f"{path}[{i}]") for i, row in enumerate(_require_list(val, path))]


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


# a reader takes (value, document path) and returns what the constructor takes
_Reader = Callable[[Any, str], Any]
# kind -> (constructor, {key: reader}); every key is required
_Kinds = dict[str, tuple[Callable[..., Any], dict[str, _Reader]]]


def _kinded(val: Any, path: str, kinds: _Kinds, shared: tuple[str, ...] = ()) -> Any:
    """The object at ``path``, built by the constructor its ``kind`` names
    in ``kinds``.  The keys in ``shared`` are allowed and left to the caller."""
    obj = _require_mapping(val, path)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        *rest, last = map(repr, kinds)
        expected = f"{', '.join(rest)} or {last}" if rest else last
        raise ScenarioError(f"{path}.kind: expected {expected}, got {kind!r}")
    cls, readers = kinds[kind]
    _reject_unknown(obj, {"kind", *readers, *shared}, path)
    kwargs = {key: read(_get(obj, key, path), f"{path}.{key}") for key, read in readers.items()}
    return _construct(path, cls, **kwargs)


def _fields(val: Any, path: str, readers: dict[str, _Reader]) -> dict[str, Any]:
    """The keys the object at ``path`` has, each read by its reader; every
    key of ``readers`` is optional and no other is allowed."""
    obj = _require_mapping(val, path)
    _reject_unknown(obj, set(readers), path)
    return {key: read(obj[key], f"{path}.{key}") for key, read in readers.items() if key in obj}


_MODEL: _Kinds = {"binary": (BinarySource, {"s": _float, "p": _float})}
_V: _Kinds = {"log_linear": (LogLinear, {"K": _float})}
_U: _Kinds = {"log_rate": (LogRate, {"w": _float}), "zero": (Zero, {})}
_REGION: _Kinds = {
    "box": (BoxRegion, {"caps": _number_list}),
    "mac": (GaussianMacRegion, {"powers": _number_list, "noise": _float}),
    "vertices": (VertexRegion, {"vertices": _number_rows}),
}
_STEP: _Kinds = {
    "constant": (Constant, {"gamma0": _float}),
    "diminishing": (Diminishing, {"gamma0": _float}),
}
_CAPS = {key: _float for key in ("alpha_max", "c_max", "c_min")}
_SOLVER: dict[str, _Reader] = {
    "step": lambda val, path: _kinded(val, path, _STEP),
    "max_iters": _integer,
    "tol_gap": _float,
    "dual_init": _float,
    "caps": lambda val, path: _construct(path, SolverCaps, **_fields(val, path, _CAPS)),
}

# the MAC distortion program: V is the weight delta of H(D), U is zero
_MAC_V: _Kinds = {"linear_entropy_penalty": (lambda delta: delta, {"delta": _float})}
_MAC_U: _Kinds = {"zero": _U["zero"]}
_MAC_REGION: _Kinds = {"mac": _REGION["mac"]}


def _sources(doc: dict, V: _Kinds, U: _Kinds) -> list[tuple]:
    """(model, V, U) of each entry of ``sources``; an omitted or null U is Zero."""
    triples = []
    for i, entry in enumerate(_require_list(_get(doc, "sources", ""), "sources")):
        path = f"sources[{i}]"
        model = _kinded(entry, path, _MODEL, shared=("V", "U"))
        v = _kinded(_get(entry, "V", path), f"{path}.V", V)
        u = Zero() if entry.get("U") is None else _kinded(entry["U"], f"{path}.U", U)
        triples.append((model, v, u))
    return triples


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a solver scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region", "solver"}, "scenario")
    sources = tuple(SourceSpec(*triple) for triple in _sources(doc, _V, _U))
    region = _kinded(_get(doc, "region", ""), "region", _REGION)
    kwargs = _fields(doc["solver"], "solver", _SOLVER) if "solver" in doc else {}
    return _construct("", Scenario, sources=sources, region=region, **kwargs)


def mac_scenario_from_dict(doc: Any) -> MacScenario:
    """Build a two-user MAC distortion scenario from a parsed JSON document."""
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"sources", "region"}, "scenario")
    entries = _require_list(_get(doc, "sources", ""), "sources")
    if len(entries) != 2:
        raise ScenarioError(f"sources: the MAC distortion program needs exactly 2, got {len(entries)}")
    models, deltas, _ = zip(*_sources(doc, _MAC_V, _MAC_U))
    region = _kinded(_get(doc, "region", ""), "region", _MAC_REGION)
    if region.dim != 2:
        raise ScenarioError(f"region.powers: need exactly 2 users, got {region.dim}")
    return _construct(
        "", MacScenario, sources=models, powers=region.powers, noise=region.noise, deltas=deltas
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
