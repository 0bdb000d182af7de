"""Scenario files: schema, loading, and randomized generation.

A scenario is a self-contained JSON document (version "v1") holding the
grid, both barriers, the terminal variable, the driver, and optional
tolerance overrides.  Barriers and terminals come either from small
catalogs (constant / affine in the walk) or as explicit per-node tables;
the randomized generator always emits tables so that a generated file
replays exactly with no generator code in the loop.

Generated scenarios respect the lattice constraints the order-theoretic
laws need: the z-Lipschitz constant is capped at 0.9/sqrt(dt) (one-step
comparison fails beyond 1/sqrt(dt)) and positive monotonicity stays below
1/dt (implicit step solvability).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .expectation import (
    Driver,
    constant_driver,
    linear_driver,
    polynomial_driver,
    truncated_driver,
)
from .lattice import OptionalProcess, TwoPhaseTree, build_tree
from .reflect import Barriers, RBSDESolution
from .report import solution_from_dict

__all__ = [
    "Scenario",
    "ScenarioError",
    "DEFAULT_TOLERANCES",
    "SCENARIO_SCHEMA",
    "SOLUTION_SCHEMA",
    "load_scenario",
    "load_solution",
    "scenario_from_dict",
    "random_scenario",
]

DEFAULT_TOLERANCES: dict[str, float | int] = {
    "tol_root": 1e-12,
    "tol_comp": 1e-10,
    "tol_conv": 1e-8,
    "tol_game": 1e-8,
    "enum_bound": 3,
}

_NUM = {"type": "number"}
# a table: rows of node values
_ROWS = {"type": "array", "items": {"type": "array", "items": _NUM}}

SCENARIO_SCHEMA: dict[str, Any] = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "steps", "dt", "lower", "upper", "terminal", "driver"],
    "properties": {
        "version": {"const": "v1"},
        "name": {"type": "string"},
        "steps": {"type": "integer", "minimum": 1, "maximum": 18},
        "dt": {"type": "number", "exclusiveMinimum": 0},
        "lower": {"type": "object", "required": ["kind"]},
        "upper": {"type": "object", "required": ["kind"]},
        "terminal": {"type": "object", "required": ["kind"]},
        "driver": {"type": "object", "required": ["kind"]},
        "tolerances": {
            "type": "object",
            "properties": {k: {"type": "integer", "minimum": 1} if k == "enum_bound"
                           else {"type": "number", "minimum": 0} for k in DEFAULT_TOLERANCES},
            "additionalProperties": False,
        },
        "seed": {"type": "integer"},
    },
}

_INCREMENTS = {"type": "object", "required": ["phase", "step"], "properties": {"phase": _ROWS, "step": _ROWS}}

# a dumped solution (report.solution_to_dict) on a scenario's grid; the row
# counts and lengths that the grid fixes are checked as it is built
SOLUTION_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["steps", "dt", "y", "z", "r_plus", "r_minus"],
    "properties": {
        "steps": SCENARIO_SCHEMA["properties"]["steps"],
        "dt": SCENARIO_SCHEMA["properties"]["dt"],
        "y": {"type": "object", "required": ["at", "after"], "properties": {"at": _ROWS, "after": _ROWS}},
        "z": _ROWS,
        "r_plus": _INCREMENTS,
        "r_minus": _INCREMENTS,
    },
}

_BARRIER_SCHEMAS: dict[str, dict[str, Any]] = {
    "constant": {"type": "object", "required": ["kind", "value"],
                 "properties": {"kind": {}, "value": _NUM}, "additionalProperties": False},
    "affine": {"type": "object", "required": ["kind", "intercept", "slope"],
               "properties": {"kind": {}, "intercept": _NUM, "slope": _NUM, "time_coef": _NUM},
               "additionalProperties": False},
    "table": {"type": "object", "required": ["kind", "at", "after"],
              "properties": {"kind": {}, "at": _ROWS, "after": _ROWS},
              "additionalProperties": False},
}

_TERMINAL_SCHEMAS: dict[str, dict[str, Any]] = {
    "constant": _BARRIER_SCHEMAS["constant"],
    "affine": {"type": "object", "required": ["kind", "intercept", "slope"],
               "properties": {"kind": {}, "intercept": _NUM, "slope": _NUM},
               "additionalProperties": False},
    "table": {"type": "object", "required": ["kind", "values"],
              "properties": {"kind": {}, "values": {"type": "array", "items": _NUM}},
              "additionalProperties": False},
}

_DRIVER_SCHEMAS: dict[str, dict[str, Any]] = {
    "constant": {"type": "object", "required": ["kind", "value"],
                 "properties": {"kind": {}, "value": _NUM}, "additionalProperties": False},
    "linear": {"type": "object", "required": ["kind"],
               "properties": {"kind": {}, "const": _NUM, "y_coef": _NUM, "z_coef": _NUM},
               "additionalProperties": False},
    "truncated": {"type": "object", "required": ["kind", "bound"],
                  "properties": {"kind": {}, "const": _NUM, "y_coef": _NUM, "z_coef": _NUM,
                                 "bound": {"type": "number", "exclusiveMinimum": 0}},
                  "additionalProperties": False},
    "polynomial": {"type": "object", "required": ["kind", "terms", "lambda_z", "mu"],
                   "properties": {"kind": {},
                                  "terms": {"type": "array",
                                            "items": {"type": "array", "minItems": 3, "maxItems": 3,
                                                      "prefixItems": [{"type": "integer", "minimum": 0},
                                                                      {"type": "integer", "minimum": 0},
                                                                      _NUM]}},
                                  "lambda_z": {"type": "number", "minimum": 0},
                                  "mu": _NUM,
                                  "z_growth": {"type": "object",
                                               "required": ["gamma", "eta", "g_bound"],
                                               "properties": {"gamma": {"type": "number", "minimum": 0},
                                                              "eta": {"type": "number", "minimum": 0,
                                                                      "exclusiveMaximum": 1},
                                                              "g_bound": {"type": "number", "minimum": 0}},
                                               "additionalProperties": False}},
                   "additionalProperties": False},
}


class ScenarioError(ValueError):
    """Scenario file rejected; the message carries a JSON-pointer path."""


def _pointer(base: str, path: Any) -> str:
    parts = [str(p) for p in path]
    return base + ("/" + "/".join(parts) if parts else "")


# a refusal quotes at most this many characters of the refused value
_QUOTE_MAX = 80


def _capped(pieces: Iterable[str]) -> str:
    """The text of ``pieces``, or when it is longer than :data:`_QUOTE_MAX`
    its head and ``...`` in that many characters.  The pieces past the cap
    are never made, so quoting a big refused table costs its first items."""
    text = ""
    for piece in pieces:
        text += piece
        if len(text) > _QUOTE_MAX:
            return text[:_QUOTE_MAX - 3] + "..."
    return text


def _repr_pieces(value: Any) -> Iterator[str]:
    """``repr(value)`` in pieces for :func:`_capped`: a list or dict item by
    item, and a string past the cap by its head, quoted as the whole is."""
    if isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_pieces(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield ", " if i else ""
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    elif isinstance(value, int) and value.bit_length() > 4 * _QUOTE_MAX:
        # more than the cap of leading digits, by an integer division: str
        # refuses an integer past 4,300 digits, and never sees the whole one
        drop = int((value.bit_length() - 1) * math.log10(2)) - _QUOTE_MAX - 1
        yield ("-" if value < 0 else "") + str(abs(value) // 10 ** drop)
    elif isinstance(value, str) and len(value) > _QUOTE_MAX:
        # repr picks its quotes by the whole string; one more character
        # past the cap makes the head's repr pick the same
        yield repr(value[:_QUOTE_MAX] + ("'" if "'" in value and '"' not in value else '"'))
    else:
        yield repr(value)


def _quote(value: Any) -> str:
    """``repr(value)``, capped as :func:`_capped` caps it."""
    return _capped(_repr_pieces(value))


def _is_number(value: Any) -> bool:
    # bool is an int but not a JSON number; the exact-type test is the fast path
    return type(value) in (float, int) or not isinstance(value, bool) and isinstance(value, numbers.Number)


# the JSON Schema types the schemas use; an integral float such as 3.0 is an
# integer, and a 1-d numpy array (a row of a solution_to_dict dump) is an array
_TYPES: dict[str, Callable[[Any], bool]] = {
    "array": lambda v: isinstance(v, list) or isinstance(v, np.ndarray) and v.ndim == 1,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": _is_number,
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

_BOUNDS: dict[str, tuple[Callable[[Any, Any], bool], str]] = {
    "minimum": (operator.lt, "less than the minimum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _schema_errors(value: Any, schema: dict[str, Any], path: tuple, out: list) -> None:
    """Append ``(path, message)`` for each way ``value`` breaks ``schema``, with
    the semantics, messages and order of jsonschema's ``Draft202012Validator``."""
    for word, arg in schema.items():
        if word == "type":
            if not _TYPES[arg](value):
                out.append((path, f"{_quote(value)} is not of type {arg!r}"))
        elif word == "const" and not (value == arg and isinstance(value, bool) == isinstance(arg, bool)):
            out.append((path, f"{arg!r} was expected"))
        elif word in _BOUNDS and _is_number(value) and _BOUNDS[word][0](value, arg):
            out.append((path, f"{_quote(value)} is {_BOUNDS[word][1]} {arg!r}"))
        elif word == "required" and isinstance(value, dict):
            out.extend((path, f"{key!r} is a required property") for key in arg if key not in value)
        elif word == "properties" and isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    _schema_errors(value[key], sub, path + (key,), out)
        elif word == "additionalProperties" and arg is False and isinstance(value, dict):
            extras = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
            if extras:
                listed = _capped(piece for i, key in enumerate(extras)
                                 for piece in (", " if i else "", *_repr_pieces(key)))
                out.append((path, f"Additional properties are not allowed "
                                  f"({listed} {'was' if len(extras) == 1 else 'were'} unexpected)"))
        elif word == "prefixItems" and isinstance(value, list):
            for i, (item, sub) in enumerate(zip(value, arg)):
                _schema_errors(item, sub, path + (i,), out)
        elif word == "items" and _TYPES["array"](value):
            start = len(schema.get("prefixItems", ()))
            # a table row of plain numbers meets _NUM with no call per item and no copy
            if arg is _NUM and not start and (value.dtype.kind in "iuf" if isinstance(value, np.ndarray)
                                              else set(map(type, value)) <= {float, int}):
                continue
            for i in range(start, len(value)):
                _schema_errors(value[i], arg, path + (i,), out)
        elif word == "minItems" and isinstance(value, list) and len(value) < arg:
            out.append((path, f"{_quote(value)} {'should be non-empty' if arg == 1 else 'is too short'}"))
        elif word == "maxItems" and isinstance(value, list) and len(value) > arg:
            out.append((path, f"{_quote(value)} {'is expected to be empty' if arg == 0 else 'is too long'}"))


def _validate(instance: Any, schema: dict[str, Any], base: str) -> None:
    errors: list[tuple[tuple, str]] = []
    _schema_errors(instance, schema, (), errors)
    if errors:
        # the first error after a stable sort by path
        path, message = min(errors, key=lambda e: e[0])
        raise ScenarioError(f"{_pointer(base, path) or '/'}: {message}")


def _check_kind(spec: dict[str, Any], catalog: dict[str, Any], base: str, what: str) -> str:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in catalog:
        names = ", ".join(sorted(catalog))
        raise ScenarioError(f"{base}/kind: unknown {what} {_quote(kind)}; catalog: {names}")
    _validate(spec, catalog[kind], base)
    return kind


def _affine(base: str, make: Callable[[], list[np.ndarray]]) -> list[np.ndarray]:
    """The rows ``make`` computes from an affine spec, refused at ``base``
    when one of them overflows a double; numpy does not warn of it."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = make()
        finite = all(np.isfinite(row).all() for row in rows)
    except OverflowError:  # an integer time_coef times a step, past the largest double
        finite = False
    if not finite:
        raise ScenarioError(f"{base}: an affine value overflows a double")
    return rows


def _barrier_process(tree: TwoPhaseTree, spec: dict[str, Any], base: str) -> OptionalProcess:
    kind = _check_kind(spec, _BARRIER_SCHEMAS, base, "barrier kind")
    if kind == "constant":
        return OptionalProcess.from_constant(tree, spec["value"])
    if kind == "affine":
        a, b, c = spec["intercept"], spec["slope"], spec.get("time_coef", 0.0)
        # the AFTER slot sits on the open interval and keeps the interval's
        # left-endpoint time
        return OptionalProcess.from_slots(tree, _affine(base, lambda: [
            a + b * tree.brownian(q >> 1) + c * (q >> 1) * tree.dt for q in range(2 * tree.n_steps + 1)]))
    try:
        return OptionalProcess(tree, spec["at"], spec["after"])
    except ValueError as exc:  # a row count or length that does not fit the grid
        raise ScenarioError(f"{base}/{exc}") from None


def _terminal_values(tree: TwoPhaseTree, spec: dict[str, Any], base: str) -> np.ndarray:
    kind = _check_kind(spec, _TERMINAL_SCHEMAS, base, "terminal kind")
    if kind == "constant":
        return np.full(tree.n_leaves, float(spec["value"]))
    if kind == "affine":
        return _affine(base, lambda: [spec["intercept"] + spec["slope"] * tree.brownian(tree.n_steps)])[0]
    values = spec["values"]
    if len(values) != tree.n_leaves:
        raise ScenarioError(f"{base}/values: expected {tree.n_leaves} values, got {len(values)}")
    return np.asarray(values, dtype=float)


def _build_driver(spec: dict[str, Any], base: str) -> Driver:
    kind = _check_kind(spec, _DRIVER_SCHEMAS, base, "driver")
    if kind == "constant":
        return constant_driver(spec["value"])
    if kind == "linear":
        return linear_driver(spec.get("const", 0.0), spec.get("y_coef", 0.0), spec.get("z_coef", 0.0))
    if kind == "truncated":
        return truncated_driver(spec.get("const", 0.0), spec.get("y_coef", 0.0),
                                spec.get("z_coef", 0.0), spec["bound"])
    zg = spec.get("z_growth")
    z_growth = (zg["gamma"], zg["eta"], zg["g_bound"]) if zg else None
    terms = [(int(i), int(j), float(c)) for i, j, c in spec["terms"]]
    return polynomial_driver(terms, lambda_z=spec["lambda_z"], mu=spec["mu"], z_growth=z_growth)


@dataclass
class Scenario:
    """A fully materialized experiment input.

    ``data`` is the document :func:`random_scenario` generated, so that it
    can be written out; a loaded scenario keeps no copy of its document,
    which for a deep table is several times the size of its arrays.
    """

    name: str
    tree: TwoPhaseTree
    barriers: Barriers
    driver: Driver
    tolerances: dict[str, float | int] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    data: dict[str, Any] = field(default_factory=dict)


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Materialize a scenario document, validating schema then invariants."""
    _validate(data, SCENARIO_SCHEMA, "")
    # the reader refuses a file's non-finite numbers as it parses; a
    # caller's dict gets the same refusal here
    if not _all_finite(data):
        _refuse_non_finite(data)
    name = data.get("name") or "scenario"
    # the name becomes the report's file name under --out
    if name in (".", "..") or any(c in "/\\" or c < " " or "\x7f" <= c <= "\x9f" for c in name):
        raise ScenarioError(f"/name: {_quote(name)} is not a plain file name (no '/', '\\' or control "
                            "characters, and not '.' or '..')")
    tree = build_tree(int(data["steps"]), float(data["dt"]))
    lower = _barrier_process(tree, data["lower"], "/lower")
    upper = _barrier_process(tree, data["upper"], "/upper")
    terminal = _terminal_values(tree, data["terminal"], "/terminal")
    try:
        barriers = Barriers(lower, upper, terminal)
    except ValueError as exc:
        raise ScenarioError(f"/lower,/upper: {exc}") from None
    driver = _build_driver(data["driver"], "/driver")
    try:
        # the implicit-step guard and the root solvers rely on the declared
        # constants; fixed draws keep loading deterministic
        driver.spot_check()
    except ValueError as exc:
        raise ScenarioError(f"/driver: {exc}") from None
    tolerances = dict(DEFAULT_TOLERANCES)
    tolerances.update(data.get("tolerances", {}))
    tolerances["enum_bound"] = int(tolerances["enum_bound"])
    return Scenario(name=name, tree=tree, barriers=barriers, driver=driver, tolerances=tolerances)


_MAX_DOUBLE = int(sys.float_info.max)


class _NonFinite:
    """Stand-in for a ``NaN`` or ``Infinity`` literal, or a number that
    overflows a double, found after parsing."""

    def __init__(self, literal: str) -> None:
        self.literal = literal


def _int_or_literal(literal: str) -> int | _NonFinite:
    # past 310 characters the integer overflows a double, and int() refuses
    # a long enough string
    if len(literal) > 310:
        return _NonFinite(literal)
    value = int(literal)
    return value if -_MAX_DOUBLE <= value <= _MAX_DOUBLE else _NonFinite(literal)


def _float_or_literal(literal: str) -> float | _NonFinite:
    value = float(literal)  # a number literal overflows to +-inf, never to NaN
    return value if value - value == 0.0 else _NonFinite(literal)


def _all_finite(node: Any) -> bool:
    """Whether a parsed document, or a dump with array rows, holds no
    infinite float, no integer past the largest double and no stand-in."""
    if isinstance(node, np.ndarray):
        node = node.tolist()
    if isinstance(node, dict):
        return all(_all_finite(value) for value in node.values())
    if isinstance(node, list):
        if node and isinstance(node[0], np.ndarray):  # a dump's block of rows
            return all(_all_finite(row) for row in node)
        try:
            # a row of numbers sums at C speed and inf carries through; the
            # float start turns each integer into a double, so one past the
            # largest double raises even where the integers would cancel
            total = sum(node, 0.0)
        except TypeError:  # not a row of numbers
            return all(_all_finite(value) for value in node)
        except OverflowError:
            return False
        return total - total == 0.0
    if isinstance(node, float):
        return node - node == 0.0
    if isinstance(node, int):
        return -_MAX_DOUBLE <= node <= _MAX_DOUBLE
    return not isinstance(node, _NonFinite)


def _non_finite_at(node: Any, path: str = "") -> tuple[str, str] | None:
    """Pointer and capped text of the first non-finite number in a
    document: a stand-in's literal, or the repr of a float or an integer
    that :func:`_all_finite` refuses."""
    if isinstance(node, np.ndarray):
        node = node.tolist()
    if isinstance(node, _NonFinite):
        return path or "/", _capped(node.literal)
    if isinstance(node, (float, int)) and not _all_finite(node):
        return path or "/", _quote(node)
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        hit = _non_finite_at(value, f"{path}/{key}")
        if hit is not None:
            return hit
    return None


def _refuse_non_finite(data: Any) -> None:
    """Raise a ``ScenarioError`` at the first non-finite number of a
    document, if it holds one."""
    hit = _non_finite_at(data)
    if hit is not None:
        raise ScenarioError(f"{hit[0]}: {hit[1]} is not a finite number")


def _read_json(path: Path) -> Any:
    """Parse a UTF-8 JSON file (:func:`_parse_json`); bytes that do not
    decode and nesting past the recursion limit are ``ScenarioError``s."""
    try:
        return _parse_json(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"/: not UTF-8 text: {exc}") from None
    except RecursionError:
        raise ScenarioError("/: arrays and objects nest too deeply to read") from None


def _parse_json(text: str) -> Any:
    """The document of a JSON text, refusing ``NaN`` and ``Infinity``
    literals, and numbers that overflow a double, with their pointer."""
    try:
        # no number hooks: a hook call per number would slow large tables
        # by half, and solution tables are mostly integer zeros
        data = json.loads(text, parse_constant=_NonFinite)
        if _all_finite(data):
            return data
    except json.JSONDecodeError:
        raise
    except ValueError:  # an integer past int()'s digit limit
        pass
    # parse again, keeping the text of each number that overflows.  A row
    # whose sum alone overflowed has no such number, and a literal that a
    # later duplicate key replaced is not in the document; the hooks leave
    # every finite number as the first parse read it.
    data = json.loads(text, parse_constant=_NonFinite, parse_int=_int_or_literal,
                      parse_float=_float_or_literal)
    _refuse_non_finite(data)
    return data


def _check_solution(data: Any) -> None:
    """Refuse a solution document by :data:`SOLUTION_SCHEMA`, then at its
    first non-finite number, with pointers into ``data``."""
    _validate(data, SOLUTION_SCHEMA, "")
    if not _all_finite(data):
        _refuse_non_finite(data)


def load_solution(path: str | Path, tree: TwoPhaseTree | None = None) -> RBSDESolution:
    """The solution dumped at ``path``, alone or as a solve report's
    ``solution``, checked against :data:`SOLUTION_SCHEMA`.  A solution whose
    grid is not ``tree``'s is refused before its rows are read."""
    try:
        data = _read_json(Path(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    base = ""
    if isinstance(data, dict) and "steps" not in data and isinstance(data.get("solution"), dict):
        data, base = data["solution"], "/solution"
    if tree is not None and isinstance(data, dict) and all(_is_number(data.get(k)) for k in ("steps", "dt")):
        steps, dt = data["steps"], float(data["dt"])
        if (steps, dt) != (tree.n_steps, tree.dt):
            raise ScenarioError(f"{path}: solution grid (steps {steps}, dt {dt!r}) does not match "
                                f"the scenario's (steps {tree.n_steps}, dt {tree.dt!r})")
    try:
        return solution_from_dict(data)
    except ValueError as exc:  # a refusal behind a pointer into the solution, whose root is base
        message = str(exc)
        if base and message.startswith("/:"):
            message = message[1:]
        raise ScenarioError(f"{path} is not a solution document: {base}{message}") from None


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        data = _read_json(path)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScenarioError("/: scenario document must be a JSON object")
    scenario = scenario_from_dict(data)
    if not data.get("name"):
        scenario.name = path.stem
    return scenario


def random_scenario(seed: int, *, n_steps: int | None = None, driver_kind: str | None = None,
                    lower_right_usc: bool | None = None, lower_left_usc: bool | None = None,
                    upper_right_lsc: bool | None = None, upper_left_lsc: bool | None = None,
                    touching: bool = False, name: str | None = None) -> Scenario:
    """Draw a valid scenario with controllable barrier regularity.

    Each semicontinuity argument is three-valued: True enforces the flag,
    False plants at least one strict violation, None leaves the raw noise
    as it falls.  ``touching`` collapses the barrier gap to zero at one
    random point (the strict-separation failure witness for the midpoint
    construction); at a grid point it may sink the upper barrier below the
    lower one's interval value, which fails ``value_identity_applicable``.
    Violation planting may disturb a *different* flag on a neighbouring
    slot, so callers should not request contradictory combos.
    """
    rng = np.random.default_rng(seed)
    n = int(n_steps) if n_steps is not None else int(rng.integers(1, 4))
    dt_val = float(rng.uniform(0.1, 1.0))
    tree = build_tree(n, dt_val)

    sigma = rng.uniform(0.2, 0.8)
    base = rng.uniform(-1.0, 0.0)
    trend = rng.uniform(-0.3, 0.3)
    low_at = [base + sigma * tree.brownian(k) + trend * k * dt_val
              + rng.normal(0.0, 0.25, tree.nodes_at(k)) for k in range(n + 1)]
    low_after = [base + sigma * tree.brownian(k) + trend * k * dt_val
                 + rng.normal(0.0, 0.25, tree.nodes_at(k)) for k in range(n)]
    for k in range(n):
        if lower_right_usc:
            low_after[k] = np.minimum(low_after[k], low_at[k])
        if lower_left_usc:
            low_at[k + 1] = np.maximum(low_at[k + 1], np.repeat(low_after[k], 2))
    if lower_right_usc is False:
        k = int(rng.integers(0, n))
        v = int(rng.integers(0, tree.nodes_at(k)))
        low_after[k][v] = low_at[k][v] + rng.uniform(0.3, 0.8)
    if lower_left_usc is False:
        k = int(rng.integers(0, n))
        v = int(rng.integers(0, tree.nodes_at(k)))
        low_at[k + 1][2 * v] = low_after[k][v] - rng.uniform(0.3, 0.8)

    gap_at = [rng.uniform(0.4, 1.2, tree.nodes_at(k)) for k in range(n + 1)]
    gap_after = [rng.uniform(0.4, 1.2, tree.nodes_at(k)) for k in range(n)]
    for k in range(n):
        # keep the upper barrier at a grid time above the lower barrier's
        # interval value just after it; a lower right-limit poking above
        # the current upper value makes stop-tie reads exceed what the
        # minimizer can defend, and the game detaches from the reflected
        # solution (see games.value_identity_applicable)
        gap_at[k] = np.maximum(gap_at[k], low_after[k] - low_at[k] + 0.05)
    for k in range(n):
        if upper_right_lsc:
            need = gap_at[k] + (low_at[k] - low_after[k])
            gap_after[k] = np.maximum(gap_after[k], need + 0.05)
        if upper_left_lsc:
            child_need = gap_at[k + 1] + (low_at[k + 1] - np.repeat(low_after[k], 2))
            need = np.maximum(child_need[0::2], child_need[1::2])
            gap_after[k] = np.maximum(gap_after[k], need + 0.05)
    up_at = [low_at[k] + gap_at[k] for k in range(n + 1)]
    up_after = [low_after[k] + gap_after[k] for k in range(n)]
    if upper_right_lsc is False:
        k = int(rng.integers(0, n))
        v = int(rng.integers(0, tree.nodes_at(k)))
        # raising above the right limit plants the violation; the floor
        # keeps the slot above the lower barrier when its grid-time noise
        # landed far above its interval noise
        up_at[k][v] = max(up_after[k][v] + rng.uniform(0.3, 0.8), low_at[k][v] + 0.05)
    if upper_left_lsc is False:
        k = int(rng.integers(0, n))
        v = int(rng.integers(0, tree.nodes_at(k)))
        # any value above up_after[k][v] violates the left flag; the floors
        # keep the barrier pair valid and the stop-tie reads defendable
        floor = low_at[k + 1][2 * v] + 0.05
        if k + 1 < n:
            floor = max(floor, low_after[k + 1][2 * v] + 0.05)
        up_at[k + 1][2 * v] = max(up_after[k][v] + rng.uniform(0.3, 0.8), floor)
    if touching:
        key = int(rng.integers(0, 2 * n + 1))
        step, ph = key >> 1, key & 1
        v = int(rng.integers(0, tree.nodes_at(step)))
        if ph == 0:
            up_at[step][v] = low_at[step][v]
        else:
            up_after[step][v] = low_after[step][v]

    u = rng.uniform(0.0, 1.0, tree.n_leaves)
    terminal = low_at[n] + u * (up_at[n] - low_at[n])

    kind = driver_kind or str(rng.choice(["constant", "linear", "truncated"]))
    z_cap = 0.9 / math.sqrt(dt_val)
    y_cap = min(0.5, 0.9 / dt_val)
    if kind == "constant":
        driver_spec: dict[str, Any] = {"kind": "constant", "value": float(rng.uniform(-1.0, 1.0))}
    elif kind == "linear":
        driver_spec = {"kind": "linear", "const": float(rng.uniform(-0.5, 0.5)),
                       "y_coef": float(rng.uniform(-1.5, y_cap)),
                       "z_coef": float(rng.uniform(-z_cap, z_cap))}
    elif kind == "truncated":
        driver_spec = {"kind": "truncated", "const": float(rng.uniform(-0.5, 0.5)),
                       "y_coef": float(rng.uniform(-1.5, y_cap)),
                       "z_coef": float(rng.uniform(-z_cap, z_cap)),
                       "bound": float(rng.uniform(0.5, 2.0))}
    elif kind == "cubic":
        driver_spec = {"kind": "polynomial",
                       "terms": [[3, 0, -float(rng.uniform(0.5, 3.0))], [1, 0, -1.0]],
                       "lambda_z": 0.0, "mu": -1.0}
    else:
        raise ValueError(f"unknown driver_kind {kind!r} (constant, linear, truncated, cubic)")

    lower = OptionalProcess(tree, low_at, low_after)
    upper = OptionalProcess(tree, up_at, up_after)
    data = {
        "version": "v1",
        "name": name or f"random-{seed}",
        "steps": n,
        "dt": dt_val,
        "lower": {"kind": "table", **lower.table_rows()},
        "upper": {"kind": "table", **upper.table_rows()},
        "terminal": {"kind": "table", "values": [float(v) for v in terminal]},
        "driver": driver_spec,
        "seed": int(seed),
    }
    scenario = scenario_from_dict(data)
    scenario.data = data
    return scenario
