"""Scenario document validation, loading, and randomized generation."""

from __future__ import annotations

import json
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from rbsde_lab import (
    DEFAULT_TOLERANCES,
    Driver,
    ScenarioError,
    SeparationFailure,
    load_scenario,
    mokobodzki_witness,
    random_scenario,
    scenario_from_dict,
    semicontinuity,
    value_identity_applicable,
)
from rbsde_lab.expectation import _spot_check_draws
from rbsde_lab.scenario import (
    _BARRIER_SCHEMAS,
    _DRIVER_SCHEMAS,
    _TERMINAL_SCHEMAS,
    SCENARIO_SCHEMA,
    _quote,
    _read_json,
    _validate,
)


def _minimal(**overrides):
    data = {
        "version": "v1",
        "steps": 1,
        "dt": 1.0,
        "lower": {"kind": "constant", "value": -1.0},
        "upper": {"kind": "constant", "value": 1.0},
        "terminal": {"kind": "constant", "value": 0.0},
        "driver": {"kind": "constant", "value": 0.0},
    }
    data.update(overrides)
    return data


def test_minimal_document_materializes():
    sc = scenario_from_dict(_minimal())
    assert sc.name == "scenario"
    assert sc.tree.n_steps == 1 and sc.tree.n_leaves == 2
    assert sc.tolerances == DEFAULT_TOLERANCES
    assert np.all(sc.barriers.terminal == 0.0)


def test_missing_version_is_a_schema_error():
    with pytest.raises(ScenarioError, match=r"/: 'version' is a required property"):
        scenario_from_dict({"steps": 1})


def test_crossed_barriers_carry_the_location():
    data = _minimal(lower={"kind": "constant", "value": 1.0},
                    upper={"kind": "constant", "value": 0.0},
                    terminal={"kind": "constant", "value": 0.5})
    with pytest.raises(ScenarioError, match=r"/lower,/upper: .*step 0 \(at\), node 0"):
        scenario_from_dict(data)


def test_unknown_driver_kind_names_the_catalog():
    data = _minimal(driver={"kind": "weird"})
    with pytest.raises(ScenarioError,
                       match=r"/driver/kind: unknown driver 'weird'; "
                             r"catalog: constant, linear, polynomial, truncated"):
        scenario_from_dict(data)
    # a kind that cannot be a catalog key is refused the same way
    with pytest.raises(ScenarioError, match=r"^/lower/kind: unknown barrier kind \[\]; catalog: "):
        scenario_from_dict(_minimal(lower={"kind": []}))
    # a long kind is quoted by the head of its repr
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_minimal(driver={"kind": "w" * 100_000}))
    assert str(info.value) == f"/driver/kind: unknown driver '{'w' * 76}...; catalog: constant, linear, polynomial, truncated"


def test_table_row_shape_is_checked():
    data = _minimal(lower={"kind": "table", "at": [[0.0]], "after": [[0.0]]})
    with pytest.raises(ScenarioError, match=r"/lower/at: expected 2 rows, got 1"):
        scenario_from_dict(data)


@pytest.mark.parametrize("field, value, words", [
    ("steps", 10 ** 5000, "is greater than the maximum of 18"),
    ("dt", -(10 ** 5000 + 7), "is less than or equal to the minimum of 0"),
], ids=["steps", "dt"])
def test_an_integer_too_long_for_str_is_quoted_by_its_head(field, value, words):
    # str refuses an integer past 4,300 digits: the quote once raised that ValueError
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_minimal(**{field: value}))
    sign = "-" if value < 0 else ""
    assert str(info.value) == f"/{field}: {sign}1{'0' * (76 - len(sign))}... {words}"


@pytest.mark.parametrize("value", [10 ** 96 + 12345, -(7 ** 200), 3 ** 4000, 2 ** 321 - 1],
                         ids=["97-digits", "negative", "1909-digits", "past-the-threshold"])
def test_a_long_integer_is_quoted_as_its_capped_repr(value):
    assert _quote(value) == repr(value)[:77] + "..."


def test_unknown_tolerance_key_rejected():
    with pytest.raises(ScenarioError, match=r"/tolerances"):
        scenario_from_dict(_minimal(tolerances={"tol_fancy": 1.0}))


def test_tolerance_overrides_merge_over_defaults():
    sc = scenario_from_dict(_minimal(tolerances={"tol_game": 1e-6, "enum_bound": 2}))
    assert sc.tolerances["tol_game"] == 1e-6
    assert sc.tolerances["enum_bound"] == 2
    assert isinstance(sc.tolerances["enum_bound"], int)
    assert sc.tolerances["tol_root"] == DEFAULT_TOLERANCES["tol_root"]


def test_affine_barriers_follow_the_walk():
    data = _minimal(lower={"kind": "affine", "intercept": -2.0, "slope": 0.5},
                    terminal={"kind": "affine", "intercept": 0.0, "slope": 0.1})
    sc = scenario_from_dict(data)
    assert sc.barriers.lower.at[1][0] == -2.0 + 0.5 * 1.0  # up move, dt = 1
    assert sc.barriers.lower.at[1][1] == -2.0 - 0.5 * 1.0
    assert sc.barriers.terminal[0] == pytest.approx(0.1)


def test_load_uses_stem_only_when_unnamed(tmp_path):
    p = tmp_path / "band.json"
    p.write_text(json.dumps(_minimal()))
    assert load_scenario(p).name == "band"
    p.write_text(json.dumps(_minimal(name="custom")))
    assert load_scenario(p).name == "custom"


def test_not_json_is_a_scenario_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(p)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_refused_with_pointer(tmp_path, literal):
    p = tmp_path / "bad.json"
    text = json.dumps(_minimal(lower={"kind": "affine", "intercept": -1.0, "slope": 0.5}))
    p.write_text(text.replace('"slope": 0.5', f'"slope": {literal}'))
    with pytest.raises(ScenarioError, match=f"^/lower/slope: {literal} is not a finite number$"):
        load_scenario(p)


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "0.5e309",
                                     pytest.param("1" + "0" * 400, id="integer-of-401-digits"),
                                     pytest.param("9" * 5000, id="integer-of-5000-digits"),
                                     pytest.param("9" * 100_000, id="integer-of-100000-digits")])
def test_numbers_that_overflow_a_double_are_refused_with_pointer(tmp_path, literal):
    p = tmp_path / "big.json"
    p.write_text(json.dumps(_minimal()).replace('"value": 1.0}', f'"value": {literal}}}'))
    # a literal past 80 characters is quoted by its first 77 and "..."
    quoted = literal if len(literal) <= 80 else literal[:77] + "..."
    with pytest.raises(ScenarioError) as info:
        load_scenario(p)
    assert str(info.value) == f"/upper/value: {quoted} is not a finite number"
    p.write_text(json.dumps(_minimal()).replace('"value": 1.0}', '"value": 1.7976931348623157e308}'))
    assert load_scenario(p).barriers.upper.at[0][0] == 1.7976931348623157e308


_TABLE = {"kind": "table", "at": [[-1.0], [-1.0, -1.0]], "after": [[-1.0]]}
_QUOTED_BIG = "1" + "0" * 76 + "..."  # 10**400, by its first 77 characters


@pytest.mark.parametrize("overrides, pointer, quoted", [
    ({"dt": 10 ** 400}, "/dt", _QUOTED_BIG),
    ({"dt": float("nan")}, "/dt", "nan"),
    ({"upper": {"kind": "constant", "value": 10 ** 400}}, "/upper/value", _QUOTED_BIG),
    ({"lower": {**_TABLE, "at": [[-1.0], [-1.0, 10 ** 400]]}}, "/lower/at/1/1", _QUOTED_BIG),
    ({"lower": {**_TABLE, "after": [[float("nan")]]}}, "/lower/after/0/0", "nan"),
    ({"lower": {**_TABLE, "at": [[float("inf")], [-1.0, -1.0]]}}, "/lower/at/0/0", "inf"),
    ({"lower": {**_TABLE, "at": [[-1.0], [float("-inf"), -1.0]]}}, "/lower/at/1/0", "-inf"),
    ({"terminal": {"kind": "table", "values": [0.0, float("nan")]}}, "/terminal/values/1", "nan"),
    ({"terminal": {"kind": "table", "values": [float("inf"), 0.0]}}, "/terminal/values/0", "inf"),
    ({"terminal": {"kind": "constant", "value": float("-inf")}}, "/terminal/value", "-inf"),
], ids=["dt-big", "dt-nan", "constant-big", "table-big", "table-nan", "table-inf", "table-minus-inf",
        "terminal-nan", "terminal-inf", "terminal-minus-inf"])
def test_a_non_finite_number_in_a_dict_is_refused_at_its_pointer(tmp_path, overrides, pointer, quoted):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(_minimal(**overrides))
    assert str(info.value) == f"{pointer}: {quoted} is not a finite number"
    # the reader refuses the same document's file at the same pointer, quoting its literal
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(_minimal(**overrides)))
    with pytest.raises(ScenarioError, match=f"^{pointer}: .* is not a finite number$"):
        load_scenario(p)


def _solution_dump():
    """A depth-2 solve, dumped and read back as a file's document is."""
    from rbsde_lab import solve_rbsde
    from rbsde_lab.report import canonical_json, solution_to_dict

    sc = random_scenario(3, n_steps=2, driver_kind="linear")
    return json.loads(canonical_json(solution_to_dict(solve_rbsde(sc.tree, sc.barriers, sc.driver))))


def _edit_y(value):
    def edit(doc):
        doc["y"]["at"][1][0] = value
    return edit


@pytest.mark.parametrize("edit, error", [
    # a NaN in a row once loaded silently
    (_edit_y(float("nan")), "/y/at/1/0: nan is not a finite number"),
    (_edit_y(float("-inf")), "/y/at/1/0: -inf is not a finite number"),
    # a dt past the largest double once raised a plain OverflowError
    (lambda doc: doc.update(dt=10 ** 400), f"/dt: {_QUOTED_BIG} is not a finite number"),
    # an infinite dt once loaded, leaking RuntimeWarnings from the tree's walk
    (lambda doc: doc.update(dt=float("inf")), "/dt: inf is not a finite number"),
    # steps 2.9 once built a depth-2 tree
    (lambda doc: doc.update(steps=2.9), "/steps: 2.9 is not of type 'integer'"),
    (lambda doc: doc.pop("z"), "/: 'z' is a required property"),
    (_edit_y(None), "/y/at/1/0: None is not of type 'number'"),
], ids=["nan", "minus-inf", "dt-big", "dt-inf", "steps-fraction", "no-z", "null"])
def test_a_solution_dict_is_refused_at_its_pointer_in_the_reader_words(tmp_path, edit, error):
    from rbsde_lab.report import solution_from_dict
    from rbsde_lab.scenario import load_solution

    doc = _solution_dump()
    edit(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError) as info:
            solution_from_dict(doc)
    assert str(info.value) == error
    # a file refused behind the same pointer, bare or as a solve report's solution
    for wrapped, base in ((doc, ""), ({"solution": doc}, "/solution")):
        p = tmp_path / "solution.json"
        p.write_text(json.dumps(wrapped, allow_nan=True).replace("Infinity", "1e400"))
        with pytest.raises(ScenarioError) as info:
            load_solution(p)
        pointer = error.split(": ", 1)[0]
        pointer = base + pointer if pointer != "/" else base or "/"
        # a non-finite number is refused as the file is parsed, quoting its literal
        assert str(info.value).startswith((f"{p} is not a solution document: {pointer}: ", f"{p}: {pointer}: "))


def test_a_dump_with_array_rows_is_read_and_refused_as_its_json_is():
    from rbsde_lab import solve_rbsde
    from rbsde_lab.report import solution_from_dict, solution_to_dict

    sc = random_scenario(3, n_steps=2, driver_kind="linear")
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    back = solution_from_dict(solution_to_dict(sol))
    assert all(np.array_equal(a, b) for a, b in zip(back.y.slots, sol.y.slots))
    for row, error in ((np.float32([0.5, np.nan]), "/y/at/1/1: nan is not a finite number"),
                       (np.array([0.5, None]), "/y/at/1/1: None is not of type 'number'"),
                       (np.zeros((2, 1)), "/y/at/1: array([[0.],\n       [0.]]) is not of type 'array'")):
        doc = solution_to_dict(sol)
        doc["y"]["at"][1] = row
        with pytest.raises(ScenarioError) as info:
            solution_from_dict(doc)
        assert str(info.value) == error


def test_rows_that_only_sum_past_the_largest_double_are_read(tmp_path):
    p = tmp_path / "rows.json"
    big_int = "1" + "0" * 308
    p.write_text(f'{{"floats": [1e308, 1e308], "mixed": [{big_int}, {big_int}, 1.0]}}')
    assert _read_json(p) == {"floats": [1e308, 1e308], "mixed": [10**308, 10**308, 1.0]}


def test_declared_driver_constants_are_spot_checked():
    lying = {"kind": "polynomial", "terms": [[1, 0, 3.0], [0, 1, 10.0]], "lambda_z": 0, "mu": -1}
    with pytest.raises(ScenarioError, match=r"^/driver: .*violates declared lipschitz_z"):
        scenario_from_dict(_minimal(driver=lying))
    honest = dict(lying, lambda_z=10.0, mu=3.0)
    assert scenario_from_dict(_minimal(dt=0.25, driver=honest)).driver.mu == 3.0


def test_a_driver_with_large_constants_loads():
    # its f values are near 1e7, so their rounding alone is above an
    # absolute 1e-9
    for driver in ({"kind": "linear", "const": 1e7, "y_coef": -1.0}, {"kind": "linear", "const": 1e7, "z_coef": 0.5}):
        assert scenario_from_dict(_minimal(driver=driver)).driver.spot_check()["lipschitz_z"] <= 1e-9


def test_spot_check_draws_are_made_once_and_served_in_order():
    rng = random.Random(0)
    want = [rng.random() for _ in range(1280)]
    draws = _spot_check_draws()
    assert draws.tolist() == want and not draws.flags.writeable
    assert _spot_check_draws() is draws
    # every spot-check calls its driver on the same points, in the order the
    # seeded stream gave them: 256 times t, then 256 each of y, y2, z and z2
    # scaled to [-5, 5]
    calls = []

    def probe(t, y, z):
        calls.append([np.asarray(v).tolist() for v in (t, y, z)])
        return np.zeros_like(y)

    driver = Driver(fn=probe, lambda_z=0.0, mu=0.0, z_growth=(0.0, 0.0, 0.0))
    driver.spot_check()
    driver.spot_check()
    t = want[:256]
    y, y2, z, z2 = ([-5.0 + 10.0 * u for u in want[256 * i:256 * (i + 1)]] for i in range(1, 5))
    points = [[t, y, z], [t, y2, z], [t, y, z2], [t, y, [0.0] * 256]]
    assert calls == points + points


@pytest.mark.parametrize("power", [40000, 1e300])
def test_driver_that_overflows_fails_the_spot_check(power):
    overflow = {"kind": "polynomial", "terms": [[power, 0, 1.0]], "lambda_z": 0, "mu": 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ScenarioError, match="^/driver: driver 'polynomial' is not finite"):
            scenario_from_dict(_minimal(driver=overflow))
    assert not caught


# -- randomized generation ----------------------------------------------------

def test_generated_document_replays_exactly():
    sc = random_scenario(99, n_steps=2, driver_kind="linear")
    replay = scenario_from_dict(sc.data)
    assert replay.tree.n_steps == sc.tree.n_steps and replay.tree.dt == sc.tree.dt
    assert replay.barriers.lower.sup_abs_diff(sc.barriers.lower) == 0.0
    assert replay.barriers.upper.sup_abs_diff(sc.barriers.upper) == 0.0
    assert np.array_equal(replay.barriers.terminal, sc.barriers.terminal)
    for t, y, z in [(0.0, 0.3, -0.2), (0.5, -1.1, 0.8)]:
        assert replay.driver(t, y, z) == sc.driver(t, y, z)


def test_planted_right_flags_are_honored():
    for seed in range(8):
        sc = random_scenario(seed, lower_right_usc=True, upper_right_lsc=True)
        assert semicontinuity(sc.barriers.lower).right_usc
        assert semicontinuity(sc.barriers.upper).right_lsc


def test_planted_right_violations_are_honored():
    for seed in range(8):
        assert not semicontinuity(
            random_scenario(seed, lower_right_usc=False).barriers.lower).right_usc
        assert not semicontinuity(
            random_scenario(seed, upper_right_lsc=False).barriers.upper).right_lsc


def test_planted_left_flags_are_honored():
    for seed in range(8):
        sc = random_scenario(seed, lower_left_usc=True, upper_left_lsc=True)
        assert semicontinuity(sc.barriers.lower).left_usc
        assert semicontinuity(sc.barriers.upper).left_lsc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 3))
def test_generated_scenarios_keep_the_identity_applicable(seed, combo):
    kwargs = [
        {},
        {"lower_right_usc": True, "upper_right_lsc": True},
        {"lower_right_usc": False},
        {"upper_right_lsc": False, "lower_left_usc": True},
    ][combo]
    sc = random_scenario(seed, **kwargs)
    assert value_identity_applicable(sc.barriers)


def test_touching_scenario_fails_strict_separation():
    sc = random_scenario(7, touching=True)
    out = mokobodzki_witness(sc.tree, sc.barriers)
    assert isinstance(out, SeparationFailure)
    assert out.lower == out.upper  # collapsed, not crossed


def test_generated_names_are_stable():
    assert random_scenario(42).name == "random-42"
    assert random_scenario(42, name="x").name == "x"


# -- schema validation against jsonschema -------------------------------------

_BARRIER_SPECS = [
    {"kind": "constant", "value": -1.0},
    {"kind": "affine", "intercept": -2.0, "slope": 0.5, "time_coef": 0.1},
    {"kind": "table", "at": [[-1.0], [-1.5, -0.5]], "after": [[-1.0]]},
]
_TERMINAL_SPECS = [
    {"kind": "constant", "value": 0.0},
    {"kind": "affine", "intercept": 0.0, "slope": 0.1},
    {"kind": "table", "values": [0.1, -0.1]},
]
_DRIVER_SPECS = [
    {"kind": "constant", "value": 0.5},
    {"kind": "linear", "const": 0.1, "y_coef": -0.5, "z_coef": 0.3},
    {"kind": "truncated", "const": 0.1, "y_coef": -0.5, "z_coef": 0.3, "bound": 1.0},
    {"kind": "polynomial", "terms": [[3, 0, -1.0], [1, 0, -1.0]], "lambda_z": 0.0, "mu": -1.0,
     "z_growth": {"gamma": 0.0, "eta": 0.5, "g_bound": 1.0}},
]
# type swaps, boundary and out-of-range values, and containers of the wrong shape
# and values whose repr a refusal cuts at 80 characters
_REPLACEMENTS = [True, False, "x", "v1", None, 0, 0.0, -0.0, 1, 1.0, 3, 3.0, 2.5, -1, -1e-9,
                 1e-300, 18, 18.0, 19, 40, 1e300, [], {}, [1, 0], [[1, 0, 1.0]], [1, 0, 1.0, 2],
                 {"kind": "constant"}, {"kind": "weird"}, "it's " * 30, [0.5] * 40, {"kind": "x" * 90}]
_EXTRA_KEYS = ["name", "seed", "extra", "time_coef", "const", "z_growth", "tol_fancy", "tol_root", "k" * 90]


def _valid_document(lower, upper, terminal, driver, extras):
    doc = _minimal(lower=lower, upper=upper, terminal=terminal, driver=driver)
    if extras:
        doc.update(name="doc", seed=3, tolerances={"tol_game": 1e-7, "enum_bound": 2})
    return doc


def _slots(node, out):
    """Every (container, key) pair of a document, outermost first."""
    for key in (list(node) if isinstance(node, dict) else range(len(node))):
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            _slots(node[key], out)
    return out


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(_valid_document(
        upper={"kind": "constant", "value": 1.0}, lower=draw(st.sampled_from(_BARRIER_SPECS)),
        terminal=draw(st.sampled_from(_TERMINAL_SPECS)), driver=draw(st.sampled_from(_DRIVER_SPECS)),
        extras=draw(st.booleans()))))
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(_slots(doc, [(None, None)])))
        op = draw(st.sampled_from(["drop", "replace", "add"]))
        if node is None:
            continue
        if op == "drop":
            del node[key]
        elif op == "replace":
            node[key] = json.loads(json.dumps(draw(st.sampled_from(_REPLACEMENTS))))
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_EXTRA_KEYS))] = draw(st.sampled_from(_REPLACEMENTS[:12]))
        else:
            node.append(draw(st.sampled_from(_REPLACEMENTS[:12])))
    return doc


def _capped(text):
    """``text`` as a refusal quotes it: past 80 characters, its first 77 and "..."."""
    return text if len(text) <= 80 else text[:77] + "..."


def _jsonschema_verdict(instance, schema, base):
    """jsonschema's first error, with the refused value's repr, or the
    listed extra keys, capped as the hand validator caps them."""
    from rbsde_lab.scenario import _pointer

    errors = sorted(Draft202012Validator(schema).iter_errors(instance),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    error = errors[0]
    extras = re.fullmatch(r"Additional properties are not allowed \((.*) (was|were) unexpected\)", error.message)
    if extras:
        message = f"Additional properties are not allowed ({_capped(extras[1])} {extras[2]} unexpected)"
    else:
        message = error.message.replace(repr(error.instance), _capped(repr(error.instance)), 1)
    return f"{_pointer(base, error.absolute_path) or '/'}: {message}"


def _hand_verdict(instance, schema, base):
    try:
        _validate(instance, schema, base)
    except ScenarioError as exc:
        return str(exc)
    return None


_NON_NUMBERS = [True, False, "x", "", None, [1.0], [], {}]


@st.composite
def _long_row_documents(draw):
    """Table barriers and a table terminal with rows of 2**k plain numbers,
    with non-numbers planted at the start, the middle or the end of rows."""
    n = draw(st.integers(4, 7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def row(size):
        return [rng.choice((rng.uniform(-2.0, 2.0), rng.randint(-3, 3))) for _ in range(size)]

    def table():
        return {"kind": "table", "at": [row(2**k) for k in range(n + 1)],
                "after": [row(2**k) for k in range(n)]}

    doc = _minimal(steps=n, lower=table(), upper=table(),
                   terminal={"kind": "table", "values": row(2**n)})
    rows = ([doc[side]["at"][k] for side in ("lower", "upper") for k in range(n + 1)]
            + [doc[side]["after"][k] for side in ("lower", "upper") for k in range(n)]
            + [doc["terminal"]["values"]])
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(rows))
        where = draw(st.sampled_from([0, len(target) // 2, len(target) - 1]))
        target[where] = draw(st.sampled_from(_NON_NUMBERS))
    return doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(_mutated_documents(), _long_row_documents()))
def test_hand_validator_agrees_with_jsonschema(doc):
    checks = [(doc, SCENARIO_SCHEMA, "")]
    for part, catalog in (("lower", _BARRIER_SCHEMAS), ("upper", _BARRIER_SCHEMAS),
                          ("terminal", _TERMINAL_SCHEMAS), ("driver", _DRIVER_SCHEMAS)):
        spec = doc.get(part)
        if isinstance(spec, dict) and isinstance(spec.get("kind"), str) and spec["kind"] in catalog:
            checks.append((spec, catalog[spec["kind"]], f"/{part}"))
    for instance, schema, base in checks:
        assert _hand_verdict(instance, schema, base) == _jsonschema_verdict(instance, schema, base)


@settings(max_examples=300, deadline=None)
@given(_mutated_documents())
def test_loading_a_fuzzed_document_succeeds_or_raises_scenario_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        load_scenario(path)
    except ScenarioError:
        pass


def test_validator_messages_match_jsonschema_wording():
    cases = [
        (_minimal(steps=0), "/steps: 0 is less than the minimum of 1"),
        (_minimal(dt=0), "/dt: 0 is less than or equal to the minimum of 0"),
        (_minimal(steps=True), "/steps: True is not of type 'integer'"),
        (_minimal(version="v2"), "/version: 'v1' was expected"),
        (_minimal(tolerances={"b": 1, "a": 2}),
         "/tolerances: Additional properties are not allowed ('a', 'b' were unexpected)"),
        (_minimal(driver={"kind": "polynomial", "terms": [[1, 0]], "lambda_z": 0, "mu": 0}),
         "/driver/terms/0: [1, 0] is too short"),
        (_minimal(driver={"kind": "polynomial", "terms": [[1, 0, 1.0]], "lambda_z": 0, "mu": 0,
                          "z_growth": {"gamma": 0, "eta": 1, "g_bound": 0}}),
         "/driver/z_growth/eta: 1 is greater than or equal to the maximum of 1"),
        # a long refused value, or a long list of extra keys, is quoted by its first 77 characters and "..."
        (_minimal(steps=[0.5] * 1000), f"/steps: [{'0.5, ' * 15}0... is not of type 'integer'"),
        (_minimal(tolerances=dict.fromkeys(map(str, range(1000)), 1)),
         "/tolerances: Additional properties are not allowed "
         "('0', '1', '10', '100', '101', '102', '103', '104', '105', '106', '107', '108'... were unexpected)"),
    ]
    for doc, message in cases:
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc)
        assert str(info.value) == message
    assert scenario_from_dict(_minimal(steps=2.0)).tree.n_steps == 2  # 2.0 is an integer


def test_steps_above_the_bound_are_refused_before_any_allocation():
    with pytest.raises(ScenarioError, match=r"^/steps: 40 is greater than the maximum of 18$"):
        scenario_from_dict(_minimal(steps=40))
    assert SCENARIO_SCHEMA["properties"]["steps"]["maximum"] == 18


def test_non_finite_literal_replaced_by_a_duplicate_key_is_not_reported(tmp_path):
    p = tmp_path / "dup.json"
    text = json.dumps(_minimal())
    p.write_text(text.replace('"version": "v1"', '"version": NaN, "version": "v1"'))
    assert load_scenario(p).tree.n_steps == 1
