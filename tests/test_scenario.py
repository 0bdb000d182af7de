"""Scenario document validation, loading, and randomized generation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    DEFAULT_TOLERANCES,
    ScenarioError,
    SeparationFailure,
    load_scenario,
    mokobodzki_witness,
    random_scenario,
    scenario_from_dict,
    semicontinuity,
    value_identity_applicable,
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
    assert sc.tree.n_steps == 1 and sc.tree.n_nodes == 3
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


def test_table_row_shape_is_checked():
    data = _minimal(lower={"kind": "table", "at": [[0.0]], "after": [[0.0]]})
    with pytest.raises(ScenarioError, match=r"/lower/at: expected 2 rows, got 1"):
        scenario_from_dict(data)


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


def test_declared_driver_constants_are_spot_checked():
    lying = {"kind": "polynomial", "terms": [[1, 0, 3.0], [0, 1, 10.0]], "lambda_z": 0, "mu": -1}
    with pytest.raises(ScenarioError, match=r"^/driver: .*violates declared lipschitz_z"):
        scenario_from_dict(_minimal(driver=lying))
    honest = dict(lying, lambda_z=10.0, mu=3.0)
    assert scenario_from_dict(_minimal(dt=0.25, driver=honest)).driver.mu == 3.0


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
