"""Grid skeleton: tree geometry, phase ordering, process reads, stops."""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    OptionalProcess,
    Phase,
    StoppingTime,
    TransitionIncrements,
    ScenarioError,
    build_tree,
    constant_driver,
    enumerate_stopping_times,
    first_hitting,
    scenario_from_dict,
    semicontinuity,
    solve_rbsde,
)
from rbsde_lab.report import canonical_json, solution_to_dict
from rbsde_lab.scenario import load_solution


def _process(tree, at, after):
    return OptionalProcess(tree, [np.asarray(a, dtype=float) for a in at],
                           [np.asarray(a, dtype=float) for a in after])


# -- tree geometry ----------------------------------------------------------

def test_one_step_tree_geometry():
    tree = build_tree(1, 1.0)
    assert tree.nodes_at(0) + tree.nodes_at(1) == 3
    assert tree.n_leaves == 2
    np.testing.assert_allclose(tree.brownian(1), [1.0, -1.0])
    assert tree.time(tree.n_steps) == 1.0


def test_two_step_tree_walk_values():
    tree = build_tree(2, 0.5)
    assert sum(tree.nodes_at(k) for k in range(3)) == 7
    s = math.sqrt(0.5)
    np.testing.assert_allclose(tree.brownian(2), [2 * s, 0.0, 0.0, -2 * s])


def test_children_average_and_difference_each_row():
    # dt = 0.25 makes 2 sqrt(dt) = 1, so z is the plain up - down difference
    tree = build_tree(2, 0.25)
    nxt = np.array([[1.0, 3.0, 0.5, -0.5],
                    [2.0, 2.0, -1.0, 4.0],
                    [0.0, 0.0, 10.0, 6.0]])
    e, z = tree.children(nxt)
    assert e.tolist() == [[2.0, 0.0], [2.0, 1.5], [0.0, 8.0]]
    assert z.tolist() == [[-2.0, 1.0], [0.0, -5.0], [0.0, 4.0]]
    assert np.array_equal(nxt[:, 0::2] - nxt[:, 1::2], 2.0 * z * tree.sqrt_dt)


def test_zero_step_tree_rejected():
    with pytest.raises(ValueError):
        build_tree(0, 1.0)
    with pytest.raises(ValueError):
        build_tree(2, 0.0)


def test_walk_tables_are_read_only_and_trees_shared_per_grid():
    tree = build_tree(4, 0.25)
    for k in range(5):
        with pytest.raises(ValueError, match="read-only"):
            tree.brownian(k)[0] = 1.0
    # the tree keeps its subtrees: no caller holds this one, yet it lives on
    sub = weakref.ref(tree.subtree(1))
    gc.collect()
    assert sub() is not None and sub() is tree.subtree(1)
    assert tree.subtree(1) is build_tree(3, 0.25)
    assert tree.subtree(2) is not tree.subtree(1)
    assert build_tree(4, 0.25) is tree and build_tree(4, 0.5) is not tree
    # a live tree of the grid does not let an invalid request through
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        build_tree(4.0, 0.25)


@pytest.mark.parametrize("dt, shown", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (0, "0"),
                                       (-0.5, "-0.5"), (10 ** 400, "an integer past the largest double")],
                         ids=["inf", "minus-inf", "nan", "zero", "negative", "int-past-double"])
def test_a_tree_refuses_a_dt_that_is_not_a_positive_finite_double(dt, shown):
    # dt inf once built a tree with sqrt_dt = inf, and 10**400 raised a plain OverflowError
    with pytest.raises(ValueError, match=f"^dt must be a positive finite number, got {shown}$"):
        build_tree(2, dt)


def test_point_order_exhaustive_small_depths():
    # total order AT(k) < AFTER(k) < AT(k+1): the key 2k + phase of each of
    # the 2n + 1 valid points orders them as (time, phase), on every pair
    for n in range(1, 5):
        tree = build_tree(n, 0.3)
        points = [(key >> 1, Phase(key & 1)) for key in range(2 * n + 1)]
        for step, phase in points:
            assert tree.check_point(step, phase) is None
        for i, (k, p) in enumerate(points):
            for j, (m, q) in enumerate(points):
                assert ((tree.time(k), p) < (tree.time(m), q)) == (i < j)
        for step, phase in ((n, Phase.AFTER), (n + 1, Phase.AT), (-1, Phase.AT)):
            with pytest.raises(ValueError):
                tree.check_point(step, phase)


def test_after_horizon_point_does_not_exist():
    tree = build_tree(2, 1.0)
    with pytest.raises(ValueError):
        tree.check_point(2, Phase.AFTER)
    proc = OptionalProcess.from_constant(tree, 0.0)
    with pytest.raises(ValueError):
        proc.value(2, Phase.AFTER, 0)


# -- optional processes -----------------------------------------------------

def test_one_sided_limits_read_the_interval_slot():
    tree = build_tree(1, 1.0)
    proc = _process(tree, [[1.0], [5.0, 6.0]], [[2.0]])
    # the right limit at AT(0) is the slot after it; the left limit at each
    # AT(1) node is its parent's entry of that slot
    assert [a.tolist() for a in proc.slots] == [[1.0], [2.0], [5.0, 6.0]]
    assert [proc.after[0][node >> 1] for node in range(2)] == [2.0, 2.0]
    assert proc.value(0, Phase.AFTER, 0) == 2.0


def test_restrict_matches_direct_subtree_read():
    tree = build_tree(3, 0.25)
    rng = np.random.default_rng(7)
    proc = OptionalProcess(tree, [rng.normal(size=tree.nodes_at(k)) for k in range(4)],
                           [rng.normal(size=tree.nodes_at(k)) for k in range(3)])
    sub = proc.restrict(1, 1)
    assert sub.tree.n_steps == 2
    assert sub.at[0][0] == proc.at[1][1]
    np.testing.assert_array_equal(sub.at[2], proc.at[3][4:8])
    np.testing.assert_array_equal(sub.after[1], proc.after[2][2:4])


@pytest.mark.parametrize("read", [
    # once node 1's value, node 1's subtree and a bare IndexError
    lambda p, node: p.value(1, Phase.AT, node),
    lambda p, node: p.restrict(1, node),
    # once "terminal must have one value per leaf"
    lambda p, node: Barriers(p, p, p.terminal).restrict(1, node),
], ids=["value", "restrict", "barriers-restrict"])
@pytest.mark.parametrize("node", [-1, 2])
def test_a_node_outside_its_step_is_refused(read, node):
    proc = OptionalProcess.from_constant(build_tree(2, 0.5), 1.0)
    with pytest.raises(ValueError, match=rf"^node {node} outside \[0, 1\] at step 1$"):
        read(proc, node)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_a_process_is_its_key_ordered_slots(n, seed):
    tree = build_tree(n, 0.5)
    rng = np.random.default_rng(seed)
    at = [rng.normal(size=tree.nodes_at(k)) for k in range(n + 1)]
    after = [rng.normal(size=tree.nodes_at(k)) for k in range(n)]
    proc = OptionalProcess(tree, at, after)
    assert len(proc.slots) == 2 * n + 1
    for key, arr in enumerate(proc.slots):
        assert arr is (at if key & 1 == 0 else after)[key >> 1]
    # the table form and the key order build the same process, slot for slot
    for other in (OptionalProcess.from_slots(tree, proc.slots), OptionalProcess(tree, proc.at, proc.after)):
        assert len(other.slots) == len(proc.slots)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(other.slots, proc.slots))
    # the views are tuples: a slot cannot be swapped through them
    for view in (proc.at, proc.after):
        assert isinstance(view, tuple)
        with pytest.raises(TypeError):
            view[0] = np.zeros(1)
    incr = TransitionIncrements(tree, at[:n], after)
    assert all(a is b for a, b in zip(incr.slots, [x for pair in zip(at, after) for x in pair]))
    same = TransitionIncrements.from_slots(tree, incr.slots)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(same.slots, incr.slots))
    for view in (incr.phase, incr.step):
        assert isinstance(view, tuple)
        with pytest.raises(TypeError):
            view[0] = np.zeros(1)


def test_both_constructors_name_the_first_bad_row_of_the_table_form():
    tree = build_tree(2, 0.5)
    slots = [np.zeros(tree.nodes_at(q >> 1)) for q in range(5)]
    # AFTER(0) and AT(1) both have the wrong shape: every AT row is checked first
    slots[1], slots[2] = np.zeros(3), np.zeros(3)
    for build in (lambda: OptionalProcess.from_slots(tree, slots),
                  lambda: OptionalProcess(tree, slots[0::2], slots[1::2])):
        with pytest.raises(ValueError, match=r"^at/1: expected 2 values, got 3$"):
            build()
    slots[2] = np.zeros(2)
    with pytest.raises(ValueError, match=r"^after/0: expected 1 values, got 3$"):
        OptionalProcess.from_slots(tree, slots)
    # both row counts are checked before any row: AT(2) is missing, and so is AFTER(1) of the six
    for count, error in ((4, "at: expected 3 rows, got 2"), (6, "after: expected 2 rows, got 3")):
        with pytest.raises(ValueError, match=f"^{error}$"):
            OptionalProcess.from_slots(tree, [np.zeros(7)] * count)


def _stored_solution_refusal(tmp_path, tree, rows):
    """The refusal of a stored solution on ``tree`` whose ``r_minus/step`` rows are ``rows``."""
    barriers = Barriers(OptionalProcess.from_constant(tree, -1.0), OptionalProcess.from_constant(tree, 1.0),
                        np.zeros(tree.n_leaves))
    sol = solve_rbsde(tree, barriers, constant_driver(0.0))
    dump = json.loads(canonical_json(solution_to_dict(sol)))
    dump["r_minus"]["step"] = rows
    path = tmp_path / "solution.json"
    path.write_text(json.dumps({"solution": dump}))
    with pytest.raises(ScenarioError) as info:
        load_solution(path, tree)
    return str(info.value), f"{path} is not a solution document: /solution/r_minus/step"


# each entry point builds its rows through node_rows: the refused block, then the same words
_ENTRY_POINTS = {
    "OptionalProcess": lambda tmp_path, tree, rows: (
        _refusal(lambda: OptionalProcess(tree, [np.zeros(tree.nodes_at(k)) for k in range(3)], rows)), "after"),
    "TransitionIncrements": lambda tmp_path, tree, rows: (
        _refusal(lambda: TransitionIncrements(tree, [np.zeros(tree.nodes_at(k)) for k in range(2)], rows)), "step"),
    "scenario table": lambda tmp_path, tree, rows: (
        _refusal(lambda: scenario_from_dict({
            "version": "v1", "steps": 2, "dt": 0.5,
            "lower": {"kind": "table", "at": [[-1.0] * tree.nodes_at(k) for k in range(3)], "after": rows},
            "upper": {"kind": "constant", "value": 1.0}, "terminal": {"kind": "constant", "value": 0.0},
            "driver": {"kind": "constant", "value": 0.0}})), "/lower/after"),
    "stored solution": _stored_solution_refusal,
}


def _refusal(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("fault, words", [("missing row", ": expected 2 rows, got 1"),
                                          ("short row", "/1: expected 2 values, got 1")])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_entry_point_refuses_rows_off_the_grid_in_the_same_words(tmp_path, entry, fault, words):
    tree = build_tree(2, 0.5)
    rows = [[-1.0], [-1.0, -1.0]]
    rows = rows[:1] if fault == "missing row" else [rows[0], rows[1][:1]]
    error, block = _ENTRY_POINTS[entry](tmp_path, tree, rows)
    assert error == block + words


def test_process_rows_serialization_shape():
    tree = build_tree(2, 1.0)
    proc = OptionalProcess.from_constant(tree, 1.5)
    rows = proc.table_rows()
    # 1 + 2 + 4 AT values plus 1 + 2 AFTER values, one row per slot in step order
    assert [len(r) for r in rows["at"]] == [1, 2, 4]
    assert [len(r) for r in rows["after"]] == [1, 2]
    assert rows["at"][0] == [1.5]
    assert all(type(v) is float for r in rows["at"] + rows["after"] for v in r)


# -- evaluation at stopping systems -----------------------------------------
# a system (tau, H) is its phase-resolved stop: AT keys on H, AFTER keys off H

def test_eval_constant_process_any_system():
    tree = build_tree(2, 1.0)
    proc = OptionalProcess.from_constant(tree, 3.25)
    for phase in Phase:
        rho = StoppingTime.constant(tree, 1, phase)
        np.testing.assert_array_equal(proc.at_keys(rho.keys), np.full(4, 3.25))


def test_eval_on_and_off_membership_reads():
    tree = build_tree(1, 1.0)
    proc = _process(tree, [[1.0], [9.0, 9.0]], [[2.0]])
    on = StoppingTime.constant(tree, 0, Phase.AT)
    off = StoppingTime.constant(tree, 0, Phase.AFTER)
    np.testing.assert_array_equal(proc.at_keys(on.keys), [1.0, 1.0])
    np.testing.assert_array_equal(proc.at_keys(off.keys), [2.0, 2.0])
    # the right limsup and liminf readings coincide on the grid: both are
    # the interval slot
    np.testing.assert_array_equal(proc.at_keys(off.keys), [proc.after[0][0]] * 2)


def test_eval_equals_the_per_leaf_read():
    tree = build_tree(2, 0.5)
    rng = np.random.default_rng(3)
    proc = OptionalProcess(tree, [rng.normal(size=tree.nodes_at(k)) for k in range(3)],
                           [rng.normal(size=tree.nodes_at(k)) for k in range(2)])
    steps, phases = enumerate_stopping_times(tree, phase_resolved=True)
    for row in range(steps.shape[0]):
        tau = StoppingTime.from_realized(tree, steps[row], phases[row])
        direct = np.array([proc.value(int(tau.steps[lf]), Phase(int(tau.phases[lf])),
                                      int(tau.stop_nodes()[lf])) for lf in range(4)])
        np.testing.assert_array_equal(proc.at_keys(tau.keys), direct)


# -- first hitting ----------------------------------------------------------

def test_hitting_everywhere_condition_stops_at_theta():
    tree = build_tree(2, 1.0)
    cond = OptionalProcess.from_constant(tree, 1.0)
    stop = first_hitting(cond)
    assert np.all(cond.at_keys(stop.keys) != 0)
    assert np.all(stop.keys == 0)


def test_hitting_never_capped_at_horizon():
    tree = build_tree(2, 1.0)
    cond = OptionalProcess.from_constant(tree, 0.0)
    stop = first_hitting(cond)
    assert not np.any(cond.at_keys(stop.keys) != 0)
    assert np.all(stop.steps == 2) and np.all(stop.phases == 0)


def test_hitting_one_sided_interval_slot():
    # condition holds only on the open interval entered from the up node:
    # paths through it stop at AFTER(1); the rest run capped to the horizon
    # (step 0 has a single shared node, so the branch split needs step 1)
    tree = build_tree(2, 1.0)
    cond = _process(tree, [[0.0], [0.0, 0.0], [0.0] * 4], [[0.0], [1.0, 0.0]])
    stop = first_hitting(cond)
    hit = cond.at_keys(stop.keys) != 0
    assert np.all(stop.steps[:2] == 1) and np.all(stop.phases[:2] == 1)
    assert hit[:2].all()
    assert np.all(stop.steps[2:] == 2) and np.all(stop.phases[2:] == 0)
    assert not hit[2:].any()


def test_hitting_respects_theta_floor():
    tree = build_tree(2, 1.0)
    cond = OptionalProcess.from_constant(tree, 1.0)
    theta = StoppingTime.constant(tree, 1, Phase.AFTER)
    assert np.all(first_hitting(cond, theta).keys == 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.integers(1, 3))
def test_hitting_monotone_in_condition(bits_a, bits_extra, n):
    """Enlarging the condition set never delays the hit."""
    tree = build_tree(n, 0.5)
    n_slots = 2 * n + 1

    def mk(bits):
        at = [np.zeros(tree.nodes_at(k)) for k in range(n + 1)]
        after = [np.zeros(tree.nodes_at(k)) for k in range(n)]
        proc = OptionalProcess(tree, at, after)
        i = 0
        for key in range(n_slots):
            arr = proc.slots[key]
            for node in range(arr.size):
                if bits >> (i % 12) & 1:
                    arr[node] = 1.0
                i += 1
        return proc

    small = mk(bits_a)
    big = OptionalProcess.combine(lambda a, b: np.maximum(a, b), small, mk(bits_extra))
    assert np.all(first_hitting(big).keys <= first_hitting(small).keys)


# -- semicontinuity flags ----------------------------------------------------

def test_constant_process_all_flags():
    tree = build_tree(2, 1.0)
    flags = semicontinuity(OptionalProcess.from_constant(tree, 1.0))
    assert flags.right_usc and flags.right_lsc and flags.left_usc and flags.left_lsc


def test_right_jump_up_breaks_right_usc():
    tree = build_tree(1, 1.0)
    flags = semicontinuity(_process(tree, [[0.0], [1.0, 1.0]], [[1.0]]))
    assert not flags.right_usc
    assert flags.right_lsc


def test_left_flags_evaluated_edge_by_edge():
    # interval value 2, both children 1: the value drops across the grid
    # time, so left-USC fails (1 >= 2 is false) while left-LSC holds
    tree = build_tree(1, 1.0)
    flags = semicontinuity(_process(tree, [[2.0], [1.0, 1.0]], [[2.0]]))
    assert not flags.left_usc
    assert flags.left_lsc


# -- stopping time census ----------------------------------------------------

def test_stopping_time_census_plain_and_phase_resolved():
    # S(d) = 1 + S(d-1)^2 -> 2, 5, 26;  U(d) = 2 + U(d-1)^2 -> 3, 11, 123
    for depth, plain, extended in ((1, 2, 3), (2, 5, 11), (3, 26, 123)):
        tree = build_tree(depth, 1.0)
        steps, _ = enumerate_stopping_times(tree, phase_resolved=False)
        assert steps.shape == (plain, tree.n_leaves)
        steps, phases = enumerate_stopping_times(tree, phase_resolved=True)
        assert steps.shape == (extended, tree.n_leaves)
        # every enumerated vector really is a stopping time
        seen = set()
        for row in range(steps.shape[0]):
            tau = StoppingTime.from_realized(tree, steps[row], phases[row])
            seen.add(tau)
        assert len(seen) == extended


def test_non_adapted_stop_rejected():
    tree = build_tree(2, 1.0)
    # leaves 0 and 1 share the step-1 node but claim different stops
    steps = np.array([1, 2, 2, 2])
    phases = np.zeros(4, dtype=np.int64)
    with pytest.raises(ValueError, match="not adapted"):
        StoppingTime.from_realized(tree, steps, phases)


def test_membership_must_cover_horizon_and_atoms():
    tree = build_tree(1, 1.0)
    # off H at the horizon would read AFTER(1), which does not exist
    with pytest.raises(ValueError, match=r"in \[0, 2N\]"):
        StoppingTime(tree, np.array([2, 3]))
    # H split within the stop atom at the root
    with pytest.raises(ValueError, match="not adapted"):
        StoppingTime(tree, np.array([0, 1]))
