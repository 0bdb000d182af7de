"""Array paths against the per-leaf loops they replaced.

``mokobodzki_witness`` and ``StoppingTime.from_realized`` once walked every
leaf in Python.  Those loops live on here as reference implementations:
the witness must match bit for bit, ``is_adapted`` must pass a row of keys
exactly where the per-leaf adaptedness loop does, and the stopping-time
builder must raise the same errors.  ``stopping_keys`` must list the rows
of the recursive (steps, phases) generator it replaced, in its order.  So
do the per-key gathers that ``gather_slots`` replaced, and the
stopping-pair list comprehension of brute ``classify_ef``: reads are
bit-identical, pairs come in the same order, and classification gives
equal results.  The two brute-force oracles now run
one backward row per distinct input row; the per-pair paths they replaced
(one row per strategy pair, one row per ordered pair) are kept as
references, and the matrices and classifications must match bit for bit.
Every game check now reads its payoff from one rule of source indices and
solves it in one subgame engine that stacks a step's nodes; the payoff
tensor over restricted barriers and its one-row-per-pair root values are
kept as references for the game oracle, the saddle residuals and the
epsilon pairs.  The report emitters that now render
a row of floats, or a block of the solution table, in one call and escape a
string in one pass are checked byte for byte against the per-element
emitters and ``csv.writer``.  The
truncation ladder, now one backward pass over a stack of rows, is checked
cell for cell against one ``solve_rbsde`` per grid member, and
``implicit_step`` on a stack of rows against each row solved alone.  The
Snell envelopes, now two zero-driver reflected passes, and ``solve_bsde``
and ``ef_backward_batch``, now one unreflected pass that freezes the
driver from per-row stop keys, are checked bit for bit against the three
loops they replaced, which take per-step driver masks.  ``growth_points``
and the stopped reflection mass of the epsilon saddle, now one pass over
the key-ordered increment slots, are checked bit for bit against their
per-step loops over the phase and step increments.  ``polynomial_driver``
now evaluates by sparse Horner; the term-by-term sum it replaced is kept
as a reference, within a few ulps of the terms' magnitudes.
``first_hitting`` returns only its stop; the per-key scan that also
returned a hit flag is kept as a reference, and the condition read at the
stop keys must give that flag.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    ClassifyResult,
    Driver,
    OptionalProcess,
    Phase,
    RootSolveError,
    SeparationFailure,
    StoppingTime,
    TransitionIncrements,
    Witness,
    build_tree,
    classify_ef,
    clipped_driver,
    constant_driver,
    enumerate_stopping_times,
    first_hitting,
    gather_slots,
    growth_points,
    implicit_step,
    linear_driver,
    mokobodzki_witness,
    polynomial_driver,
    random_scenario,
    snell_envelopes,
    solve_bsde,
    solve_rbsde,
    truncated_driver,
    truncation_scheme,
    verify_dynamics,
)
from rbsde_lab import reflect
from rbsde_lab import report as report_module
from rbsde_lab.cli import _HANDLERS, build_parser
from rbsde_lab.expectation import _horner, _odd_cubic, _row_max, _window_pairs, _y_coefficients, ef_backward_batch
from rbsde_lab.games import (
    _freeze_keys,
    _pair_patterns,
    _stopped_mass,
    brute_force_values,
    epsilon_saddle,
    game_equals_rbsde,
    saddle_points,
)
from rbsde_lab.lattice import is_adapted, stopping_keys
from rbsde_lab.report import (
    SOLUTION_ROW_HEADER,
    canonical_json,
    solution_from_dict,
    solution_rows,
    solution_to_dict,
    write_csv_atomic,
    write_json_atomic,
)


def reference_from_realized(tree, steps, phases):
    """Per-leaf flags of realized stops, checked leaf by leaf; returns the
    (flag_at, flag_after) lists with the horizon cap set."""
    steps = np.asarray(steps, dtype=np.int64)
    phases = np.asarray(phases, dtype=np.int64)
    if steps.shape != (tree.n_leaves,) or phases.shape != (tree.n_leaves,):
        raise ValueError("realized stop arrays must have one entry per leaf")
    n = tree.n_steps
    flag_at = [np.zeros(tree.nodes_at(k), dtype=bool) for k in range(n + 1)]
    flag_after = [np.zeros(tree.nodes_at(k), dtype=bool) for k in range(n)]
    for leaf in range(tree.n_leaves):
        k, ph = int(steps[leaf]), int(phases[leaf])
        tree.check_point(k, Phase(ph))
        (flag_at if ph == 0 else flag_after)[k][leaf >> (n - k)] = True
    flag_at[n][:] = True
    for leaf in range(tree.n_leaves):
        first = next(key for key in range(2 * n + 1)
                     if (flag_at, flag_after)[key & 1][key >> 1][leaf >> (n - (key >> 1))])
        if first != 2 * steps[leaf] + phases[leaf]:
            raise ValueError("realized stops are not adapted (not a stopping time)")
    return flag_at, flag_after


def reference_witness(tree, barriers):
    """The per-leaf midpoint construction: (x_at, x_after, per-leaf cut keys)
    or the first point where strict separation fails."""
    low, up = barriers.lower, barriers.upper
    n = tree.n_steps
    for key in range(2 * n + 1):
        step, ph = key >> 1, key & 1
        lv = low.at[step] if ph == 0 else low.after[step]
        uv = up.at[step] if ph == 0 else up.after[step]
        bad = np.nonzero(lv >= uv)[0]
        if bad.size:
            j = int(bad[0])
            return SeparationFailure(step=step, phase=Phase(ph), node=j,
                                     lower=float(lv[j]), upper=float(uv[j]))
    x_at = [np.full(tree.nodes_at(k), np.nan) for k in range(n + 1)]
    x_after = [np.full(tree.nodes_at(k), np.nan) for k in range(n)]
    cut_keys = []
    for leaf in range(tree.n_leaves):
        anchor = math.nan
        cuts = []
        for key in range(2 * n + 1):
            step, ph = key >> 1, key & 1
            node = leaf >> (n - step)
            lv = float((low.at if ph == 0 else low.after)[step][node])
            uv = float((up.at if ph == 0 else up.after)[step][node])
            is_cut = key == 0 or key == 2 * n or anchor < lv or anchor > uv
            if is_cut:
                val = 0.5 * (lv + uv)
                cuts.append(key)
                if step < n:
                    anchor = 0.5 * (float(low.after[step][node]) + float(up.after[step][node]))
            else:
                val = anchor
            (x_at if ph == 0 else x_after)[step][node] = val
        cut_keys.append(cuts)
    return x_at, x_after, cut_keys


def first_flagged_keys(tree, flag_at, flag_after):
    """Per leaf, the first key flagged on the leaf's path, capped at AT(N)."""
    n = tree.n_steps
    return np.array([next((key for key in range(2 * n)
                           if (flag_at, flag_after)[key & 1][key >> 1][leaf >> (n - (key >> 1))]), 2 * n)
                     for leaf in range(tree.n_leaves)])


def _random_flags(tree, rng, density):
    return ([rng.random(tree.nodes_at(k)) < density for k in range(tree.n_steps + 1)],
            [rng.random(tree.nodes_at(k)) < density for k in range(tree.n_steps)])


def _outcome(fn, *args):
    """("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def _assert_witness_matches(tree, barriers):
    got = mokobodzki_witness(tree, barriers)
    ref = reference_witness(tree, barriers)
    if isinstance(ref, SeparationFailure):
        assert got == ref
        return 0
    assert isinstance(got, Witness)
    x_at, x_after, cut_keys = ref
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.x.at, x_at))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.x.after, x_after))
    assert got.cut_keys.shape == (max(len(c) for c in cut_keys), tree.n_leaves)
    for i, row in enumerate(got.cut_keys):
        keys = np.array([c[i] if i < len(c) else 2 * tree.n_steps for c in cut_keys])
        assert np.array_equal(row, keys)
        flags = reference_from_realized(tree, keys >> 1, keys & 1)  # raises unless adapted
        assert np.array_equal(first_flagged_keys(tree, *flags), keys)
    return len(got.cut_keys)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 10), st.booleans(), st.integers(0, 2))
def test_witness_matches_the_per_leaf_loop(seed, depth, touching, regularity):
    kwargs = [{}, {"lower_right_usc": True, "upper_right_lsc": True},
              {"lower_left_usc": True, "upper_left_lsc": True}][regularity]
    sc = random_scenario(seed, n_steps=depth, touching=touching, **kwargs)
    _assert_witness_matches(sc.tree, sc.barriers)


def test_witness_matches_with_forced_reanchors():
    # a band that jumps by more than its width at every grid time forces a
    # re-anchor on every path at every step
    tree = build_tree(6, 0.5)
    low = OptionalProcess.from_callable(tree, lambda step, phase, walk: 3.0 * step + walk - 0.5)
    up = OptionalProcess.from_callable(tree, lambda step, phase, walk: 3.0 * step + walk + 0.5)
    barriers = Barriers(low, up, low.terminal + 0.25)
    assert _assert_witness_matches(tree, barriers) == tree.n_steps + 1
    # and on random scenarios deep enough to re-anchor on some paths only
    counts = [_assert_witness_matches(sc.tree, sc.barriers)
              for sc in (random_scenario(seed, n_steps=8) for seed in range(6))]
    assert max(counts) > 2


def test_witness_keeps_an_anchor_that_lies_on_the_band_edge():
    # the anchor 0.5 from AFTER(0) meets the upper barrier at AT(1) and the
    # lower one at AFTER(1): only a strict exit cuts
    tree = build_tree(2, 1.0)
    low = OptionalProcess(tree, [np.zeros(1), np.full(2, -1.0), np.full(4, -1.0)],
                          [np.zeros(1), np.full(2, 0.5)])
    up = OptionalProcess(tree, [np.ones(1), np.full(2, 0.5), np.ones(4)],
                         [np.ones(1), np.full(2, 2.0)])
    barriers = Barriers(low, up, np.zeros(4))
    assert _assert_witness_matches(tree, barriers) == 2
    assert np.all(mokobodzki_witness(tree, barriers).x.at[1] == 0.5)


def _stop_arrays(tree, rng, kind):
    n, size = tree.n_steps, tree.n_leaves
    if kind == "adapted":
        keys = first_flagged_keys(tree, *_random_flags(tree, rng, 0.3))
        return keys >> 1, keys & 1
    if kind == "valid-points":
        steps = rng.integers(0, n + 1, size)
        phases = np.where(steps < n, rng.integers(0, 2, size), 0)
        return steps, phases
    return rng.integers(-1, n + 2, size), rng.integers(-1, 3, size)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.sampled_from(["adapted", "valid-points", "out-of-range"]))
def test_from_realized_matches_the_per_leaf_loop(seed, depth, kind):
    tree = build_tree(depth, 0.5)
    steps, phases = _stop_arrays(tree, np.random.default_rng(seed), kind)
    ref = _outcome(reference_from_realized, tree, steps, phases)
    got = _outcome(StoppingTime.from_realized, tree, steps, phases)
    if ref[0] == "raised":
        assert got == ref
    else:
        assert got[0] == "ok" and np.array_equal(got[1].keys, first_flagged_keys(tree, *ref[1]))
        assert np.array_equal(got[1].steps, steps) and np.array_equal(got[1].phases, phases)


@pytest.mark.parametrize("steps, phases", [
    ([2, 2, 2, 2], [0, 0, 1, 0]),     # AFTER at the horizon
    ([0, 0, 3, 0], [0, 0, 0, 0]),     # step beyond the horizon
    ([0, -1, 0, 0], [0, 0, 0, 0]),    # negative step
    ([1, 1, 1, 1], [0, 2, 0, 0]),     # no such phase
    ([1, 2, 2, 2], [0, 0, 0, 0]),     # not adapted
    ([1, 1], [0, 0]),                 # wrong length
])
def test_from_realized_raises_what_the_loop_raised(steps, phases):
    tree = build_tree(2, 1.0)
    ref = _outcome(reference_from_realized, tree, np.array(steps), np.array(phases))
    assert ref[0] == "raised"
    assert _outcome(StoppingTime.from_realized, tree, np.array(steps), np.array(phases)) == ref


def _reference_adapted(tree, keys):
    return _outcome(reference_from_realized, tree, keys >> 1, keys & 1)[0] == "ok"


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 6))
def test_row_check_matches_the_per_leaf_loop(seed, depth, n_rows):
    # adapted rows, adapted rows with one leaf moved, and valid points in
    # any order, stacked so a bad row sits among good ones
    rng = np.random.default_rng(seed)
    tree = build_tree(depth, 0.5)
    rows = []
    for kind in rng.integers(0, 3, n_rows):
        keys = first_flagged_keys(tree, *_random_flags(tree, rng, rng.uniform(0.05, 0.6)))
        if kind == 1:
            keys[rng.integers(tree.n_leaves)] = rng.integers(2 * depth + 1)
        elif kind == 2:
            keys = _random_keys(tree, rng, tree.n_leaves)
        rows.append(keys)
    stack = np.stack(rows)
    want = np.array([_reference_adapted(tree, keys) for keys in stack])
    assert np.array_equal(is_adapted(stack), want)
    assert np.array_equal(is_adapted(stack[:, None, :])[:, 0], want)
    assert [bool(is_adapted(keys)) for keys in stack] == want.tolist()


def reference_stop_vectors(n_steps, phase_resolved):
    """Every stopping time of a depth-``n_steps`` tree as stacked per-leaf
    (steps, phases) matrices, built by the recursive list generator."""

    def gen(depth_left):
        step_here = n_steps - depth_left
        width = 1 << depth_left
        if depth_left == 0:
            return [(np.array([step_here], dtype=np.int16), np.array([0], dtype=np.int8))]
        out = [(np.full(width, step_here, dtype=np.int16), np.zeros(width, dtype=np.int8))]
        if phase_resolved:
            out.append((np.full(width, step_here, dtype=np.int16), np.ones(width, dtype=np.int8)))
        children = gen(depth_left - 1)
        for up_s, up_p in children:
            for dn_s, dn_p in children:
                out.append((np.concatenate([up_s, dn_s]), np.concatenate([up_p, dn_p])))
        return out

    combos = gen(n_steps)
    return np.stack([s for s, _ in combos]), np.stack([p for _, p in combos])


@pytest.mark.parametrize("depth, phase_resolved", [(d, False) for d in (1, 2, 3, 4)]
                         + [(d, True) for d in (1, 2, 3)])
def test_stopping_keys_match_the_list_generator_row_for_row(depth, phase_resolved):
    steps, phases = reference_stop_vectors(depth, phase_resolved)
    keys = stopping_keys(depth, phase_resolved)
    assert keys.dtype == np.int64 and not keys.flags.writeable
    assert np.array_equal(keys, 2 * steps.astype(np.int64) + phases)
    got_steps, got_phases = enumerate_stopping_times(build_tree(depth, 0.5), phase_resolved)
    assert np.array_equal(got_steps, steps) and np.array_equal(got_phases, phases)


# -- gathers and the brute-force pair set ------------------------------------

def reference_gather_process(process, keys):
    """Process values at per-leaf phase points, one row per key row."""
    tree = process.tree
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = keys[None, :]
    out = np.empty((keys.shape[0], tree.n_leaves))
    for key in range(2 * tree.n_steps + 1):
        mask = keys == key
        if not mask.any():
            continue
        step, ph = key >> 1, key & 1
        arr = process.at[step] if ph == 0 else process.after[step]
        spread = np.broadcast_to(tree.spread(arr, step), out.shape)
        out[mask] = spread[mask]
    return out


def reference_gather_batch(tree, vals, keys):
    """Batch values ``vals[k]`` (R, 2**k) at per-leaf phase points."""
    rows = vals[0].shape[0]
    keys = np.asarray(keys)
    if keys.ndim == 1:
        keys = np.broadcast_to(keys, (rows, tree.n_leaves))
    out = np.empty((rows, tree.n_leaves))
    for key in range(2 * tree.n_steps + 1):
        mask = keys == key
        if not mask.any():
            continue
        step = key >> 1
        spread = np.repeat(vals[step], tree.leaf_stride(step), axis=1)
        out[mask] = spread[mask]
    return out


def reference_eval_at_system(process, tau, member):
    """The process at the stop on H and at the interval slot off H, per key."""
    keys = np.where(member, tau.keys, tau.keys | 1)
    nodes = tau.stop_nodes()
    out = np.empty(process.tree.n_leaves)
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        sel = keys == key
        out[sel] = (process.after if key & 1 else process.at)[key >> 1][nodes[sel]]
    return out


def reference_first_hitting(condition, theta):
    """Per leaf, the first key at or after ``theta`` where the condition is
    nonzero, capped at AT(N), and whether the condition holds there: the
    per-key scan whose flag ``first_hitting`` once returned."""
    tree = condition.tree
    stop_key = np.full(tree.n_leaves, 2 * tree.n_steps, dtype=np.int64)
    hit = np.zeros(tree.n_leaves, dtype=bool)
    for key in range(2 * tree.n_steps + 1):
        here = ~hit & (theta.keys <= key) & (tree.spread(condition.slots[key], key >> 1) != 0.0)
        stop_key[here] = key
        hit |= here
    return stop_key, hit


def reference_pairs(keys_m, idx):
    """Rows (i, j) of the window ``idx`` with keys_m[i] <= keys_m[j] leafwise."""
    return [(i, j) for i in idx for j in idx if np.all(keys_m[i] <= keys_m[j])]


def reference_classify_brute(process, driver, from_time, to_time, tol):
    """Brute ``classify_ef`` built from the list comprehension and the per-key gathers."""
    tree = process.tree
    steps_m, phases_m = enumerate_stopping_times(tree, phase_resolved=True)
    keys_m = 2 * steps_m.astype(np.int64) + phases_m
    in_window = np.all(keys_m >= from_time.keys, axis=1) & np.all(keys_m <= to_time.keys, axis=1)
    pairs = reference_pairs(keys_m, np.nonzero(in_window)[0])
    if not pairs:
        return ClassifyResult.from_violations(0.0, 0.0, tol, "brute")
    sig_rows = np.array([i for i, _ in pairs])
    tau_rows = np.array([j for _, j in pairs])
    x_at_tau = reference_gather_process(process, keys_m[tau_rows])
    vals = ef_backward_batch(tree, driver, x_at_tau, keys_m[tau_rows])
    diff = (reference_gather_batch(tree, vals, keys_m[sig_rows])
            - reference_gather_process(process, keys_m[sig_rows]))
    return ClassifyResult.from_violations(max(float(np.max(diff, initial=0.0)), 0.0),
                                          max(float(np.max(-diff, initial=0.0)), 0.0), tol, "brute")


def _random_process(tree, rng):
    return OptionalProcess(tree, [rng.normal(size=tree.nodes_at(k)) for k in range(tree.n_steps + 1)],
                           [rng.normal(size=tree.nodes_at(k)) for k in range(tree.n_steps)])


def _random_keys(tree, rng, shape):
    """Valid phase-order keys (no AFTER at the horizon), not necessarily adapted."""
    return rng.integers(0, 2 * tree.n_steps + 1, shape)


def _random_stop(tree, rng):
    return StoppingTime(tree, first_flagged_keys(tree, *_random_flags(tree, rng, 0.4)))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5))
def test_gathers_match_the_per_key_loops(seed, depth, rows):
    rng = np.random.default_rng(seed)
    tree = build_tree(depth, 0.5)
    proc = _random_process(tree, rng)
    vals = [rng.normal(size=(rows, tree.nodes_at(k))) for k in range(depth + 1)]
    for keys in (_random_keys(tree, rng, tree.n_leaves), _random_keys(tree, rng, (rows, tree.n_leaves))):
        assert _same_bits(np.atleast_2d(proc.at_keys(keys)), reference_gather_process(proc, keys))
        assert _same_bits(gather_slots(vals, keys), reference_gather_batch(tree, vals, keys))
    tau = _random_stop(tree, rng)
    first_leaf = tau.stop_nodes() << (depth - tau.steps)
    for member in (np.ones(tree.n_leaves, dtype=bool),
                   (rng.random(tree.n_leaves) < 0.5)[first_leaf] | (tau.steps == depth)):
        system = StoppingTime(tree, np.where(member, tau.keys, tau.keys | 1))
        assert _same_bits(proc.at_keys(system.keys), reference_eval_at_system(proc, tau, member))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(0.0, 1.0))
def test_first_hitting_and_its_hit_read_match_the_per_key_scan(seed, depth, density):
    rng = np.random.default_rng(seed)
    tree = build_tree(depth, 0.5)
    cond = OptionalProcess.from_slots(tree, [(rng.random(tree.nodes_at(q >> 1)) < density).astype(float)
                                             for q in range(2 * depth + 1)])
    theta = _random_stop(tree, rng)
    stop = first_hitting(cond, theta)
    keys, hit = reference_first_hitting(cond, theta)
    assert np.array_equal(stop.keys, keys)
    assert np.array_equal(cond.at_keys(stop.keys) != 0, hit)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pair_order_matches_the_list_comprehension(seed, depth):
    rng = np.random.default_rng(seed)
    steps_m, phases_m = enumerate_stopping_times(build_tree(depth, 0.5), phase_resolved=True)
    keys_m = 2 * steps_m.astype(np.int64) + phases_m
    for idx in (np.flatnonzero(rng.random(len(keys_m)) < rng.random()),
                np.arange(len(keys_m)), np.array([], dtype=np.int64)):
        sig, tau = _window_pairs(depth, idx)
        assert list(zip(idx[sig].tolist(), idx[tau].tolist())) == reference_pairs(keys_m, idx)


def test_brute_classification_matches_the_reference():
    rng = np.random.default_rng(5)
    drivers = [constant_driver(0.3), linear_driver(0.1, -0.5, 0.4), truncated_driver(0.2, 0.3, -0.8, 0.5)]
    for depth in (1, 2, 3):
        tree = build_tree(depth, 0.25)
        for driver in drivers:
            proc = _random_process(tree, rng)
            a, b = _random_stop(tree, rng).keys, _random_stop(tree, rng).keys
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            windows = [(None, None), (StoppingTime.from_realized(tree, lo >> 1, lo & 1),
                                      StoppingTime.from_realized(tree, hi >> 1, hi & 1))]
            for from_time, to_time in windows:
                got = classify_ef(proc, driver, from_time=from_time, to_time=to_time, mode="brute")
                ref = reference_classify_brute(
                    proc, driver, from_time or StoppingTime.constant(tree, 0, Phase.AT),
                    to_time or StoppingTime.constant(tree, depth, Phase.AT), 1e-12)
                assert got == ref


def ordered_pairs(keys):
    """Row indices ``(i, j)`` of every pair with ``keys[i] <= keys[j]`` on
    every leaf, in row-major order: one broadcast comparison."""
    return np.nonzero(np.all(keys[:, None, :] <= keys[None, :, :], axis=2))


def reference_classify_per_pair(process, driver, from_time, to_time, tol):
    """Brute ``classify_ef`` with one backward row per ordered pair."""
    tree = process.tree
    steps_m, phases_m = enumerate_stopping_times(tree, phase_resolved=True)
    keys_m = 2 * steps_m.astype(np.int64) + phases_m
    win = keys_m[np.all(keys_m >= from_time.keys, axis=1) & np.all(keys_m <= to_time.keys, axis=1)]
    sig, tau = ordered_pairs(win)
    if sig.size == 0:
        return ClassifyResult.from_violations(0.0, 0.0, tol, "brute")
    sig_keys, tau_keys = win[sig], win[tau]
    vals = ef_backward_batch(tree, driver, process.at_keys(tau_keys), tau_keys)
    diff = gather_slots(vals, sig_keys) - process.at_keys(sig_keys)
    return ClassifyResult.from_violations(max(float(np.max(diff, initial=0.0)), 0.0),
                                          max(float(np.max(-diff, initial=0.0)), 0.0), tol, "brute")


_DRIVER_KINDS = ["zero", "constant", "linear", "truncated", "cubic"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(_DRIVER_KINDS), st.booleans())
def test_brute_classification_matches_the_per_pair_batch(seed, depth, kind, solved):
    """Exact equality over random windows, on a random process or on the
    reflected solution (whose violations sit at round-off).  A window whose
    ends are out of order is refused before any pair is listed."""
    rng = np.random.default_rng(seed)
    scn = random_scenario(seed, n_steps=depth, driver_kind="linear" if kind == "zero" else kind)
    driver = constant_driver(0.0) if kind == "zero" else scn.driver
    tree = scn.tree
    proc = solve_rbsde(tree, scn.barriers, driver).y if solved else _random_process(tree, rng)
    a, b = _random_stop(tree, rng), _random_stop(tree, rng)
    lo, hi = StoppingTime(tree, np.minimum(a.keys, b.keys)), StoppingTime(tree, np.maximum(a.keys, b.keys))
    start, end = StoppingTime.constant(tree, 0, Phase.AT), StoppingTime.constant(tree, depth, Phase.AT)
    for from_time, to_time in [(start, end), (lo, hi), (lo, lo), (hi, end), (start, lo), (a, b), (b, a)]:
        got = _outcome(lambda: classify_ef(proc, driver, from_time=from_time, to_time=to_time, mode="brute"))
        if from_time.leq(to_time):
            assert got == ("ok", reference_classify_per_pair(proc, driver, from_time, to_time, 1e-12))
        else:
            assert got == ("raised", ValueError, "empty window: from_time exceeds to_time")


# -- brute-force game values: one payoff rule, one subgame engine -------------

def reference_payoff_tensor(sub_barriers, tau_keys, sigma_keys):
    """Payoff J and the freeze step min(tau, sigma) for every strategy pair,
    as values: the payoff rule before it became source indices.

    ``tau_keys`` and ``sigma_keys`` are (S, n_leaves) order keys of the
    points each strategy reads.  Returns (S_tau, S_sigma, n_leaves) arrays.
    """
    n = sub_barriers.tree.n_steps
    low_read = sub_barriers.lower.at_keys(tau_keys)
    up_read = sub_barriers.upper.at_keys(sigma_keys)
    ts = (tau_keys >> 1)[:, None, :]
    ss = (sigma_keys >> 1)[None, :, :]
    j = np.where((ts <= ss) & (ts < n), low_read[:, None, :],
                 np.where(ss < ts, up_read[None, :, :],
                          sub_barriers.terminal[None, None, :]))
    return j, np.minimum(ts, ss)


def reference_root_values(subtree, driver, j, min_steps, step_offset, tol_root):
    """Game expectation at the subgame root for every strategy pair: one
    backward row per pair of the tensor."""
    s_tau, s_sigma, p = j.shape
    term = j.reshape(s_tau * s_sigma, p)
    flat = np.broadcast_to(min_steps, j.shape).reshape(s_tau * s_sigma, p)
    vals = ef_backward_batch(subtree, driver, term, 2 * flat, step_offset=step_offset, tol_root=tol_root)
    return vals[0][:, 0].reshape(s_tau, s_sigma)


def reference_pair_values(tree, barriers, driver, theta_step, theta_node, tau_keys, sigma_keys):
    """Root values of every (tau, sigma) pair in the restricted subgame."""
    subtree = tree.subtree(theta_step)
    j, ms = reference_payoff_tensor(barriers.restrict(theta_step, theta_node), tau_keys, sigma_keys)
    return reference_root_values(subtree, driver, j, ms, theta_step, 1e-12)


def reference_brute_force_values(tree, barriers, driver, mode, theta_step, theta_node):
    """The per-pair path: the payoff tensor over all S**2 strategy pairs and
    one backward row per pair.  Returns (matrix, upper, lower)."""
    keys = stopping_keys(tree.n_steps - theta_step, mode == "extended")
    matrix = reference_pair_values(tree, barriers, driver, theta_step, theta_node, keys, keys)
    return matrix, float(matrix.max(axis=0).min()), float(matrix.min(axis=1).max())


def _touching(barriers, rng, share):
    """The upper barrier pulled down onto the lower one at a random share of
    the points before the horizon."""
    low, up = barriers.lower, barriers.upper
    n = low.tree.n_steps

    def pull(u, l):
        return np.where(rng.random(u.shape) < share, l, u)

    at = [pull(u, l) if k < n else u for k, (u, l) in enumerate(zip(up.at, low.at))]
    after = [pull(u, l) for u, l in zip(up.after, low.after)]
    return Barriers(low, OptionalProcess(low.tree, at, after), barriers.terminal)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(["extended", "plain"]), st.sampled_from(_DRIVER_KINDS[1:]), st.booleans())
def test_brute_force_values_match_the_per_pair_path(seed, depth, theta_step, mode, kind, touching):
    rng = np.random.default_rng(seed)
    scn = random_scenario(seed, n_steps=depth + theta_step, driver_kind=kind, touching=touching)
    barriers = _touching(scn.barriers, rng, 0.3) if touching else scn.barriers
    theta_node = int(rng.integers(scn.tree.nodes_at(theta_step)))
    got = brute_force_values(scn.tree, barriers, scn.driver, mode=mode,
                             theta_step=theta_step, theta_node=theta_node)
    matrix, upper, lower = reference_brute_force_values(scn.tree, barriers, scn.driver, mode,
                                                        theta_step, theta_node)
    assert _same_bits(got.matrix, matrix)
    assert (got.upper, got.lower, got.n_tau, got.n_sigma) == (upper, lower, *matrix.shape)


@pytest.mark.parametrize("phase_resolved, counts", [(True, (5, 29, 845)), (False, (3, 11, 123))])
def test_pair_patterns_read_the_payoff_and_fix_the_freeze_step(phase_resolved, counts):
    for depth, count in zip((1, 2, 3), counts):
        src, inverse, n_strat = _pair_patterns(depth, phase_resolved)
        keys = stopping_keys(depth, phase_resolved)
        assert src.shape == (count, 1 << depth)
        assert n_strat == keys.shape[0] and inverse.shape == (n_strat ** 2,)
        # each row's freeze step, the step of its freeze keys, is min(tau,
        # sigma) of every pair mapped to it
        freeze = _freeze_keys(depth, src) >> 1
        steps = keys >> 1
        pair_min = np.minimum(steps[:, None, :], steps[None, :, :]).reshape(n_strat ** 2, -1)
        assert np.array_equal(freeze[inverse], pair_min)
        # and each row reads the payoff the tensor computes
        barriers = random_scenario(depth, n_steps=depth).barriers
        flat = np.concatenate(barriers.lower.slots + barriers.upper.slots + [barriers.terminal])
        j, ms = reference_payoff_tensor(barriers, keys, keys)
        assert _same_bits(flat[src][inverse], j.reshape(n_strat ** 2, -1))
        assert np.array_equal(ms.reshape(n_strat ** 2, -1), pair_min)


def reference_game_check(tree, barriers, driver, include_plain, enum_bound):
    """The rows of ``game_equals_rbsde`` from a per-node loop over the
    per-pair path: (step, node, y, upper, lower[, plain upper, plain lower])."""
    y = solve_rbsde(tree, barriers, driver).y
    rows = []
    for k in range(max(0, tree.n_steps - enum_bound), tree.n_steps):
        for node in range(tree.nodes_at(k)):
            row = [k, node, y.at[k][node]]
            for mode in ("extended", "plain") if include_plain else ("extended",):
                row += reference_brute_force_values(tree, barriers, driver, mode, k, node)[1:]
            rows.append(row)
    return rows


# a driver that reads the time, so that a subgame solved at the wrong
# time offset shows; it declares no structure, so its steps bisect
_TIMED = Driver(fn=lambda t, y, z: t - 0.5 * y + 0.25 * z, lambda_z=0.25, mu=-0.5, tag="timed")
_GAME_DRIVERS = _DRIVER_KINDS[1:] + ["timed"]


@pytest.mark.parametrize("seed, depth", list(enumerate(range(6, 15))) + [(9, 14)])
def test_dynamics_catch_a_driver_read_one_step_late_on_deep_trees(seed, depth):
    """The dynamics check reads the driver at each step's own time: a solve
    that feeds it t + dt fails it at depths the game oracle cannot reach."""
    scn = random_scenario(900 + seed, n_steps=depth, driver_kind="linear")
    for offset, passed in ((0, True), (1, False)):
        sol = solve_rbsde(scn.tree, scn.barriers, _TIMED, step_offset=offset)
        assert verify_dynamics(sol, scn.barriers, _TIMED, tol=4e-12).passed is passed


def _game_draw(seed, depth, theta_step, kind, touching, regular=False):
    """A scenario of depth ``depth + theta_step``, its barriers (pulled
    together at random points when ``touching``), its driver and a
    step-``theta_step`` node."""
    rng = np.random.default_rng(seed)
    flags = dict.fromkeys(("lower_right_usc", "lower_left_usc", "upper_right_lsc", "upper_left_lsc"),
                          True if regular else None)
    scn = random_scenario(seed, n_steps=depth + theta_step, driver_kind="linear" if kind == "timed" else kind,
                          touching=touching, **flags)
    barriers = _touching(scn.barriers, rng, 0.3) if touching else scn.barriers
    driver = _TIMED if kind == "timed" else scn.driver
    return scn, barriers, driver, int(rng.integers(scn.tree.nodes_at(theta_step)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(_GAME_DRIVERS), st.booleans(), st.booleans())
def test_game_check_matches_the_per_node_loop(seed, depth, theta_step, kind, touching, include_plain):
    """Each step's subgames run as one stack; their values match the
    per-node, per-pair path bit for bit."""
    scn, barriers, driver, _ = _game_draw(seed, depth, theta_step, kind, touching)
    chk = game_equals_rbsde(scn.tree, barriers, driver, include_plain=include_plain, enum_bound=depth)
    got = [[c.step, c.node, c.y, c.extended_upper, c.extended_lower]
           + ([c.plain_upper, c.plain_lower] if include_plain else []) for c in chk.checks]
    want = reference_game_check(scn.tree, barriers, driver, include_plain, depth)
    assert _same_bits(np.array(got, dtype=float), np.array(want, dtype=float))


def reference_shortfall(tree, barriers, driver, theta, y_theta, own, maximiser, phase_resolved):
    """Worst-case shortfall of one committed player over every opponent,
    by the per-pair path."""
    opp = stopping_keys(tree.n_steps - theta[0], phase_resolved)
    pair = (own[None], opp) if maximiser else (opp, own[None])
    vals = reference_pair_values(tree, barriers, driver, *theta, *pair)
    return max(0.0, y_theta - float(vals.min())) if maximiser else max(0.0, float(vals.max()) - y_theta)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2),
       st.sampled_from(_GAME_DRIVERS), st.booleans(), st.booleans(), st.floats(0.0, 0.5))
def test_saddle_residuals_match_the_per_pair_path(seed, depth, theta_step, kind, touching, regular, epsilon):
    scn, barriers, driver, node = _game_draw(seed, depth, theta_step, kind, touching, regular)
    tree, theta = scn.tree, (theta_step, node)
    rep = saddle_points(tree, barriers, driver, theta_step=theta_step, theta_node=node, epsilons=(0.1, 0.05))
    y = rep.y_theta
    stops = [rep.tau_star.keys, rep.sigma_star.keys, rep.tau_bar.keys, rep.sigma_bar.keys]
    players = ("star_{}_up", "star_{}_down", "bar_{}_up", "bar_{}_down")
    got = [rep.residuals[name.format("extended")] for name in players]
    want = [reference_shortfall(tree, barriers, driver, theta, y, own, i % 2 == 0, True)
            for i, own in enumerate(stops)]
    if rep.residuals["star_plain_up"] is not None:
        got += [rep.residuals[name.format("plain")] for name in players]
        want += [reference_shortfall(tree, barriers, driver, theta, y, 2 * (own >> 1), i % 2 == 0, False)
                 for i, own in enumerate(stops)]
    # the epsilon pairs, in the saddle's stack and each on its own: the
    # pair's own value has no depth cap, the residuals sweep every opponent
    alone = [epsilon_saddle(tree, barriers, driver, e, theta_step=theta_step, theta_node=node)
             for e in (0.1, 0.05, epsilon)]
    for es in rep.epsilon_saddles + alone:
        tau, sigma = es.tau.keys, es.sigma.keys
        got += [es.pair_value, es.residual_up, es.residual_down]
        want += [float(reference_pair_values(tree, barriers, driver, *theta, tau[None], sigma[None])[0, 0]),
                 reference_shortfall(tree, barriers, driver, theta, y, tau, True, True),
                 reference_shortfall(tree, barriers, driver, theta, y, sigma, False, True)]
    assert _same_bits(np.array(got), np.array(want))
    if regular and not touching:
        assert rep.residuals["star_plain_up"] is not None  # the plain sweeps ran


# -- report emission: the per-element emitters the row joins replaced ---------

def reference_fmt_float(x):
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, ".17g")


def reference_canonical_json(obj, _indent=""):
    """One call per element, floats through ``reference_fmt_float``."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_fmt_float(float(obj))
    if isinstance(obj, str):
        out = io.StringIO()
        out.write('"')
        for ch in obj:
            if ch in '"\\':
                out.write("\\" + ch)
            elif ch == "\n":
                out.write("\\n")
            elif ch == "\t":
                out.write("\\t")
            elif ord(ch) < 0x20:
                out.write(f"\\u{ord(ch):04x}")
            elif ord(ch) >= 0x80:  # one escape per UTF-16 code unit
                units = ch.encode("utf-16-be", "surrogatepass")
                for i in range(0, len(units), 2):
                    out.write(f"\\u{int.from_bytes(units[i:i + 2], 'big'):04x}")
            else:
                out.write(ch)
        out.write('"')
        return out.getvalue()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        inner = _indent + "  "
        if not obj:
            return "[]"
        items = ",\n".join(inner + reference_canonical_json(v, inner) for v in obj)
        return "[\n" + items + "\n" + _indent + "]"
    if isinstance(obj, dict):
        inner = _indent + "  "
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{reference_canonical_json(str(k))}: {reference_canonical_json(v, inner)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{\n" + items + "\n" + _indent + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def reference_solution_to_dict(solution):
    tree = solution.y.tree
    n = tree.n_steps
    return {
        "steps": n,
        "dt": tree.dt,
        "y": {"at": [[float(v) for v in a] for a in solution.y.at],
              "after": [[float(v) for v in a] for a in solution.y.after]},
        "z": [[float(v) for v in solution.z[k]] for k in range(n)],
        "r_plus": {"phase": [[float(v) for v in solution.r_plus.phase[k]] for k in range(n)],
                   "step": [[float(v) for v in solution.r_plus.step[k]] for k in range(n)]},
        "r_minus": {"phase": [[float(v) for v in solution.r_minus.phase[k]] for k in range(n)],
                    "step": [[float(v) for v in solution.r_minus.step[k]] for k in range(n)]},
    }


def reference_solution_rows(solution):
    """One tuple per transition, built node by node."""
    tree = solution.y.tree
    rows = []
    for k in range(tree.n_steps):
        for node in range(tree.nodes_at(k)):
            bits = format(node, f"0{k}b") if k else ""
            rows.append((k, "phase", bits, float(solution.y.at[k][node]), "",
                         float(solution.r_plus.phase[k][node]),
                         float(solution.r_minus.phase[k][node])))
        for node in range(tree.nodes_at(k)):
            bits = format(node, f"0{k}b") if k else ""
            rows.append((k, "step", bits, float(solution.y.after[k][node]),
                         float(solution.z[k][node]),
                         float(solution.r_plus.step[k][node]),
                         float(solution.r_minus.step[k][node])))
    return rows


def reference_csv(header, rows):
    """``csv.writer`` text, floats formatted one value at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _csv_text(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    write_csv_atomic(path, header, rows)
    return path.read_text()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16,
                   2.0**60, 1e17, 1.7976931348623157e308, 3.0, -7.0, 0.1, 1 / 3, 123456789.0]
_floats = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_scalars = st.one_of(_floats, _floats.map(np.float64), st.booleans(), st.integers(-2**70, 2**70),
                     st.none(), st.text(max_size=3))
_rows = st.one_of(st.lists(_floats, max_size=40), st.lists(_floats, max_size=40).map(tuple),
                  st.lists(_scalars, max_size=12), st.lists(_scalars, max_size=12).map(tuple))
_documents = st.recursive(
    st.one_of(_rows, _scalars),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_documents)
def test_canonical_json_matches_the_per_element_emitter(doc):
    assert canonical_json(doc) == reference_canonical_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(_floats, max_size=40), st.integers(0, 3))
def test_float_rows_and_arrays_match_the_per_element_emitter(row, depth):
    for obj in (row, tuple(row), np.array(row, dtype=float), [np.float64(v) for v in row]):
        for _ in range(depth):  # nested in dicts at several indents
            obj = {"k": obj, "a": [obj]}
        assert canonical_json(obj) == reference_canonical_json(obj)


def _same_dump(dump, reference):
    """Whether a solution dump holds the reference dump's scalars, of the
    same type, and its rows as float arrays bit-identical to the reference's
    lists of floats."""
    if isinstance(reference, dict):
        return dump.keys() == reference.keys() and all(_same_dump(dump[k], reference[k]) for k in reference)
    if isinstance(reference, list):
        return len(dump) == len(reference) and all(
            isinstance(row, np.ndarray) and row.dtype == np.float64
            and _same_bits(row, np.array(ref, dtype=float)) for row, ref in zip(dump, reference))
    return type(dump) is type(reference) and dump == reference


def test_strings_escape_like_the_per_character_emitter():
    # every control character, the two JSON metacharacters, DEL (which
    # passes through unescaped) and characters past ASCII: a C1 control,
    # the BMP, past U+FFFF and a lone surrogate, all escaped
    specials = "".join(map(chr, range(0x20))) + '"\\\x7f' + "\x80\u00e9\u2603\U0001f600\ud800"
    for text in (specials, *specials, "plain", ""):
        assert canonical_json(text) == reference_canonical_json(text)
        assert canonical_json({text: [text, 1]}) == reference_canonical_json({text: [text, 1]})
    assert canonical_json(specials).isascii()
    assert json.loads(canonical_json(specials)) == specials


def _solve_report(scn):
    args = build_parser().parse_args(["solve", "scenario.json"])
    return _HANDLERS["solve"](scn, args)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 10),
       st.sampled_from(["constant", "linear", "truncated", "cubic"]))
def test_solve_report_and_csv_match_the_per_element_path(tmp_path_factory, seed, depth, kind):
    report, tables = _solve_report(random_scenario(seed, n_steps=depth, driver_kind=kind))
    sol = solution_from_dict(report["solution"])
    assert _same_dump(report["solution"], reference_solution_to_dict(sol))
    assert canonical_json(report) == reference_canonical_json(
        dict(report, solution=reference_solution_to_dict(sol)))
    header, rows = tables["solution"]
    assert _csv_text(tmp_path_factory.mktemp("csv"), header, rows) == reference_csv(
        SOLUTION_ROW_HEADER, reference_solution_rows(sol))


def test_non_finite_solution_values_match_the_per_element_path(tmp_path):
    report, _ = _solve_report(random_scenario(3, n_steps=3, driver_kind="linear"))
    sol = solution_from_dict(report["solution"])
    sol.z[1][0] = math.nan
    sol.r_plus.step[2][3] = math.inf
    sol.r_minus.phase[0][0] = -math.inf
    sol.y.after[1][1] = -0.0
    sol.y.at[2][2] = 5e-324
    assert canonical_json(solution_to_dict(sol)) == reference_canonical_json(reference_solution_to_dict(sol))
    assert '"nan"' in canonical_json(solution_to_dict(sol))
    assert _csv_text(tmp_path, SOLUTION_ROW_HEADER, solution_rows(sol)) == reference_csv(
        SOLUTION_ROW_HEADER, reference_solution_rows(sol))


def test_solution_rows_in_blocks_match_the_per_node_path(tmp_path, monkeypatch):
    # blocks of 4 nodes, so that every step past the second spans several
    # blocks and their path-bit prefixes
    monkeypatch.setattr(report_module, "_BLOCK_BITS", 2)
    report, _ = _solve_report(random_scenario(6, n_steps=6, driver_kind="linear"))
    sol = solution_from_dict(report["solution"])
    chunks = list(solution_rows(sol))
    assert max(chunk.count("\n") for chunk in chunks) == 4
    assert _csv_text(tmp_path, SOLUTION_ROW_HEADER, chunks) == reference_csv(
        SOLUTION_ROW_HEADER, reference_solution_rows(sol))


def test_report_writers_stream_below_the_bytes_they_write(tmp_path):
    # rendered whole, a depth-14 report peaked at 3.0x (JSON) and 2.0x (CSV)
    # the bytes written; streamed, a chunk holds one row or block
    report, tables = _solve_report(random_scenario(14, n_steps=14, driver_kind="linear"))
    header, rows = tables["solution"]
    writes = {"json": lambda path: write_json_atomic(path, report),
              "csv": lambda path: write_csv_atomic(path, header, rows)}
    tracemalloc.start()
    try:
        for name, write in writes.items():
            path = tmp_path / f"report.{name}"
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write(path)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < path.stat().st_size, (name, peak, path.stat().st_size)
    finally:
        tracemalloc.stop()


def test_game_matrix_and_convergence_tables_match_csv_writer(tmp_path):
    scn = random_scenario(8, n_steps=2, driver_kind="truncated")
    _, tables = _HANDLERS["game"](scn, build_parser().parse_args(["game", "s.json"]))
    values = brute_force_values(scn.tree, scn.barriers, scn.driver, mode="extended",
                                theta_step=0, theta_node=0)
    header, rows = tables["matrix"]
    assert _csv_text(tmp_path, header, rows) == reference_csv(
        header, [(i, *[float(v) for v in row]) for i, row in enumerate(values.matrix)])
    report, tables = _HANDLERS["approx"](
        scn, build_parser().parse_args(["approx", "s.json", "--n-max", "3", "--m-max", "2"]))
    header, rows = tables["convergence"]
    assert _csv_text(tmp_path, header, rows) == reference_csv(
        header, [(i + 1, float(a), float(b))
                 for i, (a, b) in enumerate(zip(report["n_gaps"], report["m_gaps"]))])


# -- the two backward engines ----------------------------------------------------

def reference_snell_envelopes(tree, barriers):
    """The hand-written envelope loop: a running minimum of the lower barrier
    and the children's average, and a running maximum of the upper one."""
    low, up = barriers.lower, barriers.upper
    n = tree.n_steps
    lhat_at, uhat_at = [None] * (n + 1), [None] * (n + 1)
    lhat_after, uhat_after = [None] * n, [None] * n
    lhat_at[n], uhat_at[n] = low.at[n].copy(), up.at[n].copy()
    for k in range(n - 1, -1, -1):
        le = 0.5 * (lhat_at[k + 1][0::2] + lhat_at[k + 1][1::2])
        ue = 0.5 * (uhat_at[k + 1][0::2] + uhat_at[k + 1][1::2])
        lhat_after[k] = np.minimum(low.after[k], le)
        uhat_after[k] = np.maximum(up.after[k], ue)
        lhat_at[k] = np.minimum(low.at[k], lhat_after[k])
        uhat_at[k] = np.maximum(up.at[k], uhat_after[k])
    return OptionalProcess(tree, lhat_at, lhat_after), OptionalProcess(tree, uhat_at, uhat_after)


def reference_solve_bsde(tree, terminal, driver, dv, step_offset):
    """The one-row unreflected loop with an optional drift: (Y, Z)."""
    n, dt = tree.n_steps, tree.dt
    y_at, y_after, zs = [None] * (n + 1), [None] * n, [None] * n
    y_at[n] = terminal.copy()
    for k in range(n - 1, -1, -1):
        nxt = y_at[k + 1]
        e = 0.5 * (nxt[0::2] + nxt[1::2])
        zs[k] = (nxt[0::2] - nxt[1::2]) / (2.0 * tree.sqrt_dt)
        if dv is not None:
            e = e + dv.step[k]
        y_after[k] = implicit_step(e, zs[k], (step_offset + k) * dt, driver, dt)
        y_at[k] = y_after[k] + dv.phase[k] if dv is not None else y_after[k].copy()
    return OptionalProcess(tree, y_at, y_after), zs


def reference_ef_backward_batch(tree, driver, terminal_rows, stops, step_offset):
    """The unreflected loop over rows, with the driver masked per row and
    parent: on at step k where the parent's first leaf stops at AT(k + 1)
    or later."""
    n, dt = tree.n_steps, tree.dt
    vals = [None] * (n + 1)
    vals[n] = terminal_rows
    for k in range(n - 1, -1, -1):
        nxt = vals[k + 1]
        e = 0.5 * (nxt[:, 0::2] + nxt[:, 1::2])
        z = (nxt[:, 0::2] - nxt[:, 1::2]) / (2.0 * tree.sqrt_dt)
        active = None
        if stops is not None:
            first_leaf = np.arange(tree.nodes_at(k)) * tree.leaf_stride(k)
            active = stops[:, first_leaf] > 2 * k + 1
        vals[k] = implicit_step(e, z, (step_offset + k) * dt, driver, dt, active=active)
    return vals


def _same_process(got, want):
    return all(_same_bits(a, b) for a, b in zip(got.at + got.after, want.at + want.after, strict=True))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from(_DRIVER_KINDS),
       st.booleans(), st.integers(0, 2))
def test_backward_engines_match_the_loops_they_replaced(seed, depth, kind, touching, step_offset):
    """Snell envelopes from the reflected pass, and ``solve_bsde`` and
    ``ef_backward_batch`` from the unreflected one, bit for bit against the
    loops they replaced: with and without a drift, with and without stop
    keys, adapted or not."""
    rng = np.random.default_rng(seed)
    scn = random_scenario(seed, n_steps=depth, driver_kind="linear" if kind == "zero" else kind,
                          touching=touching)
    driver = constant_driver(0.0) if kind == "zero" else scn.driver
    tree = scn.tree
    barriers = _touching(scn.barriers, rng, 0.3) if touching else scn.barriers
    for got, want in zip(snell_envelopes(tree, barriers), reference_snell_envelopes(tree, barriers)):
        assert _same_process(got, want)
    drift = TransitionIncrements(tree, [rng.normal(0.0, 0.1, tree.nodes_at(k)) for k in range(depth)],
                                 [rng.normal(0.0, 0.1, tree.nodes_at(k)) for k in range(depth)])
    for dv in (None, drift):
        sol = solve_bsde(tree, barriers.terminal, driver, dv, step_offset=step_offset)
        y, z = reference_solve_bsde(tree, barriers.terminal, driver, dv, step_offset)
        assert _same_process(sol.y, y)
        assert all(_same_bits(a, b) for a, b in zip(sol.z, z, strict=True))
        assert not any(a is b for a in sol.y.at for b in sol.y.after)
    rows = rng.normal(size=(3, tree.n_leaves))
    stops = np.concatenate([_random_keys(tree, rng, (2, tree.n_leaves)), _random_stop(tree, rng).keys[None]])
    for keys in (None, stops):
        got = ef_backward_batch(tree, driver, rows, keys, step_offset=step_offset)
        want = reference_ef_backward_batch(tree, driver, rows, keys, step_offset)
        assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("lower, upper", [(-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)])
def test_a_barrier_pair_of_signed_zeros_gives_the_loops_envelopes(lower, upper):
    tree = build_tree(4, 0.5)
    barriers = Barriers(OptionalProcess.from_constant(tree, lower), OptionalProcess.from_constant(tree, upper),
                        np.zeros(tree.n_leaves))
    for got, want in zip(snell_envelopes(tree, barriers), reference_snell_envelopes(tree, barriers)):
        assert _same_process(got, want)


def test_mixed_signed_zeros_change_only_the_sign_of_an_envelope_zero():
    """Where a zero continuation value meets a zero barrier of the other
    sign, the reflected pass keeps the barrier's zero (``np.clip`` returns
    the bound on a tie) and the loop kept the continuation's.  The
    envelopes stay equal as numbers, and only zeros differ in their bits."""
    rng = np.random.default_rng(0)
    tree = build_tree(5, 0.5)

    def zeros():
        return OptionalProcess(tree, *([np.where(rng.random(tree.nodes_at(k)) < 0.5, -0.0, 0.0)
                                        for k in range(tree.n_steps + end)] for end in (1, 0)))

    barriers = Barriers(zeros(), zeros(), np.zeros(tree.n_leaves))
    for got, want in zip(snell_envelopes(tree, barriers), reference_snell_envelopes(tree, barriers)):
        for a, b in zip(got.at + got.after, want.at + want.after, strict=True):
            assert np.array_equal(a, b)
            assert np.all(a[a.view(np.int64) != b.view(np.int64)] == 0.0)


# -- the truncation ladder and stacked root solves ------------------------------

def reference_truncation(tree, barriers, driver, n_max, m_max, cut_step, tol_conv=1e-8, tol_mono=1e-10):
    """The per-cell ladder: one ``solve_rbsde`` per grid member, on
    barriers swapped to the Snell envelopes past each stage's cut."""
    reference = solve_rbsde(tree, barriers, driver)
    lhat, uhat = snell_envelopes(tree, barriers)

    def threshold(stage):
        return 2 * tree.n_steps if cut_step is None else 2 * min(cut_step * stage, tree.n_steps)

    def swapped(original, envelope, threshold_key):
        at = [(original.at[k] if 2 * k <= threshold_key else envelope.at[k]).copy()
              for k in range(tree.n_steps + 1)]
        after = [(original.after[k] if 2 * k + 1 <= threshold_key else envelope.after[k]).copy()
                 for k in range(tree.n_steps)]
        return OptionalProcess(tree, at, after)

    grid = [[solve_rbsde(tree, Barriers(swapped(barriers.lower, lhat, threshold(i)),
                                        swapped(barriers.upper, uhat, threshold(j)), barriers.terminal),
                         clipped_driver(driver, j, i)).y
             for j in range(1, m_max + 1)] for i in range(1, n_max + 1)]
    mono_n = mono_m = 0.0
    for i in range(n_max):
        for j in range(m_max):
            if i + 1 < n_max:
                mono_n = max(mono_n, grid[i][j].max_exceedance(grid[i + 1][j]))
            if j + 1 < m_max:
                mono_m = max(mono_m, grid[i][j + 1].max_exceedance(grid[i][j]))
    y_limit = grid[-1][-1]
    limit_gap = y_limit.sup_abs_diff(reference.y)
    fields = {"n_max": n_max, "m_max": m_max, "cut_step": cut_step,
              "monotone_n_violation": mono_n, "monotone_m_violation": mono_m, "limit_gap": limit_gap,
              "n_gaps": [grid[i][-1].sup_abs_diff(y_limit) for i in range(n_max)],
              "m_gaps": [grid[-1][j].sup_abs_diff(y_limit) for j in range(m_max)],
              "passed": mono_n <= tol_mono and mono_m <= tol_mono and limit_gap <= tol_conv}
    return grid, fields


def _ladder_driver(kind, seed):
    scn = random_scenario(seed, n_steps=3, driver_kind="cubic" if kind in ("constant", "custom") else kind)
    if kind == "constant":
        return scn, constant_driver(0.7)
    if kind == "custom":  # no declared structure: every row bisects
        return scn, dataclasses.replace(scn.driver, terms=None, clip=None, tag="custom")
    return scn, scn.driver


@pytest.mark.parametrize("kind", ["constant", "linear", "truncated", "cubic", "custom"])
@pytest.mark.parametrize("cut_step", [None, 1])
@pytest.mark.parametrize("n_max, m_max", [(3, 2), (2, 4)])
def test_stacked_ladder_matches_one_solve_per_cell(monkeypatch, kind, cut_step, n_max, m_max):
    scn, driver = _ladder_driver(kind, 11)
    stacks = []

    def spy(tree, terminal, *args, **kwargs):
        steps = list(reflect_pass(tree, terminal, *args, **kwargs))
        if terminal.ndim == 2:  # the ladder's stack, not the reference solve
            stacks.append(steps[::-1])
        return iter(steps)

    reflect_pass = reflect._reflected_pass
    monkeypatch.setattr(reflect, "_reflected_pass", spy)
    rep = truncation_scheme(scn.tree, scn.barriers, driver, n_max=n_max, m_max=m_max, cut_step=cut_step)
    grid, fields = reference_truncation(scn.tree, scn.barriers, driver, n_max, m_max, cut_step)
    assert len(stacks) == 1
    for i in range(n_max):
        for j in range(m_max):
            for k, (_, after, at, *_) in enumerate(stacks[0]):
                assert _same_bits(after[i * m_max + j], grid[i][j].after[k])
                assert _same_bits(at[i * m_max + j], grid[i][j].at[k])
    assert {name: getattr(rep, name) for name in fields} == fields
    assert all(_same_bits(a, b) for a, b in zip(rep.y_limit.at + rep.y_limit.after,
                                                grid[-1][-1].at + grid[-1][-1].after))


@pytest.mark.parametrize("shape", [(4,), (16, 8), (16, 2048), (300, 1), (300, 2), (300, 4), (3, 200, 3)])
def test_row_max_folds_narrow_rows_as_np_max_reduces_them(shape):
    rng = np.random.default_rng(3)
    a = rng.normal(size=shape)
    a.flat[rng.integers(a.size, size=3)] = np.nan
    assert np.array_equal(_row_max(a), np.max(a, axis=-1, keepdims=True), equal_nan=True)


@st.composite
def _row_stacks(draw):
    """A base driver on one root-solve path, per-row clip levels or None,
    the row count and dt.  The residual's slope stays at 0.3 or more."""
    path = draw(st.sampled_from(["closed_form", "clip_identity", "odd_cubic", "newton", "newton_band",
                                 "bisection"]))
    unit = st.floats(-1.0, 1.0)
    a, c = draw(unit), draw(unit)
    b = draw(st.floats(-1.5, 0.5))
    if path in ("closed_form", "clip_identity"):
        base = linear_driver(a, b, c)
    else:
        terms = [(0, 0, a), (1, 0, b), (0, 1, c), (3, 0, -draw(st.floats(0.1, 3.0)))]
        if path in ("newton", "newton_band"):
            # a y*z term takes the driver off the odd-cubic closed form
            terms.append((1, 1, 0.1 * draw(unit)))
        base = polynomial_driver(terms, lambda_z=10.0, mu=max(b, 0.0) + 0.4)
        if path == "bisection":
            base = dataclasses.replace(base, terms=None)
    rows = draw(st.integers(1, 5))
    levels = None
    if path in ("clip_identity", "newton_band") or (path in ("odd_cubic", "bisection") and draw(st.booleans())):
        levels = [np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=rows, max_size=rows)))
                  for _ in range(2)]
    dt = draw(st.floats(0.05, 1.0))
    # each draw takes the path it is named for
    assert (path == "odd_cubic") == (base.terms is not None and _odd_cubic(base.terms, dt) is not None)
    return base, levels, rows, dt


def _solved_or_none(e, z, driver, dt, active):
    try:
        return implicit_step(e, z, 0.3, driver, dt, active=active)
    except RootSolveError:
        return None


@settings(max_examples=80, deadline=None)
@given(_row_stacks(), st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
def test_a_stack_of_rows_solves_as_each_row_alone(case, seed, masked, nested, narrow):
    """Bit for bit, on every path, with rows of mixed scale and per-row
    bands.  Narrow stacks have enough rows that every row maximum is
    folded column by column."""
    base, levels, rows, dt = case
    if narrow:
        rows = 128
        levels = None if levels is None else [np.resize(v, rows) for v in levels]
    rng = np.random.default_rng(seed)
    width = 2 if narrow else 24
    shape = (2, rows, width) if nested else (rows, width)
    scale = 10.0 ** rng.uniform(-2.0, 1.5, shape[:-1] + (1,))
    e = scale * rng.uniform(-3.0, 3.0, shape)
    z = rng.uniform(-2.0, 2.0, shape)
    active = rng.random(shape) < 0.7 if masked else None
    if levels is None:
        stacked_driver, row_driver = base, lambda r: base
    else:
        stacked_driver = clipped_driver(base, levels[0][:, None], levels[1][:, None])
        row_driver = lambda r: clipped_driver(base, levels[0][r], levels[1][r])
    stacked = _solved_or_none(e, z, stacked_driver, dt, active)
    rows_idx = list(np.ndindex(shape[:-1]))
    alone = [_solved_or_none(e[idx], z[idx], row_driver(idx[-1]), dt,
                             None if active is None else active[idx]) for idx in rows_idx]
    if any(row is None for row in alone):
        assert stacked is None
    else:
        assert stacked is not None
        assert all(_same_bits(stacked[idx], row) for idx, row in zip(rows_idx, alone))


@pytest.mark.parametrize("base", [linear_driver(0.5, -1.0, 0.0),
                                  polynomial_driver([(1, 0, -1.0), (3, 0, -1.0)], lambda_z=0.0, mu=-1.0)])
def test_one_row_whose_band_disagrees_with_fn_fails_the_stack(base):
    """Row 1 declares its upper band edge 1e-7 above the one ``fn`` clips
    at.  Row 0 sits at scale 1e6, which must not widen row 1's tolerance."""
    levels = np.full((2, 1), 0.25)
    honest = clipped_driver(base, levels, levels)
    dishonest = dataclasses.replace(honest, clip=(honest.clip[0], honest.clip[1] + np.array([[0.0], [1e-7]])))
    honest_row = clipped_driver(base, 0.25, 0.25)
    dishonest_row = dataclasses.replace(honest_row, clip=(-0.25, 0.25 + 1e-7))
    e = np.array([[1e6] * 4, [-1.0, -0.5, 0.0, 0.5]])
    z = np.zeros_like(e)
    implicit_step(e, z, 0.0, honest, 0.5)
    implicit_step(e[0], z[0], 0.0, honest_row, 0.5)
    with pytest.raises(RootSolveError, match="residual"):
        implicit_step(e[1], z[1], 0.0, dishonest_row, 0.5)
    with pytest.raises(RootSolveError, match="residual"):
        implicit_step(e, z, 0.0, dishonest, 0.5)


def reference_polynomial(terms, y, z):
    """``sum c y**i z**j`` term by term, as ``polynomial_driver`` summed it
    before its sparse Horner, with the sum of the terms' magnitudes and
    the same two sums for the slope in ``y``."""
    value, size, slope, slope_size = (np.zeros(np.broadcast(y, z).shape) for _ in range(4))
    for i, j, c in terms:
        term = c * y**i * z**j
        value += term
        size += np.abs(term)
        if i:
            term = i * c * y**(i - 1) * z**j
            slope += term
            slope_size += np.abs(term)
    return value, size, slope, slope_size


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.floats(-3.0, 3.0)), min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
def test_horner_matches_the_term_by_term_sum(terms, seed):
    """Within a few ulps of the terms' magnitudes, for the driver's value
    and for the slope that Newton reads, with repeated and gapped powers.
    A product that lands among the subnormals rounds with an absolute error
    of up to half the smallest subnormal, which no relative bound covers,
    and the later products of a term scale that error by at most
    ``6 max(1, |y|)**6 max(1, |z|)**3``; each side forms at most a dozen
    products per term, so each term also allows a few dozen such errors."""
    rng = np.random.default_rng(seed)
    y, z = rng.uniform(-2.0, 2.0, (2, 64))
    value, size, slope, slope_size = reference_polynomial(terms, y, z)
    ulp = np.finfo(float).eps
    scale = 6 * np.maximum(1.0, np.abs(y))**6 * np.maximum(1.0, np.abs(z))**3
    underflow = 32 * len(terms) * np.finfo(float).smallest_subnormal * scale
    assert np.all(np.abs(polynomial_driver(terms, lambda_z=0.0, mu=0.0)(0.0, y, z) - value)
                  <= 8 * ulp * size + underflow)
    _, got_slope = _horner(_y_coefficients(terms, z), y, slope=True)
    assert np.all(np.abs(got_slope - slope) <= 8 * ulp * slope_size + underflow)


def reference_growth_points(incr):
    """Growth indicator, step by step: positive phase increments flag AT(k),
    positive step increments flag AFTER(k), and AT(N) is never flagged."""
    tree = incr.tree
    at = [np.asarray(incr.phase[k] > 0.0, dtype=float) for k in range(tree.n_steps)]
    after = [np.asarray(incr.step[k] > 0.0, dtype=float) for k in range(tree.n_steps)]
    return OptionalProcess(tree, at + [np.zeros(tree.n_leaves)], after)


def reference_stopped_mass(incr, stop):
    """Per-leaf increments of the transitions that end at or before the
    stop, added step by step: the phase increment, then the step one."""
    tree = incr.tree
    total = np.zeros(tree.n_leaves)
    for k in range(tree.n_steps):
        total += tree.spread(incr.phase[k], k) * (stop.keys >= 2 * k + 1)
        total += tree.spread(incr.step[k], k) * (stop.keys >= 2 * (k + 1))
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_growth_points_and_stopped_mass_match_the_per_step_loops(seed, depth):
    rng = np.random.default_rng(seed)
    tree = build_tree(depth, 0.5)
    def draw(k):
        """Signed increments of step k with exact zeros of both signs."""
        size = tree.nodes_at(k)
        return np.where(rng.random(size) < 0.3, rng.choice([0.0, -0.0], size), rng.normal(size=size))

    incr = TransitionIncrements(tree, [draw(k) for k in range(depth)], [draw(k) for k in range(depth)])
    got, want = growth_points(incr), reference_growth_points(incr)
    assert len(got.slots) == len(want.slots) == 2 * depth + 1
    assert all(_same_bits(a, b) for a, b in zip(got.slots, want.slots))
    stop = _random_stop(tree, rng)
    assert _same_bits(_stopped_mass(incr, stop), reference_stopped_mass(incr, stop))
