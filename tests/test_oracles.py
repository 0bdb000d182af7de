"""Array paths against the per-leaf loops they replaced.

``mokobodzki_witness`` and ``StoppingTime.from_realized`` once walked every
leaf in Python.  Those loops live on here as reference implementations:
the witness must match bit for bit, and the stopping-time builder must set
the same flags and raise the same errors.  So do the per-key gathers that
``gather_slots`` replaced, and the stopping-pair list comprehension of brute
``classify_ef``: reads are bit-identical, pairs come in the same order, and
classification gives equal results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    ClassifyResult,
    OptionalProcess,
    Phase,
    SeparationFailure,
    StoppingSystem,
    StoppingTime,
    Witness,
    build_tree,
    classify_ef,
    constant_driver,
    enumerate_stopping_times,
    eval_at_system,
    gather_slots,
    linear_driver,
    mokobodzki_witness,
    random_scenario,
    truncated_driver,
)
from rbsde_lab.expectation import _ordered_pairs, ef_backward_batch


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
        tree.point(k, Phase(ph))
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


def _same_flags(st_, flags):
    flag_at, flag_after = flags
    return (all(np.array_equal(a, b) for a, b in zip(st_.flag_at, flag_at))
            and all(np.array_equal(a, b) for a, b in zip(st_.flag_after, flag_after)))


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
    assert len(got.cut_times) == max(len(c) for c in cut_keys)
    for i, tau in enumerate(got.cut_times):
        keys = np.array([c[i] if i < len(c) else 2 * tree.n_steps for c in cut_keys])
        assert np.array_equal(tau.keys, keys)
        assert _same_flags(tau, reference_from_realized(tree, keys >> 1, keys & 1))
    return len(got.cut_times)


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
        flag_at = [rng.random(tree.nodes_at(k)) < 0.3 for k in range(n + 1)]
        flag_after = [rng.random(tree.nodes_at(k)) < 0.3 for k in range(n)]
        tau = StoppingTime(tree, flag_at, flag_after)
        return tau.steps.copy(), tau.phases.copy()
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
        assert got[0] == "ok" and _same_flags(got[1], ref[1])
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


def reference_eval_at_system(process, system):
    """The process at the stop on H and at the interval slot off H, per key."""
    keys = np.where(system.membership, system.tau.keys, system.tau.keys | 1)
    nodes = system.tau.stop_nodes()
    out = np.empty(process.tree.n_leaves)
    for key in np.flatnonzero(np.bincount(keys)).tolist():
        sel = keys == key
        out[sel] = process.slot(key)[nodes[sel]]
    return out


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
    masks = [keys_m[tau_rows][:, ::tree.leaf_stride(k)] >= 2 * (k + 1) for k in range(tree.n_steps)]
    vals = ef_backward_batch(tree, driver, x_at_tau, masks)
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
    flag_at = [rng.random(tree.nodes_at(k)) < 0.4 for k in range(tree.n_steps + 1)]
    flag_after = [rng.random(tree.nodes_at(k)) < 0.4 for k in range(tree.n_steps)]
    return StoppingTime(tree, flag_at, flag_after)


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
        system = StoppingSystem(tau, member)
        assert _same_bits(eval_at_system(proc, system), reference_eval_at_system(proc, system))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pair_order_matches_the_list_comprehension(seed, depth):
    rng = np.random.default_rng(seed)
    steps_m, phases_m = enumerate_stopping_times(build_tree(depth, 0.5), phase_resolved=True)
    keys_m = 2 * steps_m.astype(np.int64) + phases_m
    for idx in (np.flatnonzero(rng.random(len(keys_m)) < rng.random()),
                np.arange(len(keys_m)), np.array([], dtype=np.int64)):
        sig, tau = _ordered_pairs(keys_m[idx])
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
