"""Array paths against the per-leaf loops they replaced.

``mokobodzki_witness`` and ``StoppingTime.from_realized`` once walked every
leaf in Python.  Those loops live on here as reference implementations:
the witness must match bit for bit, and the stopping-time builder must set
the same flags and raise the same errors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    OptionalProcess,
    Phase,
    SeparationFailure,
    StoppingTime,
    Witness,
    build_tree,
    mokobodzki_witness,
    random_scenario,
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
