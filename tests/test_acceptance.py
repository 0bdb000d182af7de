"""Acceptance sweep: the ten headline guarantees at their stated scales.

Each test covers one guarantee end to end, prints a single summary line
(visible under ``pytest -s`` or in the captured section of a failure),
and asserts the stated tolerance.  Scales and tolerances are fixed here
on purpose; do not shrink them to speed up a run.
"""

from __future__ import annotations

import json
import time

import numpy as np

from rbsde_lab import (
    Barriers,
    OptionalProcess,
    SeparationFailure,
    TransitionIncrements,
    Witness,
    build_tree,
    check_minimality,
    classify_ef,
    epsilon_ratio_ok,
    game_equals_rbsde,
    linear_driver,
    mokobodzki_witness,
    random_scenario,
    right_jump_counterexample,
    saddle_points,
    snell_envelopes,
    solve_bsde,
    solve_rbsde,
    truncation_scheme,
    value_identity_applicable,
)
from rbsde_lab.cli import main

TOL_ROOT = 1e-12
TOL_COMP = 1e-10
TOL_GAME = 1e-8


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_extended_game_equals_reflected_value():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        sc = random_scenario(1_000 + i, n_steps=(i % 3) + 1)
        chk = game_equals_rbsde(sc.tree, sc.barriers, sc.driver)
        assert chk.identity_applicable
        worst = max(worst, chk.max_extended_gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_GAME and elapsed < 120.0
    _line(1, "extended game value = Y at every atom", ok,
          f"200 scenarios, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_c02_plain_game_under_right_regularity_plus_counterexample():
    worst_internal = worst_to_y = 0.0
    for i in range(200):
        sc = random_scenario(2_000 + i, n_steps=(i % 3) + 1,
                             lower_right_usc=True, upper_right_lsc=True)
        chk = game_equals_rbsde(sc.tree, sc.barriers, sc.driver, include_plain=True)
        assert chk.passed_extended
        worst_internal = max(worst_internal, chk.max_plain_internal_gap)
        worst_to_y = max(worst_to_y, chk.max_plain_to_y_gap)
    tree, b, drv, expected = right_jump_counterexample()
    cx = game_equals_rbsde(tree, b, drv, include_plain=True)
    cx_gap = cx.max_plain_to_y_gap
    ok = (worst_internal <= TOL_GAME and worst_to_y <= TOL_GAME
          and cx.passed_extended and cx_gap > 0.1
          and abs(cx_gap - expected["plain_gap_to_y"]) < 1e-12)
    _line(2, "plain game matches under right flags; jump detaches it", ok,
          f"200 scenarios, worst plain gap {worst_to_y:.2e}; counterexample gap {cx_gap:.3f}")
    assert ok


def test_c03_minimality_and_mutual_singularity():
    worst = 0.0
    for i in range(500):
        sc = random_scenario(3_000 + i, n_steps=(i % 6) + 1)
        sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
        rep = check_minimality(sol, sc.barriers, tol_comp=TOL_COMP)
        assert rep.passed and rep.max_overlap == 0.0 and rep.nonnegative
        worst = max(worst, rep.max_product)
    ok = worst <= TOL_COMP
    _line(3, "minimality residual and exact mutual singularity", ok,
          f"500 scenarios (depth <= 6), worst product {worst:.2e}")
    assert ok


def test_c04_epsilon_saddle_residual_scales_with_epsilon():
    worst_quotient = 0.0
    for i in range(50):
        sc = random_scenario(4_000 + i, n_steps=(i % 3) + 1)
        rep = saddle_points(sc.tree, sc.barriers, sc.driver,
                            epsilons=(0.1, 0.05, 0.025))
        for sad in rep.epsilon_saddles:
            assert np.isfinite(sad.residual_up) and np.isfinite(sad.residual_down)
            assert sad.residual_up <= sad.epsilon + 1e-10
            assert sad.residual_down <= sad.epsilon + 1e-10
        ratio_ok, quotients = epsilon_ratio_ok(rep.epsilon_saddles)
        assert ratio_ok, quotients
        worst_quotient = max(worst_quotient, *quotients)
    _line(4, "epsilon-saddle residual/epsilon bounded across halving", True,
          f"50 scenarios x 3 epsilons, worst quotient {worst_quotient:.2e}")


def test_c05_exact_saddles_beat_all_opponents():
    worst_resid = worst_contact = 0.0
    for i in range(50):
        sc = random_scenario(5_000 + i, n_steps=(i % 3) + 1,
                             lower_right_usc=True, lower_left_usc=True,
                             upper_right_lsc=True, upper_left_lsc=True)
        rep = saddle_points(sc.tree, sc.barriers, sc.driver)
        assert rep.passed(TOL_GAME), (rep.residuals, rep.warnings)
        assert rep.order_tau_ok and rep.order_sigma_ok
        worst_resid = max(worst_resid, *(r for r in rep.residuals.values() if r is not None))
        worst_contact = max(worst_contact, *rep.contacts.values())
    ok = worst_resid <= TOL_GAME and worst_contact <= 4.0 * TOL_ROOT
    _line(5, "contact and action stops are saddle points", ok,
          f"50 two-sided scenarios, worst residual {worst_resid:.2e}, "
          f"worst contact {worst_contact:.2e}")
    assert ok


def test_c06_truncation_scheme_is_monotone_and_converges():
    worst_mono = worst_limit = 0.0
    for i in range(50):
        sc = random_scenario(6_000 + i, n_steps=(i % 3) + 1, driver_kind="cubic")
        rep = truncation_scheme(sc.tree, sc.barriers, sc.driver)
        assert rep.passed, (sc.name, rep.monotone_n_violation, rep.limit_gap)
        worst_mono = max(worst_mono, rep.monotone_n_violation, rep.monotone_m_violation)
        worst_limit = max(worst_limit, rep.limit_gap)
    ok = worst_mono <= 1e-10 and worst_limit <= 1e-8
    _line(6, "truncation grid monotone with matching double limit", ok,
          f"50 cubic-driver scenarios, worst monotonicity {worst_mono:.2e}, "
          f"worst limit gap {worst_limit:.2e}")
    assert ok


def test_c07_witness_between_separated_barriers_or_located_failure():
    for i in range(100):
        sc = random_scenario(7_000 + i)
        out = mokobodzki_witness(sc.tree, sc.barriers)
        assert isinstance(out, Witness)
        assert sc.barriers.lower.pointwise_leq(out.x)
        assert out.x.pointwise_leq(sc.barriers.upper)
    for i in range(50):
        sc = random_scenario(7_500 + i, touching=True)
        out = mokobodzki_witness(sc.tree, sc.barriers)
        assert isinstance(out, SeparationFailure)
        lv = sc.barriers.lower.value(out.step, out.phase, out.node)
        uv = sc.barriers.upper.value(out.step, out.phase, out.node)
        assert lv >= uv and out.lower == lv and out.upper == uv
    _line(7, "midpoint witness sandwiched; touching located", True,
          "100 separated + 50 touching scenarios, exhaustive scans")


def _random_linear(rng) -> tuple:
    dt = float(rng.uniform(0.3, 1.0))
    drv = linear_driver(float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(-1.0, 0.3)),
                        float(rng.uniform(-0.5, 0.5)))
    return dt, drv


def test_c08_operator_laws_and_classifier_agreement():
    worst = 0.0
    for i in range(200):  # comparison: larger data never gets a smaller value
        rng = np.random.default_rng(8_000 + i)
        n = int(rng.integers(1, 4))
        dt, drv = _random_linear(rng)
        tree = build_tree(n, dt)
        xi = rng.normal(0.0, 1.0, tree.n_leaves)
        bigger = xi + rng.uniform(0.0, 1.0, tree.n_leaves)
        y1, y2 = solve_bsde(tree, xi, drv).y, solve_bsde(tree, bigger, drv).y
        worst = max(worst, y1.max_exceedance(y2))
    assert worst <= TOL_ROOT

    for i in range(200):  # locality: values only read their own subtree
        rng = np.random.default_rng(8_200 + i)
        n = int(rng.integers(1, 4))
        dt, drv = _random_linear(rng)
        tree = build_tree(n, dt)
        k = int(rng.integers(0, n + 1))
        v = int(rng.integers(0, tree.nodes_at(k)))
        xi = rng.normal(0.0, 1.0, tree.n_leaves)
        other = xi + rng.uniform(0.5, 1.5, tree.n_leaves)
        s = tree.leaf_stride(k)
        other[v * s:(v + 1) * s] = xi[v * s:(v + 1) * s]
        ya = solve_bsde(tree, xi, drv).y
        yb = solve_bsde(tree, other, drv).y
        if k < n:
            assert ya.restrict(k, v).sup_abs_diff(yb.restrict(k, v)) <= TOL_ROOT
        else:
            assert abs(ya.at[n][v] - yb.at[n][v]) <= TOL_ROOT

    for i in range(200):  # horizon consistency: solving a subtree re-derives the slice
        rng = np.random.default_rng(8_400 + i)
        n = int(rng.integers(2, 4))
        dt, drv = _random_linear(rng)
        tree = build_tree(n, dt)
        xi = rng.normal(0.0, 1.0, tree.n_leaves)
        y_full = solve_bsde(tree, xi, drv).y
        k = int(rng.integers(1, n))
        v = int(rng.integers(0, tree.nodes_at(k)))
        s = tree.leaf_stride(k)
        y_sub = solve_bsde(tree.subtree(k), xi[v * s:(v + 1) * s], drv, step_offset=k).y
        assert y_full.restrict(k, v).sup_abs_diff(y_sub) <= TOL_ROOT

    for i in range(200):  # drift sign decides the classification
        rng = np.random.default_rng(8_600 + i)
        n = int(rng.integers(1, 4))
        dt, drv = _random_linear(rng)
        tree = build_tree(n, dt)
        xi = rng.normal(0.0, 1.0, tree.n_leaves)
        dv = TransitionIncrements(
            tree, [rng.uniform(0.0, 0.3, tree.nodes_at(j)) for j in range(n)],
            [rng.uniform(0.0, 0.3, tree.nodes_at(j)) for j in range(n)])
        y_super = solve_bsde(tree, xi, drv, dv=dv).y
        y_sub = solve_bsde(tree, xi, drv, dv=dv.combine(dv, sign=-2.0)).y
        assert classify_ef(y_super, drv, tol=TOL_ROOT).is_supermartingale
        assert classify_ef(y_sub, drv, tol=TOL_ROOT).is_submartingale

    agree = 0
    for i in range(60):  # exhaustive classifier agrees with the one-step one
        rng = np.random.default_rng(8_800 + i)
        n = int(rng.integers(1, 4))
        dt, drv = _random_linear(rng)
        tree = build_tree(n, dt)
        xi = rng.normal(0.0, 1.0, tree.n_leaves)
        dv = TransitionIncrements(
            tree, [rng.uniform(-0.2, 0.3, tree.nodes_at(j)) for j in range(n)],
            [rng.uniform(-0.2, 0.3, tree.nodes_at(j)) for j in range(n)])
        proc = solve_bsde(tree, xi, drv, dv=dv).y
        one = classify_ef(proc, drv, mode="onestep", tol=TOL_ROOT)
        brute = classify_ef(proc, drv, mode="brute", tol=TOL_ROOT)
        assert one.verdict == brute.verdict
        assert one.is_supermartingale == brute.is_supermartingale
        assert one.is_submartingale == brute.is_submartingale
        agree += 1
    _line(8, "operator laws and classifier agreement", True,
          f"4 x 200 law instances at {TOL_ROOT:.0e}; {agree} classifier agreements")


def test_c09_snell_envelopes_order_and_supermartingale():
    for i in range(100):
        sc = random_scenario(9_000 + i, n_steps=(i % 3) + 1)
        lhat, uhat = snell_envelopes(sc.tree, sc.barriers)
        assert lhat.max_exceedance(sc.barriers.lower) <= 0.0
        assert sc.barriers.lower.max_exceedance(sc.barriers.upper) <= 0.0
        assert sc.barriers.upper.max_exceedance(uhat) <= 0.0
        zero = linear_driver(0.0, 0.0, 0.0)
        neg_lhat = OptionalProcess.combine(lambda v: -v, lhat)
        assert classify_ef(neg_lhat, zero, mode="brute", tol=TOL_ROOT).is_supermartingale
        assert classify_ef(uhat, zero, mode="brute", tol=TOL_ROOT).is_supermartingale
    _line(9, "envelope ordering and brute supermartingale property", True,
          "100 scenarios, exhaustive stopping enumeration")


def test_c10_reports_are_deterministic(tmp_path):
    cases = [random_scenario(10_000, n_steps=2, driver_kind="cubic"),
             random_scenario(10_001, n_steps=2, driver_kind="linear")]
    paths = []
    for sc in cases:
        p = tmp_path / f"{sc.name}.json"
        p.write_text(json.dumps(sc.data))
        paths.append(str(p))
    snapshots = []
    for run in ("first", "second"):
        out = tmp_path / run
        for command in (["solve", "--format", "csv"], ["verify"], ["game"],
                        ["saddle", "--epsilon", "0.1", "0.05"], ["approx"], ["oracle"]):
            assert main([command[0], *paths, *command[1:], "--out", str(out)]) == 0
        snapshots.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    identical = snapshots[0] == snapshots[1]
    _line(10, "byte-identical reports across repeated runs", identical,
          f"{len(snapshots[0])} files x 6 commands x 2 scenarios")
    assert identical
