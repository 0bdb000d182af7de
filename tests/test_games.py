"""Dynkin game payoffs, brute-force values, saddles, and the value identity."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    BudgetError,
    EnumerationBoundError,
    OptionalProcess,
    Phase,
    StoppingTime,
    brute_force_values,
    build_tree,
    classify_ef,
    constant_driver,
    enumerate_stopping_times,
    epsilon_ratio_ok,
    game_equals_rbsde,
    random_scenario,
    right_jump_counterexample,
    saddle_points,
    solve_rbsde,
    value_identity_applicable,
)
from rbsde_lab import expectation, games, truncation_scheme
from rbsde_lab.expectation import check_enumeration
from test_oracles import reference_payoff_tensor


def _proc(tree, at, after):
    return OptionalProcess(tree, [np.asarray(a, dtype=float) for a in at],
                           [np.asarray(a, dtype=float) for a in after])


def _one_step_game():
    """L reads 0.3 at time zero and 0.7 on the open interval; U is flat."""
    tree = build_tree(1, 1.0)
    lower = _proc(tree, [[0.3], [0.0, 0.0]], [[0.7]])
    upper = _proc(tree, [[1.6], [2.0, 2.0]], [[1.8]])
    xi = np.array([0.2, 0.2])
    return tree, Barriers(lower, upper, xi)


def _payoff(barriers, tau, sigma):
    """Per-leaf payoff of one strategy pair by the package's payoff rule,
    which must agree with the reference payoff tensor."""
    flat = np.concatenate(barriers.lower.slots + barriers.upper.slots + [barriers.terminal])
    j = flat[games._pair_sources(barriers.tree.n_steps, tau.keys, sigma.keys)]
    assert np.array_equal(j, reference_payoff_tensor(barriers, tau.keys[None], sigma.keys[None])[0][0, 0])
    return j


# -- payoff branches ----------------------------------------------------------

def test_joint_horizon_stop_pays_terminal():
    tree, b = _one_step_game()
    horizon = StoppingTime.constant(tree, 1)
    assert np.array_equal(_payoff(b, horizon, horizon), b.terminal)


def test_member_stop_reads_grid_slot():
    tree, b = _one_step_game()
    tau = StoppingTime.constant(tree, 0)
    sigma = StoppingTime.constant(tree, 1)
    assert np.all(_payoff(b, tau, sigma) == 0.3)


def test_nonmember_stop_reads_interval_slot():
    tree, b = _one_step_game()
    tau = StoppingTime.constant(tree, 0, Phase.AFTER)
    sigma = StoppingTime.constant(tree, 1)
    assert np.all(_payoff(b, tau, sigma) == 0.7)


def test_minimiser_first_pays_upper_barrier():
    tree, b = _one_step_game()
    tau = StoppingTime.constant(tree, 1)
    sigma = StoppingTime.constant(tree, 0)
    assert np.all(_payoff(b, tau, sigma) == 1.6)
    off = StoppingTime.constant(tree, 0, Phase.AFTER)
    assert np.all(_payoff(b, tau, off) == 1.8)


def test_same_step_tie_goes_to_the_maximiser():
    tree, b = _one_step_game()
    at0 = StoppingTime.constant(tree, 0)
    just_after = StoppingTime.constant(tree, 0, Phase.AFTER)
    # even when the maximiser leaves the grid point and the minimiser sits
    # on it, the shared step resolves in the maximiser's favour
    assert np.all(_payoff(b, just_after, at0) == 0.7)
    assert np.all(_payoff(b, at0, at0) == 0.3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4))
def test_identical_stops_collect_the_lower_barrier(seed, idx):
    sc = random_scenario(seed, n_steps=2)
    steps, phases = enumerate_stopping_times(sc.tree, phase_resolved=True)
    row = steps[idx % len(steps)]
    tau = StoppingTime.from_realized(sc.tree, row, np.zeros_like(row))
    j = _payoff(sc.barriers, tau, tau)
    low = sc.barriers.lower
    for leaf in range(sc.tree.n_leaves):
        k = int(row[leaf])
        want = (sc.barriers.terminal[leaf] if k == sc.tree.n_steps
                else low.at[k][leaf >> (sc.tree.n_steps - k)])
        assert j[leaf] == want


# -- brute-force values -------------------------------------------------------

def test_frozen_one_step_martingale_game():
    tree = build_tree(1, 1.0)
    b = Barriers(OptionalProcess.from_constant(tree, 0.0),
                 OptionalProcess.from_constant(tree, 1.0),
                 np.array([1.0, 0.0]))
    gv = brute_force_values(tree, b, constant_driver(0.0))
    assert gv.upper == pytest.approx(0.5, abs=1e-12)
    assert gv.lower == pytest.approx(0.5, abs=1e-12)
    assert gv.n_tau == 3 and gv.n_sigma == 3  # extended census at depth 1
    plain = brute_force_values(tree, b, constant_driver(0.0), mode="plain")
    assert plain.n_tau == 2  # plain census at depth 1
    assert plain.upper == pytest.approx(0.5, abs=1e-12)


def test_census_sizes_extended_and_plain():
    tree = build_tree(2, 0.5)
    b = Barriers(OptionalProcess.from_constant(tree, -1.0),
                 OptionalProcess.from_constant(tree, 1.0),
                 np.zeros(4))
    gv = brute_force_values(tree, b, constant_driver(0.0))
    assert (gv.n_tau, gv.n_sigma) == (11, 11)
    assert gv.matrix.shape == (11, 11)
    assert brute_force_values(tree, b, constant_driver(0.0), mode="plain").n_tau == 5


def test_collapsed_band_pins_the_value():
    tree = build_tree(2, 0.5)
    c = OptionalProcess.from_constant(tree, 0.25)
    b = Barriers(c, c, np.full(4, 0.25))
    gv = brute_force_values(tree, b, constant_driver(0.0))
    assert gv.upper == 0.25 and gv.lower == 0.25


def test_enumeration_bound_guards_depth():
    sc = random_scenario(3, n_steps=3)
    with pytest.raises(EnumerationBoundError, match="enumeration bound exceeded"):
        brute_force_values(sc.tree, sc.barriers, sc.driver, enum_bound=2)


def test_enumeration_budget_refuses_depth_four():
    for depth in (1, 2, 3):  # depth 3: 123**2 * 2**3 = 121,032 pair elements
        check_enumeration(depth, 18)
    with pytest.raises(BudgetError, match=r"depth-4 subgame make 3,663,154,576 elements, "
                       r"above the budget of 4,194,304; lower --enum-bound \(or /tolerances/enum_bound\) to 3"):
        check_enumeration(4, 18)
    # a deep request names a lower bound: its count has astronomically many digits
    with pytest.raises(BudgetError, match="depth-18 subgame make more than 3,663,154,576 elements"):
        check_enumeration(18, 18)
    # the depth bound is checked first
    with pytest.raises(EnumerationBoundError, match=r"^enumeration bound exceeded: subgame depth 18 > 17; "):
        check_enumeration(18, 17)


def test_one_budget_constant_refuses_a_ladder_and_an_enumeration(monkeypatch):
    sc = random_scenario(8, n_steps=2, driver_kind="cubic")
    # below a depth-2 subgame's 11**2 * 4 = 484 pair elements and a 2 x 2
    # ladder's 4 * 4 = 16 stacked elements
    monkeypatch.setattr(expectation, "ELEMENT_BUDGET", 15)
    with pytest.raises(BudgetError, match="^truncation ladder at level n_max=2, m_max=2 .* budget of 15;"):
        truncation_scheme(sc.tree, sc.barriers, sc.driver, n_max=2, m_max=2)
    with pytest.raises(BudgetError, match="^enumeration budget exceeded: .* depth-2 subgame .* budget of 15;"):
        brute_force_values(sc.tree, sc.barriers, sc.driver)


def test_every_brute_force_path_checks_the_budget_before_enumerating(monkeypatch):
    def enumerated(*args):
        raise AssertionError("strategies enumerated past the budget")

    # each enumeration entry point fails loudly, so a missing guard
    # allocates nothing
    for module, name in ((games, "_pair_patterns"), (games, "stopping_keys"),
                         (expectation, "_stop_order")):
        monkeypatch.setattr(module, name, enumerated)
    sc = random_scenario(3, n_steps=4, driver_kind="linear")
    calls = {
        "extended": lambda bound: brute_force_values(sc.tree, sc.barriers, sc.driver, mode="extended",
                                                     enum_bound=bound),
        "plain": lambda bound: brute_force_values(sc.tree, sc.barriers, sc.driver, mode="plain", enum_bound=bound),
        "oracle": lambda bound: game_equals_rbsde(sc.tree, sc.barriers, sc.driver, enum_bound=bound),
        "saddle": lambda bound: saddle_points(sc.tree, sc.barriers, sc.driver, enum_bound=bound),
        "classify": lambda bound: classify_ef(sc.barriers.lower, sc.driver, mode="brute", enum_bound=bound),
    }
    for name, call in calls.items():
        with pytest.raises(BudgetError, match="^enumeration budget exceeded: .* depth-4 subgame"):
            call(4)
        if name != "oracle":  # the oracle checks only the subgames under its bound
            with pytest.raises(EnumerationBoundError, match=r"^enumeration bound exceeded: subgame depth 4 > 3; "):
                call(3)


@pytest.mark.parametrize("epsilon, quoted", [(float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0"),
                                             ("0.1", "'0.1'"), (None, "None"), (True, "True")],
                         ids=["nan", "inf", "-1.0", "string", "None", "True"])
def test_an_epsilon_that_is_not_finite_and_nonnegative_is_refused(epsilon, quoted):
    # a string or None is not compared, and a bool is not read as 1
    sc = random_scenario(4, n_steps=2, driver_kind="linear")
    with pytest.raises(ValueError, match=f"^epsilon must be finite and nonnegative, got {re.escape(quoted)}$"):
        saddle_points(sc.tree, sc.barriers, sc.driver, epsilons=(0.1, epsilon))


def test_a_bad_epsilon_is_refused_before_any_subgame_is_solved(monkeypatch):
    def solved(*args):
        raise AssertionError("a subgame was solved")

    monkeypatch.setattr(games, "_subgame_values", solved)
    monkeypatch.setattr(games, "solve_rbsde", solved)
    sc = random_scenario(4, n_steps=2, driver_kind="linear")
    with pytest.raises(ValueError, match="epsilon must be finite and nonnegative, got nan"):
        saddle_points(sc.tree, sc.barriers, sc.driver, epsilons=(float("nan"),))


def test_residual_quotients_refuse_an_epsilon_of_zero():
    sc = random_scenario(4, n_steps=2, driver_kind="linear")
    saddles = saddle_points(sc.tree, sc.barriers, sc.driver, epsilons=(0.1, 0.0)).epsilon_saddles
    with pytest.raises(ValueError, match="every epsilon > 0"):
        epsilon_ratio_ok(saddles)


@pytest.mark.parametrize("enum_bound", [0, -3])
def test_the_game_oracle_refuses_an_enumeration_bound_below_one(enum_bound):
    # a bound below one would check no node and pass
    sc = random_scenario(4, n_steps=2, driver_kind="linear")
    with pytest.raises(ValueError, match=f"enum_bound must be >= 1, got {enum_bound}"):
        game_equals_rbsde(sc.tree, sc.barriers, sc.driver, enum_bound=enum_bound)


@pytest.mark.parametrize("step, node", [(1, 2), (1, 5), (1, -1), (2, 0), (-1, 0), (0, 1)])
def test_a_theta_outside_the_tree_is_refused(step, node):
    # numpy would read node -1 as the last node of the step
    sc = random_scenario(4, n_steps=2, driver_kind="linear")
    calls = [
        lambda: brute_force_values(sc.tree, sc.barriers, sc.driver, theta_step=step, theta_node=node),
        lambda: saddle_points(sc.tree, sc.barriers, sc.driver, theta_step=step, theta_node=node, epsilons=(0.1,)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^theta \(step {step}, node {node}\) is not a node"):
            call()


@pytest.mark.parametrize("include_plain", [False, True])
def test_the_oracle_runs_one_batch_per_step_and_mode_on_the_full_barriers(monkeypatch, include_plain):
    sc = random_scenario(8, n_steps=4, driver_kind="cubic")
    batches = []

    def counted(tree, driver, rows, *args, **kwargs):
        batches.append((tree.n_steps, rows.shape[0]))
        return expectation.ef_backward_batch(tree, driver, rows, *args, **kwargs)

    def restricted(*args):
        raise AssertionError("a subgame was restricted")

    monkeypatch.setattr(games, "ef_backward_batch", counted)
    monkeypatch.setattr(Barriers, "restrict", restricted)
    chk = game_equals_rbsde(sc.tree, sc.barriers, sc.driver, include_plain=include_plain)
    assert len(chk.checks) == 2 + 4 + 8
    # steps 1, 2, 3: every node's distinct payoff rows in one stack per mode
    ext = [(3, 2 * 845), (2, 4 * 29), (1, 8 * 5)]
    plain = [(3, 2 * 123), (2, 4 * 11), (1, 8 * 3)]
    assert batches == ([b for pair in zip(ext, plain) for b in pair] if include_plain else ext)
    brute_force_values(sc.tree, sc.barriers, sc.driver, theta_step=2, theta_node=3)
    assert batches[-1] == (2, 29)


def test_a_stack_past_the_budget_splits_into_batches_of_whole_nodes(monkeypatch):
    sc = random_scenario(9, n_steps=4, driver_kind="truncated")
    whole = game_equals_rbsde(sc.tree, sc.barriers, sc.driver, include_plain=True)
    rows = []

    def counted(tree, driver, terminal_rows, *args, **kwargs):
        rows.append(terminal_rows.shape[0])
        return expectation.ef_backward_batch(tree, driver, terminal_rows, *args, **kwargs)

    monkeypatch.setattr(games, "ef_backward_batch", counted)
    monkeypatch.setattr(games, "_STACK_BUDGET", 3 * 29 * 4)  # three depth-2 extended subgames
    split = game_equals_rbsde(sc.tree, sc.barriers, sc.driver, include_plain=True)
    assert split.checks == whole.checks
    # step 1: one node per batch; step 2: 3 + 1 nodes; step 3: 8 nodes at once
    assert rows == [845, 845, 123, 123, 3 * 29, 29, 4 * 11, 8 * 5, 8 * 3]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_lower_value_never_exceeds_upper(seed):
    sc = random_scenario(seed)
    gv = brute_force_values(sc.tree, sc.barriers, sc.driver)
    assert gv.lower <= gv.upper + 1e-12


# -- the value identity -------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_extended_game_recovers_reflected_value(seed):
    sc = random_scenario(seed)
    chk = game_equals_rbsde(sc.tree, sc.barriers, sc.driver)
    assert chk.identity_applicable
    assert chk.passed_extended, chk.max_extended_gap
    assert chk.max_extended_gap < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_plain_game_matches_under_right_regularity(seed):
    sc = random_scenario(seed, lower_right_usc=True, upper_right_lsc=True)
    chk = game_equals_rbsde(sc.tree, sc.barriers, sc.driver, include_plain=True)
    assert chk.passed_extended
    assert chk.max_plain_internal_gap < 1e-8
    assert chk.max_plain_to_y_gap < 1e-8


def test_right_jump_detaches_plain_value():
    tree, b, drv, expected = right_jump_counterexample()
    assert value_identity_applicable(b)
    sol = solve_rbsde(tree, b, drv)
    assert sol.y.at[0][0] == pytest.approx(expected["rbsde_value"], abs=1e-12)
    ext = brute_force_values(tree, b, drv)
    pl = brute_force_values(tree, b, drv, mode="plain")
    assert ext.upper == pytest.approx(expected["extended_value"], abs=1e-12)
    assert ext.lower == pytest.approx(expected["extended_value"], abs=1e-12)
    assert pl.upper == pytest.approx(expected["plain_value"], abs=1e-12)
    assert pl.lower == pytest.approx(expected["plain_value"], abs=1e-12)
    assert abs(pl.upper - sol.y.at[0][0]) == pytest.approx(expected["plain_gap_to_y"], abs=1e-12)


def test_cross_phase_violation_detaches_extended_value():
    # L just after time zero exceeds U at time zero: the maximiser collects
    # 0.8 by leaving the grid point, more than the minimiser's 0.5 ceiling
    # at the grid point itself, so the game value detaches from Y upward
    tree = build_tree(1, 1.0)
    lower = _proc(tree, [[0.0], [0.5, 0.5]], [[0.8]])
    upper = _proc(tree, [[0.5], [1.0, 1.0]], [[1.0]])
    b = Barriers(lower, upper, np.full(2, 0.75))
    assert not value_identity_applicable(b)
    chk = game_equals_rbsde(tree, b, constant_driver(0.0))
    assert not chk.identity_applicable
    assert not chk.passed_extended
    assert chk.max_extended_gap > 0.1
    # and the detachment is upward: both game values sit above Y at the root
    sol = solve_rbsde(tree, b, constant_driver(0.0))
    gv = brute_force_values(tree, b, constant_driver(0.0))
    assert gv.lower > sol.y.at[0][0] + 0.1


# -- epsilon saddles ----------------------------------------------------------

def _pinned_game():
    tree = build_tree(1, 1.0)
    b = Barriers(OptionalProcess.from_constant(tree, 0.5),
                 OptionalProcess.from_constant(tree, 2.0),
                 np.full(2, 0.5))
    return tree, b


def test_epsilon_pair_stops_immediately_when_pinned():
    tree, b = _pinned_game()
    (sad,) = saddle_points(tree, b, constant_driver(0.0), epsilons=(0.1,)).epsilon_saddles
    assert np.all(sad.tau.steps == 0)
    assert np.all(sad.tau.phases == 0)
    assert sad.residual_up <= 1e-12 and sad.residual_down <= 1e-12
    assert sad.hit_gap_lower <= 1e-12
    assert np.isfinite(sad.residual_up) and np.isfinite(sad.residual_down)


def test_epsilon_pair_waits_to_horizon_in_the_interior():
    tree = build_tree(1, 1.0)
    b = Barriers(OptionalProcess.from_constant(tree, 0.0),
                 OptionalProcess.from_constant(tree, 1.0),
                 np.array([1.0, 0.0]))
    (sad,) = saddle_points(tree, b, constant_driver(0.0), epsilons=(0.05,)).epsilon_saddles
    assert np.all(sad.tau.steps == 1)
    assert np.all(sad.sigma.steps == 1)
    assert sad.pair_value == pytest.approx(0.5, abs=1e-12)
    assert sad.y_theta == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_epsilon_residuals_stay_proportional(seed):
    sc = random_scenario(seed, n_steps=2)
    rep = saddle_points(sc.tree, sc.barriers, sc.driver,
                        epsilons=(0.1, 0.05, 0.025))
    for sad in rep.epsilon_saddles:
        assert sad.residual_up <= sad.epsilon + 1e-10
        assert sad.residual_down <= sad.epsilon + 1e-10
    ok, quotients = epsilon_ratio_ok(rep.epsilon_saddles)
    assert ok, quotients


# -- exact saddles ------------------------------------------------------------

def test_saddle_report_when_pinned_at_the_root():
    tree, b = _pinned_game()
    rep = saddle_points(tree, b, constant_driver(0.0))
    assert np.all(rep.tau_star.steps == 0)
    assert rep.contacts["star_lower"] <= 1e-12
    assert np.all(rep.sigma_star.steps == tree.n_steps)  # U is never touched
    assert rep.passed(1e-8), rep.residuals


def test_saddle_report_interior_until_horizon():
    tree = build_tree(1, 1.0)
    b = Barriers(OptionalProcess.from_constant(tree, 0.0),
                 OptionalProcess.from_constant(tree, 1.0),
                 np.array([1.0, 0.0]))
    rep = saddle_points(tree, b, constant_driver(0.0))
    assert np.all(rep.tau_star.steps == 1)
    assert np.all(rep.sigma_star.steps == 1)
    assert rep.y_theta == pytest.approx(0.5, abs=1e-12)
    assert rep.passed(1e-8)


def test_action_stop_lands_on_the_reflection_transition():
    # E[xi] = 0.3 < 0.5 forces an upward push on the first diffusion
    # transition, so the first-action stop sits on the interval slot while
    # the first-contact stop already touches at the grid point
    tree = build_tree(1, 1.0)
    lower = _proc(tree, [[0.5], [0.1, 0.1]], [[0.5]])
    upper = _proc(tree, [[2.0], [2.0, 2.0]], [[2.0]])
    b = Barriers(lower, upper, np.array([0.5, 0.1]))
    rep = saddle_points(tree, b, constant_driver(0.0))
    assert np.all(rep.tau_star.steps == 0)
    assert np.all(rep.tau_star.phases == 0)
    assert np.all(rep.tau_bar_attained)
    assert np.all(rep.tau_bar.steps == 0)
    assert np.all(rep.tau_bar.phases == int(Phase.AFTER))
    assert rep.contacts["bar_lower"] <= 1e-12
    assert not np.any(rep.sigma_bar_attained)  # no downward reflection anywhere
    assert rep.order_tau_ok and rep.order_sigma_ok
    assert rep.passed(1e-8), rep.residuals


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_saddle_identities_on_random_scenarios(seed):
    sc = random_scenario(seed, n_steps=2)
    rep = saddle_points(sc.tree, sc.barriers, sc.driver)
    assert rep.order_tau_ok and rep.order_sigma_ok
    assert rep.passed(1e-8), (rep.residuals, rep.warnings)


def test_a_saddle_report_solves_once_and_reads_one_pair_matrix_per_mode(monkeypatch):
    sc = random_scenario(11, n_steps=3, driver_kind="linear", lower_right_usc=True, lower_left_usc=True,
                         upper_right_lsc=True, upper_left_lsc=True)
    calls = []

    def counted(name, size):
        fn = getattr(games, name)

        def wrapper(*args, **kwargs):
            calls.append((name, size(*args)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(games, name, wrapper)

    counted("solve_rbsde", lambda *args: None)
    counted("_subgame_values", lambda *args: len(args[5]))  # the source rows
    rep = saddle_points(sc.tree, sc.barriers, sc.driver, epsilons=(0.1, 0.05))
    assert rep.residuals["star_plain_up"] is not None  # both modes ran
    # the extended and plain pair patterns of depth 3, each solved once
    assert calls.count(("solve_rbsde", None)) == 1
    assert sorted(rows for name, rows in calls if name == "_subgame_values") == [123, 845]
