"""Clamped solver, minimality, envelopes, witness, truncation scheme."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    Barriers,
    BudgetError,
    OptionalProcess,
    RBSDESolution,
    SeparationFailure,
    TransitionIncrements,
    Witness,
    build_tree,
    check_minimality,
    classify_ef,
    constant_driver,
    continuity_analogue,
    linear_driver,
    mokobodzki_witness,
    random_scenario,
    scenario_from_dict,
    snell_envelopes,
    solve_bsde,
    solve_rbsde,
    truncation_scheme,
    verify_dynamics,
)
from rbsde_lab import expectation, reflect


def _const_barriers(tree, low, high, terminal):
    return Barriers(OptionalProcess.from_constant(tree, low),
                    OptionalProcess.from_constant(tree, high),
                    np.full(tree.n_leaves, float(terminal)))


def _proc(tree, at, after):
    return OptionalProcess(tree, [np.asarray(a, dtype=float) for a in at],
                           [np.asarray(a, dtype=float) for a in after])


def _is_zero(incr):
    return all(np.all(a == 0.0) for a in incr.slots)


# -- frozen solves ------------------------------------------------------------

def test_unconstrained_martingale_stays_put():
    tree = build_tree(2, 1.0)
    b = _const_barriers(tree, -1.0, 1.0, 0.0)
    sol = solve_rbsde(tree, b, constant_driver(0.0))
    assert sol.y.sup_abs_diff(OptionalProcess.from_constant(tree, 0.0)) == 0.0
    assert _is_zero(sol.r_plus) and _is_zero(sol.r_minus)


def test_lower_clamp_single_step():
    # y* = E[xi] = 0 < 0.5 = L, so the interval value is pushed up by the
    # step reflection and the grid value needs no further push
    tree = build_tree(1, 1.0)
    lower = _proc(tree, [[0.5], [0.0, 0.0]], [[0.5]])
    upper = _proc(tree, [[2.0], [2.0, 2.0]], [[2.0]])
    b = Barriers(lower, upper, np.zeros(2))
    sol = solve_rbsde(tree, b, constant_driver(0.0))
    assert sol.y.at[0][0] == 0.5
    assert sol.y.after[0][0] == 0.5
    assert sol.r_plus.step[0][0] == 0.5
    assert sol.r_plus.phase[0][0] == 0.0
    assert _is_zero(sol.r_minus)
    assert check_minimality(sol, b).passed


def test_upper_clamp_single_step():
    tree = build_tree(1, 1.0)
    lower = _proc(tree, [[-2.0], [-2.0, -2.0]], [[-2.0]])
    upper = _proc(tree, [[-0.5], [0.0, 0.0]], [[-0.5]])
    b = Barriers(lower, upper, np.zeros(2))
    sol = solve_rbsde(tree, b, constant_driver(0.0))
    assert sol.y.after[0][0] == -0.5
    assert sol.r_minus.step[0][0] == 0.5
    assert _is_zero(sol.r_plus)


def test_barrier_crossing_rejected_with_location():
    tree = build_tree(1, 1.0)
    lower = OptionalProcess.from_constant(tree, 1.0)
    upper = OptionalProcess.from_constant(tree, 0.0)
    with pytest.raises(ValueError, match=r"step 0 \(at\), node 0"):
        Barriers(lower, upper, np.full(2, 0.5))


def test_terminal_sandwich_enforced():
    tree = build_tree(1, 1.0)
    with pytest.raises(ValueError, match="terminal"):
        _const_barriers(tree, -1.0, 1.0, 3.0)


# -- dynamics and increments --------------------------------------------------

def test_increments_balance_dynamics_with_y_dependent_driver():
    # regression: the increment must absorb the driver read at the clamped
    # value, not at the unconstrained root, or the step equation fails
    # wherever clamping binds and f depends on y
    tree = build_tree(2, 0.8)
    lower = OptionalProcess.from_constant(tree, 0.4)
    upper = OptionalProcess.from_constant(tree, 3.0)
    b = Barriers(lower, upper, np.full(4, 0.4))
    drv = linear_driver(const=-1.0, y_coef=-1.2)
    sol = solve_rbsde(tree, b, drv)
    assert sum(np.sum(np.abs(a)) for a in sol.r_plus.slots) > 0.1  # clamping really happened
    rep = verify_dynamics(sol, b, drv, tol=4e-12)
    assert rep.passed, rep


def test_increments_are_exact_zero_off_contact():
    sc = random_scenario(321, n_steps=3, driver_kind="linear")
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    for k in range(3):
        on_lower = sol.y.after[k] == sc.barriers.lower.after[k]
        on_upper = sol.y.after[k] == sc.barriers.upper.after[k]
        assert np.all(sol.r_plus.step[k][~on_lower] == 0.0)
        assert np.all(sol.r_minus.step[k][~on_upper] == 0.0)


def test_reflection_drift_feeds_back_to_the_same_solution():
    # (Y, Z) solves the unreflected equation driven by dR+ - dR-; with the
    # increments read at the clamped value this holds to machine precision
    for seed in (0, 5, 9):
        sc = random_scenario(seed, n_steps=3)
        sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
        drift = TransitionIncrements.from_slots(sc.tree, [p - m for p, m in zip(sol.r_plus.slots, sol.r_minus.slots)])
        fed = solve_bsde(sc.tree, sc.barriers.terminal, sc.driver, dv=drift)
        assert fed.y.sup_abs_diff(sol.y) < 5e-13


def test_verify_dynamics_catches_tampered_solution():
    sc = random_scenario(17, n_steps=2)
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    assert verify_dynamics(sol, sc.barriers, sc.driver, tol=4e-12).passed
    y = OptionalProcess.from_slots(sc.tree, [a.copy() for a in sol.y.slots])
    bad = RBSDESolution(y=y, z=[z.copy() for z in sol.z], r_plus=sol.r_plus, r_minus=sol.r_minus)
    bad.y.after[0][0] += 1e-6
    assert not verify_dynamics(bad, sc.barriers, sc.driver, tol=4e-12).passed


def test_a_nan_at_a_growth_point_fails_the_continuity_check():
    sc = random_scenario(0, n_steps=3, driver_kind="linear")
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    assert sol.r_plus.step[0][0] > 0.0 and continuity_analogue(sol, sc.barriers).passed
    sol.y.after[0][0] = np.nan
    rep = continuity_analogue(sol, sc.barriers)
    assert not rep.passed and np.isnan(rep.step_contact_lower)


@pytest.mark.parametrize("slot", ["z", "r_plus.step", "r_minus.phase", "y.after"])
def test_a_nan_in_a_stored_solution_fails_the_checks(slot):
    # Python's max drops a NaN that is not its first argument, so folding
    # the per-step maxima with it once let a NaN pass
    sc = random_scenario(17, n_steps=2)
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)

    def copied(incr):
        return TransitionIncrements(sc.tree, [a.copy() for a in incr.phase], [a.copy() for a in incr.step])

    y = OptionalProcess.from_slots(sc.tree, [a.copy() for a in sol.y.slots])
    bad = RBSDESolution(y=y, z=[z.copy() for z in sol.z], r_plus=copied(sol.r_plus), r_minus=copied(sol.r_minus))
    {"z": bad.z, "r_plus.step": bad.r_plus.step, "r_minus.phase": bad.r_minus.phase,
     "y.after": bad.y.after}[slot][0][0] = np.nan
    dyn = verify_dynamics(bad, sc.barriers, sc.driver, tol=4e-12)
    assert not dyn.passed
    if slot == "z":
        assert np.isnan(dyn.max_representation_gap)
    else:
        assert not check_minimality(bad, sc.barriers).passed
    if slot == "y.after":
        assert np.isnan(bad.y.sup_abs_diff(sol.y))
        assert np.isnan(bad.y.max_exceedance(sol.y)) and np.isnan(sol.y.max_exceedance(bad.y))


# -- minimality ---------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_solver_output_always_minimal(seed):
    sc = random_scenario(seed)
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    rep = check_minimality(sol, sc.barriers)
    assert rep.passed
    assert rep.max_overlap == 0.0  # mutual singularity is exact, not approximate


def test_minimality_flags_handmade_violation():
    tree = build_tree(1, 1.0)
    b = _const_barriers(tree, -1.0, 1.0, 0.0)
    zeros = [np.zeros(1)]
    grow = [np.array([0.4])]
    sol = RBSDESolution(
        y=OptionalProcess.from_constant(tree, -0.7),
        z=[np.zeros(1)],
        r_plus=TransitionIncrements(tree, zeros, grow),
        r_minus=TransitionIncrements(tree, zeros, zeros),
    )
    rep = check_minimality(sol, b)
    assert not rep.passed
    # dR+ = 0.4 while Y - L = 0.3 on the interval slot
    assert any(abs(v["value"] - 0.12) < 1e-12 for v in rep.violations)


def _with_slot(sol, side, q, node, value):
    """``sol`` with the ``side`` measure's slot ``q`` set to ``value`` at ``node``."""
    slots = [a.copy() for a in getattr(sol, side).slots]
    slots[q][node] = value
    return replace(sol, **{side: TransitionIncrements.from_slots(sol.y.tree, slots)})


# each product's measure, the parity of the slots it reads (phase
# increments pair with AT values, step increments with AFTER values) and
# the gap it multiplies
_PRODUCTS = {
    "step_lower": ("r_plus", 1, lambda y, low, up: y - low),
    "step_upper": ("r_minus", 1, lambda y, low, up: up - y),
    "phase_lower": ("r_plus", 0, lambda y, low, up: y - low),
    "phase_upper": ("r_minus", 0, lambda y, low, up: up - y),
}


@pytest.mark.parametrize("kind", sorted(_PRODUCTS))
def test_a_product_broken_alone_fails_minimality_naming_its_kind(kind):
    # the measure grows at the first slot where its gap is positive and the
    # other measure is 0, so the overlap and sign tests still hold
    sc = random_scenario(3, n_steps=6)
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    assert check_minimality(sol, sc.barriers).passed
    side, parity, gap = _PRODUCTS[kind]
    other = sol.r_plus if side == "r_minus" else sol.r_minus
    low, up = sc.barriers.lower.slots, sc.barriers.upper.slots
    q, node = next((q, int(j)) for q in range(parity, 2 * sc.tree.n_steps, 2)
                   for j in np.flatnonzero((gap(sol.y.slots[q], low[q], up[q]) > 0.0) & (other.slots[q] == 0.0)))
    rep = check_minimality(_with_slot(sol, side, q, node, getattr(sol, side).slots[q][node] + 1e-3), sc.barriers)
    assert not rep.passed and rep.max_product > 1e-10
    assert rep.max_overlap == 0.0 and rep.nonnegative
    assert {v["kind"] for v in rep.violations} == {kind}


@pytest.mark.parametrize("condition", ["overlap", "sign"])
def test_an_increment_where_the_barriers_touch_fails_minimality_on_its_own_field(condition):
    # where L = Y = U both gaps are 0, so no product sees an edit there.
    # The solver pushes down with dR- alone at such a slot; a positive dR+
    # breaks the overlap test only, a negative one the sign test only
    sc = random_scenario(3, touching=True)
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    assert check_minimality(sol, sc.barriers).passed
    low, up = sc.barriers.lower.slots, sc.barriers.upper.slots
    q, node = next((q, int(j)) for q in range(2 * sc.tree.n_steps) for j in np.flatnonzero(low[q] == up[q]))
    assert sol.y.slots[q][node] == low[q][node] and sol.r_plus.slots[q][node] == 0.0 < sol.r_minus.slots[q][node]
    rep = check_minimality(_with_slot(sol, "r_plus", q, node, 1e-3 if condition == "overlap" else -1e-3),
                           sc.barriers)
    assert not rep.passed and rep.max_product <= 1e-10 and rep.violations == []
    if condition == "overlap":
        assert rep.max_overlap == 1e-3 and rep.nonnegative
    else:
        assert rep.max_overlap == 0.0 and not rep.nonnegative


_DYNAMICS_FIELDS = {"step": "max_step_residual", "phase": "max_phase_residual",
                    "representation": "max_representation_gap", "breach": "barrier_breach",
                    "terminal": "terminal_gap"}


def _broken_for(condition, sol, barriers):
    """``sol`` and ``barriers`` with 1e-3 added where only ``condition`` of
    ``verify_dynamics`` reads it."""
    tree, low, up = sol.y.tree, barriers.lower.slots, barriers.upper.slots
    if condition in ("step", "phase"):
        # a positive dR+ sits where Y = L and dR- = 0, so minimality holds
        q, node = next((q, int(j)) for q in range(condition == "step", 2 * tree.n_steps, 2)
                       for j in np.flatnonzero(sol.r_plus.slots[q] > 0.0))
        return _with_slot(sol, "r_plus", q, node, sol.r_plus.slots[q][node] + 1e-3), barriers
    if condition == "representation":  # a constant driver does not read z
        z = [a.copy() for a in sol.z]
        z[0][0] += 1e-3
        return replace(sol, z=z), barriers
    if condition == "breach":
        # L rises above Y on an interval slot where dR+ = 0, so no product sees it
        q, node = next((q, int(j)) for q in range(1, 2 * tree.n_steps, 2)
                       for j in np.flatnonzero((sol.r_plus.slots[q] == 0.0) & (up[q] >= sol.y.slots[q] + 1e-3)))
        lifted = [a.copy() for a in low]
        lifted[q][node] = sol.y.slots[q][node] + 1e-3
        return sol, Barriers(OptionalProcess.from_slots(tree, lifted), barriers.upper, barriers.terminal)
    terminal = barriers.terminal.copy()
    leaf = int(np.flatnonzero(terminal + 1e-3 <= up[-1])[0])
    terminal[leaf] += 1e-3
    return sol, Barriers(barriers.lower, barriers.upper, terminal)


@pytest.mark.parametrize("condition", sorted(_DYNAMICS_FIELDS))
def test_a_dynamics_condition_broken_alone_fails_on_its_own_field(condition):
    sc = random_scenario(3, n_steps=6, driver_kind="constant")
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    assert verify_dynamics(sol, sc.barriers, sc.driver, tol=4e-12).passed
    bad, barriers = _broken_for(condition, sol, sc.barriers)
    rep = verify_dynamics(bad, barriers, sc.driver, tol=4e-12)
    assert not rep.passed and getattr(rep, _DYNAMICS_FIELDS[condition]) > 4e-12
    assert all(getattr(rep, field) <= 4e-12 for name, field in _DYNAMICS_FIELDS.items() if name != condition)
    assert check_minimality(bad, barriers).passed


def test_unreflected_solution_passes_inside_wide_barriers():
    tree = build_tree(2, 0.5)
    rng = np.random.default_rng(4)
    xi = rng.uniform(-0.5, 0.5, 4)
    drv = linear_driver(0.0, -0.5, 0.3)
    plain = solve_bsde(tree, xi, drv)
    zero = TransitionIncrements.from_slots(tree, [np.zeros(tree.nodes_at(q >> 1)) for q in range(2 * tree.n_steps)])
    sol = RBSDESolution(y=plain.y, z=plain.z, r_plus=zero, r_minus=zero)
    b = _const_barriers(tree, -5.0, 5.0, 0.0)
    b = Barriers(b.lower, b.upper, xi)
    assert check_minimality(sol, b).passed
    assert verify_dynamics(sol, b, drv, tol=4e-12).passed


# -- Snell envelopes ----------------------------------------------------------

def test_martingale_barrier_is_its_own_envelope():
    tree = build_tree(2, 1.0)
    xi = np.array([2.0, 0.5, -0.5, 1.0])
    mart = solve_bsde(tree, xi, constant_driver(0.0)).y
    b = Barriers(mart, OptionalProcess.combine(lambda v: v + 1.0, mart), xi + 0.5)
    lhat, _ = snell_envelopes(tree, b)
    assert lhat.sup_abs_diff(mart) == 0.0


def test_deterministic_monotone_barriers():
    # increasing lower barrier: stopping now is optimal, so the lower
    # envelope equals the barrier; increasing upper barrier: wait to the
    # horizon, so the upper envelope is the terminal value everywhere
    tree = build_tree(2, 1.0)
    low = _proc(tree, [[0.0], [1.0, 1.0], [2.0] * 4], [[0.5], [1.5, 1.5]])
    up = _proc(tree, [[10.0], [11.0, 11.0], [12.0] * 4], [[10.5], [11.5, 11.5]])
    b = Barriers(low, up, np.full(4, 2.0))
    lhat, uhat = snell_envelopes(tree, b)
    assert lhat.sup_abs_diff(low) == 0.0
    assert uhat.sup_abs_diff(OptionalProcess.from_constant(tree, 12.0)) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_envelope_ordering_and_supermartingale(seed):
    sc = random_scenario(seed)
    lhat, uhat = snell_envelopes(sc.tree, sc.barriers)
    assert lhat.pointwise_leq(sc.barriers.lower)
    assert sc.barriers.upper.pointwise_leq(uhat)
    neg_lhat = OptionalProcess.combine(lambda v: -v, lhat)
    assert classify_ef(neg_lhat, constant_driver(0.0), mode="brute").is_supermartingale
    assert classify_ef(uhat, constant_driver(0.0), mode="brute").is_supermartingale


# -- separation witness -------------------------------------------------------

def test_constant_band_witness_is_midpoint():
    tree = build_tree(2, 1.0)
    b = _const_barriers(tree, -1.0, 1.0, 0.0)
    wit = mokobodzki_witness(tree, b)
    assert isinstance(wit, Witness)
    # only the mandatory cuts: the time-zero anchor and the horizon
    assert wit.cut_keys.shape == (2, tree.n_leaves)
    assert np.all(wit.cut_keys[0] == 0) and np.all(wit.cut_keys[1] == 2 * tree.n_steps)
    assert wit.x.sup_abs_diff(OptionalProcess.from_constant(tree, 0.0)) == 0.0


def test_touching_at_root_reported():
    tree = build_tree(1, 1.0)
    b = _const_barriers(tree, 0.0, 1.0, 0.5)
    b.upper.at[0][0] = 0.0
    fail = mokobodzki_witness(tree, b)
    assert isinstance(fail, SeparationFailure)
    assert (fail.key, fail.node) == (0, 0)  # AT(0), the root


def test_witness_reanchors_on_exit():
    # the running midpoint from time zero is 0.5; the band later rises to
    # [2, 3], so the witness must cut and re-anchor to stay inside
    tree = build_tree(2, 1.0)
    low = _proc(tree, [[0.0], [2.0, 2.0], [2.0] * 4], [[0.0], [2.0, 2.0]])
    up = _proc(tree, [[1.0], [3.0, 3.0], [3.0] * 4], [[1.0], [3.0, 3.0]])
    b = Barriers(low, up, np.full(4, 2.5))
    wit = mokobodzki_witness(tree, b)
    assert isinstance(wit, Witness)
    assert len(wit.cut_keys) >= 3  # a genuine re-anchor beyond the two mandatory cuts
    assert b.lower.pointwise_leq(wit.x) and wit.x.pointwise_leq(b.upper)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_sandwich_or_correct_failure(seed):
    touch = seed % 2 == 1
    sc = random_scenario(seed, touching=touch)
    out = mokobodzki_witness(sc.tree, sc.barriers)
    if isinstance(out, Witness):
        assert sc.barriers.lower.pointwise_leq(out.x)
        assert out.x.pointwise_leq(sc.barriers.upper)
    else:
        assert 0 <= out.key <= 2 * sc.tree.n_steps and 0 <= out.node < sc.tree.nodes_at(out.key >> 1)
        lv = float(sc.barriers.lower.slots[out.key][out.node])
        uv = float(sc.barriers.upper.slots[out.key][out.node])
        assert lv >= uv


# -- truncation scheme --------------------------------------------------------

def test_truncation_inactive_for_bounded_driver():
    tree = build_tree(2, 0.5)
    b = _const_barriers(tree, -4.0, 4.0, 0.5)
    rep = truncation_scheme(tree, b, constant_driver(2.5), n_max=4, m_max=4)
    assert rep.passed
    # clipping at 4 never bites a constant 2.5; only the root-solve route
    # differs (the wrapper hides linearity), so the gap is solver noise
    assert rep.limit_gap <= 1e-12


def test_truncation_monotone_for_stiff_linear_driver():
    tree = build_tree(2, 0.4)
    b = _const_barriers(tree, -1.0, 1.0, 0.3)
    rep = truncation_scheme(tree, b, linear_driver(y_coef=-5.0), n_max=3, m_max=3)
    assert rep.monotone_n_violation <= 1e-10
    assert rep.monotone_m_violation <= 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_truncation_reaches_reference_on_cubic_drivers(seed):
    sc = random_scenario(seed, n_steps=2, driver_kind="cubic")
    rep = truncation_scheme(sc.tree, sc.barriers, sc.driver)
    assert rep.passed, (rep.monotone_n_violation, rep.monotone_m_violation, rep.limit_gap)
    assert rep.n_gaps[-1] <= 1e-10 and rep.m_gaps[-1] <= 1e-10


def test_cut_step_swaps_barriers_without_moving_the_limit():
    sc = random_scenario(8, n_steps=3, driver_kind="cubic")
    rep = truncation_scheme(sc.tree, sc.barriers, sc.driver, cut_step=1)
    assert rep.passed
    assert rep.n_max >= 3  # enough stages for the cuts to reach the horizon


@pytest.mark.parametrize("kwargs, message", [
    (dict(cut_step=0), "cut_step must be >= 1"),
    (dict(cut_step=-2), "cut_step must be >= 1"),
    (dict(n_max=0), "truncation levels must be >= 1"),
    (dict(m_max=0, cut_step=1), "truncation levels must be >= 1"),
])
def test_bad_ladder_arguments_are_refused_before_the_reference_solve(monkeypatch, kwargs, message):
    # cut_step 0 under default levels once divided by zero after the solve
    sc = random_scenario(3, n_steps=3, driver_kind="linear")

    def solved(*args, **kwargs):
        raise AssertionError("the reference was solved before the arguments were checked")

    monkeypatch.setattr(reflect, "solve_rbsde", solved)
    with pytest.raises(ValueError, match=message):
        truncation_scheme(sc.tree, sc.barriers, sc.driver, **kwargs)


def test_default_level_ladder_above_the_budget_is_refused():
    # a depth-12 cubic draw whose default level is 135: 135 * 135 members of
    # 4096 leaves would stack 7.5e7 elements, several GB during Newton
    sc = random_scenario(6, n_steps=12, driver_kind="cubic")
    with pytest.raises(BudgetError, match=r"n_max=135, m_max=135 .*--n-max/--m-max"):
        truncation_scheme(sc.tree, sc.barriers, sc.driver)
    # the level the ladder benchmark caps at stays far below the budget
    assert truncation_scheme(sc.tree, sc.barriers, sc.driver, n_max=4, m_max=4).n_max == 4


def test_ladder_budget_counts_members_times_leaves(monkeypatch):
    sc = random_scenario(8, n_steps=3, driver_kind="cubic")
    monkeypatch.setattr(expectation, "ELEMENT_BUDGET", 2 * 3 * sc.tree.n_leaves)
    assert truncation_scheme(sc.tree, sc.barriers, sc.driver, n_max=2, m_max=3).m_max == 3
    with pytest.raises(BudgetError, match="n_max=3, m_max=3"):
        truncation_scheme(sc.tree, sc.barriers, sc.driver, n_max=3, m_max=3)

# -- continuity analogue ------------------------------------------------------

def test_no_downward_jump_at_growth_under_left_usc():
    for seed in range(6):
        sc = random_scenario(seed, lower_left_usc=True, upper_left_lsc=True)
        sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
        rep = continuity_analogue(sol, sc.barriers, tol=4e-12)
        assert rep.passed, rep


def test_the_checks_refuse_barriers_on_another_grid():
    sc = random_scenario(3, n_steps=2, driver_kind="linear")
    sol = solve_rbsde(sc.tree, sc.barriers, sc.driver)
    deeper = random_scenario(3, n_steps=4, driver_kind="linear")
    coarser = scenario_from_dict(dict(sc.data, dt=2 * sc.data["dt"]))
    for other in (deeper, coarser):
        for check in (lambda: check_minimality(sol, other.barriers),
                      lambda: verify_dynamics(sol, other.barriers, sc.driver),
                      lambda: continuity_analogue(sol, other.barriers)):
            with pytest.raises(ValueError, match="barriers live on a different grid"):
                check()
