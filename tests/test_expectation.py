"""Backward recursion, the conditional nonlinear operator, and its laws."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsde_lab import (
    EnumerationBoundError,
    OptionalProcess,
    RootSolveError,
    StoppingTime,
    build_tree,
    cfl_margin,
    classify_ef,
    clipped_driver,
    constant_driver,
    gather_slots,
    implicit_step,
    linear_driver,
    polynomial_driver,
    solve_bsde,
    truncated_driver,
)
from rbsde_lab.expectation import (TransitionIncrements, _check_mu, _clip_to_band, _newton_step, _odd_cubic,
                                   _odd_cubic_step, _residual_rows, ef_backward_batch)


# -- frozen one-step solves ---------------------------------------------------

def test_zero_driver_is_martingale_representation():
    tree = build_tree(1, 1.0)
    sol = solve_bsde(tree, tree.brownian(1), constant_driver(0.0))
    assert sol.y.at[0][0] == 0.0
    assert sol.z[0][0] == 1.0
    # Y_up - Y_down = 2 Z sqrt(dt) on the one diffusion transition
    assert sol.y.at[1][0] - sol.y.at[1][1] == 2.0 * sol.z[0][0] * tree.sqrt_dt


def test_minus_y_driver_implicit_half():
    # y = 1 - y across one unit step: y = 0.5, solved in closed form
    tree = build_tree(1, 1.0)
    sol = solve_bsde(tree, np.ones(2), linear_driver(y_coef=-1.0))
    assert sol.y.at[0][0] == pytest.approx(0.5, abs=1e-15)


def test_z_driver_adds_one_step_of_z():
    tree = build_tree(1, 1.0)
    sol = solve_bsde(tree, tree.brownian(1), linear_driver(z_coef=1.0))
    assert sol.z[0][0] == pytest.approx(1.0, abs=1e-15)
    assert sol.y.at[0][0] == pytest.approx(1.0, abs=1e-15)


def _bisection_oracle(driver):
    """The same driver with its structure stripped, so implicit_step bisects."""
    return dataclasses.replace(driver, terms=None, clip=None)


def test_bisection_agrees_with_closed_form():
    # same affine driver solved once in closed form and once with its
    # structure stripped (bisection): values agree to the bracket tol
    tree = build_tree(3, 0.4)
    rng = np.random.default_rng(5)
    xi = rng.normal(size=8)
    a, b, c = 0.3, -0.8, 0.6
    lin = linear_driver(a, b, c)
    s1 = solve_bsde(tree, xi, lin)
    s2 = solve_bsde(tree, xi, _bisection_oracle(lin), tol_root=1e-13)
    assert s1.y.sup_abs_diff(s2.y) < 1e-11


@st.composite
def _structured_drivers(draw):
    """A driver with declared structure, and a dt that keeps the residual's
    slope ``1 - dt * df/dy`` at 0.1 or more.  Bands are scalar or ``(3, 1)``
    columns, one band per row of a ``(3, 40)`` stack."""
    unit = st.floats(-1.0, 1.0)
    a, c = draw(unit), draw(unit)
    b = draw(st.floats(-1.5, 0.5))
    kind = draw(st.sampled_from(["truncated", "clipped_affine", "odd_cubic", "polynomial_z"]))
    if kind == "truncated":
        drv = truncated_driver(a, b, c, draw(st.floats(0.1, 2.0)))
    elif kind == "clipped_affine":
        drv = linear_driver(a, b, c)
    else:
        terms = [(0, 0, a), (1, 0, b), (3, 0, -draw(st.floats(0.1, 3.0)))]
        if kind == "odd_cubic":
            # z enters through z and z**2 alone: the closed form's shape
            terms += [(0, 1, c), (0, 2, draw(st.floats(-0.5, 0.5)))][:draw(st.integers(0, 2))]
        else:
            # z enters through z, z**2 and y*z; |y*z coefficient| * max|z| <= 0.4
            terms += [(0, 1, c), (0, 2, draw(st.floats(-0.5, 0.5))), (1, 1, 0.2 * draw(unit))]
        drv = polynomial_driver(terms, lambda_z=10.0, mu=max(b, 0.0) + 0.4)
    # ladder-style bands, nested twice at most, on any base
    level = st.floats(0.0, 3.0)
    for _ in range(draw(st.integers(1 if kind == "clipped_affine" else 0, 2))):
        if draw(st.booleans()):
            drv = clipped_driver(drv, draw(level), draw(level))
        else:
            drv = clipped_driver(drv, *(np.array(draw(st.lists(level, min_size=3, max_size=3)))[:, None]
                                        for _ in range(2)))
    return drv, draw(st.floats(0.05, 1.0))


@settings(max_examples=150, deadline=None)
@given(_structured_drivers(), st.integers(0, 10_000), st.booleans())
def test_structured_steps_match_bisection(drv_dt, seed, masked):
    """Clip identity, the odd-cubic closed form and Newton agree with
    bisection on the bare fn, and the closed form with Newton too."""
    drv, dt = drv_dt
    rng = np.random.default_rng(seed)
    e = rng.uniform(-3.0, 3.0, (3, 40))
    z = rng.uniform(-2.0, 2.0, (3, 40))
    active = rng.random((3, 40)) < 0.7 if masked else None
    fast = implicit_step(e, z, 0.0, drv, dt, active=active)
    slow = implicit_step(e, z, 0.0, _bisection_oracle(drv), dt, active=active)
    assert np.all(np.abs(fast - slow) <= 1e-13 * np.maximum(1.0, np.abs(slow)))
    if masked:
        assert np.array_equal(fast[~active], e[~active])
    cubic = _odd_cubic(drv.terms, dt)
    if cubic is not None:
        # at this scale the closed form, band included, needs no Newton fallback
        closed = _clip_to_band(_odd_cubic_step(e, z, cubic, dt), e, drv.clip, dt)
        assert not _residual_rows(closed, e, z, 0.0, drv.fn, dt, 1e-12)[1].any()
        newton = _newton_step(e, z, drv.terms, drv.clip, dt)
        newton = newton if active is None else np.where(active, newton, e)
        assert np.all(np.abs(fast - newton) <= 1e-13 * np.maximum(1.0, np.abs(newton)))


def test_odd_cubic_step_fails_no_row_that_newton_solves():
    """On catalogue cubics at scales where the bare closed form misses the
    residual check by its last ulp, no row of a stack fails that Newton
    solves, and a stack whose rows partly fall back to Newton still solves
    bit for bit as each row alone."""
    rng = np.random.default_rng(2024)
    bare_misses = fallbacks = 0
    for scale in (1.0, 1e3, 3e4, 1e5):
        for _ in range(150):
            drv = polynomial_driver([(3, 0, -rng.uniform(0.5, 3.0)), (1, 0, -1.0)], lambda_z=0.0, mu=-1.0)
            dt = rng.uniform(0.01, 1.0)
            e = scale * rng.uniform(-1.0, 1.0, (4, 16))
            z = rng.uniform(-1.0, 1.0, (4, 16))
            a3, a1, _ = _odd_cubic(drv.terms, dt)
            k = np.sqrt(3.0 * a3 / a1)
            bare = 2.0 / k * np.sinh(np.arcsinh(1.5 * k / a1 * e) / 3.0)
            bare_misses += _residual_rows(bare, e, z, 0.0, drv.fn, dt, 1e-12)[1].sum()
            fallbacks += _residual_rows(_odd_cubic_step(e, z, (a3, a1, []), dt),
                                        e, z, 0.0, drv.fn, dt, 1e-12)[1].sum()
            newton_ok = ~_residual_rows(_newton_step(e, z, drv.terms, None, dt),
                                        e, z, 0.0, drv.fn, dt, 1e-12)[1][:, 0]
            alone = [_solved_or_none(e[r], z[r], drv, dt) for r in range(4)]
            assert all(row is not None for row, ok in zip(alone, newton_ok) if ok)
            stacked = _solved_or_none(e, z, drv, dt)
            if any(row is None for row in alone):
                assert stacked is None
            else:
                assert all(stacked[r].tobytes() == alone[r].tobytes() for r in range(4))
    # the draws reach the trap; the one correction clears most of it (698
    # rows miss bare, 44 after it), and the fallback runs on the rest
    assert 0 < 4 * fallbacks < bare_misses


def _solved_or_none(e, z, driver, dt):
    try:
        return implicit_step(e, z, 0.0, driver, dt)
    except RootSolveError:
        return None


@pytest.mark.parametrize("base, exact", [
    (linear_driver(0.3, -1.0, 0.5), True),                                                 # affine closed form
    (polynomial_driver([(3, 0, -1.0), (0, 1, 0.5)], lambda_z=0.5, mu=0.0), True),          # odd-cubic closed form
    (polynomial_driver([(3, 0, -1.0), (2, 0, 0.5), (1, 0, -1.0)], lambda_z=0.0, mu=-0.5), False),  # banded Newton
], ids=["affine", "odd-cubic", "newton"])
def test_a_clipped_root_beyond_the_band_lands_on_its_edge(base, exact):
    """Under ``(R, 1)`` column bands, an element whose unclipped root lies
    beyond its row's band is that edge, bit for bit, and any other element is
    the unclipped root: bit for bit from a closed form, within the iteration's
    tolerance from Newton."""
    rng = np.random.default_rng(35)
    e = 50.0 * rng.uniform(-1.0, 1.0, (3, 64))
    z = rng.uniform(-1.0, 1.0, (3, 64))
    dt = 0.5
    drv = clipped_driver(base, np.array([[0.5], [2.0], [8.0]]), np.array([[1.0], [0.25], [6.0]]))
    free = implicit_step(e, z, 0.0, base, dt)
    got = implicit_step(e, z, 0.0, drv, dt)
    lo, hi = (e + dt * edge for edge in drv.clip)
    below, above = free < lo, free > hi
    assert 150 < (below | above).sum() < e.size
    assert np.array_equal(got[below], lo[below]) and np.array_equal(got[above], hi[above])
    inside = ~(below | above)
    if exact:
        assert np.array_equal(got[inside], free[inside])
    else:
        assert np.all(np.abs(got - free)[inside] <= 1e-13 * np.maximum(1.0, np.abs(free[inside])))


def test_structure_that_disagrees_with_fn_raises():
    e = np.linspace(-2.0, 2.0, 9)
    z = np.linspace(1.0, -1.0, 9)
    cubic = polynomial_driver([(3, 0, -1.0), (1, 0, -1.0)], lambda_z=0.0, mu=-1.0)
    wrong_terms = dataclasses.replace(cubic, terms=((3, 0, -2.0), (1, 0, -1.0)))
    wrong_band = dataclasses.replace(truncated_driver(0.5, -1.0, 0.0, 1.0), clip=(-0.25, 0.25))
    for drv in (wrong_terms, wrong_band, clipped_driver(wrong_terms, 1.0, 1.0)):
        with pytest.raises(RootSolveError, match="residual"):
            implicit_step(e, z, 0.0, drv, 0.5)
    implicit_step(e, z, 0.0, cubic, 0.5)  # the honest declaration solves


@pytest.mark.parametrize("driver", [
    linear_driver(0.3, -1.0, 0.5),                                    # closed form
    truncated_driver(0.3, -1.0, 0.5, 0.2),                            # clip identity
    polynomial_driver([(3, 0, -1.0), (1, 0, -1.0)], lambda_z=0.0, mu=-1.0),  # odd-cubic closed form
    polynomial_driver([(3, 0, -1.0), (2, 0, 0.1), (1, 0, -1.0)], lambda_z=0.0, mu=-0.99),  # Newton
    _bisection_oracle(polynomial_driver([(3, 0, -1.0)], lambda_z=0.0, mu=0.0)),  # bisection
], ids=["closed-form", "clip", "odd-cubic", "newton", "bisection"])
@pytest.mark.parametrize("active", [None, np.bool_(True), np.bool_(False)])
def test_zero_d_input_solves_as_one_row_of_one(driver, active):
    got = implicit_step(np.float64(0.7), np.float64(0.3), 0.0, driver, 0.5, active=active)
    row = implicit_step(np.array([[0.7]]), np.array([[0.3]]), 0.0, driver, 0.5,
                        active=None if active is None else np.array([[active]]))
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert got.tobytes() == row.tobytes()
    if active is not None and not active:
        assert got == 0.7


def test_clipped_driver_composes_bands():
    base = truncated_driver(0.0, -1.0, 0.0, bound=2.0)
    assert clipped_driver(base, 1.0, 1.0).clip == (-1.0, 1.0)
    # disjoint bands collapse to the nearer edge of the outer one
    assert clipped_driver(clipped_driver(base, -3.0, 4.0), 1.0, 1.0).clip == (1.0, 1.0)
    ys = np.linspace(-5.0, 5.0, 21)
    vals = clipped_driver(clipped_driver(base, -3.0, 4.0), 1.0, 1.0)(0.0, ys, np.zeros_like(ys))
    assert np.all(vals == 1.0)


def test_implicit_step_inactive_mask_is_identity():
    e = np.array([0.4, -0.2])
    z = np.zeros(2)
    out = implicit_step(e, z, 0.0, linear_driver(const=5.0), 1.0,
                        active=np.array([False, True]))
    assert out[0] == 0.4
    assert out[1] == pytest.approx(4.8)


def test_explosive_monotonicity_rejected():
    tree = build_tree(1, 1.0)
    with pytest.raises(ValueError, match="ill-posed"):
        solve_bsde(tree, np.zeros(2), linear_driver(y_coef=1.0))
    _check_mu(linear_driver(y_coef=0.5), 1.0)  # strictly below 1/dt is fine


def test_driver_spot_check_flags_misdeclared_constants():
    honest = linear_driver(0.0, -1.0, 2.0)
    report = honest.spot_check()
    assert report["lipschitz_z"] <= 1e-9 and report["monotone_y"] <= 1e-9
    lying = polynomial_driver([(0, 1, 2.0)], lambda_z=1.0, mu=0.0)  # true slope 2
    with pytest.raises(ValueError, match="lipschitz_z"):
        lying.spot_check()


@pytest.mark.parametrize("k", [-30, -10, 10, 17, 30])
def test_driver_spot_check_verdicts_do_not_depend_on_units(k):
    # a driver and its declared constants scaled by 2**k, which is exact:
    # the honest drivers pass with the unscaled report, bit for bit, and the
    # ones that understate lambda_z or mu fail at every scale
    def honest(s):
        return [linear_driver(0.0, -s, 2.0 * s), truncated_driver(0.5 * s, -s, 2.0 * s, s),
                polynomial_driver([(1, 0, 3.0 * s), (0, 1, 10.0 * s)], lambda_z=10.0 * s, mu=3.0 * s),
                polynomial_driver([(3, 0, -s), (0, 0, s)], lambda_z=0.0, mu=0.0)]

    scale = 2.0**k
    for driver, unscaled in zip(honest(scale), honest(1.0)):
        assert driver.spot_check() == unscaled.spot_check()
    with pytest.raises(ValueError, match="lipschitz_z"):
        polynomial_driver([(0, 1, 2.0 * scale)], lambda_z=scale, mu=0.0).spot_check()
    with pytest.raises(ValueError, match="monotone_y"):
        polynomial_driver([(1, 0, 3.0 * scale), (0, 1, 10.0 * scale)], lambda_z=10.0 * scale, mu=-scale).spot_check()


def test_driver_spot_check_fails_on_nan_and_non_finite_values():
    # a NaN worst case compares false with the tolerance, and must still fail
    nan_mu = dataclasses.replace(linear_driver(0.0, -1.0, 2.0), mu=float("nan"))
    with pytest.raises(ValueError, match="violates declared monotone_y bound by nan"):
        nan_mu.spot_check()
    overflow = polynomial_driver([(40000, 0, 1.0)], lambda_z=0.0, mu=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="not finite on the spot-check samples"):
            overflow.spot_check()
    assert not caught


def test_cfl_margin_reports_headroom():
    tree = build_tree(2, 0.25)
    assert cfl_margin(linear_driver(z_coef=1.0), tree) == pytest.approx(0.5)
    assert cfl_margin(linear_driver(z_coef=2.0), tree) == pytest.approx(0.0)


# -- conditional operator -----------------------------------------------------

def _conditional(tree, alpha, beta, rows, driver):
    """The nonlinear expectation of each row of ``rows`` (per leaf) over
    ``[[alpha, beta]]``, read at ``alpha``: one batch row per data row, its
    driver frozen from ``beta`` on."""
    rows = np.atleast_2d(rows)
    vals = ef_backward_batch(tree, driver, rows, np.broadcast_to(beta.keys, rows.shape))
    return gather_slots(vals, alpha.keys)


def test_zero_driver_reduces_to_conditional_expectation():
    tree = build_tree(1, 1.0)
    alpha = StoppingTime.constant(tree, 0)
    beta = StoppingTime.constant(tree, 2)
    out = _conditional(tree, alpha, beta, tree.brownian(1), constant_driver(0.0))[0]
    np.testing.assert_allclose(out, [0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_comparison_property(seed, n):
    """xi1 <= xi2 path-wise forces ordered operator outputs."""
    rng = np.random.default_rng(seed)
    tree = build_tree(n, float(rng.uniform(0.2, 1.0)))
    drv = linear_driver(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.0, 0.4)),
                        float(rng.uniform(-0.8, 0.8)) / tree.sqrt_dt)
    xi1 = rng.normal(size=tree.n_leaves)
    xi2 = xi1 + rng.uniform(0.0, 1.0, size=tree.n_leaves)
    alpha = StoppingTime.constant(tree, 0)
    beta = StoppingTime.constant(tree, 2 * n)
    v1, v2 = _conditional(tree, alpha, beta, [xi1, xi2], drv)
    assert np.all(v1 <= v2 + 1e-12)


def test_locality_on_atoms():
    # masking with an atom indicator equals masking driver and data, for a
    # driver that vanishes at (0, 0)
    tree = build_tree(2, 0.5)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=4)
    drv = linear_driver(0.0, -0.7, 0.5)
    alpha = StoppingTime.constant(tree, 2)
    beta = StoppingTime.constant(tree, 4)
    full = _conditional(tree, alpha, beta, xi, drv)[0]
    for node in range(2):  # atoms of F_alpha
        ind = np.zeros(4)
        ind[2 * node:2 * node + 2] = 1.0
        masked = _conditional(tree, alpha, beta, xi * ind, drv)[0]
        np.testing.assert_allclose(ind * full, ind * masked, atol=1e-12)


def test_horizon_extension_with_dead_driver_is_free():
    tree = build_tree(3, 0.5)
    rng = np.random.default_rng(2)
    xi_small = rng.normal(size=2)
    drv = linear_driver(0.4, -0.9, 0.7)
    small = build_tree(1, 0.5)
    direct = _conditional(small, StoppingTime.constant(small, 0),
                          StoppingTime.constant(small, 2), xi_small, drv)[0]
    # same data on the deeper tree, beta frozen at step 1
    xi_big = np.repeat(xi_small, 4)
    ext = _conditional(tree, StoppingTime.constant(tree, 0),
                       StoppingTime.constant(tree, 2), xi_big, drv)[0]
    assert abs(direct[0] - ext[0]) < 1e-12


# -- classification -----------------------------------------------------------

def test_conditional_expectation_process_is_martingale():
    tree = build_tree(2, 1.0)
    xi = np.array([3.0, 1.0, -1.0, 0.5])
    sol = solve_bsde(tree, xi, constant_driver(0.0))
    res = classify_ef(sol.y, constant_driver(0.0))
    assert res.verdict == "martingale"


def test_drift_sign_sets_classification():
    # a positive dV lifts every earlier value above the plain expectation of
    # the next one, i.e. the value decays forward: a supermartingale
    tree = build_tree(2, 1.0)
    xi = np.zeros(4)
    drift = TransitionIncrements(tree, [np.full(tree.nodes_at(k), 0.1) for k in range(2)],
                                 [np.full(tree.nodes_at(k), 0.1) for k in range(2)])
    raised = solve_bsde(tree, xi, constant_driver(0.0), dv=drift)
    res = classify_ef(raised.y, constant_driver(0.0))
    assert res.verdict == "supermartingale" and not res.is_submartingale
    negated = TransitionIncrements.from_slots(tree, [-a for a in drift.slots])
    lowered = solve_bsde(tree, xi, constant_driver(0.0), dv=negated)
    assert classify_ef(lowered.y, constant_driver(0.0)).verdict == "submartingale"


def test_drift_from_another_grid_is_refused():
    # a depth-5 drift has a depth-3 drift's shapes at steps 0-2, and a drift
    # on another dt has them everywhere: only the grid check tells them apart
    tree = build_tree(3, 0.1)
    for other in (build_tree(5, 0.1), build_tree(3, 0.5)):
        ones = [np.ones(other.nodes_at(k)) for k in range(other.n_steps)]
        with pytest.raises(ValueError, match="drift lives on a different grid"):
            solve_bsde(tree, np.zeros(8), linear_driver(), dv=TransitionIncrements(other, ones, ones))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_onestep_and_brute_classification_agree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    tree = build_tree(n, float(rng.uniform(0.3, 1.0)))
    proc = OptionalProcess(tree, [rng.normal(size=tree.nodes_at(k)) for k in range(n + 1)],
                           [rng.normal(size=tree.nodes_at(k)) for k in range(n)])
    drv = linear_driver(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-1.0, 0.3)),
                        float(rng.uniform(-0.5, 0.5)) / tree.sqrt_dt)
    one = classify_ef(proc, drv, mode="onestep")
    brute = classify_ef(proc, drv, mode="brute")
    assert one.verdict == brute.verdict


def test_classification_window_restricts_to_the_given_slice():
    tree = build_tree(2, 1.0)
    # martingale on [1, 2] but broken on the first step
    xi = np.array([2.0, 0.0, 0.0, -2.0])
    sol = solve_bsde(tree, xi, constant_driver(0.0))
    bad = OptionalProcess.from_slots(tree, [a.copy() for a in sol.y.slots])
    bad.at[0][0] += 5.0
    full = classify_ef(bad, constant_driver(0.0))
    assert full.verdict != "martingale"
    tail = classify_ef(bad, constant_driver(0.0),
                       from_time=StoppingTime.constant(tree, 2),
                       to_time=StoppingTime.constant(tree, 4))
    assert tail.verdict == "martingale"


def test_brute_classification_refuses_deep_trees():
    tree = build_tree(5, 0.2)
    proc = OptionalProcess.from_constant(tree, 1.0)
    with pytest.raises(EnumerationBoundError):
        classify_ef(proc, constant_driver(0.0), mode="brute")


def test_truncated_driver_bounds_and_caps():
    drv = truncated_driver(0.0, -2.0, 1.0, bound=0.5)
    ys = np.linspace(-5, 5, 41)
    vals = drv(0.0, ys, np.zeros_like(ys))
    assert np.max(np.abs(vals)) <= 0.5
    assert drv.lambda_z == 1.0


def test_stability_gap_shrinks_with_perturbation():
    # qualitative only: halving the data gap cannot grow the value gap
    tree = build_tree(2, 0.5)
    rng = np.random.default_rng(9)
    xi = rng.normal(size=4)
    drv = linear_driver(0.1, -0.6, 0.4)
    base = solve_bsde(tree, xi, drv).y
    gaps = []
    for h in (0.4, 0.2, 0.1, 0.05):
        pert = solve_bsde(tree, xi + h, linear_driver(0.1 + h, -0.6, 0.4)).y
        gaps.append(base.sup_abs_diff(pert))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0]


def test_onestep_classification_fails_on_a_nan():
    # a NaN in the process was dropped by the fold of the per-step maxima
    tree = build_tree(2, 0.5)
    proc = OptionalProcess.from_constant(tree, 1.0)
    assert classify_ef(proc, constant_driver(0.0)).verdict == "martingale"
    proc.after[1][0] = np.nan
    res = classify_ef(proc, constant_driver(0.0), mode="onestep")
    assert res.verdict == "neither" and not res.is_supermartingale and not res.is_submartingale
    assert np.isnan(res.max_super_violation) and np.isnan(res.max_sub_violation)
