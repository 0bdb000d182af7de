"""Doubly reflected backward equations between two optional barriers.

The solver never constructs reflection terms a priori: each backward
transition first solves the unconstrained implicit step, then clamps into
the barrier interval, and the clamped distance *is* the reflection
increment.  Complementarity (the increment acts only where the value sits
on its barrier) and mutual singularity (at most one side acts per
transition) hold by construction; :func:`check_minimality` re-derives them
from the stored solution so a corrupted or reloaded solution cannot pass by
fiat.

Reflection increments on the diffusion transition AFTER(k) -> AT(k+1) are
predictable (per step-k parent) and are paired with the interval values
``(Y, L, U)`` at AFTER(k) — the grid reading of the left-limit pairing in
the minimality condition.  Increments on the phase transition AT(k) ->
AFTER(k) are paired with the values at AT(k).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import expectation
from .expectation import (
    BudgetError,
    Driver,
    TransitionIncrements,
    _check_mu,
    constant_driver,
    implicit_step,
)
from .lattice import OptionalProcess, Phase, TwoPhaseTree, is_adapted, nan_max

__all__ = [
    "Barriers",
    "RBSDESolution",
    "MinimalityReport",
    "DynamicsReport",
    "Witness",
    "SeparationFailure",
    "TruncationReport",
    "ContinuityAnalogueReport",
    "solve_rbsde",
    "continuity_analogue",
    "check_minimality",
    "verify_dynamics",
    "snell_envelopes",
    "mokobodzki_witness",
    "truncation_scheme",
    "growth_points",
    "clipped_driver",
]


@dataclass
class Barriers:
    """Lower/upper obstacle processes plus the terminal variable.

    Requires ``lower <= upper`` at every (node, phase) and the terminal
    sandwich ``lower_T <= terminal <= upper_T`` on every leaf.
    """

    lower: OptionalProcess
    upper: OptionalProcess
    terminal: np.ndarray

    def __post_init__(self) -> None:
        if not self.lower.tree.same_grid(self.upper.tree):
            raise ValueError("barriers live on different grids")
        self.terminal = np.asarray(self.terminal, dtype=float)
        tree = self.lower.tree
        if self.terminal.shape != (tree.n_leaves,):
            raise ValueError("terminal must have one value per leaf")
        for key, (lv, uv) in enumerate(zip(self.lower.slots, self.upper.slots)):
            bad = np.nonzero(lv > uv)[0]
            if bad.size:
                name = "at" if key & 1 == 0 else "after"
                raise ValueError(f"lower barrier exceeds upper barrier at step {key >> 1} "
                                 f"({name}), node {int(bad[0])}")
        if np.any(self.terminal < self.lower.terminal) or np.any(self.terminal > self.upper.terminal):
            raise ValueError("terminal variable leaves the barrier interval at the horizon")

    @property
    def tree(self) -> TwoPhaseTree:
        return self.lower.tree

    def restrict(self, step: int, node: int) -> "Barriers":
        stride = self.tree.leaf_stride(step)
        return Barriers(self.lower.restrict(step, node), self.upper.restrict(step, node),
                        self.terminal[node * stride:(node + 1) * stride].copy())


@dataclass
class RBSDESolution:
    """Reflected solution: value, integrand and the two reflection measures."""

    y: OptionalProcess
    z: list[np.ndarray]
    r_plus: TransitionIncrements
    r_minus: TransitionIncrements

    def reflection_drift(self) -> TransitionIncrements:
        """Net signed increments ``dR+ - dR-`` (feedable back to solve_bsde)."""
        return self.r_plus.combine(self.r_minus, sign=-1.0)


def solve_rbsde(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, *,
                step_offset: int = 0, tol_root: float = 1e-12) -> RBSDESolution:
    """Backward clamped solve of the doubly reflected equation."""
    if not tree.same_grid(barriers.tree):
        raise ValueError("barriers live on a different grid")
    steps = _reflected_pass(tree, barriers.terminal, barriers.lower.slots, barriers.upper.slots, driver,
                            step_offset=step_offset, tol_root=tol_root)
    # the pass yields from the horizon back; each column is reversed to start at step 0
    z, after, at, rp_step, rm_step, rp_phase, rm_phase = (list(col)[::-1] for col in zip(*steps))
    return RBSDESolution(
        y=OptionalProcess(tree, at + [barriers.terminal.copy()], after),
        z=z,
        r_plus=TransitionIncrements(tree, rp_phase, rp_step),
        r_minus=TransitionIncrements(tree, rm_phase, rm_step),
    )


def _reflected_pass(tree: TwoPhaseTree, terminal: np.ndarray, lower: list[np.ndarray],
                    upper: list[np.ndarray], driver: Driver, *, step_offset: int,
                    tol_root: float) -> Iterator[tuple[np.ndarray, ...]]:
    """The backward clamped pass over slot arrays whose leading axes are rows.

    ``lower[key]`` and ``upper[key]`` are the barrier slots in order-key
    order (``2k`` is AT(k), ``2k + 1`` is AFTER(k)); they, and the driver's
    band, broadcast against ``terminal``, which fixes the rows.  Yields, for
    ``k = N-1`` down to 0, the integrand, the AFTER(k) and AT(k) values and
    the step and phase increments of R+ and R-, so a caller keeps only what
    it reads.  Each row comes out bit-identical to its solo pass, because
    :func:`implicit_step` decides everything per row.
    """
    _check_mu(driver, tree.dt)
    dt = tree.dt
    nxt = terminal
    for k in range(tree.n_steps - 1, -1, -1):
        e, z = tree.children(nxt)
        t_k = (step_offset + k) * dt
        unconstrained = implicit_step(e, z, t_k, driver, dt, tol=tol_root)
        after = np.clip(unconstrained, lower[2 * k + 1], upper[2 * k + 1])
        # the increment balances the step at the clamped value, so the
        # driver must be re-read there; off contact both sides stay an
        # exact zero rather than inheriting root-solve noise
        residual = after - e - dt * driver(t_k, after, z)
        rp_step = np.where(after > unconstrained, np.maximum(residual, 0.0), 0.0)
        rm_step = np.where(after < unconstrained, np.maximum(-residual, 0.0), 0.0)
        nxt = np.clip(after, lower[2 * k], upper[2 * k])
        yield z, after, nxt, rp_step, rm_step, np.maximum(nxt - after, 0.0), np.maximum(after - nxt, 0.0)


@dataclass
class MinimalityReport:
    passed: bool
    max_product: float
    max_overlap: float
    nonnegative: bool
    violations: list[dict] = field(default_factory=list)


def check_minimality(solution: RBSDESolution, barriers: Barriers, tol_comp: float = 1e-10) -> MinimalityReport:
    """Independent re-check of complementarity and mutual singularity.

    Four products per transition family: the diffusion increments pair with
    the interval values at AFTER(k); the phase increments pair with the
    values at AT(k).  Mutual singularity ``min(dR+, dR-) = 0`` is required
    exactly, not to tolerance.
    """
    tree = solution.y.tree
    if not tree.same_grid(barriers.tree):
        raise ValueError("barriers live on a different grid")
    low, up = barriers.lower, barriers.upper
    y = solution.y
    worst = 0.0
    overlap = 0.0
    nonneg = solution.r_plus.is_nonnegative() and solution.r_minus.is_nonnegative()
    violations: list[dict] = []

    def record(kind: str, step: int, node: int, value: float) -> None:
        nonlocal worst
        worst = nan_max([worst, abs(value)])
        if not abs(value) <= tol_comp and len(violations) < 32:
            violations.append({"kind": kind, "step": step, "node": node, "value": float(value)})

    for k in range(tree.n_steps):
        prods = {
            "step_lower": (y.after[k] - low.after[k]) * solution.r_plus.step[k],
            "step_upper": (up.after[k] - y.after[k]) * solution.r_minus.step[k],
            "phase_lower": (y.at[k] - low.at[k]) * solution.r_plus.phase[k],
            "phase_upper": (up.at[k] - y.at[k]) * solution.r_minus.phase[k],
        }
        for kind, arr in prods.items():
            j = int(np.argmax(np.abs(arr)))
            record(kind, k, j, float(arr[j]))
        overlap = nan_max([overlap,
                           float(np.max(np.minimum(solution.r_plus.step[k], solution.r_minus.step[k]))),
                           float(np.max(np.minimum(solution.r_plus.phase[k], solution.r_minus.phase[k])))])
    passed = worst <= tol_comp and overlap == 0.0 and nonneg
    return MinimalityReport(passed=passed, max_product=worst, max_overlap=overlap,
                            nonnegative=nonneg, violations=violations)


@dataclass
class DynamicsReport:
    passed: bool
    max_step_residual: float
    max_phase_residual: float
    max_representation_gap: float
    barrier_breach: float
    terminal_gap: float


def verify_dynamics(solution: RBSDESolution, barriers: Barriers, driver: Driver, *,
                    tol: float = 1e-12) -> DynamicsReport:
    """Residuals of the reflected one-step equations, evaluated directly.

    Works on any stored solution (including one reloaded from a dump), so
    round-trips can be re-verified without re-solving.
    """
    tree = solution.y.tree
    if not tree.same_grid(barriers.tree):
        raise ValueError("barriers live on a different grid")
    y = solution.y
    step_res, phase_res, rep = [0.0], [0.0], [0.0]
    for k in range(tree.n_steps):
        e, z_implied = tree.children(y.at[k + 1])
        rep.append(float(np.max(np.abs(z_implied - solution.z[k]))))
        f_val = driver.fn(tree.time(k), y.after[k], solution.z[k])
        resid = y.after[k] - e - tree.dt * f_val - solution.r_plus.step[k] + solution.r_minus.step[k]
        step_res.append(float(np.max(np.abs(resid))))
        presid = y.at[k] - y.after[k] - solution.r_plus.phase[k] + solution.r_minus.phase[k]
        phase_res.append(float(np.max(np.abs(presid))))
    step_res, phase_res, rep = nan_max(step_res), nan_max(phase_res), nan_max(rep)
    breach = nan_max([barriers.lower.max_exceedance(y), y.max_exceedance(barriers.upper)])
    terminal_gap = float(np.max(np.abs(y.terminal - barriers.terminal)))
    passed = nan_max([step_res, phase_res, rep, breach, terminal_gap]) <= tol
    return DynamicsReport(passed=passed, max_step_residual=step_res, max_phase_residual=phase_res,
                          max_representation_gap=rep, barrier_breach=max(breach, 0.0),
                          terminal_gap=terminal_gap)


def snell_envelopes(tree: TwoPhaseTree, barriers: Barriers) -> tuple[OptionalProcess, OptionalProcess]:
    """Smallest supermartingale above -L and above U, under the plain
    (driverless) expectation: the lower envelope minimises over stopping
    points, the upper one maximises.  Phase points participate: the AT
    envelope also sees the interval slot of the same step.

    Each envelope is the reflected solution with the zero driver, its own
    barrier as terminal value and obstacle, and the other obstacle at
    infinity (the optimal-stopping reading of the reflected equation)."""
    low, up = barriers.lower.slots, barriers.upper.slots

    def envelope(lower: list, upper: list, terminal: np.ndarray) -> OptionalProcess:
        # value slots from the horizon back: AT(N), AFTER(N-1), AT(N-1), ...
        y = [terminal.copy()]
        for _, after, at, *_ in _reflected_pass(tree, terminal, lower, upper, constant_driver(0.0),
                                                step_offset=0, tol_root=1e-12):
            y += (after, at)
        return OptionalProcess.from_slots(tree, y[::-1])

    return envelope([-np.inf] * len(low), low, low[-1]), envelope(up, [np.inf] * len(up), up[-1])


@dataclass(frozen=True)
class SeparationFailure:
    """Strict separation fails at this point (lower >= upper)."""

    step: int
    phase: Phase
    node: int
    lower: float
    upper: float


@dataclass
class Witness:
    """Midpoint semimartingale lying between the barriers, plus its cut
    times: row ``i`` of ``cut_keys`` (cuts, leaves) holds each path's
    ``i``-th cut key, padded with the horizon's."""

    x: OptionalProcess
    cut_keys: np.ndarray


def mokobodzki_witness(tree: TwoPhaseTree, barriers: Barriers) -> Witness | SeparationFailure:
    """Construct the piecewise-midpoint process between strictly separated
    barriers, or report the first point where strict separation fails.

    Cut times restart the anchor: the process holds the interval midpoint
    ``(L + U)/2`` read just after the previous cut until that anchor first
    exits the moving band strictly; each cut point itself takes the local
    midpoint.  The horizon always takes the local midpoint.
    """
    low, up = barriers.lower, barriers.upper
    n = tree.n_steps
    for key, (lv, uv) in enumerate(zip(low.slots, up.slots)):
        bad = np.nonzero(lv >= uv)[0]
        if bad.size:
            j = int(bad[0])
            return SeparationFailure(step=key >> 1, phase=Phase(key & 1), node=j,
                                     lower=float(lv[j]), upper=float(uv[j]))
    # the anchor depends only on the path prefix, so it is carried per node
    x_slots: list[np.ndarray] = []
    anchor = np.full(1, np.nan)
    n_cuts = np.zeros(1, dtype=np.int64)
    cut_log = []  # (key, cut nodes, ordinal of this cut on their paths)
    for key, (lv, uv) in enumerate(zip(low.slots, up.slots)):
        step = key >> 1
        if key & 1 == 0 and step > 0:
            anchor, n_cuts = np.repeat(anchor, 2), np.repeat(n_cuts, 2)
        is_cut = (anchor < lv) | (anchor > uv)
        if key == 0 or key == 2 * n:
            is_cut[:] = True
        x_slots.append(np.where(is_cut, 0.5 * (lv + uv), anchor))
        if step < n:
            anchor = np.where(is_cut, 0.5 * (low.slots[2 * step + 1] + up.slots[2 * step + 1]), anchor)
        nodes = np.flatnonzero(is_cut)
        cut_log.append((key, nodes, n_cuts[nodes]))
        n_cuts[nodes] += 1
    x = OptionalProcess.from_slots(tree, x_slots)
    if not (low.pointwise_leq(x) and x.pointwise_leq(up)):  # pragma: no cover - construction guarantees it
        raise AssertionError("witness left the barrier band")
    # row i holds each leaf's i-th cut key, padded with the horizon
    max_cuts = int(n_cuts.max())
    rows = np.full((max_cuts, tree.n_leaves), 2 * n, dtype=np.int64)
    for key, nodes, ordinal in cut_log:
        rows.reshape(max_cuts, tree.nodes_at(key >> 1), -1)[ordinal, nodes] = key
    if not is_adapted(rows).all():  # pragma: no cover - construction guarantees it
        raise AssertionError("witness cut keys are not stopping times")
    return Witness(x=x, cut_keys=rows)


def growth_points(incr: TransitionIncrements) -> OptionalProcess:
    """Indicator process of reflection growth, attributed to each
    transition's left endpoint: phase increments flag AT(k), diffusion
    increments flag AFTER(k)."""
    return OptionalProcess.from_slots(incr.tree, [np.asarray(a > 0.0, dtype=float) for a in incr.slots]
                                      + [np.zeros(incr.tree.n_leaves)])


@dataclass
class ContinuityAnalogueReport:
    """Jump behaviour of Y across reflection-growth transitions.

    A diffusion-transition growth of R+ pins Y to the lower barrier on the
    interval slot (``step_contact_*``, restating minimality).  When the
    lower barrier is left-USC across the following grid time, Y cannot jump
    downward over that transition (``downward_jump_lower``); symmetric for
    R- and a left-LSC upper barrier with upward jumps.  The jump checks are
    only accumulated on edges where the needed one-sided inequality holds,
    so the report stays meaningful on barriers with mixed regularity;
    ``*_edges_checked`` counts how many growth edges that covered.
    """

    passed: bool
    step_contact_lower: float
    step_contact_upper: float
    downward_jump_lower: float
    upward_jump_upper: float
    lower_edges_checked: int
    upper_edges_checked: int


def continuity_analogue(solution: RBSDESolution, barriers: Barriers,
                        tol: float = 1e-12) -> ContinuityAnalogueReport:
    """Check the no-jump consequences of minimality at growth transitions."""
    y, low, up = solution.y, barriers.lower, barriers.upper
    if not y.tree.same_grid(barriers.tree):
        raise ValueError("barriers live on a different grid")
    # per step, the worst of each measure, floored at 0; folded with nan_max
    # so that a NaN fails the check
    worst: list[list[float]] = [[0.0], [0.0], [0.0], [0.0]]
    n_l = n_u = 0
    for k in range(y.tree.n_steps):
        grow_p = solution.r_plus.step[k] > 0.0
        grow_m = solution.r_minus.step[k] > 0.0
        # growth edges across which the barrier is left-semicontinuous
        gp = np.repeat(grow_p, 2) & (np.repeat(low.after[k], 2) <= low.at[k + 1])
        gm = np.repeat(grow_m, 2) & (np.repeat(up.after[k], 2) >= up.at[k + 1])
        n_l += int(gp.sum())
        n_u += int(gm.sum())
        jump = y.at[k + 1] - np.repeat(y.after[k], 2)
        gaps = (np.abs(y.after[k] - low.after[k]), np.abs(up.after[k] - y.after[k]), -jump, jump)
        for out, gap, where in zip(worst, gaps, (grow_p, grow_m, gp, gm)):
            out.append(float(np.max(gap[where], initial=0.0)))
    contact_l, contact_u, down_l, up_u = (nan_max(w) for w in worst)
    return ContinuityAnalogueReport(passed=nan_max([contact_l, contact_u, down_l, up_u]) <= tol,
                                    step_contact_lower=contact_l, step_contact_upper=contact_u,
                                    downward_jump_lower=down_l, upward_jump_upper=up_u,
                                    lower_edges_checked=n_l, upper_edges_checked=n_u)


def clipped_driver(driver: Driver, lower_level: float | np.ndarray,
                   upper_level: float | np.ndarray) -> Driver:
    """``max(min(f, upper_level), -lower_level)``: the truncation grid member.

    Clipping is monotone and 1-Lipschitz, so the z-Lipschitz constant
    carries over and the monotonicity constant can only move toward zero.
    The polynomial ``terms`` carry over too, and a band ``(a, b)`` already
    on the driver composes with the new one ``(lo, hi)`` into
    ``(min(max(a, lo), hi), max(min(b, hi), lo))``.  The levels may be
    ``(R, 1)`` columns: row ``r`` of a stacked solve then takes the levels
    of row ``r``.
    """
    lo, hi = -np.asarray(lower_level, dtype=float), np.asarray(upper_level, dtype=float)
    if np.any(lo > hi):
        raise ValueError("empty truncation band")
    band = (lo, hi)
    if driver.clip is not None:
        a, b = driver.clip
        band = (np.minimum(np.maximum(a, lo), hi), np.maximum(np.minimum(b, hi), lo))
    base = driver.fn
    levels = f"{lo:g},{hi:g}" if np.ndim(lo) == np.ndim(hi) == 0 else "rows"
    return Driver(fn=lambda t, y, z: np.clip(base(t, y, z), lo, hi),
                  lambda_z=driver.lambda_z, mu=max(driver.mu, 0.0),
                  tag=f"{driver.tag}|clip[{levels}]", terms=driver.terms, clip=band)


@dataclass
class TruncationReport:
    n_max: int
    m_max: int
    cut_step: int | None
    monotone_n_violation: float
    monotone_m_violation: float
    limit_gap: float
    n_gaps: list[float]
    m_gaps: list[float]
    passed: bool
    y_limit: OptionalProcess


def truncation_scheme(tree: TwoPhaseTree, barriers: Barriers, driver: Driver,
                      n_max: int | None = None, m_max: int | None = None,
                      cut_step: int | None = None, *, tol_conv: float = 1e-8,
                      tol_root: float = 1e-12) -> TruncationReport:
    """Monotone approximation grid: clipped drivers and envelope-swapped
    barriers, climbing to the reflected solution.

    ``Y^{n,m}`` uses driver ``max(min(f, n), -m)``; it must be nondecreasing
    in ``n`` and nonincreasing in ``m`` pointwise, and the corner
    ``Y^{n_max, m_max}`` (the sup-inf limit on this finite grid) must match
    the directly solved reference.  Levels default to just beyond the range
    the driver actually attains on the reference solution, which makes the
    top corner exact.  A grid whose stack of ``n_max * m_max`` members
    times the leaves exceeds ``ELEMENT_BUDGET`` elements raises
    :class:`BudgetError` before the stack is built.  ``cut_step``
    forces artificial barrier cuts: stage ``j`` keeps the true barriers up
    to step ``min(cut_step * j, N)`` and swaps to the one-sided envelopes
    beyond, exercising the swap path while leaving the limit unchanged.  Non-monotonicity beyond 1e-10 is a
    solver bug, so it fails the report rather than raising.

    The ``n_max * m_max`` grid members run as one backward pass over a
    stack of rows, each with its own clip band and barrier slots; every row
    comes out bit-identical to a ``solve_rbsde`` of that member alone.
    """
    if any(v is not None and v < 1 for v in (n_max, m_max)):
        raise ValueError("truncation levels must be >= 1")
    if cut_step is not None and cut_step < 1:
        raise ValueError("cut_step must be >= 1")
    reference = solve_rbsde(tree, barriers, driver, tol_root=tol_root)
    if n_max is None or m_max is None:
        fmax = 0.0
        for k in range(tree.n_steps):
            fmax = max(fmax, float(np.max(np.abs(driver.fn(tree.time(k), reference.y.after[k], reference.z[k])))))
        level = max(2, int(np.ceil(fmax)) + 1)
        if cut_step is not None:
            # the artificial barrier cuts must reach the horizon by the
            # last stage, else the corner stays short of the reference
            level = max(level, -(-tree.n_steps // cut_step))
        n_max = level if n_max is None else n_max
        m_max = level if m_max is None else m_max
    size, budget = n_max * m_max * tree.n_leaves, expectation.ELEMENT_BUDGET
    if size > budget:
        raise BudgetError(
            f"truncation ladder at level n_max={n_max}, m_max={m_max} stacks {n_max * m_max} "
            f"members of {tree.n_leaves} leaves ({size} elements), above the budget of "
            f"{budget}; choose lower levels with --n-max/--m-max")
    # row i * m_max + j of the stack is grid member (i + 1, j + 1)
    stage_n = np.repeat(np.arange(1, n_max + 1), m_max)[:, None]
    stage_m = np.tile(np.arange(1, m_max + 1), n_max)[:, None]
    lower, upper = barriers.lower.slots, barriers.upper.slots
    if cut_step is not None:
        # stage s keeps the true barriers up to key 2 min(cut_step s, N)
        lhat, uhat = snell_envelopes(tree, barriers)
        cut_n = 2 * np.minimum(cut_step * stage_n, tree.n_steps)
        cut_m = 2 * np.minimum(cut_step * stage_m, tree.n_steps)
        lower = [np.where(key <= cut_n, a, b) for key, (a, b) in enumerate(zip(lower, lhat.slots))]
        upper = [np.where(key <= cut_m, a, b) for key, (a, b) in enumerate(zip(upper, uhat.slots))]
    # value slots from the horizon back: AT(N), AFTER(N-1), AT(N-1), ...
    y = [np.broadcast_to(barriers.terminal, (n_max * m_max, tree.n_leaves))]
    for _, after, at, *_ in _reflected_pass(tree, y[0], lower, upper, clipped_driver(driver, stage_m, stage_n),
                                            step_offset=0, tol_root=tol_root):
        y += (after, at)
    grid = [slot.reshape(n_max, m_max, -1) for slot in reversed(y)]

    def worst(diff):
        """Maximum of ``diff(slot)`` over slots and nodes, at least 0.0 and
        NaN wherever a NaN enters."""
        return np.max([np.max(diff(g), axis=-1, initial=0.0) for g in grid], axis=0)

    mono_n = float(np.max(worst(lambda g: g[:-1] - g[1:]), initial=0.0))
    mono_m = float(np.max(worst(lambda g: g[:, 1:] - g[:, :-1]), initial=0.0))
    n_gaps = worst(lambda g: np.abs(g[:, -1] - g[-1, -1])).tolist()
    m_gaps = worst(lambda g: np.abs(g[-1] - g[-1, -1])).tolist()
    y_limit = OptionalProcess.from_slots(tree, [g[-1, -1].copy() for g in grid])
    limit_gap = y_limit.sup_abs_diff(reference.y)
    passed = mono_n <= 1e-10 and mono_m <= 1e-10 and limit_gap <= tol_conv
    return TruncationReport(n_max=n_max, m_max=m_max, cut_step=cut_step,
                            monotone_n_violation=mono_n, monotone_m_violation=mono_m,
                            limit_gap=limit_gap, n_gaps=n_gaps, m_gaps=m_gaps,
                            passed=passed, y_limit=y_limit)
