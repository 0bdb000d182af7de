"""Nonlinear Dynkin games resolved by brute force.

Two strategy classes share one payoff convention.  A *plain* strategy stops
at grid times only and the payoff reads the barrier at the stop.  An
*extended* strategy is a stopping system (tau, H): on H the barrier is read
at the stop, off H as the one-sided right limit (the interval slot).  It is
one phase-resolved :class:`StoppingTime` — stopping "just after" t_k is the
same data as stopping at the AFTER(k) point — so extended strategies are
enumerated directly as order keys, which keeps the census exact: 3, 11, 123
per player at depths 1, 2, 3.

Payoff branches compare real stop times (step indices), never phases: two
stops in the same step tie, and the tie goes to the lower-barrier player.
The driver acts up to the earlier stop; the phase of that stop is
irrelevant to it because an open interval entered for an instant carries no
dt-mass.

Values are computed per theta-atom: the subgame below a node is a fresh
game on the remaining depth, so conditional values come from reading the
subgame's barrier slots and offsetting driver time, never from
re-weighting paths.  One payoff rule (:func:`_pair_sources`) and one
subgame engine (:func:`_subgame_values`) serve every check here, through the
pair matrix of :func:`brute_force_values`.  A saddle report solves its
theta-subgame once and reads every residual and epsilon-pair value from one
pair matrix per game mode.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .expectation import (
    Driver,
    check_enumeration,
    constant_driver,
    ef_backward_batch,
)
from .lattice import (
    OptionalProcess,
    StoppingTime,
    TwoPhaseTree,
    build_tree,
    first_hitting,
    semicontinuity,
    stopping_keys,
)
from .reflect import Barriers, RBSDESolution, growth_points, solve_rbsde

__all__ = [
    "GameValues",
    "ThetaCheck",
    "GameCheck",
    "EpsilonSaddle",
    "SaddleReport",
    "brute_force_values",
    "value_identity_applicable",
    "game_equals_rbsde",
    "epsilon_ratio_ok",
    "saddle_points",
    "right_jump_counterexample",
]


def _pair_sources(n: int, tau_keys: np.ndarray, sigma_keys: np.ndarray) -> np.ndarray:
    """The payoff rule: per leaf, the entry of ``lower slots ‖ upper slots ‖
    terminal`` (each process's ``2 n + 1`` slots end to end in key order)
    that a pair of broadcast ``tau_keys`` and ``sigma_keys`` rows of a
    depth-``n`` game reads; :func:`_pair_patterns` broadcasts every strategy
    against every other.  A key's phase picks the slot; the branch only sees
    steps, so a same-step tie goes to the maximiser."""
    sizes = [1 << (q >> 1) for q in range(2 * n + 1)]
    start, span, leaves = np.cumsum([0] + sizes[:-1]), sum(sizes), np.arange(1 << n)
    ts, ss = tau_keys >> 1, sigma_keys >> 1
    return np.where((ts <= ss) & (ts < n), start[tau_keys] + (leaves >> (n - ts)),
                    np.where(ss < ts, span + start[sigma_keys] + (leaves >> (n - ss)),
                             2 * span + leaves))


def _freeze_keys(n: int, src: np.ndarray) -> np.ndarray:
    """The stop keys of source rows: each entry's slot key, ``2 n`` for the
    terminal.  The driver acts up to the freeze step ``min(tau, sigma)``,
    which is the step of the entry read."""
    key_of = np.repeat(np.arange(2 * n + 1), [1 << (q >> 1) for q in range(2 * n + 1)])
    return np.concatenate([key_of, key_of, np.full(1 << n, 2 * n)])[src]


_STACK_BUDGET = 1 << 18  # elements per backward batch of stacked subgames


def _subgame_values(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, step: int,
                    nodes: range, src: np.ndarray, tol_root: float) -> np.ndarray:
    """Root values of the source rows ``src`` in the subgames at the
    step-``step`` ``nodes``, shape (nodes, rows).  The leaves under a node
    are contiguous, so a full barrier slot reshaped to one row per node
    holds every subgame's slot.  One backward batch runs over the stack of
    nodes x rows, split only past ``_STACK_BUDGET`` elements."""
    n_nodes = tree.nodes_at(step)
    stops = _freeze_keys(tree.n_steps - step, src)
    per_batch, out = max(1, _STACK_BUDGET // src.size), []
    for lo in range(nodes.start, nodes.stop, per_batch):
        part = slice(lo, min(lo + per_batch, nodes.stop))
        flat = np.concatenate([a.reshape(n_nodes, -1)[part]
                               for p in (barriers.lower, barriers.upper) for a in p.slots[2 * step:]]
                              + [barriers.terminal.reshape(n_nodes, -1)[part]], axis=1)
        m = flat.shape[0]
        vals = ef_backward_batch(tree.subtree(step), driver, flat[:, src].reshape(m * len(src), -1),
                                 np.tile(stops, (m, 1)), step_offset=step, tol_root=tol_root)
        out.append(vals[0][:, 0].reshape(m, len(src)))
    return np.concatenate(out)


@functools.lru_cache(maxsize=8)
def _pair_patterns(depth: int, phase_resolved: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct rows of :func:`_pair_sources` over every strategy pair
    of a depth-``depth`` game, the map from the row-major pairs to them, and
    the strategy count S.  A row fixes its freeze keys too, so two pairs
    with one row get the same backward row, bit for bit."""
    keys = stopping_keys(depth, phase_resolved)
    src = _pair_sources(depth, keys[:, None, :], keys[None, :, :]).reshape(-1, 1 << depth)
    # the distinct rows, found by sorting the rows: np.unique(axis=0) finds
    # the same ones, but sorts them as opaque records, ~30x slower at depth 3
    order = np.lexsort(src.T)
    ordered = src[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    rows = ordered[first]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    for a in (rows, inverse):
        a.setflags(write=False)
    return rows, inverse, keys.shape[0]


def _subgame_matrices(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, step: int,
                      nodes: range, mode: str, tol_root: float) -> np.ndarray:
    """Every strategy pair's value in the subgames at ``nodes`` of ``step``,
    shape (nodes, S, S); each distinct payoff pattern is solved once."""
    src, inverse, n_strat = _pair_patterns(tree.n_steps - step, mode == "extended")
    vals = _subgame_values(tree, barriers, driver, step, nodes, src, tol_root)
    return vals[:, inverse].reshape(len(nodes), n_strat, n_strat)


@dataclass
class GameValues:
    """Brute-force minimax data for one subgame."""

    upper: float
    lower: float
    n_tau: int
    n_sigma: int
    matrix: np.ndarray

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @classmethod
    def of(cls, matrix: np.ndarray) -> "GameValues":
        """The values of one subgame's (S, S) pair matrix."""
        return cls(upper=float(matrix.max(axis=0).min()), lower=float(matrix.min(axis=1).max()),
                   n_tau=matrix.shape[0], n_sigma=matrix.shape[1], matrix=matrix)


def brute_force_values(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, *,
                       mode: str = "extended", theta_step: int = 0, theta_node: int = 0,
                       enum_bound: int = 3, tol_root: float = 1e-12) -> GameValues:
    """Upper (min-max) and lower (max-min) values over every strategy pair.

    Every pair enters the matrix, but the backward pass runs once per
    distinct payoff pattern (:func:`_pair_patterns`).  ``theta`` must be a
    grid-time node strictly before the horizon (the horizon subgame has no
    choices left).
    """
    if mode not in ("extended", "plain"):
        raise ValueError(f"unknown game mode {mode!r}")
    if not (0 <= theta_step < tree.n_steps and 0 <= theta_node < 1 << theta_step):
        raise ValueError(f"theta (step {theta_step}, node {theta_node}) is not a node of steps "
                         f"0..{tree.n_steps - 1} (nodes 0..2**step - 1)")
    check_enumeration(tree.n_steps - theta_step, enum_bound)
    return GameValues.of(_subgame_matrices(tree, barriers, driver, theta_step,
                                           range(theta_node, theta_node + 1), mode, tol_root)[0])


@dataclass
class ThetaCheck:
    step: int
    node: int
    y: float
    extended_upper: float
    extended_lower: float
    plain_upper: float | None = None
    plain_lower: float | None = None


@dataclass
class GameCheck:
    """Game values against the reflected solution at every checkable node."""

    solution: RBSDESolution
    checks: list[ThetaCheck]
    max_extended_gap: float
    passed_extended: bool
    max_plain_internal_gap: float | None = None
    max_plain_to_y_gap: float | None = None
    identity_applicable: bool = True


def value_identity_applicable(barriers: Barriers) -> bool:
    """True when the lower barrier's interval value never exceeds the upper
    barrier at the grid time opening that interval.

    Where ``lower.after[k] > upper.at[k]`` the maximizer can stop just after
    t_k and collect more than the minimizer can ever defend: the minimizer's
    best reply is to stop at t_k itself, but a same-step tie pays the lower
    barrier, so the extended values detach upward from the reflected
    solution wherever its step value was pulled down to ``upper.at``.  With
    the comparison below holding everywhere, the tie read is defendable and
    both extended values coincide with the reflected solution.
    """
    return all(bool(np.all(a <= b)) for a, b in zip(barriers.lower.after, barriers.upper.at))


def game_equals_rbsde(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, *,
                      include_plain: bool = False, enum_bound: int = 3,
                      tol_game: float = 1e-8, tol_root: float = 1e-12) -> GameCheck:
    """Verify that both extended game values coincide with Y at every grid
    node whose subgame depth fits under the enumeration bound.

    The identity is only promised on barrier pairs that pass
    :func:`value_identity_applicable`; the check still runs on the others
    (the recorded gap is honest either way) and the report carries the
    applicability bit so a failure can be told apart from a detachment.

    With ``include_plain`` the plain values are recorded as well.  They are
    not asserted against Y: the plain game always has a value on this grid
    (classical finite dynamic programming), but that value can sit strictly
    away from Y, and it does exactly that whenever reaching Y requires
    stopping on an interval slot — see :func:`right_jump_counterexample`.
    """
    if enum_bound < 1:
        raise ValueError(f"enum_bound must be >= 1, got {enum_bound}")
    sol = solve_rbsde(tree, barriers, driver, tol_root=tol_root)
    checks: list[ThetaCheck] = []
    ext_gap = 0.0
    plain_internal = 0.0 if include_plain else None
    plain_to_y = 0.0 if include_plain else None
    for k in range(max(0, tree.n_steps - enum_bound), tree.n_steps):
        check_enumeration(tree.n_steps - k, enum_bound)
        # every node of the step in one stack per mode
        nodes = range(tree.nodes_at(k))
        ext_all = _subgame_matrices(tree, barriers, driver, k, nodes, "extended", tol_root)
        plain_all = (_subgame_matrices(tree, barriers, driver, k, nodes, "plain", tol_root)
                     if include_plain else None)
        for node in nodes:
            y = float(sol.y.at[k][node])
            ext = GameValues.of(ext_all[node])
            ext_gap = max(ext_gap, abs(ext.upper - y), abs(ext.lower - y))
            row = ThetaCheck(step=k, node=node, y=y,
                             extended_upper=ext.upper, extended_lower=ext.lower)
            if include_plain:
                plain = GameValues.of(plain_all[node])
                row.plain_upper, row.plain_lower = plain.upper, plain.lower
                plain_internal = max(plain_internal, plain.gap)  # type: ignore[arg-type]
                plain_to_y = max(plain_to_y, abs(plain.upper - y), abs(plain.lower - y))  # type: ignore[arg-type]
            checks.append(row)
    return GameCheck(solution=sol, checks=checks, max_extended_gap=ext_gap,
                     passed_extended=ext_gap <= tol_game,
                     max_plain_internal_gap=plain_internal,
                     max_plain_to_y_gap=plain_to_y,
                     identity_applicable=value_identity_applicable(barriers))


def _stopped_mass(incr, stop: StoppingTime) -> np.ndarray:
    """Per-leaf reflection mass accumulated by the stop (transitions whose
    right endpoint lies at or before it)."""
    tree = incr.tree
    total = np.zeros(tree.n_leaves)
    for q, a in enumerate(incr.slots):
        total += tree.spread(a, q >> 1) * (stop.keys > q)
    return total


@dataclass
class EpsilonSaddle:
    """An epsilon-optimal pair built from barrier proximity, with evidence.

    ``tau`` and ``sigma`` are the phase-resolved first-entry stops.
    ``residual_up`` is how far the maximiser falls short of the reflected
    value when committed to ``tau`` against its worst opponent over every
    opponent strategy (clipped at zero); ``residual_down`` mirrors it.
    ``hit_gap_*`` and ``reflection_mass_*`` re-check the two structural
    facts the pair is built on: the barrier is within epsilon at the stop,
    and no reflection acts strictly inside the stopped interval.
    """

    epsilon: float
    y_theta: float
    tau: StoppingTime
    sigma: StoppingTime
    pair_value: float
    residual_up: float
    residual_down: float
    hit_gap_lower: float
    hit_gap_upper: float
    reflection_mass_lower: float
    reflection_mass_upper: float


def _check_epsilon(epsilon: float) -> None:
    # a bool would pass as 0 or 1, and a non-real would raise a TypeError in
    # the comparison: both get the refusal instead, quoted by repr
    real = isinstance(epsilon, numbers.Real) and not isinstance(epsilon, bool)
    if not (real and 0 <= epsilon < np.inf):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon if real else repr(epsilon)}")


@dataclass
class SaddleReport:
    """Exact optimal stops and the identities binding them to the solution.

    Two candidate pairs are reported.  The *contact* pair enters on first
    touch of the (terminal-patched) barrier; the *action* pair enters on
    first growth of the matching reflection measure, attributed to the
    transition's left endpoint, and ``*_bar_attained`` reads that growth at
    its stop.  On this grid the contact stop never comes later than the
    action stop, and the barrier is touched exactly where reflection acts;
    both are checked, not assumed.  ``contacts`` holds the largest gap
    between Y and the barrier at each stop, keyed ``star_lower``,
    ``star_upper``, ``bar_lower`` and ``bar_upper``.

    ``residuals`` are exhaustive over the opponent's strategies:
    ``*_up`` is the maximiser's shortfall below the reflected value when
    committed to the pair's tau, ``*_down`` the minimiser's overshoot, both
    clipped at zero; keys run ``star_extended_up`` to ``bar_plain_down``.
    Extended-game residuals are always computed.  Plain-game residuals
    (grid-time opponents, on-time barrier reads) are only meaningful when
    the barriers have the one-sided regularity that keeps optimal stops on
    grid times; otherwise they are ``None`` and a warning says why.
    """

    y_theta: float
    tau_star: StoppingTime
    sigma_star: StoppingTime
    tau_bar: StoppingTime
    sigma_bar: StoppingTime
    tau_bar_attained: np.ndarray
    sigma_bar_attained: np.ndarray
    order_tau_ok: bool
    order_sigma_ok: bool
    contacts: dict[str, float]
    residuals: dict[str, float | None]
    epsilon_saddles: list[EpsilonSaddle] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def passed(self, tol_game: float) -> bool:
        return (self.order_tau_ok and self.order_sigma_ok
                and all(c <= tol_game for c in self.contacts.values())
                and all(r <= tol_game for r in self.residuals.values() if r is not None))


def saddle_points(tree: TwoPhaseTree, barriers: Barriers, driver: Driver, *,
                  theta_step: int = 0, theta_node: int = 0, enum_bound: int = 3,
                  epsilons: tuple[float, ...] = (), tol_root: float = 1e-12) -> SaddleReport:
    """First-contact and first-action stops of the reflected solution,
    verified against every opposing strategy, and an epsilon pair per entry
    of ``epsilons``: the maximiser stops on first entry of Y into the
    epsilon-neighbourhood of the terminal-patched lower barrier (an AFTER
    key on an interval slot, the grid stop off H), the minimiser likewise
    about the upper barrier.  The theta-subgame is solved once, and every
    residual and pair value is read from the pair matrix of its game mode."""
    for e in epsilons:
        _check_epsilon(e)
    # the extended pair matrix checks theta and the enumeration guard first
    extended = brute_force_values(tree, barriers, driver, theta_step=theta_step, theta_node=theta_node,
                                  enum_bound=enum_bound, tol_root=tol_root).matrix
    sub_b = barriers.restrict(theta_step, theta_node)
    sol = solve_rbsde(tree.subtree(theta_step), sub_b, driver, step_offset=theta_step, tol_root=tol_root)
    lxi, uxi = (p.with_terminal(sub_b.terminal) for p in (sub_b.lower, sub_b.upper))
    y_theta = float(sol.y.at[0][0])

    def index(keys: np.ndarray, phase_resolved: bool = True) -> int:
        """The pair-matrix index of the strategy whose order keys are ``keys``."""
        (i,) = np.flatnonzero((stopping_keys(sol.y.tree.n_steps, phase_resolved) == keys).all(axis=1))
        return int(i)

    def shortfall(matrix: np.ndarray, keys: np.ndarray, maximiser: bool, phase_resolved: bool = True) -> float:
        """How far a player committed to ``keys`` falls short of ``y_theta``
        against its worst opponent in ``matrix``: below it by the min of the
        maximiser's row, above it by the max of the minimiser's column,
        clipped at 0."""
        i = index(keys, phase_resolved)
        return (max(0.0, y_theta - float(matrix[i].min())) if maximiser
                else max(0.0, float(matrix[:, i].max()) - y_theta))

    def epsilon_pair(e: float) -> EpsilonSaddle:
        near_lower = OptionalProcess.combine(lambda y, l: (y <= l + e).astype(float), sol.y, lxi)
        near_upper = OptionalProcess.combine(lambda y, u: (y >= u - e).astype(float), sol.y, uxi)
        t, s = first_hitting(near_lower), first_hitting(near_upper)
        # the terminal slot satisfies both conditions, so the scans always hit
        assert near_lower.at_keys(t.keys).all() and near_upper.at_keys(s.keys).all()
        return EpsilonSaddle(
            epsilon=e, y_theta=y_theta, tau=t, sigma=s,
            pair_value=float(extended[index(t.keys), index(s.keys)]),
            residual_up=shortfall(extended, t.keys, True),
            residual_down=shortfall(extended, s.keys, False),
            hit_gap_lower=max(0.0, float(np.max(sol.y.at_keys(t.keys) - lxi.at_keys(t.keys) - e))),
            hit_gap_upper=max(0.0, float(np.max(uxi.at_keys(s.keys) - e - sol.y.at_keys(s.keys)))),
            reflection_mass_lower=float(np.max(_stopped_mass(sol.r_plus, t))),
            reflection_mass_upper=float(np.max(_stopped_mass(sol.r_minus, s))))

    on_lower = OptionalProcess.combine(lambda y, l: (np.abs(y - l) <= tol_root).astype(float), sol.y, lxi)
    on_upper = OptionalProcess.combine(lambda y, u: (np.abs(y - u) <= tol_root).astype(float), sol.y, uxi)
    tau_star, sigma_star = first_hitting(on_lower), first_hitting(on_upper)
    # the star stops hit on every leaf: the patched barrier's terminal slot is a guaranteed hit
    assert on_lower.at_keys(tau_star.keys).all() and on_upper.at_keys(sigma_star.keys).all()
    grow_plus, grow_minus = growth_points(sol.r_plus), growth_points(sol.r_minus)
    tau_bar, sigma_bar = first_hitting(grow_plus), first_hitting(grow_minus)
    tau_bar_attained = grow_plus.at_keys(tau_bar.keys) != 0
    sigma_bar_attained = grow_minus.at_keys(sigma_bar.keys) != 0

    order_tau = bool(np.all(tau_star.keys <= tau_bar.keys))
    order_sigma = bool(np.all(sigma_star.keys <= sigma_bar.keys))

    def contact_gap(stop: StoppingTime, barrier: OptionalProcess, hit: np.ndarray | slice) -> float:
        gaps = np.abs(sol.y.at_keys(stop.keys) - barrier.at_keys(stop.keys))[hit]
        return float(np.max(gaps, initial=0.0))

    # the bar stops touch the barrier only where growth was actually attained
    contacts = {"star_lower": contact_gap(tau_star, lxi, slice(None)),
                "star_upper": contact_gap(sigma_star, uxi, slice(None)),
                "bar_lower": contact_gap(tau_bar, sub_b.lower, tau_bar_attained),
                "bar_upper": contact_gap(sigma_bar, sub_b.upper, sigma_bar_attained)}

    # the committed star up, star down, bar up and bar down players
    committed = [(tau_star, True), (sigma_star, False), (tau_bar, True), (sigma_bar, False)]
    ext = [shortfall(extended, stop.keys, m) for stop, m in committed]
    eps_reports = [epsilon_pair(e) for e in epsilons]
    lower_flags, upper_flags = semicontinuity(sub_b.lower), semicontinuity(sub_b.upper)
    warnings: list[str] = []
    plain: list[float | None] = [None] * 4
    if lower_flags.right_usc and lower_flags.left_usc and upper_flags.right_lsc and upper_flags.left_lsc:
        # the plain game, with the stops moved to their grid times
        matrix = brute_force_values(tree, barriers, driver, mode="plain", theta_step=theta_step,
                                    theta_node=theta_node, enum_bound=enum_bound, tol_root=tol_root).matrix
        plain = [shortfall(matrix, stop.keys & -2, m, False) for stop, m in committed]
    else:
        warnings.append("plain saddle residuals skipped: grid-time stops are only "
                        "optimal when the lower barrier is USC and the upper "
                        "barrier is LSC on both sides")
    names = ("star_{}_up", "star_{}_down", "bar_{}_up", "bar_{}_down")
    residuals = {name.format(mode): r for mode, rs in (("extended", ext), ("plain", plain))
                 for name, r in zip(names, rs)}

    return SaddleReport(y_theta=y_theta, tau_star=tau_star, sigma_star=sigma_star,
                        tau_bar=tau_bar, sigma_bar=sigma_bar,
                        tau_bar_attained=tau_bar_attained, sigma_bar_attained=sigma_bar_attained,
                        order_tau_ok=order_tau, order_sigma_ok=order_sigma,
                        contacts=contacts, residuals=residuals,
                        epsilon_saddles=eps_reports, warnings=warnings)


def epsilon_ratio_ok(saddles: list[EpsilonSaddle], *, tol: float = 1e-8) -> tuple[bool, list[float]]:
    """Check residual(eps)/eps stays bounded across a halving sweep.

    The quantity q(eps) = residual(eps)/eps should be bounded by a constant
    independent of eps.  Across one halving we require q not to grow by
    more than 4x, flooring the previous quotient at ``tol`` so that
    residuals at numerical zero don't produce 0/0 verdicts.
    """
    if any(s.epsilon == 0 for s in saddles):
        raise ValueError("residual quotients need every epsilon > 0")
    order = sorted(saddles, key=lambda s: -s.epsilon)
    quotients = [max(s.residual_up, s.residual_down) / s.epsilon for s in order]
    ok = all(qb <= 4.0 * max(qa, tol) for qa, qb in zip(quotients, quotients[1:]))
    return ok, quotients


def right_jump_counterexample() -> tuple[TwoPhaseTree, Barriers, Driver, dict[str, float]]:
    """One-step game whose plain value misses the reflected value.

    The lower barrier jumps up on the open interval (worth 0.9 there, 0 at
    grid times) and the terminal payoff is 0.2.  The reflected solution
    takes the interval value 0.9, and so does the extended game: the
    maximiser stops just after time zero.  A plain maximiser can only
    collect 0 now or 0.2 at the horizon, so both plain values land on 0.2
    and sit 0.7 away — grid-time strategies cannot see interval slots, and
    no tolerance tightening changes that.
    """
    tree = build_tree(1, 1.0)
    lower = OptionalProcess(tree, [np.array([0.0]), np.zeros(2)], [np.array([0.9])])
    upper = OptionalProcess.from_constant(tree, 1.0)
    barriers = Barriers(lower, upper, np.full(2, 0.2))
    driver = constant_driver(0.0)
    expected = {"rbsde_value": 0.9, "extended_value": 0.9, "plain_value": 0.2, "plain_gap_to_y": 0.7}
    return tree, barriers, driver, expected
