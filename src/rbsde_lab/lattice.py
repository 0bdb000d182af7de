"""Two-phase binary lattice: the filtration skeleton everything else runs on.

The grid has steps ``0..N``.  Each step ``k < N`` carries two phase points:
``AT(k)`` (the value at time ``t_k``) and ``AFTER(k)`` (the value on the open
interval ``(t_k, t_{k+1})``, i.e. the right limit at ``t_k`` and the left
limit at ``t_{k+1}``).  Step ``N`` has only ``AT(N)``.  The library names each
phase point by its order key ``2k + phase`` alone (AT is 0, AFTER 1), which
orders them ``AT(0) < AFTER(0) < AT(1) < ... < AT(N)``.

The underlying randomness is the non-recombining binary walk: node ``i`` at
step ``k`` has children ``2i`` (up move, ``+sqrt(dt)``) and ``2i + 1`` (down
move), each with probability one half.  A "leaf" is a full path, indexed by
the integer whose bits (most significant first) record the down moves.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "TwoPhaseTree",
    "OptionalProcess",
    "StoppingTime",
    "SemicontinuityFlags",
    "build_tree",
    "node_rows",
    "gather_slots",
    "first_hitting",
    "is_adapted",
    "semicontinuity",
    "enumerate_stopping_times",
    "stopping_keys",
    "nan_max",
]


class TwoPhaseTree:
    """Binary path tree of depth ``n_steps`` with two-phase time points.

    Nodes at step ``k`` are indexed ``0 .. 2**k - 1``; the walk value at a
    node is determined by the path bits, so the tree stores one array of
    walk values per step.  There is no recombination: distinct paths are
    distinct nodes.  A tree never changes after construction (its walk
    arrays are read-only), so :func:`build_tree` and :meth:`subtree` share
    one tree per grid.
    """

    __slots__ = ("n_steps", "dt", "sqrt_dt", "_brownian", "_subtrees", "__weakref__")

    def __init__(self, n_steps: int, dt: float) -> None:
        self.n_steps, self.dt = _grid(n_steps, dt)
        self.sqrt_dt = float(np.sqrt(self.dt))
        walks = [np.zeros(1)]
        for _ in range(self.n_steps):
            prev = walks[-1]
            nxt = np.empty(2 * prev.size)
            nxt[0::2] = prev + self.sqrt_dt
            nxt[1::2] = prev - self.sqrt_dt
            walks.append(nxt)
        for walk in walks:
            walk.setflags(write=False)
        self._brownian = walks
        self._subtrees: dict[int, TwoPhaseTree] = {}

    # -- basic geometry -------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return 1 << self.n_steps

    def nodes_at(self, step: int) -> int:
        if not 0 <= step <= self.n_steps:
            raise ValueError(f"step {step} outside [0, {self.n_steps}]")
        return 1 << step

    def brownian(self, step: int) -> np.ndarray:
        """Walk values at the nodes of ``step`` (read-only view)."""
        self.nodes_at(step)
        return self._brownian[step]

    def time(self, step: int) -> float:
        return step * self.dt

    def leaf_stride(self, step: int) -> int:
        """Number of leaves below each node of ``step``."""
        return 1 << (self.n_steps - step)

    def children(self, nxt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The conditional step over the last axis of next-step values: the
        children's average ``e`` and the integrand ``z = (up - down) / (2
        sqrt(dt))`` at each parent."""
        up, down = nxt[..., 0::2], nxt[..., 1::2]
        return 0.5 * (up + down), (up - down) / (2.0 * self.sqrt_dt)

    def spread(self, values: np.ndarray, step: int) -> np.ndarray:
        """Broadcast per-node values at ``step`` to per-leaf values."""
        return np.repeat(values, self.leaf_stride(step))

    def same_grid(self, other: "TwoPhaseTree") -> bool:
        return self.n_steps == other.n_steps and self.dt == other.dt

    def subtree(self, step: int) -> "TwoPhaseTree":
        """The tree of the remaining depth (walk restarts at zero); this tree
        keeps it, so every call for ``step`` returns the same object."""
        if not 0 <= step < self.n_steps:
            raise ValueError("subtree root must lie strictly before the horizon")
        sub = self._subtrees.get(step)
        if sub is None:
            sub = self._subtrees[step] = build_tree(self.n_steps - step, self.dt)
        return sub

    def __reduce__(self) -> tuple[Callable[[int, float], "TwoPhaseTree"], tuple[int, float]]:
        # a tree pickles as its grid: the process that unpickles it shares its own tree of that grid
        return build_tree, (self.n_steps, self.dt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoPhaseTree(n_steps={self.n_steps}, dt={self.dt})"


def _grid(n_steps: int, dt: float) -> tuple[int, float]:
    """The checked ``(n_steps, dt)`` of a tree."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    try:
        step = float(dt)
    except OverflowError:
        raise ValueError("dt must be a positive finite number, got an integer past the largest double") from None
    if not 0.0 < step < math.inf:
        raise ValueError(f"dt must be a positive finite number, got {dt!r}")
    return int(n_steps), step


# the live tree of each grid; a tree no one holds is freed, not kept here
_TREES: weakref.WeakValueDictionary[tuple[int, float], TwoPhaseTree] = weakref.WeakValueDictionary()


def build_tree(n_steps: int, dt: float) -> TwoPhaseTree:
    """The two-phase binary tree (``n_steps >= 1``, ``dt > 0``): the tree of
    this grid that is still in use, if there is one, else a new one."""
    grid = _grid(n_steps, dt)
    tree = _TREES.get(grid)
    if tree is None:
        tree = _TREES[grid] = TwoPhaseTree(*grid)
    return tree


def node_rows(tree: TwoPhaseTree, **blocks: tuple[Sequence[Any], int]) -> list[list[np.ndarray]]:
    """The rows of each block ``name=(rows, count)`` as float arrays: ``count``
    rows, row ``k`` one value per step-``k`` node.  Every row count is checked
    before any row's length; a refusal reads ``<name>: expected N rows, got
    M`` or ``<name>/<k>: expected W values, got V``."""
    for name, (rows, count) in blocks.items():
        if len(rows) != count:
            raise ValueError(f"{name}: expected {count} rows, got {len(rows)}")
    out = [[np.asarray(row, dtype=float) for row in rows] for rows, _ in blocks.values()]
    for name, arrays in zip(blocks, out):
        for k, a in enumerate(arrays):
            if a.shape != (tree.nodes_at(k),):
                got = a.size if a.ndim == 1 else a.shape
                raise ValueError(f"{name}/{k}: expected {tree.nodes_at(k)} values, got {got}")
    return out


class OptionalProcess:
    """A real value for every (node, phase) point of a tree.

    ``slots`` holds one node array per phase point, in order-key order
    ``2k + phase``: ``AT(0), AFTER(0), AT(1), ..., AT(N)``, so ``slots[q]``
    has one entry per node of step ``q >> 1``.  ``at`` (``k = 0..N``) and
    ``after`` (``k = 0..N-1``) are read-only tuple views of the even and odd
    slots.  The AFTER slot doubles as every one-sided limit the grid can
    express: the right limsup and right liminf at ``AT(k)`` and the left
    limsup and left liminf at ``AT(k+1)`` along the same path all equal
    ``after[k]``, because the process is constant on the open interval.
    Rows that do not fit the tree are refused by :func:`node_rows`, with a
    ``ValueError`` such as ``at: expected 3 rows, got 2`` or ``after/1:
    expected 2 values, got 3``.
    """

    __slots__ = ("tree", "slots")

    def __init__(self, tree: TwoPhaseTree, at: Sequence[np.ndarray], after: Sequence[np.ndarray]) -> None:
        """The process of the table form: the ``at`` and ``after`` rows."""
        at, after = node_rows(tree, at=(at, tree.n_steps + 1), after=(after, tree.n_steps))
        self.tree = tree
        self.slots = [row for pair in zip(at, after) for row in pair] + at[-1:]

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_slots(cls, tree: TwoPhaseTree, slots: Sequence[np.ndarray]) -> "OptionalProcess":
        """The process whose node arrays are ``slots``, in key order."""
        return cls(tree, slots[0::2], slots[1::2])

    @classmethod
    def from_constant(cls, tree: TwoPhaseTree, value: float) -> "OptionalProcess":
        return cls.from_slots(tree, [np.full(tree.nodes_at(q >> 1), float(value))
                                     for q in range(2 * tree.n_steps + 1)])

    @classmethod
    def combine(cls, fn: Callable[..., np.ndarray], *procs: "OptionalProcess") -> "OptionalProcess":
        """Pointwise combination of processes on the same grid."""
        tree = procs[0].tree
        for p in procs[1:]:
            if not tree.same_grid(p.tree):
                raise ValueError("processes live on different grids")
        return cls.from_slots(tree, [fn(*arrays) for arrays in zip(*(p.slots for p in procs))])

    # -- accessors ------------------------------------------------------

    @property
    def at(self) -> tuple[np.ndarray, ...]:
        """The AT(k) slots, ``k = 0..N``."""
        return tuple(self.slots[0::2])

    @property
    def after(self) -> tuple[np.ndarray, ...]:
        """The AFTER(k) slots, ``k = 0..N-1``."""
        return tuple(self.slots[1::2])

    def at_keys(self, keys: np.ndarray) -> np.ndarray:
        """Values at per-leaf order keys, (n_leaves,) or (R, n_leaves)."""
        return gather_slots(self.slots, keys)

    @property
    def terminal(self) -> np.ndarray:
        return self.slots[-1]

    def table_rows(self) -> dict[str, list[list[float]]]:
        """The ``at`` and ``after`` slot rows as lists of floats (the JSON table form)."""
        return {"at": [a.tolist() for a in self.at], "after": [a.tolist() for a in self.after]}

    # -- transforms -----------------------------------------------------

    def with_terminal(self, values: np.ndarray) -> "OptionalProcess":
        """Same process with the AT(N) slot replaced (used for xi-patched barriers)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.tree.n_leaves,):
            raise ValueError("terminal replacement has the wrong shape")
        return OptionalProcess.from_slots(self.tree, [a.copy() for a in self.slots[:-1]] + [values.copy()])

    def restrict(self, step: int, node: int) -> "OptionalProcess":
        """Restriction to the subtree rooted at (step, node): the leaves under a
        node are contiguous, so each slot from step on, one row per step-``step``
        node, holds the subtree's slot in row ``node``."""
        if not 0 <= node < self.tree.nodes_at(step):
            raise ValueError(f"node {node} outside [0, {self.tree.nodes_at(step) - 1}] at step {step}")
        return OptionalProcess.from_slots(self.tree.subtree(step), [
            a.reshape(self.tree.nodes_at(step), -1)[node].copy() for a in self.slots[2 * step:]])

    def sup_abs_diff(self, other: "OptionalProcess") -> float:
        return nan_max([0.0] + [float(np.max(np.abs(a - b))) for a, b in zip(self.slots, other.slots)])

    def pointwise_leq(self, other: "OptionalProcess") -> bool:
        return not any(np.any(a > b) for a, b in zip(self.slots, other.slots))

    def max_exceedance(self, other: "OptionalProcess") -> float:
        """sup of (self - other) over all points; <= 0 means self <= other."""
        return nan_max([-np.inf] + [float(np.max(a - b)) for a, b in zip(self.slots, other.slots)])


def nan_max(values: list[float]) -> float:
    """``max`` that is NaN when any value is; ``max`` drops a NaN that is not first."""
    return math.nan if any(v != v for v in values) else max(values)


def is_adapted(keys: np.ndarray) -> np.ndarray:
    """Whether each row of per-leaf order keys, ``(..., n_leaves)``, is a
    stopping time; one bool per row.

    The leaves under a node are contiguous, so a row is a stopping time iff
    every two neighbouring leaves ``l``, ``l + 1`` have equal keys wherever
    either one stops at or above their deepest common ancestor, which sits
    at step ``n - bit_length(l ^ (l + 1))``.
    """
    keys = np.asarray(keys)
    n = keys.shape[-1].bit_length() - 1
    leaf = np.arange(keys.shape[-1] - 1)
    shared = n - np.frexp(leaf ^ (leaf + 1))[1]  # frexp's exponent of an int is its bit_length
    left, right = keys[..., :-1], keys[..., 1:]
    return ~np.any((left != right) & ((np.minimum(left, right) >> 1) <= shared), axis=-1)


class StoppingTime:
    """The per-leaf order key ``2 * step + phase`` of each path's stop point.

    The keys must form a stopping time (:func:`is_adapted`): all paths
    through the node where one path stops take the same decision.  AT(N)
    is the latest key, so every path stops by the horizon.

    The keys are also a stopping system (tau, H) of the extended game: AT
    keys on H, AFTER keys off H, and ``process.at_keys(keys)`` reads ``X_tau
    1_H + X_{tau+} 1_{H^c}``.  No AFTER(N) exists, so horizon stops lie in
    H; adaptedness keeps H constant on each stop atom.
    """

    __slots__ = ("tree", "keys")

    def __init__(self, tree: TwoPhaseTree, keys: np.ndarray) -> None:
        keys = np.asarray(keys)
        if (keys.dtype.kind not in "iu" or keys.shape != (tree.n_leaves,)
                or np.any((keys < 0) | (keys > 2 * tree.n_steps))):
            raise ValueError("stop keys must be one order key in [0, 2N] per leaf")
        keys = keys.astype(np.int64)
        if not is_adapted(keys):
            raise ValueError("realized stops are not adapted (not a stopping time)")
        keys.setflags(write=False)
        self.tree = tree
        self.keys = keys

    @classmethod
    def constant(cls, tree: TwoPhaseTree, key: int) -> "StoppingTime":
        """Every path stops at the point of order key ``key``."""
        return cls(tree, np.full(tree.n_leaves, key))

    @classmethod
    def from_realized(cls, tree: TwoPhaseTree, steps: np.ndarray, phases: np.ndarray) -> "StoppingTime":
        """Build from per-leaf stop points, checking they form a stopping time."""
        steps = np.asarray(steps, dtype=np.int64)
        phases = np.asarray(phases, dtype=np.int64)
        if steps.shape != (tree.n_leaves,) or phases.shape != (tree.n_leaves,):
            raise ValueError("realized stop arrays must have one entry per leaf")
        n = tree.n_steps
        bad = (steps < 0) | (steps > n) | (phases < 0) | (phases > 1) | ((steps == n) & (phases == 1))
        if bad.any():
            step, phase = int(steps[bad][0]), int(phases[bad][0])  # the first bad leaf's point
            raise ValueError(f"{phase} is not a valid Phase" if phase not in (0, 1) else
                             f"step {step} outside [0, {n}]" if not 0 <= step <= n else
                             "the final step has no AFTER phase")
        return cls(tree, 2 * steps + phases)

    def leq(self, other: "StoppingTime") -> bool:
        return bool(np.all(self.keys <= other.keys))


@dataclass(frozen=True)
class SemicontinuityFlags:
    right_usc: bool
    right_lsc: bool
    left_usc: bool
    left_lsc: bool


def gather_slots(slots: Sequence[np.ndarray], keys: np.ndarray) -> np.ndarray:
    """Slot values read at per-leaf phase-order keys.

    ``slots`` holds node arrays in key order: one per phase point (``2n +
    1``, as :attr:`OptionalProcess.slots` holds them), or one per step (``n +
    1``), which then serves both phases of its step.  A slot is ``(2**k,)``,
    or ``(R, 2**k)`` for R rows; ``keys`` is ``(n_leaves,)`` or ``(R,
    n_leaves)``.  The slots are laid end to end and read with one index,
    the slot's offset plus the leaf's ancestor node at the key's step.
    """
    n = slots[-1].shape[-1].bit_length() - 1
    if len(slots) not in (n + 1, 2 * n + 1):
        raise ValueError(f"{len(slots)} slots fit neither the steps nor the phase points of depth {n}")
    start = np.cumsum([0] + [s.shape[-1] for s in slots[:-1]])
    offset = start if len(slots) == 2 * n + 1 else np.repeat(start, 2)[:2 * n + 1]
    keys = np.asarray(keys, dtype=np.int64)
    idx = offset[keys] + (np.arange(1 << n) >> (n - (keys >> 1)))
    flat = np.concatenate(slots, axis=-1)
    if flat.ndim == 1:
        return flat[idx]
    return flat[:, idx] if idx.ndim == 1 else np.take_along_axis(flat, idx, axis=1)


def first_hitting(condition: OptionalProcess, theta: StoppingTime | None = None) -> StoppingTime:
    """First (node, phase) point at or after ``theta`` where the condition
    holds (nonzero), capped at the horizon.

    A capped scan stops at AT(N), where the condition reads zero, so
    ``condition.at_keys(stop.keys) != 0`` says which paths hit.
    """
    tree = condition.tree
    if theta is None:
        theta = StoppingTime.constant(tree, 0)
    if not tree.same_grid(theta.tree):
        raise ValueError("condition and theta live on different grids")
    stop_key = np.full(tree.n_leaves, 2 * tree.n_steps, dtype=np.int64)
    hit = np.zeros(tree.n_leaves, dtype=bool)
    for key in range(2 * tree.n_steps + 1):
        here = ~hit & (theta.keys <= key) & (tree.spread(condition.slots[key], key >> 1) != 0.0)
        stop_key[here] = key
        hit |= here
        if hit.all():
            break
    return StoppingTime(tree, stop_key)


def semicontinuity(process: OptionalProcess) -> SemicontinuityFlags:
    """One-sided semicontinuity read off the grid.

    Right flags compare AT(k) with AFTER(k) at each node (k < N); left
    flags compare AT(k+1) with AFTER(k) along each edge.
    """
    right_usc = right_lsc = left_usc = left_lsc = True
    for at_k, after_k, at_next in zip(process.at, process.after, process.at[1:]):
        right_usc &= bool(np.all(at_k >= after_k))
        right_lsc &= bool(np.all(at_k <= after_k))
        child = np.repeat(after_k, 2)
        left_usc &= bool(np.all(at_next >= child))
        left_lsc &= bool(np.all(at_next <= child))
    return SemicontinuityFlags(right_usc, right_lsc, left_usc, left_lsc)


@functools.lru_cache(maxsize=32)
def stopping_keys(n_steps: int, phase_resolved: bool) -> np.ndarray:
    """Order keys of every stopping time of a depth-``n_steps`` tree, one
    read-only int64 row per stopping time.

    A stopping time either stops at the root or splits into one stopping
    time of each child subtree; rows list the root stops first (AT, then
    AFTER with ``phase_resolved``), then every (up, down) pair, up-major.
    Counts grow as s(d) = 2 + s(d-1)^2 (vs 1 + s(d-1)^2 for AT-only), so
    callers should gate the depth.
    """
    keys = np.array([[2 * n_steps]], dtype=np.int64)
    for step in range(n_steps - 1, -1, -1):
        s, width = keys.shape
        here = [np.full((1, 2 * width), 2 * step + phase, dtype=np.int64) for phase in range(1 + phase_resolved)]
        keys = np.concatenate(here + [np.concatenate([np.repeat(keys, s, axis=0), np.tile(keys, (s, 1))], axis=1)])
    keys.setflags(write=False)
    return keys


def enumerate_stopping_times(tree: TwoPhaseTree, phase_resolved: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (steps, phases) per-leaf matrices of every stopping time, the
    rows of :func:`stopping_keys`."""
    keys = stopping_keys(tree.n_steps, bool(phase_resolved))
    return keys >> 1, keys & 1
