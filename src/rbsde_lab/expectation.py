"""Backward equations and the induced conditional nonlinear expectation.

The diffusion transition AFTER(k) -> AT(k+1) carries the driver over one
time slice and is solved implicitly: with ``E`` the equal-weight average of
the two children and ``Z = (Y_up - Y_down) / (2 sqrt(dt))``, the interval
value solves ``y = E + f(t_k, y, Z) dt (+ dV)``.  The map ``y -> y - dt
f(t, y, z)`` is strictly increasing whenever ``dt * max(0, mu) < 1``, so the
root is unique; :func:`implicit_step` finds it in closed form (affine and
odd-cubic drivers), by a safeguarded Newton iteration or by bracketed
bisection, depending on the structure the driver declares.  The phase
transition AT(k) -> AFTER(k) carries no noise and no driver time; only
finite-variation increments act there.

Martingale representation is exact by construction: ``Y_up - Y_down =
2 Z sqrt(dt)`` at every diffusion transition.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import OptionalProcess, Phase, StoppingTime, TwoPhaseTree, gather_slots, nan_max, node_rows, stopping_keys

__all__ = [
    "Driver",
    "BSDESolution",
    "TransitionIncrements",
    "ClassifyResult",
    "RootSolveError",
    "EnumerationBoundError",
    "BudgetError",
    "check_enumeration",
    "constant_driver",
    "linear_driver",
    "truncated_driver",
    "polynomial_driver",
    "solve_bsde",
    "nonlinear_expectation",
    "classify_ef",
    "ef_backward_batch",
    "cfl_margin",
    "implicit_step",
]


class RootSolveError(RuntimeError):
    """Implicit one-step equation could not be solved to tolerance."""


class EnumerationBoundError(ValueError):
    """Brute-force enumeration refused beyond the configured depth."""


# elements above which an array is refused before it is built: brute
# force's (strategies, strategies, leaves) pairs, or the truncation ladder's
# stack of members times leaves, of which its pass holds about fifteen
ELEMENT_BUDGET = 1 << 22


class BudgetError(ValueError):
    """A computation refused because its arrays would hold more than
    ``ELEMENT_BUDGET`` elements."""


def check_enumeration(depth: int, enum_bound: int) -> None:
    """Refuse a brute-force enumeration of a depth-``depth`` subgame before
    anything is allocated: past ``enum_bound`` with
    :class:`EnumerationBoundError`, then with :class:`BudgetError` when its
    c(d)**2 * 2**d pair elements exceed the budget.  c(d) = 2 + c(d-1)**2
    counts the phase-resolved stopping times (3, 11, 123, 15,131 for
    d = 1..4), so depth 3 (121,032 elements) runs and depth 4 does not."""
    if depth > enum_bound:
        raise EnumerationBoundError(
            f"enumeration bound exceeded: subgame depth {depth} > {enum_bound}; strategy "
            "counts grow doubly exponentially — use the reflected-solver identity "
            "(solve_rbsde) for values on deeper trees")
    count = elements = 1
    for d in range(1, depth + 1):
        count = 2 + count * count
        elements = count * count << d
        if elements > ELEMENT_BUDGET:
            break
    if elements > ELEMENT_BUDGET:
        size = f"{elements:,}" if d == depth else f"more than {elements:,}"
        raise BudgetError(
            f"enumeration budget exceeded: the strategy pairs of a depth-{depth} subgame "
            f"make {size} elements, above the budget of {ELEMENT_BUDGET:,}; "
            f"lower --enum-bound (or /tolerances/enum_bound) to {d - 1}")


@dataclass(frozen=True)
class Driver:
    """Generator ``f(t, y, z)`` with its declared structure constants.

    ``lambda_z`` is the Lipschitz constant in ``z``, ``mu`` the monotonicity
    constant in ``y`` (non-positive for drivers non-increasing in ``y``).
    ``z_growth`` optionally records sublinear-growth data ``(gamma, eta,
    g_bound)``; the constants are validated and spot-checkable but play no
    quantitative role in the finite recursion.  ``terms`` declares ``f`` as
    the polynomial ``sum c * y**i * z**j`` over its ``(i, j, c)`` entries,
    and ``clip`` as that polynomial clipped to the band ``(lo, hi)``;
    :func:`implicit_step` picks its root solver from them.  The band edges
    may be ``(R, 1)`` columns, one band per row of a stacked solve.
    """

    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lambda_z: float
    mu: float
    tag: str = "custom"
    z_growth: tuple[float, float, float] | None = None
    terms: tuple[tuple[int, int, float], ...] | None = None
    clip: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.lambda_z < 0:
            raise ValueError("lambda_z must be nonnegative")
        if self.clip is not None and not np.all(self.clip[0] <= self.clip[1]):
            raise ValueError("clip band requires lo <= hi")
        if self.z_growth is not None:
            gamma, eta, g_bound = self.z_growth
            if gamma < 0 or g_bound < 0 or not (0.0 <= eta < 1.0):
                raise ValueError("z-growth data requires gamma >= 0, g >= 0, eta in [0, 1)")

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.fn(t, y, z)

    def spot_check(self) -> dict[str, float]:
        """Worst observed violation of each declared hypothesis on 256
        fixed points of ``[0, 1] x [-5, 5]**2`` (:func:`_spot_check_draws`),
        failing above 1e-9.  A driver with a non-finite value on the samples
        fails, and so does a NaN violation.
        """
        u = _spot_check_draws()
        t = u[:256]
        y, y2, z, z2 = -5.0 + 10.0 * u[256:].reshape(4, 256)
        out: dict[str, float] = {}
        with np.errstate(all="ignore"):
            f, f_y2, f_z2 = self.fn(t, y, z), self.fn(t, y2, z), self.fn(t, y, z2)
            if not all(np.all(np.isfinite(v)) for v in (f, f_y2, f_z2)):
                raise ValueError(f"driver {self.tag!r} is not finite on the spot-check samples")
            out["lipschitz_z"] = float(np.max(np.abs(f - f_z2) - self.lambda_z * np.abs(z - z2)))
            out["monotone_y"] = float(np.max((y - y2) * (f - f_y2) - self.mu * (y - y2) ** 2))
            if self.z_growth is not None:
                gamma, eta, g_bound = self.z_growth
                grow = np.abs(f - self.fn(t, y, np.zeros_like(z)))
                out["z_growth"] = float(np.max(grow - gamma * (g_bound + np.abs(y) + np.abs(z)) ** eta))
        for name, worst in out.items():
            if not worst <= 1e-9:
                raise ValueError(f"driver {self.tag!r} violates declared {name} bound by {worst:.3e}")
        return out


@functools.lru_cache(maxsize=1)
def _spot_check_draws() -> np.ndarray:
    """The first 1,280 numbers of ``random.Random(0)``, drawn once per
    process: what one driver spot-check consumes, so every load checks its
    driver on the same points.  They come from the standard library because
    numpy imports ``numpy.random`` lazily, and importing it for them would
    add about 6 MB of resident memory and 15 ms to each CLI process."""
    rng = random.Random(0)
    draws = np.array([rng.random() for _ in range(1280)])
    draws.setflags(write=False)
    return draws


def _affine(terms: Sequence[tuple[int, int, float]]) -> tuple[float, float, float] | None:
    """``(a, b, c)`` with ``sum c y**i z**j = a + b y + c z``, or None if not affine."""
    if any(i + j > 1 for i, j, _ in terms):
        return None
    return (sum(c for i, j, c in terms if i == j == 0),
            sum(c for i, _, c in terms if i == 1),
            sum(c for _, j, c in terms if j == 1))


def constant_driver(value: float) -> Driver:
    value = float(value)
    return Driver(fn=lambda t, y, z: np.full_like(np.asarray(y, dtype=float), value),
                  lambda_z=0.0, mu=0.0, tag="constant", terms=((0, 0, value),))


def linear_driver(const: float = 0.0, y_coef: float = 0.0, z_coef: float = 0.0) -> Driver:
    a, b, c = float(const), float(y_coef), float(z_coef)
    return Driver(fn=lambda t, y, z: a + b * np.asarray(y, dtype=float) + c * np.asarray(z, dtype=float),
                  lambda_z=abs(c), mu=b, tag="linear", terms=((0, 0, a), (1, 0, b), (0, 1, c)))


def truncated_driver(const: float, y_coef: float, z_coef: float, bound: float) -> Driver:
    """Linear driver clipped to ``[-bound, bound]``; clipping keeps the
    z-Lipschitz constant and can only improve the monotonicity constant."""
    a, b, c = float(const), float(y_coef), float(z_coef)
    bound = float(bound)
    if bound <= 0:
        raise ValueError("truncation bound must be positive")
    fn = lambda t, y, z: np.clip(a + b * np.asarray(y, dtype=float) + c * np.asarray(z, dtype=float), -bound, bound)
    return Driver(fn=fn, lambda_z=abs(c), mu=max(b, 0.0), tag="truncated",
                  terms=((0, 0, a), (1, 0, b), (0, 1, c)), clip=(-bound, bound))


def polynomial_driver(terms: Sequence[tuple[int, int, float]], lambda_z: float, mu: float,
                      z_growth: tuple[float, float, float] | None = None) -> Driver:
    """Driver ``f(t, y, z) = sum c * y**i * z**j`` with declared constants,
    evaluated by sparse Horner (:func:`_y_coefficients`, :func:`_horner`)."""
    terms = tuple((int(i), int(j), float(c)) for i, j, c in terms)
    for i, j, _ in terms:
        if i < 0 or j < 0:
            raise ValueError("polynomial powers must be nonnegative")

    def fn(t, y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        acc = np.zeros(np.broadcast(y, z).shape)
        if terms:
            acc += _horner(_y_coefficients(terms, z), y)
        return acc

    return Driver(fn=fn, lambda_z=float(lambda_z), mu=float(mu), tag="polynomial", z_growth=z_growth, terms=terms)


def _horner(pairs: Sequence[tuple[int, object]], x: np.ndarray, slope: bool = False):
    """``sum a * x**p`` over ``(p, a)`` pairs in strictly descending ``p``, by
    sparse Horner: a gap of ``g`` powers between declared ones costs one
    ``x**g`` (a product when ``g`` is 1), never a power per term or a
    coefficient per degree.  With ``slope``, returns the value and its
    derivative in ``x``."""
    p, f = pairs[0]
    df = 0.0
    # the last pair, with nothing to add, lifts the sum from x**p to x**0
    for q, a in [*pairs[1:], (0, None)]:
        g = p - q
        if g == 1:
            if slope:
                df = df * x + f
            f = f * x
        elif g and slope:
            lift = x ** (g - 1)
            shift = lift * x
            df = df * shift + g * f * lift
            f = f * shift
        elif g:
            f = f * x**g
        if a is not None:
            f = f + a
        p = q
    return (f, df) if slope else f


def _y_coefficients(terms: Sequence[tuple[int, int, float]], z: np.ndarray) -> list[tuple[int, object]]:
    """``(i, a_i(z))`` in descending ``i``, with ``sum c y**i z**j = sum
    a_i(z) y**i``; each ``a_i`` is a sparse Horner in ``z``, a float when
    only ``j = 0`` enters it."""
    grouped: dict[int, dict[int, float]] = {}
    for i, j, c in terms:
        row = grouped.setdefault(i, {})
        row[j] = row.get(j, 0.0) + c
    return [(i, _horner(sorted(grouped[i].items(), reverse=True), z))
            for i in sorted(grouped, reverse=True)]


def cfl_margin(driver: Driver, tree: TwoPhaseTree) -> float:
    """``1 - lambda * sqrt(dt)``; comparison-based laws need this >= 0."""
    return 1.0 - driver.lambda_z * tree.sqrt_dt


def _check_mu(driver: Driver, dt: float) -> None:
    if dt * max(0.0, driver.mu) >= 1.0:
        raise ValueError(f"implicit step ill-posed: dt * max(0, mu) = {dt * max(0.0, driver.mu):.3g} >= 1")


def implicit_step(e: np.ndarray, z: np.ndarray, t: float, driver: Driver, dt: float,
                  active: np.ndarray | None = None, tol: float = 1e-12) -> np.ndarray:
    """Solve ``y = e + f(t, y, z) dt`` elementwise (identity where inactive).

    The driver's declared structure picks the solver: the closed form for
    affine ``terms`` and the hyperbolic closed form with one Newton
    correction for odd-cubic ``terms`` (:func:`_odd_cubic`), each computed
    unclipped and clipped once to a ``clip`` band ``[lo, hi]`` by
    :func:`_clip_to_band`; a safeguarded Newton iteration for other
    ``terms``, clipped or not; and bracketed bisection on ``fn`` for drivers
    without ``terms``.  Each path but the unclipped affine one ends with a
    residual check against ``fn`` at ``tol``, so structure that disagrees
    with ``fn`` raises :class:`RootSolveError`; an odd-cubic row that fails
    it takes the Newton root first.

    Every leading axis indexes rows, and every test that decides something
    (a stop test, the residual check) reduces over the last axis only, so a
    stack of rows solves exactly, bit for bit, as each row alone.
    """
    e = np.asarray(e, dtype=float)
    z = np.asarray(z, dtype=float)
    scalar = e.ndim == z.ndim == 0
    if scalar:  # solved as one row of one element
        e, z = e.reshape(1), z.reshape(1)
    affine = cubic = None
    if driver.terms is None:
        y = _bisect_step(e, z, t, driver.fn, dt)
    elif (affine := _affine(driver.terms)) is not None:
        y = _clip_to_band(_affine_step(e, z, affine, dt), e, driver.clip, dt)
    elif (cubic := _odd_cubic(driver.terms, dt)) is not None:
        y = _clip_to_band(_odd_cubic_step(e, z, cubic, dt), e, driver.clip, dt)
    else:
        y = _newton_step(e, z, driver.terms, driver.clip, dt)
    if affine is None or driver.clip is not None:
        worst, failed = _residual_rows(y, e, z, t, driver.fn, dt, tol)
        if cubic is not None and failed.any():
            # the closed form can miss by the last ulp where Newton's iterate
            # does not: such a row takes Newton's root instead
            y = np.where(failed, _newton_step(e, z, driver.terms, driver.clip, dt), y)
            worst, failed = _residual_rows(y, e, z, t, driver.fn, dt, tol)
        if failed.any():
            raise RootSolveError(f"one-step residual {np.max(worst[failed]):.3e} above tolerance {tol:.3e}")
    if active is not None:
        y = np.where(active, y, e)
    if not np.all(np.isfinite(y)):
        raise RootSolveError("implicit step produced non-finite values")
    return y.reshape(()) if scalar else y


def _residual_rows(y: np.ndarray, e: np.ndarray, z: np.ndarray, t: float, fn: Callable,
                   dt: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the worst ``|y - dt fn(t, y, z) - e|`` and whether it is above
    ``max(tol, tol * max|y|)``, both as ``(..., 1)`` columns."""
    resid = np.multiply(fn(t, y, z), -dt)
    resid += y
    resid -= e
    worst = _row_max(np.abs(resid, out=resid))
    # fmax, like max(tol, .), ignores a NaN scale
    return worst, worst > np.fmax(tol, tol * _row_max(np.abs(y)))


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maximum over the last axis, kept as an ``(..., 1)`` column; NaN
    propagates, as in ``np.max``.

    With at least 64 rows per column the rows are folded column by column:
    numpy's reduction over a short last axis pays a fixed cost per row,
    which makes it ~40x slower on the brute-force batches of thousands of
    rows of 2 to 4.
    """
    width = a.shape[-1]
    if a.size < 64 * width * width:
        return np.max(a, axis=-1, keepdims=True)
    out = a[..., :1].copy()
    for j in range(1, width):
        np.maximum(out, a[..., j:j + 1], out=out)
    return out


def _affine_step(e: np.ndarray, z: np.ndarray, affine: tuple[float, float, float], dt: float) -> np.ndarray:
    """Root ``(e + dt (a + c z)) / (1 - dt b)`` of ``y = e + dt (a + b y + c
    z)``, computed in place to keep two temporaries alive."""
    a, b, c = affine
    y = np.empty(np.broadcast_shapes(e.shape, z.shape))
    np.multiply(z, c, out=y)
    y += a
    y *= dt
    y += e
    y /= 1.0 - dt * b
    return y


def _clip_to_band(y: np.ndarray, e: np.ndarray, band: tuple[float, float] | None, dt: float) -> np.ndarray:
    """The root of ``y = e + dt clip(f, lo, hi)`` from the root ``y`` of ``y = e
    + dt f``: ``y`` clipped in place to ``[e + dt lo, e + dt hi]``, or ``y``
    itself when ``band`` is None.

    Every root of the clipped equation lies in that band, and when the
    unclipped root leaves it the clipped residual vanishes at the nearer
    edge.  This needs ``y - dt f`` increasing, which :func:`_check_mu`
    guarantees."""
    if band is None:
        return y
    edge = np.add(e, dt * band[0])
    np.maximum(y, edge, out=y)
    np.add(e, dt * band[1], out=edge)
    np.minimum(y, edge, out=y)
    return y


def _odd_cubic(terms: Sequence[tuple[int, int, float]], dt: float) -> tuple[float, float, list] | None:
    """``(a3, a1, zterms)`` with ``y = e + dt f(y, z)`` the odd cubic ``a3 y**3
    + a1 y = e + dt sum c z**j`` over the ``(0, j, c)`` in ``zterms``, ``a3 > 0``
    and ``a1 > 0``; None unless ``terms`` are ``(3, 0, c3)`` with ``c3 < 0``,
    ``(1, 0, c1)`` with ``1 - dt c1 > 0`` and ``(0, j, c)`` terms."""
    if any(i not in (0, 1, 3) or (i and j) for i, j, _ in terms):
        return None
    a3 = -dt * sum(c for i, _, c in terms if i == 3)
    a1 = 1.0 - dt * sum(c for i, _, c in terms if i == 1)
    if not (a3 > 0.0 and a1 > 0.0):
        return None
    return a3, a1, [term for term in terms if term[0] == 0]


def _odd_cubic_step(e: np.ndarray, z: np.ndarray, cubic: tuple[float, float, list], dt: float) -> np.ndarray:
    """Root of ``a3 y**3 + a1 y = rhs``, ``rhs = e + dt g(z)``.

    The one real root is ``(2 / k) sinh(asinh(1.5 k rhs / a1) / 3)`` with
    ``k = sqrt(3 a3 / a1)``.  That form is about an ulp off, which a residual
    check at ``tol * max|y|`` can see once ``a3 y**3`` dwarfs ``y``, so one
    Newton correction on the cubic follows.  Computed in place.
    """
    a3, a1, zterms = cubic
    rhs = e if not zterms else e + dt * _y_coefficients(zterms, z)[0][1]
    k = np.sqrt(3.0 * a3 / a1)
    y = np.multiply(rhs, 1.5 * k / a1)
    np.arcsinh(y, out=y)
    y /= 3.0
    np.sinh(y, out=y)
    y *= 2.0 / k
    y2 = y * y
    r = np.multiply(y2, a3)
    r += a1
    r *= y
    r -= rhs
    y2 *= 3.0 * a3
    y2 += a1
    r /= y2
    y -= r
    return y


_ROUNDS = 200  # cap on bracket doublings, bisection and Newton rounds; the residual check decides


def _bracket(resid: Callable[[np.ndarray], np.ndarray], e: np.ndarray,
             width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Widen ``[e - width, e + width]`` by doubling until it brackets the
    root of the increasing ``resid``."""
    lo = e - width
    hi = e + width
    for _ in range(_ROUNDS):
        bad_lo = resid(lo) > 0.0
        bad_hi = resid(hi) < 0.0
        if not (bad_lo.any() or bad_hi.any()):
            return lo, hi
        width = width * 2.0
        lo = np.where(bad_lo, e - width, lo)
        hi = np.where(bad_hi, e + width, hi)
    raise RootSolveError("could not bracket the implicit one-step root")  # pragma: no cover


def _bisect_step(e: np.ndarray, z: np.ndarray, t: float, fn: Callable, dt: float) -> np.ndarray:
    """Bracketed bisection on ``y - dt fn(t, y, z) - e``: needs no structure,
    so it serves drivers that declare none and is the oracle in the tests."""
    def resid(y: np.ndarray) -> np.ndarray:
        return y - dt * fn(t, y, z) - e

    width = dt * np.abs(fn(t, e, z)) + 1e-3 * (1.0 + np.abs(e))
    lo, hi = _bracket(resid, e, width)
    live = np.ones(lo.shape[:-1] + (1,), dtype=bool)  # rows still halving
    for _ in range(_ROUNDS):
        mid = 0.5 * (lo + hi)
        go_lo = resid(mid) <= 0.0
        lo = np.where(live & go_lo, mid, lo)
        hi = np.where(live & ~go_lo, mid, hi)
        live &= ~(_row_max(hi - lo) <= 1e-15 * (1.0 + _row_max(np.abs(mid))))
        if not live.any():
            break
    return 0.5 * (lo + hi)


def _newton_step(e: np.ndarray, z: np.ndarray, terms: Sequence[tuple[int, int, float]],
                 band: tuple[float, float] | None, dt: float) -> np.ndarray:
    """Safeguarded Newton (the ``rtsafe`` pattern) on ``y - dt f - e``.

    ``f`` and ``df/dy`` come from ``terms`` by sparse Horner in ``y``, with
    ``z`` frozen; a clip band zeroes the slope outside it.  The bracket is
    ``[e + dt lo, e + dt hi]`` under a band, else the doubling bracket.  Each
    residual sign shrinks the bracket, and a Newton step that leaves it, or
    is not under half the step before last, falls back to bisection.
    """
    coef = _y_coefficients(terms, z)

    def value_slope(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, df = _horner(coef, y, slope=True)
        if band is not None:
            inside = (f > band[0]) & (f < band[1])
            f = np.clip(f, band[0], band[1])
            df = np.where(inside, df, 0.0)
        return f, df

    if band is None:
        def resid(y: np.ndarray) -> np.ndarray:
            return y - dt * value_slope(y)[0] - e

        lo, hi = _bracket(resid, e, dt * np.abs(value_slope(e)[0]) + 1e-3 * (1.0 + np.abs(e)))
        y = e
    else:
        lo, hi = e + dt * band[0], e + dt * band[1]
        # an edge where f is clipped to that edge is the root: pin it, since
        # Newton steps land on the edge only to within rounding
        at_lo = value_slope(lo)[0] <= band[0]
        at_hi = value_slope(hi)[0] >= band[1]
        y = np.where(at_lo, lo, np.where(at_hi, hi, np.clip(e, lo, hi)))
        lo = np.where(at_hi, y, lo)
        hi = np.where(at_lo, y, hi)
    step = step_before = hi - lo
    live = np.ones(step.shape[:-1] + (1,), dtype=bool)  # rows not yet stopped
    for _ in range(_ROUNDS):
        f, df = value_slope(y)
        r = y - dt * f - e
        lo = np.where(r < 0.0, y, lo)
        hi = np.where(r > 0.0, y, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = y + r / (dt * df - 1.0)
        thr = 1e-15 * (1.0 + _row_max(np.abs(y)))
        size = np.abs(newton - y)
        # a step at round-off size is always taken: it cannot bisect a
        # converged element back into a one-sided bracket
        ok = (newton >= lo) & (newton <= hi) & (2.0 * size <= np.abs(step_before)) | (size <= thr)
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        step_before, step = step, nxt - y
        # a stopped row keeps the iterate it stopped at
        y = np.where(live, nxt, y)
        live &= ~(_row_max(np.abs(step)) <= thr)
        if not live.any():
            break
    return y


class TransitionIncrements:
    """Signed increments attached to the transitions of a tree.

    ``slots[q]`` acts on the transition that leaves the phase point of
    order key ``q``, for ``q = 0..2N-1``.  The even slots are the tuple view
    ``phase``: ``phase[k]`` acts on AT(k) -> AFTER(k), one entry per step-k
    node.  The odd slots are ``step``: ``step[k]`` acts on AFTER(k) ->
    AT(k+1) and is predictable, one entry per step-k parent, applied to
    both children.  Rows that do not fit the tree are refused by
    :func:`node_rows`, with a ``ValueError`` such as ``phase: expected 3
    rows, got 2`` or ``step/1: expected 2 values, got 1``.
    """

    __slots__ = ("tree", "slots")

    def __init__(self, tree: TwoPhaseTree, phase: Sequence[np.ndarray], step: Sequence[np.ndarray]) -> None:
        phase, step = node_rows(tree, phase=(phase, tree.n_steps), step=(step, tree.n_steps))
        self.tree = tree
        self.slots = [a for pair in zip(phase, step) for a in pair]

    @classmethod
    def from_slots(cls, tree: TwoPhaseTree, slots: Sequence[np.ndarray]) -> "TransitionIncrements":
        """The increments whose node arrays are ``slots``, in key order."""
        return cls(tree, slots[0::2], slots[1::2])

    @classmethod
    def zeros(cls, tree: TwoPhaseTree) -> "TransitionIncrements":
        return cls.from_slots(tree, [np.zeros(tree.nodes_at(q >> 1)) for q in range(2 * tree.n_steps)])

    @property
    def phase(self) -> tuple[np.ndarray, ...]:
        return tuple(self.slots[0::2])

    @property
    def step(self) -> tuple[np.ndarray, ...]:
        return tuple(self.slots[1::2])

    def combine(self, other: "TransitionIncrements", sign: float = 1.0) -> "TransitionIncrements":
        return TransitionIncrements.from_slots(self.tree, [a + sign * b for a, b in zip(self.slots, other.slots)])

    def is_nonnegative(self) -> bool:
        return all(np.all(a >= 0.0) for a in self.slots)

    def total_variation(self) -> float:
        return float(sum(np.sum(np.abs(a)) for a in self.slots))

    def max_abs(self) -> float:
        return float(max((np.max(np.abs(a), initial=0.0) for a in self.slots), default=0.0))


@dataclass
class BSDESolution:
    """Value process and integrand; ``z[k]`` sits at the step-k parents."""

    y: OptionalProcess
    z: list[np.ndarray]


def solve_bsde(tree: TwoPhaseTree, terminal: np.ndarray, driver: Driver,
               dv: TransitionIncrements | None = None, *, step_offset: int = 0,
               tol_root: float = 1e-12) -> BSDESolution:
    """Backward solve of the unreflected equation with optional drift ``dV``.

    ``step_offset`` shifts the time argument fed to the driver when solving
    on an extracted subtree.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (tree.n_leaves,):
        raise ValueError("terminal condition must have one value per leaf")
    if dv is not None and not tree.same_grid(dv.tree):
        raise ValueError("drift lives on a different grid")
    steps = _unreflected_pass(tree, terminal, driver, dv=dv, step_offset=step_offset, tol_root=tol_root)
    # the pass yields from the horizon back; each column is reversed to start at step 0
    z, after, at = (list(col)[::-1] for col in zip(*steps))
    # without a drift AT(k) is AFTER(k) itself, so it gets its own copy
    at = at if dv is not None else [a.copy() for a in at]
    return BSDESolution(y=OptionalProcess(tree, at + [terminal.copy()], after), z=z)


def ef_backward_batch(tree: TwoPhaseTree, driver: Driver, terminal_rows: np.ndarray,
                      stops: np.ndarray | None = None, *, step_offset: int = 0,
                      tol_root: float = 1e-12) -> list[np.ndarray]:
    """Vectorised batch of unreflected backward recursions.

    ``terminal_rows`` has shape (R, n_leaves); ``stops`` (R, n_leaves) holds
    each row's per-leaf stop keys, and the driver acts on step k's diffusion
    transition only below a parent whose stop key is ``2(k + 1)`` or more:
    it is frozen from each row's stop on.  Returns per-step value matrices
    ``val[k]`` of shape (R, 2**k); phase transitions carry nothing here, so
    ``val[k]`` is the value at both AT(k) and AFTER(k).
    """
    terminal_rows = np.asarray(terminal_rows, dtype=float)
    if terminal_rows.ndim != 2 or terminal_rows.shape[1] != tree.n_leaves:
        raise ValueError("terminal_rows must have shape (rows, n_leaves)")
    steps = _unreflected_pass(tree, terminal_rows, driver, stops, step_offset=step_offset, tol_root=tol_root)
    return [after for _, after, _ in steps][::-1] + [terminal_rows]


def _unreflected_pass(tree: TwoPhaseTree, terminal: np.ndarray, driver: Driver,
                      stops: np.ndarray | None = None,
                      dv: TransitionIncrements | None = None, *, step_offset: int,
                      tol_root: float) -> Iterator[tuple[np.ndarray, ...]]:
    """The backward pass of the unreflected equation over value rows.

    Leading axes of ``terminal`` are rows.  ``stops`` (per row and leaf,
    order keys) switches the driver off on step k's diffusion transition
    below a parent whose stop key is under ``2(k + 1)``; ``dv`` adds its
    step increment to the children's average and its phase increment on
    AT(k) -> AFTER(k).  Yields, for ``k = N-1`` down to 0, the integrand
    and the AFTER(k) and AT(k) values; without ``dv`` the last two are one
    array.  This pass stays apart from the reflected one on purpose: it is
    the independent side of the feed-back identity and of the game oracle.
    """
    _check_mu(driver, tree.dt)
    dt = tree.dt
    nxt = terminal
    for k in range(tree.n_steps - 1, -1, -1):
        e, z = tree.children(nxt)
        if dv is not None:
            e = e + dv.slots[2 * k + 1]
        active = None if stops is None else stops[..., ::tree.leaf_stride(k)] >= 2 * (k + 1)
        after = implicit_step(e, z, (step_offset + k) * dt, driver, dt, active=active, tol=tol_root)
        nxt = after if dv is None else after + dv.slots[2 * k]
        yield z, after, nxt


def nonlinear_expectation(tree: TwoPhaseTree, alpha: StoppingTime, beta: StoppingTime,
                          xi: np.ndarray, driver: Driver) -> np.ndarray:
    """Conditional nonlinear expectation of ``xi`` over ``[[alpha, beta]]``:
    its per-leaf values at ``alpha``.

    ``xi`` (per leaf) must be measurable at ``beta``: constant on every
    beta-atom.  The driver is switched off strictly after ``beta``, which
    freezes ``xi`` along each path, so extending the recursion to the full
    horizon changes nothing — that identity is what makes the masked
    implementation valid.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (tree.n_leaves,):
        raise ValueError("xi must have one value per leaf")
    if not (tree.same_grid(alpha.tree) and tree.same_grid(beta.tree)):
        raise ValueError("stopping times live on a different grid")
    if not alpha.leq(beta):
        raise ValueError("alpha must not exceed beta")
    if np.any(xi != xi[beta.stop_nodes() << (tree.n_steps - beta.steps)]):
        raise ValueError("xi is not measurable at beta (differs within a beta-atom)")
    vals = ef_backward_batch(tree, driver, xi[None, :], beta.keys[None])
    return gather_slots(vals, alpha.keys)[0]


@dataclass
class ClassifyResult:
    is_supermartingale: bool
    is_submartingale: bool
    verdict: str
    max_super_violation: float
    max_sub_violation: float
    mode: str

    @staticmethod
    def from_violations(sup_v: float, sub_v: float, tol: float, mode: str) -> "ClassifyResult":
        is_super = sup_v <= tol
        is_sub = sub_v <= tol
        verdict = ("martingale" if is_super and is_sub
                   else "supermartingale" if is_super
                   else "submartingale" if is_sub
                   else "neither")
        return ClassifyResult(is_super, is_sub, verdict, sup_v, sub_v, mode)


def classify_ef(process: OptionalProcess, driver: Driver, *, from_time: StoppingTime | None = None,
                to_time: StoppingTime | None = None, mode: str = "onestep", tol: float = 1e-12,
                enum_bound: int = 3) -> ClassifyResult:
    """Classify a process as a super/sub-martingale for the nonlinear operator.

    ``onestep`` checks every transition inside the window: AT(k) >= AFTER(k)
    across phases (the operator is the identity there) and AFTER(k) against
    the implicit one-step value of the children.  ``brute`` enumerates all
    phase-resolved stopping pairs sigma <= tau in the window and tests the
    operator inequality at every atom, solving one backward row per tau;
    the two modes agree by backward induction and that agreement is itself
    a tested invariant.
    """
    tree = process.tree
    if from_time is None:
        from_time = StoppingTime.constant(tree, 0, Phase.AT)
    if to_time is None:
        to_time = StoppingTime.constant(tree, tree.n_steps, Phase.AT)
    if not from_time.leq(to_time):
        raise ValueError("empty window: from_time exceeds to_time")
    if mode == "onestep":
        sup_v, sub_v = [0.0], [0.0]
        for k in range(tree.n_steps):
            stride = tree.leaf_stride(k)
            fk = from_time.keys[::stride]
            tk = to_time.keys[::stride]
            phase_in = (fk <= 2 * k) & (tk >= 2 * k + 1)
            step_in = (fk <= 2 * k + 1) & (tk >= 2 * (k + 1))
            at_k, after_k, nxt = process.slots[2 * k:2 * k + 3]
            diffs = [(after_k - at_k)[phase_in]]  # >0 breaks supermartingale
            if step_in.any():
                e, z = tree.children(nxt)
                pred = implicit_step(e, z, tree.time(k), driver, tree.dt)
                diffs.append((pred - after_k)[step_in])
            for diff in diffs:
                sup_v.append(float(np.max(diff, initial=-np.inf)))
                sub_v.append(float(np.max(-diff, initial=-np.inf)))
        # folded with nan_max, so that a NaN fails the check
        return ClassifyResult.from_violations(nan_max(sup_v), nan_max(sub_v), tol, mode)
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    check_enumeration(tree.n_steps, enum_bound)
    keys_m, _ = _stop_order(tree.n_steps)
    fk, tk = from_time.keys, to_time.keys
    idx = np.flatnonzero(np.all(keys_m >= fk, axis=1) & np.all(keys_m <= tk, axis=1))
    sig, tau = _window_pairs(tree.n_steps, idx)
    # a pair's backward row depends on tau alone, and every window member is
    # the tau of its pair with itself: one row per member
    win = keys_m[idx]
    # terminal per row: X read at tau's slot, the driver frozen from tau on
    x_win = process.at_keys(win)
    rows = np.concatenate(ef_backward_batch(tree, driver, x_win, win), axis=1)
    # the column of each member's key on each leaf in the step rows laid end
    # to end, step k's 2**k nodes from column 2**k - 1: a pair reads sigma's
    # columns in tau's row
    cols = gather_slots([np.arange((1 << k) - 1, (2 << k) - 1) for k in range(tree.n_steps + 1)], win)
    at_sigma = rows[tau[:, None], cols[sig]]
    diff = at_sigma - x_win[sig]  # >0 breaks supermartingale
    sup_v = float(np.max(diff, initial=0.0))
    sub_v = float(np.max(-diff, initial=0.0))
    return ClassifyResult.from_violations(max(sup_v, 0.0), max(sub_v, 0.0), tol, mode)


@functools.lru_cache(maxsize=8)
def _stop_order(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Order keys of every phase-resolved stopping time of a depth-``depth``
    tree, one row each, and the relation ``leq[i, j]``: ``keys[i] <=
    keys[j]`` on every leaf."""
    keys = stopping_keys(depth, True)
    leq = np.all(keys[:, None, :] <= keys[None, :, :], axis=2)
    leq.setflags(write=False)
    return keys, leq


def _window_pairs(depth: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``(i, j)`` in ``idx`` (rows of :func:`_stop_order`) of every
    pair with ``keys[idx[i]] <= keys[idx[j]]`` on every leaf, in row-major
    order."""
    return np.nonzero(_stop_order(depth)[1][np.ix_(idx, idx)])
