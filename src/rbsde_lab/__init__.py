"""Verification laboratory for doubly-reflected backward equations and
two-player optional-stopping games on finite binary two-phase lattices.

Everything is exactly computable: solver outputs can be cross-checked by
exhaustive enumeration of strategies and stopping systems, so each
structural claim (minimality, saddle points, envelope ordering,
truncation limits) ships with a brute-force verifier.
"""

from .expectation import (
    BSDESolution,
    BudgetError,
    ClassifyResult,
    Driver,
    EnumerationBoundError,
    RootSolveError,
    TransitionIncrements,
    cfl_margin,
    classify_ef,
    constant_driver,
    implicit_step,
    linear_driver,
    polynomial_driver,
    solve_bsde,
    truncated_driver,
)
from .lattice import (
    OptionalProcess,
    SemicontinuityFlags,
    StoppingTime,
    TwoPhaseTree,
    build_tree,
    enumerate_stopping_times,
    first_hitting,
    gather_slots,
    semicontinuity,
)
from .reflect import (
    Barriers,
    ContinuityAnalogueReport,
    DynamicsReport,
    MinimalityReport,
    RBSDESolution,
    SeparationFailure,
    TruncationReport,
    Witness,
    check_minimality,
    clipped_driver,
    continuity_analogue,
    growth_points,
    mokobodzki_witness,
    snell_envelopes,
    solve_rbsde,
    truncation_scheme,
    verify_dynamics,
)
from .scenario import (
    DEFAULT_TOLERANCES,
    Scenario,
    ScenarioError,
    load_scenario,
    random_scenario,
    scenario_from_dict,
)

__version__ = "0.1.0"

# the game oracle's exports are imported on first access, so that the
# command line loads ``games`` only where a game is solved
_GAMES_EXPORTS = frozenset({
    "EpsilonSaddle",
    "GameCheck",
    "GameValues",
    "SaddleReport",
    "brute_force_values",
    "epsilon_ratio_ok",
    "game_equals_rbsde",
    "right_jump_counterexample",
    "saddle_points",
    "value_identity_applicable",
})


def __getattr__(name: str):
    if name != "games" and name not in _GAMES_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    games = import_module(".games", __name__)
    return games if name == "games" else getattr(games, name)
