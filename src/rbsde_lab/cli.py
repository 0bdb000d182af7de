"""Command-line front end: load scenarios, run checks, emit reports.

Six subcommands share one pipeline shape: load the scenario, run the
requested computation, assert its checks, and emit a canonical JSON
report (plus CSV tables on request).  Reports carry no timestamps,
paths, or machine details, so identical inputs give byte-identical
output.  Exit codes: 0 all asserted checks passed, 1 a check failed or
a guarded computation refused to run, 2 an input file (a scenario, or a
solution on another grid), a flag or a theta node does not fit, or a
truncation ladder or strategy enumeration would exceed its element budget.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .expectation import (
    EnumerationBoundError,
    EnumerationBudgetError,
    RootSolveError,
    classify_ef,
    constant_driver,
)
from .lattice import OptionalProcess, Phase, StoppingTime, TwoPhaseTree, semicontinuity
from .reflect import (
    Barriers,
    LadderBudgetError,
    SeparationFailure,
    check_minimality,
    continuity_analogue,
    mokobodzki_witness,
    snell_envelopes,
    solve_rbsde,
    truncation_scheme,
    verify_dynamics,
)
from .report import (
    SOLUTION_ROW_HEADER,
    ascii_text,
    solution_from_dict,
    solution_rows,
    solution_to_dict,
    write_csv_atomic,
    write_json,
    write_json_atomic,
)
from .scenario import DEFAULT_TOLERANCES, Scenario, ScenarioError, _read_json, load_scenario

# the game oracle is imported by the commands that solve a game, so that
# solve, approx and deep verify calls never load it
if TYPE_CHECKING:
    from .games import SaddleReport

__all__ = ["main", "run"]

# residuals of bracketed root solves sit within a small multiple of the
# bracket width, so dynamics checks run at a few times tol_root
_DYNAMICS_SLACK = 4.0


def _tols(scenario: Scenario, args: argparse.Namespace) -> dict[str, float | int]:
    """The scenario's tolerances (defaults and file values), overridden by flags."""
    out = dict(scenario.tolerances)
    for name in DEFAULT_TOLERANCES:
        flag = getattr(args, name, None)
        if flag is not None:
            out[name] = flag
    return out


def _system_dict(stop: StoppingTime) -> dict[str, Any]:
    """A stop as a stopping system: its grid step, phase AT, and H at AT keys."""
    return {"step": stop.steps.tolist(),
            "phase": [0] * len(stop.keys),
            "member": (stop.phases == 0).tolist()}


# ---------------------------------------------------------------------------
# command handlers: Scenario + parsed args -> (report dict, csv tables)

# label -> (header, rendered CSV lines, possibly produced as they are
# written); floats print at 17 significant digits
CsvTables = dict[str, tuple[tuple[str, ...], Iterable[str]]]


def _cmd_solve(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    sol = solve_rbsde(scn.tree, scn.barriers, scn.driver, tol_root=t["tol_root"])
    mini = check_minimality(sol, scn.barriers, tol_comp=t["tol_comp"])
    dyn = verify_dynamics(sol, scn.barriers, scn.driver, tol=_DYNAMICS_SLACK * t["tol_root"])
    report = {
        "command": "solve",
        "scenario": scn.name,
        "y0": float(sol.y.at[0][0]),
        "solution": solution_to_dict(sol),
        "minimality": asdict(mini),
        "dynamics": asdict(dyn),
        "passed": mini.passed and dyn.passed,
    }
    return report, {"solution": (SOLUTION_ROW_HEADER, solution_rows(sol))}


def _check_theta(scn: Scenario, args: argparse.Namespace) -> None:
    """Refuse a theta node the scenario does not have, before any work."""
    n, step, node = scn.tree.n_steps, args.theta_step, args.theta_node
    if not 0 <= step < n:
        raise ScenarioError(f"--theta-step {step} is outside [0, {n - 1}]")
    if not 0 <= node < 1 << step:
        raise ScenarioError(f"--theta-node {node} is outside [0, {(1 << step) - 1}] at --theta-step {step}")


def _cmd_game(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    from .games import brute_force_values, value_identity_applicable

    _check_theta(scn, args)
    t = _tols(scn, args)
    values = brute_force_values(scn.tree, scn.barriers, scn.driver, mode=args.mode,
                                theta_step=args.theta_step, theta_node=args.theta_node,
                                enum_bound=t["enum_bound"], tol_root=t["tol_root"])
    sol = solve_rbsde(scn.tree, scn.barriers, scn.driver, tol_root=t["tol_root"])
    y_theta = sol.y.value(args.theta_step, Phase.AT, args.theta_node)
    gap_to_y = max(abs(values.upper - y_theta), abs(values.lower - y_theta))
    if args.mode == "extended":
        passed = gap_to_y <= t["tol_game"]
    else:
        # the plain game still has a value on a finite tree, but that value
        # may differ from Y when the barriers jump the wrong way; only the
        # internal gap is asserted here
        passed = abs(values.gap) <= t["tol_game"]
    report = {
        "command": "game",
        "scenario": scn.name,
        "mode": args.mode,
        "theta": {"step": args.theta_step, "node": args.theta_node},
        "upper": values.upper,
        "lower": values.lower,
        "gap": values.gap,
        "y_theta": y_theta,
        "gap_to_y": gap_to_y,
        "gap_to_y_asserted": args.mode == "extended",
        "identity_applicable": value_identity_applicable(scn.barriers),
        "n_tau": values.n_tau,
        "n_sigma": values.n_sigma,
        "passed": passed,
    }
    tables: CsvTables = {}
    if scn.tree.n_steps - args.theta_step <= 2:
        header = ("tau",) + tuple(f"sigma_{j}" for j in range(values.n_sigma))
        line = "%d" + ",%.17g" * values.n_sigma + "\n"
        tables["matrix"] = (header, [line % (i, *row) for i, row in enumerate(values.matrix.tolist())])
    return report, tables


def _epsilon_dicts(rep: SaddleReport, tol_game: float) -> tuple[list[dict[str, Any]], bool]:
    from .games import epsilon_ratio_ok

    entries = []
    structural_ok = True
    for es in rep.epsilon_saddles:
        ok = (es.hit_gap_lower == 0.0 and es.hit_gap_upper == 0.0
              and es.reflection_mass_lower == 0.0 and es.reflection_mass_upper == 0.0)
        structural_ok = structural_ok and ok
        entries.append({
            "epsilon": es.epsilon,
            "pair_value": es.pair_value,
            "residual_up": es.residual_up,
            "residual_down": es.residual_down,
            "hit_gap_lower": es.hit_gap_lower,
            "hit_gap_upper": es.hit_gap_upper,
            "reflection_mass_lower": es.reflection_mass_lower,
            "reflection_mass_upper": es.reflection_mass_upper,
            # the residuals always sweep every opponent; the field keeps the report's bytes
            "opponents_checked": True,
            "structural_ok": ok,
        })
    if len(rep.epsilon_saddles) >= 2:
        ratio_ok, quotients = epsilon_ratio_ok(rep.epsilon_saddles, tol=tol_game)
        structural_ok = structural_ok and ratio_ok
        for entry, q in zip(sorted(entries, key=lambda e: -e["epsilon"]), quotients):
            entry["residual_quotient"] = q
    return entries, structural_ok


def _cmd_saddle(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    from .games import saddle_points

    _check_theta(scn, args)
    t = _tols(scn, args)
    rep = saddle_points(scn.tree, scn.barriers, scn.driver,
                        theta_step=args.theta_step, theta_node=args.theta_node,
                        enum_bound=t["enum_bound"], epsilons=tuple(args.epsilon or ()), tol_root=t["tol_root"])
    eps_entries, eps_ok = _epsilon_dicts(rep, t["tol_game"])
    contact_tol = _DYNAMICS_SLACK * t["tol_root"]
    contacts_ok = all(c <= contact_tol for c in rep.contacts.values())
    passed = rep.passed(t["tol_game"]) and contacts_ok and eps_ok
    report = {
        "command": "saddle",
        "scenario": scn.name,
        "theta": {"step": args.theta_step, "node": args.theta_node},
        "y_theta": rep.y_theta,
        "tau_star": _system_dict(rep.tau_star),
        "sigma_star": _system_dict(rep.sigma_star),
        "tau_bar": {"step": rep.tau_bar.steps.tolist(), "phase": rep.tau_bar.phases.tolist()},
        "sigma_bar": {"step": rep.sigma_bar.steps.tolist(), "phase": rep.sigma_bar.phases.tolist()},
        "order_tau_ok": rep.order_tau_ok,
        "order_sigma_ok": rep.order_sigma_ok,
        "contacts": rep.contacts,
        "residuals": rep.residuals,
        "epsilon": eps_entries,
        "warnings": rep.warnings,
        "passed": passed,
    }
    return report, {}


def _load_solution(path: str, tree: TwoPhaseTree):
    """Read a dumped solution, unwrapping a full solve report if handed one;
    a solution on another grid than ``tree`` is refused before it is built."""
    try:
        data = _read_json(Path(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if isinstance(data, dict) and "steps" not in data and isinstance(data.get("solution"), dict):
        data = data["solution"]
    try:
        grid = (int(data["steps"]), float(data["dt"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path} is not a solution document: {exc}") from exc
    if grid != (tree.n_steps, tree.dt):
        raise ScenarioError(f"{path}: solution grid (steps {grid[0]}, dt {grid[1]!r}) does not match "
                            f"the scenario's (steps {tree.n_steps}, dt {tree.dt!r})")
    try:
        return solution_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path} is not a solution document: {exc}") from exc


def _witness_dict(tree: TwoPhaseTree, barriers: Barriers) -> dict[str, Any]:
    """The witness block of a verify report.  The witness's cut key matrix
    and midpoint process are freed on return, before a solution file is read."""
    wit = mokobodzki_witness(tree, barriers)
    if isinstance(wit, SeparationFailure):
        lv = barriers.lower.value(wit.step, wit.phase, wit.node)
        uv = barriers.upper.value(wit.step, wit.phase, wit.node)
        witness = {"separated": False,
                   "failure": {"step": wit.step, "phase": int(wit.phase), "node": wit.node,
                               "lower": wit.lower, "upper": wit.upper},
                   "consistent": lv >= uv}
    else:
        sandwich = (barriers.lower.pointwise_leq(wit.x) and wit.x.pointwise_leq(barriers.upper))
        witness = {"separated": True, "cut_count": len(wit.cut_keys),
                   "sandwich_ok": sandwich, "consistent": sandwich}
    witness["consistent"] = bool(witness["consistent"])
    return witness


def _cmd_verify(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    tree, barriers, driver = scn.tree, scn.barriers, scn.driver
    # on shallow trees the game oracle solves the equation, and every check reads its solution
    chk = None
    if tree.n_steps <= max(4, t["enum_bound"] + 1):
        from .games import game_equals_rbsde

        chk = game_equals_rbsde(tree, barriers, driver, enum_bound=t["enum_bound"],
                                tol_game=t["tol_game"], tol_root=t["tol_root"])
    sol = chk.solution if chk is not None else solve_rbsde(tree, barriers, driver, tol_root=t["tol_root"])
    mini = check_minimality(sol, barriers, tol_comp=t["tol_comp"])
    dyn = verify_dynamics(sol, barriers, driver, tol=_DYNAMICS_SLACK * t["tol_root"])
    cont = continuity_analogue(sol, barriers, tol=_DYNAMICS_SLACK * t["tol_root"])

    lhat, uhat = snell_envelopes(tree, barriers)
    snell_order = max(lhat.max_exceedance(barriers.lower), barriers.upper.max_exceedance(uhat))
    zero = constant_driver(0.0)
    neg_lhat = OptionalProcess.combine(lambda v: -v, lhat)
    snell: dict[str, Any] = {"ordering_violation": max(snell_order, 0.0),
                             "ordering_ok": snell_order <= 0.0}
    for label, proc in (("neg_lower_envelope", neg_lhat), ("upper_envelope", uhat)):
        one = classify_ef(proc, zero, mode="onestep", tol=t["tol_root"])
        entry = {"onestep": one.verdict, "supermartingale": one.is_supermartingale}
        if tree.n_steps <= min(3, t["enum_bound"]):
            brute = classify_ef(proc, zero, mode="brute", tol=t["tol_root"], enum_bound=t["enum_bound"])
            entry["brute"] = brute.verdict
            entry["supermartingale"] = entry["supermartingale"] and brute.is_supermartingale
        snell[label] = entry
    snell_ok = (snell["ordering_ok"] and snell["neg_lower_envelope"]["supermartingale"]
                and snell["upper_envelope"]["supermartingale"])

    witness = _witness_dict(tree, barriers)

    oracle: dict[str, Any] = {"checked": False}
    oracle_ok = True
    if chk is not None:
        oracle = {"checked": True, "max_extended_gap": chk.max_extended_gap,
                  "identity_applicable": chk.identity_applicable,
                  "passed": chk.passed_extended, "thetas": len(chk.checks)}
        oracle_ok = chk.passed_extended
    else:
        oracle["note"] = "tree too deep for exhaustive enumeration at this bound"

    round_trip: dict[str, Any] | None = None
    rt_ok = True
    if args.solution is not None:
        reloaded = _load_solution(args.solution, tree)
        r_mini = check_minimality(reloaded, barriers, tol_comp=t["tol_comp"])
        r_dyn = verify_dynamics(reloaded, barriers, driver, tol=_DYNAMICS_SLACK * t["tol_root"])
        drift = reloaded.y.sup_abs_diff(sol.y)
        rt_ok = r_mini.passed and r_dyn.passed and drift == 0.0
        round_trip = {"minimality": asdict(r_mini), "dynamics": asdict(r_dyn),
                      "value_drift": drift, "passed": rt_ok}

    report = {
        "command": "verify",
        "scenario": scn.name,
        "y0": float(sol.y.at[0][0]),
        # the check blocks are the checks' reports, field for field
        "minimality": asdict(mini),
        "dynamics": asdict(dyn),
        "continuity": asdict(cont),
        "snell": snell,
        "witness": witness,
        "game_oracle": oracle,
        "passed": (mini.passed and dyn.passed and cont.passed and snell_ok
                   and witness["consistent"] and oracle_ok and rt_ok),
    }
    if round_trip is not None:
        report["round_trip"] = round_trip
    return report, {}


def _cmd_approx(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    rep = truncation_scheme(scn.tree, scn.barriers, scn.driver,
                            n_max=args.n_max, m_max=args.m_max, cut_step=args.cut_step,
                            tol_conv=t["tol_conv"], tol_root=t["tol_root"])
    report = {
        "command": "approx",
        "scenario": scn.name,
        "n_max": rep.n_max,
        "m_max": rep.m_max,
        "cut_step": rep.cut_step,
        "monotone_n_violation": rep.monotone_n_violation,
        "monotone_m_violation": rep.monotone_m_violation,
        "limit_gap": rep.limit_gap,
        "n_gaps": rep.n_gaps,
        "m_gaps": rep.m_gaps,
        "passed": rep.passed,
    }
    tables: CsvTables = {"convergence": (
        ("stage", "n_gap", "m_gap"),
        [f"{i + 1},%.17g,%.17g\n" % (a, b) for i, (a, b) in enumerate(zip(rep.n_gaps, rep.m_gaps))])}
    return report, tables


def _cmd_oracle(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    from .games import game_equals_rbsde

    t = _tols(scn, args)
    include_plain = args.mode == "plain"
    chk = game_equals_rbsde(scn.tree, scn.barriers, scn.driver,
                            include_plain=include_plain,
                            enum_bound=t["enum_bound"], tol_game=t["tol_game"], tol_root=t["tol_root"])
    passed = chk.passed_extended
    plain: dict[str, Any] | None = None
    if include_plain:
        low_flags = semicontinuity(scn.barriers.lower)
        up_flags = semicontinuity(scn.barriers.upper)
        applicable = low_flags.right_usc and up_flags.right_lsc
        plain = {"internal_gap": chk.max_plain_internal_gap,
                 "gap_to_y": chk.max_plain_to_y_gap,
                 "lower_right_usc": low_flags.right_usc,
                 "upper_right_lsc": up_flags.right_lsc,
                 "gap_to_y_asserted": applicable}
        passed = passed and (chk.max_plain_internal_gap or 0.0) <= t["tol_game"]
        if applicable:
            passed = passed and (chk.max_plain_to_y_gap or 0.0) <= t["tol_game"]
    report = {
        "command": "oracle",
        "scenario": scn.name,
        "mode": args.mode,
        "identity_applicable": chk.identity_applicable,
        "max_extended_gap": chk.max_extended_gap,
        "thetas": [{"step": c.step, "node": c.node, "y": c.y,
                    "upper": c.extended_upper, "lower": c.extended_lower}
                   for c in chk.checks],
        "passed": passed,
    }
    if plain is not None:
        report["plain"] = plain
    return report, {}


_HANDLERS: dict[str, Callable[[Scenario, argparse.Namespace], tuple[dict[str, Any], CsvTables]]] = {
    "solve": _cmd_solve,
    "game": _cmd_game,
    "saddle": _cmd_saddle,
    "verify": _cmd_verify,
    "approx": _cmd_approx,
    "oracle": _cmd_oracle,
}


# ---------------------------------------------------------------------------
# orchestration

def _run_one(path: str, args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    name = Path(path).stem
    try:
        scenario = load_scenario(path)
    except (ScenarioError, OSError) as exc:
        return {"command": args.command, "scenario": name,
                "error": str(exc), "passed": False}, 2
    try:
        report, tables = _HANDLERS[args.command](scenario, args)
        if args.out is not None:
            out_dir = Path(args.out)
            write_json_atomic(out_dir / f"{scenario.name}.{args.command}.json", report)
            if args.format == "csv":
                for label, (header, rows) in tables.items():
                    write_csv_atomic(out_dir / f"{scenario.name}.{args.command}.{label}.csv",
                                     header, rows)
    # an OSError or UnicodeEncodeError may also come from a report that
    # cannot be written, such as a file name the file system cannot encode
    except (ScenarioError, OSError, UnicodeEncodeError, LadderBudgetError, EnumerationBudgetError) as exc:
        return {"command": args.command, "scenario": scenario.name,
                "error": str(exc), "passed": False}, 2
    except (EnumerationBoundError, RootSolveError, ValueError) as exc:
        return {"command": args.command, "scenario": scenario.name,
                "error": str(exc), "passed": False}, 1
    return report, 0 if report["passed"] else 1


def _flag(convert: Callable[[str], Any], ok: Callable[[Any], bool], what: str) -> Callable[[str], Any]:
    """argparse type of a flag that takes ``what``: its value is refused
    before any scenario is read."""
    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_count = _flag(int, lambda v: v >= 1, "an integer >= 1")
_tolerance = _flag(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_epsilon = _flag(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenarios", nargs="+", metavar="SCENARIO",
                        help="scenario JSON file(s)")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="write per-scenario reports into this directory")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="also emit CSV tables (requires --out)")
    common.add_argument("--enum-bound", dest="enum_bound", type=_count, default=None,
                        help="max subgame depth for strategy enumeration")
    for flag in ("tol-root", "tol-comp", "tol-conv", "tol-game"):
        common.add_argument(f"--{flag}", dest=flag.replace("-", "_"), type=_tolerance, default=None)

    theta = argparse.ArgumentParser(add_help=False)
    theta.add_argument("--theta-step", type=int, default=0,
                       help="grid step of the evaluation node")
    theta.add_argument("--theta-node", type=int, default=0,
                       help="node index at that step")

    parser = argparse.ArgumentParser(
        prog="rbsde-lab",
        description="Reflected-BSDE and Dynkin-game verification laboratory "
                    "on finite binary two-phase lattices.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve the reflected equation and check minimality")
    game = sub.add_parser("game", parents=[common, theta],
                          help="brute-force game values against the solver")
    game.add_argument("--mode", choices=("extended", "plain"), default="extended")
    saddle = sub.add_parser("saddle", parents=[common, theta],
                            help="construct and verify saddle-point strategies")
    saddle.add_argument("--epsilon", type=_epsilon, nargs="*", default=None,
                        help="epsilon values for approximate saddles")
    verify = sub.add_parser("verify", parents=[common],
                            help="run the full invariant suite on a scenario")
    verify.add_argument("--solution", metavar="JSON", default=None,
                        help="re-check a dumped solution (or a solve report) "
                             "against this scenario")
    approx = sub.add_parser("approx", parents=[common],
                            help="monotone truncation scheme convergence report")
    approx.add_argument("--cut-step", dest="cut_step", type=_count, default=None,
                        help="steps per artificial barrier stage")
    approx.add_argument("--n-max", dest="n_max", type=_count, default=None)
    approx.add_argument("--m-max", dest="m_max", type=_count, default=None)
    oracle = sub.add_parser("oracle", parents=[common],
                            help="game-equals-solver sweep over late-step nodes")
    oracle.add_argument("--mode", choices=("extended", "plain"), default="extended")
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """The parsed command line; argparse exits on one it refuses."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.out is None:
        parser.error("--format csv requires --out")
    return args


# one scenario's outcome: its index on the command line, its exit code,
# and its report (with --out and an exit code below 2, only the
# "scenario" and "command" its status line reads)
Outcome = tuple[int, int, dict[str, Any]]


def _outcome(args: argparse.Namespace, i: int) -> Outcome:
    report, rc = _run_one(args.scenarios[i], args)
    if args.out is not None and rc < 2:
        report = {"command": report["command"], "scenario": report["scenario"]}
    return i, rc, report


def _fork_worker(args: argparse.Namespace, indices: range) -> tuple[int, int]:
    """Fork a process that runs the scenarios at ``indices`` and sends their
    outcomes down a pipe as one JSON list when it ends; returns its pid and
    the pipe's read end.  The worker stops early when its parent is gone,
    and ends with ``os._exit`` whatever happens."""
    parent = os.getpid()
    read_end, write_end = os.pipe()
    sys.stdout.flush()  # else the worker inherits, and may repeat, buffered output
    sys.stderr.flush()
    with warnings.catch_warnings():
        # from Python 3.12 a fork warns while another thread runs; the other
        # thread here is OpenBLAS's, which it shuts down across a fork
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, read_end
    os.close(read_end)
    sent: list[Outcome] = []
    code = 1
    try:
        for i in indices:
            if os.getppid() != parent:
                break
            sent.append(_outcome(args, i))
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            with open(write_end, "w", encoding="ascii") as pipe:
                pipe.write(json.dumps(sent))
            sys.stderr.flush()
        finally:
            os._exit(code)


def _collect(args: argparse.Namespace, indices: range, pid: int, read_end: int) -> list[Outcome]:
    """The outcomes the worker ``pid`` sent for the scenarios at ``indices``;
    those it did not report are named on stderr."""
    with open(read_end, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    try:
        sent = [(i, rc, report) for i, rc, report in json.loads(data)]
    except ValueError:  # the worker died while it wrote
        sent = []
    missing = sorted(set(indices) - {i for i, _, _ in sent})
    if missing:
        print("rbsde-lab: a worker ended without reporting "
              + ", ".join(args.scenarios[i] for i in missing), file=sys.stderr)
    return sent


def _rerun_shared_names(args: argparse.Namespace, outcomes: list[Outcome], workers: int) -> None:
    """Make each report file the one a serial run leaves.  A name declared
    by scenarios in several processes holds whichever report was written
    last in time; its scenarios after the first run again here, in order,
    so each file's last writer is the last on the command line to write it."""
    by_name: dict[str, list[int]] = {}
    for i, _, report in outcomes:
        by_name.setdefault(report["scenario"], []).append(i)
    for same in by_name.values():
        if len({i % workers for i in same}) > 1:
            for i in same[1:]:
                _run_one(args.scenarios[i], args)


def _execute(args: argparse.Namespace, workers: int) -> int:
    """Run every scenario of ``args`` over ``workers`` processes: this
    one and ``workers - 1`` forked ones, each taking every ``workers``-th
    scenario.  Reports, status lines and the exit code are those of a
    serial run, which is the one-worker case."""
    n = len(args.scenarios)
    slices = [range(w, n, workers) for w in range(workers)]
    forked = [(indices, *_fork_worker(args, indices)) for indices in slices[1:]]
    outcomes: Iterable[Outcome] = (_outcome(args, i) for i in slices[0])
    code = 0
    if forked:
        try:
            own = list(outcomes)
        finally:  # every worker is reaped, also when this process's slice raised
            sent = [o for worker in forked for o in _collect(args, *worker)]
        outcomes = sorted(own + sent, key=lambda o: o[0])
        code = int(len(outcomes) < n)  # a scenario no worker reported fails the call
        _rerun_shared_names(args, outcomes, workers)
    for _, rc, report in outcomes:
        code = max(code, rc)
        if args.out is None or rc == 2:
            write_json(sys.stdout, report)
        else:
            status = "ok" if rc == 0 else "FAIL"
            print(f"{status} {ascii_text(report['scenario'])} ({report['command']})")
    return code


def _usable_cpus(args: argparse.Namespace) -> int:
    """Processes a call spreads its scenarios over: one per CPU it may use,
    up to one per scenario, when its reports go to files; else one."""
    if args.out is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), len(args.scenarios))


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` in this process and return its exit
    code; an argument argparse refuses raises ``SystemExit`` instead."""
    return _execute(_parse(argv), 1)


def run() -> None:
    """The ``rbsde-lab`` script and ``python -m rbsde_lab.cli``: the command
    line, its scenarios spread over the usable CPUs when its reports go to
    files; then the process ends as soon as its output is flushed, with no
    interpreter teardown.  A flush that fails falls back to ``sys.exit``, so
    a closed pipe ends the process as a normal exit does."""
    args = _parse(None)
    code = _execute(args, _usable_cpus(args))
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
