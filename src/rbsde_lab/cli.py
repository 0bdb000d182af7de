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
import math
import os
import pickle
import sys
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .expectation import (
    BudgetError,
    EnumerationBoundError,
    RootSolveError,
    classify_ef,
    constant_driver,
)
from .lattice import OptionalProcess, Phase, StoppingTime, semicontinuity
from .reflect import (
    RBSDESolution,
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
    commit_temp,
    discard_temp,
    solution_rows,
    solution_to_dict,
    write_csv,
    write_csv_atomic,
    write_json,
    write_json_atomic,
    write_temp,
)
from .scenario import DEFAULT_TOLERANCES, Scenario, ScenarioError, load_scenario, load_solution

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
# the same, by the path of each table's file
TableFiles = dict[Path, tuple[tuple[str, ...], Iterable[str]]]


def _cmd_solve(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    sol = solve_rbsde(scn.tree, scn.barriers, scn.driver, tol_root=t["tol_root"])
    report = {**_run_checks(_SOLUTION_CHECKS, scn, t, sol),
              "y0": float(sol.y.at[0][0]), "solution": solution_to_dict(sol)}
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


# ---------------------------------------------------------------------------
# the checks of solve and verify: each takes the scenario, its tolerances, the
# solution and the game oracle's result (None past the enumeration bound), and
# calls its checker through this module's globals, as a tracer may rebind them

Block = tuple[dict[str, Any], bool]  # a check's report block and its pass flag


def _block(rep: Any) -> Block:
    return asdict(rep), rep.passed


def _snell(scn: Scenario, t: dict[str, Any], *_: Any) -> Block:
    tree, barriers = scn.tree, scn.barriers
    lhat, uhat = snell_envelopes(tree, barriers)
    snell_order = max(lhat.max_exceedance(barriers.lower), barriers.upper.max_exceedance(uhat))
    zero = constant_driver(0.0)
    snell: dict[str, Any] = {"ordering_violation": max(snell_order, 0.0), "ordering_ok": snell_order <= 0.0}
    for label, proc in (("neg_lower_envelope", OptionalProcess.combine(lambda v: -v, lhat)),
                        ("upper_envelope", uhat)):
        one = classify_ef(proc, zero, mode="onestep", tol=t["tol_root"])
        entry = {"onestep": one.verdict, "supermartingale": one.is_supermartingale}
        if tree.n_steps <= min(3, t["enum_bound"]):
            brute = classify_ef(proc, zero, mode="brute", tol=t["tol_root"], enum_bound=t["enum_bound"])
            entry["brute"] = brute.verdict
            entry["supermartingale"] = entry["supermartingale"] and brute.is_supermartingale
        snell[label] = entry
    return snell, (snell["ordering_ok"] and snell["neg_lower_envelope"]["supermartingale"]
                   and snell["upper_envelope"]["supermartingale"])


def _witness(scn: Scenario, *_: Any) -> Block:
    barriers = scn.barriers
    wit = mokobodzki_witness(scn.tree, barriers)
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
    return witness, witness["consistent"]


def _game_oracle(_scn: Scenario, _t: dict[str, Any], _sol: RBSDESolution, chk: Any) -> Block:
    if chk is None:
        return {"checked": False, "note": "tree too deep for exhaustive enumeration at this bound"}, True
    return ({"checked": True, "max_extended_gap": chk.max_extended_gap,
             "identity_applicable": chk.identity_applicable, "passed": chk.passed_extended,
             "thetas": len(chk.checks)}, chk.passed_extended)


# name -> check, in the order verify runs them; each name is a report block
_CHECKS: dict[str, Callable[[Scenario, dict[str, Any], RBSDESolution, Any], Block]] = {
    "minimality": lambda scn, t, sol, _: _block(check_minimality(sol, scn.barriers, tol_comp=t["tol_comp"])),
    "dynamics": lambda scn, t, sol, _: _block(
        verify_dynamics(sol, scn.barriers, scn.driver, tol=_DYNAMICS_SLACK * t["tol_root"])),
    "continuity": lambda scn, t, sol, _: _block(
        continuity_analogue(sol, scn.barriers, tol=_DYNAMICS_SLACK * t["tol_root"])),
    "snell": _snell,
    "witness": _witness,
    "game_oracle": _game_oracle,
}
# the checks that read only a solution and its scenario, run by solve and verify --solution
_SOLUTION_CHECKS = ("minimality", "dynamics")


def _run_checks(names: Iterable[str], scn: Scenario, t: dict[str, Any], sol: RBSDESolution,
                chk: Any = None) -> dict[str, Any]:
    """The blocks of the checks ``names`` on ``sol``, run in order, and ``passed``, their flags' conjunction."""
    report: dict[str, Any] = {"passed": True}
    for name in names:
        report[name], ok = _CHECKS[name](scn, t, sol, chk)
        report["passed"] = report["passed"] and ok
    return report


def _cmd_verify(scn: Scenario, args: argparse.Namespace,
                reader: Callable[[], Any] | None = None) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    # on shallow trees the game oracle solves the equation, and every check reads its solution
    chk = None
    if scn.tree.n_steps <= max(4, t["enum_bound"] + 1):
        from .games import game_equals_rbsde

        chk = game_equals_rbsde(scn.tree, scn.barriers, scn.driver, enum_bound=t["enum_bound"],
                                tol_game=t["tol_game"], tol_root=t["tol_root"])
    sol = chk.solution if chk is not None else solve_rbsde(scn.tree, scn.barriers, scn.driver, tol_root=t["tol_root"])
    report = {**_run_checks(_CHECKS, scn, t, sol, chk), "y0": float(sol.y.at[0][0])}
    if args.solution is not None:
        # after every other check, once the witness's cut key matrix is freed: a forked reader's solution
        # is taken when it unpickled onto this scenario's tree, the one tree of its grid, else read here
        reloaded = reader() if reader is not None else None
        if reloaded is None or reloaded.y.tree is not scn.tree:
            reloaded = load_solution(args.solution, scn.tree)
        trip = report["round_trip"] = _run_checks(_SOLUTION_CHECKS, scn, t, reloaded)
        trip["value_drift"] = reloaded.y.sup_abs_diff(sol.y)
        trip["passed"] = trip["passed"] and trip["value_drift"] == 0.0
        report["passed"] = report["passed"] and trip["passed"]
    return report, {}


def _cmd_approx(scn: Scenario, args: argparse.Namespace) -> tuple[dict[str, Any], CsvTables]:
    t = _tols(scn, args)
    rep = truncation_scheme(scn.tree, scn.barriers, scn.driver,
                            n_max=args.n_max, m_max=args.m_max, cut_step=args.cut_step,
                            tol_conv=t["tol_conv"], tol_root=t["tol_root"])
    report = {
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
    report = {
        "mode": args.mode,
        "identity_applicable": chk.identity_applicable,
        "max_extended_gap": chk.max_extended_gap,
        "thetas": [{"step": c.step, "node": c.node, "y": c.y,
                    "upper": c.extended_upper, "lower": c.extended_lower}
                   for c in chk.checks],
        "passed": chk.passed_extended,
    }
    if include_plain:
        low_flags = semicontinuity(scn.barriers.lower)
        up_flags = semicontinuity(scn.barriers.upper)
        applicable = low_flags.right_usc and up_flags.right_lsc
        report["plain"] = {"internal_gap": chk.max_plain_internal_gap,
                           "gap_to_y": chk.max_plain_to_y_gap,
                           "lower_right_usc": low_flags.right_usc,
                           "upper_right_lsc": up_flags.right_lsc,
                           "gap_to_y_asserted": applicable}
        report["passed"] = (report["passed"] and (chk.max_plain_internal_gap or 0.0) <= t["tol_game"]
                            and (not applicable or (chk.max_plain_to_y_gap or 0.0) <= t["tol_game"]))
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
# forked helpers: a call's scenario workers, and the table writer and
# solution reader that overlap one scenario's file I/O with its other work

def _fork(task: Callable[[], Any]) -> Callable[..., Any] | None:
    """Run ``task`` in a forked process, which pickles what it returns down
    a pipe, or prints what it raised, and ends with ``os._exit``.  Returns
    None when no pipe or fork could be had, else a function that reaps the
    process, first killing it when called with ``kill=True``, and returns
    what ``task`` returned: None when that did not arrive whole, or on a
    later call.  Only this process unpickles what its child wrote."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        sys.stdout.flush()  # else the child inherits, and may repeat, buffered output
        sys.stderr.flush()
        with warnings.catch_warnings():
            # from Python 3.12 a fork warns while another thread runs; the other
            # thread here is OpenBLAS's, which it shuts down across a fork
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if not pid:
        os.close(read_end)
        code = 1
        try:
            with open(write_end, "wb") as pipe:
                # protocol 5 writes an array's buffer as it is, with no copy
                pickle.dump(task(), pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            try:
                sys.stderr.flush()
            finally:
                os._exit(code)
    os.close(write_end)

    def result(kill: bool = False) -> Any:
        nonlocal pid
        child, pid, value = pid, 0, None
        if not child:
            return None
        with open(read_end, "rb") as pipe:
            if kill:
                from signal import SIGKILL

                os.kill(child, SIGKILL)
            else:
                try:
                    value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the process died while it wrote
                    pass
        return value if os.waitpid(child, 0)[1] == 0 else None
    return result


def _table_temps(tables: TableFiles) -> list[str] | None:
    """The task of a table writer: render each table into a temporary file
    beside its path and return the files' names.  When a table cannot be
    written it removes the files it made and returns None, and the tables
    are written again where the serial run writes them, raising that
    run's error."""
    temps: list[str] = []
    try:
        for path, (header, rows) in tables.items():
            temps.append(write_temp(path, partial(write_csv, header=header, rows=rows)))
    except Exception:
        for tmp in temps:
            discard_temp(tmp)
        return None
    return temps


def _write_reports(path: Path, report: dict[str, Any], tables: TableFiles, overlap: bool) -> None:
    """Write the JSON report to ``path``, then each CSV table, leaving the
    files and raising the error of a serial run.  With ``overlap`` a forked
    writer renders the tables while this process writes the report; each
    is renamed into place once the report is, or removed if it is not."""
    writer = _fork(partial(_table_temps, tables)) if overlap and tables else None
    try:
        write_json_atomic(path, report)
    except BaseException:
        for tmp in (writer and writer()) or ():
            discard_temp(tmp)
        raise
    temps = writer and writer()
    if temps is None:  # no writer, or it wrote nothing: the tables are written here
        for table, (header, rows) in tables.items():
            write_csv_atomic(table, header, rows)
        return
    for k, table in enumerate(tables):
        try:
            commit_temp(temps[k], table)
        except OSError:
            for tmp in temps[k + 1:]:
                discard_temp(tmp)
            raise


def _solution_or_none(path: str) -> RBSDESolution | None:
    """The task of a solution reader: :func:`load_solution` of ``path``.
    When that raises it returns None, and the file is read again where a
    serial run reads it, raising that run's error."""
    try:
        return load_solution(path)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# orchestration

# errors that refuse an input, a flag's value or a budget (exit 2); an
# OSError or UnicodeEncodeError may also come from a report that cannot be
# written, such as a file name the file system cannot encode
_REFUSED = (ScenarioError, OSError, UnicodeEncodeError, BudgetError)
# errors of a guarded computation that refused to run (exit 1)
_FAILED = (EnumerationBoundError, RootSolveError, ValueError)


def _run_one(path: str, args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    """One scenario's report, headed by its command and scenario name, and
    its exit code."""
    envelope = {"command": args.command, "scenario": Path(path).stem}
    reader = None  # without a fork, the solution is read where it is checked
    if args.spare_cpu and args.command == "verify" and args.solution is not None:
        reader = _fork(partial(_solution_or_none, args.solution))
    handler = _HANDLERS[args.command] if reader is None else partial(_cmd_verify, reader=reader)
    try:
        scenario = load_scenario(path)
        envelope["scenario"] = scenario.name
        report, tables = handler(scenario, args)
        report.update(envelope)
        if args.out is not None:
            out_dir = Path(args.out)
            stem = f"{scenario.name}.{args.command}"
            csv = ({out_dir / f"{stem}.{label}.csv": table for label, table in tables.items()}
                   if args.format == "csv" else {})
            # only a solve table grows with the tree, enough to pay for a fork
            _write_reports(out_dir / f"{stem}.json", report, csv,
                           overlap=args.spare_cpu and args.command == "solve")
    except _REFUSED + _FAILED as exc:
        return {**envelope, "error": str(exc), "passed": False}, 2 if isinstance(exc, _REFUSED) else 1
    finally:
        if reader is not None:  # end and reap a reader whose solution was never taken
            reader(kill=True)
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
    args.spare_cpu = False  # no forked helper unless run() finds a CPU for it
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


def _scenario_outcomes(args: argparse.Namespace, indices: list[int], parent: int) -> list[Outcome]:
    """The task of a scenario worker: the outcomes of the scenarios at
    ``indices``, or of those it finished when one of them raised, whose
    error it prints.  The worker stops early once the process ``parent``
    that forked it is gone."""
    done: list[Outcome] = []
    try:
        for i in indices:
            if os.getppid() != parent:
                break
            done.append(_outcome(args, i))
    except Exception:
        sys.excepthook(*sys.exc_info())
    return done


def _outcomes(args: argparse.Namespace, indices: list[int], worker: Callable[[], Any]) -> list[Outcome]:
    """The outcomes ``worker`` returned for the scenarios at ``indices``;
    those it did not report are named on stderr."""
    done = worker() or []
    missing = sorted(set(indices) - {i for i, _, _ in done})
    if missing:
        print("rbsde-lab: a worker ended without reporting "
              + ", ".join(args.scenarios[i] for i in missing), file=sys.stderr)
    return done


def _slices(paths: list[str], workers: int) -> list[list[int]]:
    """The indices of the scenarios each of ``workers`` processes runs, in
    command-line order.  Largest input file first, each scenario goes to
    the process with the fewest bytes so far, then the fewest scenarios;
    a file that cannot be read counts as empty."""
    if workers == 1:
        return [list(range(len(paths)))]
    sizes = []
    for path in paths:
        try:
            sizes.append(os.stat(path).st_size)
        except OSError:
            sizes.append(0)
    loads = [0] * workers
    slices: list[list[int]] = [[] for _ in range(workers)]
    for i in sorted(range(len(paths)), key=lambda i: -sizes[i]):
        w = min(range(workers), key=lambda w: (loads[w], len(slices[w])))
        loads[w] += sizes[i]
        slices[w].append(i)
    return [sorted(indices) for indices in slices]


def _rerun_shared_names(args: argparse.Namespace, outcomes: list[Outcome], slices: list[list[int]]) -> None:
    """Make each report file the one a serial run leaves.  A name declared
    by scenarios in several processes holds whichever report was written
    last in time; its scenarios after the first run again here, in order,
    so each file's last writer is the last on the command line to write it."""
    process = {i: w for w, indices in enumerate(slices) for i in indices}
    by_name: dict[str, list[int]] = {}
    for i, _, report in outcomes:
        by_name.setdefault(report["scenario"], []).append(i)
    for same in by_name.values():
        if len({process[i] for i in same}) > 1:
            for i in same[1:]:
                _run_one(args.scenarios[i], args)


def _execute(args: argparse.Namespace, workers: int) -> int:
    """Run every scenario of ``args`` over ``workers`` processes: this
    one and ``workers - 1`` forked ones, each taking a slice of
    :func:`_slices`.  Reports, status lines and the exit code are those of
    a serial run, which is the one-worker case."""
    n, parent = len(args.scenarios), os.getpid()
    slices = _slices(args.scenarios, workers)
    own, forked = slices[0], []
    for indices in slices[1:]:
        worker = _fork(partial(_scenario_outcomes, args, indices, parent))
        if worker is None:  # no fork: this process runs the slice too
            own = sorted(own + indices)
        else:
            forked.append((indices, worker))
    outcomes: Iterable[Outcome] = (_outcome(args, i) for i in own)
    code = 0
    if forked:
        try:
            mine = list(outcomes)
        finally:  # every worker is reaped, also when this process's slice raised
            sent = [o for indices, worker in forked for o in _outcomes(args, indices, worker)]
        outcomes = sorted(mine + sent, key=lambda o: o[0])
        code = int(len(outcomes) < n)  # a scenario no worker reported fails the call
        _rerun_shared_names(args, outcomes, [own] + [indices for indices, _ in forked])
    for _, rc, report in outcomes:
        code = max(code, rc)
        if args.out is None or rc == 2:
            write_json(sys.stdout, report)
        else:
            status = "ok" if rc == 0 else "FAIL"
            print(f"{status} {ascii_text(report['scenario'])} ({report['command']})")
    return code


def _processes(args: argparse.Namespace) -> tuple[int, bool]:
    """The processes a call spreads its scenarios over, and whether a CPU
    is left for a helper.  A call whose reports go to files takes one
    process per CPU it may use (its affinity mask, as taskset sets it), up
    to one per scenario; any other takes one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = 1 if args.out is None else min(cpus, len(args.scenarios))
    return workers, cpus > workers


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` in this process and return its exit
    code; an argument argparse refuses raises ``SystemExit`` instead."""
    return _execute(_parse(argv), 1)


def run() -> None:
    """The ``rbsde-lab`` script and ``python -m rbsde_lab.cli``: the command
    line, its scenarios spread over the usable CPUs when its reports go to
    files, and with a CPU to spare, one scenario's CSV tables written or its
    solution file read by a forked helper (:func:`_table_temps`,
    :func:`_solution_or_none`).  A worker or helper that cannot be forked
    leaves its work to this process.  The process ends as soon as its
    output is flushed, with no interpreter teardown.  A flush that fails
    falls back to ``sys.exit``, so a closed pipe ends the process as a
    normal exit does."""
    args = _parse(None)
    workers, args.spare_cpu = _processes(args)
    code = _execute(args, workers)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
