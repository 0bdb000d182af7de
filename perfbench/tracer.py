"""Traced CLI call: run ``rbsde_lab.cli.main`` in-process with layer spans.

Usage::

    python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

The layers are wrapped from outside: each traced function is replaced at
every ``rbsde_lab`` module that binds it, because ``from .x import y``
copies the name into the importing module.  Each call records a span
(name, start, end, parent span, work count) in memory.  When the call
ends, the spans, the driver counters and the ``LAYERS`` table that names
each span's metrics are written to SPANS_JSON.  The CLI's
standard output is captured and dropped, and the exit code is the CLI's.
Run it with ``RBSDE_LAB_THREADS=1``: spans are kept on one stack, so the
calls must not overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rbsde_lab import cli, expectation, games, lattice, reflect, report, scenario  # noqa: E402


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.stack: list[int] = []
        self.driver_evals = 0
        self.driver_elems = 0

    def wrap(self, name, fn, *, work=None, top_level_only=False):
        """``fn`` recording a span; ``name`` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if top_level_only and self.stack and self.spans[self.stack[-1]][0] == label:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if work is not None:
                span[4] = int(work(args, result))
            return result

        return traced

    def rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every rbsde_lab module that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rbsde_lab" or mod_name.startswith("rbsde_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def counting(self, fn):
        def counted(t, y, z):
            out = fn(t, y, z)
            self.driver_evals += 1
            self.driver_elems += int(np.size(out))
            return out

        return counted


# span name -> (self-time metric, call-count metric, work-count metric);
# run.py reads this table from the spans file
LAYERS: dict[str, tuple[str, str | None, str | None]] = {
    "scenario.load": ("scenario.load_s", None, "scenario.bytes_in"),
    "lattice.from_realized": ("lattice.from_realized_s", "lattice.from_realized_calls", None),
    "lattice.enumerate": ("lattice.enumerate_s", None, "lattice.strategies"),
    "expectation.implicit_step": ("expectation.implicit_step_s", "expectation.implicit_step_calls",
                                  "expectation.implicit_step_elems"),
    "expectation.batch": ("expectation.batch_s", None, "expectation.batch_rows"),
    "expectation.classify_brute": ("expectation.classify_brute_s", None, None),
    "expectation.classify_onestep": ("expectation.classify_onestep_s", None, None),
    "reflect.solve": ("reflect.solve_s", "reflect.solve_calls", None),
    "reflect.ladder": ("reflect.ladder_s", None, "reflect.ladder_solves"),
    "reflect.witness": ("reflect.witness_s", None, None),
    "reflect.minimality": ("reflect.minimality_s", None, None),
    "reflect.dynamics": ("reflect.dynamics_s", None, None),
    "reflect.continuity": ("reflect.continuity_s", None, None),
    "reflect.snell": ("reflect.snell_s", None, None),
    "games.oracle": ("games.oracle_s", None, None),
    "games.brute": ("games.brute_s", "games.subgames", "games.pairs"),
    "report.serialize": ("report.serialize_s", None, None),
    "report.write": ("report.write_s", None, "report.bytes_out"),
    "report.read": ("report.read_s", None, None),
    "cli": ("cli.self_s", None, None),
}


def _file_bytes(args, _result) -> int:
    return os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    def load_work(args, result):
        # counted evaluations of the scenario's driver, also through the
        # clipped drivers the truncation ladder builds on top of it
        result.driver = dataclasses.replace(result.driver, fn=tracer.counting(result.driver.fn))
        return os.path.getsize(args[0])

    def classify_name(_args, kwargs):
        return f"expectation.classify_{kwargs.get('mode', 'onestep')}"

    # (function, span name, work count of a call, only the outermost of a nest)
    targets = [
        (scenario.load_scenario, "scenario.load", load_work, False),
        (lattice.enumerate_stopping_times, "lattice.enumerate", lambda a, r: r[0].shape[0], False),
        (expectation.implicit_step, "expectation.implicit_step", lambda a, r: np.size(a[0]), False),
        (expectation.ef_backward_batch, "expectation.batch", lambda a, r: np.shape(a[2])[0], False),
        (expectation.classify_ef, classify_name, None, False),
        (reflect.solve_rbsde, "reflect.solve", None, False),
        (reflect.truncation_scheme, "reflect.ladder", lambda a, r: r.n_max * r.m_max, False),
        (reflect.mokobodzki_witness, "reflect.witness", None, False),
        (reflect.check_minimality, "reflect.minimality", None, False),
        (reflect.verify_dynamics, "reflect.dynamics", None, False),
        (reflect.continuity_analogue, "reflect.continuity", None, False),
        (reflect.snell_envelopes, "reflect.snell", None, False),
        (games.game_equals_rbsde, "games.oracle", None, False),
        (games.brute_force_values, "games.brute", lambda a, r: r.n_tau * r.n_sigma, False),
        # canonical_json recurses through its module global: only the
        # outermost call of a nest is a span
        (report.canonical_json, "report.serialize", None, True),
        (report.write_json_atomic, "report.write", _file_bytes, False),
        (report.write_csv_atomic, "report.write", _file_bytes, False),
        (report.solution_from_dict, "report.read", None, False),
        (cli.main, "cli", None, False),
    ]
    unknown = {n for _, n, _, _ in targets if isinstance(n, str)} - set(LAYERS)
    if unknown:
        raise KeyError(f"span names missing from LAYERS: {sorted(unknown)}")
    for fn, name, work, top in targets:
        tracer.rebind(fn, tracer.wrap(name, fn, work=work, top_level_only=top))
    # a classmethod is one attribute of the class, shared by every importer
    func = lattice.StoppingTime.__dict__["from_realized"].__func__
    lattice.StoppingTime.from_realized = classmethod(tracer.wrap("lattice.from_realized", func))


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    spans_path.write_text(json.dumps({
        "layers": LAYERS,
        "spans": tracer.spans,
        "counters": {
            "expectation.driver_evals": tracer.driver_evals,
            "expectation.driver_elems": tracer.driver_elems,
        },
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main())
