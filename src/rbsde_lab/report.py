"""Deterministic report emission: canonical JSON, CSV tables, atomic writes.

Reports must be byte-identical across runs, so serialization is pinned
down here once: object keys sorted, floats printed at 17 significant
digits (round-trippable for doubles), non-finite values spelled out as
strings, and no environment-dependent content (timestamps, paths, thread
counts) anywhere in a report body.
"""

from __future__ import annotations

import io
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .expectation import TransitionIncrements
from .lattice import OptionalProcess, TwoPhaseTree, build_tree
from .reflect import RBSDESolution

__all__ = [
    "canonical_json",
    "write_json_atomic",
    "write_csv_atomic",
    "solution_to_dict",
    "solution_from_dict",
    "solution_rows",
    "SOLUTION_ROW_HEADER",
]


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, ".17g")


def canonical_json(obj: Any, *, _indent: str = "") -> str:
    """Serialize with sorted keys and fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        out = io.StringIO()
        out.write('"')
        for ch in obj:
            if ch in '"\\':
                out.write("\\" + ch)
            elif ch == "\n":
                out.write("\\n")
            elif ch == "\t":
                out.write("\\t")
            elif ord(ch) < 0x20:
                out.write(f"\\u{ord(ch):04x}")
            else:
                out.write(ch)
        out.write('"')
        return out.getvalue()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        inner = _indent + "  "
        if not obj:
            return "[]"
        sep = ",\n" + inner
        if set(map(type, obj)) == {float}:
            # a row of floats in one call; a sum that is not finite (inf and
            # nan carry through it) sends the row to _fmt_float's spelling
            total = sum(obj)
            items = (sep.join(["%.17g"] * len(obj)) % tuple(obj) if total - total == 0
                     else sep.join(map(_fmt_float, obj)))
        else:
            items = sep.join(canonical_json(v, _indent=inner) for v in obj)
        return "[\n" + inner + items + "\n" + _indent + "]"
    if isinstance(obj, dict):
        inner = _indent + "  "
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{canonical_json(str(k))}: {canonical_json(v, _indent=inner)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])))
        return "{\n" + items + "\n" + _indent + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str | Path, obj: Any) -> None:
    _atomic_write(Path(path), canonical_json(obj) + "\n")


def write_csv_atomic(path: str | Path, header: Sequence[str], rows: Iterable[str]) -> None:
    """Write ``header`` as the first line, then ``rows``: rendered CSV lines,
    each chunk one or more whole lines ending in a newline."""
    _atomic_write(Path(path), ",".join(header) + "\n" + "".join(rows))


def solution_to_dict(solution: RBSDESolution) -> dict[str, Any]:
    """JSON-able dump carrying everything needed to re-verify the solution."""
    tree = solution.y.tree
    return {
        "steps": tree.n_steps,
        "dt": tree.dt,
        "y": solution.y.table_rows(),
        "z": [solution.z[k].tolist() for k in range(tree.n_steps)],
        "r_plus": {"phase": [solution.r_plus.phase[k].tolist() for k in range(tree.n_steps)],
                   "step": [solution.r_plus.step[k].tolist() for k in range(tree.n_steps)]},
        "r_minus": {"phase": [solution.r_minus.phase[k].tolist() for k in range(tree.n_steps)],
                    "step": [solution.r_minus.step[k].tolist() for k in range(tree.n_steps)]},
    }


def solution_from_dict(data: dict[str, Any]) -> RBSDESolution:
    tree = build_tree(int(data["steps"]), float(data["dt"]))
    y = OptionalProcess(tree, [np.asarray(r, dtype=float) for r in data["y"]["at"]],
                        [np.asarray(r, dtype=float) for r in data["y"]["after"]])
    z = [np.asarray(r, dtype=float) for r in data["z"]]

    def incr(block: dict[str, Any]) -> TransitionIncrements:
        return TransitionIncrements(tree,
                                    [np.asarray(r, dtype=float) for r in block["phase"]],
                                    [np.asarray(r, dtype=float) for r in block["step"]])

    return RBSDESolution(y=y, z=z, r_plus=incr(data["r_plus"]), r_minus=incr(data["r_minus"]))


SOLUTION_ROW_HEADER = ("step", "edge", "path", "y", "z", "dr_plus", "dr_minus")


def _node_lines(line: str, bits: list[str], *columns: np.ndarray) -> str:
    """``line`` once per node of a step, filled with the node's path bits and
    its value in each column."""
    return line * len(bits) % tuple(chain.from_iterable(zip(bits, *(c.tolist() for c in columns))))


def solution_rows(solution: RBSDESolution) -> list[str]:
    """Transition-level CSV lines, one chunk per step and edge kind; ``y`` is
    the transition's left-endpoint value.

    Phase edges (AT -> AFTER) carry no noise, so their ``z`` is empty.
    """
    y, r_plus, r_minus = solution.y, solution.r_plus, solution.r_minus
    chunks: list[str] = []
    bits = [""]
    for k in range(y.tree.n_steps):
        chunks.append(_node_lines(f"{k},phase,%s,%.17g,,%.17g,%.17g\n", bits,
                                  y.at[k], r_plus.phase[k], r_minus.phase[k]))
        chunks.append(_node_lines(f"{k},step,%s,%.17g,%.17g,%.17g,%.17g\n", bits,
                                  y.after[k], solution.z[k], r_plus.step[k], r_minus.step[k]))
        bits = [b + c for b in bits for c in "01"]
    return chunks
