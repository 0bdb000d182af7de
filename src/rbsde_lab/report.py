"""Deterministic report emission: canonical JSON, CSV tables, atomic writes.

Reports must be byte-identical across runs, so serialization is pinned
down here once: object keys sorted, floats printed at 17 significant
digits (round-trippable for doubles), non-finite values spelled out as
strings, and no environment-dependent content (timestamps, paths, thread
counts) anywhere in a report body.
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .expectation import TransitionIncrements
from .lattice import OptionalProcess, build_tree, node_rows
from .reflect import RBSDESolution

__all__ = [
    "ascii_text",
    "canonical_json",
    "write_json",
    "write_json_atomic",
    "write_csv",
    "write_csv_atomic",
    "write_temp",
    "commit_temp",
    "discard_temp",
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


# one pass of str.translate escapes a JSON string: the quote, the
# backslash, and every control character below 0x20
_ESCAPES = {i: f"\\u{i:04x}" for i in range(0x20)}
_ESCAPES.update({ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\t"): "\\t"})


def _u_escape(c: str) -> str:
    """``\\uXXXX`` for a non-ASCII character, a surrogate pair past U+FFFF."""
    i = ord(c)
    if i < 0x10000:
        return f"\\u{i:04x}"
    i -= 0x10000
    return f"\\u{0xd800 | i >> 10:04x}\\u{0xdc00 | i & 0x3ff:04x}"


def ascii_text(text: str) -> str:
    """``text`` as the inside of a JSON string, in ASCII: the quote, the
    backslash and control characters escaped, and every non-ASCII
    character written as ``\\uXXXX``."""
    text = text.translate(_ESCAPES)
    if not text.isascii():  # in ASCII, a report's bytes do not depend on the output encoding
        text = "".join(c if c.isascii() else _u_escape(c) for c in text)
    return text


def _scalar_json(obj: Any) -> str | None:
    """The JSON text of a scalar, or None for a container."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + ascii_text(obj) + '"'
    return None


def _json_chunks(obj: Any, indent: str = "") -> Iterator[str]:
    """The canonical JSON text of ``obj`` in pieces: a scalar, a row of
    floats or a bracket each make one piece, so no piece holds more than
    one row of a table.  An array becomes Python numbers only when its
    piece is made, so a table of arrays is never all numbers at once."""
    text = _scalar_json(obj)
    if text is not None:
        yield text
        return
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        inner = indent + "  "
        if not obj:
            yield "[]"
            return
        sep = ",\n" + inner
        if set(map(type, obj)) == {float}:
            # a row of floats in one call; a sum that is not finite (inf and
            # nan carry through it) sends the row to _fmt_float's spelling
            total = sum(obj)
            items = (sep.join(["%.17g"] * len(obj)) % tuple(obj) if total - total == 0
                     else sep.join(map(_fmt_float, obj)))
            yield "[\n" + inner + items + "\n" + indent + "]"
            return
        head = "[\n" + inner
        for value in obj:
            yield head
            yield from _json_chunks(value, inner)
            head = sep
        yield "\n" + indent + "]"
        return
    if isinstance(obj, dict):
        inner = indent + "  "
        if not obj:
            yield "{}"
            return
        head = "{\n"
        for key, value in sorted(obj.items(), key=lambda kv: str(kv[0])):
            yield head + inner + _scalar_json(str(key)) + ": "
            yield from _json_chunks(value, inner)
            head = ",\n"
        yield "\n" + indent + "}"
        return
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    return "".join(_json_chunks(obj))


def write_json(fh: TextIO, obj: Any) -> None:
    """Write ``canonical_json(obj)`` and a newline to ``fh`` a piece at a
    time, so the whole text never exists at once."""
    fh.writelines(_json_chunks(obj))
    fh.write("\n")


def write_temp(path: Path, write: Callable[[TextIO], None]) -> str:
    """Run ``write`` on a new temporary file beside ``path`` and return the
    file's name, for :func:`commit_temp`; a ``write`` that raises removes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
    except BaseException:
        discard_temp(tmp)
        raise
    return tmp


def commit_temp(tmp: str, path: Path) -> None:
    """Rename the temporary file ``tmp`` into place at ``path``.  A rename
    that fails removes ``tmp`` and raises an error naming ``path`` alone,
    so that its text does not hold ``tmp``'s random name."""
    try:
        os.replace(tmp, path)
    except OSError as exc:
        discard_temp(tmp)
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def discard_temp(tmp: str) -> None:
    """Remove the temporary file ``tmp`` if it is still there."""
    try:
        os.unlink(tmp)
    except OSError:
        pass


def _atomic_write(path: Path, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on a temporary file beside ``path``, then rename it into place."""
    commit_temp(write_temp(path, write), path)


def write_json_atomic(path: str | Path, obj: Any) -> None:
    _atomic_write(Path(path), lambda fh: write_json(fh, obj))


def write_csv(fh: TextIO, header: Sequence[str], rows: Iterable[str]) -> None:
    """Write ``header`` as the first line, then ``rows``: rendered CSV lines,
    each chunk one or more whole lines ending in a newline, written as they
    come."""
    fh.writelines(chain((",".join(header) + "\n",), rows))


def write_csv_atomic(path: str | Path, header: Sequence[str], rows: Iterable[str]) -> None:
    _atomic_write(Path(path), lambda fh: write_csv(fh, header, rows))


def solution_to_dict(solution: RBSDESolution) -> dict[str, Any]:
    """Serializable dump carrying everything needed to re-verify the
    solution.  The rows are the solution's own arrays, which the serializer
    turns into numbers one row at a time."""
    n = solution.y.tree.n_steps
    return {
        "steps": n,
        "dt": solution.y.tree.dt,
        "y": {"at": list(solution.y.at), "after": list(solution.y.after)},
        "z": [solution.z[k] for k in range(n)],
        "r_plus": {"phase": list(solution.r_plus.phase), "step": list(solution.r_plus.step)},
        "r_minus": {"phase": list(solution.r_minus.phase), "step": list(solution.r_minus.step)},
    }


def solution_from_dict(data: dict[str, Any]) -> RBSDESolution:
    """The solution of a :func:`solution_to_dict` document, refused as a
    solution file is, behind the JSON pointer of the refused value: by the
    solution schema, at its first non-finite number, or by a row count or
    length of its seven blocks of rows, which :func:`node_rows` reads."""
    from .scenario import _check_solution  # deferred: scenario imports this module

    _check_solution(data)
    tree = build_tree(int(data["steps"]), float(data["dt"]))
    n = tree.n_steps
    blocks = {"/y/at": (data["y"]["at"], n + 1), "/y/after": (data["y"]["after"], n), "/z": (data["z"], n)}
    blocks.update({f"/{side}/{part}": (data[side][part], n)
                   for side in ("r_plus", "r_minus") for part in ("phase", "step")})
    y_at, y_after, z, *incr = node_rows(tree, **blocks)
    return RBSDESolution(y=OptionalProcess(tree, y_at, y_after), z=z,
                         r_plus=TransitionIncrements(tree, *incr[:2]), r_minus=TransitionIncrements(tree, *incr[2:]))


SOLUTION_ROW_HEADER = ("step", "edge", "path", "y", "z", "dr_plus", "dr_minus")

# nodes per CSV chunk: a block of 2**12 nodes renders to a few hundred kB
_BLOCK_BITS = 12


def _node_lines(line: str, bits: list[str], *columns: np.ndarray) -> str:
    """``line`` once per node of a block, filled with the node's path bits and
    its value in each column."""
    return line * len(bits) % tuple(chain.from_iterable(zip(bits, *(c.tolist() for c in columns))))


def solution_rows(solution: RBSDESolution) -> Iterator[str]:
    """Transition-level CSV lines, step by step, the phase edges of a step
    before its step edges; ``y`` is the transition's left-endpoint value.
    Each chunk covers at most ``2**_BLOCK_BITS`` nodes.

    Phase edges (AT -> AFTER) carry no noise, so their ``z`` is empty.
    """
    y, r_plus, r_minus = solution.y, solution.r_plus, solution.r_minus
    tails = [""]  # the low path bits of a block's nodes, in node order
    for k in range(y.tree.n_steps):
        low = min(k, _BLOCK_BITS)
        width = 1 << low
        # a block's high path bits are the same on each of its lines, so
        # they go into the line template
        prefixes = [format(b, f"0{k - low}b") if k > low else "" for b in range(1 << (k - low))]
        edges = ((f"{k},phase,{{}}%s,%.17g,,%.17g,%.17g\n", (y.at[k], r_plus.phase[k], r_minus.phase[k])),
                 (f"{k},step,{{}}%s,%.17g,%.17g,%.17g,%.17g\n",
                  (y.after[k], solution.z[k], r_plus.step[k], r_minus.step[k])))
        for line, columns in edges:
            for b, prefix in enumerate(prefixes):
                yield _node_lines(line.format(prefix), tails, *(c[b * width:(b + 1) * width] for c in columns))
        if k < _BLOCK_BITS:
            tails = [t + c for t in tails for c in "01"]
