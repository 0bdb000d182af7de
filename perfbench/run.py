"""Benchmark driver for rbsde-lab.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed (see ``corpus.py``), then
repeats passes of the workload's CLI calls until ``S`` seconds have been
measured.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
the median pass time (``corpus_s``) and peak child memory at
``min(2, nproc)`` CLI threads, and the median import time of the CLI
(``setup_s``).  ``--trace 1`` runs one untimed warm-up pass, then pairs
of an untraced single-thread pass and a traced pass, in alternating order,
and reports the per-layer metrics.  It fails the run (``correct: false``)
when two traced passes count different work, when a traced pass writes
different bytes from the untraced one, or when a traced call spends more
than ``MAX_UNSPANNED_S`` outside its ``cli.main`` span; it exits 2 when
spans do not nest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import corpus
from workloads import cli_env, launch, run_pass

BENCHMARK = corpus.ROOT / "BENCHMARK.json"

MIN_SETUP_SAMPLES = 10
IMPORTS_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# a traced call may spend at most this long outside its cli.main span
MAX_UNSPANNED_S = 3.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_time(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the CLI."""
    with open(os.devnull, "w") as sink:
        rc, seconds, _ = launch([sys.executable, "-c", "import rbsde_lab.cli"], env, sink)
    if rc != 0:
        raise RuntimeError(f"import rbsde_lab.cli exited {rc}")
    return seconds


def describe(name: str, unit: str, samples: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(samples)
    line = f"{name}: median {statistics.median(samples):.6g} {unit}, n={n}"
    tails = [p for p in (99, 95, 90, 75, 50) if (100 - p) * n >= 1000]
    if tails:
        q = statistics.quantiles(samples, n=100, method="inclusive")[tails[0] - 1]
        line += f", p{tails[0]} {q:.6g} {unit}"
    else:
        line += " (no percentile has ten samples beyond it)"
    return line


class BadTrace(Exception):
    """Spans that do not nest: self times would not be times of one layer."""


def layer_metrics(span_files: list[Path]) -> tuple[dict[str, float], list[float]]:
    """Self times, call counts and work counts of one traced pass, and the
    length of each call's outermost span."""
    out: dict[str, float] = {}
    roots: list[float] = []
    for path in span_files:
        data = json.loads(path.read_text())
        layers, spans = data["layers"], data["spans"]
        for time_m, calls_m, work_m in layers.values():
            out.setdefault(time_m, 0.0)
            out.update({m: out.get(m, 0) for m in (calls_m, work_m) if m})
        child = [0.0] * len(spans)
        root = 0.0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                if not p_start <= start <= end <= p_end:
                    raise BadTrace(f"{path.name}: span {name} is not inside its parent")
                child[parent] += end - start
            else:
                root += end - start
        for i, (name, start, end, _, work) in enumerate(spans):
            time_m, calls_m, work_m = layers[name]
            self_s = (end - start) - child[i]
            if self_s < 0:  # children overlap one another
                raise BadTrace(f"{path.name}: span {name} has negative self time {self_s:.3g} s")
            out[time_m] += self_s
            if calls_m:
                out[calls_m] += 1
            if work_m:
                out[work_m] += work
        for counter, value in data["counters"].items():
            out[counter] = out.get(counter, 0) + value
        roots.append(root)
    calls = out["expectation.implicit_step_calls"]
    out["expectation.evals_per_step"] = out["expectation.driver_evals"] / calls if calls else 0.0
    out["trace.wall_s"] = sum(roots)
    return out, roots


def is_count(metric: str) -> bool:
    return not metric.endswith("_s") and metric != "expectation.evals_per_step"


def same_outputs(a: Path, b: Path) -> bool:
    names_a = sorted(p.name for p in a.iterdir() if p.name != "cli.log")
    names_b = sorted(p.name for p in b.iterdir() if p.name != "cli.log")
    return names_a == names_b and all((a / n).read_bytes() == (b / n).read_bytes() for n in names_a)


def digest_mismatches(entries: list[dict], result) -> int:
    count = 0
    for entry, outcome in zip(entries, result.scenarios):
        for suffix, expected in entry["reports"].items():
            count += outcome.digests.get(suffix) != expected
    return count


def run_untraced(workload, files, work, seconds):
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    env = cli_env(threads)
    import_time(env)  # untimed warm-up launch: fills the page cache
    setup, results = [], []
    t0 = time.perf_counter()
    # import launches are spread over the run so that they sample the same
    # machine conditions as the passes
    while len(results) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        setup += [import_time(env) for _ in range(IMPORTS_PER_PASS)]
        out = work / f"out-{len(results)}"
        results.append(run_pass(workload, files, out, env))
        shutil.rmtree(out)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(import_time(env))
    corpus_s = [r.wall_s for r in results]
    rss = [r.peak_rss_mb for r in results]
    print(f"{workload}: {len(files)} scenarios per pass, RBSDE_LAB_THREADS={threads}")
    print("corpus_s samples:", " ".join(f"{x:.3f}" for x in corpus_s))
    print(describe("corpus_s", "s", corpus_s))
    print(describe("setup_s", "s", setup))
    print(describe("peak_rss_mb", "MB", rss))
    metrics = {"corpus_s": statistics.median(corpus_s), "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    return results, metrics, True


def run_traced(workload, entries, files, work, seconds):
    env = cli_env(1)
    warm = run_pass(workload, files, work / "warm-up", env)  # untimed: fills the page cache
    shutil.rmtree(work / "warm-up")
    mismatches = digest_mismatches(entries, warm)
    results, traced, serial, overhead, unspanned = [warm], [], [], [], []
    correct = True
    t0 = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - t0 < seconds:
        i = len(traced)
        plain_out, traced_out, spans = work / f"plain-{i}", work / f"traced-{i}", work / f"spans-{i}"
        spans.mkdir()
        # the two passes swap order each iteration, so that neither is
        # always the one that runs first
        if i % 2:
            tr = run_pass(workload, files, traced_out, env, trace_dir=spans)
            plain = run_pass(workload, files, plain_out, env)
        else:
            plain = run_pass(workload, files, plain_out, env)
            tr = run_pass(workload, files, traced_out, env, trace_dir=spans)
        results += [plain, tr]
        serial.append(plain.wall_s)
        overhead.append(tr.wall_s / plain.wall_s - 1.0)
        try:
            metrics, roots = layer_metrics(tr.span_files)
        except BadTrace as exc:
            log(str(exc))
            return results, {}, False
        traced.append(metrics)
        # time of each traced call outside cli.main: interpreter start,
        # imports, installing the wrappers and writing the spans
        unspanned += [call - root for call, root in zip(tr.call_s, roots)]
        if not same_outputs(plain_out, traced_out):
            log("traced and untraced passes wrote different outputs")
            correct = False
        for d in (plain_out, traced_out, spans):
            shutil.rmtree(d)
    counts = [{k: v for k, v in m.items() if is_count(k)} for m in traced]
    if any(c != counts[0] for c in counts[1:]):
        log(f"work counts differ between traced passes: {counts}")
        correct = False
    print(f"time outside cli.main per traced call: {min(unspanned):.3f} to {max(unspanned):.3f} s")
    if not 0.0 < min(unspanned) <= max(unspanned) < MAX_UNSPANNED_S:
        log(f"the cli.main spans do not account for the traced calls: each call spent "
            f"{min(unspanned):.3f} to {max(unspanned):.3f} s outside them, "
            f"allowed (0, {MAX_UNSPANNED_S}) s")
        correct = False
    # one whole traced pass, the one with the median wall time, so that its
    # self times add up to its wall time
    metrics = sorted(traced, key=lambda m: m["trace.wall_s"])[(len(traced) - 1) // 2]
    metrics["report.digest_mismatches"] = mismatches
    metrics["cli.serial_corpus_s"] = statistics.median(serial)
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    print(f"{workload}: {len(traced)} traced passes, RBSDE_LAB_THREADS=1")
    return results, metrics, correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind as on an exception: children are killed and reaped,
    # scratch files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (corpus.SRC / "rbsde_lab" / "cli.py").is_file():
        log(f"no rbsde_lab sources under {corpus.SRC}; run from a checkout of the repository")
        return 2
    declared = json.loads(BENCHMARK.read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = corpus.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        entries = corpus.select(args.workload, args.seed, corpus.load_manifest())
        files = corpus.materialize(args.workload, entries, work / "in")
        if args.trace:
            results, metrics, correct = run_traced(args.workload, entries, files, work, args.seconds)
        else:
            results, metrics, correct = run_untraced(args.workload, files, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"metrics not produced: {missing}")
        return 2
    attempted = sum(len(r.scenarios) for r in results)
    failed = sum(r.failed for r in results)
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted} scenario runs)")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
