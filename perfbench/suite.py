"""Run every workload untraced and traced, print every metric, run the self-tests.

Usage::

    python3 perfbench/suite.py [--seed N] [--seconds S]

For each workload this runs ``run.py --trace 0`` and ``run.py --trace 1``
with the same seed, prints each metric by name with its unit, and checks:

- every scenario run passed (``fail_frac`` is 0);
- the work counts of two traced passes are identical, traced and
  untraced passes wrote byte-identical reports, the spans nest, and each
  traced call spends less than ``run.MAX_UNSPANNED_S`` outside its
  ``cli.main`` span (``run.py --trace 1`` checks these and reports
  ``correct: false`` or exits 2 otherwise);
- every report digest matches ``manifest.json``.

The layer self times, ``cli.self_s`` included, add up to ``trace.wall_s``
by construction, since a self time is a span minus its children; the sum
is printed, not tested.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# per-layer times that are not self times of a layer
NOT_SELF = {"cli.serial_corpus_s", "trace.wall_s"}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --workload {workload} --trace {trace} exited {proc.returncode}")
    for line in lines[:-1]:
        print("  " + line)
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = ap.parse_args()

    problems = []
    for wl in BENCHMARK["workloads"]:
        name = wl["name"]
        print(f"== {name}: {wl['why']}")
        for trace in (0, 1):
            res = run(name, args.seed, args.seconds, trace)
            fail_frac = res["failed"] / res["attempted"]
            print(f"  fail_frac = {fail_frac:g} ({res['failed']} of {res['attempted']}), "
                  f"correct = {res['correct']}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: correct={res['correct']} failed={res['failed']}")
            metrics = res["metrics"]
            for metric, entry in metrics.items():
                print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
            if not trace:
                continue
            if metrics["report.digest_mismatches"]["value"]:
                problems.append(f"{name}: {metrics['report.digest_mismatches']['value']} reports "
                                "differ from the manifest")
            self_times = {m: e["value"] for m, e in metrics.items()
                          if e["unit"] == "s" and m not in NOT_SELF}
            total, wall = sum(self_times.values()), metrics["trace.wall_s"]["value"]
            print(f"  self times sum to {total:.4f} s of {wall:.4f} s traced wall time")
            top = sorted(self_times.items(), key=lambda kv: -kv[1])[:4]
            print("  largest self times: " + ", ".join(f"{m} {v / wall:.0%}" for m, v in top))
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    if not problems:
        print("all self-tests passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
