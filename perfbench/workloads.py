"""One pass of a workload: the CLI invocations, their cost, and their outputs.

A pass runs every CLI call of the workload once, each in a fresh
interpreter launched as ``python -m rbsde_lab.cli`` with ``src`` on
``PYTHONPATH``, or, for a traced pass, through ``tracer.py``.  Its time is
the sum of the calls' wall times from launch to exit; its memory is the
largest ``ru_maxrss`` among the calls, read with ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import LADDER_CAP, SRC, sha256

TRACER = Path(__file__).resolve().parent / "tracer.py"

# report files each scenario leaves in the output directory, by workload
OUTPUTS: dict[str, tuple[str, ...]] = {
    "verify-shallow": ("verify.json",),
    "deep-roundtrip": ("solve.json", "solve.solution.csv", "verify.json"),
    "ladder-superlinear": ("approx.json",),
}


def cli_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["RBSDE_LAB_THREADS"] = str(threads)
    return env


def commands(workload: str, files: list[Path], out: Path) -> list[tuple[list[str], list[int]]]:
    """CLI argv lists, each with the indices of the scenarios it covers."""
    names = [str(f) for f in files]
    if workload == "verify-shallow":
        return [(["verify", *names, "--out", str(out)], list(range(len(files))))]
    if workload == "ladder-superlinear":
        return [(["approx", *names, "--out", str(out),
                  "--n-max", str(LADDER_CAP), "--m-max", str(LADDER_CAP)], list(range(len(files))))]
    if workload == "deep-roundtrip":
        calls = []
        for i, f in enumerate(files):
            calls.append((["solve", str(f), "--out", str(out), "--format", "csv"], [i]))
            calls.append((["verify", str(f), "--solution", str(out / f"{f.stem}.solve.json"),
                           "--out", str(out)], [i]))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    ok: bool
    digests: dict[str, str]


@dataclass
class PassResult:
    call_s: list[float]  # wall time of each CLI call
    peak_rss_mb: float
    scenarios: list[Outcome]
    span_files: list[Path] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.scenarios)


def launch(cmd: list[str], env: dict[str, str], log) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=SRC.parent)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _report_passed(path: Path) -> bool:
    try:
        return json.loads(path.read_text()).get("passed") is True
    except (OSError, ValueError):
        return False


def run_pass(workload: str, files: list[Path], out: Path, env: dict[str, str], *,
             trace_dir: Path | None = None) -> PassResult:
    """Run the workload once; with ``trace_dir`` every call goes through the tracer."""
    out.mkdir(parents=True, exist_ok=True)
    calls = commands(workload, files, out)
    bad = [False] * len(files)
    rss = 0.0
    call_s, span_files = [], []
    with open(out / "cli.log", "w") as log:
        for i, (argv, covered) in enumerate(calls):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "rbsde_lab.cli", *argv]
            else:
                span_files.append(trace_dir / f"spans-{i}.json")
                cmd = [sys.executable, str(TRACER), str(span_files[-1]), *argv]
            rc, seconds, peak = launch(cmd, env, log)
            call_s.append(seconds)
            rss = max(rss, peak)
            if rc != 0:
                for j in covered:
                    bad[j] = True
    scenarios = []
    for f, failed_call in zip(files, bad):
        digests = {}
        ok = not failed_call
        for suffix in OUTPUTS[workload]:
            path = out / f"{f.stem}.{suffix}"
            if not path.is_file():
                ok = False
                continue
            digests[suffix] = sha256(path)
            if suffix.endswith(".json") and not _report_passed(path):
                ok = False
        scenarios.append(Outcome(ok=ok, digests=digests))
    if not all(s.ok for s in scenarios):
        sys.stderr.write((out / "cli.log").read_text()[-4000:])
    return PassResult(call_s=call_s, peak_rss_mb=rss, scenarios=scenarios, span_files=span_files)
