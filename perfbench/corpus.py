"""Workload corpora: composition, per-run selection, generation, manifest.

Every scenario comes from ``rbsde_lab.scenario.random_scenario``.  Each
workload has a fixed composition of cells (depth, driver kind) so that the
cost of a pass does not depend on the run seed; the seed only chooses which
members of each cell's pool are used.  The pools, the digests of their
reports on the commit that built the manifest, and the ladder draws that
were rejected are stored in ``manifest.json``.

Rebuild the manifest (after a deliberate change to the generator or the
reports) with::

    python3 perfbench/corpus.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFEST = Path(__file__).resolve().parent / "manifest.json"

# draws whose default truncation level (ceil(max|f|) + 1) exceeds this are
# rejected; accepted draws run the ladder at exactly this level, so every
# scenario costs LADDER_CAP**2 solves whatever its draw
LADDER_CAP = 4


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[int, str], ...]  # (depth, random_scenario driver_kind)
    per_cell: int  # scenarios drawn from each cell per run
    pool_per_cell: int  # accepted candidates kept in the manifest per cell


# what each workload loads and bypasses, and why: README.md and BENCHMARK.json
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "verify-shallow",
        tuple((d, k) for d in (1, 2, 3, 4) for k in ("constant", "linear", "truncated")),
        per_cell=4, pool_per_cell=16),
    Workload(
        "deep-roundtrip",
        ((13, "linear"), (14, "constant")),
        per_cell=1, pool_per_cell=8),
    Workload(
        "ladder-superlinear",
        ((8, "cubic"), (9, "cubic"), (10, "cubic"), (11, "cubic"), (12, "cubic"),
         (10, "truncated"), (12, "truncated")),
        per_cell=1, pool_per_cell=4),
)}


def cell_key(depth: int, kind: str) -> str:
    return f"d{depth}-{kind}"


def scenario_name(workload: str, depth: int, kind: str, seed: int) -> str:
    return f"{workload}-{cell_key(depth, kind)}-{seed}"


def candidate_seeds(workload: str, cell_index: int) -> itertools.count:
    """Endless, fixed sequence of scenario seeds tried for one cell."""
    return itertools.count(1_000_000 * (1 + list(WORKLOADS).index(workload)) + 10_000 * cell_index)


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def select(workload: str, seed: int, manifest: dict) -> list[dict]:
    """The run's scenarios: ``per_cell`` pool entries from every cell."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    pools = manifest["workloads"][workload]["pools"]
    chosen = []
    for depth, kind in wl.cells:
        chosen.extend(rng.sample(pools[cell_key(depth, kind)], wl.per_cell))
    return chosen


def _import_generator():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from rbsde_lab.scenario import random_scenario  # noqa: E402
    return random_scenario


def materialize(workload: str, entries: list[dict], directory: Path) -> list[Path]:
    """Write the scenario files; returns their paths in run order."""
    random_scenario = _import_generator()
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in entries:
        name = scenario_name(workload, entry["depth"], entry["kind"], entry["seed"])
        scn = random_scenario(entry["seed"], n_steps=entry["depth"], driver_kind=entry["kind"], name=name)
        path = directory / f"{name}.json"
        path.write_text(json.dumps(scn.data))
        paths.append(path)
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def default_ladder_level(scenario) -> int:
    """The level ``truncation_scheme`` picks when ``n_max``/``m_max`` are unset.

    Worked out here from one solve, because ``truncation_scheme`` would run
    the whole ladder, up to millions of solves, before the level shows.
    """
    import numpy as np
    from rbsde_lab.reflect import solve_rbsde

    ref = solve_rbsde(scenario.tree, scenario.barriers, scenario.driver)
    fmax = 0.0
    for k in range(scenario.tree.n_steps):
        f = scenario.driver.fn(scenario.tree.time(k), ref.y.after[k], ref.z[k])
        fmax = max(fmax, float(np.max(np.abs(f))))
    return max(2, int(np.ceil(fmax)) + 1)


def build_manifest(work: Path) -> dict:
    """Draw every pool, run it once through the CLI, record verdicts and digests."""
    import workloads as wl_mod

    random_scenario = _import_generator()
    manifest: dict = {
        "generator": "rbsde_lab.scenario.random_scenario(seed, n_steps=depth, driver_kind=kind, name=...)",
        "ladder_cap": LADDER_CAP,
        "workloads": {},
        "rejected": {},  # ladder cell -> {scenario seed: default level}
    }
    for wl in WORKLOADS.values():
        pools: dict[str, list[dict]] = {}
        for ci, (depth, kind) in enumerate(wl.cells):
            pool: list[dict] = []
            for seed in candidate_seeds(wl.name, ci):
                if len(pool) == wl.pool_per_cell:
                    break
                entry = {"seed": seed, "depth": depth, "kind": kind}
                if wl.name == "ladder-superlinear":
                    scn = random_scenario(seed, n_steps=depth, driver_kind=kind)
                    level = default_ladder_level(scn)
                    if level > LADDER_CAP:
                        manifest["rejected"].setdefault(cell_key(depth, kind), {})[str(seed)] = level
                        continue
                    entry["default_level"] = level
                pool.append(entry)
            pools[cell_key(depth, kind)] = pool
        entries = [e for pool in pools.values() for e in pool]
        run_dir = work / wl.name
        shutil.rmtree(run_dir, ignore_errors=True)
        files = materialize(wl.name, entries, run_dir / "in")
        env = wl_mod.cli_env(threads=1)
        result = wl_mod.run_pass(wl.name, files, run_dir / "out", env)
        for entry, path, outcome in zip(entries, files, result.scenarios):
            entry["bytes"] = path.stat().st_size
            entry["input_sha256"] = sha256(path)
            entry["verdict"] = "pass" if outcome.ok else "fail"
            entry["reports"] = outcome.digests
        shutil.rmtree(run_dir, ignore_errors=True)
        manifest["workloads"][wl.name] = {"pools": pools}
    return manifest


def main() -> int:
    work = ROOT / ".bench_work" / "manifest"
    try:
        manifest = build_manifest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    entries = [e for w in manifest["workloads"].values() for p in w["pools"].values() for e in p]
    failed = sum(e["verdict"] != "pass" for e in entries)
    rejected = sum(map(len, manifest["rejected"].values()))
    print(f"wrote {MANIFEST.name}: {len(entries)} pool scenarios, "
          f"{rejected} rejected ladder draws, {failed} failing")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
