#!/usr/bin/env python3
"""Regenerate tests/golden_experiments.json.

Every R-T/R-F experiment table is pinned — columns and all row values —
at a reduced problem size, as a guard that *pure performance* changes to
the simulator (schedulers, fast paths, caching) leave every measured
number untouched.  ``tests/test_experiments_invariance.py`` replays the
same calls and compares exactly.

Run only after an intentional change to a timing model or an experiment
definition, and review the diff:

    PYTHONPATH=src python scripts/update_golden_experiments.py
    git diff tests/golden_experiments.json
"""

from __future__ import annotations

import json
import pathlib

from repro.harness.experiments import EXPERIMENTS, run_experiment

#: reduced-size kwargs per experiment — small enough for tier-1, large
#: enough that every kernel still executes its steady-state loop.
GOLDEN_KWARGS: dict[str, dict] = {eid: {"n": 32} for eid in EXPERIMENTS}
GOLDEN_KWARGS["R-F6"] = {"n": 64, "buckets": 8}
GOLDEN_KWARGS["R-F8"] = {"n": 48, "node_counts": [1, 2], "ports": [1, 2]}


def build() -> dict:
    tables = {}
    for eid in sorted(EXPERIMENTS):
        table = run_experiment(eid, **GOLDEN_KWARGS[eid])
        tables[eid] = {
            "kwargs": GOLDEN_KWARGS[eid],
            "columns": list(table.columns),
            "rows": [list(row) for row in table.rows],
        }
    return {"tables": tables}


def main() -> int:
    path = (pathlib.Path(__file__).parent.parent
            / "tests" / "golden_experiments.json")
    data = build()
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    n_rows = sum(len(t["rows"]) for t in data["tables"].values())
    print(f"wrote {path} ({len(EXPERIMENTS)} experiments, {n_rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
