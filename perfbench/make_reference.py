"""Record the reference answers of the default seed.

    python3 perfbench/make_reference.py

Runs every timed request that seed 0 schedules for a run of the length in
BENCHMARK.json and writes
perfbench/reference.json: per request its exit code or failure, and for an
answered request genus, rank, nullspace dimension, verdicts and decimals
(see answers.py).  The recorded answers are those of the commit it runs on;
re-record only on a commit whose answers are trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from answers import execute, reference_entry  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def record(workload: str) -> dict:
    schedule = WORKLOADS[workload](DEFAULT_SEED, RUN_SECONDS)
    out = {}
    for _, req in schedule.timed():
        out[req.key] = reference_entry(execute(req.argv))
        print(f"{workload}: {req.key} -> {out[req.key].get('status', 'ok')}",
              file=sys.stderr, flush=True)
    return out


def main() -> None:
    doc = {"seed": DEFAULT_SEED, "seconds": RUN_SECONDS, "answers": {}}
    for workload in sorted(WORKLOADS):
        doc["answers"].update(record(workload))
    (HERE / "reference.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
