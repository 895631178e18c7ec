"""Print one digest line per benchmark request, to compare the documents of
two versions of the program.

Replays the warm-up and timed requests of perfbench/workloads.py's
schedules (at BENCHMARK.json's run_seconds) in schedule order, in one
process, through abeldiff.cli.main with --json.  Per request it prints the
workload, the seed, the exit code (or the type of an exception that escaped
cli.main), the sha256 of the printed document with its "timings" dropped,
and the request's arguments.  The document is re-dumped with the CLI's
separators and its key order before hashing.  Two trees print the same
lines exactly when they print the same documents, timings aside:

    python tools/replay_digests.py --seeds 0 11 > before.txt
    (check out the other tree)
    python tools/replay_digests.py --seeds 0 11 > after.txt
    diff before.txt after.txt

perfbench/workloads.py is imported, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from abeldiff import cli  # noqa: E402


def digest(argv: list[str]) -> tuple[str, str]:
    """(exit code or exception type, sha256 of the document without
    timings) of one request run through cli.main."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ending = str(cli.main(argv + ["--json"]))
    except Exception as exc:
        ending = type(exc).__name__
    text = out.getvalue()
    if text:
        doc = json.loads(text)
        doc.pop("timings", None)
        text = cli._dumps(doc)
    return ending, hashlib.sha256(text.encode()).hexdigest()


def main(args=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 11])
    opts = ap.parse_args(args)
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True   # leave no cache next to perfbench's sources
    from workloads import WORKLOADS
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name, schedule_of in WORKLOADS.items():
        for seed in opts.seeds:
            schedule = schedule_of(seed, seconds)
            requests = schedule.warmup + [req for _, req in schedule.timed()]
            for req in requests:
                ending, sha = digest(list(req.argv))
                print(name, seed, ending, sha, " ".join(req.argv), flush=True)


if __name__ == "__main__":
    main()
