"""Time two versions of the program against each other, request by request,
in one process.

Tree A is the checkout given by --base, by default the one this tool lives
in, imported as ``abeldiff``; tree B is the checkout given by --other, by
default the same, imported from its src/abeldiff as the package
``abeldiff_b``.  The requests are the warm-up and timed requests of
perfbench/workloads.py's schedules (at BENCHMARK.json's run_seconds), in
schedule order.  Each tree runs the warm-up once, untimed; then each timed
request runs --repeats times per tree, the trees alternating (A B, then
B A, ...), each run through cli.main with --json and timed in CPU seconds
of this process.  Before each run the tree's process-wide LRU caches are
cleared and its haupt groups (differentials._groups) restored to what they
held before the request, so every run of a request does the same work from
the same state, and a later request of a haupt group still finds the group
an earlier request stored.

Per workload it reports the sum and the median of the per-request minima
of each tree, and on how many requests B's minimum was below A's; per
request, both minima and whether the two documents, "timings" dropped, are
identical.  CPU minima of interleaved runs are steadier than wall-clock
figures of separate processes, which move by several percent between runs
on a shared host.  The last line of standard output is one JSON object
with the summaries and the requests whose documents differ.

    python tools/pair_timing.py --base ../parent --workloads third-kind-ladder

perfbench/workloads.py is imported, never written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tree:
    """One version of the package: its cli, its LRU caches and its haupt
    groups."""

    def __init__(self, package):
        name = package.__name__
        self.cli = importlib.import_module(f"{name}.cli")
        self.groups = importlib.import_module(f"{name}.differentials")._groups
        self.caches = [v for key, mod in sys.modules.items()
                       if key.startswith(f"{name}.")
                       for v in vars(mod).values()
                       if isinstance(v, functools._lru_cache_wrapper)]

    def run(self, argv: list[str], groups: list) -> tuple[float, str, str]:
        """(CPU seconds, exit code or exception type, document without
        timings) of one request, from cleared caches and the given groups."""
        for cache in self.caches:
            cache.cache_clear()
        self.groups.clear()
        self.groups.update(groups)
        gc.collect()
        out = io.StringIO()
        start = time.process_time()
        try:
            with contextlib.redirect_stdout(out):
                ending = str(self.cli.main(argv + ["--json"]))
        except Exception as exc:
            ending = type(exc).__name__
        spent = time.process_time() - start
        text = out.getvalue()
        if text:
            doc = json.loads(text)
            doc.pop("timings", None)
            text = json.dumps(doc, separators=(",", ":"))
        return spent, ending, text


def _init(root: Path) -> Path:
    init = root.resolve() / "src" / "abeldiff" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"pair_timing: no package at {init}")
    return init


def load_base(root: Path):
    """The package in root/src/abeldiff, imported as abeldiff; an abeldiff
    imported before must be that one."""
    init = _init(root)
    sys.path.insert(0, str(init.parent.parent))
    import abeldiff
    if Path(abeldiff.__file__).resolve() != init:
        raise SystemExit(f"pair_timing: abeldiff is already imported from "
                         f"{abeldiff.__file__}, not from {init}")
    return abeldiff


def load_other(root: Path):
    """The package in root/src/abeldiff, imported as abeldiff_b."""
    init = _init(root)
    spec = importlib.util.spec_from_file_location(
        "abeldiff_b", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["abeldiff_b"] = package
    spec.loader.exec_module(package)
    return package


def schedule(workload: str, seed: int, seconds: float):
    """(warm-up argvs, timed argvs) of one workload's schedule."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True   # leave no cache next to perfbench's sources
    from workloads import WORKLOADS
    sched = WORKLOADS[workload](seed, seconds)
    return ([list(r.argv) for r in sched.warmup],
            [list(r.argv) for _, r in sched.timed()])


def compare(trees: tuple[Tree, Tree], workload: str, seed: int, seconds: float,
            repeats: int, limit: int | None) -> tuple[dict, list]:
    """The summary of one workload, and one row per timed request."""
    warmup, timed = schedule(workload, seed, seconds)
    if limit is not None:
        timed = timed[:limit]
    for tree in trees:
        for argv in warmup:
            tree.run(argv, list(tree.groups.items()))
    rows = []
    for argv in timed:
        before = [list(t.groups.items()) for t in trees]
        best = [float("inf"), float("inf")]
        seen = [None, None]
        for k in range(repeats):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                spent, ending, text = trees[side].run(argv, before[side])
                best[side] = min(best[side], spent)
                if seen[side] is None:
                    seen[side] = (ending, text)
        rows.append({"argv": " ".join(argv), "a_s": best[0], "b_s": best[1],
                     "ending": seen[0][0], "identical": seen[0] == seen[1]})
    a = [r["a_s"] for r in rows]
    b = [r["b_s"] for r in rows]
    summary = {"workload": workload, "seed": seed, "requests": len(rows),
               "repeats": repeats, "a_total_s": sum(a), "b_total_s": sum(b),
               "a_p50_s": statistics.median(a) if a else 0.0,
               "b_p50_s": statistics.median(b) if b else 0.0,
               "b_faster": sum(y < x for x, y in zip(a, b)),
               "identical": sum(r["identical"] for r in rows)}
    return summary, rows


def main(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, default=ROOT,
                    help="root of tree A's checkout (default: this one)")
    ap.add_argument("--other", type=Path, default=ROOT,
                    help="root of tree B's checkout (default: this one)")
    ap.add_argument("--workloads", nargs="+",
                    default=["third-kind-ladder", "verify-vandermonde", "haupt-sweep"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5, help="runs per tree and request")
    ap.add_argument("--limit", type=int, default=None,
                    help="time only the first LIMIT timed requests of each workload")
    opts = ap.parse_args(args)
    if opts.repeats < 1:
        ap.error("--repeats must be at least 1")
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    trees = (Tree(load_base(opts.base)), Tree(load_other(opts.other)))
    summaries, differing = [], []
    for workload in opts.workloads:
        summary, rows = compare(trees, workload, opts.seed, seconds, opts.repeats,
                                opts.limit)
        for r in rows:
            print(f"{workload} {r['a_s']:.5f} {r['b_s']:.5f} {r['b_s'] / r['a_s']:.3f}"
                  f" {r['ending']} {'same' if r['identical'] else 'DIFFERENT'}"
                  f" {r['argv']}", flush=True)
        differing += [r["argv"] for r in rows if not r["identical"]]
        print(f"{workload}: A {summary['a_total_s']:.3f} s, B {summary['b_total_s']:.3f} s"
              f" (p50 {summary['a_p50_s'] * 1e3:.2f} -> {summary['b_p50_s'] * 1e3:.2f} ms);"
              f" B faster on {summary['b_faster']} of {summary['requests']};"
              f" {summary['identical']} identical documents", flush=True)
        summaries.append(summary)
    print(json.dumps({"base": str(opts.base), "other": str(opts.other),
                      "summaries": summaries,
                      "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
