"""Print one digest line per benchmark request, to compare the documents of
two versions of the program.

Replays the warm-up and timed requests of perfbench/workloads.py's
schedules (at BENCHMARK.json's run_seconds) in schedule order, in one
process, through abeldiff.cli.main with --json, and after them the
requests of BEYOND, which CI runs beyond the benchmark, under the workload
name "beyond" and the seed "-".  Per request it prints the workload, the
seed, the exit code (or the type of an exception that escaped cli.main),
the sha256 of the printed document with its "timings" dropped, and the
request's arguments.  The document is re-dumped with the CLI's
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

DENSE = "y^4+y-2-170*x+4*x*y-4*x*y^2+2*x*y^3+94*x^2-14*x^3-3*x^3*y+x^4"
# third-kind and verify above the ladder's degree 7 and the benchmark's
# quartic (24 is the parser's cap), both commands on the septic and the dense
# quartic that CI compares, CI's two haupt requests, the line (r = 1), a
# request that ends in NotInvertible (exit 11) within a second, smooth on
# singular curves, whose witnesses no benchmark schedule prints (a cusp, an
# affine witness over a linear and over a quadratic branch modulus, a lone
# unnormalised form at infinity, [0:1:0], a gcd of forms at infinity), and
# third-kind on a singular curve (NotSmooth, exit 3)
BEYOND = [
    *(f"third-kind -f x^{r}+y^{r}-1 --x1=1/2 --x2=1/3 --digits 30" for r in (10, 12, 24)),
    *(f"verify -f x^{r}+y^{r}-1 --x1=1/2 --x2=1/3 --digits 30" for r in (8, 10, 12, 24)),
    *(f"{command} -f {args} --digits 30"
      for args in ("x^7+y^7-x-1 --x1=0 --x2=2", f"{DENSE} --x1=1/3 --x2=5/2")
      for command in ("third-kind", "verify")),
    f"haupt -f {DENSE} --x1=1/3 --x2=5/2 --xp=0 --a=-2/3 --a=7/3 --a=3 --digits 60",
    "haupt -f x^4+y^4-1 --x1 0 --x2 2 --xp 3 --a 4 --a 5 --a 6 --digits 60",
    *(f"{command} -f x+2*y-1 --x1=3 --x2=-1/2 --digits 30"
      for command in ("third-kind", "verify")),
    "haupt -f x^4+y^4+x*y-1 --x1=-1/4 --root1=1 --x2=-2 --root2=2 --xp=-5/4"
    " --rootp=3 --a=-5/3 --roota=2 --a=4 --roota=1 --a=1 --roota=0",
    *(f"smooth -f {curve}" for curve in ("y^2-x^3", "(x^2+y^2-1)*(x-2)",
                                         "(x-1)*(x-2)*(y^2-x)", "y^3+x", "x^2*y-1",
                                         "y^2-1")),
    "third-kind -f y^2-x^3 --x1=1 --x2=2 --digits 30",
]


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
    runs = []
    for name, schedule_of in WORKLOADS.items():
        for seed in opts.seeds:
            schedule = schedule_of(seed, seconds)
            requests = schedule.warmup + [req for _, req in schedule.timed()]
            runs += [(name, seed, list(req.argv)) for req in requests]
    runs += [("beyond", "-", req.split()) for req in BEYOND]
    for name, seed, argv in runs:
        ending, sha = digest(argv)
        print(name, seed, ending, sha, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
