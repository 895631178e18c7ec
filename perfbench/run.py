"""abeldiff benchmark: seeded request workloads driven through the CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload third-kind-ladder --seed 0 --seconds 30 --trace 0

One client in one process sends its next request only after the previous
one returns (a closed loop, no extra threads).  Each request is
``abeldiff.cli.main([..., "--json"])`` called in-process; every answer is
checked (see answers.py).  The timed phase runs the workload's prologue and
then as many rounds of its schedule as fill --seconds at the workload's
nominal round time (workloads.py), so a seed and a length always give the
same requests.  Timings are reported in reference seconds (probe.py): each
request's measured seconds divided by how much slower than the reference
host the probe found this host while the request ran.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first half of
the rounds with every layer wrapped (tracer.py), replays the same requests
untraced in a fresh process, and prints the per-layer totals and the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # before the other imports: setup_s counts them

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 3     # setup_s is the median of this many fresh-process setups
CHILD_TIMEOUT_S = 60
# A timed phase that runs past this many times its --seconds (a host far
# slower than the one the round times were taken on) stops mid-round, so
# the run still ends in time.
RUN_CAP = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import abeldiff from this checkout's source tree, never from elsewhere."""
    if not (SRC / "abeldiff" / "__init__.py").is_file():
        _fail(f"no abeldiff source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import abeldiff
    if Path(abeldiff.__file__).resolve().parent != SRC / "abeldiff":
        _fail(f"imported abeldiff from {abeldiff.__file__}, not from {SRC}")


def _set_up(args):
    """Import, generate and validate the schedule, run the warm-up; returns
    (schedule, reference answers, setup seconds from process start in
    reference seconds, converted by the host-speed sampler running
    meanwhile)."""
    sys.path.insert(0, str(HERE))
    from probe import Sampler

    def set_up():
        _import_program()
        from answers import execute
        from workloads import WORKLOADS

        schedule = WORKLOADS[args.workload](args.seed, args.seconds)
        reference = json.loads(REFERENCE.read_text())["answers"]
        for req in schedule.warmup:
            execute(req.argv)
        return schedule, reference, time.perf_counter()

    (schedule, reference, end), slow, inside = Sampler().measure(set_up)
    return schedule, reference, (end - _T0 - inside) / slow


class Ledger:
    """Outcomes of the timed requests, in order."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.rows = []          # (request, outcome)
        self.slowdowns = []     # per row: the host's slowdown while it ran
        self.rounds = set()     # round numbers reached, -1 for the prologue
        self.mismatches = []

    def record(self, rnd: int, req, outcome, slowdown: float = 1.0) -> None:
        from answers import mismatch
        ref = self.reference.get(req.key)
        if outcome.status == "ok" and ref is not None:
            why = mismatch(outcome.answer, ref, req.digits)
            if why:
                outcome.status = "reference mismatch"
                self.mismatches.append(f"{req.key}: {why}")
        self.rows.append((req, outcome))
        self.slowdowns.append(slowdown)
        self.rounds.add(rnd)

    @property
    def failures(self) -> Counter:
        return Counter(o.status for _, o in self.rows if o.status != "ok")

    @property
    def correct(self) -> bool:
        """No wrong answer: crashes, typed errors and deadlines are failures
        to count, but only a false verdict or a reference mismatch is an
        incorrect output."""
        bad = self.failures
        return not (bad["false verdict"] or bad["reference mismatch"] or self.mismatches)

    def ok_latencies(self) -> list[float]:
        return [o.latency_s for _, o in self.rows if o.status == "ok"]

    def reference_latencies(self, ok_only: bool = True) -> list[float]:
        """Latencies in reference seconds: each over its host slowdown."""
        return [o.latency_s / k for (_, o), k in zip(self.rows, self.slowdowns)
                if o.status == "ok" or not ok_only]


def run_timed(schedule, seconds: float, ledger: Ledger, probe: bool = False,
              limit: int | None = None) -> float:
    """Prologue, then every round of the schedule (with `limit`: exactly the
    first `limit` timed requests); returns the wall time of the requests.
    With `probe`, each request runs under the host-speed sampler; its
    latency leaves out the samples' time and the ledger keeps its slowdown.
    Without `limit`, a run past RUN_CAP times `seconds` stops mid-round."""
    from answers import execute
    from probe import Sampler
    sampler = Sampler()
    start = time.perf_counter()
    probing = 0.0
    for rnd, req in schedule.timed():
        if limit is not None:
            if len(ledger.rows) >= limit:
                break
        elif time.perf_counter() - start >= RUN_CAP * seconds:
            print(f"perfbench: run cut after {RUN_CAP} x {seconds} s", file=sys.stderr)
            break
        if probe:
            t = time.perf_counter()
            outcome, slow, inside = sampler.measure(lambda: execute(req.argv))
            outcome.latency_s -= inside
            probing += time.perf_counter() - t - outcome.latency_s
        else:
            outcome, slow = execute(req.argv), 1.0
        ledger.record(rnd, req, outcome, slow)
    return time.perf_counter() - start - probing


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: the (n-10)-th
    smallest of n.  Returns (value, percentile); with 10 samples or fewer,
    the maximum at percentile 100."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], 100.0 * k / n


def _child(args, *extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        _fail(f"child {' '.join(extra)} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _environment(schedule, ledger: Ledger) -> dict:
    import mpmath
    per_rung = Counter(f"{req.command} deg{req.degree} {req.curve}" for req, _ in ledger.rows)
    return {
        "workload": schedule.workload, "seed": schedule.seed,
        "requests_per_rung": dict(sorted(per_rung.items())),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": mpmath.libmp.BACKEND == "gmpy",
    }


def _result(ledger: Ledger, metrics: dict) -> str:
    failed = sum(ledger.failures.values())
    return json.dumps({
        "correct": ledger.correct, "attempted": len(ledger.rows), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def end_to_end(args) -> None:
    schedule, reference, first_setup = _set_up(args)
    ledger = Ledger(reference)
    wall = run_timed(schedule, args.seconds, ledger, probe=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [first_setup] + [_child(args, "--setup-sample")["setup_s"]
                              for _ in range(SETUP_SAMPLES - 1)]

    measured = ledger.ok_latencies()
    ok = ledger.reference_latencies()
    if not ok:
        _fail("no request was answered; no latency to report")
    tail_s, tail_pct = tail(ok)
    reference_s = sum(ledger.reference_latencies(ok_only=False))
    attempted = len(ledger.rows)
    failed = sum(ledger.failures.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(ok) / reference_s, "1/s"),
        "latency_p50_s": (statistics.median(ok), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    report = {
        **_environment(schedule, ledger),
        "rounds": len(ledger.rounds - {-1}),
        "host_slowdown": {"run": wall / reference_s, "min": min(ledger.slowdowns),
                          "max": max(ledger.slowdowns)},
        "measured": {"wall_s": wall, "throughput_rps": len(ok) / wall,
                     "latency_p50_s": statistics.median(measured),
                     "latency_tail_s": tail(measured)[0]},
        "fail_ratio": failed / attempted, "failures": dict(ledger.failures),
        "latency_tail": {"percentile": tail_pct, "samples": len(ok)},
        "setup_samples_s": setups, "reference_mismatches": ledger.mismatches,
    }
    for name, (value, unit) in metrics.items():
        print(f"{schedule.workload} {name} = {value:.6g} {unit}")
    print(f"{schedule.workload} fail_ratio = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted}: {dict(ledger.failures)})")
    print(f"{schedule.workload} latency_tail_s is p{tail_pct:.1f} of {len(ok)} answered requests")
    print(f"{schedule.workload} host slowdown = {wall / reference_s:.3f} (timings above are "
          f"in reference seconds: each request's measured time over its slowdown)")
    print("report " + json.dumps(report))
    print(_result(ledger, metrics))


def traced(args) -> None:
    schedule, reference, _ = _set_up(args)
    from tracer import Tracer, ladder_p50s
    ledger = Ledger(reference)
    # the first half of the run's rounds keeps the traced run with its
    # replay near one run's length
    del schedule.rounds[(len(schedule.rounds) + 1) // 2:]
    with Tracer() as tr:
        wall = run_timed(schedule, args.seconds, ledger)
    replay = _child(args, "--replay", str(len(ledger.rows)))
    if replay["answers"] != [o.answer for _, o in ledger.rows]:
        ledger.mismatches.append("traced and untraced runs gave different answers")
    by_cell = defaultdict(list)
    for (cmd, deg, lat, status) in replay["latencies"]:
        if status == "ok":
            by_cell[(cmd, deg)].append(lat)
    metrics = {**tr.metrics(), **ladder_p50s(by_cell)}
    overhead = wall / replay["wall_s"] - 1
    # Host noise moves a whole run by 10-20%; the median per-request ratio
    # is the steadier estimate of what the wrappers cost.
    ratios = [o.latency_s / lat for (_, o), (_, _, lat, status) in
              zip(ledger.rows, replay["latencies"]) if o.status == "ok" and status == "ok"]
    report = {**_environment(schedule, ledger), "traced_wall_s": wall,
              "untraced_wall_s": replay["wall_s"], "tracing_overhead": overhead,
              "tracing_overhead_median_per_request": statistics.median(ratios) - 1,
              "failures": dict(ledger.failures), "patched_sites": tr.patched_sites,
              "reference_mismatches": ledger.mismatches}
    for name, (value, unit) in metrics.items():
        print(f"{schedule.workload} {name} = {value:.6g} {unit}")
    print(f"{schedule.workload} tracing overhead = {overhead:.3f} "
          f"(traced {wall:.2f} s / untraced {replay['wall_s']:.2f} s - 1)")
    print("report " + json.dumps(report))
    print(_result(ledger, metrics))


def setup_sample(args) -> None:
    _, _, seconds = _set_up(args)
    print(json.dumps({"setup_s": seconds}))


def replay(args) -> None:
    schedule, reference, _ = _set_up(args)
    ledger = Ledger(reference)
    wall = run_timed(schedule, args.seconds, ledger, limit=args.replay)
    print(json.dumps({
        "wall_s": wall, "answers": [o.answer for _, o in ledger.rows],
        "latencies": [[r.command, r.degree, o.latency_s, o.status] for r, o in ledger.rows],
    }))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["third-kind-ladder", "verify-vandermonde", "haupt-sweep"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: one fresh-process setup, or an untraced replay of N requests
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_sample:
        setup_sample(args)
    elif args.replay is not None:
        replay(args)
    elif args.trace:
        traced(args)
    else:
        end_to_end(args)


if __name__ == "__main__":
    main()
