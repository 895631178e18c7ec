"""Tests of the benchmark itself: schedules, failure accounting, answer
checks and tracer completeness.

    python3 -m pytest -q perfbench

The traced-round fixture runs the one round of a 1-second run of every
workload twice, untraced and traced, which takes about a minute.
"""

from __future__ import annotations

import random
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from abeldiff import cli, differentials, linsolve, towers  # noqa: E402
from answers import execute, mismatch  # noqa: E402
from probe import AFTER, Sampler  # noqa: E402
from run import Ledger, run_timed, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (LADDER, NOT_INVERTIBLE_REPRODUCER, WORKLOADS,  # noqa: E402
                       Request, stratified_pairs, valid_abscissas)

# Per-layer metric -> the workload on which it must record work.
DESIGNATED = {
    "towers.is_zero.calls": "verify-vandermonde",
    "towers.is_zero.nonsyntactic": "verify-vandermonde",
    "towers.mul.calls": "verify-vandermonde",
    "towers.invert.calls": "haupt-sweep",
    "towers.invert.not_invertible": "haupt-sweep",
    "towers.approximate.calls": "haupt-sweep",
    "towers.adjoin.calls": "haupt-sweep",
    "roots.isolate_roots.calls": "third-kind-ladder",
    "roots.refine_root.calls": "haupt-sweep",
    "polys.resultant_y.calls": "third-kind-ladder",
    "polys.poly_gcd.calls": "third-kind-ladder",
    "polys.power_sums.calls": "third-kind-ladder",
    "linsolve.ff_solve.calls": "third-kind-ladder",
    "linsolve.bareiss_det.calls": "third-kind-ladder",
    "curves.smoothness_report.calls": "third-kind-ladder",
    "curves.section_roots.calls": "third-kind-ladder",
    "curves.local_series.calls": "third-kind-ladder",
    "differentials.residue_certificates.calls": "third-kind-ladder",
    "differentials.third_kind_system_naive.calls": "third-kind-ladder",
    "differentials.third_kind.calls": "third-kind-ladder",
    "differentials.vandermonde_equivalence.calls": "verify-vandermonde",
    "differentials.haupt_solve.calls": "haupt-sweep",
    "differentials.eval_u.calls": "haupt-sweep",
}


def test_negative_abscissas_use_the_equals_form():
    sched = WORKLOADS["haupt-sweep"](7, 30)
    argvs = [req.argv for _, req in sched.timed()][1:60]
    negative = [a for argv in argvs for a in argv if a.startswith("--") and "=-" in a]
    assert negative
    for argv in argvs:
        assert not any(a.startswith("-") and a[1:2].isdigit() for a in argv)
        args = cli.build_parser().parse_args(list(argv))
        assert args.command == "haupt"


def test_pool_is_filtered_only_by_exact_validity():
    # the ROADMAP crash abscissas stay in the pool
    assert Fraction(8) in valid_abscissas("x^6+y^6-1")
    for x in (6, Fraction(4, 3), -8):
        assert Fraction(x) in valid_abscissas("x^7+y^7-x-1")
    assert len(valid_abscissas("x^7+y^7-x-1")) == 41
    assert Fraction(1) not in valid_abscissas("x^2+y^2-1")   # y^2 = 0 is not square-free


def test_schedule_follows_from_seed_and_length_alone():
    for name, make in WORKLOADS.items():
        argvs = [req.argv for _, req in make(3, 30).timed()]
        assert argvs == [req.argv for _, req in make(3, 30).timed()]
        assert argvs != [req.argv for _, req in make(4, 30).timed()]
        assert len(make(3, 10).rounds) < len(make(3, 30).rounds)
    assert len(WORKLOADS["third-kind-ladder"](0, 30).rounds) == 13
    assert len(WORKLOADS["third-kind-ladder"](0, 600).rounds) == 19


def test_stratified_pairs_match_low_with_high_heights():
    xs = valid_abscissas("x^7+y^7-x-1")
    pairs = stratified_pairs(xs, 13, random.Random(5))
    values = [x for pair in pairs for x in pair]
    assert len(values) == len(set(values)) == 26 and set(values) <= set(xs)
    heights = sorted(xs, key=lambda x: (max(abs(x.numerator), x.denominator), x))
    low = set(heights[:len(xs) // 2])
    assert all((a in low) != (b in low) for a, b in pairs)


def test_sampler_times_the_kernel_inside_a_call_and_cleans_up():
    import mpmath
    prec = mpmath.mp.prec
    sampler = Sampler()

    def busy():
        return sum(i * i % 7 for i in range(2_000_000))

    value, slow, inside = sampler.measure(busy)
    assert value == busy()
    assert 0.1 < slow < 20 and inside > 0
    assert len(sampler._times) > AFTER          # samples taken during the call
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert mpmath.mp.prec == prec


def test_ladder_rounds_are_equal_and_use_each_abscissa_once():
    sched = WORKLOADS["third-kind-ladder"](11, 30)
    assert all([req.curve for req in rnd] == list(LADDER) for rnd in sched.rounds)
    for curve in LADDER:
        used = [a for _, req in sched.timed() if req.curve == curve
                for a in req.argv if a.startswith("--x")]
        used += [a for req in sched.warmup if req.curve == curve
                 for a in req.argv if a.startswith("--x")]
        values = [a.split("=", 1)[1] for a in used]
        assert len(values) == len(set(values))


def test_failures_are_counted_by_type():
    crash = execute(("third-kind", "-f", "x^6+y^6-1", "--x1=8", "--x2=0", "--digits", "30"))
    assert crash.status == "exception AssertionError"
    typed = execute(NOT_INVERTIBLE_REPRODUCER)
    assert typed.status == "exit 11 NotInvertible"
    # argparse takes "-3/2" after "--x1" for an option, not a value
    usage = execute(("third-kind", "-f", "x^2+y^2-1", "--x1", "-3/2", "--x2", "0"))
    assert usage.status.startswith("exit 2")


def test_answers_are_compared_within_the_decimal_tolerance():
    out = execute(("haupt", "-f", "x^3-y^3+2*x*y+x-2*y+1", "--x1=0", "--x2=1", "--xp=3",
                   "--a=2", "--digits", "30"))
    assert out.status == "ok"
    ref = out.answer
    assert mismatch(out.answer, ref, 30) is None
    re_, im_ = ref["decimals"]["haupt.value"]
    close = dict(ref, decimals=dict(ref["decimals"],
                                    **{"haupt.value": [str(Fraction(re_) + Fraction(1, 10**31)),
                                                       im_]}))
    assert mismatch(out.answer, close, 30) is None
    far = dict(ref, decimals=dict(ref["decimals"],
                                  **{"haupt.value": [str(Fraction(re_) + Fraction(1, 10**20)),
                                                     im_]}))
    assert "haupt.value" in mismatch(out.answer, far, 30)
    assert "rank" in mismatch(out.answer, dict(ref, rank=ref["rank"] + 1), 30)
    ledger = Ledger({"k": far})
    ledger.record(0, Request(("k",), "haupt", "cubic", 3), out)
    assert out.status == "reference mismatch" and not ledger.correct


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_tracer_patches_every_import_site_and_restores_them():
    orig_ff = linsolve.ff_solve
    with Tracer() as tr:
        sites = set(tr.patched_sites)
        assert differentials.ff_solve is not orig_ff
        assert differentials.ff_solve.__wrapped__ is orig_ff
    for site in ("differentials.ff_solve", "differentials.eval_bpoly", "curves.eval_bpoly",
                 "curves.resultant_y", "curves.poly_gcd", "roots.poly_gcd",
                 "polys.bareiss_det", "roots.bareiss_det", "towers.isolate_roots",
                 "towers.refine_root", "cli.smoothness_report", "differentials.power_sums",
                 "TowerElement.__mul__", "TowerElement.__rmul__"):
        assert site in sites, site
    assert differentials.ff_solve is orig_ff
    assert towers.TowerElement.__mul__ is towers.TowerElement.__rmul__
    assert not hasattr(towers.TowerElement.__mul__, "__wrapped__")


@pytest.fixture(scope="module")
def first_rounds():
    """Per workload: (untraced outcomes, traced outcomes, traced metrics) of
    the prologue and the one round of a 1-second run of seed 0."""
    out = {}
    for name, make in WORKLOADS.items():
        sched = make(0, 1)
        plain = Ledger({})
        run_timed(sched, 0, plain, limit=10**6)
        traced = Ledger({})
        with Tracer() as tr:
            run_timed(sched, 0, traced, limit=10**6)
        out[name] = (plain, traced, tr.metrics())
    return out


def test_each_layer_metric_records_work_on_its_workload(first_rounds):
    for metric, workload in DESIGNATED.items():
        value, _ = first_rounds[workload][2][metric]
        assert value > 0, (metric, workload)
    ladder = first_rounds["third-kind-ladder"][2]
    haupt = first_rounds["haupt-sweep"][2]
    assert ladder["roots.isolate_roots.repeat_ratio"][0] < 0.05
    assert haupt["roots.isolate_roots.repeat_ratio"][0] > 0.3


def test_traced_run_returns_the_same_answers(first_rounds):
    for plain, traced, _ in first_rounds.values():
        assert [o.status for _, o in plain.rows] == [o.status for _, o in traced.rows]
        assert [o.answer for _, o in plain.rows] == [o.answer for _, o in traced.rows]
        assert any(o.status == "ok" for _, o in traced.rows)
