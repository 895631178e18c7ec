import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import mpmath as mp
import pytest

from abeldiff import cli, curves, differentials, roots, towers
from abeldiff.curves import Curve
from abeldiff.errors import (MultipleRoots, NotSmooth, PointNotOnCurve,
                             SameAbscissa, exit_code_for)
from abeldiff.towers import TowerElement
from tests.test_haupt_oracle import EXIT_11_VALUE

CUBIC = "x^3-y^3+2*x*y+x-2*y+1"
CIRCLE = "x^2+y^2-1"
DENSE_QUARTIC = "y^4+y-2-170*x+4*x*y-4*x*y^2+2*x*y^3+94*x^2-14*x^3-3*x^3*y+x^4"


def _run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_genus_command(capsys):
    code, doc = _run_json(capsys, ["genus", "-f", CUBIC])
    assert code == 0
    assert doc["schema"] == "weier/1"
    assert doc["genus"] == 1
    assert doc["inputs"]["curve"] == CUBIC


def test_smooth_command_pass(capsys):
    code, doc = _run_json(capsys, ["smooth", "-f", CIRCLE])
    assert code == 0
    assert doc["smooth"]["smooth"] is True


def test_smooth_command_failure_exit_code(capsys):
    code, doc = _run_json(capsys, ["smooth", "-f", "y^2-x^3"])
    assert code == 3
    assert doc["smooth"]["smooth"] is False
    assert doc["smooth"]["detail"]


# verdicts and details recorded before the x-discriminant became a content test
SMOOTH_VERDICTS = {
    "x^2+y^2-1": (0, "no singular points"),
    "(x-1)^2*(x^2+y^2-1)": (3, "repeated factor (x-discriminant vanishes)"),
    "(x^2+1)^2*(y-x^3)": (3, "repeated factor (x-discriminant vanishes)"),
    "(x^2+y^2-1)*(x-2)": (3, "affine singular point: over abscissas with -2*x^0 + 1*x^1 = 0 "
                             "the sections of f, f_x, f_y share the factor "
                             "(3*x^0)*y^0 + (1*x^0)*y^2"),
    "x^2-y^3": (3, "affine singular point: over abscissas with 1*x^1 = 0 the sections of "
                   "f, f_x, f_y share the factor (-3*x^0)*y^2"),
    "y^2-x^2": (3, "affine singular point: over abscissas with 1*x^1 = 0 the sections of "
                   "f, f_x, f_y share the factor (2*x^0)*y^1"),
    "(y-x)^2": (3, "repeated factor (y-discriminant vanishes)"),
    "x^2": (3, "repeated linear component"),
    "x^2*y-1": (3, "singular point at infinity [0:1:0]"),
    "y^2-x^2*(x+1)": (3, "affine singular point: over abscissas with 1*x^1 = 0 the sections "
                         "of f, f_x, f_y share the factor (2*x^0)*y^1"),
    "(x^2+y^2-1)^2": (3, "repeated factor (y-discriminant vanishes)"),
    "(x-1)*(x-2)*(y^2-x)": (3, "affine singular point: over abscissas with "
                               "2*x^0 + -3*x^1 + 1*x^2 = 0 the sections of f, f_x, f_y "
                               "share the factor (4*x^0 + -3*x^1)*y^0 + (-3*x^0 + 2*x^1)*y^2"),
    "y^3-x^2*y+x": (0, "no singular points"),
    "x^4+y^4-1": (0, "no singular points"),
    # recorded before the dynamic-evaluation gcd ran on UPoly: a lone form at
    # infinity prints unnormalised, curves in y alone, [0:1:0], and r = 1
    "y^3+x": (3, "singular point at infinity along slope with 3*x^2 = 0"),
    "y^2-1": (3, "singular point at infinity along slope with 2*x^1 = 0"),
    "y^2": (3, "repeated linear component"),
    "x^2-1": (3, "singular point at infinity [0:1:0]"),
    "2*x+3*y-1": (0, "no singular points"),
}


@pytest.mark.parametrize("curve", SMOOTH_VERDICTS)
def test_smooth_verdicts_and_details(capsys, curve):
    code, doc = _run_json(capsys, ["smooth", "-f", curve])
    assert (code, doc["smooth"]["detail"]) == SMOOTH_VERDICTS[curve]
    assert doc["smooth"]["smooth"] is (code == 0)


def test_first_kind_command(capsys):
    code, doc = _run_json(capsys, ["first-kind", "-f", CUBIC])
    assert code == 0
    assert doc["first_kind"]["dimension"] == 1
    assert doc["first_kind"]["numerators"] == ["1"]


def test_third_kind_command(capsys):
    code, doc = _run_json(capsys, ["third-kind", "-f", CUBIC,
                                   "--x1", "0", "--x2", "1", "--digits", "20"])
    assert code == 0
    assert doc["system"]["naive_equations"] == 6
    assert doc["system"]["unknowns"] == 6
    assert doc["system"]["rank"] == 5
    assert doc["system"]["nullspace_dimension"] == 1
    assert doc["system"]["symmetrized_matrix_rational"] is True
    assert all(v["ok"] for v in doc["verification"])
    # chosen roots are echoed with a decimal approximation
    assert "ordinate_approx" in doc["inputs"]["points"]["x1"]


def test_verify_command_circle(capsys):
    code, doc = _run_json(capsys, ["verify", "-f", CIRCLE,
                                   "--x1", "0", "--x2", "1/2"])
    assert code == 0
    names = [v["check"] for v in doc["verification"]]
    assert any("vandermonde" in n for n in names)
    assert any("nullspace" in n for n in names)
    assert any("parametrization" in n for n in names)
    assert all(v["ok"] for v in doc["verification"])


def _nullspace_verdict(doc) -> bool:
    verdict, = (v["ok"] for v in doc["verification"]
                if v["check"] == "nullspace dimension == genus")
    return verdict


def test_verify_counts_the_nullspace_against_a_wrong_first_kind_space(
        capsys, monkeypatch):
    # the cubic's genus is 1: an empty first-kind space is a wrong count
    # of free parameters, which the construction no longer reads
    monkeypatch.setattr(differentials, "first_kind_basis", lambda curve: [])
    code, doc = _run_json(capsys, ["verify", "-f", CUBIC, "--x1", "0", "--x2", "1"])
    assert code == 14
    assert _nullspace_verdict(doc) is False


def test_verify_counts_the_nullspace_of_the_symmetrized_system(capsys, monkeypatch):
    # the last row of the symmetrized system repeated over its first: one
    # condition fewer, a nullspace one larger than the genus
    real = differentials._symmetrized_system

    def deficient(*args):
        system = real(*args)
        system.matrix[-1] = list(system.matrix[0])
        return system
    monkeypatch.setattr(differentials, "_symmetrized_system", deficient)
    code, doc = _run_json(capsys, ["verify", "-f", CUBIC, "--x1", "0", "--x2", "1"])
    assert code == 14
    assert _nullspace_verdict(doc) is False


def test_haupt_command(capsys):
    code, doc = _run_json(capsys, ["haupt", "-f", CUBIC, "--x1", "0",
                                   "--x2", "1", "--xp", "3", "--a", "2",
                                   "--digits", "30"])
    assert code == 0
    assert "decimal" in doc["haupt"]["value"]
    assert doc["haupt"]["value"]["numerator"]["generators"]
    assert doc["haupt"]["value"]["denominator"]["generators"]
    assert all(v["ok"] for v in doc["verification"])


def _closed_form_system(r: int) -> dict:
    """The system block of a degree-r curve: 2r per-point equations in the
    r(r+1)/2 coefficients of the monomials of degree <= r - 1, rank 2r - 1,
    and a nullspace of the genus (r - 1)(r - 2)/2."""
    n = r * (r + 1) // 2
    return {"naive_equations": 2 * r, "unknowns": n,
            "unknown_labels": [f"c{k}" for k in range(n)],
            "symmetrized_matrix_rational": True, "rank": 2 * r - 1,
            "nullspace_dimension": (r - 1) * (r - 2) // 2}


LADDER = ["2*x-3*y+1", CIRCLE, CUBIC, "x^4+y^4-1", "x^5+y^5-1", "x^6+y^6-1",
          "x^7+y^7-x-1"]


@pytest.mark.parametrize("command", ["third-kind", "verify"])
@pytest.mark.parametrize("curve", LADDER)
def test_the_system_block_is_its_closed_form(capsys, command, curve):
    code, doc = _run_json(capsys, [command, "-f", curve, "--x1=1/2", "--x2=1/3"])
    assert code == 0
    assert doc["system"] == _closed_form_system(doc["degree"])
    assert doc["system"]["nullspace_dimension"] == doc["genus"]


# haupt up to genus 3: a genus-6 parameter solve can take minutes (ROADMAP)
@pytest.mark.parametrize("curve, aux", [
    ("2*x-3*y+1", []), (CIRCLE, []), (CUBIC, ["--a=2"]),
    ("x^4+y^4-1", ["--a=4", "--a=5", "--a=6"]),
])
def test_the_haupt_system_block_is_its_closed_form_on_a_group_miss_and_hit(
        capsys, monkeypatch, curve, aux):
    group = ["haupt", "-f", curve, "--x1=1/2", "--x2=1/3", *aux]
    differentials._groups.clear()
    calls = _counting(monkeypatch, "third_kind")
    for xp in ("--xp=3", "--xp=7/2"):
        code, doc = _run_json(capsys, group + [xp])
        assert code == 0
        assert doc["system"] == _closed_form_system(doc["degree"])
        assert doc["system"]["nullspace_dimension"] == doc["genus"]
    assert calls == {"third_kind": 1}


def test_multiple_roots_exit_code(capsys):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE,
                                   "--x1", "0", "--x2", "1"])
    assert code == MultipleRoots.exit_code == 4
    assert doc["error"]["type"] == "MultipleRoots"


def test_same_abscissa_exit_code(capsys):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE,
                                   "--x1", "0", "--x2", "0"])
    assert code == SameAbscissa.exit_code == 5
    assert doc["error"]["type"] == "SameAbscissa"


def test_point_not_on_curve_has_distinct_exit_code():
    codes = {MultipleRoots.exit_code, SameAbscissa.exit_code,
             PointNotOnCurve.exit_code}
    assert len(codes) == 3
    assert exit_code_for(PointNotOnCurve("off")) == 6


def test_genus_on_singular_curve_exits_not_smooth(capsys):
    code, doc = _run_json(capsys, ["genus", "-f", "y^2-x^3"])
    assert code == 3
    assert doc["error"]["type"] == "NotSmooth"


@pytest.mark.parametrize("argv, error, code", [
    (["genus", "-f", "0"], "ZeroPolynomial", 17),
    (["genus", "-f", "x-x"], "ZeroPolynomial", 17),
    (["genus", "-f", "1"], "InvalidArgument", 2),
    (["first-kind", "-f", "5"], "InvalidArgument", 2),
    (["third-kind", "-f", "3", "--x1", "0", "--x2", "1"], "InvalidArgument", 2),
    (["smooth", "-f", "0"], "ZeroPolynomial", 17),
    (["smooth", "-f", "5"], "InvalidArgument", 2),
    # the smoothness waiver does not skip the constant check
    (["genus", "--curve=-1/2", "--assume-smooth"], "InvalidArgument", 2),
])
def test_constant_or_zero_curve_rejected_with_an_error_document(capsys, argv, error, code):
    # these ended in a ValueError traceback from Curve; smooth answered a
    # nonzero constant with "smooth": false (exit 3)
    got, doc = _run_json(capsys, argv)
    assert got == code
    assert doc["error"]["type"] == error
    assert doc["error"]["exit_code"] == code


@pytest.mark.parametrize("argv", [
    ["genus", "-f", CIRCLE, "--digits", "5"],
    ["first-kind", "-f", CIRCLE, "--digits", "5"],
    ["smooth", "-f", CIRCLE, "--digits", "5"],
    ["smooth", "-f", CIRCLE, "--assume-smooth"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    # these print no decimals, and smooth reports smoothness whatever the
    # waiver says; the document still lists the default of each input
    assert cli.main(argv + ["--json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err
    code, doc = _run_json(capsys, argv[:3])
    assert code == 0
    assert doc["inputs"]["digits"] == 50 and doc["inputs"]["assume_smooth"] is False


@pytest.mark.parametrize("argv", [
    ["third-kind", "-f", "x+y", "--x1", "0", "--x2", "1"],
    ["verify", "-f", "2*x-3*y+1", "--x1=1/3", "--x2=-2"],
    ["haupt", "-f", "2*x-3*y+1", "--x1", "0", "--x2", "1", "--xp", "2"],
])
def test_lines_are_answered(capsys, argv):
    # a line's ordinates are generators of degree-1 moduli
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert all(v["ok"] for v in doc["verification"])


def test_parse_error_exit_code(capsys):
    code, doc = _run_json(capsys, ["genus", "-f", "x^3-y^3+2xy"])
    assert code == 2
    assert doc["error"]["type"] == "PolySyntaxError"


def test_irrational_abscissa_exit_code(capsys):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE,
                                   "--x1", "0.5", "--x2", "0"])
    assert code == 19
    assert doc["error"]["type"] == "IrrationalAbscissaUnsupported"


def test_structured_output_deterministic(capsys):
    argv = ["verify", "-f", CIRCLE, "--x1", "0", "--x2", "1/2", "--digits", "15"]
    _, doc1 = _run_json(capsys, argv)
    _, doc2 = _run_json(capsys, argv)
    doc1.pop("timings")
    doc2.pop("timings")
    assert json.dumps(doc1, sort_keys=False) == json.dumps(doc2, sort_keys=False)


def test_human_output_mentions_verdicts(capsys):
    code = cli.main(["third-kind", "-f", CIRCLE, "--x1", "0", "--x2", "1/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "rank" in out


def test_unknown_flag_rejected(capsys):
    for argv in (["genus", "-f", CIRCLE, "--frobnicate"],
                 ["third-kind", "-f", CIRCLE, "--x1", "0", "--x2", "1/2",
                  "--series-order", "2"]):
        assert cli.main(argv) == 2


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_nonpositive_digits_rejected(capsys, digits):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, "--x1", "0",
                                   "--x2", "1/2", "--digits", digits])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


@pytest.mark.parametrize("digits", ["10001", "100000"])
def test_digits_above_the_cap_rejected(capsys, digits):
    # 100000 digits ran for minutes before the cap of 10000
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, "--x1", "0",
                                   "--x2", "1/2", "--digits", digits])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


def test_surplus_roota_rejected(capsys):
    code, doc = _run_json(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1",
                                   "--xp", "3", "--a=2", "--roota", "0",
                                   "--roota", "1"])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


def test_oversized_curve_rejected_at_parse_time(capsys):
    code, doc = _run_json(capsys, ["genus", "-f", "x^100000+y^2-1"])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"
    assert doc["error"]["exit_code"] == 2


@pytest.mark.parametrize("depth", [200, 10_000])
def test_deeply_nested_curve_rejected_with_an_error_document(capsys, depth):
    curve = "(" * depth + "x" + ")" * depth + "+y^2-1"
    code, doc = _run_json(capsys, ["genus", "-f", curve])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


def test_oversized_literal_rejected_with_an_error_document(capsys):
    code, doc = _run_json(capsys, ["genus", "-f", "9" * 5000 + "*x+y^2-1"])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


@pytest.mark.parametrize("x1, x2", [("1" * 5000, "0"), ("0", "1/" + "1" * 5000)])
def test_oversized_abscissa_rejected_with_an_error_document(capsys, x1, x2):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, "--x1", x1, "--x2", x2])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


def test_stalled_refinement_is_an_error_that_leaves_the_precision_alone(capsys):
    # ordinates +-i*10^-200 lie below polyroots' absolute tolerance, which
    # rounds both to 0, where Newton stalls at every precision
    prec = mp.mp.prec
    code, doc = _run_json(capsys, ["third-kind", "-f", "y^2-x", "--x1=-1/1" + "0" * 400,
                                   "--x2=1"])
    assert code == 1
    assert doc["error"]["type"] == "AbeldiffError"
    assert "precision" in doc["error"]["message"]
    assert mp.mp.prec == prec
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, "--x1=0", "--x2=1/2"])
    assert code == 0
    assert mp.mp.prec == prec


def test_an_ordinate_far_below_one_is_answered(capsys):
    # x1 = 1 + 10^-100 puts the section's roots at +-i*sqrt(2)*10^-50
    x1 = f"{10**100 + 1}/{10**100}"
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, f"--x1={x1}", "--x2=0"])
    assert code == 0
    assert doc["verification"] and all(v["ok"] for v in doc["verification"])


def test_out_of_range_root_index_rejected(capsys):
    code, doc = _run_json(capsys, ["third-kind", "-f", CIRCLE, "--x1", "0",
                                   "--x2", "1/2", "--root1", "5"])
    assert code == 2
    assert doc["error"]["type"] == "InvalidArgument"


@pytest.mark.parametrize("argv", [
    ["third-kind", "-f", CUBIC, "--x1", "0", "--x2", "1"],
    ["verify", "-f", CUBIC, "--x1", "0", "--x2", "1"],
    ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--xp", "3", "--a", "2"],
])
def test_each_request_builds_its_differential_once(capsys, monkeypatch, argv):
    differentials._groups.clear()   # no haupt group that an earlier test solved
    # each call logs how many haupt_solve calls are open around it, so the
    # test names no caller and survives moving code between functions
    calls = {"third_kind": [], "residue_certificates": [], "residue_oracle": [],
             "eval_u": [], "haupt_solve": []}
    open_solves = [0]
    for name, log in calls.items():
        def counted(*args, _real=getattr(differentials, name), _log=log,
                    _solve=name == "haupt_solve", **kwargs):
            _log.append(open_solves[0])
            open_solves[0] += _solve
            try:
                return _real(*args, **kwargs)
            finally:
                open_solves[0] -= _solve
        monkeypatch.setattr(differentials, name, counted)
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert len(calls["third_kind"]) == 1
    assert len(calls["residue_certificates"]) == 1
    # only verify re-derives the residues point by point, once per request
    assert len(calls["residue_oracle"]) == (1 if argv[0] == "verify" else 0)
    assert sum(v["check"].startswith("residue at") for v in doc["verification"]) == 7
    # u is evaluated only inside haupt_solve, never by the CLI
    assert all(calls["eval_u"])
    if argv[0] == "haupt":
        # u at the auxiliary pole is checked inside haupt_solve, not again by the CLI
        assert "u vanishes at auxiliary pole a1" in [v["check"] for v in doc["verification"]]
        assert calls["haupt_solve"] == [0] and calls["eval_u"]


@pytest.mark.parametrize("argv, genus", [
    (["third-kind", "-f", CUBIC, "--x1", "0", "--x2", "1"], None),
    (["verify", "-f", CUBIC, "--x1", "0", "--x2", "1"], None),
    (["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--xp", "3", "--a", "2"], 1),
    (["haupt", "-f", "x^4+y^4-1", "--x1", "0", "--x2", "2", "--xp", "3",
      "--a", "4", "--a", "5", "--a", "6"], 3),
], ids=["third-kind", "verify", "haupt-cubic", "haupt-quartic"])
def test_each_request_prepares_its_pole_pair_once(capsys, monkeypatch, argv, genus):
    # sections over x1 and x2 when the points are chosen and once more in
    # third_kind, then over xp and each --a
    differentials._groups.clear()
    calls = {"_prepare": 0, "section_roots": 0}
    real_prepare, real_sections = differentials._prepare, Curve.section_roots

    def prepare(*args):
        calls["_prepare"] += 1
        return real_prepare(*args)

    def section_roots(*args):
        calls["section_roots"] += 1
        return real_sections(*args)
    monkeypatch.setattr(differentials, "_prepare", prepare)
    monkeypatch.setattr(Curve, "section_roots", section_roots)
    code, _ = _run_json(capsys, argv)
    assert code == 0
    assert calls == {"_prepare": 1,
                     "section_roots": 4 if genus is None else 5 + genus}


def test_haupt_reports_same_pole_abscissas_before_its_other_points(capsys):
    # x1 == x2 wins over an out-of-range --rootp; a missing --a is reported
    # once the points are chosen
    code, doc = _run_json(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "0",
                                   "--xp", "2", "--rootp", "9", "--a", "3"])
    assert code == 5
    assert doc["error"]["type"] == "SameAbscissa"
    assert "both poles lie over x = 0" in doc["error"]["message"]
    code, doc = _run_json(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1",
                                   "--xp", "3"])
    assert code == 10
    assert doc["error"]["type"] == "DegeneratePoints"


def _decimals(node, digits=None):
    """(component, digits it is certified to) for every certified decimal
    in a document: each "decimal" at its own digits, each ordinate_approx at
    12."""
    if isinstance(node, list):
        for item in node:
            yield from _decimals(item, digits)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key == "decimal":
                yield from ((value[part], value["digits"]) for part in ("re", "im"))
            elif key == "ordinate_approx":
                yield from ((value[part], 12) for part in ("re", "im"))
            else:
                yield from _decimals(value, digits)


def test_no_decimal_prints_digits_below_its_certified_error(capsys):
    # base-numerator coefficients of this sextic have real part exactly 0; a
    # decimal certified to 10^-30 cannot resolve anything below 10^-30/2
    code, doc = _run_json(capsys, ["third-kind", "-f", "x^6+y^6-1", "--x1=-7/2",
                                   "--x2=3", "--digits", "30"])
    assert code == 0
    found = list(_decimals(doc))
    assert sum(d == 30 for _, d in found) >= 20
    for text, digits in found:
        assert text == "0.0" or abs(mp.mpf(text)) >= mp.mpf(10) ** -digits / 2, text


# SHA-256 of each request's --json document, parsed, with "timings" and
# "stats" removed, and re-serialized with indent=2: the layout the CLI prints
# the document in does not enter the digest.  A change that keeps the parsed
# document identical leaves these as they are; one that changes the document
# on purpose records the new digests.  (The answered haupt entries were
# re-recorded when haupt.value became a numerator, a denominator and the
# decimal of their quotient.)
DIGESTS = {
    "verify -f x^2+y^2-1 --x1 0 --x2 1/2":
        "9495dab5d8ac78a4090e45e362426ae3981a062f48d3957543b483cb273334a3",
    "third-kind -f x^3-y^3+2*x*y+x-2*y+1 --x1 0 --x2 1":
        "d53c8e8f0dc358aeaf5816b0bc08b75d0ba5992d48c223fe969ce2032a2ed6b5",
    "haupt -f x^3-y^3+2*x*y+x-2*y+1 --x1 0 --x2 1 --xp 3 --a 2":
        "2ae758eaa43cf71633d54feab73b35b2df2379cfbec3f8db15842175b7b44539",
    "third-kind -f x^4+y^4-1 --x1 2 --x2 3":
        "80e47b4eece7d555ae41bcdb0a0e45bc57d1e6f5fbdc2df3654f377705dbf52a",
    "third-kind -f x^2+y^2-1 --x1 0 --x2 1/2 --root1 5":
        "7bf332b7b2ffdee196a062da5492577cb353c6509c3318ec269ff2046ffb0606",
    # the NotInvertible error document (exit 11, ROADMAP item 2)
    f"haupt -f {DENSE_QUARTIC} --x1 2 --x2 3 --xp 5 --a 0 --a 4 --a 6":
        "b1aaa7a9f443cd77de6c78cec0da35652898fde59c8b03a9f2d66477e20f5c3d",
    f"haupt -f {DENSE_QUARTIC} --x1=1/3 --x2=5/2 --xp=0 --a=-2/3 --a=7/3 --a=3 "
    "--digits 60":
        "27ef9a8e08b60c3bcc949dc95ec53028d7005b7cd7bd9f4833dce2056195a4b9",
    "haupt -f x^4+y^4-1 --x1 0 --x2 2 --xp 3 --a 4 --a 5 --a 6":
        "f93579cc127e5d7ad7d6f08d5b2bb9b9e6fd299df032a68a44e779a151249186",
    # section ordinates with exactly-zero real parts, and a septic
    "third-kind -f x^2+y^2-1 --x1=-4 --x2=6 --digits 30":
        "7cb87a2596b9d5f7ed72b3b5503f2bc1bf9f9aec315dd965f08ae6fbf8d3b6dd",
    # (the sextic re-recorded when components below 10^-digits/2 began to
    # print as 0.0)
    "third-kind -f x^6+y^6-1 --x1=-5/3 --x2=-5/2 --digits 30":
        "4068388a69ae7c01a6d8d08d69d3ac249394d10eb1abd8b44fa82f7831eb8228",
    "third-kind -f x^7+y^7-x-1 --x1 0 --x2 2":
        "0bfbe41a21513a9e923f9c3e4c0164183db19ba19f90fcbda5d71b1069d5ba61",
    # a genus-3 haupt value with 227 terms in six generators, and a quartic
    # verify (both recorded before evaluation was nested)
    "haupt -f x^4+y^4-1 --x1=7 --x2=6 --xp=7/3 --a=-5/2 --a=3/2 --a=-4 --digits 60":
        "ccf6eb0c945becef46fc79d9b6a80534452aa73ac2e10e4a332dff3086bcdc77",
    "verify -f x^4+y^4-1 --x1=2 --x2=3 --digits 30":
        "f63c418c9889b117a8e8b36254e1be09c0ce57292fdc7c9db7207d409eba551a",
    # residue certificates at a quintic's ten section points, and a cubic
    # verify (both recorded before the residue oracle was division-free)
    "third-kind -f x^5+y^5-1 --x1=2 --x2=-3 --digits 30":
        "8247818d11bb608ae6716f758f3d12e02add0c744e087e9523e27df4423db9ac",
    "verify -f x^3-y^3+2*x*y+x-2*y+1 --x1=1/2 --x2=-2 --digits 30":
        "8d434ea39beb8fda1505a9a2dab10bceb5c789efaeb7802f53ef6742e03a9ed8",
}


@pytest.mark.parametrize("request_line", DIGESTS)
def test_json_output_digests(capsys, request_line):
    cli.main(request_line.split() + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    doc.pop("timings", None)
    doc.pop("stats", None)
    digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
    assert digest == DIGESTS[request_line]


def _document(capsys, argv):
    cli.main(argv + ["--json"])
    doc = json.loads(capsys.readouterr().out)
    doc.pop("timings", None)
    return doc


def test_a_request_does_not_depend_on_earlier_requests(capsys):
    # the second request shares its sections, and so their isolations and
    # refinements, with the first; its document must be what a process that
    # has run nothing before it prints
    group = ["haupt", "-f", "x^4+y^4-1", "--x1", "0", "--x2", "2",
             "--a", "4", "--a", "5", "--a", "6", "--digits", "60"]
    roots._isolated.cache_clear()
    roots._refined.cache_clear()
    differentials._groups.clear()
    _document(capsys, group + ["--xp", "7"])
    after_another = _document(capsys, group + ["--xp", "3"])
    roots._isolated.cache_clear()
    roots._refined.cache_clear()
    differentials._groups.clear()
    fresh = _document(capsys, group + ["--xp", "3"])
    assert after_another == fresh


def _cold(capsys, argv):
    """The document of a request that no earlier request of its haupt
    group has helped."""
    differentials._groups.clear()
    return _document(capsys, argv)


def _counting(monkeypatch, *names):
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, _real=getattr(differentials, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(differentials, name, counted)
    return calls


def test_a_later_request_of_a_haupt_group_reuses_its_solve(capsys, monkeypatch):
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    cold = _cold(capsys, group + ["--xp", "5"])
    differentials._groups.clear()
    calls = _counting(monkeypatch, "third_kind", "_solve_tower", "haupt_solve")
    _document(capsys, group + ["--xp", "3"])
    assert calls == {"third_kind": 1, "_solve_tower": 1, "haupt_solve": 1}
    assert _document(capsys, group + ["--xp", "5"]) == cold
    assert calls == {"third_kind": 1, "_solve_tower": 1, "haupt_solve": 2}


def test_a_haupt_group_is_keyed_by_the_value_of_each_pole_abscissa(capsys, monkeypatch):
    # --a=2, --a=4/2 and --a=+2 name one auxiliary pole, and so one group
    differentials._groups.clear()
    calls = _counting(monkeypatch, "third_kind")
    docs = [_document(capsys, ["haupt", "-f", CUBIC, "--x1=0", "--x2=1", "--xp=3", a])
            for a in ("--a=2", "--a=4/2", "--a=+2")]
    assert len(differentials._groups) == 1
    assert calls == {"third_kind": 1}
    assert docs[0] == docs[1] == docs[2]


def test_a_rebound_haupt_request_inverts_nothing(capsys, monkeypatch):
    # the parameter solve's pivots are the only inversions of a haupt
    # request, and a rebound group skips the solve; the value is a quotient
    group = ["haupt", "-f", "x^4+y^4-1", "--x1", "0", "--x2", "2",
             "--a", "4", "--a", "5", "--a", "6", "--digits", "60"]
    _cold(capsys, group + ["--xp", "7"])
    assert len(differentials._groups) == 1
    calls = []
    real_invert = TowerElement.invert

    def counted(self):
        calls.append(self)
        return real_invert(self)
    monkeypatch.setattr(TowerElement, "invert", counted)
    doc = _document(capsys, group + ["--xp", "3"])
    assert doc["haupt"]["value"]["decimal"]
    assert calls == []


# x^4+y^4-1 has one section polynomial over x and -x: --xp=-1/2 adjoins no
# generator, so the auxiliary points keep their place, --xp=3 moves them
# past its section, and --xp=-5 adjoins the section over --a=5 before the
# one over --a=4
@pytest.mark.parametrize("xps", [("3", "-1/2"), ("-1/2", "3"), ("3", "-5"), ("-5", "3")])
def test_a_rebound_group_numbers_its_auxiliary_generators_anew(capsys, xps):
    group = ["haupt", "-f", "x^4+y^4-1", "--x1=1/2", "--x2=2", "--a=4", "--a=5", "--a=6"]
    cold = {xp: _cold(capsys, group + [f"--xp={xp}"]) for xp in xps}
    differentials._groups.clear()
    for xp in xps:
        assert _document(capsys, group + [f"--xp={xp}"]) == cold[xp]
    assert len(differentials._groups) == 1


def test_a_group_adjoined_in_another_order_is_rebound(capsys, monkeypatch):
    # --xp=-5 adjoins the section over --a=5 before the one over --a=4, so
    # the group stored by --xp=3 is rebound with those generators swapped
    group = ["haupt", "-f", "x^4+y^4-1", "--x1=1/2", "--x2=2", "--a=4", "--a=5", "--a=6"]
    cold = _cold(capsys, group + ["--xp=-5"])
    assert len(differentials._groups) == 1
    differentials._groups.clear()
    _document(capsys, group + ["--xp=3"])
    calls = _counting(monkeypatch, "third_kind", "_solve_tower")
    assert _document(capsys, group + ["--xp=-5"]) == cold
    assert calls == {"third_kind": 0, "_solve_tower": 0}


@pytest.mark.parametrize("argv, error", [
    (["--xp", "0"], "SameAbscissa"),
    (["--xp", "3", "--rootp", "9"], "InvalidArgument"),
])
def test_a_rebound_group_keeps_the_checks_on_its_evaluation_point(capsys, argv, error):
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    cold = _cold(capsys, group + argv)
    assert cold["error"]["type"] == error
    _document(capsys, group + ["--xp", "5"])
    assert len(differentials._groups) == 1
    assert _document(capsys, group + argv) == cold


def test_a_failed_solve_is_not_stored(capsys):
    differentials._groups.clear()
    argv = ["haupt", "-f", DENSE_QUARTIC, "--x1", "2", "--x2", "3", "--xp", "5",
            "--a", "0", "--a", "4", "--a", "6"]
    assert _document(capsys, argv)["error"]["type"] == "NotInvertible"
    assert not differentials._groups


def test_the_least_recently_used_group_is_dropped(capsys, monkeypatch):
    monkeypatch.setattr(differentials, "MAX_GROUPS", 2)
    differentials._groups.clear()

    def request(x2):
        _document(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", x2, "--a", "2",
                           "--xp", "3"])
    calls = _counting(monkeypatch, "third_kind")
    for x2 in ("1", "4", "1", "5"):   # the second "1" is a hit; "5" drops "4"
        request(x2)
    assert calls["third_kind"] == 3
    request("1")
    assert calls["third_kind"] == 3
    request("4")
    assert calls["third_kind"] == 4
    assert [key[3] for key in differentials._groups] == [1, 4]


def _child_env():
    """The environment of a child process that imports this abeldiff."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _fresh(argv):
    """The document a new process prints for argv."""
    proc = subprocess.run([sys.executable, "-m", "abeldiff.cli", *argv, "--json"],
                          capture_output=True, env=_child_env(), timeout=120, check=True)
    doc = json.loads(proc.stdout)
    doc.pop("timings", None)
    return doc


def _counting_proofs(monkeypatch):
    """The polynomials that Curve proves smooth from now on, in order."""
    proofs = []
    real = curves.smoothness_report

    def counted(f):
        proofs.append(f)
        return real(f)
    monkeypatch.setattr(curves, "smoothness_report", counted)
    return proofs


def test_a_haupt_group_hit_skips_the_smoothness_proof(capsys, monkeypatch):
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    differentials._groups.clear()
    proofs = _counting_proofs(monkeypatch)
    _document(capsys, group + ["--xp", "5"])
    assert len(proofs) == 1
    assert [g.proved_smooth for g in differentials._groups.values()] == [True]
    hit = _document(capsys, group + ["--xp", "3"])
    assert len(proofs) == 1
    assert hit == _fresh(group + ["--xp", "3"])


def test_a_group_stored_under_assume_smooth_waives_no_later_proof(capsys, monkeypatch):
    # the cusp y^3 = x^2 is answered under --assume-smooth; the same group
    # requested without the flag is proved, and refused, as in a new process
    group = ["haupt", "-f", "x^2-y^3", "--x1", "1", "--x2", "2", "--a", "3"]
    differentials._groups.clear()
    proofs = _counting_proofs(monkeypatch)
    assert "haupt" in _document(capsys, group + ["--xp", "5", "--assume-smooth"])
    assert proofs == []
    assert [g.proved_smooth for g in differentials._groups.values()] == [False]
    code, doc = _run_json(capsys, group + ["--xp", "4"])
    assert code == NotSmooth.exit_code and doc["error"]["type"] == "NotSmooth"
    assert len(proofs) == 1
    # on a smooth curve the proof is made and the answer is a new process's
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    _document(capsys, group + ["--xp", "5", "--assume-smooth"])
    assert _document(capsys, group + ["--xp", "3"]) == _fresh(group + ["--xp", "3"])
    assert len(proofs) == 2


@pytest.mark.parametrize("flag, literal", [("--x1", "1.0"), ("--x1", "1/0"),
                                           ("--a", "sqrt(3)"), ("--a", "9" * 1001)],
                         ids=["x1-decimal", "x1-zero-denominator", "a-irrational",
                              "a-too-long"])
def test_a_singular_curve_with_a_malformed_literal_is_not_smooth(capsys, flag, literal):
    # the malformed literal has no group to look up, so the curve is proved
    # first and refused, even with its well-formed group stored
    values = {"--x1": "1", "--x2": "2", "--a": "3", "--xp": "5"}
    argv = ["haupt", "-f", "x^2-y^3"] + [f"{k}={v}" for k, v in values.items()]
    differentials._groups.clear()
    assert "haupt" in _document(capsys, argv + ["--assume-smooth"])
    values[flag] = literal
    argv = ["haupt", "-f", "x^2-y^3"] + [f"{k}={v}" for k, v in values.items()]
    code, doc = _run_json(capsys, argv)
    assert code == NotSmooth.exit_code and doc["error"]["type"] == "NotSmooth"


def test_an_evicted_group_is_proved_smooth_again(capsys, monkeypatch):
    monkeypatch.setattr(differentials, "MAX_GROUPS", 2)
    differentials._groups.clear()
    proofs = _counting_proofs(monkeypatch)

    def request(x2):
        _document(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", x2, "--a", "2",
                           "--xp", "3"])
    for x2 in ("1", "1"):
        request(x2)
    assert len(proofs) == 1
    for x2 in ("4", "5"):   # "5" drops "1"
        request(x2)
    assert len(proofs) == 3
    request("1")
    assert len(proofs) == 4
    request("1")
    assert len(proofs) == 4


def test_a_seeded_sweep_of_haupt_groups_prints_the_cold_documents(capsys):
    groups = [
        (["haupt", "-f", CIRCLE, "--x1=0", "--x2=1/2"], ["3", "-2/3"]),
        (["haupt", "-f", CUBIC, "--x1=0", "--x2=1", "--a=2"], ["3", "-1/2", "5/3", "-2"]),
        (["haupt", "-f", CUBIC, "--x1=-1", "--x2=3", "--a=1/2", "--root1=1"], ["2", "-3"]),
        (["haupt", "-f", "x^4+y^4-1", "--x1=1/2", "--x2=2", "--a=4", "--a=5", "--a=6"],
         ["3", "-1/2", "-5", "7/3", "-4", "-2"]),
        (["haupt", "-f", DENSE_QUARTIC, "--x1=1/3", "--x2=5/2", "--a=-2/3", "--a=7/3",
          "--a=3"], ["0", "1", "-1"]),
    ]
    requests = [group + [f"--xp={xp}", "--digits", "40"]
                for group, xps in groups for xp in xps]
    cold = {" ".join(argv): _cold(capsys, argv) for argv in requests}
    random.Random(2027).shuffle(requests)
    differentials._groups.clear()
    for argv in requests:
        assert _document(capsys, argv) == cold[" ".join(argv)], argv


GENUS_3_GROUP = ["haupt", "-f", "x^4+y^4-1", "--x1", "0", "--x2", "2",
                 "--a", "4", "--a", "5", "--a", "6"]
# the first draw of tests/test_cli_fuzz.py, which repeats it in process;
# its ordinate over x2 = 10^-12 has a real part near 2.5e-13, whose 20
# digits a disc finer than its 22-digit one prints otherwise
FUZZ_GROUP = ["haupt", "-f", "x^4+y^4+x*y-1", "--x1=7/4", "--root1=3",
              "--x2=1/1000000000000", "--root2=1", "--digits=28", "--rootp=1",
              "--a=5/4", "--roota=3", "--a=-5/3", "--roota=1", "--a=-2", "--roota=3"]


# FUZZ_GROUP's pole pair as a third-kind request: its decimals read the
# ordinate over x2 = 10^-12 from discs finer than the 22-digit one that
# its record is read from
TINY_ORDINATE = ["third-kind", "-f", "x^4+y^4+x*y-1", "--x1=7/4", "--root1=3",
                 "--x2=1/1000000000000", "--root2=1", "--digits=28"]


def _records(node, out: dict) -> dict:
    """(modulus, root index) -> the root_approx texts of every generator
    record in the document node, added to out."""
    if isinstance(node, dict):
        if "modulus_int_coeffs" in node:
            key = tuple(node["modulus_int_coeffs"]), node["root_index"]
            out.setdefault(key, set()).add(json.dumps(node["root_approx"]))
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            _records(child, out)
    return out


@pytest.mark.parametrize("argv", [TINY_ORDINATE, FUZZ_GROUP + ["--xp=3"],
                                  *(line.split() for line in DIGESTS)],
                         ids=["tiny-ordinate", "fuzz-group", *DIGESTS])
def test_every_generator_prints_one_record_per_document(capsys, argv):
    records = _records(_cold(capsys, argv), {})
    if argv in (TINY_ORDINATE, FUZZ_GROUP + ["--xp=3"]):
        assert records
    assert {key: texts for key, texts in records.items() if len(texts) > 1} == {}


def test_a_finished_request_leaves_no_tower_behind(capsys, monkeypatch):
    # with the cyclic collector off, each request's context is freed when
    # cli.main returns: a third-kind request, a haupt group's miss and hit,
    # and requests that end in an error document, one of them with a
    # zero divisor's witness
    contexts = []

    def tracked(real=cli.TowerContext):
        ctx = real()
        contexts.append(weakref.ref(ctx))
        return ctx
    monkeypatch.setattr(cli, "TowerContext", tracked)
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    requests = [(["third-kind", "-f", CIRCLE, "--x1", "0", "--x2", "1/2"], 0),
                (group + ["--xp", "3"], 0), (group + ["--xp", "5"], 0),
                (["third-kind", "-f", CIRCLE, "--x1", "0", "--x2", "1/2", "--root1", "5"],
                 2),
                (["haupt", "-f", "x^4+y^4+x*y-1", "--x1=-1/4", "--root1=1", "--x2=-2",
                  "--root2=2", "--xp=-5/4", "--rootp=3", "--a=-5/3", "--roota=2",
                  "--a=4", "--roota=1", "--a=1", "--roota=0"], 11)]
    differentials._groups.clear()
    gc.collect()
    gc.disable()
    try:
        for argv, code in requests:
            assert cli.main(argv + ["--json"]) == code
            capsys.readouterr()
            assert len(contexts) == 1 and contexts.pop()() is None, argv
    finally:
        gc.enable()
    assert len(differentials._groups) == 1


def test_a_request_builds_each_generator_ball_once_per_precision(capsys, monkeypatch):
    # the decimals of a third-kind document's coefficients, and every other
    # disc of the request, read each generator's power balls from one table
    # per precision in the request's context: one _disc_ball call per
    # generator and precision.  The next request's context starts with an
    # empty table and builds the same balls again, and its document is the
    # same
    contexts, built = [], []

    def tracked(real=cli.TowerContext):
        ctx = real()
        assert ctx._powers == {}
        contexts.append(ctx)
        return ctx

    def recorded(root, prec, real=towers._disc_ball):
        built.append((root, prec))
        return real(root, prec)
    monkeypatch.setattr(cli, "TowerContext", tracked)
    monkeypatch.setattr(towers, "_disc_ball", recorded)
    argv = ["third-kind", "-f", "x^4+y^4-1", "--x1=0", "--x2=2", "--digits", "30", "--json"]
    docs, ends = [], []
    for _ in range(2):
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timings")
        docs.append(doc)
        ends.append(len(built))
    calls = [(id(root), prec) for root, prec in built]  # built keeps each root
    first, again = calls[:ends[0]], calls[ends[0]:]
    assert len(contexts) == 2 and contexts[0] is not contexts[1]
    assert len(docs[0]["solution"]["base_numerator"]) > 1
    assert len({root for root, _ in first}) >= 2
    assert len(first) == len(set(first))
    assert again == first and docs[1] == docs[0]


def _first_in_process(capsys, argv):
    """The document of argv in a process that has run nothing before it:
    no group stored, no root isolated or refined."""
    roots._isolated.cache_clear()
    roots._refined.cache_clear()
    differentials._groups.clear()
    return _document(capsys, argv)


def test_a_haupt_group_hit_builds_no_system_and_no_differential(capsys, monkeypatch):
    group = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--a", "2"]
    cold = _cold(capsys, group + ["--xp", "3"])
    _cold(capsys, group + ["--xp", "5"])
    for name in ("third_kind", "_symmetrized_system", "third_kind_system_naive"):
        def refuse(*args, _name=name):
            raise AssertionError(f"a group hit called {_name}")
        monkeypatch.setattr(differentials, name, refuse)
    assert _document(capsys, group + ["--xp", "3"]) == cold


def test_a_haupt_group_hit_approximates_only_its_chosen_points(capsys, monkeypatch):
    # the base numerator's decimals are copied, and the value is a quotient
    # of discs: only the six chosen ordinates are approximated, to 12 digits
    group = GENUS_3_GROUP + ["--digits", "60"]
    _cold(capsys, group + ["--xp", "7"])
    calls = []
    real = TowerElement.approximate

    def counted(self, digits):
        calls.append((self, digits))
        return real(self, digits)
    monkeypatch.setattr(TowerElement, "approximate", counted)
    doc = _document(capsys, group + ["--xp", "3"])
    assert doc["haupt"]["value"]["decimal"]
    assert [digits for _, digits in calls] == [12] * 6
    gens = [a.present_generators() for a, _ in calls]
    assert all(len(g) == 1 for g in gens)
    assert [a for a, _ in calls] == [a.ctx.generator(g) for (a, _), (g,) in zip(calls, gens)]


@pytest.mark.parametrize("xps", [("2", "2"), ("2", "3"), ("3", "2")])
def test_a_haupt_group_hit_prints_a_first_requests_document(capsys, xps):
    first = {xp: _first_in_process(capsys, FUZZ_GROUP + [f"--xp={xp}"]) for xp in xps}
    differentials._groups.clear()
    for xp in xps:
        assert _document(capsys, FUZZ_GROUP + [f"--xp={xp}"]) == first[xp]
    assert len(differentials._groups) == 1


def test_a_haupt_group_at_other_digits_is_another_group(capsys, monkeypatch):
    first = _first_in_process(capsys, GENUS_3_GROUP + ["--digits", "60", "--xp", "3"])
    differentials._groups.clear()
    calls = _counting(monkeypatch, "third_kind")
    _document(capsys, GENUS_3_GROUP + ["--digits", "30", "--xp", "7"])
    assert calls == {"third_kind": 1}
    assert _document(capsys, GENUS_3_GROUP + ["--digits", "60", "--xp", "3"]) == first
    assert calls == {"third_kind": 2}
    assert [key[-1] for key in differentials._groups] == [30, 60]


def test_consecutive_requests_share_no_argument_lists(monkeypatch):
    seen = []

    def record(req):
        seen.append(req)
        return {}, True
    monkeypatch.setattr(cli, "run", record)
    monkeypatch.setattr(cli, "_emit", lambda doc, ok, json_mode: None)
    base = ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--xp", "3"]
    assert cli.main(base + ["--a", "2", "--roota", "1"]) == 0
    assert cli.main(base + ["--a", "5", "--a", "6", "--roota", "2"]) == 0
    assert cli.main(base) == 0
    first, second, third = seen
    assert (first.a, first.roota) == (["2"], [1])
    assert (second.a, second.roota) == (["5", "6"], [2])
    assert (third.a, third.roota) == ([], [])
    assert first.a is not second.a and first.roota is not second.roota


@pytest.mark.parametrize("argv, code", [
    (["haupt", "-f", CUBIC, "--x1", "0", "--x2", "1", "--xp", "3", "--a", "2"], 0),
    (["haupt", "-f", CUBIC, "--x1", "0", "--x2", "0", "--xp", "3", "--a", "2"],
     SameAbscissa.exit_code),
    # a value of 900 coefficient terms, which the writer prints in pieces
    (["haupt", "-f", DENSE_QUARTIC, "--x1=1/3", "--x2=5/2", "--xp=0", "--a=-2/3",
      "--a=7/3", "--a=3", "--digits", "60"], 0),
], ids=["answer", "error", "dense-quartic"])
def test_json_document_is_one_compact_line(capsys, argv, code):
    assert cli.main(argv + ["--json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


def _terms(n):
    return [[[k % 5, k % 3], f"{k - 400}/{k % 7 + 1}"] for k in range(n)]


@pytest.mark.parametrize("n", [0, 1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK + 1])
def test_pieces_join_to_the_one_shot_encoding(n):
    long = _terms(n)
    docs = [
        long,
        {"coefficients": long},
        {"schema": "weier/1", "parameters": [{"coefficients": long, "den": 3},
                                             {"coefficients": [], "generators": {}}],
         "empty": {}, "none": [], "list of empty dicts": [{}, {}],
         "n\u00e4me \u2192 \"q\"": ["\u00e9t\u00e9", "\U0001d4b3", long], "flag": None},
        [{"value": {"numerator": {"coefficients": long}}}, {"k": [1.5, True]}],
    ]
    for doc in docs:
        pieces = list(cli._pieces(doc))
        assert "".join(pieces) == cli._dumps(doc)
        assert len(pieces) == 1 or n > cli.CHUNK


def test_a_document_without_long_lists_is_one_encoder_call(monkeypatch, capsys):
    # every ladder and verify document is written by a single _dumps call;
    # a long list goes out one CHUNK at a time
    calls = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda obj: calls.append(obj) or dumps(obj))
    assert cli.main(["verify", "-f", "x^7+y^7-x-1", "--x1=1/3", "--x2=-7/2",
                     "--json"]) == 0
    assert len(calls) == 1
    calls.clear()
    doc = {"coefficients": _terms(2 * cli.CHUNK + 1)}
    cli._write_json(doc)
    # the key, then three slices
    assert [len(c) for c in calls] == [1, cli.CHUNK, cli.CHUNK, 1]
    assert capsys.readouterr().out.endswith(dumps(doc) + "\n")


def test_writing_a_long_document_holds_one_piece_at_a_time():
    # the shape of the dense-quartic haupt document: a value of 900
    # coefficient terms and three parameters of 448, each term a key of 21
    # exponents and a rational string; the one-shot encoder holds every
    # fragment of it at once, the writer those of CHUNK terms
    def coefficients(n, salt):
        return [[[(k >> i) & 1 for i in range(21)], f"{7 ** 170 + salt * k}/{3 ** 60}"]
                for k in range(n)]
    doc = {"schema": "weier/1", "haupt": {
        "value": {"numerator": {"coefficients": coefficients(900, 1)}},
        "parameters": [{"coefficients": coefficients(448, s)} for s in (2, 3, 4)]}}
    size = len(cli._dumps(doc))
    assert 400_000 < size < 600_000

    def peak(write):
        buf = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(buf):
                write(doc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bound = size + 1_500_000
    assert peak(cli._write_json) < bound
    assert peak(lambda d: print(cli._dumps(d))) > bound


def test_dumps_writes_the_bytes_of_json_dumps(capsys):
    # _dumps skips the encoder's cycle markers; the bytes are the same
    argv = ["haupt", "-f", DENSE_QUARTIC, "--x1=1/3", "--x2=5/2", "--a=-2/3",
            "--a=7/3", "--a=3", "--xp=1", "--digits", "60"]
    doc, ok = cli.run(cli.build_parser().parse_args(argv))
    assert ok
    code, error = _run_json(capsys, ["haupt", "-f", CUBIC, "--x1", "0", "--x2", "0",
                                     "--xp", "3", "--a", "2"])
    assert code == SameAbscissa.exit_code
    for d in (doc, error):
        assert cli._dumps(d) == json.dumps(d, separators=(",", ":"))


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_141_without_a_traceback(json_flag):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: the child's first write breaks the pipe
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "abeldiff.cli", "genus", "-f", "x^3+y^3-1",
             *json_flag],
            stdout=write_end, stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr


# Requests on smooth curves that should be answered but are not yet; each
# fails today for the ROADMAP item its reason names, so a fix flips it.
@pytest.mark.parametrize("argv, value", [
    pytest.param(["third-kind", "-f", "x^6+y^6-1", "--x1=8", "--x2=0",
                  "--digits", "30"], None,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 1a: _pair_conjugates pairs the roots at "
                     "53 bits and its assert fires")),
                 id="sextic-conjugate-pairing"),
    pytest.param(["third-kind", "-f", CIRCLE, "--x1=1" + "0" * 299, "--x2=0"], None,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 1a: an absolute root-finding tolerance; a "
                     "300-digit abscissa exits 1, did not converge")),
                 id="circle-300-digit-abscissa"),
    pytest.param(["haupt", "-f", DENSE_QUARTIC, "--x1", "2", "--x2", "3",
                  "--xp", "5", "--a", "0", "--a", "4", "--a", "6"], EXIT_11_VALUE,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 2: haupt inverts a zero divisor and "
                     "exits 11 (NotInvertible)")),
                 id="dense-quartic-exit-11"),
    pytest.param(["haupt", "-f", "x^4+y^4+x*y-1", "--x1=-1/4", "--root1=1",
                  "--x2=-2", "--root2=2", "--xp=-5/4", "--rootp=3", "--a=-5/3",
                  "--roota=2", "--a=4", "--roota=1", "--a=1", "--roota=0"], None,
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"),
                 id="reducible-section-exit-11"),
])
def test_known_defect_requests_are_answered(capsys, argv, value):
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert doc["verification"] and all(v["ok"] for v in doc["verification"])
    if value is not None:   # the Brill-Noether oracle's (tests/test_haupt_oracle.py)
        dec = doc["haupt"]["value"]["decimal"]
        with mp.workdps(60):
            assert abs(mp.mpc(dec["re"], dec["im"]) - mp.mpc(*value)) < mp.mpf(10) ** -40
