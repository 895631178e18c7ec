"""Command-line entry point.

Subcommands: genus | smooth | first-kind | third-kind | haupt | verify.
Curve equations and abscissas are exact (integers or p/q); points are chosen
by abscissa plus an index into the canonical root order of the section, and
the chosen root's decimal approximation is always echoed so the intended
branch can be confirmed.  Structured output (--json) is a single versioned
document printed as one compact line (no indentation; pipe it through
``python -m json.tool`` to read it); it is byte-for-byte deterministic for
identical requests except for the "timings" subtree.  When stdout is closed
before the output is written, the console script exits 141 (128 + SIGPIPE)
without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import signal
import sys
import time
from fractions import Fraction

from . import differentials as diffs
from .curves import Curve, smoothness_report
from .errors import (AbeldiffError, InvalidArgument,
                     IrrationalAbscissaUnsupported, NotSmooth,
                     VerificationFailed, exit_code_for)
from .linsolve import rank
from .parser import MAX_LITERAL_DIGITS, format_bpoly, parse_poly
from .towers import TowerContext, decimal_parts

SCHEMA = "weier/1"

# Largest --digits accepted: 10000 digits take seconds per request, 100000
# take minutes.
MAX_DIGITS = 10000

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _rational(text: str) -> Fraction:
    literal = text.strip()
    if not _RATIONAL.match(literal):
        raise IrrationalAbscissaUnsupported(
            f"{text!r} is not a rational literal; chosen points must have "
            "rational abscissas written as an integer or p/q")
    digits = max(len(part.lstrip("+-")) for part in literal.split("/"))
    if digits > MAX_LITERAL_DIGITS:
        raise InvalidArgument(f"abscissa literal of {digits} digits exceeds the "
                              f"maximum of {MAX_LITERAL_DIGITS} digits")
    return Fraction(literal)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: parse_args
    leaves it unchanged, and the append actions copy their default lists
    before appending.  A command takes only the flags it reads (--digits
    with points, --assume-smooth unless smooth), but set_defaults gives
    every command's namespace every field, and so every document its
    inputs."""
    ap = argparse.ArgumentParser(
        prog="abeldiff",
        description="Exact Abelian differentials of the first and third kind "
                    "on smooth plane curves, and fundamental-function values.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, need_points in [("genus", False), ("smooth", False),
                              ("first-kind", False), ("third-kind", True),
                              ("haupt", True), ("verify", True)]:
        p = sub.add_parser(name)
        p.add_argument("-f", "--curve", required=True,
                       help="curve polynomial in x and y, e.g. 'x^2+y^2-1'")
        p.add_argument("--json", action="store_true", dest="json_mode")
        p.set_defaults(assume_smooth=False, digits=50, x1=None, x2=None,
                       xp=None, a=[], root1=0, root2=0, rootp=0, roota=[])
        if name != "smooth":
            p.add_argument("--assume-smooth", action="store_true")
        if need_points:
            p.add_argument("--digits", type=int)
            p.add_argument("--x1", required=True)
            p.add_argument("--x2", required=True)
            p.add_argument("--root1", type=int)
            p.add_argument("--root2", type=int)
        if name == "haupt":
            p.add_argument("--xp", required=True,
                           help="abscissa of the evaluation point")
            p.add_argument("--rootp", type=int)
            p.add_argument("--a", action="append",
                           help="auxiliary pole abscissa (repeat per pole)")
            p.add_argument("--roota", action="append", type=int)
    return ap


def _chosen_point(curve: Curve, ctx: TowerContext, text: str, root: int,
                  label: str, doc_roots: dict):
    x = _rational(text)
    pts = curve.section_roots(x, ctx)
    if not 0 <= root < len(pts):
        raise InvalidArgument(
            f"--{label}: root index {root} out of range 0..{len(pts) - 1}")
    pt = pts[root]
    doc_roots[label] = {
        "x": str(x),
        "root_index": root,
        "ordinate_approx": decimal_parts(pt.y.approximate(12), 12),
    }
    return pt


def _group_key(f, req: argparse.Namespace) -> tuple:
    """The key of a haupt request's group: the curve, the values of --x1,
    --root1, --x2, --root2, --a and --roota, so --a=2 and --a=4/2 are one
    group, and --digits, at which the group's blocks are printed.  Raises
    as _rational does for a malformed literal."""
    roota = req.roota + [0] * (len(req.a) - len(req.roota))
    return (f, _rational(req.x1), req.root1, _rational(req.x2), req.root2,
            tuple(map(_rational, req.a)), tuple(roota), req.digits)


def _haupt(curve: Curve, ctx: TowerContext, req: argparse.Namespace, p1, p2,
           key, group, doc_roots: dict):
    """(differential, auxiliary points, result) of a haupt request.

    The differential and its parameters depend on the curve, the poles and
    the auxiliary points, not on the evaluation point: a group of requests
    that share them and --digits (_group_key) rebinds what the first one
    found instead of solving again (differentials.recall); run stores the
    group with the blocks that the group alone fixes, and a hit copies
    them.  run passes the key (None when a literal is malformed) and the
    group it found under it (or None).  The points are chosen in the same
    order either way, after third_kind on a first request, so errors are
    reported in the same order and generators numbered alike."""
    roota = req.roota + [0] * (len(req.a) - len(req.roota))
    if group is None:
        if key is None:  # p1 and p2 parsed, so a malformed --a raises here
            _group_key(curve.f, req)
        d = diffs.third_kind(curve, p1, p2)
    pp = _chosen_point(curve, ctx, req.xp, req.rootp, "xp", doc_roots)
    poles = [_chosen_point(curve, ctx, ax, ar, f"a{i + 1}", doc_roots)
             for i, (ax, ar) in enumerate(zip(req.a, roota))]
    if group is None:
        result = diffs.haupt_solve(d, pp, poles)
    else:
        d, params = diffs.rebind(group, curve, p1, p2)
        result = diffs.haupt_solve(d, pp, poles, params)
    return d, poles, result


def run(req: argparse.Namespace) -> tuple[dict, bool]:
    """Execute a request; returns (structured document, all-verifications-ok)."""
    timings: dict[str, float] = {}
    doc: dict = {
        "schema": SCHEMA,
        "command": req.command,
        "inputs": {
            "curve": req.curve,
            "digits": req.digits,
            "assume_smooth": req.assume_smooth,
        },
    }
    if req.digits < 1:
        raise InvalidArgument(f"--digits must be at least 1, got {req.digits}")
    if req.digits > MAX_DIGITS:
        raise InvalidArgument(
            f"--digits must be at most {MAX_DIGITS}, got {req.digits}")
    if len(req.roota) > len(req.a):
        raise InvalidArgument(
            f"more --roota values ({len(req.roota)}) than --a poles "
            f"({len(req.a)}); give at most one --roota per --a")
    t0 = time.perf_counter()
    f = parse_poly(req.curve)
    doc["inputs"]["curve_canonical"] = format_bpoly(f)

    if req.command == "smooth":
        report = smoothness_report(f)
        timings["smooth"] = time.perf_counter() - t0
        doc["smooth"] = {"smooth": report.smooth, "detail": report.detail}
        doc["timings"] = timings
        return doc, report.smooth

    # a haupt request whose group was stored by a request that proved this
    # same polynomial smooth skips the proof; with a malformed literal there
    # is no group, and the error is reported where a first request reports it
    key = group = None
    if req.command == "haupt":
        try:
            key = _group_key(f, req)
        except AbeldiffError:
            pass
        else:
            group = diffs.recall(key)
    proved = group is not None and group.proved_smooth
    curve = Curve(f, assume_smooth=req.assume_smooth or proved)
    doc["genus"] = curve.genus()
    doc["degree"] = curve.r
    timings["curve"] = time.perf_counter() - t0

    if req.command == "genus":
        doc["timings"] = timings
        return doc, True

    if req.command == "first-kind":
        basis = diffs.first_kind_basis(curve)
        doc["first_kind"] = {
            "dimension": len(basis),
            "numerators": [format_bpoly(m) for m in basis],
            "denominator": "f_y",
        }
        doc["timings"] = timings
        return doc, True

    ctx = TowerContext()
    try:
        doc["inputs"]["points"] = {}
        t1 = time.perf_counter()
        p1 = _chosen_point(curve, ctx, req.x1, req.root1, "x1", doc["inputs"]["points"])
        p2 = _chosen_point(curve, ctx, req.x2, req.root2, "x2", doc["inputs"]["points"])
        timings["sections"] = time.perf_counter() - t1

        t1 = time.perf_counter()
        if req.command == "haupt":
            d, poles, result = _haupt(curve, ctx, req, p1, p2, key, group,
                                      doc["inputs"]["points"])
        else:
            d = diffs.third_kind(curve, p1, p2)
        timings["third_kind"] = time.perf_counter() - t1

        if group is None:
            naive = diffs.third_kind_system_naive(d)
            doc["system"] = {
                "naive_equations": naive.shape[0],
                "unknowns": naive.shape[1],
                "unknown_labels": naive.labels,
                "symmetrized_matrix_rational": True,
                "rank": d.rank,
                "nullspace_dimension": d.parameter_count,
            }
            doc["solution"] = {
                "base_numerator": {
                    f"x^{i}*y^{j}": v.serialize(req.digits)
                    for (i, j), v in sorted(d.base_numerator.terms.items())
                },
                "first_kind_numerators": [format_bpoly(m)
                                          for m in d.first_kind_numerators],
                "denominator": f"(x - {p1.x})*({p2.x} - x)*f_y",
            }
            if req.command == "haupt":
                diffs.remember(key, d, result.parameters, not req.assume_smooth,
                               _dumps({"system": doc["system"],
                                       "solution": doc["solution"]}))
        else:
            doc.update(json.loads(group.blocks))

        # third_kind decided the residues from the defining identity; verify
        # re-derives them point by point with the independent oracle
        certificates = d.certificates
        if req.command == "verify":
            t1 = time.perf_counter()
            certificates = diffs.residue_oracle(d)
        verdicts = [{"check": f"residue at {cert['point']}",
                     "expected": cert["expected"], "ok": cert["ok"]}
                    for cert in certificates]

        if req.command == "verify":
            verdicts.append({"check": "vandermonde equivalence",
                             "ok": diffs.vandermonde_equivalence(d)})
            # the nullspace of the paper's symmetrized conditions, the family's
            # free parameters and the genus: three counts, one number
            nullity = len(d.system.monomials) - rank(d.system.matrix)
            verdicts.append({"check": "nullspace dimension == genus",
                             "ok": nullity == d.parameter_count == curve.genus()})
            try:
                pull = diffs.unit_circle_pullback(d)
                verdicts.append({"check": "unit-circle parametrization pullback",
                                 "ok": pull["ok"]})
            except ValueError:
                pass  # oracle only applies to the unit circle
            timings["verify_extra"] = time.perf_counter() - t1

        if req.command == "haupt":
            doc["haupt"] = {
                "value": result.value.serialize(req.digits),
                "parameters": [c.serialize() for c in result.parameters],
            }
            # haupt_solve raises VerificationFailed unless u vanishes at every pole
            verdicts += [{"check": f"u vanishes at auxiliary pole a{i + 1}", "ok": True}
                         for i in range(len(poles))]

        doc["verification"] = verdicts
        doc["timings"] = timings
        return doc, all(v["ok"] for v in verdicts)
    finally:
        # the context's sections hold points whose ordinates hold the
        # context, a cycle that would keep the request's tower alive until
        # the cyclic collector runs: emptying them frees it when run ends
        ctx.sections.clear()


def _dumps(doc: dict) -> str:
    # without indent, json.dumps runs the C encoder; run builds a tree, so
    # the encoder's cycle markers are skipped (a cycle still ends in
    # RecursionError)
    return json.dumps(doc, separators=(",", ":"), check_circular=False)


def _emit(doc: dict, ok: bool, json_mode: bool) -> None:
    if json_mode:
        print(_dumps(doc))
        return
    print(f"curve: {doc['inputs'].get('curve_canonical', doc['inputs']['curve'])}")
    if "smooth" in doc:
        s = doc["smooth"]
        print(f"smooth: {s['smooth']} ({s['detail']})")
    if "genus" in doc:
        print(f"degree: {doc['degree']}  genus: {doc['genus']}")
    if "first_kind" in doc:
        fk = doc["first_kind"]
        print(f"first-kind basis ({fk['dimension']}): "
              + (", ".join(f"({n})/f_y" for n in fk["numerators"]) or "(empty)"))
    for label, info in doc.get("inputs", {}).get("points", {}).items():
        o = info["ordinate_approx"]
        print(f"point {label}: x = {info['x']}, root #{info['root_index']} "
              f"~ {o['re']} + {o['im']}*i")
    if "system" in doc:
        s = doc["system"]
        print(f"system: {s['naive_equations']} equations, {s['unknowns']} unknowns, "
              f"rank {s['rank']}, free parameters {s['nullspace_dimension']}")
    if "haupt" in doc:
        dec = doc["haupt"]["value"].get("decimal", {})
        print(f"fundamental function value ~ {dec.get('re')} + {dec.get('im')}*i")
    for v in doc.get("verification", []):
        print(f"  [{'PASS' if v['ok'] else 'FAIL'}] {v['check']}")
    total = sum(doc.get("timings", {}).values())
    print(f"done in {total:.3f}s ({'all checks passed' if ok else 'FAILURES'})")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        req = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        doc, ok = run(req)
    except AbeldiffError as e:
        err = {"schema": SCHEMA, "command": req.command,
               "error": {"type": type(e).__name__, "message": str(e),
                         "exit_code": exit_code_for(e)}}
        if req.json_mode:
            print(_dumps(err))
        else:
            print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return exit_code_for(e)
    _emit(doc, ok, req.json_mode)
    if not ok:
        return NotSmooth.exit_code if req.command == "smooth" \
            else VerificationFailed.exit_code
    return 0


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays quiet, and exit with the status of a SIGPIPE death
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(128 + signal.SIGPIPE)
    sys.exit(code)


if __name__ == "__main__":
    entry()
