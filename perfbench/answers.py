"""Running one request through the CLI and judging its answer.

A request is driven in-process through ``abeldiff.cli.main([..., "--json"])``
with its standard output captured.  Its outcome is "ok" only when the call
returns 0, every verdict in the document is true, and the answer agrees with
the reference answer where one was recorded.  Anything else is a failure,
named by its exception type, exit code or check.

Reference answers keep the exact integers (exit code, genus, rank,
nullspace dimension), the verdicts, and the decimal value of every
base-numerator coefficient and of the fundamental-function value.  Decimals
are compared within 10^-(digits-2) relative to max(1, |value|); serialized
tower forms are not compared, since a change of ring representation may
legitimately change them.
"""

from __future__ import annotations

import io
import json
import signal
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from abeldiff import cli

# Longest wall time one request may take before it counts as failed.  The
# slowest valid request of any workload took about 8 s on the reference
# machine; the deadline leaves room for slower hosts without letting one
# stuck request eat the run.
DEADLINE_S = 30.0


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    mistakes it for one of its own errors."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    status: str            # "ok" or the kind of failure
    latency_s: float
    answer: dict | None    # what the reference keeps, for an answered request


def _answer(doc: dict) -> dict:
    out = {"exit": 0, "genus": doc.get("genus")}
    if "system" in doc:
        out["rank"] = doc["system"]["rank"]
        out["nullspace_dimension"] = doc["system"]["nullspace_dimension"]
    out["verdicts"] = [[v["check"], v["ok"]] for v in doc.get("verification", [])]
    decimals = {}
    for mono, coeff in doc.get("solution", {}).get("base_numerator", {}).items():
        if isinstance(coeff, dict):
            decimals[mono] = [coeff["decimal"]["re"], coeff["decimal"]["im"]]
        else:
            decimals[mono] = [coeff, "0"]
    if "haupt" in doc:
        dec = doc["haupt"]["value"]["decimal"]
        decimals["haupt.value"] = [dec["re"], dec["im"]]
    out["decimals"] = decimals
    return out


def execute(argv: tuple[str, ...]) -> Outcome:
    """Run one request under the deadline; classify how it ended."""
    buf = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            with redirect_stdout(buf):
                code = cli.main([*argv, "--json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return Outcome("deadline", time.perf_counter() - start, None)
    except Exception as exc:     # an untyped error escaping the CLI is a failure to count
        return Outcome(f"exception {type(exc).__name__}", time.perf_counter() - start, None)
    finally:
        signal.signal(signal.SIGALRM, previous)
    latency = time.perf_counter() - start
    if not buf.getvalue().strip():
        return Outcome(f"exit {code}", latency, None)   # usage error: no document
    doc = json.loads(buf.getvalue())
    if "error" in doc:
        return Outcome(f"exit {code} {doc['error']['type']}", latency, None)
    answer = _answer(doc)
    if code != 0 or not answer["verdicts"] or not all(ok for _, ok in answer["verdicts"]):
        return Outcome("false verdict", latency, answer)
    return Outcome("ok", latency, answer)


def _close(a: str, b: str, digits: int) -> bool:
    x, y = Fraction(a), Fraction(b)
    return abs(x - y) <= Fraction(1, 10 ** max(digits - 2, 0)) * max(1, abs(y))


def mismatch(answer: dict, ref: dict, digits: int) -> str | None:
    """Why an answered request disagrees with its reference, or None.  A
    reference that recorded a failure holds no answer to compare."""
    if ref.get("exit") != 0:
        return None
    for key in ("genus", "rank", "nullspace_dimension", "verdicts"):
        if answer.get(key) != ref.get(key):
            return f"{key}: {answer.get(key)!r} != {ref.get(key)!r}"
    got, want = answer["decimals"], ref["decimals"]
    if got.keys() != want.keys():
        return f"coefficients {sorted(got)} != {sorted(want)}"
    for key, (re_w, im_w) in want.items():
        re_g, im_g = got[key]
        if not (_close(re_g, re_w, digits) and _close(im_g, im_w, digits)):
            return f"{key}: {re_g}+{im_g}i != {re_w}+{im_w}i"
    return None


def reference_entry(outcome: Outcome) -> dict:
    if outcome.status == "ok":
        return outcome.answer
    words = outcome.status.split()
    code = int(words[1]) if words[0] == "exit" else None
    return {"exit": code, "status": outcome.status}
