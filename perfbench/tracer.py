"""Per-layer tracing from outside the program.

The tracer replaces public functions of the abeldiff modules with wrappers
that time each call as a span and keep counters at the same boundary.  A
function imported by name into another module is replaced there too, found
by identity, so no call path escapes its wrapper.  Spans are aggregated as
they close (calls and self time) instead of being stored, since
the ring multiply alone runs millions of times in one run.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

from abeldiff.errors import NotInvertible

MODULES = ("abeldiff", "abeldiff.cli", "abeldiff.curves", "abeldiff.differentials",
           "abeldiff.linsolve", "abeldiff.parser", "abeldiff.polys", "abeldiff.roots",
           "abeldiff.towers")

# (span name, module, attribute path).  Layer names are the package modules;
# parser is left out: it costs under 1 ms per request and folds into cli.
TARGETS = (
    ("cli", "abeldiff.cli", "main"),
    ("towers.is_zero", "abeldiff.towers", "TowerElement.is_zero"),
    ("towers.mul", "abeldiff.towers", "TowerElement.__mul__"),
    ("towers.invert", "abeldiff.towers", "TowerElement.invert"),
    ("towers.approximate", "abeldiff.towers", "TowerElement.approximate"),
    ("towers.adjoin", "abeldiff.towers", "adjoin"),
    ("towers.eval_bpoly", "abeldiff.towers", "eval_bpoly"),
    ("roots.isolate_roots", "abeldiff.roots", "isolate_roots"),
    ("roots.refine_root", "abeldiff.roots", "refine_root"),
    ("polys.resultant_y", "abeldiff.polys", "resultant_y"),
    ("polys.poly_gcd", "abeldiff.polys", "poly_gcd"),
    ("polys.power_sums", "abeldiff.polys", "power_sums"),
    ("linsolve.ff_solve", "abeldiff.linsolve", "ff_solve"),
    ("linsolve.bareiss_det", "abeldiff.linsolve", "bareiss_det"),
    ("curves.smoothness_report", "abeldiff.curves", "smoothness_report"),
    ("curves.section_roots", "abeldiff.curves", "Curve.section_roots"),
    ("curves.local_series", "abeldiff.curves", "Curve.local_series"),
    ("differentials.third_kind", "abeldiff.differentials", "third_kind"),
    ("differentials.third_kind_system_naive", "abeldiff.differentials",
     "third_kind_system_naive"),
    ("differentials.residue_certificates", "abeldiff.differentials",
     "residue_certificates"),
    ("differentials.vandermonde_equivalence", "abeldiff.differentials",
     "vandermonde_equivalence"),
    ("differentials.haupt_solve", "abeldiff.differentials", "haupt_solve"),
    ("differentials.eval_u", "abeldiff.differentials", "eval_u"),
)

# Commands and degrees of the ladder table (cli.<command>.deg<r>.p50_s).
LADDER_CELLS = tuple([("third-kind", r) for r in range(2, 8)]
                     + [("verify", r) for r in (2, 3, 4)]
                     + [("haupt", r) for r in (2, 3, 4)])


@dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, _Stat] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    seen_polys: set = field(default_factory=set)      # isolated in earlier requests
    request_polys: set = field(default_factory=set)   # isolated in this request
    patched_sites: list[str] = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]            # child time accumulated while open
            stack.append(frame)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if observe is not None:
                    observe(args, None if error else result, error, dur)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def _max(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _observers(self):
        def request_done(args, result, error, dur):
            self.seen_polys |= self.request_polys
            self.request_polys = set()

        def is_zero(args, result, error, dur):
            if any(args[0].terms):   # a generator term: the syntactic test cannot decide
                self._bump("towers.is_zero.nonsyntactic")
                self._bump("towers.is_zero.nonsyntactic_s", dur)

        def mul(args, result, error, dur):
            if result is not None and result is not NotImplemented:
                self._max("towers.mul.max_terms", len(result.terms))

        def invert(args, result, error, dur):
            if isinstance(error, NotInvertible):
                self._bump("towers.invert.not_invertible")

        def isolate_roots(args, result, error, dur):
            # a section isolated once per adjoined root within one request is
            # not sharing; only a polynomial met in an earlier request counts
            key = tuple(args[0].to_int_coeffs()[0])
            if key in self.seen_polys:
                self._bump("roots.isolate_roots.repeats")
            self.request_polys.add(key)

        def refine_root(args, result, error, dur):
            if result is not None:
                self._max("roots.refine_root.max_prec_bits", result.prec)

        def ff_solve(args, result, error, dur):
            rows = getattr(args[0], "rows", args[0])
            self._max("linsolve.ff_solve.max_cells", len(rows) * (len(rows[0]) if rows else 0))

        return {"cli": request_done, "towers.is_zero": is_zero, "towers.mul": mul,
                "towers.invert": invert, "roots.isolate_roots": isolate_roots,
                "roots.refine_root": refine_root, "linsolve.ff_solve": ff_solve}

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(m) for m in MODULES}
        observers = self._observers()
        for name, modname, path in TARGETS:
            owner = mods[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, orig, observers.get(name))
            if isinstance(owner, type):
                # a method: patch every class attribute bound to it (__rmul__ too)
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        self._patch(owner, key, wrapper, f"{owner.__name__}.{key}")
                continue
            for short, mod in mods.items():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper, f"{short.split('.')[-1]}.{key}")

    def _patch(self, owner, key, wrapper, site: str) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)
        self.patched_sites.append(site)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals, name -> (value, unit)."""
        def stat(name):
            return self.stats.get(name, _Stat())

        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            if name in ("cli", "towers.eval_bpoly"):
                continue
            out[f"{name}.calls"] = (stat(name).calls, "count")
            out[f"{name}.self_s"] = (stat(name).self_s, "s")
        out["cli.self_s"] = (stat("cli").self_s, "s")
        for key in ("towers.is_zero.nonsyntactic", "towers.invert.not_invertible"):
            out[key] = (int(self.counters.get(key, 0)), "count")
        out["towers.is_zero.nonsyntactic_s"] = (
            float(self.counters.get("towers.is_zero.nonsyntactic_s", 0.0)), "s")
        for key, unit in (("towers.mul.max_terms", "count"),
                          ("roots.refine_root.max_prec_bits", "bits"),
                          ("linsolve.ff_solve.max_cells", "count")):
            out[key] = (int(self.counters.get(key, 0)), unit)
        calls = stat("roots.isolate_roots").calls
        repeats = self.counters.get("roots.isolate_roots.repeats", 0)
        out["roots.isolate_roots.repeat_ratio"] = (repeats / calls if calls else 0.0, "1")
        return out


def ladder_p50s(latencies: dict[tuple[str, int], list[float]]) -> dict[str, tuple[float, str]]:
    """Median wall time per command and degree, 0.0 where the workload has
    no such request."""
    return {f"cli.{cmd}.deg{r}.p50_s": (statistics.median(latencies[(cmd, r)])
                                        if latencies.get((cmd, r)) else 0.0, "s")
            for cmd, r in LADDER_CELLS}
