"""In-memory spans and counters around the public functions of each layer.

The tracer replaces each traced function everywhere a ``qchar`` module
bound it (for example ``qchar.expansion.expand_Li_steps`` and
``qchar.smallness.fm_algorithm``) and puts the originals back on exit.
Timed functions get a span (name, start, end, parent, pass, op); the two
hot functions, ``a_monomial`` and ``Monomial.__mul__``, are only counted.
A layer's self time is its spans' duration minus that of their children.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from time import perf_counter

from qchar.monomials import Monomial

SPANNED = [
    ("cli", "qchar.cli", "main"),
    ("smallness.pipeline", "qchar.smallness", "check_small_empirical"),
    ("smallness.enum", "qchar.smallness", "enumerate_dominant_below"),
    ("expansion.fm", "qchar.expansion", "fm_algorithm"),
    ("expansion.process", "qchar.expansion", "generate_process"),
    ("expansion.expand", "qchar.expansion", "expand_Li_steps"),
    ("sl2.simple", "qchar.sl2", "simple_qchar_sl2"),
    ("sl2.divide", "qchar.sl2", "sl2_divide"),
    ("monomials.divide", "qchar.monomials", "divide_as_a_product"),
    ("cartan", "qchar.cartan", "parse_diagram"),
    ("cartan", "qchar.cartan", "build_diagram"),
    ("cartan", "qchar.cartan", "graph_distance"),
    ("cartan", "qchar.cartan", "classify_nodes"),
]
COUNTED = [("monomials.a_monomial", "qchar.monomials", "a_monomial")]


def _shape(c, m, i):
    """Node-i restriction of m up to a shift by a multiple of r_i."""
    powers = m.node_powers(i)
    ri = c.r(i)
    base = ri * (min(powers) // ri) if powers else 0
    return c.name, i, tuple(sorted((p - base, e) for p, e in powers.items()))


class Tracer:
    """Patches the layers while active (``with tracer:``) and records spans.

    ``spans`` holds ``[name, start, end, parent, pass, op]`` lists, parent
    being an index into ``spans`` or -1; ``pass_no`` and ``op`` tag new
    spans.  ``passes`` keeps, per traced pass, the span index range and
    the counters it produced.
    """

    def __init__(self):
        self.spans = []
        self.info = {}
        self.counts = Counter()
        self.shapes = set()
        self.passes = []
        self.pass_no = 0
        self.op = -1
        self._stack = []
        self._patched = []

    # --- patching -------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = {
            "smallness.enum": self._seen_enum,
            "expansion.fm": self._seen_fm,
            "expansion.process": self._seen_process,
            "expansion.expand": self._seen_expand,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_no, self.op]
            spans.append(rec)
            stack.append(sid)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(sid, args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qchar" or n.startswith("qchar.")]
        for kind, table in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for name, home, attr in table:
                original = getattr(sys.modules[home], attr)
                wrapper = kind(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        self._patched.append((Monomial, "__mul__", Monomial.__mul__))
        Monomial.__mul__ = self._counted("monomials.mul", Monomial.__mul__)
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def patched_names(self):
        """(owner, attribute, original) for every name patched while active."""
        return list(self._patched)

    # --- per-call observations (outside the callee's span) --------------

    def _seen_enum(self, sid, args, enum):
        self.counts["smallness.enum.visited"] += enum.visited
        self.counts["smallness.enum.entries"] += len(enum.entries)
        self.counts["smallness.enum.partial"] += enum.partial

    def _seen_fm(self, sid, args, report):
        self.counts["expansion.fm.settled"] += report.steps
        self.counts["expansion.fm.inconclusive"] += report.verdict == "Inconclusive"
        self.info[sid] = report.verdict == "NotSpecial"

    def _seen_process(self, sid, args, trace):
        self.counts["expansion.process.steps"] += trace.steps
        self.counts["expansion.process.partial"] += trace.partial
        self.info[sid] = bool(trace.dominant_monomials())

    def _seen_expand(self, sid, args, result):
        self.shapes.add(_shape(*args[:3]))

    # --- passes -----------------------------------------------------------

    def begin_pass(self, pass_no):
        self.pass_no = pass_no
        self.counts.clear()
        self.shapes.clear()
        self._pass_start = len(self.spans)

    def end_pass(self):
        counts = Counter(self.counts)
        counts["expansion.expand.shapes"] = len(self.shapes)
        self.passes.append((self._pass_start, len(self.spans), counts))
        self.op = -1

    def pass_metrics(self, lo, hi, counts) -> dict:
        """Per-layer metrics of the spans ``lo:hi`` and their counters."""
        spans = self.spans
        child = Counter()
        for sid in range(lo, hi):
            _, start, end, parent, _, _ = spans[sid]
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        cartan_s = 0.0
        after_n, after_s = 0, 0.0
        witnessed = set()  # pipeline spans that already certified NotSpecial
        for sid in range(lo, hi):
            name, start, end, parent, _, _ = spans[sid]
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[sid]
            if name == "cartan" and (parent < 0 or spans[parent][0] != "cartan"):
                cartan_s += dur
            if parent >= 0 and spans[parent][0] == "smallness.pipeline":
                if name == "expansion.fm" and parent in witnessed:
                    after_n += 1
                    after_s += dur
                if self.info.get(sid):
                    witnessed.add(parent)
        expand_calls = calls["expansion.expand"]
        return {
            "cli.calls": calls["cli"], "cli.self_s": self_s["cli"],
            "cli.out_bytes": counts["cli.out_bytes"],
            "smallness.pipeline.calls": calls["smallness.pipeline"],
            "smallness.pipeline.self_s": self_s["smallness.pipeline"],
            "smallness.pipeline.closures_after_witness": after_n,
            "smallness.pipeline.closures_after_witness_s": after_s,
            "smallness.enum.calls": calls["smallness.enum"],
            "smallness.enum.s": incl["smallness.enum"],
            "smallness.enum.visited": counts["smallness.enum.visited"],
            "smallness.enum.entries": counts["smallness.enum.entries"],
            "smallness.enum.partial": counts["smallness.enum.partial"],
            "expansion.fm.calls": calls["expansion.fm"],
            "expansion.fm.self_s": self_s["expansion.fm"],
            "expansion.fm.settled": counts["expansion.fm.settled"],
            "expansion.fm.inconclusive": counts["expansion.fm.inconclusive"],
            "expansion.process.calls": calls["expansion.process"],
            "expansion.process.self_s": self_s["expansion.process"],
            "expansion.process.steps": counts["expansion.process.steps"],
            "expansion.process.partial": counts["expansion.process.partial"],
            "expansion.expand.calls": expand_calls,
            "expansion.expand.self_s": self_s["expansion.expand"],
            "expansion.expand.shapes": counts["expansion.expand.shapes"],
            "expansion.expand.shape_ratio":
                counts["expansion.expand.shapes"] / expand_calls if expand_calls else 0.0,
            "sl2.simple.calls": calls["sl2.simple"], "sl2.simple.s": incl["sl2.simple"],
            "sl2.divide.calls": calls["sl2.divide"], "sl2.divide.s": incl["sl2.divide"],
            "monomials.a_monomial.calls": counts["monomials.a_monomial"],
            "monomials.mul.calls": counts["monomials.mul"],
            "monomials.divide.calls": calls["monomials.divide"],
            "monomials.divide.s": incl["monomials.divide"],
            "cartan.s": cartan_s,
        }

    def metrics(self) -> dict:
        """Median over traced passes of every per-pass metric."""
        per_pass = [self.pass_metrics(*p) for p in self.passes]
        return {key: statistics.median(p[key] for p in per_pass)
                for key in per_pass[0]}

    def write_spans(self, path):
        """Write every span as a tab-separated line."""
        with open(path, "w") as f:
            f.write("id\tname\tstart\tend\tparent\tpass\top\n")
            for sid, (name, start, end, parent, pass_no, op) in enumerate(self.spans):
                f.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pass_no}\t{op}\n")
