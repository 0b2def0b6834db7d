"""Spans at the public-function boundaries of qcode, installed from outside.

`Tracer.install` rebinds each public name listed in TARGETS, in every
qcode module that holds it, to a wrapper that records a span: its name,
start, end, parent span and request. Classes are traced through their
`__init__`. A listed name that the package no longer has is recorded as
absent and its metrics read 0, so the benchmark survives refactors.
Spans stay in memory until `dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import tracemalloc
from math import comb, prod

TARGETS = {
    "z4": ("GeneratorSpec", "build_design", "codewords", "design_to_text",
           "design_from_text", "frequency_vector", "generator_for_frequency",
           "load_generator"),
    "jchar": ("spectrum_bruteforce", "summarize", "walsh_hadamard"),
    "equations": ("build_system",),
    "theory": ("search", "analyze", "evaluate", "theory_spectrum",
               "class_rhos", "periodic_extend", "preconditions_met"),
    "golden": ("verify_all",),
    "cli": ("main",),
}

CLI_OPS = ("construct", "analyze", "matrices", "verify", "extend")

#: per-layer metric -> unit, as listed in BENCHMARK.json
LAYER_UNITS = {
    "theory.search.busy_s": "s",
    "theory.search.candidates_per_s": "1/s",
    "theory.search.report_s": "s",
    "jchar.spectrum_bruteforce.busy_s": "s",
    "jchar.spectrum_bruteforce.peak_mib": "MiB",
    "jchar.wht.butterflies_per_s": "1/s",
    "z4.build_design.busy_s": "s",
    "z4.design_text.busy_s": "s",
    "z4.generator.busy_s": "s",
    "theory.analyze.self_s": "s",
    "theory.theory_spectrum.busy_s": "s",
    "theory.evaluate.calls_per_request": "count",
    "theory.periodic_extend.busy_s": "s",
    "jchar.summarize.busy_s": "s",
    "equations.build_system.busy_s": "s",
    "golden.verify_all.busy_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.{op}.p50_ms": "ms" for op in CLI_OPS},
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _candidates(args, kwargs):
    n, p = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "p")
    return comb(n + 4 ** p - 2, 4 ** p - 2)


def _butterflies(args, kwargs):
    *batch, size = _arg(args, kwargs, 0, "counts").shape
    return prod(batch) * (size.bit_length() - 1) * size // 2


#: work counted from a call's arguments, before it runs
_COUNTS = {"theory.search": _candidates, "jchar.walsh_hadamard": _butterflies}
#: calls whose peak traced memory is recorded
_MEMORY = {"jchar.spectrum_bruteforce"}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, request, extra]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.request = None

    def install(self) -> None:
        import qcode
        mods = {name: importlib.import_module(f"qcode.{name}")
                for name in TARGETS}
        holders = [qcode, *mods.values()]
        for mod_name, names in TARGETS.items():
            for name in names:
                label = f"{mod_name}.{name}"
                obj = getattr(mods[mod_name], name, None)
                if obj is None:
                    self.absent.append(label)
                elif isinstance(obj, type):
                    self._rebind(obj, "__init__",
                                 self._wrap(label, obj.__init__))
                else:
                    traced = self._wrap(label, obj)
                    for holder in holders:
                        if getattr(holder, name, None) is obj:
                            self._rebind(holder, name, traced)

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._undo):
            setattr(holder, name, obj)
        self._undo.clear()

    def _rebind(self, holder, name, new) -> None:
        self._undo.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, new)

    def span(self, name: str, extra=None):
        return _Span(self, name, extra)

    def _wrap(self, label, fn):
        count = _COUNTS.get(label)
        memory = label in _MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = count(args, kwargs) if count else None
            with self.span(label, extra) as sp:
                if not memory:
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sp.extra = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "fields": [
                "name", "start", "end", "parent", "request", "extra"],
                "spans": self.spans}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str, extra):
        self.tracer, self.name, self.extra = tracer, name, extra

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append([self.name, 0.0, 0.0,
                         tr._stack[-1] if tr._stack else None,
                         tr.request, None])
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        span = tr.spans[self.index]
        span[1], span[2], span[5] = self.start, end, self.extra
        return False


# ------------------------------------------------------------------ metrics

def layer_metrics(spans: list[list], requests: list[dict],
                  scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced round (everything but the trace
    overhead, which needs an untraced round to compare with). Every span
    time is multiplied by `scale`, the round's reference seconds per
    measured second (see speed.py)."""
    def dur(s):
        return (s[2] - s[1]) * scale

    def outermost(names):
        """Indices of spans in names that have no ancestor in names."""
        out = []
        for i, s in enumerate(spans):
            if s[0] in names and not _has_ancestor(spans, s, names):
                out.append(i)
        return out

    def busy(*names):
        return sum((dur(spans[i]) for i in outermost(set(names))), 0.0)

    def self_time(name):
        top = set(outermost({name}))
        return busy(name) - sum(dur(s) for s in spans if s[3] in top)

    def ratio(num, den):
        return num / den if den else 0.0

    searches = [spans[i] for i in outermost({"theory.search"})]
    reports = [s for s in spans if s[0] == "theory.analyze"
               and _has_ancestor(spans, s, {"theory.search"})]
    bf = [spans[i] for i in outermost({"jchar.spectrum_bruteforce"})]
    wht = [spans[i] for i in outermost({"jchar.walsh_hadamard"})]
    out = {
        "theory.search.busy_s": busy("theory.search"),
        "theory.search.candidates_per_s": ratio(
            sum(s[5] for s in searches), busy("theory.search")),
        "theory.search.report_s": sum((dur(s) for s in reports), 0.0),
        "jchar.spectrum_bruteforce.busy_s": busy("jchar.spectrum_bruteforce"),
        "jchar.spectrum_bruteforce.peak_mib": max(
            [s[5] for s in bf], default=0) / 2 ** 20,
        "jchar.wht.butterflies_per_s": ratio(
            sum(s[5] for s in wht), busy("jchar.walsh_hadamard")),
        "z4.build_design.busy_s": busy("z4.build_design"),
        "z4.design_text.busy_s": busy("z4.design_to_text",
                                      "z4.design_from_text"),
        "z4.generator.busy_s": busy("z4.GeneratorSpec", "z4.frequency_vector",
                                    "z4.load_generator"),
        "theory.analyze.self_s": self_time("theory.analyze"),
        "theory.theory_spectrum.busy_s": busy("theory.theory_spectrum"),
        "theory.evaluate.calls_per_request": ratio(
            sum(s[0] == "theory.evaluate" for s in spans), len(requests)),
        "theory.periodic_extend.busy_s": busy("theory.periodic_extend"),
        "jchar.summarize.busy_s": busy("jchar.summarize"),
        "equations.build_system.busy_s": busy("equations.build_system"),
        "golden.verify_all.busy_s": busy("golden.verify_all"),
        "cli.main.self_s": self_time("cli.main"),
    }
    for op in CLI_OPS:
        times = [dur(s) for s in spans if s[0] == "request"
                 and requests[s[4]]["op"] == op]
        out[f"cli.{op}.p50_ms"] = (1000 * statistics.median(times)
                                   if times else 0.0)
    return out


def _has_ancestor(spans, span, names) -> bool:
    parent = span[3]
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
