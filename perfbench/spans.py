"""Timing spans recorded from outside the program, and the per-layer
metrics derived from them.

`install` replaces each public function listed in LAYERS at every binding
inside the `rankone` package (so `rankone.runner.limit_scan` and
`rankone.diagnostics.limit_scan` both record), and the listed class methods
on their class. Private hot helpers such as `PairCounter.access` are left
alone: they run about 10^6 times per workload and a wrapper would dominate.
Spans stay in memory as [name, start, end, parent] lists and are written
out once, when the repetition ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List

# layer (the module name under rankone) -> public callables timed in it
LAYERS: Dict[str, tuple] = {
    "config": ("parse_config",),
    "construction": ("realize", "heights"),
    "words": ("stream_word",),
    "correlation": (
        "PairCounter.__init__",
        "PairCounter.counts",
        "lag_counts_naive",
        "lag_counts_block",
    ),
    "operators": ("classify_limit", "build_family", "predicted_matrix", "joining_matrix"),
    "diagnostics": (
        "limit_basis",
        "limit_scan",
        "rigidity_scan",
        "mixing_diagnostics",
        "cesaro_disjointness_probe",
        "triple_corr_probe",
    ),
    "flows": (
        "flow_segments",
        "FlowColumn.__init__",
        "FlowColumn.pair_counts",
        "flow_Pm_matrix",
        "flow_limit_check",
    ),
    "runner": ("run_plan",),
    "reports": ("report_to_json", "write_report"),
}

#: Roots of the timed region that run_s covers.
RUN_ROOTS = ("runner.run_plan", "reports.write_report")


def _count_breakpoints(tracer, args, out):
    tracer.count("flows.breakpoints", len(args[0].breaks))


def _count_halvings(tracer, args, out):
    tracer.count("flows.pm_halvings", out.halvings)


def _count_bytes(tracer, args, out):
    tracer.count("reports.bytes", sum(Path(p).stat().st_size for p in out))


# work counts read off a call's arguments or result, after the span ends
_HOOKS = {
    "flows.FlowColumn.__init__": _count_breakpoints,
    "flows.flow_Pm_matrix": _count_halvings,
    "reports.write_report": _count_bytes,
}


class Tracer:
    """Collects nested spans from one single-threaded repetition."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def wrap_stream(self, name: str, fn: Callable) -> Callable:
        """Time a generator function one next() at a time, counting symbols."""

        def traced(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                idx = self._enter(name)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                self.count("words.stream_symbols", len(chunk))
                yield chunk

        return traced


def install(tracer: Tracer, package: str = "rankone") -> None:
    """Wrap every LAYERS entry at each name the package's callers look up."""
    replace = {}  # id(original) -> (original, wrapper)
    for layer, names in LAYERS.items():
        mod = sys.modules[f"{package}.{layer}"]
        for name in names:
            span = f"{layer}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
                continue
            fn = getattr(mod, name)
            wrapper = (
                tracer.wrap_stream(span, fn)
                if name == "stream_word"
                else tracer.wrap(span, fn)
            )
            replace[id(fn)] = (fn, wrapper)
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# derived metrics

#: Layers whose self times partition the traced run_s.
RUN_LAYERS = (
    "construction",
    "words",
    "correlation",
    "operators",
    "diagnostics",
    "flows",
    "runner",
    "reports",
)


class SpanTree:
    """Durations, self times and roots of one repetition's spans."""

    def __init__(self, spans: List[list]):
        self.names = [s[0] for s in spans]
        self.parents = [int(s[3]) for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.self_time = list(self.dur)
        self.root: List[str] = []
        for i, p in enumerate(self.parents):
            # parents are recorded before their children
            if p >= 0:
                self.self_time[p] -= self.dur[i]
            self.root.append(self.names[i] if p < 0 else self.root[p])

    def _has_ancestor_in(self, i: int, names: Iterable[str]) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.parents[p]
        return False

    def busy(self, *names: str) -> float:
        """Wall time inside any of the named spans, nested repeats counted once."""
        return sum(
            self.dur[i]
            for i, n in enumerate(self.names)
            if n in names and not self._has_ancestor_in(i, names)
        )

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def self_of(self, name: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_time) if n == name)

    def layer_self(self, layer: str) -> float:
        """Self time of the layer's spans inside the run_s region."""
        return sum(
            t
            for n, t, r in zip(self.names, self.self_time, self.root)
            if n.split(".", 1)[0] == layer and r in RUN_ROOTS
        )


def layer_metrics(spans: List[list], counts: Dict[str, int], run_s: float) -> Dict[str, float]:
    """The per_layer metrics of BENCHMARK.json, except trace.overhead_s
    (which needs the untraced repetitions), for one traced repetition."""
    t = SpanTree(spans)
    stream_s = t.busy("words.stream_word")
    symbols = int(counts.get("words.stream_symbols", 0))
    m: Dict[str, float] = {
        "correlation.counts_calls": t.calls("correlation.PairCounter.counts"),
        "correlation.counts_s": t.busy("correlation.PairCounter.counts"),
        "correlation.counter_init_s": t.busy("correlation.PairCounter.__init__"),
        "words.stream_s": stream_s,
        "words.stream_symbols": symbols,
        "words.stream_msym_per_s": symbols / stream_s / 1e6 if stream_s > 0 else 0.0,
        "diagnostics.triple_self_s": t.self_of("diagnostics.triple_corr_probe"),
        "flows.sweeps": t.calls("flows.FlowColumn.pair_counts"),
        "flows.sweep_s": t.busy("flows.FlowColumn.pair_counts"),
        "flows.pm_s": t.busy("flows.flow_Pm_matrix"),
        "flows.pm_halvings": int(counts.get("flows.pm_halvings", 0)),
        "flows.limit_check_self_s": t.self_of("flows.flow_limit_check"),
        "flows.segments_s": t.busy("flows.flow_segments"),
        "flows.column_build_s": t.busy("flows.FlowColumn.__init__"),
        "flows.breakpoints": int(counts.get("flows.breakpoints", 0)),
        "operators.classify_calls": t.calls("operators.classify_limit"),
        "operators.classify_s": t.busy("operators.classify_limit"),
        "operators.family_s": t.busy(
            "operators.build_family", "operators.predicted_matrix", "operators.joining_matrix"
        ),
        "diagnostics.limit_basis_s": t.busy("diagnostics.limit_basis"),
        "diagnostics.limit_scan_self_s": t.self_of("diagnostics.limit_scan"),
        "diagnostics.rigidity_self_s": t.self_of("diagnostics.rigidity_scan"),
        "diagnostics.mixing_self_s": t.self_of("diagnostics.mixing_diagnostics"),
        "diagnostics.disjointness_self_s": t.self_of("diagnostics.cesaro_disjointness_probe"),
        "reports.write_s": t.busy("reports.write_report"),
        "reports.bytes": int(counts.get("reports.bytes", 0)),
        "config.parse_s": t.busy("config.parse_config"),
        "construction.realize_s": t.busy("construction.realize"),
        "trace.run_s": run_s,
    }
    for layer in RUN_LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    return m
