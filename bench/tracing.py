"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: ``instrument`` replaces the
public functions listed in ``TRACED`` by wrappers in every loaded
``codelat`` module that binds them, so calls the benchmark makes, and the
calls one layer makes into another through those names, each open a span.
A span keeps its name, start, end, parent, work counts and, for the
geometry scans, the tracemalloc peak above its starting level.  Spans stay
in memory until the pass ends; ``aggregate`` turns them into per-function
self time, totals and counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# Public functions wrapped in the traced run, by module.
TRACED = {
    "catalog": ("golay24", "leech_main_code"),
    "gf2": ("enumerate_from_generator", "parse_code_text", "min_hamming_distance"),
    "constructions": (
        "construction_a",
        "construction_c",
        "construction_d",
        "construction_cstar",
        "product_main_code",
        "projection_codes",
        "antiprojection",
    ),
    "latticeness": (
        "thm5_check",
        "brute_closure_oracle",
        "thm4_check",
        "thm1_check",
        "thm4_check_leech",
    ),
    "geometry": (
        "dmin_oracle",
        "equi_min_distance_check",
        "eds_check",
        "distance_spectrum",
        "dmin_to_zero",
        "dmin_to_zero_structured",
    ),
    "packing": ("packing_report_from_counts",),
    "ensembles": ("condition_checks", "gvb_maximize", "sample_main_code"),
}

CLI_COMMANDS = ("construct", "check", "table1", "gvb", "leech", "conditions")


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


# Work counts taken at the span boundary from the call's arguments or result.
# "computed" counts are derived from input sizes, not counted by the program.
COUNTERS = {
    "gf2.enumerate_from_generator": lambda args, res: {"words": len(res)},
    "gf2.min_hamming_distance": lambda args, res: {
        "pairs": 0 if args[0].linear else _pairs(len(args[0]))
    },
    "constructions.projection_codes": lambda args, res: {
        "reps": sum(len(c) for c in res)
    },
    "latticeness.thm5_check": lambda args, res: {"pairs": res.pairs_scanned},
    "latticeness.brute_closure_oracle": lambda args, res: {"pairs": res.pairs_scanned},
    "latticeness.thm4_check_leech": lambda args, res: {"pairs": res.pairs_scanned},
    "geometry.dmin_oracle": lambda args, res: {"pairs": _pairs(len(args[0]))},
}
for _name in TRACED["constructions"]:
    COUNTERS.setdefault(f"constructions.{_name}", lambda args, res: {"reps": len(res)})


def _per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = [("cli.import.s", "s")] + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    spec += [("catalog.golay24.s", "s"), ("catalog.leech_main_code.s", "s")]
    spec += [
        ("gf2.enumerate_from_generator.s", "s"),
        ("gf2.enumerate_from_generator.words", "count"),
        ("gf2.enumerate_from_generator.words_per_s", "1/s"),
        ("gf2.parse_code_text.s", "s"),
        ("gf2.min_hamming_distance.s", "s"),
        ("gf2.min_hamming_distance.pairs", "count_computed"),
    ]
    for name in TRACED["constructions"]:
        spec += [(f"constructions.{name}.s", "s"), (f"constructions.{name}.reps", "count")]
    spec += [
        ("latticeness.thm5_check.s", "s"),
        ("latticeness.thm5_check.pairs", "count"),
        ("latticeness.thm5_check.pairs_per_s", "1/s"),
        ("latticeness.brute_closure_oracle.s", "s"),
        ("latticeness.brute_closure_oracle.pairs", "count"),
        ("latticeness.thm4_check.s", "s"),
        ("latticeness.thm1_check.s", "s"),
        ("latticeness.thm4_check_leech.s", "s"),
        ("latticeness.thm4_check_leech.pairs", "count"),
    ]
    for name in TRACED["geometry"][:5]:
        spec += [(f"geometry.{name}.s", "s"), (f"geometry.{name}.bytes_peak", "bytes")]
    spec += [
        ("geometry.dmin_oracle.pairs", "count_computed"),
        ("geometry.dmin_oracle.pairs_per_s", "1/s"),
        ("geometry.dmin_to_zero_structured.s", "s"),
        ("packing.packing_report_from_counts.s", "s"),
    ]
    spec += [(f"ensembles.{name}.s", "s") for name in TRACED["ensembles"]]
    spec.append(("trace.overhead_s", "s"))
    return spec


PER_LAYER = _per_layer_spec()


# tracemalloc runs only inside these spans: it slows Python allocation
# several-fold, which would distort the self time of the other layers.
BYTES_PEAK = {f"geometry.{name}" for name in TRACED["geometry"][:5]}


class _Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "base", "peak", "owns_tracing")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.counts: dict = {}
        self.start = self.end = 0.0
        self.base = self.peak = None  # traced bytes at open, and the peak since
        self.owns_tracing = False

    @property
    def bytes_peak(self) -> int | None:
        return None if self.base is None else self.peak - self.base


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[int] = []
        self.active = True

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        span = _Span(name, None)
        span.start, span.end = start, end
        self.spans.append(span)

    def _parent(self) -> _Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def open(self, name: str) -> _Span:
        span = _Span(name, self.stack[-1] if self.stack else None)
        if name in BYTES_PEAK and not tracemalloc.is_tracing():
            tracemalloc.start()
            span.owns_tracing = True
        if tracemalloc.is_tracing():
            cur, peak = tracemalloc.get_traced_memory()
            parent = self._parent()
            if parent is not None and parent.base is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = cur
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: _Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.base is not None:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            parent = self._parent()
            if parent is not None and parent.base is not None:
                parent.peak = max(parent.peak, span.peak)
            if span.owns_tracing:
                tracemalloc.stop()
            else:
                tracemalloc.reset_peak()

    def call(self, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, counts, bytes_peak."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            total = span.end - span.start
            entry = stats.setdefault(
                span.name, {"calls": 0, "total": 0.0, "self": 0.0, "bytes_peak": 0}
            )
            entry["calls"] += 1
            entry["total"] += total
            entry["self"] += total - child_time[idx]
            if span.bytes_peak is not None:
                entry["bytes_peak"] = max(entry["bytes_peak"], span.bytes_peak)
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return stats

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for idx, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "counts": span.counts,
                            "bytes_peak": span.bytes_peak,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever a loaded codelat module binds it."""
    modules = [m for k, m in sys.modules.items() if k == "codelat" or k.startswith("codelat.")]
    for module_name, names in TRACED.items():
        home = sys.modules[f"codelat.{module_name}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = _wrap(tracer, f"{module_name}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def per_layer_metrics(stats: dict[str, dict], overhead_s: float) -> dict:
    """Every PER_LAYER metric from aggregated stats; unexercised ones read 0."""
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_s":
            value = overhead_s
        else:
            func, stat = metric.rsplit(".", 1)
            entry = stats.get(func, {})
            if stat == "s":
                value = entry.get("self", 0.0)
            elif stat.endswith("_per_s"):
                total = entry.get("total", 0.0)
                count = entry.get(stat[: -len("_per_s")], 0)
                value = count / total if total > 0 else 0.0
            else:
                value = entry.get(stat, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
