"""Spans around the layer entry points, recorded from the benchmark's side.

The program has no spans of its own yet, so the traced run wraps each
layer's public entry point (list in :data:`LAYERS`) in a span recorder:
every call records ``(id, name, start, end, parent)`` in memory plus the
counts its result carries, and the run writes the spans out at the end.
A layer's *self time* is its spans' durations minus the part of each
interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Dict[str, object]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = {
            "id": span_id,
            "name": name,
            "parent": stack[-1] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        stack.append(span_id)
        return span

    def end(self, span: Dict[str, object]) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, name: str, function: Callable, counts: Optional[Callable] = None) -> Callable:
        """``function`` recorded as span ``name``; ``counts(result)`` adds counts."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if counts is not None:
                    span["counts"] = counts(result)
                return result

        return traced


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[str, float]:
    """Per span name: summed duration minus the time children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = _union_length(
            [(max(start, s), min(end, e)) for s, e in children.get(span["id"], []) if min(end, e) > max(start, s)]
        )
        totals[span["name"]] = totals.get(span["name"], 0.0) + (end - start) - covered
    return totals


def count_totals(spans: Sequence[Mapping]) -> Dict[str, Dict[str, float]]:
    """Per span name: number of spans and summed counts."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"spans": 0})
        entry["spans"] += 1
        for key, value in span["counts"].items():
            entry[key] = entry.get(key, 0) + value
    return totals


# -- layer entry points -------------------------------------------------------


def _ostr_counts(result) -> Dict[str, int]:
    stats = result.stats
    return {
        "investigated": stats.investigated,
        "unique_joins": stats.unique_joins,
        "node_limit_hits": int(stats.node_limit_hit),
    }


def _logic_counts(cover) -> Dict[str, int]:
    return {"terms": cover.n_rows}


def _faults_counts(report) -> Dict[str, int]:
    from repro.faults.engine import campaign_telemetry

    telemetry = campaign_telemetry()
    collapse = telemetry.get("collapse") or {}
    return {
        "universe": report.total,
        "scheduled": int(collapse.get("scheduled", report.total)),
        "detected": report.detected,
        "dropped": int(telemetry.get("dropped") or 0),
    }


#: (span name, defining module, class or None, attribute, counts)
LAYERS = (
    ("fsm.build", "repro.suite.corpus", "CorpusMember", "build", None),
    ("ostr.search", "repro.ostr.search", None, "search_ostr", _ostr_counts),
    ("encoding.encode", "repro.encoding.encoded", None, "encode_realization", None),
    ("logic.minimize", "repro.logic.synth", None, "synthesize_table", _logic_counts),
    ("netlist.build", "repro.netlist.build", None, "cover_to_netlist", None),
    ("netlist.compile", "repro.netlist.netlist", "Netlist", "compile", None),
    ("bist.verify", "repro.bist.architectures", None, "build_pipeline", None),
    ("faults.campaign", "repro.faults.coverage", None, "measure_coverage", _faults_counts),
    ("analysis.static", "repro.suite.sweep", None, "_static_block", None),
    ("suite.member", "repro.suite.sweep", None, "sweep_member", None),
)


def _traced_compile(tracer: Tracer, original: Callable) -> Callable:
    """``Netlist.compile`` caches its result and is called on every
    evaluation; only calls that actually compile get a span."""

    @functools.wraps(original)
    def compile_netlist(self):
        if self._compiled is not None:
            return self._compiled
        with tracer.span("netlist.compile"):
            return original(self)

    return compile_netlist


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`LAYERS` in ``tracer`` spans.

    Functions are replaced in every loaded ``repro`` module that bound
    them (``from x import f`` makes copies of the reference), methods on
    their class.
    """
    import importlib

    for name, module_name, class_name, attribute, counts in LAYERS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            original = getattr(owner, attribute)
            if attribute == "compile":
                wrapped = _traced_compile(tracer, original)
            else:
                wrapped = tracer.wrap(name, original, counts)
            setattr(owner, attribute, wrapped)
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(name, original, counts)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
