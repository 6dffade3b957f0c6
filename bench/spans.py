"""In-memory spans recorded around calls into the library's public functions.

A span is (id, name, start_ns, end_ns, parent id, workload).  Root spans (a
set-up, a load, a round, a drain) have parent -1 and carry the speed-probe
factor measured around them (see clock.py), which applies to their children
too.  A disabled tracer still runs the call through `call`, so traced and
untraced code paths differ only in the bookkeeping.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[tuple[int, str, int, int, int, str]] = []
        self.scales: dict[int, float] = {}
        self._parent = -1
        self._next_id = 0

    def call(self, name: str, fn, *args):
        """Run `fn(*args)`; when enabled, record it as a child of the open root."""
        if not self.enabled:
            return fn(*args)
        t0 = perf_counter_ns()
        out = fn(*args)
        self.record(name, t0, perf_counter_ns())
        return out

    def record(self, name: str, t0: int, t1: int) -> None:
        """Add a span timed by the caller as a child of the open root."""
        if not self.enabled:
            return
        self.spans.append((self._next_id, name, t0, t1, self._parent, self.workload))
        self._next_id += 1

    def open(self, name: str) -> int:
        """Start a root span; returns a handle for `close`."""
        if not self.enabled:
            return -1
        self._parent = -1
        self.record(name, perf_counter_ns(), 0)
        self._parent = self._next_id - 1
        return len(self.spans) - 1

    def close(self, handle: int, end_ns: int, scale: float) -> None:
        if handle < 0:
            return
        sid, name, t0, _, _, wl = self.spans[handle]
        self.spans[handle] = (sid, name, t0, end_ns, -1, wl)
        self.scales[sid] = scale
        self._parent = -1


def roots(spans, scales) -> dict[int, tuple[str, float, float]]:
    """Root span id -> (kind, speed factor, duration in s); `scales` may have
    string keys (after a JSON round trip)."""
    sc = {int(k): v for k, v in scales.items()}
    return {s[0]: (s[1], sc[s[0]], (s[3] - s[2]) / 1e9) for s in spans if s[4] < 0}


def self_times(spans, scales) -> dict[str, dict[str, list[float]]]:
    """Per root span kind and layer, the self time (s) within each root span,
    at reference speed.

    A layer is the part of a span name before the first dot; a root span's
    own self time is filed under the layer `bench` (harness glue).  Children
    of one root never overlap, so self time is duration minus their sum.
    """
    top = roots(spans, scales)
    per_root: dict[int, dict[str, float]] = {sid: defaultdict(float) for sid in top}
    for sid, name, t0, t1, parent, _ in spans:
        if parent < 0:
            continue
        dur = (t1 - t0) / 1e9
        per_root[parent][name.split(".", 1)[0]] += dur
        per_root[parent]["bench"] -= dur
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for sid, (kind, scale, dur) in top.items():
        layers = per_root[sid]
        layers["bench"] += dur
        for layer, secs in layers.items():
            out[kind][layer].append(secs * scale)
    return out
