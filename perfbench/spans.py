"""Spans recorded on the benchmark's side of each call into homsim.

A span is a dict with an id, the id of the span that caused it (None at
the top), a name such as "correlate.cross_correlate", the workload round
it belongs to, perf_counter start and end times, and optional data taken
from the call's result (a count). Spans stay in memory and are written
out once, when the run ends. perf_counter is CLOCK_MONOTONIC on Linux,
so spans written by a subprocess line up with the parent's.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

COUNTERS = (
    "photons_emitted",
    "photons_detected",
    "dark_counts",
    "dead_time_pruned",
    "pairs_interfered",
    "tags_written",
)

# What a span keeps from its call's result, by span name.
NOTES = {
    "simulate.run_simulation": lambda res, *args: dict(
        {k: getattr(res[1], k) for k in COUNTERS}, pulses=args[4].n_pulses
    ),
    "correlate.cross_correlate": lambda res, *args: {"pair_deltas": int(res.total_pairs)},
    "fitting.fit_biexp_irf": lambda res, *args: {"n_iter": int(res.n_iter)},
}


class Tracer:
    """Records nested spans; untraced runs use NullTracer instead."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "round": self.round,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span, keeping what NOTES names."""
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        if name in NOTES:
            record["data"] = NOTES[name](result, *args)
        return result

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a traced wrapper, for code that calls it."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(owner, attr, traced)

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Add spans written by a subprocess below one of this tracer's spans."""
        base = len(self.spans)
        for s in spans:
            s = dict(s, id=base + s["id"], round=parent["round"])
            s["parent"] = parent["id"] if s["parent"] is None else base + s["parent"]
            self.spans.append(s)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """The untraced stand-in: calls go straight through."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield {}

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per round, the summed self time of each span name.

    A span's self time is its duration minus the part of it that its
    direct children cover.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        inside = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        ]
        busy = _covered([iv for iv in inside if iv[1] > iv[0]])
        out[s["round"]][s["name"]] += s["end"] - s["start"] - busy
    return out
