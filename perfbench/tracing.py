"""Spans and counters recorded by the benchmark around calls into each layer.

A span has a name, a start, an end, the span open when it began (its parent)
and the id of the op it belongs to.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its children cover; spans
never overlap within one thread, so that is the sum of the children's
durations.
"""

import json
import statistics
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


def no_span(name: str):
    """Stand-in for Tracer.span in untraced runs."""
    return _NULL


class Span:
    __slots__ = ("tracer", "id", "name", "start", "end", "parent", "op")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        self.parent = t._open[-1].id if t._open else None
        self.op = t.op
        t.spans.append(self)
        t._open.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter()
        self.tracer._open.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op = None
        self._open: list[Span] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.spans)

    def by_op(self, name: str) -> dict:
        out: dict = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                out[s.op] += s.duration
        return out

    def summary(self) -> dict:
        """Per span name: count, total and self time."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child_time[s.id]
        return out

    def dump(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans],
            "summary": self.summary(),
            "counts": dict(self.counts),
        }


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics this tracer has the spans and counts for.

    Times are summed over the ops the tracer saw (one cycle of a workload).
    """
    m = {}
    c = t.counts
    for metric, span in (
        ("dsl.parse_s", "dsl.parse"),
        ("dsl.emit_s", "dsl.emit"),
        ("scenarios.count_s", "scenarios.count"),
        ("scenarios.universe_s", "scenarios.universe"),
        ("worlds.answers_s", "worlds.answers"),
        ("worlds.filter_s", "worlds.filter"),
        ("engine.run_s", "engine.run"),
        ("engine.sweep_s", "engine.sweep"),
        ("engine.profiles_s", "engine.profiles"),
        ("engine.profile_universe_s", "engine.profile_universe"),
    ):
        if t.has(span):
            m[metric] = t.total(span)
    if t.has("scenarios.generate"):
        m["scenarios.gen_worlds_per_s"] = c["scenarios.generated"] / t.total("scenarios.generate")
    if c["scenarios.gen_passes"]:
        m["scenarios.gen_passes"] = c["scenarios.gen_passes"]
        m["scenarios.worlds_streamed"] = c["scenarios.worlds_streamed"]
        m["engine.stream_pass_s"] = t.total("engine.run") / c["scenarios.gen_passes"]
    if t.has("worlds.answers"):
        m["worlds.keys"] = c["worlds.keys"]
    if t.has("worlds.filter"):
        m["worlds.states_filtered"] = c["worlds.states_filtered"]
    if t.has("engine.run"):
        universe, filters = t.by_op("scenarios.universe"), t.by_op("worlds.filter")
        m["engine.loop_s"] = sum(
            run - universe.get(op, 0.0) - filters.get(op, 0.0)
            for op, run in t.by_op("engine.run").items()
        )
    if c["engine.cells"]:
        m["engine.cells"] = c["engine.cells"]
        m["engine.worlds_per_cell"] = c["engine.sweep_worlds"] / c["engine.cells"]
    if t.samples["engine.sweep_over_run"]:
        m["engine.sweep_over_run"] = statistics.median(t.samples["engine.sweep_over_run"])
    if t.has("engine.profiles"):
        m["engine.profile_pairs"] = c["engine.profile_pairs"]
        m["engine.profile_worlds_per_s"] = c["engine.profile_worlds"] / t.total("engine.profiles")
    for name in ("cli.verify_s", "cli.verify_threads2_s"):
        if t.samples[name]:
            m[name] = statistics.median(t.samples[name])
    return m


def write_trace(path, passes: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({name: t.dump() for name, t in passes.items()}, fh)
