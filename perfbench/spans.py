"""Spans and counters recorded from outside the program.

The benchmark never edits ``repro``: it wraps the public entry point of
each layer for the duration of one traced job and restores it afterwards.
Boundaries that are crossed a few thousand times per job get a span
(name, layer, start, end, parent, job id); calls that are crossed
millions of times (``mutual_info``, ``compatible``) only bump a counter.

Layers, as in ROADMAP.md: ``scan`` (``LocalPLIEngine.from_spark``),
``entropy`` (``LocalPLIEngine.partition`` misses and
``entropy_from_group_sizes``), ``search`` (one span per attribute pair,
``reduce_min_sep``, ``get_full_mvds``, ``minimal_transversals``),
``asminer`` (``enumerate_schemas``, ``build_acyclic_schema``,
``build_join_tree``) and ``quality`` (``spurious_pct``,
``cell_savings_pct``). Entropy memo hits are plain dict lookups made from
search code and are not spanned, so they count as search self time.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import repro.core.miner as miner_mod
import repro.core.schema_miner as asminer_mod
import repro.entropy.local_pli as local_pli_mod

_now = time.perf_counter


class Tracer:
    """In-memory span log of one benchmark run; written out at the end."""

    def __init__(self) -> None:
        # [span_id, parent_id, layer, name, start, end, job_id]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.job_id = ""

    def begin(self, layer: str, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, layer, name, _now(), None, self.job_id])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        sid = self.begin(layer, name)
        try:
            yield
        finally:
            self.end(sid)

    def job_spans(self, job_id: str) -> list[list]:
        return [s for s in self.spans if s[6] == job_id]

    def write(self, path: str) -> None:
        keys = ("span_id", "parent", "layer", "name", "start", "end", "job_id")
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


class NullTracer:
    """Stand-in for untraced jobs: spans cost one call and record nothing."""

    job_id = ""

    def span(self, layer: str, name: str):
        return contextlib.nullcontext()


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer not covered by a child span (any layer)."""
    child_total: dict[int, float] = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _, layer, _, start, end, _ in spans:
        out[layer] += (end - start) - child_total[sid]
    return out


def span_seconds(spans: list[list], layer: str, name: str) -> tuple[float, int]:
    """Total duration and count of spans with this layer and name."""
    total, n = 0.0, 0
    for _, _, lay, nm, start, end, _ in spans:
        if lay == layer and nm == name:
            total += end - start
            n += 1
    return total, n


def _spanned(tr: Tracer, layer: str, name: str, fn):
    def wrapper(*args, **kwargs):
        sid = tr.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(sid)

    return wrapper


def _counted(tr: Tracer, key: str, fn):
    counters = tr.counters

    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def instrument_engine(tr: Tracer, engine) -> None:
    """Span the outermost ``partition`` call of each entropy miss and
    count ``mutual_info`` calls, on this engine instance only."""
    partition = engine.partition
    depth = [0]

    def outer_partition(cols):
        if depth[0]:
            return partition(cols)
        depth[0] = 1
        sid = tr.begin("entropy", "partition")
        try:
            return partition(cols)
        finally:
            tr.end(sid)
            depth[0] = 0

    engine.partition = outer_partition
    engine.mutual_info = _counted(tr, "mutual_info", engine.mutual_info)


def instrument_miner(tr: Tracer, miner) -> None:
    """Span the search entry points of one miner instance."""
    miner.separates = _counted(tr, "separator_tests", miner.separates)
    miner.reduce_min_sep = _spanned(tr, "search", "reduce_min_sep", miner.reduce_min_sep)
    miner.get_full_mvds = _spanned(tr, "search", "get_full_mvds", miner.get_full_mvds)


@contextlib.contextmanager
def module_hooks(tr: Tracer):
    """Wrap the module-level functions the layers call, then restore them."""

    def counted_mis(n, adj):
        for q in mis(n, adj):
            tr.counters["mis_enumerated"] += 1
            yield q

    def counted_transversals(sets):
        tr.counters["transversal_calls"] += 1
        return transversals(sets)

    mis = asminer_mod.maximal_independent_sets
    transversals = miner_mod.minimal_transversals
    patches = [
        (local_pli_mod, "entropy_from_group_sizes",
         _spanned(tr, "entropy", "reduce", local_pli_mod.entropy_from_group_sizes)),
        (miner_mod, "minimal_transversals",
         _spanned(tr, "search", "transversal", counted_transversals)),
        (asminer_mod, "compatible", _counted(tr, "compat_tests", asminer_mod.compatible)),
        (asminer_mod, "maximal_independent_sets", counted_mis),
        (asminer_mod, "build_acyclic_schema",
         _spanned(tr, "asminer", "build", asminer_mod.build_acyclic_schema)),
        (asminer_mod, "build_join_tree",
         _spanned(tr, "asminer", "build", asminer_mod.build_join_tree)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
