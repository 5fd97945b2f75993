"""Outside-in layer tracing: wrappers the benchmark installs around the
public functions each layer exposes, with no edit to the program.

A *span* records ``[name, start_ns, end_ns, parent, op, thread]``; spans
stay in memory and are written once, at the end, as Chrome trace-event
JSON (Perfetto and ``chrome://tracing`` open it).  Calls too hot for a span
per call (EMI scoring, ``merge_cost``) are folded into per-op counters
instead.  The wrappers are swapped in by :meth:`Tracer.begin` and the
originals restored by :meth:`Tracer.end`, so an untraced op in the same
process runs the program untouched and one process can interleave traced
and untraced ops to measure the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time

#: The six pipeline stages, in order (``repro.core.discovery.STAGES``).
STAGES = ("tuple_clustering", "value_clustering", "attribute_grouping",
          "mining", "cover", "rank")

#: Span name -> per-layer metric (inclusive ms of the outermost such spans).
SPAN_METRICS = {
    "relation.load_csv": "relation.load_csv_ms",
    "relation.views": "relation.views_ms",
    "relation.append": "relation.append_ms",
    "clustering.phase1": "clustering.phase1_ms",
    "clustering.phase2": "clustering.phase2_ms",
    "clustering.phase3": "clustering.phase3_ms",
    "clustering.merge_scan": "clustering.merge_cost_ms",
    "fd.fdep": "fd.fdep_ms",
    "fd.tane": "fd.tane_ms",
    "fd.cover": "fd.cover_ms",
    "fd.reliable": "fd.reliable_ms",
    "core.run": "core.run_ms",
    "core.to_json": "core.to_json_ms",
    "core.summary": "core.summary_ms",
    "checkpoint.save": "checkpoint.save_ms",
    **{f"core.stage.{stage}": f"core.{stage}_ms" for stage in STAGES},
}


class Tracer:
    """In-memory span recorder plus per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = {}
        self.op = None
        self._local = threading.local()
        self._wrappers: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def begin(self, op) -> None:
        """Start tracing op ``op``: swap every registered wrapper in."""
        self.op = op
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def end(self) -> None:
        """Stop tracing: put the program's own functions back."""
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)
        self.op = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None,
                           stack[-1] if stack else None, self.op,
                           threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str, value) -> None:
        bucket = self.counters.setdefault(self.op, {})
        bucket[name] = bucket.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------------

    def _register(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        functools.update_wrapper(wrapper, original)
        self._wrappers.append((owner, attr, original, wrapper))

    def span(self, owner, attr: str, name, before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's positional
        arguments.  ``before(args, kwargs)`` may rewrite the call and returns
        ``(args, kwargs, context)``; ``after(tracer, args, result, context)``
        records counters once the call returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            context = None
            if before is not None:
                args, kwargs, context = before(args, kwargs)
            index = tracer.open(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result, context)
            return result

        self._register(owner, attr, wrapper)

    def hot(self, owner, attr: str, name: str, timed: bool) -> None:
        """Fold calls of ``owner.attr`` into ``<name>_calls`` (and ``_ns``)."""
        original = getattr(owner, attr)
        count = self.count
        clock = time.perf_counter_ns
        calls = name + "_calls"

        if timed:
            elapsed = name + "_ns"

            def wrapper(*args, **kwargs):
                start = clock()
                result = original(*args, **kwargs)
                count(elapsed, clock() - start)
                count(calls, 1)
                return result
        else:
            def wrapper(*args, **kwargs):
                count(calls, 1)
                return original(*args, **kwargs)

        self._register(owner, attr, wrapper)

    # -- output ------------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counters": {str(op): c for op, c in self.counters.items()}}


def install_layers(tracer: Tracer) -> None:
    """Register wrappers for the functions each layer of the program
    exposes; :meth:`Tracer.begin` swaps them in."""
    import repro.checkpoint.store as store
    import repro.clustering.limbo as limbo
    import repro.core.attribute_grouping as attribute_grouping
    import repro.core.discovery as discovery
    import repro.core.tuple_clustering as tuple_clustering
    import repro.core.value_clustering as value_clustering
    import repro.fd.reliable as reliable
    import repro.relation as relation
    import repro.relation.columns as columns
    import repro.service.app as app

    # repro.relation
    tracer.span(relation, "load_csv", "relation.load_csv")
    tracer.span(tuple_clustering, "build_tuple_view", "relation.views")
    tracer.span(value_clustering, "build_tuple_view", "relation.views")
    tracer.span(value_clustering, "build_value_view", "relation.views")
    tracer.span(columns.ColumnStore, "append_rows", "relation.append")

    # repro.clustering + repro.kernels
    def leaves(tracer, args, result, context):
        tracer.count("clustering.leaves", len(result.summaries))

    tracer.span(limbo.Limbo, "fit", "clustering.phase1", after=leaves)
    tracer.span(limbo.Limbo, "merge_sequence", "clustering.phase2")
    tracer.span(attribute_grouping, "aib", "clustering.phase2")
    tracer.span(limbo.Limbo, "assign", "clustering.phase3")
    tracer.span(app._Assigner, "_closest", "clustering.merge_scan")
    tracer.hot(app, "merge_cost", "clustering.merge_cost", timed=False)

    # repro.fd
    def with_stats(args, kwargs):
        if kwargs.get("stats") is None:
            kwargs = dict(kwargs, stats=reliable.ReliableMiningStats())
        return args, kwargs, kwargs["stats"]

    def mining_counts(tracer, args, result, stats):
        tracer.count("fd.nodes_visited", stats.nodes_visited)
        tracer.count("fd.partitions_computed", stats.partitions_computed)
        tracer.count("fd.subtrees_pruned", stats.subtrees_pruned)

    tracer.span(discovery, "fdep", "fd.fdep")
    tracer.span(discovery, "tane", "fd.tane")
    tracer.span(discovery, "minimum_cover", "fd.cover")
    tracer.span(discovery, "mine_reliable_fds", "fd.reliable",
                before=with_stats, after=mining_counts)
    tracer.hot(reliable, "expected_mutual_information", "fd.emi", timed=True)

    # repro.core
    def degraded(tracer, args, report, context):
        tracer.count("core.degraded_stages",
                     sum(1 for o in report.outcomes if not o.ok))

    tracer.span(discovery.StructureDiscovery, "run", "core.run",
                after=degraded)
    tracer.span(discovery.StructureDiscovery, "_checkpointed",
                lambda args: f"core.stage.{args[1]}")
    tracer.span(discovery.DiscoveryReport, "to_json", "core.to_json")
    tracer.span(discovery.DiscoveryReport, "summary", "core.summary")

    # repro.checkpoint
    def save_counts(tracer, args, written, context):
        tracer.count("checkpoint.saves", 1)
        tracer.count("checkpoint.bytes", written or 0)

    tracer.span(store.CheckpointStore, "save_named", "checkpoint.save",
                after=save_counts)


def install_service(tracer: Tracer) -> None:
    """Wrap ``DiscoveryApp.handle`` for good: one span per traced request.

    A request opts into tracing with the query parameters ``pb_op`` (its id
    in the benchmark's sequence) and ``pb_trace`` (``1`` traced, ``0`` not);
    both are removed before the program sees the query.  Requests without
    them (readiness probes, drain) are never traced.
    """
    from repro import kernels
    from repro.service.app import DiscoveryApp

    original = DiscoveryApp.handle

    def handle(self, method, path, query=None, body=None, budget=None):
        query = dict(query or {})
        op = query.pop("pb_op", None)
        traced = query.pop("pb_trace", None) == "1"
        if op is None or not traced:
            return original(self, method, path, query, body, budget)
        parts = [part for part in path.split("/") if part]
        route = parts[2] if len(parts) == 3 else "relation"
        packed = kernels.pack_seconds()
        tracer.begin(op)
        index = tracer.open(f"service.handle.{route}")
        try:
            return original(self, method, path, query, body, budget)
        finally:
            tracer.close(index)
            tracer.count("kernels.pack_ms",
                         (kernels.pack_seconds() - packed) * 1000.0)
            tracer.end()

    functools.update_wrapper(handle, original)
    DiscoveryApp.handle = handle


# -- analysis --------------------------------------------------------------------


def op_layers(spans: list, counters: dict) -> tuple[dict, bool]:
    """Per-layer values of one op, and whether its stage spans add up.

    Each span metric is the inclusive time of the outermost spans of that
    name (a span nested in a same-named span is not counted twice).
    ``core.driver_self_ms`` is the self time of ``core.run``: its duration
    minus the six stage spans it encloses.  The returned flag is false if
    any ``core.run`` encloses anything but exactly the six stages.
    """
    values: dict = {}
    children: dict = {}
    for position, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(spans[position])

    def has_same_named_ancestor(span) -> bool:
        parent = span[3]
        while parent is not None:
            if spans[parent][0] == span[0]:
                return True
            parent = spans[parent][3]
        return False

    stages_add_up = True
    for position, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        if end is None:
            continue
        ms = (end - start) / 1e6
        metric = SPAN_METRICS.get(name)
        if name.startswith("service.handle."):
            metric = "service.handle_ms." + name.rsplit(".", 1)[1]
        if metric is not None and not has_same_named_ancestor(span):
            values[metric] = values.get(metric, 0.0) + ms
        if name == "core.run":
            kids = children.get(position, [])
            covered = sum((k[2] - k[1]) / 1e6 for k in kids)
            values["core.driver_self_ms"] = (
                values.get("core.driver_self_ms", 0.0) + ms - covered)
            names = sorted(k[0] for k in kids)
            stages_add_up &= names == sorted(f"core.stage.{s}"
                                             for s in STAGES)
    for name, value in counters.items():
        if name == "fd.emi_ns":
            values["fd.emi_ms"] = value / 1e6
        else:
            values[name] = value
    nodes = values.get("fd.nodes_visited", 0)
    values["fd.emi_per_node"] = (values.get("fd.emi_calls", 0) / nodes
                                 if nodes else 0.0)
    return values, stages_add_up


def spans_by_op(spans: list) -> dict:
    """Group spans by op id, re-indexing parents within each op."""
    groups: dict = {}
    remap: dict = {}
    for position, span in enumerate(spans):
        op = span[4]
        group = groups.setdefault(op, [])
        remap[position] = (op, len(group))
        parent = span[3]
        local_parent = None
        if parent is not None and remap.get(parent, (None,))[0] == op:
            local_parent = remap[parent][1]
        group.append([span[0], span[1], span[2], local_parent, op, span[5]])
    return groups


def mean_layers(per_op: list[dict]) -> dict:
    """Mean of each per-layer value over ops (absent counts as 0)."""
    if not per_op:
        return {}
    names = set().union(*per_op)
    return {name: sum(v.get(name, 0.0) for v in per_op) / len(per_op)
            for name in names}


def overhead_pct(traced_ms: list[float], untraced_ms: list[float]) -> float:
    """Tracing overhead: traced median over untraced median, in percent."""
    if not traced_ms or not untraced_ms:
        return 0.0
    return (statistics.median(traced_ms) / statistics.median(untraced_ms)
            - 1.0) * 100.0


def write_chrome_trace(path, spans: list, pid: int | None = None) -> None:
    """Write spans as Chrome trace-event JSON (complete ``X`` events)."""
    pid = os.getpid() if pid is None else pid
    events = [
        {"name": name, "cat": name.split(".")[0], "ph": "X",
         "ts": start / 1000.0, "dur": (end - start) / 1000.0,
         "pid": pid, "tid": tid,
         "args": {"op": str(op), "parent": parent}}
        for name, start, end, parent, op, tid in spans if end is not None
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
