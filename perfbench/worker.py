"""One fresh process of a batch workload.

Imports the program and ingests the CSV once (the set-up the runner times
up to ``READY``), then runs its share of the run's fixed op count.  One op
is ``load_csv`` -> ``StructureDiscovery(**params).run`` ->
``report.to_json()``; every op re-ingests the CSV so no state cached on a
``Relation`` carries over.  Each op's report must match the expected
digest (the stored one, else the first op's) with every stage ``ok``; a
mismatch is a failed op, kept out of the latency samples.  With
``--audit`` the last report is certified by ``repro.audit.Auditor``
outside the timed region.

With ``--trace PATH`` the layer wrappers are installed and ops alternate
traced / untraced; per-layer values come from the traced ops and the
Chrome trace is written to PATH.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_program()

import repro.relation  # noqa: E402
from repro.audit import Auditor  # noqa: E402
from repro.core.discovery import StructureDiscovery  # noqa: E402


def stages_ok(blob: dict) -> bool:
    return bool(blob["stages"]) and all(
        stage["status"] == "ok" for stage in blob["stages"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(common.BATCH))
    parser.add_argument("--csv", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--expected", default="",
                        help="the accepted report digest; empty: the "
                        "first op's")
    parser.add_argument("--audit", action="store_true")
    parser.add_argument("--trace", default="", metavar="PATH")
    args = parser.parse_args(argv)
    params = common.BATCH[args.workload]["params"]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_layers(tracer)

    def op():
        relation, _ = repro.relation.load_csv(args.csv)
        report = StructureDiscovery(**params).run(relation)
        return relation, report, report.to_json()

    repro.relation.load_csv(args.csv)
    print("READY", flush=True)

    from repro import kernels

    expected = args.expected
    first = None
    ops = []
    started = time.perf_counter()
    for index in range(args.ops):
        traced = tracer is not None and index % 2 == 0
        if traced:
            packed = kernels.pack_seconds()
            tracer.begin(index)
            span = tracer.open("op")
        start = time.perf_counter()
        relation, report, blob = op()
        ms = (time.perf_counter() - start) * 1000.0
        if traced:
            tracer.close(span)
            tracer.count("kernels.pack_ms",
                         (kernels.pack_seconds() - packed) * 1000.0)
            tracer.end()
        digest = common.report_digest(blob)
        first = first or digest
        expected = expected or first
        ops.append({"ms": ms, "ok": stages_ok(blob) and digest == expected,
                    "traced": traced})
    wall = time.perf_counter() - started

    result = {"ops": ops, "wall_s": wall, "first": first,
              "peak_rss_mb": common.peak_rss_mb(), "audit_ok": None}
    if args.audit:
        result["audit_ok"] = Auditor(seed=0).audit(
            report, source_relation=relation).ok
    if tracer is not None:
        result["trace"] = batch_layers(tracer, ops, args.trace)
    print(json.dumps(result), flush=True)
    return 0


def batch_layers(tracer, ops: list, path: str) -> dict:
    """Mean per-layer values over the traced ops, plus the add-up check."""
    import tracing

    groups = tracing.spans_by_op(tracer.spans)
    per_op = []
    add_up = True
    for index, op in enumerate(ops):
        if not op["traced"]:
            continue
        values, stages_add_up = tracing.op_layers(
            groups.get(index, []), tracer.counters.get(index, {}))
        values["core.op_ms"] = op["ms"]
        add_up &= stages_add_up
        per_op.append(values)
    tracing.write_chrome_trace(path, tracer.spans)
    layers = tracing.mean_layers(per_op)
    layers["trace.overhead_pct"] = tracing.overhead_pct(
        [op["ms"] for op in ops if op["traced"]],
        [op["ms"] for op in ops if not op["traced"]])
    return {"layers": layers, "stages_add_up": add_up}


if __name__ == "__main__":
    sys.exit(main())
