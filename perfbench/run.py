"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run does a fixed, seeded amount of work (the op count is a function
of ``--seconds``, never of elapsed time) in fresh processes.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics ``BENCHMARK.json`` declares -- the end-to-end
metrics untraced (``--trace 0``), the per-layer metrics from a traced run
(``--trace 1``).  The lines before it print every metric with its unit,
the error rate, and where the full run record was written.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

#: Seconds any one child process may take before the run gives up on it.
CHILD_TIMEOUT = 150.0

# -- serve-mixed ------------------------------------------------------------------

RID = "bench"

#: Route mix of the timed phase: (route, share of ops).
SERVE_MIX = (("assign", 0.60), ("fds", 0.25), ("rows", 0.15))

#: Nominal seconds per request on a 2-vCPU host (sets the op count).
SERVE_NOMINAL_OP_S = 0.022

#: Rows per ingest request, and held-out rows feeding assign and ingest.
INGEST_CHUNK = 8
HELD_OUT = 1024

#: Chunks the 2,000 base rows are uploaded in during set-up.
UPLOAD_CHUNKS = 4

#: Latencies printed (in ms) beside the end-to-end metrics and kept in the
#: run record: each means something on some workloads only, so the one
#: metric set every workload prints cannot carry them.
DIAGNOSTICS = ("discover_p50_ms", "serve.assign_p50_ms",
               "serve.assign_p90_ms", "serve.fds_p50_ms", "serve.fds_p90_ms",
               "serve.ingest_p50_ms", "serve.ingest_p90_ms")

#: Per-layer values a serve run takes from the set-up model build rather
#: than from the timed requests (no request in the timed phase mines).
MODEL_LAYER_PREFIXES = ("core.", "fd.", "clustering.phase",
                        "clustering.leaves", "relation.views_ms",
                        "kernels.pack_ms")


def serve_sequence(seed: int, n_ops: int, n_held: int) -> list[tuple]:
    """The timed phase: an exact route mix in a seeded order."""
    rng = random.Random(f"{common.SERVE}:{seed}")
    counts = {route: round(share * n_ops) for route, share in SERVE_MIX}
    counts["rows"] = n_ops - counts["assign"] - counts["fds"]
    routes = [route for route, _ in SERVE_MIX for _ in range(counts[route])]
    rng.shuffle(routes)
    sequence, cursor = [], 0
    for route in routes:
        if route == "assign":
            sequence.append((route, rng.randrange(n_held)))
        elif route == "rows":
            sequence.append((route, cursor))
            cursor = (cursor + INGEST_CHUNK) % n_held
        else:
            sequence.append((route, None))
    return sequence


def request(port: int, method: str, path: str, body=None):
    """One HTTP exchange: ``(status, payload)``; raises on transport errors."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        connection.close()


class Daemon:
    """One ``repro serve --port 0 --remine-after 0`` subprocess."""

    def __init__(self, work: Path, index: int, traced: bool):
        self.directory = work / f"ckpt{index}"
        self.spans = work / f"spans{index}.json" if traced else None
        self.log_path = work / f"daemon{index}.log"
        cli = ["serve", "--port", "0", "--checkpoint-dir",
               str(self.directory), "--remine-after", "0"]
        command = ([sys.executable, str(common.BENCH / "daemon.py"),
                    str(self.spans), *cli] if traced
                   else [sys.executable, "-m", "repro", *cli])
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(
            command, env=common.child_env(work), stdout=self.log,
            stderr=subprocess.STDOUT, cwd=common.ROOT)
        self.port = None

    def wait_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        marker = "serving on http://127.0.0.1:"
        while self.port is None:
            text = self.log_path.read_text()
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0])
            elif self.process.poll() is not None or (
                    time.monotonic() > deadline):
                raise RuntimeError(f"daemon did not start: {text[-400:]}")
            else:
                time.sleep(0.005)
        while True:
            try:
                if request(self.port, "GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.005)

    def call(self, method: str, path: str, body=None, op=None,
             traced: bool = False):
        if op is not None:
            path += ("&" if "?" in path else "?") + (
                f"pb_op={op}&pb_trace={int(traced)}")
        return request(self.port, method, path, body)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it will not go."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def serve_setup(daemon: Daemon, attrs, base, held, trace: bool) -> dict:
    """Ready the daemon: upload the base rows, mine, record the answers."""
    op = "setup" if trace else None
    rows = f"/relations/{RID}/rows"
    daemon.wait_ready()
    statuses = [daemon.call("POST", f"/relations/{RID}",
                            {"attributes": attrs}, op, trace)[0]]
    size = len(base) // UPLOAD_CHUNKS
    for chunk in range(UPLOAD_CHUNKS):
        statuses.append(daemon.call(
            "POST", rows, {"rows": base[chunk * size:(chunk + 1) * size],
                           "seq": chunk + 1}, op, trace)[0])
    statuses.append(daemon.call("POST", f"/relations/{RID}/model?top=5",
                                None, op, trace)[0])
    status, fds = daemon.call("GET", f"/relations/{RID}/fds?k=5", None, op,
                              trace)
    statuses.append(status)
    status, assigned = daemon.call("POST", f"/relations/{RID}/assign",
                                   {"row": held[0]}, op, trace)
    statuses.append(status)
    status, stats = daemon.call("GET", "/stats")
    statuses.append(status)
    return {"ok": all(s == 200 for s in statuses)
            and fds.get("healthy") is True, "fds": fds,
            "clusters": assigned.get("clusters", 0),
            "model_key": fds.get("model_key"),
            "computes": stats.get("cache", {}).get("computes")}


def check_serve(route: str, payload: dict, ref: dict, ingested: int,
                seq: int) -> bool:
    """Whether one timed answer is right; ``ingested`` counts rows acked
    before this request."""
    if route == "assign":
        return (payload["model_key"] == ref["model_key"]
                and payload["clusters"] == ref["clusters"]
                and 0 <= payload["cluster"] < ref["clusters"]
                and payload["stale_rows"] == ingested
                and payload["approximate"] == (ingested > 0))
    if route == "fds":
        return (common.fds_digest(payload) == ref["fds_digest"]
                and payload["stale_rows"] == ingested
                and payload["approximate"] == (ingested > 0))
    return (payload["applied_seq"] == seq
            and payload["n_rows"] == common.DBLP_TUPLES + ingested
            + INGEST_CHUNK
            and payload["duplicate"] is False
            and payload["stale_rows"] == ingested + INGEST_CHUNK)


def run_serve(seed: int, seconds: float, trace: bool, work: Path,
              expected=None, on_op=None) -> dict:
    """serve-mixed: one closed-loop client, one request in flight.

    The run's fixed request sequence is dealt in order over fresh daemons,
    each set up from scratch.  ``expected`` overrides the stored fds
    digest; ``on_op(index, daemon)`` runs before each timed request (tests
    use it to kill the daemon).
    """
    attrs, base, held = common.serve_rows(seed, HELD_OUT)
    sequence = serve_sequence(
        seed, common.op_count(seconds, SERVE_NOMINAL_OP_S), len(held))
    stored = common.load_expected()["serve"].get(str(seed), "")
    expected = stored if expected is None else expected
    shares = split(len(sequence), 1 if trace else common.SETUPS)
    checks, setup_s, samples, rss, wall = {}, [], [], [], 0.0
    layers = {}
    for index, share in enumerate(shares):
        last = index == len(shares) - 1
        start = time.perf_counter()
        daemon = Daemon(work, index, trace)
        try:
            ref = serve_setup(daemon, attrs, base, held, trace)
            setup_s.append(time.perf_counter() - start)
            digest = common.fds_digest(ref["fds"])
            expected = expected or digest
            checks[f"setup{index}"] = ref["ok"] and digest == expected
            ref["fds_digest"] = expected
            begin = len(samples)
            started = time.perf_counter()
            samples += serve_segment(daemon, sequence, begin, share, ref,
                                     held, trace, on_op)
            wall += time.perf_counter() - started
            try:
                computes = daemon.call("GET", "/stats")[1]["cache"][
                    "computes"]
                if last:
                    checks["verify"] = daemon.call(
                        "GET", f"/relations/{RID}/verify")[1]["ok"] is True
                rss.append(common.peak_rss_mb(daemon.process.pid))
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError):
                computes = None
                checks[f"after{index}"] = False
        finally:
            daemon.stop()
        if trace:
            layers = serve_layers(daemon, samples, ref["computes"],
                                  computes)

    ok_ms = [s["ms"] for s in samples if s["ok"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(rss) if rss else None,
        "ops_per_s": len(ok_ms) / wall,
        "op_mean_ms": statistics.fmean(ok_ms) if ok_ms else None,
    }
    for route, label in (("assign", "assign"), ("fds", "fds"),
                         ("rows", "ingest")):
        values = [s["ms"] for s in samples if s["ok"] and s["route"] == route]
        metrics[f"serve.{label}_p50_ms"] = percentile(values, 50)
        metrics[f"serve.{label}_p90_ms"] = percentile(values, 90)
    if trace:
        checks["stages_add_up"] = layers.pop("stages_add_up")
        metrics.update(layers)
    return {"attempted": len(samples),
            "failed": sum(not s["ok"] for s in samples),
            "checks": checks, "metrics": metrics, "setups_s": setup_s,
            "digest_source": "stored" if stored else "set-up",
            "samples": [[s["route"], s["ms"], s["ok"]] for s in samples]}


def serve_segment(daemon: Daemon, sequence: list, begin: int, count: int,
                  ref: dict, held: list, trace: bool, on_op) -> list[dict]:
    """Requests ``begin .. begin+count`` of the sequence against a daemon
    freshly set up at the base size."""
    samples = []
    seq, ingested = UPLOAD_CHUNKS, 0
    for index in range(begin, begin + count):
        route, arg = sequence[index]
        if on_op is not None:
            on_op(index, daemon)
        traced = trace and index % 2 == 0
        body = None
        if route == "assign":
            method, path, body = ("POST", f"/relations/{RID}/assign",
                                  {"row": held[arg]})
        elif route == "fds":
            method, path = "GET", f"/relations/{RID}/fds?k=5"
        else:
            seq += 1
            chunk = [held[(arg + j) % len(held)]
                     for j in range(INGEST_CHUNK)]
            method, path, body = ("POST", f"/relations/{RID}/rows",
                                  {"rows": chunk, "seq": seq})
        start = time.perf_counter()
        try:
            status, payload = daemon.call(method, path, body,
                                          index if trace else None, traced)
            ms = (time.perf_counter() - start) * 1000.0
            ok = status == 200 and check_serve(route, payload, ref,
                                               ingested, seq)
        except (OSError, http.client.HTTPException, ValueError, KeyError,
                TypeError):
            ms, ok = (time.perf_counter() - start) * 1000.0, False
        if ok and route == "rows":
            ingested += INGEST_CHUNK
        samples.append({"route": route, "ms": ms, "ok": ok,
                        "traced": traced})
    return samples


def serve_layers(daemon: Daemon, samples: list, computes_before,
                 computes_after) -> dict:
    """Per-layer values of a traced serve run, from the daemon's spans."""
    dump = json.loads(daemon.spans.read_text())
    spans, counters = dump["spans"], dump["counters"]
    groups = tracing.spans_by_op(spans)
    model, add_up = tracing.op_layers(groups.get("setup", []),
                                      counters.get("setup", {}))
    per_request, rows_bytes, rows_traced = [], 0, 0
    by_route: dict = {}
    for index, sample in enumerate(samples):
        if not sample["traced"]:
            continue
        values, _ = tracing.op_layers(groups.get(str(index), []),
                                      counters.get(str(index), {}))
        per_request.append(values)
        route = sample["route"]
        handle = values.get(f"service.handle_ms.{route}", 0.0)
        by_route.setdefault(route, []).append((handle, sample["ms"] - handle))
        if route == "rows" and sample["ok"]:
            rows_traced += INGEST_CHUNK
            rows_bytes += values.get("checkpoint.bytes", 0)
    layers = {name: value
              for name, value in tracing.mean_layers(per_request).items()
              if not name.startswith(MODEL_LAYER_PREFIXES)
              or name == "core.summary_ms"}
    layers.update({name: value for name, value in model.items()
                   if name.startswith(MODEL_LAYER_PREFIXES)
                   and name != "core.summary_ms"})
    for route, pairs in by_route.items():
        layers[f"service.handle_ms.{route}"] = statistics.fmean(
            handle for handle, _ in pairs)
        layers[f"service.server_ms.{route}"] = statistics.fmean(
            rest for _, rest in pairs)
    layers["checkpoint.bytes_per_row"] = (rows_bytes / rows_traced
                                          if rows_traced else 0.0)
    layers["service.cache_computes"] = (
        computes_after - computes_before
        if computes_after is not None else -1)
    traced = {r: [s["ms"] for s in samples if s["traced"] and s["ok"]
                  and s["route"] == r] for r, _ in SERVE_MIX}
    untraced = {r: [s["ms"] for s in samples if not s["traced"] and s["ok"]
                    and s["route"] == r] for r, _ in SERVE_MIX}
    if all(traced.values()) and all(untraced.values()):
        weight = {r: len(traced[r]) + len(untraced[r]) for r in traced}
        layers["trace.overhead_pct"] = (
            sum(weight[r] * statistics.median(traced[r]) for r in traced)
            / sum(weight[r] * statistics.median(untraced[r])
                  for r in untraced) - 1.0) * 100.0
    tracing.write_chrome_trace(
        common.WORK / "records" / f"{common.SERVE}.trace.json", spans,
        pid=daemon.process.pid)
    layers["stages_add_up"] = add_up
    return layers


def percentile(values: list, pct: int):
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100)[pct - 1]


# -- batch workloads ----------------------------------------------------------------


def run_worker(command: list, work: Path) -> tuple[float, dict]:
    """Start a fresh worker; ``(seconds until READY, its result)``."""
    start = time.perf_counter()
    with open(work / "worker.log", "a") as log:
        process = subprocess.Popen(
            command, env=common.child_env(work), stdout=subprocess.PIPE,
            stderr=log, text=True, cwd=common.ROOT)
        try:
            line = process.stdout.readline()
            ready_s = time.perf_counter() - start
            out, _ = process.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
    lines = out.strip().splitlines()
    if line.strip() != "READY" or process.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {process.returncode}; "
                           f"see {work / 'worker.log'}")
    return ready_s, json.loads(lines[-1])


def split(total: int, parts: int) -> list[int]:
    """``total`` ops dealt over ``parts`` processes, in order."""
    return [total // parts + (index < total % parts)
            for index in range(parts)]


def run_batch(workload: str, seed: int, seconds: float, trace: bool,
              work: Path, expected=None) -> dict:
    """A batch workload: the run's ops dealt over fresh worker processes.

    ``expected`` overrides the stored digest.  Without a stored digest the
    first op's report is the reference every later op, in every worker,
    must match.
    """
    spec = common.BATCH[workload]
    csv = work / "input.csv"
    common.write_batch_input(spec["input"], seed, csv)
    stored = common.load_expected()[spec["input"]].get(str(seed), "")
    expected = stored if expected is None else expected
    shares = split(common.op_count(seconds, spec["nominal_op_s"]),
                   1 if trace else common.SETUPS)
    trace_path = common.WORK / "records" / f"{workload}.trace.json"
    setup_s, ops, walls, rss = [], [], 0.0, []
    for index, share in enumerate(shares):
        command = [sys.executable, str(common.BENCH / "worker.py"),
                   "--workload", workload, "--csv", str(csv),
                   "--ops", str(share), "--expected", expected]
        if index == len(shares) - 1:
            command.append("--audit")
        if trace:
            command += ["--trace", str(trace_path)]
        seconds_to_ready, result = run_worker(command, work)
        setup_s.append(seconds_to_ready)
        expected = expected or result["first"]
        ops += result["ops"]
        walls += result["wall_s"]
        rss.append(result["peak_rss_mb"])
    ok_ms = [op["ms"] for op in ops if op["ok"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(rss),
        "ops_per_s": len(ok_ms) / walls,
        "op_mean_ms": statistics.fmean(ok_ms) if ok_ms else None,
        "discover_p50_ms": statistics.median(ok_ms) if ok_ms else None,
    }
    checks = {"audit": result["audit_ok"]}
    if trace:
        metrics.update(result["trace"]["layers"])
        checks["stages_add_up"] = result["trace"]["stages_add_up"]
    return {"attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "checks": checks, "metrics": metrics, "setups_s": setup_s,
            "digest_source": "stored" if stored else "first op",
            "samples": [[workload, op["ms"], op["ok"]] for op in ops]}


# -- entry point ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 **overrides) -> dict:
    """Run one workload in a fresh work directory; returns the run record."""
    common.use_program()
    work = common.WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (common.WORK / "records").mkdir(exist_ok=True)
    calib_before = common.calibrate()
    try:
        if workload == common.SERVE:
            record = run_serve(seed, seconds, trace, work, **overrides)
        else:
            record = run_batch(workload, seed, seconds, trace, work,
                               **overrides)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "error_rate": record["failed"] / record["attempted"],
        "host": common.host_facts(),
        "host.calib_ms": {"before": calib_before,
                          "after": common.calibrate()},
    })
    record["correct"] = record["failed"] == 0 and all(
        record["checks"].values())
    return record


def result_line(record: dict, declared: list) -> dict:
    """The output's last line: the declared metrics with their units."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"].get(m["name"], 0),
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    path = (common.WORK / "records"
            / f"{args.workload}-s{args.seed}-t{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    line = result_line(record, declared)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['attempted']} ops, {record['failed']} failed, "
          f"correct={record['correct']}")
    print(f"  {'error_rate':<34} {record['error_rate']:.6g} ratio")
    for name, metric in line["metrics"].items():
        print(f"  {name:<34} {metric['value']} {metric['unit']}")
    for name in DIAGNOSTICS:
        if name in record["metrics"] and name not in line["metrics"]:
            print(f"  (also) {name:<27} {record['metrics'][name]} ms")
    calib = record["host.calib_ms"]
    print(f"  host.calib_ms before={calib['before']:.2f} "
          f"after={calib['after']:.2f}; record: {path}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
