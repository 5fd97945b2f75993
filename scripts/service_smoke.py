#!/usr/bin/env python
"""CI smoke drill for the discovery service (`repro serve`).

The full overload-and-crash story against a real daemon subprocess:

1. start the daemon, upload a relation in chunks through the retrying
   client;
2. mine a model and record the top-FD answer;
3. flood the daemon far past ``--max-inflight`` with raw (non-retrying)
   requests and assert the overload contract: every response is 200 or
   429, every 429 carries ``Retry-After``;
4. repeat the flood through retrying clients and assert all of them
   complete;
5. SIGKILL the daemon mid-ingest, restart it on the same checkpoint
   directory, and assert the rehydrated daemon acknowledges the replayed
   chunk as a duplicate and answers the recorded top-FD and ``/assign``
   queries bit-identically (the rebuilt assigner absorbs the rows
   ingested since the mine again).

Exits non-zero on the first violated invariant.  Stdlib + the repro
package only.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import ServiceClient  # noqa: E402

ATTRS = ["emp", "dept", "loc", "mgr", "proj"]


def make_rows(n, offset=0):
    rows = []
    for index in range(offset, offset + n):
        group = index % 4
        rows.append([f"e{index}", f"d{group}", f"loc_{group}",
                     f"m{group}", f"p{index % 7}"])
    return rows


def spawn_daemon(checkpoint_dir, max_inflight, queue_depth):
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--checkpoint-dir", str(checkpoint_dir),
         "--max-inflight", str(max_inflight),
         "--queue-depth", str(queue_depth)],
        env=env)


def wait_for_port(checkpoint_dir, process, timeout=60.0):
    endpoint = Path(checkpoint_dir) / "service.json"
    stop_at = time.monotonic() + timeout
    while time.monotonic() < stop_at:
        if process.poll() is not None:
            raise SystemExit(
                f"daemon died during startup (rc {process.returncode})")
        if endpoint.exists():
            try:
                port = int(json.loads(endpoint.read_text())["port"])
            except (ValueError, KeyError):
                port = 0
            if port and ServiceClient(port=port).wait_ready(5.0):
                return port
        time.sleep(0.05)
    raise SystemExit("daemon never became ready")


def check(condition, message):
    if not condition:
        raise SystemExit(f"service smoke FAILED: {message}")
    print(f"  ok: {message}")


def flood_raw(port, n_requests):
    """Raw concurrent requests; returns the list of (status, headers)."""
    results = []
    barrier = threading.Barrier(n_requests)

    def probe():
        client = ServiceClient(port=port)
        barrier.wait()
        try:
            status, headers, _ = client.request_once("GET", "/relations/emp")
        except OSError as exc:
            results.append(("connection-error", {"error": repr(exc)}))
            return
        results.append((status, headers))

    threads = [threading.Thread(target=probe) for _ in range(n_requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    return results


def flood_retrying(port, n_requests):
    outcomes = []

    def retrier():
        client = ServiceClient(port=port, retries=60, deadline=120.0)
        outcomes.append(client.call("GET", "/relations/emp")["relation"])

    threads = [threading.Thread(target=retrier) for _ in range(n_requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(180.0)
    return outcomes


def assignment(payload):
    """The parts of an ``/assign`` answer a restart must not change."""
    return {key: payload[key]
            for key in ("cluster", "approximate", "stale_rows")}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-inflight", type=int, default=2)
    parser.add_argument("--queue-depth", type=int, default=4)
    parser.add_argument("--clients", type=int, default=32)
    parser.add_argument("--checkpoint-dir", default=None)
    args = parser.parse_args()

    home = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-service-")
    print(f"service smoke: checkpoint dir {home}")

    daemon = spawn_daemon(home, args.max_inflight, args.queue_depth)
    try:
        port = wait_for_port(home, daemon)
        client = ServiceClient(port=port)

        # 1. Chunked ingest through the retrying client.
        client.create_relation("emp", ATTRS)
        for chunk, seq in ((make_rows(25), 1), (make_rows(25, 25), 2)):
            ack = client.append_rows("emp", chunk, seq=seq)
            check(ack["applied_seq"] == seq, f"chunk {seq} applied")
        check(client.status("emp")["n_rows"] == 50, "50 rows resident")

        # 2. Mine and record the reference answer.
        model = client.build_model("emp")
        check(model["healthy"], "mined model is healthy")
        reference = client.top_fds("emp", k=5)

        # 3. Raw flood: 200/429 only, every 429 carries Retry-After.
        results = flood_raw(port, args.clients)
        check(len(results) == args.clients, "every raw request answered")
        statuses = {status for status, _ in results}
        check(statuses <= {200, 429},
              f"only 200/429 under flood (saw {sorted(map(str, statuses))})")
        check(429 in statuses,
              f"shedding engaged at {args.clients} clients vs "
              f"--max-inflight {args.max_inflight}")
        for status, headers in results:
            if status == 429:
                hints = [v for k, v in headers.items()
                         if k.lower() == "retry-after"]
                check(hints and int(hints[0]) >= 1, "429 carries Retry-After")
                break

        # 4. Retrying flood: everyone gets through eventually.
        outcomes = flood_retrying(port, args.clients)
        check(outcomes == ["emp"] * args.clients,
              f"all {args.clients} retrying clients completed")

        # 5. SIGKILL mid-ingest; restart must rehydrate bit-identically.
        client.append_rows("emp", make_rows(10, offset=50), seq=3)
        probe = make_rows(1, offset=200)[0]
        assigned = assignment(client.assign("emp", probe))
        check(assigned["approximate"] and assigned["stale_rows"] == 10,
              "assign after the seq-3 ingest is flagged approximate")
        daemon.kill()
        daemon.wait(30.0)
        print(f"  killed daemon (rc {daemon.returncode})")

        daemon = spawn_daemon(home, args.max_inflight, args.queue_depth)
        port = wait_for_port(home, daemon)
        client = ServiceClient(port=port)
        status = client.status("emp")
        check(status["n_rows"] == 60, "acknowledged rows survived SIGKILL")
        replay = client.append_rows("emp", make_rows(10, offset=50), seq=3)
        check(replay["duplicate"], "replayed chunk acknowledged as duplicate")
        after = client.top_fds("emp", k=5)
        check(after["model_key"] == reference["model_key"]
              and after["dependencies"] == reference["dependencies"]
              and after["ranked"] == reference["ranked"],
              "restarted daemon answers bit-identically")
        check(assignment(client.assign("emp", probe)) == assigned,
              f"restarted daemon assigns identically ({assigned})")

        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(60.0)
        check(rc == 0, "SIGTERM drain exits 0")
        print("service smoke PASSED")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(10.0)


if __name__ == "__main__":
    main()
