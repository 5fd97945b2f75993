"""The benchmark's own checks fire, and its output has the declared form.

    python3 -m pytest -q perfbench/tests

Each test runs real (short) workloads, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_tampered_digest_fails_every_op():
    record = run.run_workload("dblp-exact", 1, 1, False, expected="0" * 64)
    assert record["attempted"] == common.MIN_OPS
    assert record["failed"] == record["attempted"]
    assert record["error_rate"] == 1.0
    assert record["correct"] is False
    assert record["metrics"]["op_mean_ms"] is None


def test_killed_daemon_shows_failed_ops_not_a_shorter_run():
    n_ops = common.op_count(2, run.SERVE_NOMINAL_OP_S)
    first_segment = run.split(n_ops, common.SETUPS)[0]
    kill_at = first_segment // 2

    def kill(index, daemon):
        if index == kill_at:
            os.kill(daemon.process.pid, signal.SIGKILL)
            daemon.process.wait()

    record = run.run_workload(common.SERVE, 1, 2, False, on_op=kill)
    assert record["attempted"] == n_ops
    assert record["failed"] == first_segment - kill_at
    assert record["correct"] is False


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    completed = run_cli(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert not isinstance(printed["value"], bool)
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_cli(tmp_path, "dblp-exact", 0)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_serve_sequence_is_seeded_with_an_exact_mix():
    first = run.serve_sequence(3, 200, 64)
    assert first == run.serve_sequence(3, 200, 64)
    assert first != run.serve_sequence(4, 200, 64)
    routes = [route for route, _ in first]
    assert (routes.count("assign"), routes.count("fds"),
            routes.count("rows")) == (120, 50, 30)
