"""Supervised crash/hang drills: kill mid-run, hang, give up, interrupt.

Each drill runs a real child process against a shared checkpoint store and
asserts both the outward behavior (byte-identical report, right exception,
right exit code) and the ``incident.json`` journal.  In-child faults are
armed through ``SupervisorConfig.child_setup`` hooks; the entered ``inject``
contexts are retained in module globals because a garbage-collected context
pops its fault plan and silently disarms the fault.
"""

import functools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import StructureDiscovery, SupervisorError
from repro.checkpoint import CheckpointStore, HeartbeatStatus
from repro.cli import main
from repro.datasets import db2_sample
from repro.relation import write_csv
from repro.supervisor import SupervisorConfig
from repro.testing import inject

SRC = str(Path(__file__).resolve().parent.parent / "src")

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="fork start method unavailable")

#: Retains entered in-child fault contexts (see module docstring).
_ARMED = []


def _sigkill_self(value):
    os.kill(os.getpid(), signal.SIGKILL)


def _arm_kill_bomb(kill_attempts, attempt):
    """SIGKILL this child at the top of the mining stage on listed attempts.

    Mining runs *after* the three clustering stages snapshot, so every death
    leaves a resumable prefix behind -- the same deterministic kill site as
    ``tests/test_checkpoint_resume.py``.
    """
    if attempt in kill_attempts:
        ctx = inject("discovery.mining", corrupt=_sigkill_self)
        ctx.__enter__()
        _ARMED.append(ctx)


def _arm_mining_stall(stall_attempts, attempt):
    """Make the mining stage sleep far past any test's hang timeout."""
    if attempt in stall_attempts:
        ctx = inject("discovery.mining", delay=60.0)
        ctx.__enter__()
        _ARMED.append(ctx)


def _fast(max_restarts, hang_timeout=60.0, child_setup=None):
    """A config with no backoff sleeps and no jitter: drills stay quick."""
    return SupervisorConfig(max_restarts=max_restarts,
                            hang_timeout=hang_timeout,
                            backoff_base=0, jitter=0,
                            child_setup=child_setup)


@pytest.fixture(scope="module")
def relation():
    return db2_sample(seed=7).relation


@pytest.fixture(scope="module")
def baseline(relation):
    """The uninterrupted default report; every backend renders it."""
    return StructureDiscovery().run(relation).render()


def read_incident(ckpt_dir):
    return json.loads((ckpt_dir / "incident.json").read_text("utf-8"))


# -- crash recovery -----------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("backend", ["sparse", "dense", "auto"])
def test_killed_twice_mid_mining_still_bit_identical(
    tmp_path, relation, baseline, backend
):
    """The tentpole guarantee: SIGKILL the child twice mid-mining and the
    supervised run still returns the byte-identical report, via checkpoint
    resume plus an identity-preserving ladder escalation."""
    ckpt_dir = tmp_path / "ckpt"
    config = _fast(max_restarts=5,
                   child_setup=functools.partial(_arm_kill_bomb, {1, 2}))
    report = StructureDiscovery(
        backend=backend, checkpoint=CheckpointStore(ckpt_dir),
        supervise=config,
    ).run(relation)
    assert report.render() == baseline

    incident = read_incident(ckpt_dir)
    assert incident["outcome"] == "completed"
    assert incident["exit_code"] == 0
    assert incident["restarts_used"] == 2
    assert incident["stage_failures"] == {"mining": 2}
    classes = [a["failure_class"] for a in incident["attempts"]]
    assert classes == ["sigkill", "sigkill", "completed"]
    stages = [a["stage"] for a in incident["attempts"]]
    assert stages == ["mining", "mining", None]
    # Both restarts resumed the snapshotted clustering prefix.
    for attempt in incident["attempts"][1:]:
        assert attempt["resumed_stages"] == [
            "attribute_grouping", "tuple_clustering", "value_clustering",
        ]
    # The second death made mining a poison stage; the escalation consumed
    # only the identity-preserving first rung, hence the identical bytes.
    assert incident["escalations"] == [
        {"attempt": 2, "stage": "mining", "ladder_positions": 1},
    ]
    assert incident["attempts"][2]["escalations"] == {"mining": 1}


# -- hang detection -----------------------------------------------------------------


def _frozen_status(status):
    """A heartbeat that never changes, as the watchdog fault sees it."""
    return HeartbeatStatus(state="ok", age_seconds=99.0, mtime_ns=1,
                           payload={"stage": "mining", "units_used": 0,
                                    "wall_time": 0.0, "pid": -1})


@needs_fork
def test_hung_child_is_reaped_within_timeout_and_resumed(
    tmp_path, relation, baseline
):
    """A genuinely stalled mining stage plus a frozen ``supervisor.heartbeat``
    reading: the watchdog must declare the hang within ``hang_timeout``,
    reap the child (SIGTERM unwinds as exit 130), and resume to the
    identical report."""
    ckpt_dir = tmp_path / "ckpt"
    hang_timeout = 0.75
    config = _fast(max_restarts=2, hang_timeout=hang_timeout,
                   child_setup=functools.partial(_arm_mining_stall, {1}))
    discovery = StructureDiscovery(
        checkpoint=CheckpointStore(ckpt_dir), supervise=config,
    )
    started = time.monotonic()
    with inject("supervisor.heartbeat", corrupt=_frozen_status):
        report = discovery.run(relation)
    elapsed = time.monotonic() - started
    assert report.render() == baseline

    incident = read_incident(ckpt_dir)
    assert incident["outcome"] == "completed"
    assert incident["restarts_used"] == 1
    first, second = incident["attempts"]
    assert first["failure_class"] == "hang"
    assert first["stage"] == "mining"
    assert first["exit_code"] == 130  # SIGTERM unwound gracefully
    assert "heartbeat" in first["detail"]
    assert second["failure_class"] == "completed"
    # Detection must key off hang_timeout, not the 60s the stage would
    # actually have slept.
    assert first["ended_wall"] - first["started_wall"] < hang_timeout + 3.0
    assert elapsed < 30.0


# -- restart-budget exhaustion ------------------------------------------------------


@needs_fork
def test_stage_dying_every_attempt_gives_up_after_escalating(
    tmp_path, relation
):
    ckpt_dir = tmp_path / "ckpt"
    config = _fast(max_restarts=2,
                   child_setup=functools.partial(_arm_kill_bomb,
                                                 {1, 2, 3, 4, 5}))
    discovery = StructureDiscovery(
        checkpoint=CheckpointStore(ckpt_dir), supervise=config,
    )
    escalate_calls = []

    def record(value):
        escalate_calls.append(value)
        return value

    with inject("supervisor.escalate", corrupt=record):
        with pytest.raises(SupervisorError) as info:
            discovery.run(relation)
    # Each poison-stage decision fired the registered fault point, in order.
    assert escalate_calls == [("mining", 1), ("mining", 2)]
    assert info.value.context["attempts"] == 3
    assert info.value.context["failure_class"] == "sigkill"
    assert info.value.context["stage"] == "mining"
    assert info.value.context["incident_path"] == str(
        ckpt_dir / "incident.json")

    incident = read_incident(ckpt_dir)
    assert incident["outcome"] == "gave-up"
    assert incident["exit_code"] == 1
    assert incident["restarts_used"] == 2
    assert incident["stage_failures"] == {"mining": 3}
    classes = [a["failure_class"] for a in incident["attempts"]]
    assert classes == ["sigkill", "sigkill", "sigkill"]
    # It only gave up after actually trying the ladder: positions 1 then 2.
    assert incident["escalations"] == [
        {"attempt": 2, "stage": "mining", "ladder_positions": 1},
        {"attempt": 3, "stage": "mining", "ladder_positions": 2},
    ]


@needs_fork
def test_give_up_maps_to_cli_exit_1(tmp_path, capsys):
    csv = tmp_path / "db2.csv"
    write_csv(db2_sample(seed=7).relation, csv)
    # Every spawn fails: with --max-restarts 0 the single attempt exhausts
    # the budget immediately and the CLI surfaces the give-up as exit 1.
    with inject("supervisor.spawn", raises=OSError("fork: EAGAIN")):
        code = main(["discover", str(csv), "--supervise",
                     "--max-restarts", "0",
                     "--checkpoint-dir", str(tmp_path / "ckpt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "supervised run gave up" in err
    assert "Traceback" not in err
    incident = read_incident(tmp_path / "ckpt")
    assert incident["outcome"] == "gave-up"
    assert incident["attempts"][0]["failure_class"] == "spawn-failure"


# -- interrupt propagation ----------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupt_propagates_to_child_and_exits_130(tmp_path, signum):
    """SIGINT/SIGTERM to the supervising CLI forwards to the child, unwinds
    both processes, and preserves exit code 130."""
    csv = tmp_path / "dblp.csv"
    from repro.datasets import dblp

    write_csv(dblp(n_tuples=4000, seed=7), csv)
    ckpt_dir = tmp_path / "ckpt"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "discover", str(csv),
         "--supervise", "--checkpoint-dir", str(ckpt_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # Interrupt only once the child is provably up and heartbeating.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if (ckpt_dir / "child.pid").exists() \
                    and (ckpt_dir / "progress.json").exists():
                break
            if proc.poll() is not None:
                pytest.fail(f"run ended early: {proc.stderr.read()}")
            time.sleep(0.05)
        else:
            pytest.fail("child never came up")
        child_pid = int((ckpt_dir / "child.pid").read_text())
        proc.send_signal(signum)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code == 130, proc.stderr.read()

    incident = read_incident(ckpt_dir)
    assert incident["outcome"] == "interrupted"
    assert incident["exit_code"] == 130
    assert incident["attempts"][0]["failure_class"] == "interrupted"
    # The child is gone too (forwarded signal, not just the parent dying).
    with pytest.raises(OSError):
        os.kill(child_pid, 0)
