"""Kill-and-resume integration: SIGKILL mid-stage, then a bit-identical resume.

A child process runs the discovery pipeline with a checkpoint directory and a
budget listener that SIGKILLs the process on the first ``fdep.*`` budget tick
-- i.e. deterministically *inside* the mining stage, after the three
clustering stages have been snapshotted.  The parent then resumes from the
same directory and the resumed report must be byte-identical to an
uninterrupted run, under every numeric backend.
"""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import StructureDiscovery
from repro.datasets import db2_sample

SRC = str(Path(__file__).resolve().parent.parent / "src")

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")

#: Runs the pipeline in a child; mode "kill" arms the SIGKILL listener.
CHILD = """
import os, signal, sys

mode, ckpt_dir, backend = sys.argv[1:4]

from repro import Budget, StructureDiscovery
from repro.checkpoint import CheckpointStore
from repro.datasets import db2_sample

relation = db2_sample(seed=7).relation
budget = Budget()
if mode == "kill":
    def bomb(units_used, where):
        if where.startswith("fdep."):
            os.kill(os.getpid(), signal.SIGKILL)
    budget.on_checkpoint(bomb)

store = CheckpointStore(ckpt_dir, resume=(mode == "resume"))
report = StructureDiscovery(backend=backend, checkpoint=store).run(
    relation, budget=budget)
print(f"STAGE_LOADS={store.stage_loads}", file=sys.stderr)
print(f"EVENTS={len(store.events)}", file=sys.stderr)
sys.stdout.write(report.render())
"""


def run_child(mode, ckpt_dir, backend):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", CHILD, mode, str(ckpt_dir), backend],
        capture_output=True, text=True, timeout=300, env=env,
    )


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted default report.

    Every backend renders identically, so one baseline covers the whole
    matrix.
    """
    return StructureDiscovery().run(db2_sample(seed=7).relation).render()


@needs_fork
@pytest.mark.parametrize("backend", ["sparse", "dense", "auto"])
def test_sigkill_mid_stage_then_resume_is_bit_identical(
    tmp_path, baseline, backend
):
    ckpt_dir = tmp_path / "ckpt"

    killed = run_child("kill", ckpt_dir, backend)
    assert killed.returncode == -9, killed.stderr
    # The kill landed mid-mining: the three clustering stages had been
    # snapshotted, mining had not.
    for stage in ("tuple_clustering", "value_clustering", "attribute_grouping"):
        assert (ckpt_dir / f"stage.{stage}.ckpt").exists()
    assert not (ckpt_dir / "stage.mining.ckpt").exists()

    resumed = run_child("resume", ckpt_dir, backend)
    assert resumed.returncode == 0, resumed.stderr
    assert "STAGE_LOADS=3" in resumed.stderr  # the completed prefix was reused
    assert "EVENTS=0" in resumed.stderr  # no quarantines, no save failures
    assert resumed.stdout == baseline


@needs_fork
def test_resume_after_corrupted_survivor_still_matches(tmp_path, baseline):
    """SIGKILL plus bit-rot on a surviving snapshot: still the right report."""
    ckpt_dir = tmp_path / "ckpt"
    killed = run_child("kill", ckpt_dir, "auto")
    assert killed.returncode == -9, killed.stderr

    victim = ckpt_dir / "stage.value_clustering.ckpt"
    data = bytearray(victim.read_bytes())
    data[-1] ^= 0xFF
    victim.write_bytes(bytes(data))

    resumed = run_child("resume", ckpt_dir, "auto")
    assert resumed.returncode == 0, resumed.stderr
    assert "STAGE_LOADS=1" in resumed.stderr  # prefix stops at the corruption
    # Content identical; only the health section records the quarantine.
    assert resumed.stdout.split("Pipeline health:")[0] == (
        baseline.split("Pipeline health:")[0]
    )
    assert "quarantine" in resumed.stdout
