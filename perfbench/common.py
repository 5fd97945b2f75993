"""Pieces shared by the benchmark's processes: the workload table, seeded
inputs, report digests, host facts and the host calibration unit.

Nothing here imports the program at module level, so the runner can refuse
to start (with a non-zero exit) in a directory that holds no program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH / "expected.json"

#: Batch workloads: which generated input they read, the StructureDiscovery
#: keyword arguments of one op, and the nominal op time on a 2-vCPU host.
#: The op count of a run is a pure function of ``--seconds`` and this
#: nominal time, never of how fast the run actually goes.
BATCH = {
    "dblp-exact": {"input": "dblp", "params": {}, "nominal_op_s": 1.9},
    "db2-topk": {"input": "db2", "params": {"fd_mode": "topk"},
                 "nominal_op_s": 4.0},
}
SERVE = "serve-mixed"
WORKLOADS = (*BATCH, SERVE)

#: DBLP stand-in size used by every DBLP-based workload.
DBLP_TUPLES = 2000

#: Fresh processes set up per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Fewest timed ops any run performs.
MIN_OPS = 3


def require_program() -> None:
    """Exit non-zero unless the checkout carries the program's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's own sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(work: Path) -> dict:
    """Environment for every process the benchmark starts.

    The program comes from the checkout's ``src``; temporary files stay in
    the run's work directory; a fixed hash seed removes one source of
    run-to-run timing variance (string hashing order) without changing any
    result the program computes.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


def op_count(seconds: float, nominal_op_s: float) -> int:
    return max(MIN_OPS, round(seconds / nominal_op_s))


# -- inputs ----------------------------------------------------------------------


def write_batch_input(kind: str, seed: int, path: Path) -> None:
    """The CSV a batch workload reads, generated from ``seed``."""
    from repro.datasets import db2_sample, dblp
    from repro.relation import write_csv

    relation = (dblp(DBLP_TUPLES, seed=seed) if kind == "dblp"
                else db2_sample(seed=seed).relation)
    write_csv(relation, path)


def serve_rows(seed: int, held_out: int):
    """``(attributes, base_rows, held_out_rows)`` as JSON-ready lists.

    The base rows are uploaded during set-up; the held-out rows feed the
    timed phase's assign and ingest requests.  NULL travels as JSON null.
    """
    from repro.datasets import dblp
    from repro.relation import NULL

    relation = dblp(DBLP_TUPLES + held_out, seed=seed)
    rows = [[None if cell is NULL else cell for cell in row]
            for row in relation.rows]
    return (list(relation.attributes), rows[:DBLP_TUPLES],
            rows[DBLP_TUPLES:])


# -- digests ---------------------------------------------------------------------


def _digest(blob) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(blob: dict) -> str:
    """Digest of a whole ``DiscoveryReport.to_json()``."""
    return _digest(blob)


#: Fields of a ``GET /fds`` answer that track rows ingested since the mine.
FDS_STALE_FIELDS = ("stale_rows", "approximate")


def fds_digest(payload: dict) -> str:
    """Digest of an fds answer without its staleness fields."""
    return _digest({k: v for k, v in payload.items()
                    if k not in FDS_STALE_FIELDS})


def load_expected() -> dict:
    """Stored digests: ``{input: {seed: digest}}`` (see record_expected.py)."""
    return json.loads(EXPECTED.read_text())


# -- host facts ------------------------------------------------------------------


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def calibrate(repeats: int = 3) -> float:
    """Median wall ms of a fixed pure-Python + NumPy unit.

    Timed before and after every run: when it moves, the host moved, not
    the program.
    """
    import numpy

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        table: dict = {}
        for i in range(200_000):
            key = i % 997
            table[key] = table.get(key, 0) + i
        values = numpy.random.default_rng(0).random(400_000)
        numpy.sort(values)
        numpy.unique(numpy.floor(values * 1000))
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a live process in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")
