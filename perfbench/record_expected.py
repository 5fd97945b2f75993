"""Record the expected outputs every run is checked against.

    python3 perfbench/record_expected.py --seeds 0-31

For each seed: the report digest of the DBLP input (dblp-exact), the
report digest of the DB2 input (db2-topk), and the digest of the
serve-mixed ``fds`` answer after set-up.  Each is produced through the same
worker and daemon code paths the runs use.  Run it only on a commit whose
reports are known to be right: stored digests are what later commits are
held to.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402
from spread import seeds_arg  # noqa: E402


def batch_digest(workload: str, seed: int, work: Path) -> str:
    """The report digest of one op, certified by the Auditor."""
    csv = work / f"{workload}.csv"
    common.write_batch_input(common.BATCH[workload]["input"], seed, csv)
    _, result = run.run_worker(
        [sys.executable, str(common.BENCH / "worker.py"), "--workload",
         workload, "--csv", str(csv), "--ops", "1", "--audit"], work)
    if not (result["ops"][0]["ok"] and result["audit_ok"]):
        raise SystemExit(f"{workload} seed {seed}: report not certified")
    return result["first"]


def serve_digest(seed: int, work: Path) -> str:
    attrs, base, held = common.serve_rows(seed, run.HELD_OUT)
    daemon = run.Daemon(work, 0, traced=False)
    try:
        ref = run.serve_setup(daemon, attrs, base, held, trace=False)
    finally:
        daemon.stop()
    if not ref["ok"] or not ref["fds"]["healthy"]:
        raise SystemExit(f"serve seed {seed}: set-up failed")
    return common.fds_digest(ref["fds"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    args = parser.parse_args(argv)
    common.use_program()
    expected = common.load_expected()
    work = common.WORK / "record-expected"
    for seed in args.seeds:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        expected["dblp"][str(seed)] = batch_digest("dblp-exact", seed, work)
        expected["db2"][str(seed)] = batch_digest("db2-topk", seed, work)
        expected["serve"][str(seed)] = serve_digest(seed, work)
        common.EXPECTED.write_text(json.dumps(expected, indent=1,
                                              sort_keys=True) + "\n")
        print(f"seed {seed}: recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
