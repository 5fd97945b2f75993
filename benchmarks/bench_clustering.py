"""Machine-readable clustering benchmark: sparse oracle vs. dense kernels.

Runs the ``test_scaling_limbo.py`` sweep (three LIMBO phases over growing
DBLP slices) under every numeric backend, the AIB merge-loop
microbenchmark over leaf summaries, and the FD-mining race (TANE vs the
reliable top-k miner), and writes the results as JSON -- the committed
``BENCH_clustering.json`` is the performance baseline future changes are
judged against.

Usage::

    PYTHONPATH=src python benchmarks/bench_clustering.py
    PYTHONPATH=src python benchmarks/bench_clustering.py --smoke \
        --check-speedup 1.0   # CI gate: dense must not lose to sparse

See ``docs/PERFORMANCE.md`` for the JSON schema and interpretation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro import kernels
from repro.budget import peak_rss
from repro.clustering import Limbo, aib
from repro.datasets import dblp
from repro.relation import build_tuple_view

#: Bump when the JSON layout changes.  v4 added ``pack_s`` per sweep backend
#: (dense packing overhead: matrix gathers + engine builds) and
#: ``dict_build_s`` per sweep entry (dictionary-encoding time of the input
#: slice's columnar store).  v5 added the ``fd_mining`` section: exhaustive
#: TANE vs the reliable top-k branch-and-bound miner at the largest sweep
#: size, compared by materialized-partition counts (the shared lattice-work
#: unit both miners' ``stats`` report).  v6 runs ``fd_mining`` at a fixed
#: n=8,000, best of 3, in both presets, and adds ``repeats`` and the
#: ``faster_than_tane`` seconds gate.  v7 replaces that gate with
#: ``seconds_ratio`` (reliable seconds over TANE's) and the
#: ``within_seconds_ratio`` gate at :data:`FD_MINING_MAX_SECONDS_RATIO`.
#: v8 drops the ``parallel_sweep`` section and its two config keys, and
#: moves its host CPU count to ``environment.cpus``.  v9 drops the
#: ``pairwise`` section and ``pairwise_n``, and takes each sweep speedup as
#: the median of per-round ratios, the backends running round by round.
#: v10 takes those ratios over Phase 2 + 3 seconds (``kernel_phases_s``),
#: the phases where the backends differ; Phase 1 is the same scalar code
#: under every backend.
SCHEMA_VERSION = 10

FULL = {"sizes": (1000, 2000, 4000, 8000), "aib_leaves": 512,
        "repeats": 3, "phi": 1.0}
#: The smoke preset lowers ``phi`` so Phase 2 has enough summaries for the
#: kernels to matter even at CI-friendly input sizes.
SMOKE = {"sizes": (500, 1000), "aib_leaves": 192, "repeats": 1, "phi": 0.5}

#: The sweep's backends; each round rotates which of them runs first.
SWEEP_BACKENDS = ("sparse", "dense", "auto")

MAX_SUMMARIES = 200
K = 5

#: The ``fd_mining`` workload, the same in both presets: at the smoke
#: preset's 1,000 rows fixed costs decide the race between the miners.
FD_MINING_N_TUPLES = 8000
FD_MINING_REPEATS = 3

#: The reliable top-10 miner may take at most this share of TANE's seconds
#: on the ``fd_mining`` workload.
FD_MINING_MAX_SECONDS_RATIO = 0.5


def best_of(repeats, fn):
    """Minimum wall-clock over ``repeats`` runs (noise-robust) + last result."""
    elapsed, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = min(elapsed, time.perf_counter() - start)
    return elapsed, result


def timed_phases(view, backend, phi):
    """Per-phase wall-clock of one LIMBO run under ``backend``.

    ``pack_s`` is the packing overhead inside the run (the AIB merge
    engine's matrix gathers, the Phase-3 postings build): the price the
    kernel backends pay before their kernels start winning, gated in CI
    against Phase-1 time.
    """
    timings = {}
    kernels.reset_pack_seconds()
    start = time.perf_counter()
    limbo = Limbo(phi=phi, max_summaries=MAX_SUMMARIES, backend=backend).fit(
        view.rows, view.priors, mutual_information=view.mutual_information()
    )
    timings["phase1_s"] = time.perf_counter() - start

    start = time.perf_counter()
    sequence = limbo.merge_sequence()
    timings["phase2_s"] = time.perf_counter() - start

    start = time.perf_counter()
    representatives = sequence.clusters(min(K, len(limbo.summaries)))
    assignment = limbo.assign(representatives)
    timings["phase3_s"] = time.perf_counter() - start

    timings["total_s"] = sum(timings.values())
    timings["kernel_phases_s"] = timings["phase2_s"] + timings["phase3_s"]
    timings["summaries"] = len(limbo.summaries)
    timings["pack_s"] = kernels.pack_seconds()
    return timings, assignment


def run_limbo_sweep(relation, sizes, repeats, phi):
    """Three backends per size: the oracle, forced kernels, and the shipped
    ``auto`` default (kernels only where their thresholds say they win).

    The backends run round by round, each round rotating which goes first,
    so a slow phase of the host (they last tens of seconds) lands on all
    three alike.  Each backend reports its best round; each speedup is the
    median of the per-round ratios against sparse of Phase 2 + 3 seconds,
    the phases the backend steers.
    """
    rows = []
    for size in sizes:
        sliced = relation.take(range(size))
        view = build_tuple_view(sliced)
        entry = {
            "n_tuples": size,
            # Dictionary-encoding cost of this slice's columnar store (the
            # one-time ingest price the coded hot paths build on).
            "dict_build_s": sliced.coded.dict_build_s,
            "backends": {},
        }
        rounds = []
        assignments = {}
        for round_index in range(repeats):
            shift = round_index % len(SWEEP_BACKENDS)
            order = SWEEP_BACKENDS[shift:] + SWEEP_BACKENDS[:shift]
            timings = {}
            for backend in order:
                timings[backend], assignments[backend] = timed_phases(
                    view, backend, phi
                )
            rounds.append(timings)
        for backend in SWEEP_BACKENDS:
            entry["backends"][backend] = min(
                (round_times[backend] for round_times in rounds),
                key=lambda timing: timing["total_s"],
            )
        for backend in ("dense", "auto"):
            entry[f"speedup_{backend}"] = statistics.median(
                round_times["sparse"]["kernel_phases_s"]
                / round_times[backend]["kernel_phases_s"]
                for round_times in rounds
            )
        entry["assignments_identical"] = (
            assignments["sparse"] == assignments["dense"] == assignments["auto"]
        )
        rows.append(entry)
        best = entry["backends"]
        print(
            f"  limbo n={size}, phases 2+3 (total):"
            f" sparse {best['sparse']['kernel_phases_s']:.3f}s"
            f" ({best['sparse']['total_s']:.3f}s)"
            f"  dense {best['dense']['kernel_phases_s']:.3f}s"
            f" ({best['dense']['total_s']:.3f}s, {entry['speedup_dense']:.2f}x)"
            f"  auto {best['auto']['kernel_phases_s']:.3f}s"
            f" ({best['auto']['total_s']:.3f}s, {entry['speedup_auto']:.2f}x)"
            f"  parity={entry['assignments_identical']}"
        )
    return rows


def leaf_summaries(relation, n_leaves):
    """Phase-1 leaf DCFs to feed the AIB microbenchmarks."""
    view = build_tuple_view(relation)
    limbo = Limbo(phi=0.0).fit(
        view.rows, view.priors, mutual_information=view.mutual_information()
    )
    leaves = limbo.summaries
    if len(leaves) < n_leaves:
        raise SystemExit(
            f"need {n_leaves} leaf summaries, Phase 1 produced {len(leaves)}; "
            "increase the input slice"
        )
    return leaves[:n_leaves]


def run_aib_micro(leaves, repeats):
    results = {}
    sequences = {}
    for backend in ("sparse", "dense"):
        elapsed, result = best_of(repeats, lambda b=backend: aib(leaves, backend=b))
        results[f"{backend}_s"] = elapsed
        sequences[backend] = [
            (m.left, m.right, m.parent, m.loss) for m in result.dendrogram.merges
        ]
    results["n_leaves"] = len(leaves)
    results["speedup"] = results["sparse_s"] / results["dense_s"]
    results["merge_sequences_identical"] = sequences["sparse"] == sequences["dense"]
    print(
        f"  aib n={len(leaves)}: sparse {results['sparse_s']:.3f}s"
        f"  dense {results['dense_s']:.3f}s  speedup {results['speedup']:.2f}x"
        f"  parity={results['merge_sequences_identical']}"
    )
    return results


def run_fd_mining(relation, repeats, k=10, max_lhs_size=3):
    """Exhaustive TANE vs the reliable top-k miner on the same relation.

    Both miners report lattice work in the same unit -- one materialized
    partition per ``stats`` increment -- so the comparison is of search
    strategy, not of implementation constants.  The branch-and-bound miner
    must do *strictly less* lattice work than level-wise TANE at the same
    LHS cap, and take at most :data:`FD_MINING_MAX_SECONDS_RATIO` of TANE's
    seconds; that is its reason to exist, and the gates in ``main`` hold it
    to both on every run.
    """
    from repro.fd import mine_topk, tane
    from repro.fd.reliable import ReliableMiningStats

    tane_stats: dict = {}
    tane_s, _ = best_of(
        repeats, lambda: tane(relation, max_lhs_size=max_lhs_size,
                              stats=tane_stats)
    )
    # ``best_of`` reruns the miner; counters accumulate, so divide back.
    tane_partitions = tane_stats["partitions_computed"] // repeats

    reliable_stats = ReliableMiningStats()
    reliable_s, top = best_of(
        repeats, lambda: mine_topk(relation, k=k,
                                   max_lhs_size=max_lhs_size,
                                   stats=reliable_stats)
    )
    result = {
        "n_tuples": len(relation),
        "k": k,
        "max_lhs_size": max_lhs_size,
        "repeats": repeats,
        "tane": {
            "seconds": tane_s,
            "partitions_computed": tane_partitions,
        },
        "reliable": {
            "seconds": reliable_s,
            "partitions_computed":
                reliable_stats.partitions_computed // repeats,
            "nodes_visited": reliable_stats.nodes_visited // repeats,
            "candidates_scored":
                reliable_stats.candidates_scored // repeats,
            "subtrees_pruned": reliable_stats.subtrees_pruned // repeats,
            "top_score": top[0].score if top else None,
        },
    }
    result["fewer_partitions_than_tane"] = (
        result["reliable"]["partitions_computed"] < tane_partitions
    )
    result["seconds_ratio"] = reliable_s / tane_s
    result["within_seconds_ratio"] = (
        result["seconds_ratio"] <= FD_MINING_MAX_SECONDS_RATIO
    )
    print(
        f"  n={len(relation)}  tane {tane_partitions} partitions "
        f"({tane_s:.2f}s)  reliable top-{k} "
        f"{result['reliable']['partitions_computed']} partitions "
        f"({reliable_s:.2f}s, {result['reliable']['subtrees_pruned']} "
        f"subtrees pruned)  seconds ratio {result['seconds_ratio']:.2f}"
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_clustering.json"),
        help="output JSON path (default: ./BENCH_clustering.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small preset for CI (fewer tuples/leaves, one repeat)",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="exit non-zero unless the dense AIB speedup is at least X, "
        "neither auto nor dense loses to sparse on Phases 2 + 3 at the "
        "largest LIMBO sweep size (median of the per-round ratios), and "
        "dense packing stays within 20%% of Phase-1 time",
    )
    args = parser.parse_args(argv)

    preset = SMOKE if args.smoke else FULL
    relation = dblp(n_tuples=max(max(preset["sizes"]), 1000), seed=7)

    print(f"LIMBO sweep (phi={preset['phi']}, max_summaries={MAX_SUMMARIES}):")
    sweep = run_limbo_sweep(
        relation, preset["sizes"], preset["repeats"], preset["phi"]
    )

    print("AIB merge-loop microbenchmark:")
    leaves = leaf_summaries(
        relation.take(range(min(len(relation), 1000))), preset["aib_leaves"]
    )
    aib_micro = run_aib_micro(leaves, preset["repeats"])

    print(f"FD mining: exhaustive TANE vs reliable top-k "
          f"(n={FD_MINING_N_TUPLES}):")
    fd_mining = run_fd_mining(
        dblp(n_tuples=FD_MINING_N_TUPLES, seed=7), FD_MINING_REPEATS
    )

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "preset": "smoke" if args.smoke else "full",
            "sizes": list(preset["sizes"]),
            "phi": preset["phi"],
            "max_summaries": MAX_SUMMARIES,
            "k": K,
            "aib_leaves": preset["aib_leaves"],
            "repeats": preset["repeats"],
            "dataset": "dblp(seed=7)",
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "limbo_sweep": sweep,
        "aib": aib_micro,
        "fd_mining": fd_mining,
        # High-water-mark RSS of the whole benchmark process (bytes; None
        # where the platform offers no counter) -- the baseline memory
        # governance caps can be sanity-checked against.
        "peak_rss_bytes": peak_rss(),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    if not aib_micro["merge_sequences_identical"]:
        print("FAIL: backends disagree on the AIB merge sequence", file=sys.stderr)
        return 1
    if not all(entry["assignments_identical"] for entry in sweep):
        print("FAIL: backends disagree on Phase-3 assignments", file=sys.stderr)
        return 1
    if not fd_mining["fewer_partitions_than_tane"]:
        print(
            f"FAIL: reliable top-k computed "
            f"{fd_mining['reliable']['partitions_computed']} partitions at "
            f"n={fd_mining['n_tuples']}, not strictly fewer than TANE's "
            f"{fd_mining['tane']['partitions_computed']}",
            file=sys.stderr,
        )
        return 1
    if not fd_mining["within_seconds_ratio"]:
        print(
            f"FAIL: reliable top-k took {fd_mining['reliable']['seconds']:.2f}s"
            f" at n={fd_mining['n_tuples']}, {fd_mining['seconds_ratio']:.2f}"
            f" of TANE's {fd_mining['tane']['seconds']:.2f}s (at most "
            f"{FD_MINING_MAX_SECONDS_RATIO:.2f} allowed)",
            file=sys.stderr,
        )
        return 1
    if args.check_speedup is not None:
        if aib_micro["speedup"] < args.check_speedup:
            print(
                f"FAIL: dense AIB speedup {aib_micro['speedup']:.2f}x "
                f"< required {args.check_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        largest = sweep[-1]
        if largest["speedup_auto"] < 1.0:
            print(
                f"FAIL: the shipped auto backend at n={largest['n_tuples']} "
                f"is slower than sparse on Phases 2 + 3 (median round "
                f"ratio {largest['speedup_auto']:.2f}x)",
                file=sys.stderr,
            )
            return 1
        if largest["speedup_dense"] < 1.0:
            print(
                f"FAIL: the dense backend at n={largest['n_tuples']} "
                f"is slower than sparse on Phases 2 + 3 (median round "
                f"ratio {largest['speedup_dense']:.2f}x)",
                file=sys.stderr,
            )
            return 1
        dense_largest = largest["backends"]["dense"]
        if dense_largest["pack_s"] > 0.2 * dense_largest["phase1_s"]:
            print(
                f"FAIL: dense packing at n={largest['n_tuples']} costs "
                f"{dense_largest['pack_s']:.3f}s, over 20% of the "
                f"{dense_largest['phase1_s']:.3f}s Phase-1 time",
                file=sys.stderr,
            )
            return 1
        print(
            f"speedup gate passed: aib {aib_micro['speedup']:.2f}x >= "
            f"{args.check_speedup:.2f}x, sweep auto {largest['speedup_auto']:.2f}x"
            f" and dense {largest['speedup_dense']:.2f}x >= 1.0, "
            f"pack {dense_largest['pack_s']:.3f}s <= 20% of phase 1"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
