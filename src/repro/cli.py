"""Command-line interface: ``python -m repro <command> ...``.

Five commands cover the analyst workflow the paper describes:

* ``discover``   -- full structure-discovery report for a CSV relation;
* ``rank``       -- mine dependencies and print the FD-RANK order with
                    RAD/RTR for each;
* ``partition``  -- horizontal partitioning with the natural-k heuristic;
* ``redesign``   -- propose a lossless vertical decomposition;
* ``dataset``    -- emit the synthetic DB2-sample / DBLP relations as CSV;
* ``serve``      -- a resident HTTP daemon serving discovery over JSON,
                    with admission control, a crash-safe model cache and
                    graceful SIGTERM drain (see ``docs/SERVICE.md``);
* ``audit``      -- independently re-certify a ``discover --out-json``
                    report against its source CSV: exact FDs by partition
                    refinement, reliable scores against a re-derived
                    fraction of information, cluster assignments against
                    the DCF summaries, dendrogram monotonicity (see
                    ``docs/ROBUSTNESS.md``); exits 1 naming the offending
                    artifact when anything fails.

``discover --verify`` runs the same auditor in-process over the freshly
mined report (adding a ``verification`` health entry and, with
``--checkpoint-dir``, an ``audit.json`` next to the snapshots); a failed
verification exits 1.  ``--out-json`` writes the machine-readable report
the standalone ``audit`` command consumes.

CSV conventions follow :mod:`repro.relation.io`: a header row, empty fields
are NULLs.  CSV-consuming commands accept ``--on-error {strict,coerce}``
(malformed input: fail with a line number vs. repair-and-count),
``--deadline SECONDS`` (a wall-clock budget threaded through the miners and
clustering phases) and ``--memory-limit SIZE`` (e.g. ``256M``: a
cooperative memory cap enforced by :class:`repro.budget.MemoryGovernor`;
breaching it exits 3, except under ``discover``'s degradation policy).
``discover`` additionally takes ``--checkpoint-dir`` / ``--resume`` /
``--checkpoint-cadence`` for durable checkpoint/resume of interrupted
runs, ``--supervise`` / ``--max-restarts`` / ``--hang-timeout`` for
crash/hang-supervised runs that auto-resume from those checkpoints, plus
``--on-memory-pressure {fail,degrade}`` and ``--max-leaf-entries N`` for
memory-governed execution (see ``docs/ROBUSTNESS.md``).  ``discover`` and
``rank`` both take ``--fd-mode {exact,reliable,topk}`` with ``--fd-k``,
``--fd-alpha``, ``--fd-max-lhs`` and ``--seed`` to swap the exact miners for the reliable
branch-and-bound miner of ``repro.fd.reliable`` (see ``docs/FD_MINING.md``).  All file outputs (``--out`` and snapshots alike)
are written atomically: temp file + ``os.replace``, so an interrupt never
leaves a half-written file.

Exit codes: 0 success (including degraded ``discover`` runs), 1 other
library errors, 2 input/usage errors, 3 resource limit exceeded, 130
interrupted.
"""

from __future__ import annotations

import argparse
import sys

from repro.budget import Budget, parse_memory_size
from repro.core import (
    StructureDiscovery,
    fd_rank,
    group_attributes,
    horizontal_partition,
    redundancy_report,
)
from repro.core.discovery import resolve_miner
from repro.core.redesign import vertical_redesign
from repro.datasets import db2_sample, dblp
from repro.errors import (
    InputError,
    MemoryLimitExceeded,
    ReproError,
    ResourceLimitExceeded,
)
from repro.fd import fdep, mine_reliable_fds, minimum_cover, tane
from repro.relation import Relation, load_csv, write_csv

#: Exit codes for the failure classes the taxonomy distinguishes.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INPUT = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERRUPT = 130


def _memory_limit_arg(value: str) -> int:
    """argparse type for ``--memory-limit``: bytes, or a size like 256M."""
    try:
        parsed = parse_memory_size(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if parsed <= 0:
        raise argparse.ArgumentTypeError("--memory-limit must be positive")
    return parsed


def _add_fd_mode_arguments(parser: argparse.ArgumentParser) -> None:
    """The reliable-FD-mining knobs shared by ``discover`` and ``rank``."""
    parser.add_argument(
        "--fd-mode", choices=("exact", "reliable", "topk"), default="exact",
        help="dependency miner: exact minimal FDs + minimum cover (exact), "
        "or the reliable branch-and-bound miner scored by bias-corrected "
        "fraction of information -- every FD above 1-alpha (reliable) or "
        "the k best (topk); reliable modes skip the exhaustive cover and "
        "feed FD-RANK directly",
    )
    parser.add_argument(
        "--fd-k", type=int, default=10, metavar="K",
        help="result size for --fd-mode=topk (default: 10)",
    )
    parser.add_argument(
        "--fd-max-lhs", type=int, default=3, metavar="N",
        help="LHS size cap for the reliable modes; 0 lifts the cap "
        "(default: 3 -- wide relations explode the uncapped lattice)",
    )
    parser.add_argument(
        "--fd-alpha", type=float, default=0.05, metavar="ALPHA",
        help="reliability level for the reliable modes: score threshold "
        "1-ALPHA (reliable) and confidence level of sampled-fallback "
        "radii (default: 0.05)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for every randomized ingredient (the reliable "
        "miner's sampled fallback); same seed, byte-identical output",
    )


def _add_csv_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="input relation (headered CSV; empty field = NULL)")
    parser.add_argument(
        "--on-error", choices=("strict", "coerce"), default="strict",
        help="malformed CSV policy: fail with a line number (strict) or "
        "repair-and-count (coerce)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; exceeding it aborts with exit code 3 "
        "(discover degrades instead of aborting)",
    )
    parser.add_argument(
        "--memory-limit", type=_memory_limit_arg, default=None,
        metavar="SIZE",
        help="cooperative memory cap (e.g. 256M); breaching it aborts with "
        "exit code 3 (discover degrades under --on-memory-pressure=degrade)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Information-theoretic database structure mining "
        "(Andritsos, Miller & Tsaparas, SIGMOD 2004).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    discover = commands.add_parser("discover", help="full structure report")
    _add_csv_argument(discover)
    discover.add_argument("--phi-t", type=float, default=0.0)
    discover.add_argument("--phi-v", type=float, default=0.0)
    discover.add_argument("--psi", type=float, default=0.5)
    discover.add_argument("--top", type=int, default=5)
    discover.add_argument(
        "--strict-stages", action="store_true",
        help="fail the run on the first stage failure instead of degrading",
    )
    discover.add_argument(
        "--backend", choices=("auto", "sparse", "dense"), default="auto",
        help="numeric backend for the clustering stages (any choice "
        "produces bit-identical output)",
    )
    discover.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe stage snapshots into DIR as the run "
        "progresses; corrupt snapshots are quarantined, never trusted",
    )
    discover.add_argument(
        "--resume", action="store_true",
        help="reuse valid snapshots a previous identical run left in "
        "--checkpoint-dir instead of recomputing those stages",
    )
    discover.add_argument(
        "--checkpoint-cadence", type=int, default=None, metavar="UNITS",
        help="budget units between intra-stage progress heartbeats "
        "(default: 10000)",
    )
    discover.add_argument(
        "--supervise", action="store_true",
        help="run the pipeline in a supervised child process: crashes "
        "(SIGKILL, SIGSEGV, OOM-kill) and heartbeat hangs auto-resume from "
        "the checkpoint store with bounded restarts; incident.json next to "
        "the snapshots records the attempt timeline",
    )
    discover.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="restarts a supervised run may spend before giving up with "
        "exit code 1 (default: 5; requires --supervise)",
    )
    discover.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="heartbeat staleness after which a supervised child is "
        "declared hung and restarted (default: 300; requires --supervise)",
    )
    discover.add_argument(
        "--on-memory-pressure", choices=("fail", "degrade"),
        default="degrade",
        help="response to exceeding --memory-limit: abort with exit code 3 "
        "(fail) or climb the memory degradation ladder and finish (degrade)",
    )
    discover.add_argument(
        "--max-leaf-entries", type=int, default=None, metavar="N",
        help="space-bounded LIMBO: cap Phase-1 DCF-tree leaf entries at N, "
        "escalating the merge threshold when the buffer overflows",
    )
    discover.add_argument(
        "--verify", action="store_true",
        help="independently re-certify every artifact of the report "
        "(exact FDs by partition refinement, reliable scores, cluster "
        "assignments, dendrogram monotonicity); violations exit 1 and "
        "name the offending artifact",
    )
    discover.add_argument(
        "--out-json", default=None, metavar="PATH",
        help="also write the machine-readable report (summary + full "
        "artifacts) to PATH; 'repro audit PATH data.csv' re-certifies it "
        "offline",
    )
    _add_fd_mode_arguments(discover)

    audit = commands.add_parser(
        "audit", help="re-certify a discover --out-json report")
    audit.add_argument("report", help="report JSON written by "
                       "'discover --out-json'")
    audit.add_argument("csv", help="the source relation the report claims "
                       "to describe (headered CSV; empty field = NULL)")
    audit.add_argument(
        "--on-error", choices=("strict", "coerce"), default="strict",
        help="malformed CSV policy while re-reading the source relation",
    )
    audit.add_argument(
        "--seed", type=int, default=0,
        help="seed for the auditor's sampling choices (which tuples / "
        "dependencies get re-derived)",
    )

    rank = commands.add_parser("rank", help="rank mined dependencies")
    _add_csv_argument(rank)
    rank.add_argument("--psi", type=float, default=0.5)
    rank.add_argument("--phi-v", type=float, default=0.0)
    rank.add_argument(
        "--miner", choices=("auto", "fdep", "tane"), default="auto"
    )
    rank.add_argument("--top", type=int, default=10)
    _add_fd_mode_arguments(rank)

    partition = commands.add_parser("partition", help="horizontal partitioning")
    _add_csv_argument(partition)
    partition.add_argument("--k", type=int, default=None,
                           help="cluster count (default: knee heuristic)")
    partition.add_argument("--phi-t", type=float, default=1.0)
    partition.add_argument("--out", default=None,
                           help="prefix to write one CSV per partition")

    redesign = commands.add_parser("redesign", help="vertical decomposition")
    _add_csv_argument(redesign)
    redesign.add_argument("--max-fragments", type=int, default=4)
    redesign.add_argument("--psi", type=float, default=0.5)
    redesign.add_argument("--min-rtr", type=float, default=0.2)
    redesign.add_argument("--out", default=None,
                          help="prefix to write one CSV per fragment")

    profile = commands.add_parser("profile", help="per-attribute statistics")
    _add_csv_argument(profile)
    profile.add_argument("--top", type=int, default=3,
                         help="top values shown per attribute")

    dataset = commands.add_parser("dataset", help="emit a synthetic data set")
    dataset.add_argument("name", choices=("db2", "dblp"))
    dataset.add_argument("--out", required=True, help="output CSV path")
    dataset.add_argument("--n", type=int, default=8000,
                         help="DBLP tuple count (ignored for db2)")
    dataset.add_argument("--seed", type=int, default=7)

    serve = commands.add_parser(
        "serve", help="resident discovery daemon (HTTP, JSON)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="listen port (0 = pick a free one; the bound "
                       "port is printed and written to service.json in the "
                       "checkpoint dir)")
    serve.add_argument(
        "--checkpoint-dir", required=True, metavar="DIR",
        help="durable home of the daemon: relation snapshots, the model "
        "cache and the single-daemon lock all live here")
    serve.add_argument(
        "--max-inflight", type=int, default=4, metavar="N",
        help="concurrent requests allowed to execute (default: 4)")
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="requests allowed to wait for a slot before new arrivals are "
        "shed with 429 + Retry-After (default: 16)")
    serve.add_argument(
        "--request-deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-request wall-clock budget threaded into every discovery "
        "call (default: 30)")
    serve.add_argument(
        "--memory-limit", type=_memory_limit_arg, default=None,
        metavar="SIZE",
        help="cooperative memory cap shared by all requests; a quarter of "
        "it budgets the resident model cache")
    serve.add_argument(
        "--grace", type=float, default=10.0, metavar="SECONDS",
        help="seconds in-flight requests get to finish after SIGTERM "
        "before the daemon exits anyway (default: 10)")
    serve.add_argument(
        "--remine-after", type=int, default=256, metavar="ROWS",
        help="staleness watermark: rows absorbed into a relation's model "
        "before a background re-mine is scheduled; 0 disables (default: "
        "256)")
    serve.add_argument(
        "--fd-k", type=int, default=10, metavar="K",
        help="top-k size of the reliable FD miner backing served models "
        "(default: 10)")
    serve.add_argument(
        "--seed", type=int, default=0,
        help="base seed for every randomized ingredient; same seed, "
        "byte-identical models")

    return parser


def _validate_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject out-of-domain parameters up front with usage-style errors.

    Keeps deep library ``ValueError`` tracebacks (negative phi, psi outside
    [0, 1], ...) from ever being the user's first hint.
    """
    def require(condition: bool, message: str) -> None:
        if not condition:
            parser.error(message)

    for knob in ("phi_t", "phi_v"):
        value = getattr(args, knob, None)
        if value is not None:
            require(value >= 0.0, f"--{knob.replace('_', '-')} must be >= 0")
    psi = getattr(args, "psi", None)
    if psi is not None:
        require(0.0 <= psi <= 1.0, "--psi must be in [0, 1]")
    top = getattr(args, "top", None)
    if top is not None:
        require(top >= 1, "--top must be >= 1")
    k = getattr(args, "k", None)
    if k is not None:
        require(k >= 2, "--k must be >= 2")
    deadline = getattr(args, "deadline", None)
    if deadline is not None:
        require(deadline > 0.0, "--deadline must be positive")
    min_rtr = getattr(args, "min_rtr", None)
    if min_rtr is not None:
        require(0.0 <= min_rtr <= 1.0, "--min-rtr must be in [0, 1]")
    max_fragments = getattr(args, "max_fragments", None)
    if max_fragments is not None:
        require(max_fragments >= 1, "--max-fragments must be >= 1")
    n = getattr(args, "n", None)
    if n is not None:
        require(n >= 1, "--n must be >= 1")
    cadence = getattr(args, "checkpoint_cadence", None)
    if cadence is not None:
        require(cadence >= 1, "--checkpoint-cadence must be >= 1")
    max_restarts = getattr(args, "max_restarts", None)
    if max_restarts is not None:
        require(getattr(args, "supervise", False),
                "--max-restarts requires --supervise")
        require(max_restarts >= 0, "--max-restarts must be >= 0")
    hang_timeout = getattr(args, "hang_timeout", None)
    if hang_timeout is not None:
        require(getattr(args, "supervise", False),
                "--hang-timeout requires --supervise")
        require(hang_timeout > 0, "--hang-timeout must be positive")
    leaf_entries = getattr(args, "max_leaf_entries", None)
    if leaf_entries is not None:
        require(leaf_entries >= 1, "--max-leaf-entries must be >= 1")
    fd_k = getattr(args, "fd_k", None)
    if fd_k is not None:
        require(fd_k >= 1, "--fd-k must be >= 1")
    fd_alpha = getattr(args, "fd_alpha", None)
    if fd_alpha is not None:
        require(0.0 < fd_alpha < 1.0, "--fd-alpha must be in (0, 1)")
    fd_max_lhs = getattr(args, "fd_max_lhs", None)
    if fd_max_lhs is not None:
        require(fd_max_lhs >= 0, "--fd-max-lhs must be >= 0")
    if getattr(args, "command", None) == "serve":
        require(0 <= args.port <= 65535, "--port must be in [0, 65535]")
        require(args.max_inflight >= 1, "--max-inflight must be >= 1")
        require(args.queue_depth >= 0, "--queue-depth must be >= 0")
        require(args.request_deadline > 0,
                "--request-deadline must be positive")
        require(args.grace >= 0, "--grace must be >= 0")
        require(args.remine_after >= 0, "--remine-after must be >= 0")
        require(args.fd_k >= 1, "--fd-k must be >= 1")


def _load_relation(args, budget: Budget | None = None):
    """Read the command's CSV under its policy, reporting repairs to stderr.

    With a memory-governed ``budget``, ingestion streams through
    :func:`repro.relation.iter_csv` so the governor samples RSS while the
    rows accumulate; a breach either aborts (exit 3) or -- under
    ``discover --on-memory-pressure=degrade`` -- retries with an
    escalating row stride (deterministic thinning, noted on stderr).
    """
    if budget is None or getattr(budget, "memory", None) is None:
        relation, report = load_csv(args.csv, on_error=args.on_error)
    else:
        relation, report = _governed_load(args, budget)
    if not report.clean:
        print(f"repro: {report.summary()}", file=sys.stderr)
    return relation


#: Stride ceiling for degraded ingest; past this the governor goes
#: best-effort rather than discard more than ~99.9% of the data.
_MAX_INGEST_STRIDE = 1024


def _governed_load(args, budget: Budget):
    """Memory-governed streaming ingest with the strided degrade path.

    Chunks are dictionary-encoded into a coded column store as they stream
    in (never buffered as value tuples), so the resident cost of the load
    is the int32 columns plus the dictionaries.  First-seen encoding makes
    the result identical to encoding the strided row stream in one piece.
    """
    from repro.relation import iter_csv
    from repro.relation.columns import ColumnStore
    from repro.relation.io import IngestReport

    degrade = getattr(args, "on_memory_pressure", "fail") == "degrade"
    stride = 1
    while True:
        report = IngestReport(path=str(args.csv), policy=args.on_error)
        schema, store = None, None
        try:
            for schema, chunk in iter_csv(
                args.csv, on_error=args.on_error, report=report, budget=budget,
            ):
                if store is None:
                    store = ColumnStore(schema.names)
                store.append_rows(chunk if stride == 1 else chunk[::stride])
        except MemoryLimitExceeded:
            if not degrade:
                raise
            del store
            if stride >= _MAX_INGEST_STRIDE:
                # Thinning further would discard nearly everything; stop
                # enforcing and let the pipeline's ladder cope instead.
                budget.memory.set_best_effort()
            else:
                stride *= 2
            continue
        if stride > 1:
            report.notes.append(
                f"memory pressure during ingest: kept every {stride}th row"
            )
        return Relation.from_columns(schema, store), report


def _budget_of(args) -> Budget | None:
    deadline = getattr(args, "deadline", None)
    memory_limit = getattr(args, "memory_limit", None)
    if deadline is None and memory_limit is None:
        return None
    return Budget(deadline=deadline, max_memory_bytes=memory_limit)


def _cmd_discover(args) -> int:
    if args.resume and args.checkpoint_dir is None:
        print(
            "repro: input error: --resume needs --checkpoint-dir DIR to "
            "know which snapshots to resume from (pass the directory the "
            "interrupted run was checkpointing into)",
            file=sys.stderr,
        )
        return EXIT_INPUT
    budget = _budget_of(args)
    relation = _load_relation(args, budget)
    checkpoint = None
    if args.checkpoint_dir is not None:
        from repro.checkpoint import DEFAULT_CADENCE, CheckpointStore

        checkpoint = CheckpointStore(
            args.checkpoint_dir,
            cadence=args.checkpoint_cadence or DEFAULT_CADENCE,
            resume=args.resume,
        )
    supervise = None
    if args.supervise:
        from repro.supervisor import SupervisorConfig

        supervise = SupervisorConfig(
            max_restarts=args.max_restarts
            if args.max_restarts is not None else 5,
            hang_timeout=args.hang_timeout
            if args.hang_timeout is not None else 300.0,
        )
    report = StructureDiscovery(
        phi_t=args.phi_t, phi_v=args.phi_v, psi=args.psi,
        fd_mode=args.fd_mode, fd_k=args.fd_k, fd_alpha=args.fd_alpha,
        fd_max_lhs=args.fd_max_lhs or None, seed=args.seed,
        strict=args.strict_stages, backend=args.backend, checkpoint=checkpoint,
        on_memory_pressure=args.on_memory_pressure,
        max_leaf_entries=args.max_leaf_entries,
        supervise=supervise, verify=args.verify,
    ).run(relation, budget=budget)
    print(report.render(top=args.top))
    if args.out_json:
        import json

        from repro.relation.io import atomic_write

        with atomic_write(args.out_json) as handle:
            json.dump(report.to_json(top=args.top), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"repro: report JSON written to {args.out_json}",
              file=sys.stderr)
    certificate = report.audit_certificate
    if args.verify and certificate is not None and not certificate.ok:
        for violation in certificate.violations:
            print(f"repro: audit violation: {violation}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_audit(args) -> int:
    import json

    from repro.audit import audit_json_report

    try:
        with open(args.report, encoding="utf-8") as handle:
            blob = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read report {args.report!r}: {exc}")
    except ValueError as exc:
        raise InputError(f"report {args.report!r} is not JSON: {exc}")
    if not isinstance(blob, dict):
        raise InputError(f"report {args.report!r} is not a JSON object")
    relation, ingest = load_csv(args.csv, on_error=args.on_error)
    if not ingest.clean:
        print(f"repro: {ingest.summary()}", file=sys.stderr)
    certificate = audit_json_report(blob, relation, seed=args.seed)
    print(certificate.render())
    if not certificate.ok:
        for violation in certificate.violations:
            print(f"repro: audit violation: {violation}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_rank(args) -> int:
    budget = _budget_of(args)
    relation = _load_relation(args, budget)
    if args.fd_mode != "exact":
        mined = mine_reliable_fds(
            relation, mode=args.fd_mode, k=args.fd_k,
            alpha=args.fd_alpha, seed=args.seed,
            max_lhs_size=args.fd_max_lhs or None, budget=budget,
        )
        cover = [entry.fd for entry in mined]
        print(f"{len(mined)} reliable dependencies mined "
              f"({args.fd_mode}); exhaustive cover skipped")
        for entry in mined[: args.top]:
            print(f"  {entry}")
    else:
        miner = resolve_miner(args.miner, len(relation))
        if miner == "fdep":
            fds = fdep(relation, budget=budget)
        else:
            fds = tane(relation, max_lhs_size=3, budget=budget)
        cover = minimum_cover(fds, group_rhs=True)
        print(f"{len(fds)} dependencies mined ({miner}); "
              f"cover of {len(cover)}")
    grouping = group_attributes(relation, phi_v=args.phi_v, budget=budget)
    for entry in fd_rank(cover, grouping, psi=args.psi)[: args.top]:
        report = redundancy_report(relation, entry.fd)
        print(
            f"  {entry.fd}  rank={entry.rank:.4f} "
            f"RAD={report['rad']:.3f} RTR={report['rtr']:.3f}"
        )
    return EXIT_OK


def _cmd_partition(args) -> int:
    budget = _budget_of(args)
    relation = _load_relation(args, budget)
    result = horizontal_partition(
        relation, k=args.k, phi_t=args.phi_t, budget=budget
    )
    print(f"k = {result.k} "
          f"(relative information loss {result.relative_information_loss:.2%})")
    for index, part in enumerate(
        sorted(result.partitions, key=len, reverse=True), start=1
    ):
        print(f"  partition {index}: {len(part)} tuples")
        if args.out:
            path = f"{args.out}.part{index}.csv"
            write_csv(part, path)
            print(f"    written to {path}")
    return EXIT_OK


def _cmd_redesign(args) -> int:
    budget = _budget_of(args)
    relation = _load_relation(args, budget)
    result = vertical_redesign(
        relation,
        max_fragments=args.max_fragments,
        psi=args.psi,
        min_rtr=args.min_rtr,
        budget=budget,
    )
    print(result.render())
    if args.out:
        for name, fragment in result.fragments.items():
            path = f"{args.out}.{name}.csv"
            write_csv(fragment, path)
            print(f"  written {path}")
        if result.remainder is not None:
            path = f"{args.out}.remainder.csv"
            write_csv(result.remainder, path)
            print(f"  written {path}")
    return EXIT_OK


def _cmd_profile(args) -> int:
    from repro.core import profile_relation

    relation = _load_relation(args, _budget_of(args))
    profile = profile_relation(relation)
    print(profile.render(top=args.top))
    null_heavy = profile.null_heavy()
    if null_heavy:
        print(f"\nmostly-NULL attributes (store separately?): {null_heavy}")
    keys = profile.key_candidates()
    if keys:
        print(f"key candidates: {keys}")
    return EXIT_OK


def _cmd_dataset(args) -> int:
    if args.name == "db2":
        relation = db2_sample(seed=args.seed).relation
    else:
        relation = dblp(n_tuples=args.n, seed=args.seed)
    write_csv(relation, args.out)
    print(f"wrote {len(relation)} tuples x {relation.arity} attributes to {args.out}")
    return EXIT_OK


def _cmd_serve(args) -> int:
    from repro.checkpoint import CheckpointStore
    from repro.errors import CheckpointError
    from repro.service import Daemon, DiscoveryApp, run_daemon

    store = CheckpointStore(args.checkpoint_dir)
    try:
        store.acquire_lock()
    except CheckpointError as exc:
        # Two daemons sharing one store would corrupt each other's model
        # cache; refusing to start is a usage error, not a crash.
        print(f"repro: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    budget = None
    if args.memory_limit is not None:
        budget = Budget(max_memory_bytes=args.memory_limit)
    app = DiscoveryApp(
        store,
        params={"fd_k": args.fd_k, "seed": args.seed},
        cache_bytes=(args.memory_limit // 4
                     if args.memory_limit is not None else 64 << 20),
        remine_after=args.remine_after,
    )
    daemon = Daemon(
        app, host=args.host, port=args.port,
        max_inflight=args.max_inflight, queue_depth=args.queue_depth,
        request_deadline=args.request_deadline, grace=args.grace,
        budget=budget,
    )
    try:
        return run_daemon(daemon)
    finally:
        store.release_lock()


_COMMANDS = {
    "audit": _cmd_audit,
    "discover": _cmd_discover,
    "rank": _cmd_rank,
    "partition": _cmd_partition,
    "redesign": _cmd_redesign,
    "profile": _cmd_profile,
    "dataset": _cmd_dataset,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    """Entry point (returns a process exit code; never dumps a traceback
    for the failure classes the taxonomy covers)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except ResourceLimitExceeded as exc:
        print(f"repro: resource limit exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except InputError as exc:
        print(f"repro: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
