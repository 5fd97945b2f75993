"""Deterministic chaos campaign over the whole fault registry.

Every entry of :data:`repro.testing.faults.FAULT_POINTS` gets a *drill*: a
recipe that builds a workload which actually reaches the point, injects the
fault in one of the :data:`CHAOS_MODES`, and asserts the global robustness
contract:

1. every failure surfaces as a *classified* error (a
   :class:`repro.errors.ReproError` subclass with a stable CLI exit code,
   or a clean HTTP error status) -- never an unclassified traceback;
2. degraded output is always flagged (a report whose artifacts differ from
   the clean baseline must not claim ``healthy``);
3. checkpoints are never poisoned (a clean resumed run over the faulted
   cell's store reproduces the baseline artifacts bit-identically);
4. every surviving report also passes the independent
   :class:`repro.audit.Auditor`.

The registry is checked against ``FAULT_POINTS`` programmatically
(:func:`drill_registry` raises if a point has no drill), so a new fault
point cannot silently escape the campaign.  Cell ordering and subset
selection are pure functions of the seed (:mod:`repro.seeding`), making the
CI subset reproducible.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import InputError, ReproError
from repro.seeding import derive_rng
from repro.testing.faults import FAULT_POINTS, inject

#: The three injection modes of the fault matrix.  ``raise`` fires the
#: drill's exception on every hit, ``corrupt`` rewrites the value flowing
#: through the point, ``once`` fires a single time and lets the run
#: recover (pipeline drills add a checkpointed clean re-run to prove the
#: store was not poisoned).
CHAOS_MODES = ("raise", "corrupt", "once")

_CHAOS_ERROR = RuntimeError  # default injected failure type

#: Forged RSS reading: far above any test cap, triggers the memory ladder.
_FORGED_RSS = 1 << 44


class ChaosContractViolation(AssertionError):
    """A cell broke the global robustness contract."""

    def __init__(self, point: str, mode: str, reason: str):
        super().__init__(f"[{point} x {mode}] {reason}")
        self.point = point
        self.mode = mode
        self.reason = reason


# -- corrupt / child-setup helpers (module-level: spawn-safe) -----------------------


def _rot_bytes(raw: bytes) -> bytes:
    """Flip a byte in the middle of a serialized blob (storage rot)."""
    data = bytearray(raw)
    if data:
        data[len(data) // 2] ^= 0xFF
    return bytes(data)


def _garbage_row(row):
    """Widen a CSV row: the arity-mismatch corruption ingest must police."""
    return list(row) + ["chaos-extra-cell"]


def _forge_rss(rss: int) -> int:
    return _FORGED_RSS


def _frozen_heartbeat(status):
    from repro.checkpoint import HeartbeatStatus

    return HeartbeatStatus(state="ok", age_seconds=99.0, mtime_ns=1,
                           payload={"stage": "mining", "units_used": 0,
                                    "wall_time": 0.0, "pid": -1})


def _observe(value):
    return value


def _sigkill_self(value):
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _arm_kill_bomb(kill_attempts, attempt):
    """SIGKILL the supervised child at the top of mining on listed attempts."""
    if attempt in kill_attempts:
        ctx = inject("discovery.mining", corrupt=_sigkill_self)
        ctx.__enter__()
        _ARMED.append(ctx)


def _arm_mining_stall(stall_attempts, attempt):
    """Stall mining far past the drill's hang timeout on listed attempts."""
    if attempt in stall_attempts:
        ctx = inject("discovery.mining", delay=60.0)
        ctx.__enter__()
        _ARMED.append(ctx)


#: Entered in-child inject contexts (a collected context disarms itself).
_ARMED = []


# -- the drill registry -------------------------------------------------------------


@dataclass(frozen=True)
class Drill:
    """How to reach one fault point and which injections apply to it."""

    point: str
    runner: str  # "pipeline" | "ingest" | "supervised" | "service"
    modes: tuple
    discovery: tuple = ()  # extra StructureDiscovery kwargs, as item pairs
    raises: type = _CHAOS_ERROR
    corrupt: object = None
    checkpointed: bool = False  # give the faulted run a store + prove resume
    preseed: bool = False  # populate the store with a clean run first
    notes: str = ""

    def discovery_kwargs(self) -> dict:
        return dict(self.discovery)


def _pipeline(point, modes=("raise", "once"), discovery=(), **kw):
    return Drill(point=point, runner="pipeline", modes=modes,
                 discovery=tuple(discovery), **kw)


_DRILLS = (
    _pipeline("discovery.tuple_clustering"),
    _pipeline("discovery.value_clustering"),
    _pipeline("discovery.attribute_grouping"),
    _pipeline("discovery.mining"),
    _pipeline("discovery.cover"),
    _pipeline("discovery.rank"),
    Drill(point="io.read_csv.row", runner="ingest",
          modes=("raise", "corrupt", "once"), raises=InputError,
          corrupt=_garbage_row,
          notes="strict load surfaces InputError (exit 2); coerce repairs "
                "and flags"),
    _pipeline("fd.fdep.pairs", discovery=(("miner", "fdep"),)),
    _pipeline("fd.tane.level", discovery=(("miner", "tane"),)),
    _pipeline("fd.reliable.node",
              discovery=(("fd_mode", "topk"), ("fd_k", 5))),
    _pipeline("limbo.fit"),
    _pipeline("limbo.assign"),
    _pipeline("memory.sample", modes=("corrupt", "once"),
              discovery=(("memory_limit", 256 << 20),),
              corrupt=_forge_rss,
              notes="forged RSS breach climbs the memory ladder"),
    _pipeline("limbo.buffer_overflow", modes=("raise",),
              discovery=(("max_leaf_entries", 4),),
              notes="space-bounded Phase 1 overflow path"),
    _pipeline("checkpoint.save", modes=("raise", "corrupt", "once"),
              corrupt=_rot_bytes, checkpointed=True,
              notes="rotted/failed saves must never poison a resume"),
    _pipeline("checkpoint.load", modes=("raise", "corrupt", "once"),
              corrupt=_rot_bytes, checkpointed=True, preseed=True,
              notes="rotted snapshots are quarantined and recomputed"),
    Drill(point="supervisor.spawn", runner="supervised",
          modes=("raise", "once"), raises=OSError,
          notes="unlimited spawn failure gives up classified; one failure "
                "is retried to the identical report"),
    Drill(point="supervisor.heartbeat", runner="supervised",
          modes=("corrupt",), corrupt=_frozen_heartbeat,
          notes="frozen heartbeat + stalled child: reaped as a hang, "
                "resumed bit-identically, traceback journaled"),
    Drill(point="supervisor.escalate", runner="supervised",
          modes=("corrupt",), corrupt=_observe,
          notes="kill-bomb makes mining a poison stage; escalation "
                "decisions flow through the point"),
    Drill(point="service.accept", runner="service", modes=("once",),
          notes="accept fault costs exactly one connection"),
    Drill(point="service.handler", runner="service", modes=("raise", "once"),
          notes="handler crashes are single clean 500s"),
    Drill(point="service.cache_load", runner="service", modes=("corrupt",),
          corrupt=_rot_bytes,
          notes="rotted cached model is quarantined and recomputed to "
                "identical answers"),
    Drill(point="service.drain", runner="service", modes=("raise",),
          notes="drain-hook failure still exits 0"),
)


def drill_registry() -> dict:
    """``{fault point: Drill}``, verified complete against the registry."""
    registry = {drill.point: drill for drill in _DRILLS}
    missing = FAULT_POINTS - set(registry)
    unknown = set(registry) - FAULT_POINTS
    if missing or unknown:
        raise AssertionError(
            f"chaos drills out of sync with FAULT_POINTS: "
            f"missing={sorted(missing)} unknown={sorted(unknown)}")
    for point, drill in registry.items():
        bad = set(drill.modes) - set(CHAOS_MODES)
        if bad or not drill.modes:
            raise AssertionError(f"drill {point}: invalid modes {bad}")
        if "corrupt" in drill.modes and drill.corrupt is None:
            raise AssertionError(f"drill {point}: corrupt mode without a "
                                 f"corrupt function")
    return registry


def campaign_cells(points=None, modes=None, sample=None, seed=0) -> list:
    """The (point, mode) cells to run, deterministically ordered.

    ``sample`` keeps a seeded subset of that size (the per-PR CI slice);
    the full matrix runs when it is ``None``.  Selection is a pure
    function of ``seed``.
    """
    registry = drill_registry()
    cells = [(point, mode)
             for point in sorted(registry)
             for mode in registry[point].modes
             if modes is None or mode in modes]
    if points is not None:
        wanted = set(points)
        cells = [cell for cell in cells if cell[0] in wanted]
    if sample is not None and sample < len(cells):
        rng = derive_rng(seed, "chaos.subset")
        picked = sorted(rng.choice(len(cells), size=sample, replace=False))
        cells = [cells[i] for i in picked]
    return cells


# -- cell results -------------------------------------------------------------------


@dataclass
class ChaosCell:
    """Outcome of one (point, mode) drill cell."""

    point: str
    mode: str
    runner: str
    status: str = "ok"  # "ok" | "skipped"
    detail: str = ""
    fired: int = 0
    flagged: bool | None = None  # report marked unhealthy
    identical: bool | None = None  # artifacts bit-identical to baseline
    classified: str | None = None  # error class when the run failed
    audited: bool | None = None  # surviving report passed the Auditor

    def render(self) -> str:
        bits = [f"{self.point:<28} {self.mode:<8} {self.status:<8}"]
        if self.classified:
            bits.append(f"error={self.classified}")
        if self.identical is not None:
            bits.append("identical" if self.identical else "diverged")
        if self.flagged:
            bits.append("flagged-degraded")
        if self.audited is not None:
            bits.append("audit=ok" if self.audited else "audit=FAIL")
        if self.detail:
            bits.append(f"({self.detail})")
        return "  ".join(bits)


# -- the campaign runner ------------------------------------------------------------


def chaos_relation(n: int = 36):
    """The deterministic workload: real FDs, duplicates, >1 cluster."""
    from repro.relation import Relation

    rows = []
    for index in range(n):
        group = index % 4
        rows.append((f"e{index}", f"d{group}", f"loc{group}", f"m{group}",
                     f"p{index % 2}"))
    return Relation(["emp", "dept", "loc", "mgr", "proj"], rows)


class ChaosCampaign:
    """Runs drill cells against shared clean baselines.

    One instance owns a scratch directory (checkpoint stores, CSV files,
    service state) and a cache of clean baseline artifacts per discovery
    configuration, so N cells over the same config pay for one baseline.
    """

    def __init__(self, base_dir=None, seed: int = 0, n_tuples: int = 36):
        self._owns_dir = base_dir is None
        self.base_dir = Path(base_dir or tempfile.mkdtemp(prefix="chaos-"))
        self.base_dir.mkdir(parents=True, exist_ok=True)
        self.seed = int(seed)
        self.relation = chaos_relation(n_tuples)
        self._baselines: dict = {}
        self._cells_run = 0

    def close(self):
        if self._owns_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)

    # -- shared plumbing -------------------------------------------------------------

    def _discovery(self, drill, checkpoint=None):
        from repro.core.discovery import StructureDiscovery

        kwargs = drill.discovery_kwargs()
        if checkpoint is not None:
            kwargs["checkpoint"] = checkpoint
        return StructureDiscovery(seed=self.seed, **kwargs)

    @staticmethod
    def artifact_digest(report) -> str:
        """The report's artifacts, minus health narration.

        Recovered-but-renarrated runs (e.g. a recomputed snapshot) are
        *allowed* to differ in their health lines; the contract bites when
        the artifacts themselves diverge without a degraded flag.
        """
        blob = report.to_json(top=10)
        blob.pop("verification", None)
        blob.pop("stages", None)
        blob.pop("healthy", None)
        blob["artifacts"].pop("healthy", None)
        return json.dumps(blob, sort_keys=True)

    def baseline_digest(self, drill) -> str:
        key = ("pipeline", drill.discovery)
        if key not in self._baselines:
            report = self._discovery(drill).run(self.relation)
            if not report.healthy:
                raise AssertionError(
                    f"clean baseline for {drill.point} is degraded: "
                    f"{report.health()}")
            self._baselines[key] = self.artifact_digest(report)
        return self._baselines[key]

    def _workdir(self, point, mode) -> Path:
        self._cells_run += 1
        path = self.base_dir / f"{self._cells_run:03d}-{point}-{mode}" \
            .replace("/", "_")
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _audit(self, report, cell):
        from repro.audit.auditor import Auditor

        certificate = Auditor(seed=self.seed).audit(report)
        cell.audited = certificate.ok
        if not certificate.ok:
            raise ChaosContractViolation(
                cell.point, cell.mode,
                f"surviving report failed the audit: "
                f"{certificate.violations[0]}")

    def _injection(self, drill, mode):
        if mode == "raise":
            return {"raises": drill.raises("chaos-injected")}
        if mode == "corrupt":
            return {"corrupt": drill.corrupt}
        # "once": the drill's primary action, a single firing.
        if drill.corrupt is not None and "raise" not in drill.modes:
            return {"corrupt": drill.corrupt, "limit": 1}
        return {"raises": drill.raises("chaos-injected"), "limit": 1}

    # -- cell dispatch ---------------------------------------------------------------

    def run_cell(self, point: str, mode: str) -> ChaosCell:
        drill = drill_registry()[point]
        if mode not in drill.modes:
            raise ValueError(f"{point} does not drill mode {mode!r}")
        cell = ChaosCell(point=point, mode=mode, runner=drill.runner)
        workdir = self._workdir(point, mode)
        runner = getattr(self, f"_run_{drill.runner}")
        runner(drill, mode, workdir, cell)
        return cell

    def run(self, points=None, modes=None, sample=None) -> list:
        return [self.run_cell(point, mode)
                for point, mode in campaign_cells(
                    points=points, modes=modes, sample=sample,
                    seed=self.seed)]

    # -- pipeline cells --------------------------------------------------------------

    def _run_pipeline(self, drill, mode, workdir, cell):
        from repro.checkpoint import CheckpointStore

        relation = self.relation
        baseline = self.baseline_digest(drill)
        use_store = drill.checkpointed or mode == "once"
        store_dir = workdir / "ckpt"
        if drill.preseed:
            self._discovery(drill, checkpoint=CheckpointStore(store_dir)) \
                .run(relation)
        store = CheckpointStore(store_dir, resume=drill.preseed) \
            if use_store else None

        report = None
        error = None
        with inject(drill.point, **self._injection(drill, mode)) as fault:
            try:
                report = self._discovery(drill, checkpoint=store) \
                    .run(relation)
            except Exception as caught:  # noqa: BLE001 - classified below
                error = caught
        cell.fired = fault.fired
        if fault.fired == 0:
            raise ChaosContractViolation(
                drill.point, mode, "fault point was never reached")

        if error is not None:
            self._require_classified(cell, error)
        else:
            cell.flagged = not report.healthy
            cell.identical = self.artifact_digest(report) == baseline
            if not cell.identical and not cell.flagged:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "artifacts diverged from the clean baseline without a "
                    "degraded flag")
            report.render()  # degraded reports must still render
            self._audit(report, cell)

        if use_store:
            # Contract 3: whatever the faulted run left behind, a clean
            # resumed run over the same store reproduces the baseline.
            resumed = self._discovery(
                drill, checkpoint=CheckpointStore(store_dir, resume=True),
            ).run(relation)
            if self.artifact_digest(resumed) != baseline:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "clean resume over the faulted store diverged: "
                    "checkpoints were poisoned")
            cell.detail = (cell.detail + "; " if cell.detail else "") + \
                "clean resume matched baseline"

    def _require_classified(self, cell, error):
        if isinstance(error, ReproError):
            cell.classified = type(error).__name__
        elif isinstance(error, KeyboardInterrupt):
            cell.classified = "KeyboardInterrupt"
        else:
            raise ChaosContractViolation(
                cell.point, cell.mode,
                f"unclassified {type(error).__name__}: {error}")

    # -- ingest cells ----------------------------------------------------------------

    def _run_ingest(self, drill, mode, workdir, cell):
        from repro.relation import load_csv, write_csv

        path = workdir / "data.csv"
        write_csv(self.relation, path)
        clean, _ = load_csv(path)

        if mode == "raise":
            with inject(drill.point, raises=InputError("chaos: row rot"),
                        after=1) as fault:
                try:
                    load_csv(path)
                except InputError as error:
                    cell.classified = type(error).__name__
                else:
                    raise ChaosContractViolation(
                        drill.point, mode,
                        "strict ingest swallowed an injected row error")
            cell.fired = fault.fired
            return

        limit = 1 if mode == "once" else None
        with inject(drill.point, corrupt=drill.corrupt, after=1,
                    limit=limit) as fault:
            try:
                load_csv(path)  # strict: must refuse
            except InputError as error:
                cell.classified = type(error).__name__
            else:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "strict ingest accepted a corrupted row")
        cell.fired = fault.fired

        with inject(drill.point, corrupt=drill.corrupt, after=1,
                    limit=limit):
            repaired, ingest = load_csv(path, on_error="coerce")
        if ingest.clean:
            raise ChaosContractViolation(
                drill.point, mode, "coerced repair was not flagged")
        cell.flagged = True
        cell.identical = repaired.coded.content_digest() == \
            clean.coded.content_digest()
        cell.detail = (f"strict={cell.classified}, coerce repaired "
                       f"{ingest.rows_loaded} rows")

    # -- supervised cells ------------------------------------------------------------

    def _run_supervised(self, drill, mode, workdir, cell):
        if "fork" not in multiprocessing.get_all_start_methods():
            cell.status = "skipped"
            cell.detail = "fork start method unavailable"
            return
        from repro.checkpoint import CheckpointStore
        from repro.core.discovery import StructureDiscovery
        from repro.errors import SupervisorError
        from repro.supervisor import SupervisorConfig

        baseline = self.baseline_digest(drill)
        ckpt_dir = workdir / "ckpt"

        def supervised(config):
            return StructureDiscovery(
                seed=self.seed,
                checkpoint=CheckpointStore(ckpt_dir),
                supervise=config, **drill.discovery_kwargs(),
            )

        if drill.point == "supervisor.spawn":
            config = SupervisorConfig(
                max_restarts=0 if mode == "raise" else 2,
                backoff_base=0, jitter=0)
            injection = self._injection(drill, mode)
            with inject(drill.point, **injection) as fault:
                try:
                    report = supervised(config).run(self.relation)
                except SupervisorError as error:
                    cell.fired = fault.fired
                    cell.classified = type(error).__name__
                    if mode != "raise":
                        raise ChaosContractViolation(
                            drill.point, mode,
                            "single spawn failure was not retried")
                    self._check_incident(ckpt_dir, cell, "gave-up")
                    return
            cell.fired = fault.fired
            cell.flagged = not report.healthy
            cell.identical = self.artifact_digest(report) == baseline
            if not cell.identical:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "retried spawn diverged from the baseline")
            self._audit(report, cell)
            self._check_incident(ckpt_dir, cell, "completed")
            return

        if drill.point == "supervisor.heartbeat":
            config = SupervisorConfig(
                max_restarts=2, hang_timeout=0.75, backoff_base=0, jitter=0,
                child_setup=functools.partial(_arm_mining_stall, {1}))
            with inject(drill.point, corrupt=drill.corrupt) as fault:
                report = supervised(config).run(self.relation)
            cell.fired = fault.fired
            cell.identical = self.artifact_digest(report) == baseline
            cell.flagged = not report.healthy
            if not cell.identical:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "hang-resumed report diverged from the baseline")
            self._audit(report, cell)
            incident = self._check_incident(ckpt_dir, cell, "completed")
            first = incident["attempts"][0]
            if first.get("failure_class") != "hang":
                raise ChaosContractViolation(
                    drill.point, mode,
                    f"expected a journaled hang, got "
                    f"{first.get('failure_class')!r}")
            if first.get("hang_traceback"):
                cell.detail = "hang traceback journaled"
            return

        # supervisor.escalate: SIGKILL mining twice; the poison-stage
        # escalation (observed through the fault point) must still land the
        # identical report via the identity-preserving ladder rung.
        config = SupervisorConfig(
            max_restarts=5, backoff_base=0, jitter=0,
            child_setup=functools.partial(_arm_kill_bomb, {1, 2}))
        with inject(drill.point, corrupt=drill.corrupt) as fault:
            report = supervised(config).run(self.relation)
        cell.fired = fault.fired
        if fault.fired == 0:
            raise ChaosContractViolation(
                drill.point, mode, "no escalation decision was taken")
        cell.identical = self.artifact_digest(report) == baseline
        cell.flagged = not report.healthy
        if not cell.identical and not cell.flagged:
            raise ChaosContractViolation(
                drill.point, mode,
                "escalated report diverged without a degraded flag")
        self._audit(report, cell)
        self._check_incident(ckpt_dir, cell, "completed")

    def _check_incident(self, ckpt_dir, cell, outcome):
        incident_path = Path(ckpt_dir) / "incident.json"
        if not incident_path.exists():
            raise ChaosContractViolation(
                cell.point, cell.mode, "no incident.json was journaled")
        incident = json.loads(incident_path.read_text("utf-8"))
        if incident.get("outcome") != outcome:
            raise ChaosContractViolation(
                cell.point, cell.mode,
                f"incident outcome {incident.get('outcome')!r} != "
                f"{outcome!r}")
        return incident

    # -- service cells ---------------------------------------------------------------

    def _run_service(self, drill, mode, workdir, cell):
        from repro.errors import ServiceError

        handle = _ServiceHandle(workdir / "svc", seed=self.seed)
        try:
            handle.start()
            client = handle.client()
            client.create_relation("chaos", list(self.relation.attributes))
            client.append_rows(
                "chaos", [list(row) for row in self.relation.rows], seq=1)
            baseline_model = client.build_model("chaos")

            if drill.point == "service.drain":
                with inject(drill.point,
                            raises=drill.raises("chaos-injected")) as fault:
                    exit_code = handle.drain()
                cell.fired = fault.fired
                if exit_code != 0:
                    raise ChaosContractViolation(
                        drill.point, mode,
                        f"drain under fault exited {exit_code}, not 0")
                cell.classified = "clean-exit-0"
                return

            if drill.point == "service.accept":
                # An accept/parse-path fault costs exactly that one
                # connection -- mapped to a clean 500, never the daemon.
                with inject(drill.point,
                            raises=drill.raises("chaos-injected"),
                            limit=1) as fault:
                    status, _, _ = client.request_once("GET", "/stats")
                    if status != 500:
                        raise ChaosContractViolation(
                            drill.point, mode,
                            f"faulted connection answered {status}, not a "
                            f"clean 500")
                cell.fired = fault.fired
                cell.classified = "http-500"
                stats = client.call("GET", "/stats")
                if not isinstance(stats, dict) or "requests" not in stats:
                    raise ChaosContractViolation(
                        drill.point, mode,
                        "daemon did not answer after the faulted connection")
                self._verify_service(client, cell, baseline_model)
                return

            if drill.point == "service.handler":
                limit = 1 if mode == "once" else None
                with inject(drill.point,
                            raises=drill.raises("chaos-injected"),
                            limit=limit) as fault:
                    status, _, payload = client.request_once("GET", "/stats")
                    if status != 500:
                        raise ChaosContractViolation(
                            drill.point, mode,
                            f"faulted request answered {status}, not a "
                            f"clean 500")
                    if mode == "raise":
                        # Unlimited: every request fails classified, none
                        # hangs, the daemon itself stays alive.
                        try:
                            client.stats()
                        except ServiceError:
                            pass
                        else:
                            raise ChaosContractViolation(
                                drill.point, mode,
                                "unlimited handler fault produced a "
                                "success")
                cell.fired = fault.fired
                cell.classified = "http-500"
                if client.health().get("status") != "ok":
                    raise ChaosContractViolation(
                        drill.point, mode,
                        "daemon did not recover after the fault window")
                self._verify_service(client, cell, baseline_model)
                return

            # service.cache_load: rot the durable model snapshot, restart,
            # and require quarantine + recompute to identical answers.
            before = client.top_fds("chaos", k=5)
            handle.drain()
            handle = _ServiceHandle(workdir / "svc", seed=self.seed)
            with inject(drill.point, corrupt=drill.corrupt) as fault:
                handle.start()
                client = handle.client()
                client.wait_ready(10.0)
                after = client.top_fds("chaos", k=5)
            cell.fired = fault.fired
            cell.identical = after == before
            if not cell.identical:
                raise ChaosContractViolation(
                    drill.point, mode,
                    "rehydrated answers diverged after cache rot")
            self._verify_service(client, cell, baseline_model)
        finally:
            handle.stop()

    def _verify_service(self, client, cell, baseline_model):
        verdict = client.call("GET", "/relations/chaos/verify")
        if not verdict.get("ok"):
            raise ChaosContractViolation(
                cell.point, cell.mode,
                f"served model failed the audit: "
                f"{verdict.get('violations')}")
        if verdict.get("model_key") != baseline_model["model_key"]:
            raise ChaosContractViolation(
                cell.point, cell.mode,
                "served model key drifted across the fault")
        cell.audited = True


class _ServiceHandle:
    """A real daemon on its own event loop in a background thread."""

    def __init__(self, store_dir, seed=0):
        import threading

        from repro.checkpoint import CheckpointStore
        from repro.service import Daemon, DiscoveryApp

        self.store = CheckpointStore(store_dir)
        self.store.acquire_lock()
        self.daemon = Daemon(
            DiscoveryApp(self.store, params={"fd_k": 5, "seed": seed}),
            port=0)
        self.loop = None
        self.exit_code = None
        self.started = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def _serve(self):
        import asyncio

        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)

        async def main():
            await self.daemon.start()
            self.started.set()
            return await self.daemon.serve_forever()

        try:
            self.exit_code = self.loop.run_until_complete(main())
        finally:
            self.started.set()
            self.loop.close()

    def start(self):
        self.thread.start()
        if not self.started.wait(30.0) or not self.daemon.port:
            raise AssertionError("chaos service daemon did not start")
        return self

    def client(self, **kwargs):
        from repro.service import ServiceClient

        return ServiceClient(port=self.daemon.port, **kwargs)

    def drain(self, timeout=30.0):
        import asyncio

        future = asyncio.run_coroutine_threadsafe(
            self.daemon.drain(reason="chaos"), self.loop)
        future.result(timeout)
        self.thread.join(timeout)
        self.store.release_lock()
        return self.exit_code

    def stop(self):
        if self.thread.is_alive():
            try:
                self.drain()
            except Exception:
                pass
        else:
            self.store.release_lock()


# -- module-level conveniences ------------------------------------------------------


def run_cell(point: str, mode: str, base_dir=None, seed: int = 0) -> ChaosCell:
    """Run one drill cell in a scratch directory."""
    campaign = ChaosCampaign(base_dir=base_dir, seed=seed)
    try:
        return campaign.run_cell(point, mode)
    finally:
        campaign.close()


def run_campaign(points=None, modes=None, sample=None, seed: int = 0,
                 base_dir=None) -> list:
    """Run the (optionally sampled) fault matrix; returns the cells."""
    campaign = ChaosCampaign(base_dir=base_dir, seed=seed)
    try:
        return campaign.run(points=points, modes=modes, sample=sample)
    finally:
        campaign.close()
