"""Durable, crash-safe checkpoints for discovery runs.

A :class:`CheckpointStore` makes the hours-long pipeline scans the paper
assumes (LIMBO Phase 1 -> AIB -> FD mining -> cover -> FD-RANK) cheap to
interrupt: per-stage snapshots are written after every completed stage,
intra-stage progress is heartbeaten at a configurable cadence off the
existing :meth:`repro.budget.Budget.checkpoint` tick stream, and a resumed
run reuses every validated snapshot instead of recomputing it.

Design rules, in order of importance:

1. **Never corrupt a report.**  A snapshot is reused only when its
   manifest matches this run exactly (schema version, input relation
   fingerprint, phi/psi/miner/backend parameters) and its own
   checksum verifies.  Anything else -- truncated file, flipped byte,
   version bump, parameter drift -- is *quarantined* (renamed aside),
   recorded as a :class:`CheckpointEvent` for the report's health section,
   and recomputed.  Stage snapshots additionally resume as a **prefix**:
   the first stage that cannot be loaded stops all later stage loads, so a
   recomputed stage can never feed a snapshot computed from different
   upstream state.
2. **Never tear a file.**  Every write goes through
   :func:`repro.relation.io.atomic_write` (temp file + fsync +
   ``os.replace``); a SIGKILL mid-save leaves the previous snapshot or
   nothing.
3. **Never fail the run.**  Save errors (full disk, permissions) degrade
   to "no checkpoint" with a ``save-failure`` event; only an unusable
   store *directory* raises (:class:`repro.errors.CheckpointError`),
   because that is a configuration error the user must see immediately.

Snapshot layout inside the store directory::

    manifest.json                   run identity: schema version, relation
                                    fingerprint, parameters, run token
    stage.<stage>.ckpt              one per completed pipeline stage:
                                    header line + pickled result/outcomes
    phase.<stage>.<digest>.ckpt     intra-stage artifacts (LIMBO Phase-1
                                    summaries, AIB merge sequences), keyed
                                    by a digest of their exact inputs
    progress.json                   heartbeat: last stage / unit count seen
    <kind>.<name>.ckpt              run-independent *named* snapshots: the
                                    resident service's model cache and
                                    relation state, content-addressed by
                                    the caller (no run token)
    daemon.lock                     advisory flock held by `repro serve` so
                                    two daemons cannot share one store
    *.quarantined-N                 rejected snapshots, kept for forensics

Determinism guarantee: stage results are pure functions of the relation and
the manifest parameters, and only stages whose whole prefix ran healthy
(``ok``) are ever snapshotted -- so a resumed run is bit-identical to an
uninterrupted one, for any worker count and either numeric backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

from repro.budget import read_rss
from repro.errors import CheckpointError
from repro.relation.io import atomic_write, fsync_directory
from repro.testing.faults import fault_point

#: Bumped whenever the snapshot byte format changes; a mismatch quarantines.
SNAPSHOT_VERSION = 2

#: First bytes of every snapshot file (the NUL keeps it off the header line).
MAGIC = b"repro-ckpt\x00"

#: Budget units between intra-stage progress heartbeats.
DEFAULT_CADENCE = 10_000

#: Quarantined snapshots kept per store before the oldest are deleted.
DEFAULT_MAX_QUARANTINED = 8

_MANIFEST_NAME = "manifest.json"
_PROGRESS_NAME = "progress.json"
_INCIDENT_NAME = "incident.json"
_LOCK_NAME = "daemon.lock"

#: Token written into named (run-independent) snapshots.  Named snapshots
#: are content-addressed by their caller (the service keys models on the
#: relation fingerprint + parameter digest), so unlike stage snapshots they
#: deliberately survive across runs and process restarts.
_SHARED_TOKEN = "shared"

#: Filesystem-safe snapshot names (kind and name components).
_NAME_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


def _check_name(label: str, value: str) -> str:
    if not value or any(ch not in _NAME_SAFE for ch in value):
        raise ValueError(
            f"{label} must be non-empty and use only [A-Za-z0-9._-], "
            f"got {value!r}"
        )
    return value


@dataclass
class CheckpointEvent:
    """A recorded checkpoint incident (quarantine, mismatch, save failure)."""

    kind: str
    where: str
    detail: str

    def render(self) -> str:
        return f"{self.kind} at {self.where or 'store'}: {self.detail}"


@dataclass
class HeartbeatStatus:
    """A watchdog's view of ``progress.json`` at one instant.

    ``state`` is one of:

    * ``"missing"``    -- no heartbeat has ever been written (or the file
      was removed); ``age_seconds``, ``mtime_ns`` and ``payload`` are None;
    * ``"ok"``         -- the file parsed; ``payload`` is the heartbeat dict;
    * ``"unreadable"`` -- the file exists but is truncated or not JSON
      (e.g. torn by a crash on a filesystem without atomic rename);
      ``payload`` is None but the mtime-derived age is still usable.

    ``age_seconds`` is computed against the *wall clock* and clamped at
    zero: a clock-skewed mtime in the future reads as a fresh heartbeat,
    never as a negative age or an instant hang.  Staleness policy (how old
    is too old) belongs to the caller -- :class:`repro.supervisor` keys its
    hang verdict on whether the heartbeat *changed*, using the age only in
    diagnostics.
    """

    state: str
    age_seconds: float | None = None
    mtime_ns: int | None = None
    payload: dict | None = None

    def describe(self) -> str:
        if self.state == "missing":
            return "no heartbeat written yet"
        age = f"{self.age_seconds:.1f}s old"
        if self.state == "unreadable":
            return f"heartbeat unreadable (torn write?), {age}"
        stage = (self.payload or {}).get("stage") or "(startup)"
        return f"heartbeat {age}, stage {stage!r}"


def relation_fingerprint(relation) -> str:
    """A stable hex digest of a relation's schema and exact row contents.

    Hashes the coded representation (per-attribute value dictionaries plus
    ``int32`` code columns), which determines the rows exactly and -- codes
    being assigned in first-seen stream order -- depends only on the data,
    never on how the ingest stream was chunked: a resume under a different
    ``chunk_rows`` (or a governed-ingest stride escalation replayed from
    the same surviving rows) still validates.  NULLs hash distinctly from
    any string (including ``"NULL"``); values hash by ``repr`` so ordinary
    str/int/float cells are unambiguous.
    """
    return relation.coded.content_digest()


class StageCheckpoint:
    """A store handle scoped to one pipeline stage.

    Passed down into :class:`repro.clustering.Limbo` / :func:`aib` so they
    can persist intra-stage artifacts (Phase-1 summaries, merge sequences)
    without knowing about the run-level store.  ``key`` is any repr-stable
    tuple describing the artifact's *exact inputs*; snapshots are only ever
    reused when the key matches, so a handle can be armed unconditionally.
    """

    def __init__(self, store: "CheckpointStore", stage: str):
        self.store = store
        self.stage = stage

    def save(self, key, payload) -> None:
        self.store.save_phase(self.stage, key, payload)

    def load(self, key):
        return self.store.load_phase(self.stage, key)


class CheckpointStore:
    """Versioned, checksummed, atomically-written snapshots of a run.

    Parameters
    ----------
    directory:
        Where snapshots live.  Created (with parents) if missing; a path
        that exists but is not a writable directory raises
        :class:`repro.errors.CheckpointError`.
    cadence:
        Budget units between intra-stage progress heartbeats
        (:data:`DEFAULT_CADENCE`).
    resume:
        Whether :meth:`open_run` may reuse an existing manifest and its
        snapshots.  ``False`` starts fresh: a new run token is minted and
        nothing on disk is ever loaded (stale files are quarantined only
        if a later resumed run trips over them).
    max_quarantined:
        How many quarantined snapshots to keep per store directory
        (:data:`DEFAULT_MAX_QUARANTINED`); the oldest beyond this are
        deleted so a crash-looping run cannot fill the disk with
        forensics.
    """

    def __init__(self, directory, cadence: int = DEFAULT_CADENCE,
                 resume: bool = False,
                 max_quarantined: int = DEFAULT_MAX_QUARANTINED):
        if cadence < 1:
            raise ValueError("cadence must be positive")
        if max_quarantined < 1:
            raise ValueError("max_quarantined must be positive")
        self.directory = Path(directory)
        self.cadence = int(cadence)
        self.resume = bool(resume)
        self.max_quarantined = int(max_quarantined)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory}: {exc}",
                path=self.directory,
            ) from exc
        if not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint path {self.directory} is not a directory",
                path=self.directory,
            )
        #: Checkpoint incidents, for the discovery health report.
        self.events: list[CheckpointEvent] = []
        #: Counters for tests and diagnostics.
        self.stage_loads = 0
        self.stage_saves = 0
        self.phase_loads = 0
        self.phase_saves = 0
        self.named_loads = 0
        self.named_saves = 0
        self._lock_handle = None
        self._token: str | None = None
        self._resuming = False
        self._halt_stage_loads = False
        self._current_stage = ""
        self._last_heartbeat = 0
        self._last_units = 0
        self._heartbeat_failed = False

    # -- run lifecycle -----------------------------------------------------------

    def open_run(self, relation, params: dict) -> bool:
        """Bind the store to one run; returns whether it is resuming.

        ``params`` is the JSON-serializable parameter dict that, together
        with the relation fingerprint, defines snapshot validity.  With
        ``resume=True`` and a manifest matching both, the previous run's
        token is adopted and its snapshots become loadable; any mismatch
        quarantines the old state and starts fresh.
        """
        fingerprint = relation_fingerprint(relation)
        params = json.loads(json.dumps(params, sort_keys=True))
        self._halt_stage_loads = False
        self._resuming = False
        manifest_path = self.directory / _MANIFEST_NAME
        if self.resume and manifest_path.exists():
            problem = None
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
            except (OSError, ValueError) as exc:
                manifest, problem = None, f"unreadable manifest: {exc}"
            if manifest is not None:
                if manifest.get("schema_version") != SNAPSHOT_VERSION:
                    problem = (
                        f"schema version {manifest.get('schema_version')!r} "
                        f"!= {SNAPSHOT_VERSION}"
                    )
                elif manifest.get("fingerprint") != fingerprint:
                    problem = "input relation fingerprint changed"
                elif manifest.get("params") != params:
                    problem = (
                        f"parameters changed: stored {manifest.get('params')!r},"
                        f" run has {params!r}"
                    )
                elif not isinstance(manifest.get("token"), str):
                    problem = "manifest has no run token"
            if problem is None:
                self._token = manifest["token"]
                self._resuming = True
                return True
            self._record("manifest-mismatch", "manifest", problem)
            self._quarantine(manifest_path)
            for stale in sorted(self.directory.glob("*.ckpt")):
                self._quarantine(stale)
        self._token = os.urandom(8).hex()
        self._write_manifest(fingerprint, params)
        return False

    def _write_manifest(self, fingerprint: str, params: dict) -> None:
        manifest = {
            "schema_version": SNAPSHOT_VERSION,
            "fingerprint": fingerprint,
            "params": params,
            "token": self._token,
        }
        try:
            with atomic_write(self.directory / _MANIFEST_NAME) as handle:
                json.dump(manifest, handle, sort_keys=True, indent=1)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint manifest in {self.directory}: {exc}",
                path=self.directory,
            ) from exc

    def stage_handle(self, stage: str) -> StageCheckpoint:
        """A :class:`StageCheckpoint` scoped to ``stage``."""
        return StageCheckpoint(self, stage)

    def enter_stage(self, stage: str) -> None:
        """Label subsequent heartbeats with the stage now executing.

        Writes an immediate heartbeat so the stage transition is durable
        the moment it happens: a supervisor attributing a crash to a stage
        reads the right stage even if the child dies before the first
        cadence tick inside it.
        """
        self._current_stage = stage
        self._write_progress(self._last_units, "stage-entry")

    # -- stage snapshots ---------------------------------------------------------

    def save_stage(self, stage: str, payload) -> None:
        """Snapshot one completed stage (never raises; see module rules)."""
        self._save(self._stage_path(stage), "stage", stage, "", payload)

    def load_stage(self, stage: str):
        """Reuse one stage snapshot, or ``None`` to recompute.

        Stage loads are prefix-only: the first miss (absent, corrupt, or
        mismatched snapshot) halts every later stage load for this run,
        because downstream snapshots were computed from state this run is
        about to recompute.
        """
        if not self._resuming or self._halt_stage_loads:
            return None
        path = self._stage_path(stage)
        if not path.exists():
            self._halt_stage_loads = True
            return None
        payload = self._load(path, "stage", stage, "")
        if payload is _REJECTED:
            self._halt_stage_loads = True
            return None
        self.stage_loads += 1
        return payload

    # -- intra-stage phase snapshots ---------------------------------------------

    def save_phase(self, stage: str, key, payload) -> None:
        """Snapshot an intra-stage artifact under an input-derived key."""
        self._save(self._phase_path(stage, key), "phase", stage, repr(key),
                   payload)

    def load_phase(self, stage: str, key):
        """Reuse an intra-stage artifact, or ``None`` to recompute.

        Unlike stage snapshots these are content-addressed by their exact
        inputs (the key), so they stay reusable even after the stage-load
        prefix halts -- a recomputed stage that reaches identical inputs
        may skip identical work.
        """
        if not self._resuming:
            return None
        path = self._phase_path(stage, key)
        if not path.exists():
            return None
        payload = self._load(path, "phase", stage, repr(key))
        if payload is _REJECTED:
            return None
        self.phase_loads += 1
        return payload

    # -- named (run-independent) snapshots ---------------------------------------

    def save_named(self, kind: str, name: str, payload) -> int | None:
        """Snapshot a run-independent artifact; returns its payload bytes.

        Unlike stage/phase snapshots these carry no run token: the caller
        owns the addressing scheme (the resident service keys models on
        ``relation_fingerprint + parameter digest`` and relation state on
        the relation id), so the snapshot stays valid across daemon
        restarts by construction.  Same durability rules as every other
        snapshot: atomic write, checksummed, quarantined on any defect,
        save failures degrade to "not persisted" (``None``).
        """
        _check_name("snapshot kind", kind)
        _check_name("snapshot name", name)
        path = self._named_path(kind, name)
        before = self.events[:]
        self._save(path, kind, name, "", payload, token=_SHARED_TOKEN)
        if len(self.events) > len(before):
            return None  # a save-failure event was recorded
        self.named_saves += 1
        try:
            return path.stat().st_size
        except OSError:
            return None

    def load_named(self, kind: str, name: str):
        """Reuse a run-independent artifact, or ``None`` to recompute."""
        _check_name("snapshot kind", kind)
        _check_name("snapshot name", name)
        path = self._named_path(kind, name)
        if not path.exists():
            return None
        payload = self._load(path, kind, name, "", token=_SHARED_TOKEN)
        if payload is _REJECTED:
            return None
        self.named_loads += 1
        return payload

    def list_named(self, kind: str) -> list[str]:
        """Names of every stored snapshot of ``kind``, sorted."""
        _check_name("snapshot kind", kind)
        prefix = f"{kind}."
        names = []
        for entry in self.directory.glob(f"{kind}.*.ckpt"):
            names.append(entry.name[len(prefix):-len(".ckpt")])
        return sorted(names)

    def delete_named(self, kind: str, name: str) -> None:
        """Drop one named snapshot (best effort, never raises)."""
        _check_name("snapshot kind", kind)
        _check_name("snapshot name", name)
        try:
            os.unlink(self._named_path(kind, name))
        except OSError:
            pass

    def _named_path(self, kind: str, name: str) -> Path:
        return self.directory / f"{kind}.{name}.ckpt"

    # -- the daemon lock ---------------------------------------------------------

    def acquire_lock(self) -> None:
        """Take the store's exclusive daemon lock, or raise.

        A resident daemon must be the *only* writer of a checkpoint
        directory -- two daemons snapshotting into the same store would
        silently corrupt each other's model cache.  The lock is an
        advisory ``flock`` on ``daemon.lock`` (held for the process
        lifetime, released by the kernel even on SIGKILL, so a crashed
        daemon never wedges its successor) with the holder's pid written
        into the file for the error message.  Raises
        :class:`repro.errors.CheckpointError` when another process holds
        it; idempotent when this process already does.
        """
        if self._lock_handle is not None:
            return
        path = self.directory / _LOCK_NAME
        try:
            handle = open(path, "a+", encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(
                f"cannot open daemon lock in {self.directory}: {exc}",
                path=self.directory,
            ) from exc
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        except OSError:
            try:
                handle.seek(0)
                holder = handle.read().strip() or "unknown pid"
            except OSError:
                holder = "unknown pid"
            handle.close()
            raise CheckpointError(
                f"checkpoint directory {self.directory} is locked by "
                f"another daemon ({holder}); refusing to start a second "
                f"daemon against the same store",
                path=self.directory, holder=holder,
            ) from None
        try:
            handle.seek(0)
            handle.truncate()
            handle.write(f"pid {os.getpid()}\n")
            handle.flush()
        except OSError:
            pass  # the flock, not the pid note, is the lock
        self._lock_handle = handle

    def release_lock(self) -> None:
        """Release the daemon lock (no-op when not held)."""
        if self._lock_handle is None:
            return
        handle, self._lock_handle = self._lock_handle, None
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except (ImportError, OSError):  # pragma: no cover - best effort
            pass
        try:
            handle.close()
        except OSError:  # pragma: no cover - best effort
            pass

    @property
    def locked(self) -> bool:
        """Whether *this process* currently holds the daemon lock."""
        return self._lock_handle is not None

    # -- the snapshot byte format ------------------------------------------------

    def _stage_path(self, stage: str) -> Path:
        return self.directory / f"stage.{stage}.ckpt"

    def _phase_path(self, stage: str, key) -> Path:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]
        return self.directory / f"phase.{stage}.{digest}.ckpt"

    def _save(self, path: Path, kind: str, stage: str, key: str,
              payload, token: str | None = None) -> None:
        where = f"{kind}:{stage}"
        try:
            data = pickle.dumps(payload)
        except Exception as exc:
            self._record("save-failure", where,
                         f"unpicklable payload: {type(exc).__name__}: {exc}")
            return
        header = json.dumps({
            "version": SNAPSHOT_VERSION,
            "token": token if token is not None else self._token,
            "kind": kind,
            "stage": stage,
            "key": key,
            "sha256": hashlib.sha256(data).hexdigest(),
            "length": len(data),
        }, sort_keys=True).encode("ascii")
        blob = MAGIC + header + b"\n" + data
        try:
            blob = fault_point("checkpoint.save", blob)
            with atomic_write(path, "wb") as handle:
                handle.write(blob)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            self._record("save-failure", where,
                         f"{type(exc).__name__}: {exc}")
            return
        if kind == "stage":
            self.stage_saves += 1
        else:
            self.phase_saves += 1

    def _load(self, path: Path, kind: str, stage: str, key: str,
              token: str | None = None):
        """Validate and unpickle one snapshot; quarantine on any defect."""
        where = f"{kind}:{stage}"
        try:
            raw = fault_point("checkpoint.load", path.read_bytes())
            if not raw.startswith(MAGIC):
                raise ValueError("bad magic")
            header_line, _, data = raw[len(MAGIC):].partition(b"\n")
            header = json.loads(header_line.decode("ascii"))
            if header.get("version") != SNAPSHOT_VERSION:
                raise ValueError(
                    f"snapshot version {header.get('version')!r} "
                    f"!= {SNAPSHOT_VERSION}"
                )
            expected_token = token if token is not None else self._token
            if header.get("token") != expected_token:
                raise ValueError("snapshot belongs to a different run")
            if (header.get("kind"), header.get("stage")) != (kind, stage):
                raise ValueError("snapshot labelled for a different site")
            if kind == "phase" and header.get("key") != key:
                raise ValueError("phase key collision")
            if header.get("length") != len(data):
                raise ValueError(
                    f"truncated payload ({len(data)} of "
                    f"{header.get('length')} bytes)"
                )
            if hashlib.sha256(data).hexdigest() != header.get("sha256"):
                raise ValueError("payload checksum mismatch")
            return pickle.loads(data)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            self._record(
                "quarantine", where,
                f"{path.name}: {type(exc).__name__}: {exc}; recomputing",
            )
            self._quarantine(path)
            return _REJECTED

    def _quarantine(self, path: Path) -> None:
        """Rename a rejected snapshot aside (best effort, never raises)."""
        suffix = 1
        while True:
            target = path.with_name(f"{path.name}.quarantined-{suffix}")
            if not target.exists():
                break
            suffix += 1
        try:
            os.replace(path, target)
            fsync_directory(self.directory)
        except OSError:
            pass
        self._prune_quarantined()

    def _prune_quarantined(self) -> None:
        """Keep only the newest :attr:`max_quarantined` quarantined files.

        A supervised run that crash-loops on the same corrupt snapshot
        would otherwise accumulate one forensic copy per attempt, without
        bound.  Newest-first by mtime (name as a deterministic tiebreak);
        best effort, never raises.
        """
        try:
            quarantined = [
                (entry.stat().st_mtime_ns, entry.name, entry)
                for entry in self.directory.glob("*.quarantined-*")
            ]
        except OSError:
            return
        quarantined.sort(reverse=True)
        for _, _, stale in quarantined[self.max_quarantined:]:
            try:
                os.unlink(stale)
            except OSError:
                pass

    # -- heartbeats --------------------------------------------------------------

    def attach(self, budget) -> None:
        """Heartbeat intra-stage progress off a budget's checkpoint ticks.

        Every :attr:`cadence` units, ``progress.json`` is atomically
        rewritten with the current stage, unit count and checkpoint site --
        a cheap liveness marker for whoever supervises a long run.
        Tolerates ``budget=None`` (heartbeats simply stay off).
        """
        if budget is not None:
            budget.on_checkpoint(self._heartbeat)

    def detach(self, budget) -> None:
        """Stop heartbeating off ``budget`` (undoes :meth:`attach`)."""
        if budget is not None:
            budget.off_checkpoint(self._heartbeat)

    def _heartbeat(self, units_used: int, where: str) -> None:
        self._last_units = units_used
        if units_used - self._last_heartbeat < self.cadence:
            return
        self._last_heartbeat = units_used
        self._write_progress(units_used, where)

    def _write_progress(self, units_used: int, where: str) -> None:
        try:
            with atomic_write(self.directory / _PROGRESS_NAME) as handle:
                json.dump({
                    "token": self._token,
                    "stage": self._current_stage,
                    "units_used": units_used,
                    "where": where,
                    "pid": os.getpid(),
                    "rss_bytes": read_rss(),
                    "wall_time": time.time(),
                }, handle, sort_keys=True)
        except Exception as exc:
            if not self._heartbeat_failed:
                self._heartbeat_failed = True
                self._record("save-failure", "progress",
                             f"{type(exc).__name__}: {exc}")

    def heartbeat_status(self, now: float | None = None) -> HeartbeatStatus:
        """Classify ``progress.json`` for a watchdog (see
        :class:`HeartbeatStatus`).

        Pure read: usable from a *different* process than the one writing
        heartbeats (the supervisor's parent-side store never runs the
        pipeline).  ``now`` defaults to ``time.time()``; pass a fixed value
        in tests for deterministic ages.
        """
        path = self.directory / _PROGRESS_NAME
        try:
            stat = path.stat()
        except OSError:
            return HeartbeatStatus(state="missing")
        if now is None:
            now = time.time()
        age = max(0.0, now - stat.st_mtime)
        try:
            payload = json.loads(path.read_text("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("heartbeat is not a JSON object")
        except (OSError, ValueError):
            return HeartbeatStatus(state="unreadable", age_seconds=age,
                                   mtime_ns=stat.st_mtime_ns)
        return HeartbeatStatus(state="ok", age_seconds=age,
                               mtime_ns=stat.st_mtime_ns, payload=payload)

    # -- incident log ------------------------------------------------------------

    def write_incident(self, payload: dict) -> Path | None:
        """Atomically write ``incident.json`` next to the snapshots.

        The supervisor rewrites this after every attempt so the file is
        complete even when the supervisor itself is killed next.  Best
        effort: returns the path, or ``None`` when the write failed (a
        full disk must not mask the run's real outcome).
        """
        path = self.directory / _INCIDENT_NAME
        try:
            with atomic_write(path) as handle:
                json.dump(payload, handle, sort_keys=True, indent=1)
        except Exception as exc:
            self._record("save-failure", "incident",
                         f"{type(exc).__name__}: {exc}")
            return None
        return path

    # -- events ------------------------------------------------------------------

    def _record(self, kind: str, where: str, detail: str) -> None:
        self.events.append(CheckpointEvent(kind=kind, where=where,
                                           detail=detail))


class _Rejected:
    """Internal sentinel: a snapshot existed but failed validation."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<rejected snapshot>"


_REJECTED = _Rejected()
