"""The discovery service application: routes, resident state, ingest.

This module is deliberately HTTP-light: it knows about methods, paths and
status codes (the :data:`HTTP_STATUS` mapping from the error taxonomy), but
not about sockets, parsing or concurrency primitives.  The asyncio server
in :mod:`repro.service.server` calls :meth:`DiscoveryApp.handle` from
worker threads; tests call it directly.

Resources
---------

``/relations/{id}`` is a **resident relation**: a coded
:class:`~repro.relation.columns.ColumnStore` built up from client-pushed
row chunks, persisted as a named checkpoint snapshot after every mutation
so a SIGKILL never loses acknowledged rows.  Chunks carry client-supplied
sequence numbers and are applied exactly once (a replayed chunk is
acknowledged as a duplicate, an out-of-order chunk rejected), which is what
makes crash/retry ingestion deterministic.

A relation's **model** is a full :class:`~repro.core.StructureDiscovery`
report -- a pure function of the relation fingerprint and the discovery
parameters, cached under exactly that key (see
:mod:`repro.service.model_cache`).  Queries (top FDs, cluster assignment)
are served from the last *mined* model; rows arriving after the mine are
**absorbed** into a packed copy of its Phase-1 DCF summaries (the
associative merge of Equations 1-2), so ``/assign`` keeps answering --
approximately, and flagged as such -- without a re-run, while the growing
staleness watermark tells the server when a bounded background re-mine is
due.

Degraded models (a stage fell back under its budget) are served flagged
but never persisted: a snapshot must never outlive the condition that
degraded it.
"""

from __future__ import annotations

import dataclasses
import re
import threading

from repro import kernels
from repro.budget import Budget
from repro.checkpoint.store import relation_fingerprint
# Unused here; perfbench/tracing.py wraps app.merge_cost by name.
from repro.clustering.dcf import merge_cost  # noqa: F401
from repro.core.discovery import StructureDiscovery
from repro.errors import (
    InputError,
    MemoryLimitExceeded,
    NotFoundError,
    ReproError,
    ResourceLimitExceeded,
    SchemaError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.relation import NULL, Relation
from repro.relation.columns import ColumnStore
from repro.service.model_cache import ModelCache, model_key
from repro.testing.faults import fault_point

#: How each taxonomy class maps onto an HTTP status.  Most-derived class
#: wins (the daemon walks the exception's MRO), so e.g. a
#: :class:`MemoryLimitExceeded` is a retryable 503, not a generic 500.
HTTP_STATUS = {
    SchemaError: 400,
    InputError: 400,
    NotFoundError: 404,
    ServiceOverloaded: 429,
    ServiceUnavailable: 503,
    MemoryLimitExceeded: 503,
    ResourceLimitExceeded: 503,
    ServiceError: 500,
    ReproError: 500,
}


def status_for(exc: BaseException) -> int:
    """The HTTP status of an exception (500 for anything unmapped)."""
    for klass in type(exc).__mro__:
        status = HTTP_STATUS.get(klass)
        if status is not None:
            return status
    return 500


def error_payload(exc: BaseException) -> dict:
    """The JSON body of an error response (machine-readable, like the
    taxonomy itself)."""
    payload = {
        "error": type(exc).__name__,
        "message": str(exc) or type(exc).__name__,
    }
    context = getattr(exc, "context", None)
    if context:
        payload["context"] = {k: _jsonable(v) for k, v in context.items()}
    return payload


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


_RID_PATTERN = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Rows accepted per chunk; a larger POST is a client bug, not load.
MAX_CHUNK_ROWS = 100_000


class _Assigner:
    """Incrementally absorbable Phase-3 assignment state.

    Packs the mined model's DCF summaries into one
    :class:`~repro.kernels.PostingsDCFSet` and copies its value catalog (the
    cached model itself stays immutable), so new rows can be absorbed in
    place via the associative merge of Equations 1-2: route the row's
    singleton DCF to the closest summary, then merge it there.  The result
    approximates what a full re-run would produce; ``absorbed`` counts how
    far the approximation has drifted from the mined model.
    """

    def __init__(self, report):
        clustering = report.tuple_clustering
        catalog = clustering.view.catalog
        self.catalog = dataclasses.replace(
            catalog, ids=dict(catalog.ids), keys=list(catalog.keys))
        self.summaries = kernels.PostingsDCFSet(clustering.limbo.summaries)
        self.names = report.relation.attributes
        self.arity = max(1, report.relation.arity)
        self.base_prior = 1.0 / max(1, len(report.relation))
        self.absorbed = 0

    def _mass(self, row, allocate: bool) -> dict:
        """Joint masses of the row's singleton DCF."""
        catalog = self.catalog
        share = 1.0 / self.arity
        conditional: dict = {}
        for name, literal in zip(self.names, row):
            if allocate:
                value_id = catalog.id_for(name, literal)
            else:
                value_id = catalog.ids.get(catalog.key_for(name, literal))
                if value_id is None:
                    continue  # unseen value: contributes no known mass
            conditional[value_id] = conditional.get(value_id, 0.0) + share
        return {key: self.base_prior * p for key, p in conditional.items()}

    def _closest(self, mass: dict) -> int:
        return self.summaries.closest(mass, self.base_prior)

    def assign(self, row) -> int:
        """Closest cluster of a row (read-only; unseen values ignored)."""
        return self._closest(self._mass(row, allocate=False))

    def absorb(self, row) -> int:
        """Fold one new row into its closest summary (Equations 1-2)."""
        mass = self._mass(row, allocate=True)
        index = self._closest(mass)
        self.summaries.absorb(index, mass, self.base_prior)
        self.absorbed += 1
        return index


class ResidentRelation:
    """One relation's daemon-resident state."""

    def __init__(self, rid: str, attributes):
        self.rid = rid
        self.attributes = tuple(str(name) for name in attributes)
        self.columns = ColumnStore(self.attributes)
        self.applied_seq = 0
        self.stale_rows = 0
        self.model_key: str | None = None
        self.model_healthy = True
        self.assigner: _Assigner | None = None  # process-local, not persisted
        self.remines = 0
        self.lock = threading.RLock()

    def snapshot_payload(self) -> dict:
        return {
            "attributes": self.attributes,
            "columns": self.columns,
            "applied_seq": self.applied_seq,
            "stale_rows": self.stale_rows,
            "model_key": self.model_key,
            "model_healthy": self.model_healthy,
            "remines": self.remines,
        }

    @classmethod
    def from_snapshot(cls, rid: str, payload: dict) -> "ResidentRelation":
        relation = cls(rid, payload["attributes"])
        relation.columns = payload["columns"]
        relation.applied_seq = int(payload["applied_seq"])
        relation.stale_rows = int(payload["stale_rows"])
        relation.model_key = payload["model_key"]
        relation.model_healthy = bool(payload.get("model_healthy", True))
        relation.remines = int(payload.get("remines", 0))
        return relation


class DiscoveryApp:
    """Route dispatch plus all resident state; one instance per daemon.

    Parameters
    ----------
    store:
        The daemon's :class:`~repro.checkpoint.CheckpointStore` (the caller
        acquires the daemon lock before building the app).
    params:
        Keyword overrides for :class:`~repro.core.StructureDiscovery`
        (``fd_k``, ``seed``, ``backend``, ...); the canonical manifest dict
        derived from them is half of every model-cache key.
    cache_bytes:
        Byte budget of the resident model cache.
    remine_after:
        Staleness watermark: absorbed rows per relation before a background
        re-mine is requested (0 disables re-mining).
    """

    def __init__(self, store, params: dict | None = None,
                 cache_bytes: int | None = 64 << 20,
                 remine_after: int = 256):
        self.store = store
        overrides = dict(params or {})
        overrides.setdefault("fd_mode", "topk")
        self._discovery_kwargs = overrides
        self.params = StructureDiscovery(**overrides).manifest_params()
        self.cache = ModelCache(store=store, max_bytes=cache_bytes)
        self.remine_after = int(remine_after)
        self.relations: dict[str, ResidentRelation] = {}
        self._relations_lock = threading.Lock()
        self.ready = False
        self.draining = False
        self.requests = 0

    # -- lifecycle ---------------------------------------------------------------

    def rehydrate(self) -> int:
        """Reload every persisted relation; returns how many came back.

        Models are rehydrated lazily by the cache on first query -- eagerly
        deserializing every model at boot would delay readiness for state
        nobody may ask about.
        """
        count = 0
        for rid in self.store.list_named("relation"):
            payload = self.store.load_named("relation", rid)
            if not isinstance(payload, dict):
                continue  # quarantined or torn: the client re-uploads
            try:
                relation = ResidentRelation.from_snapshot(rid, payload)
            except (KeyError, TypeError, ValueError):
                continue
            self.relations[rid] = relation
            count += 1
        self.ready = True
        return count

    def persist_all(self) -> None:
        """Write every relation's snapshot (drain-time safety net)."""
        with self._relations_lock:
            relations = list(self.relations.values())
        for relation in relations:
            with relation.lock:
                self._persist(relation)

    def _persist(self, relation: ResidentRelation) -> None:
        self.store.save_named("relation", relation.rid,
                              relation.snapshot_payload())

    # -- dispatch ----------------------------------------------------------------

    def handle(self, method: str, path: str, query: dict | None = None,
               body: dict | None = None,
               budget: Budget | None = None) -> tuple[int, dict]:
        """Serve one request; returns ``(status, payload)`` or raises a
        taxonomy error the server maps via :func:`status_for`."""
        fault_point("service.handler", (method, path))
        self.requests += 1
        query = query or {}
        parts = [part for part in path.split("/") if part]
        if method == "GET" and parts == ["healthz"]:
            return 200, {"status": "ok"}
        if method == "GET" and parts == ["readyz"]:
            if self.draining:
                raise ServiceUnavailable("daemon is draining")
            if not self.ready:
                raise ServiceUnavailable("daemon is still rehydrating")
            return 200, {"status": "ready", "relations": len(self.relations)}
        if method == "GET" and parts == ["stats"]:
            return 200, self.stats()
        if parts and parts[0] == "relations":
            return self._handle_relation(method, parts[1:], query, body,
                                         budget)
        raise NotFoundError(f"no route for {method} {path}",
                            resource="route", name=path)

    def _handle_relation(self, method, parts, query, body, budget):
        if not parts:
            raise NotFoundError("no route for /relations", resource="route",
                                name="/relations")
        rid = parts[0]
        if not _RID_PATTERN.match(rid):
            raise InputError(
                f"invalid relation id {rid!r} (want [A-Za-z0-9_-], "
                "at most 64 chars)")
        if len(parts) == 1:
            if method == "POST":
                return 200, self.create_relation(rid, body)
            if method == "GET":
                return 200, self.relation_status(rid)
        elif len(parts) == 2:
            action = parts[1]
            if action == "rows" and method == "POST":
                return 200, self.append_rows(rid, body)
            if action == "model" and method == "POST":
                return 200, self.build_model(rid, budget=budget,
                                             top=_int_query(query, "top", 5))
            if action == "fds" and method == "GET":
                return 200, self.top_fds(rid, k=_int_query(query, "k", 5),
                                         budget=budget)
            if action == "assign" and method == "POST":
                return 200, self.assign(rid, body, budget=budget)
            if action == "verify" and method == "GET":
                return 200, self.verify(rid, budget=budget)
        raise NotFoundError(
            f"no route for {method} /relations/{'/'.join(parts)}",
            resource="route", name="/".join(parts))

    # -- relation CRUD -----------------------------------------------------------

    def create_relation(self, rid: str, body: dict | None) -> dict:
        attributes = _require(body, "attributes", list)
        if not attributes or not all(
                isinstance(name, str) and name for name in attributes):
            raise SchemaError(
                "attributes must be a non-empty list of non-empty strings")
        if len(set(attributes)) != len(attributes):
            raise SchemaError("attribute names must be unique")
        with self._relations_lock:
            existing = self.relations.get(rid)
            if existing is not None:
                if existing.attributes != tuple(attributes):
                    raise InputError(
                        f"relation {rid!r} already exists with attributes "
                        f"{list(existing.attributes)!r}")
                return {"relation": rid, "existing": True,
                        "n_rows": existing.columns.n_rows}
            relation = ResidentRelation(rid, attributes)
            self.relations[rid] = relation
        with relation.lock:
            self._persist(relation)
        return {"relation": rid, "existing": False, "n_rows": 0}

    def _relation(self, rid: str) -> ResidentRelation:
        relation = self.relations.get(rid)
        if relation is None:
            raise NotFoundError(f"relation {rid!r} does not exist",
                                resource="relation", name=rid)
        return relation

    def relation_status(self, rid: str) -> dict:
        relation = self._relation(rid)
        with relation.lock:
            return {
                "relation": rid,
                "attributes": list(relation.attributes),
                "n_rows": relation.columns.n_rows,
                "applied_seq": relation.applied_seq,
                "stale_rows": relation.stale_rows,
                "model_key": relation.model_key,
                "model_built": relation.model_key is not None,
                "model_healthy": relation.model_healthy,
                "remines": relation.remines,
            }

    # -- incremental ingest ------------------------------------------------------

    def append_rows(self, rid: str, body: dict | None) -> dict:
        relation = self._relation(rid)
        rows = _require(body, "rows", list)
        if len(rows) > MAX_CHUNK_ROWS:
            raise InputError(
                f"chunk of {len(rows)} rows exceeds the per-request cap "
                f"of {MAX_CHUNK_ROWS}")
        seq = body.get("seq")
        if seq is not None and (not isinstance(seq, int) or seq < 1):
            raise InputError("seq must be a positive integer")
        converted = [self._convert_row(relation, index, row)
                     for index, row in enumerate(rows)]
        with relation.lock:
            if seq is not None and seq <= relation.applied_seq:
                # Exactly-once: a client retrying an acknowledged chunk
                # (its response was lost, or the daemon restarted after the
                # snapshot) must not double-apply it.
                return {"relation": rid, "applied_seq": relation.applied_seq,
                        "n_rows": relation.columns.n_rows,
                        "duplicate": True, "stale_rows": relation.stale_rows,
                        "needs_remine": False}
            if seq is not None and seq != relation.applied_seq + 1:
                raise InputError(
                    f"out-of-order chunk for {rid!r}: got seq {seq}, "
                    f"expected {relation.applied_seq + 1}")
            relation.columns.append_rows(converted)
            relation.applied_seq = (seq if seq is not None
                                    else relation.applied_seq + 1)
            if relation.model_key is not None:
                relation.stale_rows += len(converted)
                if relation.assigner is not None:
                    for row in converted:
                        relation.assigner.absorb(row)
            self._persist(relation)
            needs_remine = bool(
                self.remine_after
                and relation.model_key is not None
                and relation.stale_rows >= self.remine_after)
            return {"relation": rid, "applied_seq": relation.applied_seq,
                    "n_rows": relation.columns.n_rows, "duplicate": False,
                    "stale_rows": relation.stale_rows,
                    "needs_remine": needs_remine}

    def _convert_row(self, relation: ResidentRelation, index: int, row):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"row {index} is not an array")
        if len(row) != len(relation.attributes):
            raise InputError(
                f"row {index} has arity {len(row)}, relation "
                f"{relation.rid!r} expects {len(relation.attributes)}")
        converted = []
        for cell in row:
            if cell is None:
                converted.append(NULL)  # JSON null <-> the NULL sentinel
            elif isinstance(cell, (str, int, float, bool)):
                converted.append(cell)
            else:
                raise InputError(
                    f"row {index} holds a non-scalar cell of type "
                    f"{type(cell).__name__}")
        return tuple(converted)

    # -- models ------------------------------------------------------------------

    def _snapshot(self, relation: ResidentRelation):
        """An immutable Relation over a copy of the current columns.

        Mining runs minutes while ingest must keep appending; copying the
        coded store (int32 columns + dictionaries) under the lock lets the
        computation proceed on frozen state outside it.
        """
        import pickle

        with relation.lock:
            if relation.columns.n_rows == 0:
                raise InputError(
                    f"relation {relation.rid!r} has no rows yet")
            columns = pickle.loads(pickle.dumps(relation.columns))
        return Relation.from_columns(columns.names, columns)

    def _compute(self, frozen: Relation, budget: Budget | None):
        discovery = StructureDiscovery(**self._discovery_kwargs)
        return discovery.run(frozen, budget=budget)

    def build_model(self, rid: str, budget: Budget | None = None,
                    top: int = 5) -> dict:
        """Mine (or fetch) the model for the relation's *current* rows."""
        relation = self._relation(rid)
        frozen = self._snapshot(relation)
        key = model_key(relation_fingerprint(frozen), self.params)
        report = self.cache.get_or_compute(
            key, lambda: self._compute(frozen, budget),
            persist=lambda value: value.healthy)
        with relation.lock:
            relation.assigner = self._build_assigner(relation, report)
            relation.model_key = key
            relation.model_healthy = report.healthy
            relation.stale_rows = max(
                0, relation.columns.n_rows - len(report.relation))
            relation.remines += 1
            self._persist(relation)
        payload = report.summary(top=max(1, top))
        payload.update({"relation": rid, "model_key": key,
                        "stale_rows": relation.stale_rows})
        return payload

    @staticmethod
    def _build_assigner(relation: ResidentRelation,
                        report) -> _Assigner | None:
        """The assigner of ``report`` with every row ingested since its mine
        absorbed; ``None`` when its tuple-clustering stage degraded.

        The caller holds ``relation.lock``.  Any other failure is a bug and
        propagates (a 500), rather than passing for a degraded model.
        """
        limbo = report.tuple_clustering.limbo
        if limbo is None or not limbo.summaries:
            return None
        assigner = _Assigner(report)
        store, start = relation.columns, len(report.relation)
        # Decode only the rows past the mine, so a rebuild with none to
        # absorb costs nothing, whatever the size of the relation.
        late = [[dictionary.values[code] for code in column[start:].tolist()]
                for dictionary, column in zip(store.dictionaries,
                                              store.columns)]
        for row in zip(*late):
            assigner.absorb(row)
        return assigner

    def remine(self, rid: str, budget: Budget | None = None) -> dict:
        """The bounded background re-mine behind the staleness watermark."""
        return self.build_model(rid, budget=budget)

    def _model_for(self, relation: ResidentRelation, budget: Budget | None):
        """The report queries are served from.

        Prefers the last *mined* model (possibly stale relative to rows
        absorbed since); if its snapshot was lost, falls back to mining the
        current rows -- never serves nothing when it can serve something
        exact.
        """
        with relation.lock:
            key = relation.model_key
        if key is None:
            raise NotFoundError(
                f"no model built for relation {relation.rid!r} yet "
                "(POST /relations/{id}/model first)",
                resource="model", name=relation.rid)
        report = self.cache.peek(key)
        if report is None:
            self.cache.invalidate(key)
            self.build_model(relation.rid, budget=budget)
            with relation.lock:
                key = relation.model_key
            report = self.cache.peek(key)
            if report is None:  # pragma: no cover - build_model just cached it
                raise NotFoundError(
                    f"model for relation {relation.rid!r} was lost",
                    resource="model", name=relation.rid)
        return key, report

    def top_fds(self, rid: str, k: int = 5,
                budget: Budget | None = None) -> dict:
        relation = self._relation(rid)
        key, report = self._model_for(relation, budget)
        summary = report.summary(top=max(1, k))
        with relation.lock:
            stale = relation.stale_rows
        return {
            "relation": rid,
            "model_key": key,
            "stale_rows": stale,
            "approximate": stale > 0,
            "healthy": summary["healthy"],
            "dependencies_mined": summary["dependencies_mined"],
            "dependencies": summary["dependencies"],
            "ranked": summary["ranked"],
        }

    def assign(self, rid: str, body: dict | None,
               budget: Budget | None = None) -> dict:
        relation = self._relation(rid)
        row = _require(body, "row", list)
        converted = self._convert_row(relation, 0, row)
        key, report = self._model_for(relation, budget)
        with relation.lock:
            if relation.assigner is None:
                relation.assigner = self._build_assigner(relation, report)
            if relation.assigner is None:
                raise ServiceUnavailable(
                    f"model for {rid!r} carries no cluster summaries "
                    "(degraded clustering stage); re-mine first")
            cluster = relation.assigner.assign(converted)
            absorbed = relation.assigner.absorbed
            n_clusters = len(relation.assigner.summaries)
            stale = relation.stale_rows
        return {
            "relation": rid,
            "model_key": key,
            "cluster": cluster,
            "clusters": n_clusters,
            "approximate": absorbed > 0,
            "stale_rows": stale,
        }

    # -- reporting ---------------------------------------------------------------

    def verify(self, rid: str, budget: Budget | None = None) -> dict:
        """Independently re-certify the model currently served for ``rid``.

        Cross-checks the cache key against a re-derived
        ``model_key(relation_fingerprint, params)`` (so a cache that served
        the wrong snapshot is caught), then runs the full
        :class:`repro.audit.Auditor` over the served report.
        """
        from repro.audit import Auditor

        relation = self._relation(rid)
        key, report = self._model_for(relation, budget)
        certificate = Auditor(
            seed=int(self.params.get("seed", 0))).audit(report)
        expected_key = model_key(
            relation_fingerprint(report.relation), self.params)
        key_ok = key == expected_key
        violations = [v.to_json() for v in certificate.violations]
        if not key_ok:
            violations.insert(0, {
                "check": "digests", "artifact": f"model_key:{rid}",
                "detail": f"served key {key} != re-derived {expected_key}",
            })
        with relation.lock:
            stale = relation.stale_rows
        return {
            "relation": rid,
            "model_key": key,
            "stale_rows": stale,
            "ok": certificate.ok and key_ok,
            "verification": certificate.to_json(),
            "violations": violations,
        }

    def stats(self) -> dict:
        with self._relations_lock:
            relations = {
                rid: {"n_rows": rel.columns.n_rows,
                      "applied_seq": rel.applied_seq,
                      "stale_rows": rel.stale_rows,
                      "model_built": rel.model_key is not None}
                for rid, rel in self.relations.items()
            }
        from repro import __version__

        return {
            "version": __version__,
            "ready": self.ready,
            "draining": self.draining,
            "requests": self.requests,
            "params": self.params,
            "remine_after": self.remine_after,
            "cache": self.cache.stats(),
            "relations": relations,
        }


def _require(body: dict | None, field: str, kind: type):
    if not isinstance(body, dict) or field not in body:
        raise InputError(f"request body must be a JSON object with "
                         f"a {field!r} field")
    value = body[field]
    if not isinstance(value, kind):
        raise InputError(f"{field!r} must be a JSON {kind.__name__}")
    return value


def _int_query(query: dict, name: str, default: int) -> int:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise InputError(f"query parameter {name!r} must be an integer, "
                         f"got {raw!r}") from None
