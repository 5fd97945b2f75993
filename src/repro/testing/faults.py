"""Deterministic fault injection for the resilient runtime.

Library code marks interesting sites with ``fault_point(name, value)`` --
a no-op (returning ``value`` unchanged) unless a test activated a matching
fault via the :func:`inject` context manager.  Three actions compose:

* ``raises`` -- raise an exception (instance, or class to instantiate);
* ``delay``  -- ``time.sleep`` for a fixed duration, used with tight
  :class:`repro.budget.Budget` deadlines to trigger budget exhaustion
  deterministically;
* ``corrupt`` -- transform the value flowing through the point.

Faults fire on every hit by default; ``after`` skips the first N hits and
``limit`` caps how many times the action runs, so tests can target e.g.
"the third lattice level only".  The yielded :class:`Fault` exposes ``hits``
and ``fired`` counters for assertions that the guarded path really ran.

Example::

    from repro.testing import inject

    with inject("discovery.mining", raises=RuntimeError("miner died")) as f:
        report = StructureDiscovery().run(relation)
    assert f.fired == 1
    assert report.outcome("mining").status == "degraded"

Only names in :data:`FAULT_POINTS` may be injected -- a typo in a test
raises immediately instead of silently never firing.  ``fault_point``
itself accepts any name so library modules can add sites freely; new sites
should be registered here and documented in ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Every named fault point the library currently exposes.
FAULT_POINTS = frozenset({
    # one per discovery-pipeline stage (fired at the top of the stage body)
    "discovery.tuple_clustering",
    "discovery.value_clustering",
    "discovery.attribute_grouping",
    "discovery.mining",
    "discovery.cover",
    "discovery.rank",
    # ingestion: fired once per data row with the parsed record as value
    "io.read_csv.row",
    # miners and clustering hot loops
    "fd.fdep.pairs",
    "fd.tane.level",
    "fd.reliable.node",
    "limbo.fit",
    "limbo.assign",
    # memory governance: fired with the freshly sampled RSS byte count as
    # value -- `corrupt` forges memory pressure (or its absence) so the
    # degradation-ladder tests are independent of the host's real memory
    "memory.sample",
    # space-bounded LIMBO Phase 1: fired when the leaf-entry buffer
    # overflows, just before the threshold-escalating in-place rebuild;
    # value = (n_leaf_entries, escalated_threshold)
    "limbo.buffer_overflow",
    # durable checkpoints: fired with the raw snapshot bytes about to be
    # written (save) / just read back (load); `corrupt` simulates torn or
    # bit-rotted snapshots, `raises` simulates an unwritable/unreadable disk
    "checkpoint.save",
    "checkpoint.load",
    # supervised runs (all fired in the parent/supervisor process):
    # `supervisor.spawn` just before each child spawn (value = attempt
    # number; `raises` simulates a fork/exec failure, which is retried);
    # `supervisor.heartbeat` at every watchdog poll with the fresh
    # HeartbeatStatus as value -- `corrupt` returning a frozen status
    # simulates a hung child without waiting out a real hang_timeout;
    # `supervisor.escalate` when a poison stage's ladder escalation is
    # decided, value = (stage, rung_count)
    "supervisor.spawn",
    "supervisor.heartbeat",
    "supervisor.escalate",
    # resident service daemon (repro.service):
    # `service.accept` as each connection is accepted, before any bytes are
    # parsed (value = peername; `raises` simulates an accept/parse-path
    # crash, which must cost that connection only, never the daemon);
    # `service.handler` at request dispatch, after admission (value =
    # (method, path); `raises` simulates a handler crash -> mapped 500);
    # `service.cache_load` with the raw bytes read back for a model-cache
    # rehydration (`corrupt` simulates a rotted snapshot -> quarantine and
    # recompute); `service.drain` once at drain start with the number of
    # in-flight requests as value (`raises` simulates a drain-path failure,
    # which must still exit the daemon cleanly)
    "service.accept",
    "service.handler",
    "service.cache_load",
    "service.drain",
})

#: Stack of active fault plans (dicts name -> Fault); inner-most wins last.
_ACTIVE: list[dict] = []


@dataclass
class Fault:
    """One activated fault: what to do and when.

    ``hits`` counts how many times the point was reached while this fault
    was active; ``fired`` how many times the action actually ran.
    """

    raises: BaseException | type | None = None
    delay: float = 0.0
    corrupt: object = None  # callable value -> value
    after: int = 0
    limit: int | None = None
    hits: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)


def active_faults() -> dict:
    """The merged view of currently active faults (inner-most wins)."""
    merged: dict = {}
    for plan in _ACTIVE:
        merged.update(plan)
    return merged


def fault_point(name: str, value=None):
    """A named hook in library code; returns ``value`` (possibly corrupted).

    Without active faults this is two attribute loads and a truth test --
    cheap enough for per-row and per-level call sites.
    """
    if not _ACTIVE:
        return value
    for plan in reversed(_ACTIVE):
        fault = plan.get(name)
        if fault is None:
            continue
        fault.hits += 1
        if fault.hits <= fault.after:
            continue
        if fault.limit is not None and fault.fired >= fault.limit:
            continue
        fault.fired += 1
        if fault.delay:
            time.sleep(fault.delay)
        if fault.corrupt is not None:
            value = fault.corrupt(value)
        if fault.raises is not None:
            exc = fault.raises
            if isinstance(exc, type):
                exc = exc(f"injected fault at {name}")
            raise exc
        break  # inner-most matching fault handled the hit
    return value


@contextmanager
def inject(name: str, *, raises=None, delay: float = 0.0, corrupt=None,
           after: int = 0, limit: int | None = None):
    """Activate one fault for the duration of a ``with`` block.

    Yields the :class:`Fault` so tests can assert on ``hits``/``fired``.
    Nest ``with inject(...)`` blocks to arm several points at once.
    """
    if name not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {name!r}; known points: "
            f"{sorted(FAULT_POINTS)}"
        )
    if raises is None and not delay and corrupt is None:
        raise ValueError("inject needs at least one of raises/delay/corrupt")
    fault = Fault(raises=raises, delay=delay, corrupt=corrupt,
                  after=after, limit=limit)
    plan = {name: fault}
    _ACTIVE.append(plan)
    try:
        yield fault
    finally:
        for index, active in enumerate(_ACTIVE):
            if active is plan:
                del _ACTIVE[index]
                break
