"""Cooperative resource budgets: deadlines, work-unit caps, and memory.

A :class:`Budget` is created once per run and threaded through the expensive
loops (FDEP pair scans, TANE lattice levels, LIMBO inserts/assignments).
Those loops call :meth:`Budget.checkpoint` every few hundred iterations; the
first checkpoint past the deadline or the unit cap raises
:class:`repro.errors.ResourceLimitExceeded` instead of letting the miner run
unbounded.  Checkpoints are cheap (one ``time.monotonic`` call), so the
granularity is set by the caller's batching, not by the budget itself.

The third dimension is memory.  ``Budget(max_memory_bytes=...)`` attaches a
:class:`MemoryGovernor` (exposed as ``budget.memory``) that combines two
signals:

* **cooperative accounting** -- allocation sites (DCF-tree entry mass,
  dense-kernel matrices, TANE partition levels, ingestion chunks) call
  :meth:`MemoryGovernor.reserve`/:meth:`MemoryGovernor.release` with byte
  estimates, and a reservation that would cross the cap raises
  :class:`repro.errors.MemoryLimitExceeded` *before* the allocation happens;
* **process-level sampling** -- every ``sample_every`` checkpoint ticks the
  governor reads the resident-set size (``/proc/self/statm``, falling back
  to :mod:`tracemalloc` where procfs is unavailable) and raises the same
  error when the process as a whole is over the cap.

Both signals fire only at cooperative call sites -- a reservation or a
budget checkpoint -- never asynchronously, so where a memory error can
surface is deterministic even though the sampled RSS itself is not.
:meth:`MemoryGovernor.set_best_effort` turns the governor into a pure
observer (accounting continues, nothing raises); the discovery ladder flips
it after the last degradation rung so a capped run always completes.

Deadlines are **absolute**: the budget captures ``deadline_at = now +
deadline`` once at construction and every check compares the clock against
that fixed instant.  This is what keeps a budget meaningful across the
supervisor's process boundary (:mod:`repro.supervisor`): a budget pickled
into a supervised child re-anchors the *remaining* wall-clock allowance
(via ``time.time``, which is comparable across processes, unlike
per-process monotonic epochs) and the *remaining* unit allowance, so a
restarted attempt cannot restart the clock or the counter from zero.

The clock is injectable for deterministic tests: pass any zero-argument
callable returning seconds.
"""

from __future__ import annotations

import os
import time

from repro.errors import MemoryLimitExceeded, ResourceLimitExceeded
from repro.testing.faults import fault_point

#: Default number of checkpoint ticks between process-level RSS samples.
SAMPLE_EVERY = 32

#: How many pressure incidents a governor keeps for the report's health
#: section; older incidents are summarized by the counters, not stored.
_MAX_EVENTS = 64

_SIZE_SUFFIXES = {"": 1, "b": 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3,
                  "t": 1024 ** 4}


def parse_memory_size(text: str) -> int:
    """Parse a human memory size (``"64M"``, ``"512k"``, ``"1GiB"``, bytes).

    Binary units (1K = 1024).  Raises ``ValueError`` on anything that does
    not describe a positive whole number of bytes.
    """
    raw = str(text).strip().lower()
    unit = raw.lstrip("0123456789.")
    number = raw[: len(raw) - len(unit)]
    unit = unit.strip()
    if unit.endswith("ib"):
        unit = unit[:-2]
    elif unit.endswith("b") and unit != "b":
        unit = unit[:-1]
    if not number or unit not in _SIZE_SUFFIXES:
        raise ValueError(f"unrecognized memory size {text!r} "
                         "(expected e.g. 67108864, 64M, 512k, 1G)")
    try:
        n_bytes = int(float(number) * _SIZE_SUFFIXES[unit])
    except ValueError:
        raise ValueError(f"unrecognized memory size {text!r}") from None
    if n_bytes <= 0:
        raise ValueError(f"memory size must be positive: {text!r}")
    return n_bytes


def format_bytes(n_bytes: int | None) -> str:
    """``16777216 -> '16.0M'`` -- compact human rendering for reports."""
    if n_bytes is None:
        return "unlimited"
    value = float(n_bytes)
    for unit in ("B", "K", "M", "G", "T"):
        if value < 1024.0 or unit == "T":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}T"  # pragma: no cover -- loop always returns


_page_size_cache: int | None = None


def _page_size() -> int:
    global _page_size_cache
    if _page_size_cache is None:
        try:
            _page_size_cache = os.sysconf("SC_PAGE_SIZE")
        except (AttributeError, OSError, ValueError):
            _page_size_cache = 4096
    return _page_size_cache


def read_rss() -> int:
    """Resident-set size of this process in bytes.

    Prefers ``/proc/self/statm`` (one read, no allocation); where procfs is
    unavailable (macOS, sandboxes) falls back to :mod:`tracemalloc`, which
    under-counts (Python-allocated memory only) but preserves the contract
    that a byte number comes back.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _page_size()
    except (OSError, IndexError, ValueError):
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, _peak = tracemalloc.get_traced_memory()
        return current


def peak_rss() -> int | None:
    """High-water-mark RSS in bytes (``ru_maxrss``), for benchmarks.

    ``None`` where the platform offers no peak counter.
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes; macOS reports bytes.  Treat plausibly
        # byte-sized values (> 1 GiB as KiB would be > 1 TiB) as bytes.
        return peak * 1024 if peak < 1 << 32 else peak
    except (ImportError, OSError, ValueError):
        return None


class MemoryGovernor:
    """Byte-cap enforcement: cooperative reservations + periodic RSS samples.

    Parameters
    ----------
    max_bytes:
        The cap.  Reservations that would cross it, and RSS samples above
        it, raise :class:`repro.errors.MemoryLimitExceeded`.
    sample_every:
        Checkpoint ticks between RSS samples (count-based so the *sites*
        where a sample can fire are deterministic).
    rss_reader:
        Injectable RSS source for tests; defaults to :func:`read_rss`.
        The sampled value additionally flows through the
        ``memory.sample`` fault point, so tests can corrupt it without
        touching the reader.
    """

    def __init__(self, max_bytes: int, sample_every: int = SAMPLE_EVERY,
                 rss_reader=None):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.max_bytes = int(max_bytes)
        self.sample_every = int(sample_every)
        self._rss_reader = rss_reader or read_rss
        self.reserved = 0
        self.peak_reserved = 0
        self.samples = 0
        self.last_rss: int | None = None
        self.peak_sampled_rss = 0
        self.best_effort = False
        self.pressure_events: list[dict] = []
        self._ticks = 0

    # -- cooperative accounting ---------------------------------------------------

    def reserve(self, n_bytes: int, where: str = "") -> None:
        """Account ``n_bytes`` about to be allocated; raise if over the cap.

        A raising reserve does **not** book the bytes -- the caller is
        expected to not allocate (fall back, degrade, or propagate).
        """
        n_bytes = int(n_bytes)
        if n_bytes < 0:
            raise ValueError("cannot reserve a negative byte count")
        if not self.best_effort and self.reserved + n_bytes > self.max_bytes:
            self._note("reserve", where=where, needed=n_bytes)
            raise MemoryLimitExceeded(
                f"memory cap exceeded at {where or 'reserve'}: "
                f"{format_bytes(self.reserved)} reserved + "
                f"{format_bytes(n_bytes)} needed > "
                f"{format_bytes(self.max_bytes)} cap",
                where=where, needed=n_bytes, reserved=self.reserved,
                max_memory_bytes=self.max_bytes,
            )
        self.reserved += n_bytes
        if self.reserved > self.peak_reserved:
            self.peak_reserved = self.reserved

    def release(self, n_bytes: int) -> None:
        """Return previously reserved bytes (clamped at zero)."""
        self.reserved = max(0, self.reserved - int(n_bytes))

    def would_exceed(self, n_bytes: int = 0) -> bool:
        """Non-raising query: would reserving ``n_bytes`` cross the cap?

        Used by the dense kernels to *prefer* the sparse backend instead of
        raising -- a refusal that needs no recovery path.
        """
        if self.best_effort:
            return False
        return self.reserved + int(n_bytes) > self.max_bytes

    # -- process-level sampling ---------------------------------------------------

    def tick(self, where: str = "") -> None:
        """One budget-checkpoint tick; samples RSS every ``sample_every``."""
        self._ticks += 1
        if self._ticks % self.sample_every == 0:
            self.check(where)

    def check(self, where: str = "") -> None:
        """Sample RSS now and raise if the process is over the cap."""
        rss = int(fault_point("memory.sample", self._rss_reader()))
        self.samples += 1
        self.last_rss = rss
        if rss > self.peak_sampled_rss:
            self.peak_sampled_rss = rss
        if not self.best_effort and rss > self.max_bytes:
            self._note("rss", where=where, rss=rss)
            raise MemoryLimitExceeded(
                f"memory cap exceeded at {where or 'memory.check'}: "
                f"RSS {format_bytes(rss)} > {format_bytes(self.max_bytes)} cap",
                where=where, rss=rss, reserved=self.reserved,
                max_memory_bytes=self.max_bytes,
            )

    # -- modes and reporting ------------------------------------------------------

    def set_best_effort(self, on: bool = True) -> None:
        """Observer mode: keep accounting and sampling, stop raising.

        The discovery degradation ladder flips this after its last rung so
        a capped run finishes (with degraded fidelity) instead of dying.
        """
        self.best_effort = bool(on)

    def _note(self, kind: str, **details) -> None:
        if len(self.pressure_events) < _MAX_EVENTS:
            self.pressure_events.append(
                {"kind": kind, **{k: v for k, v in details.items() if v}})

    @property
    def pressured(self) -> bool:
        """Whether any limit was ever hit (even in best-effort mode)."""
        return bool(self.pressure_events)

    def stats(self) -> dict:
        """Counters for the report's ``memory`` health entry."""
        return {
            "max_bytes": self.max_bytes,
            "peak_reserved": self.peak_reserved,
            "samples": self.samples,
            "pressure_events": len(self.pressure_events),
            "best_effort": self.best_effort,
        }

    def describe(self) -> str:
        state = f"cap {format_bytes(self.max_bytes)}"
        state += f", peak reserved {format_bytes(self.peak_reserved)}"
        if self.pressure_events:
            state += f", {len(self.pressure_events)} pressure event(s)"
        if self.best_effort:
            state += ", best-effort"
        return state

    def __repr__(self) -> str:
        return f"MemoryGovernor({self.describe()})"


class Budget:
    """A wall-clock deadline and/or a cap on cooperative work units.

    Parameters
    ----------
    deadline:
        Seconds from construction after which checkpoints raise; ``None``
        means no time limit.
    max_units:
        Total work units (loop iterations, tuple pairs, lattice nodes --
        whatever the instrumented code counts) after which checkpoints
        raise; ``None`` means no unit cap.
    max_memory_bytes:
        Byte cap enforced by an attached :class:`MemoryGovernor`
        (``budget.memory``); ``None`` means no memory governance at all --
        zero overhead, and no ``memory`` entry in any report.
    clock:
        Monotonic-seconds source (injectable for tests).
    """

    __slots__ = ("deadline", "max_units", "max_memory_bytes", "memory",
                 "_clock", "_start", "_deadline_at", "_units", "_listeners")

    def __init__(self, deadline: float | None = None,
                 max_units: int | None = None,
                 max_memory_bytes: int | None = None, clock=time.monotonic):
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if max_units is not None and max_units <= 0:
            raise ValueError("max_units must be positive (or None)")
        if max_memory_bytes is not None and max_memory_bytes <= 0:
            raise ValueError("max_memory_bytes must be positive (or None)")
        self.deadline = deadline
        self.max_units = max_units
        self.max_memory_bytes = max_memory_bytes
        self.memory = (None if max_memory_bytes is None
                       else MemoryGovernor(max_memory_bytes))
        self._clock = clock
        self._start = clock()
        self._deadline_at = None if deadline is None else self._start + deadline
        self._units = 0
        self._listeners: list = []

    # -- accounting --------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self._start

    @property
    def units_used(self) -> int:
        """Work units consumed so far."""
        return self._units

    def remaining_seconds(self) -> float | None:
        """Seconds left before the deadline (``None`` = unlimited).

        Clamped at 0.0 past the deadline, matching
        :meth:`remaining_units` -- "no allowance left" never reads as a
        negative quantity.
        """
        if self._deadline_at is None:
            return None
        return max(0.0, self._deadline_at - self._clock())

    def remaining_units(self) -> int | None:
        """Work units left under the cap (``None`` = unlimited)."""
        if self.max_units is None:
            return None
        return max(0, self.max_units - self._units)

    def exhausted(self) -> bool:
        """Whether either limit has already been crossed (non-raising)."""
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            return True
        if self.max_units is not None and self._units > self.max_units:
            return True
        return False

    # -- the cooperative checkpoint ----------------------------------------------

    def on_checkpoint(self, listener) -> None:
        """Register ``listener(units_used, where)``, called on every
        :meth:`checkpoint`.

        This is the hook the durable-checkpoint layer
        (:class:`repro.checkpoint.CheckpointStore`) uses for its intra-stage
        cadence: the budget already sits inside every expensive loop, so its
        tick stream is exactly "the run is making progress".  Listeners are
        process-local state and are dropped when a budget is pickled into a
        supervised child.  Listeners fire
        *before* the limit checks, so the final tick that crosses a limit is
        still observed.
        """
        self._listeners.append(listener)

    def off_checkpoint(self, listener) -> None:
        """Unregister a listener added by :meth:`on_checkpoint` (if present)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def checkpoint(self, units: int = 1, where: str = "") -> None:
        """Consume ``units`` and raise if a limit is crossed.

        ``where`` names the call site; it ends up in the error context so
        reports can say *which* loop ran out of budget.
        """
        self._units += units
        for listener in self._listeners:
            listener(self._units, where)
        if self.memory is not None:
            self.memory.tick(where)
        if self.max_units is not None and self._units > self.max_units:
            raise ResourceLimitExceeded(
                f"work-unit cap exceeded at {where or 'checkpoint'} "
                f"({self._units} > {self.max_units} units)",
                where=where, units=self._units, max_units=self.max_units,
            )
        if self._deadline_at is not None and self._clock() > self._deadline_at:
            elapsed = self.elapsed
            raise ResourceLimitExceeded(
                f"deadline exceeded at {where or 'checkpoint'} "
                f"({elapsed:.3f}s > {self.deadline:.3f}s)",
                where=where, elapsed=elapsed, deadline=self.deadline,
            )

    # -- derived budgets ---------------------------------------------------------

    def derive(self, deadline: float | None = None,
               max_units: int | None = None) -> "Budget":
        """A child budget for one unit of work inside this budget's scope.

        The child's deadline is clamped to whatever allowance this budget
        has left, so no derived task can outlive its parent; its memory
        governance *shares* the parent's :class:`MemoryGovernor` object
        (same cap, same accounting), because the bytes a child reserves are
        bytes the whole process has spent.  The resident service daemon
        uses this to mint one budget per HTTP request off its process-wide
        budget: ``request_budget = daemon_budget.derive(deadline=30.0)``.

        Unit caps do not inherit -- the parent counts only its own units.
        """
        remaining = self.remaining_seconds()
        if deadline is None:
            child_deadline = remaining
        elif remaining is None:
            child_deadline = deadline
        else:
            child_deadline = min(deadline, remaining)
        if child_deadline is not None:
            # A parent already past its deadline leaves epsilon allowance:
            # the child raises at its first checkpoint instead of at
            # construction, matching every other budget-exhaustion site.
            child_deadline = max(child_deadline, 1e-6)
        child = Budget(deadline=child_deadline, max_units=max_units,
                       clock=self._clock)
        child.max_memory_bytes = self.max_memory_bytes
        child.memory = self.memory
        return child

    # -- process portability -----------------------------------------------------

    def __getstate__(self):
        """Serialize the *remaining* allowance, wall-clock anchored.

        Monotonic epochs are per-process state; a pickled budget instead
        carries its remaining deadline plus a ``time.time`` stamp so the
        receiving process (a supervised child, possibly under the ``spawn``
        start method) resumes with whatever allowance is genuinely left --
        including time spent in transit.
        """
        return {
            "deadline": self.deadline,
            "max_units": self.max_units,
            "max_memory_bytes": self.max_memory_bytes,
            "remaining_seconds": self.remaining_seconds(),
            "remaining_units": self.remaining_units(),
            "wall_at": time.time(),
        }

    def __setstate__(self, state) -> None:
        self.deadline = state["deadline"]
        self.max_units = state["max_units"]
        self.max_memory_bytes = state.get("max_memory_bytes")
        # Reservations and sampled RSS are process-local observations; the
        # receiving process starts a fresh governor under the same cap.
        self.memory = (None if self.max_memory_bytes is None
                       else MemoryGovernor(self.max_memory_bytes))
        self._clock = time.monotonic
        self._listeners = []  # listeners are process-local, never shipped
        self._start = self._clock()
        remaining = state["remaining_seconds"]
        if remaining is None:
            self._deadline_at = None
        else:
            in_transit = max(0.0, time.time() - state["wall_at"])
            self._deadline_at = self._start + remaining - in_transit
        if state["remaining_units"] is None:
            self._units = 0
        else:
            # Re-anchor the counter so the cap reflects what is left.
            self._units = (self.max_units or 0) - state["remaining_units"]

    def describe(self) -> str:
        """One human line per governed dimension, with current usage."""
        lines = []
        if self.deadline is not None:
            lines.append(f"deadline: {self.deadline:g}s "
                         f"({self.remaining_seconds():.3f}s left)")
        if self.max_units is not None:
            lines.append(f"units: {self._units}/{self.max_units}")
        if self.memory is not None:
            lines.append(f"memory: {self.memory.describe()}")
        return "; ".join(lines) or "unlimited"

    def __repr__(self) -> str:
        limits = []
        if self.deadline is not None:
            limits.append(f"deadline={self.deadline}s")
        if self.max_units is not None:
            limits.append(f"max_units={self.max_units}")
        if self.max_memory_bytes is not None:
            limits.append(f"max_memory_bytes={self.max_memory_bytes}")
        return f"Budget({', '.join(limits) or 'unlimited'})"


def checkpoint(budget: Budget | None, units: int = 1, where: str = "") -> None:
    """``budget.checkpoint`` that tolerates ``budget=None`` (the common case)."""
    if budget is not None:
        budget.checkpoint(units=units, where=where)


def governor_of(budget: Budget | None) -> MemoryGovernor | None:
    """The attached governor, tolerating ``budget=None`` / no memory cap."""
    return getattr(budget, "memory", None)


def reserve(budget: Budget | None, n_bytes: int, where: str = "") -> None:
    """``budget.memory.reserve`` that tolerates an ungoverned budget."""
    if budget is not None and budget.memory is not None:
        budget.memory.reserve(n_bytes, where=where)


def release(budget: Budget | None, n_bytes: int) -> None:
    """``budget.memory.release`` that tolerates an ungoverned budget."""
    if budget is not None and budget.memory is not None:
        budget.memory.release(n_bytes)
