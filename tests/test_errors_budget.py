"""The error taxonomy and the cooperative Budget."""

import pickle

import pytest

from repro.budget import (
    Budget,
    MemoryGovernor,
    checkpoint,
    format_bytes,
    parse_memory_size,
)
from repro.errors import (
    InputError,
    MemoryLimitExceeded,
    ReproError,
    ResourceLimitExceeded,
    SchemaError,
    StageFailure,
)


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(InputError, ReproError)
        assert issubclass(SchemaError, InputError)
        assert issubclass(ResourceLimitExceeded, ReproError)
        assert issubclass(MemoryLimitExceeded, ResourceLimitExceeded)
        assert issubclass(StageFailure, ReproError)

    def test_input_errors_are_value_errors(self):
        # Pre-taxonomy call sites used `except ValueError`; keep them working.
        assert issubclass(InputError, ValueError)
        assert issubclass(SchemaError, ValueError)

    def test_context_is_machine_readable(self):
        exc = InputError("bad row", path="/tmp/x.csv", line=7, got=3)
        assert exc.path == "/tmp/x.csv"
        assert exc.line == 7
        assert exc.context == {"path": "/tmp/x.csv", "line": 7, "got": 3}
        assert str(exc) == "bad row"

    def test_none_context_values_dropped(self):
        exc = ReproError("x", a=None, b=1)
        assert exc.context == {"b": 1}

    def test_stage_failure_carries_stage(self):
        exc = StageFailure("stage 'mining' failed", stage="mining")
        assert exc.stage == "mining"
        assert exc.context["stage"] == "mining"


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestBudget:
    def test_deadline_fires_deterministically(self):
        clock = FakeClock()
        budget = Budget(deadline=5.0, clock=clock)
        budget.checkpoint(where="loop")  # within deadline
        clock.now += 5.01
        with pytest.raises(ResourceLimitExceeded) as info:
            budget.checkpoint(where="loop")
        assert info.value.context["where"] == "loop"
        assert info.value.context["deadline"] == 5.0

    def test_unit_cap_fires(self):
        budget = Budget(max_units=100)
        budget.checkpoint(units=100, where="scan")
        with pytest.raises(ResourceLimitExceeded) as info:
            budget.checkpoint(units=1, where="scan")
        assert info.value.context["max_units"] == 100
        assert budget.units_used == 101

    def test_unlimited_budget_never_raises(self):
        budget = Budget()
        for _ in range(1000):
            budget.checkpoint(units=10**6)
        assert not budget.exhausted()

    def test_exhausted_is_non_raising(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        assert not budget.exhausted()
        clock.now += 2.0
        assert budget.exhausted()

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline=0)
        with pytest.raises(ValueError):
            Budget(max_units=-1)

    def test_module_checkpoint_tolerates_none(self):
        checkpoint(None, units=5, where="anywhere")  # must not raise

    def test_remaining_seconds(self):
        clock = FakeClock()
        budget = Budget(deadline=10.0, clock=clock)
        clock.now += 4.0
        assert budget.remaining_seconds() == pytest.approx(6.0)
        assert Budget().remaining_seconds() is None

    def test_remaining_seconds_clamps_at_zero(self):
        # A blown deadline reads as 0.0 remaining, never a negative number
        # that a caller might feed somewhere expecting a duration.
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.now += 5.0
        assert budget.remaining_seconds() == 0.0

    def test_checkpoint_listeners_observe_every_tick(self):
        # Listeners see the *cumulative* units used, which is what a
        # cadence-based consumer (checkpoint heartbeats) wants.
        budget = Budget(max_units=100)
        seen = []
        budget.on_checkpoint(lambda units, where: seen.append((units, where)))
        budget.checkpoint(units=10, where="limbo.fit")
        budget.checkpoint(units=5, where="aib.merge")
        assert seen == [(10, "limbo.fit"), (15, "aib.merge")]

    def test_listeners_fire_before_the_limit_check(self):
        budget = Budget(max_units=10)
        seen = []
        budget.on_checkpoint(lambda units, where: seen.append(units))
        with pytest.raises(ResourceLimitExceeded):
            budget.checkpoint(units=20, where="loop")
        # The tick that blew the cap was still observed.
        assert seen == [20]

    def test_listeners_are_process_local(self):
        budget = Budget(max_units=100)
        budget.on_checkpoint(lambda units, where: None)
        restored = pickle.loads(pickle.dumps(budget))
        restored.checkpoint(units=5, where="loop")  # must not raise
        assert restored._listeners == []


class TestMemorySizes:
    """`parse_memory_size` / `format_bytes` round the human byte notation."""

    @pytest.mark.parametrize("text,expected", [
        ("64M", 64 * 1024 ** 2),
        ("512k", 512 * 1024),
        ("1GiB", 1024 ** 3),
        ("2g", 2 * 1024 ** 3),
        ("1024", 1024),
        ("100B", 100),
        ("1.5M", int(1.5 * 1024 ** 2)),
        (" 16M ", 16 * 1024 ** 2),
    ])
    def test_parse(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "M", "64Q", "-1M", "0", "lots"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)

    def test_format(self):
        assert format_bytes(16 * 1024 ** 2) == "16.0M"
        assert format_bytes(512) == "512B"
        assert format_bytes(1024 ** 3) == "1.0G"
        assert format_bytes(None) == "unlimited"

    def test_round_trip(self):
        assert parse_memory_size(format_bytes(64 * 1024 ** 2)) == 64 * 1024 ** 2


class TestMemoryGovernor:
    def test_reserve_raises_without_booking(self):
        gov = MemoryGovernor(max_bytes=100)
        gov.reserve(60, where="dcf.entry")
        with pytest.raises(MemoryLimitExceeded) as info:
            gov.reserve(60, where="dcf.entry")
        # The failed reservation is NOT booked: the caller did not allocate.
        assert gov.reserved == 60
        ctx = info.value.context
        assert ctx["where"] == "dcf.entry"
        assert ctx["needed"] == 60
        assert ctx["reserved"] == 60
        assert ctx["max_memory_bytes"] == 100

    def test_release_clamps_at_zero(self):
        gov = MemoryGovernor(max_bytes=100)
        gov.reserve(10)
        gov.release(50)
        assert gov.reserved == 0
        gov.reserve(100)  # the full cap is available again

    def test_would_exceed_is_non_raising(self):
        gov = MemoryGovernor(max_bytes=100)
        gov.reserve(90)
        assert gov.would_exceed(20)
        assert not gov.would_exceed(10)
        assert gov.reserved == 90  # queries never book

    def test_tick_samples_on_cadence_only(self):
        reads = []

        def rss():
            reads.append(1)
            return 10

        gov = MemoryGovernor(max_bytes=100, sample_every=4, rss_reader=rss)
        for _ in range(11):
            gov.tick(where="loop")
        assert len(reads) == 2  # ticks 4 and 8
        assert gov.samples == 2
        assert gov.last_rss == 10

    def test_rss_breach_raises_with_context(self):
        gov = MemoryGovernor(max_bytes=100, rss_reader=lambda: 250)
        with pytest.raises(MemoryLimitExceeded) as info:
            gov.check(where="aib.merge")
        ctx = info.value.context
        assert ctx["where"] == "aib.merge"
        assert ctx["rss"] == 250
        assert ctx["max_memory_bytes"] == 100
        assert gov.peak_sampled_rss == 250

    def test_best_effort_observes_without_raising(self):
        gov = MemoryGovernor(max_bytes=100, rss_reader=lambda: 999)
        gov.set_best_effort()
        gov.reserve(10 ** 6, where="huge")  # over the cap; must not raise
        gov.check(where="loop")             # RSS over the cap; must not raise
        assert gov.reserved == 10 ** 6      # accounting continues
        assert gov.peak_sampled_rss == 999
        assert not gov.would_exceed(10 ** 9)

    def test_pressured_and_stats(self):
        gov = MemoryGovernor(max_bytes=100)
        assert not gov.pressured
        with pytest.raises(MemoryLimitExceeded):
            gov.reserve(200, where="x")
        assert gov.pressured
        stats = gov.stats()
        assert stats["max_bytes"] == 100
        assert stats["pressure_events"] == 1
        assert stats["best_effort"] is False

    def test_describe_mentions_cap_and_pressure(self):
        gov = MemoryGovernor(max_bytes=16 * 1024 ** 2)
        assert "cap 16.0M" in gov.describe()
        with pytest.raises(MemoryLimitExceeded):
            gov.reserve(10 ** 9, where="x")
        gov.set_best_effort()
        text = gov.describe()
        assert "pressure event" in text
        assert "best-effort" in text

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            MemoryGovernor(max_bytes=0)
        with pytest.raises(ValueError):
            MemoryGovernor(max_bytes=100, sample_every=0)
        gov = MemoryGovernor(max_bytes=100)
        with pytest.raises(ValueError):
            gov.reserve(-1)


class TestBudgetMemory:
    """The memory dimension as seen through Budget itself."""

    def test_budget_attaches_a_governor(self):
        budget = Budget(max_memory_bytes=1024)
        assert isinstance(budget.memory, MemoryGovernor)
        assert budget.memory.max_bytes == 1024
        assert Budget().memory is None

    def test_invalid_memory_cap_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_memory_bytes=0)

    def test_checkpoint_ticks_the_governor(self):
        budget = Budget(max_memory_bytes=100)
        budget.memory._rss_reader = lambda: 500
        budget.memory.sample_every = 2
        budget.checkpoint(where="loop")  # tick 1: no sample
        with pytest.raises(MemoryLimitExceeded) as info:
            budget.checkpoint(where="loop")  # tick 2: samples, breaches
        assert info.value.context["rss"] == 500

    def test_describe_and_repr_carry_memory(self):
        budget = Budget(deadline=5.0, max_memory_bytes=16 * 1024 ** 2)
        assert "memory: cap 16.0M" in budget.describe()
        assert "max_memory_bytes=16777216" in repr(budget)
        assert "memory" not in Budget(deadline=5.0).describe()

    def test_module_helpers_tolerate_ungoverned_budgets(self):
        from repro.budget import governor_of, release, reserve

        assert governor_of(None) is None
        assert governor_of(Budget()) is None
        reserve(None, 10)           # must not raise
        reserve(Budget(), 10)       # must not raise
        release(Budget(), 10)       # must not raise
        budget = Budget(max_memory_bytes=100)
        reserve(budget, 40, where="x")
        assert budget.memory.reserved == 40
        release(budget, 40)
        assert budget.memory.reserved == 0
        assert governor_of(budget) is budget.memory


class TestBudgetPickle:
    """Budgets cross process boundaries carrying their *remaining* allowance."""

    def test_unit_allowance_survives_pickling(self):
        budget = Budget(max_units=100)
        budget.checkpoint(units=30)
        restored = pickle.loads(pickle.dumps(budget))
        assert restored.remaining_units() == 70
        restored.checkpoint(units=70)  # exactly the allowance left
        with pytest.raises(ResourceLimitExceeded):
            restored.checkpoint(units=1)

    def test_deadline_pickles_as_remaining_time(self):
        # The monotonic epoch is per-process state; what must survive is
        # the time still left, not the original start instant.
        clock = FakeClock()
        budget = Budget(deadline=100.0, clock=clock)
        clock.now += 40.0
        restored = pickle.loads(pickle.dumps(budget))
        assert restored.remaining_seconds() == pytest.approx(60.0, abs=1.0)
        assert not restored.exhausted()

    def test_exhausted_budget_stays_exhausted(self):
        clock = FakeClock()
        budget = Budget(deadline=1.0, clock=clock)
        clock.now += 5.0
        restored = pickle.loads(pickle.dumps(budget))
        assert restored.exhausted()
        with pytest.raises(ResourceLimitExceeded):
            restored.checkpoint(where="after transit")

    def test_unlimited_budget_round_trips(self):
        restored = pickle.loads(pickle.dumps(Budget()))
        assert restored.remaining_seconds() is None
        assert restored.remaining_units() is None
        restored.checkpoint(units=10**6)  # still unlimited

    def test_memory_cap_survives_with_a_fresh_governor(self):
        budget = Budget(max_memory_bytes=4096)
        budget.memory.reserve(1000, where="parent")
        restored = pickle.loads(pickle.dumps(budget))
        # The cap travels; reservations are process-local observations and
        # the receiving process starts clean under the same cap.
        assert restored.max_memory_bytes == 4096
        assert isinstance(restored.memory, MemoryGovernor)
        assert restored.memory.max_bytes == 4096
        assert restored.memory.reserved == 0
        assert restored.memory is not budget.memory

    def test_ungoverned_budget_stays_ungoverned_after_transit(self):
        restored = pickle.loads(pickle.dumps(Budget(max_units=10)))
        assert restored.max_memory_bytes is None
        assert restored.memory is None


class TestBudgetedAlgorithms:
    def test_fdep_respects_unit_cap(self):
        from repro.datasets import db2_sample
        from repro.fd import fdep

        relation = db2_sample(seed=0).relation
        with pytest.raises(ResourceLimitExceeded):
            fdep(relation, budget=Budget(max_units=10))

    def test_tane_respects_unit_cap(self):
        from repro.datasets import db2_sample
        from repro.fd import tane

        relation = db2_sample(seed=0).relation
        with pytest.raises(ResourceLimitExceeded):
            tane(relation, budget=Budget(max_units=10))

    def test_limbo_respects_unit_cap(self):
        from repro.core.tuple_clustering import cluster_tuples
        from repro.datasets import db2_sample

        relation = db2_sample(seed=0).relation
        with pytest.raises(ResourceLimitExceeded):
            cluster_tuples(relation, budget=Budget(max_units=10))

    def test_generous_budget_changes_nothing(self):
        from repro.datasets import db2_sample
        from repro.fd import fdep

        relation = db2_sample(seed=0).relation
        assert fdep(relation) == fdep(relation, budget=Budget(deadline=300.0))
