"""Memory governance, proven by deterministic fault injection.

The host's real memory never decides these tests: forged RSS values flow
through the ``memory.sample`` fault point, and the space-bound/eager-free
invariants are
observed through ``limbo.buffer_overflow`` and ``fd.tane.level`` probes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Budget, Relation, StructureDiscovery
from repro.core.tuple_clustering import cluster_tuples
from repro.errors import MemoryLimitExceeded, StageFailure
from repro.fd import tane
from repro.testing import inject

#: A cap real test-process RSS can never reach, and a forged sample above it.
BIG_CAP = 1 << 40
FORGED_RSS = 1 << 50


@pytest.fixture(scope="module")
def relation():
    from repro.datasets import db2_sample

    return db2_sample(seed=0).relation


def governed_budget(cap=BIG_CAP):
    """A memory-governed budget that samples at *every* checkpoint tick."""
    budget = Budget(max_memory_bytes=cap)
    budget.memory.sample_every = 1
    return budget


# -- the degradation ladder ---------------------------------------------------------


class TestDegradationLadder:
    def test_persistent_pressure_climbs_the_full_ladder(self, relation):
        budget = governed_budget()
        with inject("memory.sample", corrupt=lambda rss: FORGED_RSS) as fault:
            report = StructureDiscovery().run(relation, budget=budget)
        assert fault.fired > 0
        # The run completed despite every sample breaching: the terminal
        # best-effort rung turned the governor into a pure observer.
        assert budget.memory.best_effort
        assert budget.memory.pressured
        memory = report.outcome("memory")
        assert memory is not None and memory.status == "degraded"
        # sample-tuples is skipped: the 90-tuple input is already below
        # the discovery sample cap, so sampling would not shrink anything.
        assert memory.fallback == (
            "memory ladder: sparse-backend -> escalate-phi -> "
            "shrink-leaf-buffer -> best-effort"
        )
        pressured = report.outcome("tuple_clustering")
        assert pressured.status == "degraded"
        assert "memory ladder" in pressured.fallback
        assert "memory limit exceeded" in pressured.detail
        rendered = report.render()
        assert "Pipeline health: DEGRADED" in rendered
        assert "memory ladder" in rendered

    def test_single_breach_climbs_one_rung(self, relation):
        budget = governed_budget()
        with inject("memory.sample", corrupt=lambda rss: FORGED_RSS, limit=1):
            report = StructureDiscovery().run(relation, budget=budget)
        memory = report.outcome("memory")
        assert memory.status == "degraded"
        assert memory.fallback == "memory ladder: sparse-backend"
        # The retry under the first rung succeeded; enforcement stayed on.
        assert not budget.memory.best_effort

    def test_fail_policy_propagates(self, relation):
        discovery = StructureDiscovery(on_memory_pressure="fail")
        with inject("memory.sample", corrupt=lambda rss: FORGED_RSS):
            with pytest.raises(MemoryLimitExceeded) as info:
                discovery.run(relation, budget=governed_budget())
        assert info.value.context["rss"] == FORGED_RSS

    def test_strict_mode_has_no_ladder(self, relation):
        with inject("memory.sample", corrupt=lambda rss: FORGED_RSS):
            with pytest.raises(StageFailure) as info:
                StructureDiscovery(strict=True).run(
                    relation, budget=governed_budget()
                )
        assert info.value.stage == "tuple_clustering"

    def test_uncapped_run_has_no_memory_entry(self, relation):
        report = StructureDiscovery().run(relation)
        assert report.outcome("memory") is None
        assert report.healthy

    def test_capped_unpressured_run_reports_ok(self, relation):
        report = StructureDiscovery(memory_limit="1G").run(relation)
        memory = report.outcome("memory")
        assert memory.status == "ok"
        assert "no pressure" in memory.detail
        assert "policy degrade" in memory.detail
        assert report.healthy

    def test_memory_limit_constructor_validation(self):
        with pytest.raises(ValueError):
            StructureDiscovery(memory_limit="lots")
        with pytest.raises(ValueError):
            StructureDiscovery(on_memory_pressure="panic")
        with pytest.raises(ValueError):
            StructureDiscovery(max_leaf_entries=0)


# -- space-bounded LIMBO Phase 1 ----------------------------------------------------


class TestSpaceBoundedLimbo:
    def test_buffer_overflow_escalates_and_bounds(self, relation):
        seen = []

        def probe(value):
            seen.append(value)
            return value

        with inject("limbo.buffer_overflow", corrupt=probe) as fault:
            result = cluster_tuples(relation, phi_t=0.0, max_leaf_entries=8)
        assert fault.fired > 0
        # Every overflow carries the oversized count and a real escalated
        # threshold -- escalating from phi = 0 still makes progress.
        for n_leaf_entries, escalated in seen:
            assert n_leaf_entries > 0
            assert escalated > 0.0
        assert result.limbo.buffer_rebuilds >= 1
        assert len(result.limbo.summaries) <= 8
        # The bounded run still assigns every tuple to a summary.
        assert len(result.assignment) == len(relation)
        n = len(result.limbo.summaries)
        assert all(0 <= index < n for index in result.assignment)

    def test_space_bounded_run_earns_a_memory_entry(self, relation):
        report = StructureDiscovery(max_leaf_entries=8).run(relation)
        memory = report.outcome("memory")
        assert memory is not None and memory.status == "ok"
        assert "space-bounded Phase 1" in memory.detail
        assert "leaf-buffer rebuild" in memory.detail


# -- TANE's two-level partition bound -----------------------------------------------


class TestTaneEagerFree:
    @pytest.fixture(scope="class")
    def wide_relation(self):
        rng = random.Random(11)
        rows = [tuple(rng.choice("abc") for _ in range(5)) for _ in range(24)]
        return Relation(["V", "W", "X", "Y", "Z"], rows)

    def test_partition_store_never_holds_more_than_two_levels(self, wide_relation):
        spreads = []

        def probe(store):
            sizes = {len(key) for key in store}
            spreads.append((min(sizes), max(sizes)))
            return store

        with inject("fd.tane.level", corrupt=probe) as fault:
            tane(wide_relation, budget=Budget(max_memory_bytes=BIG_CAP))
        assert fault.fired >= 3  # the lattice walk really went levels deep
        assert all(hi - lo <= 1 for lo, hi in spreads)

    def test_eager_free_changes_no_dependency(self, wide_relation):
        governed = tane(wide_relation, budget=Budget(max_memory_bytes=BIG_CAP))
        assert governed == tane(wide_relation)

    def test_governor_books_are_returned(self, wide_relation):
        budget = Budget(max_memory_bytes=BIG_CAP)
        tane(wide_relation, budget=budget)
        assert budget.memory.reserved == 0
        assert budget.memory.peak_reserved > 0


# -- capped runs and durable checkpoints --------------------------------------------


class TestCappedCheckpoints:
    def test_capped_run_resumes_bit_identically(self, relation, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = StructureDiscovery(memory_limit="1G", checkpoint=ckpt).run(relation)
        resumed = StructureDiscovery(memory_limit="1G", checkpoint=ckpt).run(relation)
        assert resumed.render() == first.render()

    def test_pressured_stages_are_never_persisted(self, relation, tmp_path):
        # A degraded (ladder-reconfigured) stage must not be frozen into a
        # snapshot: the resumed run recomputes it instead of trusting it.
        ckpt = str(tmp_path / "ckpt")
        budget = governed_budget()
        with inject("memory.sample", corrupt=lambda rss: FORGED_RSS, limit=1):
            pressured = StructureDiscovery(checkpoint=ckpt).run(
                relation, budget=budget
            )
        assert pressured.outcome("memory").status == "degraded"
        # An uncapped run over the SAME checkpoint directory is untouched
        # by whatever the capped run left behind: degraded stages are never
        # persisted, so nothing ladder-reconfigured can be reloaded.
        clean = StructureDiscovery(checkpoint=ckpt).run(relation)
        assert clean.outcome("memory") is None
        assert clean.healthy
        baseline = StructureDiscovery().run(relation)
        assert clean.render() == baseline.render()


# -- the space-bounded determinism property -----------------------------------------


@st.composite
def small_relation(draw):
    n_cols = draw(st.integers(min_value=2, max_value=4))
    n_rows = draw(st.integers(min_value=12, max_value=32))
    rows = [
        tuple(draw(st.sampled_from("abcd")) for _ in range(n_cols))
        for _ in range(n_rows)
    ]
    return Relation([f"c{i}" for i in range(n_cols)], rows)


class TestSpaceBoundedDeterminism:
    """Space-bounded LIMBO is a pure function of the input.

    A tiny fixed leaf buffer forces escalating rebuilds on essentially
    every input, and the result must still be a valid partition of all
    rows, bit-identical across numeric backends.
    """

    @settings(max_examples=6, deadline=None)
    @given(small_relation())
    def test_tiny_buffer_is_valid_and_backend_invariant(self, relation):
        baseline = None
        for backend in ("sparse", "dense", "auto"):
            result = cluster_tuples(
                relation, phi_t=0.5, backend=backend, max_leaf_entries=8,
            )
            assert len(result.limbo.summaries) <= 8
            assert len(result.assignment) == len(relation)
            n = len(result.limbo.summaries)
            assert all(0 <= index < n for index in result.assignment)
            key = (result.assignment, result.duplicate_groups, n)
            if baseline is None:
                baseline = key
            else:
                assert key == baseline, backend
