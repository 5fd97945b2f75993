"""Graceful degradation of the discovery pipeline, proven by fault injection."""

import pytest

from repro import Budget, Relation, StructureDiscovery
from repro.core.discovery import STAGES, deterministic_sample
from repro.errors import StageFailure
from repro.testing import inject


@pytest.fixture(scope="module")
def relation():
    from repro.datasets import db2_sample

    return db2_sample(seed=0).relation


COVER_SKIPPED = "skipped: reliable top-k output feeds FD-RANK directly"
INJECTED = "RuntimeError: injected"
SAMPLE_FDEP = "FDEP over a 150-tuple deterministic sample"
SAMPLE_RELIABLE = ("reliable miner over a seeded 150-row sample "
                   "(confidence 0.95)")
SAMPLE_VALUES = "exact clustering of a 150-tuple sample"
UNRANKED = "cover order, unranked (singleton grouping)"
GROUPING_FAILED = "attribute grouping failed upstream"

#: Driver settings per mode.  Top-k runs cap the LHS at one attribute: no
#: health line depends on the cap, and the uncapped search costs about 4 s
#: a run on the DB2 sample.
MODES = {"exact": {}, "topk": {"fd_mode": "topk", "fd_max_lhs": 1}}


def stage_rows(fd_mode: str, **changed) -> list:
    """The expected ``summary()["stages"]`` list: every stage ``ok`` (top-k
    skipping the exhaustive cover) except the ``(status, detail,
    fallback)`` triples given by stage name."""
    rows = []
    for stage in STAGES:
        status, detail, fallback = changed.get(stage, ("ok", "", None))
        if stage == "cover" and fd_mode == "topk" and stage not in changed:
            detail = COVER_SKIPPED
        rows.append({"stage": stage, "status": status, "detail": detail,
                     "fallback": fallback})
    return rows


#: One ``discovery.<stage>`` fault per case: the full health section it
#: leaves, and how often the fault point fired (a stage that is skipped
#: never reaches its fault point).  Exact-mode ids are the bare stage names.
STAGE_FAULTS = [
    pytest.param(
        "exact", "tuple_clustering", 1,
        stage_rows("exact", tuple_clustering=(
            "degraded", INJECTED, "exact-duplicate scan")),
        id="tuple_clustering"),
    pytest.param(
        "exact", "value_clustering", 1,
        stage_rows("exact", value_clustering=(
            "degraded", INJECTED, SAMPLE_VALUES)),
        id="value_clustering"),
    pytest.param(
        "exact", "attribute_grouping", 1,
        stage_rows("exact",
                   attribute_grouping=("failed", INJECTED, None),
                   rank=("degraded", GROUPING_FAILED, UNRANKED)),
        id="attribute_grouping"),
    pytest.param(
        "exact", "mining", 1,
        stage_rows("exact", mining=("degraded", INJECTED, SAMPLE_FDEP)),
        id="mining"),
    pytest.param(
        "exact", "cover", 1,
        stage_rows("exact", cover=(
            "degraded", INJECTED, "raw mined dependencies")),
        id="cover"),
    pytest.param(
        "exact", "rank", 1,
        stage_rows("exact", rank=("degraded", INJECTED, UNRANKED)),
        id="rank"),
    pytest.param(
        "topk", "tuple_clustering", 1,
        stage_rows("topk", tuple_clustering=(
            "degraded", INJECTED, "exact-duplicate scan")),
        id="topk-tuple_clustering"),
    pytest.param(
        "topk", "value_clustering", 1,
        stage_rows("topk", value_clustering=(
            "degraded", INJECTED, SAMPLE_VALUES)),
        id="topk-value_clustering"),
    pytest.param(
        "topk", "attribute_grouping", 1,
        stage_rows("topk",
                   attribute_grouping=("failed", INJECTED, None),
                   rank=("degraded", GROUPING_FAILED, UNRANKED)),
        id="topk-attribute_grouping"),
    pytest.param(
        "topk", "mining", 1,
        stage_rows("topk", mining=("degraded", INJECTED, SAMPLE_RELIABLE)),
        id="topk-mining"),
    pytest.param(
        "topk", "cover", 0, stage_rows("topk"),
        id="topk-cover"),
    pytest.param(
        "topk", "rank", 1,
        stage_rows("topk", rank=("degraded", INJECTED, UNRANKED)),
        id="topk-rank"),
]


def starved(fd_mode: str, mining_site: tuple, mining_fallback: str) -> list:
    """The health section of a run under ``Budget(max_units=1)``."""
    def exhausted(site, units):
        return (f"budget exhausted: work-unit cap exceeded at {site} "
                f"({units} > 1 units)")

    return stage_rows(
        fd_mode,
        tuple_clustering=("degraded", exhausted("limbo.fit", 64),
                          "exact-duplicate scan"),
        value_clustering=("degraded", exhausted("limbo.fit", 128),
                          SAMPLE_VALUES),
        attribute_grouping=("failed", exhausted("aib.merge", 146), None),
        mining=("degraded", exhausted(*mining_site), mining_fallback),
        rank=("degraded", GROUPING_FAILED, UNRANKED),
    )


#: A relation with no duplicate value groups, whose exact miner finds no
#: dependency: it takes the grouping skip and both rank skips.
NOTHING_TO_GROUP = Relation(["A", "B"], [("1", "x"), ("1", "y"), ("2", "y")])

ESCALATED = stage_rows("exact")
ESCALATED.insert(3, {
    "stage": "supervisor", "status": "degraded",
    "detail": ("degradation ladder escalated before 'mining' after "
               "repeated supervised failures"),
    "fallback": "ladder: sparse-backend -> escalate-phi",
})

#: Whole runs without a stage fault: ``(fd_mode, relation or None for the
#: DB2 fixture, run() keyword arguments, expected health section)``.  A
#: callable argument is called per run, so each run gets a fresh budget.
RUN_CASES = [
    pytest.param("exact", None, {}, stage_rows("exact"), id="healthy-exact"),
    pytest.param("topk", None, {}, stage_rows("topk"), id="healthy-topk"),
    pytest.param(
        "exact", NOTHING_TO_GROUP, {},
        stage_rows("exact",
                   attribute_grouping=(
                       "ok", "skipped: no duplicate value groups to cluster",
                       None),
                   rank=("ok", "skipped: no dependencies to rank", None)),
        id="skips-exact"),
    pytest.param(
        "topk", NOTHING_TO_GROUP, {},
        stage_rows("topk",
                   attribute_grouping=(
                       "ok", "skipped: no duplicate value groups to cluster",
                       None),
                   rank=("ok", "skipped: no attribute grouping (nothing to "
                               "rank against)", None)),
        id="skips-topk"),
    pytest.param(
        "exact", None, {"budget": lambda: Budget(max_units=1)},
        starved("exact", ("fdep.agree_sets", 235), SAMPLE_FDEP),
        id="max-units-1-exact"),
    pytest.param(
        "topk", None, {"budget": lambda: Budget(max_units=1)},
        starved("topk", ("fd.reliable.node", 236), SAMPLE_RELIABLE),
        id="max-units-1-topk"),
    pytest.param(
        "exact", None, {"escalations": {"mining": 2}}, ESCALATED,
        id="escalate-mining-2"),
]


class TestHealthSection:
    """The full health section, pinned row by row."""

    @pytest.mark.parametrize("fd_mode,data,run_kwargs,expected", RUN_CASES)
    def test_run(self, relation, fd_mode, data, run_kwargs, expected):
        kwargs = {key: value() if callable(value) else value
                  for key, value in run_kwargs.items()}
        report = StructureDiscovery(**MODES[fd_mode]).run(
            relation if data is None else data, **kwargs)
        assert report.summary()["stages"] == expected
        assert report.healthy == all(row["status"] == "ok"
                                     for row in expected)


class TestStageGuards:
    @pytest.mark.parametrize("fd_mode,stage,fired,expected", STAGE_FAULTS)
    def test_injected_failure_degrades_not_dies(self, relation, fd_mode,
                                                stage, fired, expected):
        with inject(f"discovery.{stage}", raises=RuntimeError("injected")) as fault:
            report = StructureDiscovery(**MODES[fd_mode]).run(relation)
        assert fault.fired == fired
        assert report.summary()["stages"] == expected
        assert report.healthy == (fired == 0)
        # The report still renders, health section included.
        assert report.health() in report.render()

    @pytest.mark.parametrize("stage", STAGES)
    def test_strict_mode_raises_stage_failure(self, relation, stage):
        with inject(f"discovery.{stage}", raises=RuntimeError("injected")):
            with pytest.raises(StageFailure) as info:
                StructureDiscovery(strict=True).run(relation)
        assert info.value.stage == stage

    def test_healthy_run_reports_all_ok(self, relation):
        report = StructureDiscovery().run(relation)
        assert report.healthy
        assert [o.stage for o in report.outcomes] == list(STAGES)
        assert "Pipeline health: all stages ok" in report.render()

    def test_keyboard_interrupt_propagates(self, relation):
        with inject("discovery.mining", raises=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                StructureDiscovery().run(relation)

    def test_grouping_failure_degrades_rank_to_cover_order(self, relation):
        with inject("discovery.attribute_grouping", raises=RuntimeError("x")):
            report = StructureDiscovery().run(relation)
        assert report.attribute_grouping is None
        assert report.cover
        # The cover is still surfaced, unranked, in deterministic order.
        assert [r.fd for r in report.ranked] == sorted(
            report.cover, key=lambda fd: fd.sort_key()
        )
        assert all(r.gathered_loss is None for r in report.ranked)
        assert report.outcome("rank").status == "degraded"

    def test_double_fault_marks_stage_failed(self, relation):
        # Kill the miner AND its sample fallback (FDEP's pair scan).
        with inject("discovery.mining", raises=RuntimeError("primary")):
            with inject("fd.fdep.pairs", raises=RuntimeError("fallback too")):
                report = StructureDiscovery().run(relation)
        outcome = report.outcome("mining")
        assert outcome.status == "failed"
        assert "fallback" in outcome.detail
        assert report.dependencies == []
        assert report.render()  # still renders

    def test_failed_grouping_decides_rank_before_its_fault_point(
            self, relation):
        # Rank's outcome is settled by the failed grouping upstream, so a
        # rank fault never fires and the cover still shows, unranked.
        with inject("discovery.attribute_grouping", raises=RuntimeError("g")):
            with inject("discovery.rank", raises=RuntimeError("r")) as rank:
                report = StructureDiscovery().run(relation)
        assert rank.fired == 0
        outcome = report.outcome("rank")
        assert (outcome.status, outcome.detail) == ("degraded", GROUPING_FAILED)
        assert [r.fd for r in report.ranked] == sorted(
            report.cover, key=lambda fd: fd.sort_key())


class TestCallerBudget:
    """``run`` leaves the caller's budget as it found it."""

    def test_lent_governor_is_per_run(self, relation):
        # A driver-level memory_limit on a budget without a governor: each
        # run gets a fresh governor, so the best-effort rung one run
        # climbed to cannot switch the cap off for the next.
        budget = Budget()
        discovery = StructureDiscovery(memory_limit=1 << 40, budget=budget)
        outcomes = []
        for _ in range(2):
            with inject("memory.sample", corrupt=lambda rss: 1 << 50):
                report = discovery.run(relation)
            outcomes.append(report.outcome("memory"))
            assert budget.memory is None
            assert budget.max_memory_bytes is None
        assert outcomes[0].status == "degraded"
        assert outcomes[1] == outcomes[0]

    def test_heartbeat_listener_is_per_run(self, relation, tmp_path):
        budget = Budget()
        discovery = StructureDiscovery(checkpoint=tmp_path, budget=budget)
        for _ in range(3):
            discovery.run(relation)
            assert budget._listeners == []


class TestBudgetedRun:
    def test_exhausted_budget_yields_degraded_report(self, relation):
        report = StructureDiscovery().run(relation, budget=Budget(max_units=1))
        assert not report.healthy
        outcome = report.outcome("tuple_clustering")
        assert outcome.status == "degraded"
        assert "budget exhausted" in outcome.detail
        assert report.render()

    def test_constructor_budget_is_default(self, relation):
        discovery = StructureDiscovery(budget=Budget(max_units=1))
        assert not discovery.run(relation).healthy

    def test_mining_over_budget_falls_back_to_sampled_fdep(self, relation):
        # Let clustering run unbudgeted; starve only the miner via a delay
        # fault right before TANE's first level with a tiny deadline.
        discovery = StructureDiscovery(miner="tane")
        with inject("fd.tane.level", delay=0.05):
            report = discovery.run(relation, budget=Budget(deadline=0.04))
        outcome = report.outcome("mining")
        assert outcome.status == "degraded"
        assert "FDEP" in outcome.fallback
        assert report.dependencies  # the sampled miner still found FDs


class TestDeterministicSample:
    def test_small_relation_returned_whole(self):
        r = Relation(["A"], [("1",), ("2",)])
        assert deterministic_sample(r, cap=10) is r

    def test_sample_is_capped_and_stable(self):
        rows = [(str(i), str(i % 7)) for i in range(1000)]
        r = Relation(["A", "B"], rows)
        first = deterministic_sample(r, cap=50)
        second = deterministic_sample(r, cap=50)
        assert len(first) == 50
        assert first.rows == second.rows
        assert first.schema == r.schema
