"""Tests for :mod:`repro.fd.reliable`: scoring, search, and pipeline wiring.

The statistical *correctness* claims (score range, admissibility, sampled
confidence) live in ``test_properties_fd_reliable.py``; this file covers
the deterministic contract -- oracle parity on fixed relations, filters,
edge cases, seeding, traversal invariance, budget/governor behaviour
and the ``StructureDiscovery``/CLI integration.
"""

import random

import pytest

import repro.fd.reliable as reliable
from repro.budget import Budget
from repro.core import StructureDiscovery
from repro.datasets import db2_sample, dblp
from repro.errors import MemoryLimitExceeded, ResourceLimitExceeded
from repro.fd import FD, ReliableFD, ReliableMiningStats
from repro.fd.reliable import (
    confidence_radius,
    expected_mutual_information,
    fraction_of_information,
    mine_reliable_fds,
    mine_topk,
    reliable_score,
    specialization_upper_bound,
)
from repro.relation import Relation
from repro.seeding import derive_seed, sample_indices
from repro.testing import inject
from repro.testing.oracles import (
    brute_force_topk,
    exact_expected_mutual_information,
    exact_reliable_score,
    exhaustive_reliable_scores,
)

NAMES = ("A", "B", "C", "D")


def fixed_relation(n=60):
    """A deterministic 4-attribute relation with an exact FD A -> B."""
    rows = [
        (f"a{i % 6}", f"b{(i % 6) % 3}", f"c{i % 4}", f"d{(i * 7) % 5}")
        for i in range(n)
    ]
    return Relation(NAMES, rows)


class TestExpectedMutualInformation:
    def test_matches_lgamma_reference(self):
        cases = [
            ([3, 2, 1], [4, 2]),
            ([10], [5, 5]),
            ([1] * 8, [4, 4]),
            ([7, 3, 2], [6, 3, 3]),
        ]
        for a, b in cases:
            fast = expected_mutual_information(a, b)
            slow = exact_expected_mutual_information(a, b)
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_single_class_is_zero(self):
        assert expected_mutual_information([12], [12]) == pytest.approx(0.0)

    def test_nonnegative(self):
        assert expected_mutual_information([5, 4, 3], [6, 6]) >= 0.0

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValueError):
            expected_mutual_information([3, 2], [4, 2])


class TestScoring:
    def test_exact_fd_scores_near_one(self):
        relation = fixed_relation()
        assert fraction_of_information(relation, ("A",), "B") == 1.0
        assert reliable_score(relation, ("A",), "B") > 0.9

    def test_matches_first_principles_oracle(self):
        relation = fixed_relation(40)
        for lhs, rhs in [(("A",), "B"), (("C", "D"), "A"), (("B",), "D")]:
            assert reliable_score(relation, lhs, rhs) == pytest.approx(
                exact_reliable_score(relation, lhs, rhs), abs=1e-9
            )

    def test_constant_rhs_scores_zero(self):
        relation = Relation(("X", "Y"), [(str(i), "c") for i in range(9)])
        assert fraction_of_information(relation, ("X",), "Y") == 0.0
        assert reliable_score(relation, ("X",), "Y") == 0.0

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValueError):
            reliable_score(fixed_relation(), ("Nope",), "B")

    def test_empty_lhs_rejected(self):
        with pytest.raises(ValueError):
            reliable_score(fixed_relation(), (), "B")

    def test_upper_bound_dominates_own_score(self):
        relation = fixed_relation(40)
        bound = specialization_upper_bound(relation, ("C",), ("A", "D"), "B")
        assert bound >= reliable_score(relation, ("C",), "B") - 1e-12

    def test_confidence_radius_capped_and_positive(self):
        assert confidence_radius(0, 1, 0.05, 1.0) == 1.0
        radius = confidence_radius(10_000, 3, 0.05, 1.5)
        assert 0.0 < radius < 1.0


class TestValidation:
    def test_bad_parameters_rejected(self):
        relation = fixed_relation(10)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, mode="bogus")
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, mode="topk", k=0)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, alpha=0.0)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, alpha=1.0)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, mode="reliable", min_score=1.5)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, max_lhs_size=0)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, sample_rows=0)
        with pytest.raises(ValueError):
            mine_reliable_fds(relation, rhs="Nope")


class TestTopK:
    def test_matches_brute_force_oracle(self):
        relation = fixed_relation(45)
        for k in (1, 3, 10, 100):
            mined = mine_topk(relation, k=k)
            oracle = brute_force_topk(relation, k)
            assert [(m.fd, m.score) for m in mined] == [
                (o.fd, o.score) for o in oracle
            ]

    def test_rhs_filter(self):
        relation = fixed_relation(30)
        mined = mine_topk(relation, k=5, rhs="B")
        assert mined
        assert all(entry.fd.rhs == frozenset({"B"}) for entry in mined)
        oracle = brute_force_topk(relation, 5, rhs="B")
        assert [(m.fd, m.score) for m in mined] == [
            (o.fd, o.score) for o in oracle
        ]

    def test_max_lhs_size_filter(self):
        relation = fixed_relation(30)
        mined = mine_topk(relation, k=50, max_lhs_size=1)
        assert mined
        assert all(len(entry.fd.lhs) == 1 for entry in mined)
        oracle = brute_force_topk(relation, 50, max_lhs_size=1)
        assert [(m.fd, m.score) for m in mined] == [
            (o.fd, o.score) for o in oracle
        ]

    def test_deterministic_result_order(self):
        mined = mine_topk(fixed_relation(30), k=8)
        keys = [(-m.score, tuple(sorted(m.fd.lhs)), min(m.fd.rhs))
                for m in mined]
        assert keys == sorted(keys)

    def test_degenerate_relations_yield_nothing(self):
        assert mine_topk(Relation(NAMES, []), k=3) == []
        assert mine_topk(Relation(("A",), [("x",)] * 5), k=3) == []
        single = Relation(("A", "B"), [("x", "y")])
        assert mine_topk(single, k=3) == []

    def test_all_duplicate_rows_yield_nothing(self):
        relation = Relation(("A", "B"), [("x", "y")] * 12)
        # Both columns are constant: no consequent carries information.
        assert mine_topk(relation, k=5) == []


class TestWideSchema:
    """More than 62 attributes: the attribute-set keys pass bit 63."""

    @staticmethod
    def _relation(reverse=False):
        """66 attributes by 30 rows; ``a65`` (position 65) is a function of
        ``a03`` and ``a64``."""
        rng = random.Random(66)
        cards = [rng.randint(2, 6) for _ in range(65)]
        names = [f"a{j:02d}" for j in range(66)]
        rows = []
        for _ in range(30):
            codes = [rng.randrange(card) for card in cards]
            codes.append((codes[3] + codes[64]) % 3)
            rows.append(tuple(f"v{code}" for code in codes))
        if reverse:
            names = names[::-1]
            rows = [row[::-1] for row in rows]
        return Relation(names, rows)

    def test_single_attribute_lhs_matches_brute_force(self):
        relation = self._relation()
        mined = mine_topk(relation, k=10, max_lhs_size=1, rhs="a65")
        assert mined == brute_force_topk(
            relation, 10, max_lhs_size=1, rhs="a65")

    def test_reversed_columns_mine_the_same(self):
        mined = mine_topk(self._relation(), k=10, max_lhs_size=2, rhs="a65")
        assert mined[0].fd == FD(frozenset({"a03", "a64"}),
                                 frozenset({"a65"}))
        assert mined == mine_topk(self._relation(reverse=True), k=10,
                                  max_lhs_size=2, rhs="a65")


class TestReliableMode:
    def test_threshold_matches_exhaustive_scan(self):
        relation = fixed_relation(40)
        threshold = 0.4
        mined = mine_reliable_fds(
            relation, mode="reliable", min_score=threshold
        )
        oracle = [
            (FD(frozenset(lhs), frozenset({rhs})), score)
            for score, lhs, rhs in exhaustive_reliable_scores(relation)
            if score >= threshold
        ]
        assert [(m.fd, m.score) for m in mined] == oracle

    def test_default_min_score_is_one_minus_alpha(self):
        relation = fixed_relation(40)
        by_default = mine_reliable_fds(relation, mode="reliable", alpha=0.3)
        explicit = mine_reliable_fds(
            relation, mode="reliable", min_score=0.7
        )
        assert [(m.fd, m.score) for m in by_default] == [
            (m.fd, m.score) for m in explicit
        ]


class TestStats:
    def test_counters_and_pruning_recorded(self):
        relation = dblp(n_tuples=250, seed=7)
        stats = ReliableMiningStats()
        mine_topk(relation, k=5, stats=stats)
        assert stats.nodes_visited > 0
        assert stats.candidates_scored > 0
        assert stats.partitions_computed > 0
        assert stats.candidates_scored <= stats.nodes_visited
        assert stats.sampled_rows is None

    def test_sampled_rows_recorded(self):
        relation = fixed_relation(60)
        stats = ReliableMiningStats()
        mine_topk(relation, k=3, sample_rows=20, stats=stats)
        assert stats.sampled_rows == 20


class TestNodeEmiBound:
    """The pruning bound subtracts each node's own EMI from its tree's
    closure bound (``_Scorer.bound``)."""

    def test_clamp_keeps_zero_score_ties(self):
        # Every top-3 score is 0.0, so the threshold is 0.0 and several
        # node bounds go negative; unclamped, they cut AB -> C.
        rows = ["A0B1C0", "A1B1C1", "A0B1C0", "A0B0C0",
                "A0B1C1", "A1B1C0", "A1B0C0", "A0B0C1"]
        relation = Relation(("A", "B", "C"),
                            [(r[0:2], r[2:4], r[4:6]) for r in rows])
        assert mine_topk(relation, k=3) == brute_force_topk(relation, 3)

    def test_node_emi_halves_the_search(self, monkeypatch):
        relation = db2_sample(seed=1).relation
        stats = ReliableMiningStats()
        mined = mine_topk(relation, k=10, max_lhs_size=3, stats=stats)
        monkeypatch.setattr(
            reliable._Scorer, "bound",
            lambda self, closure_bound, key, counts, y: closure_bound)
        closure_only = ReliableMiningStats()
        assert mine_topk(relation, k=10, max_lhs_size=3,
                         stats=closure_only) == mined
        assert 2 * stats.nodes_visited <= closure_only.nodes_visited


def _multiset(counts):
    return tuple(sorted(int(c) for c in counts if c > 0))


class TestScoringCost:
    """The EMI memo, the below-threshold skip and the entropy memo, on the
    DB2 sample (seed 1, top-10, LHS <= 3) where many nodes share class-size
    multisets and attribute sets, and all ten top scores tie."""

    @staticmethod
    def _mine(monkeypatch, bypass=False):
        """Mine with every EMI computation recorded as its two multisets;
        ``bypass`` disables the memo and the skip."""
        calls = []

        def counting(a_counts, b_counts, logfact=None):
            calls.append((_multiset(a_counts), _multiset(b_counts)))
            return expected_mutual_information(a_counts, b_counts, logfact)

        monkeypatch.setattr(
            reliable, "expected_mutual_information", counting)
        if bypass:
            score = reliable._Scorer.score
            monkeypatch.setattr(
                reliable._Scorer, "_remember_emi", lambda *args: None)
            monkeypatch.setattr(
                reliable._Scorer, "score",
                lambda self, key, inv, counts, y, floor=None:
                    score(self, key, inv, counts, y))
        stats = ReliableMiningStats()
        result = mine_topk(db2_sample(seed=1).relation, k=10,
                           max_lhs_size=3, stats=stats)
        monkeypatch.undo()
        return result, stats, calls

    def test_emi_computed_once_per_multiset_pair(self, monkeypatch):
        result, stats, calls = self._mine(monkeypatch)
        baseline, _, every_node = self._mine(monkeypatch, bypass=True)
        assert len(calls) == len(set(calls))
        assert len(calls) <= len(set(every_node))
        assert 5 * len(calls) < stats.nodes_visited
        assert result == baseline

    def test_no_emi_below_the_threshold(self, monkeypatch):
        collectors = []
        init = reliable._Collector.__init__
        score = reliable._Scorer.score
        calls = []
        below = 0

        def tracking_init(self, *args):
            init(self, *args)
            collectors.append(self)

        def checked_score(self, key, inv, counts, y, *args, **kwargs):
            nonlocal below
            threshold = collectors[-1].threshold()
            mi, _ = self.information(key, inv, counts, y)
            before = len(calls)
            scored = score(self, key, inv, counts, y, *args, **kwargs)
            if min(1.0, mi / self.h[y]) < threshold:
                below += 1
                assert scored is None
                assert len(calls) == before
            return scored

        def counting(a_counts, b_counts, logfact=None):
            calls.append(1)
            return expected_mutual_information(a_counts, b_counts, logfact)

        monkeypatch.setattr(reliable._Collector, "__init__", tracking_init)
        monkeypatch.setattr(reliable._Scorer, "score", checked_score)
        monkeypatch.setattr(
            reliable, "expected_mutual_information", counting)
        stats = ReliableMiningStats()
        mine_topk(db2_sample(seed=1).relation, k=10, max_lhs_size=3,
                  stats=stats)
        assert below > 0
        assert stats.candidates_scored == stats.nodes_visited - below

    @staticmethod
    def _mine_counted(monkeypatch, bypass=False):
        """Mine with entropy and size-run evaluations counted, and with the
        attribute sets ``information`` reads and the LHS sets given an EMI
        (for a score or a bound) recorded as bitmasks; ``bypass`` disables
        both memos."""
        work = {"entropy": 0, "runs": 0}
        touched, given_emi = set(), set()
        entropy, runs = reliable._canonical_entropy, reliable._size_runs
        information = reliable._Scorer.information
        emi = reliable._Scorer.emi

        def counting_entropy(counts):
            work["entropy"] += 1
            return entropy(counts)

        def counting_runs(counts):
            work["runs"] += 1
            return runs(counts)

        def recording_information(self, key, inv, counts, y):
            touched.update((key, key | 1 << y))
            return information(self, key, inv, counts, y)

        def recording_emi(self, key, counts, y):
            given_emi.add(key)
            return emi(self, key, counts, y)

        monkeypatch.setattr(reliable, "_canonical_entropy", counting_entropy)
        monkeypatch.setattr(reliable, "_size_runs", counting_runs)
        monkeypatch.setattr(
            reliable._Scorer, "information", recording_information)
        monkeypatch.setattr(reliable._Scorer, "emi", recording_emi)
        if bypass:
            for name in ("_remember_entropy", "_remember_runs"):
                monkeypatch.setattr(
                    reliable._Scorer, name, lambda *args: None)
        result = mine_topk(db2_sample(seed=1).relation, k=10,
                           max_lhs_size=3)
        monkeypatch.undo()
        return result, work, touched, given_emi

    def test_entropy_computed_once_per_attribute_set(self, monkeypatch):
        result, work, _, given_emi = self._mine_counted(monkeypatch)
        baseline, bare, touched, _ = self._mine_counted(
            monkeypatch, bypass=True)
        arity = len(db2_sample(seed=1).relation.schema.names)
        # Every singleton's entropy is taken once at set-up, as H(Y).
        touched |= {1 << p for p in range(arity)}
        assert work["entropy"] <= len(touched)
        assert 3 * work["entropy"] < bare["entropy"]
        assert work["runs"] <= len(given_emi) + arity
        assert result == baseline

    def test_emi_memo_booked_and_released(self):
        budget = Budget(max_memory_bytes=1 << 30)
        governor = budget.memory
        reserve = governor.reserve
        booked = []

        def recording(n_bytes, where=""):
            booked.append((where, n_bytes))
            reserve(n_bytes, where=where)

        governor.reserve = recording
        start = governor.reserved
        mine_topk(dblp(n_tuples=250, seed=7), k=5, max_lhs_size=2,
                  budget=budget)
        emi = [n for where, n in booked if where == "fd.reliable.emi"]
        entropy = [n for where, n in booked if where == "fd.reliable.entropy"]
        scorer = [n for where, n in booked if where == "fd.reliable.scorer"]
        assert emi
        assert entropy
        assert governor.reserved == start
        assert governor.peak_reserved >= sum(scorer) + sum(emi) + sum(entropy)


class TestSampledMode:
    def test_sampled_results_are_flagged(self):
        relation = fixed_relation(80)
        mined = mine_topk(relation, k=4, sample_rows=25, seed=3)
        assert mined
        assert all(entry.sampled for entry in mined)
        assert all(0.0 < entry.confidence_radius <= 1.0 for entry in mined)

    def test_sample_covering_all_rows_degenerates_to_exact(self):
        relation = fixed_relation(30)
        sampled = mine_topk(relation, k=4, sample_rows=30)
        exact = mine_topk(relation, k=4)
        assert sampled == exact
        assert not any(entry.sampled for entry in sampled)

    def test_same_seed_same_result(self):
        relation = fixed_relation(90)
        first = mine_topk(relation, k=5, sample_rows=30, seed=11)
        second = mine_topk(relation, k=5, sample_rows=30, seed=11)
        assert first == second

    def test_seed_changes_the_sample(self):
        indices_a = sample_indices(1000, 50, 1, "fd.reliable.sample")
        indices_b = sample_indices(1000, 50, 2, "fd.reliable.sample")
        assert list(indices_a) != list(indices_b)


class TestSeedingModule:
    def test_derive_seed_deterministic_and_scoped(self):
        assert derive_seed(7, "x") == derive_seed(7, "x")
        assert derive_seed(7, "x") != derive_seed(7, "y")
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_sample_indices_contract(self):
        indices = sample_indices(100, 10, 0, "scope")
        assert len(indices) == 10
        assert len(set(indices.tolist())) == 10
        assert list(indices) == sorted(indices)
        assert all(0 <= i < 100 for i in indices)

    def test_sample_indices_identity_when_size_covers(self):
        assert list(sample_indices(5, 9, 0, "scope")) == [0, 1, 2, 3, 4]

    def test_sample_indices_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_indices(-1, 3, 0, "scope")
        with pytest.raises(ValueError):
            sample_indices(10, 0, 0, "scope")


class TestTraversalInvariance:
    def test_per_rhs_mines_merge_to_the_whole_mine(self):
        """The result is a pure function of the candidate set: the k best
        of the per-consequent mines equal the whole mine, although each
        per-consequent search prunes against its own, lower threshold."""
        relation = dblp(n_tuples=250, seed=7)
        baseline = mine_topk(relation, k=8, max_lhs_size=2)
        merged = [
            entry
            for rhs in relation.schema.names
            for entry in mine_topk(relation, k=8, max_lhs_size=2, rhs=rhs)
        ]
        merged.sort(key=lambda e: (-e.score, tuple(sorted(e.fd.lhs)),
                                   next(iter(e.fd.rhs))))
        assert merged[:8] == baseline


class TestBudget:
    def test_budget_exhaustion_raises(self):
        relation = dblp(n_tuples=250, seed=7)
        with pytest.raises(ResourceLimitExceeded):
            mine_topk(relation, k=5, budget=Budget(max_units=100))

    def test_tiny_memory_cap_raises(self):
        relation = dblp(n_tuples=250, seed=7)
        with pytest.raises(MemoryLimitExceeded):
            mine_topk(relation, k=5, budget=Budget(max_memory_bytes=1024))

    def test_generous_memory_cap_changes_nothing(self):
        relation = fixed_relation(60)
        capped = mine_topk(
            relation, k=6, budget=Budget(max_memory_bytes=1 << 30)
        )
        assert capped == mine_topk(relation, k=6)

    def test_fault_point_fires_per_node(self):
        relation = fixed_relation(40)
        with inject("fd.reliable.node", raises=RuntimeError):
            with pytest.raises(RuntimeError):
                mine_topk(relation, k=3)


class TestDiscoveryIntegration:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            StructureDiscovery(fd_mode="bogus")
        with pytest.raises(ValueError):
            StructureDiscovery(fd_k=0)
        with pytest.raises(ValueError):
            StructureDiscovery(fd_alpha=1.5)
        with pytest.raises(ValueError):
            StructureDiscovery(fd_max_lhs=0)

    def test_topk_mode_feeds_rank_directly(self):
        relation = dblp(n_tuples=300, seed=7)
        report = StructureDiscovery(fd_mode="topk", fd_k=5).run(relation)
        assert report.healthy
        assert len(report.dependencies) == 5
        assert all(isinstance(d, ReliableFD) for d in report.dependencies)
        cover_outcome = report.outcome("cover")
        assert cover_outcome.ok and "skipped" in cover_outcome.detail
        assert report.cover == [d.fd for d in report.dependencies]
        assert report.ranked
        rendered = report.render()
        assert "Reliable FD scores" in rendered
        assert "minimum cover" not in rendered

    def test_exact_mode_render_unchanged(self):
        relation = dblp(n_tuples=300, seed=7)
        rendered = StructureDiscovery().run(relation).render()
        assert "Reliable FD scores" not in rendered
        assert "minimum cover" in rendered

    def test_manifest_distinguishes_fd_modes(self):
        exact = StructureDiscovery().manifest_params()
        topk = StructureDiscovery(fd_mode="topk").manifest_params()
        assert exact != topk
        for key in ("fd_mode", "fd_k", "fd_alpha", "fd_max_lhs", "seed"):
            assert key in exact
        capped = StructureDiscovery(fd_max_lhs=2).manifest_params()
        uncapped = StructureDiscovery(fd_max_lhs=None).manifest_params()
        assert capped != uncapped

    def test_sampled_fallback_marks_run_degraded(self, tmp_path):
        from repro.checkpoint import CheckpointStore

        relation = dblp(n_tuples=300, seed=7)
        store = CheckpointStore(tmp_path / "ckpt", resume=True)
        with inject("discovery.mining", raises=RuntimeError("boom")):
            report = StructureDiscovery(
                fd_mode="topk", fd_k=4, checkpoint=store
            ).run(relation)
        outcome = report.outcome("mining")
        assert outcome.status == "degraded"
        assert "sample" in outcome.fallback
        assert report.dependencies
        assert all(d.sampled for d in report.dependencies)
        assert "[sampled, radius" in report.render()
        # Degraded results must never be checkpointed as exact.
        resumed = CheckpointStore(tmp_path / "ckpt", resume=True)
        resumed.open_run(
            relation,
            StructureDiscovery(fd_mode="topk", fd_k=4).manifest_params(),
        )
        assert resumed.load_stage("mining") is None

    def test_same_seed_byte_identical_reports(self):
        relation = dblp(n_tuples=300, seed=7)

        def run():
            with inject("discovery.mining", raises=RuntimeError("boom")):
                return StructureDiscovery(
                    fd_mode="topk", fd_k=4, seed=42
                ).run(relation).render()

        assert run() == run()


class TestCli:
    def _write_csv(self, tmp_path):
        from repro.relation import write_csv

        path = tmp_path / "relation.csv"
        write_csv(fixed_relation(80), str(path))
        return str(path)

    def test_discover_topk_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_csv(tmp_path)
        assert main([
            "discover", path, "--fd-mode", "topk", "--fd-k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Reliable FD scores" in out
        assert "cover: skipped" in out

    def test_rank_topk_flags(self, tmp_path, capsys):
        from repro.cli import main
        from repro.relation import write_csv

        # fixed_relation has no duplicate value groups for the grouping
        # stage; rank needs them, so use the DBLP generator instead.
        path = str(tmp_path / "dblp.csv")
        write_csv(dblp(n_tuples=200, seed=7), path)
        assert main([
            "rank", path, "--fd-mode", "topk", "--fd-k", "4", "--top", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "reliable dependencies mined (topk)" in out

    def test_same_seed_byte_identical_stdout(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_csv(tmp_path)
        argv = ["discover", path, "--fd-mode", "topk", "--fd-k", "3",
                "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_fd_flags_are_usage_errors(self, tmp_path):
        from repro.cli import main

        path = self._write_csv(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", path, "--fd-k", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", path, "--fd-alpha", "1.0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", path, "--fd-max-lhs", "-1"])
        assert excinfo.value.code == 2
