"""Unit and integration tests for the LIMBO driver."""

import pytest

from repro.clustering import Limbo, clustering_information
from repro.relation import Relation, build_tuple_view, build_value_view


@pytest.fixture
def two_blocks():
    """20 tuples in two obvious blocks that share no values."""
    rows = []
    for i in range(10):
        rows.append((f"a{i % 2}", "x", "left"))
    for i in range(10):
        rows.append((f"b{i % 2}", "y", "right"))
    return Relation(["P", "Q", "R"], rows)


class TestFitValidation:
    def test_requires_fit_before_use(self):
        limbo = Limbo()
        with pytest.raises(RuntimeError):
            _ = limbo.summaries

    def test_rejects_negative_phi(self):
        with pytest.raises(ValueError):
            Limbo(phi=-0.1)

    def test_rejects_bad_max_summaries(self):
        with pytest.raises(ValueError):
            Limbo(max_summaries=0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Limbo().fit([{0: 1.0}], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Limbo().fit([], [])

    def test_rejects_support_mismatch(self):
        with pytest.raises(ValueError):
            Limbo().fit([{0: 1.0}], [1.0], supports=[])


class TestPhase1:
    def test_phi_zero_keeps_distinct_tuples(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        # 4 distinct tuple patterns exist.
        assert len(limbo.summaries) == 4

    def test_threshold_value(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.5).fit(view.rows, view.priors)
        assert limbo.threshold == pytest.approx(
            0.5 * limbo.total_information / len(view.rows)
        )

    def test_larger_phi_coarser_summaries(self, two_blocks):
        view = build_tuple_view(two_blocks)
        fine = Limbo(phi=0.0).fit(view.rows, view.priors)
        coarse = Limbo(phi=1.0).fit(view.rows, view.priors)
        assert len(coarse.summaries) <= len(fine.summaries)

    def test_max_summaries_cap(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0, max_summaries=2).fit(view.rows, view.priors)
        assert len(limbo.summaries) <= 2

    def test_summary_weights_sum_to_one(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.2).fit(view.rows, view.priors)
        assert sum(s.weight for s in limbo.summaries) == pytest.approx(1.0)

    def test_precomputed_mutual_information_used(self, two_blocks):
        view = build_tuple_view(two_blocks)
        info = view.mutual_information()
        limbo = Limbo(phi=0.5).fit(view.rows, view.priors, mutual_information=info)
        assert limbo.total_information == info


class TestPhases2And3:
    def test_recovers_two_blocks(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        assignment = limbo.cluster(2)
        left = {assignment[i] for i in range(10)}
        right = {assignment[i] for i in range(10, 20)}
        assert len(left) == 1 and len(right) == 1 and left != right

    def test_representatives_count(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        assert len(limbo.representatives(3)) == 3

    def test_assign_external_rows(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        reps = limbo.representatives(2)
        # A fresh object identical to a left-block tuple must go left.
        assignment = limbo.assign(reps, rows=[view.rows[0]], priors=[1.0])
        assert assignment == [limbo.assign(reps)[0]]

    def test_objects_ordered_by_part_keep_their_scalar_assignment(self):
        # At phi=0 all 300 summaries of dblp(300) carry the NULL literal,
        # so its posting is heavy and Phase 3 reorders the tuples by part;
        # each tuple must still get the scalar scan's answer, in place.
        from repro import kernels
        from repro.clustering.limbo import assign_rows
        from repro.datasets import dblp

        view = build_tuple_view(dblp(300, seed=1))
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        rows, priors = list(view.rows), list(view.priors)
        postings = kernels.PostingsDCFSet(limbo.summaries)
        order = postings.part_order(rows, priors)
        assert postings.heavy and order != sorted(order)
        assert assign_rows(limbo.summaries, rows, priors, "auto") == \
            assign_rows(limbo.summaries, rows, priors, "sparse")

    def test_assign_requires_representatives(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        with pytest.raises(ValueError):
            limbo.assign([])

    def test_merge_sequence_labels(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        labels = [f"s{i}" for i in range(len(limbo.summaries))]
        result = limbo.merge_sequence(labels=labels)
        assert result.dendrogram.labels == labels


class TestInformationAccounting:
    def test_zero_loss_for_perfect_clustering(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        # k = number of distinct patterns: assignment loses nothing.
        assignment = limbo.cluster(4)
        assert limbo.relative_information_loss(assignment) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_one_cluster_loses_everything(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        assignment = limbo.cluster(1)
        assert limbo.relative_information_loss(assignment) == pytest.approx(1.0)

    def test_loss_monotone_in_k(self, two_blocks):
        view = build_tuple_view(two_blocks)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors)
        losses = [
            limbo.relative_information_loss(limbo.cluster(k)) for k in (4, 2, 1)
        ]
        assert losses[0] <= losses[1] + 1e-9 <= losses[2] + 2e-9

    def test_clustering_information_validates_length(self):
        with pytest.raises(ValueError):
            clustering_information([{0: 1.0}], [1.0], [0, 1])


class TestValueClusteringIntegration:
    def test_figure4_through_limbo(self):
        relation = Relation(
            ["A", "B", "C"],
            [
                ("a", "1", "p"),
                ("a", "1", "r"),
                ("w", "2", "x"),
                ("y", "2", "x"),
                ("z", "2", "x"),
            ],
        )
        view = build_value_view(relation)
        limbo = Limbo(phi=0.0).fit(view.rows, view.priors, supports=view.support)
        ids = view.catalog.ids
        # phi=0 merges only the perfect co-occurrences: 9 values -> 7 leaves.
        assert len(limbo.summaries) == 7
        member_sets = {frozenset(s.members) for s in limbo.summaries}
        assert frozenset({ids["a"], ids["1"]}) in member_sets
        assert frozenset({ids["2"], ids["x"]}) in member_sets
        # ADCF support survives Phase 1 (Figure 7's O-rows).
        for summary in limbo.summaries:
            if frozenset(summary.members) == frozenset({ids["a"], ids["1"]}):
                assert summary.support == {"A": 2, "B": 2}


class RecordingBudget:
    """Fake budget capturing every cooperative checkpoint call."""

    def __init__(self):
        self.calls = []

    def checkpoint(self, units=1, where=""):
        self.calls.append((units, where))


class TestAssignCheckpointCadence:
    """Regression for the Phase-3 loop-variable shadowing bug.

    The inner representative scan used to reuse the outer object loop's
    ``index`` variable; these tests pin the checkpoint cadence (one call per
    ``_CHECK_EVERY`` objects, charged ``_CHECK_EVERY * len(reps)`` units) so
    any reintroduction of the shadowing -- or a silent cadence change --
    fails loudly.
    """

    @staticmethod
    def _fitted_limbo(n_objects, budget=None, backend="auto"):
        rows = [{i % 7: 0.5, (i % 7) + 7: 0.5} for i in range(n_objects)]
        priors = [1.0 / n_objects] * n_objects
        limbo = Limbo(phi=0.0, budget=budget, backend=backend)
        return limbo.fit(rows, priors), rows, priors

    def test_sparse_path_cadence(self):
        from repro.clustering.limbo import _CHECK_EVERY

        n = 3 * _CHECK_EVERY + 5
        limbo, rows, priors = self._fitted_limbo(n)
        budget = RecordingBudget()
        limbo.budget = budget
        reps = [s.copy() for s in limbo.summaries[:3]]  # below the dense min
        limbo.assign(reps)
        assign_calls = [c for c in budget.calls if c[1] == "limbo.assign"]
        assert len(assign_calls) == -(-n // _CHECK_EVERY)  # ceil
        assert all(units == _CHECK_EVERY * len(reps) for units, _ in assign_calls)

    def test_dense_path_cadence_matches_sparse(self):
        from repro.clustering.limbo import _CHECK_EVERY

        n = 2 * _CHECK_EVERY
        limbo, rows, priors = self._fitted_limbo(n)
        reps = [s.copy() for s in limbo.summaries]
        counts = {}
        for backend in ("sparse", "dense"):
            budget = RecordingBudget()
            limbo.budget = budget
            limbo.backend = backend
            limbo.assign(reps)
            counts[backend] = [c for c in budget.calls if c[1] == "limbo.assign"]
        assert counts["sparse"] == counts["dense"]
        assert len(counts["sparse"]) == n // _CHECK_EVERY

    def test_assignment_unaffected_by_many_representatives(self):
        from repro.clustering.limbo import _CHECK_EVERY

        # With len(reps) > _CHECK_EVERY the old shadowed index would have
        # desynchronized anything reading it after the inner scan; every
        # object must still land on its own (zero-cost) representative.
        n = _CHECK_EVERY + 6
        rows = [{i: 1.0} for i in range(n)]
        priors = [1.0 / n] * n
        limbo = Limbo(phi=0.0, backend="sparse").fit(rows, priors)
        reps = limbo.summaries
        assert len(reps) > _CHECK_EVERY
        assignment = limbo.assign(reps)
        assert len(assignment) == n
        assert all(reps[a].members == [i] for i, a in enumerate(assignment))

    def test_backends_agree_on_assignment(self):
        limbo, rows, priors = self._fitted_limbo(40)
        reps = [s.copy() for s in limbo.summaries]
        sparse = dense = None
        limbo.backend = "sparse"
        sparse = limbo.assign(reps)
        limbo.backend = "dense"
        dense = limbo.assign(reps)
        assert sparse == dense


class TestPhaseThreeGovernor:
    """Phase 3's cooperative memory check admits the representatives'
    postings at their own size plus one object's scratch and part row,
    and each block at its own size plus its posting hits."""

    N_REPS, N_COLUMNS = 2000, 2084

    @classmethod
    def wide_representatives(cls):
        from repro.clustering import DCF

        # Representative r covers columns r and N_REPS + r % 84, so the
        # representatives span all 2,084 columns.
        spill = cls.N_COLUMNS - cls.N_REPS
        return [
            DCF(1.0 / cls.N_REPS, {r: 0.5, cls.N_REPS + r % spill: 0.5})
            for r in range(cls.N_REPS)
        ]

    @staticmethod
    def builds(monkeypatch):
        from repro import kernels

        built = []

        class Recording(kernels.PostingsDCFSet):
            def __init__(self, dcfs):
                super().__init__(dcfs)
                built.append((len(self), len(self.postings)))

        monkeypatch.setattr(kernels, "PostingsDCFSet", Recording)
        return built

    def test_capped_run_builds_the_kernel_at_its_own_size(self, monkeypatch):
        # The set with one object's scratch and part row is estimated at
        # 0.16 MB, under the 1 MiB cap; a full block's scratch would be
        # 4.2 MB.  The block of two objects is admitted at 0.22 MB.
        from repro import kernels
        from repro.budget import MemoryGovernor
        from repro.clustering.limbo import assign_rows

        reps = self.wide_representatives()
        assert kernels.postings_bytes(reps, 1) == 160_000
        built = self.builds(monkeypatch)
        budget = RecordingBudget()
        budget.memory = MemoryGovernor(1 << 20)
        rows = [{0: 0.5, self.N_REPS: 0.5}, {7: 1.0}]
        assignment = assign_rows(reps, rows, [0.5, 0.5], "auto", budget=budget)
        assert built == [(self.N_REPS, self.N_COLUMNS)]
        assert assignment == [0, 7]
        assert budget.memory.reserved == 0

    def test_ungoverned_run_packs(self, monkeypatch):
        from repro.clustering.limbo import assign_rows

        reps = self.wide_representatives()
        built = self.builds(monkeypatch)
        rows = [{0: 0.5, self.N_REPS: 0.5}, {7: 1.0}]
        assignment = assign_rows(reps, rows, [0.5, 0.5], "auto")
        assert built == [(self.N_REPS, self.N_COLUMNS)]
        assert assignment == [0, 7]


class TestPhaseThreeMemory:
    @pytest.fixture(scope="class")
    def dblp_phase3(self):
        from repro.datasets import dblp

        view = build_tuple_view(dblp(2000, seed=1))
        limbo = Limbo(phi=0.0).fit(
            view.rows, view.priors,
            mutual_information=view.mutual_information())
        return limbo.summaries, list(view.rows), list(view.priors)

    def test_cap_counts_each_blocks_posting_hits(self, dblp_phase3,
                                                 monkeypatch):
        # The set and a full block's cost cells and part rows are
        # estimated at 4.31 MB, and the block's posting hits (its light
        # hits, and the heavy NULL posting once per part) add 0.54 MB.
        # Under a 4.5 MiB (4.72 MB) cap the full block is refused only for
        # its hits and runs in the kernel as two halves of 32 (2.52 and
        # 2.62 MB); the short block of 16 objects fits whole (1.52 MB).
        # tracemalloc peaks at about 2.0 MB, and the assignments are the
        # same.
        import tracemalloc

        from repro import kernels
        from repro.budget import MemoryGovernor
        from repro.clustering.limbo import assign_rows

        summaries, rows, priors = dblp_phase3
        rows, priors = rows[:64] + rows[-16:], priors[:64] + priors[-16:]
        blocks = []
        closest_many = kernels.PostingsDCFSet.closest_many

        def spy(self, block_rows, block_priors):
            blocks.append(len(block_rows))
            return closest_many(self, block_rows, block_priors)

        uncapped = assign_rows(summaries, rows, priors, "auto")
        monkeypatch.setattr(kernels.PostingsDCFSet, "closest_many", spy)
        budget = RecordingBudget()
        cap = 9 * 2 ** 19
        budget.memory = MemoryGovernor(cap)
        tracemalloc.start()
        try:
            capped = assign_rows(summaries, rows, priors, "auto",
                                 budget=budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks == [32, 32, 16]
        assert capped == uncapped
        assert peak < cap

    def test_dblp_association_peak_stays_small(self, dblp_phase3):
        # A dense pack of these summaries peaked at about 58 MB (a 2,000 x
        # 2,084 float64 matrix plus a reps x block-non-zeros slab), and the
        # postings kernel at 7.4 MiB while every tuple gathered the NULL
        # column's 2,000-row posting.  Costing that heavy posting once per
        # part leaves about 3.7 MiB.
        import tracemalloc

        from repro.clustering.limbo import assign_rows

        summaries, rows, priors = dblp_phase3
        tracemalloc.start()
        try:
            assignment = assign_rows(summaries, rows, priors, "auto")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(assignment) == len(rows)
        assert peak < 5 * 2 ** 20
