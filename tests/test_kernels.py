"""Parity tests for the vectorized kernels against the sparse oracle.

Every kernel in :mod:`repro.kernels` must agree with the pure-Python
``merge_cost`` / heap path of :mod:`repro.clustering` to within 1e-9 --
including the zero-mass and disjoint-support edge cases -- and the dense AIB
loop must reproduce the sparse merge sequence bit-for-bit.
"""

import math
import random

import numpy as np
import pytest

from repro import kernels
from repro.clustering import DCF, aib, merge, merge_cost
from repro.clustering.dcf import LOSS_QUANTUM_BITS, quantize_loss

TOL = 1e-9


def random_dcfs(n, n_columns, seed, density=0.5):
    """Seeded sparse DCFs with random supports over ``n_columns`` columns."""
    rng = random.Random(seed)
    dcfs = []
    weights = [rng.uniform(0.1, 2.0) for _ in range(n)]
    total = sum(weights)
    for i, weight in enumerate(weights):
        support = [c for c in range(n_columns) if rng.random() < density]
        if not support:
            support = [rng.randrange(n_columns)]
        masses = [rng.uniform(0.05, 1.0) for _ in support]
        mass_total = sum(masses)
        conditional = {c: m / mass_total for c, m in zip(support, masses)}
        dcfs.append(DCF.singleton(i, weight / total, conditional))
    return dcfs


class TestQuantization:
    def test_scalar_matches_vectorized_bitwise(self):
        rng = random.Random(11)
        values = [rng.uniform(1e-12, 10.0) for _ in range(1000)]
        scalar = [quantize_loss(v) for v in values]
        vectorized = kernels.dense._quantize(np.asarray(values))
        assert scalar == list(vectorized)

    def test_idempotent(self):
        rng = random.Random(12)
        for _ in range(200):
            q = quantize_loss(rng.uniform(1e-9, 5.0))
            assert quantize_loss(q) == q

    def test_zero_and_relative_error(self):
        assert quantize_loss(0.0) == 0.0
        rng = random.Random(13)
        bound = 2.0 ** -(LOSS_QUANTUM_BITS)
        for _ in range(200):
            v = rng.uniform(1e-9, 5.0)
            assert abs(quantize_loss(v) - v) <= bound * v

    def test_floor_snaps_zero_noise_to_zero(self):
        from repro.clustering.dcf import LOSS_FLOOR

        # Roundoff noise on a mathematically-zero cost must reach exactly
        # 0.0 in both backends, whatever its summation order produced.
        for noise in (1.6e-16, 3.2e-16, LOSS_FLOOR / 2):
            assert quantize_loss(noise) == 0.0
        vectorized = kernels.dense._quantize(np.asarray([1.6e-16, 1e-3]))
        assert vectorized[0] == 0.0
        assert vectorized[1] > 0.0
        assert quantize_loss(LOSS_FLOOR) > 0.0

    def test_collapses_last_ulp_noise(self):
        v = 0.0003076923076923029
        w = 0.00030769230769230667  # the same cost summed in another order
        assert quantize_loss(v) == quantize_loss(w)


class TestBackendKnob:
    def test_validate_rejects_unknown(self):
        with pytest.raises(ValueError):
            kernels.validate_backend("gpu")

    def test_explicit_values_always_honored(self):
        assert kernels.use_dense("dense", 2) is True
        assert kernels.use_dense("sparse", 10_000) is False

    def test_auto_thresholds(self):
        assert kernels.use_dense("auto", kernels.DENSE_MIN_OBJECTS) is True
        assert kernels.use_dense("auto", kernels.DENSE_MIN_OBJECTS - 1) is False
        assert kernels.use_dense("auto", 100, maximum=50) is False
        wide = kernels.DENSE_MAX_CELLS  # 2 * n * n_columns blows the cap
        assert kernels.use_dense("auto", 100, n_columns=wide) is False


class TestSharedIndex:
    def test_sorted_and_complete(self):
        dcfs = [DCF(0.5, {3: 1.0}), DCF(0.5, {1: 0.5, 2: 0.5})]
        index = kernels.shared_index(dcfs)
        assert index == {1: 0, 2: 1, 3: 2}

    def test_unsortable_keys_keep_first_seen_order(self):
        dcfs = [DCF(0.5, {"b": 1.0}), DCF(0.5, {1: 1.0})]
        index = kernels.shared_index(dcfs)
        assert index == {"b": 0, 1: 1}


class TestMergeCostMany:
    def test_matches_sparse_oracle(self):
        dcfs = random_dcfs(20, 12, seed=1)
        packed = kernels.DenseDCFSet.pack(dcfs)
        query = random_dcfs(1, 12, seed=2)[0]
        costs = kernels.merge_cost_many(packed, query.mass, query.weight)
        for r, dcf in enumerate(dcfs):
            assert costs[r] == pytest.approx(merge_cost(dcf, query), abs=TOL)

    def test_disjoint_supports(self):
        left = DCF(0.4, {0: 0.5, 1: 0.5})
        right = DCF(0.6, {2: 1.0})
        packed = kernels.DenseDCFSet.pack([left])
        costs = kernels.merge_cost_many(packed, right.mass, right.weight)
        assert costs[0] == pytest.approx(merge_cost(left, right), abs=TOL)

    def test_zero_mass_columns_ignored(self):
        left = DCF(0.5, {0: 1.0})
        packed = kernels.DenseDCFSet.pack([left])
        with_zero = kernels.merge_cost_many(packed, {0: 0.25, 1: 0.0}, 0.25)
        without = kernels.merge_cost_many(packed, {0: 0.25}, 0.25)
        assert with_zero[0] == without[0]

    def test_query_columns_outside_index_cancel(self):
        # Columns the packed set never saw cancel between S_merged and
        # S_query; the kernel must agree with the sparse cost that sees them.
        left = DCF(0.5, {0: 1.0})
        right = DCF(0.5, {0: 0.5, 9: 0.5})
        packed = kernels.DenseDCFSet.pack([left])
        assert 9 not in packed.index
        costs = kernels.merge_cost_many(packed, right.mass, right.weight)
        assert costs[0] == pytest.approx(merge_cost(left, right), abs=TOL)

    def test_identical_rows_cost_zero(self):
        dcf = DCF(0.5, {0: 0.25, 1: 0.75})
        packed = kernels.DenseDCFSet.pack([dcf])
        costs = kernels.merge_cost_many(packed, dcf.mass, dcf.weight)
        assert costs[0] == pytest.approx(0.0, abs=TOL)


class TestDenseMergeEngine:
    def test_costs_match_sparse_after_merges(self):
        dcfs = random_dcfs(10, 8, seed=6)
        engine = kernels.DenseMergeEngine(dcfs)
        live = {i: dcf for i, dcf in enumerate(dcfs)}
        live[10] = merge(live.pop(0), live.pop(1))
        engine.merge(0, 1, 10)
        live[11] = merge(live.pop(10), live.pop(2))
        engine.merge(10, 2, 11)
        others = sorted(k for k in live if k != 11)
        costs = engine.costs(11, others)
        for position, other in enumerate(others):
            expected = merge_cost(live[other], live[11])
            assert costs[position] == pytest.approx(expected, abs=TOL)

    def test_wide_support_path_matches_restricted(self):
        # Force both branches of costs() onto the same comparison by using a
        # query whose support covers most columns.
        dcfs = random_dcfs(8, 6, seed=7, density=0.9)
        engine = kernels.DenseMergeEngine(dcfs)
        assert 2 * engine.supports[0].size > engine.n_columns
        costs = engine.costs(0, range(1, 8))
        for position, other in enumerate(range(1, 8)):
            expected = merge_cost(dcfs[other], dcfs[0])
            assert costs[position] == pytest.approx(expected, abs=TOL)


class TestCandidateMatrix:
    def test_best_breaks_ties_on_lowest_pair(self):
        matrix = kernels.CandidateMatrix(4)
        matrix.fill_row(0, np.asarray([0.5, 0.2, 0.2]))
        matrix.fill_row(1, np.asarray([0.2, 0.9]))
        matrix.fill_row(2, np.asarray([0.9]))
        # (0,2), (0,3) and (1,2) all cost 0.2; (0,2) is lexicographically first.
        assert matrix.best() == (0, 2, 0.2)

    def test_merge_retires_and_rescans(self):
        matrix = kernels.CandidateMatrix(5)
        matrix.fill_row(0, np.asarray([0.1, 0.4]))
        matrix.fill_row(1, np.asarray([0.3]))
        assert matrix.best() == (0, 1, 0.1)
        # Merge (0, 1) -> 3; survivor 2 costs 0.25 against the new node.
        matrix.merge(0, 1, 3, [2], np.asarray([0.25]))
        assert matrix.best() == (2, 3, 0.25)


class TestBackendParity:
    def test_dense_aib_reproduces_sparse_sequence(self):
        dcfs = random_dcfs(40, 14, seed=8, density=0.35)
        sparse = aib(dcfs, backend="sparse")
        dense = aib(dcfs, backend="dense")
        sparse_merges = [
            (m.left, m.right, m.parent, m.loss)
            for m in sparse.dendrogram.merges
        ]
        dense_merges = [
            (m.left, m.right, m.parent, m.loss)
            for m in dense.dendrogram.merges
        ]
        assert sparse_merges == dense_merges

    def test_many_random_instances(self):
        for seed in range(5):
            dcfs = random_dcfs(12, 6, seed=100 + seed, density=0.5)
            sparse = aib(dcfs, backend="sparse")
            dense = aib(dcfs, backend="dense")
            assert [
                (m.left, m.right, m.parent) for m in sparse.dendrogram.merges
            ] == [(m.left, m.right, m.parent) for m in dense.dendrogram.merges]

    def test_auto_picks_sparse_below_threshold(self):
        dcfs = random_dcfs(4, 4, seed=9)
        result = aib(dcfs, backend="auto")
        oracle = aib(dcfs, backend="sparse")
        assert [
            (m.left, m.right, m.loss) for m in result.dendrogram.merges
        ] == [(m.left, m.right, m.loss) for m in oracle.dendrogram.merges]

    def test_losses_are_grid_snapped_in_both_backends(self):
        dcfs = random_dcfs(34, 10, seed=10)
        for backend in ("sparse", "dense"):
            result = aib(dcfs, backend=backend)
            for m in result.dendrogram.merges:
                assert m.loss == quantize_loss(m.loss)


class TestEntropyCache:
    def test_matches_direct_formula(self):
        dcf = DCF(0.5, {0: 0.25, 1: 0.75})
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert dcf.entropy_bits() == pytest.approx(expected)

    def test_absorb_invalidates(self):
        a = DCF(0.5, {0: 1.0})
        assert a.entropy_bits() == pytest.approx(0.0)
        a.absorb(DCF(0.5, {1: 1.0}))
        assert a.entropy_bits() == pytest.approx(1.0)

    def test_merge_and_copy_carry_cache_semantics(self):
        a = DCF(0.5, {0: 1.0})
        b = DCF(0.5, {1: 1.0})
        merged = merge(a, b)
        assert merged.entropy_bits() == pytest.approx(1.0)
        duplicate = a.copy()
        assert duplicate.entropy_bits() == a.entropy_bits()

    def test_mass_log_sum_exposed(self):
        dcf = DCF(0.5, {0: 0.5, 1: 0.5})
        expected = 2 * (0.25 * math.log(0.25))
        assert dcf.mass_log_sum == pytest.approx(expected)


class TestAutoHeuristic:
    """The re-derived ``auto`` rule picks the measured-faster backend.

    Calibrated against wall-clock sweeps of the AIB merge loop on DBLP
    summaries: narrow (tuple-width, <150 column) supports cross over near 40
    clusters (sparse/dense ratio 0.83 at 32, 1.27 at 48), while wide phi=1.0
    summaries (1100+ columns) favor dense from 9 clusters up (1.5x-5.2x).
    These are decision-function tests -- no timing -- pinning that ``auto``
    lands on the right side of both measured ends of the sweep.
    """

    def test_small_narrow_end_stays_sparse(self):
        # 16 leaves x 33 columns (measured sweep floor): sparse is ~4x faster.
        assert kernels.use_dense("auto", 16, n_columns=33) is False

    def test_large_narrow_end_goes_dense(self):
        # 96 leaves x 151 columns: dense measured ~2.5x faster.
        assert kernels.use_dense("auto", 96, n_columns=151) is True

    def test_wide_supports_go_dense_below_object_threshold(self):
        # 9 summaries x 1110 columns (phi=1.0, n_tuples=500): dense 1.5x.
        assert 9 < kernels.DENSE_MIN_OBJECTS
        assert kernels.use_dense("auto", 9, n_columns=1110) is True

    def test_wide_rule_needs_reported_columns(self):
        # The same 9 clusters go dense only when the call site reports the
        # support width; without it the object threshold alone decides.
        assert kernels.use_dense("auto", 9, n_columns=1110) is True
        assert kernels.use_dense("auto", 9) is False

    def test_wide_rule_floor(self):
        # Below DENSE_MIN_ENTRIES objects even the widest support stays
        # sparse: one or two rows never amortize a pack.
        assert kernels.use_dense(
            "auto", kernels.DENSE_MIN_ENTRIES - 1, n_columns=100_000
        ) is False

    def test_wide_rule_respects_caps(self):
        blown = kernels.DENSE_MAX_CELLS  # 2 * n * n_columns over the cap
        assert kernels.use_dense("auto", 9, n_columns=blown) is False

    def test_assign_small_end_stays_sparse(self):
        # k=5 over 64 objects = 320 cells: sparse measured faster (~0.8x).
        assert kernels.use_dense_assign("auto", 5, 64, 13) is False

    def test_assign_large_end_goes_dense(self):
        # k=5 over 8000 objects: dense measured ~3x faster.
        assert kernels.use_dense_assign("auto", 5, 8000, 13) is True

    def test_assign_threshold_is_cells_not_reps(self):
        cells = kernels.DENSE_MIN_ASSIGN_CELLS
        assert kernels.use_dense_assign("auto", 4, cells // 4, 13) is True
        assert kernels.use_dense_assign("auto", 4, cells // 4 - 1, 13) is False

    def test_assign_explicit_values_honored(self):
        assert kernels.use_dense_assign("sparse", 100, 10_000, 13) is False
        assert kernels.use_dense_assign("dense", 2, 4, 13) is True

    def test_assign_rejects_singleton_rep_set(self):
        assert kernels.use_dense_assign("auto", 1, 1_000_000, 13) is False

    def test_assign_defers_to_memory_governor(self):
        class Refusing:
            def would_exceed(self, n_bytes):
                return True

        assert kernels.use_dense_assign("auto", 5, 8000, 13,
                                        governor=Refusing()) \
            is False


class TestAssignMany:
    def packed_and_rows(self, n_reps=6, n_columns=20, n_rows=40, seed=31):
        reps = random_dcfs(n_reps, n_columns, seed=seed)
        packed = kernels.DenseDCFSet.pack(reps)
        objects = random_dcfs(n_rows, n_columns, seed=seed + 1, density=0.3)
        rows = [o.conditional for o in objects]
        priors = [o.weight for o in objects]
        return reps, packed, rows, priors

    def assignment_oracle(self, packed, rows, priors):
        out = []
        for row, prior in zip(rows, priors):
            mass = {k: prior * p for k, p in row.items() if p > 0.0}
            costs = kernels.merge_cost_many(packed, mass, prior)
            out.append(int(costs.argmin()))
        return out

    def test_matches_per_object_kernel(self):
        _, packed, rows, priors = self.packed_and_rows()
        block = kernels.assign_many(packed, rows, priors)
        assert block == self.assignment_oracle(packed, rows, priors)

    def test_rows_with_unseen_columns(self):
        _, packed, rows, priors = self.packed_and_rows(seed=32)
        rows = [dict(row) for row in rows]
        for i, row in enumerate(rows):
            row[10_000 + i] = 0.5  # mass on a column no representative has
        block = kernels.assign_many(packed, rows, priors)
        assert block == self.assignment_oracle(packed, rows, priors)

    def test_zero_mass_entries_dropped(self):
        _, packed, rows, priors = self.packed_and_rows(seed=33)
        padded = [{**row, 999: 0.0} for row in rows]
        assert kernels.assign_many(packed, padded, priors) == \
            kernels.assign_many(packed, rows, priors)

    def test_empty_row_defers_to_caller(self):
        _, packed, rows, priors = self.packed_and_rows(seed=34)
        rows[3] = {}
        assert kernels.assign_many(packed, rows, priors) is None

    def test_non_int_columns_defer_to_caller(self):
        reps = [DCF(0.5, {"a": 1.0}), DCF(0.5, {"b": 1.0})]
        packed = kernels.DenseDCFSet.pack(reps)
        assert kernels.assign_many(packed, [{"a": 1.0}], [0.1]) is None

    def test_nonpositive_prior_raises(self):
        _, packed, rows, priors = self.packed_and_rows(seed=35)
        priors[0] = 0.0
        with pytest.raises(ValueError, match="prior must be positive"):
            kernels.assign_many(packed, rows, priors)

    def test_tie_breaks_to_lowest_representative(self):
        rep = DCF(0.5, {0: 0.5, 1: 0.5})
        packed = kernels.DenseDCFSet.pack([rep, rep.copy(), rep.copy()])
        block = kernels.assign_many(packed, [{0: 0.5, 1: 0.5}], [0.1])
        assert block == [0]


class TestPackAccounting:
    def test_pack_time_accumulates_and_resets(self):
        kernels.reset_pack_seconds()
        assert kernels.pack_seconds() == 0.0
        dcfs = random_dcfs(50, 40, seed=41)
        kernels.DenseDCFSet.pack(dcfs)
        after_pack = kernels.pack_seconds()
        assert after_pack > 0.0
        kernels.DenseMergeEngine(dcfs)
        assert kernels.pack_seconds() > after_pack
        kernels.reset_pack_seconds()
        assert kernels.pack_seconds() == 0.0
