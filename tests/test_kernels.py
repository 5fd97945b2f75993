"""Parity tests for the vectorized kernels against the sparse oracle.

Every kernel in :mod:`repro.kernels` must agree with the pure-Python
``merge_cost`` / heap path of :mod:`repro.clustering` to within 1e-9 --
including the zero-mass and disjoint-support edge cases -- and the dense AIB
loop must reproduce the sparse merge sequence bit-for-bit.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.clustering import DCF, aib, merge, merge_cost
from repro.clustering.dcf import LOSS_QUANTUM_BITS, closest, quantize_loss
from repro.testing.oracles import ReferencePostingsDCFSet

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
    """The postings kernel's merge costs of one query against many rows,
    checked through the row it picks against the scalar oracle."""

    @staticmethod
    def scalar_closest(dcfs, query):
        return closest(dcfs, query)[0]

    def test_matches_sparse_oracle(self):
        dcfs = random_dcfs(20, 12, seed=1)
        postings = kernels.PostingsDCFSet(dcfs)
        for query in random_dcfs(30, 12, seed=2):
            chosen = postings.closest(query.mass, query.weight)
            assert chosen == self.scalar_closest(dcfs, query)

    def test_disjoint_supports(self):
        dcfs = [DCF(0.4, {0: 0.5, 1: 0.5}), DCF(0.1, {1: 1.0})]
        query = DCF(0.6, {2: 1.0})
        postings = kernels.PostingsDCFSet(dcfs)
        assert postings.closest(query.mass, query.weight) == \
            self.scalar_closest(dcfs, query) == 1

    def test_zero_mass_columns_ignored(self):
        postings = kernels.PostingsDCFSet(random_dcfs(6, 4, seed=3))
        rows = [{0: 0.5, 1: 0.5}, {2: 1.0}]
        padded = [{**row, 3: 0.0, 99: 0.0} for row in rows]
        assert postings.closest_many(padded, [0.25, 0.25]) == \
            postings.closest_many(rows, [0.25, 0.25])

    def test_query_columns_outside_index_cancel(self):
        # Columns no row carries cancel between S_merged and S_query; the
        # kernel must agree with the sparse cost that sees them.
        dcfs = [DCF(0.5, {0: 1.0}), DCF(0.3, {1: 1.0})]
        query = DCF(0.5, {0: 0.5, 9: 0.5})
        postings = kernels.PostingsDCFSet(dcfs)
        assert 9 not in postings.postings
        assert postings.closest(query.mass, query.weight) == \
            self.scalar_closest(dcfs, query) == 0

    def test_identical_rows_cost_zero(self):
        dcfs = random_dcfs(5, 6, seed=4)
        postings = kernels.PostingsDCFSet(dcfs)
        for r, dcf in enumerate(dcfs):
            # Row r costs zero; an earlier row of the same p(T|c) ties it.
            chosen = postings.closest(dcf.mass, dcf.weight)
            assert chosen <= r
            assert merge_cost(dcfs[chosen], dcf) == merge_cost(dcf, dcf) == 0.0
            assert chosen == self.scalar_closest(dcfs, dcf)


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

    @staticmethod
    def postings_builds(monkeypatch):
        built = []

        class Recording(kernels.PostingsDCFSet):
            def __init__(self, dcfs):
                super().__init__(dcfs)
                built.append(len(self))

        monkeypatch.setattr(kernels, "PostingsDCFSet", Recording)
        return built

    def test_assign_explicit_values_honored(self, monkeypatch):
        from repro.clustering.limbo import assign_rows

        reps = random_dcfs(4, 6, seed=5)
        rows = [o.conditional for o in random_dcfs(10, 6, seed=6)]
        built = self.postings_builds(monkeypatch)
        sparse = assign_rows(reps, rows, [0.1] * 10, "sparse")
        assert built == []
        assert assign_rows(reps, rows, [0.1] * 10, "dense") == sparse
        assert built == [4]

    def test_assign_defers_to_memory_governor(self, monkeypatch):
        from repro.clustering.limbo import assign_rows

        class Refusing:
            def would_exceed(self, n_bytes):
                return True

        class Budget:
            memory = Refusing()

            def checkpoint(self, units=1, where=""):
                pass

        reps = random_dcfs(5, 6, seed=7)
        rows = [o.conditional for o in random_dcfs(10, 6, seed=8)]
        built = self.postings_builds(monkeypatch)
        for backend in ("auto", "dense"):
            assign_rows(reps, rows, [0.1] * 10, backend, budget=Budget())
        assert built == []


class TestAssignMany:
    """:meth:`PostingsDCFSet.closest_many`, the batched Phase-3 assignment."""

    def postings_and_rows(self, n_reps=6, n_columns=20, n_rows=40, seed=31):
        reps = random_dcfs(n_reps, n_columns, seed=seed)
        postings = kernels.PostingsDCFSet(reps)
        objects = random_dcfs(n_rows, n_columns, seed=seed + 1, density=0.3)
        rows = [o.conditional for o in objects]
        priors = [o.weight for o in objects]
        return reps, postings, rows, priors

    @staticmethod
    def per_object(postings, rows, priors):
        return [postings.closest(DCF(prior, row).mass, prior)
                for row, prior in zip(rows, priors)]

    def test_matches_per_object_kernel(self):
        reps, postings, rows, priors = self.postings_and_rows()
        block = postings.closest_many(rows, priors)
        assert block == self.per_object(postings, rows, priors)
        assert block == [closest(reps, DCF(prior, row))[0]
                         for row, prior in zip(rows, priors)]

    def test_rows_with_unseen_columns(self):
        _, postings, rows, priors = self.postings_and_rows(seed=32)
        rows = [dict(row) for row in rows]
        for i, row in enumerate(rows):
            row[10_000 + i] = 0.5  # mass on a column no representative has
        assert postings.closest_many(rows, priors) == \
            self.per_object(postings, rows, priors)

    def test_zero_mass_entries_dropped(self):
        _, postings, rows, priors = self.postings_and_rows(seed=33)
        padded = [{**row, 999: 0.0} for row in rows]
        assert postings.closest_many(padded, priors) == \
            postings.closest_many(rows, priors)

    def test_empty_rows_cost_only_the_priors(self):
        # An empty row (or one of unseen columns only) hits no posting: its
        # cost is the prior term alone, lowest for the lightest row.
        reps = [DCF(0.5, {0: 1.0}), DCF(0.2, {1: 1.0}), DCF(0.3, {2: 1.0})]
        postings = kernels.PostingsDCFSet(reps)
        rows = [{}, {9: 1.0}, {0: 1.0}]
        assert postings.closest_many(rows, [0.1, 0.1, 0.1]) == [1, 1, 0]
        assert postings.closest_many(rows, [0.1] * 3) == [
            closest(reps, DCF(0.1, row))[0] for row in rows]

    def test_non_int_columns_are_served(self):
        reps = [DCF(0.5, {"a": 1.0}), DCF(0.5, {"b": 0.5, ("c", 1): 0.5})]
        postings = kernels.PostingsDCFSet(reps)
        rows = [{"a": 1.0}, {("c", 1): 1.0}, {"b": 0.5, "z": 0.5}]
        assert postings.closest_many(rows, [0.1] * 3) == [0, 1, 1]

    def test_nonpositive_prior_raises(self):
        _, postings, rows, priors = self.postings_and_rows(seed=35)
        for bad in (0.0, -0.1):
            priors[3] = bad
            with pytest.raises(ValueError, match="prior must be positive"):
                postings.closest_many(rows, priors)

    def test_tie_breaks_to_lowest_representative(self):
        rep = DCF(0.5, {0: 0.5, 1: 0.5})
        postings = kernels.PostingsDCFSet([rep, rep.copy(), rep.copy()])
        assert postings.closest_many([{0: 0.5, 1: 0.5}] * 2, [0.1, 0.2]) == [0, 0]

    def test_grid_ties_go_to_the_lowest_index(self):
        # Row 1's raw loss is an ulp below row 0's and both snap to the same
        # grid point: row 0 wins, as quantize-then-argmin would pick it.
        nats = 0.3
        lower = math.nextafter(nats, 0.0)
        bits, lower_bits = nats / math.log(2.0), lower / math.log(2.0)
        assert lower_bits < bits
        assert quantize_loss(lower_bits) == quantize_loss(bits)
        costs = np.array([[nats, lower, 1.0]])
        assert kernels.dense._closest_rows(costs).tolist() == [0]

    def test_grid_ties_across_a_binade(self):
        # 1 - 2**-33 rounds up to the grid point 1.0, and 1 + 2**-31 rounds
        # down to it from the next binade: the window must hold both.
        above, below = 1.0 + 2.0 ** -31, 1.0 - 2.0 ** -33
        assert quantize_loss(above) == quantize_loss(below) == 1.0
        costs = np.array([[2.0, above, below]]) * math.log(2.0)
        assert kernels.dense._closest_rows(costs).tolist() == [1]


def conditionals(keys, min_size=1):
    """Sparse conditionals over ``keys`` (non-empty by default)."""
    return st.dictionaries(keys, st.floats(0.01, 1.0), min_size=min_size,
                           max_size=4)


def mixed_key(column):
    """Odd columns as ints, even ones as strings."""
    return column if column % 2 else f"k{column}"


@st.composite
def postings_cases(draw):
    """A small DCF set plus blocks of queries, each block absorbed or not.

    Column keys are ints, strings or a mix, and some representatives may be
    copies of others.  Queries may name up to three columns no DCF in the
    set carries (so absorbs open new postings), carry zero-mass entries,
    or be empty.  Priors and masses repeat often enough that queries
    share a prior and heavy masses (a part), within and across blocks.
    """
    n_columns = draw(st.integers(1, 5))
    spell = draw(st.sampled_from([int, str, mixed_key]))
    dcfs = [DCF(draw(st.floats(0.01, 1.0)),
                draw(conditionals(st.integers(0, n_columns - 1).map(spell))))
            for _ in range(draw(st.integers(1, 6)))]
    dcfs += [dcfs[i].copy() for i in draw(
        st.lists(st.integers(0, len(dcfs) - 1), max_size=2))]
    query = st.dictionaries(st.integers(0, n_columns + 2).map(spell),
                            st.sampled_from([0.0, 0.5])
                            | st.floats(0.01, 1.0), max_size=4)
    blocks = draw(st.lists(
        st.tuples(st.lists(st.tuples(st.sampled_from([0.125, 0.25])
                                     | st.floats(0.001, 0.5), query),
                           min_size=1, max_size=4),
                  st.booleans()),
        min_size=1, max_size=4))
    return dcfs, blocks


class TestPostingsDCFSet:
    @staticmethod
    def absorb_all(postings, dcfs, queries, chosen):
        for query, row in zip(queries, chosen):
            postings.absorb(row, query.mass, query.weight)
            dcfs[row].absorb(query)

    @staticmethod
    def assert_scalar_minimum(dcfs, query, chosen):
        best = min(merge_cost(dcf, query) for dcf in dcfs)
        assert merge_cost(dcfs[chosen], query) == pytest.approx(best, abs=TOL)

    @given(postings_cases())
    def test_closest_is_a_scalar_minimum_across_absorbs(self, case):
        dcfs, blocks = case
        postings = kernels.PostingsDCFSet(dcfs)
        for block, absorb in blocks:
            queries = [DCF(weight, row) for weight, row in block]
            chosen = [postings.closest(q.mass, q.weight) for q in queries]
            for query, row in zip(queries, chosen):
                self.assert_scalar_minimum(dcfs, query, row)
            if absorb:
                self.absorb_all(postings, dcfs, queries, chosen)
        assert list(postings.weights) == [dcf.weight for dcf in dcfs]

    @given(postings_cases())
    def test_closest_many_matches_closest_across_absorbs(self, case):
        dcfs, blocks = case
        postings = kernels.PostingsDCFSet(dcfs)
        for block, absorb in blocks:
            priors = [weight for weight, _ in block]
            chosen = postings.closest_many([row for _, row in block], priors)
            queries = [DCF(weight, row) for weight, row in block]
            assert chosen == [postings.closest(q.mass, q.weight)
                              for q in queries]
            for query, row in zip(queries, chosen):
                self.assert_scalar_minimum(dcfs, query, row)
            if absorb:
                self.absorb_all(postings, dcfs, queries, chosen)

    @given(postings_cases(), st.integers(1, 3))
    def test_heavy_parts_match_every_oracle_across_absorbs(self, case, cut):
        # Postings longer than ``cut`` rows are heavy, so heavy and light
        # columns mix in most blocks, and absorbs lengthen postings past it.
        dcfs, blocks = case
        with mock.patch.object(kernels.dense, "HEAVY_POSTING_ROWS", cut):
            postings = kernels.PostingsDCFSet(dcfs)
            reference = ReferencePostingsDCFSet(dcfs)
            for block, absorb in blocks:
                rows = [row for _, row in block]
                priors = [weight for weight, _ in block]
                queries = [DCF(weight, row) for weight, row in block]
                chosen = postings.closest_many(rows, priors)
                assert chosen == reference.closest_many(rows, priors)
                assert chosen == [postings.closest(q.mass, q.weight)
                                  for q in queries]
                assert chosen == [closest(dcfs, q)[0] for q in queries]
                if absorb:
                    for query, row in zip(queries, chosen):
                        reference.absorb(row, query.mass, query.weight)
                    self.absorb_all(postings, dcfs, queries, chosen)
                assert postings.heavy == {
                    key for key, (held, _) in postings.postings.items()
                    if len(held) > cut}

    def test_absorb_marks_the_postings_it_lengthens_past_the_cut(self):
        dcfs = [DCF(0.25, {0: 1.0}), DCF(0.25, {0: 0.5, 1: 0.5}),
                DCF(0.5, {1: 1.0})]
        rows, priors = [{0: 0.5, 1: 0.5}, {0: 1.0}, {1: 1.0}], [0.1] * 3
        with mock.patch.object(kernels.dense, "HEAVY_POSTING_ROWS", 2):
            postings = kernels.PostingsDCFSet(dcfs)
            reference = ReferencePostingsDCFSet(dcfs)
            assert postings.heavy == set()
            postings.closest_many(rows, priors)
            for absorbing in (postings, reference):
                absorbing.absorb(2, {0: 0.05}, 0.1)
            assert postings.heavy == {0}
            assert postings.closest_many(rows, priors) == \
                reference.closest_many(rows, priors)

    def test_absorb_drops_the_kept_part_rows(self):
        dcfs = [DCF(0.25, {2: 1.0}), DCF(0.5, {2: 1.0}), DCF(0.25, {2: 0.5})]
        rows, priors = [{1: 0.5}, {2: 1.0}], [0.1, 0.1]
        with mock.patch.object(kernels.dense, "HEAVY_POSTING_ROWS", 1):
            postings = kernels.PostingsDCFSet(dcfs)
        assert postings.heavy == {2}
        assert postings.closest_many(rows, priors) == [0, 0]
        # Row 0 grows from 0.25 to 0.35, which changes both parts' rows: the
        # rows costed before the absorb would still answer [0, 0].
        query = DCF(0.1, {0: 1.0})
        self.absorb_all(postings, dcfs, [query], [0])
        assert postings.closest_many(rows, priors) == [2, 1] == \
            [closest(dcfs, DCF(w, row))[0] for w, row in zip(priors, rows)]

    def test_queries_of_a_part_share_its_row_within_and_across_blocks(self):
        dcfs = [DCF(0.25, {0: 1.0}), DCF(0.25, {2: 0.5}), DCF(0.25, {2: 1.0})]
        with mock.patch.object(kernels.dense, "HEAVY_POSTING_ROWS", 1):
            postings = kernels.PostingsDCFSet(dcfs)
        reference = ReferencePostingsDCFSet(dcfs)
        assert postings.heavy == {2}
        # Two parts share prior 0.1: column 2 at mass 0.1, and no heavy
        # column.  The first block costs each once for two objects; the
        # second reuses the row of the part without a heavy column, which
        # must not be confused with the other part of its prior.
        blocks = [[{2: 1.0}, {0: 1.0}, {2: 1.0}, {0: 1.0}],
                  [{1: 1.0}, {1: 1.0}]]
        for rows in blocks:
            priors = [0.1] * len(rows)
            chosen = postings.closest_many(rows, priors)
            assert chosen == reference.closest_many(rows, priors)
            assert chosen == [closest(dcfs, DCF(w, row))[0]
                              for w, row in zip(priors, rows)]

    def test_part_order_groups_objects_by_part(self):
        dcfs = [DCF(0.5, {0: 1.0}), DCF(0.5, {0: 0.5, 1: 0.5})]
        rows = [{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.5}, {0: 1.0}, {1: 0.5}]
        priors = [0.2] * 5
        assert kernels.PostingsDCFSet(dcfs).part_order(rows, priors) is None
        with mock.patch.object(kernels.dense, "HEAVY_POSTING_ROWS", 1):
            postings = kernels.PostingsDCFSet(dcfs)
        assert postings.heavy == {0}
        # Parts: column 0 at mass 0.2 (objects 0 and 3), no heavy column
        # (1 and 4), column 0 at mass 0.1 (2).
        assert postings.part_order(rows, priors) == [0, 3, 1, 4, 2]

    def test_postings_hold_the_dcf_masses(self):
        dcfs = [DCF(0.5, {0: 0.5, 2: 0.5}), DCF(0.5, {2: 1.0})]
        postings = kernels.PostingsDCFSet(dcfs)
        rows, masses = postings.postings[2]
        assert rows.tolist() == [0, 1]
        assert masses.tolist() == [0.25, 0.5]
        assert len(postings) == 2

    def test_absorb_opens_and_grows_postings(self):
        dcfs = [DCF(0.5, {0: 1.0}), DCF(0.25, {1: 1.0}), DCF(0.25, {0: 1.0})]
        postings = kernels.PostingsDCFSet(dcfs)
        postings.absorb(1, {0: 0.1, 7: 0.1}, 0.2)
        assert postings.postings[0][0].tolist() == [0, 1, 2]
        assert postings.postings[0][1].tolist() == [0.5, 0.1, 0.25]
        assert postings.postings[7][0].tolist() == [1]
        assert postings.weights[1] == pytest.approx(0.45)
        assert postings.wlogw[1] == pytest.approx(0.45 * math.log(0.45))

    def test_query_without_known_columns_picks_the_lightest_row(self):
        dcfs = [DCF(0.5, {0: 1.0}), DCF(0.2, {1: 1.0}), DCF(0.3, {2: 1.0})]
        postings = kernels.PostingsDCFSet(dcfs)
        assert postings.closest({}, 0.1) == 1
        assert postings.closest({9: 0.1}, 0.1) == 1

    def test_tie_breaks_to_lowest_row(self):
        rep = DCF(0.5, {0: 0.5, 1: 0.5})
        postings = kernels.PostingsDCFSet([rep, rep.copy(), rep.copy()])
        assert postings.closest({0: 0.05, 1: 0.05}, 0.1) == 0

    def test_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="zero DCFs"):
            kernels.PostingsDCFSet([])


class TestPackAccounting:
    def test_pack_time_accumulates_and_resets(self):
        kernels.reset_pack_seconds()
        assert kernels.pack_seconds() == 0.0
        dcfs = random_dcfs(50, 40, seed=41)
        kernels.PostingsDCFSet(dcfs)
        after_pack = kernels.pack_seconds()
        assert after_pack > 0.0
        kernels.DenseMergeEngine(dcfs)
        assert kernels.pack_seconds() > after_pack
        kernels.reset_pack_seconds()
        assert kernels.pack_seconds() == 0.0
