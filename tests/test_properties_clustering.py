"""Property-based tests (hypothesis) for DCFs, AIB and the DCF-tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DCF, DCFTree, Limbo, aib, merge, merge_cost
from repro.infotheory import mutual_information_rows


@st.composite
def dcf(draw, index=0, universe=12):
    n = draw(st.integers(min_value=1, max_value=5))
    outcomes = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe - 1),
            min_size=n, max_size=n, unique=True,
        )
    )
    masses = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
    )
    total = sum(masses)
    weight = draw(st.floats(min_value=1e-3, max_value=1.0))
    return DCF.singleton(index, weight, {o: m / total for o, m in zip(outcomes, masses)})


@st.composite
def object_set(draw, max_objects=7, universe=10):
    """Random sparse rows with uniform priors (a valid clustering input)."""
    n = draw(st.integers(min_value=1, max_value=max_objects))
    rows = []
    for _ in range(n):
        size = draw(st.integers(min_value=1, max_value=4))
        outcomes = draw(
            st.lists(
                st.integers(min_value=0, max_value=universe - 1),
                min_size=size, max_size=size, unique=True,
            )
        )
        masses = draw(
            st.lists(st.floats(min_value=0.05, max_value=1.0),
                     min_size=size, max_size=size)
        )
        total = sum(masses)
        rows.append({o: m / total for o, m in zip(outcomes, masses)})
    return rows, [1.0 / n] * n


class TestDCFProperties:
    @given(dcf(), dcf())
    def test_merge_weight_additive(self, a, b):
        assert merge(a, b).weight == pytest.approx(a.weight + b.weight)

    @given(dcf(), dcf())
    def test_merge_conditional_normalized(self, a, b):
        assert sum(merge(a, b).conditional.values()) == pytest.approx(1.0)

    @given(dcf(), dcf())
    def test_merge_commutative(self, a, b):
        left, right = merge(a, b), merge(b, a)
        for key in set(left.conditional) | set(right.conditional):
            assert left.conditional.get(key, 0.0) == pytest.approx(
                right.conditional.get(key, 0.0)
            )

    @given(dcf(), dcf(), dcf())
    @settings(max_examples=50)
    def test_merge_associative(self, a, b, c):
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left.weight == pytest.approx(right.weight)
        for key in set(left.conditional) | set(right.conditional):
            assert left.conditional.get(key, 0.0) == pytest.approx(
                right.conditional.get(key, 0.0), abs=1e-9
            )

    @given(dcf(), dcf())
    def test_absorb_matches_merge(self, a, b):
        merged = merge(a, b)
        target = a.copy()
        target.absorb(b)
        assert target.weight == pytest.approx(merged.weight)
        assert target.entropy_bits() == pytest.approx(merged.entropy_bits())

    @given(dcf())
    def test_copy_is_independent(self, a):
        duplicate = a.copy()
        duplicate.absorb(a)
        assert duplicate.weight == pytest.approx(2 * a.weight)
        assert a.weight != pytest.approx(duplicate.weight)

    @given(dcf(), dcf())
    def test_cost_symmetric_nonnegative_bounded(self, a, b):
        cost = merge_cost(a, b)
        assert cost >= 0.0
        assert cost == pytest.approx(merge_cost(b, a), abs=1e-9)
        assert cost <= (a.weight + b.weight) + 1e-9  # (w1+w2) * JS <= w1+w2

    @given(dcf(), dcf())
    def test_cost_equals_information_drop(self, a, b):
        total = a.weight + b.weight
        before = mutual_information_rows(
            [a.conditional, b.conditional],
            [a.weight / total, b.weight / total],
        )
        # Information computed with normalized priors; the loss scales by
        # the total weight (Eq. 3 is homogeneous in the priors).
        assert merge_cost(a, b) == pytest.approx(total * before, abs=1e-8)

    @given(dcf())
    def test_entropy_cache_consistent_after_absorb(self, a):
        other = DCF.singleton(1, 0.5, {99: 1.0})
        a = a.copy()
        a.absorb(other)
        fresh = DCF(a.weight, a.conditional)
        assert a.entropy_bits() == pytest.approx(fresh.entropy_bits(), abs=1e-9)


class TestAIBProperties:
    @given(object_set())
    @settings(max_examples=40, deadline=None)
    def test_total_loss_equals_information(self, data):
        rows, priors = data
        info = mutual_information_rows(rows, priors)
        result = aib([DCF.singleton(i, p, r) for i, (r, p) in enumerate(zip(rows, priors))])
        assert sum(result.dendrogram.losses) == pytest.approx(info, abs=1e-8)

    @given(object_set())
    @settings(max_examples=40, deadline=None)
    def test_every_cut_partitions_objects(self, data):
        rows, priors = data
        result = aib([DCF.singleton(i, p, r) for i, (r, p) in enumerate(zip(rows, priors))])
        n = len(rows)
        for k in range(1, n + 1):
            members = sorted(m for cluster in result.dendrogram.cut(k) for m in cluster)
            assert members == list(range(n))

    @given(object_set())
    @settings(max_examples=40, deadline=None)
    def test_cluster_weights_sum_to_one(self, data):
        rows, priors = data
        result = aib([DCF.singleton(i, p, r) for i, (r, p) in enumerate(zip(rows, priors))])
        for k in (1, max(1, len(rows) // 2), len(rows)):
            clusters = result.clusters(k)
            assert sum(c.weight for c in clusters) == pytest.approx(1.0)


class TestDCFTreeProperties:
    @given(object_set(max_objects=12), st.integers(min_value=2, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_members_and_weight_conserved(self, data, branching):
        rows, priors = data
        tree = DCFTree(0.01, branching=branching)
        for i, (row, prior) in enumerate(zip(rows, priors)):
            tree.insert(DCF.singleton(i, prior, row))
        leaves = tree.leaves()
        members = sorted(m for leaf in leaves for m in leaf.members)
        assert members == list(range(len(rows)))
        assert sum(leaf.weight for leaf in leaves) == pytest.approx(1.0)

    @given(object_set(max_objects=12))
    @settings(max_examples=40, deadline=None)
    def test_phi_zero_leaves_are_pure(self, data):
        """At phi = 0 a leaf only ever absorbs identical objects.

        (Twins are not guaranteed to land in the *same* leaf -- interleaved
        inserts shift the routing summaries, which is exactly why the
        paper's duplicate procedure has a Phase 3 -- but no leaf may mix
        distinct objects.)
        """
        rows, priors = data

        def signature(row):
            return frozenset((k, round(v, 9)) for k, v in row.items())

        tree = DCFTree(0.0)
        for i, (row, prior) in enumerate(zip(rows, priors)):
            tree.insert(DCF.singleton(i, prior, row))
        distinct = {signature(row) for row in rows}
        leaves = tree.leaves()
        assert len(leaves) >= len(distinct)
        for leaf in leaves:
            signatures = {signature(rows[i]) for i in leaf.members}
            assert len(signatures) == 1

    @given(object_set(max_objects=12))
    @settings(max_examples=40, deadline=None)
    def test_phase3_regroups_duplicates(self, data):
        """Assignment against the leaves puts identical objects together."""
        from repro.clustering import Limbo

        rows, priors = data
        limbo = Limbo(phi=0.0).fit(rows, priors)
        assignment = limbo.assign(limbo.summaries)
        for i, row_i in enumerate(rows):
            for j in range(i + 1, len(rows)):
                if row_i == rows[j]:
                    assert assignment[i] == assignment[j]

    @given(object_set(max_objects=12), st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_summary_information_bounded_by_total(self, data, threshold):
        rows, priors = data
        info = mutual_information_rows(rows, priors)
        tree = DCFTree(threshold)
        for i, (row, prior) in enumerate(zip(rows, priors)):
            tree.insert(DCF.singleton(i, prior, row))
        leaves = tree.leaves()
        summarized = mutual_information_rows(
            [leaf.conditional for leaf in leaves],
            [leaf.weight for leaf in leaves],
        )
        assert summarized <= info + 1e-8


class TestLimboProperties:
    """Phase 1 of the LIMBO driver on random inputs."""

    @given(object_set(max_objects=12))
    @settings(max_examples=30, deadline=None)
    def test_phi_zero_loses_no_information(self, data):
        # Merging identical conditionals is lossless, so the phi=0
        # summaries carry all of I(V;T).
        rows, priors = data
        leaves = Limbo(phi=0.0).fit(rows, priors).summaries
        summarized = mutual_information_rows(
            [leaf.conditional for leaf in leaves],
            [leaf.weight for leaf in leaves],
        )
        assert summarized == pytest.approx(
            mutual_information_rows(rows, priors), abs=1e-8)

    @given(object_set(max_objects=12), st.sampled_from([0.0, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_summaries_independent_of_backend(self, data, phi):
        rows, priors = data
        sparse = Limbo(phi=phi, backend="sparse").fit(rows, priors)
        dense = Limbo(phi=phi, backend="dense").fit(rows, priors)
        assert [tuple(leaf.members) for leaf in sparse.summaries] == [
            tuple(leaf.members) for leaf in dense.summaries
        ]
        for a, b in zip(sparse.summaries, dense.summaries):
            assert a.weight == b.weight
            assert a.mass == b.mass


class TestPhaseOneTwins:
    """At phi = 0, objects with identical ``p(T|v)`` rows share one Phase-1
    summary (the paper's Section 5.2: LIMBO reduces to AIB over the
    distinct objects), checked on the discovery pipeline's value view.

    The DCF tree of Phase 1 breaks the property on these DBLP instances --
    on seed 0 the values ``26338-26354`` and ``PODS 2002`` occur in exactly
    tuples 60, 157 and 193 yet land in two summaries -- so it is pinned as
    a strict xfail until Phase 1 groups identical rows at ``phi = 0``.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="the Phase-1 DCF tree splits identical rows at phi=0")
    @pytest.mark.parametrize("seed", [0, 3])
    def test_identical_rows_share_a_summary(self, seed):
        from repro.core.value_clustering import cluster_values
        from repro.datasets import dblp

        relation = dblp(200, seed=seed)
        result = cluster_values(relation, phi_v=0.0)
        summary_of = {member: index
                      for index, leaf in enumerate(result.limbo.summaries)
                      for member in leaf.members}
        summaries_by_row = {}
        for value, row in enumerate(result.view.rows):
            summaries_by_row.setdefault(
                tuple(sorted(row.items())), set()).add(summary_of[value])
        split = [s for s in summaries_by_row.values() if len(s) > 1]
        assert split == []
