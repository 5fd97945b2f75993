"""Unit tests for DCFs and the merge equations (paper Eqs. 1-3)."""

import pytest

from repro.clustering import DCF, merge, merge_all, merge_cost
from repro.clustering.dcf import closest
from repro.infotheory import information_loss


class TestDCF:
    def test_singleton(self):
        dcf = DCF.singleton(7, 0.1, {0: 1.0})
        assert dcf.members == [7]
        assert dcf.weight == 0.1
        assert dcf.size == 1

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            DCF(0.0, {0: 1.0})

    def test_entropy_cached_and_correct(self):
        dcf = DCF(0.5, {0: 0.5, 1: 0.5})
        assert dcf.entropy_bits() == pytest.approx(1.0)
        assert dcf.entropy_bits() == pytest.approx(1.0)  # cached path

    def test_repr(self):
        assert "weight" in repr(DCF(0.5, {0: 1.0}))


class TestMerge:
    def test_equation_1_weight_adds(self):
        a = DCF(0.25, {0: 1.0})
        b = DCF(0.75, {1: 1.0})
        assert merge(a, b).weight == pytest.approx(1.0)

    def test_equation_2_weighted_mixture(self):
        a = DCF(0.25, {0: 1.0})
        b = DCF(0.75, {1: 1.0})
        merged = merge(a, b)
        assert merged.conditional[0] == pytest.approx(0.25)
        assert merged.conditional[1] == pytest.approx(0.75)

    def test_members_concatenate(self):
        a = DCF.singleton(0, 0.5, {0: 1.0})
        b = DCF.singleton(1, 0.5, {1: 1.0})
        assert sorted(merge(a, b).members) == [0, 1]

    def test_adcf_support_adds(self):
        a = DCF(0.5, {0: 1.0}, support={"A": 2})
        b = DCF(0.5, {1: 1.0}, support={"A": 1, "B": 3})
        merged = merge(a, b)
        assert merged.support == {"A": 3, "B": 3}

    def test_support_none_when_both_plain(self):
        merged = merge(DCF(0.5, {0: 1.0}), DCF(0.5, {1: 1.0}))
        assert merged.support is None

    def test_merge_is_commutative(self):
        a = DCF(0.3, {0: 0.5, 1: 0.5})
        b = DCF(0.7, {1: 0.2, 2: 0.8})
        ab, ba = merge(a, b), merge(b, a)
        assert ab.weight == pytest.approx(ba.weight)
        for key in set(ab.conditional) | set(ba.conditional):
            assert ab.conditional.get(key, 0) == pytest.approx(ba.conditional.get(key, 0))

    def test_merge_conditional_stays_normalized(self):
        a = DCF(0.3, {0: 0.5, 1: 0.5})
        b = DCF(0.7, {1: 0.2, 2: 0.8})
        assert sum(merge(a, b).conditional.values()) == pytest.approx(1.0)

    def test_merge_all(self):
        dcfs = [DCF.singleton(i, 0.25, {i: 1.0}) for i in range(4)]
        merged = merge_all(dcfs)
        assert merged.weight == pytest.approx(1.0)
        assert merged.size == 4

    def test_merge_all_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_all([])


class TestMergeCost:
    def test_equation_3_against_reference(self):
        a = DCF(0.2, {0: 0.7, 1: 0.3})
        b = DCF(0.3, {0: 0.1, 2: 0.9})
        expected = information_loss(a.conditional, b.conditional, 0.2, 0.3)
        assert merge_cost(a, b) == pytest.approx(expected)

    def test_identical_conditionals_cost_nothing(self):
        a = DCF(0.2, {0: 0.5, 1: 0.5})
        b = DCF(0.4, {0: 0.5, 1: 0.5})
        assert merge_cost(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self):
        a = DCF(0.2, {0: 1.0})
        b = DCF(0.5, {1: 1.0})
        assert merge_cost(a, b) == pytest.approx(merge_cost(b, a))

    def test_bounded_by_total_weight(self):
        # delta_I = (w_a + w_b) * JS and JS <= 1 bit.
        a = DCF(0.2, {0: 1.0})
        b = DCF(0.5, {1: 1.0})
        assert merge_cost(a, b) <= 0.7 + 1e-12

    def test_information_loss_equals_information_drop(self):
        # I(before) - I(after) across a merge must equal merge_cost.
        from repro.infotheory import mutual_information_rows

        a = DCF(0.4, {0: 0.75, 1: 0.25})
        b = DCF(0.6, {1: 0.5, 2: 0.5})
        before = mutual_information_rows(
            [a.conditional, b.conditional], [a.weight, b.weight]
        )
        merged = merge(a, b)
        after = mutual_information_rows([merged.conditional], [merged.weight])
        assert merge_cost(a, b) == pytest.approx(before - after)


class TestClosest:
    def test_minimum_merge_cost_wins(self):
        entries = [DCF(0.3, {0: 1.0}), DCF(0.3, {1: 0.5, 2: 0.5}),
                   DCF(0.3, {2: 1.0})]
        query = DCF(0.1, {2: 0.9, 1: 0.1})
        costs = [merge_cost(entry, query) for entry in entries]
        assert closest(entries, query) == (2, costs[2])
        assert costs[2] == min(costs)

    def test_tie_resolves_to_lowest_index(self):
        entry = DCF(0.3, {0: 0.5, 1: 0.5})
        entries = [DCF(0.3, {2: 1.0}), entry, entry.copy()]
        best, _ = closest(entries, DCF(0.1, {0: 0.5, 1: 0.5}))
        assert best == 1
