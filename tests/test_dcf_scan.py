"""The fused DCF-tree scan against the unfused reference tree.

:func:`repro.clustering.dcf.scan` inlines the cost arithmetic, hands the
chosen entry's overlap to its absorb, and :meth:`DCFTree._split` costs each
pair once.  None of that may move a bit: the production tree must build
exactly the leaves :class:`repro.testing.oracles.ReferenceDCFTree` builds,
float for float and in the same order.
"""

import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.clustering import DCF, DCFTree, merge_cost
from repro.clustering.dcf import closest, scan
from repro.clustering.dcf_tree import _Node
from repro.infotheory import mutual_information_rows
from repro.testing.oracles import (
    ReferenceDCFTree,
    reference_closest,
    reference_merge_cost,
)

pytestmark = pytest.mark.statistical


@st.composite
def sparse_row(draw, max_support=4, universe=12):
    keys = draw(st.lists(st.integers(0, universe - 1), min_size=1,
                         max_size=max_support, unique=True))
    masses = draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys),
                           max_size=len(keys)))
    total = sum(masses)
    return {key: mass / total for key, mass in zip(keys, masses)}


@st.composite
def streams(draw):
    """Rows, priors and tree settings, as LIMBO's Phase 1 feeds them.

    Rows repeat (identical objects, the phi=0 case), and wide value-style
    rows reach past the leaf entries' support, so a scan also walks the
    entry instead of the query.
    """
    pool = draw(st.lists(
        st.one_of(sparse_row(), sparse_row(max_support=14, universe=16)),
        min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    if draw(st.booleans()):
        priors = [1.0 / len(rows)] * len(rows)
    else:
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(rows),
                                max_size=len(rows)))
        priors = [w / sum(weights) for w in weights]
    phi = draw(st.one_of(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                         st.floats(0.0, 1.5)))
    branching = draw(st.integers(2, 6))
    max_leaf_entries = draw(st.one_of(st.none(), st.integers(1, 6)))
    return rows, priors, phi, branching, max_leaf_entries


def dcf_bits(dcf):
    return (dcf.weight.hex(), dcf.mass_log_sum.hex(),
            [(key, mass.hex()) for key, mass in dcf.mass.items()],
            dcf.members)


def tree_bits(tree):
    """The leaves in order, every routing summary, and the counters."""
    routing, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            routing.append([dcf_bits(entry) for entry in node.entries])
            stack.extend(node.children)
    return ([dcf_bits(leaf) for leaf in tree.leaves()], routing,
            tree.n_absorbed, tree.n_leaf_entries, tree.rebuilds, tree.height)


def build(cls, rows, priors, phi, branching, max_leaf_entries):
    information = mutual_information_rows(rows, priors)
    tree = cls(phi * information / len(rows), branching=branching,
               max_leaf_entries=max_leaf_entries,
               threshold_floor=information / len(rows) / 64.0)
    for index, (row, prior) in enumerate(zip(rows, priors)):
        tree.insert(DCF.singleton(index, prior, row))
    return tree


class TestFusedTree:
    @given(streams())
    @example(([{0: 1.0}] * 9, [1 / 9] * 9, 0.0, 2, None))
    @example(([{0: 0.5, 1: 0.5}, {0: 1.0}, {2: 1.0}] * 4, [1 / 12] * 12,
              0.0, 2, 2))
    def test_leaves_match_reference_bit_for_bit(self, case):
        assert (tree_bits(build(DCFTree, *case))
                == tree_bits(build(ReferenceDCFTree, *case)))


class TestSplitCosts:
    @pytest.mark.parametrize("sizes", [
        pytest.param((1, 1, 1, 1, 1), id="equal-supports"),
        pytest.param((1, 2, 1, 3, 2), id="mixed-supports"),
        pytest.param((2, 2, 2, 2, 2, 2, 2), id="seven-entries"),
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_split_reuses_only_the_resolved_order(self, monkeypatch, sizes,
                                                  seed):
        # A stand-in cost that depends on the resolved (outer, walked)
        # order, as merge_cost's floats may: reusing the mirrored pair on
        # a support tie would group differently from the reference split.
        def cost(dcf_a, dcf_b):
            if len(dcf_b.mass) > len(dcf_a.mass):
                dcf_a, dcf_b = dcf_b, dcf_a
            key = (seed, dcf_a.members[0], dcf_b.members[0])
            return random.Random(repr(key)).choice([0.25, 0.5, 0.75])

        monkeypatch.setattr(sys.modules["repro.clustering.dcf_tree"],
                            "merge_cost", cost)
        monkeypatch.setattr(sys.modules["repro.testing.oracles"],
                            "reference_merge_cost", cost)
        entries = [DCF.singleton(i, 0.1, {k: 1.0 / size for k in range(size)})
                   for i, size in enumerate(sizes)]

        def groups(tree_class):
            halves = tree_class(0.0)._split(_Node(entries=list(entries)))
            return [[e.members for e in half.entries] for half in halves]

        assert groups(DCFTree) == groups(ReferenceDCFTree)


class TestFusedCost:
    @given(sparse_row(max_support=14), sparse_row(max_support=14),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_merge_cost_matches_reference(self, row_a, row_b, w_a, w_b):
        a, b = DCF(w_a, row_a), DCF(w_b, row_b)
        assert merge_cost(a, b).hex() == reference_merge_cost(a, b).hex()
        assert merge_cost(b, a).hex() == reference_merge_cost(b, a).hex()

    @given(st.lists(sparse_row(max_support=14), min_size=1, max_size=6),
           sparse_row(max_support=14), st.floats(0.01, 1.0))
    def test_closest_matches_reference(self, rows, query_row, weight):
        entries = [DCF(1.0 / len(rows), row) for row in rows]
        query = DCF(weight, query_row)
        index, cost = closest(entries, query)
        expected_index, expected_cost = reference_closest(entries, query)
        assert (index, cost.hex()) == (expected_index, expected_cost.hex())


class TestAbsorbDelta:
    @pytest.mark.parametrize("entry_row, query_row", [
        pytest.param({0: 0.25, 1: 0.25, 2: 0.5}, {1: 0.5, 3: 0.5},
                     id="partial-overlap"),
        pytest.param({0: 0.5, 1: 0.5}, {0: 0.1, 1: 0.9}, id="equal-supports"),
        pytest.param({0: 0.5, 1: 0.5}, {2: 1.0}, id="disjoint"),
    ])
    def test_scan_overlap_is_the_absorb_delta(self, entry_row, query_row):
        entry, query = DCF(0.3, entry_row), DCF(0.1, query_row)
        _, _, overlap = scan([entry], query)
        fused, plain = entry.copy(), entry.copy()
        fused.absorb(query, overlap)
        plain.absorb(query)
        assert fused.mass_log_sum.hex() == plain.mass_log_sum.hex()
        assert ([(k, m.hex()) for k, m in fused.mass.items()]
                == [(k, m.hex()) for k, m in plain.mass.items()])
        assert (fused.weight, fused.members) == (plain.weight, plain.members)

    def test_no_overlap_when_the_scan_walks_the_entry(self):
        entry, query = DCF(0.3, {0: 1.0}), DCF(0.1, {0: 0.5, 1: 0.5})
        assert scan([entry], query)[2] is None
