"""Property-based tests (hypothesis) for the reliable FD miner.

Marked ``statistical``: the tier-1 run executes them under the cheap
``fast`` hypothesis profile, and the dedicated CI job reruns them with
``HYPOTHESIS_PROFILE=statistical`` (high example counts, derandomized).

The properties are the miner's actual correctness argument:

* the bias-corrected score is a total function into ``[0, 1]``;
* EMI never falls when the LHS is refined, the lemma that lets the
  search's bound subtract the node's own EMI;
* the specialization bound dominates the score of *every* extension it
  claims to cover (admissibility of the bound itself);
* every subtree the search cut really contained no candidate that could
  have displaced the final selection (admissibility of the pruning);
* top-k selection equals the zero-pruning brute-force oracle;
* sampled-mode scores agree with the exact ones within the reported
  confidence radius;
* equal seeds give equal results;
* the exact EMI is a pure function of the two class-size multisets, bit
  for bit, which is what lets the miner memoize it;
* an attribute set's entropy does not depend on the fold order that
  reached it, so the per-set entropy memo changes no bit of any result.
"""

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.reliable import (
    _Scorer,
    _fold,
    _size_runs,
    expected_mutual_information,
    mine_topk,
    reliable_score,
    specialization_upper_bound,
)
from repro.fd import ReliableMiningStats
from repro.relation import Relation
from repro.testing.oracles import brute_force_topk

pytestmark = pytest.mark.statistical

ATTRS = ("A", "B", "C", "D", "E", "F", "G", "H")


@st.composite
def small_relation(draw, min_arity=2, max_arity=5, max_rows=16, max_card=3):
    """A random categorical relation of at most 8 attributes."""
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    names = ATTRS[:arity]
    n = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        tuple(
            f"{a}{draw(st.integers(min_value=0, max_value=max_card - 1))}"
            for a in names
        )
        for _ in range(n)
    ]
    return Relation(names, rows)


@st.composite
def class_sizes(draw, n):
    """The class sizes of a random partition of ``n`` rows."""
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                        max_size=min(n - 1, 8))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def rearranged(draw, sizes):
    """The same multiset, permuted and padded with empty classes."""
    zeros = draw(st.integers(min_value=0, max_value=3))
    return draw(st.permutations(sizes + [0] * zeros))


def _subsets(items):
    return chain.from_iterable(
        combinations(items, size) for size in range(1, len(items) + 1)
    )


class TestScoreRange:
    @given(small_relation())
    def test_score_is_in_unit_interval(self, relation):
        names = relation.schema.names
        for rhs in names:
            others = [a for a in names if a != rhs]
            for size in (1, min(2, len(others))):
                for lhs in combinations(others, size):
                    score = reliable_score(relation, lhs, rhs)
                    assert 0.0 <= score <= 1.0


class TestEmiMonotonicity:
    @given(small_relation(min_arity=2))
    def test_refinement_never_lowers_emi(self, relation):
        arity = len(relation.schema.names)
        scorer = _Scorer(relation)
        for y in range(arity):
            emis = {}
            for positions in _subsets([p for p in range(arity) if p != y]):
                key, _, counts = _fold(scorer, positions)
                emis[key] = scorer.emi(key, counts, y)
            for key, emi in emis.items():
                for finer, finer_emi in emis.items():
                    if key & finer == key:
                        assert finer_emi >= emi * (1 - 1e-9), (key, finer, y)


class TestSpecializationBound:
    @given(small_relation(min_arity=3))
    def test_bound_dominates_every_extension(self, relation):
        names = list(relation.schema.names)
        rhs = names[-1]
        lhs = (names[0],)
        tail = tuple(names[1:-1])
        bound = specialization_upper_bound(relation, lhs, tail, rhs)
        assert bound >= reliable_score(relation, lhs, rhs) - 1e-12
        for extension in _subsets(tail):
            score = reliable_score(relation, lhs + extension, rhs)
            assert bound >= score - 1e-12, (lhs, extension, rhs)


class TestPruningAdmissibility:
    @given(small_relation(min_arity=3), st.integers(min_value=1, max_value=6))
    def test_no_pruned_candidate_could_enter_topk(self, relation, k):
        stats = ReliableMiningStats()
        mined = mine_topk(relation, k=k, stats=stats)
        if len(mined) < k:
            # The threshold never became finite; nothing may be pruned.
            assert stats.subtrees_pruned == 0
            return
        kth_score = mined[-1].score
        for rhs, chosen, tail in stats.pruned[:50]:
            for extension in _subsets(tail):
                score = reliable_score(relation, chosen + extension, rhs)
                assert score < kth_score + 1e-12, (
                    rhs, chosen, extension, score, kth_score
                )


class TestTopKParity:
    @given(small_relation(), st.integers(min_value=1, max_value=8))
    def test_equals_brute_force_oracle(self, relation, k):
        mined = mine_topk(relation, k=k)
        oracle = brute_force_topk(relation, k)
        assert [(m.fd, m.score) for m in mined] == [
            (o.fd, o.score) for o in oracle
        ]


class TestSampledAgreement:
    @given(
        small_relation(max_rows=30),
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=30)
    def test_sampled_score_within_confidence_radius(
        self, relation, sample_rows, seed
    ):
        mined = mine_topk(
            relation, k=5, sample_rows=sample_rows, seed=seed, alpha=0.05
        )
        for entry in mined:
            if not entry.sampled:
                continue
            exact = reliable_score(
                relation, tuple(entry.fd.lhs), next(iter(entry.fd.rhs))
            )
            assert abs(exact - entry.score) <= entry.confidence_radius + 1e-12


class TestEMIMemoKey:
    @given(st.data())
    def test_emi_invariant_under_permutation_and_zero_padding(self, data):
        a = data.draw(class_sizes(data.draw(st.integers(1, 40))))
        b = data.draw(class_sizes(sum(a)))
        expected = expected_mutual_information(a, b)
        for a_form, b_form in [(data.draw(rearranged(a)), b),
                               (a, data.draw(rearranged(b))),
                               (data.draw(rearranged(a)),
                                data.draw(rearranged(b)))]:
            assert expected_mutual_information(a_form, b_form) == expected

    @given(st.data())
    def test_key_equal_exactly_for_equal_multisets(self, data):
        a = data.draw(class_sizes(data.draw(st.integers(1, 40))))
        b = data.draw(class_sizes(data.draw(st.integers(1, 40))))
        assert _size_runs(data.draw(rearranged(a))) == _size_runs(a)
        assert (_size_runs(a) == _size_runs(b)) == (sorted(a) == sorted(b))


class TestSetEntropyMemo:
    @given(small_relation())
    def test_memoized_entropies_equal_cold_ones(self, relation):
        arity = len(relation.schema.names)
        warm = _Scorer(relation)

        def cold(order):
            """A fresh scorer and the set folded along ``order`` in it."""
            scorer = _Scorer(relation)
            return scorer, _fold(scorer, order)

        for positions in _subsets(range(arity)):
            for order in (positions, positions[::-1]):
                key, inv, counts = _fold(warm, order)
                scorer, (cold_key, _, cold_counts) = cold(order)
                assert key == cold_key
                assert (warm._entropy(key, counts)
                        == scorer._entropy(cold_key, cold_counts))
                for y in range(arity):
                    scorer, folded = cold(order)
                    assert (warm.information(key, inv, counts, y)
                            == scorer.information(*folded, y))

    @given(small_relation(min_arity=3), st.integers(min_value=1, max_value=6))
    def test_search_unchanged_without_the_memo(self, relation, k):
        def counters(stats):
            return (stats.nodes_visited, stats.candidates_scored,
                    stats.partitions_computed, stats.subtrees_pruned)

        stats = ReliableMiningStats()
        mined = mine_topk(relation, k=k, stats=stats)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_remember_entropy", "_remember_runs"):
                patch.setattr(_Scorer, name, lambda *args: None)
            bare_stats = ReliableMiningStats()
            bare = mine_topk(relation, k=k, stats=bare_stats)
        assert mined == bare
        assert counters(stats) == counters(bare_stats)


class TestDeterminism:
    @given(small_relation(max_rows=24), st.integers(min_value=0, max_value=9))
    @settings(max_examples=25)
    def test_same_seed_same_result(self, relation, seed):
        kwargs = dict(k=4, sample_rows=8, seed=seed)
        assert mine_topk(relation, **kwargs) == mine_topk(relation, **kwargs)
