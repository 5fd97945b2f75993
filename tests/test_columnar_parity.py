"""Property tests: coded-column hot paths agree with the row-tuple oracles.

Every vectorized consumer of the columnar representation has a per-row
twin in :mod:`repro.testing.oracles`.  Hypothesis drives random relations
through both and demands exact agreement:

* TANE stripped partitions (:func:`repro.fd.partitions.partition_of` vs
  ``partition_of_rows``),
* the matrix builders ``M``/``N``/``O`` (:func:`build_tuple_view` /
  :func:`build_value_view` vs their ``*_rows`` twins) and the DCF
  support sets derived from them,
* FDEP agree sets (bitmask block scan vs the per-pair row loop), on both
  sides of the presence-table rule.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DCF
from repro.fd.fdep import (
    _agree_masks_block,
    _masks_to_sets,
    _signature_matrix,
    agree_sets,
)
from repro.fd.partitions import partition_of
from repro.relation import NULL, Relation
from repro.relation.columns import TABLE_KEYS_PER_ROW
from repro.relation.matrices import build_tuple_view, build_value_view
from repro.testing.oracles import (
    agree_sets_rows,
    build_tuple_view_rows,
    build_value_view_rows,
    partition_of_rows,
)

_value = st.one_of(
    st.sampled_from(["a", "b", "c", ""]),
    st.integers(min_value=0, max_value=3),
    st.just(NULL),
)


@st.composite
def relation(draw, max_rows=12, max_cols=4, min_rows=0):
    arity = draw(st.integers(min_value=1, max_value=max_cols))
    names = [f"A{i}" for i in range(arity)]
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    rows = [tuple(draw(_value) for _ in range(arity)) for _ in range(n)]
    return Relation(names, rows)


class TestPartitionParity:
    @given(relation(), st.data())
    @settings(max_examples=80)
    def test_partition_of_matches_row_oracle(self, rel, data):
        names = list(rel.schema.names)
        subset = data.draw(
            st.lists(st.sampled_from(names), min_size=0,
                     max_size=len(names), unique=True)
        )
        coded = partition_of(rel, subset)
        oracle = partition_of_rows(rel, subset)
        assert coded.classes == oracle.classes
        assert coded.n_rows == oracle.n_rows


class TestMatrixParity:
    @given(relation(min_rows=1), st.sampled_from(["global", "attribute"]))
    @settings(max_examples=60)
    def test_tuple_view_matches_row_oracle(self, rel, scope):
        coded = build_tuple_view(rel, value_scope=scope)
        oracle = build_tuple_view_rows(rel, value_scope=scope)
        assert coded.catalog.keys == oracle.catalog.keys
        assert coded.rows == oracle.rows
        assert coded.priors == oracle.priors

    @given(relation(min_rows=1), st.sampled_from(["global", "attribute"]))
    @settings(max_examples=60)
    def test_value_view_matches_row_oracle(self, rel, scope):
        coded = build_value_view(rel, value_scope=scope)
        oracle = build_value_view_rows(rel, value_scope=scope)
        assert coded.catalog.keys == oracle.catalog.keys
        assert coded.rows == oracle.rows
        assert coded.support == oracle.support
        assert coded.tuple_counts == oracle.tuple_counts
        assert coded.n_columns == oracle.n_columns

    @given(relation(min_rows=1), st.data())
    @settings(max_examples=40)
    def test_double_clustered_value_view_matches(self, rel, data):
        clusters = data.draw(
            st.lists(st.integers(min_value=0, max_value=2),
                     min_size=len(rel), max_size=len(rel))
        )
        coded = build_value_view(rel, tuple_clusters=clusters)
        oracle = build_value_view_rows(rel, tuple_clusters=clusters)
        assert coded.rows == oracle.rows
        assert coded.support == oracle.support

    @given(relation(min_rows=1))
    @settings(max_examples=40)
    def test_dcf_support_sets_match(self, rel):
        """DCF singletons built from either view carry identical mass
        supports and ADCF ``O``-rows -- the inputs the clustering stages
        consume downstream of the builders."""
        coded = build_value_view(rel)
        oracle = build_value_view_rows(rel)
        for v in range(coded.n_values):
            a = DCF.singleton(v, coded.priors[v], coded.rows[v],
                              support=coded.support[v])
            b = DCF.singleton(v, oracle.priors[v], oracle.rows[v],
                              support=oracle.support[v])
            assert a.mass == b.mass
            assert a.support == b.support
            assert set(a.mass) == {
                k for k, p in coded.rows[v].items() if p > 0.0
            }


class TestAgreeSetParity:
    @given(relation(min_rows=2, max_rows=10))
    @settings(max_examples=60)
    def test_bitmask_blocks_match_scalar_loop(self, rel):
        sig = _signature_matrix(rel)
        names = list(rel.schema.names)
        n = len(rel)
        vectorized = set()
        for start in range(0, n - 1, 3):
            vectorized |= _masks_to_sets(
                _agree_masks_block(sig, start, min(start + 3, n - 1)), names)
        assert vectorized == agree_sets_rows(rel)

    @given(relation(min_rows=0, max_rows=10))
    @settings(max_examples=40)
    def test_agree_sets_entry_point(self, rel):
        assert agree_sets(rel) == agree_sets_rows(rel)


class TestAgreeSetTable:
    """FDEP marks each tuple's masks in a presence table while the
    ``2**arity`` masks fit TABLE_KEYS_PER_ROW slots per row, and
    deduplicates them per tuple above; both give the oracle's sets."""

    @pytest.mark.parametrize("arity, n, keys_per_row, table", [
        pytest.param(13, 1024, TABLE_KEYS_PER_ROW, True, id="13-at-the-rule"),
        pytest.param(13, 1023, TABLE_KEYS_PER_ROW, False,
                     id="13-just-below-the-rule"),
        pytest.param(19, 60, TABLE_KEYS_PER_ROW, False, id="19-db2-width"),
        pytest.param(19, 60, 1 << 14, True, id="19-rule-raised"),
        pytest.param(62, 60, TABLE_KEYS_PER_ROW, False, id="62-one-full-word"),
        pytest.param(63, 60, TABLE_KEYS_PER_ROW, False, id="63-two-words"),
    ])
    def test_matches_row_oracle(self, monkeypatch, arity, n, keys_per_row,
                                table):
        rng = np.random.default_rng(arity * 10_000 + n)
        cards = rng.integers(2, 5, size=arity)
        rel = Relation([f"A{a}" for a in range(arity)],
                       [tuple(row) for row in
                        rng.integers(0, cards, size=(n, arity)).tolist()])
        rel.coded  # build the code columns before counting calls
        decodes = []
        flatnonzero = np.flatnonzero

        def counting(*args, **kwargs):
            decodes.append(1)
            return flatnonzero(*args, **kwargs)

        # repro.fd re-exports the function fdep under the module's name.
        monkeypatch.setattr(sys.modules["repro.fd.fdep"],
                            "TABLE_KEYS_PER_ROW", keys_per_row)
        monkeypatch.setattr(np, "flatnonzero", counting)
        got = agree_sets(rel)
        monkeypatch.undo()
        assert ((1 << arity) <= keys_per_row * n) == table
        assert len(decodes) == table
        assert got == agree_sets_rows(rel)


class TestWideRelationFallback:
    @pytest.mark.parametrize("arity", [
        pytest.param(63, id="63-one-bit-in-second-word"),
        pytest.param(124, id="124-two-full-words"),
        pytest.param(125, id="125-one-bit-in-third-word"),
        pytest.param(130, id="130-three-words"),
    ])
    def test_agree_sets_beyond_mask_width(self, arity):
        """Schemas wider than one int64 word: the same block scan, with each
        pair's words joined into one int, matches the per-pair oracle."""
        names = [f"A{i}" for i in range(arity)]
        rows = [
            tuple("x" if (r + c) % 3 else f"v{c}" for c in range(arity))
            for r in range(6)
        ]
        rel = Relation(names, rows)
        assert agree_sets(rel) == agree_sets_rows(rel)
