"""The sort-free scoring kernels against the ``np.unique`` forms they replace.

:func:`repro.relation.columns.refine` numbers fused keys with a presence
table and a ``cumsum`` when the key space fits 8 slots per row, and with
``np.unique`` above; either way its output must be exactly the
``np.unique`` inverse and its ``np.bincount``, in values and dtype.  The
reliable miner's size-multiset and entropy helpers read from
``np.bincount`` and inline arithmetic; each must equal its sort-based
reference bit for bit, or a memoized score could move.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.fd import reliable
from repro.fd.reliable import (
    _canonical_entropy,
    _size_runs,
    expected_mutual_information,
)
from repro.infotheory import entropy_of_counts
from repro.relation.columns import TABLE_KEYS_PER_ROW, refine

pytestmark = pytest.mark.statistical


def reference_refine(groups, codes, card):
    _, inverse = np.unique(groups * card + codes, return_inverse=True)
    return inverse, np.bincount(inverse)


def reference_entropy(counts):
    return entropy_of_counts(np.sort(counts[counts > 0]), base=math.e)


def reference_size_runs(counts):
    counts = np.asarray(counts, dtype=np.int64)
    sizes, mult = np.unique(counts[counts > 0], return_counts=True)
    return sizes.tobytes() + mult.astype(np.int64).tobytes()


@st.composite
def groupings(draw, max_rows=60):
    """``(groups, n_groups, codes, card)`` with every group id used."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    n_groups = draw(st.integers(min_value=1, max_value=max(1, n)))
    card = draw(st.integers(min_value=1, max_value=40))
    groups = np.array(
        draw(st.permutations(range(n_groups)))[:n]
        + draw(st.lists(st.integers(0, n_groups - 1),
                        min_size=max(0, n - n_groups),
                        max_size=max(0, n - n_groups))),
        dtype=np.int64)
    codes = np.array(draw(st.lists(st.integers(0, card - 1),
                                   min_size=n, max_size=n)), dtype=np.int64)
    return groups, (n_groups if n else 0), codes, card


@st.composite
def count_vectors(draw):
    """Non-negative class sizes, zeros (empty classes) included."""
    return np.array(draw(st.lists(st.integers(0, 200), max_size=30)),
                    dtype=np.int64)


@st.composite
def split(draw, n):
    """Random class sizes of ``n`` rows, with empty classes mixed in."""
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=30)) if n > 1 else []
    bounds = [0, *sorted(cuts), n]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    zeros = draw(st.integers(min_value=0, max_value=3))
    return np.array(draw(st.permutations(sizes + [0] * zeros)), np.int64)


def assert_same(got, expected):
    for array, reference in zip(got, expected):
        assert array.dtype == reference.dtype
        assert np.array_equal(array, reference)


class TestRefine:
    @given(groupings(), st.sampled_from([np.int32, np.int64]))
    @example((np.zeros(0, np.int64), 0, np.zeros(0, np.int64), 3), np.int64)
    @example((np.zeros(1, np.int64), 1, np.zeros(1, np.int64), 1), np.int32)
    def test_equals_unique_inverse_and_bincount(self, case, dtype):
        # Root partitions are the store's int32 code columns.
        groups, n_groups, codes, card = case
        assert_same(refine(groups.astype(dtype), n_groups,
                           codes.astype(dtype), card),
                    reference_refine(groups, codes, card))

    @pytest.mark.parametrize("n, n_groups, card, sorts", [
        pytest.param(0, 0, 5, 0, id="no-rows"),
        pytest.param(1, 1, 1, 0, id="one-row"),
        pytest.param(40, 1, 1, 0, id="one-group-card-1"),
        pytest.param(40, 40, 1, 0, id="all-distinct-keys-in-the-table"),
        pytest.param(40, 40, 8, 0, id="at-the-8n-rule"),
        pytest.param(40, 40, 9, 1, id="just-above-the-8n-rule"),
        pytest.param(40, 40, 40, 1, id="all-distinct-keys"),
        pytest.param(40, 1, 400, 1, id="one-group-wide-column"),
    ])
    def test_sorts_only_above_the_rule(self, monkeypatch, n, n_groups,
                                       card, sorts):
        rng = np.random.default_rng(n * 1000 + card)
        groups = np.arange(n, dtype=np.int64) % max(n_groups, 1)
        codes = rng.integers(0, card, n)
        if card == n_groups == n:
            codes = np.arange(n)  # every (group, code) key distinct
        elif card == 1:
            codes = np.zeros(n, dtype=np.int64)
        expected = reference_refine(groups, codes, card)
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        got = refine(groups, n_groups, codes, card)
        monkeypatch.undo()
        assert (n_groups * card > TABLE_KEYS_PER_ROW * n) == bool(sorts)
        assert len(calls) == sorts
        assert_same(got, expected)


class TestBitwiseScoring:
    @given(count_vectors())
    @example(np.zeros(0, np.int64))
    @example(np.array([0, 0], np.int64))
    def test_canonical_entropy(self, counts):
        assert (_canonical_entropy(counts).hex()
                == reference_entropy(counts).hex())

    @given(count_vectors())
    @example(np.zeros(0, np.int64))
    def test_size_runs(self, counts):
        assert _size_runs(counts) == reference_size_runs(counts)
        assert _size_runs(counts.tolist()) == reference_size_runs(counts)

    @given(count_vectors(), st.data())
    def test_expected_mutual_information(self, a, data):
        b = data.draw(split(int(a.sum())))
        got = expected_mutual_information(a, b)
        # The sort-based form: the same EMI over np.unique's multisets.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reliable, "_size_multiset",
                          lambda c: np.unique(c, return_counts=True))
            expected = expected_mutual_information(a, b)
        assert got.hex() == expected.hex()
