"""Property-based tests (hypothesis) for dependency mining and covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rad, rtr
from repro.fd import (
    FD,
    closure,
    fdep,
    g3_error,
    holds,
    implies,
    minimum_cover,
    tane,
)
from repro.fd.partitions import partition_of, product
from repro.relation import Relation

ATTRS = ("W", "X", "Y", "Z")


@st.composite
def small_relation(draw, max_rows=14, max_card=3):
    """A random 4-attribute categorical relation."""
    n = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        tuple(
            f"{a}{draw(st.integers(min_value=0, max_value=max_card - 1))}"
            for a in ATTRS
        )
        for _ in range(n)
    ]
    return Relation(ATTRS, rows)


@st.composite
def fd_set(draw, max_fds=6):
    n = draw(st.integers(min_value=1, max_value=max_fds))
    fds = []
    for _ in range(n):
        lhs = draw(
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2)
        )
        rhs = draw(
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2)
        )
        fds.append(FD(lhs, rhs))
    return fds


class TestClosureProperties:
    @given(st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_extensive(self, attrs, fds):
        assert frozenset(attrs) <= closure(attrs, fds)

    @given(st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_idempotent(self, attrs, fds):
        once = closure(attrs, fds)
        assert closure(once, fds) == once

    @given(st.sets(st.sampled_from(ATTRS), min_size=1),
           st.sets(st.sampled_from(ATTRS), min_size=1), fd_set())
    def test_monotone(self, a, b, fds):
        if frozenset(a) <= frozenset(b):
            assert closure(a, fds) <= closure(b, fds)


class TestMinerProperties:
    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_fdep_results_hold(self, relation):
        for fd in fdep(relation):
            assert holds(relation, fd)

    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_fdep_results_minimal(self, relation):
        found = fdep(relation)
        for fd in found:
            for attribute in fd.lhs:
                smaller = fd.lhs - {attribute}
                if smaller:
                    assert not holds(relation, FD(smaller, fd.rhs)), str(fd)

    @given(small_relation())
    @settings(max_examples=30, deadline=None)
    def test_fdep_and_tane_agree(self, relation):
        assert set(fdep(relation)) == set(tane(relation))

    @given(small_relation())
    @settings(max_examples=30, deadline=None)
    def test_g3_zero_iff_holds(self, relation):
        for fd in (FD("W", "X"), FD({"X", "Y"}, {"Z"})):
            if holds(relation, fd):
                assert g3_error(relation, fd) == 0.0
            else:
                assert g3_error(relation, fd) > 0.0


def _permuted(relation, order):
    rows = list(relation.rows)
    return Relation(list(relation.schema.names), [rows[i] for i in order])


class TestMinerOrderInvariance:
    """The mined dependency sets depend on the instance's content only, not
    on the order the pair scan or the lattice products meet the rows."""

    @given(small_relation(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_fdep_invariant_under_row_order(self, relation, data):
        order = data.draw(st.permutations(range(len(relation))))
        assert set(fdep(_permuted(relation, order))) == set(fdep(relation))

    @given(small_relation(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_tane_invariant_under_row_order(self, relation, data):
        order = data.draw(st.permutations(range(len(relation))))
        assert set(tane(_permuted(relation, order))) == set(tane(relation))


class TestCoverProperties:
    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_equivalent_to_input(self, fds):
        cover = minimum_cover(fds)
        for fd in fds:
            assert implies(cover, fd), str(fd)
        for fd in cover:
            assert implies(fds, fd), str(fd)

    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_nonredundant(self, fds):
        cover = minimum_cover(fds)
        for index, fd in enumerate(cover):
            rest = cover[:index] + cover[index + 1 :]
            assert not implies(rest, fd), str(fd)

    @given(fd_set())
    @settings(max_examples=60)
    def test_cover_idempotent(self, fds):
        once = minimum_cover(fds)
        assert minimum_cover(once) == once


class TestPartitionProperties:
    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_product_matches_direct(self, relation, left, right):
        direct = partition_of(relation, sorted(left | right))
        combined = product(
            partition_of(relation, sorted(left)),
            partition_of(relation, sorted(right)),
        )
        assert combined == direct

    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_error_decreases_with_more_attributes(self, relation, attrs):
        small = partition_of(relation, sorted(attrs))
        full = partition_of(relation, ATTRS)
        assert full.error <= small.error


class TestMeasureProperties:
    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, relation, attrs):
        assert 0.0 <= rad(relation, sorted(attrs)) <= 1.0
        assert 0.0 <= rtr(relation, sorted(attrs)) < 1.0

    @given(small_relation(),
           st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rtr_monotone_in_width(self, relation, attrs):
        # Adding attributes can only split projected groups further.
        wider = sorted(set(attrs) | {"W"})
        assert rtr(relation, wider) <= rtr(relation, sorted(attrs)) + 1e-12

    @given(small_relation())
    @settings(max_examples=40, deadline=None)
    def test_rtr_equals_realized_reduction(self, relation):
        from repro.core import decompose_by_fd

        fd = FD({"W", "X"}, {"Y"})
        decomposition = decompose_by_fd(relation, fd)
        assert decomposition.tuple_reduction == pytest.approx(
            rtr(relation, sorted(fd.attributes))
        )
