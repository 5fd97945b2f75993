"""Stripped partitions (the TANE representation of attribute-set equality).

The partition of a relation under an attribute set ``X`` groups tuple indices
with equal ``X``-projections.  *Stripped* partitions drop singleton classes;
two key facts make them the workhorse of dependency mining:

* ``X -> A`` holds iff ``error(pi_X) == error(pi_{X+A})``, where
  ``error(pi) = ||pi|| - |pi|`` (sum of class sizes minus class count);
* ``pi_{X union Y}`` is the product of ``pi_X`` and ``pi_Y``, computable in
  time linear in ``||pi||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.relation.columns import refine


@dataclass(frozen=True)
class Partition:
    """A stripped partition over a relation of ``n_rows`` tuples."""

    classes: tuple
    n_rows: int

    @classmethod
    def from_classes(cls, classes, n_rows: int) -> "Partition":
        stripped = tuple(
            tuple(sorted(c)) for c in classes if len(c) > 1
        )
        return cls(classes=tuple(sorted(stripped)), n_rows=n_rows)

    @property
    def error(self) -> int:
        """``||pi|| - |pi|``: how far the partition is from all-singletons."""
        return sum(len(c) for c in self.classes) - len(self.classes)

    @property
    def n_classes(self) -> int:
        """Class count including the stripped singletons."""
        covered = sum(len(c) for c in self.classes)
        return len(self.classes) + (self.n_rows - covered)

    def is_superkey(self) -> bool:
        """All classes are singletons -- the attribute set is a superkey."""
        return not self.classes

    @cached_property
    def labels(self) -> list:
        """Row -> class-index label array (``-1`` for stripped singletons).

        Computed once per partition and reused by every ``refines`` /
        ``product`` call touching it, replacing the per-call dict builds the
        TANE lattice search used to pay for on each of its O(|lattice|)
        partition operations.
        """
        labels = [-1] * self.n_rows
        for class_index, members in enumerate(self.classes):
            for row in members:
                labels[row] = class_index
        return labels

    def refines(self, other: "Partition") -> bool:
        """Whether every class of ``self`` lies within a class of ``other``.

        ``pi_X`` refining ``pi_A`` is exactly the statement ``X -> A``.
        """
        labels = other.labels
        for members in self.classes:
            first = labels[members[0]]
            if first < 0:
                # A stripped singleton of ``other`` cannot contain a class
                # with two or more members.
                return False
            for row in members[1:]:
                if labels[row] != first:
                    return False
        return True


def partition_of(relation, attributes) -> Partition:
    """The stripped partition of a relation under an attribute set.

    An empty attribute set yields the single all-rows class (every tuple
    agrees on nothing vacuously).  Grouping runs over the relation's coded
    columns: equal ``X``-projections are equal code vectors, grouped by
    refining one column at a time (:func:`repro.relation.columns.refine`)
    and one stable ``argsort`` of the dense group ids, instead of a per-row
    dict of value tuples.
    """
    attributes = sorted(attributes) if not isinstance(attributes, str) else [attributes]
    n = len(relation)
    if not attributes:
        classes = [list(range(n))] if n else []
        return Partition.from_classes(classes, n)
    positions = relation.schema.positions(attributes)
    if n == 0:
        return Partition.from_classes([], 0)

    store = relation.coded
    columns = store.columns
    cards = store.cardinalities()
    # Every refinement renumbers the groups densely, so the fused key
    # ``group * cardinality + code`` can never overflow.
    inv = columns[positions[0]]
    sizes = np.bincount(inv, minlength=cards[positions[0]])
    for p in positions[1:]:
        inv, sizes = refine(inv, len(sizes), columns[p], cards[p])
    # Group ``g`` holds the ``sizes[g]`` rows after the smaller groups'.
    order = np.argsort(inv, kind="stable")
    ends = np.cumsum(sizes).tolist()
    classes = [order[start:end].tolist()
               for start, end in zip([0] + ends[:-1], ends) if end - start > 1]
    return Partition.from_classes(classes, n)


def product(left: Partition, right: Partition) -> Partition:
    """The product partition ``pi_X * pi_Y = pi_{X union Y}``.

    Linear-time TANE algorithm: label rows by their class in ``left``, then
    split each ``right`` class by those labels.
    """
    if left.n_rows != right.n_rows:
        raise ValueError("partitions must cover the same relation")
    label = left.labels
    classes = []
    for members in right.classes:
        sub: dict = {}
        for row in members:
            owner = label[row]
            if owner >= 0:
                sub.setdefault(owner, []).append(row)
        classes.extend(group for group in sub.values() if len(group) > 1)
    return Partition.from_classes(classes, left.n_rows)
