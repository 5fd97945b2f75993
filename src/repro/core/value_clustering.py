"""Attribute-value clustering (paper Section 6.2).

Values are clustered so that they retain information about the tuples they
appear in; the ADCF extension carries the ``O``-matrix counts through the
merges, so one clustering pass yields both the groups and their per-attribute
supports.  Groups are then split into the duplicate set ``C_V^D`` (values
recurring across at least two tuples *and* two attributes) and the rest,
``C_V^ND``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clustering import Limbo
from repro.relation import Relation, ValueView, build_tuple_view, build_value_view


@dataclass
class ValueGroup:
    """A cluster of attribute values with its aggregated ``O``-row.

    Attributes
    ----------
    value_ids:
        Catalog ids of the member values.
    labels:
        Human-readable member renderings.
    support:
        The group's ``O``-matrix row ``{attribute: count}``.
    n_tuples:
        Number of distinct tuples the group's values appear in.  Exact when
        values were clustered over raw tuples; a lower bound (the largest
        member count) under double clustering, where tuple identity is
        summarized away.
    is_duplicate:
        Membership in ``C_V^D``: at least two tuples and two attributes.
    """

    value_ids: list
    labels: list
    support: dict
    n_tuples: int
    is_duplicate: bool

    @property
    def attributes(self) -> frozenset:
        """Attributes in which the group's values occur."""
        return frozenset(self.support)

    @property
    def occurrences(self) -> int:
        """Total occurrence count (the ``O``-row sum)."""
        return sum(self.support.values())

    def __len__(self) -> int:
        return len(self.value_ids)


@dataclass
class ValueClusteringResult:
    """Everything produced by :func:`cluster_values`."""

    relation: Relation
    view: ValueView
    limbo: Limbo
    groups: list = field(default_factory=list)

    @property
    def duplicate_groups(self) -> list:
        """``C_V^D``: the duplicate value groups (Section 6.3)."""
        return [g for g in self.groups if g.is_duplicate]

    @property
    def non_duplicate_groups(self) -> list:
        """``C_V^ND``: everything else."""
        return [g for g in self.groups if not g.is_duplicate]

    def group_of_value(self, value_id: int) -> ValueGroup | None:
        """The group a value id landed in, if any."""
        for group in self.groups:
            if value_id in group.value_ids:
                return group
        return None

    def multi_value_groups(self) -> list:
        """Groups with more than one member -- the co-occurrence findings."""
        return [g for g in self.groups if len(g) > 1]


def cluster_values(
    relation: Relation,
    phi_v: float = 0.0,
    phi_t: float | None = None,
    branching: int = 4,
    value_scope: str = "global",
    budget=None,
    backend: str = "auto",
    checkpoint=None,
    max_leaf_entries: int | None = None,
) -> ValueClusteringResult:
    """Run the attribute-value clustering procedure of Section 6.2.

    Parameters
    ----------
    relation:
        The relation to mine.
    phi_v:
        Accuracy knob for value summaries.  0.0 finds perfectly co-occurring
        value groups; small positive values (e.g. 0.1) also capture *almost*
        perfect co-occurrences caused by entry errors.
    phi_t:
        When given, tuples are first clustered with this ``phi`` and values
        are expressed over the tuple clusters (Double Clustering) -- the
        scale-up for large relations.
    max_leaf_entries:
        Optional bound on the Phase-1 DCF trees' leaf-entry count
        (space-bounded LIMBO; see :class:`repro.clustering.Limbo`).
    """
    tuple_clusters = None
    if phi_t is not None:
        tuple_view = build_tuple_view(relation, value_scope=value_scope)
        tuple_limbo = Limbo(
            phi=phi_t,
            branching=branching,
            budget=budget,
            backend=backend,
            checkpoint=checkpoint,
            max_leaf_entries=max_leaf_entries,
        ).fit(
            tuple_view.rows,
            tuple_view.priors,
            mutual_information=tuple_view.mutual_information(),
        )
        # Phase-1 leaf membership is the tuple clustering here: values only
        # need the coarse columns, and re-associating every tuple against
        # thousands of summaries (Phase 3) would add an O(n * summaries)
        # scan without changing the value-level result.
        tuple_clusters = [0] * len(relation)
        for cluster_index, summary in enumerate(tuple_limbo.summaries):
            for tuple_index in summary.members:
                tuple_clusters[tuple_index] = cluster_index

    view = build_value_view(
        relation, value_scope=value_scope, tuple_clusters=tuple_clusters
    )
    limbo = Limbo(
        phi=phi_v,
        branching=branching,
        budget=budget,
        backend=backend,
        checkpoint=checkpoint,
        max_leaf_entries=max_leaf_entries,
    ).fit(
        view.rows,
        view.priors,
        supports=view.support,
        mutual_information=view.mutual_information(),
    )

    groups = []
    for summary in limbo.summaries:
        members = sorted(summary.members)
        support = dict(summary.support or {})
        if view.double_clustered:
            n_tuples = max(view.tuple_counts[v] for v in members)
        else:
            n_tuples = len(summary.conditional)
        is_duplicate = n_tuples >= 2 and len(support) >= 2
        groups.append(
            ValueGroup(
                value_ids=members,
                labels=[view.catalog.label(v) for v in members],
                support=support,
                n_tuples=n_tuples,
                is_duplicate=is_duplicate,
            )
        )
    return ValueClusteringResult(relation=relation, view=view, limbo=limbo, groups=groups)
