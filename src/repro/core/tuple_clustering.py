"""Tuple clustering and duplicate-tuple detection (paper Section 6.1).

Tuples are clustered so that the information they carry about their attribute
values is preserved; summaries representing more than one tuple
(``p(c*) > 1/n``) are the candidate (near-)duplicate groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clustering import Limbo
from repro.relation import Relation, TupleView, build_tuple_view


@dataclass
class DuplicateGroup:
    """A set of tuples associated with one multi-tuple summary."""

    tuple_indices: list
    summary_index: int

    def __len__(self) -> int:
        return len(self.tuple_indices)


@dataclass
class TupleClusteringResult:
    """Everything produced by :func:`cluster_tuples`.

    Attributes
    ----------
    relation:
        The clustered relation.
    view:
        The tuple/value matrix ``M``.
    limbo:
        The fitted LIMBO driver (Phase-1 summaries, ready for Phases 2-3).
    assignment:
        Index of the closest leaf summary for every tuple (Phase 3).
    duplicate_groups:
        Groups of tuples that share a multi-tuple summary -- the candidate
        (near-)duplicates of Section 6.1.1.
    """

    relation: Relation
    view: TupleView
    limbo: Limbo
    assignment: list
    duplicate_groups: list = field(default_factory=list)

    def group_of(self, tuple_index: int) -> DuplicateGroup | None:
        """The duplicate group containing a tuple, if any."""
        for group in self.duplicate_groups:
            if tuple_index in group.tuple_indices:
                return group
        return None

    def are_candidate_duplicates(self, index_a: int, index_b: int) -> bool:
        """Whether two tuples landed in the same multi-tuple summary."""
        return self.assignment[index_a] == self.assignment[index_b]


def cluster_tuples(
    relation: Relation,
    phi_t: float = 0.0,
    branching: int = 4,
    value_scope: str = "global",
    budget=None,
    backend: str = "auto",
    checkpoint=None,
    max_leaf_entries: int | None = None,
) -> TupleClusteringResult:
    """Run the duplicate-tuple procedure of Section 6.1.1.

    1. Set ``phi_t`` (0.0 finds only exact duplicates; larger values allow
       erroneous or missing attribute values in the duplicates).
    2. Phase 1 builds the tuple summaries.
    3. Phase 3 associates every tuple with its closest summary; groups whose
       summary represents more than one tuple (``p(c*) > 1/n``) become the
       candidate duplicate groups.

    ``max_leaf_entries`` bounds the Phase-1 DCF tree to that many leaf
    entries (space-bounded LIMBO; see :class:`repro.clustering.Limbo`).
    """
    view = build_tuple_view(relation, value_scope=value_scope)
    limbo = Limbo(
        phi=phi_t,
        branching=branching,
        budget=budget,
        backend=backend,
        checkpoint=checkpoint,
        max_leaf_entries=max_leaf_entries,
    ).fit(
        view.rows, view.priors, mutual_information=view.mutual_information()
    )
    summaries = limbo.summaries
    assignment = limbo.assign(summaries)

    n = len(relation)
    groups = []
    assigned: dict = {}
    for tuple_index, summary_index in enumerate(assignment):
        assigned.setdefault(summary_index, []).append(tuple_index)
    for summary_index, members in sorted(assigned.items()):
        if summaries[summary_index].weight > 1.0 / n and len(members) > 1:
            groups.append(
                DuplicateGroup(tuple_indices=members, summary_index=summary_index)
            )
    return TupleClusteringResult(
        relation=relation,
        view=view,
        limbo=limbo,
        assignment=assignment,
        duplicate_groups=groups,
    )


def find_duplicate_tuples(
    relation: Relation, phi_t: float = 0.1, branching: int = 4
) -> list[DuplicateGroup]:
    """Convenience wrapper: just the candidate duplicate groups.

    ``phi_t = 0.0`` finds exact duplicates only; the paper uses 0.1-0.3 for
    typographic/notational/schema discrepancies (Section 8.1.1).
    """
    return cluster_tuples(relation, phi_t=phi_t, branching=branching).duplicate_groups
