"""Attribute grouping over duplicate value groups (paper Section 6.3).

Attributes of ``A^D`` (those containing duplicate value groups) are expressed
over ``C_V^D`` via matrix ``F`` and clustered agglomeratively; by
Proposition 1 each minimum-loss merge joins the attribute pair with the
highest duplication, so the dendrogram's early merges point at the attribute
sets whose shared values are most redundant.  The resulting merge sequence is
exactly the ``Q`` consumed by FD-RANK (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clustering import DCF, AIBResult, Dendrogram, aib
from repro.core.value_clustering import ValueClusteringResult, cluster_values
from repro.relation import MatrixF, Relation, build_matrix_f


@dataclass
class AttributeGroupingResult:
    """Outcome of :func:`group_attributes`.

    Attributes
    ----------
    matrix_f:
        The attributes-over-duplicate-groups matrix.
    aib_result:
        The full agglomerative run over the attributes of ``A^D``.
    value_clustering:
        The value clustering the grouping was derived from.
    """

    matrix_f: MatrixF
    aib_result: AIBResult
    value_clustering: ValueClusteringResult

    @property
    def dendrogram(self) -> Dendrogram:
        """The attribute merge sequence ``Q`` (leaf labels are attributes)."""
        return self.aib_result.dendrogram

    @property
    def attribute_names(self) -> list:
        """The attributes of ``A^D``, in dendrogram leaf order."""
        return list(self.matrix_f.attribute_names)

    def clusters(self, k: int) -> list[list[str]]:
        """The ``k`` attribute groups, as lists of attribute names."""
        names = self.matrix_f.attribute_names
        return [
            [names[i] for i in members] for members in self.dendrogram.cut(k)
        ]

    def merge_loss(self, attributes) -> float | None:
        """Information loss of the first merge gathering ``attributes``.

        ``None`` when some attribute is outside ``A^D`` or the set is never
        gathered -- FD-RANK treats both as "no qualifying merge".
        """
        names = self.matrix_f.attribute_names
        try:
            leaves = [names.index(a) for a in attributes]
        except ValueError:
            return None
        merge = self.dendrogram.merge_gathering(leaves)
        if merge is None and len(set(leaves)) > 1:
            return None
        if merge is None:
            return 0.0
        return merge.loss

    def render(self) -> str:
        """ASCII dendrogram (the paper's Figures 10 and 14-18)."""
        return self.dendrogram.render()


def group_attributes(
    relation: Relation | None = None,
    phi_v: float = 0.0,
    phi_t: float | None = None,
    phi_a: float = 0.0,
    value_clustering: ValueClusteringResult | None = None,
    include_all_groups: bool = False,
    budget=None,
    backend: str = "auto",
    checkpoint=None,
) -> AttributeGroupingResult:
    """Cluster the attributes of ``A^D`` by shared duplicate values.

    Either pass a ``relation`` (a value clustering is run with ``phi_v`` /
    ``phi_t``) or a precomputed ``value_clustering``.  ``phi_a`` is accepted
    for interface completeness: attributes are few, so as the paper notes
    (Section 6.3) a full agglomerative clustering with ``phi_a = 0`` is used;
    values other than zero are rejected to avoid silently changing semantics.

    ``include_all_groups`` widens the input from ``C_V^D`` to every value
    group -- useful for ablation, not used by the paper.
    """
    if phi_a != 0.0:
        raise ValueError(
            "attribute grouping performs a full agglomerative clustering; "
            "phi_a must be 0.0"
        )
    if value_clustering is None:
        if relation is None:
            raise ValueError("pass either a relation or a value_clustering")
        value_clustering = cluster_values(
            relation,
            phi_v=phi_v,
            phi_t=phi_t,
            budget=budget,
            backend=backend,
            checkpoint=checkpoint,
        )

    groups = (
        value_clustering.groups
        if include_all_groups
        else value_clustering.duplicate_groups
    )
    if not groups:
        raise ValueError(
            "no duplicate value groups found (C_V^D is empty); "
            "try a larger phi_v"
        )
    matrix_f = build_matrix_f(
        value_clustering.view, [g.value_ids for g in groups]
    )

    n_attributes = len(matrix_f.attribute_names)
    prior = 1.0 / n_attributes
    dcfs = [
        DCF.singleton(i, prior, row, support=dict(counts))
        for i, (row, counts) in enumerate(zip(matrix_f.rows, matrix_f.counts))
    ]
    result = aib(
        dcfs,
        labels=matrix_f.attribute_names,
        budget=budget,
        backend=backend,
        checkpoint=checkpoint,
    )
    return AttributeGroupingResult(
        matrix_f=matrix_f,
        aib_result=result,
        value_clustering=value_clustering,
    )
