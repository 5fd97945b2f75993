"""Matrix builders: the paper's ``M``, ``N``, ``O`` and ``F`` matrices.

* ``M`` (Figure 2): tuples as distributions over the values they contain,
  ``p(v|t) = 1/m`` -- built by :func:`build_tuple_view`.
* ``N`` (Figures 3/6): values as distributions over the tuples they appear
  in, ``p(t|v) = 1/d_v`` -- built by :func:`build_value_view`.
* ``O`` (Figure 6): per-value support counts inside each attribute -- carried
  alongside ``N`` in the same view (the ADCF extension of Section 6.2).
* ``F`` (Figure 9): attributes expressed over duplicate value groups -- built
  by :func:`build_matrix_f`.

All matrices are sparse: rows are ``{column_id: mass}`` dicts, which is what
the clustering engine consumes directly.

Value identity follows the paper's generic treatment: a value is a *literal*,
shared across attributes (``value_scope="global"``, the default).  Since that
choice conflates, e.g., a NULL in ``Editor`` with a NULL in ``School`` --
deliberately so, which is exactly what makes the NULL-heavy DBLP attributes
cluster (Figure 15) -- an ``"attribute"`` scope is also offered for users who
want attribute-qualified values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.infotheory.entropy import mutual_information_rows
from repro.relation.relation import Relation


def _check_scope(value_scope: str) -> None:
    if value_scope not in ("global", "attribute"):
        raise ValueError(f"value_scope must be 'global' or 'attribute', got {value_scope!r}")


@dataclass
class ValueCatalog:
    """Assigns stable integer ids to the distinct values of a relation.

    With global scope the key is the literal itself; with attribute scope it
    is the ``(attribute_name, literal)`` pair.
    """

    scope: str
    ids: dict = field(default_factory=dict)
    keys: list = field(default_factory=list)

    def key_for(self, attribute_name: str, literal) -> object:
        """The catalog key of a literal occurring in an attribute."""
        if self.scope == "attribute":
            return (attribute_name, literal)
        return literal

    def id_for(self, attribute_name: str, literal) -> int:
        """The id of a value, allocating one on first sight."""
        key = self.key_for(attribute_name, literal)
        value_id = self.ids.get(key)
        if value_id is None:
            value_id = len(self.keys)
            self.ids[key] = value_id
            self.keys.append(key)
        return value_id

    def label(self, value_id: int) -> str:
        """Human-readable rendering of a value id."""
        key = self.keys[value_id]
        if self.scope == "attribute":
            return f"{key[0]}={key[1]!r}"
        return repr(key)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class TupleView:
    """Matrix ``M``: each tuple as a sparse distribution over value ids.

    Attributes
    ----------
    rows:
        ``rows[t] = {value_id: 1/m}`` for the values of tuple ``t``.
    priors:
        ``p(t) = 1/n`` for every tuple.
    catalog:
        The value catalog shared by all rows.
    """

    relation: Relation
    rows: list
    priors: list
    catalog: ValueCatalog

    @property
    def n_tuples(self) -> int:
        return len(self.rows)

    @property
    def n_values(self) -> int:
        return len(self.catalog)

    def mutual_information(self) -> float:
        """``I(T; V)`` of the tuple/value joint distribution, in bits."""
        return mutual_information_rows(self.rows, self.priors)


def _catalog_from_codes(relation: Relation, value_scope: str):
    """Catalog + per-cell id matrix from the relation's coded columns.

    The coded store assigns catalog ids in the same row-major first-sight
    order the per-row :meth:`ValueCatalog.id_for` loop does, so the catalog
    is bit-identical to the per-row oracle's
    (:func:`repro.testing.oracles.build_tuple_view_rows`) -- only the id
    assignment is a vectorized gather instead of ``n * m`` hash lookups.
    """
    ids, keys = relation.coded.global_codes(value_scope)
    catalog = ValueCatalog(scope=value_scope)
    catalog.keys = list(keys)
    catalog.ids = {key: value_id for value_id, key in enumerate(keys)}
    return catalog, ids


def build_tuple_view(relation: Relation, value_scope: str = "global") -> TupleView:
    """Build the tuple representation of Figure 2.

    Each tuple ``t`` gets ``p(t) = 1/n`` and ``p(v|t) = 1/m`` on the values
    it contains.  If the same literal occupies several attributes of one
    tuple (possible under global scope), its masses accumulate, keeping each
    row normalized.  Works directly off the relation's coded columns; the
    row tuples are never materialized.
    """
    _check_scope(value_scope)
    if not len(relation):
        raise ValueError("cannot build a tuple view of an empty relation")
    catalog, ids = _catalog_from_codes(relation, value_scope)
    cell_mass = 1.0 / len(relation.schema)
    rows = []
    for row_ids in ids.tolist():
        sparse: dict = {}
        for value_id in row_ids:
            sparse[value_id] = sparse.get(value_id, 0.0) + cell_mass
        rows.append(sparse)
    priors = [1.0 / len(rows)] * len(rows)
    return TupleView(relation=relation, rows=rows, priors=priors, catalog=catalog)


@dataclass
class ValueView:
    """Matrices ``N`` and ``O``: values over tuples (or tuple clusters).

    Attributes
    ----------
    rows:
        ``rows[v] = {column: 1/d_v}`` over the tuples (or tuple clusters,
        under double clustering) in which value ``v`` appears.
    priors:
        ``p(v) = 1/d`` for every value.
    support:
        ``support[v] = {attribute_name: count}`` -- the row of matrix ``O``.
    catalog:
        Maps value ids back to literals.
    n_columns:
        Number of columns the rows range over (tuples or tuple clusters).
    """

    relation: Relation
    rows: list
    priors: list
    support: list
    catalog: ValueCatalog
    n_columns: int
    tuple_counts: list
    double_clustered: bool = False

    @property
    def n_values(self) -> int:
        return len(self.rows)

    @property
    def n_tuples(self) -> int:
        """Number of tuples in the underlying relation."""
        return len(self.relation)

    def occurrences(self, value_id: int) -> int:
        """Total occurrence count ``d_v`` of a value (row sum of ``O``)."""
        return sum(self.support[value_id].values())

    def attributes_of(self, value_id: int) -> frozenset:
        """The attributes in which a value appears at least once."""
        return frozenset(self.support[value_id])

    def mutual_information(self) -> float:
        """``I(V; T)`` of the value/tuple joint distribution, in bits."""
        return mutual_information_rows(self.rows, self.priors)


def build_value_view(
    relation: Relation,
    value_scope: str = "global",
    tuple_clusters: list | None = None,
) -> ValueView:
    """Build the value representation of Figures 3 and 6 (``N`` plus ``O``).

    When ``tuple_clusters`` is given (a cluster id per tuple, as produced by
    tuple clustering), values are expressed over the tuple *clusters* instead
    of individual tuples -- the Double Clustering scale-up of Section 6.2.

    ``N`` rows are normalized over distinct tuples containing the value;
    ``O`` counts every occurrence (so a literal filling two attributes of one
    tuple counts twice in ``O`` but once in ``N``, matching the paper's
    definitions of ``N`` as an indicator matrix and ``O`` as support counts).
    Works directly off the relation's coded columns.
    """
    _check_scope(value_scope)
    n_rows = len(relation)
    if not n_rows:
        raise ValueError("cannot build a value view of an empty relation")
    if tuple_clusters is not None and len(tuple_clusters) != n_rows:
        raise ValueError("tuple_clusters must assign a cluster to every tuple")

    catalog, ids = _catalog_from_codes(relation, value_scope)
    names = relation.schema.names
    n_values = len(catalog)
    membership: list = [{} for _ in range(n_values)]  # value_id -> {column: count}
    support: list = [{} for _ in range(n_values)]  # value_id -> {attribute: count}
    tuple_counts: list = [0] * n_values  # value_id -> number of distinct tuples

    for t, row_ids in enumerate(ids.tolist()):
        column = tuple_clusters[t] if tuple_clusters is not None else t
        seen_in_tuple: set = set()
        for name, value_id in zip(names, row_ids):
            attr_counts = support[value_id]
            attr_counts[name] = attr_counts.get(name, 0) + 1
            if value_id not in seen_in_tuple:
                seen_in_tuple.add(value_id)
                tuple_counts[value_id] += 1
                cols = membership[value_id]
                cols[column] = cols.get(column, 0) + 1
        del seen_in_tuple

    rows = []
    for cols in membership:
        d_v = sum(cols.values())
        rows.append({column: count / d_v for column, count in cols.items()})
    priors = [1.0 / len(rows)] * len(rows)
    n_columns = (
        len(set(tuple_clusters)) if tuple_clusters is not None else n_rows
    )
    return ValueView(
        relation=relation,
        rows=rows,
        priors=priors,
        support=support,
        catalog=catalog,
        n_columns=n_columns,
        tuple_counts=tuple_counts,
        double_clustered=tuple_clusters is not None,
    )


@dataclass
class MatrixF:
    """Matrix ``F`` (Figure 9): attributes over duplicate value groups.

    Attributes
    ----------
    attribute_names:
        The attributes of ``A^D`` -- those containing at least one duplicate
        value group.
    rows:
        ``rows[a] = {group_index: normalized mass}`` -- attribute ``a``'s
        distribution over the duplicate groups, from the ``O`` counts.
    counts:
        The raw (unnormalized) ``O`` counts behind ``rows``.
    groups:
        ``groups[g]`` is the tuple of value ids forming duplicate group ``g``.
    """

    attribute_names: list
    rows: list
    counts: list
    groups: list


def build_matrix_f(value_view: ValueView, duplicate_groups: list) -> MatrixF:
    """Build matrix ``F`` from the duplicate value groups ``C_V^D``.

    ``duplicate_groups`` is a list of value-id collections.  Attributes with
    no mass on any duplicate group are excluded (they are not in ``A^D``).
    """
    group_ids = [tuple(group) for group in duplicate_groups]
    per_attribute: dict = {}
    for g, group in enumerate(group_ids):
        for value_id in group:
            for attribute, count in value_view.support[value_id].items():
                row = per_attribute.setdefault(attribute, {})
                row[g] = row.get(g, 0) + count

    # Preserve schema order for reproducible dendrograms.
    ordered = [
        name for name in value_view.relation.schema.names if name in per_attribute
    ]
    counts = [per_attribute[name] for name in ordered]
    rows = []
    for raw in counts:
        total = sum(raw.values())
        rows.append({g: c / total for g, c in raw.items()})
    return MatrixF(
        attribute_names=ordered, rows=rows, counts=counts, groups=group_ids
    )
