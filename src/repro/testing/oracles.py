"""Brute-force reference implementations used as parity oracles in tests.

The reliable FD miner (:mod:`repro.fd.reliable`) prunes a set-enumeration
lattice with an admissible upper bound; the oracles here do the one thing a
correctness test wants instead -- score **every** candidate with no pruning
at all -- so the miner's output can be checked candidate for candidate.

Two independence levels are provided on purpose:

* :func:`exhaustive_reliable_scores` / :func:`brute_force_topk` call the
  *same* public scoring entry point the miner uses
  (:func:`repro.fd.reliable.reliable_score`), so set-level parity tests
  compare selection logic only -- float ties resolve identically on both
  sides by construction.
* :func:`exact_reliable_score` recomputes the bias-corrected fraction of
  information from first principles -- pure-Python dict partitions,
  ``math.lgamma`` log-factorials, scalar loops, no shared code and no
  numpy -- so numeric agreement (within float tolerance) validates the
  vectorized implementation itself, not just its plumbing.

Both scale exponentially in arity; keep oracle relations at <= 8 attributes.

The row-tuple oracles at the end (:func:`partition_of_rows`,
:func:`build_tuple_view_rows`, :func:`build_value_view_rows`) are the
per-row twins of the coded-column builders: they hash the row tuples
directly, so the columnar parity suite can demand exact agreement.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.fd.dependency import FD
from repro.fd.partitions import Partition
from repro.fd.reliable import ReliableFD, reliable_score
from repro.relation.matrices import (
    TupleView,
    ValueCatalog,
    ValueView,
    _check_scope,
)


def _column_classes(relation, names) -> dict:
    """Partition row indices by their projection onto ``names`` (exact)."""
    positions = [list(relation.schema.names).index(a) for a in names]
    classes: dict = {}
    for index, row in enumerate(relation.rows):
        key = tuple(row[p] for p in positions)
        classes.setdefault(key, []).append(index)
    return classes


def _entropy(counts, n) -> float:
    """Plug-in entropy of a count list in nats (scalar loop)."""
    total = 0.0
    for count in counts:
        if count > 0:
            p = count / n
            total -= p * math.log(p)
    return total


def exact_expected_mutual_information(a_counts, b_counts) -> float:
    """EMI under the permutation null, via ``math.lgamma`` scalar sums.

    The textbook triple loop (Vinh et al.): for every class-size pair
    ``(a_i, b_j)`` sum the hypergeometric probability of each feasible
    contingency cell ``n_ij`` times its mutual-information contribution.
    Deliberately shares nothing with the vectorized implementation in
    :func:`repro.fd.reliable.expected_mutual_information`.
    """
    a = [int(c) for c in a_counts if c > 0]
    b = [int(c) for c in b_counts if c > 0]
    n = sum(a)
    if n == 0 or sum(b) != n:
        raise ValueError("count vectors must be positive and sum equally")
    lg = math.lgamma
    total = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                log_p = (
                    lg(ai + 1) - lg(nij + 1) - lg(ai - nij + 1)
                    + lg(n - ai + 1) - lg(bj - nij + 1)
                    - lg(n - ai - bj + nij + 1)
                    - (lg(n + 1) - lg(bj + 1) - lg(n - bj + 1))
                )
                total += math.exp(log_p) * (nij / n) * math.log(
                    n * nij / (ai * bj)
                )
    return total


def exact_reliable_score(relation, lhs, rhs) -> float:
    """Bias-corrected fraction of information, from first principles.

    ``F0 = clamp((I(X;Y) - EMI) / H(Y), 0, 1)``; 0.0 when ``H(Y) = 0``
    (a constant consequent carries no information to explain).
    """
    n = len(relation)
    if n == 0:
        return 0.0
    x_classes = _column_classes(relation, sorted(lhs))
    y_classes = _column_classes(relation, [rhs])
    xy_classes = _column_classes(relation, sorted(lhs) + [rhs])
    x_counts = [len(c) for c in x_classes.values()]
    y_counts = [len(c) for c in y_classes.values()]
    h_x = _entropy(x_counts, n)
    h_y = _entropy(y_counts, n)
    if h_y <= 0.0:
        return 0.0
    h_xy = _entropy([len(c) for c in xy_classes.values()], n)
    mi = h_x + h_y - h_xy
    emi = exact_expected_mutual_information(x_counts, y_counts)
    return min(1.0, max(0.0, (mi - emi) / h_y))


def exhaustive_reliable_scores(
    relation, max_lhs_size: int | None = None, rhs: str | None = None,
) -> list[tuple[float, tuple, str]]:
    """Score every candidate ``lhs -> rhs`` of the lattice, no pruning.

    Returns ``(score, lhs_names, rhs_name)`` triples -- ``lhs_names`` a
    sorted tuple -- in the miner's deterministic total order
    ``(-score, lhs_names, rhs_name)``.  Constant consequents are excluded
    (the score is 0/0 by definition), exactly as the miner excludes them.
    Scores come from the same public :func:`repro.fd.reliable.reliable_score`
    entry point the miner uses, so comparisons are float-exact.
    """
    names = list(relation.schema.names)
    rhs_names = [rhs] if rhs is not None else names
    cap = max_lhs_size if max_lhs_size is not None else len(names) - 1
    entries = []
    for rhs_name in rhs_names:
        others = [a for a in names if a != rhs_name]
        if len({row[names.index(rhs_name)] for row in relation.rows}) <= 1:
            continue
        for size in range(1, cap + 1):
            for lhs in combinations(sorted(others), size):
                entries.append(
                    (reliable_score(relation, lhs, rhs_name), lhs, rhs_name)
                )
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    return entries


def brute_force_topk(relation, k: int, **kwargs) -> list[ReliableFD]:
    """The ``k`` best candidates of the exhaustive scan, as ReliableFDs.

    The direct oracle for :func:`repro.fd.reliable.mine_topk`: same scoring
    entry point, same total order, zero pruning.
    """
    from repro.fd.reliable import fraction_of_information

    entries = exhaustive_reliable_scores(relation, **kwargs)[:k]
    return [
        ReliableFD(
            fd=FD(frozenset(lhs), frozenset({rhs_name})),
            score=score,
            information=fraction_of_information(relation, lhs, rhs_name),
        )
        for score, lhs, rhs_name in entries
    ]


def partition_of_rows(relation, attributes) -> Partition:
    """Row-tuple oracle for :func:`repro.fd.partitions.partition_of`."""
    attributes = sorted(attributes) if not isinstance(attributes, str) else [attributes]
    if not attributes:
        classes = [list(range(len(relation)))] if len(relation) else []
        return Partition.from_classes(classes, len(relation))
    positions = relation.schema.positions(attributes)
    buckets: dict = {}
    for index, row in enumerate(relation.rows):
        key = tuple(row[p] for p in positions)
        buckets.setdefault(key, []).append(index)
    return Partition.from_classes(buckets.values(), len(relation))


def build_tuple_view_rows(relation, value_scope: str = "global") -> TupleView:
    """Row-tuple oracle for :func:`repro.relation.matrices.build_tuple_view`
    (per-row catalog hashing)."""
    _check_scope(value_scope)
    if not relation.rows:
        raise ValueError("cannot build a tuple view of an empty relation")
    catalog = ValueCatalog(scope=value_scope)
    names = relation.schema.names
    arity = len(names)
    cell_mass = 1.0 / arity
    rows = []
    for row in relation.rows:
        sparse: dict = {}
        for name, literal in zip(names, row):
            value_id = catalog.id_for(name, literal)
            sparse[value_id] = sparse.get(value_id, 0.0) + cell_mass
        rows.append(sparse)
    priors = [1.0 / len(rows)] * len(rows)
    return TupleView(relation=relation, rows=rows, priors=priors, catalog=catalog)


def build_value_view_rows(
    relation,
    value_scope: str = "global",
    tuple_clusters: list | None = None,
) -> ValueView:
    """Row-tuple oracle for :func:`repro.relation.matrices.build_value_view`
    (per-row catalog hashing)."""
    _check_scope(value_scope)
    if not relation.rows:
        raise ValueError("cannot build a value view of an empty relation")
    if tuple_clusters is not None and len(tuple_clusters) != len(relation.rows):
        raise ValueError("tuple_clusters must assign a cluster to every tuple")

    catalog = ValueCatalog(scope=value_scope)
    names = relation.schema.names
    membership: list = []
    support: list = []
    tuple_counts: list = []

    for t, row in enumerate(relation.rows):
        column = tuple_clusters[t] if tuple_clusters is not None else t
        seen_in_tuple: set = set()
        for name, literal in zip(names, row):
            value_id = catalog.id_for(name, literal)
            if value_id == len(membership):
                membership.append({})
                support.append({})
                tuple_counts.append(0)
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
        len(set(tuple_clusters)) if tuple_clusters is not None else len(relation.rows)
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
