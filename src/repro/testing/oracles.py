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

The row-tuple oracles (:func:`partition_of_rows`,
:func:`agree_sets_rows`, :func:`build_tuple_view_rows`,
:func:`build_value_view_rows`) are the per-row twins of the coded-column
builders: they compare or hash the row tuples directly, so the columnar
parity suite can demand exact agreement.

:class:`ReferenceDCFTree` is the DCF-tree without the fused scan: one
:func:`reference_merge_cost` call per entry and an absorb that takes every
log again.  The fused tree must build the same leaves bit for bit, and
``benchmarks/bench_clustering.py`` times the two.

:class:`ReferencePostingsDCFSet` at the end is the Phase-3 postings kernel
as it ran before heavy and light columns: every query gathers every
posting of its columns.  :func:`reference_assign_rows`
runs it over 64-object blocks in the objects' own order; the production
association must pick the same representatives, and the benchmark times
the two.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.clustering.dcf import _LOG2, DCF, LOSS_FLOOR, _xlogx, quantize_loss
from repro.clustering.dcf_tree import _MERGE_EPSILON, DCFTree, _Node
from repro.fd.dependency import FD
from repro.fd.partitions import Partition
from repro.fd.reliable import ReliableFD, reliable_score
from repro.kernels.dense import (
    _NEAR_MINIMUM,
    PostingsDCFSet,
    _quantize,
    _xlogx_positive,
    _xlogx_scalar,
)
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


def agree_sets_rows(relation) -> set[frozenset]:
    """Row-tuple oracle for :func:`repro.fd.fdep.agree_sets`: one tuple
    pair at a time, one attribute at a time (NULL equals NULL)."""
    names = relation.schema.names
    return {
        frozenset(
            name for name, left, right in zip(names, row_i, row_j)
            if left == right
        )
        for row_i, row_j in combinations(relation.rows, 2)
    }


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


def reference_merge_cost(dcf_a: DCF, dcf_b: DCF) -> float:
    """:func:`repro.clustering.dcf.merge_cost` as one scalar body per pair,
    calling :func:`_xlogx` and :func:`quantize_loss`."""
    if len(dcf_b.mass) > len(dcf_a.mass):
        dcf_a, dcf_b = dcf_b, dcf_a
    w = dcf_a.weight + dcf_b.weight
    mass_a = dcf_a.mass
    overlap = 0.0
    for column, m_b in dcf_b.mass.items():
        m_a = mass_a.get(column, 0.0)
        overlap += _xlogx(m_a + m_b) - _xlogx(m_a)
    loss = (
        w * math.log(w)
        - dcf_a.wlogw
        - dcf_b.wlogw
        + dcf_b._mass_log_sum
        - overlap
    ) / _LOG2
    return quantize_loss(max(loss, 0.0))


def reference_closest(dcfs, query: DCF) -> tuple[int, float]:
    """Minimum :func:`reference_merge_cost`, ties to the lowest index."""
    best_index, best_cost = 0, reference_merge_cost(dcfs[0], query)
    for index in range(1, len(dcfs)):
        cost = reference_merge_cost(dcfs[index], query)
        if cost < best_cost:
            best_index, best_cost = index, cost
    return best_index, best_cost


class ReferenceDCFTree(DCFTree):
    """The DCF-tree insert and split with unfused costs and absorbs.

    Every node scan costs each entry with :func:`reference_merge_cost`,
    every absorb recomputes its logs, and a split costs each seed pair
    again.  Rebuilds, booking and counters are the production tree's.
    """

    def _insert_into(self, node: _Node, dcf: DCF):
        if node.is_leaf:
            if node.entries:
                index, cost = reference_closest(node.entries, dcf)
                if cost <= self.threshold + _MERGE_EPSILON:
                    node.entries[index].absorb(dcf)
                    self.n_absorbed += 1
                    return None
            node.entries.append(dcf)
            self.n_leaf_entries += 1
            if len(node.entries) > self.branching:
                return self._split(node)
            return None

        index, _ = reference_closest(node.entries, dcf)
        overflow = self._insert_into(node.children[index], dcf)
        if overflow is None:
            node.entries[index].absorb(dcf)
            return None
        left, right = overflow
        node.entries[index] = self._summary(left)
        node.children[index] = left
        node.entries.insert(index + 1, self._summary(right))
        node.children.insert(index + 1, right)
        if len(node.entries) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _Node):
        entries = node.entries
        seed_a, seed_b, worst = 0, 1, -1.0
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                cost = reference_merge_cost(entries[i], entries[j])
                if cost > worst:
                    seed_a, seed_b, worst = i, j, cost

        group_a, group_b = [seed_a], [seed_b]
        for index in range(len(entries)):
            if index in (seed_a, seed_b):
                continue
            cost_a = reference_merge_cost(entries[index], entries[seed_a])
            cost_b = reference_merge_cost(entries[index], entries[seed_b])
            (group_a if cost_a <= cost_b else group_b).append(index)

        def build(group: list[int]) -> _Node:
            if node.is_leaf:
                return _Node(entries=[entries[i] for i in group])
            return _Node(
                entries=[entries[i] for i in group],
                children=[node.children[i] for i in group],
            )

        return build(group_a), build(group_b)


class ReferencePostingsDCFSet(PostingsDCFSet):
    """:class:`repro.kernels.PostingsDCFSet` as it ran before heavy and
    light columns: every query gathers every posting of its columns, each
    block starts from one base row per distinct prior and adds all of its
    queries' hits with one ``np.bincount``, and every cell near a query's
    minimum is snapped.  The postings build and :meth:`absorb` are the
    production set's.
    """

    def closest(self, mass, weight: float) -> int:
        costs = (_xlogx_positive(self.weights + weight) - self.wlogw
                 - _xlogx_scalar(weight))[None, :]
        self._add_all_hits(costs, [mass], np.ones(1))
        return int(_reference_closest_rows(costs)[0])

    def closest_many(self, rows, priors) -> list[int]:
        weights = np.asarray(priors, dtype=np.float64)
        if (weights <= 0.0).any():
            raise ValueError("cluster prior must be positive")
        unique, inverse = np.unique(weights, return_inverse=True)
        base = _xlogx_positive(self.weights + unique[:, None]) - self.wlogw
        base -= np.array([_xlogx_scalar(w) for w in unique.tolist()])[:, None]
        costs = base[inverse]
        self._add_all_hits(costs, rows, weights)
        return _reference_closest_rows(costs).tolist()

    def _add_all_hits(self, costs, rows, scales) -> None:
        postings = self.postings
        hits = [(posting, p, i) for i, row in enumerate(rows)
                for key, p in row.items()
                if p > 0.0 and (posting := postings.get(key)) is not None]
        if not hits:
            return
        held, values, owners = zip(*hits)
        held_rows, held_masses = zip(*held)
        lengths = np.fromiter(map(len, held_rows), dtype=np.intp,
                              count=len(held_rows))
        owners = np.array(owners)
        values = np.array(values) * scales[owners]
        positions = np.concatenate(held_rows)
        positions += np.repeat(owners * costs.shape[1], lengths)
        masses, merged, terms = np.empty((3, positions.size))
        np.concatenate(held_masses, out=masses)
        np.log(masses, out=terms)
        terms *= masses
        terms += np.repeat(_xlogx_positive(values), lengths)
        masses += np.repeat(values, lengths)
        np.log(masses, out=merged)
        merged *= masses
        terms -= merged
        costs += np.bincount(positions, weights=terms,
                             minlength=costs.size).reshape(costs.shape)


def _reference_closest_rows(costs) -> np.ndarray:
    """Per query, the lowest row with the minimum snapped loss, snapping
    every cell within the grid window of the raw minimum; ``costs`` is
    consumed in place."""
    costs /= _LOG2
    np.maximum(costs, 0.0, out=costs)
    best = costs.min(axis=1, keepdims=True)
    near = costs <= best * _NEAR_MINIMUM + LOSS_FLOOR
    snapped = np.full(costs.shape, np.inf)
    snapped[near] = _quantize(costs[near])
    return snapped.argmin(axis=1)


def reference_assign_rows(representatives, rows, priors) -> list[int]:
    """Phase 3 through :class:`ReferencePostingsDCFSet`, 64 objects a
    block in the objects' own order."""
    postings = ReferencePostingsDCFSet(representatives)
    rows, priors = list(rows), list(priors)
    assignment: list[int] = []
    for start in range(0, len(rows), 64):
        assignment.extend(postings.closest_many(rows[start:start + 64],
                                                priors[start:start + 64]))
    return assignment
