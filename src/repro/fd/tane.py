"""TANE: level-wise functional-dependency discovery over stripped partitions.

Huhtala et al. (cited as [15] in the paper).  Walks the attribute-set lattice
level by level; candidate-RHS sets ``C+`` prune the search, and validity of
``X \\ {A} -> A`` is decided by comparing partition errors.  Scales with the
number of tuples far better than pairwise FDEP, at the cost of being
exponential in the number of attributes -- the right trade for the paper's
DBLP clusters (many tuples, 7 attributes).

This implementation mines exact minimal dependencies (the approximate
``g3``-thresholded variant lives in :mod:`repro.fd.verify`).
"""

from __future__ import annotations

from itertools import combinations

from repro.budget import checkpoint
from repro.fd.dependency import FD
from repro.fd.partitions import Partition, partition_of, product
from repro.testing.faults import fault_point


def _partition_bytes(part: Partition) -> int:
    """Deterministic byte estimate of one stripped partition's footprint."""
    return 96 + 64 * len(part.classes) + 8 * sum(len(c) for c in part.classes)


def tane(
    relation,
    max_lhs_size: int | None = None,
    allow_empty_lhs: bool = False,
    budget=None,
    stats: dict | None = None,
) -> list[FD]:
    """Mine all minimal functional dependencies ``X -> A`` of the instance.

    Parameters
    ----------
    relation:
        The instance (NULL = NULL semantics).
    max_lhs_size:
        Optional cap on LHS size (level cutoff); ``None`` explores the full
        lattice.
    allow_empty_lhs:
        As in :func:`repro.fd.fdep`: constant attributes yield ``{} -> A``
        when ``True``; by default the empty LHS is promoted to every
        singleton, matching the form the paper reports.
    budget:
        Optional :class:`repro.budget.Budget`; partition construction and
        each lattice level checkpoint against it cooperatively and raise
        :class:`repro.errors.ResourceLimitExceeded` when it runs out.
    stats:
        Optional dict filled with work counters; ``partitions_computed``
        counts every stored lattice partition -- the unit
        :class:`repro.fd.reliable.ReliableMiningStats` also counts, so the
        benchmark can compare the two miners' lattice work directly.
    """
    names = tuple(relation.schema.names)
    n = len(relation)
    if n == 0:
        return []
    all_attrs = frozenset(names)
    governor = getattr(budget, "memory", None)

    partitions: dict[frozenset, Partition] = {}
    booked: dict[frozenset, int] = {}

    def store(key: frozenset, part: Partition) -> None:
        """Keep a partition, booking its footprint with the governor."""
        if governor is not None:
            n_bytes = _partition_bytes(part)
            governor.reserve(n_bytes, where="tane.partition")
            booked[key] = n_bytes
        if stats is not None:
            stats["partitions_computed"] = (
                stats.get("partitions_computed", 0) + 1)
        partitions[key] = part

    def free_below(cutoff: int) -> None:
        """Drop every partition with fewer than ``cutoff`` attributes.

        Validity at level ``l`` compares partition errors of sizes
        ``l - 1`` and ``l`` only, and next-level products consume sizes
        ``l`` only -- once level ``l + 1`` partitions exist, everything
        below level ``l`` is dead weight.  This bounds TANE's partition
        store to two lattice levels regardless of schema width.
        """
        for key in [k for k in partitions if len(k) < cutoff]:
            del partitions[key]
            if governor is not None:
                governor.release(booked.pop(key, 0))

    empty = frozenset()

    # C+ candidate sets, per TANE.
    cplus: dict[frozenset, frozenset] = {empty: all_attrs}
    results: list[FD] = []

    level: list[frozenset] = [frozenset([name]) for name in names]
    level_number = 1
    try:
        for name in names:
            checkpoint(budget, units=n, where="tane.partition_of")
            store(frozenset([name]), partition_of(relation, [name]))
        store(empty, partition_of(relation, []))
        results = _tane_levels(
            relation, level, level_number, all_attrs, partitions, cplus,
            results, max_lhs_size, budget, store, free_below,
        )
    finally:
        # Whatever survives (two levels at most) is dead once mining ends
        # or an error propagates; return the governor's bytes either way.
        free_below(len(all_attrs) + 2)

    if max_lhs_size is not None:
        results = [fd for fd in results if len(fd.lhs) <= max_lhs_size]
    minimal = _minimize(results)
    if not allow_empty_lhs:
        promoted: list[FD] = []
        for fd in minimal:
            if fd.lhs:
                promoted.append(fd)
            else:
                (rhs_attribute,) = fd.rhs
                promoted.extend(
                    FD({other}, fd.rhs)
                    for other in sorted(all_attrs - {rhs_attribute})
                )
        minimal = set(promoted)
    return sorted(set(minimal), key=FD.sort_key)


def _tane_levels(relation, level, level_number, all_attrs, partitions, cplus,
                 results, max_lhs_size, budget, store, free_below):
    """The level-wise lattice walk (the body of :func:`tane`)."""
    names = tuple(relation.schema.names)
    n = len(relation)

    def cplus_of(subset: frozenset) -> frozenset:
        """C+ of any lattice node, computed on demand.

        Key pruning skips generating supersets of (super)keys, but the
        minimality test at a key node still needs the C+ of those
        never-generated siblings; it is well-defined as the intersection of
        the C+ of the node's immediate subsets, recursively.
        """
        known = cplus.get(subset)
        if known is not None:
            return known
        if not subset:
            return all_attrs
        computed = frozenset.intersection(
            *(cplus_of(subset - {attribute}) for attribute in subset)
        )
        cplus[subset] = computed
        return computed

    while level:
        fault_point("fd.tane.level", partitions)
        checkpoint(budget, units=len(level), where="tane.level")
        # -- compute dependencies at this level ---------------------------------
        for x in level:
            cplus[x] = frozenset.intersection(
                *(cplus[x - {a}] for a in x)
            ) if x else all_attrs
        for x in level:
            for a in sorted(x & cplus[x]):
                lhs = x - {a}
                if _valid(lhs, a, partitions):
                    results.append(FD(lhs, {a}))
                    cplus[x] = cplus[x] - {a}
                    cplus[x] = cplus[x] - (all_attrs - x)

        # -- prune ---------------------------------------------------------------
        survivors = []
        for x in level:
            if not cplus[x]:
                continue
            if partitions[x].is_superkey():
                for a in sorted(cplus[x] - x):
                    sibling_cplus = [cplus_of((x | {a}) - {b}) for b in x]
                    if sibling_cplus and a in frozenset.intersection(*sibling_cplus):
                        results.append(FD(x, {a}))
                continue
            survivors.append(x)

        if max_lhs_size is not None and level_number > max_lhs_size:
            break

        # -- generate next level (prefix join) -----------------------------------
        next_level: set[frozenset] = set()
        pending: dict[frozenset, tuple] = {}
        survivor_set = set(survivors)
        ordered = sorted(survivors, key=lambda s: tuple(sorted(s)))
        by_prefix: dict[tuple, list[frozenset]] = {}
        for x in ordered:
            prefix = tuple(sorted(x))[:-1]
            by_prefix.setdefault(prefix, []).append(x)
        for siblings in by_prefix.values():
            for x, y in combinations(siblings, 2):
                candidate = x | y
                if len(candidate) != level_number + 1:
                    continue
                if all(candidate - {a} in survivor_set for a in candidate):
                    next_level.add(candidate)
                    if candidate not in partitions and candidate not in pending:
                        pending[candidate] = (x, y)
        for candidate in sorted(pending, key=lambda s: tuple(sorted(s))):
            checkpoint(budget, units=n, where="tane.product")
            x, y = pending[candidate]
            store(candidate, product(partitions[x], partitions[y]))
        # Free partitions of the previous level: with level l+1 generated,
        # validity and products only ever touch sizes l and l+1 again.
        free_below(level_number)
        level = sorted(next_level, key=lambda s: tuple(sorted(s)))
        level_number += 1

    return results


def _valid(lhs: frozenset, rhs_attribute: str, partitions) -> bool:
    """``lhs -> rhs`` iff adding the RHS attribute refines nothing."""
    x = partitions.get(lhs)
    xa = partitions.get(lhs | {rhs_attribute})
    if x is None or xa is None:
        return False
    return x.error == xa.error


def _minimize(fds: list[FD]) -> list[FD]:
    """Drop dependencies whose LHS strictly contains another valid LHS."""
    by_rhs: dict[frozenset, list[frozenset]] = {}
    for fd in fds:
        by_rhs.setdefault(fd.rhs, []).append(fd.lhs)
    minimal: list[FD] = []
    for rhs, lhss in by_rhs.items():
        unique = sorted(set(lhss), key=len)
        kept: list[frozenset] = []
        for lhs in unique:
            if not any(existing < lhs for existing in kept):
                kept.append(lhs)
        minimal.extend(FD(lhs, rhs) for lhs in kept)
    return minimal
