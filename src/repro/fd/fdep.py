"""FDEP: bottom-up induction of functional dependencies (Savnik & Flach).

The miner the paper uses (Section 8).  Two steps:

1. **Negative cover** -- compare all tuple pairs; the *agree set* of a pair
   (attributes on which the tuples coincide) witnesses the maximal invalid
   dependency ``agree -> A`` for every attribute ``A`` the pair disagrees
   on.  Only maximal agree sets per RHS attribute are kept.
2. **Positive cover** -- for each RHS attribute ``A``, a LHS ``X`` is valid
   iff it is contained in no witnessing agree set; minimal valid LHSs are
   the minimal *hitting sets* of the complements of the witnesses, found by
   depth-first search with subset pruning.

Pair comparison is quadratic in the number of tuples, as in the original
algorithm; it is intended for modest instances (the paper runs it on the
90-tuple DB2 relation and the per-cluster DBLP partitions).  Use
:func:`repro.fd.tane` for wide instances with many tuples.
"""

from __future__ import annotations

import numpy as np

from repro.budget import checkpoint
from repro.fd.dependency import FD
from repro.testing.faults import fault_point

#: Attributes packed into one ``int64`` agree-set word (one bit each, with
#: headroom under the sign bit).
_WORD_BITS = 62


def _signature_matrix(relation) -> np.ndarray:
    """``(arity, n)`` ``int32`` codes, one row per attribute.

    Row ``a`` is the relation's code column of attribute ``a``: two tuples
    agree on the attribute iff their codes are equal.  NULL is a value with
    its own code, so NULL agrees with NULL.
    """
    columns = relation.coded.columns
    sig = np.empty((len(columns), len(relation)), dtype=np.int32)
    for a, column in enumerate(columns):
        sig[a] = column
    return sig


def _agree_masks_block(sig: np.ndarray, start: int, stop: int) -> set:
    """Distinct agree-set bitmasks over the pair rows ``start <= i < stop``.

    Bit ``a`` of a mask is set iff the pair agrees on attribute ``a``.  One
    vectorized compare of row ``i`` against rows ``i+1 .. n-1`` replaces the
    inner Python pair loop.  The agreements pack into one ``int64`` word per
    :data:`_WORD_BITS` attributes; a schema that fits one word deduplicates
    the words directly, a wider one joins each pair's words into one Python
    int (word ``w`` shifted by ``w * _WORD_BITS`` bits).
    """
    arity = sig.shape[0]
    weights = (
        np.int64(1) << np.arange(min(arity, _WORD_BITS), dtype=np.int64)
    )[:, None]
    masks: set = set()
    for i in range(start, stop):
        eq = sig[:, i + 1 :] == sig[:, i : i + 1]
        bits = (eq[:_WORD_BITS] * weights).sum(axis=0)
        if arity <= _WORD_BITS:
            masks.update(np.unique(bits).tolist())
            continue
        joined = bits.tolist()
        for offset in range(_WORD_BITS, arity, _WORD_BITS):
            block = eq[offset : offset + _WORD_BITS]
            words = (block * weights[: block.shape[0]]).sum(axis=0).tolist()
            joined = [low | (word << offset) for low, word in zip(joined, words)]
        masks.update(joined)
    return masks


def _masks_to_sets(masks, names) -> set[frozenset]:
    """Decode agree-set bitmasks back to attribute-name frozensets."""
    return {
        frozenset(name for a, name in enumerate(names) if (mask >> a) & 1)
        for mask in masks
    }


def agree_sets(relation, budget=None) -> set[frozenset]:
    """All distinct agree sets of tuple pairs.

    Computed over the relation's code columns: the scan compares tuple
    ``i`` against all later tuples in one vectorized pass, packing the
    per-attribute agreements into ``int64`` bitmask words (one bit per
    attribute, one word per 62 attributes) and deduplicating masks before
    any frozensets are built.  The same scan serves every schema width.
    """
    names = relation.schema.names
    n = len(relation)
    sig = _signature_matrix(relation)

    fault_point("fd.fdep.pairs")
    masks: set = set()
    for i in range(n - 1):
        checkpoint(budget, units=n - 1 - i, where="fdep.agree_sets")
        masks.update(_agree_masks_block(sig, i, i + 1))
    return _masks_to_sets(masks, names)


def _maximal_sets(sets) -> list[frozenset]:
    """Keep only the inclusion-maximal members."""
    ordered = sorted(set(sets), key=len, reverse=True)
    maximal: list[frozenset] = []
    for candidate in ordered:
        if not any(candidate < kept for kept in maximal):
            maximal.append(candidate)
    return maximal


def negative_cover(relation, budget=None) -> dict[str, list[frozenset]]:
    """Per-attribute maximal invalid LHSs (the witnesses).

    ``negative_cover(r)[A]`` lists the maximal agree sets of pairs that
    disagree on ``A``; any ``X`` inside one of them makes ``X -> A`` false.
    """
    names = relation.schema.names
    witnesses: dict[str, set] = {name: set() for name in names}
    for agree in agree_sets(relation, budget=budget):
        for name in names:
            if name not in agree:
                witnesses[name].add(agree)
    return {name: _maximal_sets(sets) for name, sets in witnesses.items()}


def _minimal_hitting_sets(
    complements: list[frozenset], limit: int | None, budget=None
) -> list[frozenset]:
    """Minimal sets intersecting every complement, by depth-first search.

    ``complements`` lists, for each witness, the attributes a valid LHS may
    draw from to escape that witness.  Standard branch-and-prune: branch on
    the elements of the first un-hit complement; discard supersets of
    already-found hitting sets.
    """
    results: list[frozenset] = []
    ordered = sorted(complements, key=len)

    def search(current: frozenset, remaining: list[frozenset]) -> None:
        checkpoint(budget, where="fdep.hitting_sets")
        if limit is not None and len(results) >= limit:
            return
        unhit = [c for c in remaining if not (current & c)]
        if not unhit:
            if not any(found <= current for found in results):
                results[:] = [f for f in results if not current <= f]
                results.append(current)
            return
        first = min(unhit, key=len)
        if not first:
            return  # impossible to hit an empty complement
        for attribute in sorted(first):
            candidate = current | {attribute}
            if any(found <= candidate for found in results):
                continue
            search(candidate, unhit)

    search(frozenset(), ordered)
    return sorted(results, key=lambda s: (len(s), tuple(sorted(s))))


def fdep(
    relation,
    allow_empty_lhs: bool = False,
    max_lhs_per_attribute: int | None = None,
    budget=None,
) -> list[FD]:
    """Mine all minimal functional dependencies holding on the instance.

    Parameters
    ----------
    relation:
        The instance to mine.  NULL compares equal to NULL.
    allow_empty_lhs:
        When an attribute is constant, the truly minimal dependency is
        ``{} -> A``.  The paper's experiments report singleton LHSs instead
        (e.g. ``Volume -> Journal`` over an all-NULL cluster), so the default
        promotes the empty LHS to every singleton; pass ``True`` for the
        strict reading.
    max_lhs_per_attribute:
        Optional cap on minimal LHSs enumerated per RHS attribute (a safety
        valve for pathological instances; ``None`` = exhaustive).
    budget:
        Optional :class:`repro.budget.Budget`; the quadratic pair scan and
        the hitting-set search checkpoint against it cooperatively and
        raise :class:`repro.errors.ResourceLimitExceeded` when it runs out.
    """
    names = relation.schema.names
    if len(relation) == 0:
        return []
    cover = negative_cover(relation, budget=budget)
    result: list[FD] = []
    for name in names:
        witnesses = cover[name]
        others = frozenset(n for n in names if n != name)
        complements = [others - witness for witness in witnesses]
        for lhs in _minimal_hitting_sets(
            complements, max_lhs_per_attribute, budget=budget
        ):
            if lhs:
                result.append(FD(lhs, {name}))
            elif allow_empty_lhs:
                result.append(FD(frozenset(), {name}))
            else:
                result.extend(FD({other}, {name}) for other in sorted(others))
    return sorted(set(result), key=FD.sort_key)
