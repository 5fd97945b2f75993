"""Reliable approximate and top-k FD mining by bias-corrected information.

Exact TANE/FDEP walk the full attribute lattice; FD-RANK (paper Section 6)
only needs a *ranking*.  This module collapses the two passes into one
branch-and-bound search that scores candidate dependencies ``X -> Y`` by
the **bias-corrected fraction of information** of Mandros et al.
("Discovering Reliable Approximate Functional Dependencies"):

    F0(X -> Y) = ( I(X; Y) - EMI(X, Y) ) / H(Y)        clamped to [0, 1]

``I/H`` is the plug-in fraction of information (1.0 exactly when ``X -> Y``
holds); ``EMI`` is the *expected* mutual information between the two
partitions under the permutation null model -- the score an uninformative
LHS with the same partition shape would get by chance.  Subtracting it
stops near-keys (high-cardinality LHSs) from looking like dependencies,
which is precisely the failure mode of raw ``g3``-style error on samples.

Search follows Wan & Han ("Redundancy-Driven Top-k FD Discovery"): a
set-enumeration tree per RHS over the coded int32 columns (a partition is
refined one column at a time by :func:`repro.relation.columns.refine`).
A node ``X`` with tail ``T`` in the tree of a root whose closure (the root
and its whole tail) is ``C`` is pruned with the admissible bound

    F0(X' -> Y) <= max(0, I(C; Y)/H(Y) - EMI(X; Y)/H(Y))
                                            for every X <= X' <= X u T

Refining the LHS never lowers the plug-in MI, and never lowers the EMI
either: EMI is the mean over row permutations of a plug-in MI, the
monotonicity Mandros et al. prune with.  ``I(C; Y)`` is one closure
partition per (rhs, root) tree; the node's EMI comes from the memo.
Pruning is *strict* (``ub < threshold``), so score ties at the top-k
boundary are never discarded and the result is a pure function of the
candidate set -- independent of traversal order and the pruning schedule.

Sampled mode scores on a seeded row sample (``repro.seeding``) and attaches
a conservative confidence radius to every result; callers must surface the
degradation (discovery flags the run DEGRADED and never checkpoints sampled
results as exact).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.budget import checkpoint
from repro.fd.dependency import FD
from repro.relation.columns import TABLE_KEYS_PER_ROW, refine
from repro.seeding import sample_indices
from repro.testing.faults import fault_point

__all__ = [
    "ReliableFD",
    "ReliableMiningStats",
    "expected_mutual_information",
    "fraction_of_information",
    "reliable_score",
    "specialization_upper_bound",
    "confidence_radius",
    "mine_reliable_fds",
    "mine_topk",
]

#: Compact the candidate buffer when it outgrows this multiple of k.
_COMPACT_FACTOR = 8

#: Cross-RHS partition memo capacity (LRU; entries are governor-booked).
_MEMO_ENTRIES = 1024

#: Relative rounding slack on the EMI term of the pruning bound.
_EMI_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Scoring: plug-in information and the permutation-model correction.
# ---------------------------------------------------------------------------


def _log_factorial_table(n: int) -> np.ndarray:
    """``table[i] = ln(i!)`` for ``0 <= i <= n`` via one cumulative sum."""
    table = np.zeros(n + 1)
    if n >= 2:
        table[2:] = np.cumsum(np.log(np.arange(2.0, n + 1.0)))
    return table


def expected_mutual_information(a_counts, b_counts, logfact=None) -> float:
    """``E[I(A; B)]`` under the permutation (hypergeometric) null model.

    ``a_counts`` and ``b_counts`` are the class sizes of two partitions of
    the same ``n`` rows.  Under the null, the rows of ``B`` are randomly
    permuted against ``A``; the expected contingency cell ``n_ij`` then
    follows a hypergeometric law, and the expectation depends only on the
    two class-*size* multisets.  We therefore sum over unique size pairs
    weighted by their multiplicities -- the standard exact EMI computation
    (Vinh et al.), vectorized over the inner ``n_ij`` range.

    Natural-log units (the caller only ever uses ratios of information
    quantities, so the base cancels).
    """
    a = np.asarray(a_counts, dtype=np.int64)
    b = np.asarray(b_counts, dtype=np.int64)
    a = a[a > 0]
    b = b[b > 0]
    n = int(a.sum())
    if n != int(b.sum()):
        raise ValueError("EMI needs two partitions of the same row count")
    if n <= 1 or a.size <= 1 or b.size <= 1:
        return 0.0
    table = _log_factorial_table(n) if logfact is None else logfact
    a_sizes, a_mult = _size_multiset(a)
    b_sizes, b_mult = _size_multiset(b)
    # One flat pass over every (a_i, b_j, n_ij) triple: the per-pair n_ij
    # ranges are concatenated (repeat/cumsum segmentation), so the whole
    # expectation is a handful of large vector ops instead of ~u_a * u_b
    # tiny ones.  The summation order is fixed by the sorted unique sizes,
    # hence a pure function of the two count multisets.
    ai = np.repeat(a_sizes, b_sizes.size)
    ma = np.repeat(a_mult, b_sizes.size)
    bj = np.tile(b_sizes, a_sizes.size)
    mb = np.tile(b_mult, a_sizes.size)
    lo = np.maximum(1, ai + bj - n)
    hi = np.minimum(ai, bj)
    lengths = hi - lo + 1
    keep = lengths > 0
    ai, ma, bj, mb, lo, lengths = (
        ai[keep], ma[keep], bj[keep], mb[keep], lo[keep], lengths[keep])
    if lengths.size == 0:
        return 0.0
    total_len = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    nij = (np.arange(total_len, dtype=np.int64)
           - np.repeat(starts, lengths) + np.repeat(lo, lengths))
    ai_f = np.repeat(ai, lengths)
    bj_f = np.repeat(bj, lengths)
    mult = np.repeat(ma * mb, lengths).astype(np.float64)
    # Hypergeometric log-pmf of the cell count n_ij.
    log_p = (
        table[bj_f] - table[nij] - table[bj_f - nij]
        + table[n - bj_f] - table[ai_f - nij]
        - table[n - bj_f - ai_f + nij]
        - table[n] + table[ai_f] + table[n - ai_f]
    )
    # (n_ij / n) * ln(n * n_ij / (a_i * b_j))
    terms = (nij / n) * (np.log(nij) + math.log(n)
                         - np.log(ai_f) - np.log(bj_f))
    total = float(np.sum(mult * np.exp(log_p) * terms))
    return max(total, 0.0)


@dataclass
class ReliableMiningStats:
    """Work counters for one mining run.

    ``candidates_scored`` counts the visited nodes that got a bias-corrected
    score (EMI from the memo or computed) and were offered to the result;
    nodes whose plug-in fraction was already below the threshold are
    visited but not scored, so it never exceeds ``nodes_visited``.
    ``partitions_computed`` counts materialized lattice partitions -- one
    per visited node plus one per upper-bound evaluation -- the same unit
    TANE's ``stats`` counts per stored partition, so the two miners are
    directly comparable.  ``pruned`` records ``(rhs, lhs, tail)`` name
    tuples for every cut subtree; the admissibility property tests replay
    them against the brute-force oracle.
    """

    nodes_visited: int = 0
    candidates_scored: int = 0
    partitions_computed: int = 0
    subtrees_pruned: int = 0
    sampled_rows: int | None = None
    pruned: list = field(default_factory=list)


def _canonical_entropy(counts: np.ndarray) -> float:
    """Natural-log entropy of a count vector, independent of label order.

    Partitions reached along different fold paths carry permuted group
    labels; summing the very same masses in a different order can move the
    float result by an ulp.  Sorting the positive counts first makes every
    entropy a pure function of the count *multiset*, which is what lets the
    cross-RHS partition memo and the per-set entropy memo stay
    bit-identical to a memo-less pass.  The arithmetic is
    :func:`repro.infotheory.entropy_of_counts`'s in natural log, float for
    float, without its coercion and validation passes.
    """
    positive = np.sort(counts[counts > 0])
    total = float(positive.sum())
    if total <= 0.0:
        return 0.0
    p = positive / total
    return float(-(p * np.log(p)).sum()) + 0.0


def _size_multiset(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct positive sizes of a non-negative int64 count
    vector and their multiplicities, as ``np.unique(..., return_counts=True)``
    gives them.

    Read off one ``np.bincount`` of the sizes.  Its table has ``max + 1 <=
    n + 1`` slots for counts over ``n`` rows, so it always fits the
    :func:`repro.relation.columns.refine` rule of 8 slots per row.
    """
    table = np.bincount(counts)
    table[:1] = 0
    sizes = np.flatnonzero(table)
    return sizes, table[sizes]


def _size_runs(counts: np.ndarray) -> bytes:
    """A class-size multiset in run-length form, as one bytes key.

    The sorted unique positive sizes followed by their multiplicities (both
    int64, equal length, so the split is implied): two count vectors map to
    the same key exactly when they are the same multiset, and
    :func:`expected_mutual_information` depends on nothing else.  On DBLP
    2,000 a run's keys take about a tenth of the bytes of the sorted counts.
    """
    sizes, mult = _size_multiset(np.asarray(counts, dtype=np.int64))
    return sizes.tobytes() + mult.tobytes()


class _Scorer:
    """Information quantities over one coded relation, natural-log units.

    Partitions are row-group inverse arrays (``inv``) plus their group
    sizes, refined one column at a time by
    :func:`repro.relation.columns.refine` -- the same kernel as
    :func:`repro.fd.partitions.partition_of`, minus the stripped-class
    bookkeeping the lattice miners need.

    Every memo is keyed by the attribute *set* as one integer bitmask of
    schema positions (bit ``p`` set for attribute ``p``; Python ints have no
    width limit, so any arity works).  An LRU memo shares partitions across
    the per-RHS search trees (an LHS like ``{Month, School}`` appears in up
    to ``arity`` trees); every hit is one whole fused-key pass saved, which
    is how the miner's partition count stays below level-wise TANE's.
    Entries are booked with the memory governor and released on LRU
    eviction, so a capped run degrades to recomputation instead of growing
    without bound.

    An entropy memo maps a set to ``(H, classes)``, so ``I(X;Y) = H(X) +
    H(Y) - H(X u Y)`` reads both set entropies from a dict and fuses the
    joint only on a miss.  :func:`_canonical_entropy` sorts the positive
    counts, so ``H`` depends only on the set's class-size multiset, which
    the fold order that reached the set does not change: a hit is
    bit-identical to a recomputation.  On the DB2 sample (seed 1, top-10,
    LHS <= 3) the search evaluates 3,350 entropies instead of 13,007.  The
    LHS class sizes in run-length form (:func:`_size_runs`) are kept per set
    as well.

    The EMI memo maps the pair of class-size multisets (LHS counts, RHS
    marginal, each as :func:`_size_runs`) to its EMI, for a score or for a
    pruning bound.  Far fewer multiset pairs than nodes occur (684 for the
    6,350 nodes of the DB2 sample, seed 1), and the EMI is a pure function
    of the pair, so a hit is bit-identical to a recomputation.  The
    entropy, size-run and EMI entries are small and never evicted; they are
    booked with the governor too and returned by :meth:`release_memo`.
    """

    def __init__(self, relation, budget=None,
                 stats: ReliableMiningStats | None = None,
                 memo_entries: int = None):
        store = relation.coded
        self.n = int(store.n_rows)
        self.names = list(store.names)
        self.columns = [np.asarray(c, dtype=np.int64) for c in store.columns]
        self.cards = [max(1, len(d)) for d in store.dictionaries]
        self.budget = budget
        self.stats = stats if stats is not None else ReliableMiningStats()
        self.logfact = _log_factorial_table(self.n)
        self.marginals = [
            np.bincount(col, minlength=card)
            for col, card in zip(self.columns, self.cards)
        ]
        self.h = [_canonical_entropy(counts) for counts in self.marginals]
        self._marginal_runs = [_size_runs(counts) for counts in self.marginals]
        self._memo: OrderedDict = OrderedDict()
        self._memo_cap = _MEMO_ENTRIES if memo_entries is None else memo_entries
        self._governor = getattr(budget, "memory", None)
        self._booked: dict = {}
        # Singletons come with the marginals, part of the scorer's fixed
        # per-attribute state (like ``h``), so they are not booked.
        self._entropies: dict[int, tuple[float, int]] = {
            1 << p: (h, int(np.count_nonzero(counts)))
            for p, (h, counts) in enumerate(zip(self.h, self.marginals))
        }
        self._runs: dict[int, bytes] = {}
        self._emi_memo: dict = {}
        self._dict_booked = 0
        self._roots_counted: set[int] = set()

    def release_memo(self) -> None:
        """Return every booked memo byte to the governor."""
        self._memo.clear()
        self._entropies.clear()
        self._runs.clear()
        self._emi_memo.clear()
        if self._governor is not None:
            for key in list(self._booked):
                self._governor.release(self._booked.pop(key))
            self._governor.release(self._dict_booked)
        self._dict_booked = 0

    def _book(self, n_bytes: int, where: str) -> None:
        """Reserve a never-evicted memo entry until :meth:`release_memo`."""
        if self._governor is not None:
            self._governor.reserve(n_bytes, where=where)
            self._dict_booked += n_bytes

    def _lookup(self, key: int):
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
        return hit

    def _remember(self, key: int, inv, counts) -> None:
        if self._memo_cap <= 0:
            return
        if self._governor is not None:
            n_bytes = int(inv.nbytes) + int(counts.nbytes)
            self._governor.reserve(n_bytes, where="fd.reliable.memo")
            self._booked[key] = n_bytes
        self._memo[key] = (inv, counts)
        if len(self._memo) > self._memo_cap:
            old_key, _ = self._memo.popitem(last=False)
            if self._governor is not None:
                self._governor.release(self._booked.pop(old_key, 0))

    def root(self, position: int):
        """The singleton partition of one attribute (codes are dense)."""
        if position not in self._roots_counted:
            self._roots_counted.add(position)
            self.stats.partitions_computed += 1
        return self.columns[position], self.marginals[position]

    def extend(self, key: int, inv: np.ndarray, counts: np.ndarray,
               position: int):
        """The partition of ``key | {position}``, via memo or one
        refinement of ``(inv, counts)`` by the attribute."""
        child_key = key | 1 << position
        hit = self._lookup(child_key)
        if hit is not None:
            return hit
        self.stats.partitions_computed += 1
        child_inv, child_counts = refine(inv, len(counts),
                                         self.columns[position],
                                         self.cards[position])
        self._remember(child_key, child_inv, child_counts)
        return child_inv, child_counts

    def _entropy(self, key: int, counts: np.ndarray) -> tuple[float, int]:
        """``(H, classes)`` of the set ``key`` with class sizes ``counts``."""
        entry = self._entropies.get(key)
        if entry is None:
            entry = (_canonical_entropy(counts), int(np.count_nonzero(counts)))
            self._remember_entropy(key, entry)
        return entry

    def _remember_entropy(self, key: int, entry: tuple[float, int]) -> None:
        # The key's bytes, then H and the class count at 8 bytes each.
        self._book((key.bit_length() + 7) // 8 + 16, "fd.reliable.entropy")
        self._entropies[key] = entry

    def information(self, key: int, inv: np.ndarray, counts: np.ndarray,
                    y_position: int):
        """``(I(X;Y), support)`` where support = occupied joint cells.

        ``H(X)`` is read under ``key`` and ``H(X u Y)`` under ``key | {y}``;
        only a miss fuses the joint.  Its class sizes come from one
        ``np.bincount`` over the ``len(counts) * card_y`` fused keys under
        :func:`repro.relation.columns.refine`'s rule of 8 slots per row;
        above it (a near-key LHS, whose grid would be ``O(n * card_y)``
        cells) they come from ``np.unique``, which never exceeds ``n``.
        """
        joint_key = key | 1 << y_position
        joint = self._entropies.get(joint_key)
        if joint is None:
            card = self.cards[y_position]
            fused = inv * card + self.columns[y_position]
            if len(counts) * card <= TABLE_KEYS_PER_ROW * self.n:
                sizes = np.bincount(fused)
            else:
                _, sizes = np.unique(fused, return_counts=True)
            joint = self._entropy(joint_key, sizes)
        h_joint, support = joint
        h_x, _ = self._entropy(key, counts)
        mi = max(h_x + self.h[y_position] - h_joint, 0.0)
        return mi, support

    def score(self, key: int, inv: np.ndarray, counts: np.ndarray,
              y_position: int, floor: float = -math.inf):
        """``(F0, F, support)`` for one candidate against attribute ``y``.

        Returns ``None``, without the EMI, when the plug-in fraction ``F``
        is below ``floor``: ``F0 <= F`` because EMI >= 0, so such a
        candidate cannot reach a result whose threshold is ``floor``.
        """
        h_y = self.h[y_position]
        if h_y <= 0.0:
            return 0.0, 0.0, 1
        mi, support = self.information(key, inv, counts, y_position)
        fraction = min(1.0, mi / h_y)
        if fraction < floor:
            return None
        emi = self.emi(key, counts, y_position)
        self.stats.candidates_scored += 1
        corrected = min(1.0, max(0.0, (mi - emi) / h_y))
        return corrected, fraction, support

    def emi(self, key: int, counts: np.ndarray, y_position: int) -> float:
        """``EMI(X;Y)`` of the set ``key`` with class sizes ``counts``, read
        through the size-run and EMI memos."""
        runs = self._runs.get(key)
        if runs is None:
            runs = _size_runs(counts)
            self._remember_runs(key, runs)
        emi_key = (runs, self._marginal_runs[y_position])
        emi = self._emi_memo.get(emi_key)
        if emi is None:
            emi = expected_mutual_information(
                counts, self.marginals[y_position], self.logfact)
            self._remember_emi(emi_key, emi)
        return emi

    def _remember_runs(self, key: int, runs: bytes) -> None:
        self._book((key.bit_length() + 7) // 8 + len(runs),
                   "fd.reliable.entropy")
        self._runs[key] = runs

    def _remember_emi(self, key: tuple, emi: float) -> None:
        self._book(len(key[0]) + len(key[1]) + 8, "fd.reliable.emi")
        self._emi_memo[key] = emi

    def upper_bound(self, key: int, inv: np.ndarray, counts: np.ndarray,
                    tail_positions, y_position: int):
        """The plug-in fraction ``I(X u T; Y)/H(Y)`` of the closure of
        ``key`` and its tail: the first term of :meth:`bound`.

        The closure partition is folded from-scratch and counted as *one*
        materialized partition -- the same unit as TANE's ``partition_of``,
        which also hides its internal per-attribute fuses.  Only the final
        closure is memoized: the intermediates are never scored, and suffix
        closures repeat heavily across RHS trees (``{r..m}`` is shared by
        every ``y < r``).
        """
        closure_key = key
        for p in tail_positions:
            closure_key |= 1 << p
        hit = self._lookup(closure_key)
        if hit is None:
            closure, sizes = inv, counts
            for p in tail_positions:
                closure, sizes = refine(closure, len(sizes), self.columns[p],
                                        self.cards[p])
            self.stats.partitions_computed += 1
            self._remember(closure_key, closure, sizes)
        else:
            closure, sizes = hit
        mi, _ = self.information(closure_key, closure, sizes, y_position)
        return min(1.0, mi / self.h[y_position])

    def bound(self, closure_bound: float, key: int, counts: np.ndarray,
              y_position: int) -> float:
        """Admissible bound on ``F0(X' -> Y)`` for every ``X'`` between the
        set ``key`` (class sizes ``counts``) and a closure whose plug-in
        fraction is ``closure_bound``.

        EMI is the mean over row permutations ``s`` of the plug-in
        ``I(X; Y o s)``, and for each ``s`` that MI only grows when ``X``
        is refined.  So ``EMI(X') >= EMI(X)`` and ``I(X'; Y)`` is at most
        the closure's, which gives ``F0(X' -> Y) <= closure_bound -
        EMI(X; Y)/H(Y)``.  The EMI is shrunk by ``_EMI_SLACK`` to absorb
        rounding, and the bound is clamped at 0 as the score is: strict
        pruning against a threshold of 0.0 must keep the ties there.
        """
        emi = self.emi(key, counts, y_position)
        return max(0.0, closure_bound
                   - emi * (1.0 - _EMI_SLACK) / self.h[y_position])


# ---------------------------------------------------------------------------
# Public scoring helpers (the oracle and the property suites call these).
# ---------------------------------------------------------------------------


def _fold(scorer: _Scorer, positions) -> tuple:
    """``(key, inv, counts)`` of an attribute set, folded in ``positions``
    order."""
    inv, counts = scorer.root(positions[0])
    key = 1 << positions[0]
    for p in positions[1:]:
        inv, counts = scorer.extend(key, inv, counts, p)
        key |= 1 << p
    return key, inv, counts


def _positions(relation, names) -> list[int]:
    schema = list(relation.coded.names)
    missing = [a for a in names if a not in schema]
    if missing:
        raise ValueError(f"unknown attribute(s) {missing!r}")
    return [schema.index(a) for a in names]


def fraction_of_information(relation, lhs, rhs) -> float:
    """Plug-in ``I(X;Y)/H(Y)`` -- 1.0 exactly when ``X -> Y`` holds."""
    scorer = _Scorer(relation)
    (y,) = _positions(relation, [rhs])
    lhs_positions = sorted(_positions(relation, list(lhs)))
    if not lhs_positions:
        raise ValueError("lhs must be non-empty")
    if scorer.h[y] <= 0.0:
        return 0.0
    mi, _ = scorer.information(*_fold(scorer, lhs_positions), y)
    return min(1.0, mi / scorer.h[y])


def reliable_score(relation, lhs, rhs) -> float:
    """Bias-corrected fraction of information ``F0(lhs -> rhs)`` in [0, 1]."""
    scorer = _Scorer(relation)
    (y,) = _positions(relation, [rhs])
    lhs_positions = sorted(_positions(relation, list(lhs)))
    if not lhs_positions:
        raise ValueError("lhs must be non-empty")
    score, _, _ = scorer.score(*_fold(scorer, lhs_positions), y)
    return score


def specialization_upper_bound(relation, lhs, tail, rhs) -> float:
    """Admissible bound on ``F0(X' -> rhs)`` for every ``lhs <= X' <= lhs u tail``.

    The bound the search prunes with (:meth:`_Scorer.bound`): the closure's
    plug-in fraction minus the EMI fraction of ``lhs``, clamped at 0.
    """
    scorer = _Scorer(relation)
    (y,) = _positions(relation, [rhs])
    lhs_positions = sorted(_positions(relation, list(lhs)))
    tail_positions = sorted(_positions(relation, list(tail)))
    if not lhs_positions:
        raise ValueError("lhs must be non-empty")
    if scorer.h[y] <= 0.0:
        return 0.0
    key, inv, counts = _fold(scorer, lhs_positions)
    return scorer.bound(
        scorer.upper_bound(key, inv, counts, tail_positions, y),
        key, counts, y)


def confidence_radius(m: int, support: int, alpha: float, h_y: float) -> float:
    """Conservative half-width of the sampled-score confidence interval.

    With probability ``>= 1 - alpha`` over the row sample, the exact score
    lies within ``radius`` of the sampled one.  The bound combines a
    McDiarmid deviation for the three plug-in entropies (replacing one of
    ``m`` rows moves each by at most ``~ln(m)/m``) with a Miller-Madow
    style bias term ``~support/m``, normalized by the sampled ``H(Y)``.
    Scores live in [0, 1], so the radius is capped at 1.0 -- once the cap
    binds the interval is trivially valid, which keeps the guarantee
    honest even for tiny samples.
    """
    if m <= 0:
        return 1.0
    deviation = 3.0 * math.log(max(m, 2)) * math.sqrt(
        math.log(4.0 / alpha) / (2.0 * m))
    bias = 4.0 * support / m
    return min(1.0, (deviation + bias) / max(h_y, 1e-9))


# ---------------------------------------------------------------------------
# The branch-and-bound search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliableFD:
    """One mined dependency with its reliability evidence.

    ``score`` is the bias-corrected fraction of information, ``information``
    the uncorrected plug-in fraction (``1.0`` iff the FD holds exactly on
    the scored rows).  ``sampled`` marks scores computed on a row sample;
    ``confidence_radius`` then bounds ``|exact - sampled|`` at the miner's
    confidence level (0.0 for exact runs).
    """

    fd: FD
    score: float
    information: float
    sampled: bool = False
    confidence_radius: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - display convenience
        tag = f" ±{self.confidence_radius:.3f}" if self.sampled else ""
        return f"{self.fd} [score={self.score:.4f}{tag}]"


class _Collector:
    """Accumulates scored candidates and exposes the pruning threshold.

    In ``topk`` mode the threshold is the current k-th best *score* (ties
    ignored), tracked with a bounded min-heap; candidates below it are
    discarded lazily so boundary ties always survive to final selection.
    In ``reliable`` mode the threshold is the fixed ``min_score``.

    The buffer is compacted (entries below the threshold dropped) when it
    outgrows a trigger.  Ties at the threshold all survive a compaction, so
    after one the trigger moves to twice the kept size: a run where many
    candidates tie at the k-th score would otherwise re-filter the same tied
    entries on every add.
    """

    def __init__(self, mode: str, k: int, min_score: float):
        self.mode = mode
        self.k = k
        self.min_score = min_score
        self.entries: list[tuple[float, float, int, tuple, str]] = []
        self._heap: list[float] = []
        self._compact_at = max(64, _COMPACT_FACTOR * k)

    def threshold(self) -> float:
        if self.mode == "reliable":
            return self.min_score
        if len(self._heap) < self.k:
            return -math.inf
        return self._heap[0]

    def add(self, score: float, fraction: float, support: int,
            lhs_names: tuple, rhs_name: str) -> None:
        if self.mode == "reliable":
            if score >= self.min_score:
                self.entries.append(
                    (score, fraction, support, lhs_names, rhs_name))
            return
        heappush(self._heap, score)
        if len(self._heap) > self.k:
            heappop(self._heap)
        self.entries.append((score, fraction, support, lhs_names, rhs_name))
        if len(self.entries) > self._compact_at:
            floor = self.threshold()
            self.entries = [e for e in self.entries if e[0] >= floor]
            self._compact_at = max(64, _COMPACT_FACTOR * self.k,
                                   2 * len(self.entries))

    def results(self) -> list[tuple[float, float, int, tuple, str]]:
        """Final selection under the deterministic total order."""
        ordered = sorted(
            self.entries,
            key=lambda e: (-e[0], tuple(sorted(e[3])), e[4]),
        )
        if self.mode == "reliable":
            return ordered
        return ordered[: self.k]


def _descend(scorer: _Scorer, collector: _Collector, y: int,
             chosen: tuple, key: int, inv, counts, tail: tuple,
             max_lhs_size: int, tree_bound: float | None) -> None:
    """Score the node ``chosen -> y`` and recurse over its tail.

    ``tree_bound`` is the plug-in fraction of the root subtree's closure.
    Every node's own closure is a subset of the root's, so the node's tail
    is cut when :meth:`_Scorer.bound` -- ``tree_bound`` less the node's own
    EMI fraction -- is below the threshold.  It is checked at every node
    with a tail, because the threshold keeps rising while the tree is
    walked and the EMI grows with the depth.  The node's EMI is read only
    when ``tree_bound`` alone does not already cut.

    A node whose plug-in fraction is below the threshold is not scored and
    not offered to the collector (its corrected score would be below it
    too, and the collector would drop it).  Its subtree is still walked
    unless the bound cuts it, so the search is the same with or without the
    skip.
    """
    checkpoint(scorer.budget, units=scorer.n, where="fd.reliable.node")
    fault_point("fd.reliable.node")
    scorer.stats.nodes_visited += 1
    scored = scorer.score(key, inv, counts, y, floor=collector.threshold())
    if scored is not None:
        collector.add(*scored, tuple(scorer.names[p] for p in chosen),
                      scorer.names[y])
    usable_tail = tail if len(chosen) < max_lhs_size else ()
    if not usable_tail:
        return
    threshold = collector.threshold()
    if threshold > -math.inf and (
            tree_bound < threshold
            or scorer.bound(tree_bound, key, counts, y) < threshold):
        scorer.stats.subtrees_pruned += 1
        scorer.stats.pruned.append((
            scorer.names[y],
            tuple(scorer.names[p] for p in chosen),
            tuple(scorer.names[p] for p in usable_tail),
        ))
        return
    for i, t in enumerate(usable_tail):
        child_inv, child_counts = scorer.extend(key, inv, counts, t)
        _descend(scorer, collector, y, chosen + (t,), key | 1 << t,
                 child_inv, child_counts, usable_tail[i + 1:], max_lhs_size,
                 tree_bound)


def _run_jobs(scorer: _Scorer, collector: _Collector, jobs,
              max_lhs_size: int) -> None:
    """Run ``(rhs_position, root_position, tail_positions)`` subtrees."""
    for y, root, tail in jobs:
        if scorer.h[y] <= 0.0:
            continue  # constant RHS: F0 is 0/0 -- excluded by definition
        inv, counts = scorer.root(root)
        tail = tuple(tail)
        root_key = 1 << root
        tree_bound = (scorer.upper_bound(root_key, inv, counts, tail, y)
                      if tail else None)
        _descend(scorer, collector, y, (root,), root_key, inv,
                 counts, tail, max_lhs_size, tree_bound)


def _subtree_jobs(arity: int, rhs_positions) -> list[tuple[int, int, tuple]]:
    """The full job list: every (rhs, root) set-enumeration subtree.

    Tails follow canonical schema order, so the candidate set -- and with
    it the mined result -- is a pure function of the schema.
    """
    jobs = []
    for y in rhs_positions:
        others = [p for p in range(arity) if p != y]
        for i, root in enumerate(others):
            jobs.append((y, root, tuple(others[i + 1:])))
    return jobs


def _validate(mode, k, min_score, alpha, max_lhs_size, sample_rows):
    if mode not in ("topk", "reliable"):
        raise ValueError("mode must be 'topk' or 'reliable'")
    if mode == "topk" and k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if min_score is not None and not 0.0 <= min_score <= 1.0:
        raise ValueError(f"min_score must lie in [0, 1], got {min_score!r}")
    if max_lhs_size is not None and max_lhs_size < 1:
        raise ValueError("max_lhs_size must be at least 1")
    if sample_rows is not None and sample_rows < 1:
        raise ValueError("sample_rows must be at least 1")


def mine_reliable_fds(
    relation,
    *,
    mode: str = "topk",
    k: int = 10,
    min_score: float | None = None,
    alpha: float = 0.05,
    max_lhs_size: int | None = None,
    rhs: str | None = None,
    sample_rows: int | None = None,
    seed: int = 0,
    budget=None,
    stats: ReliableMiningStats | None = None,
) -> list[ReliableFD]:
    """Mine the most reliable approximate FDs of ``relation``.

    Parameters
    ----------
    mode:
        ``"topk"`` returns the ``k`` highest-scoring dependencies under the
        deterministic total order ``(-score, sorted lhs, rhs)``;
        ``"reliable"`` returns every dependency scoring at least
        ``min_score`` (default ``1 - alpha``).
    alpha:
        Reliability level: the default ``min_score`` in reliable mode and
        the confidence level ``1 - alpha`` of sampled-mode radii.
    rhs:
        Restrict mining to one consequent attribute (all attributes
        otherwise).
    sample_rows:
        Score on a seeded sample of this many rows; results carry
        ``sampled=True`` and a per-FD confidence radius.  ``>= len(relation)``
        degenerates to the exact computation.
    seed:
        Feeds :mod:`repro.seeding`; same seed, same sample, same report.
    budget:
        Cooperative :class:`repro.budget.Budget` checkpoints per scored
        node (memory-governed runs tick RSS sampling through the same
        call).
    stats:
        Optional :class:`ReliableMiningStats` to fill in place.
    """
    _validate(mode, k, min_score, alpha, max_lhs_size, sample_rows)
    if min_score is None:
        min_score = 1.0 - alpha
    names = list(relation.coded.names)
    arity = len(names)
    if max_lhs_size is None:
        max_lhs_size = max(arity - 1, 1)
    if rhs is not None:
        _positions(relation, [rhs])

    n = len(relation)
    sampled = False
    radius_m = 0
    work = relation
    if sample_rows is not None and sample_rows < n:
        indices = sample_indices(n, sample_rows, seed, "fd.reliable.sample")
        work = relation.take(indices.tolist())
        sampled = True
        radius_m = int(sample_rows)

    if stats is None:
        stats = ReliableMiningStats()
    stats.sampled_rows = radius_m if sampled else None
    if arity < 2 or len(work) == 0:
        return []

    rhs_positions = ([names.index(rhs)] if rhs is not None
                     else list(range(arity)))
    jobs = _subtree_jobs(arity, rhs_positions)
    collector = _Collector(mode, k, min_score)

    governor = getattr(budget, "memory", None)
    booked = 0
    if governor is not None:
        # The scorer widens every code column to int64 and keeps the int32
        # originals alive through the relation; transient per-node arrays
        # are a few more rows-sized vectors.
        booked = (12 * len(work) * arity) + (4 * 8 * len(work))
        governor.reserve(booked, where="fd.reliable.scorer")
    try:
        scorer = _Scorer(work, budget=budget, stats=stats)
        try:
            _run_jobs(scorer, collector, jobs, max_lhs_size)
        finally:
            scorer.release_memo()
    finally:
        if governor is not None:
            governor.release(booked)

    if sampled:
        sample_scorer = _Scorer(work)
    results = []
    for score, fraction, support, lhs_names, rhs_name in collector.results():
        radius = 0.0
        if sampled:
            y = names.index(rhs_name)
            radius = confidence_radius(
                radius_m, support, alpha, sample_scorer.h[y])
        results.append(ReliableFD(
            fd=FD(frozenset(lhs_names), frozenset({rhs_name})),
            score=score, information=fraction,
            sampled=sampled, confidence_radius=radius))
    return results


def mine_topk(relation, k: int = 10, **kwargs) -> list[ReliableFD]:
    """The ``k`` highest-scoring dependencies (see :func:`mine_reliable_fds`)."""
    return mine_reliable_fds(relation, mode="topk", k=k, **kwargs)
