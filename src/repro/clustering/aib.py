"""Agglomerative Information Bottleneck (paper Section 5.1).

Starts from one cluster per object and greedily merges the pair with the
minimum information loss ``delta_I`` (Equation 3), recording the full merge
sequence.  Quadratic in the number of objects, which is why LIMBO only runs
it over DCF-tree leaf summaries (Phase 2).

Implementation: a lazy-deletion min-heap over candidate pairs.  Each cluster
carries a version stamp; heap entries referencing a stale stamp are skipped
on pop.  Ties in loss break deterministically on (loss, node ids) so results
are reproducible.

Two interchangeable numeric backends drive the heap: the sparse pure-Python
``merge_cost`` path (the correctness oracle) and the vectorized
:mod:`repro.kernels` engine, which batches the O(n^2) initial build and the
per-merge candidate recomputation over a packed NumPy matrix.  ``backend=
"auto"`` (the default) picks the kernels once the input is large enough for
them to win; both backends produce the same merge sequence (ties still break
on ``(loss, node ids)``).
"""

from __future__ import annotations

import hashlib
import heapq

from repro import kernels
from repro.budget import checkpoint
from repro.clustering.dcf import DCF, merge, merge_cost
from repro.clustering.dendrogram import Dendrogram, Merge


class AIBResult:
    """Outcome of an AIB run: the dendrogram plus cluster reconstruction."""

    def __init__(self, dcfs: list[DCF], dendrogram: Dendrogram, initial_information: float):
        self._initial_dcfs = dcfs
        self.dendrogram = dendrogram
        #: I(C_q; T) at the start, before any merge (equals I(V;T) when each
        #: object is its own cluster).
        self.initial_information = initial_information

    def clusters(self, k: int) -> list[DCF]:
        """The ``k``-clustering as merged DCFs (Equations 1-2)."""
        result = []
        for members in self.dendrogram.cut(k):
            cluster = self._initial_dcfs[members[0]]
            for index in members[1:]:
                cluster = merge(cluster, self._initial_dcfs[index])
            result.append(cluster)
        return result

    def information_at(self, k: int) -> float:
        """``I(C_k; T)``: the initial information minus cumulative loss.

        Only valid for ``k`` reachable by the (possibly partial) sequence.
        """
        n = self.dendrogram.n_leaves
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}]")
        spent = sum(m.loss for m in self.dendrogram.merges[: n - k])
        return self.initial_information - spent

    def information_curve(self) -> list[tuple[int, float]]:
        """``(k, I(C_k;T))`` for every k the sequence reaches, descending k."""
        n = self.dendrogram.n_leaves
        curve = [(n, self.initial_information)]
        info = self.initial_information
        for m in self.dendrogram.merges:
            info -= m.loss
            curve.append((curve[-1][0] - 1, info))
        return curve


def aib(
    dcfs: list[DCF],
    min_clusters: int = 1,
    labels=None,
    initial_information: float | None = None,
    budget=None,
    backend: str = "auto",
    checkpoint=None,
) -> AIBResult:
    """Run Agglomerative IB over ``dcfs`` down to ``min_clusters``.

    Parameters
    ----------
    dcfs:
        The starting clusters (typically singletons, or LIMBO leaf
        summaries).  Not mutated.
    min_clusters:
        Stop when this many clusters remain (1 = full dendrogram).
    labels:
        Optional leaf labels for the dendrogram.
    initial_information:
        ``I(C_q; T)`` of the starting clustering, if the caller knows it
        (e.g. the exact ``I(V;T)`` of the data).  Defaults to 0.0, in which
        case the merge losses are still exact but ``information_at`` /
        ``information_curve`` report offsets from zero rather than absolute
        information.
    budget:
        Optional :class:`repro.budget.Budget`; the quadratic merge loop
        checkpoints against it per merged cluster.
    backend:
        ``"auto"`` (default), ``"sparse"`` or ``"dense"``.  ``auto`` uses
        the vectorized :mod:`repro.kernels` engine for inputs of at least
        :data:`repro.kernels.DENSE_MIN_OBJECTS` clusters and the sparse
        pure-Python oracle otherwise.
    checkpoint:
        Optional :class:`repro.checkpoint.StageCheckpoint`.  The full
        merge sequence is snapshotted when the run completes, keyed by a
        digest of the starting DCFs; a resumed run with identical inputs
        reloads the sequence (the dendrogram -- the paper's ``Q``)
        instead of re-running the quadratic loop.  Merge sequences are
        backend-invariant (PR 2's shared loss grid), so the key carries no
        backend.
    """
    n = len(dcfs)
    kernels.validate_backend(backend)
    if n == 0:
        raise ValueError("aib needs at least one cluster")
    if not 1 <= min_clusters <= n:
        raise ValueError(f"min_clusters must be in [1, {n}]")

    if initial_information is None:
        initial_information = 0.0

    merge_key = None
    merges = None
    if checkpoint is not None:
        merge_key = _merge_key(dcfs, min_clusters, initial_information)
        merges = checkpoint.load(merge_key)

    if merges is None:
        dense_index = None
        if backend != "sparse" and n >= 2:
            dense_index = kernels.shared_index(dcfs)
            if not kernels.use_dense(
                backend, n, n_columns=len(dense_index), maximum=kernels.DENSE_MAX_OBJECTS,
                governor=getattr(budget, "memory", None),
                candidates=True,
            ):
                dense_index = None

        if dense_index is not None:
            merges = _merge_sequence_dense(
                dcfs, min_clusters, budget, dense_index
            )
        else:
            merges = _merge_sequence_sparse(dcfs, min_clusters, budget)
        if checkpoint is not None:
            checkpoint.save(merge_key, merges)

    dendrogram = Dendrogram(n, merges, labels=labels)
    return AIBResult(list(dcfs), dendrogram, initial_information)


def _merge_key(dcfs, min_clusters: int, initial_information: float) -> tuple:
    """A repr-stable key digesting an AIB problem's exact inputs.

    Covers every starting cluster's weight and joint masses bit-for-bit;
    labels are presentation-only and excluded.
    """
    digest = hashlib.sha256()
    for dcf in dcfs:
        digest.update(repr(dcf.weight).encode("ascii"))
        digest.update(repr(list(dcf.mass.items())).encode("utf-8"))
    return (
        "aib.merges", len(dcfs), min_clusters,
        repr(initial_information), digest.hexdigest(),
    )


def _merge_sequence_sparse(dcfs, min_clusters, budget) -> list[Merge]:
    """The greedy merge loop over sparse dict DCFs (the correctness oracle)."""
    n = len(dcfs)
    active: dict[int, DCF] = dict(enumerate(dcfs))
    stamps: dict[int, int] = {i: 0 for i in active}
    heap: list[tuple[float, int, int, int, int]] = []

    node_ids = sorted(active)
    for i_pos, i in enumerate(node_ids):
        for j in node_ids[i_pos + 1 :]:
            heapq.heappush(
                heap, (merge_cost(active[i], active[j]), i, j, stamps[i], stamps[j])
            )

    merges: list[Merge] = []
    next_id = n
    while len(active) > min_clusters:
        checkpoint(budget, units=len(active), where="aib.merge")
        loss, i, j, stamp_i, stamp_j = heapq.heappop(heap)
        if stamps.get(i) != stamp_i or stamps.get(j) != stamp_j:
            continue  # stale entry
        merged = merge(active[i], active[j])
        del active[i], active[j], stamps[i], stamps[j]
        active[next_id] = merged
        stamps[next_id] = 0
        merges.append(Merge(left=i, right=j, parent=next_id, loss=loss))
        for other, other_dcf in active.items():
            if other == next_id:
                continue
            a, b = (other, next_id) if other < next_id else (next_id, other)
            heapq.heappush(
                heap,
                (merge_cost(other_dcf, merged), a, b, stamps[a], stamps[b]),
            )
        next_id += 1
    return merges


def _merge_sequence_dense(dcfs, min_clusters, budget, index) -> list[Merge]:
    """The same greedy policy over the packed :class:`DenseMergeEngine`.

    The lazy-deletion heap is replaced by a :class:`CandidateMatrix` whose
    ``best()`` reproduces the heap's pop order exactly, including the
    ``(loss, node ids)`` tie-break; the ``delta_I`` evaluations are batched
    per node instead of being computed pair by pair.
    """
    n = len(dcfs)
    engine = kernels.DenseMergeEngine(dcfs, index=index)
    candidates = kernels.CandidateMatrix(2 * n - 1)
    for i in range(n - 1):
        candidates.fill_row(i, engine.costs(i, range(i + 1, n)))

    alive = set(range(n))
    merges: list[Merge] = []
    next_id = n
    while len(alive) > min_clusters:
        checkpoint(budget, units=len(alive), where="aib.merge")
        i, j, loss = candidates.best()
        engine.merge(i, j, next_id)
        alive.discard(i)
        alive.discard(j)
        merges.append(Merge(left=i, right=j, parent=next_id, loss=loss))
        others = sorted(alive)
        alive.add(next_id)
        new_costs = engine.costs(next_id, others) if others else ()
        candidates.merge(i, j, next_id, others, new_costs)
        next_id += 1
    return merges
