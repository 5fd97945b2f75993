"""LIMBO: scaLable InforMation BOttleneck clustering (paper Section 5.2).

Three phases:

1. **Summarize** -- stream the objects into a :class:`DCFTree` whose merge
   threshold is ``phi * I(V;T) / |V|``; the leaf entries summarize the data.
2. **Cluster** -- run AIB over the leaf summaries, producing the full merge
   sequence (dendrogram).
3. **Associate** -- scan the objects again and assign each to the closest of
   the ``k`` representative DCFs (minimum information loss).

The exact ``I(V;T)`` needed by the threshold is available because the matrix
builders make a first pass over the data (Section 6.2's "three passes").
"""

from __future__ import annotations

import hashlib

from repro import kernels
from repro.budget import checkpoint
from repro.clustering.aib import AIBResult, aib
from repro.clustering.dcf import DCF, closest, merge
from repro.clustering.dcf_tree import DCFTree
from repro.infotheory.entropy import mutual_information_rows
from repro.testing.faults import fault_point

#: Object-loop iterations between cooperative budget checkpoints.
_CHECK_EVERY = 64

#: When Phase 1 must be re-run to respect ``max_summaries``, the threshold is
#: scaled by this factor per rebuild (BIRCH-style threshold escalation).
_REBUILD_FACTOR = 2.0


class Limbo:
    """The LIMBO clustering driver.

    Parameters
    ----------
    phi:
        Summary accuracy knob (``phi = 0`` merges only identical objects and
        makes LIMBO equivalent to AIB; larger values give coarser, smaller
        summaries).
    branching:
        DCF-tree branching factor ``B`` (default 4, as in Section 8).
    max_summaries:
        Optional cap on the number of Phase-1 summaries.  When the tree
        yields more leaves than this, Phase 1 is re-run over the leaf DCFs
        with an escalated threshold until the cap is met -- the paper's
        "pick a number of leaves that is sufficiently large" device for
        horizontal partitioning.
    budget:
        Optional :class:`repro.budget.Budget`; the Phase-1 insert loop and
        the Phase-3 association loop checkpoint against it cooperatively
        and raise :class:`repro.errors.ResourceLimitExceeded` on
        exhaustion.
    backend:
        ``"auto"`` (default), ``"sparse"`` or ``"dense"``; threaded through
        to AIB (Phase 2) and the association loop (Phase 3).  In AIB,
        ``auto`` picks the dense :mod:`repro.kernels` engine when its input
        is large enough to win.  In Phase 3, ``sparse`` runs the scalar
        :func:`repro.clustering.dcf.closest` scan, the oracle, and ``auto``
        and ``dense`` both run the :class:`repro.kernels.PostingsDCFSet`
        kernel (see :func:`assign_rows`).  Phase 1 does not read it: the
        DCF-tree node scan compares at most ``branching`` entries and is
        always the scalar :func:`repro.clustering.dcf.scan`.
    checkpoint:
        Optional :class:`repro.checkpoint.StageCheckpoint`.  The Phase-1
        summaries are snapshotted once :meth:`fit` completes (keyed by a
        digest of the exact inputs and knobs) and the Phase-2 merge
        sequence rides the same handle through :func:`aib`; a resumed run
        whose stage died *between* phases reloads the finished phase
        instead of recomputing it.  Snapshots are content-addressed, so a
        key mismatch silently recomputes -- reuse can never change a
        result.
    max_leaf_entries:
        Optional fixed Phase-1 leaf buffer (the paper's space-bounded
        LIMBO).  Threaded into every :class:`DCFTree` this driver builds
        (the Phase-1 tree and every ``max_summaries`` rebuild); overflow
        escalates the merge threshold and rebuilds in place.
        ``buffer_rebuilds`` counts the escalations for the report's
        ``memory`` health entry.
    """

    def __init__(self, phi: float = 0.0, branching: int = 4,
                 max_summaries: int | None = None, budget=None,
                 backend: str = "auto", checkpoint=None,
                 max_leaf_entries: int | None = None):
        if phi < 0.0:
            raise ValueError("phi must be non-negative")
        if max_summaries is not None and max_summaries < 1:
            raise ValueError("max_summaries must be positive")
        if max_leaf_entries is not None and max_leaf_entries < 1:
            raise ValueError("max_leaf_entries must be positive")
        self.phi = float(phi)
        self.branching = int(branching)
        self.max_summaries = max_summaries
        self.budget = budget
        self.backend = kernels.validate_backend(backend)
        self.checkpoint = checkpoint
        self.max_leaf_entries = max_leaf_entries
        self.buffer_rebuilds = 0
        self._rows: list | None = None
        self._priors: list | None = None
        self._supports: list | None = None
        self._summaries: list[DCF] | None = None
        self._total_information: float | None = None
        self._threshold: float | None = None

    def __getstate__(self):
        """Pickle without the process-local runtime companions.

        Budgets carry per-process clocks and checkpoint handles own the
        store -- neither belongs inside a stage snapshot or the report a
        supervised child pickles back to its parent.  A restored ``Limbo``
        keeps its fitted numeric state and runs un-budgeted and
        checkpoint-less.
        """
        state = dict(self.__dict__)
        state["budget"] = None
        state["checkpoint"] = None
        return state

    # -- Phase 1 -----------------------------------------------------------------

    def fit(self, rows, priors, supports=None, mutual_information: float | None = None) -> "Limbo":
        """Phase 1: summarize the objects into leaf DCFs.

        Parameters
        ----------
        rows:
            Sparse conditional distributions ``p(T|v)``, one per object.
        priors:
            Object priors ``p(v)`` (must sum to one).
        supports:
            Optional per-object ``O``-matrix rows; when given, leaf entries
            are ADCFs that accumulate the counts (Section 6.2).
        mutual_information:
            The exact ``I(V;T)`` if already known (saves a pass).
        """
        rows = list(rows)
        priors = [float(p) for p in priors]
        if len(rows) != len(priors):
            raise ValueError("rows and priors must have the same length")
        if not rows:
            raise ValueError("cannot fit on zero objects")
        if supports is not None:
            supports = list(supports)
            if len(supports) != len(rows):
                raise ValueError("supports must have the same length as rows")

        if mutual_information is None:
            mutual_information = mutual_information_rows(rows, priors)
        self._total_information = mutual_information
        self._threshold = self.phi * mutual_information / len(rows)

        fault_point("limbo.fit")
        phase_key = None
        summaries = None
        if self.checkpoint is not None:
            phase_key = self._fit_key(rows, priors, supports, mutual_information)
            summaries = self.checkpoint.load(phase_key)
        if summaries is None:
            governor = getattr(self.budget, "memory", None)
            floor = mutual_information / len(rows) / 64.0
            tree = self._tree(self._threshold, floor, governor)
            for index, (row, prior) in enumerate(zip(rows, priors)):
                if index % _CHECK_EVERY == 0:
                    checkpoint(self.budget, units=_CHECK_EVERY, where="limbo.fit")
                support = supports[index] if supports is not None else None
                tree.insert(DCF.singleton(index, prior, row, support=support))
            summaries = tree.leaves()
            self._retire_tree(tree)

            threshold = self._threshold
            while self.max_summaries is not None and len(summaries) > self.max_summaries:
                checkpoint(self.budget, units=len(summaries), where="limbo.rebuild")
                threshold = max(threshold * _REBUILD_FACTOR, floor)
                tree = self._tree(threshold, floor, governor)
                for dcf in summaries:
                    tree.insert(dcf)
                summaries = tree.leaves()
                self._retire_tree(tree)
            if self.checkpoint is not None:
                self.checkpoint.save(phase_key, summaries)

        self._rows, self._priors, self._supports = rows, priors, supports
        self._summaries = summaries
        return self

    def _tree(self, threshold: float, floor: float, governor) -> DCFTree:
        """A Phase-1 tree carrying this driver's space-bound configuration."""
        return DCFTree(
            threshold, branching=self.branching,
            max_leaf_entries=self.max_leaf_entries, threshold_floor=floor,
            governor=governor,
        )

    def _retire_tree(self, tree: DCFTree) -> None:
        """Fold a finished tree's space-bound stats in and free its booking."""
        self.buffer_rebuilds += tree.rebuilds
        tree.unbook()

    def _fit_key(self, rows, priors, supports, mutual_information) -> tuple:
        """A repr-stable key digesting Phase 1's exact inputs and knobs.

        The digest covers every conditional, prior and support row bit-for
        bit (``repr`` of a float is exact), so a snapshot can only ever be
        reused for the identical summarization problem.
        """
        digest = hashlib.sha256()
        for row, prior in zip(rows, priors):
            digest.update(repr(list(row.items())).encode("utf-8"))
            digest.update(repr(prior).encode("ascii"))
        if supports is not None:
            for support in supports:
                digest.update(repr(list(support.items())).encode("utf-8"))
        return (
            "limbo.fit", repr(self.phi), self.branching, self.max_summaries,
            self.max_leaf_entries, len(rows), supports is not None,
            repr(mutual_information), digest.hexdigest(),
        )

    @property
    def summaries(self) -> list[DCF]:
        """The Phase-1 leaf DCFs."""
        self._require_fitted()
        return list(self._summaries)

    @property
    def total_information(self) -> float:
        """``I(V;T)`` of the fitted data, in bits."""
        self._require_fitted()
        return self._total_information

    @property
    def threshold(self) -> float:
        """The Phase-1 merge threshold ``phi * I(V;T) / |V|``."""
        self._require_fitted()
        return self._threshold

    # -- Phase 2 -----------------------------------------------------------------

    def merge_sequence(self, labels=None) -> AIBResult:
        """Phase 2: full AIB over the leaf summaries.

        The result's ``initial_information`` is ``I(C_leaves; T)`` so that
        ``information_at(k)`` reflects the summarized data exactly.
        """
        self._require_fitted()
        leaf_information = mutual_information_rows(
            [s.conditional for s in self._summaries],
            [s.weight for s in self._summaries],
        )
        return aib(
            self._summaries,
            labels=labels,
            initial_information=leaf_information,
            budget=self.budget,
            backend=self.backend,
            checkpoint=self.checkpoint,
        )

    def representatives(self, k: int) -> list[DCF]:
        """The ``k`` cluster-representative DCFs from Phases 1+2."""
        return self.merge_sequence().clusters(k)

    # -- Phase 3 -----------------------------------------------------------------

    def assign(self, representatives, rows=None, priors=None) -> list[int]:
        """Phase 3: associate each object with its closest representative.

        Proximity is the information loss of merging the object's singleton
        DCF into the representative.  Defaults to the fitted objects; pass
        ``rows``/``priors`` to associate a different (e.g. unsummarized or
        held-out) object set.
        """
        self._require_fitted()
        if rows is None:
            rows = self._rows
            priors = self._priors
        elif priors is None:
            priors = [1.0 / len(rows)] * len(rows)
        reps = list(representatives)
        if not reps:
            raise ValueError("need at least one representative")
        fault_point("limbo.assign")
        return assign_rows(reps, rows, priors, self.backend, budget=self.budget)

    def cluster(self, k: int) -> list[int]:
        """Run Phases 2+3 and return a cluster index per fitted object."""
        return self.assign(self.representatives(k))

    # -- diagnostics ---------------------------------------------------------------

    def relative_information_loss(self, assignment) -> float:
        """Fraction of ``I(V;T)`` lost by a (Phase 3) hard clustering.

        Section 8.2 reports this as, e.g., "the loss of initial information
        after Phase 3 was 9.45%".
        """
        self._require_fitted()
        clustered = clustering_information(self._rows, self._priors, assignment)
        if self._total_information <= 0.0:
            return 0.0
        return max(0.0, 1.0 - clustered / self._total_information)

    def _require_fitted(self) -> None:
        if self._summaries is None:
            raise RuntimeError("call fit() first")


def assign_rows(representatives, rows, priors, backend, budget=None) -> list[int]:
    """Associate each row with its closest representative (Phase 3 core).

    The implementation behind :meth:`Limbo.assign`; each object's
    assignment depends only on its own row.  ``backend="sparse"`` runs the
    scalar :func:`repro.clustering.dcf.closest` scan per object, the
    oracle.  ``auto`` and ``dense`` build one
    :class:`repro.kernels.PostingsDCFSet` over the representatives, order
    the objects by part when some posting is heavy
    (:meth:`repro.kernels.PostingsDCFSet.part_order`), feed it
    ``_CHECK_EVERY``-object blocks and put each answer back at its
    object's index.  Under a memory cap, the set is built only if the
    governor admits its :func:`repro.kernels.postings_bytes` estimate for
    one object, and a block runs in it only if the governor admits the
    estimate at the block's size plus its posting hits
    (:meth:`repro.kernels.PostingsDCFSet.hit_bytes`).  A refused block is
    halved until its parts are admitted; only a single refused object
    takes the scalar scan.  All paths give the same assignments and
    checkpoint once per block.
    """
    reps = list(representatives)
    rows = rows if isinstance(rows, list) else list(rows)
    priors = priors if isinstance(priors, list) else list(priors)
    governor = getattr(budget, "memory", None)
    postings = order = None
    if backend != "sparse" and (governor is None or not governor.would_exceed(
            kernels.postings_bytes(reps, 1))):
        postings = kernels.PostingsDCFSet(reps)
        order = postings.part_order(rows, priors)
        if order is not None:
            rows = [rows[index] for index in order]
            priors = [priors[index] for index in order]
    answers: list[int] = []
    for start in range(0, len(rows), _CHECK_EVERY):
        checkpoint(budget, units=_CHECK_EVERY * len(reps),
                   where="limbo.assign")
        stop = start + _CHECK_EVERY
        answers.extend(_associate(postings, reps, governor,
                                  rows[start:stop], priors[start:stop]))
    if order is None:
        return answers
    assignment = [0] * len(answers)
    for index, answer in zip(order, answers):
        assignment[index] = answer
    return assignment


def _associate(postings, reps, governor, rows, priors) -> list[int]:
    """One block of :func:`assign_rows`, halved while the governor refuses
    it; a lone refused object, or any without a kernel, is scanned."""
    if postings is not None and (governor is None or not governor.would_exceed(
            kernels.postings_bytes(reps, len(rows))
            + postings.hit_bytes(rows, priors))):
        return postings.closest_many(rows, priors)
    if postings is None or len(rows) == 1:
        return [closest(reps, DCF(prior, row))[0]
                for row, prior in zip(rows, priors)]
    half = len(rows) // 2
    return (_associate(postings, reps, governor, rows[:half], priors[:half])
            + _associate(postings, reps, governor, rows[half:], priors[half:]))


def clustering_information(rows, priors, assignment) -> float:
    """``I(C; T)`` of a hard clustering of the objects, in bits."""
    rows = list(rows)
    if len(assignment) != len(rows):
        raise ValueError("assignment must cover every object")
    clusters: dict = {}
    for row, prior, cluster in zip(rows, priors, assignment):
        entry = clusters.get(cluster)
        if entry is None:
            clusters[cluster] = DCF(prior, row)
        else:
            clusters[cluster] = merge(entry, DCF(prior, row))
    return mutual_information_rows(
        [dcf.conditional for dcf in clusters.values()],
        [dcf.weight for dcf in clusters.values()],
    )
