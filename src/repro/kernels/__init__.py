"""Vectorized numeric kernels for the clustering engine.

The sparse pure-Python implementations in :mod:`repro.clustering.dcf` are
exact and cheap for small inputs, but two LIMBO hot paths evaluate the merge
cost ``delta_I`` (paper Eq. 3) many times over: the AIB merge loop of
Phase 2 (O(n^2) pairs) and the object x representative association loop of
Phase 3.  This package batches those evaluations:

* :class:`DenseMergeEngine` + :class:`CandidateMatrix` -- the packed store
  and pairwise candidate minima behind the dense AIB merge loop.
* :class:`PostingsDCFSet` -- the one Phase-3 kernel: sparse per-column
  postings over a DCF collection.  LIMBO's batch association
  (:meth:`repro.clustering.Limbo.assign`) feeds it blocks of objects
  ordered by part, whose long (heavy) postings it costs once per part,
  and the daemon (``repro serve``) asks it for one row at a time and
  absorbs served rows in place.
* :func:`use_dense` / :func:`postings_bytes` / :func:`validate_backend` --
  the ``backend=`` knob of :func:`repro.clustering.aib` and
  :class:`repro.clustering.Limbo`, which steers only these two call sites,
  and the byte estimates the memory governor may refuse.  The Phase-1
  DCF-tree node scan compares at most ``B`` entries and is always the
  scalar scan.

The sparse path remains the correctness oracle: ``backend="sparse"`` runs
it everywhere, ``backend="auto"`` (the default) selects it for small AIB
inputs, and every kernel agrees with
:func:`repro.clustering.dcf.merge_cost` to within floating-point roundoff.
"""

from repro.kernels.dense import (
    BACKENDS,
    DENSE_MAX_CELLS,
    DENSE_MAX_OBJECTS,
    DENSE_MIN_ENTRIES,
    DENSE_MIN_OBJECTS,
    DENSE_WIDE_COLUMNS,
    CandidateMatrix,
    DenseMergeEngine,
    PostingsDCFSet,
    dense_bytes,
    pack_seconds,
    postings_bytes,
    reset_pack_seconds,
    shared_index,
    use_dense,
    validate_backend,
)

__all__ = [
    "BACKENDS",
    "CandidateMatrix",
    "DENSE_MAX_CELLS",
    "DENSE_MAX_OBJECTS",
    "DENSE_MIN_ENTRIES",
    "DENSE_MIN_OBJECTS",
    "DENSE_WIDE_COLUMNS",
    "DenseMergeEngine",
    "PostingsDCFSet",
    "dense_bytes",
    "pack_seconds",
    "postings_bytes",
    "reset_pack_seconds",
    "shared_index",
    "use_dense",
    "validate_backend",
]
