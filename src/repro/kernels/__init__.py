"""Vectorized numeric kernels for the clustering engine.

The sparse pure-Python implementations in :mod:`repro.clustering.dcf` are
exact and cheap for small inputs, but two LIMBO hot paths evaluate the merge
cost ``delta_I`` (paper Eq. 3) many times over: the AIB merge loop of
Phase 2 (O(n^2) pairs) and the object x representative association loop of
Phase 3.  This package packs DCF conditionals into dense NumPy row matrices
over a shared support index and batches those evaluations:

* :class:`DenseMergeEngine` + :class:`CandidateMatrix` -- the packed store
  and pairwise candidate minima behind the dense AIB merge loop.
* :class:`DenseDCFSet` + :func:`assign_many` / :func:`merge_cost_many` --
  the packed Phase-3 representatives and the batched association kernels.
* :func:`use_dense` / :func:`use_dense_assign` / :func:`validate_backend`
  -- the ``backend=`` knob of :func:`repro.clustering.aib` and
  :class:`repro.clustering.Limbo`, which steers only these two call sites.
  The Phase-1 DCF-tree node scan compares at most ``B`` entries and is
  always the scalar scan.

The sparse path remains the correctness oracle: ``backend="auto"`` (the
default everywhere) selects it for small inputs, and every kernel agrees
with :func:`repro.clustering.dcf.merge_cost` to within floating-point
roundoff.
"""

from repro.kernels.dense import (
    BACKENDS,
    DENSE_MAX_CELLS,
    DENSE_MAX_OBJECTS,
    DENSE_MIN_ASSIGN_CELLS,
    DENSE_MIN_ENTRIES,
    DENSE_MIN_OBJECTS,
    DENSE_WIDE_COLUMNS,
    CandidateMatrix,
    DenseDCFSet,
    DenseMergeEngine,
    assign_many,
    dense_bytes,
    merge_cost_many,
    pack_seconds,
    reset_pack_seconds,
    shared_index,
    use_dense,
    use_dense_assign,
    validate_backend,
)

__all__ = [
    "BACKENDS",
    "CandidateMatrix",
    "DENSE_MAX_CELLS",
    "DENSE_MAX_OBJECTS",
    "DENSE_MIN_ASSIGN_CELLS",
    "DENSE_MIN_ENTRIES",
    "DENSE_MIN_OBJECTS",
    "DENSE_WIDE_COLUMNS",
    "DenseDCFSet",
    "DenseMergeEngine",
    "assign_many",
    "dense_bytes",
    "merge_cost_many",
    "pack_seconds",
    "reset_pack_seconds",
    "shared_index",
    "use_dense",
    "use_dense_assign",
    "validate_backend",
]
