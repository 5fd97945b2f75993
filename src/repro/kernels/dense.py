"""Dense/packed DCF representations and batched ``delta_I`` kernels.

All kernels work in *joint-mass* space (``m_k = p(c) * p(k|c)``), the same
representation the sparse :class:`repro.clustering.dcf.DCF` uses, and
evaluate the information loss of Eq. 3 through the entropy identity

    delta_I(a, b) * ln 2 = W ln W - w_a ln w_a - w_b ln w_b
                           + S_a + S_b - S_merged

with ``W = w_a + w_b`` and ``S = sum_k m_k ln m_k`` -- the vectorized twin
of the ``H(p_bar) - pi H(p) - pi H(q)`` Jensen-Shannon form.  Because
columns outside the support of the *query* operand cancel between ``S_a``
and ``S_merged``, every kernel restricts its column gather to the query's
support: cost is ``O(rows * |supp(query)|)`` in vectorized element
operations, mirroring the smaller-operand trick of the sparse path.

Zero masses are handled with the ``0 ln 0 = 0`` convention throughout, so
zero-mass columns and disjoint supports agree exactly with the sparse
implementation.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.clustering.dcf import LOSS_FLOOR, LOSS_QUANTUM_BITS

_LOG2 = math.log(2.0)

#: Wall-clock seconds spent packing DCFs into dense form (matrix gathers in
#: ``DenseDCFSet.pack`` and ``DenseMergeEngine.__init__``).  The benchmark's
#: ``pack_s`` metric.
_pack_seconds = 0.0


def reset_pack_seconds() -> None:
    """Zero the pack-time accumulator (call before a timed region)."""
    global _pack_seconds
    _pack_seconds = 0.0


def pack_seconds() -> float:
    """Seconds spent in dense packing since the last reset."""
    return _pack_seconds

#: Legal values of the ``backend=`` knob.
BACKENDS = ("auto", "sparse", "dense")

#: ``backend="auto"`` switches AIB to the dense engine at this many clusters.
#: Measured crossover on narrow (tuple-width) supports: sparse/dense wall
#: ratio 0.83 at 32 clusters, 1.27 at 48 -- the break-even sits near 40.
DENSE_MIN_OBJECTS = 40

#: ``backend="auto"`` also goes dense *below* ``DENSE_MIN_OBJECTS`` when the
#: shared support is at least this wide (and the call site reports it).  Wide
#: supports shift the crossover hard toward dense: on phi=1.0 LIMBO summaries
#: (1100+ columns) the dense engine already wins 1.5x at 9 clusters, while
#: narrow supports stay under ~150 columns well past the object crossover.
DENSE_WIDE_COLUMNS = 512

#: The wide-support rule's floor: below this many clusters ``auto`` stays
#: sparse however wide the support (a handful of rows never amortizes a pack).
DENSE_MIN_ENTRIES = 8

#: ``backend="auto"`` falls back to sparse when the packed matrix would
#: exceed this many cells (the dense AIB engine allocates ~2n rows).
DENSE_MAX_CELLS = 50_000_000

#: ``backend="auto"`` caps the dense AIB engine at this many starting
#: clusters: the candidate matrix is O((2n)^2) memory.  AIB inputs are
#: normally LIMBO leaf summaries (hundreds), far below the cap.
DENSE_MAX_OBJECTS = 2048

#: ``backend="auto"`` packs LIMBO Phase-3 representatives only when the
#: assignment workload (objects x representatives) reaches this many cost
#: evaluations -- below it the pack + per-chunk CSR overhead beats nothing.
DENSE_MIN_ASSIGN_CELLS = 2048


def validate_backend(backend: str) -> str:
    """Check a ``backend=`` knob value, returning it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {'/'.join(BACKENDS)}, got {backend!r}"
        )
    return backend


def dense_bytes(n: int, n_columns: int | None = None,
                candidates: bool = False) -> int:
    """Byte estimate of the dense path's allocations for ``n`` objects.

    The merge engine packs a ``(2n - 1) x d`` float64 joint-mass matrix
    (plus same-shaped scratch); with ``candidates`` the AIB candidate
    matrix adds ``(2n)^2`` float64 cells.  Used for the memory governor's
    cooperative refusal -- deterministic, data-independent given shapes.
    """
    total = 2 * (2 * n) * (n_columns or 1) * 8
    if candidates:
        total += (2 * n) * (2 * n) * 8
    return total


def use_dense(
    backend: str,
    n: int,
    n_columns: int | None = None,
    maximum: int | None = None,
    governor=None,
    candidates: bool = False,
) -> bool:
    """Resolve the knob for the AIB merge loop over ``n`` clusters.

    ``auto`` picks the dense kernels once ``n`` reaches
    :data:`DENSE_MIN_OBJECTS`, stays at or below ``maximum`` (when given),
    and the packed matrix fits within :data:`DENSE_MAX_CELLS`; explicit
    values are always honored.  With ``n_columns`` reported, ``auto`` also
    goes dense below the object threshold when the shared support is
    :data:`DENSE_WIDE_COLUMNS` or wider (see that constant's rationale) --
    the gather amortizes over columns as well as rows.  With a
    :class:`repro.budget.MemoryGovernor`, ``auto`` additionally refuses a
    dense allocation whose :func:`dense_bytes` estimate would cross the
    byte cap -- the sparse oracle needs no recovery path, so this refusal
    degrades performance, never results.
    """
    validate_backend(backend)
    if backend == "sparse":
        return False
    if backend == "dense":
        return True
    if n < DENSE_MIN_OBJECTS:
        wide = (
            n_columns is not None
            and n_columns >= DENSE_WIDE_COLUMNS
            and n >= DENSE_MIN_ENTRIES
        )
        if not wide:
            return False
    if maximum is not None and n > maximum:
        return False
    if n_columns is not None and 2 * n * n_columns > DENSE_MAX_CELLS:
        return False
    if governor is not None and governor.would_exceed(
        dense_bytes(n, n_columns, candidates=candidates)
    ):
        return False
    return True


def use_dense_assign(
    backend: str,
    n_representatives: int,
    n_objects: int,
    n_columns: int,
    governor=None,
) -> bool:
    """Resolve the knob for a Phase-3 assignment workload.

    The decision variable is the number of cost evaluations, ``objects x
    representatives``, not the representative count alone: packing a handful
    of representatives already pays off over thousands of objects (the
    common LIMBO shape, e.g. ``k = 5`` over 10^4 tuples), while a few dozen
    objects never amortize the pack.  ``auto`` also defers to the memory
    governor the way :func:`use_dense` does, booking the packed
    ``n_representatives x n_columns`` ``float64`` matrix, where
    ``n_columns`` is the size of the representatives' shared index.
    """
    validate_backend(backend)
    if backend == "sparse":
        return False
    if backend == "dense":
        return True
    if n_representatives < 2:
        return False
    if n_objects * n_representatives < DENSE_MIN_ASSIGN_CELLS:
        return False
    if governor is not None and governor.would_exceed(
        8 * n_representatives * n_columns
    ):
        return False
    return True


def _quantize(losses: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`repro.clustering.dcf.quantize_loss`.

    ``frexp``/``ldexp`` are exact and ``np.rint`` rounds half-to-even like
    Python's ``round``, so this produces bitwise the same grid points as the
    scalar version -- the property the cross-backend tie-break relies on.
    """
    mantissa, exponent = np.frexp(losses)
    snapped = np.ldexp(
        np.rint(np.ldexp(mantissa, LOSS_QUANTUM_BITS)),
        exponent - LOSS_QUANTUM_BITS,
    )
    snapped[losses < LOSS_FLOOR] = 0.0
    return snapped


def _xlogx(values: np.ndarray) -> np.ndarray:
    """Elementwise ``x ln x`` with ``0 ln 0 = 0``."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(values)
    positive = values > 0.0
    np.log(values, out=out, where=positive)
    out *= values
    return out


def _xlogx_scalar(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def shared_index(dcfs) -> dict:
    """A deterministic column index over the union of the DCFs' supports.

    Columns are sorted when the keys allow it (value/group ids are ints
    everywhere in this codebase); unsortable key mixes keep first-seen
    order, which is still deterministic for deterministic inputs.
    """
    keys: dict = {}
    for dcf in dcfs:
        for key in dcf.mass:
            if key not in keys:
                keys[key] = len(keys)
    try:
        ordered = sorted(keys)
    except TypeError:
        return keys
    return {key: position for position, key in enumerate(ordered)}


def _index_lookup(index: dict) -> np.ndarray | None:
    """An ``int64`` key -> matrix-column LUT for an all-int column index.

    Value/group ids are dense non-negative ints everywhere in this codebase,
    so the LUT is about as large as the index itself; ``None`` when the keys
    are not ints (or are too sparse for a table to make sense), in which
    case callers gather through the dict.
    """
    if not index:
        return np.zeros(0, dtype=np.int64)
    keys = list(index.keys())
    if not all(type(key) is int for key in keys):
        return None
    key_array = np.fromiter(keys, dtype=np.int64, count=len(keys))
    low = int(key_array.min())
    high = int(key_array.max())
    if low < 0 or high + 1 > 4 * len(keys) + 1024:
        return None
    lut = np.full(high + 1, -1, dtype=np.int64)
    lut[key_array] = np.fromiter(index.values(), dtype=np.int64, count=len(keys))
    return lut


def _gather_row(lut: np.ndarray, columns: np.ndarray, values: np.ndarray,
                out: np.ndarray) -> bool:
    """Scatter ``values`` into ``out`` at the LUT positions of ``columns``.

    Returns ``False`` (leaving ``out`` untouched) when some column is
    missing from the LUT -- the caller decides whether missing columns are
    droppable or an error.
    """
    if columns.size == 0:
        return True
    if int(columns[0]) < 0 or int(columns[-1]) >= lut.size:
        return False
    positions = lut[columns]
    if positions.min() < 0:
        return False
    out[positions] = values
    return True


def _gather_columns(index: dict, mass) -> tuple[list, np.ndarray]:
    """Positions and values of a sparse mass dict under a column index.

    Columns absent from the index are dropped: their ``m ln m`` contribution
    to ``S_merged`` cancels against ``S_query`` exactly, so they never affect
    the cost (disjoint-support columns are free).
    """
    columns: list = []
    values: list = []
    get = index.get
    for key, m in mass.items():
        if m <= 0.0:
            continue
        position = get(key)
        if position is not None:
            columns.append(position)
            values.append(m)
    return columns, np.asarray(values, dtype=np.float64)


class DenseDCFSet:
    """A packed, read-only view of a fixed collection of DCFs.

    Attributes
    ----------
    index:
        ``{column key: matrix column}`` shared by all rows.
    matrix:
        ``(n, d)`` float64 joint masses; row ``r`` is ``dcfs[r]``.
    weights:
        ``(n,)`` cluster priors ``p(c)``.
    wlogw:
        Cached ``w ln w`` per row -- computed once at pack time, never per
        query.
    """

    __slots__ = ("index", "matrix", "weights", "wlogw")

    def __init__(self, index: dict, matrix: np.ndarray, weights: np.ndarray):
        self.index = index
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.wlogw = _xlogx(self.weights)

    @classmethod
    def pack(cls, dcfs, index: dict | None = None) -> "DenseDCFSet":
        """Pack a DCF collection over a shared (or provided) column index.

        Rows gather through each DCF's sorted column arrays and an int
        lookup table where the keys allow it; columns absent from the index
        are dropped (their contribution cancels, see ``_gather_columns``).
        """
        global _pack_seconds
        started = time.perf_counter()
        dcfs = list(dcfs)
        if not dcfs:
            raise ValueError("cannot pack zero DCFs")
        if index is None:
            index = shared_index(dcfs)
        matrix = np.zeros((len(dcfs), len(index)), dtype=np.float64)
        weights = np.empty(len(dcfs), dtype=np.float64)
        lut = _index_lookup(index)
        for r, dcf in enumerate(dcfs):
            weights[r] = dcf.weight
            row = matrix[r]
            arrays = dcf.arrays() if lut is not None else None
            if arrays is not None:
                columns, values = arrays
                if _gather_row(lut, columns, values, row):
                    continue
                if lut.size:
                    # Some column is outside the index: drop just those.
                    keep = (columns >= 0) & (columns < lut.size)
                    positions = lut[np.where(keep, columns, 0)]
                    keep &= positions >= 0
                    row[positions[keep]] = values[keep]
                continue
            for key, m in dcf.mass.items():
                position = index.get(key)
                if position is not None:
                    row[position] = m
        packed = cls(index, matrix, weights)
        _pack_seconds += time.perf_counter() - started
        return packed

    def __len__(self) -> int:
        return self.matrix.shape[0]


def merge_cost_many(dense: DenseDCFSet, mass, weight: float) -> np.ndarray:
    """``delta_I`` (bits) of merging one DCF into every row of ``dense``.

    ``mass`` is the query's sparse joint-mass mapping
    ``{column: p(c) p(t|c)}`` and ``weight`` its prior.  Runs in
    ``O(n * |supp(query)|)`` vectorized element operations.
    """
    columns, values = _gather_columns(dense.index, mass)
    base = _xlogx(dense.weights + weight) - dense.wlogw - _xlogx_scalar(weight)
    if columns:
        sub = dense.matrix[:, columns]
        base += _xlogx(values).sum()
        base += (_xlogx(sub) - _xlogx(sub + values)).sum(axis=1)
    return _quantize(np.maximum(base / _LOG2, 0.0))


def assign_many(dense: DenseDCFSet, rows, priors) -> list[int] | None:
    """Closest packed row per object, for one block of Phase-3 objects.

    ``rows`` are sparse conditionals ``p(T|v)`` and ``priors`` the matching
    ``p(v)``; the block is flattened into one CSR-style gather so the whole
    chunk costs a handful of NumPy calls instead of per-object dispatch.
    Returns ``None`` when the block cannot be packed (non-int column keys,
    an empty row, or an index without a lookup table) -- the caller then
    runs the per-object :func:`merge_cost_many` path, which handles every
    case.  Ties resolve to the lowest representative index and every loss
    passes the shared quantization grid, so assignments are identical to
    the per-object path's.
    """
    lut = _index_lookup(dense.index)
    if lut is None or lut.size == 0:
        return None
    columns: list = []
    values: list = []
    indptr = np.empty(len(rows) + 1, dtype=np.int64)
    indptr[0] = 0
    for i, (row, prior) in enumerate(zip(rows, priors)):
        if prior <= 0.0:
            raise ValueError("cluster prior must be positive")
        before = len(columns)
        for key, p in row.items():
            if p > 0.0:
                columns.append(key)
                values.append(prior * p)
        if len(columns) == before:
            return None  # empty row: np.add.reduceat cannot segment it
        indptr[i + 1] = len(columns)
    try:
        column_array = np.array(columns, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    value_array = np.array(values, dtype=np.float64)

    # Columns outside the packed index contribute exactly zero
    # (xlogx(g) - xlogx(g + 0) = 0), so misses gather column 0 with value 0.
    inside = (column_array >= 0) & (column_array < lut.size)
    positions = lut[np.where(inside, column_array, 0)]
    np.putmask(positions, ~inside, -1)
    misses = positions < 0
    if misses.any():
        positions[misses] = 0
        value_array[misses] = 0.0

    gathered = dense.matrix[:, positions]  # (k, nnz)
    tail = _xlogx(gathered)
    tail -= _xlogx(gathered + value_array)
    starts = indptr[:-1]
    per_object = np.add.reduceat(tail, starts, axis=1)  # (k, n)
    per_object += np.add.reduceat(_xlogx(value_array), starts)
    prior_array = np.asarray(priors, dtype=np.float64)
    costs = (
        _xlogx(dense.weights[:, None] + prior_array[None, :])
        - dense.wlogw[:, None]
        - _xlogx(prior_array)[None, :]
        + per_object
    ) / _LOG2
    np.maximum(costs, 0.0, out=costs)
    costs = _quantize(costs)
    return np.argmin(costs, axis=0).tolist()


#: The posting of a column no row carries yet (never written to).
_NO_POSTING = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))


class PostingsDCFSet:
    """A column-major sparse store of a growing DCF collection.

    The serving twin of :class:`DenseDCFSet`.  For every column key it keeps
    a *posting*: the ascending ``int64`` rows that carry mass there and
    those masses.  Memory is O(non-zeros), and a row absorbs an object with
    a column no row has seen by opening one new posting, where a dense
    matrix would grow a whole column.

    Attributes
    ----------
    postings:
        ``{column key: (rows, masses)}``.
    weights:
        ``(n,)`` cluster priors ``W``.
    wlogw:
        ``(n,)`` cached ``W ln W``.
    """

    __slots__ = ("postings", "weights", "wlogw")

    def __init__(self, dcfs):
        dcfs = list(dcfs)
        if not dcfs:
            raise ValueError("cannot pack zero DCFs")
        columns: dict = {}
        for r, dcf in enumerate(dcfs):
            for key, m in dcf.mass.items():
                rows, masses = columns.setdefault(key, ([], []))
                rows.append(r)
                masses.append(m)
        self.postings = {
            key: (np.array(rows, dtype=np.int64),
                  np.array(masses, dtype=np.float64))
            for key, (rows, masses) in columns.items()
        }
        self.weights = np.array([dcf.weight for dcf in dcfs], dtype=np.float64)
        self.wlogw = _xlogx(self.weights)

    def __len__(self) -> int:
        return self.weights.size

    def closest(self, mass, weight: float) -> int:
        """Row whose merge with the query loses the least (Eq. 3).

        ``mass`` is the query's sparse joint masses and ``weight`` its
        prior.  Every row starts at ``(W+w)ln(W+w) - W ln W - w ln w``; a
        query column adds ``m ln m + v ln v - (m+v)ln(m+v)`` at its posting
        rows only, since the term is zero where a row has no mass.  Losses
        are snapped to the shared grid and ties go to the lowest row, as in
        :func:`repro.clustering.dcf.closest`.
        """
        costs = (_xlogx(self.weights + weight) - self.wlogw
                 - _xlogx_scalar(weight))
        hits = [(self.postings[key], v) for key, v in mass.items()
                if key in self.postings]
        if hits:
            rows = np.concatenate([posting[0] for posting, _ in hits])
            masses = np.concatenate([posting[1] for posting, _ in hits])
            values = np.repeat([v for _, v in hits],
                               [posting[0].size for posting, _ in hits])
            terms = _xlogx(masses) + _xlogx(values) - _xlogx(masses + values)
            costs += np.bincount(rows, weights=terms, minlength=costs.size)
        return int(np.argmin(_quantize(np.maximum(costs / _LOG2, 0.0))))

    def absorb(self, row: int, mass, weight: float) -> None:
        """Merge a query into ``row`` in place (Equations 1-2)."""
        for key, v in mass.items():
            rows, masses = self.postings.get(key, _NO_POSTING)
            at = int(np.searchsorted(rows, row))
            if at < rows.size and rows[at] == row:
                masses[at] += v
            else:
                self.postings[key] = (np.insert(rows, at, row),
                                      np.insert(masses, at, v))
        self.weights[row] += weight
        self.wlogw[row] = _xlogx_scalar(float(self.weights[row]))


class DenseMergeEngine:
    """Incrementally growing packed store backing the dense AIB loop.

    Rows are preallocated for up to ``2n - 1`` nodes so merged clusters get
    fresh ids ``n, n+1, ...`` exactly as the sparse loop assigns them.  Per
    node the engine caches the prior, ``w ln w``, ``S = sum m ln m`` and the
    support column array, all computed once at construction or merge time.
    """

    __slots__ = ("index", "matrix", "weights", "wlogw", "log_sums", "supports")

    def __init__(self, dcfs, index: dict | None = None):
        global _pack_seconds
        started = time.perf_counter()
        dcfs = list(dcfs)
        if not dcfs:
            raise ValueError("cannot build a merge engine over zero DCFs")
        self.index = shared_index(dcfs) if index is None else index
        n = len(dcfs)
        capacity = 2 * n - 1
        d = len(self.index)
        self.matrix = np.zeros((capacity, d), dtype=np.float64)
        self.weights = np.zeros(capacity, dtype=np.float64)
        self.wlogw = np.zeros(capacity, dtype=np.float64)
        self.log_sums = np.zeros(capacity, dtype=np.float64)
        self.supports: list = [None] * capacity
        lut = _index_lookup(self.index)
        for r, dcf in enumerate(dcfs):
            row = self.matrix[r]
            arrays = dcf.arrays() if lut is not None else None
            if arrays is not None and _gather_row(lut, arrays[0], arrays[1], row):
                self.supports[r] = np.flatnonzero(row)
            else:
                # Engine semantics: every key must be in the index (KeyError
                # otherwise, exactly like the direct dict fill).
                for key, m in dcf.mass.items():
                    row[self.index[key]] = m
                self.supports[r] = np.flatnonzero(row)
            self.weights[r] = dcf.weight
            self.wlogw[r] = _xlogx_scalar(dcf.weight)
            # The DCF's additively maintained fsum, not a fresh pairwise
            # sum: an engine rebuilt from pickled DCFs lands on the very
            # same float the original holds.
            self.log_sums[r] = dcf.mass_log_sum
        _pack_seconds += time.perf_counter() - started

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def merge(self, i: int, j: int, new_id: int) -> None:
        """Materialize the merged cluster of nodes ``i`` and ``j`` at ``new_id``."""
        row = self.matrix[new_id]
        np.add(self.matrix[i], self.matrix[j], out=row)
        weight = self.weights[i] + self.weights[j]
        self.weights[new_id] = weight
        self.wlogw[new_id] = _xlogx_scalar(weight)
        support = np.union1d(self.supports[i], self.supports[j])
        self.supports[new_id] = support
        self.log_sums[new_id] = _xlogx(row[support]).sum()

    def costs(self, node: int, others) -> np.ndarray:
        """Merge costs (bits) of ``node`` against each node id in ``others``.

        Restricted to ``node``'s support columns while that support is
        narrow; once it covers most of the index the full-width single-pass
        form (using the cached per-row ``S``) is cheaper and is used
        instead.  Either way a freshly merged cluster is compared against
        all survivors in one vectorized sweep.
        """
        others = np.asarray(others, dtype=np.intp)
        columns = self.supports[node]
        if 2 * columns.size > self.n_columns:
            # Wide support: one xlogx pass over full rows beats two passes
            # over the gathered submatrix.
            merged = self.matrix[others] + self.matrix[node]
            tail = self.log_sums[others] - _xlogx(merged).sum(axis=1)
        else:
            sub = self.matrix[np.ix_(others, columns)]
            tail = (_xlogx(sub) - _xlogx(sub + self.matrix[node, columns])).sum(axis=1)
        losses = (
            _xlogx(self.weights[others] + self.weights[node])
            - self.wlogw[others]
            - self.wlogw[node]
            + self.log_sums[node]
            + tail
        ) / _LOG2
        return _quantize(np.maximum(losses, 0.0))


class CandidateMatrix:
    """Pairwise candidate store with cached per-row minima.

    The dense twin of the sparse AIB loop's lazy-deletion heap.  Cell
    ``(a, b)`` (``a < b``, both alive) holds the merge cost computed when
    the younger node was born; dead and unborn pairs are ``+inf``.
    :meth:`best` returns the lexicographically smallest ``(cost, a, b)``
    triple -- ``np.argmin``'s first-occurrence rule over id-ordered rows and
    columns implements exactly the heap's ``(loss, node ids)`` tie-break, so
    the selected merge sequence is identical.
    """

    __slots__ = ("costs", "row_min", "row_argmin")

    def __init__(self, capacity: int):
        self.costs = np.full((capacity, capacity), np.inf, dtype=np.float64)
        self.row_min = np.full(capacity, np.inf, dtype=np.float64)
        self.row_argmin = np.zeros(capacity, dtype=np.intp)

    def fill_row(self, a: int, costs: np.ndarray) -> None:
        """Set the costs of pairs ``(a, a+1 .. a+len(costs))``."""
        self.costs[a, a + 1 : a + 1 + costs.size] = costs
        self._rescan(a)

    def _rescan(self, a: int) -> None:
        row = self.costs[a]
        b = int(np.argmin(row))
        self.row_min[a] = row[b]
        self.row_argmin[a] = b

    def best(self) -> tuple[int, int, float]:
        """The minimum-cost alive pair ``(a, b, cost)``, heap-tie-broken."""
        a = int(np.argmin(self.row_min))
        return a, int(self.row_argmin[a]), float(self.row_min[a])

    def merge(self, i: int, j: int, new_id: int, others, new_costs) -> None:
        """Retire ``i``/``j``, add ``new_id``'s pairs, refresh cached minima.

        ``others`` are the surviving node ids and ``new_costs`` their costs
        against the merged cluster (pairs ``(other, new_id)``, since
        ``new_id`` is always the largest id).
        """
        costs = self.costs
        costs[i, :] = np.inf
        costs[:, i] = np.inf
        costs[j, :] = np.inf
        costs[:, j] = np.inf
        self.row_min[i] = self.row_min[j] = np.inf
        stale = np.flatnonzero(
            (self.row_argmin == i) | (self.row_argmin == j)
        )
        if len(others):
            others = np.asarray(others, dtype=np.intp)
            new_costs = np.asarray(new_costs, dtype=np.float64)
            costs[others, new_id] = new_costs
            # Strict < keeps the smaller column id on ties (new_id is the
            # largest id, so the incumbent wins them, as in the heap).
            better = new_costs < self.row_min[others]
            improved = others[better]
            self.row_min[improved] = new_costs[better]
            self.row_argmin[improved] = new_id
        for a in stale:
            if a != i and a != j:
                self._rescan(int(a))
