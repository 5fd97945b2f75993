"""Packed DCF representations and batched ``delta_I`` kernels.

All kernels work in *joint-mass* space (``m_k = p(c) * p(k|c)``), the same
representation the sparse :class:`repro.clustering.dcf.DCF` uses, and
evaluate the information loss of Eq. 3 through the entropy identity

    delta_I(a, b) * ln 2 = W ln W - w_a ln w_a - w_b ln w_b
                           + S_a + S_b - S_merged

with ``W = w_a + w_b`` and ``S = sum_k m_k ln m_k`` -- the vectorized twin
of the ``H(p_bar) - pi H(p) - pi H(q)`` Jensen-Shannon form.  Because
columns outside the support of the *query* operand cancel between ``S_a``
and ``S_merged``, every kernel restricts its work to the query's support,
mirroring the smaller-operand trick of the sparse path: the AIB engine
gathers those columns of a dense matrix, and :class:`PostingsDCFSet` reads
only their postings.

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

#: Wall-clock seconds spent packing DCFs (the matrix gathers of
#: ``DenseMergeEngine.__init__`` and the postings build of
#: ``PostingsDCFSet.__init__``).  The benchmark's ``pack_s`` metric.
_pack_seconds = 0.0


def reset_pack_seconds() -> None:
    """Zero the pack-time accumulator (call before a timed region)."""
    global _pack_seconds
    _pack_seconds = 0.0


def pack_seconds() -> float:
    """Seconds spent packing DCFs since the last reset."""
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


def _xlogx_positive(values: np.ndarray) -> np.ndarray:
    """``x ln x`` of a strictly positive array: :func:`_xlogx` without the
    zero mask, which costs the postings kernel two extra passes."""
    out = np.log(values)
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


#: The posting of a column no row carries yet (never written to).
_NO_POSTING = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

#: The scale of hits whose masses are already joint: a part's heavy
#: columns and a daemon query's columns.
_ONE = np.ones(1)

#: Relative slack of :func:`_closest_rows`' candidate window: a loss that
#: snaps to the same grid point as the row minimum lies within 1.5 grid
#: steps of it, at most ``0.75 * 2**-28`` of the minimum.
_NEAR_MINIMUM = 1.0 + 2.0 ** -28


def _closest_rows(costs: np.ndarray) -> np.ndarray:
    """Per query, the lowest row with the minimum snapped loss.

    ``costs`` is a ``(queries, rows)`` array of losses in nats.  The answer
    is ``argmin(_quantize(max(costs / ln 2, 0)))`` per query.  The grid is
    monotone, so only the cells within :data:`_NEAR_MINIMUM` of the
    query's raw minimum (plus :data:`LOSS_FLOOR`) can snap to the
    minimum's grid point: a query with one such cell takes its raw argmin,
    and only the queries with several snap theirs.
    """
    best = costs.argmin(axis=1)
    lowest = costs[np.arange(costs.shape[0]), best]
    window = (np.maximum(lowest, 0.0) + LOSS_FLOOR * _LOG2) * _NEAR_MINIMUM
    near = costs <= window[:, None]
    crowded = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
    if crowded.size:
        owners, rows = np.nonzero(near[crowded])
        snapped = _quantize(np.maximum(costs[crowded[owners], rows] / _LOG2,
                                       0.0))
        # Sort the cells by query, snapped loss and row: each query's first
        # cell is its answer.
        order = np.lexsort((rows, snapped, owners))
        first = np.searchsorted(owners[order], np.arange(crowded.size))
        best[crowded] = rows[order[first]]
    return best


#: A posting longer than this many rows is *heavy*.  Queries that share a
#: prior and their heavy columns and masses (a *part*) share one cost row,
#: so a heavy posting is costed once per part, not once per query.  On
#: ``dblp(8000, seed=1)`` at phi=0, cuts of 128, 256 and 512 rows leave
#: 40, 27 and 6 heavy columns over 905, 402 and 43 parts, and 61, 118 and
#: 453 light hits per query.  Phase 3 there took 432 ms at 128 and
#: 372-383 ms from 256 to 1,024; 256 is the plateau's fewest light hits.
HEAVY_POSTING_ROWS = 256


def postings_bytes(dcfs, block: int) -> int:
    """Byte estimate of a :class:`PostingsDCFSet` over ``dcfs`` plus the
    per-row scratch of one :meth:`PostingsDCFSet.closest_many` block of
    ``block`` objects: about three ``float64`` cells per object and row,
    and a fourth for the object's part row.
    :meth:`PostingsDCFSet.hit_bytes` adds the block's posting hits.  Used
    for the memory governor's cooperative refusal, like :func:`dense_bytes`.
    """
    nonzeros = sum(len(dcf.mass) for dcf in dcfs)
    return 16 * nonzeros + (16 + 32 * block) * len(dcfs)


class PostingsDCFSet:
    """A column-major sparse store of a DCF collection: the Phase-3 kernel.

    For every column key it keeps a *posting*: the ascending ``int64`` rows
    that carry mass there and those masses.  Memory is O(non-zeros), and a
    row absorbs an object with a column no row has seen by opening one new
    posting, where a dense matrix would grow a whole column.  LIMBO's batch
    association (:func:`repro.clustering.limbo.assign_rows`) asks
    :meth:`closest_many` for blocks of objects; the daemon's assigner asks
    :meth:`closest` for one row at a time, then :meth:`absorb` merges it.

    A posting longer than :data:`HEAVY_POSTING_ROWS` is heavy.  A query's
    *part* is its prior with its heavy columns and masses; the queries of a
    part share one cost row (the prior's base term plus the heavy terms),
    and each adds only its light hits to its copy.  The set keeps the part
    rows of the last block it costed, so blocks ordered by part
    (:meth:`part_order`) cost each part about once.

    Attributes
    ----------
    postings:
        ``{column key: (rows, masses)}``.
    weights:
        ``(n,)`` cluster priors ``W``.
    wlogw:
        ``(n,)`` cached ``W ln W``.
    heavy:
        The keys of the heavy postings.
    """

    __slots__ = ("postings", "weights", "wlogw", "heavy", "_parts", "_scratch")

    def __init__(self, dcfs):
        global _pack_seconds
        started = time.perf_counter()
        dcfs = list(dcfs)
        if not dcfs:
            raise ValueError("cannot pack zero DCFs")
        # Number the keys in first-seen order, then one stable sort groups
        # the (row, mass) pairs by key with rows ascending; each posting is
        # a view into the two sorted arrays.
        ids: dict = {}
        codes = [ids.setdefault(key, len(ids))
                 for dcf in dcfs for key in dcf.mass]
        order = np.argsort(codes, kind="stable")
        sizes = [len(dcf.mass) for dcf in dcfs]
        rows = np.repeat(np.arange(len(dcfs)), sizes)[order]
        masses = np.fromiter((m for dcf in dcfs for m in dcf.mass.values()),
                             dtype=np.float64, count=len(codes))[order]
        counts = np.bincount(codes, minlength=len(ids))
        bounds = [0] + np.cumsum(counts).tolist()
        self.postings = {
            key: (rows[start:stop], masses[start:stop])
            for key, start, stop in zip(ids, bounds, bounds[1:])
        }
        keys = list(ids)
        self.heavy = {keys[code] for code in
                      np.flatnonzero(counts > HEAVY_POSTING_ROWS).tolist()}
        self.weights = np.array([dcf.weight for dcf in dcfs], dtype=np.float64)
        self.wlogw = _xlogx(self.weights)
        self._parts: dict = {}
        self._scratch = np.empty((0, len(dcfs)))
        _pack_seconds += time.perf_counter() - started

    def __len__(self) -> int:
        return self.weights.size

    def closest(self, mass, weight: float) -> int:
        """Row whose merge with the query loses the least (Eq. 3).

        ``mass`` is the query's sparse joint masses and ``weight`` its
        prior.  Every row starts at ``(W+w)ln(W+w) - W ln W - w ln w``; a
        query column adds ``m ln m + v ln v - (m+v)ln(m+v)`` at its posting
        rows only, since the term is zero where a row has no mass.  Losses
        are snapped to the shared grid and ties go to the lowest row, as in
        :func:`repro.clustering.dcf.closest`.  One query has no part to
        share, so every column is costed here, heavy or light.
        """
        costs = (_xlogx_positive(self.weights + weight) - self.wlogw
                 - _xlogx_scalar(weight))[None, :]
        postings = self.postings
        self._add_hits(costs, [(posting, m, 0) for key, m in mass.items()
                               if m > 0.0
                               and (posting := postings.get(key)) is not None],
                       _ONE)
        return int(_closest_rows(costs)[0])

    def closest_many(self, rows, priors) -> list[int]:
        """:meth:`closest` for a block of objects, in one pass.

        ``rows`` are sparse conditionals ``p(T|v)`` and ``priors`` the
        matching ``p(v)``; an object's masses are ``p(v) p(t|v)`` over its
        positive entries, as :class:`repro.clustering.dcf.DCF` builds them.
        Each object's costs are its part row plus its light hits: the terms
        :meth:`closest` sums, grouped differently, so the answers agree up
        to roundoff on the shared grid.
        """
        weights = np.asarray(priors, dtype=np.float64)
        if (weights <= 0.0).any():
            raise ValueError("cluster prior must be positive")
        parts, hits = self._split(rows, weights.tolist())
        costs = self._part_rows(parts)
        self._add_hits(costs, hits, weights)
        return _closest_rows(costs).tolist()

    def part_order(self, rows, priors) -> list[int] | None:
        """The indices of the objects of :meth:`closest_many`, grouped by
        part in first-seen order; ``None`` when no posting is heavy (a
        part is then a prior, and the objects keep their order)."""
        if not self.heavy:
            return None
        heavy = self.heavy
        groups: dict = {}
        for index, (row, w) in enumerate(zip(rows, priors)):
            part = (w, tuple((key, w * p) for key, p in row.items()
                             if p > 0.0 and key in heavy))
            groups.setdefault(part, []).append(index)
        return [index for members in groups.values() for index in members]

    def hit_bytes(self, rows, priors) -> int:
        """Byte estimate of the hit scratch of ``closest_many(rows, priors)``:
        40 bytes per posting row a light column or a part's heavy column
        reaches (the positions and their offset temporary, and the masses,
        merged and terms cells of :meth:`_add_hits`), as tracemalloc
        measures it on DBLP blocks.
        """
        parts, hits = self._split(rows, priors)
        postings = self.postings
        return 40 * (sum(len(posting[0]) for posting, _, _ in hits)
                     + sum(len(postings[key][0]) for part in set(parts)
                           for key, _ in part[1]))

    def _split(self, rows, priors):
        """One pass over the block's ``(key, p)`` pairs: each query's part
        ``(prior, ((heavy key, mass), ...))`` and its light hits
        ``(posting, p, query)``; columns no row carries are dropped."""
        postings = self.postings
        if not self.heavy:
            return [(w, ()) for w in priors], [
                (posting, p, i) for i, row in enumerate(rows)
                for key, p in row.items()
                if p > 0.0 and (posting := postings.get(key)) is not None]
        heavy = self.heavy
        parts, hits = [], []
        for i, (row, w) in enumerate(zip(rows, priors)):
            part = []
            for key, p in row.items():
                if p > 0.0 and (posting := postings.get(key)) is not None:
                    if key in heavy:
                        part.append((key, w * p))
                    else:
                        hits.append((posting, p, i))
            parts.append((w, tuple(part)))
        return parts, hits

    def _part_rows(self, parts) -> np.ndarray:
        """A ``(queries, rows)`` array holding each query's part row.

        Rows of parts the last block also had are reused.  Each other
        part's row is its prior's base term, computed once per distinct
        prior, plus the terms of its heavy columns, added one part at a
        time so that only one part's heavy hits are held at once.  The set
        then keeps only this block's part rows.
        """
        index: dict = {}
        inverse = [index.setdefault(part, len(index)) for part in parts]
        kept = self._parts
        table = np.empty((len(index), len(self)))
        fresh = []
        for part, row in zip(index, table):
            if part in kept:
                row[:] = kept[part]
            else:
                fresh.append((part, row))
        if fresh:
            weights = np.array([w for (w, _), _ in fresh], dtype=np.float64)
            unique, which = np.unique(weights, return_inverse=True)
            base = _xlogx_positive(self.weights + unique[:, None]) - self.wlogw
            base -= np.array([_xlogx_scalar(w) for w in unique.tolist()])[:, None]
            postings = self.postings
            for ((_, heavy), row), u in zip(fresh, which.tolist()):
                row[:] = base[u]
                self._add_hits(row[None, :], [(postings[key], m, 0)
                                              for key, m in heavy], _ONE)
        self._parts = dict(zip(index, table))
        # The block's cost rows reuse one buffer: a fresh block x rows array
        # per block lets the allocator hand its pages back and fault them
        # in again (about 1M minor faults over dblp(8000) at phi=0, doubling
        # Phase 3).
        if self._scratch.shape[0] < len(parts):
            self._scratch = np.empty((len(parts), len(self)))
        return np.take(table, inverse, axis=0, out=self._scratch[:len(parts)])

    @staticmethod
    def _add_hits(costs: np.ndarray, hits, scales: np.ndarray) -> None:
        """Add the hit terms to ``costs`` in place.

        A hit ``(posting, p, i)`` adds the terms of mass ``scales[i] * p``
        at the posting's rows of ``costs[i]``.  The postings are gathered
        into one ragged run, and one ``np.bincount`` adds them all.
        """
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
        # One allocation for the term-sized scratch: fewer, larger
        # temporaries keep the allocator from returning (and re-faulting)
        # the pages between blocks.
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

    def absorb(self, row: int, mass, weight: float) -> None:
        """Merge a query into ``row`` in place (Equations 1-2).

        A posting the merge lengthens past :data:`HEAVY_POSTING_ROWS`
        becomes heavy, and the kept part rows are dropped.
        """
        for key, v in mass.items():
            rows, masses = self.postings.get(key, _NO_POSTING)
            at = int(np.searchsorted(rows, row))
            if at < rows.size and rows[at] == row:
                masses[at] += v
            else:
                self.postings[key] = (np.insert(rows, at, row),
                                      np.insert(masses, at, v))
                if rows.size >= HEAVY_POSTING_ROWS:
                    self.heavy.add(key)
        self.weights[row] += weight
        self.wlogw[row] = _xlogx_scalar(float(self.weights[row]))
        self._parts = {}


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
