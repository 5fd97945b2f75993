"""Columnar relation storage: per-attribute dictionaries + int32 code columns.

Every attribute of a relation is dictionary-encoded at ingest: the distinct
values of the attribute get dense codes ``0, 1, 2, ...`` in first-seen order,
and the column itself becomes a NumPy ``int32`` array of codes.  This is the
substrate the hot paths consume directly:

* partitions refine a row grouping one code column at a time
  (:func:`refine`) instead of hashing value tuples per row;
* the matrix builders (``M``/``N``/``O``) derive their value catalogs from
  the dictionaries with one vectorized pass instead of re-hashing literals;
* FDEP's pair scan compares code columns instead of value lists;
* checkpoint fingerprints hash dictionaries + columns, which makes them
  invariant to how the ingest stream was chunked.

First-seen code assignment is *chunk-size invariant by construction*: codes
depend only on the order values appear in the row stream, so streaming a
file in 1-row chunks or loading it whole yields identical dictionaries and
columns.  The pickled form round-trips (a supervisor child receives the
same store its parent built), and row tuples can always be rematerialized for
display/join/REPL paths via :meth:`ColumnStore.row_tuples`.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.relation.relation import NULL


class AttributeDictionary:
    """The value <-> code mapping of one attribute.

    Codes are dense ints assigned in first-seen order over the row stream.
    Values may be any hashable object; :data:`repro.relation.NULL` is an
    ordinary dictionary entry (NULL == NULL, as everywhere in this library).
    """

    __slots__ = ("codes", "values")

    def __init__(self):
        self.codes: dict = {}
        self.values: list = []

    def __len__(self) -> int:
        return len(self.values)

    def encode(self, cells) -> np.ndarray:
        """Codes of a sequence of cells, allocating new codes on first sight."""
        codes = self.codes
        values = self.values
        out = np.empty(len(cells), dtype=np.int32)
        for i, cell in enumerate(cells):
            code = codes.get(cell)
            if code is None:
                code = len(values)
                codes[cell] = code
                values.append(cell)
            out[i] = code
        return out

    def __getstate__(self):
        return self.values

    def __setstate__(self, values):
        self.values = list(values)
        self.codes = {value: code for code, value in enumerate(self.values)}


class ColumnStore:
    """Integer-coded columns of one relation, built incrementally.

    ``append_rows`` accepts row-tuple chunks as :func:`repro.relation.iter_csv`
    yields them; the per-attribute dictionaries merge across chunks simply by
    continuing their first-seen numbering.  ``dict_build_s`` accumulates the
    wall-clock spent encoding, for the benchmark's ``dict_build_s`` metric.
    """

    __slots__ = ("names", "dictionaries", "_segments", "_columns",
                 "dict_build_s", "_global_cache")

    def __init__(self, names):
        self.names = tuple(str(name) for name in names)
        self.dictionaries = tuple(AttributeDictionary() for _ in self.names)
        self._segments: list[list[np.ndarray]] = [[] for _ in self.names]
        self._columns: tuple[np.ndarray, ...] | None = None
        self.dict_build_s = 0.0
        self._global_cache: dict = {}

    @classmethod
    def from_rows(cls, names, rows) -> "ColumnStore":
        """Encode a fully materialized row list in one chunk."""
        store = cls(names)
        store.append_rows(rows)
        return store

    # -- building -----------------------------------------------------------------

    def append_rows(self, rows) -> None:
        """Encode one chunk of row tuples onto the end of every column."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return
        start = time.perf_counter()
        arity = len(self.names)
        if arity:
            cells_by_attribute = list(zip(*rows))
            if len(cells_by_attribute) != arity:
                raise ValueError(
                    f"chunk rows have arity {len(cells_by_attribute)}, "
                    f"store expects {arity}"
                )
            for a, dictionary in enumerate(self.dictionaries):
                self._segments[a].append(dictionary.encode(cells_by_attribute[a]))
        self._columns = None
        self._global_cache.clear()
        self.dict_build_s += time.perf_counter() - start

    # -- access -------------------------------------------------------------------

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """One ``int32`` code array per attribute, in schema order."""
        if self._columns is None:
            finalized = []
            for segments in self._segments:
                if len(segments) == 1:
                    finalized.append(segments[0])
                elif segments:
                    finalized.append(np.concatenate(segments))
                else:
                    finalized.append(np.empty(0, dtype=np.int32))
            self._columns = tuple(finalized)
            self._segments = [[column] for column in self._columns]
        return self._columns

    @property
    def n_rows(self) -> int:
        if not self.names:
            return 0
        return sum(segment.size for segment in self._segments[0])

    @property
    def arity(self) -> int:
        return len(self.names)

    def cardinalities(self) -> tuple[int, ...]:
        """Distinct-value count per attribute."""
        return tuple(len(d) for d in self.dictionaries)

    def column_values(self, position: int) -> list:
        """One attribute decoded back to literals, in row order."""
        values = self.dictionaries[position].values
        return [values[code] for code in self.columns[position].tolist()]

    def row_tuples(self) -> list[tuple]:
        """Rematerialize the row tuples (display/join/REPL paths)."""
        if not self.names:
            return []
        decoded = [self.column_values(a) for a in range(len(self.names))]
        return list(zip(*decoded)) if decoded else []

    # -- global value ids (the matrix builders' catalogs) ---------------------------

    def global_codes(self, scope: str) -> tuple[np.ndarray, list]:
        """Per-cell catalog ids plus the catalog keys, for one value scope.

        Returns ``(ids, keys)`` where ``ids`` is an ``(n_rows, arity)``
        ``int32`` matrix of catalog ids and ``keys[i]`` is the catalog key of
        id ``i`` -- the literal under ``"global"`` scope, the
        ``(attribute_name, literal)`` pair under ``"attribute"`` scope.  Ids
        are assigned in first-sight order scanning rows left to right, top to
        bottom: exactly the numbering the per-row
        :class:`repro.relation.matrices.ValueCatalog` produces.
        """
        cached = self._global_cache.get(scope)
        if cached is not None:
            return cached
        if scope not in ("global", "attribute"):
            raise ValueError(
                f"value_scope must be 'global' or 'attribute', got {scope!r}"
            )
        columns = self.columns
        n, m = self.n_rows, len(self.names)
        cards = [len(d) for d in self.dictionaries]
        offsets = np.concatenate(([0], np.cumsum(cards[:-1], dtype=np.int64))) \
            if m else np.zeros(0, dtype=np.int64)
        total = int(offsets[-1]) + cards[-1] if m else 0

        combined = np.empty((n, m), dtype=np.int64)
        for a in range(m):
            np.add(columns[a], offsets[a], out=combined[:, a])
        flat = combined.ravel()  # row-major == the catalog's scan order

        # First flat-scan position of every (attribute, code) pair, then an
        # id per catalog key in order of first appearance.  The Python loop
        # is O(sum of cardinalities), not O(n * m).
        present, first_pos = np.unique(flat, return_index=True)
        order = np.argsort(first_pos, kind="stable")
        lut = np.full(total, -1, dtype=np.int64)
        keys: list = []
        if scope == "attribute":
            lut[present[order]] = np.arange(order.size)
            attr_of = np.repeat(np.arange(m), cards)
            for key in present[order].tolist():
                a = int(attr_of[key])
                keys.append(
                    (self.names[a],
                     self.dictionaries[a].values[key - int(offsets[a])])
                )
        else:
            attr_of = np.repeat(np.arange(m), cards)
            literal_ids: dict = {}
            for key in present[order].tolist():
                a = int(attr_of[key])
                literal = self.dictionaries[a].values[key - int(offsets[a])]
                value_id = literal_ids.get(literal)
                if value_id is None:
                    value_id = len(keys)
                    literal_ids[literal] = value_id
                    keys.append(literal)
                lut[key] = value_id
        ids = lut[flat].reshape(n, m).astype(np.int32)
        result = (ids, keys)
        self._global_cache[scope] = result
        return result

    # -- identity -----------------------------------------------------------------

    def content_digest(self) -> str:
        """Hex digest of schema names, dictionaries and code columns.

        Depends only on the encoded content, never on how the ingest stream
        was chunked -- the property checkpoint fingerprints need so a resume
        under a different ``chunk_rows`` still validates.  NULL hashes
        distinctly from any string (including ``"NULL"``).
        """
        digest = hashlib.sha256()
        digest.update("\x1f".join(self.names).encode("utf-8", "surrogatepass"))
        for dictionary, column in zip(self.dictionaries, self.columns):
            digest.update(b"\x1d")
            encoded = "\x1e".join(
                "\x00" if value is NULL else repr(value)
                for value in dictionary.values
            )
            digest.update(encoded.encode("utf-8", "surrogatepass"))
            digest.update(b"\x1c")
            digest.update(np.ascontiguousarray(column, dtype="<i4").tobytes())
        return digest.hexdigest()

    def nbytes(self) -> int:
        """Resident bytes of the code columns (dictionaries excluded)."""
        return sum(column.nbytes for column in self.columns)

    # -- pickling -----------------------------------------------------------------

    def __getstate__(self):
        return {
            "names": self.names,
            "dictionaries": self.dictionaries,
            "columns": self.columns,
            "dict_build_s": self.dict_build_s,
        }

    def __setstate__(self, state):
        self.names = state["names"]
        self.dictionaries = state["dictionaries"]
        self._columns = tuple(state["columns"])
        self._segments = [[column] for column in self._columns]
        self.dict_build_s = state["dict_build_s"]
        self._global_cache = {}

    def __repr__(self) -> str:
        return (
            f"ColumnStore({list(self.names)!r}, {self.n_rows} rows, "
            f"cardinalities={list(self.cardinalities())!r})"
        )


#: :func:`refine` numbers keys with a presence table while the key space is
#: at most this many slots per row, and sorts them with ``np.unique`` above.
TABLE_KEYS_PER_ROW = 8


def refine(groups: np.ndarray, n_groups: int, codes: np.ndarray,
           card: int) -> tuple[np.ndarray, np.ndarray]:
    """Refine a row grouping by one code column.

    ``groups`` labels every row with a group in ``0 .. n_groups - 1`` and
    ``codes`` is a column of codes in ``0 .. card - 1``.  Returns exactly
    the inverse of ``np.unique(groups * card + codes, return_inverse=True)``
    and its ``np.bincount``: the refined groups, numbered in increasing
    fused-key order, and their row counts.

    When the ``n_groups * card`` fused keys fit :data:`TABLE_KEYS_PER_ROW`
    slots per row, a presence table over them and one ``cumsum`` number
    the occupied keys in that same increasing order, without a sort.  A
    larger key space (a near-key grouping refined by a wide column) is
    sorted with ``np.unique``, whose cost follows the rows instead.
    """
    keys = np.multiply(groups, card, dtype=np.int64)
    keys += codes
    if n_groups * card <= TABLE_KEYS_PER_ROW * keys.size:
        table = np.bincount(keys, minlength=n_groups * card)
        present = table > 0
        rank = np.cumsum(present) - 1
        return rank[keys], table[present]
    _, inverse = np.unique(keys, return_inverse=True)
    return inverse, np.bincount(inverse)
