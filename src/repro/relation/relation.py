"""The ``Relation`` type: a bag of categorical tuples over a schema.

Tuples are plain Python tuples of hashable values; ``NULL`` (exposed as the
module-level sentinel, rendered as the empty CSV field) models missing
values, which the paper's integrated DBLP relation is full of.  A relation is
a *bag*: duplicate tuples are kept, because duplication is precisely what the
paper's tools mine for.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator

from repro.relation.schema import Attribute, Schema


class _Null:
    """Singleton sentinel for missing values (prints as ``NULL``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):
        return (_Null, ())


#: The missing-value sentinel used throughout the library.
NULL = _Null()


class Relation:
    """A bag of tuples over a :class:`Schema`.

    Construction copies the rows into canonical tuple form and verifies
    arity.  Values may be any hashable object; use :data:`NULL` for missing
    values.

    Internally a relation has two interchangeable representations: the row
    tuples and an integer-coded :class:`repro.relation.columns.ColumnStore`
    (per-attribute value dictionaries + ``int32`` code columns).  Either can
    be the one a relation is born with -- :meth:`from_columns` builds a
    relation straight from coded columns (the CSV ingest path) and the row
    tuples materialize lazily, only when a display/join/REPL path asks for
    them.  The coded form is what the mining hot paths (partitions, matrix
    builders, fingerprints) consume via :attr:`coded`.
    """

    __slots__ = ("schema", "_rows", "_coded")

    def __init__(self, schema, rows: Iterable = ()):
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        arity = len(self.schema)
        canonical = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise ValueError(
                    f"row {row!r} has arity {len(row)}, schema expects {arity}"
                )
            canonical.append(row)
        self._rows = canonical
        self._coded = None

    @classmethod
    def from_columns(cls, schema, store) -> "Relation":
        """A relation whose native representation is a coded column store.

        Row tuples are not materialized until something asks for
        :attr:`rows`; the mining paths never do.
        """
        schema = schema if isinstance(schema, Schema) else Schema(schema)
        if tuple(store.names) != schema.names:
            raise ValueError(
                f"column store covers {list(store.names)!r}, "
                f"schema expects {list(schema.names)!r}"
            )
        relation = object.__new__(cls)
        relation.schema = schema
        relation._rows = None
        relation._coded = store
        return relation

    @property
    def rows(self) -> list:
        """The row tuples (materialized from the coded columns on demand)."""
        if self._rows is None:
            self._rows = self._coded.row_tuples()
        return self._rows

    @property
    def coded(self):
        """The integer-coded column store (built from the rows on demand)."""
        if self._coded is None:
            from repro.relation.columns import ColumnStore

            self._coded = ColumnStore.from_rows(self.schema.names, self._rows)
        return self._coded

    def __getstate__(self):
        # Prefer shipping the coded form: dictionaries + int32 columns pickle
        # far smaller than value tuples, and the receiver rebuilds rows lazily.
        if self._coded is not None:
            return {"schema": self.schema, "coded": self._coded}
        return {"schema": self.schema, "rows": self._rows}

    def __setstate__(self, state):
        self.schema = state["schema"]
        self._coded = state.get("coded")
        self._rows = state.get("rows") if self._coded is None else None

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._coded.n_rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> tuple:
        return self.rows[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Relation):
            return self.schema == other.schema and Counter(self.rows) == Counter(
                other.rows
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"Relation({list(self.schema.names)!r}, {len(self)} tuples)"

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names, in schema order."""
        return self.schema.names

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.schema)

    def copy(self) -> "Relation":
        """A shallow copy (rows are immutable tuples, so this is safe)."""
        return Relation(self.schema, self.rows)

    # -- columns ------------------------------------------------------------------

    def column(self, name: str) -> list:
        """All values of one attribute, in tuple order (bag semantics)."""
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def domain(self, name: str) -> set:
        """The active domain (distinct values) of one attribute."""
        return set(self.column(name))

    def value_count(self) -> int:
        """Number of distinct attribute values across the whole relation.

        Counts *global* literals, matching the paper's counts (e.g. the DB2
        sample relation has 255 attribute values).  A coded relation counts
        the union of its dictionaries, whose entries are exactly the values
        its columns hold, without materializing the rows.
        """
        if self._coded is not None:
            return len(set().union(
                *(d.values for d in self._coded.dictionaries)))
        values: set = set()
        for row in self._rows:
            values.update(row)
        return len(values)

    # -- relational operators --------------------------------------------------------

    def project(self, names, distinct: bool = False) -> "Relation":
        """Projection onto ``names``; set semantics when ``distinct``."""
        positions = self.schema.positions(names)
        projected = [tuple(row[p] for p in positions) for row in self.rows]
        if distinct:
            projected = list(dict.fromkeys(projected))
        return Relation(self.schema.subset(names), projected)

    def select(self, predicate) -> "Relation":
        """Rows for which ``predicate(row_dict)`` is true."""
        names = self.schema.names
        kept = [
            row for row in self.rows if predicate(dict(zip(names, row)))
        ]
        return Relation(self.schema, kept)

    def where(self, name: str, value) -> "Relation":
        """Rows whose attribute ``name`` equals ``value``."""
        position = self.schema.position(name)
        return Relation(
            self.schema, [row for row in self.rows if row[position] == value]
        )

    def distinct(self) -> "Relation":
        """Set-semantics copy (first occurrence order preserved)."""
        return Relation(self.schema, dict.fromkeys(self.rows))

    def rename(self, mapping: dict) -> "Relation":
        """Rename attributes via ``mapping`` (old name -> new name)."""
        return Relation(self.schema.renamed(mapping), self.rows)

    def extended(self, rows: Iterable) -> "Relation":
        """A new relation with ``rows`` appended."""
        return Relation(self.schema, list(self.rows) + [tuple(r) for r in rows])

    def drop(self, names) -> "Relation":
        """Projection onto everything except ``names``."""
        dropped = set(names)
        kept = [name for name in self.schema.names if name not in dropped]
        return self.project(kept)

    def take(self, indices: Iterable[int]) -> "Relation":
        """The sub-bag of rows at the given indices."""
        return Relation(self.schema, [self.rows[i] for i in indices])

    # -- tuple/record access --------------------------------------------------------

    def record(self, index: int) -> dict:
        """Row ``index`` as an attribute-name -> value dict."""
        return dict(zip(self.schema.names, self.rows[index]))

    def records(self) -> Iterator[dict]:
        """Iterate rows as dicts."""
        names = self.schema.names
        for row in self.rows:
            yield dict(zip(names, row))

    # -- summaries ------------------------------------------------------------------

    def null_fraction(self, name: str) -> float:
        """Fraction of NULLs in one attribute (0.0 for an empty relation)."""
        if not self.rows:
            return 0.0
        column = self.column(name)
        return sum(1 for value in column if value is NULL) / len(column)

    def head(self, k: int = 5) -> str:
        """A small aligned-text preview, handy in examples and debugging."""
        names = self.schema.names
        shown = [[str(v) if v is not NULL else "·" for v in row] for row in self.rows[:k]]
        widths = [
            max(len(names[i]), *(len(r[i]) for r in shown)) if shown else len(names[i])
            for i in range(len(names))
        ]
        header = "  ".join(name.ljust(w) for name, w in zip(names, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in shown]
        if len(self.rows) > k:
            lines.append(f"... ({len(self.rows)} tuples total)")
        return "\n".join(lines)


def from_records(records: Iterable[dict], attributes=None, source: str | None = None) -> Relation:
    """Build a relation from dict records.

    Missing keys become :data:`NULL`.  When ``attributes`` is omitted, the
    schema is the union of keys in first-seen order.
    """
    records = list(records)
    if attributes is None:
        seen: dict = {}
        for record in records:
            for key in record:
                seen.setdefault(key, None)
        attributes = list(seen)
    schema = Schema([Attribute(str(name), source) for name in attributes])
    rows = [tuple(record.get(name, NULL) for name in schema.names) for record in records]
    return Relation(schema, rows)
