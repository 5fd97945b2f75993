"""The columnar substrate: chunk-invariant encoding, pickling, fingerprints.

The dictionary-encoded :class:`repro.relation.columns.ColumnStore` claims
first-seen code assignment is *chunk-size invariant by construction*.  These
tests pin that claim along the three paths that rely on it:

* streaming ingest (:func:`repro.relation.iter_csv` chunk by chunk),
* the governed-ingest row-stride degrade path of the CLI, and
* checkpoint fingerprints (a resume under different chunking must validate).
"""

import pickle

import numpy as np
import pytest

from repro.checkpoint import CheckpointStore, relation_fingerprint
from repro.relation import NULL, Relation, iter_csv, load_csv
from repro.relation.columns import AttributeDictionary, ColumnStore
from repro.relation.relation import Relation as RelationClass

CSV_TEXT = (
    "city,country,lang\n"
    "paris,france,fr\n"
    "lyon,france,fr\n"
    "bonn,germany,de\n"
    "paris,france,fr\n"
    ",france,fr\n"  # NULL city
    "turin,italy,it\n"
    "bonn,germany,de\n"
    "graz,austria,de\n"  # 'graz'/'austria' first appear in a late chunk
    "paris,,fr\n"
)


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "cities.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    return path


def store_from_chunks(path, chunk_rows):
    store = None
    for schema, chunk in iter_csv(path, chunk_rows=chunk_rows):
        if store is None:
            store = ColumnStore(schema.names)
        store.append_rows(chunk)
    return schema, store


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 4096])
    def test_iter_csv_chunking_is_invisible(self, csv_path, chunk_rows):
        """Any chunk size yields the whole-file dictionaries and columns."""
        whole, _ = load_csv(csv_path)
        _, store = store_from_chunks(csv_path, chunk_rows)
        reference = whole.coded
        assert store.names == reference.names
        for built, expected in zip(store.dictionaries, reference.dictionaries):
            assert built.values == expected.values
        for built, expected in zip(store.columns, reference.columns):
            assert built.dtype == np.int32
            assert built.tolist() == expected.tolist()
        assert store.content_digest() == reference.content_digest()

    def test_value_first_seen_in_late_chunk_gets_whole_file_code(self, csv_path):
        """'graz' enters the stream in row 8; its code must not depend on
        whether rows 1-7 arrived in one chunk or seven."""
        whole, _ = load_csv(csv_path)
        _, store = store_from_chunks(csv_path, chunk_rows=1)
        position = whole.schema.names.index("city")
        assert store.dictionaries[position].codes["graz"] == \
            whole.coded.dictionaries[position].codes["graz"]

    def test_row_tuples_round_trip(self, csv_path):
        whole, _ = load_csv(csv_path)
        _, store = store_from_chunks(csv_path, chunk_rows=3)
        assert store.row_tuples() == list(whole.rows)
        assert store.row_tuples()[4][0] is NULL

    def test_governed_stride_matches_one_piece_encoding(self, csv_path):
        """The degrade path encodes ``chunk[::stride]`` per chunk; with
        chunk_rows=1 every row survives stride selection independently, and
        the result must equal encoding the strided row stream whole."""
        stride = 2
        survivors = []
        strided = None
        for schema, chunk in iter_csv(csv_path, chunk_rows=1):
            if strided is None:
                strided = ColumnStore(schema.names)
            kept = chunk[::stride]
            survivors.extend(kept)
            strided.append_rows(kept)
        reference = ColumnStore.from_rows(schema.names, survivors)
        assert strided.content_digest() == reference.content_digest()
        assert strided.row_tuples() == survivors


class TestPickling:
    def test_store_round_trips(self, csv_path):
        whole, _ = load_csv(csv_path)
        clone = pickle.loads(pickle.dumps(whole.coded))
        assert clone.content_digest() == whole.coded.content_digest()
        assert clone.row_tuples() == whole.coded.row_tuples()
        # Dictionaries rebuild their code maps from the value lists.
        for built, expected in zip(clone.dictionaries, whole.coded.dictionaries):
            assert built.codes == expected.codes

    def test_relation_pickles_through_coded_form(self, csv_path):
        whole, _ = load_csv(csv_path)
        clone = pickle.loads(pickle.dumps(whole))
        assert clone == whole
        assert clone.coded.content_digest() == whole.coded.content_digest()

    def test_dictionary_state_is_values_only(self):
        dictionary = AttributeDictionary()
        dictionary.encode(["b", "a", "b", "c"])
        assert dictionary.__getstate__() == ["b", "a", "c"]


class TestFingerprint:
    def test_fingerprint_invariant_to_chunking(self, csv_path):
        whole, _ = load_csv(csv_path)
        schema, store = store_from_chunks(csv_path, chunk_rows=2)
        rechunked = RelationClass.from_columns(schema, store)
        assert relation_fingerprint(rechunked) == relation_fingerprint(whole)

    def test_fingerprint_sees_content_changes(self):
        a = Relation(["x", "y"], [("1", "2"), ("3", "4")])
        b = Relation(["x", "y"], [("1", "2"), ("3", "5")])
        assert relation_fingerprint(a) != relation_fingerprint(b)

    def test_null_distinct_from_null_string(self):
        a = Relation(["x"], [(NULL,)])
        b = Relation(["x"], [("NULL",)])
        c = Relation(["x"], [("",)])
        prints = {relation_fingerprint(r) for r in (a, b, c)}
        assert len(prints) == 3

    def test_resume_validates_under_different_chunking(self, csv_path, tmp_path):
        """Regression: a checkpointed run must resume when the input is
        re-ingested with a different ``chunk_rows`` (the fingerprint hashes
        the coded content, not the ingest segmentation)."""
        first, _ = load_csv(csv_path)
        schema, store = store_from_chunks(csv_path, chunk_rows=3)
        rechunked = RelationClass.from_columns(schema, store)

        directory = tmp_path / "ckpt"
        writer = CheckpointStore(directory)
        assert writer.open_run(first, {"phi": 0.5}) is False
        writer.save_stage("probe", {"answer": 42})

        resumed = CheckpointStore(directory, resume=True)
        assert resumed.open_run(rechunked, {"phi": 0.5}) is True
        assert resumed.load_stage("probe") == {"answer": 42}

    def test_content_change_still_quarantines(self, csv_path, tmp_path):
        first, _ = load_csv(csv_path)
        other = Relation(["x"], [("1",)])
        directory = tmp_path / "ckpt"
        writer = CheckpointStore(directory)
        writer.open_run(first, {})
        writer.save_stage("probe", 1)
        resumed = CheckpointStore(directory, resume=True)
        assert resumed.open_run(other, {}) is False


class TestValueCount:
    ROWS = [
        ("fr", 1, NULL),
        ("de", 1.0, "fr"),  # 1 == 1.0; "fr" recurs under another attribute
        (NULL, True, "it"),  # True == 1; NULL is one value wherever it sits
    ]

    def test_coded_count_matches_row_count(self):
        rows_born = Relation(["a", "b", "c"], self.ROWS)
        coded = RelationClass.from_columns(
            rows_born.schema, ColumnStore.from_rows(["a", "b", "c"], self.ROWS))
        assert rows_born.value_count() == coded.value_count() == 5

    def test_summary_leaves_rows_unmaterialized(self, csv_path, monkeypatch):
        from repro.core import StructureDiscovery

        relation, _ = load_csv(csv_path)
        report = StructureDiscovery().run(relation)
        expected = len({value for row in relation.coded.row_tuples()
                        for value in row})

        def refuse(self):
            raise AssertionError("rows were materialized")

        monkeypatch.setattr(ColumnStore, "row_tuples", refuse)
        assert report.summary()["n_values"] == expected
