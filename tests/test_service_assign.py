"""The daemon's Phase-3 assignment state (``repro.service.app._Assigner``).

``/assign`` and ingest route each row through one
:class:`repro.kernels.PostingsDCFSet` over the mined Phase-1 summaries.
These tests hold it to the scalar scan (``closest`` over DCF copies), to
the rows ingested since the mine when an assigner is rebuilt, and to the
degraded/bug split of its error statuses.
"""

from types import SimpleNamespace

import pytest

from repro import kernels
from repro.checkpoint import CheckpointStore
from repro.clustering.dcf import DCF, closest
from repro.core.tuple_clustering import cluster_tuples
from repro.datasets import dblp
from repro.errors import ServiceUnavailable
from repro.relation import NULL
from repro.service import DiscoveryApp
from repro.service.app import _Assigner, status_for
from repro.testing import inject

PARAMS = {"fd_k": 5, "seed": 0}


class ScalarAssigner:
    """The scalar reference: ``closest`` over copies of the summaries, one
    ``merge_cost`` per summary, absorbing with ``DCF.absorb``."""

    def __init__(self, report):
        catalog = report.tuple_clustering.view.catalog
        self.ids = dict(catalog.ids)
        self.summaries = [s.copy() for s in
                          report.tuple_clustering.limbo.summaries]
        self.arity = report.relation.arity
        self.prior = 1.0 / len(report.relation)

    def singleton(self, row, allocate):
        conditional = {}
        for literal in row:
            value_id = self.ids.get(literal)
            if value_id is None:
                if not allocate:
                    continue
                value_id = self.ids[literal] = len(self.ids)
            conditional[value_id] = (conditional.get(value_id, 0.0)
                                     + 1.0 / self.arity)
        return DCF(self.prior, conditional)

    def assign(self, row):
        return closest(self.summaries, self.singleton(row, False))[0]

    def absorb(self, row):
        singleton = self.singleton(row, True)
        index = closest(self.summaries, singleton)[0]
        self.summaries[index].absorb(singleton)
        return index


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_assigner_matches_the_scalar_scan(seed):
    """Interleaved assigns and absorbs on held-out DBLP rows, with unseen
    values (new value ids on absorb) and one all-unseen row: every choice
    is the scalar scan's index."""
    relation = dblp(500 + 150, seed=seed)
    base = relation.take(range(500))
    report = SimpleNamespace(relation=base,
                             tuple_clustering=cluster_tuples(base))
    assigner, scalar = _Assigner(report), ScalarAssigner(report)
    unseen = tuple(f"unseen-{i}" for i in range(base.arity))
    held = relation.rows[500:]
    rows = held[:75] + [unseen] + held[75:]
    for position, row in enumerate(rows):
        if position % 5 in (1, 3) or row is unseen:
            assert assigner.absorb(row) == scalar.absorb(row), position
        assert assigner.assign(row) == scalar.assign(row), position
    assert assigner.absorbed == 61
    assert len(assigner.summaries) == len(scalar.summaries)


@pytest.fixture(scope="module")
def dblp_rows():
    """DBLP seed 1 as JSON rows: attributes, a 300-row base, 64 more."""
    relation = dblp(300 + 64, seed=1)
    rows = [[None if cell is NULL else cell for cell in row]
            for row in relation.rows]
    return list(relation.attributes), rows[:300], rows[300:]


def fresh_app(directory, attributes, base):
    app = DiscoveryApp(CheckpointStore(directory), params=PARAMS)
    app.rehydrate()
    app.create_relation("r", {"attributes": attributes})
    app.append_rows("r", {"rows": base, "seq": 1})
    return app


def test_restarted_assigner_absorbs_the_rows_since_the_mine(tmp_path,
                                                            dblp_rows):
    attributes, base, held = dblp_rows
    app = fresh_app(tmp_path, attributes, base)
    app.build_model("r")
    app.append_rows("r", {"rows": held[:32], "seq": 2})
    before = [app.assign("r", {"row": row}) for row in held[32:]]

    reborn = DiscoveryApp(CheckpointStore(tmp_path), params=PARAMS)
    assert reborn.rehydrate() == 1
    after = [reborn.assign("r", {"row": row}) for row in held[32:]]
    assert reborn.cache.stats()["computes"] == 0
    assert after == before
    assert after[0]["stale_rows"] == 32
    assert after[0]["approximate"] is True
    assert reborn.top_fds("r")["approximate"] is True


def test_assigner_build_decodes_only_the_rows_since_the_mine(
        tmp_path, dblp_rows, monkeypatch):
    attributes, base, held = dblp_rows
    app = fresh_app(tmp_path, attributes, base)
    app.build_model("r")
    app.append_rows("r", {"rows": held[:8], "seq": 2})
    decoded = []

    class CountingValues(list):
        def __getitem__(self, code):
            decoded.append(code)
            return list.__getitem__(self, code)

    build = DiscoveryApp._build_assigner

    def counting_build(relation, report):
        """Count every dictionary value the build decodes."""
        dictionaries = relation.columns.dictionaries
        plain = [dictionary.values for dictionary in dictionaries]
        for dictionary in dictionaries:
            dictionary.values = CountingValues(dictionary.values)
        try:
            return build(relation, report)
        finally:
            for dictionary, values in zip(dictionaries, plain):
                dictionary.values = values

    monkeypatch.setattr(DiscoveryApp, "_build_assigner",
                        staticmethod(counting_build))
    reborn = DiscoveryApp(CheckpointStore(tmp_path), params=PARAMS)
    reborn.rehydrate()
    assert reborn.assign("r", {"row": held[40]})["stale_rows"] == 8
    assert len(decoded) == 8 * len(attributes)
    decoded.clear()
    reborn.build_model("r")
    assert reborn.relations["r"].assigner.absorbed == 0
    assert decoded == []


def test_model_built_under_ingest_absorbs_the_late_rows(tmp_path,
                                                        dblp_rows):
    attributes, base, held = dblp_rows
    app = fresh_app(tmp_path, attributes, base)
    compute = app._compute

    def compute_while_rows_arrive(frozen, budget):
        app.append_rows("r", {"rows": held[:8], "seq": 2})
        return compute(frozen, budget)

    app._compute = compute_while_rows_arrive
    assert app.build_model("r")["stale_rows"] == 8
    verdict = app.assign("r", {"row": held[40]})
    assert verdict["stale_rows"] == 8
    assert verdict["approximate"] is True
    assert app.relations["r"].assigner.absorbed == 8


def test_degraded_clustering_stage_is_a_503(tmp_path, dblp_rows):
    attributes, base, _ = dblp_rows
    app = fresh_app(tmp_path, attributes, base[:120])
    with inject("discovery.tuple_clustering",
                raises=RuntimeError("injected")):
        model = app.build_model("r")
    assert model["healthy"] is False
    with pytest.raises(ServiceUnavailable, match="degraded") as excinfo:
        app.assign("r", {"row": base[0]})
    assert status_for(excinfo.value) == 503


def test_a_failing_assigner_build_is_a_500(tmp_path, dblp_rows,
                                           monkeypatch):
    attributes, base, _ = dblp_rows
    app = fresh_app(tmp_path, attributes, base[:120])
    app.build_model("r")

    class Broken(kernels.PostingsDCFSet):
        def __init__(self, dcfs):
            raise RuntimeError("postings build failed")

    monkeypatch.setattr(kernels, "PostingsDCFSet", Broken)
    with pytest.raises(RuntimeError, match="postings build") as excinfo:
        app.build_model("r")
    assert status_for(excinfo.value) == 500

    reborn = DiscoveryApp(CheckpointStore(tmp_path), params=PARAMS)
    reborn.rehydrate()
    with pytest.raises(RuntimeError, match="postings build") as excinfo:
        reborn.assign("r", {"row": base[0]})
    assert status_for(excinfo.value) == 500
