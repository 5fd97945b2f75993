"""Shared fixtures for the reproduction benchmarks.

Every benchmark regenerates one table or figure from Section 8 of the paper
and writes a ``paper vs. measured`` report to ``benchmarks/results/<exp>.txt``
(mirrored to the real stdout so it survives pytest's capture into
``bench_output.txt``).  The tracked reports hold only what the seeded data
determines; wall-clock times vary with the host, so they are printed in the
terminal summary alone and a run leaves the checkout unchanged.

Scale: the paper's DBLP relation has 50,000 tuples.  The benchmarks default
to ``REPRO_DBLP_N = 8000`` for wall-clock sanity; set ``REPRO_DBLP_FULL=1``
(or ``REPRO_DBLP_N=50000``) to run at paper scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core import horizontal_partition
from repro.datasets import NULL_HEAVY_ATTRIBUTES, db2_sample, dblp
from repro.relation import NULL, Relation

RESULTS_DIR = Path(__file__).parent / "results"


def format_table(headers, rows) -> str:
    """Align a small table for the textual reports."""
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


#: Reports collected during the session, replayed after capture ends so they
#: land in the real stdout (pytest's fd-level capture swallows even
#: ``sys.__stdout__`` mid-session).
_SESSION_REPORTS: list = []


@pytest.fixture(scope="session")
def reporter():
    """Writer for the per-experiment reports."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, title: str, body: str, host_times: str = "") -> None:
        text = f"{title}\n{'=' * len(title)}\n{body.rstrip()}\n"
        (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        if host_times:
            text += ("\nHost times (not written to the report):\n"
                     f"{host_times.rstrip()}\n")
        _SESSION_REPORTS.append(text)

    return write


def pytest_terminal_summary(terminalreporter):
    """Replay every paper-vs-measured report into the terminal output."""
    if not _SESSION_REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_sep("=", "paper vs. measured reports")
    for text in _SESSION_REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


@pytest.fixture(scope="session")
def db2():
    """The synthetic DB2 sample (90 tuples, 19 attributes)."""
    return db2_sample(seed=0)


def _dblp_size() -> int:
    if os.environ.get("REPRO_DBLP_FULL"):
        return 50000
    return int(os.environ.get("REPRO_DBLP_N", "8000"))


@pytest.fixture(scope="session")
def dblp_relation():
    """The synthetic DBLP relation (scaled; see module docstring)."""
    return dblp(n_tuples=_dblp_size(), seed=7)


@dataclass
class DblpPartitions:
    """The Table-4 pipeline output, shared by the per-cluster experiments.

    ``conference``/``journal`` are the majority-type unions of the measured
    partitions; ``misc`` is the all-venue-NULL slice (the paper's cluster 3),
    which at 0.3%% weight is below what min-loss agglomeration can keep as
    its own cluster -- a documented deviation.
    """

    relation: Relation
    projected: Relation
    result: object
    conference: Relation
    journal: Relation
    misc: Relation


def _classify(partition: Relation) -> str:
    conference = sum(1 for row in partition.records() if row["BookTitle"] is not NULL)
    journal = sum(1 for row in partition.records() if row["Journal"] is not NULL)
    misc = len(partition) - conference - journal
    return max((conference, "conference"), (journal, "journal"), (misc, "misc"))[1]


@pytest.fixture(scope="session")
def dblp_partitions(dblp_relation):
    """Project out the NULL-heavy attributes and partition horizontally.

    ``k`` is pinned to the paper's 3 so the per-cluster experiments are
    stable across scales; the Table 4 benchmark separately checks that the
    knee heuristic ranks k = 3 among its top proposals.
    """
    projected = dblp_relation.drop(NULL_HEAVY_ATTRIBUTES)
    result = horizontal_partition(projected, k=3, phi_t=0.5, max_summaries=100)

    by_kind: dict = {"conference": [], "journal": [], "misc": []}
    for partition in result.partitions:
        by_kind[_classify(partition)].append(partition)

    def union(parts):
        rows = [row for part in parts for row in part.rows]
        return Relation(projected.schema, rows)

    # The paper describes its clusters by content -- c1 "contains all
    # Conference publications where the BookTitle attribute was a non-NULL
    # value in every tuple", c2 the journal publications with non-NULL
    # Journal/Volume/Number.  A handful of stray tuples (~1%) land in the
    # "wrong" majority partition on our instance; the per-cluster analyses
    # run on the type-consistent cores, as the paper's clusters were.
    conference = union(by_kind["conference"]).select(
        lambda r: r["BookTitle"] is not NULL
    )
    journal = union(by_kind["journal"]).select(lambda r: r["Journal"] is not NULL)
    misc = projected.select(
        lambda r: r["BookTitle"] is NULL and r["Journal"] is NULL
    )
    return DblpPartitions(
        relation=dblp_relation,
        projected=projected,
        result=result,
        conference=conference,
        journal=journal,
        misc=misc,
    )
