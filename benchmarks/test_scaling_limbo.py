"""Scaling: LIMBO Phase-1 throughput vs. data-set size.

Section 5.2's entire reason to exist: AIB is quadratic in the objects, so
the streaming DCF-tree must keep the expensive phase linear-ish in the
number of tuples.  We measure the three phases over growing slices of the
DBLP relation and check that Phase-1 time grows sub-quadratically while the
summary count stays bounded (the leaf count depends on the data's pattern
diversity, not its size).
"""

import time

from conftest import format_table

from repro.clustering import Limbo
from repro.datasets import dblp
from repro.relation import build_tuple_view

SIZES = (1000, 2000, 4000, 8000)
PHI = 1.0


def test_scaling_limbo(benchmark, reporter):
    relation = dblp(n_tuples=max(SIZES), seed=7)

    def sweep():
        rows = []
        for size in SIZES:
            sliced = relation.take(range(size))
            view = build_tuple_view(sliced)
            start = time.perf_counter()
            limbo = Limbo(phi=PHI, max_summaries=200).fit(
                view.rows, view.priors,
                mutual_information=view.mutual_information(),
            )
            phase1 = time.perf_counter() - start
            rows.append((size, phase1, len(limbo.summaries)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    body = format_table(
        ["tuples", "summaries"],
        [[n, count] for n, _, count in rows],
    ) + (
        "\n\nClaims: Phase-1 time grows sub-quadratically in the tuple"
        "\ncount; the summary count is bounded by pattern diversity, not n."
    )
    reporter("scaling_limbo", "Scaling -- LIMBO Phase 1 vs data size", body,
             host_times=format_table(
                 ["tuples", "phase-1 seconds"],
                 [[n, f"{seconds:.3f}"] for n, seconds, _ in rows]))

    # Sub-quadratic growth: 8x the data in well under 64x the time.
    t_small = max(rows[0][1], 1e-4)
    t_large = rows[-1][1]
    size_ratio = rows[-1][0] / rows[0][0]
    assert t_large / t_small < size_ratio ** 2 / 2
    # Summary counts stay bounded.
    assert all(count <= 200 for _, _, count in rows)