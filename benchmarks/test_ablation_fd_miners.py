"""Ablation: FDEP vs. TANE -- agreement and scaling regimes.

The paper uses FDEP (pairwise, quadratic in tuples) and notes "other
methods could also be used"; TANE (level-wise over stripped partitions,
exponential in attributes) is the scalable alternative we use for the DBLP
partitions.  This ablation checks that the two miners return identical
minimal-dependency sets where both are feasible, and records their
complementary scaling: FDEP's cost grows with the *square of the tuples*,
TANE's with the *attribute lattice*.
"""

import time

from conftest import format_table

from repro.datasets import dblp
from repro.fd import fdep, tane


def test_ablation_fd_miners(benchmark, reporter, db2):
    narrow = db2.relation.project(
        ["DeptNo", "DeptName", "MgrNo", "EmpNo", "FirstName", "ProjNo"]
    )
    journal_like = dblp(2000, seed=3).project(
        ["Author", "Year", "Volume", "Journal", "Number"]
    )

    def compare():
        results = {}
        for label, relation in (("db2-6attr", narrow), ("dblp-5attr", journal_like)):
            start = time.perf_counter()
            via_fdep = set(fdep(relation))
            fdep_seconds = time.perf_counter() - start
            start = time.perf_counter()
            via_tane = set(tane(relation))
            tane_seconds = time.perf_counter() - start
            results[label] = (via_fdep, via_tane, fdep_seconds, tane_seconds, len(relation))
        return results

    results = benchmark.pedantic(compare, rounds=1, iterations=1)

    rows, times = [], []
    for label, (via_fdep, via_tane, f_s, t_s, n) in results.items():
        rows.append(
            [label, n, len(via_fdep), len(via_tane),
             "yes" if via_fdep == via_tane else "NO"]
        )
        times.append([label, f"{f_s * 1000:.1f}", f"{t_s * 1000:.1f}"])

    body = format_table(
        ["instance", "tuples", "FDEP FDs", "TANE FDs", "agree"],
        rows,
    ) + (
        "\n\nClaims: both miners return the same minimal dependencies;"
        "\nFDEP's pairwise comparison dominates on many tuples, TANE's"
        "\nlattice walk on many attributes."
    )
    reporter("ablation_fd_miners", "Ablation -- FDEP vs TANE", body,
             host_times=format_table(["instance", "FDEP ms", "TANE ms"],
                                     times))

    for label, (via_fdep, via_tane, f_s, t_s, n) in results.items():
        assert via_fdep == via_tane, label
    # On the many-tuple instance the partition-based miner wins clearly.
    _, _, f_s, t_s, _ = results["dblp-5attr"]
    assert t_s < f_s
