"""Cross-process determinism: interpreters run in parallel agree bit for bit.

Every tool is a sequential pass over one in-memory relation, so its results
must be a pure function of that relation -- never of the process computing
them.  A checkpoint resume or a supervised restart finishes a run in a fresh
interpreter with its own string-hash seed, and ``perfbench`` pins
``PYTHONHASHSEED=0`` on the claim that doing so changes no result.  These
tests pin that claim down: four interpreters run in parallel under
``PYTHONHASHSEED`` in ``{1, 2, 4, 7}``, and their LIMBO merge sequences, AIB
dendrograms, FD covers, FD-RANK orderings and discovery reports must compare
``==`` -- not approximately -- with the ones this process computes, under
both clustering backends.  A supervised run must also mine the same cover
under every multiprocessing start method the platform offers.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import StructureDiscovery
from repro.clustering import DCF, Limbo, aib
from repro.core import fd_rank, group_attributes
from repro.datasets import db2_sample
from repro.fd import fdep, minimum_cover, tane
from repro.relation import build_tuple_view
from repro.supervisor import SupervisorConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

HASH_SEEDS = (1, 2, 4, 7)
BACKENDS = ("sparse", "dense")
PHIS = (0.0, 0.5)


def summary_fingerprints(summaries) -> list[tuple]:
    """Bitwise identity of Phase-1 leaves: weight, masses, member order."""
    return [
        (s.weight, tuple(sorted(s.conditional.items())), tuple(s.members))
        for s in summaries
    ]


def merge_records(dendrogram) -> list[tuple]:
    return [(m.left, m.right, m.parent, m.loss) for m in dendrogram.merges]


def canonical(fds) -> list:
    return sorted(fds, key=lambda fd: fd.sort_key())


def synthetic_dcfs(n: int = 150, universe: int = 40) -> list[DCF]:
    """Deterministic, collision-rich DCFs: many tied merge costs for AIB."""
    dcfs = []
    for i in range(n):
        row = {(i * 7 + k) % universe: (k + 1) / 6.0 for k in range(3)}
        dcfs.append(DCF.singleton(i, 1.0 / n, row))
    return dcfs


def compute_results() -> dict:
    """Everything the invariance checks compare, computed in this process."""
    relation = db2_sample(seed=0).relation
    view = build_tuple_view(relation)
    results = {}
    for backend in BACKENDS:
        for phi in PHIS:
            limbo = Limbo(phi=phi, backend=backend)
            limbo.fit(view.rows, view.priors)
            results["limbo", backend, phi] = (
                summary_fingerprints(limbo.summaries),
                merge_records(limbo.merge_sequence().dendrogram),
                limbo.assign(limbo.summaries),
            )
    results["aib"] = merge_records(
        aib(synthetic_dcfs(), backend="dense").dendrogram
    )
    fds = fdep(relation)
    cover = minimum_cover(fds, group_rhs=True)
    results["fdep"] = (canonical(fds), cover)
    results["tane"] = canonical(tane(relation, max_lhs_size=2))
    ranked = fd_rank(cover, group_attributes(relation, phi_v=0.0), psi=0.5)
    results["rank"] = [(str(e.fd), e.rank) for e in ranked]
    report = StructureDiscovery().run(relation)
    results["mined"] = (canonical(report.dependencies), report.cover)
    results["report"] = (report.healthy, report.render())
    return results


#: Writes one interpreter's :func:`compute_results` to the pickle at argv[1].
CHILD = """
import pickle, sys
from tests.test_parallel_determinism import compute_results
with open(sys.argv[1], "wb") as handle:
    pickle.dump(compute_results(), handle)
"""


@pytest.fixture(scope="module")
def oracle():
    return compute_results()


@pytest.fixture(scope="module")
def interpreters(tmp_path_factory):
    """:func:`compute_results` from one fresh interpreter per hash seed.

    The interpreters start together and run in parallel; each writes its
    results to its own pickle.
    """
    out_dir = tmp_path_factory.mktemp("interpreters")
    procs = {}
    try:
        for seed in HASH_SEEDS:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p)
            env["PYTHONHASHSEED"] = str(seed)
            procs[seed] = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(out_dir / f"{seed}.pickle")],
                cwd=ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        results = {}
        for seed, proc in procs.items():
            _, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr.decode()
            results[seed] = pickle.loads(
                (out_dir / f"{seed}.pickle").read_bytes())
        return results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# -- LIMBO --------------------------------------------------------------------------


class TestLimboInvariance:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_phi_zero_bit_identical(self, oracle, interpreters, backend,
                                    hash_seed):
        key = ("limbo", backend, 0.0)
        summaries, merges, assignment = interpreters[hash_seed][key]
        base_summaries, base_merges, base_assignment = oracle[key]
        assert summaries == base_summaries
        assert merges == base_merges
        assert assignment == base_assignment

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_positive_phi_bit_identical(self, oracle, interpreters, backend,
                                        hash_seed):
        # The positive-threshold path (DCF-tree absorption, rebuilds and
        # Phase-3 assignment) must be just as process-invariant as phi=0.
        key = ("limbo", backend, 0.5)
        assert interpreters[hash_seed][key] == oracle[key]


# -- AIB ----------------------------------------------------------------------------


class TestAIBInvariance:
    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_pairwise_block_build_bit_identical(self, oracle, interpreters,
                                                hash_seed):
        # The dense backend builds the pairwise merge-cost matrix one row
        # strip at a time; the quantized costs, and so every tie-break in
        # the merge sequence, must not depend on the process.
        assert interpreters[hash_seed]["aib"] == oracle["aib"]


# -- FD mining and ranking ----------------------------------------------------------


class TestMinerInvariance:
    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_fdep_minimum_cover_invariant(self, oracle, interpreters,
                                          hash_seed):
        fds, cover = interpreters[hash_seed]["fdep"]
        base_fds, base_cover = oracle["fdep"]
        assert fds == base_fds
        assert cover == base_cover

    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_tane_invariant(self, oracle, interpreters, hash_seed):
        assert interpreters[hash_seed]["tane"] == oracle["tane"]

    @pytest.mark.parametrize("hash_seed", HASH_SEEDS)
    def test_fd_rank_ordering_invariant(self, oracle, interpreters,
                                        hash_seed):
        assert interpreters[hash_seed]["rank"] == oracle["rank"]


# -- end to end ---------------------------------------------------------------------


class TestDiscoveryInvariance:
    def test_report_renders_byte_identical(self, oracle, interpreters):
        reports = {seed: result["report"]
                   for seed, result in interpreters.items()}
        reports[None] = oracle["report"]
        assert all(healthy for healthy, _ in reports.values())
        distinct = {render for _, render in reports.values()}
        assert len(distinct) == 1, (
            "discovery reports differ across interpreters: "
            f"{sorted(reports, key=str)}"
        )
        assert all(seed_result["mined"] == oracle["mined"]
                   for seed_result in interpreters.values())


# -- start methods ------------------------------------------------------------------


class TestStartMethodInvariance:
    @pytest.mark.parametrize(
        "start_method", multiprocessing.get_all_start_methods()
    )
    def test_fdep_invariant_under_every_start_method(self, oracle,
                                                     start_method):
        # The supervised child is the one place a run still crosses a
        # process boundary; whichever way it starts, it mines the same cover.
        config = SupervisorConfig(start_method=start_method, max_restarts=0,
                                  backoff_base=0, jitter=0)
        report = StructureDiscovery(supervise=config).run(
            db2_sample(seed=0).relation)
        assert (canonical(report.dependencies), report.cover) == oracle["mined"]
        assert (report.healthy, report.render()) == oracle["report"]
