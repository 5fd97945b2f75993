"""One-call structure discovery: the analyst-facing, *resilient* driver.

Chains the paper's pipeline -- tuple clustering, value clustering, attribute
grouping, dependency mining, minimum cover, FD-RANK -- and renders a compact
text report of everything a data (re)designer would want to see.

Each run builds a **stage table** of six rows, one per stage: a primary
path, deterministic fallbacks (the *degradation ladder*), a default result
and a ``skip`` precondition.  One loop,
:meth:`StructureDiscovery._checkpointed`, walks the table and treats every
stage the same way, in this order:

1. reuse the stage's checkpoint snapshot when resuming;
2. pre-apply supervisor escalations (``_MemoryLadder.force``);
3. ``skip``: a stage with nothing to do, or whose outcome an upstream
   failure already decides, records that and stops here;
4. the ``discovery.<stage>`` fault point, then the primary path;
5. on :class:`repro.errors.MemoryLimitExceeded`, climb the memory ladder
   and retry the primary;
6. :class:`repro.errors.StageFailure` in strict mode; otherwise the
   fallbacks in order, then the default;
7. snapshot the stage while every outcome so far is ``ok``.

Each stage's outcome is recorded as a :class:`StageOutcome` so the report's
health section explains exactly what ran, what degraded, and which fallback
was applied -- instead of losing the whole run to one bad stage.  Pass
``strict=True`` to get the old all-or-nothing behaviour as a
:class:`repro.errors.StageFailure`.

With ``checkpoint=`` set, every completed stage is additionally snapshotted
to a :class:`repro.checkpoint.CheckpointStore`, so a run killed mid-pipeline
(crash, SIGKILL, exhausted deadline) resumes from the last completed stage
-- bit-identically, under either numeric backend.

The degradation ladder:

====================  ==========================================
stage                 fallback
====================  ==========================================
tuple_clustering      exact-duplicate scan (hash identical rows)
value_clustering      exact clustering of a deterministic sample
attribute_grouping    none (rank degrades to cover order)
mining                FDEP over a deterministic tuple sample
                      (``fd_mode="exact"``); the reliable miner over
                      a seeded row sample with confidence radii
                      (``fd_mode="reliable"``/``"topk"``)
cover                 the raw mined dependency list (exact mode;
                      reliable modes skip the exhaustive cover and
                      feed the top-k output to FD-RANK directly)
rank                  cover order, unranked (singleton grouping)
====================  ==========================================

Sampled reliable-mining results are flagged in the health section and in
the rendered score list (``sampled=True`` plus a per-FD confidence
radius), and -- being degraded -- are never persisted by the checkpoint
store as if they were exact.

With ``memory_limit`` set (or a :class:`repro.budget.Budget` carrying
``max_memory_bytes``), stages additionally run under the **memory
ladder**: when a stage raises
:class:`repro.errors.MemoryLimitExceeded` and ``on_memory_pressure`` is
``"degrade"``, the run climbs these rungs in order and retries the stage
-- (1) force the sparse backend, (2) escalate phi (coarser summaries),
(3) shrink the LIMBO leaf-entry buffer, (4) switch to a deterministic
tuple sample, (5) put the governor in best-effort observer mode so the
run always completes.  Each applied rung is recorded in a ``memory``
entry of the report's health section; rung-affected stages are never
checkpointed, so a resumed capped run recomputes them bit-identically.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import kernels
from repro.budget import Budget, MemoryGovernor, format_bytes, parse_memory_size
from repro.checkpoint import CheckpointStore
from repro.core.attribute_grouping import AttributeGroupingResult, group_attributes
from repro.core.decompose import redundancy_report
from repro.core.fd_rank import RankedFD, fd_rank
from repro.core.tuple_clustering import (
    DuplicateGroup,
    TupleClusteringResult,
    cluster_tuples,
)
from repro.core.value_clustering import ValueClusteringResult, cluster_values
from repro.errors import (
    MemoryLimitExceeded,
    ResourceLimitExceeded,
    StageFailure,
)
from repro.fd import ReliableFD, fdep, mine_reliable_fds, minimum_cover, tane
from repro.relation import Relation
from repro.testing.faults import fault_point

#: Above this tuple count the quadratic FDEP miner is swapped for TANE.
_FDEP_TUPLE_LIMIT = 2000


def resolve_miner(miner: str, n_tuples: int) -> str:
    """The exact miner to run: ``miner`` itself unless it is ``"auto"``,
    which picks FDEP up to ``_FDEP_TUPLE_LIMIT`` tuples and TANE above."""
    if miner != "auto":
        return miner
    return "fdep" if n_tuples <= _FDEP_TUPLE_LIMIT else "tane"


#: Deterministic-sample size used by degraded mining / value clustering.
_SAMPLE_CAP = 150

#: The six pipeline stages, in execution order.
STAGES = (
    "tuple_clustering",
    "value_clustering",
    "attribute_grouping",
    "mining",
    "cover",
    "rank",
)


@dataclass
class StageOutcome:
    """How one pipeline stage fared.

    ``status`` is ``"ok"`` (primary path succeeded), ``"degraded"`` (primary
    failed but a fallback produced a usable result) or ``"failed"`` (every
    rung of the ladder failed; the stage's default empty result was used).
    """

    stage: str
    status: str
    detail: str = ""
    fallback: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def render(self) -> str:
        line = f"  [{self.status:>8}] {self.stage}"
        if self.detail:
            line += f": {self.detail}"
        if self.fallback:
            line += f" (fallback: {self.fallback})"
        return line


def deterministic_sample(relation: Relation, cap: int = _SAMPLE_CAP) -> Relation:
    """An evenly-strided, order-stable sample of at most ``cap`` tuples.

    Deterministic by construction (no RNG), so degraded runs are exactly
    reproducible.
    """
    n = len(relation)
    if n <= cap:
        return relation
    stride = n / cap
    indices = [min(int(i * stride), n - 1) for i in range(cap)]
    return relation.take(sorted(set(indices)))


def _exact_duplicate_groups(relation: Relation) -> TupleClusteringResult:
    """Fallback tuple clustering: group *identical* rows by hashing.

    Finds exact duplicates only (phi_t = 0 semantics) without LIMBO; the
    ``view``/``limbo`` fields are ``None`` to mark the degraded origin.
    """
    buckets: dict = {}
    for index, row in enumerate(relation.rows):
        buckets.setdefault(row, []).append(index)
    assignment = [0] * len(relation)
    groups = []
    for summary_index, (_, members) in enumerate(sorted(
        buckets.items(), key=lambda item: item[1][0]
    )):
        for tuple_index in members:
            assignment[tuple_index] = summary_index
        if len(members) > 1:
            groups.append(
                DuplicateGroup(tuple_indices=members, summary_index=summary_index)
            )
    return TupleClusteringResult(
        relation=relation,
        view=None,
        limbo=None,
        assignment=assignment,
        duplicate_groups=groups,
    )


def _unranked_cover(cover) -> list[RankedFD]:
    """Fallback ranking: the cover in canonical order, all ranks infinite.

    Matches FD-RANK's semantics for a grouping in which nothing ever merges
    (singleton grouping): no dependency qualifies, so every rank stays at
    the (here unbounded) maximum.
    """
    ordered = sorted(cover, key=lambda fd: fd.sort_key())
    return [RankedFD(fd=fd, rank=math.inf, gathered_loss=None) for fd in ordered]


#: Accepted ``on_memory_pressure`` policies.
MEMORY_POLICIES = ("fail", "degrade")

#: Accepted ``fd_mode`` values: the exact miners (FDEP/TANE + minimum
#: cover) or the reliable branch-and-bound miner of :mod:`repro.fd.reliable`
#: in its threshold ("reliable") or top-k ("topk") mode.
FD_MODES = ("exact", "reliable", "topk")

#: Conservative per-leaf-entry byte estimate used to derive a default
#: ``max_leaf_entries`` from the memory budget (rung 3 of the ladder).
_LEAF_BYTES_ESTIMATE = 64 * 1024

#: Floor for the shrunk leaf-entry buffer; below this Phase 1 collapses to
#: a handful of summaries and further shrinking buys nothing.
_MIN_LEAF_ENTRIES = 8


@dataclass
class _EffectiveParams:
    """The per-run knobs the memory ladder is allowed to steer.

    Starts as a copy of the driver's configuration; uncapped runs never
    mutate it, so their behavior is exactly the configured one.
    """

    phi_t: float
    phi_v: float
    double_clustering_phi_t: float | None
    backend: str
    max_leaf_entries: int | None
    relation: Relation


class _MemoryLadder:
    """Rung-by-rung response to :class:`MemoryLimitExceeded`.

    Rungs are climbed in a fixed order and stay applied for the rest of
    the run (later stages inherit the cheaper configuration).  The final
    rung flips the governor into best-effort observer mode, after which
    cooperative memory checks can no longer raise -- a capped ``degrade``
    run therefore always completes.
    """

    RUNGS = (
        "sparse-backend",
        "escalate-phi",
        "shrink-leaf-buffer",
        "sample-tuples",
        "best-effort",
    )

    def __init__(self, params: _EffectiveParams,
                 governor: MemoryGovernor | None = None):
        self.params = params
        self.governor = governor
        self.original_relation = params.relation
        self.applied: list[str] = []
        self._next_rung = 0

    def climb(self) -> str | None:
        """Apply the next applicable rung; ``None`` once fully exhausted."""
        while self._next_rung < len(self.RUNGS):
            applied = self.force(self._next_rung + 1)
            if applied:
                return applied[0]
        return None

    def force(self, count: int) -> list[str]:
        """Consume ladder positions ``[0, count)``; returns rungs applied.

        Used by supervised poison-stage escalation: the supervisor asks for
        "the first ``count`` rungs" and an inapplicable position (e.g.
        ``sparse-backend`` on an already-sparse run) is *consumed without
        effect* rather than skipped, so the escalation schedule stays a
        pure function of the failure count, not of the configuration.
        """
        applied = []
        while self._next_rung < min(count, len(self.RUNGS)):
            rung = self.RUNGS[self._next_rung]
            self._next_rung += 1
            if self._apply(rung):
                self.applied.append(rung)
                applied.append(rung)
        return applied

    def _apply(self, rung: str) -> bool:
        """Mutate the effective params for one rung; False = inapplicable."""
        params = self.params
        if rung == "sparse-backend":
            if params.backend == "sparse":
                return False
            params.backend = "sparse"
            return True
        if rung == "escalate-phi":
            params.phi_t = params.phi_t * 4 if params.phi_t > 0 else 1.0
            params.phi_v = params.phi_v * 4 if params.phi_v > 0 else 1.0
            if params.double_clustering_phi_t is not None:
                params.double_clustering_phi_t = (
                    params.double_clustering_phi_t * 4
                    if params.double_clustering_phi_t > 0 else 1.0
                )
            return True
        if rung == "shrink-leaf-buffer":
            current = params.max_leaf_entries
            if current is None:
                if self.governor is None:
                    return False
                cap = self.governor.max_bytes or 0
                current = max(_MIN_LEAF_ENTRIES, cap // _LEAF_BYTES_ESTIMATE)
            if current <= _MIN_LEAF_ENTRIES:
                return False
            params.max_leaf_entries = max(_MIN_LEAF_ENTRIES, current // 4)
            return True
        if rung == "sample-tuples":
            if len(self.original_relation) <= _SAMPLE_CAP:
                return False
            params.relation = deterministic_sample(self.original_relation)
            return True
        # "best-effort": terminal -- stop enforcing, keep observing.
        if self.governor is None:
            return False
        self.governor.set_best_effort()
        return True

    def describe(self) -> str:
        return " -> ".join(self.applied) if self.applied else "no rungs applied"


#: Ladder rungs that provably leave the final report byte-identical (the
#: backend-parity guarantee).  A supervised escalation that applies only
#: these does not mark the report degraded.
_IDENTITY_RUNGS = frozenset({"sparse-backend"})


@dataclass
class _Stage:
    """One row of a run's stage table (see the module docstring).

    ``primary`` computes the stage.  ``fallbacks`` are ``(name, thunk)``
    rungs tried in order when it fails; the first that succeeds marks the
    stage ``degraded``, and when all fail the stage is ``failed`` with
    ``default`` as its result.  ``skip`` returns ``(result, outcome)`` when
    the stage must not run at all, else ``None``.
    """

    name: str
    primary: Callable[[], object]
    fallbacks: tuple = ()
    default: object = None
    skip: Callable[[], tuple | None] = lambda: None


def _fd_json(fd) -> dict:
    """One dependency as ``{lhs, rhs}`` sorted attribute-name lists."""
    return {"lhs": sorted(fd.lhs), "rhs": sorted(fd.rhs)}


def _dependency_json(entry) -> dict:
    """One mined dependency (an exact ``FD`` or a :class:`ReliableFD`), as
    :meth:`DiscoveryReport.summary` lists it."""
    if not isinstance(entry, ReliableFD):
        return _fd_json(entry)
    data = _fd_json(entry.fd)
    data["score"] = entry.score
    data["sampled"] = entry.sampled
    data["confidence_radius"] = entry.confidence_radius
    return data


def _dependency_artifact(entry) -> dict:
    """The auditor's form of one dependency: the summary entry plus its
    ``kind`` and, for a reliable FD, its plug-in ``information``."""
    data = _dependency_json(entry)
    if isinstance(entry, ReliableFD):
        data["kind"] = "reliable"
        data["information"] = entry.information
    else:
        data["kind"] = "exact"
    return data


def _ranked_json(entry: RankedFD) -> dict:
    """One FD-RANK entry; an infinite (unranked) rank becomes ``None``."""
    data = _fd_json(entry.fd)
    data["rank"] = None if math.isinf(entry.rank) else entry.rank
    return data


@dataclass
class DiscoveryReport:
    """All artifacts of a :class:`StructureDiscovery` run."""

    relation: Relation
    tuple_clustering: TupleClusteringResult
    value_clustering: ValueClusteringResult
    attribute_grouping: AttributeGroupingResult | None
    dependencies: list
    cover: list
    ranked: list
    outcomes: list = field(default_factory=list)
    #: Set by ``StructureDiscovery(verify=True)``: the independent
    #: :class:`repro.audit.AuditCertificate` over this report's artifacts.
    audit_certificate: object = None

    def top_dependencies(self, count: int = 5) -> list[RankedFD]:
        """The ``count`` best-ranked dependencies."""
        return self.ranked[:count]

    # -- health ------------------------------------------------------------------

    def outcome(self, stage: str) -> StageOutcome | None:
        """The recorded outcome of one stage, if the stage ran."""
        for outcome in self.outcomes:
            if outcome.stage == stage:
                return outcome
        return None

    @property
    def healthy(self) -> bool:
        """Whether every stage took its primary path."""
        return all(outcome.ok for outcome in self.outcomes)

    def health(self) -> str:
        """The pipeline-health section: one line per stage."""
        if not self.outcomes:
            return "Pipeline health: (no stages recorded)"
        label = "all stages ok" if self.healthy else "DEGRADED"
        lines = [f"Pipeline health: {label}"]
        lines += [outcome.render() for outcome in self.outcomes]
        return "\n".join(lines)

    def summary(self, top: int = 5) -> dict:
        """A JSON-serializable digest of the report.

        This is what the resident service daemon returns from its model
        endpoints: stable keys, plain types, and the same deterministic
        ordering as :meth:`render`, so two byte-identical reports summarize
        to byte-identical JSON.
        """
        return {
            "n_tuples": len(self.relation),
            "arity": self.relation.arity,
            "n_values": self.relation.value_count(),
            "duplicate_tuple_groups": len(
                self.tuple_clustering.duplicate_groups),
            "duplicate_value_groups": len(
                self.value_clustering.duplicate_groups),
            "dependencies_mined": len(self.dependencies),
            "cover_size": len(self.cover),
            "dependencies": [_dependency_json(entry)
                             for entry in self.dependencies[:top]],
            "ranked": [_ranked_json(entry) for entry in self.ranked[:top]],
            "healthy": self.healthy,
            "stages": [
                {"stage": o.stage, "status": o.status, "detail": o.detail,
                 "fallback": o.fallback}
                for o in self.outcomes
            ],
        }

    # -- rendering ---------------------------------------------------------------

    def render(self, top: int = 5) -> str:
        """A human-readable summary of the discovered structure."""
        lines = [
            f"Structure discovery over {len(self.relation)} tuples, "
            f"{self.relation.arity} attributes, "
            f"{self.relation.value_count()} values",
            "",
            f"Candidate duplicate tuple groups: "
            f"{len(self.tuple_clustering.duplicate_groups)}",
            f"Duplicate value groups (C_V^D): "
            f"{len(self.value_clustering.duplicate_groups)}",
        ]
        if self.attribute_grouping is not None:
            lines += ["", "Attribute dendrogram:", self.attribute_grouping.render()]
        reliable = [d for d in self.dependencies if isinstance(d, ReliableFD)]
        if reliable:
            lines += ["", f"Dependencies mined: {len(self.dependencies)} "
                          f"(reliable; exhaustive cover skipped)"]
            lines.append("Reliable FD scores (bias-corrected fraction of "
                         "information):")
            for entry in reliable[:top]:
                tag = (f"  [sampled, radius {entry.confidence_radius:.3f}]"
                       if entry.sampled else "")
                lines.append(f"  {entry.fd}  score={entry.score:.4f}{tag}")
        else:
            lines += ["", f"Dependencies mined: {len(self.dependencies)}; "
                          f"minimum cover: {len(self.cover)}"]
        if self.ranked:
            lines.append("")
            lines.append(f"Top-{top} ranked dependencies (ascending rank):")
            for ranked in self.ranked[:top]:
                rank = (
                    "unranked" if math.isinf(ranked.rank)
                    else f"{ranked.rank:.4f}"
                )
                try:
                    report = redundancy_report(self.relation, ranked.fd)
                    measures = (
                        f"RAD={report['rad']:.3f} RTR={report['rtr']:.3f}"
                    )
                except Exception:
                    measures = "RAD=? RTR=?"
                lines.append(f"  {ranked.fd}  rank={rank} {measures}")
        lines += ["", self.health()]
        if self.audit_certificate is not None:
            lines += ["", self.audit_certificate.render()]
        return "\n".join(lines)

    def to_json(self, top: int = 5) -> dict:
        """The :meth:`summary` digest plus a full ``artifacts`` section.

        The ``artifacts`` block carries everything the standalone auditor
        (``repro audit <report> <data>``) needs to re-certify the report
        without the live Python objects: the relation fingerprint, the
        complete dependency/cover/ranking lists, the tuple-cluster
        assignment with its DCF summaries (weight + sparse joint masses),
        and the attribute dendrogram's merge sequence.
        """
        from repro.checkpoint import relation_fingerprint

        data = self.summary(top)
        artifacts = {
            "fingerprint": relation_fingerprint(self.relation),
            "healthy": self.healthy,
            "cover": [_fd_json(fd) for fd in self.cover],
            "dependencies": [_dependency_artifact(entry)
                             for entry in self.dependencies],
            "ranked": [_ranked_json(entry) for entry in self.ranked],
        }
        clustering = self.tuple_clustering
        view = getattr(clustering, "view", None)
        limbo = getattr(clustering, "limbo", None)
        if view is not None and limbo is not None and limbo.summaries:
            artifacts["value_scope"] = view.catalog.scope
            artifacts["assignment"] = [int(a) for a in clustering.assignment]
            artifacts["summaries"] = [
                {"weight": dcf.weight,
                 "mass": {str(k): m for k, m in sorted(dcf.mass.items())}}
                for dcf in limbo.summaries
            ]
        if self.attribute_grouping is not None:
            dendrogram = self.attribute_grouping.dendrogram
            artifacts["n_leaves"] = dendrogram.n_leaves
            artifacts["merges"] = [
                {"left": merge.left, "right": merge.right,
                 "parent": merge.parent, "loss": merge.loss}
                for merge in dendrogram.merges
            ]
        data["artifacts"] = artifacts
        if self.audit_certificate is not None:
            data["verification"] = self.audit_certificate.to_json()
        return data


class StructureDiscovery:
    """Configurable, resilient pipeline driver.

    Parameters mirror the individual tools; see
    :func:`repro.core.tuple_clustering.cluster_tuples`,
    :func:`repro.core.value_clustering.cluster_values` and
    :func:`repro.core.fd_rank.fd_rank`.

    Dependency-mining knobs:

    fd_mode:
        ``"exact"`` (default) mines exact minimal dependencies with the
        configured ``miner`` and reduces them to a minimum cover.
        ``"topk"`` / ``"reliable"`` run the branch-and-bound miner of
        :func:`repro.fd.mine_reliable_fds` instead, scoring candidates by
        the bias-corrected fraction of information; the exhaustive cover
        stage is skipped and the miner's output feeds FD-RANK directly.
    fd_k:
        Result size for ``fd_mode="topk"`` (default 10).
    fd_alpha:
        Reliability level for the reliable modes: the default score
        threshold in ``"reliable"`` mode (``1 - fd_alpha``) and the
        confidence level of sampled-fallback radii.
    fd_max_lhs:
        LHS size cap for the reliable modes (default 3; ``None`` lifts
        it).  Wide relations make the uncapped lattice explode when many
        near-tied exact dependencies defeat pruning, and FD-RANK gains
        nothing from determinant sets larger than a few attributes.
    seed:
        Base seed for every randomized ingredient (currently the reliable
        miner's sampled fallback), derived per scope by
        :mod:`repro.seeding`.  Same seed, same report, byte for byte.

    Additional robustness knobs:

    strict:
        When true, any stage failure is re-raised as
        :class:`repro.errors.StageFailure` instead of degrading (the
        pre-resilience behaviour).
    budget:
        A default :class:`repro.budget.Budget` applied to every ``run``
        (``run``'s own ``budget`` argument overrides it).
    backend:
        Numeric backend for the clustering stages (``"auto"`` / ``"sparse"``
        / ``"dense"``), forwarded to LIMBO and AIB.  Both backends produce
        bit-identical reports; the knob exists for benchmarking and for
        pinning the choice into a checkpoint manifest.
    checkpoint:
        ``None`` (default), a directory path, or a preconfigured
        :class:`repro.checkpoint.CheckpointStore`.  A path is opened with
        ``resume=True``: every ``run`` snapshots completed stages there and
        reuses any valid snapshots a previous identical run left behind --
        this is the one-argument "pick up where the crash left off" spelling.
        Corrupt or mismatched snapshots are quarantined and recomputed; the
        incident appears as a ``checkpoint`` entry in the report's health
        section.  See ``docs/ROBUSTNESS.md``.
    memory_limit:
        ``None`` (default, ungoverned), a byte count, or a size string
        (``"256M"``).  Attaches a :class:`repro.budget.MemoryGovernor` to
        the run's budget; cooperative memory checks then bound the DCF
        tree, the dense kernels and TANE's partition store, and breaches
        surface as :class:`repro.errors.MemoryLimitExceeded` at
        deterministic checkpoints.
    on_memory_pressure:
        ``"degrade"`` (default) climbs the memory ladder (module
        docstring) and always completes; ``"fail"`` propagates the first
        :class:`repro.errors.MemoryLimitExceeded` unchanged.
    max_leaf_entries:
        Optional space bound on LIMBO Phase 1: at most this many DCF-tree
        leaf entries, enforced by threshold escalation + in-place rebuild
        (the paper's space-bounded variant).  Independent of
        ``memory_limit``; the ladder also sets it dynamically under
        pressure.
    supervise:
        ``None``/``False`` (default) runs the pipeline in this process.
        ``True`` or a :class:`repro.supervisor.SupervisorConfig` runs it in
        a *child* process under a :class:`repro.supervisor.Supervisor`:
        crashes (SIGKILL, SIGSEGV, OOM-kill) and hangs are detected, the
        run auto-resumes from the checkpoint store with bounded restarts,
        and a stage that keeps dying escalates the degradation ladder.
        Uses ``checkpoint`` as the durable state (a private temporary
        directory when unset).  See ``docs/ROBUSTNESS.md``.
    """

    def __init__(
        self,
        phi_t: float = 0.0,
        phi_v: float = 0.0,
        double_clustering_phi_t: float | None = None,
        psi: float = 0.5,
        miner: str = "auto",
        fd_mode: str = "exact",
        fd_k: int = 10,
        fd_alpha: float = 0.05,
        fd_max_lhs: int | None = 3,
        seed: int = 0,
        strict: bool = False,
        budget: Budget | None = None,
        backend: str = "auto",
        checkpoint=None,
        memory_limit=None,
        on_memory_pressure: str = "degrade",
        max_leaf_entries: int | None = None,
        supervise=None,
        verify: bool = False,
    ):
        if miner not in ("auto", "fdep", "tane"):
            raise ValueError("miner must be 'auto', 'fdep' or 'tane'")
        if fd_mode not in FD_MODES:
            raise ValueError(
                f"fd_mode must be one of {FD_MODES}, got {fd_mode!r}"
            )
        if fd_k < 1:
            raise ValueError("fd_k must be >= 1")
        if not 0.0 < fd_alpha < 1.0:
            raise ValueError(f"fd_alpha must lie in (0, 1), got {fd_alpha!r}")
        if fd_max_lhs is not None and fd_max_lhs < 1:
            raise ValueError("fd_max_lhs must be >= 1 (or None)")
        kernels.validate_backend(backend)
        if on_memory_pressure not in MEMORY_POLICIES:
            raise ValueError(
                f"on_memory_pressure must be one of {MEMORY_POLICIES}, "
                f"got {on_memory_pressure!r}"
            )
        if isinstance(memory_limit, str):
            memory_limit = parse_memory_size(memory_limit)
        if memory_limit is not None and memory_limit <= 0:
            raise ValueError("memory_limit must be positive (or None)")
        if max_leaf_entries is not None and max_leaf_entries < 1:
            raise ValueError("max_leaf_entries must be >= 1 (or None)")
        self.phi_t = phi_t
        self.phi_v = phi_v
        self.double_clustering_phi_t = double_clustering_phi_t
        self.psi = psi
        self.miner = miner
        self.fd_mode = fd_mode
        self.fd_k = fd_k
        self.fd_alpha = fd_alpha
        self.fd_max_lhs = fd_max_lhs
        self.seed = seed
        self.strict = strict
        self.budget = budget
        self.backend = backend
        self.memory_limit = memory_limit
        self.on_memory_pressure = on_memory_pressure
        self.max_leaf_entries = max_leaf_entries
        self.verify = bool(verify)
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            checkpoint = CheckpointStore(checkpoint, resume=True)
        self.checkpoint = checkpoint
        if supervise:
            from repro.supervisor import SupervisorConfig

            if not isinstance(supervise, SupervisorConfig):
                supervise = SupervisorConfig()
        else:
            supervise = None
        self.supervise = supervise
        #: Constructor arguments a supervisor child needs to rebuild this
        #: driver (checkpoint and supervise are deliberately absent: the
        #: child gets its own store and must never recurse).
        self._spec = {
            "phi_t": phi_t,
            "phi_v": phi_v,
            "double_clustering_phi_t": double_clustering_phi_t,
            "psi": psi,
            "miner": miner,
            "fd_mode": fd_mode,
            "fd_k": fd_k,
            "fd_alpha": fd_alpha,
            "fd_max_lhs": fd_max_lhs,
            "seed": seed,
            "strict": strict,
            "backend": backend,
            "memory_limit": self.memory_limit,
            "on_memory_pressure": on_memory_pressure,
            "max_leaf_entries": max_leaf_entries,
        }

    def manifest_params(self) -> dict:
        """The parameters that define checkpoint validity.

        Also the public cache-keying surface: the resident service daemon
        (:mod:`repro.service`) hashes this dict together with the relation
        fingerprint to content-address its model cache, so two requests
        differing in any result-affecting knob can never share a model.

        It is the supervisor child's constructor spec minus ``strict``,
        which never changes a saved snapshot.  Budget and deadline are
        deliberately absent: stage snapshots are only written along a
        fully-healthy prefix, whose results do not depend on how much
        budget remained.  ``backend`` is included conservatively -- both
        backends give bit-identical reports, but refusing cross-backend
        reuse keeps that guarantee testable rather than assumed.  Memory
        settings change which configurations a stage may have degraded
        under, so they are included too.
        """
        params = {key: value for key, value in self._spec.items()
                  if key != "strict"}
        params["memory_limit_bytes"] = params.pop("memory_limit")
        # Model keys hash it and perfbench's serve digests embed those keys.
        params["workers"] = None
        return params

    # -- the pipeline ------------------------------------------------------------

    def run(self, relation: Relation, budget: Budget | None = None,
            escalations: dict | None = None) -> DiscoveryReport:
        """Execute the full pipeline on ``relation``.

        Never raises on stage failures unless ``strict`` is set; consult
        :attr:`DiscoveryReport.outcomes` / :meth:`DiscoveryReport.health`
        for what actually happened.

        ``escalations`` maps a stage name to a degradation-ladder position
        count to pre-apply when that stage is reached (see
        :meth:`_MemoryLadder.force`).  It is set by the supervisor on
        post-poison-stage attempts and is not part of the checkpoint
        manifest: snapshots stay shared across supervised attempts, and
        escalated stages are never snapshotted (result-affecting rungs mark
        the run degraded, which already blocks saves).

        The caller's budget leaves as it came: a governor lent to it for
        ``memory_limit`` and the store's heartbeat listener are taken off.
        """
        if self.supervise is not None:
            from repro.supervisor import Supervisor

            report = Supervisor(self, config=self.supervise).run(
                relation, budget=budget
            )
            return self._verified(report, relation)
        budget = budget if budget is not None else self.budget
        governor = getattr(budget, "memory", None)
        lent = None  # a budget carrying this run's governor until it ends
        if self.memory_limit is not None and governor is None:
            lent = budget = budget if budget is not None else Budget()
            budget.max_memory_bytes = self.memory_limit
            budget.memory = governor = MemoryGovernor(self.memory_limit)
        outcomes: list[StageOutcome] = []
        store = self.checkpoint
        try:
            if store is not None:
                store.open_run(relation, self.manifest_params())
                store.attach(budget)
            # The knobs the memory ladder may steer mid-run.  Ungoverned
            # runs (or policy "fail" / strict mode) get no ladder and the
            # params stay exactly the configured ones; supervised
            # escalation needs one even then, with governor-dependent rungs
            # consumed as no-ops.
            eff = _EffectiveParams(
                phi_t=self.phi_t,
                phi_v=self.phi_v,
                double_clustering_phi_t=self.double_clustering_phi_t,
                backend=self.backend,
                max_leaf_entries=self.max_leaf_entries,
                relation=relation,
            )
            ladder = None
            if escalations or (governor is not None
                               and self.on_memory_pressure == "degrade"
                               and not self.strict):
                ladder = _MemoryLadder(eff, governor)
            done: dict = {}
            for row in self._stage_table(relation, budget, store, eff, done):
                done[row.name] = self._checkpointed(
                    row.name, row, outcomes, store, ladder, escalations or {})
        finally:
            if store is not None:
                store.detach(budget)
            if lent is not None:
                lent.max_memory_bytes = lent.memory = None
        report = DiscoveryReport(
            relation=relation,
            tuple_clustering=done["tuple_clustering"],
            value_clustering=done["value_clustering"],
            attribute_grouping=done["attribute_grouping"],
            dependencies=done["mining"],
            cover=done["cover"],
            ranked=done["rank"],
            outcomes=outcomes,
        )
        if store is not None and store.events:
            # Only incidents earn an entry: a clean checkpointed (or cleanly
            # resumed) run renders bit-identically to an uncheckpointed one.
            outcomes.append(StageOutcome(
                stage="checkpoint", status="degraded",
                detail="; ".join(e.render() for e in store.events),
                fallback="recomputed from source data",
            ))
        if governor is not None or self.max_leaf_entries is not None:
            # Only governed (or explicitly space-bounded) runs earn a
            # ``memory`` entry: ungoverned reports stay byte-identical to
            # the pre-governance implementation.
            outcomes.append(self._memory_outcome(governor, ladder, report))
        return self._verified(report, relation)

    def _verified(self, report: DiscoveryReport, source_relation: Relation
                  ) -> DiscoveryReport:
        """Run the independent auditor over the finished report.

        Appends a ``verification`` entry to the health section (``ok`` when
        every artifact re-certified, ``failed`` otherwise, which also flips
        :attr:`DiscoveryReport.healthy`) and, when the run is checkpointed,
        drops the machine-readable certificate next to the snapshots as
        ``audit.json``.  No-op unless ``verify=True``.
        """
        if not self.verify:
            return report
        from repro.audit import Auditor

        store = self.checkpoint
        certificate = Auditor(seed=self.seed).audit(
            report, source_relation=source_relation, store=store,
            expected_params=self.manifest_params() if store is not None
            else None,
        )
        report.audit_certificate = certificate
        report.outcomes.append(StageOutcome(
            stage="verification",
            status="ok" if certificate.ok else "failed",
            detail=certificate.describe(),
        ))
        if store is not None:
            try:
                certificate.write(store.directory / "audit.json")
            except OSError:
                pass  # the certificate is advisory; never fail the run
        return report

    def _memory_outcome(self, governor, ladder, report) -> StageOutcome:
        """The ``memory`` health entry of a governed run.

        Deliberately excludes sampled RSS values -- they vary run to run,
        and the health section must stay deterministic for a fixed input
        and configuration.
        """
        parts = []
        if governor is not None:
            parts.append(f"cap {format_bytes(governor.max_bytes)}")
            parts.append(f"policy {self.on_memory_pressure}")
        rebuilds = 0
        for result in (report.tuple_clustering, report.value_clustering):
            limbo = getattr(result, "limbo", None)
            if limbo is not None:
                rebuilds += getattr(limbo, "buffer_rebuilds", 0)
        if rebuilds:
            parts.append(f"{rebuilds} space-bound leaf-buffer rebuild(s)")
        if ladder is not None and ladder.applied:
            return StageOutcome(
                stage="memory", status="degraded",
                detail="; ".join(parts),
                fallback=f"memory ladder: {ladder.describe()}",
            )
        parts.append("no pressure" if governor is not None
                     else "space-bounded Phase 1")
        return StageOutcome(stage="memory", status="ok",
                            detail="; ".join(parts))

    def _checkpointed(self, stage, row, outcomes, store, ladder, escalations):
        """Run one row of the stage table: the loop body every stage shares.

        The module docstring lists its steps in order; ``stage`` (the row's
        name) comes first so that one wrapper around this method sees each
        stage by name.  Why the steps are as they are:

        * A snapshot carries the stage result and its outcome, so a resumed
          run replays the exact health lines.  One is saved only while
          *every* outcome so far is ``ok``: a degraded result reflects the
          budget that degraded it, so persisting it would freeze the
          degradation into later runs.
        * Escalation follows a snapshot miss, so a poison stage escalates
          only when it is about to recompute.  Rungs in
          :data:`_IDENTITY_RUNGS` keep the report byte-identical and
          escalate silently (``incident.json`` still logs them); stronger
          ones add a ``supervisor`` entry, which also blocks saves.
        * The memory ladder reconfigures the stage rather than replacing
          it, so a pressured stage still runs the real algorithm, just
          cheaper; the last rung stops enforcement, so the retries end.
        * ``KeyboardInterrupt`` always propagates (the CLI maps it to exit
          code 130).
        """
        if store is not None:
            store.enter_stage(stage)
            snapshot = store.load_stage(stage)
            if snapshot is not None:
                outcomes.extend(snapshot["outcomes"])
                return snapshot["result"]
        if ladder is not None:
            applied = ladder.force(escalations.get(stage, 0))
            if any(rung not in _IDENTITY_RUNGS for rung in applied):
                outcomes.append(StageOutcome(
                    stage="supervisor", status="degraded",
                    detail=(f"degradation ladder escalated before {stage!r} "
                            "after repeated supervised failures"),
                    fallback=f"ladder: {' -> '.join(applied)}",
                ))
        result, outcome = row.skip() or (None, None)
        if outcome is None:
            try:
                fault_point(f"discovery.{stage}")
                result = row.primary()
                outcome = StageOutcome(stage=stage, status="ok")
            except MemoryLimitExceeded as exc:
                if self.on_memory_pressure == "fail":
                    raise
                detail, cause = f"memory limit exceeded: {exc}", exc
                while (ladder is not None and not self.strict
                       and ladder.climb() is not None):
                    try:
                        result = row.primary()
                    except MemoryLimitExceeded:
                        continue
                    except Exception:
                        break
                    outcome = StageOutcome(
                        stage=stage, status="degraded", detail=detail,
                        fallback=f"memory ladder: {ladder.describe()}",
                    )
                    break
            except ResourceLimitExceeded as exc:
                detail, cause = f"budget exhausted: {exc}", exc
            except Exception as exc:
                detail, cause = f"{type(exc).__name__}: {exc}", exc
        if outcome is None:
            if self.strict:
                raise StageFailure(
                    f"stage {stage!r} failed: {detail}",
                    stage=stage, cause=detail,
                ) from cause
            for name, fallback in row.fallbacks:
                try:
                    result = fallback()
                except Exception as exc:
                    detail += f"; fallback {name!r} also failed ({exc})"
                    continue
                outcome = StageOutcome(stage=stage, status="degraded",
                                       detail=detail, fallback=name)
                break
            else:
                result = row.default
                outcome = StageOutcome(stage=stage, status="failed",
                                       detail=detail)
        outcomes.append(outcome)
        if store is not None and all(o.ok for o in outcomes):
            store.save_stage(stage, {"result": result, "outcomes": [outcome]})
        return result

    def _stage_table(self, relation, budget, store, eff, done):
        """The six rows of one run, in :data:`STAGES` order.

        Rows read the knobs the memory ladder steers from ``eff``, and the
        results of earlier stages from ``done``, when they run.
        """
        def handle(stage):
            return store.stage_handle(stage) if store is not None else None

        def skip_grouping():
            if not done["value_clustering"].duplicate_groups:
                return None, StageOutcome(
                    stage="attribute_grouping", status="ok",
                    detail="skipped: no duplicate value groups to cluster",
                )
            return None

        def skip_cover():
            if self.fd_mode == "exact":
                return None
            # Top-k miner output is already minimal *for its purpose* (a
            # ranked shortlist, not a closure-complete cover); running
            # Maier's exhaustive cover over it would only discard
            # evidence.  Feed the FDs straight to FD-RANK.
            return [entry.fd for entry in done["mining"]], StageOutcome(
                stage="cover", status="ok",
                detail="skipped: reliable top-k output feeds FD-RANK "
                       "directly",
            )

        def skip_rank():
            cover, grouping = done["cover"], done["attribute_grouping"]
            if cover and grouping is not None:
                return None
            if cover and done["value_clustering"].duplicate_groups:
                # The grouping stage ran and *failed* (rather than having
                # nothing to group): keep the cover visible in rank
                # position anyway.
                return _unranked_cover(cover), StageOutcome(
                    stage="rank", status="degraded",
                    detail="attribute grouping failed upstream",
                    fallback="cover order, unranked (singleton grouping)",
                )
            reason = (
                "no dependencies to rank" if not cover
                else "no attribute grouping (nothing to rank against)"
            )
            return [], StageOutcome(stage="rank", status="ok",
                                    detail=f"skipped: {reason}")

        if self.fd_mode == "exact":
            sampled_mining = (
                f"FDEP over a {_SAMPLE_CAP}-tuple deterministic sample",
                lambda: fdep(deterministic_sample(relation)),
            )
        else:
            # The reliable rung of the ladder: rescore on a seeded row
            # sample.  Results carry sampled=True and per-FD confidence
            # radii, the stage is recorded degraded (so it is never
            # checkpointed as exact), and the flag survives into the
            # rendered score list.
            sampled_mining = (
                f"reliable miner over a seeded {_SAMPLE_CAP}-row "
                f"sample (confidence {1.0 - self.fd_alpha:g})",
                lambda: mine_reliable_fds(
                    relation, mode=self.fd_mode, k=self.fd_k,
                    alpha=self.fd_alpha, seed=self.seed,
                    max_lhs_size=self.fd_max_lhs, sample_rows=_SAMPLE_CAP,
                ),
            )
        return (
            _Stage(
                "tuple_clustering",
                primary=lambda: cluster_tuples(
                    eff.relation, phi_t=eff.phi_t, budget=budget,
                    backend=eff.backend,
                    checkpoint=handle("tuple_clustering"),
                    max_leaf_entries=eff.max_leaf_entries,
                ),
                fallbacks=(("exact-duplicate scan",
                            lambda: _exact_duplicate_groups(relation)),),
                default=TupleClusteringResult(
                    relation=relation, view=None, limbo=None,
                    assignment=[], duplicate_groups=[],
                ),
            ),
            _Stage(
                "value_clustering",
                primary=lambda: cluster_values(
                    eff.relation, phi_v=eff.phi_v,
                    phi_t=eff.double_clustering_phi_t, budget=budget,
                    backend=eff.backend,
                    checkpoint=handle("value_clustering"),
                    max_leaf_entries=eff.max_leaf_entries,
                ),
                fallbacks=((f"exact clustering of a {_SAMPLE_CAP}-tuple sample",
                            lambda: cluster_values(
                                deterministic_sample(relation), phi_v=0.0,
                                phi_t=None,
                            )),),
                default=ValueClusteringResult(
                    relation=relation, view=None, limbo=None, groups=[],
                ),
            ),
            _Stage(
                "attribute_grouping",
                primary=lambda: group_attributes(
                    value_clustering=done["value_clustering"], budget=budget,
                    backend=eff.backend,
                    checkpoint=handle("attribute_grouping"),
                ),
                skip=skip_grouping,
            ),
            _Stage(
                "mining",
                primary=lambda: self._mine(eff.relation, budget),
                fallbacks=(sampled_mining,),
                default=[],
            ),
            _Stage(
                "cover",
                primary=lambda: minimum_cover(done["mining"]),
                fallbacks=(("raw mined dependencies",
                            lambda: list(done["mining"])),),
                default=[],
                skip=skip_cover,
            ),
            _Stage(
                "rank",
                primary=lambda: fd_rank(done["cover"],
                                        done["attribute_grouping"],
                                        psi=self.psi),
                fallbacks=(("cover order, unranked (singleton grouping)",
                            lambda: _unranked_cover(done["cover"])),),
                default=[],
                skip=skip_rank,
            ),
        )

    def _mine(self, relation: Relation, budget: Budget | None) -> list:
        """The configured miner over the full relation (budgeted).

        Reliable modes return :class:`repro.fd.ReliableFD` entries (already
        in the deterministic ``(-score, lhs, rhs)`` order); exact mode
        returns plain :class:`repro.fd.FD` sets for the cover stage.
        """
        if self.fd_mode != "exact":
            return mine_reliable_fds(
                relation, mode=self.fd_mode, k=self.fd_k,
                alpha=self.fd_alpha, seed=self.seed,
                max_lhs_size=self.fd_max_lhs,
                budget=budget,
            )
        if resolve_miner(self.miner, len(relation)) == "fdep":
            return fdep(relation, budget=budget)
        return tane(relation, budget=budget)
