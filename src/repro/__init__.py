"""repro -- information-theoretic tools for mining database structure.

A from-scratch reproduction of Andritsos, Miller & Tsaparas,
*Information-Theoretic Tools for Mining Database Structure from Large Data
Sets* (SIGMOD 2004): LIMBO/AIB information-bottleneck clustering, duplication
summaries over tuples / attribute values / attributes, FDEP and TANE
dependency mining, Maier minimum covers, and the FD-RANK redundancy ranking
with the RAD and RTR measures.

Quickstart::

    from repro import Relation, StructureDiscovery

    r = Relation(["A", "B", "C"],
                 [("a", "1", "p"), ("a", "1", "r"),
                  ("w", "2", "x"), ("y", "2", "x"), ("z", "2", "x")])
    print(StructureDiscovery().run(r).render())
"""

from repro.audit import AuditCertificate, Auditor, audit_json_report
from repro.budget import Budget, MemoryGovernor
from repro.checkpoint import CheckpointStore
from repro.clustering import AIBResult, DCF, DCFTree, Dendrogram, Limbo, aib
from repro.core import (
    AttributeGroupingResult,
    Decomposition,
    DiscoveryReport,
    DuplicateGroup,
    HorizontalPartitionResult,
    RankedFD,
    StructureDiscovery,
    TupleClusteringResult,
    ValueClusteringResult,
    ValueGroup,
    cluster_tuples,
    cluster_values,
    decompose_by_fd,
    eliminate_duplicates,
    fd_rank,
    find_duplicate_tuples,
    group_attributes,
    horizontal_partition,
    is_lossless,
    profile_relation,
    rad,
    redundancy_report,
    rtr,
    suggest_k,
    vertical_redesign,
)
from repro.fd import (
    FD,
    fdep,
    mine_approximate_fds,
    g3_error,
    holds,
    minimum_cover,
    tane,
)
from repro.errors import (
    CheckpointError,
    InputError,
    MemoryLimitExceeded,
    ReproError,
    ResourceLimitExceeded,
    SchemaError,
    StageFailure,
    SupervisorError,
)
from repro.supervisor import Supervisor, SupervisorConfig
from repro.relation import (
    NULL,
    Attribute,
    IngestReport,
    find_correspondences,
    Relation,
    Schema,
    build_matrix_f,
    build_tuple_view,
    build_value_view,
    equi_join,
    load_csv,
    natural_join,
    read_csv,
    write_csv,
)

__version__ = "1.0.0"

__all__ = [
    "AIBResult",
    "Attribute",
    "AttributeGroupingResult",
    "AuditCertificate",
    "Auditor",
    "Budget",
    "CheckpointError",
    "CheckpointStore",
    "DCF",
    "DCFTree",
    "Decomposition",
    "Dendrogram",
    "DiscoveryReport",
    "DuplicateGroup",
    "FD",
    "HorizontalPartitionResult",
    "IngestReport",
    "InputError",
    "Limbo",
    "MemoryGovernor",
    "MemoryLimitExceeded",
    "NULL",
    "RankedFD",
    "Relation",
    "ReproError",
    "ResourceLimitExceeded",
    "Schema",
    "SchemaError",
    "StageFailure",
    "StructureDiscovery",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorError",
    "TupleClusteringResult",
    "ValueClusteringResult",
    "ValueGroup",
    "aib",
    "audit_json_report",
    "build_matrix_f",
    "build_tuple_view",
    "build_value_view",
    "cluster_tuples",
    "cluster_values",
    "decompose_by_fd",
    "eliminate_duplicates",
    "equi_join",
    "fd_rank",
    "fdep",
    "find_duplicate_tuples",
    "g3_error",
    "group_attributes",
    "holds",
    "horizontal_partition",
    "is_lossless",
    "load_csv",
    "minimum_cover",
    "natural_join",
    "find_correspondences",
    "profile_relation",
    "rad",
    "read_csv",
    "redundancy_report",
    "rtr",
    "mine_approximate_fds",
    "suggest_k",
    "tane",
    "vertical_redesign",
    "write_csv",
]
