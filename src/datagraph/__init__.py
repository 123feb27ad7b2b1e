"""Spatial datagraph library: proximity-ordered scene querying over large
environments, with seeded synthetic worlds and an experiment harness."""

from .backends import (
    CachingBackend,
    OracleBackend,
    Predicate,
    Query,
    QueryBackend,
    QueryResponse,
    RecordingBackend,
    RemoteBackend,
    RemoteEndpointConfig,
    ReplayStore,
    canonical_query_key,
    oracle_answer,
    predicate_eval,
)
from .errors import (
    BackendError,
    ConfigError,
    DatagraphError,
    DedupUnavailableError,
    GraphParseError,
    GraphValidationError,
    InvalidPathError,
    MalformedResponseError,
    MissingNodeError,
    OutputError,
    RemoteProtocolError,
    RemoteTimeoutError,
    ReplayMissError,
    RouteError,
    TaskUnavailableError,
    TraversalAbortedError,
    WorldSpecError,
)
from .graph import (
    Datagraph,
    Edge,
    Node,
    NodeId,
    Pose,
    SceneObject,
    Snapshot,
    Violation,
)
from .harness import (
    AggregateRunReport,
    BackendConfig,
    ExperimentConfig,
    MetricsReport,
    RouteScanReport,
    TaskConfig,
    TrialRecord,
    WorldFiles,
    build_base_backend,
    derive_seed,
    load_world_files,
    run_aggregate,
    run_compare,
    run_route_scan,
)
from .traversal import (
    AggregateReport,
    TraversalResult,
    aggregate_count,
    brute_force_query,
    path_query,
    proximity_query_all,
    proximity_search_first,
)
from .worldgen import (
    BOUNDARY_BAND_M,
    CatalogEntry,
    GroundTruth,
    GroundTruthInstance,
    TaskSpec,
    WorldSpec,
    default_catalog,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    make_nearest_search_task,
)

__version__ = "0.1.0"
