"""Exception hierarchy shared by all datagraph modules."""

from __future__ import annotations


class DatagraphError(Exception):
    """Base class for every error raised by this package."""


# --- graphs ------------------------------------------------------------------

class MissingNodeError(DatagraphError):
    """A node id does not exist in the graph."""

    def __init__(self, node_id: object):
        self.node_id = node_id
        super().__init__(f"unknown node id: {node_id!r}")


class GraphParseError(DatagraphError):
    """A graph document could not be parsed; the message names the location."""


class GraphValidationError(DatagraphError):
    """A graph, or a document that parsed fine, violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"graph failed validation: {lines}")


# --- output files ------------------------------------------------------------

class OutputError(DatagraphError):
    """An output file or directory could not be written; the message names it."""


# --- backends ---------------------------------------------------------------

class BackendError(DatagraphError):
    """Base class for query-backend failures."""


class ReplayMissError(BackendError):
    """No answer for this query about this scene was found in the replay store."""

    def __init__(self, node_id: int, scene_digest: str, query_hash: str):
        self.node_id = node_id
        self.scene_digest = scene_digest
        self.query_hash = query_hash
        super().__init__(f"no recorded response for node {node_id}, scene {scene_digest}, query hash {query_hash}")


class RemoteTimeoutError(BackendError):
    """The remote endpoint did not answer within the configured timeout."""


class RemoteProtocolError(BackendError):
    """The remote endpoint answered with a non-2xx status."""

    def __init__(self, status: int, detail: str = ""):
        self.status = status
        suffix = f": {detail}" if detail else ""
        super().__init__(f"remote endpoint returned status {status}{suffix}")


class MalformedResponseError(BackendError):
    """The remote endpoint returned a body that does not match the wire format."""


# --- traversal ---------------------------------------------------------------

class InvalidPathError(DatagraphError):
    """A supplied path contains a consecutive pair that is not adjacent."""

    def __init__(self, a: int, b: int):
        self.pair = (a, b)
        super().__init__(f"path nodes {a} and {b} are not adjacent")


class TraversalAbortedError(DatagraphError):
    """A backend failed mid-traversal; carries the partial result.

    The original backend error is available as ``__cause__`` and the
    responses gathered before the failure as ``partial``.
    """

    def __init__(self, node_id: int, partial):
        self.node_id = node_id
        self.partial = partial
        super().__init__(f"backend failed at node {node_id}; partial result attached")


class DedupUnavailableError(DatagraphError):
    """Deduplication needs object positions the backend did not provide."""


# --- worldgen ----------------------------------------------------------------

class WorldSpecError(DatagraphError):
    """A world specification is invalid."""


class TaskUnavailableError(DatagraphError):
    """The world cannot support the requested task kind."""


# --- harness -----------------------------------------------------------------

class ConfigError(DatagraphError):
    """An experiment configuration is invalid."""


class RouteError(DatagraphError):
    """No route exists between the requested endpoints, or a route scan refuses
    its candidates: none given, or one that does not join the endpoints or
    crosses a closed edge."""
