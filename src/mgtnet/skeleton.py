"""Skeleton graphs, hop distances, and disentangled k-adjacency matrices.

Pure numpy; nothing here is trainable.  Layers lift these constants into
tensors.  The default skeleton is the conventional 17-joint human body tree
rooted at the pelvis, which can be overridden by a skeleton document.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SkeletonError",
    "SkeletonGraph",
    "HopDistanceMatrix",
    "DisentangledAdjacencySet",
    "SparsityRow",
    "human36m_skeleton",
    "hop_distances",
    "k_adjacency",
    "normalize_adjacency",
    "disentangled_adjacencies",
    "sparsity_report",
    "skeleton_to_document",
    "skeleton_from_document",
    "load_skeleton",
]


class SkeletonError(ValueError):
    """A skeleton graph or skeleton document is malformed."""


@dataclass(frozen=True)
class SkeletonGraph:
    """Undirected joint graph with a designated root joint.

    Edges are unordered pairs of distinct joint indices with no duplicates.
    Connectivity is not required here (hop distances tolerate unreachable
    pairs) but is enforced wherever pose data is loaded.
    """

    joint_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    root: int

    def __post_init__(self):
        n = len(self.joint_names)
        if n == 0:
            raise SkeletonError("skeleton needs at least one joint")
        if len(set(self.joint_names)) != n:
            raise SkeletonError("joint names must be unique")
        if not 0 <= self.root < n:
            raise SkeletonError(f"root index {self.root} out of range for {n} joints")
        seen = set()
        for idx, (a, b) in enumerate(self.edges):
            if not (0 <= a < n and 0 <= b < n):
                raise SkeletonError(f"edges[{idx}] = ({a}, {b}) out of range for {n} joints")
            if a == b:
                raise SkeletonError(f"edges[{idx}] is a self-loop on joint {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise SkeletonError(f"edges[{idx}] duplicates edge {key}")
            seen.add(key)

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_joints)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def adjacency(self) -> np.ndarray:
        """Binary symmetric adjacency without self-loops."""
        a = np.zeros((self.n_joints, self.n_joints))
        for i, j in self.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        return a

    def is_connected(self) -> bool:
        return hop_distances(self).is_connected


@dataclass(frozen=True)
class HopDistanceMatrix:
    """Pairwise shortest hop counts; unreachable pairs hold ``sentinel``.

    The sentinel exceeds the joint count, so it can never collide with a
    finite distance.
    """

    distances: np.ndarray
    sentinel: int

    @property
    def n_joints(self) -> int:
        return self.distances.shape[0]

    @property
    def is_connected(self) -> bool:
        return bool((self.distances < self.sentinel).all())

    def max_finite(self) -> int:
        finite = self.distances[self.distances < self.sentinel]
        return int(finite.max())


def hop_distances(graph: SkeletonGraph) -> HopDistanceMatrix:
    """Breadth-first shortest hop counts between every joint pair."""
    n = graph.n_joints
    sentinel = n + 1
    adj = graph.neighbors()
    dist = np.full((n, n), sentinel, dtype=np.int64)
    for start in range(n):
        dist[start, start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[start, v] == sentinel:
                    dist[start, v] = dist[start, u] + 1
                    queue.append(v)
    return HopDistanceMatrix(dist, sentinel)


def k_adjacency(hops: HopDistanceMatrix, k: int) -> np.ndarray:
    """Binary matrix selecting pairs at hop distance exactly ``k``, plus self-loops.

    ``k = 0`` is the identity.  Unreachable pairs never match.
    """
    if k < 0:
        raise SkeletonError(f"hop index must be nonnegative, got {k}")
    d = hops.distances
    mat = ((d == k) & (d < hops.sentinel)).astype(np.float64)
    np.fill_diagonal(mat, 1.0)
    return mat


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalization D^-1/2 A D^-1/2 with row-sum degrees."""
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SkeletonError(f"adjacency must be square, got shape {a.shape}")
    if not np.allclose(a, a.T):
        raise SkeletonError("adjacency must be symmetric")
    if (a < 0).any():
        raise SkeletonError("adjacency must be nonnegative")
    degrees = a.sum(axis=1)
    if (degrees <= 0).any():
        dead = int(np.argmin(degrees))
        raise SkeletonError(f"row {dead} has zero degree; cannot normalize")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


@dataclass(frozen=True)
class DisentangledAdjacencySet:
    """Per-hop adjacency stack: raw binary matrices and normalized forms.

    ``raw[k]`` selects pairs at hop distance exactly k plus self-loops, so the
    off-diagonal supports are pairwise disjoint across k and, up to the graph
    diameter, partition the connected pairs.
    """

    max_hop: int
    raw: tuple[np.ndarray, ...]
    normalized: tuple[np.ndarray, ...]


def disentangled_adjacencies(graph: SkeletonGraph, max_hop: int) -> DisentangledAdjacencySet:
    if max_hop < 0:
        raise SkeletonError(f"max_hop must be nonnegative, got {max_hop}")
    hops = hop_distances(graph)
    raw = tuple(k_adjacency(hops, k) for k in range(max_hop + 1))
    normalized = tuple(normalize_adjacency(m) for m in raw)
    return DisentangledAdjacencySet(max_hop, raw, normalized)


@dataclass(frozen=True)
class SparsityRow:
    """Nonzero counts at one hop order: dense power vs hop-indexed matrix."""

    k: int
    nnz_power: int
    nnz_k_adjacency: int


def sparsity_report(graph: SkeletonGraph, k_max: int) -> list[SparsityRow]:
    """Compare nnz of (A + I)^k against the hop-k adjacency for k = 1..k_max.

    Counted exactly in integer arithmetic.  The power accumulates every pair
    within distance k while the hop-k matrix keeps only distance-exactly-k
    pairs plus the diagonal, so its count can never be larger.
    """
    if k_max < 1:
        raise SkeletonError(f"k_max must be at least 1, got {k_max}")
    hops = hop_distances(graph)
    with_loops = graph.adjacency().astype(np.int64) + np.eye(graph.n_joints, dtype=np.int64)
    rows = []
    power = np.eye(graph.n_joints, dtype=np.int64)
    for k in range(1, k_max + 1):
        power = power @ with_loops
        nnz_power = int((power > 0).sum())
        nnz_k = int(k_adjacency(hops, k).astype(bool).sum())
        rows.append(SparsityRow(k, nnz_power, nnz_k))
    return rows


# ---------------------------------------------------------------------------
# built-in skeleton and the skeleton document format

_BODY17_NAMES = (
    "pelvis",
    "right_hip",
    "right_knee",
    "right_foot",
    "left_hip",
    "left_knee",
    "left_foot",
    "spine",
    "thorax",
    "neck",
    "head",
    "left_shoulder",
    "left_elbow",
    "left_wrist",
    "right_shoulder",
    "right_elbow",
    "right_wrist",
)

_BODY17_EDGES = (
    (0, 1),
    (1, 2),
    (2, 3),
    (0, 4),
    (4, 5),
    (5, 6),
    (0, 7),
    (7, 8),
    (8, 9),
    (9, 10),
    (8, 11),
    (11, 12),
    (12, 13),
    (8, 14),
    (14, 15),
    (15, 16),
)


def human36m_skeleton() -> SkeletonGraph:
    """The conventional 17-joint body tree rooted at the pelvis."""
    return SkeletonGraph(_BODY17_NAMES, _BODY17_EDGES, root=0)


def skeleton_to_document(graph: SkeletonGraph) -> str:
    """Serialize to the JSON skeleton document."""
    doc = {
        "joints": list(graph.joint_names),
        "edges": [[a, b] for a, b in graph.edges],
        "root": graph.root,
    }
    return json.dumps(doc, indent=2)


def skeleton_from_document(text: str) -> SkeletonGraph:
    """Parse and validate a JSON skeleton document.

    Required fields: ``joints`` (list of unique names), ``edges`` (list of
    [i, j] index pairs), ``root`` (joint index).  Errors name the offending
    field or entry.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SkeletonError(f"skeleton document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SkeletonError("skeleton document must be a JSON object")
    for field in ("joints", "edges", "root"):
        if field not in doc:
            raise SkeletonError(f"skeleton document is missing field '{field}'")
    unknown = set(doc) - {"joints", "edges", "root"}
    if unknown:
        raise SkeletonError(f"skeleton document has unknown fields: {sorted(unknown)}")
    joints = doc["joints"]
    if not isinstance(joints, list) or not all(isinstance(j, str) for j in joints):
        raise SkeletonError("field 'joints' must be a list of strings")
    edges_raw = doc["edges"]
    if not isinstance(edges_raw, list):
        raise SkeletonError("field 'edges' must be a list of [i, j] pairs")
    edges = []
    for idx, pair in enumerate(edges_raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise SkeletonError(f"edges[{idx}] must be a pair of joint indices, got {pair!r}")
        edges.append((pair[0], pair[1]))
    root = doc["root"]
    if not isinstance(root, int) or isinstance(root, bool):
        raise SkeletonError(f"field 'root' must be a joint index, got {root!r}")
    return SkeletonGraph(tuple(joints), tuple(edges), root)


def load_skeleton(path) -> SkeletonGraph:
    """Load a skeleton document from disk and require connectivity."""
    with open(path, "r", encoding="utf-8") as fh:
        graph = skeleton_from_document(fh.read())
    if not graph.is_connected():
        raise SkeletonError(f"skeleton in {path} is disconnected")
    return graph
