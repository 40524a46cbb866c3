"""Skeleton graphs and hop adjacencies against a Floyd-Warshall oracle."""
import json

import numpy as np
import pytest

from mgtnet.skeleton import (
    SkeletonError,
    SkeletonGraph,
    disentangled_adjacencies,
    hop_distances,
    human36m_skeleton,
    k_adjacency,
    load_skeleton,
    normalize_adjacency,
    skeleton_from_document,
    skeleton_to_document,
    sparsity_report,
)

INF = 10**9


def floyd_warshall(graph):
    """Independent all-pairs shortest hops; INF marks unreachable pairs."""
    n = graph.n_joints
    d = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a, b in graph.edges:
        d[a, b] = 1
        d[b, a] = 1
    for mid in range(n):
        d = np.minimum(d, d[:, mid : mid + 1] + d[mid : mid + 1, :])
    return d


def random_connected_graph(rng, n):
    """Random tree plus a few extra edges, so cycles occur."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        a, b = int(min(a, b)), int(max(a, b))
        edges.add((a, b))
    names = tuple(f"j{i}" for i in range(n))
    return SkeletonGraph(names, tuple(sorted(edges)), root=0)


# ---------------------------------------------------------------------------
# graph container


def test_body_skeleton_shape():
    g = human36m_skeleton()
    assert g.n_joints == 17
    assert len(g.edges) == 16  # tree: n - 1 bones
    assert g.joint_names[g.root] == "pelvis"
    assert g.is_connected()


def test_adjacency_is_symmetric_without_loops():
    g = human36m_skeleton()
    a = g.adjacency()
    np.testing.assert_allclose(a, a.T)
    assert np.trace(a) == 0
    assert a.sum() == 2 * len(g.edges)


def test_graph_validation_errors():
    with pytest.raises(SkeletonError):
        SkeletonGraph((), (), 0)
    with pytest.raises(SkeletonError):
        SkeletonGraph(("a", "a"), (), 0)
    with pytest.raises(SkeletonError):
        SkeletonGraph(("a", "b"), (), 2)
    with pytest.raises(SkeletonError):
        SkeletonGraph(("a", "b"), ((0, 0),), 0)
    with pytest.raises(SkeletonError):
        SkeletonGraph(("a", "b"), ((0, 1), (1, 0)), 0)
    with pytest.raises(SkeletonError):
        SkeletonGraph(("a", "b"), ((0, 2),), 0)


# ---------------------------------------------------------------------------
# hop distances


def test_hop_distances_match_floyd_warshall_on_body():
    g = human36m_skeleton()
    hops = hop_distances(g)
    oracle = floyd_warshall(g)
    reachable = oracle < INF
    assert reachable.all()
    np.testing.assert_array_equal(hops.distances, oracle)


def test_hop_distance_regression_values():
    # frozen facts about the built-in body graph
    g = human36m_skeleton()
    hops = hop_distances(g)
    assert int(hops.distances[g.root].max()) == 5  # wrists are 5 bones from the pelvis
    assert hops.max_finite() == 8  # foot to wrist
    values, counts = np.unique(hops.distances, return_counts=True)
    histogram = dict(zip(values.tolist(), counts.tolist()))
    assert histogram == {0: 17, 1: 32, 2: 38, 3: 44, 4: 50, 5: 44, 6: 36, 7: 20, 8: 8}


def test_hop_distances_random_graphs_match_oracle():
    rng = np.random.default_rng(414)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        hops = hop_distances(g)
        oracle = floyd_warshall(g)
        np.testing.assert_array_equal(hops.distances, np.where(oracle >= INF, hops.sentinel, oracle))


def test_disconnected_graph_uses_sentinel():
    g = SkeletonGraph(("a", "b", "c"), ((0, 1),), 0)
    hops = hop_distances(g)
    assert not hops.is_connected
    assert not g.is_connected()
    assert hops.distances[0, 2] == hops.sentinel == 4
    assert hops.max_finite() == 1


# ---------------------------------------------------------------------------
# k-adjacency


def test_k_adjacency_zero_is_identity():
    hops = hop_distances(human36m_skeleton())
    np.testing.assert_array_equal(k_adjacency(hops, 0), np.eye(17))


def test_k_adjacency_one_is_adjacency_plus_loops():
    g = human36m_skeleton()
    hops = hop_distances(g)
    np.testing.assert_array_equal(k_adjacency(hops, 1), g.adjacency() + np.eye(17))


def test_k_adjacency_rejects_negative():
    hops = hop_distances(human36m_skeleton())
    with pytest.raises(SkeletonError):
        k_adjacency(hops, -1)


def test_k_adjacency_matches_oracle_and_partitions():
    rng = np.random.default_rng(515)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        hops = hop_distances(g)
        oracle = floyd_warshall(g)
        diameter = int(oracle.max())
        union = np.zeros((g.n_joints, g.n_joints))
        for k in range(diameter + 1):
            mat = k_adjacency(hops, k)
            expected = (oracle == k).astype(float)
            np.fill_diagonal(expected, 1.0)
            np.testing.assert_array_equal(mat, expected)
            off = mat - np.diag(np.diag(mat))
            assert not ((union > 0) & (off > 0)).any()  # disjoint off-diagonal support
            union += off
        # off-diagonal supports cover exactly the connected pairs
        connected = (oracle > 0) & (oracle < INF)
        np.testing.assert_array_equal(union > 0, connected)


def test_unreachable_pairs_never_marked():
    g = SkeletonGraph(("a", "b", "c", "d"), ((0, 1), (2, 3)), 0)
    hops = hop_distances(g)
    for k in range(1, 6):
        mat = k_adjacency(hops, k)
        assert mat[0, 2] == 0 and mat[1, 3] == 0


# ---------------------------------------------------------------------------
# normalization and powers


def test_normalize_adjacency_row_property():
    g = human36m_skeleton()
    a = g.adjacency() + np.eye(17)
    normalized = normalize_adjacency(a)
    d = a.sum(axis=1)
    np.testing.assert_allclose(normalized, a / np.sqrt(np.outer(d, d)))
    np.testing.assert_allclose(normalized, normalized.T)
    # spectrum of D^-1/2 A D^-1/2 with loops lies in [-1, 1]
    eig = np.linalg.eigvalsh(normalized)
    assert eig.min() >= -1.0 - 1e-12 and eig.max() <= 1.0 + 1e-12


def test_normalize_adjacency_errors():
    with pytest.raises(SkeletonError):
        normalize_adjacency(np.zeros((2, 3)))
    with pytest.raises(SkeletonError):
        normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SkeletonError):
        normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(SkeletonError):
        normalize_adjacency(np.zeros((2, 2)))  # zero degree


def test_disentangled_adjacencies_stack():
    g = human36m_skeleton()
    normalized = disentangled_adjacencies(g, 2)
    assert len(normalized) == 3
    hops = hop_distances(g)
    np.testing.assert_array_equal(k_adjacency(hops, 0), np.eye(17))
    np.testing.assert_allclose(normalized[0], np.eye(17))
    for k, norm in enumerate(normalized):
        np.testing.assert_allclose(norm, normalize_adjacency(k_adjacency(hops, k)))
    with pytest.raises(SkeletonError):
        disentangled_adjacencies(g, -1)


# ---------------------------------------------------------------------------
# sparsity comparison


def test_sparsity_report_regression_values():
    rows = sparsity_report(human36m_skeleton(), 4)
    assert [(r.k, r.nnz_power, r.nnz_k_adjacency) for r in rows] == [
        (1, 49, 49),
        (2, 87, 55),
        (3, 131, 61),
        (4, 181, 67),
    ]


def test_sparsity_hop_matrix_never_denser():
    rng = np.random.default_rng(616)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 16)))
        for row in sparsity_report(g, 4):
            assert row.nnz_k_adjacency <= row.nnz_power


def test_sparsity_report_rejects_bad_kmax():
    with pytest.raises(SkeletonError):
        sparsity_report(human36m_skeleton(), 0)


# ---------------------------------------------------------------------------
# skeleton document round-trip


def test_document_round_trip():
    g = human36m_skeleton()
    doc = skeleton_to_document(g)
    back = skeleton_from_document(doc)
    assert back == g


def test_document_rejects_malformed():
    good = json.loads(skeleton_to_document(human36m_skeleton()))
    cases = [
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({k: v for k, v in good.items() if k != "root"}),
        json.dumps({**good, "mystery": 1}),
        json.dumps({**good, "joints": [1, 2, 3]}),
        json.dumps({**good, "edges": "nope"}),
        json.dumps({**good, "edges": [[0, 1, 2]]}),
        json.dumps({**good, "edges": [[0, True]]}),
        json.dumps({**good, "root": "pelvis"}),
        json.dumps({**good, "root": True}),
    ]
    for text in cases:
        with pytest.raises(SkeletonError):
            skeleton_from_document(text)


def test_load_skeleton_requires_connectivity(tmp_path):
    path = tmp_path / "skel.json"
    path.write_text(skeleton_to_document(human36m_skeleton()), encoding="utf-8")
    assert load_skeleton(path) == human36m_skeleton()

    broken = SkeletonGraph(("a", "b", "c"), ((0, 1),), 0)
    path.write_text(skeleton_to_document(broken), encoding="utf-8")
    with pytest.raises(SkeletonError, match="disconnected"):
        load_skeleton(path)
