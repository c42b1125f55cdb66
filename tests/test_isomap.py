"""From-scratch Isomap: kNN graph, Dijkstra geodesics, classical MDS (LAPACK eigh,
checked against the reference Jacobi solver)."""

import math

import numpy as np
import pytest

from chanchart.config import preset
from chanchart.isomap import (
    _all_pairs,
    classical_mds,
    geodesic_distances,
    isomap,
    jacobi_eigh,
    knn_graph,
)
from chanchart.metricspace import distance_matrix
from chanchart.rng import SplitMix64
from chanchart.synthgen import generate_trajectory, synthesize_channels
from helpers import (
    all_pairs_oracle,
    bridged_geodesics_oracle,
    floyd_warshall,
    procrustes_residual,
)


def _euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _random_points(seed: int, n: int, dim: int) -> np.ndarray:
    return SplitMix64(seed).normals(n * dim).reshape(n, dim)


# ---------------------------------------------------------------------------
# knn graph


def test_knn_graph_hand_case():
    # four points on a line at 0, 1, 3, 7; k=1 keeps each node's nearest
    d = _euclidean(np.array([[0.0], [1.0], [3.0], [7.0]]))
    g = knn_graph(d, 1)
    # nearest of 0 is 1, of 1 is 0, of 2 is 1, of 3 is 2 -> edges {0-1, 1-2, 2-3}
    assert g.adjacency[0] == [(1, 1.0)]
    assert g.adjacency[1] == [(0, 1.0), (2, 2.0)]
    assert g.adjacency[2] == [(1, 2.0), (3, 4.0)]
    assert g.adjacency[3] == [(2, 4.0)]


def test_knn_graph_tie_breaks_toward_lower_index():
    # point 0 equidistant from 1 and 2; k=1 must pick index 1
    d = np.array([[0.0, 2.0, 2.0],
                  [2.0, 0.0, 3.0],
                  [2.0, 3.0, 0.0]])
    g = knn_graph(d, 1)
    assert (1, 2.0) in g.adjacency[0]
    # 2's nearest is 0, so edge 0-2 exists via symmetrization anyway
    assert (2, 2.0) in g.adjacency[0]


def test_knn_graph_symmetrized_degree_can_exceed_k():
    pts = _random_points(4, 30, 2)
    g = knn_graph(_euclidean(pts), 3)
    degrees = [len(a) for a in g.adjacency]
    assert min(degrees) >= 3
    assert max(degrees) > 3  # hub nodes collect extra reverse edges
    for i, adj in enumerate(g.adjacency):
        for j, w in adj:
            assert (i, w) in g.adjacency[j]  # undirected
    # every list is sorted by neighbour, here and on random, tied (rounded)
    # and NaN-holding matrices, none of them symmetric
    graphs = [g]
    for seed in range(30):
        rng = SplitMix64(seed)
        n = 3 + rng.randbelow(40)
        d = rng.uniforms(n * n).reshape(n, n)
        if seed % 3 == 1:
            d = np.round(4.0 * d)
        elif seed % 3 == 2:
            d[rng.uniforms(n * n).reshape(n, n) < 0.2] = np.nan
        graphs.append(knn_graph(d, 1 + rng.randbelow(min(6, n - 1))))
    for adj in (adj for h in graphs for adj in h.adjacency):
        assert [j for j, _ in adj] == sorted(j for j, _ in adj)


def test_knn_graph_k_out_of_range():
    d = _euclidean(_random_points(0, 5, 2))
    with pytest.raises(ValueError):
        knn_graph(d, 0)
    with pytest.raises(ValueError):
        knn_graph(d, 5)


def test_classical_mds_d_out_out_of_range():
    d = _euclidean(_random_points(0, 5, 2))
    with pytest.raises(ValueError, match=r"^d_out must be >= 1$"):
        classical_mds(d, 0)
    with pytest.raises(ValueError, match=r"^need at least d_out=6 points, got 5$"):
        classical_mds(d, 6)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesics_match_floyd_warshall():
    for seed in range(6):
        pts = _random_points(seed, 40, 2)
        d = _euclidean(pts)
        g = knn_graph(d, 4)
        expected = floyd_warshall(_dense(g))
        got = geodesic_distances(g, d)
        assert np.isfinite(got).all()
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)
        assert np.array_equal(got, got.T)


def test_geodesics_on_path_graph_sum_edge_weights():
    d = _euclidean(np.array([[0.0], [1.0], [3.0], [7.0]]))
    g = knn_graph(d, 1)
    geo = geodesic_distances(g, d)
    assert geo[0, 3] == 1.0 + 2.0 + 4.0
    assert geo[0, 2] == 3.0


def test_disconnected_graph_requires_bridge():
    # two distant clusters; k=1 keeps them separate
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
    d = _euclidean(pts)
    geo = geodesic_distances(knn_graph(d, 1), bridge_dist=d)
    # the bridge is the shortest inter-cluster distance: 1 <-> 2 at 99
    assert geo[1, 2] == 99.0
    assert geo[0, 3] == 1.0 + 99.0 + 1.0


def test_bridging_matches_depth_first_oracle():
    # integer grid points give many tied distances; k_iso = 1 or 2 leaves
    # the graph in many components
    disconnected, most = 0, 0
    for seed in range(60):
        rng = SplitMix64(seed)
        n = 2 + rng.randbelow(39)
        pts = np.array([[rng.randbelow(12), rng.randbelow(12)] for _ in range(n)], float)
        pts[:, 0] += np.arange(n) * 1e-3 * rng.randbelow(2)  # half the draws untie
        d = _euclidean(pts)
        k = 1 + rng.randbelow(min(2, n - 1))
        g, ref = knn_graph(d, k), knn_graph(d, k)
        components = len(set(np.argmax(np.isfinite(floyd_warshall(_dense(g))), axis=1)))
        disconnected += components > 1
        most = max(most, components)
        got = geodesic_distances(g, bridge_dist=d)
        assert np.array_equal(got, bridged_geodesics_oracle(ref, d)), seed
        # the bridges go into the weight matrix; the input graph is left alone
        assert g.adjacency == knn_graph(d, k).adjacency, seed
        assert np.isfinite(got).all()
    assert disconnected >= 40 and most >= 10


def test_all_pairs_matches_heap_dijkstra_oracle():
    # connected and disconnected graphs (unreachable pairs stay inf)
    for seed in range(8):
        pts = _random_points(seed, 30 + 20 * seed, 3)
        pts[: pts.shape[0] // 2] += 50.0 * (seed % 2)
        g = knn_graph(_euclidean(pts), 1 + seed % 4)
        assert np.array_equal(_all_pairs(_dense(g)), all_pairs_oracle(g)), seed
    # integer grid points with duplicates (zero-weight edges, tied labels),
    # and asymmetric matrices holding NaN, whose NaN edges must never relax
    for seed in range(40):
        rng = SplitMix64(seed)
        n = 2 + rng.randbelow(50)
        k = 1 + rng.randbelow(min(5, n - 1))
        if seed % 2:
            d = rng.uniforms(n * n).reshape(n, n)
            d[rng.uniforms(n * n).reshape(n, n) < 0.15] = np.nan
        else:
            d = _euclidean(np.array([[rng.randbelow(5), rng.randbelow(5)]
                                     for _ in range(n)], float))
        g = knn_graph(d, k)
        assert np.array_equal(_all_pairs(_dense(g)), all_pairs_oracle(g)), seed


def _dense(g) -> np.ndarray:
    dense = np.full((g.n, g.n), np.inf)
    for i, adj in enumerate(g.adjacency):
        for j, w in adj:
            dense[i, j] = w
    return dense


# ---------------------------------------------------------------------------
# eigensolver


def test_jacobi_matches_numpy_eigh():
    for seed in range(8):
        n = 4 + seed
        a = SplitMix64(seed).normals(n * n).reshape(n, n)
        a = (a + a.T) / 2.0
        vals, vecs = jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)
        assert np.allclose(np.sort(vals), expected, atol=1e-10)
        # eigenvector property and orthonormality
        assert np.allclose(a @ vecs, vecs * vals[None, :], atol=1e-10)
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)


def test_jacobi_diagonal_matrix_is_fixed_point():
    a = np.diag([3.0, -1.0, 2.0])
    vals, vecs = jacobi_eigh(a)
    assert np.allclose(np.sort(vals), [-1.0, 2.0, 3.0], atol=0.0)
    assert np.allclose(np.abs(vecs), np.eye(3), atol=0.0)


# ---------------------------------------------------------------------------
# classical MDS


def test_mds_equilateral_triangle():
    d = np.full((3, 3), 1.0)
    np.fill_diagonal(d, 0.0)
    emb = classical_mds(d, 2)
    rebuilt = _euclidean(emb.coords)
    assert np.abs(rebuilt - d).max() < 1e-9


def test_mds_recovers_planar_configuration():
    for seed in range(5):
        pts = _random_points(seed, 30, 2)
        emb = classical_mds(_euclidean(pts), 2)
        assert procrustes_residual(pts, emb.coords) < 1e-18
        # distances themselves are reproduced
        assert np.allclose(_euclidean(emb.coords), _euclidean(pts), atol=1e-9)


def _jacobi_mds(dist: np.ndarray, d_out: int) -> np.ndarray:
    """Classical MDS through the reference Jacobi solver.

    Centres with the explicit J = I - 11^T/n projector, then applies the same
    selection (top d_out eigenvalues), sqrt(max(eig, 0)) scaling and sign rule
    (largest-magnitude entry positive) as ``classical_mds``.
    """
    n = dist.shape[0]
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (dist * dist) @ j
    vals, vecs = jacobi_eigh((b + b.T) / 2.0)
    order = np.argsort(-vals, kind="stable")[:d_out]
    coords = vecs[:, order] * np.sqrt(np.clip(vals[order], 0.0, None))[None, :]
    for c in range(d_out):
        if coords[int(np.argmax(np.abs(coords[:, c]))), c] < 0:
            coords[:, c] *= -1.0
    return coords


def test_mds_matches_jacobi_reference_on_point_sets():
    for seed, n, dim in [(0, 30, 2), (1, 40, 2), (2, 25, 3), (3, 35, 3)]:
        d = _euclidean(_random_points(seed, n, dim))
        emb = classical_mds(d, dim)
        assert np.abs(emb.coords - _jacobi_mds(d, dim)).max() < 1e-10


def test_mds_matches_jacobi_reference_on_smart_init_geodesics():
    # the geodesic matrix init_smart embeds on the tiny preset
    cfg = preset("tiny")
    traj, radio, scat, _ = cfg.scenario_objects()
    cs = synthesize_channels(generate_trajectory(traj), radio, scat,
                             sample_rate=traj.sample_rate)
    e = cfg.encoder
    rows = cs.channels[SplitMix64(cfg.seeds["init"]).sample(cs.channels.shape[0], e.n_init)]
    dist = distance_matrix(rows)
    geo = geodesic_distances(knn_graph(dist, e.k_iso), bridge_dist=dist)
    emb = classical_mds(geo, e.d_out)
    assert np.abs(emb.coords - _jacobi_mds(geo, e.d_out)).max() < 1e-10
    again = classical_mds(geo, e.d_out)
    assert np.array_equal(emb.coords, again.coords)
    assert np.array_equal(emb.eigenvalues, again.eigenvalues)


def test_mds_eigenvalues_sorted_and_output_centered():
    pts = _random_points(7, 25, 3)
    emb = classical_mds(_euclidean(pts), 3)
    assert emb.eigenvalues[0] >= emb.eigenvalues[1] >= emb.eigenvalues[2] >= 0.0
    assert np.abs(emb.coords.mean(axis=0)).max() < 1e-9


def test_mds_deterministic_sign_convention():
    pts = _random_points(9, 20, 2)
    a = classical_mds(_euclidean(pts), 2)
    b = classical_mds(_euclidean(pts), 2)
    assert np.array_equal(a.coords, b.coords)
    for c in range(2):
        col = a.coords[:, c]
        assert col[int(np.argmax(np.abs(col)))] > 0


# ---------------------------------------------------------------------------
# the full stack


def test_isomap_complete_graph_recovers_plane():
    # with k = n-1 every edge is direct, so geodesics equal the input
    # distances and isomap reduces to classical MDS
    pts = _random_points(13, 40, 2)
    emb = isomap(_euclidean(pts), 39, 2)
    assert procrustes_residual(pts, emb.coords) < 1e-18


def test_isomap_unrolls_swiss_roll_strip():
    # points on an arc of circumference; geodesics along the curve recover
    # the 1-D parameterization that straight-line MDS would fold
    t = np.linspace(0.0, 1.5 * math.pi, 60)
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    emb = isomap(_euclidean(pts), 2, 1)
    arc = emb.coords[:, 0]
    # the recovered coordinate is monotone along the curve
    diffs = np.diff(arc)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_isomap_deterministic():
    pts = _random_points(21, 50, 2)
    d = _euclidean(pts)
    a = isomap(d, 5, 2)
    b = isomap(d, 5, 2)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
