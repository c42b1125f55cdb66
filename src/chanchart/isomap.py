"""From-scratch Isomap over a precomputed distance matrix.

Pipeline: symmetrized k-nearest-neighbor graph, all-pairs shortest paths
(one Dijkstra per source, every source run in lockstep as O(n^2) array
passes over one weight matrix, into which minimum-cross-edge bridges are
written when the paths show the graph falls apart into components), then
classical multidimensional scaling on LAPACK's symmetric eigensolver
(``numpy.linalg.eigh``).  Only used at encoder-initialization scale (a
few hundred points), so everything favors determinism over asymptotics.
The pure-Python cyclic Jacobi solver ``jacobi_eigh`` is kept as the
reference that the tests check MDS against; the pipeline does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class NeighborGraph:
    """Undirected weighted graph; adjacency[i] holds (neighbor, weight) sorted by neighbor."""

    n: int
    adjacency: list


@dataclass
class Embedding:
    """MDS output: coords is (n, d_out); eigenvalues the retained spectrum, non-increasing."""

    coords: np.ndarray
    eigenvalues: np.ndarray


def knn_graph(dist: np.ndarray, k_iso: int) -> NeighborGraph:
    """Symmetrized k-nearest-neighbor graph of a distance matrix.

    Each node keeps its k_iso nearest others (ties broken toward the lower
    index); the edge set is the union over directions, so a node may end up
    with more than k_iso incident edges.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if not 1 <= k_iso < n:
        raise ValueError(f"k_iso must be in [1, {n - 1}], got {k_iso}")
    rows = np.arange(n)[:, None]
    order = np.argsort(dist, axis=1, kind="stable")
    nearest = order[order != rows].reshape(n, n - 1)[:, :k_iso]  # self dropped
    edges = np.unique(np.stack([np.minimum(rows, nearest), np.maximum(rows, nearest)],
                               axis=-1).reshape(-1, 2), axis=0)
    adjacency = [[] for _ in range(n)]
    for i, j in edges.tolist():
        w = float(dist[i, j])
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))  # edges are sorted, so each list is too
    return NeighborGraph(n=n, adjacency=adjacency)


def geodesic_distances(g: NeighborGraph, bridge_dist: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path lengths over the graph.

    Each unordered pair is taken from the lower-source Dijkstra run, so the
    result is exactly symmetric.  A pair left at inf lies in two components,
    and each component is named by its lowest index.  A disconnected graph
    is bridged using the original distance matrix (`bridge_dist`): the
    single minimum-weight edge between two components is written into the
    weight matrix until one component remains, then the paths are run
    again.  The graph ``g`` is left unchanged.
    """
    w = np.full((g.n, g.n), np.inf)
    for u, adj in enumerate(g.adjacency):
        for v, wt in adj:
            w[u, v] = wt
    out = _all_pairs(w)
    labels = np.argmax(np.isfinite(out), axis=1)
    if labels.any():
        dist = np.asarray(bridge_dist, dtype=np.float64)
        while labels.any():
            cross = labels[:, None] != labels[None, :]
            i, j = divmod(int(np.argmin(np.where(cross, dist, np.inf))), g.n)
            w[i, j] = w[j, i] = dist[i, j]
            labels[labels == max(labels[i], labels[j])] = min(labels[i], labels[j])
        out = _all_pairs(w)
    return out


def _all_pairs(w: np.ndarray) -> np.ndarray:
    # w is the (n, n) weight matrix, inf where there is no edge.  Row s of
    # dist is Dijkstra from source s.  Each of the n rounds settles every
    # row's nearest unsettled node u (settled entries are keyed +inf; a row
    # with none left re-settles one) and relaxes u's edges.  As no edge
    # weighs below 0, fmin never lowers a settled label, and it never takes a
    # NaN edge; each label ends as the least fl(d_u + w_uv) over its neighbours.
    n = w.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    settled = np.zeros((n, n))
    rows = np.arange(n)
    for _ in range(n):
        u = np.argmin(dist + settled, axis=1)
        settled[rows, u] = np.inf
        np.fmin(dist, dist[rows, u][:, None] + w[u], out=dist)
    out = np.triu(dist, 1)
    return out + out.T


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a dense symmetric matrix by cyclic Jacobi rotations.

    Reference solver only: ``classical_mds`` runs on ``numpy.linalg.eigh``,
    and the tests compare it against this independent implementation.

    Sweeps row by row until the off-diagonal Frobenius norm drops below
    tol * ||a||_F (or max_sweeps is hit).  Returns (eigenvalues, eigenvectors)
    unsorted, eigenvectors in columns.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    scale = math.sqrt(float(np.sum(a * a)))
    if scale == 0.0 or n == 1:
        return np.diagonal(a).copy(), v

    def offdiag() -> float:
        off = a - np.diag(np.diagonal(a))
        return math.sqrt(float(np.sum(off * off)))

    for _ in range(max_sweeps):
        if offdiag() <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diagonal(a).copy(), v


def classical_mds(dist: np.ndarray, d_out: int) -> Embedding:
    """Classical MDS of a symmetric zero-diagonal distance matrix.

    Double-centers the squared distances, takes the top d_out eigenpairs of
    the resulting Gram matrix (LAPACK ``eigh``), and scales eigenvectors by
    sqrt(max(eig, 0)).  Each eigenvector's sign is fixed so its
    largest-magnitude entry is positive, making the output reproducible
    bit-for-bit on one LAPACK build; another build may differ at ULP level.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if d_out < 1:
        raise ValueError("d_out must be >= 1")
    if n < d_out:
        raise ValueError(f"need at least d_out={d_out} points, got {n}")
    d2 = dist * dist
    row = d2.mean(axis=1)
    grand = d2.mean()
    b = -0.5 * (d2 - row[:, None] - row[None, :] + grand)
    upper = np.triu(b)
    b = upper + np.triu(b, 1).T
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(-vals, kind="stable")[:d_out]
    top_vals = vals[order]
    coords = vecs[:, order] * np.sqrt(np.clip(top_vals, 0.0, None))[None, :]
    peak = np.argmax(np.abs(coords), axis=0)
    coords[:, coords[peak, np.arange(d_out)] < 0] *= -1.0
    return Embedding(coords=coords, eigenvalues=top_vals)


def isomap(dist: np.ndarray, k_iso: int, d_out: int) -> Embedding:
    """knn_graph -> geodesic_distances -> classical_mds."""
    g = knn_graph(dist, k_iso)
    geo = geodesic_distances(g, bridge_dist=dist)
    return classical_mds(geo, d_out)
