"""Shared oracles for the test suite.

Everything here is written independently of the package internals -- plain
loops and well-known textbook formulations -- so that agreement between an
oracle and the fast implementation is meaningful evidence, not a tautology.
The exceptions are ``rank_matrix``, which runs the package's own ranker
over whole rows so that it can be checked against the oracles,
``FunctionEncoder``, a stand-in model, and ``fingerprint``, which names
the build that the byte ledger ``LEDGER`` and other bit claims hold on.
"""

import heapq
import math
import os
import platform
import struct
from types import SimpleNamespace

import numpy as np

from chanchart import evalmetrics
from chanchart.rng import SplitMix64
from chanchart.synthgen import SPEED_OF_LIGHT


LEDGER = os.path.join(os.path.dirname(__file__), "digests.json")


def fingerprint() -> dict:
    """The numpy version, BLAS build and machine that result bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def procrustes_residual(reference: np.ndarray, embedding: np.ndarray) -> float:
    """Normalized residual after the best similarity transform.

    Centers both point sets, finds the rotation (with reflection) and
    uniform scale aligning ``embedding`` to ``reference``, and returns
    ||reference - s * embedding @ R||^2 / ||reference||^2.
    """
    x = reference - reference.mean(axis=0)
    y = embedding - embedding.mean(axis=0)
    u, s, vt = np.linalg.svd(y.T @ x)
    r = u @ vt
    scale = s.sum() / (y * y).sum()
    resid = x - scale * (y @ r)
    return float((resid * resid).sum() / (x * x).sum())


def central_difference(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar fn at x, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / max(||a||, ||b||, tiny)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / denom


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths on a dense weight matrix (inf = no edge)."""
    d = np.array(weights, dtype=np.float64)
    n = d.shape[0]
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i, k] + d[k, j]
                if via < d[i, j]:
                    d[i, j] = via
    return d


def brute_ranks(points: np.ndarray) -> np.ndarray:
    """rank[i, j] = position of j in i's neighbor list (nearest = 1).

    Neighbors are ordered by squared Euclidean distance to i, ties broken
    toward the lower index; i itself is excluded and rank[i, i] = 0.
    """
    n = points.shape[0]
    ranks = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        d2 = [float(((points[j] - points[i]) ** 2).sum()) for j in range(n)]
        order = sorted((j for j in range(n) if j != i), key=lambda j: (d2[j], j))
        for pos, j in enumerate(order):
            ranks[i, j] = pos + 1
    return ranks


def brute_trustworthiness(positions: np.ndarray, chart: np.ndarray, k: int) -> float:
    """Direct transcription of the trustworthiness sum over false neighbors."""
    n = positions.shape[0]
    pos_rank = brute_ranks(positions)
    chart_rank = brute_ranks(chart)
    total = 0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            if chart_rank[i, j] <= k and pos_rank[i, j] > k:
                total += pos_rank[i, j] - k
    return 1.0 - (2.0 / (n * k * (2 * n - 3 * k - 1))) * total


def brute_continuity(positions: np.ndarray, chart: np.ndarray, k: int) -> float:
    """Continuity is trustworthiness with the two spaces swapped."""
    return brute_trustworthiness(chart, positions, k)


def full_rank_matrix(points: np.ndarray) -> np.ndarray:
    """The n x n rank matrix in one go: an (n, n, 2) difference array, one
    stable argsort of every row, then the self-rank correction.

    Same conventions as ``brute_ranks``; this was the package's ranker
    before scoring moved to row blocks.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    order = np.argsort(sq, axis=1, kind="stable")
    rows = np.arange(n)
    pos = np.empty((n, n), dtype=np.int64)
    pos[rows[:, None], order] = np.arange(n)[None, :]
    self_pos = pos[rows, rows]
    ranks = pos + 1 - (pos > self_pos[:, None])
    ranks[rows, rows] = 0
    return ranks


def rank_matrix(points: np.ndarray) -> np.ndarray:
    """Entry (i, j), i != j: rank of j by ascending distance to i (nearest = 1).

    The package's ranker (``evalmetrics._sq_rows`` and ``_rank_rows``, which
    ``_scores`` uses on rows with ties) over all n rows at once.  Ranks run
    over the other n-1 points; distance ties break toward the lower index.
    The diagonal is set to 0 and carries no meaning.
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two points to rank")
    return evalmetrics._rank_rows(evalmetrics._sq_rows(x, 0, n), np.arange(n))


class FunctionEncoder:
    """A stand-in encoder that charts a block of channel rows with ``fn``.

    ``forward_rows(channels, index)`` returns ``(fn(channels[index]), ones,
    None)``: every row is chartable, and there is no cache to train from.
    ``fn`` maps a block of rows to ``d_out`` = 2 chart columns.
    """

    d_out = 2

    def __init__(self, fn):
        self.fn = fn

    def forward_rows(self, channels, index):
        z = np.asarray(self.fn(channels[index]), dtype=np.float64)
        return z, np.ones(z.shape[0], dtype=bool), None


def full_matrix_score(rank_ranks: np.ndarray, nn_ranks: np.ndarray, k: int) -> float:
    """1 - normalized penalty over points in the nn-space K-NN but not the
    rank-space K-NN, each costing its rank-space rank minus K, from n x n masks."""
    n = rank_ranks.shape[0]
    mask = (nn_ranks >= 1) & (nn_ranks <= k) & (rank_ranks > k)
    penalty = int(np.sum((rank_ranks - k) * mask))
    return 1.0 - (2.0 * penalty) / (n * k * (2 * n - 3 * k - 1))


def full_matrix_rows(positions: np.ndarray, chart: np.ndarray, k_grid) -> list:
    """``evaluate``'s (K, K_frac, TW, CT) rows from two whole rank matrices,
    scanning them once per (K, metric) pair."""
    n = positions.shape[0]
    rank_pos = full_rank_matrix(positions)
    rank_chart = full_rank_matrix(chart)
    rows = []
    for frac in k_grid:
        k = max(1, int(math.floor(frac * n + 0.5)))
        rows.append((k, float(frac), full_matrix_score(rank_pos, rank_chart, k),
                     full_matrix_score(rank_chart, rank_pos, k)))
    return rows


def adam_oracle(state, params, grads, cfg) -> None:
    """Textbook bias-corrected Adam (Kingma & Ba), one array expression per line.

    Same signature and state fields as ``trainer.adam_step``; it allocates
    freely and updates ``state.m``, ``state.v`` and the parameters in place.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + cfg.eps)


def ccd1_bytes(channels: np.ndarray, positions: np.ndarray) -> bytes:
    """A ``CCD1`` dataset file packed one double at a time with ``struct``.

    Header, then positions sample-major, then each channel entry as its real
    part followed by its imaginary part, all little-endian.
    """
    n, m = channels.shape
    parts = [b"CCD1", struct.pack("<3Q", n, m, positions.shape[1])]
    for row in positions:
        for x in row:
            parts.append(struct.pack("<d", float(x)))
    for row in channels:
        for z in row:
            parts.append(struct.pack("<2d", float(z.real), float(z.imag)))
    return b"".join(parts)


def ccm1_bytes(model) -> bytes:
    """A ``CCM1`` model file packed with ``struct``, without the writer's checks.

    The kind, then M, N_init, D_out and k for a hybrid or the layer count
    and the layer dims for an MLP, then every file array row-major, all
    little-endian; so a test can write a model that ``write_model`` refuses.
    """
    arrays = model.file_arrays()
    if model.KIND == 0:
        header = (model.m, arrays[0].shape[1], model.d_out, model.k)
    else:
        header = (len(arrays), arrays[0].shape[1], *(w.shape[0] for w in arrays))
    parts = [b"CCM1", struct.pack(f"<{1 + len(header)}Q", model.KIND, *header)]
    parts += [struct.pack(f"<{a.size}d", *a.ravel().tolist()) for a in arrays]
    return b"".join(parts)


def argsort_top_k_mask(b: np.ndarray, k: int) -> np.ndarray:
    """Mask of the first k entries of a stable descending argsort along the
    last axis (k at or beyond its length keeps everything).

    argsort places NaN after every number, so NaN ranks lowest, and equal
    entries keep index order.  This was the package's top-k rule before it
    moved to partitioning.
    """
    b = np.asarray(b)
    mask = np.zeros(b.shape, dtype=bool)
    order = np.argsort(-b, axis=-1, kind="stable")
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


def full_row_backward_batch(p, cache, gz, out=None):
    """The batch-summed hybrid gradients with every row in every product.

    The h planes of all charted rows are gathered from the cache's
    ``channels`` and ``rows``.  Not-ok rows get zero output and correlation
    gradients, and their h planes are zeroed in a copy, so non-finite
    channels cannot leak in as NaN*0.  The dictionary gradient is the
    package's two stacked products, Re h^T [ga_re | -ga_im | 0] + Im h^T
    [ga_im | ga_re | 0], over every row; this was ``backward_batch`` before
    it multiplied only the live rows and wrote into ``out``.  Returns the
    (d_re, d_im, z) gradients, the first two as views of the stacked one;
    given ``out``, arrays shaped like ``p.arrays()``, the gradients are
    copied into it and the views are of it.
    """
    ok = cache.ok
    gz = np.array(gz, dtype=np.float64)
    gz[~ok] = 0.0
    gz_mat = gz.T @ cache.d
    gd = gz @ p.z
    inner = np.sum(gd * cache.d, axis=1)
    safe_s = np.where(ok, cache.s, 1.0)
    gc = np.where(cache.kept_mask, gd - inner[:, None], 0.0) / safe_s[:, None]
    gc[~ok] = 0.0
    safe_b = np.where(cache.b > 0.0, cache.b, 1.0)
    ga_re = gc * cache.a_re / safe_b
    ga_im = gc * cache.a_im / safe_b
    rows = slice(None) if cache.rows is None else cache.rows
    h_re = np.ascontiguousarray(cache.channels.real[rows])
    h_im = np.ascontiguousarray(cache.channels.imag[rows])
    if not ok.all():
        ga_re[~ok] = 0.0
        ga_im[~ok] = 0.0
        h_re = np.where(ok[:, None], h_re, 0.0)
        h_im = np.where(ok[:, None], h_im, 0.0)
    n = p.n_init
    g1, g2 = np.zeros((ga_re.shape[0], p.d.shape[1])), np.zeros((ga_re.shape[0], p.d.shape[1]))
    g1[:, :n], g1[:, n:2 * n] = ga_re, -ga_im
    g2[:, :n], g2[:, n:2 * n] = ga_im, ga_re
    gd = h_re.T @ g1 + h_im.T @ g2
    if out is not None:
        np.copyto(out[0], gd)
        np.copyto(out[1], gz_mat)
        gd, gz_mat = out
    return gd[:, :n], gd[:, n:2 * n], gz_mat


def hard_threshold(v: np.ndarray, k: int):
    """Keep the k largest entries (ties toward the lower index), zero the rest.

    Returns (thresholded copy, kept index array sorted ascending).  k beyond
    the vector length keeps everything.
    """
    v = np.asarray(v)
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = argsort_top_k_mask(v, k)
    out = np.zeros_like(v)
    out[mask] = v[mask]
    return out, np.flatnonzero(mask)


class DegenerateInputError(ValueError):
    """A channel the oracles cannot chart: every kept correlation zero, or a zero vector."""


def forward_oracle(p, h: np.ndarray):
    """One channel through the hybrid encoder with matvecs; returns (z, cache).

    Raises DegenerateInputError when every kept correlation modulus is zero.
    This was the package's per-sample ``forward`` before the encoder ran
    every channel as a batch.
    """
    h = np.asarray(h, dtype=np.complex128)
    h_re = np.ascontiguousarray(h.real)
    h_im = np.ascontiguousarray(h.imag)
    a_re = p.d_re.T @ h_re + p.d_im.T @ h_im
    a_im = p.d_re.T @ h_im - p.d_im.T @ h_re
    b = np.sqrt(a_re * a_re + a_im * a_im)
    _, ht_kept = hard_threshold(b, p.k)
    kept = ht_kept[b[ht_kept] > 0.0]
    if kept.size == 0:
        raise DegenerateInputError("degenerate correlation: channel uncorrelated with every kept column")
    s = float(np.sum(b[kept]))
    d = np.zeros(p.n_init)
    d[kept] = b[kept] / s
    z = p.z @ d
    return z, SimpleNamespace(a_re=a_re, a_im=a_im, b=b, kept=kept, s=s, d=d)


def backward_oracle(p, cache, h: np.ndarray, gz: np.ndarray):
    """Gradients of (gz . z) w.r.t. (d_re, d_im, z) for one ``forward_oracle`` pass.

    Gradient flows only through the kept indices; dense outputs are zero
    outside the kept columns.  This was the package's per-sample
    ``backward``.
    """
    h = np.asarray(h, dtype=np.complex128)
    gz = np.asarray(gz, dtype=np.float64)
    kept = cache.kept
    gz_mat = np.outer(gz, cache.d)
    gd = p.z.T @ gz
    inner = float(np.dot(gd[kept], cache.d[kept]))
    gc = (gd[kept] - inner) / cache.s
    ga_re = gc * cache.a_re[kept] / cache.b[kept]
    ga_im = gc * cache.a_im[kept] / cache.b[kept]
    gd_re = np.zeros((p.m, p.n_init))
    gd_im = np.zeros((p.m, p.n_init))
    gd_re[:, kept] = np.outer(h.real, ga_re) + np.outer(h.imag, ga_im)
    gd_im[:, kept] = np.outer(h.imag, ga_re) - np.outer(h.real, ga_im)
    return gd_re, gd_im, gz_mat


def mlp_forward_oracle(p, h: np.ndarray):
    """One channel through the MLP with matvecs; returns (z, activations).

    This was the package's per-sample ``mlp_forward``.
    """
    h = np.asarray(h, dtype=np.complex128)
    x = np.concatenate([h.real, h.imag])
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        raise DegenerateInputError("zero channel cannot be normalized")
    x = x / norm
    activations = [x]
    for i, w in enumerate(p.weights):
        x = w @ x
        if i < len(p.weights) - 1:
            x = np.maximum(x, 0.0)
        activations.append(x)
    return activations[-1], activations


def mlp_backward_oracle(p, activations: list, gz: np.ndarray):
    """Gradients of (gz . z) w.r.t. each weight matrix, from outer products.

    This was the package's per-sample ``mlp_backward``.
    """
    g = np.asarray(gz, dtype=np.float64)
    grads = [None] * len(p.weights)
    for i in range(len(p.weights) - 1, -1, -1):
        if i < len(p.weights) - 1:
            g = g * (activations[i + 1] > 0.0)
        grads[i] = np.outer(g, activations[i])
        if i > 0:
            g = p.weights[i].T @ g
    return grads


def triplet_loss_oracle(z, z_plus, z_minus, m: float):
    """Margin loss of one triplet; returns (loss, d_plus, d_minus).

    This was the package's per-sample ``triplet_loss``.
    """
    z = np.asarray(z, dtype=np.float64)
    d_plus = float(np.linalg.norm(z - np.asarray(z_plus, dtype=np.float64)))
    d_minus = float(np.linalg.norm(z - np.asarray(z_minus, dtype=np.float64)))
    return max(0.0, d_plus - d_minus + m), d_plus, d_minus


def triplet_loss_grad_oracle(z, z_plus, z_minus, m: float):
    """Subgradients of the margin loss w.r.t. (z, z_plus, z_minus).

    This was the package's per-sample ``triplet_loss_grad``.
    """
    z = np.asarray(z, dtype=np.float64)
    z_plus = np.asarray(z_plus, dtype=np.float64)
    z_minus = np.asarray(z_minus, dtype=np.float64)
    loss, d_plus, d_minus = triplet_loss_oracle(z, z_plus, z_minus, m)
    gz = np.zeros_like(z)
    gzp = np.zeros_like(z)
    gzm = np.zeros_like(z)
    if loss == 0.0:
        return gz, gzp, gzm
    if d_plus > 0.0:
        u = (z - z_plus) / d_plus
        gz += u
        gzp -= u
    if d_minus > 0.0:
        u = (z - z_minus) / d_minus
        gz -= u
        gzm += u
    return gz, gzp, gzm


def _dfs_components(adjacency: list) -> np.ndarray:
    labels = np.full(len(adjacency), -1, dtype=np.int64)
    comp = 0
    for start in range(len(adjacency)):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = comp
        while stack:
            u = stack.pop()
            for v, _ in adjacency[u]:
                if labels[v] < 0:
                    labels[v] = comp
                    stack.append(v)
        comp += 1
    return labels


def _heap_dijkstra(adjacency: list, src: int) -> np.ndarray:
    dist = np.full(len(adjacency), np.inf)
    dist[src] = 0.0
    done = np.zeros(len(adjacency), dtype=bool)
    heap = [(0.0, src)]
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adjacency[u]:
            cand = du + w
            if not done[v] and cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand, v))
    return dist


def bridged_geodesics_oracle(g, dist: np.ndarray) -> np.ndarray:
    """All-pairs geodesics after bridging components by depth-first search.

    This was the package's ``geodesic_distances``: while a depth-first
    search finds more than one component, add the minimum-weight edge
    between two components (``g.adjacency`` is extended in place); then run
    Dijkstra from every source and keep each pair from its lower source.
    """
    dist = np.asarray(dist, dtype=np.float64)
    labels = _dfs_components(g.adjacency)
    while labels.max() > 0:
        masked = np.where(labels[:, None] != labels[None, :], dist, np.inf)
        i, j = divmod(int(np.argmin(masked)), g.n)
        w = float(dist[i, j])
        g.adjacency[i].append((j, w))
        g.adjacency[j].append((i, w))
        g.adjacency[i].sort()
        g.adjacency[j].sort()
        labels = _dfs_components(g.adjacency)
    return all_pairs_oracle(g)


def all_pairs_oracle(g) -> np.ndarray:
    """Dijkstra from every source on float64 arrays, each pair kept from its
    lower source; this was the package's ``_all_pairs``."""
    out = np.zeros((g.n, g.n))
    for src in range(g.n):
        out[src, src + 1:] = _heap_dijkstra(g.adjacency, src)[src + 1:]
    return out + out.T


def shuffle_oracle(rng, items) -> None:
    """Backward Fisher-Yates with one ``randbelow`` call per swap; this was
    ``SplitMix64.shuffle``."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


def sample_oracle(rng, n: int, k: int) -> list:
    """Partial forward Fisher-Yates with one ``randbelow`` call per position;
    this was ``SplitMix64.sample``."""
    idx = list(range(n))
    for i in range(k):
        j = i + rng.randbelow(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def mine_triplets_oracle(n: int, cfg) -> np.ndarray:
    """Triplet mining one anchor and one ``randbelow`` draw at a time, as a
    (T, 3) int64 array of (anchor, close, far) rows; this was the package's
    ``mine_triplets``."""
    s_c = cfg.s_close
    s_f = cfg.s_far
    rng = SplitMix64(cfg.seed)
    out = []
    for i in range(n):
        lo_far_l = max(0, i - s_f)
        n_left = max(0, (i - s_c - 1) - lo_far_l + 1)
        lo_far_r = i + s_c + 1
        n_right = max(0, min(n - 1, i + s_f) - lo_far_r + 1)
        n_far = n_left + n_right
        if n_far == 0:
            continue
        lo_close = max(0, i - s_c)
        n_close = min(n - 1, i + s_c) - lo_close
        if n_close <= 0:
            raise ValueError("empty close window: need n >= 2 and S_c >= 1")
        for _ in range(cfg.per_anchor):
            j = lo_close + rng.randbelow(n_close)
            if j >= i:
                j += 1
            r = rng.randbelow(n_far)
            k = lo_far_l + r if r < n_left else lo_far_r + (r - n_left)
            out.append((i, j, k))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def _path_terms_oracle(sources, lengths, radio, gains):
    bs = np.asarray(radio.bs_position, dtype=np.float64)
    direction = np.atleast_2d(sources) - bs
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    k0 = 2.0 * np.pi / radio.wavelength
    spatial = np.exp(1j * k0 * (direction @ radio.antenna_grid().T))
    tau = lengths / SPEED_OF_LIGHT
    delay = np.exp(-2j * np.pi * np.outer(tau, radio.subcarrier_frequencies()))
    return gains[:, None, None] * spatial[:, :, None] * delay[:, None, :]


def synthesize_oracle(track, radio, scatterers, block: int) -> np.ndarray:
    """Channel rows with a fresh array per path term and per block, summed in
    the same path order; this was ``synthesize_channels``."""
    pos3 = np.asarray(track, dtype=np.float64)
    if pos3.shape[1] == 2:
        pos3 = np.concatenate([pos3, np.zeros((pos3.shape[0], 1))], axis=1)
    bs = np.asarray(radio.bs_position, dtype=np.float64)
    rows = np.empty((pos3.shape[0], radio.m), dtype=np.complex128)
    for start in range(0, pos3.shape[0], block):
        x = pos3[start:start + block]
        los_len = np.linalg.norm(x - bs, axis=1)
        acc = _path_terms_oracle(x, los_len, radio, 1.0 / los_len)
        for point, gain in zip(scatterers.points, scatterers.gains):
            p = np.asarray(point, dtype=np.float64)
            total = np.linalg.norm(x - p, axis=1) + float(np.linalg.norm(p - bs))
            acc += _path_terms_oracle(p, total, radio, gain / total)
        rows[start:start + block] = acc.reshape(x.shape[0], radio.m)
    return rows
