"""Charting encoders: the sparse-correlation hybrid model and an MLP baseline.

The hybrid encoder maps a channel vector h to chart coordinates in five
steps: correlate against a dictionary of reference channels (a = D^H h),
take moduli (b = |a|), keep the k largest entries, normalize them to sum to
one, and output the weighted average of the corresponding chart anchors
(z = Z d).  Both the dictionary D and the anchor matrix Z are trainable.
The whole map is invariant to scaling and global phase of the input by
construction.

D is stored as one real array [Re D | Im D | 0], so the hybrid forward
multiplies each real plane of the channels by it once, and its backward
forms D's gradient with one product per plane.  The zero pad makes the
width a multiple of 8 columns: OpenBLAS splits a product's columns between
threads, and at other widths the results changed with the thread count.

Each encoder has one forward and one hand-derived reverse-mode backward,
both over batches of rows; one channel is charted as a batch of one.  A
hybrid row charts to the same bits alone as in any block, so its chart
depends on the channel and the model only.  The hybrid backward
multiplies only the live rows -- chartable rows whose output gradient is
nonzero -- into the dictionary gradients: every other row would add
exact zeros.

Both parameter classes implement the one encoder interface that the
trainer, the chart code, the parameter count and the model writer use:
``KIND`` is the model kind in ``CCM1`` files; ``m`` and ``d_out`` are the
channel length and the chart dimension; ``arrays()`` lists the arrays
Adam updates and that gradients are shaped like; ``file_arrays()`` lists
the parameters, without the pad, in ``CCM1`` file order;
``forward_rows(channels, index)`` charts the rows ``channels[index]`` and
returns ``(z, ok, cache)``, ``ok`` flagging the chartable rows --
``channels`` is an array or a fileio.RowReader, which reads those rows
from its file once; and ``backward_rows(cache, gz, out=None)`` returns the
batch-summed gradients of ``sum(gz * z)``, one per file array, to which
not-ok rows add nothing.  Given ``out``, arrays shaped like ``arrays()``,
the gradients are written into them, and those returned are views of
them, so a training run can keep one gradient set for all its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metricspace import distance_matrix
from .isomap import isomap
from .rng import SplitMix64


@dataclass
class EncoderParams:
    """Hybrid encoder parameters: the stacked dictionary and the chart anchors."""

    KIND = 0

    d_re: np.ndarray  # (m, n_init), a read-only view of d
    d_im: np.ndarray  # (m, n_init), a read-only view of d
    z: np.ndarray     # (d_out, n_init)
    k: int
    # (m, W) [Re D | Im D | 0], W = 2 n_init rounded up to a multiple of 8
    d: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d_re.shape != self.d_im.shape:
            raise ValueError("d_re and d_im shapes differ")
        if self.z.shape[1] != self.d_re.shape[1]:
            raise ValueError("z column count must match dictionary column count")
        if not 1 <= self.k <= self.d_re.shape[1]:
            raise ValueError("k must be in [1, n_init]")
        m, n = self.d_re.shape
        self.d = np.zeros((m, (2 * n + 7) // 8 * 8))
        self.d[:, :n], self.d[:, n:2 * n] = self.d_re, self.d_im
        self.d_re, self.d_im = self.d[:, :n], self.d[:, n:2 * n]
        self.d_re.flags.writeable = self.d_im.flags.writeable = False  # write through d

    @property
    def m(self) -> int:
        return self.d_re.shape[0]

    @property
    def n_init(self) -> int:
        return self.d_re.shape[1]

    @property
    def d_out(self) -> int:
        return self.z.shape[0]

    def arrays(self) -> list:
        return [self.d, self.z]

    def file_arrays(self) -> list:
        return [self.d_re, self.d_im, self.z]

    def forward_rows(self, channels, index):
        if not isinstance(channels, np.ndarray):
            channels, index = channels[index], None  # a fileio.RowReader reads them once
        z, cache = forward_batch(self, channels, index)
        return z, cache.ok, cache

    def backward_rows(self, cache, gz: np.ndarray, out=None):
        return backward_batch(self, cache, gz, out)


@dataclass
class MlpParams:
    """Bias-free dense stack; weights[i] has shape (out_i, in_i), dims chain."""

    KIND = 1

    weights: list = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.weights, self.weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValueError("layer dimensions do not chain")

    @property
    def m(self) -> int:
        return self.weights[0].shape[1] // 2

    @property
    def d_out(self) -> int:
        return self.weights[-1].shape[0]

    def arrays(self) -> list:
        return list(self.weights)

    file_arrays = arrays

    def forward_rows(self, channels, index):
        z, activations, ok = mlp_forward_batch(self, channels[index])
        return z, ok, (activations, ok)

    def backward_rows(self, cache, gz: np.ndarray, out=None):
        activations, ok = cache
        return mlp_backward_batch(self, activations, gz, ok, out)


def _top_k_mask(b: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k largest entries along the last axis, ties toward the lower index.

    NaN ranks below every number, so the mask equals the first k entries of a
    stable descending argsort.  The k-th value is found by partition; every
    entry above it is kept, and the entries equal to it fill the remaining
    places in index order.  k at or beyond the axis length keeps everything.
    """
    if k >= b.shape[-1]:
        return np.ones(b.shape, dtype=bool)
    # partition sorts NaN last, so partitioning -b puts NaN below every number
    kth = -np.partition(-b, k - 1, axis=-1)[..., k - 1:k]
    b_nan, kth_nan = np.isnan(b), np.isnan(kth)
    above = (b > kth) | (kth_nan & ~b_nan)
    tie = (b == kth) | (kth_nan & b_nan)
    need = k - np.count_nonzero(above, axis=-1, keepdims=True)
    return above | (tie & (np.cumsum(tie, axis=-1, dtype=np.int32) <= need))


@dataclass
class BatchCache:
    """Intermediates of a batched hybrid forward; rows with ok=False are degenerate.

    The cache holds no plane of the channels: it keeps a reference to the
    charted ``channels`` and the row selection ``rows`` (the index, or None
    for every row), and backward_batch gathers the planes of the rows it
    multiplies from them.  The channels must not change in between.
    """

    channels: np.ndarray     # (n_channels, m) complex128
    rows: np.ndarray | None  # (n_samples,) index into channels, or None: every row
    a_re: np.ndarray    # (n_samples, n_init)
    a_im: np.ndarray
    b: np.ndarray
    kept_mask: np.ndarray  # bool (n_samples, n_init)
    s: np.ndarray          # (n_samples,)
    d: np.ndarray          # (n_samples, n_init)
    ok: np.ndarray         # bool (n_samples,)


def _correlate(plane: np.ndarray, d: np.ndarray):
    """(plane @ d, whether each row's entries are all finite).

    A plane of fewer than 8 rows is padded with zero rows, whose products
    are dropped: BLAS takes other kernels for the smallest products.
    """
    n_rows, finite = plane.shape[0], np.isfinite(plane).all(axis=1)
    if n_rows < 8:
        plane = np.concatenate([plane, np.zeros((8 - n_rows, plane.shape[1]))])
    return (plane @ d)[:n_rows], finite


@np.errstate(invalid="ignore")  # a non-finite entry can make inf - inf; its row is flagged
def forward_batch(p: EncoderParams, channels: np.ndarray, index=None):
    """Batched hybrid forward over rows of `channels`; returns (z, cache).

    Given ``index``, an integer array, charts the rows ``channels[index]``.
    The rows are gathered one plane at a time as a contiguous real array
    (matmul on strided real/imag views bypasses BLAS), and each plane is
    multiplied once by the stacked dictionary ``p.d``: the real plane is
    freed before the imaginary plane is gathered.  Then a_re = Re h . Re D +
    Im h . Im D and a_im = Im h . Re D - Re h . Im D are read off the two
    products' column halves, and the top-k, the normalization and z follow.
    z is a fixed-order sum per row, and a row's plane products keep their
    bits in any block, so a row charts to the same bits alone as in any
    block.  With real products and the modulus as sqrt(re^2 + im^2), exact
    power-of-two input scalings and quarter-turn phase rotations reproduce
    the output bit-for-bit.  Degenerate rows (no kept entry, or a non-finite
    entry) chart to zero and are flagged in cache.ok instead of raising, so
    callers can skip and count them.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    rows = slice(None) if index is None else index
    n = p.n_init
    # each plane dies when _correlate returns
    re, finite_re = _correlate(np.ascontiguousarray(channels.real[rows]), p.d)
    im, finite_im = _correlate(np.ascontiguousarray(channels.imag[rows]), p.d)
    a_re = re[:, :n] + im[:, n:2 * n]
    a_im = im[:, :n] - re[:, n:2 * n]
    del re, im
    b = np.sqrt(a_re * a_re + a_im * a_im)
    kept_mask = _top_k_mask(b, p.k) & (b > 0.0) & (finite_re & finite_im)[:, None]
    d = np.where(kept_mask, b, 0.0)
    s = np.sum(d, axis=1)
    ok = s > 0.0
    d /= np.where(ok, s, 1.0)[:, None]  # a row with no kept entry stays zero
    z = np.einsum("ij,kj->ik", d, p.z, optimize=False)
    return z, BatchCache(channels=channels, rows=index, a_re=a_re, a_im=a_im, b=b,
                         kept_mask=kept_mask, s=s, d=d, ok=ok)


def backward_batch(p: EncoderParams, cache: BatchCache, gz: np.ndarray, out=None):
    """Batch-summed hybrid gradients (d_re, d_im, z); not-ok rows contribute nothing.

    Only the live rows -- ok rows whose ``gz`` row is nonzero -- enter the
    dictionary gradient, and only their real and imaginary planes are
    gathered from the cache's channels.  Every other row would add exact
    zeros to each of its sums, so skipping it keeps the result's bits, and
    a degenerate or non-finite row is never multiplied in.  The stacked
    dictionary's gradient is Re h^T [ga_re | -ga_im | 0] + Im h^T [ga_im |
    ga_re | 0], one product per plane, so Adam leaves its zero pad at zero;
    the d_re and d_im gradients returned are views of it.  ``gz.T @ d`` runs
    over all rows.  Given ``out``, arrays shaped like ``p.arrays()``, the
    gradients are written into them.
    """
    gd_dict, gz_mat = (np.empty(p.d.shape), np.empty(p.z.shape)) if out is None else out
    gz = np.where(cache.ok[:, None], gz, 0.0)
    np.matmul(gz.T, cache.d, out=gz_mat)
    live = np.flatnonzero(np.any(gz != 0.0, axis=1))
    d, b = cache.d[live], cache.b[live]
    gd = gz[live] @ p.z  # (n_live, n_init)
    inner = np.sum(gd * d, axis=1)
    gc = np.where(cache.kept_mask[live], gd - inner[:, None], 0.0) / cache.s[live, None]
    safe_b = np.where(b > 0.0, b, 1.0)
    n = p.n_init
    g1, g2 = np.zeros((2, live.size, p.d.shape[1]))
    np.divide(gc * cache.a_re[live], safe_b, out=g1[:, :n])  # ga_re
    np.divide(gc * cache.a_im[live], safe_b, out=g2[:, :n])  # ga_im
    np.negative(g2[:, :n], out=g1[:, n:2 * n])
    g2[:, n:2 * n] = g1[:, :n]
    h, rows = cache.channels, live if cache.rows is None else cache.rows[live]
    np.matmul(np.ascontiguousarray(h.real[rows]).T, g1, out=gd_dict)
    gd_dict += np.ascontiguousarray(h.imag[rows]).T @ g2
    return gd_dict[:, :n], gd_dict[:, n:2 * n], gz_mat


def smart_atoms(n: int, n_init: int, seed: int) -> np.ndarray:
    """The n_init dataset rows a smart init takes as its dictionary, in atom order."""
    if n_init > n:
        raise ValueError(f"n_init={n_init} exceeds dataset size {n}")
    return SplitMix64(seed).sample(n, n_init)


def init_smart(cs, n_init: int, k_iso: int, k: int, d_out: int, seed: int) -> EncoderParams:
    """Dictionary = a seeded random subset of collected channels; anchors = its Isomap chart."""
    atoms = cs.channels[smart_atoms(cs.channels.shape[0], n_init, seed)]
    emb = isomap(distance_matrix(atoms), k_iso, d_out)
    # EncoderParams copies the atom planes into d; Adam needs z C-contiguous
    return EncoderParams(d_re=atoms.T.real, d_im=atoms.T.imag,
                         z=np.ascontiguousarray(emb.coords.T), k=k)


def _xavier(rng: SplitMix64, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return (rng.uniforms(int(np.prod(shape))) * 2.0 - 1.0).reshape(shape) * bound


def init_random(m: int, n_init: int, k: int, d_out: int, seed: int) -> EncoderParams:
    """Xavier-uniform hybrid parameters; draw order d_re, d_im, z (row-major each)."""
    rng = SplitMix64(seed)
    d_re = _xavier(rng, (m, n_init), m, n_init)
    d_im = _xavier(rng, (m, n_init), m, n_init)
    z = _xavier(rng, (d_out, n_init), n_init, d_out)
    return EncoderParams(d_re=d_re, d_im=d_im, z=z, k=k)


MLP_HIDDEN = (1024, 512, 256, 128, 64)


def mlp_init(m: int, seed: int, hidden=MLP_HIDDEN, d_out: int = 2) -> MlpParams:
    """Xavier-initialized bias-free MLP on the stacked [Re; Im] channel vector."""
    dims = (2 * m,) + tuple(hidden) + (d_out,)
    rng = SplitMix64(seed)
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(_xavier(rng, (fan_out, fan_in), fan_in, fan_out))
    return MlpParams(weights=weights)


def mlp_forward_batch(p: MlpParams, channels: np.ndarray):
    """Batched MLP forward; returns (z (n, d_out), activations, ok mask).

    A row of zero norm or with a non-finite entry is not ok and charts to zero.
    """
    channels = np.asarray(channels, dtype=np.complex128)
    x = np.concatenate([channels.real, channels.imag], axis=1)
    norms = np.linalg.norm(x, axis=1)
    ok = (norms > 0.0) & np.isfinite(x).all(axis=1)
    x = x / np.where(ok, norms, 1.0)[:, None]
    x[~ok] = 0.0
    activations = [x]
    for i, w in enumerate(p.weights):
        x = x @ w.T
        if i < len(p.weights) - 1:
            x = np.maximum(x, 0.0)
        activations.append(x)
    return activations[-1], activations, ok


def mlp_backward_batch(p: MlpParams, activations: list, gz: np.ndarray, ok: np.ndarray,
                       out=None):
    """Batch-summed MLP weight gradients; rows with ok=False contribute nothing.

    The layer-0 input gradient (a (n, 2m) product that nothing reads) is
    skipped.  Given ``out``, a list of arrays shaped like the weights, the
    gradients are written into it and it is returned.
    """
    g = np.array(gz, dtype=np.float64)
    g[~ok] = 0.0
    grads = [np.empty(w.shape) for w in p.weights] if out is None else out
    for i in range(len(p.weights) - 1, -1, -1):
        if i < len(p.weights) - 1:
            g = g * (activations[i + 1] > 0.0)
        np.matmul(g.T, activations[i], out=grads[i])
        if i > 0:
            g = g @ p.weights[i]
    return grads


def count_params(model) -> int:
    """Trainable parameter count of an encoder; the dictionary's pad is not counted."""
    return sum(a.size for a in model.file_arrays())


# chart_batch charts this many rows per encoder call, so the encoder's
# per-row intermediates never exceed one block.
CHART_ROWS = 256


def chart_batch(model, channels, index=None):
    """Chart many channels with either encoder; returns (z, ok mask).

    Charts the rows ``channels[index]`` (every row when ``index`` is None)
    in blocks of CHART_ROWS rows.  The (n, model.d_out) result is allocated
    once and filled block by block; with no rows the encoder is not called.
    Each block's rows are gathered only when it is charted, by the encoder
    itself, so the hybrid makes no complex copy of them; ``channels`` may
    also be a fileio.RowReader, which reads each block's rows once.  A
    hybrid row gets the same bits here as in ``chart_batch(model, h[None,
    :])`` or in a training batch.
    """
    index = np.arange(channels.shape[0]) if index is None else index
    n = len(index)
    z, ok = np.empty((n, model.d_out)), np.empty(n, dtype=bool)
    for lo in range(0, n, CHART_ROWS):
        hi = min(lo + CHART_ROWS, n)
        # [:2] drops the block's cache before the next block is charted
        z[lo:hi], ok[lo:hi] = model.forward_rows(channels, index[lo:hi])[:2]
    return z, ok
