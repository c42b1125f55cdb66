"""Stable on-disk formats: binary dataset/model files, CSV and SVG writers.

Binary layouts (all little-endian, all floats IEEE float64):

Dataset, magic ``CCD1``::

    "CCD1" | u64 N | u64 M | u64 P | N*P position doubles (sample-major)
           | N*M*2 channel doubles (sample-major, each entry re then im)

Model, magic ``CCM1``::

    "CCM1" | u64 kind          kind 0 = hybrid, 1 = mlp
    hybrid: u64 M, N_init, D_out, k | d_re | d_im | z     (row-major)
    mlp:    u64 L | L+1 u64 dims | L weight matrices      (row-major,
            weight l has shape (dims[l+1], dims[l]))

Round-trips are bit-exact: float64 values pass through unchanged.  CSVs use
``,`` separators, ``.`` decimals, LF line endings, and ``repr`` floats (the
shortest string that parses back to the same double), so identical inputs
produce byte-identical files.

Datasets are read through one class, ``RowReader``: opening checks the
whole file, and indexing reads the chosen channel rows.  ``read_dataset``
reads every row through it.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .encoder import EncoderParams, MlpParams
from .synthgen import ChannelSet

MAGIC_DATASET = b"CCD1"
MAGIC_MODEL = b"CCM1"


class FileFormatError(ValueError):
    """Raised when a dataset/model file is truncated, oversized, mislabeled, or non-finite."""


def _read_exact(fh, n: int, path: str, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FileFormatError(f"{path}: truncated while reading {what} "
                              f"(wanted {n} bytes, got {len(buf)})")
    return buf


def _read_u64(fh, count: int, path: str, what: str) -> tuple:
    return struct.unpack(f"<{count}Q", _read_exact(fh, 8 * count, path, what))


def _check_size(fh, payload: int, path: str) -> None:
    """Compare the file length with the header read so far plus ``payload`` bytes.

    Runs before any payload is allocated, so a header claiming terabytes
    fails here instead of in the allocator.
    """
    expected = fh.tell() + payload
    actual = os.fstat(fh.fileno()).st_size
    if actual < expected:
        raise FileFormatError(f"{path}: truncated: header implies {expected} bytes, "
                              f"file has {actual}")
    if actual > expected:
        raise FileFormatError(f"{path}: trailing bytes after expected end of file "
                              f"(header implies {expected} bytes, file has {actual})")


def _checked(out: np.ndarray, got: int, path: str, what: str) -> np.ndarray:
    """``out`` once ``got`` bytes were read into it: short or non-finite is rejected."""
    if got != out.nbytes:
        raise FileFormatError(f"{path}: truncated while reading {what} "
                              f"(wanted {out.nbytes} bytes, got {got})")
    if not np.isfinite(out).all():
        raise FileFormatError(f"{path}: non-finite value in {what}")
    return out


def _read_into(fh, out: np.ndarray, path: str, what: str) -> np.ndarray:
    """Read little-endian doubles straight into ``out``; reject non-finite values."""
    return _checked(out, fh.readinto(out), path, what)


def _read_f64(fh, shape: tuple, path: str, what: str) -> np.ndarray:
    return _read_into(fh, np.empty(shape, dtype="<f8"), path, what)


def _write_f64(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _check_header(path: str, n: int, m: int, p: int, error) -> None:
    if n < 1 or m < 1 or p not in (2, 3):  # the one CCD1 header rule, read and written
        raise error(f"{path}: implausible header N={n} M={m} P={p}")


@contextlib.contextmanager
def _replacing(path: str, mode: str = "wb", **kwargs):
    """Open ``path + ".tmp"`` for writing and rename it onto ``path`` when the
    block completes.  If the block or the write fails, the temporary file is
    removed, so no partial file is left and an existing ``path`` is unchanged;
    an ``OSError`` is raised again naming ``path``.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the file the caller asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


# ---------------------------------------------------------------------------
# dataset


def write_dataset(path: str, cs: ChannelSet) -> None:
    write_dataset_blocks(path, cs.positions, cs.channels.shape[1], [cs.channels])


def write_dataset_blocks(path: str, positions, m: int, blocks) -> None:
    """Write a ``CCD1`` file whose channel rows arrive in consecutive blocks.

    ``blocks`` yields (rows, M) complex arrays, one row per position in
    order, each written as it arrives.  A header RowReader would refuse
    raises ValueError first.  Like every writer here, it writes a temporary
    file and renames it onto ``path`` when complete, so a failure, in
    writing or in computing a block, leaves no partial file.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n, p = positions.shape
    _check_header(path, n, m, p, ValueError)
    with _replacing(path) as fh:
        fh.write(MAGIC_DATASET)
        fh.write(struct.pack("<3Q", n, m, p))
        _write_f64(fh, positions)
        entries = 0
        for block in blocks:
            # complex128 is (re, im) pairs of doubles: its float64 view
            # is the interleaved channel block, written without a copy
            _write_f64(fh, np.ascontiguousarray(block, dtype=np.complex128).view(np.float64))
            entries += block.size
        if entries != n * m:
            raise ValueError(f"channel blocks hold {entries} entries, expected {n}x{m}")


# Opening walks the channel section this many rows at a time, through one
# reused buffer, so the check holds none of the rows it reads.
READ_ROWS = 64


class RowReader:
    """A checked ``CCD1`` file whose channel rows are read by index, on demand.

    Opening reads the header and checks it against the file length before
    anything is allocated, then reads the positions and rejects non-finite
    ones, all as ``FileFormatError``.  Then ``check(n, m)``, if given, runs
    before any channel row is read: it may refuse the file by raising.  Then
    every channel row is read once, READ_ROWS at a time, keeping nothing, and
    a non-finite value raises ``FileFormatError``.  ``reader[index]`` reads
    the chosen rows, so a verb holds the rows it computes on and not the
    dataset; ``n``, ``m`` and ``positions`` are known, and ``shape`` is
    (N, M), as for an array of the channels.  Use it as a context manager.
    """

    def __init__(self, path: str, check=None):
        self.path = path
        self._fh = fh = open(path, "rb")
        try:
            magic = _read_exact(fh, 4, path, "magic")
            if magic != MAGIC_DATASET:
                raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC_DATASET!r}")
            n, m, p = _read_u64(fh, 3, path, "header")
            _check_header(path, n, m, p, FileFormatError)
            _check_size(fh, 8 * n * (p + 2 * m), path)
            self.n, self.m, self.shape = n, m, (n, m)
            self.positions = _read_f64(fh, (n, p), path, "positions")
            self._channels_at = fh.tell()
            if check is not None:
                check(n, m)
            buf = np.empty((min(READ_ROWS, n), m, 2), dtype="<f8")
            for lo in range(0, n, READ_ROWS):
                _read_into(fh, buf[:min(READ_ROWS, n - lo)], path, "channels")
        except BaseException:
            fh.close()
            raise

    def __enter__(self) -> "RowReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __getitem__(self, index) -> np.ndarray:
        """The channel rows ``index`` chooses, in its order, as C-contiguous complex128.

        ``index`` is a 1-D array of integers in [0, N); anything else raises
        ValueError.  Each row is one positioned read into the result, bit
        for bit the file's doubles.  A short read raises ``FileFormatError``
        ("truncated"), and so does a non-finite value, so a file changed
        since the check at opening is still caught.
        """
        index = np.asarray(index)
        if index.ndim != 1 or index.size and (index.dtype.kind not in "iu" or index.min() < 0
                                              or index.max() >= self.n):
            raise ValueError(f"row index is not a 1-D array of rows of N={self.n} samples")
        out = np.empty((index.size, self.m, 2), dtype="<f8")
        fd, row_bytes = self._fh.fileno(), 16 * self.m
        got = sum(os.preadv(fd, [row], self._channels_at + row_bytes * i)
                  for row, i in zip(out, index.tolist()))
        _checked(out, got, self.path, "channels")
        return out.view("<c16").reshape(index.size, self.m)


def read_dataset(path: str, sample_rate: float = 7.0) -> ChannelSet:
    """Load a ``CCD1`` file, checked as RowReader checks it.

    The channels are bit-for-bit the file's doubles, as C-contiguous
    complex128.  The file does not store the sampling rate (it belongs to
    the experiment config, not the measurements); pass it in when triplet
    mining will need it downstream.
    """
    with RowReader(path) as data:
        channels = data[np.arange(data.n)]
    return ChannelSet(channels=channels, positions=data.positions, sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# models


def write_model(path: str, model) -> None:
    """Write a ``CCM1`` file, atomically: a failed write leaves no partial file."""
    kind = getattr(model, "KIND", None)
    if kind == EncoderParams.KIND:
        header = (model.m, model.n_init, model.d_out, model.k)
    elif kind == MlpParams.KIND:
        dims = [model.weights[0].shape[1]] + [w.shape[0] for w in model.weights]
        header = (len(model.weights), *dims)
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    with _replacing(path) as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack(f"<{1 + len(header)}Q", kind, *header))
        for arr in model.file_arrays():
            _write_f64(fh, arr)


def read_model(path: str):
    """Load a ``CCM1`` file into EncoderParams or MlpParams.

    As with ``read_dataset``, the header is checked against the file length
    before any weights are allocated, and non-finite weights are rejected,
    all as ``FileFormatError``.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path, "magic")
        if magic != MAGIC_MODEL:
            raise FileFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC_MODEL!r}")
        (kind,) = _read_u64(fh, 1, path, "model kind")
        if kind == EncoderParams.KIND:
            m, n_init, d_out, k = _read_u64(fh, 4, path, "hybrid header")
            if m < 1 or n_init < 1 or d_out < 1 or not (1 <= k <= n_init):
                raise FileFormatError(f"{path}: implausible hybrid header "
                                      f"M={m} N_init={n_init} D_out={d_out} k={k}")
            _check_size(fh, 8 * n_init * (2 * m + d_out), path)
            d_re = _read_f64(fh, (m, n_init), path, "d_re")
            d_im = _read_f64(fh, (m, n_init), path, "d_im")
            z = _read_f64(fh, (d_out, n_init), path, "z")
            return EncoderParams(d_re=d_re, d_im=d_im, z=z, k=int(k))
        if kind == MlpParams.KIND:
            (count,) = _read_u64(fh, 1, path, "layer count")
            if not (1 <= count <= 64):
                raise FileFormatError(f"{path}: implausible layer count {count}")
            dims = _read_u64(fh, count + 1, path, "layer dims")
            # the input layer takes the stacked [Re; Im] channel: 2M entries
            if any(d < 1 for d in dims) or dims[0] % 2:
                raise FileFormatError(f"{path}: implausible layer dims {dims}")
            pairs = list(zip(dims, dims[1:]))
            _check_size(fh, 8 * sum(lo * hi for lo, hi in pairs), path)
            weights = [_read_f64(fh, (hi, lo), path, "weights") for lo, hi in pairs]
            return MlpParams(weights=weights)
        raise FileFormatError(f"{path}: unknown model kind {kind}")


# ---------------------------------------------------------------------------
# CSV and SVG artifacts


def write_text(path: str, text: str) -> None:
    """Write text with LF endings regardless of platform, atomically as write_model."""
    with _replacing(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def chart_csv(chart: np.ndarray, positions: np.ndarray) -> str:
    lines = ["index,chart_x,chart_y,true_x,true_y"]
    for i in range(chart.shape[0]):
        lines.append(f"{i},{float(chart[i, 0])!r},{float(chart[i, 1])!r},"
                     f"{float(positions[i, 0])!r},{float(positions[i, 1])!r}")
    return "\n".join(lines) + "\n"


def loss_csv(epoch_losses) -> str:
    lines = ["epoch,mean_loss"]
    for i, loss in enumerate(epoch_losses, start=1):
        lines.append(f"{i},{float(loss)!r}")
    return "\n".join(lines) + "\n"


SEGMENT_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
                  "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def chart_svg(chart: np.ndarray, width: int = 640, height: int = 640,
              margin: float = 40.0, radius: float = 2.5) -> str:
    """Self-contained SVG scatter of chart points, colored by path progress.

    Points are split into eight equal temporal segments, each drawn in one
    color of a fixed cycle, so a faithful chart shows as an ordered rainbow
    loop and a scrambled one as confetti.
    """
    n = chart.shape[0]
    lo = chart.min(axis=0)
    hi = chart.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    scale = min((width - 2 * margin) / span[0], (height - 2 * margin) / span[1])
    mid = (lo + hi) / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(n):
        x = (chart[i, 0] - mid[0]) * scale + width / 2.0
        y = height / 2.0 - (chart[i, 1] - mid[1]) * scale
        color = SEGMENT_COLORS[min(i * 8 // n, 7)]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" '
                     f'fill="{color}" fill-opacity="0.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
