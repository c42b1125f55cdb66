"""Trustworthiness and continuity of a learned chart against true positions.

Trustworthiness penalizes chart neighborhoods containing points that are
not true spatial neighbors; continuity penalizes true neighbors missing
from chart neighborhoods.  Both use exact integer rank arithmetic so that
independent implementations agree to the last bit, and are reported over a
grid of neighborhood sizes expressed as fractions of the evaluated set.

Scoring walks both spaces in blocks of rows, so its memory stays fixed
however many points are evaluated, and scores every K of the grid from one
pass over the blocks (Venna & Kaski, ICANN 2001).  Every row is ranked
from its sorted values by one path; a row with a tie in either space is
first relabelled by the stable ranks that break its ties by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import chart_batch
from .metricspace import DataError

DEFAULT_K_GRID = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10)

# Scoring ranks about this many (row, point) entries at a time.
RANK_ENTRIES = 1 << 16


def _sq_rows(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared distances from rows lo..hi-1 of the float64 points x to every
    point.  The difference array is filled one coordinate at a time, which
    gives the same values as one broadcast subtraction, faster."""
    n, d = x.shape
    diff = np.empty((hi - lo, n, d))
    for k in range(d):
        np.subtract(x[lo:hi, None, k], x[None, :, k], out=diff[:, :, k])
    return np.einsum("ijk,ijk->ij", diff, diff)


def _rank_rows(sq: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Ranks of rows of squared distances whose self entries sit at ``cols``:
    a stable argsort of each row, then the self-rank correction."""
    order = np.argsort(sq, axis=1, kind="stable")
    rows = np.arange(sq.shape[0])
    pos = np.empty(sq.shape, dtype=np.int64)
    pos[rows[:, None], order] = np.arange(sq.shape[1])[None, :]
    self_pos = pos[rows, cols]
    ranks = pos + 1 - (pos > self_pos[:, None])
    ranks[rows, cols] = 0
    return ranks


def _max_k(n: int) -> int:
    return (2 * n - 2) // 3


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= _max_k(n):
        raise DataError(f"K={k} outside [1, {_max_k(n)}] for n={n}")


def _penalties(rank_sq, rank_sorted, nn_sq, nn_sorted, ks) -> np.ndarray:
    """Per K, the summed rank-space excess (rank - K) of the entries among
    their row's nn-space K nearest but not its rank-space K nearest, from
    tie-free rows of squared distances and the same rows sorted.

    In a tie-free row self is the only zero, so the rank of an entry is the
    number of smaller entries in its sorted row (``searchsorted``), and the
    nn-space max(ks) nearest are exactly the entries in
    (0, nn_sorted[max(ks)]]; their nn-space ranks are 1..max(ks) in the
    order of their values.  Only those entries can count for any K, so they
    are gathered once and every K is scored from them.
    """
    kmax = max(ks)
    near = (nn_sq > 0.0) & (nn_sq <= nn_sorted[:, kmax, None])
    order = np.argsort(nn_sq[near].reshape(-1, kmax), axis=1)
    nn = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(nn, order, np.arange(1, kmax + 1), axis=1)
    ranks = np.array([np.searchsorted(s, q) for s, q in
                      zip(rank_sorted, rank_sq[near].reshape(-1, kmax))], dtype=np.int64)
    return np.array([np.sum(ranks - k, where=(nn <= k) & (ranks > k)) for k in ks],
                    dtype=np.int64)


def _tied(s: np.ndarray) -> np.ndarray:
    """Rows of the row-sorted s that hold two equal values or a NaN."""
    return np.any(s[:, 1:] == s[:, :-1], axis=1) | np.isnan(s[:, -1])


def _scores(positions: np.ndarray, chart: np.ndarray, ks) -> list:
    """(trustworthiness, continuity) for each K in ks.

    Both spaces are scored in blocks of about RANK_ENTRIES (row, point)
    entries.  Each block's squared distances are sorted row by row.  A row
    with a tie or NaN in either space is relabelled in both: its values
    become its stable ranks (_rank_rows) and its sorted row 0..n-1, so it
    holds no tie and scores like the others.  Every row then gets the ranks
    of the whole n x n rank matrix (``rank_matrix`` in tests/helpers.py),
    and the penalties are exact integers summed over the blocks, so the
    result does not depend on the block size.
    """
    pos = np.asarray(positions, dtype=np.float64)
    cht = np.asarray(chart, dtype=np.float64)
    n = pos.shape[0]
    if cht.shape[0] != n:
        raise ValueError("positions and chart row counts differ")
    for k in ks:
        _check_k(n, k)
    if not ks:
        return []
    tw_pen = np.zeros(len(ks), dtype=np.int64)
    ct_pen = np.zeros(len(ks), dtype=np.int64)
    step = max(1, RANK_ENTRIES // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        sq_pos = _sq_rows(pos, lo, hi)
        sq_cht = _sq_rows(cht, lo, hi)
        sorted_pos = np.sort(sq_pos, axis=1)
        sorted_cht = np.sort(sq_cht, axis=1)
        tied = _tied(sorted_pos) | _tied(sorted_cht)
        if tied.any():
            cols = lo + np.flatnonzero(tied)
            sq_pos[tied] = _rank_rows(sq_pos[tied], cols)
            sq_cht[tied] = _rank_rows(sq_cht[tied], cols)
            sorted_pos[tied] = sorted_cht[tied] = np.arange(n)
        tw_pen += _penalties(sq_pos, sorted_pos, sq_cht, sorted_cht, ks)
        ct_pen += _penalties(sq_cht, sorted_cht, sq_pos, sorted_pos, ks)

    def score(penalty, k: int) -> float:
        return 1.0 - (2.0 * int(penalty)) / (n * k * (2 * n - 3 * k - 1))

    return [(score(t, k), score(c, k)) for t, c, k in zip(tw_pen, ct_pen, ks)]


def trustworthiness(positions: np.ndarray, chart: np.ndarray, k: int) -> float:
    """Penalizes false chart neighbors, ranked by their position-space rank."""
    return _scores(positions, chart, [k])[0][0]


def continuity(positions: np.ndarray, chart: np.ndarray, k: int) -> float:
    """Penalizes missing true neighbors, ranked by their chart-space rank."""
    return _scores(positions, chart, [k])[0][1]


@dataclass
class MetricsReport:
    """TW/CT rows over the neighborhood grid, plus evaluation bookkeeping."""

    rows: list                # (K, K_frac, trustworthiness, continuity)
    n_eval: int
    skipped: int

    def to_csv(self) -> str:
        lines = ["K,K_frac,trustworthiness,continuity"]
        for k, frac, tw, ct in self.rows:
            lines.append(f"{k},{frac!r},{tw!r},{ct!r}")
        return "\n".join(lines) + "\n"


def evaluate(model, cs, indices, k_grid=DEFAULT_K_GRID) -> MetricsReport:
    """Chart the selected samples and score TW/CT at each grid fraction.

    K = max(1, round(frac * n_eval)) per fraction.  Degenerate (unchartable)
    samples are dropped and counted; fewer than 3 chartable samples, or a K
    too large for them (checked before any ranking), is a DataError.  The
    model is an encoder, EncoderParams or MlpParams.

    The selected channels are gathered and charted one chart_batch block at
    a time, and both spaces are ranked in row blocks, so memory stays
    bounded by the block sizes rather than by n_eval^2; every K of the grid
    is scored in the same pass over the rank blocks.
    """
    indices = np.asarray(indices, dtype=np.int64)
    chart, ok = chart_batch(model, cs.channels, indices)
    skipped = int(np.sum(~ok))
    chart = chart[ok]
    positions = np.asarray(cs.positions, dtype=np.float64)[indices][ok]
    n_eval = chart.shape[0]
    if n_eval < 3:
        raise DataError("fewer than 3 chartable samples")
    ks = [max(1, int(math.floor(frac * n_eval + 0.5))) for frac in k_grid]
    scores = _scores(positions, chart, ks)
    rows = [(k, float(frac), tw, ct) for k, frac, (tw, ct) in zip(ks, k_grid, scores)]
    return MetricsReport(rows=rows, n_eval=n_eval, skipped=skipped)
