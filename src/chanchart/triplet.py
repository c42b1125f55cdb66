"""Temporal triplet mining and the triplet margin loss with subgradients.

Triplets exploit sampling-time adjacency: for an anchor sample i, a close
sample j lies within S_c samples and a far sample k between S_c+1 and S_f
samples away, where S_c and S_f convert time windows to sample counts at
the dataset's sampling rate.  Mining returns the triplets as one (T, 3)
int64 array of (anchor, close, far) rows.  The loss max(0, d+ - d- + m)
pulls the close chart point toward the anchor and pushes the far one away;
it and its subgradients are computed row-wise over a batch, and one
triplet is a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import SplitMix64


@dataclass
class MiningConfig:
    """Time windows (seconds), sampling rate, triplets per anchor, and draw seed.

    The default windows are the stock 100 s / 290 s.  The sampling rate is
    the mined dataset's and has no default.
    """

    t_close: float = 100.0
    t_far: float = 290.0
    sample_rate: float = field(kw_only=True)
    per_anchor: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.t_close < self.t_far:
            raise ValueError("t_close must lie in (0, t_far)")
        if self.per_anchor < 1:
            raise ValueError("per_anchor must be >= 1")

    @property
    def s_close(self) -> int:
        return int(math.floor(self.t_close * self.sample_rate + 0.5))

    @property
    def s_far(self) -> int:
        return int(math.floor(self.t_far * self.sample_rate + 0.5))


def mine_triplets(n: int, cfg: MiningConfig) -> np.ndarray:
    """Draw per_anchor seeded triplets for every anchor index in [0, n).

    Returns a (T, 3) int64 array of (anchor, close, far) rows, (0, 3) when
    no anchor has a far candidate.

    Close candidates are [i-S_c, i+S_c] \\ {i} clipped to [0, n); far
    candidates are [i-S_f, i-S_c-1] and [i+S_c+1, i+S_f] clipped likewise.
    Draw order is fixed (anchors ascending, then repeats, close before far)
    so the output is a pure function of (n, cfg).  Anchors whose far set is
    empty after clipping are skipped entirely and consume no draws.  Each
    draw is ``randbelow`` of its candidate count; all of them come from one
    vector of raw outputs.
    """
    s_c = min(cfg.s_close, n)  # a window past n clips to the same candidates
    s_f = min(cfg.s_far, n)
    i = np.arange(n, dtype=np.int64)
    lo_far_l = np.maximum(0, i - s_f)
    n_left = np.maximum(0, (i - s_c - 1) - lo_far_l + 1)
    lo_far_r = i + s_c + 1
    n_right = np.maximum(0, np.minimum(n - 1, i + s_f) - lo_far_r + 1)
    lo_close = np.maximum(0, i - s_c)
    n_close = np.minimum(n - 1, i + s_c) - lo_close  # window size minus the anchor itself
    kept = np.flatnonzero(n_left + n_right > 0)
    if np.any(n_close[kept] <= 0):
        raise ValueError("empty close window: need n >= 2 and S_c >= 1")
    a = np.repeat(kept, cfg.per_anchor)
    draws = SplitMix64(cfg.seed).u64s(2 * a.size)
    j = lo_close[a] + (draws[0::2] % n_close[a].astype(np.uint64)).astype(np.int64)
    j += j >= a
    r = (draws[1::2] % (n_left[a] + n_right[a]).astype(np.uint64)).astype(np.int64)
    k = np.where(r < n_left[a], lo_far_l[a] + r, lo_far_r[a] + (r - n_left[a]))
    return np.stack([a, j, k], axis=1)


def triplet_loss_batch(z, z_plus, z_minus, m: float):
    """Row-wise margin loss; returns (loss, d_plus, d_minus) vectors."""
    d_plus = np.linalg.norm(z - z_plus, axis=1)
    d_minus = np.linalg.norm(z - z_minus, axis=1)
    return np.maximum(0.0, d_plus - d_minus + m), d_plus, d_minus


def triplet_loss_grad_batch(z, z_plus, z_minus, m: float):
    """Row-wise loss subgradients; returns (loss, gz, gz_plus, gz_minus).

    An inactive row (zero loss) gets zero subgradients, and a coincident pair
    (zero distance) contributes a zero subgradient for its branch.
    """
    loss, d_plus, d_minus = triplet_loss_batch(z, z_plus, z_minus, m)
    active = loss > 0.0
    wp = np.where(active & (d_plus > 0.0), 1.0 / np.where(d_plus > 0.0, d_plus, 1.0), 0.0)
    wm = np.where(active & (d_minus > 0.0), 1.0 / np.where(d_minus > 0.0, d_minus, 1.0), 0.0)
    up = (z - z_plus) * wp[:, None]
    um = (z - z_minus) * wm[:, None]
    return loss, up - um, -up, um
