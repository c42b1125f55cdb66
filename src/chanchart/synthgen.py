"""Synthetic pedestrian trajectories and spatially-consistent MIMO channels.

A deterministic geometric propagation model stands in for ray-traced data:
each channel is the sum of a line-of-sight path and one single-bounce path
per scatterer.  Channels are therefore a smooth function of position, which
is the one property the charting pipeline relies on.  Not modeled: fading
statistics, Doppler, noise, hardware impairments.

The flattened channel vector is antenna-major: entry n*S + s is antenna n
(row-major over the UPA grid), subcarrier s.  Subcarrier frequencies span
[f_c - B/2, f_c + B/2] inclusive with S evenly spaced points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import SplitMix64

SPEED_OF_LIGHT = 299792458.0


@dataclass
class RadioConfig:
    """Uniform planar array and OFDM grid parameters."""

    n_rows: int = 8
    n_cols: int = 8
    n_subcarriers: int = 16
    f_c: float = 3.5e9
    bandwidth: float = 20e6
    antenna_spacing: float | None = None  # meters; None means half-wavelength
    bs_position: tuple = (0.0, 0.0, 10.0)

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1 or self.n_subcarriers < 1:
            raise ValueError("array and subcarrier counts must be >= 1")
        if self.f_c <= 0 or self.bandwidth <= 0:
            raise ValueError("f_c and bandwidth must be positive")
        if self.antenna_spacing is None:
            self.antenna_spacing = self.wavelength / 2.0
        if self.antenna_spacing <= 0:
            raise ValueError("antenna_spacing must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c

    @property
    def n_antennas(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def m(self) -> int:
        return self.n_antennas * self.n_subcarriers

    def antenna_grid(self) -> np.ndarray:
        """(N_r, 3) antenna offsets from the array reference, x-y plane, row-major."""
        rows, cols = np.divmod(np.arange(self.n_antennas), self.n_cols)
        out = np.zeros((self.n_antennas, 3))
        out[:, 0] = rows * self.antenna_spacing
        out[:, 1] = cols * self.antenna_spacing
        return out

    def subcarrier_frequencies(self) -> np.ndarray:
        s = self.n_subcarriers
        if s == 1:
            return np.array([self.f_c])
        return self.f_c - self.bandwidth / 2.0 + np.arange(s) * (self.bandwidth / (s - 1))


@dataclass
class TrajectoryConfig:
    """Piecewise-linear walking path sampled at constant arc-length steps."""

    waypoints: list
    speed: float = 1.4
    sample_rate: float = 7.0
    jitter_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if self.speed <= 0 or self.sample_rate <= 0:
            raise ValueError("speed and sample_rate must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        # floor(length / step) + 1 samples must lie in [2, 2^53]; the upper
        # check also catches a length that overflows and a step that
        # underflows to 0
        step = self.speed / self.sample_rate
        with np.errstate(over="ignore", invalid="ignore"):
            seg = np.diff(np.asarray(self.waypoints, dtype=np.float64), axis=0)
            length = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
        if not (step > 0.0 and length / step < 2.0**53):
            raise ValueError(f"a path of {length!r} m at {step!r} m per sample "
                             "needs more than 2^53 samples")
        if self.n_samples < 2:
            raise ValueError(f"a path of {length!r} m at {step!r} m per sample gives "
                             f"{self.n_samples} sample, fewer than 2")

    @property
    def n_samples(self) -> int:
        """floor(path_length / step) + 1, the samples generate_trajectory takes."""
        seg = np.diff(np.asarray(self.waypoints, dtype=np.float64), axis=0)
        total = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
        return int(math.floor(total / (self.speed / self.sample_rate) + 1e-9)) + 1


@dataclass
class ScattererSet:
    """Point scatterers with per-scatterer reflection attenuation in (0, 1]."""

    points: list = field(default_factory=list)
    gains: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.points) != len(self.gains):
            raise ValueError("points and gains lengths differ")
        for g in self.gains:
            if not 0.0 < g <= 1.0:
                raise ValueError("attenuations must lie in (0, 1]")


@dataclass
class ChannelSet:
    """Temporally ordered channel rows with their ground-truth positions."""

    channels: np.ndarray        # (N, M) complex
    positions: np.ndarray       # (N, P) real, P = 2 or 3
    sample_rate: float = 7.0

    def __post_init__(self):
        if self.channels.shape[0] != self.positions.shape[0]:
            raise ValueError("channels and positions row counts differ")


def generate_trajectory(cfg: TrajectoryConfig) -> np.ndarray:
    """Sample (N, 2) positions along the polyline every speed/sample_rate meters.

    N = floor(path_length * sample_rate / speed) + 1 (with a tiny epsilon
    absorbing float error in the quotient).  Gaussian jitter of std
    jitter_sigma is applied perpendicular to the local travel direction,
    one seeded normal draw per point in path order.
    """
    pts = np.asarray(cfg.waypoints, dtype=np.float64)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    total = float(seg_len.sum())
    step = cfg.speed / cfg.sample_rate
    count = cfg.n_samples
    arcs = np.minimum(np.arange(count) * step, total)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    # Segment index per sample; the final sample lands on the last segment.
    idx = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(seg_len) - 1)
    frac = (arcs - cum[idx]) / seg_len[idx]
    out = pts[idx] + frac[:, None] * seg[idx]
    if cfg.jitter_sigma > 0.0:
        tangent = seg[idx] / seg_len[idx, None]
        normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
        noise = SplitMix64(cfg.seed).normals(count)
        out = out + (cfg.jitter_sigma * noise)[:, None] * normal
    return out


def _path_terms(sources, lengths, radio: RadioConfig, gains, out: np.ndarray) -> np.ndarray:
    """Per-path channel contribution for a batch of UE positions, into out.

    sources: (n, 3) or (3,) arrival-side endpoints (UE for line of sight,
    scatterer for a bounce); lengths: (n,) total path lengths; gains: (n,)
    amplitude factors; out: (n, N_r, S) complex, returned.
    """
    bs = np.asarray(radio.bs_position, dtype=np.float64)
    grid = radio.antenna_grid()
    freqs = radio.subcarrier_frequencies()
    direction = np.atleast_2d(sources) - bs
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    k0 = 2.0 * np.pi / radio.wavelength
    spatial = np.exp(1j * k0 * (direction @ grid.T))          # (n or 1, N_r)
    tau = lengths / SPEED_OF_LIGHT
    delay = np.exp(-2j * np.pi * np.outer(tau, freqs))        # (n, S)
    return np.multiply(gains[:, None, None] * spatial[:, :, None], delay[:, None, :], out=out)


def _synthesize_block(positions_3d: np.ndarray, radio: RadioConfig,
                      scatterers: ScattererSet, index_base: int, out: np.ndarray) -> None:
    """Channel rows of a block of UE positions, written into out (n, M).

    The line of sight goes straight into out and each scatterer's term is
    added from one scratch block, in scatterer order.
    """
    bs = np.asarray(radio.bs_position, dtype=np.float64)
    n = positions_3d.shape[0]
    acc = out.reshape(n, radio.n_antennas, radio.n_subcarriers)
    los_len = np.linalg.norm(positions_3d - bs, axis=1)
    if np.any(los_len == 0.0):
        bad = index_base + int(np.argmin(los_len))
        raise ValueError(f"zero-length line-of-sight path at sample {bad}")
    _path_terms(positions_3d, los_len, radio, 1.0 / los_len, out=acc)
    term = np.empty_like(acc)
    for point, gain in zip(scatterers.points, scatterers.gains):
        p = np.asarray(point, dtype=np.float64)
        leg_ue = np.linalg.norm(positions_3d - p, axis=1)
        leg_bs = float(np.linalg.norm(p - bs))
        if leg_bs == 0.0:
            raise ValueError("scatterer coincides with the base station")
        if np.any(leg_ue == 0.0):
            bad = index_base + int(np.argmin(leg_ue))
            raise ValueError(f"scatterer coincides with sample {bad}")
        total = leg_ue + leg_bs
        acc += _path_terms(p, total, radio, gain / total, out=term)


def channel_vector(position, radio: RadioConfig, scatterers: ScattererSet) -> np.ndarray:
    """Complex M-vector for one UE position (3-vector; 2-vectors get z=0)."""
    p = np.asarray(position, dtype=np.float64)
    if p.shape == (2,):
        p = np.append(p, 0.0)
    out = np.empty((1, radio.m), dtype=np.complex128)
    _synthesize_block(p[None, :], radio, scatterers, 0, out)
    return out[0]


def _track_positions(track) -> np.ndarray:
    positions = np.asarray(track, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[0] < 1:
        raise ValueError("track must be a non-empty (N, 2) or (N, 3) array")
    return positions


# Synthesis computes this many track positions per block; the bytes do not depend on it.
SYNTH_ROWS = 512


def channel_blocks(track, radio: RadioConfig, scatterers: ScattererSet, out=None):
    """Yield the channel rows of consecutive SYNTH_ROWS-row blocks of track positions.

    Given ``out`` (N, M), each block is written into its rows of ``out`` and
    yielded as a view of them; otherwise every block is computed in one
    reused (SYNTH_ROWS, M) buffer, valid only until the next block.
    """
    positions = _track_positions(track)
    n = positions.shape[0]
    if positions.shape[1] == 2:
        positions = np.concatenate([positions, np.zeros((n, 1))], axis=1)
    buf = np.empty((min(SYNTH_ROWS, n), radio.m), dtype=np.complex128) if out is None else None
    for start in range(0, n, SYNTH_ROWS):
        stop = min(start + SYNTH_ROWS, n)
        rows = buf[:stop - start] if out is None else out[start:stop]
        _synthesize_block(positions[start:stop], radio, scatterers, start, rows)
        yield rows


def synthesize_channels(track, radio: RadioConfig, scatterers: ScattererSet,
                        sample_rate: float = 7.0) -> ChannelSet:
    """Channel rows for every track position, in order; positions kept as given."""
    positions = _track_positions(track)
    rows = np.empty((positions.shape[0], radio.m), dtype=np.complex128)
    for _ in channel_blocks(positions, radio, scatterers, out=rows):
        pass
    return ChannelSet(channels=rows, positions=positions, sample_rate=sample_rate)


# Default test scenario: a rectangular pedestrian loop, walked counterclockwise
# starting from the lower-right corner, with the rectangle sized so that the
# sample count at 0.2 m spacing hits `geometry_samples`.  The base station sits
# inside the loop, 10 m above the path plane; six fixed scatterers ring the
# loop at lamppost heights with attenuation 0.5, placed well outside the
# rectangle so that bounce paths stay weaker than the line of sight and the
# channel decorrelates over meters rather than wavelengths.
_ASPECT_W = 400.0
_ASPECT_H = 190.9


def loop_scenario(n_samples: int, seed: int = 0, jitter_sigma: float = 0.05,
                  geometry_samples: int | None = None):
    """(TrajectoryConfig, RadioConfig, ScattererSet) for a rectangular loop.

    The loop is sized for `geometry_samples` (default `n_samples`) and
    walked at 1.4 m/s with `n_samples` equally spaced samples, so any other
    `n_samples` moves the sampling rate away from 7 samples/s.
    """
    geo = n_samples if geometry_samples is None else geometry_samples
    if min(n_samples, geo) < 2:
        raise ValueError("n_samples and geometry_samples must be >= 2")
    speed, rate = 1.4, 7.0
    perimeter = (geo - 1) * (speed / rate)
    if geo != n_samples:  # 0.2, not speed / rate: the two differ in float64
        rate = 1.4 * (n_samples - 1) / ((geo - 1) * 0.2)
    half = perimeter / 2.0
    w = half * _ASPECT_W / (_ASPECT_W + _ASPECT_H)
    h = half - w
    traj = TrajectoryConfig(
        waypoints=[[w, 0.0], [w, h], [0.0, h], [0.0, 0.0], [w, 0.0]],
        speed=speed, sample_rate=rate, jitter_sigma=jitter_sigma, seed=seed)
    radio = RadioConfig(bs_position=(0.35 * w, 0.42 * h, 10.0))
    scatterers = ScattererSet(
        points=[[-0.30 * w, 0.50 * h, 5.0],
                [0.50 * w, -0.45 * h, 4.0],
                [1.30 * w, 0.50 * h, 6.0],
                [0.50 * w, 1.45 * h, 5.0],
                [1.25 * w, -0.35 * h, 3.5],
                [-0.25 * w, 1.40 * h, 4.5]],
        gains=[0.5] * 6)
    return traj, radio, scatterers
