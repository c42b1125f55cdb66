"""Trajectory sampling and the geometric multipath channel generator."""

import cmath
import math

import numpy as np
import pytest

from chanchart import synthgen
from chanchart.metricspace import pseudo_distance
from chanchart.rng import SplitMix64
from chanchart.synthgen import (
    SPEED_OF_LIGHT,
    ChannelSet,
    RadioConfig,
    ScattererSet,
    TrajectoryConfig,
    channel_vector,
    generate_trajectory,
    loop_scenario,
    synthesize_channels,
)
from helpers import synthesize_oracle


# ---------------------------------------------------------------------------
# trajectories


def test_straight_segment_count_and_spacing():
    cfg = TrajectoryConfig(waypoints=[[0.0, 0.0], [10.0, 0.0]],
                           speed=1.0, sample_rate=2.0, jitter_sigma=0.0)
    track = generate_trajectory(cfg)
    assert track.shape == (21, 2)
    assert np.allclose(track[:, 1], 0.0)
    assert np.allclose(np.diff(track[:, 0]), 0.5)
    assert np.allclose(track[0], [0.0, 0.0]) and np.allclose(track[-1], [10.0, 0.0])


def test_corner_positions_hand_computed():
    cfg = TrajectoryConfig(waypoints=[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                           speed=0.4, sample_rate=1.0, jitter_sigma=0.0)
    track = generate_trajectory(cfg)
    expected = np.array([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0],
                         [1.0, 0.2], [1.0, 0.6], [1.0, 1.0]])
    assert track.shape == expected.shape
    assert np.allclose(track, expected, atol=1e-12)


def test_jitter_is_perpendicular_and_seeded():
    cfg = TrajectoryConfig(waypoints=[[0.0, 0.0], [10.0, 0.0]],
                           speed=1.0, sample_rate=2.0, jitter_sigma=0.3, seed=7)
    track = generate_trajectory(cfg)
    clean = generate_trajectory(
        TrajectoryConfig(waypoints=cfg.waypoints, speed=1.0, sample_rate=2.0,
                         jitter_sigma=0.0))
    # horizontal segment: jitter only moves points in y
    assert np.array_equal(track[:, 0], clean[:, 0])
    expected_y = 0.3 * SplitMix64(7).normals(track.shape[0])
    assert np.allclose(track[:, 1], expected_y, atol=1e-15)

    again = generate_trajectory(cfg)
    assert np.array_equal(track, again)
    other = generate_trajectory(
        TrajectoryConfig(waypoints=cfg.waypoints, speed=1.0, sample_rate=2.0,
                         jitter_sigma=0.3, seed=8))
    assert not np.array_equal(track, other)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(waypoints=[[0.0, 0.0]])
    with pytest.raises(ValueError):
        TrajectoryConfig(waypoints=[[0.0, 0.0], [1.0, 0.0]], speed=0.0)
    with pytest.raises(ValueError):
        TrajectoryConfig(waypoints=[[0.0, 0.0], [1.0, 0.0]], jitter_sigma=-0.1)
    with pytest.raises(ValueError):
        generate_trajectory(TrajectoryConfig(waypoints=[[1.0, 1.0], [1.0, 1.0]]))
    # more than 2^53 samples: a length that overflows, a step that underflows
    with pytest.raises(ValueError, match="2\\^53"):
        TrajectoryConfig(waypoints=[[0.0, 0.0], [1e308, 0.0], [-1e308, 0.0]])
    with pytest.raises(ValueError, match="2\\^53"):
        TrajectoryConfig(waypoints=[[0.0, 0.0], [1.0, 0.0]], speed=1e-300, sample_rate=1e300)
    with pytest.raises(ValueError, match="^n_samples and geometry_samples must be >= 2$"):
        loop_scenario(1)


def test_loop_scenario_sample_count_and_spacing():
    traj, radio, scat = loop_scenario(400, jitter_sigma=0.0)
    track = generate_trajectory(traj)
    assert track.shape == (400, 2)
    steps = np.linalg.norm(np.diff(track, axis=0), axis=1)
    assert np.all(steps < 0.2 + 1e-9)
    assert np.isclose(np.median(steps), 0.2, atol=1e-9)
    assert radio.m == 1024
    assert len(scat.points) == 6


@pytest.mark.parametrize("n, geo, rate", [(2000, 8865, 1.5786326714801442),
                                           (200, 2000, 0.6968484242121059)])
def test_sparse_loop_keeps_the_full_geometry(n, geo, rate):
    # the desk and tiny shapes: the loop sized for geo samples, walked with n
    dense, _, _ = loop_scenario(geo, seed=3, jitter_sigma=0.05)
    traj, radio, scat = loop_scenario(n, seed=3, jitter_sigma=0.05, geometry_samples=geo)
    assert traj == TrajectoryConfig(waypoints=dense.waypoints, speed=1.4,
                                    sample_rate=1.4 * (n - 1) / ((geo - 1) * 0.2),
                                    jitter_sigma=0.05, seed=3)
    assert traj.sample_rate == rate
    assert (radio, scat) == loop_scenario(geo)[1:]
    assert generate_trajectory(traj).shape == (n, 2)


def test_default_scenario_is_full_size():
    traj, radio, _ = loop_scenario(5910)
    track = generate_trajectory(traj)
    assert track.shape[0] == 5910
    assert radio.m == 1024


# ---------------------------------------------------------------------------
# radio geometry


def test_radio_derived_quantities():
    radio = RadioConfig()
    assert radio.n_antennas == 64 and radio.m == 1024
    assert math.isclose(radio.wavelength, SPEED_OF_LIGHT / 3.5e9)
    assert math.isclose(radio.antenna_spacing, radio.wavelength / 2.0)
    freqs = radio.subcarrier_frequencies()
    assert freqs.shape == (16,)
    assert math.isclose(freqs[0], 3.5e9 - 10e6)
    assert math.isclose(freqs[-1], 3.5e9 + 10e6)
    assert np.allclose(np.diff(freqs), 20e6 / 15)


def test_radio_single_subcarrier_and_grid_layout():
    radio = RadioConfig(n_rows=2, n_cols=3, n_subcarriers=1)
    assert np.array_equal(radio.subcarrier_frequencies(), [3.5e9])
    grid = radio.antenna_grid()
    d = radio.antenna_spacing
    expected = np.array([[0, 0, 0], [0, d, 0], [0, 2 * d, 0],
                         [d, 0, 0], [d, d, 0], [d, 2 * d, 0]])
    assert np.allclose(grid, expected)


def test_radio_validation():
    with pytest.raises(ValueError):
        RadioConfig(n_rows=0)
    with pytest.raises(ValueError):
        RadioConfig(f_c=-1.0)
    with pytest.raises(ValueError):
        RadioConfig(antenna_spacing=0.0)


# ---------------------------------------------------------------------------
# channel synthesis vs an explicit-loop oracle


def _oracle_channel(pos3, radio: RadioConfig, scatterers: ScattererSet):
    """Same propagation model, written as plain loops over antennas/subcarriers."""
    bs = np.asarray(radio.bs_position, dtype=np.float64)
    k0 = 2.0 * math.pi / radio.wavelength
    s_count = radio.n_subcarriers
    if s_count == 1:
        freqs = [radio.f_c]
    else:
        freqs = [radio.f_c - radio.bandwidth / 2.0 + s * radio.bandwidth / (s_count - 1)
                 for s in range(s_count)]

    paths = []
    los = pos3 - bs
    los_len = float(np.linalg.norm(los))
    paths.append((los / los_len, los_len, 1.0 / los_len))
    for point, gain in zip(scatterers.points, scatterers.gains):
        p = np.asarray(point, dtype=np.float64)
        d = p - bs
        d_len = float(np.linalg.norm(d))
        total = float(np.linalg.norm(pos3 - p)) + d_len
        paths.append((d / d_len, total, gain / total))

    out = np.zeros(radio.m, dtype=np.complex128)
    for na in range(radio.n_antennas):
        row, col = divmod(na, radio.n_cols)
        offset = np.array([row * radio.antenna_spacing,
                           col * radio.antenna_spacing, 0.0])
        for s, f in enumerate(freqs):
            val = 0.0 + 0.0j
            for unit, length, amp in paths:
                spatial = cmath.exp(1j * k0 * float(np.dot(unit, offset)))
                delay = cmath.exp(-2j * math.pi * f * length / SPEED_OF_LIGHT)
                val += amp * spatial * delay
            out[na * s_count + s] = val
    return out


def test_channel_vector_matches_loop_oracle():
    radio = RadioConfig(n_rows=2, n_cols=2, n_subcarriers=3,
                        bs_position=(1.0, 2.0, 10.0))
    scat = ScattererSet(points=[[-5.0, 3.0, 4.0], [12.0, -6.0, 2.0]],
                        gains=[0.5, 0.3])
    rng = SplitMix64(11)
    for _ in range(10):
        pos = np.array([20.0 * rng.uniform() - 5.0,
                        20.0 * rng.uniform() - 5.0, 0.0])
        got = channel_vector(pos, radio, scat)
        want = _oracle_channel(pos, radio, scat)
        assert got.shape == (radio.m,)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_channel_vector_accepts_2d_position():
    radio = RadioConfig(n_rows=2, n_cols=2, n_subcarriers=2,
                        bs_position=(0.0, 0.0, 10.0))
    scat = ScattererSet(points=[[5.0, 5.0, 3.0]], gains=[0.4])
    a = channel_vector([3.0, 4.0], radio, scat)
    b = channel_vector([3.0, 4.0, 0.0], radio, scat)
    assert np.array_equal(a, b)


def test_synthesize_channels_matches_per_row_route(monkeypatch):
    monkeypatch.setattr(synthgen, "SYNTH_ROWS", 4)
    radio = RadioConfig(n_rows=2, n_cols=2, n_subcarriers=4,
                        bs_position=(2.0, 2.0, 8.0))
    scat = ScattererSet(points=[[10.0, -3.0, 5.0]], gains=[0.6])
    track = np.stack([np.linspace(0.0, 5.0, 10), np.linspace(1.0, 3.0, 10)], axis=1)
    cs = synthesize_channels(track, radio, scat, sample_rate=2.0)
    assert cs.channels.shape == (10, radio.m)
    assert np.array_equal(cs.positions, track)
    assert cs.sample_rate == 2.0
    for i in range(10):
        row = channel_vector(track[i], radio, scat)
        # batched and single-row matmuls may differ by an ulp
        assert np.max(np.abs(cs.channels[i] - row)) < 1e-14


@pytest.mark.parametrize("block", [1, 7, 512])
def test_synthesize_channels_is_byte_identical_to_allocating_oracle(monkeypatch, block):
    # full-size radio and the stock scatterers; 600 rows are no multiple of the block
    monkeypatch.setattr(synthgen, "SYNTH_ROWS", block)
    traj, radio, scat = loop_scenario(600, seed=4)
    track = generate_trajectory(traj)
    got = synthesize_channels(track, radio, scat).channels
    assert got.tobytes() == synthesize_oracle(track, radio, scat, block).tobytes()


def test_trajectory_n_samples_is_the_generated_count():
    for waypoints, speed, rate in (([[0.0, 0.0], [10.0, 0.0]], 1.0, 1.0),
                                   ([[0.0, 0.0], [3.0, 4.0], [3.0, 0.0]], 1.4, 7.0),
                                   ([[0.0, 0.0], [1.5, 0.0]], 1.0, 1.0)):
        cfg = TrajectoryConfig(waypoints=waypoints, speed=speed, sample_rate=rate)
        assert cfg.n_samples == generate_trajectory(cfg).shape[0]
    # a path shorter than one step would give a single sample
    with pytest.raises(ValueError, match="gives 1 sample, fewer than 2"):
        TrajectoryConfig(waypoints=[[0.0, 0.0], [0.5, 0.0]], speed=1.0, sample_rate=1.0)


def test_channels_vary_smoothly_with_position():
    traj, radio, scat = loop_scenario(200, jitter_sigma=0.0)
    # sub-wavelength steps: the channel barely changes
    micro = np.stack([np.linspace(10.0, 10.02, 11), np.full(11, 5.0)], axis=1)
    cs = synthesize_channels(micro, radio, scat)
    for i in range(10):
        assert pseudo_distance(cs.channels[i], cs.channels[i + 1]) < 0.1
    # along the loop, nearby samples stay closer than far-apart ones on average
    track = generate_trajectory(traj)
    cs = synthesize_channels(track, radio, scat)
    adjacent = [pseudo_distance(cs.channels[i], cs.channels[i + 1])
                for i in range(0, 180, 10)]
    distant = [pseudo_distance(cs.channels[i], cs.channels[i + 100])
               for i in range(0, 100, 10)]
    assert float(np.mean(adjacent)) < 0.75 * float(np.mean(distant))


def test_degenerate_geometry_is_rejected():
    radio = RadioConfig(n_rows=2, n_cols=2, n_subcarriers=2,
                        bs_position=(0.0, 0.0, 0.0))
    scat = ScattererSet(points=[[5.0, 5.0, 0.0]], gains=[0.5])
    with pytest.raises(ValueError, match="sample 1"):
        synthesize_channels(np.array([[1.0, 1.0], [0.0, 0.0]]), radio, scat)
    with pytest.raises(ValueError, match="sample 1"):
        synthesize_channels(np.array([[1.0, 1.0], [5.0, 5.0]]), radio, scat)
    bs_scat = ScattererSet(points=[[0.0, 0.0, 0.0]], gains=[0.5])
    with pytest.raises(ValueError, match="base station"):
        synthesize_channels(np.array([[1.0, 1.0]]), radio, bs_scat)


def test_scatterer_and_channelset_validation():
    with pytest.raises(ValueError):
        ScattererSet(points=[[0.0, 0.0, 1.0]], gains=[])
    with pytest.raises(ValueError):
        ScattererSet(points=[[0.0, 0.0, 1.0]], gains=[1.5])
    with pytest.raises(ValueError):
        ScattererSet(points=[[0.0, 0.0, 1.0]], gains=[0.0])
    with pytest.raises(ValueError):
        ChannelSet(channels=np.zeros((3, 4), dtype=np.complex128),
                   positions=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        synthesize_channels(np.zeros((0, 2)), RadioConfig(), ScattererSet())
