"""Hybrid sparse-correlation encoder and the MLP baseline."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chanchart.config import preset
from chanchart.encoder import (
    CHART_ROWS,
    EncoderParams,
    MlpParams,
    _top_k_mask,
    backward_batch,
    chart_batch,
    count_params,
    forward_batch,
    init_random,
    init_smart,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
)
from chanchart.fileio import RowReader, write_dataset_blocks
from chanchart.rng import SplitMix64
from chanchart.synthgen import ChannelSet, generate_trajectory, synthesize_channels
from chanchart.trainer import train
from helpers import (
    LEDGER,
    FunctionEncoder,
    argsort_top_k_mask,
    backward_oracle,
    central_difference,
    fingerprint,
    forward_oracle,
    full_row_backward_batch,
    hard_threshold,
    mlp_backward_oracle,
    mlp_forward_oracle,
    relative_error,
)


def _random_params(seed: int, m: int, n_init: int, k: int, d_out: int = 2) -> EncoderParams:
    rng = SplitMix64(seed)
    return EncoderParams(
        d_re=rng.normals(m * n_init).reshape(m, n_init),
        d_im=rng.normals(m * n_init).reshape(m, n_init),
        z=rng.normals(d_out * n_init).reshape(d_out, n_init),
        k=k)


def _random_channels(seed: int, n: int, m: int) -> np.ndarray:
    rng = SplitMix64(seed)
    return (rng.normals(n * m) + 1j * rng.normals(n * m)).reshape(n, m)


# ---------------------------------------------------------------------------
# hard threshold


def test_hard_threshold_basic():
    v = np.array([3.0, 1.0, 3.0, 2.0])
    out, kept = hard_threshold(v, 1)
    assert kept.tolist() == [0]  # tie 3 vs 3 resolved toward lower index
    assert out.tolist() == [3.0, 0.0, 0.0, 0.0]
    out, kept = hard_threshold(v, 2)
    assert kept.tolist() == [0, 2]
    out, kept = hard_threshold(v, 3)
    assert kept.tolist() == [0, 2, 3]
    out, kept = hard_threshold(v, 4)
    assert kept.tolist() == [0, 1, 2, 3]
    assert np.array_equal(out, v)
    out, kept = hard_threshold(v, 99)  # k beyond length keeps everything
    assert kept.tolist() == [0, 1, 2, 3]


def test_hard_threshold_rejects_bad_k():
    with pytest.raises(ValueError):
        hard_threshold(np.array([1.0]), 0)


def test_top_k_mask_is_the_stable_argsort_top_k():
    n_init = 12
    rng = SplitMix64(7)
    for trial in range(20):
        # three levels force ties; row 0 is all NaN, row 1 part NaN, row 2 zero
        b = np.floor(rng.uniforms(9 * n_init) * 3.0).reshape(9, n_init)
        b[0] = np.nan
        b[1, rng.sample(n_init, 1 + trial % (n_init - 1))] = np.nan
        b[2] = 0.0
        for k in (1, n_init - 1, n_init):
            want = argsort_top_k_mask(b, k)
            assert np.array_equal(_top_k_mask(b, k), want)
            for row, mask in zip(b, want):
                out, kept = hard_threshold(row, k)
                assert np.array_equal(kept, np.flatnonzero(mask))
                assert np.array_equal(out, np.where(mask, row, 0.0), equal_nan=True)


# ---------------------------------------------------------------------------
# hybrid forward


def test_forward_hand_case_k1():
    # orthonormal real dictionary, so correlations are just |h| entries
    p = EncoderParams(d_re=np.eye(2), d_im=np.zeros((2, 2)),
                      z=np.array([[3.0, 5.0], [4.0, 6.0]]), k=1)
    h = np.array([2.0 + 0.0j, 1.0 + 1.0j])
    z, cache = forward_batch(p, h[None, :])
    # moduli are [2, sqrt(2)]; k=1 keeps index 0; d = [1, 0]; z = Z[:, 0]
    assert np.array_equal(cache.b[0], [2.0, math.sqrt(2.0)])
    assert cache.kept_mask[0].tolist() == [True, False]
    assert cache.s[0] == 2.0
    assert z[0].tolist() == [3.0, 4.0]


def test_forward_hand_case_k2():
    p = EncoderParams(d_re=np.eye(2), d_im=np.zeros((2, 2)),
                      z=np.array([[3.0, 5.0], [4.0, 6.0]]), k=2)
    h = np.array([2.0 + 0.0j, 1.0 + 1.0j])
    (z,), cache = forward_batch(p, h[None, :])
    s = 2.0 + math.sqrt(2.0)
    d0, d1 = 2.0 / s, math.sqrt(2.0) / s
    assert abs(z[0] - (3.0 * d0 + 5.0 * d1)) < 1e-15
    assert abs(z[1] - (4.0 * d0 + 6.0 * d1)) < 1e-15
    assert abs(cache.d[0].sum() - 1.0) < 1e-15  # L1-normalized sparse code


def test_forward_weights_sum_to_one():
    p = _random_params(3, 12, 8, 4)
    rng = SplitMix64(77)
    for _ in range(20):
        h = rng.normals(12) + 1j * rng.normals(12)
        _, cache = forward_batch(p, h[None, :])
        assert np.count_nonzero(cache.kept_mask[0]) == 4
        assert abs(cache.d[0].sum() - 1.0) < 1e-12
        assert np.all(cache.d[0] >= 0.0)


def test_forward_scale_phase_invariance_continuous():
    p = _random_params(11, 16, 10, 5)
    rng = SplitMix64(12)
    for _ in range(50):
        h = rng.normals(16) + 1j * rng.normals(16)
        alpha = rng.uniform() * 4.0 + 0.1
        phi = rng.uniform() * 2.0 * math.pi
        z0, _ = forward_batch(p, h[None, :])
        z1, _ = forward_batch(p, (alpha * np.exp(1j * phi) * h)[None, :])
        assert relative_error(z0, z1) < 1e-12


def test_forward_scale_phase_invariance_bitwise():
    # power-of-two amplitudes and quarter-turn phases pass through the
    # real-arithmetic correlation without any rounding at all
    p = _random_params(21, 16, 10, 5)
    rng = SplitMix64(22)
    units = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]
    for trial in range(50):
        h = rng.normals(16) + 1j * rng.normals(16)
        alpha = 2.0 ** (int(rng.randbelow(13)) - 6)
        unit = units[int(rng.randbelow(4))]
        z0, _ = forward_batch(p, h[None, :])
        z1, _ = forward_batch(p, (alpha * unit * h)[None, :])
        assert np.array_equal(z0, z1)


def test_forward_batch_matches_scalar():
    p = _random_params(31, 14, 9, 4)
    channels = _random_channels(32, 20, 14)
    z_batch, cache = forward_batch(p, channels)
    assert cache.ok.all()
    for i in range(20):
        z_i, _ = forward_oracle(p, channels[i])
        assert relative_error(z_batch[i], z_i) < 1e-13


def test_forward_batch_flags_degenerate_rows():
    p = EncoderParams(d_re=np.array([[1.0, 2.0], [0.0, 0.0]]),
                      d_im=np.zeros((2, 2)), z=np.ones((2, 2)), k=1)
    channels = np.array([[1.0 + 0.0j, 0.0], [0.0 + 0.0j, 5.0], [2.0 + 1.0j, 0.0]])
    z, cache = forward_batch(p, channels)
    assert cache.ok.tolist() == [True, False, True]
    assert np.array_equal(z[1], [0.0, 0.0])


def test_forward_batch_bitwise_invariance():
    p = _random_params(41, 16, 10, 5)
    channels = _random_channels(42, 12, 16)
    z0, _ = forward_batch(p, channels)
    for alpha, unit in [(0.25, 1.0), (8.0, 1.0j), (1.0, -1.0), (0.5, -1.0j)]:
        z1, _ = forward_batch(p, alpha * unit * channels)
        assert np.array_equal(z0, z1)


# ---------------------------------------------------------------------------
# hybrid gradients


def test_backward_matches_finite_differences():
    for seed in range(10):
        m, n_init, k = 6 + seed % 4, 5, 2
        p = _random_params(seed, m, n_init, k)
        rng = SplitMix64(seed + 1000)
        h = rng.normals(m) + 1j * rng.normals(m)
        g = rng.normals(2)
        _, cache = forward_batch(p, h[None, :])
        gd_re, gd_im, gz = backward_batch(p, cache, g[None, :])

        def loss(d_re=None, d_im=None, z=None):
            q = EncoderParams(d_re=p.d_re if d_re is None else d_re,
                              d_im=p.d_im if d_im is None else d_im,
                              z=p.z if z is None else z, k=p.k)
            out, _ = forward_batch(q, h[None, :])
            return float(np.dot(g, out[0]))

        fd_re = central_difference(lambda a: loss(d_re=a), p.d_re.copy())
        fd_im = central_difference(lambda a: loss(d_im=a), p.d_im.copy())
        fd_z = central_difference(lambda a: loss(z=a), p.z.copy())
        assert relative_error(gd_re, fd_re) < 1e-6
        assert relative_error(gd_im, fd_im) < 1e-6
        assert relative_error(gz, fd_z) < 1e-6


def test_backward_batch_matches_scalar_sum():
    p = _random_params(51, 10, 7, 3)
    channels = _random_channels(52, 6, 10)
    gz = SplitMix64(53).normals(12).reshape(6, 2)
    _, cache = forward_batch(p, channels)
    b_re, b_im, b_z = backward_batch(p, cache, gz)
    s_re = np.zeros_like(b_re)
    s_im = np.zeros_like(b_im)
    s_z = np.zeros_like(b_z)
    for i in range(6):
        _, c_i = forward_oracle(p, channels[i])
        g_re, g_im, g_z = backward_oracle(p, c_i, channels[i], gz[i])
        s_re += g_re
        s_im += g_im
        s_z += g_z
    assert relative_error(b_re, s_re) < 1e-12
    assert relative_error(b_im, s_im) < 1e-12
    assert relative_error(b_z, s_z) < 1e-12


def test_backward_batch_ignores_degenerate_rows():
    p = EncoderParams(d_re=np.array([[1.0, 2.0], [0.0, 0.0]]),
                      d_im=np.zeros((2, 2)), z=np.eye(2), k=1)
    channels = np.array([[1.0 + 0.0j, 0.0], [0.0 + 0.0j, 5.0]])
    gz = np.ones((2, 2))
    _, cache = forward_batch(p, channels)
    g_re, g_im, g_z = backward_batch(p, cache, gz)
    # only row 0 contributes; row 1 is degenerate
    _, c0 = forward_oracle(p, channels[0])
    e_re, e_im, e_z = backward_oracle(p, c0, channels[0], gz[0])
    assert np.allclose(g_re, e_re, atol=1e-15)
    assert np.allclose(g_im, e_im, atol=1e-15)
    assert np.allclose(g_z, e_z, atol=1e-15)


def test_backward_batch_masks_non_finite_rows():
    p = _random_params(54, 10, 7, 3)
    gz = SplitMix64(55).normals(8).reshape(4, 2)
    grads = []
    for bad in (np.nan, 0.0):
        channels = _random_channels(56, 4, 10)
        channels[2] = bad
        _, cache = forward_batch(p, channels)
        assert cache.ok.tolist() == [True, True, False, True]
        grads.append(backward_batch(p, cache, gz))
    for g_nan, g_zero in zip(*grads):
        assert np.isfinite(g_nan).all()
        assert np.array_equal(g_nan, g_zero)


@pytest.mark.parametrize("case", ["some gz rows zero", "degenerate rows", "nan rows",
                                  "every row live", "no row live", "no row ok"])
def test_backward_batch_is_bitwise_the_full_row_oracle(case):
    n = 24
    p = _random_params(57, 10, 7, 3)
    channels = _random_channels(58, n, 10)
    gz = SplitMix64(59).normals(2 * n).reshape(n, 2)
    if case == "some gz rows zero":
        gz[::3] = 0.0
        gz[1, 0] = 0.0  # half a row zero keeps the row live
    elif case == "degenerate rows":
        channels[[2, 7, 8]] = 0.0
    elif case == "nan rows":
        channels[[0, 5]] = np.nan
        channels[11, 3] = np.nan
        gz[4] = 0.0
    elif case == "no row live":
        gz[:] = 0.0
    elif case == "no row ok":
        channels[:] = 0.0
    _, cache = forward_batch(p, channels)
    assert cache.ok.any() == (case != "no row ok")
    got = backward_batch(p, cache, gz)
    want = full_row_backward_batch(p, cache, gz)
    for g, w in zip(got, want):
        assert np.isfinite(g).all()
        assert np.array_equal(g, w)
    # written in place, over stale values: with no live row the dictionary
    # products have an empty inner dimension and must still write zeros; the
    # d_re and d_im gradients are views of the stacked one, whose pad is zero
    out = [np.full(a.shape, np.nan) for a in p.arrays()]
    in_place = backward_batch(p, cache, gz, out)
    assert in_place[0].base is out[0] and in_place[1].base is out[0]
    assert in_place[2] is out[1]
    assert np.array_equal(out[0][:, 2 * p.n_init:], np.zeros((10, 2)))
    for g, w in zip(in_place, want):
        assert np.array_equal(g, w)


def test_backward_batch_over_selected_rows_is_bitwise_the_gathered_copy():
    # an indexed cache gathers its live rows through the index
    p = _random_params(60, 10, 7, 3)
    channels = _random_channels(61, 30, 10)
    channels[[4, 9]] = 0.0
    index = np.array([9, 3, 27, 3, 4, 12, 0, 21, 16, 8])
    gz = SplitMix64(62).normals(2 * index.size).reshape(index.size, 2)
    gz[[1, 6]] = 0.0
    z_idx, cache = forward_batch(p, channels, index)
    z_copy, copy_cache = forward_batch(p, channels[index])
    assert np.array_equal(z_idx, z_copy) and cache.ok.tolist().count(False) == 2
    for got, want in zip(backward_batch(p, cache, gz),
                         full_row_backward_batch(p, copy_cache, gz)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("selected", [False, True])
def test_batch_cache_holds_no_plane_of_the_channels(selected):
    # the cache refers to the caller's channels; no (rows, M) array is its own
    m, n_init = 10, 7
    p = _random_params(63, m, n_init, 3)
    channels = _random_channels(64, 12, m)
    index = np.arange(12)[::-1] if selected else None
    _, cache = forward_batch(p, channels, index)
    assert cache.channels is channels
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        if f.name != "channels" and isinstance(value, np.ndarray):
            assert value.shape[-1] != m, f.name


def test_hybrid_chart_block_holds_one_real_plane():
    # 1,024 rows of M = 1,024 channels: the forward frees the real plane
    # before it gathers the imaginary one, where both planes were held
    n = m = 1024
    channels = _random_channels(65, n, m)
    model = _random_params(66, m, 16, 5)
    plane = n * m * 8
    for index in (None, np.arange(n)[::-1].copy()):
        tracemalloc.start()
        try:
            z, ok = chart_batch(model, channels, index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (n, 2) and ok.all()
        assert peak < 1.25 * plane, peak / plane


# ---------------------------------------------------------------------------
# initializers


def _toy_channelset(seed: int, n: int, m: int) -> ChannelSet:
    channels = _random_channels(seed, n, m)
    positions = SplitMix64(seed + 1).normals(n * 2).reshape(n, 2)
    return ChannelSet(channels=channels, positions=positions, sample_rate=7.0)


def test_init_smart_dictionary_is_channel_subset():
    cs = _toy_channelset(61, 40, 8)
    p = init_smart(cs, 10, 3, 5, 2, seed=7)
    assert p.m == 8 and p.n_init == 10 and p.d_out == 2 and p.k == 5
    cols = p.d_re.T + 1j * p.d_im.T
    rows = {cs.channels[i].tobytes() for i in range(40)}
    for c in range(10):
        assert cols[c].tobytes() in rows
    # anchors are a centered embedding
    assert np.abs(p.z.mean(axis=1)).max() < 1e-9


def test_init_smart_deterministic_and_seed_sensitive():
    cs = _toy_channelset(62, 30, 6)
    a = init_smart(cs, 8, 3, 4, 2, seed=5)
    b = init_smart(cs, 8, 3, 4, 2, seed=5)
    c = init_smart(cs, 8, 3, 4, 2, seed=6)
    assert np.array_equal(a.d_re, b.d_re) and np.array_equal(a.z, b.z)
    assert not np.array_equal(a.d_re, c.d_re)


def test_init_smart_rejects_oversized_subset():
    cs = _toy_channelset(63, 5, 4)
    with pytest.raises(ValueError):
        init_smart(cs, 6, 2, 2, 2, seed=0)


def test_params_reject_shapes_that_do_not_fit():
    d, z = np.zeros((4, 3)), np.zeros((2, 3))
    for kw, match in ((dict(d_im=np.zeros((4, 2))), "^d_re and d_im shapes differ$"),
                      (dict(z=np.zeros((2, 4))),
                       "^z column count must match dictionary column count$"),
                      (dict(k=0), r"^k must be in \[1, n_init\]$"),
                      (dict(k=4), r"^k must be in \[1, n_init\]$")):
        with pytest.raises(ValueError, match=match):
            EncoderParams(**{"d_re": d, "d_im": d, "z": z, "k": 1, **kw})
    with pytest.raises(ValueError, match="^layer dimensions do not chain$"):
        MlpParams(weights=[np.zeros((5, 8)), np.zeros((2, 4))])


def test_init_random_bounds_and_determinism():
    p = init_random(16, 10, 5, 2, seed=9)
    q = init_random(16, 10, 5, 2, seed=9)
    assert np.array_equal(p.d_re, q.d_re)
    assert np.array_equal(p.z, q.z)
    bound_d = math.sqrt(6.0 / (16 + 10))
    bound_z = math.sqrt(6.0 / (10 + 2))
    assert np.abs(p.d_re).max() <= bound_d and np.abs(p.d_im).max() <= bound_d
    assert np.abs(p.z).max() <= bound_z
    # columns are not all equal: the draw actually varies
    assert p.d_re.std() > 0.1 * bound_d


# ---------------------------------------------------------------------------
# MLP baseline


def test_mlp_forward_hand_case():
    w = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    p = MlpParams(weights=[w])
    z, _, _ = mlp_forward_batch(p, np.array([[3.0 + 0.0j, 0.0 + 4.0j]]))
    # input stack [3,0,0,4] normalizes to [.6,0,0,.8]
    assert np.array_equal(z[0], [0.6, 0.8])


def test_mlp_forward_scale_invariant_only():
    p = mlp_init(8, seed=3, hidden=(6, 4))
    rng = SplitMix64(4)
    h = (rng.normals(8) + 1j * rng.normals(8))[None, :]
    z0, _, _ = mlp_forward_batch(p, h)
    z1, _, _ = mlp_forward_batch(p, 3.7 * h)  # positive scaling is removed by the norm
    assert relative_error(z0, z1) < 1e-12
    z2, _, _ = mlp_forward_batch(p, h * np.exp(0.7j))  # but phase is not
    assert relative_error(z0, z2) > 1e-6


def test_mlp_backward_matches_finite_differences():
    for seed in range(5):
        m = 5 + seed
        p = mlp_init(m, seed=seed, hidden=(7, 4))
        rng = SplitMix64(seed + 50)
        h = (rng.normals(m) + 1j * rng.normals(m))[None, :]
        g = rng.normals(2)
        _, acts, _ = mlp_forward_batch(p, h)
        grads = mlp_backward_batch(p, acts, g[None, :], np.ones(1, dtype=bool))
        for layer in range(len(p.weights)):
            def loss(w, layer=layer):
                weights = [x.copy() for x in p.weights]
                weights[layer] = w
                out, _, _ = mlp_forward_batch(MlpParams(weights=weights), h)
                return float(np.dot(g, out[0]))
            fd = central_difference(loss, p.weights[layer].copy())
            assert relative_error(grads[layer], fd) < 1e-6


def test_mlp_batch_matches_scalar():
    p = mlp_init(6, seed=8, hidden=(5, 3))
    channels = _random_channels(9, 10, 6)
    z_batch, acts, ok = mlp_forward_batch(p, channels)
    assert ok.all()
    for i in range(10):
        z_i, _ = mlp_forward_oracle(p, channels[i])
        assert relative_error(z_batch[i], z_i) < 1e-13
    gz = SplitMix64(10).normals(20).reshape(10, 2)
    batch_grads = mlp_backward_batch(p, acts, gz, ok)
    sums = [np.zeros_like(w) for w in p.weights]
    for i in range(10):
        _, a_i = mlp_forward_oracle(p, channels[i])
        for layer, g in enumerate(mlp_backward_oracle(p, a_i, gz[i])):
            sums[layer] += g
    for layer in range(len(p.weights)):
        assert relative_error(batch_grads[layer], sums[layer]) < 1e-12


@pytest.mark.parametrize("case", ["every row live", "no row live", "degenerate rows",
                                  "nan rows"])
def test_mlp_backward_batch_writes_into_out(case):
    p = mlp_init(6, seed=11, hidden=(5, 3))
    channels = _random_channels(12, 8, 6)
    gz = SplitMix64(13).normals(16).reshape(8, 2)
    if case == "no row live":
        gz[:] = 0.0
    elif case == "degenerate rows":
        channels[:] = 0.0
    elif case == "nan rows":
        channels[[1, 6]] = np.nan
    _, acts, ok = mlp_forward_batch(p, channels)
    assert ok.all() == (case in ("every row live", "no row live"))
    want = mlp_backward_batch(p, acts, gz, ok)
    out = [np.full(w.shape, np.nan) for w in p.weights]
    got = mlp_backward_batch(p, acts, gz, ok, out)
    assert got is out
    for g, w in zip(got, want):
        assert np.isfinite(g).all()
        assert np.array_equal(g, w)
    if case in ("no row live", "degenerate rows"):
        assert not any(g.any() for g in got)


def test_mlp_batch_flags_zero_rows():
    p = mlp_init(4, seed=1, hidden=(3,))
    channels = _random_channels(2, 3, 4)
    channels[1] = 0.0
    z, _, ok = mlp_forward_batch(p, channels)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(z[1], [0.0, 0.0])


# ---------------------------------------------------------------------------
# parameter counting


def test_param_counts():
    # hybrid: complex dictionary (two real arrays) plus real anchors
    for m, n_init, d_out in ((1024, 100, 2), (1024, 200, 2), (12, 7, 3)):
        q = init_random(m, n_init, 3, d_out, seed=0)
        assert count_params(q) == 2 * m * n_init + d_out * n_init
    # bias-free dense stacks, the full-width one over (2048, 1024, ..., 64, 2)
    assert count_params(mlp_init(1024, seed=0)) == 2793600
    assert count_params(mlp_init(6, seed=0, hidden=(5, 4), d_out=3)) == 12 * 5 + 5 * 4 + 4 * 3


def test_chart_batch_dispatch():
    channels = _random_channels(71, 5, 6)
    hybrid = _random_params(72, 6, 4, 2)
    z, ok = chart_batch(hybrid, channels)
    assert z.shape == (5, 2) and ok.all()
    mlp = mlp_init(6, seed=73, hidden=(4,))
    z, ok = chart_batch(mlp, channels)
    assert z.shape == (5, 2) and ok.all()
    z, ok = chart_batch(FunctionEncoder(lambda c: np.ones((c.shape[0], 2))), channels)
    assert np.array_equal(z, np.ones((5, 2)))


@pytest.mark.parametrize("kind", ["hybrid", "mlp"])
def test_chart_batch_flags_rows_with_a_non_finite_entry(kind):
    # rows: finite, one inf entry (imaginary part), one NaN entry (real
    # part), all zero, row 0 times 2^600 (finite entries, but a sum of squares
    # past ENERGY_BOUND), and a finite row times 2^200; rows 1-4 are
    # degenerate and chart to zero, with no warning, and the finite rows keep
    # every bit, the last one that of its unscaled self
    model = {"hybrid": _random_params(88, 6, 5, 2),
             "mlp": mlp_init(6, seed=89, hidden=(7, 3))}[kind]
    channels = _random_channels(90, 6, 6)
    channels[1, 2] = complex(0.5, np.inf)
    channels[2, 4] = complex(np.nan, 0.5)
    channels[3] = 0.0
    channels[4] = channels[0] * 2.0 ** 600
    clean = channels.copy()
    channels[5] *= 2.0 ** 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, ok = chart_batch(model, channels)
    assert ok.tolist() == [True, False, False, False, False, True]
    assert np.array_equal(z[1:5], np.zeros((4, 2)))
    clean[1:5] = 0.0
    assert np.array_equal(z[[0, 5]], chart_batch(model, clean)[0][[0, 5]])


def _blockwise(model, channels):
    """(z, ok) of the encoder's own batched forward, one CHART_ROWS block at a time."""
    zs, oks = [], []
    for lo in range(0, channels.shape[0], CHART_ROWS):
        block = channels[lo:lo + CHART_ROWS]
        if isinstance(model, EncoderParams):
            z, cache = forward_batch(model, block)
            ok = cache.ok
        elif isinstance(model, MlpParams):
            z, _, ok = mlp_forward_batch(model, block)
        else:
            z, ok = model.fn(block), np.ones(block.shape[0], dtype=bool)
        zs.append(z)
        oks.append(ok)
    return np.concatenate(zs), np.concatenate(oks)


def _scaled_sum(block):
    return np.stack([block.real.sum(axis=1), 2.0 * block.imag.sum(axis=1)], axis=1)


@pytest.mark.parametrize("kind", ["hybrid", "mlp", "callable"])
@pytest.mark.parametrize("n", [0, 1, 7, 9, CHART_ROWS + 3, 4 * CHART_ROWS, 4 * CHART_ROWS + 1])
def test_chart_batch_blocks_equal_blockwise_forward(kind, n):
    model = {"hybrid": _random_params(81, 6, 5, 2),
             "mlp": mlp_init(6, seed=82, hidden=(7, 3)),
             "callable": FunctionEncoder(_scaled_sum)}[kind]
    last = 4 * CHART_ROWS  # the one row of a short last block
    channels = _random_channels(83, last + 1, 6)
    channels[last] = 0.0  # degenerate for both encoders
    channels = channels[:n]
    z, ok = chart_batch(model, channels)
    assert z.shape == (n, 2) and ok.shape == (n,) and ok.dtype == bool
    if n == 0:
        return
    want_z, want_ok = _blockwise(model, channels)
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(z, want_z)
    if n > last and kind != "callable":
        assert not ok[last] and np.array_equal(z[last], [0.0, 0.0])
    # charting selected rows equals charting their gathered copy
    index = np.arange(n)[::-1]
    z_idx, ok_idx = chart_batch(model, channels, index)
    want_z, want_ok = chart_batch(model, channels[index])
    assert np.array_equal(z_idx, want_z) and np.array_equal(ok_idx, want_ok)


def test_indexed_chart_batch_gathers_no_complex_block():
    # the hybrid gathers selected rows straight into its real and imaginary
    # planes, so charting selected rows holds less than one complex block
    n, m = 4 * CHART_ROWS + 7, 128
    channels = _random_channels(86, n, m)
    model = _random_params(87, m, 8, 3)
    index = np.arange(n)[::-1].copy()
    tracemalloc.start()
    try:
        chart_batch(model, channels, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHART_ROWS * m * 16, peak / (CHART_ROWS * m * 16)


class _CountingReader:
    """A RowReader that records the size of every read."""

    def __init__(self, reader):
        self.reader, self.shape, self.reads = reader, reader.shape, []

    def __getitem__(self, index):
        self.reads.append(len(index))
        return self.reader[index]


@pytest.mark.parametrize("n", [1, 7, CHART_ROWS, 300])
def test_reader_block_is_read_once(tmp_path, n):
    # forward_rows reads a block's rows from the file once and keeps them
    # for the backward, which reads nothing; z, ok and the gradients equal
    # the in-memory array's
    m, path = 6, str(tmp_path / "data.ccd")
    channels = _random_channels(93, n + 10, m)
    index = np.arange(n + 10)[::-1][:n].copy()
    if n > 1:
        channels[index[n // 2]] = 0.0  # one degenerate row, which is not live
    write_dataset_blocks(path, np.zeros((n + 10, 2)), m, [channels])
    model = _random_params(94, m, 5, 2)
    gz = SplitMix64(95).normals(2 * n).reshape(n, 2)
    want_z, want_ok, want_cache = model.forward_rows(channels, index)
    with RowReader(path) as reader:
        counting = _CountingReader(reader)
        z, ok, cache = model.forward_rows(counting, index)
        assert counting.reads == [n]
        grads = model.backward_rows(cache, gz)
        assert counting.reads == [n]
    assert np.array_equal(z, want_z) and np.array_equal(ok, want_ok)
    assert ok.tolist().count(False) == (n > 1)
    for got, want in zip(grads, model.backward_rows(want_cache, gz)):
        assert np.array_equal(got, want)


def test_chart_batch_over_a_row_reader_peaks_below_20_mb(tmp_path):
    # the default scenario's M = 1,024 with 200 atoms.  1,024 rows read at
    # once are 16.8 MB, and their real plane 8.4 MB more; read and
    # multiplied CHART_ROWS rows at a time, the peak stays below 20 MB
    n, m, path = 1100, 1024, str(tmp_path / "data.ccd")
    write_dataset_blocks(path, np.zeros((n, 2)), m,
                         (_random_channels(96 + lo, min(256, n - lo), m)
                          for lo in range(0, n, 256)))
    model = _random_params(97, m, 200, 10)
    with RowReader(path) as reader:
        tracemalloc.start()
        try:
            z, ok = chart_batch(model, reader)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert z.shape == (n, 2) and ok.all()
    assert peak < 20e6, peak / 1e6


def test_chart_batch_memory_stays_below_one_real_plane():
    # the unblocked forward held two full real planes of the channels
    n, m = 4 * CHART_ROWS + 7, 128
    channels = _random_channels(84, n, m)
    model = _random_params(85, m, 8, 3)
    tracemalloc.start()
    try:
        z, ok = chart_batch(model, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.shape == (n, 2) and ok.all()
    assert peak < n * m * 8


def test_a_hybrid_row_charts_to_the_same_bits_in_any_block():
    # desk root 1: 2,000 rows of M = 1,024 channels and a smart init of 100
    # atoms, before and after one training epoch.  A row's z and ok are the
    # same alone, in blocks of any size, in a gathered chart and in one
    # block of every row.  Like the byte ledger, the bits hold on the
    # ledger's fingerprint
    with open(LEDGER, encoding="utf-8") as f:
        ledger = json.load(f)["fingerprint"]
    if ledger != fingerprint():
        pytest.skip(f"ledger written with {ledger}, this machine is {fingerprint()}")
    cfg = preset("desk").with_seed_root(1)
    traj, radio, scat, _ = cfg.scenario_objects()
    cs = synthesize_channels(generate_trajectory(traj), radio, scat,
                             sample_rate=traj.sample_rate)
    e = cfg.encoder
    model = init_smart(cs, e.n_init, e.k_iso, e.k, e.d_out, cfg.seeds["init"])
    h, n = cs.channels, cs.channels.shape[0]
    assert h.shape == (2000, 1024) and model.n_init == 100
    order = SplitMix64(98).sample(n, n)
    for epochs in (0, 1):
        if epochs:
            train(model, cs, dataclasses.replace(cfg.train_config(), epochs=epochs),
                  cfg.mining_config(cs.sample_rate))
        want_z, want_ok = model.forward_rows(h, np.arange(n))[:2]
        charts = {"alone": [chart_batch(model, h[i][None, :]) for i in range(n)]}
        for size in (1, 3, 7, 9, 255, 257, 1000):
            charts[size] = [model.forward_rows(h, np.arange(lo, min(lo + size, n)))[:2]
                            for lo in range(0, n, size)]
        z, ok = chart_batch(model, h, order)
        back = np.argsort(order)
        charts["gathered"] = [(z[back], ok[back])]
        for way, blocks in charts.items():
            z = np.concatenate([b[0] for b in blocks])
            ok = np.concatenate([b[1] for b in blocks])
            differ = np.count_nonzero(np.any(z != want_z, axis=1) | (ok != want_ok))
            assert differ == 0, (epochs, way, differ)
