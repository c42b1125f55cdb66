"""Temporal triplet mining and the margin loss."""

import math

import numpy as np
import pytest

from chanchart.config import preset
from chanchart.rng import SplitMix64
from chanchart.triplet import (
    MiningConfig,
    mine_triplets,
    triplet_loss_batch,
    triplet_loss_grad_batch,
)
from helpers import (
    central_difference,
    mine_triplets_oracle,
    relative_error,
    triplet_loss_grad_oracle,
    triplet_loss_oracle,
)


def _cfg(**kw) -> MiningConfig:
    base = dict(t_close=2.0, t_far=6.0, sample_rate=1.0, per_anchor=1, seed=0)
    base.update(kw)
    return MiningConfig(**base)


# ---------------------------------------------------------------------------
# window conversion


def test_window_sample_counts():
    cfg = MiningConfig(t_close=100.0, t_far=290.0, sample_rate=7.0)
    assert cfg.s_close == 700
    assert cfg.s_far == 2030
    # conversion rounds to nearest
    cfg = MiningConfig(t_close=1.0, t_far=2.0, sample_rate=1.4)
    assert cfg.s_close == 1  # 1.4 + 0.5 floors to 1
    assert cfg.s_far == 3    # 2.8 + 0.5 floors to 3


def test_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(t_close=0.0, t_far=1.0, sample_rate=1.0)
    with pytest.raises(ValueError):
        MiningConfig(t_close=2.0, t_far=1.0, sample_rate=1.0)
    with pytest.raises(ValueError):
        MiningConfig(t_close=1.0, t_far=2.0, sample_rate=1.0, per_anchor=0)


# ---------------------------------------------------------------------------
# mining invariants


def test_triplet_index_invariants():
    for seed in range(10):
        cfg = _cfg(seed=seed, per_anchor=2)
        s_c, s_f = cfg.s_close, cfg.s_far
        n = 50
        triplets = mine_triplets(n, cfg)
        assert len(triplets) > 0, "mining produced nothing"
        anchor, close, far = triplets.T
        assert np.all((0 <= anchor) & (anchor < n))
        assert np.all((0 <= close) & (close < n) & (close != anchor))
        assert np.all((0 <= far) & (far < n))
        assert np.all(np.abs(close - anchor) <= s_c)
        assert np.all((s_c < np.abs(far - anchor)) & (np.abs(far - anchor) <= s_f))


def test_every_eligible_anchor_appears():
    cfg = _cfg(per_anchor=3)
    n = 40
    triplets = mine_triplets(n, cfg)
    anchors, counts = np.unique(triplets[:, 0], return_counts=True)
    # every index has a nonempty far window here, so all anchors appear
    assert anchors.tolist() == list(range(n))
    assert set(counts.tolist()) == {3}


def test_anchors_without_far_candidates_are_skipped():
    # n small enough that middle anchors have no far window
    cfg = _cfg(t_close=2.0, t_far=4.0)
    n = 6  # S_c=2, S_f=4: anchors 2 and 3 have far sets {..} check directly
    triplets = mine_triplets(n, cfg)
    anchors = set(triplets[:, 0].tolist())
    for i in range(n):
        left = range(max(0, i - 4), max(0, i - 2))
        right = range(min(n, i + 3), min(n, i + 5))
        has_far = len(list(left)) + len(list(right)) > 0
        assert (i in anchors) == has_far


def test_mining_deterministic_and_seed_sensitive():
    cfg_a = _cfg(seed=1)
    cfg_b = _cfg(seed=2)
    assert np.array_equal(mine_triplets(60, cfg_a), mine_triplets(60, cfg_a))
    assert not np.array_equal(mine_triplets(60, cfg_a), mine_triplets(60, cfg_b))


def test_empty_close_window_raises():
    cfg = MiningConfig(t_close=0.1, t_far=5.0, sample_rate=1.0)  # S_c = 0
    with pytest.raises(ValueError):
        mine_triplets(10, cfg)


def _mined(mine, n, cfg):
    try:
        got = mine(n, cfg)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return got.dtype, got.shape, got.tolist()


@pytest.mark.parametrize("name", ["tiny", "desk", "default"])
def test_mining_matches_scalar_oracle_on_presets(name):
    for root in (1, 2, 3):
        cfg = preset(name).with_seed_root(root)
        mining = cfg.mining_config(cfg.sample_rate())
        for n in (7, 50, 140, cfg.scenario["n_samples"]):
            got = mine_triplets(n, mining)
            assert np.array_equal(got, mine_triplets_oracle(n, mining)), (name, root, n)
            assert got.dtype == np.int64 and got.ndim == 2 and got.shape[1] == 3


def test_mining_matches_scalar_oracle_at_the_edges():
    # windows past n, an astronomically wide far window, S_c = 0 (the error path)
    for t_close, t_far, per_anchor in ((1.0, 3.0, 3), (5.0, 1e300, 2), (1e10, 2e10, 1),
                                       (0.4, 2.0, 1), (0.01, 0.02, 1)):
        cfg = _cfg(t_close=t_close, t_far=t_far, per_anchor=per_anchor, seed=2**64 - 1)
        for n in (0, 1, 2, 3, 10, 100):
            want = _mined(mine_triplets_oracle, n, cfg)
            assert _mined(mine_triplets, n, cfg) == want, (t_close, t_far, n)


# ---------------------------------------------------------------------------
# loss


def test_loss_hand_cases():
    # one triplet is a batch of one row
    z = np.array([[0.0, 0.0]])
    zp = np.array([[1.0, 0.0]])   # d+ = 1
    zm = np.array([[0.0, 3.0]])   # d- = 3
    loss, dp, dm = triplet_loss_batch(z, zp, zm, m=1.0)
    assert (dp[0], dm[0]) == (1.0, 3.0)
    assert all(x.shape == (1,) for x in (loss, dp, dm))
    assert loss[0] == 0.0  # 1 - 3 + 1 = -1, hinge inactive
    loss, _, _ = triplet_loss_batch(z, zp, zm, m=3.0)
    assert loss[0] == 1.0  # 1 - 3 + 3
    # margin exactly at the boundary: hinge value 0
    loss, _, _ = triplet_loss_batch(z, zp, zm, m=2.0)
    assert loss[0] == 0.0


def test_grad_matches_finite_differences():
    rng = SplitMix64(5)
    checked_active = 0
    for _ in range(30):
        z = rng.normals(2)
        zp = rng.normals(2)
        zm = rng.normals(2)
        m = rng.uniform() * 2.0
        loss, gz, gp, gm = (x[0] for x in triplet_loss_grad_batch(
            z[None, :], zp[None, :], zm[None, :], m))
        if loss == 0.0:
            assert not (gz.any() or gp.any() or gm.any())
            continue
        checked_active += 1
        packed = np.concatenate([z, zp, zm])

        def f(x):
            l, _, _ = triplet_loss_batch(x[None, 0:2], x[None, 2:4], x[None, 4:6], m)
            return l[0]

        fd = central_difference(f, packed.copy())
        assert relative_error(np.concatenate([gz, gp, gm]), fd) < 1e-6
    assert checked_active >= 5


def test_grad_zero_distance_subgradient():
    z = np.array([[1.0, 2.0]])
    _, gz, gp, gm = triplet_loss_grad_batch(z, z.copy(), np.array([[5.0, 5.0]]), m=10.0)
    # d+ = 0 exactly: its direction is undefined, subgradient contribution 0
    assert gz.shape == gp.shape == gm.shape == (1, 2)
    assert np.isfinite(gz).all() and np.isfinite(gp).all() and np.isfinite(gm).all()
    assert np.array_equal(gp, [[0.0, 0.0]])


def test_batch_matches_scalar():
    rng = SplitMix64(6)
    z = rng.normals(20).reshape(10, 2)
    zp = rng.normals(20).reshape(10, 2)
    zm = rng.normals(20).reshape(10, 2)
    losses, _, _ = triplet_loss_batch(z, zp, zm, m=1.0)
    _, gz, gp, gm = triplet_loss_grad_batch(z, zp, zm, m=1.0)
    for i in range(10):
        l_i, _, _ = triplet_loss_oracle(z[i], zp[i], zm[i], m=1.0)
        gz_i, gp_i, gm_i = triplet_loss_grad_oracle(z[i], zp[i], zm[i], m=1.0)
        assert abs(losses[i] - l_i) < 1e-15
        assert np.allclose(gz[i], gz_i, atol=1e-15)
        assert np.allclose(gp[i], gp_i, atol=1e-15)
        assert np.allclose(gm[i], gm_i, atol=1e-15)
