"""Dataset split, Adam updates, and the minibatch triplet trainer."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chanchart import encoder, trainer
from chanchart.config import preset
from chanchart.encoder import EncoderParams, init_random, init_smart, mlp_init
from chanchart.fileio import read_model, write_model
from chanchart.rng import SplitMix64, substream
from chanchart.synthgen import (
    ChannelSet,
    generate_trajectory,
    loop_scenario,
    synthesize_channels,
)
from chanchart.trainer import (
    _ADAM_BLOCK,
    OptimizerState,
    TrainConfig,
    adam_step,
    split_dataset,
    train,
)
from chanchart.triplet import MiningConfig
from helpers import adam_oracle, argsort_top_k_mask, full_row_backward_batch


# ---------------------------------------------------------------------------
# split


def test_split_sizes_and_disjointness():
    train_idx, eval_idx = split_dataset(100, 0.7, seed=0)
    assert train_idx.size == 70 and eval_idx.size == 30
    assert np.all(np.diff(train_idx) > 0) and np.all(np.diff(eval_idx) > 0)
    merged = np.sort(np.concatenate([train_idx, eval_idx]))
    assert np.array_equal(merged, np.arange(100))


def test_split_rounds_to_nearest():
    train_idx, _ = split_dataset(10, 0.65, seed=1)
    assert train_idx.size == 7  # 6.5 rounds up
    train_idx, _ = split_dataset(10, 0.64, seed=1)
    assert train_idx.size == 6


def test_split_clamps_to_keep_both_sides():
    train_idx, eval_idx = split_dataset(5, 0.01, seed=2)
    assert train_idx.size == 1 and eval_idx.size == 4
    train_idx, eval_idx = split_dataset(5, 0.999, seed=2)
    assert train_idx.size == 4 and eval_idx.size == 1


def test_split_deterministic_and_seed_sensitive():
    a = split_dataset(50, 0.7, seed=3)
    b = split_dataset(50, 0.7, seed=3)
    c = split_dataset(50, 0.7, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        split_dataset(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        split_dataset(10, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(10, 1.0, seed=0)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_computed():
    cfg = TrainConfig(learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
    p = np.array([0.0])
    g = np.array([1.0])
    state = OptimizerState.for_params([p])
    adam_step(state, [p], [g], cfg)
    # bias correction makes the first step lr * g/(|g| + eps) regardless of betas
    expected = -0.001 * 1.0 / (1.0 + 1e-8)
    assert abs(p[0] - expected) < 1e-18
    assert state.step == 1


def test_adam_constant_gradient_steps_are_constant():
    cfg = TrainConfig(learning_rate=0.01)
    p = np.array([0.0])
    state = OptimizerState.for_params([p])
    deltas = []
    prev = 0.0
    for _ in range(5):
        adam_step(state, [p], [np.array([2.0])], cfg)
        deltas.append(prev - p[0])
        prev = p[0]
    # with a constant gradient the bias-corrected moments are fixed points
    assert all(abs(d - deltas[0]) < 1e-12 for d in deltas)


def test_adam_rejects_mismatches():
    cfg = TrainConfig()
    p = np.array([0.0])
    state = OptimizerState.for_params([p])
    with pytest.raises(ValueError):
        adam_step(state, [p], [], cfg)
    with pytest.raises(ValueError):
        adam_step(state, [p], [np.zeros((2, 2))], cfg)


ADAM_SHAPES = pytest.mark.parametrize("shapes", [
    [(100,)],
    [(_ADAM_BLOCK,)],
    [(_ADAM_BLOCK + 1,)],
    [(3, 5), (2, _ADAM_BLOCK // 2 + 7), (), (4, 3, 2)],
], ids=["below-block", "one-block", "block-plus-one", "mixed"])


@ADAM_SHAPES
def test_adam_is_bitwise_the_textbook_update(shapes):
    cfg = TrainConfig(learning_rate=3e-3)
    rng = SplitMix64(7)
    params = [rng.normals(max(1, math.prod(s))).reshape(s) for s in shapes]
    ref = [p.copy() for p in params]
    state = OptimizerState.for_params(params)
    ref_state = OptimizerState.for_params(ref)
    for _ in range(5):
        grads = [rng.normals(max(1, math.prod(s))).reshape(s) for s in shapes]
        kept = [g.copy() for g in grads]
        adam_step(state, params, grads, cfg)
        adam_oracle(ref_state, ref, grads, cfg)
        for g, g0 in zip(grads, kept):
            assert np.array_equal(g, g0)
        for got, want in zip(params + state.m + state.v, ref + ref_state.m + ref_state.v):
            assert np.array_equal(got, want)
    assert state.step == ref_state.step == 5


@ADAM_SHAPES
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_adam_raises_after_a_non_finite_block(shapes, bad):
    # one bad gradient entry in the first block, in the last block of the
    # largest parameter (short unless its size is a multiple of a block), or
    # in the last parameter; the update still completes, as the textbook one
    cfg = TrainConfig(learning_rate=3e-3)
    rng = SplitMix64(11)
    sizes = [max(1, math.prod(s)) for s in shapes]
    big = int(np.argmax(sizes))
    for i, j in [(0, 0), (big, (sizes[big] - 1) // _ADAM_BLOCK * _ADAM_BLOCK),
                 (len(shapes) - 1, sizes[-1] - 1)]:
        params = [rng.normals(n).reshape(s) for n, s in zip(sizes, shapes)]
        ref = [p.copy() for p in params]
        state = OptimizerState.for_params(params)
        ref_state = OptimizerState.for_params(ref)
        grads = [rng.normals(n).reshape(s) for n, s in zip(sizes, shapes)]
        adam_step(state, params, grads, cfg)  # finite: raises nothing
        adam_oracle(ref_state, ref, grads, cfg)
        grads = [rng.normals(n).reshape(s) for n, s in zip(sizes, shapes)]
        grads[i].reshape(-1)[j] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^non-finite parameters$"):
                adam_step(state, params, grads, cfg)
            adam_oracle(ref_state, ref, grads, cfg)
        assert not np.isfinite(params[i].reshape(-1)[j])
        for got, want in zip(params + state.m + state.v, ref + ref_state.m + ref_state.v):
            assert np.array_equal(got, want, equal_nan=True)


def test_adam_rejects_non_contiguous_parameter():
    p = np.zeros((6, 4)).T
    state = OptimizerState.for_params([p])
    with pytest.raises(ValueError):
        adam_step(state, [p], [np.ones((4, 6))], TrainConfig())
    assert not p.any()


# ---------------------------------------------------------------------------
# end-to-end training on a small synthetic set


def _small_channelset(n: int = 150, seed: int = 0) -> ChannelSet:
    traj, radio, scat = loop_scenario(n, seed=seed)
    track = generate_trajectory(traj)
    return synthesize_channels(track, radio, scat, sample_rate=traj.sample_rate)


def test_train_hybrid_reduces_loss_and_is_deterministic():
    cs = _small_channelset()
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e-3, seed=9)

    base = init_smart(cs, 20, 4, 5, 2, seed=3)
    model_a = EncoderParams(d_re=base.d_re.copy(), d_im=base.d_im.copy(),
                            z=base.z.copy(), k=base.k)
    report_a = train(model_a, cs, cfg, mining)
    assert len(report_a.epoch_losses) == 5
    assert all(math.isfinite(l) and l >= 0.0 for l in report_a.epoch_losses)
    assert report_a.epoch_losses[-1] < report_a.epoch_losses[0]
    assert report_a.skipped == 0

    model_b = EncoderParams(d_re=base.d_re.copy(), d_im=base.d_im.copy(),
                            z=base.z.copy(), k=base.k)
    report_b = train(model_b, cs, cfg, mining)
    assert report_a.epoch_losses == report_b.epoch_losses
    assert np.array_equal(model_a.d_re, model_b.d_re)
    assert np.array_equal(model_a.z, model_b.z)


def test_train_updates_all_parameter_arrays():
    cs = _small_channelset()
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=9)
    model = init_random(cs.channels.shape[1], 12, 4, 2, seed=1)
    before = [a.copy() for a in (model.d_re, model.d_im, model.z)]
    train(model, cs, cfg, mining)
    after = [model.d_re, model.d_im, model.z]
    for b, a in zip(before, after):
        assert not np.array_equal(b, a)


def test_hybrid_dictionary_pad_stays_zero(tmp_path):
    # 30 atoms store a (m, 64) dictionary [Re D | Im D | 0]: the four pad
    # columns start at zero, stay out of the model file, come back as zero,
    # and get zero gradients, so Adam's update there is 0 / eps
    cs = _small_channelset()
    m = cs.channels.shape[1]
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    path = tmp_path / "model.bin"
    for model in (init_random(m, 30, 4, 2, seed=1), init_smart(cs, 30, 4, 4, 2, seed=3)):
        assert model.d.shape == (m, 64) and model.d.flags.c_contiguous
        assert not model.d[:, 60:].any()
        with pytest.raises(ValueError, match="read-only"):
            model.d_re[0, 0] = 1.0  # the parameters are written through d alone
        write_model(str(path), model)
        header = len(b"CCM1") + 5 * 8  # magic, then kind, M, N_init, D_out, k
        assert path.stat().st_size - header == 8 * 30 * (2 * m + 2)
        back = read_model(str(path))
        assert np.array_equal(back.d, model.d)
        before = model.d.copy()
        train(model, cs, TrainConfig(epochs=3, batch_size=16, seed=9), mining)
        assert not np.array_equal(model.d[:, :60], before[:, :60])
        assert not model.d[:, 60:].any()


def test_train_mlp_smoke():
    cs = _small_channelset()
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3, seed=9)
    model = mlp_init(cs.channels.shape[1], seed=2, hidden=(16, 8))
    report = train(model, cs, cfg, mining)
    assert len(report.epoch_losses) == 3
    assert all(math.isfinite(l) for l in report.epoch_losses)
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_train_counts_skipped_degenerate_triplets():
    cs = _small_channelset()
    channels = cs.channels.copy()
    # zero out a handful of rows: triplets touching them are uncharitable
    for row in (10, 40, 70, 100, 130):
        channels[row] = 0.0
    broken = ChannelSet(channels=channels, positions=cs.positions,
                        sample_rate=cs.sample_rate)
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=9)
    model = init_random(channels.shape[1], 12, 4, 2, seed=1)
    report = train(model, broken, cfg, mining)
    assert report.skipped > 0
    assert all(math.isfinite(l) for l in report.epoch_losses)


@pytest.fixture(scope="module")
def tiny():
    cfg = preset("tiny")
    traj, radio, scat, _ = cfg.scenario_objects()
    cs = synthesize_channels(generate_trajectory(traj), radio, scat,
                             sample_rate=traj.sample_rate)
    return cfg, cs


def _tiny_model(cfg, cs, kind: str):
    e = cfg.encoder
    if kind == "hybrid":
        return init_random(cs.channels.shape[1], e.n_init, e.k, e.d_out, cfg.seeds["init"])
    if kind == "smart":
        return init_smart(cs, e.n_init, e.k_iso, e.k, e.d_out, cfg.seeds["init"])
    return mlp_init(cs.channels.shape[1], cfg.seeds["init"], d_out=e.d_out)


def _allocating(backward):
    """``backward`` writing into fresh gradient arrays, then copying them into ``out``."""
    def run(p, *args):
        *args, out = args
        fresh = [np.empty(a.shape) for a in p.arrays()]
        backward(p, *args, fresh)
        for dst, src in zip(out, fresh):
            np.copyto(dst, src)
        return out
    return run


@pytest.mark.parametrize("kind", ["hybrid", "mlp"])
def test_train_is_bitwise_the_textbook_adam(tiny, kind, monkeypatch):
    # the reference allocates every step's gradients, as training did before
    # it kept one gradient set per run
    cfg, cs = tiny
    tcfg = dataclasses.replace(cfg.train_config(), epochs=2)
    mining = cfg.mining_config(cs.sample_rate)
    shipped = _tiny_model(cfg, cs, kind)
    report = train(shipped, cs, tcfg, mining)
    monkeypatch.setattr(trainer, "adam_step", adam_oracle)
    for name in ("backward_batch", "mlp_backward_batch"):
        monkeypatch.setattr(encoder, name, _allocating(getattr(encoder, name)))
    textbook = _tiny_model(cfg, cs, kind)
    ref = train(textbook, cs, tcfg, mining)
    assert report.epoch_losses == ref.epoch_losses
    for got, want in zip(shipped.arrays(), textbook.arrays()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["hybrid", "smart"])
def test_train_hybrid_is_bitwise_the_full_row_step(tiny, kind, monkeypatch):
    # the reference step gathers complex rows, ranks by stable argsort and
    # multiplies every row into the dictionary gradients; from a random init
    # every row carries gradient, from a smart init 10-50% of rows carry none
    cfg, cs = tiny
    tcfg = dataclasses.replace(cfg.train_config(), epochs=2)
    mining = cfg.mining_config(cs.sample_rate)
    shipped = _tiny_model(cfg, cs, kind)
    report = train(shipped, cs, tcfg, mining)
    forward_batch = encoder.forward_batch
    monkeypatch.setattr(encoder, "forward_batch",
                        lambda p, channels, index: forward_batch(p, channels[index]))
    monkeypatch.setattr(encoder, "_top_k_mask", argsort_top_k_mask)
    monkeypatch.setattr(encoder, "backward_batch", full_row_backward_batch)
    reference = _tiny_model(cfg, cs, kind)
    ref = train(reference, cs, tcfg, mining)
    assert report.epoch_losses == ref.epoch_losses
    for got, want in zip(shipped.arrays(), reference.arrays()):
        assert np.array_equal(got, want)


def test_hybrid_train_peaks_below_one_plane_of_the_dataset():
    # one epoch must not hold a dataset-sized copy: it gathers each batch
    n, m = 4000, 256
    rng = SplitMix64(11)
    channels = (rng.normals(n * m) + 1j * rng.normals(n * m)).reshape(n, m)
    positions = np.stack([np.arange(n, dtype=np.float64), np.zeros(n), np.zeros(n)], axis=1)
    cs = ChannelSet(channels=channels, positions=positions, sample_rate=1.0)
    mining = MiningConfig(t_close=4.0, t_far=12.0, sample_rate=1.0, seed=5)
    model = init_random(m, 30, 5, 2, seed=1)
    tracemalloc.start()
    try:
        train(model, cs, TrainConfig(epochs=1, seed=9), mining)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8


def test_mlp_train_holds_one_gradient_set(tiny):
    # Adam's two moments, one gradient set and one step's activations; the
    # margin is a quarter of a gradient set, so the previous step's gradients
    # alive beside the new ones do not fit
    cfg, cs = tiny
    tcfg = dataclasses.replace(cfg.train_config(), epochs=2)
    model = _tiny_model(cfg, cs, "mlp")
    param_bytes = sum(a.nbytes for a in model.arrays())
    widths = [w.shape[1] for w in model.weights] + [model.d_out]
    activation_bytes = 3 * tcfg.batch_size * sum(widths) * 8
    tracemalloc.start()
    try:
        train(model, cs, tcfg, cfg.mining_config(cs.sample_rate))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parameters exist before tracing starts and are not counted
    assert peak < 3 * param_bytes + activation_bytes + param_bytes // 4


def test_train_survives_a_nan_channel_row(tiny):
    cfg, cs = tiny
    train_idx, _ = split_dataset(cs.channels.shape[0], cfg.training.split_ratio,
                                 substream(cfg.seeds["training"], 0))
    channels = cs.channels.copy()
    channels[train_idx[train_idx.size // 2]] = np.nan
    broken = ChannelSet(channels=channels, positions=cs.positions,
                        sample_rate=cs.sample_rate)
    model = _tiny_model(cfg, cs, "hybrid")
    report = train(model, broken, cfg.train_config(), cfg.mining_config(cs.sample_rate))
    assert report.skipped > 0
    assert all(math.isfinite(l) for l in report.epoch_losses)
    assert all(np.isfinite(a).all() for a in model.arrays())


def _assert_train_stops_when_it_diverges(tiny, kind, lr, what):
    cfg, cs = tiny
    tcfg = dataclasses.replace(cfg.train_config(), learning_rate=lr)
    model = _tiny_model(cfg, cs, kind)
    with pytest.raises(ValueError, match=rf"^training diverged: non-finite {what} "
                                         r"at epoch 1, step \d+$"):
        train(model, cs, tcfg, cfg.mining_config(cs.sample_rate))


@pytest.mark.parametrize("lr, what", [(1e300, "loss"), (math.inf, "parameters")])
def test_train_stops_when_it_diverges(tiny, lr, what):
    # lr 1e300 overflows the next forward; an infinite lr makes NaN parameters
    _assert_train_stops_when_it_diverges(tiny, "hybrid", lr, what)


@pytest.mark.parametrize("lr, what", [(1e300, "loss"), (math.inf, "parameters")])
def test_mlp_train_stops_when_it_diverges(tiny, lr, what):
    # the MLP's first layer spans 128 Adam blocks
    _assert_train_stops_when_it_diverges(tiny, "mlp", lr, what)


@pytest.mark.parametrize("kind", ["hybrid", "mlp"])
@pytest.mark.parametrize("frozen", [False, True], ids=["writeable", "frozen"])
def test_train_stops_at_a_parameter_write_during_a_step(tiny, kind, frozen, monkeypatch):
    # forward and backward see read-only parameters, so a write there raises
    # at the write in epoch 1, step 1, before any Adam update; afterwards every
    # parameter has the writeable flag it had before train
    cfg, cs = tiny
    model = _tiny_model(cfg, cs, kind)
    model.arrays()[-1].flags.writeable = not frozen
    before = [a.copy() for a in model.arrays()]
    calls = []

    def scribbling(backward):
        def run(p, *args):
            calls.append(None)
            p.arrays()[0][0, 0] += 1.0
            return backward(p, *args)
        return run

    for name in ("backward_batch", "mlp_backward_batch"):
        monkeypatch.setattr(encoder, name, scribbling(getattr(encoder, name)))
    with pytest.raises(ValueError, match="read-only"):
        train(model, cs, cfg.train_config(), cfg.mining_config(cs.sample_rate))
    assert len(calls) == 1
    for a, a0 in zip(model.arrays(), before):
        assert np.array_equal(a, a0)
    assert [a.flags.writeable for a in model.arrays()] == [True] * (len(before) - 1) + [not frozen]


def test_train_epochs_zero_is_a_no_op():
    cs = _small_channelset()
    mining = MiningConfig(t_close=1.0, t_far=3.0, sample_rate=cs.sample_rate, seed=5)
    cfg = TrainConfig(epochs=0, batch_size=16, seed=9)
    model = init_random(cs.channels.shape[1], 12, 4, 2, seed=1)
    before = model.d_re.copy()
    report = train(model, cs, cfg, mining)
    assert report.epoch_losses == []
    assert np.array_equal(model.d_re, before)
