"""Acceptance gate: nine verifiable criteria for the charting pipeline.

Each test checks one criterion end to end and prints a single verdict line
(``criterion N: PASS/FAIL - detail``); conftest echoes all verdict lines in
the terminal summary.  The criteria cover parameter accounting, metric-space
invariances, bitwise reproducibility of the encoder, analytic-gradient
correctness, manifold recovery, neighborhood metrics, desk-scale training
quality on three designated seed roots, triplet-mining windows, and artifact
determinism of the command-line pipeline.
"""

import cmath
import json
import math
from collections import Counter

import numpy as np
import pytest

import conftest
from helpers import (
    brute_continuity,
    brute_trustworthiness,
    central_difference,
    procrustes_residual,
    relative_error,
)

from chanchart.cli import main as cli_main
from chanchart.config import preset
from chanchart.encoder import (
    EncoderParams,
    MlpParams,
    backward_batch,
    count_params,
    forward_batch,
    init_random,
    init_smart,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
)
from chanchart.evalmetrics import (
    DEFAULT_K_GRID,
    continuity,
    evaluate,
    trustworthiness,
)
from chanchart.fileio import (
    read_dataset,
    read_model,
    write_dataset,
    write_model,
)
from chanchart.isomap import classical_mds, isomap
from chanchart.metricspace import distance_matrix, pseudo_distance
from chanchart.rng import SplitMix64, substream
from chanchart.synthgen import (
    ChannelSet,
    generate_trajectory,
    synthesize_channels,
)
from chanchart.trainer import split_dataset, train
from chanchart.triplet import (
    MiningConfig,
    mine_triplets,
    triplet_loss,
    triplet_loss_grad,
)

SQRT2 = math.sqrt(2.0)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def _random_channel(rng: SplitMix64, m: int) -> np.ndarray:
    return rng.normals(m) + 1j * rng.normals(m)


# ---------------------------------------------------------------------------
# 1. parameter accounting


def test_criterion_1_parameter_counts():
    mlp = mlp_init(1024, seed=0)
    n_mlp = count_params(mlp)
    h100 = count_params(init_random(1024, 100, 5, 2, seed=0))
    h200 = count_params(init_random(1024, 200, 5, 2, seed=0))
    ok = n_mlp == 2_793_600 and h100 == 205_000 and h200 == 410_000
    detail = (f"mlp {n_mlp:,}; hybrid {h100:,} at 100 anchors, {h200:,} at 200. "
              f"note: the round figure 409,800 = (2*1024+1)*200 counts one chart "
              f"coordinate per anchor; this encoder stores d_out=2 coordinates "
              f"per anchor, giving (2*1024+2)*200 = 410,000")
    assert _verdict(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. pseudo-distance invariance and range


def test_criterion_2_pseudo_distance_invariance():
    rng = SplitMix64(20_001)
    worst = 0.0
    for _ in range(1000):
        m = 4 + rng.randbelow(29)
        h = _random_channel(rng, m)
        alpha = math.exp(3.0 * (rng.uniform() - 0.5))
        phi = 2.0 * math.pi * rng.uniform()
        h2 = (alpha * cmath.exp(1j * phi)) * h
        worst = max(worst, pseudo_distance(h, h2))
    ok_zero = worst < 1e-9

    lo, hi = math.inf, -math.inf
    for m, count in ((8, 60), (32, 40)):
        block = _random_channel(rng, m * count).reshape(count, m)
        dm = distance_matrix(block)
        lo = min(lo, float(dm.min()))
        hi = max(hi, float(dm.max()))
    ok_range = lo >= 0.0 and hi <= SQRT2 + 1e-12

    detail = (f"1000 scaled/rotated copies: max distance {worst:.2e} (< 1e-9); "
              f"pairwise distances within [{lo:.2e}, {hi:.12f}] "
              f"(upper bound sqrt(2)+1e-12)")
    assert _verdict(2, ok_zero and ok_range, detail)


# ---------------------------------------------------------------------------
# 3. bitwise chart invariance


def test_criterion_3_bitwise_chart_invariance():
    rng = SplitMix64(30_001)
    exact, ties = 0, 0
    for _ in range(1000):
        m = 4 + rng.randbelow(13)
        n_init = 3 + rng.randbelow(6)
        k = 1 + rng.randbelow(n_init)
        params = init_random(m, n_init, k, 2, seed=rng.randbelow(1 << 30))
        h = _random_channel(rng, m)
        (z1,), cache = forward_batch(params, h[None, :])
        if k < n_init:
            b_sorted = np.sort(cache.b[0])[::-1]
            if not b_sorted[k - 1] > b_sorted[k]:
                ties += 1
                continue
        factor = (2.0 ** (rng.randbelow(13) - 6)) * (1, 1j, -1, -1j)[rng.randbelow(4)]
        (z2,), _ = forward_batch(params, (factor * h)[None, :])
        if z1.tobytes() == z2.tobytes():
            exact += 1
    ok_bitwise = exact == 1000 and ties == 0

    worst = 0.0
    for _ in range(200):
        m = 4 + rng.randbelow(13)
        n_init = 3 + rng.randbelow(6)
        k = 1 + rng.randbelow(n_init)
        params = init_random(m, n_init, k, 2, seed=rng.randbelow(1 << 30))
        h = _random_channel(rng, m)
        (z1,), _ = forward_batch(params, h[None, :])
        factor = math.exp(2.0 * (rng.uniform() - 0.5)) * cmath.exp(
            2j * math.pi * rng.uniform())
        (z2,), _ = forward_batch(params, (factor * h)[None, :])
        worst = max(worst, relative_error(z1, z2))
    ok_cont = worst < 1e-12

    detail = (f"{exact}/1000 tie-free dyadic-scale quarter-turn draws bit-identical; "
              f"200 continuous-scale draws within {worst:.2e} relative (< 1e-12)")
    assert _verdict(3, ok_bitwise and ok_cont, detail)


# ---------------------------------------------------------------------------
# 4. analytic gradients vs central differences


def _hybrid_instance_error(seed: int):
    """Composite triplet-through-encoder gradient error, or None if the
    instance sits too close to a non-differentiable point for finite
    differences to be meaningful."""
    rng = SplitMix64(seed)
    m = 4 + rng.randbelow(13)
    n_init = 3 + rng.randbelow(6)
    k = 1 + rng.randbelow(n_init)
    margin = 1.0
    params = init_random(m, n_init, k, 2, seed=rng.randbelow(1 << 30))
    chans = [_random_channel(rng, m) for _ in range(3)]

    outs = [forward_batch(params, h[None, :]) for h in chans]
    zs = [z[0] for z, _ in outs]
    caches = [c for _, c in outs]
    loss, d_plus, d_minus = triplet_loss(zs[0], zs[1], zs[2], margin)
    if loss < 1e-3 or d_plus < 1e-4 or d_minus < 1e-4:
        return None
    for cache in caches:
        if k < n_init:
            b_sorted = np.sort(cache.b[0])[::-1]
            if b_sorted[k - 1] - b_sorted[k] < 1e-3:
                return None
        if float(np.min(cache.b[0][cache.kept_mask[0]])) < 1e-4:
            return None

    gz, gzp, gzm = triplet_loss_grad(zs[0], zs[1], zs[2], margin)
    acc = [np.zeros_like(params.d_re), np.zeros_like(params.d_im),
           np.zeros_like(params.z)]
    for cache, g in zip(caches, (gz, gzp, gzm)):
        gd_re, gd_im, gz_mat = backward_batch(params, cache, g[None, :])
        acc[0] += gd_re
        acc[1] += gd_im
        acc[2] += gz_mat
    analytic = np.concatenate([a.reshape(-1) for a in acc])

    nd = m * n_init

    def objective(vec):
        q = EncoderParams(d_re=vec[:nd].reshape(m, n_init),
                          d_im=vec[nd:2 * nd].reshape(m, n_init),
                          z=vec[2 * nd:].reshape(2, n_init), k=k)
        za, zp, zm = (forward_batch(q, h[None, :])[0][0] for h in chans)
        return triplet_loss(za, zp, zm, margin)[0]

    vec0 = np.concatenate([params.d_re.reshape(-1), params.d_im.reshape(-1),
                           params.z.reshape(-1)])
    return relative_error(analytic, central_difference(objective, vec0))


def _mlp_pre_activations(p: MlpParams, h: np.ndarray):
    x = np.concatenate([h.real, h.imag])
    x = x / float(np.linalg.norm(x))
    pres = []
    for i, w in enumerate(p.weights):
        x = w @ x
        if i < len(p.weights) - 1:
            pres.append(x.copy())
            x = np.maximum(x, 0.0)
    return pres


def _mlp_instance_error(seed: int):
    rng = SplitMix64(seed)
    m = 4 + rng.randbelow(13)
    margin = 1.0
    params = mlp_init(m, seed=rng.randbelow(1 << 30), hidden=(8, 6))
    chans = [_random_channel(rng, m) for _ in range(3)]

    for h in chans:
        for pre in _mlp_pre_activations(params, h):
            if float(np.min(np.abs(pre))) < 1e-4:
                return None
    outs = [mlp_forward_batch(params, h[None, :]) for h in chans]
    zs = [z[0] for z, _, _ in outs]
    acts = [a for _, a, _ in outs]
    loss, d_plus, d_minus = triplet_loss(zs[0], zs[1], zs[2], margin)
    if loss < 1e-3 or d_plus < 1e-4 or d_minus < 1e-4:
        return None

    gz, gzp, gzm = triplet_loss_grad(zs[0], zs[1], zs[2], margin)
    acc = [np.zeros_like(w) for w in params.weights]
    for act, g in zip(acts, (gz, gzp, gzm)):
        for i, grad in enumerate(mlp_backward_batch(params, act, g[None, :],
                                                    np.ones(1, dtype=bool))):
            acc[i] += grad
    analytic = np.concatenate([a.reshape(-1) for a in acc])

    shapes = [w.shape for w in params.weights]
    sizes = [w.size for w in params.weights]

    def objective(vec):
        ws, off = [], 0
        for shape, size in zip(shapes, sizes):
            ws.append(vec[off:off + size].reshape(shape))
            off += size
        q = MlpParams(weights=ws)
        za, zp, zm = (mlp_forward_batch(q, h[None, :])[0][0] for h in chans)
        return triplet_loss(za, zp, zm, margin)[0]

    vec0 = np.concatenate([w.reshape(-1) for w in params.weights])
    return relative_error(analytic, central_difference(objective, vec0))


def test_criterion_4_composite_gradients():
    worst_h, seed, accepted = 0.0, 0, 0
    while accepted < 100:
        seed += 1
        err = _hybrid_instance_error(40_000 + seed)
        if err is None:
            continue
        accepted += 1
        worst_h = max(worst_h, err)
    ok_h = worst_h < 1e-4

    worst_m, seed, accepted = 0.0, 0, 0
    while accepted < 100:
        seed += 1
        err = _mlp_instance_error(41_000 + seed)
        if err is None:
            continue
        accepted += 1
        worst_m = max(worst_m, err)
    ok_m = worst_m < 1e-4

    detail = (f"100 hybrid instances: worst relative error {worst_h:.2e}; "
              f"100 mlp instances: worst {worst_m:.2e} (threshold 1e-4)")
    assert _verdict(4, ok_h and ok_m, detail)


# ---------------------------------------------------------------------------
# 5. manifold recovery


def test_criterion_5_isomap_recovery():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
    pts = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    emb = isomap(dist, 5, 2)
    resid = procrustes_residual(pts, emb.coords)
    ok_grid = resid < 1e-6

    tri = classical_mds(np.ones((3, 3)) - np.eye(3), 2)
    coords = tri.coords
    tri_err = max(abs(float(np.linalg.norm(coords[i] - coords[j])) - 1.0)
                  for i in range(3) for j in range(i + 1, 3))
    ok_tri = tri_err < 1e-9

    detail = (f"10x10 grid residual {resid:.3e} vs threshold 1e-6 -- geodesics on "
              f"a 5-NN lattice overestimate off-axis straight-line distances "
              f"(taxicab-like paths), so the embedding cannot align to 1e-6; "
              f"equilateral-triangle reconstruction error {tri_err:.2e} (< 1e-9)")
    assert _verdict(5, ok_grid and ok_tri, detail)


# ---------------------------------------------------------------------------
# 6. neighborhood metrics vs brute force


def test_criterion_6_metric_equivalence():
    rng = SplitMix64(60_001)
    worst = 0.0
    for _ in range(20):
        n = 8 + rng.randbelow(193)
        pos = rng.uniforms(2 * n).reshape(n, 2)
        chart = rng.uniforms(2 * n).reshape(n, 2)
        k = 1 + rng.randbelow((2 * n - 2) // 3)
        worst = max(worst,
                    abs(trustworthiness(pos, chart, k)
                        - brute_trustworthiness(pos, chart, k)),
                    abs(continuity(pos, chart, k)
                        - brute_continuity(pos, chart, k)))
    ok_brute = worst < 1e-12

    pts = rng.uniforms(240).reshape(120, 2)
    ok_identity = True
    for frac in DEFAULT_K_GRID:
        k = max(1, int(math.floor(frac * 120 + 0.5)))
        ok_identity &= trustworthiness(pts, pts, k) == 1.0
        ok_identity &= continuity(pts, pts, k) == 1.0

    detail = (f"20 random instances (n up to 200): max deviation from brute-force "
              f"scores {worst:.2e} (< 1e-12); identity chart scores exactly 1.0 "
              f"at every grid K")
    assert _verdict(6, ok_brute and ok_identity, detail)


# ---------------------------------------------------------------------------
# 7. desk-scale training study


@pytest.mark.slow
def test_criterion_7_desk_training_study():
    base = preset("desk")
    all_ok = True
    summaries = []
    for root in (1, 2, 3):
        cfg = base.with_seed_root(root)
        traj, radio, scat, n = cfg.scenario_objects()
        track = generate_trajectory(traj)
        cs = synthesize_channels(track, radio, scat, sample_rate=traj.sample_rate)
        _, eval_idx = split_dataset(n, cfg.training.split_ratio,
                                    substream(cfg.seeds["training"], 0))
        mining = cfg.mining_config(cs.sample_rate)
        e = cfg.encoder

        smart = init_smart(cs, e.n_init, e.k_iso, e.k, e.d_out, cfg.seeds["init"])
        row_u = evaluate(smart, cs, eval_idx, (0.01,)).rows[0]
        report = train(smart, cs, cfg.train_config(), mining)
        ok_a = report.epoch_losses[-1] < report.epoch_losses[0]
        row_t = evaluate(smart, cs, eval_idx, (0.01,)).rows[0]
        ok_b = row_t[2] > row_u[2] and row_t[3] > row_u[3]

        mlp = mlp_init(radio.m, cfg.seeds["init"], d_out=e.d_out)
        train(mlp, cs, cfg.train_config(), mining)
        row_m = evaluate(mlp, cs, eval_idx, (0.01,)).rows[0]
        ok_c = row_u[2] > row_m[2] and row_u[3] > row_m[3]

        all_ok &= ok_a and ok_b and ok_c
        summaries.append(
            f"root {root}: loss {report.epoch_losses[0]:.3f}->"
            f"{report.epoch_losses[-1]:.3f}, smart TW/CT "
            f"{row_u[2]:.4f}/{row_u[3]:.4f} -> {row_t[2]:.4f}/{row_t[3]:.4f}, "
            f"trained mlp {row_m[2]:.4f}/{row_m[3]:.4f}")

    detail = ("on all three designated seed roots the trained smart encoder "
              "lowers the epoch-mean loss, improves held-out TW and CT at "
              "K=1%, and its untrained start beats the trained mlp baseline "
              "(" + "; ".join(summaries) + ")")
    assert _verdict(7, all_ok, detail)


# ---------------------------------------------------------------------------
# 8. mining windows and triplet invariants


def test_criterion_8_mining_invariants():
    stock = MiningConfig(t_close=100.0, t_far=290.0, sample_rate=7.0)
    ok_exact = stock.s_close == 700 and stock.s_far == 2030

    rng = SplitMix64(80_001)
    ok_props = True
    for _ in range(12):
        n = 40 + rng.randbelow(200)
        t_c = float(1 + rng.randbelow(6))
        t_f = t_c + float(1 + rng.randbelow(20))
        cfg = MiningConfig(t_close=t_c, t_far=t_f, sample_rate=1.0,
                           per_anchor=1 + rng.randbelow(3),
                           seed=rng.randbelow(1 << 30))
        trips = mine_triplets(n, cfg)
        s_c, s_f = cfg.s_close, cfg.s_far
        for a, close, far in trips:
            ok_props &= 0 <= close < n and 0 <= far < n
            ok_props &= 1 <= abs(close - a) <= s_c
            ok_props &= s_c < abs(far - a) <= s_f
        counts = Counter(t.anchor for t in trips)
        for i in range(n):
            has_far = (max(0, i - s_f) <= i - s_c - 1) or (i + s_c + 1 <= min(n - 1, i + s_f))
            expected = cfg.per_anchor if has_far else 0
            ok_props &= counts.get(i, 0) == expected
        ok_props &= mine_triplets(n, cfg) == trips

    detail = (f"rate 7/s with 100 s and 290 s windows gives S_close={stock.s_close} "
              f"(= 700) and S_far={stock.s_far}; 12 seeded minings satisfy the "
              f"window, bounds, per-anchor-count, and determinism invariants")
    assert _verdict(8, ok_exact and ok_props, detail)


# ---------------------------------------------------------------------------
# 9. artifact round trips and pipeline determinism


def _compare_config_doc():
    return {
        "scenario": {
            "kind": "explicit",
            "trajectory": {"waypoints": [[0.0, 0.0], [20.0, 0.0], [20.0, 10.0],
                                         [0.0, 10.0], [0.0, 0.0]],
                           "speed": 1.0, "sample_rate": 1.0, "jitter_sigma": 0.05},
            "radio": {"n_rows": 2, "n_cols": 2, "n_subcarriers": 4,
                      "bs_position": [10.0, 5.0, 8.0]},
            "scatterers": {"points": [[-5.0, 5.0, 4.0], [25.0, 5.0, 3.0]],
                           "gains": [0.5, 0.4]},
        },
        "encoder": {"n_init": 12, "k": 3, "k_iso": 4, "d_out": 2, "init": "smart"},
        "mining": {"t_close": 3.0, "t_far": 9.0, "per_anchor": 1},
        "training": {"epochs": 2, "batch_size": 8, "learning_rate": 1e-3,
                     "margin": 1.0, "split_ratio": 0.7},
        "eval": {"k_grid": [0.05, 0.1]},
        "seeds": {"trajectory": 1, "init": 2, "mining": 3, "training": 4},
        "baseline": {"mlp": True},
    }


def test_criterion_9_round_trips_and_determinism(tmp_path, capsys):
    rng = SplitMix64(90_001)
    ok_rt = True
    for p in (2, 3):
        cs = ChannelSet(
            channels=(rng.normals(42) + 1j * rng.normals(42)).reshape(6, 7),
            positions=rng.normals(6 * p).reshape(6, p), sample_rate=2.0)
        path = str(tmp_path / f"ds{p}.bin")
        write_dataset(path, cs)
        back = read_dataset(path, sample_rate=2.0)
        ok_rt &= np.array_equal(back.channels, cs.channels)
        ok_rt &= np.array_equal(back.positions, cs.positions)
    hybrid = init_random(9, 5, 3, 2, seed=1)
    write_model(str(tmp_path / "h.bin"), hybrid)
    back_h = read_model(str(tmp_path / "h.bin"))
    ok_rt &= (np.array_equal(back_h.d_re, hybrid.d_re)
              and np.array_equal(back_h.d_im, hybrid.d_im)
              and np.array_equal(back_h.z, hybrid.z) and back_h.k == hybrid.k)
    mlp = mlp_init(6, seed=2, hidden=(5, 4))
    write_model(str(tmp_path / "m.bin"), mlp)
    back_m = read_model(str(tmp_path / "m.bin"))
    ok_rt &= all(np.array_equal(a, b)
                 for a, b in zip(back_m.weights, mlp.weights))

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_compare_config_doc()), encoding="utf-8")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["compare", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli_main(["compare", "--config", str(cfg_path), "--out", str(out2)])
    capsys.readouterr()
    ok_cli = code1 == 0 and code2 == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    ok_cli &= csvs == ["chart_mlp.csv", "chart_random.csv", "chart_smart.csv",
                       "loss_mlp.csv", "loss_random.csv", "loss_smart.csv",
                       "metrics.csv"]
    identical = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
                    for name in csvs)

    detail = (f"dataset and model files round-trip bit-exactly; two compare runs "
              f"produced {len(csvs)} byte-identical CSV artifacts")
    assert _verdict(9, ok_rt and ok_cli and identical, detail)
