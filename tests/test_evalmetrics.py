"""Neighborhood-rank metrics: trustworthiness, continuity, evaluate()."""

import math
import tracemalloc

import numpy as np
import pytest

from chanchart import evalmetrics
from chanchart.encoder import chart_batch, init_random
from chanchart.evalmetrics import (
    DEFAULT_K_GRID,
    MetricsReport,
    continuity,
    evaluate,
    trustworthiness,
)
from chanchart.rng import SplitMix64
from chanchart.synthgen import ChannelSet

from helpers import (
    FunctionEncoder,
    brute_continuity,
    brute_ranks,
    brute_trustworthiness,
    full_matrix_rows,
    full_rank_matrix,
    rank_matrix,
)


# ---------------------------------------------------------------------------
# rank matrix


def test_rank_matrix_hand_case():
    pts = np.array([[0.0], [1.0], [3.0], [6.0]])
    expected = np.array([[0, 1, 2, 3],
                         [1, 0, 2, 3],
                         [2, 1, 0, 3],
                         [3, 2, 1, 0]])
    assert np.array_equal(rank_matrix(pts), expected)


def test_rank_matrix_tie_goes_to_lower_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    ranks = rank_matrix(pts)
    assert ranks[0, 1] == 1 and ranks[0, 2] == 2


def test_rank_matrix_rows_are_permutations():
    rng = SplitMix64(3)
    pts = rng.uniforms(60).reshape(30, 2)
    ranks = rank_matrix(pts)
    for i in range(30):
        row = np.delete(ranks[i], i)
        assert np.array_equal(np.sort(row), np.arange(1, 30))
        assert ranks[i, i] == 0


def test_rank_matrix_matches_brute_oracle():
    rng = SplitMix64(4)
    for _ in range(5):
        n = 5 + rng.randbelow(40)
        pts = (rng.uniforms(3 * n).reshape(n, 3) * 10.0) - 5.0
        assert np.array_equal(rank_matrix(pts), brute_ranks(pts))


def test_rank_matrix_equals_full_matrix_reference_with_ties():
    rng = SplitMix64(15)
    pts = np.floor(rng.uniforms(400).reshape(200, 2) * 5.0)  # duplicates and ties
    assert np.array_equal(rank_matrix(pts), full_rank_matrix(pts))


def test_rank_matrix_needs_two_points():
    with pytest.raises(ValueError):
        rank_matrix(np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# scores


def test_identity_chart_scores_one_exactly():
    rng = SplitMix64(5)
    pts = rng.uniforms(80).reshape(40, 2)
    for k in (1, 5, 10, 26):
        assert trustworthiness(pts, pts, k) == 1.0
        assert continuity(pts, pts, k) == 1.0


def test_scores_match_brute_oracle():
    rng = SplitMix64(6)
    for _ in range(8):
        n = 8 + rng.randbelow(40)
        pos = rng.uniforms(2 * n).reshape(n, 2)
        chart = rng.uniforms(2 * n).reshape(n, 2)
        k = 1 + rng.randbelow(max(1, (2 * n - 2) // 3))
        assert abs(trustworthiness(pos, chart, k)
                   - brute_trustworthiness(pos, chart, k)) < 1e-12
        assert abs(continuity(pos, chart, k)
                   - brute_continuity(pos, chart, k)) < 1e-12


def test_scores_in_one_row_blocks_match_brute_oracle(monkeypatch):
    # a block of one row per rank pass, on points with duplicates and ties
    monkeypatch.setattr(evalmetrics, "RANK_ENTRIES", 1)
    rng = SplitMix64(16)
    for _ in range(6):
        n = 8 + rng.randbelow(30)
        pos = np.floor(rng.uniforms(2 * n).reshape(n, 2) * 4.0)
        chart = np.floor(rng.uniforms(2 * n).reshape(n, 2) * 3.0)
        for k in (1, 1 + rng.randbelow((2 * n - 2) // 3)):
            assert abs(trustworthiness(pos, chart, k)
                       - brute_trustworthiness(pos, chart, k)) < 1e-12
            assert abs(continuity(pos, chart, k)
                       - brute_continuity(pos, chart, k)) < 1e-12


def test_continuity_is_trustworthiness_with_spaces_swapped():
    rng = SplitMix64(7)
    pos = rng.uniforms(40).reshape(20, 2)
    chart = rng.uniforms(40).reshape(20, 2)
    for k in (1, 3, 7):
        assert continuity(pos, chart, k) == trustworthiness(chart, pos, k)


def test_k_bounds_enforced():
    pts = np.arange(20.0).reshape(10, 2)
    chart = pts[::-1].copy()
    kmax = (2 * 10 - 2) // 3  # largest K keeping the normalizer positive
    trustworthiness(pts, chart, kmax)
    with pytest.raises(ValueError):
        trustworthiness(pts, chart, kmax + 1)
    with pytest.raises(ValueError):
        trustworthiness(pts, chart, 0)
    with pytest.raises(ValueError):
        trustworthiness(pts, chart[:9], 1)


def test_reversed_line_chart_hand_value():
    # a reversed 1-D line preserves every neighborhood: scores stay 1
    pts = np.arange(8.0).reshape(8, 1)
    chart = -pts
    assert trustworthiness(pts, chart, 2) == 1.0
    assert continuity(pts, chart, 2) == 1.0


def test_shuffled_chart_scores_below_one():
    pts = np.arange(24.0).reshape(12, 2)
    perm = np.arange(12)
    SplitMix64(8).shuffle(perm)
    chart = pts[perm]
    assert trustworthiness(pts, chart, 2) < 1.0


# ---------------------------------------------------------------------------
# evaluate()


def _position_channelset(n: int, m: int = 6) -> ChannelSet:
    """Channels whose first two real components equal the true position."""
    rng = SplitMix64(9)
    pos = (rng.uniforms(2 * n).reshape(n, 2) * 10.0) - 5.0
    channels = (rng.uniforms(2 * n * m).reshape(2, n, m) - 0.5).astype(np.float64)
    ch = (channels[0] + 1j * channels[1]).astype(np.complex128)
    ch[:, 0] = pos[:, 0] + 1j * 0.0
    ch[:, 1] = pos[:, 1] + 1j * 0.0
    return ChannelSet(channels=ch, positions=pos, sample_rate=1.0)


# charts each channel at its true position
_position_reader = FunctionEncoder(lambda block: np.ascontiguousarray(block[:, :2].real))


def test_evaluate_with_perfect_callable_model():
    cs = _position_channelset(50)
    report = evaluate(_position_reader, cs, np.arange(50))
    assert report.n_eval == 50 and report.skipped == 0
    assert len(report.rows) == len(DEFAULT_K_GRID)
    for k, frac, tw, ct in report.rows:
        assert tw == 1.0 and ct == 1.0
    # K = max(1, round(frac * 50)): 0.01->1, 0.03->2, 0.05->3 (round half up)
    ks = [row[0] for row in report.rows]
    assert ks == [1, 1, 2, 2, 3, 3, 4, 5]


def test_evaluate_respects_index_subset():
    cs = _position_channelset(60)
    idx = np.arange(0, 60, 2)
    report = evaluate(_position_reader, cs, idx, k_grid=(0.1,))
    assert report.n_eval == 30
    assert report.rows[0][0] == 3


def test_evaluate_drops_degenerate_rows():
    cs = _position_channelset(30)
    cs.channels[4] = 0.0  # not chartable through a hybrid model
    model = init_random(cs.channels.shape[1], 5, 2, 2, seed=0)
    report = evaluate(model, cs, np.arange(30), k_grid=(0.1,))
    assert report.skipped == 1
    assert report.n_eval == 29


def test_evaluate_needs_three_chartable_rows():
    cs = _position_channelset(4)
    cs.channels[0] = 0.0
    cs.channels[1] = 0.0
    model = init_random(cs.channels.shape[1], 3, 2, 2, seed=0)
    with pytest.raises(ValueError):
        evaluate(model, cs, np.arange(4), k_grid=(0.1,))


def test_metrics_report_csv_round_trip():
    report = MetricsReport(rows=[(1, 0.01, 0.875, 0.9375), (2, 0.05, 1.0, 1.0)],
                           n_eval=40, skipped=0)
    text = report.to_csv()
    lines = text.split("\n")
    assert lines[0] == "K,K_frac,trustworthiness,continuity"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 4 and lines[-1] == ""
    k, frac, tw, ct = lines[1].split(",")
    assert int(k) == 1 and float(frac) == 0.01
    assert float(tw) == 0.875 and float(ct) == 0.9375


# chart = position rounded to a 1.5 grid: many duplicate points and ties
_quantized_reader = FunctionEncoder(lambda block: np.round(block[:, :2].real / 1.5) * 1.5)


@pytest.mark.parametrize("model", ["quantized", "hybrid"])
def test_evaluate_rows_equal_full_matrix_reference(model):
    # n = 700 ranks in 8 row blocks; positions on a coarse grid repeat
    cs = _position_channelset(700)
    cs.positions[:] = np.round(cs.positions)
    idx = np.arange(700)
    if model == "hybrid":
        model = init_random(cs.channels.shape[1], 9, 3, 2, seed=17)
    else:
        model = _quantized_reader
    assert 700 > 4 * (evalmetrics.RANK_ENTRIES // 700)
    report = evaluate(model, cs, idx)
    chart, ok = chart_batch(model, cs.channels)
    assert ok.all()
    assert report.rows == full_matrix_rows(cs.positions, chart, DEFAULT_K_GRID)


def _scores_rows(pos, chart, k_grid=DEFAULT_K_GRID):
    """_scores in full_matrix_rows' (K, K_frac, TW, CT) row layout."""
    n = pos.shape[0]
    ks = [max(1, int(math.floor(frac * n + 0.5))) for frac in k_grid]
    scores = evalmetrics._scores(pos, chart, ks)
    return [(k, float(frac), tw, ct) for k, frac, (tw, ct) in zip(ks, k_grid, scores)]


def _count_fallback_rows(monkeypatch) -> list:
    """Record the row count of every _rank_rows call; a fallback row is
    ranked once in each space."""
    calls, rank_rows = [], evalmetrics._rank_rows

    def counted(sq, cols):
        calls.append(sq.shape[0])
        return rank_rows(sq, cols)

    monkeypatch.setattr(evalmetrics, "_rank_rows", counted)
    return calls


def _tie_free(seed: int, n: int, d: int) -> np.ndarray:
    return SplitMix64(seed).uniforms(n * d).reshape(n, d)


def test_tie_free_points_never_take_the_argsort_path(monkeypatch):
    def refuse(sq, cols):
        raise AssertionError("_rank_rows called on tie-free input")

    monkeypatch.setattr(evalmetrics, "_rank_rows", refuse)
    pos, chart = _tie_free(30, 400, 2), _tie_free(31, 400, 2)
    assert _scores_rows(pos, chart)[0][2] < 1.0
    cs = _position_channelset(300)
    evaluate(_position_reader, cs, np.arange(300))


@pytest.mark.parametrize("d", [2, 3])
def test_sorted_rows_equal_full_matrix_reference_on_tie_free_points(monkeypatch, d):
    calls = _count_fallback_rows(monkeypatch)
    for seed in range(3):
        pos, chart = _tie_free(40 + seed, 350, d), _tie_free(50 + seed, 350, 2)
        assert _scores_rows(pos, chart) == full_matrix_rows(pos, chart, DEFAULT_K_GRID)
    assert calls == []


def test_grid_rows_all_fall_back_and_equal_full_matrix_reference(monkeypatch):
    calls = _count_fallback_rows(monkeypatch)
    pos = np.stack(np.meshgrid(np.arange(25.0), np.arange(25.0)), axis=-1).reshape(-1, 2)
    chart = pos[:, ::-1] * 0.5 + _tie_free(60, 625, 2) * 1e-3
    assert _scores_rows(pos, chart) == full_matrix_rows(pos, chart, DEFAULT_K_GRID)
    assert sum(calls) == 2 * 625


@pytest.mark.parametrize("d", [2, 3])
def test_quantized_duplicate_and_nan_charts_equal_full_matrix_reference(d):
    pos = _tie_free(70, 500, d) * 10.0
    quantized = np.round(pos[:, :2] / 1.5) * 1.5
    assert _scores_rows(pos, quantized) == full_matrix_rows(pos, quantized, DEFAULT_K_GRID)
    duplicated = pos.copy()
    duplicated[1::7] = duplicated[0::7][: duplicated[1::7].shape[0]]
    assert _scores_rows(duplicated, pos) == full_matrix_rows(duplicated, pos, DEFAULT_K_GRID)
    # a NaN sorts last and ties with nothing, so only the NaN check sends rows back
    nan_chart = pos[:, :2].copy()
    nan_chart[5, 0] = np.nan
    assert _scores_rows(pos, nan_chart) == full_matrix_rows(pos, nan_chart, DEFAULT_K_GRID)


def test_blocks_mixing_sorted_and_fallback_rows_equal_full_matrix_reference(monkeypatch):
    # integer points tie only where a point is placed as the mirror image of
    # another through a third: that third's row holds one tie, the rest none
    monkeypatch.setattr(evalmetrics, "RANK_ENTRIES", 5 * 240)
    calls = _count_fallback_rows(monkeypatch)
    pos = np.floor(_tie_free(80, 240, 2) * 1e6)
    for centre in range(0, 240, 9):
        pos[centre + 1] = 2.0 * pos[centre] - pos[centre + 2]
    chart = np.floor(_tie_free(81, 240, 2) * 1e6)
    assert _scores_rows(pos, chart) == full_matrix_rows(pos, chart, DEFAULT_K_GRID)
    assert 0 < sum(calls) < 2 * 240 and max(calls) < 5
    cs = ChannelSet(channels=chart.astype(np.complex128), positions=pos, sample_rate=1.0)
    calls.clear()
    report = evaluate(_position_reader, cs, np.arange(240))
    assert report.rows == full_matrix_rows(pos, chart, DEFAULT_K_GRID)
    assert 0 < sum(calls) < 2 * 240


def test_evaluate_memory_is_bounded():
    # the whole-matrix ranking took about 110 MB here; blocks need a few MB
    n = 1500
    cs = _position_channelset(n)
    idx = np.arange(n)
    tracemalloc.start()
    try:
        report = evaluate(_position_reader, cs, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_eval == n
    assert peak < 8 * 2**20
