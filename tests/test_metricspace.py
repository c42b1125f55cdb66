"""Phase/scale-invariant pseudo-distance and its pairwise matrix."""

import math
import re

import numpy as np
import pytest

from chanchart.metricspace import DataError, distance_matrix, pseudo_distance
from chanchart.rng import SplitMix64

SQRT2 = math.sqrt(2.0)


def _random_complex(rng: SplitMix64, m: int) -> np.ndarray:
    return rng.normals(m) + 1j * rng.normals(m)


def test_hand_computed_values():
    # orthogonal real vectors: correlation 0, distance sqrt(2)
    assert pseudo_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == SQRT2
    # orthogonal complex vectors
    d = pseudo_distance(np.array([1.0, 1.0j]), np.array([1.0, -1.0j]))
    assert abs(d - SQRT2) < 1e-15
    # 45-degree real case: correlation 1/sqrt(2)
    d = pseudo_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert abs(d - math.sqrt(2.0 - SQRT2)) < 1e-15
    # 3-4-5 case: correlation 24/25, distance sqrt(2)/5
    d = pseudo_distance(np.array([3.0, 4.0]), np.array([4.0, 3.0]))
    assert abs(d - SQRT2 / 5.0) < 1e-15


def test_self_distance_is_zero():
    for seed in range(20):
        h = _random_complex(SplitMix64(seed), 16)
        assert pseudo_distance(h, h) == 0.0


def test_scale_and_phase_invariance():
    rng = SplitMix64(99)
    for _ in range(200):
        h = _random_complex(rng, 12)
        alpha = rng.uniform() * 5.0 + 0.01
        phi = rng.uniform() * 2.0 * math.pi
        g = alpha * np.exp(1j * phi) * h
        assert pseudo_distance(h, g) < 1e-9
        # and against an unrelated vector, scaling either argument is inert
        w = _random_complex(rng, 12)
        base = pseudo_distance(h, w)
        assert abs(pseudo_distance(g, w) - base) < 1e-9


def test_range_and_symmetry():
    rng = SplitMix64(5)
    vecs = [_random_complex(rng, 8) for _ in range(40)]
    for i in range(len(vecs)):
        for j in range(i, len(vecs)):
            d = pseudo_distance(vecs[i], vecs[j])
            assert 0.0 <= d <= SQRT2 + 1e-12
            assert d == pseudo_distance(vecs[j], vecs[i])


def test_zero_vector_rejected():
    h = np.array([1.0 + 0j, 2.0])
    z = np.zeros(2, dtype=np.complex128)
    with pytest.raises(ValueError):
        pseudo_distance(h, z)
    with pytest.raises(ValueError):
        pseudo_distance(z, h)


def test_distance_matrix_matches_scalar_route():
    rng = SplitMix64(31)
    rows = np.stack([_random_complex(rng, 10) for _ in range(25)])
    mat = distance_matrix(rows)
    assert mat.shape == (25, 25)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    for i in range(25):
        for j in range(i + 1, 25):
            assert abs(mat[i, j] - pseudo_distance(rows[i], rows[j])) < 1e-12


def test_distance_matrix_zero_row_rejected():
    rows = np.ones((4, 6), dtype=np.complex128)
    rows[2] = 0.0
    with pytest.raises(ValueError) as err:
        distance_matrix(rows)
    assert "2" in str(err.value)
    with pytest.raises(ValueError, match="^expected a 2-D array of channel rows$"):
        distance_matrix(rows[0])


@pytest.mark.parametrize("entry", [2.0 ** 600, 2.0 ** 255], ids=["2^600", "2^255"])
def test_distance_matrix_rejects_a_row_at_or_above_the_energy_bound(entry):
    # every entry of row 3 is finite, but its sum of squares overflows or
    # rounds to exactly 2^510: the row is refused by index, as a zero row is
    rows = np.ones((5, 6), dtype=np.complex128)
    rows[3, 0] = entry
    rows[4, 0] = 2.0 ** 254  # a sum of squares of 2^508 + 5 is below the bound
    detail = "channel row at index 3 has a sum of squares >= 2^510"
    with pytest.raises(DataError, match=f"^{re.escape(detail)}$"):
        distance_matrix(rows)
    rows[3, 0] = 1.0
    assert np.isfinite(distance_matrix(rows)).all()
