"""Deterministic PRNG: known-answer vectors, distribution sanity, substreams."""

import numpy as np
import pytest

from chanchart.rng import SplitMix64, substream
from helpers import sample_oracle, shuffle_oracle

# First four raw outputs of the reference algorithm, derived with an
# independent transcription of the published constants.
KNOWN_OUTPUTS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
    1234567890123456789: [0x9904EEE77E231DB2, 0x70EE7EB0313EC9B8,
                          0x77005BF062E5F76F, 0xA205DFB3DFFA7EDB],
}

# (out >> 11) * 2**-53 for the first three outputs at seed 42.
KNOWN_UNIFORMS_42 = [0.7415648787718233, 0.1599103928769201, 0.27860113025513866]


def test_known_answer_outputs():
    for seed, expected in KNOWN_OUTPUTS.items():
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(len(expected))]
        assert got == expected, f"seed {seed}: {got} != {expected}"


def test_known_uniforms():
    rng = SplitMix64(42)
    for expected in KNOWN_UNIFORMS_42:
        assert rng.uniform() == expected


def test_uniform_range_and_mean():
    rng = SplitMix64(7)
    xs = [rng.uniform() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.01


def test_vectorized_uniforms_match_scalar():
    for seed in range(5):
        scalar = SplitMix64(seed)
        vector = SplitMix64(seed)
        expected = np.array([scalar.uniform() for _ in range(257)])
        got = vector.uniforms(257)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)
        # both generators must end in the same state
        assert scalar.next_u64() == vector.next_u64()


def test_normals_moments_and_determinism():
    rng = SplitMix64(3)
    xs = rng.normals(40000)
    assert abs(float(xs.mean())) < 0.02
    assert abs(float(xs.std()) - 1.0) < 0.02
    assert np.array_equal(SplitMix64(3).normals(40000), xs)


def test_randbelow_uniformity_and_range():
    rng = SplitMix64(11)
    counts = [0] * 7
    for _ in range(7000):
        v = rng.randbelow(7)
        assert 0 <= v < 7
        counts[v] += 1
    assert min(counts) > 800  # crude uniformity: expected 1000 per bucket


def test_shuffle_is_a_permutation():
    for seed in range(10):
        rng = SplitMix64(seed)
        arr = np.arange(100)
        rng.shuffle(arr)
        assert sorted(arr.tolist()) == list(range(100))
    # at least one seed must actually move something
    arr = np.arange(100)
    SplitMix64(0).shuffle(arr)
    assert arr.tolist() != list(range(100))


def test_shuffle_deterministic():
    a = np.arange(50)
    b = np.arange(50)
    SplitMix64(123).shuffle(a)
    SplitMix64(123).shuffle(b)
    assert np.array_equal(a, b)


def test_u64s_match_scalar_outputs():
    for seed in (0, 2**64 - 1):
        scalar, vector = SplitMix64(seed), SplitMix64(seed)
        expected = [scalar.next_u64() for _ in range(33)]
        got = vector.u64s(33)
        assert got.dtype == np.uint64 and got.tolist() == expected
        assert vector.u64s(0).size == 0
        assert scalar.next_u64() == vector.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 5910])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("kind", ["list", "int64"])
def test_shuffle_matches_scalar_oracle(n, seed, kind):
    def fresh():
        return list(range(n)) if kind == "list" else np.arange(n, dtype=np.int64)

    got, want = fresh(), fresh()
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    rng.shuffle(got)
    shuffle_oracle(ref, want)
    assert type(got) is type(want)
    assert list(got) == list(want)
    if kind == "int64":
        assert got.dtype == np.int64
    # the generator ends where the scalar draws leave it
    assert rng.next_u64() == ref.next_u64()


def test_sample_is_sorted_unique_subset():
    for seed in range(10):
        rng = SplitMix64(seed)
        got = rng.sample(100, 12)
        assert len(got) == 12
        assert len(set(got.tolist())) == 12
        assert all(0 <= v < 100 for v in got)
    full = SplitMix64(5).sample(10, 10)
    assert sorted(full.tolist()) == list(range(10))


@pytest.mark.parametrize("n, k", [(0, 0), (1, 1), (10, 10), (100, 12), (5910, 200)])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_sample_matches_scalar_oracle(n, k, seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    got = rng.sample(n, k)
    assert got.dtype == np.int64 and got.tolist() == sample_oracle(ref, n, k)
    # the generator ends where the scalar draws leave it
    assert rng.next_u64() == ref.next_u64()


def test_substream_matches_raw_outputs():
    # substream(seed, i) is the (i+1)-th raw output of the stream at `seed`
    rng = SplitMix64(7)
    expected = [rng.next_u64() for _ in range(4)]
    got = [substream(7, i) for i in range(4)]
    assert got == expected


def test_substreams_are_distinct():
    seeds = {substream(0, i) for i in range(100)}
    assert len(seeds) == 100


def test_out_of_range_counts_are_rejected():
    rng = SplitMix64(0)
    for call, match in ((lambda: rng.u64s(-1), "^n must be >= 0$"),
                        (lambda: rng.randbelow(0), "^n must be positive$"),
                        (lambda: rng.sample(3, 4), "^need 0 <= k <= n$"),
                        (lambda: rng.sample(3, -1), "^need 0 <= k <= n$"),
                        (lambda: substream(0, -1), "^stream must be >= 0$")):
        with pytest.raises(ValueError, match=match):
            call()
