"""Deterministic 64-bit PRNG used by every stochastic stage.

All randomness in this package flows through :class:`SplitMix64` so that a
given seed reproduces the same jitter, subsets, shuffles and weight draws on
any platform (and in any reimplementation that follows the same algorithm).

The generator is the standard splitmix64 mixer.  State advances by the
64-bit golden-ratio constant and each output is a finalized mix of the new
state:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z XOR (z >> 31)

Derived quantities are defined on top of the raw 64-bit stream:

* ``uniform``  -> ``(output >> 11) * 2**-53`` in ``[0, 1)``
* ``normals``  -> Box-Muller on consecutive uniform pairs,
  ``r = sqrt(-2 ln(1 - u1))``, ``(r cos(2 pi u2), r sin(2 pi u2))``;
  ``n`` normals always consume ``2 * ceil(n / 2)`` uniforms
* ``randbelow(n)`` -> ``output mod n``
* ``shuffle``  -> backward Fisher-Yates using ``randbelow``
* ``sample(n, k)`` -> first ``k`` entries of a partial forward Fisher-Yates

Because the i-th raw output depends only on ``seed + (i+1)*GOLDEN``, blocks
of outputs can be produced with vectorized uint64 arithmetic; the vector
methods advance the stream exactly as the equivalent sequence of scalar
calls would.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_TWO_NEG53 = 2.0 ** -53


def _mix_array(states: np.ndarray) -> np.ndarray:
    z = states
    z = (z ^ (z >> _U64_30)) * _U64_MIX1
    z = (z ^ (z >> _U64_27)) * _U64_MIX2
    return z ^ (z >> _U64_31)


class SplitMix64:
    """splitmix64 stream; see the module docstring for the exact algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return int(self.u64s(1)[0])

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def u64s(self, n: int) -> np.ndarray:
        """n raw outputs as uint64, identical to n successive next_u64() calls."""
        if n < 0:
            raise ValueError("n must be >= 0")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        states = np.uint64(self._state) + steps * _U64_GOLDEN
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_array(states)

    def uniforms(self, n: int) -> np.ndarray:
        """n draws in [0, 1), identical to n successive uniform() calls."""
        return (self.u64s(n) >> _U64_11).astype(np.float64) * _TWO_NEG53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2*ceil(n/2) uniforms."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items) -> None:
        """In-place backward Fisher-Yates of a list or 1-D array.

        Every swap index j = randbelow(i + 1), i = len - 1 .. 1, comes from
        one vector draw; the swaps then run on a Python list.
        """
        n = len(items)
        js = self.u64s(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        seq = items.tolist() if isinstance(items, np.ndarray) else list(items)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            seq[i], seq[j] = seq[j], seq[i]
        items[:] = seq

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), partial forward Fisher-Yates; its
        swap indices i + randbelow(n - i) come from one vector draw."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        spans = np.arange(n, n - k, -1, dtype=np.uint64)
        js = np.arange(k, dtype=np.uint64) + self.u64s(k) % spans
        idx = np.arange(n, dtype=np.int64)
        for i, j in enumerate(js.tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k].copy()


def substream(seed: int, stream: int) -> int:
    """Derived seed for stage `stream` of a seeded pipeline.

    Defined as the (stream+1)-th raw output of SplitMix64(seed), so stage
    seeds are decorrelated from each other and from the root stream.
    """
    if stream < 0:
        raise ValueError("stream must be >= 0")
    return int(SplitMix64(seed).u64s(stream + 1)[-1])
