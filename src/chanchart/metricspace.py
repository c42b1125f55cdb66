"""Phase- and scale-invariant channel distance.

The distance between two channel vectors is

    d(h_i, h_j) = sqrt(2 - 2 |h_i^H h_j| / (||h_i|| ||h_j||))

The normalized correlation modulus discards the global phase and amplitude
of each vector, which is what makes the measure usable for neighborhood
retrieval on raw channels.  Values live in [0, sqrt(2)]: 0 for collinear
vectors (up to complex scaling), sqrt(2) for orthogonal ones.

Two evaluation routes with different accuracy/speed trade-offs:

* ``pseudo_distance`` normalizes both vectors, rotates one by the phase of
  their inner product, and takes the norm of the difference.  That chord
  construction is algebraically identical to the formula above but avoids
  the catastrophic cancellation of ``sqrt(2 - 2 corr)`` near corr = 1, so
  collinear inputs score ~1e-16 instead of ~1e-8.
* ``distance_matrix`` uses one Gram product for all pairs; fast for large
  sets, accurate to ~1e-8 *absolute* near zero distance and to full
  precision elsewhere, which is ample for neighbor ranking.
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)


class DataError(ValueError):
    """A dataset the pipeline cannot compute on, such as zero channels or too few samples."""


def pseudo_distance(h_i: np.ndarray, h_j: np.ndarray) -> float:
    """Distance between two nonzero complex vectors of equal length.

    Raises ValueError on a zero-norm input.  Symmetric in its arguments
    bit-for-bit (arguments are ordered canonically before evaluation), and
    exactly 0.0 when both arguments are the same array values.
    """
    h_i = np.asarray(h_i, dtype=np.complex128)
    h_j = np.asarray(h_j, dtype=np.complex128)
    n_i = float(np.linalg.norm(h_i))
    n_j = float(np.linalg.norm(h_j))
    if n_i == 0.0 or n_j == 0.0:
        raise ValueError("pseudo_distance undefined for zero-norm input")
    # canonical argument order makes d(h, g) == d(g, h) exactly
    if (n_i, h_i.tobytes()) > (n_j, h_j.tobytes()):
        h_i, h_j, n_i, n_j = h_j, h_i, n_j, n_i
    u = h_i / n_i
    v = h_j / n_j
    ip = complex(np.vdot(u, v))
    mod = abs(ip)
    if mod == 0.0:
        return SQRT2
    # rotate u onto v's phase; the chord |v - e^{j arg(ip)} u| equals
    # sqrt(2 - 2|ip|) without subtracting nearly equal quantities
    return min(float(np.linalg.norm(v - (ip / mod) * u)), SQRT2)


def distance_matrix(rows: np.ndarray) -> np.ndarray:
    """Pairwise pseudo-distance matrix of the given channel rows.

    `rows` is an (n, m) complex array.  The result is an (n, n) float array
    with zero diagonal, exactly symmetric: each unordered pair is computed
    once (upper triangle) and mirrored.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of channel rows")
    norms = np.linalg.norm(rows, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"zero-norm channel row at index {int(zero[0])}")
    gram = rows.conj() @ rows.T
    corr = np.abs(gram) / np.outer(norms, norms)
    np.clip(corr, None, 1.0, out=corr)
    upper = np.triu(np.sqrt(2.0 - 2.0 * corr), 1)  # corr <= 1, so never sqrt(< 0)
    return upper + upper.T
