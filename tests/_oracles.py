"""Independent reference computations used by the tests.

These deliberately avoid the library's array fast paths: matrices are read
into and built from grids of scalar Quaternion entries, matrix products are
accumulated entry by entry, and the thirteen reduced-pair equations are
written out, with the scalar Quaternion class.
"""

import math

import numpy as np

from biquot.quat import Quaternion


def mat_from_quaternions(rows) -> np.ndarray:
    """Build a component array from a nested grid of Quaternion-like entries.

    Entries may be Quaternion instances, scalars (treated as real), or
    length-4 component sequences.
    """
    def comp(q):
        if isinstance(q, Quaternion):
            return q.array
        if np.isscalar(q):
            return np.array([float(q), 0.0, 0.0, 0.0])
        return np.asarray(q, dtype=float)

    return np.stack([np.stack([comp(q) for q in row]) for row in rows])


def to_quaternion_entries(a: np.ndarray) -> list[list[Quaternion]]:
    """Entry grid of a single (n, n, 4) matrix as Quaternion scalars."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-3]
    return [[Quaternion.from_array(a[r, c]) for c in range(n)] for r in range(n)]


def scalar_mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    qa = to_quaternion_entries(np.asarray(a, dtype=float))
    qb = to_quaternion_entries(np.asarray(b, dtype=float))
    n = len(qa)
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = Quaternion()
            for k in range(n):
                acc = acc + qa[r][k] * qb[k][c]
            row.append(acc)
        rows.append(row)
    return mat_from_quaternions(rows)


def scalar_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scalar_mat_mul(a, b) - scalar_mat_mul(b, a)


def scalar_g0(a: np.ndarray, b: np.ndarray) -> float:
    prod = to_quaternion_entries(scalar_mat_mul(a, b))
    return -sum(prod[d][d].re for d in range(len(prod)))


def _scaled_gram(a, b) -> float:
    """Gram residual of two component sequences after scaling both by the
    larger norm; 0 for the zero pair."""
    scale = max(math.sqrt(sum(t * t for t in a)), math.sqrt(sum(t * t for t in b)))
    if scale == 0.0:
        return 0.0
    a = [t / scale for t in a]
    b = [t / scale for t in b]
    ab = sum(p * q for p, q in zip(a, b))
    return sum(t * t for t in a) * sum(t * t for t in b) - ab * ab


def _components(q) -> list[float]:
    return [q.re, q.ci, q.cj, q.ck]


def scalar_lemma_equations(pair, theta: float) -> list[float]:
    """The thirteen equation residuals of a reduced pair (7, 4), in label
    order, written out with scalar quaternions."""
    c, s = math.cos(theta), math.sin(theta)
    r3 = math.sqrt(3.0)
    x1, x2, x3, x4, y1, y2, y3 = (Quaternion.from_array(pair[slot]) for slot in range(7))

    v = _components((x1 - x4) * (c * s)) + _components(x2.conj() * (-s))
    w = _components(Quaternion(y1.re, 0.0, 0.0, 0.0)
                    + Quaternion(0.0, y1.ci, y1.cj, y1.ck) * (c * c - s * s) - y3 * (s * c))
    w += _components(y2 * c)
    return [
        abs(x1 * y1 + x2 * y2 - y1 * x4),
        abs(-x2.conj() * y1 + x3 * y2 - y2 * x4),
        _scaled_gram(_components(x4), _components(y3)),
        _scaled_gram(v, w),
        abs(3.0 * x1.ci - x3.ci),
        abs(r3 * x2.cj - x3.cj),
        abs(r3 * x2.ck + x3.ck),
        abs(-2.0 * s * s * x1.ci + (1.0 + 2.0 * s * s) * x4.ci),
        abs(2.0 * r3 * (c - 1.0) * x2.cj + s * s * x1.cj + c * c * x4.cj),
        abs(2.0 * r3 * (c - 1.0) * x2.ck + s * s * x1.ck + c * c * x4.ck),
        abs(-4.0 * s * c * y1.ci + (1.0 + 2.0 * s * s) * y3.ci),
        abs(2.0 * s * c * y1.cj - 2.0 * r3 * s * y2.cj + c * c * y3.cj),
        abs(2.0 * s * c * y1.ck - 2.0 * r3 * s * y2.ck + c * c * y3.ck),
    ]
