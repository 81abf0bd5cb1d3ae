"""Independent reference computations used by the tests.

These deliberately avoid the library's array fast paths: matrices are read
into and built from grids of scalar Quaternion entries, matrix products are
accumulated entry by entry, and the thirteen reduced-pair equations are
written out, with the scalar Quaternion class.  The one-item loops that the
batched checks replaced are kept here too, to compare the checks against, and
so are the full residual term matrices that the exact search forms factor and
the bracket-floor sampler that orthonormalized every draw.
"""

import math

import numpy as np

from biquot import certify, liealg
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


def per_pair_quaternion_algebra(rng: np.random.Generator, pairs: int) -> float:
    """`checks.quaternion_algebra` with one cross product per pair."""
    defects = []
    for _ in range(pairs):
        a = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        prod = a * b
        defects.append(abs(prod.norm_sq() - a.norm_sq() * b.norm_sq())
                       / (a.norm_sq() * b.norm_sq()))
        resolved = a.conj() * a
        defects += [abs(resolved.re - a.norm_sq()) / a.norm_sq(),
                    abs(resolved.ci), abs(resolved.cj), abs(resolved.ck)]
        defects.append(abs((a * b).re - (b * a).re))
        ia, ib = Quaternion(0.0, a.ci, a.cj, a.ck), Quaternion(0.0, b.ci, b.cj, b.ck)
        comm = (ia * ib - ib * ia).array[1:]
        defects.append(np.max(np.abs(comm - 2.0 * np.cross(a.array[1:], b.array[1:]))))
    return float(np.max(defects))


def per_angle_kernel_two_path(points: int) -> tuple[set[int], float]:
    """`checks.kernel_two_path` with one-angle `certify.kernel_solutions`,
    `certify.kernel_reference` and `certify.reference_match` calls."""
    dims, matches = set(), []
    for theta in np.linspace(0.01, np.pi / 6.0 - 0.01, points):
        for ell, eps in certify.EPSILON_BY_ELL.items():
            dim, coords = certify.kernel_solutions(float(theta), ell)
            dims.add(int(dim))
            matches.append(certify.reference_match(
                coords, certify.kernel_reference(float(theta), eps)))
    return dims, float(np.min(matches))


def pair_terms(points, bases) -> np.ndarray:
    """All 73 residual terms (n, 105, 73) of the squared (B)+(C) residuals:
    [x, y], the k-k and p-p brackets of the pair, and the same two brackets
    of the pair moved by Ad_{p^-1}, each on wedges of the basis columns."""
    structure, k, p = certify._STRUCTURE, certify._K, certify._P
    basis = np.stack(bases)
    transport = np.swapaxes(liealg.vec_sp3(
        liealg.adjoint(liealg.group_inverse(points)[:, None], certify._UNITS)), 1, 2)
    terms = [certify._wedge_terms(basis, structure)]
    for vectors in (basis, transport @ basis):
        terms.append(certify._wedge_terms(vectors[:, k], structure[k, k, k]))
        terms.append(certify._wedge_terms(vectors[:, p], structure[p, p, k]))
    return np.concatenate(terms, axis=-1)


def bracket_terms(subspace: np.ndarray) -> np.ndarray:
    """All 21 coordinates of the bracket on wedges of the columns of `subspace`."""
    return certify._wedge_terms(subspace, certify._STRUCTURE)


def retracted_bracket_floor(subspace: np.ndarray, samples: int, seed: int,
                            refine_starts: int = 32, refine_iterations: int = 300) -> float:
    """Least squared bracket over orthonormal pairs in `subspace` that
    sampling finds, an upper bound on the minimum independent of the
    certified bound: every draw orthonormalized and scored in chunks of
    20,000, the best `refine_starts` of each chunk ranked by a full sort and
    Newton-refined, and the floor the smaller of the best sample and the
    best refined frame."""
    objective = certify._WedgeObjective(certify._bracket_form(subspace)[None])
    rng = np.random.default_rng(seed)
    best_value = math.inf
    pool_frames, pool_values = [], []
    remaining = samples
    while remaining > 0:
        count = min(20_000, remaining)
        remaining -= count
        frames = certify._retract(rng.standard_normal((count, subspace.shape[1], 2)))
        values = objective.value(frames)
        best_value = min(best_value, float(values.min()))
        keep = np.argsort(values)[:refine_starts]
        pool_frames.append(frames[keep])
        pool_values.append(values[keep])
    frames = np.concatenate(pool_frames)
    pool = frames[np.argsort(np.concatenate(pool_values))[:refine_starts]]
    refined = certify._newton_search(objective, pool, refine_iterations).value
    return min(best_value, float(refined.min()))
