"""Independent reference computations used by the tests.

These deliberately avoid the library's array fast paths: matrices are read
into and built from grids of scalar Quaternion entries, matrix products are
accumulated entry by entry, and the thirteen reduced-pair equations are
written out, with the scalar Quaternion class.  The one-item loops that the
batched checks replaced are kept here too, to compare the checks against,
the slot-by-slot pair drawers among them, and so are the full residual term
matrices that the exact search forms factor and the bracket-floor sampler
that orthonormalized every draw.
"""

import math

import numpy as np

from biquot import certify, embeddings, liealg, zeroplane
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


def _slot_draw(rng: np.random.Generator, pair: np.ndarray, slots) -> np.ndarray:
    """Fill `slots` of `pair` in order with standard normal draws, one draw
    per slot: three for an imaginary slot, four for a full one."""
    for slot in slots:
        first = 1 if slot in (0, 2, 3, 6) else 0
        pair[slot, first:] = rng.standard_normal(4 - first)
    return pair


def slot_by_slot_random_pair(rng: np.random.Generator) -> np.ndarray:
    """`zeroplane.random_reduced_pair` drawn one slot at a time."""
    return _slot_draw(rng, np.zeros((7, 4)), range(7))


def slot_by_slot_x_side(rng: np.random.Generator, theta: float) -> np.ndarray:
    """`zeroplane.x_side_solution` drawn one slot at a time and solved in scalars."""
    c, s = math.cos(theta), math.sin(theta)
    r3 = math.sqrt(3.0)
    pair = _slot_draw(rng, np.zeros((7, 4)), (1, 3))
    x2, x4 = pair[1], pair[3]
    pair[0, 1:] = [
        (1.0 + 2.0 * s * s) * x4[1] / (2.0 * s * s),
        -(2.0 * r3 * (c - 1.0) * x2[2] + c * c * x4[2]) / (s * s),
        -(2.0 * r3 * (c - 1.0) * x2[3] + c * c * x4[3]) / (s * s),
    ]
    pair[2, 1:] = [3.0 * pair[0, 1], r3 * x2[2], -r3 * x2[3]]
    return pair


def slot_by_slot_y_side(rng: np.random.Generator, theta: float) -> np.ndarray:
    """`zeroplane.y_side_solution` drawn one slot at a time and solved in scalars."""
    c, s = math.cos(theta), math.sin(theta)
    r3 = math.sqrt(3.0)
    pair = _slot_draw(rng, np.zeros((7, 4)), (4, 5))
    y1, y2 = pair[4], pair[5]
    pair[6, 1:] = [
        4.0 * s * c * y1[1] / (1.0 + 2.0 * s * s),
        (2.0 * r3 * s * y2[2] - 2.0 * s * c * y1[2]) / (c * c),
        (2.0 * r3 * s * y2[3] - 2.0 * s * c * y1[3]) / (c * c),
    ]
    return pair


def per_pair_mixed_pairs(rng: np.random.Generator, theta: float, random: int, sides: int,
                         mixed: int) -> np.ndarray:
    """`checks.mixed_pairs` with every pair drawn on its own, slot by slot."""
    pairs = [slot_by_slot_random_pair(rng) for _ in range(random)]
    pairs += [slot_by_slot_x_side(rng, theta) for _ in range(sides)]
    pairs += [slot_by_slot_y_side(rng, theta) for _ in range(sides)]
    for _ in range(mixed):
        xs = slot_by_slot_x_side(rng, theta)
        ys = slot_by_slot_y_side(rng, theta)
        pairs.append(np.concatenate([xs[:4], ys[4:]]))
    pairs.append(np.zeros((7, 4)))
    return np.stack(pairs)


def per_angle_vw_convention(rng: np.random.Generator, angles: int,
                            margin: float) -> dict[str, float]:
    """`checks.vw_convention` with one point, one pair and one adjoint per angle."""
    defects = {"plus-sin": [], "transpose": []}
    for _ in range(angles):
        theta = rng.uniform(margin, np.pi / 4.0 - margin)
        point = embeddings.point_p(theta)
        pair = slot_by_slot_random_pair(rng)
        x, y = zeroplane.pair_matrices(pair)
        v, w = zeroplane.vw_vectors(pair, theta)
        for name, p in (("plus-sin", point), ("transpose", liealg.conj_transpose(point))):
            pinv = liealg.conj_transpose(p)
            got_v = liealg.split_kp(liealg.adjoint(pinv, x))[1]
            got_w = liealg.split_kp(liealg.adjoint(pinv, y))[1]
            defects[name] += [np.max(np.abs(got_v - v)), np.max(np.abs(got_w - w))]
    return {name: float(np.max(found)) for name, found in defects.items()}


def per_pair_linear_family_map(rng: np.random.Generator, fit: int,
                               fresh: int) -> tuple[float, float]:
    """`checks.linear_family_map` with the forms and the check one pair at a time."""
    theta = np.pi / 12.0
    basis = zeroplane.condition_basis(embeddings.point_p(theta))

    def forms(pair):
        x, y = zeroplane.pair_matrices(pair)
        px = liealg.vec_sp3(x) @ basis.T
        py = liealg.vec_sp3(y) @ basis.T
        pairings = np.concatenate([px[3:6], px[0:3], py[0:3]])
        return pairings, zeroplane.family_forms(pair, theta)

    fitted = [forms(slot_by_slot_random_pair(rng)) for _ in range(fit)]
    u = np.stack([f[0] for f in fitted])
    v = np.stack([f[1] for f in fitted])
    lmap, *_ = np.linalg.lstsq(v, u, rcond=None)
    checked = [forms(slot_by_slot_random_pair(rng)) for _ in range(fresh)]
    defect = np.max([np.max(np.abs(fv @ lmap - fu)) for fu, fv in checked])
    return float(defect), float(np.linalg.det(lmap))


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


def haar_point(seed: int) -> np.ndarray:
    """The polar factor U V^H of a quaternionic Gaussian's complex image: a
    point of Sp(3) that no angle reaches."""
    rng = np.random.default_rng(seed)
    u, _, vh = np.linalg.svd(liealg.to_complex(rng.standard_normal((3, 3, 4))))
    return liealg.from_complex(u @ vh)


def pair_terms(points, bases) -> np.ndarray:
    """All 73 residual terms (n, 105, 73) of the squared (B)+(C) residuals:
    [x, y], the k-k and p-p brackets of the pair, and the same two brackets
    of the pair moved by Ad_{p^-1}, each on wedges of the basis columns."""
    structure, k, p = certify._STRUCTURE, certify._K, certify._P
    basis = np.stack(bases)
    transport = np.swapaxes(liealg.vec_sp3(
        liealg.adjoint(liealg.conj_transpose(points)[:, None], certify._UNITS)), 1, 2)
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
    20,000 by `liealg.bracket` and `liealg.g0_inner`, the best
    `refine_starts` of each chunk ranked by a full sort and Newton-refined,
    and the floor the smaller of the best sample and the best refined
    frame."""
    objective = certify._WedgeObjective(certify._bracket_form(subspace)[None])
    rng = np.random.default_rng(seed)
    best_value = math.inf
    pool_frames, pool_values = [], []
    remaining = samples
    while remaining > 0:
        count = min(20_000, remaining)
        remaining -= count
        frames = certify._retract(rng.standard_normal((count, subspace.shape[1], 2)))
        pair = liealg.unvec_sp3(np.swapaxes(subspace @ frames, 1, 2))
        values = liealg.g0_inner(*[liealg.bracket(pair[:, 0], pair[:, 1])] * 2)
        best_value = min(best_value, float(values.min()))
        keep = np.argsort(values)[:refine_starts]
        pool_frames.append(frames[keep])
        pool_values.append(values[keep])
    frames = np.concatenate(pool_frames)
    pool = frames[np.argsort(np.concatenate(pool_values))[:refine_starts]]
    refined = certify._newton_search(objective, pool, refine_iterations)[1]
    return min(best_value, float(refined.min()))
