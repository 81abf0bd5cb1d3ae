"""Zero-curvature-plane criteria at a point p of Sp(3).

A plane spanned by independent X, Y is flat at p exactly when three
conditions hold:

  (A) X and Y are g0-orthogonal to both generator families, the conjugated
      h1 triple and the h2 triple;
  (B) [X, Y] = [X_k, Y_k] = [X_p, Y_p] = 0;
  (C) the k- and p-brackets vanish for the pair transported by Ad_{p^{-1}}.

For pairs in normal form -- X supported on the block diagonal with entries
(x1, x2; -conj(x2), x3) and corner x4, Y supported on the third row/column
with entries (y1, y2) and corner y3 -- the three conditions reduce to the
thirteen equations evaluated by `lemma_equations_residuals`, labeled here

  (1)   x1 y1 + x2 y2 - y1 x4 = 0
  (2)   -conj(x2) y1 + x3 y2 - y2 x4 = 0
  (3)   {x4, y3} real-dependent
  (4)   {v, w} real-dependent, with v, w the closed forms of `vw_vectors`
  (5i)  3 (x1)_i - (x3)_i = 0
  (5j)  sqrt(3) (x2)_j - (x3)_j = 0
  (5k)  sqrt(3) (x2)_k + (x3)_k = 0
  (6i)  -2 s^2 (x1)_i + (1 + 2 s^2) (x4)_i = 0
  (6j)  2 sqrt(3) (c - 1) (x2)_j + s^2 (x1)_j + c^2 (x4)_j = 0
  (6k)  2 sqrt(3) (c - 1) (x2)_k + s^2 (x1)_k + c^2 (x4)_k = 0
  (7i)  -4 s c (y1)_i + (1 + 2 s^2) (y3)_i = 0
  (7j)  2 s c (y1)_j - 2 sqrt(3) s (y2)_j + c^2 (y3)_j = 0
  (7k)  2 s c (y1)_k - 2 sqrt(3) s (y2)_k + c^2 (y3)_k = 0

with c = cos(theta), s = sin(theta).  Families (5)/(6) are condition (A) on
X, family (7) is condition (A) on Y, (1)-(3) encode (B), and (4) encodes (C)
through the transported projections v = (Ad_{p^{-1}} X)_p and
w = (Ad_{p^{-1}} Y)_p.

A reduced pair is a float array of shape (7, 4): quaternion components of
(x1, x2, x3, x4, y1, y2, y3), with zero real parts in the imaginary slots
x1, x3, x4, y3.  Every equation and residual here is evaluated on stacks
(..., 7, 4) of them; `pair_matrices` rebuilds X and Y, and `vw_vectors`
returns v and w as p-summand matrices (..., 3, 3, 4).

The conditions and the normal form take a point as its matrix (3, 3, 4), at
any point of Sp(3), and `condition_basis` and `horizontal_basis` a stack of
points (..., 3, 3, 4); the equations take the angle theta.
"""

from __future__ import annotations

import math

import numpy as np

from . import embeddings, liealg
from .quat import qconj, qmul, qnorm_sq

__all__ = [
    "EQUATION_LABELS",
    "NormalFormError",
    "conditionA_residual",
    "conditionB_residual",
    "conditionC_residual",
    "condition_basis",
    "family_forms",
    "horizontal_basis",
    "lemma_equations_residuals",
    "normal_form_reduce",
    "pair_matrices",
    "random_reduced_pair",
    "vw_vectors",
    "x_side_solution",
    "y_side_solution",
]

EQUATION_LABELS = ("1", "2", "3", "4", "5i", "5j", "5k",
                   "6i", "6j", "6k", "7i", "7j", "7k")

DEPENDENCE_TOL = 1e-9
_R3 = math.sqrt(3.0)
# rows of the pair array holding purely imaginary quaternions
_IMAGINARY_SLOTS = [0, 2, 3, 6]


class NormalFormError(ValueError):
    """Raised when a pair cannot be brought to normal form."""


def _pair_slots(pairs) -> tuple[np.ndarray, ...]:
    """The seven (..., 4) slots of a validated pair stack (..., 7, 4)."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.shape[-2:] != (7, 4):
        raise ValueError(f"expected trailing shape (7, 4), got {pairs.shape}")
    if not np.all(np.isfinite(pairs)):
        raise ValueError("pair entries must be finite")
    if np.any(pairs[..., _IMAGINARY_SLOTS, 0] != 0.0):
        raise ValueError("slots x1, x3, x4, y3 must have zero real part")
    return tuple(np.moveaxis(pairs, -2, 0))


def _p_summand(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The p-summand matrix (..., 3, 3, 4) with third-column entries z1, z2."""
    out = np.zeros(z1.shape[:-1] + (3, 3, 4))
    out[..., 0, 2, :] = z1
    out[..., 1, 2, :] = z2
    out[..., 2, 0, :] = -qconj(z1)
    out[..., 2, 1, :] = -qconj(z2)
    return out


def pair_matrices(pairs) -> tuple[np.ndarray, np.ndarray]:
    """X and Y (..., 3, 3, 4) of a pair stack (..., 7, 4), in the block shapes
    fixed by the normal form."""
    x1, x2, x3, x4, y1, y2, y3 = _pair_slots(pairs)
    y = _p_summand(y1, y2)
    y[..., 2, 2, :] = y3
    x = np.zeros_like(y)
    x[..., 0, 0, :] = x1
    x[..., 0, 1, :] = x2
    x[..., 1, 0, :] = -qconj(x2)
    x[..., 1, 1, :] = x3
    x[..., 2, 2, :] = x4
    return x, y


def condition_basis(p: np.ndarray) -> np.ndarray:
    """Coordinates (..., 6, 21) of the h1 triple conjugated by each point of
    the stack p (..., 3, 3, 4), stacked over the h2 triple."""
    moved = embeddings.adp_h1_basis(p)
    h2 = np.broadcast_to(embeddings.h2_basis(), moved.shape)
    return liealg.vec_sp3(np.concatenate([moved, h2], axis=-4))


def conditionA_residual(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Largest |g0| of x and y against the six generator basis elements at p."""
    basis = condition_basis(p)
    pairings_x = liealg.vec_sp3(x) @ basis.T
    pairings_y = liealg.vec_sp3(y) @ basis.T
    return np.max(np.abs(np.concatenate([pairings_x, pairings_y], axis=-1)), axis=-1)


def _stacked_norm(*terms: np.ndarray) -> np.ndarray:
    total = sum(np.maximum(liealg.g0_inner(t, t), 0.0) for t in terms)
    return np.sqrt(total)


def conditionB_residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g0 norm of ([X, Y], [X_k, Y_k], [X_p, Y_p]) stacked."""
    (xk, xp), (yk, yp) = liealg.split_kp(x), liealg.split_kp(y)
    return _stacked_norm(
        liealg.bracket(x, y),
        liealg.bracket(xk, yk),
        liealg.bracket(xp, yp),
    )


def conditionC_residual(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Same stacked norm for the k- and p-brackets of the pair moved by Ad_{p^-1}."""
    pinv = liealg.conj_transpose(p)
    xk, xp = liealg.split_kp(liealg.adjoint(pinv, x))
    yk, yp = liealg.split_kp(liealg.adjoint(pinv, y))
    return _stacked_norm(
        liealg.bracket(xk, yk),
        liealg.bracket(xp, yp),
    )


def normal_form_reduce(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Replace span{X, Y} by a normal-form pair (X' block-diagonal, Y'
    supported on the third row/column), returned as a reduced pair (7, 4).

    Requires the p parts and then the sp(2) parts to be real-dependent, which
    is what conditions (A) and (B) guarantee for candidate planes; each
    elimination coefficient is a one-dimensional least-squares fit and the
    eliminated block is checked, never trusted, at `DEPENDENCE_TOL`.
    """
    x = liealg.require_sp3(x)
    y = liealg.require_sp3(y)
    if embeddings.rho_rank(p) != 3:
        raise NormalFormError("corner map is not surjective at this point")

    nx, ny = float(liealg.g0_norm(x)), float(liealg.g0_norm(y))
    if nx == 0.0 or ny == 0.0:
        raise NormalFormError("pair is not linearly independent")
    x = x / nx
    y = y / ny
    if liealg.normalized_gram_residual(liealg.vec_sp3(x), liealg.vec_sp3(y)) <= DEPENDENCE_TOL:
        raise NormalFormError("pair is not linearly independent")

    xp = liealg.split_kp(x)[1]
    yp = liealg.split_kp(y)[1]
    npx, npy = float(liealg.g0_norm(xp)), float(liealg.g0_norm(yp))
    if npx <= DEPENDENCE_TOL:
        first, second = x, y
    elif npy <= DEPENDENCE_TOL:
        first, second = y, x
    else:
        lam = float(liealg.g0_inner(xp, yp)) / npy**2
        if float(liealg.g0_norm(xp - lam * yp)) > DEPENDENCE_TOL * max(1.0, abs(lam)):
            raise NormalFormError(
                "p parts are linearly independent; the commutation condition fails")
        first, second = x - lam * y, y

    if float(liealg.g0_norm(first)) <= DEPENDENCE_TOL:
        raise NormalFormError("eliminated vector degenerates to zero")
    s2_first = liealg.sp2_project(first)
    n2_first = float(liealg.g0_norm(s2_first))
    if n2_first <= DEPENDENCE_TOL:
        raise NormalFormError(
            "block-diagonal vector has no sp(2) part; orthogonality would force it to zero")

    mu = float(liealg.g0_inner(liealg.sp2_project(second), s2_first)) / n2_first**2
    reduced_y = second - mu * first
    if float(liealg.g0_norm(liealg.sp2_project(reduced_y))) > DEPENDENCE_TOL:
        raise NormalFormError(
            "sp(2) parts are linearly independent; the commutation condition fails")

    pair = np.stack([first[0, 0], first[0, 1], first[1, 1], first[2, 2],
                     reduced_y[0, 2], reduced_y[1, 2], reduced_y[2, 2]])
    pair[_IMAGINARY_SLOTS, 0] = 0.0
    return pair


def _require_reduced_range(theta: float) -> tuple[float, float]:
    if np.ndim(theta) != 0:
        raise ValueError("reduced equations take one angle theta, got an array of shape "
                         f"{np.shape(theta)}")
    theta = float(embeddings._angles_in(theta, np.pi / 4.0,
                                        "reduced equations require theta in (0, pi/4)"))
    return math.cos(theta), math.sin(theta)


def _vw(slots, c: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """R^8 coordinates (z1, z2) of the transported p projections v and w."""
    x1, x2, x3, x4, y1, y2, y3 = slots
    rotate = np.array([1.0, c * c - s * s, c * c - s * s, c * c - s * s])
    v = np.concatenate([(x1 - x4) * (c * s), qconj(x2) * (-s)], axis=-1)
    w = np.concatenate([y1 * rotate - y3 * (s * c), y2 * c], axis=-1)
    return v, w


def vw_vectors(pairs, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms at p(theta) of the transported p projections v and w of a
    pair stack (..., 7, 4), as p-summand matrices (..., 3, 3, 4)."""
    c, s = _require_reduced_range(theta)
    return tuple(_p_summand(r8[..., :4], r8[..., 4:])
                 for r8 in _vw(_pair_slots(pairs), c, s))


def family_forms(pairs, theta: float) -> np.ndarray:
    """Signed left-hand sides (..., 9) of the linear families (5i) to (7k)
    at p(theta), theta in (0, pi/4), in `EQUATION_LABELS` order, for a pair
    stack (..., 7, 4)."""
    c, s = _require_reduced_range(theta)
    x1, x2, x3, x4, y1, y2, y3 = _pair_slots(pairs)
    i, j, k = 1, 2, 3
    return np.stack([
        3.0 * x1[..., i] - x3[..., i],
        _R3 * x2[..., j] - x3[..., j],
        _R3 * x2[..., k] + x3[..., k],
        -2.0 * s * s * x1[..., i] + (1.0 + 2.0 * s * s) * x4[..., i],
        2.0 * _R3 * (c - 1.0) * x2[..., j] + s * s * x1[..., j] + c * c * x4[..., j],
        2.0 * _R3 * (c - 1.0) * x2[..., k] + s * s * x1[..., k] + c * c * x4[..., k],
        -4.0 * s * c * y1[..., i] + (1.0 + 2.0 * s * s) * y3[..., i],
        2.0 * s * c * y1[..., j] - 2.0 * _R3 * s * y2[..., j] + c * c * y3[..., j],
        2.0 * s * c * y1[..., k] - 2.0 * _R3 * s * y2[..., k] + c * c * y3[..., k],
    ], axis=-1)


def lemma_equations_residuals(pairs, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (..., 3) of conditions (A)(B)(C) and (..., 13) of the
    thirteen equations at p(theta), in `EQUATION_LABELS` order, for a pair
    stack (..., 7, 4); both vanish together on clear-cut inputs.

    (1)-(2) are quaternion norms, (3)-(4) scale-free Gram residuals and
    (5)-(7) the absolute linear forms.  (A)(B)(C) are evaluated on the
    reconstructed matrices at p(theta), one batched call each.
    """
    c, s = _require_reduced_range(theta)
    slots = _pair_slots(pairs)
    x1, x2, x3, x4, y1, y2, y3 = slots
    v, w = _vw(slots, c, s)
    eq = np.concatenate([np.stack([
        np.sqrt(qnorm_sq(qmul(x1, y1) + qmul(x2, y2) - qmul(y1, x4))),
        np.sqrt(qnorm_sq(qmul(-qconj(x2), y1) + qmul(x3, y2) - qmul(y2, x4))),
        liealg.normalized_gram_residual(x4[..., 1:], y3[..., 1:]),
        liealg.normalized_gram_residual(v, w),
    ], axis=-1), np.abs(family_forms(pairs, theta))], axis=-1)

    x, y = pair_matrices(pairs)
    p = embeddings.point_p(theta)
    abc = np.stack([
        conditionA_residual(x, y, p),
        conditionB_residual(x, y),
        conditionC_residual(x, y, p),
    ], axis=-1)
    return abc, eq


def horizontal_basis(p: np.ndarray) -> np.ndarray:
    """Orthonormal coordinate bases (..., 21, d) of the condition-(A) subspaces
    at the points p (..., 3, 3, 4): the null spaces of their `condition_basis`,
    past a rank counting singular values above max(s) * eps * 21, from one
    stacked SVD that factors each matrix alone; points of different ranks raise."""
    _, svals, vt = np.linalg.svd(condition_basis(p))
    floor = svals.max(axis=-1, keepdims=True, initial=0.0) * np.finfo(float).eps * 21
    ranks = np.sum(svals > floor, axis=-1).ravel()
    if np.any(ranks != ranks[0]):
        raise ValueError(f"condition bases of ranks {sorted(set(ranks.tolist()))} in one stack")
    return np.ascontiguousarray(np.swapaxes(vt[..., ranks[0]:, :], -1, -2))


def _draw(rng: np.random.Generator, slots, size: int | None,
          theta: float | None = None) -> np.ndarray:
    """Pair (7, 4), or stack (size, 7, 4) drawn as by `size` one-pair calls,
    with standard normals in `slots` in order (three per imaginary slot, four
    per full one) and zeros elsewhere; at theta, checked before the draw,
    drawn x2, x4 then fix x1, x3 by families (5)/(6), and y1, y2 fix y3 by (7)."""
    cos_sin = None if theta is None else _require_reduced_range(theta)
    columns = [4 * slot + part for slot in slots
               for part in range(int(slot in _IMAGINARY_SLOTS), 4)]
    shape = () if size is None else (size,)
    pair = np.zeros(shape + (28,))
    pair[..., columns] = rng.standard_normal(shape + (len(columns),))
    pair = pair.reshape(shape + (7, 4))
    if cos_sin is None:
        return pair
    c, s = cos_sin
    x2, x4, y1, y2 = (pair[..., slot, :] for slot in (1, 3, 4, 5))
    if 1 in slots:
        pair[..., 0, 1:] = np.stack([
            (1.0 + 2.0 * s * s) * x4[..., 1] / (2.0 * s * s),
            -(2.0 * _R3 * (c - 1.0) * x2[..., 2] + c * c * x4[..., 2]) / (s * s),
            -(2.0 * _R3 * (c - 1.0) * x2[..., 3] + c * c * x4[..., 3]) / (s * s),
        ], axis=-1)
        pair[..., 2, 1:] = np.stack(
            [3.0 * pair[..., 0, 1], _R3 * x2[..., 2], -_R3 * x2[..., 3]], axis=-1)
    if 4 in slots:
        pair[..., 6, 1:] = np.stack([
            4.0 * s * c * y1[..., 1] / (1.0 + 2.0 * s * s),
            (2.0 * _R3 * s * y2[..., 2] - 2.0 * s * c * y1[..., 2]) / (c * c),
            (2.0 * _R3 * s * y2[..., 3] - 2.0 * s * c * y1[..., 3]) / (c * c),
        ], axis=-1)
    return pair


def random_reduced_pair(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Reduced pair (7, 4) with standard normal coordinates, drawn slot by
    slot; with `size`, a stack (size, 7, 4) of such pairs."""
    return _draw(rng, range(7), size)


def x_side_solution(rng: np.random.Generator, theta: float,
                    size: int | None = None) -> np.ndarray:
    """Reduced pair with zero Y side whose X side solves families (5)/(6)
    exactly at p(theta), theta in (0, pi/4); with `size`, a stack (size, 7, 4)."""
    return _draw(rng, (1, 3), size, theta)


def y_side_solution(rng: np.random.Generator, theta: float,
                    size: int | None = None) -> np.ndarray:
    """Reduced pair with zero X side whose Y side solves family (7) exactly at
    p(theta), theta in (0, pi/4); with `size`, a stack (size, 7, 4)."""
    return _draw(rng, (4, 5), size, theta)
