"""Zero-curvature-plane criteria at the points p(theta).

A plane spanned by independent X, Y is flat at p(theta) exactly when three
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import embeddings, liealg
from .embeddings import ThetaPoint
from .quat import qconj, qmul, qnorm_sq

__all__ = [
    "EQUATION_LABELS",
    "ConditionResiduals",
    "NormalFormError",
    "conditionA_residual",
    "conditionB_residual",
    "conditionC_residual",
    "condition_basis",
    "family_forms",
    "horizontal_basis",
    "lemma_equations_residual",
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


@dataclass(frozen=True)
class ConditionResiduals:
    """Residuals of conditions (A)(B)(C) and of the thirteen equations."""

    a_res: float
    b_res: float
    c_res: float
    eq_res: dict[str, float]

    @property
    def max_abc(self) -> float:
        return max(self.a_res, self.b_res, self.c_res)

    @property
    def max_eq(self) -> float:
        return max(self.eq_res.values())


def condition_basis(pt: ThetaPoint) -> np.ndarray:
    """Coordinates (6, 21) of the conjugated h1 triple stacked over the h2 triple."""
    rows = np.concatenate([embeddings.adp_h1_basis(pt), embeddings.h2_basis()])
    return liealg.vec_sp3(rows)


def conditionA_residual(x: np.ndarray, y: np.ndarray, pt: ThetaPoint) -> np.ndarray:
    """Largest |g0| of x and y against the six generator basis elements."""
    basis = condition_basis(pt)
    pairings_x = liealg.vec_sp3(x) @ basis.T
    pairings_y = liealg.vec_sp3(y) @ basis.T
    return np.max(np.abs(np.concatenate([pairings_x, pairings_y], axis=-1)), axis=-1)


def _stacked_norm(*terms: np.ndarray) -> np.ndarray:
    total = sum(np.maximum(liealg.g0_inner(t, t), 0.0) for t in terms)
    return np.sqrt(total)


def conditionB_residual(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g0 norm of ([X, Y], [X_k, Y_k], [X_p, Y_p]) stacked."""
    xs, ys = liealg.split_kp(x), liealg.split_kp(y)
    return _stacked_norm(
        liealg.bracket(x, y),
        liealg.bracket(xs.k_part, ys.k_part),
        liealg.bracket(xs.p_part, ys.p_part),
    )


def conditionC_residual(x: np.ndarray, y: np.ndarray, pt: ThetaPoint) -> np.ndarray:
    """Same stacked norm for the k- and p-brackets of the transported pair."""
    pinv = liealg.group_inverse(pt.matrix)
    xs = liealg.split_kp(liealg.adjoint(pinv, x))
    ys = liealg.split_kp(liealg.adjoint(pinv, y))
    return _stacked_norm(
        liealg.bracket(xs.k_part, ys.k_part),
        liealg.bracket(xs.p_part, ys.p_part),
    )


def normal_form_reduce(x: np.ndarray, y: np.ndarray, pt: ThetaPoint,
                       tol: float = DEPENDENCE_TOL) -> np.ndarray:
    """Replace span{X, Y} by a normal-form pair (X' block-diagonal, Y'
    supported on the third row/column), returned as a reduced pair (7, 4).

    Requires the p parts and then the sp(2) parts to be real-dependent, which
    is what conditions (A) and (B) guarantee for candidate planes; each
    elimination coefficient is a one-dimensional least-squares fit and the
    eliminated block is checked, never trusted.
    """
    x = liealg.require_sp3(x)
    y = liealg.require_sp3(y)
    if embeddings.rho_rank(pt) != 3:
        raise NormalFormError("corner map is not surjective at this point")

    nx, ny = float(liealg.g0_norm(x)), float(liealg.g0_norm(y))
    if nx == 0.0 or ny == 0.0:
        raise NormalFormError("pair is not linearly independent")
    x = x / nx
    y = y / ny
    if liealg.normalized_gram_residual(liealg.vec_sp3(x), liealg.vec_sp3(y)) <= tol:
        raise NormalFormError("pair is not linearly independent")

    xp = liealg.split_kp(x).p_part
    yp = liealg.split_kp(y).p_part
    npx, npy = float(liealg.g0_norm(xp)), float(liealg.g0_norm(yp))
    if npx <= tol:
        first, second = x, y
    elif npy <= tol:
        first, second = y, x
    else:
        lam = float(liealg.g0_inner(xp, yp)) / npy**2
        if float(liealg.g0_norm(xp - lam * yp)) > tol * max(1.0, abs(lam)):
            raise NormalFormError(
                "p parts are linearly independent; the commutation condition fails")
        first, second = x - lam * y, y

    if float(liealg.g0_norm(first)) <= tol:
        raise NormalFormError("eliminated vector degenerates to zero")
    s2_first = liealg.sp2_project(first)
    n2_first = float(liealg.g0_norm(s2_first))
    if n2_first <= tol:
        raise NormalFormError(
            "block-diagonal vector has no sp(2) part; orthogonality would force it to zero")

    mu = float(liealg.g0_inner(liealg.sp2_project(second), s2_first)) / n2_first**2
    reduced_y = second - mu * first
    if float(liealg.g0_norm(liealg.sp2_project(reduced_y))) > tol:
        raise NormalFormError(
            "sp(2) parts are linearly independent; the commutation condition fails")

    pair = np.stack([first[0, 0], first[0, 1], first[1, 1], first[2, 2],
                     reduced_y[0, 2], reduced_y[1, 2], reduced_y[2, 2]])
    pair[_IMAGINARY_SLOTS, 0] = 0.0
    return pair


def _require_reduced_range(pt: ThetaPoint) -> tuple[float, float]:
    if not 0.0 < pt.theta < np.pi / 4.0:
        raise ValueError(f"reduced equations require theta in (0, pi/4), got {pt.theta!r}")
    return math.cos(pt.theta), math.sin(pt.theta)


def _vw(slots, c: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """R^8 coordinates (z1, z2) of the transported p projections v and w."""
    x1, x2, x3, x4, y1, y2, y3 = slots
    rotate = np.array([1.0, c * c - s * s, c * c - s * s, c * c - s * s])
    v = np.concatenate([(x1 - x4) * (c * s), qconj(x2) * (-s)], axis=-1)
    w = np.concatenate([y1 * rotate - y3 * (s * c), y2 * c], axis=-1)
    return v, w


def vw_vectors(pairs, pt: ThetaPoint) -> tuple[np.ndarray, np.ndarray]:
    """Closed forms of the transported p projections v and w of a pair stack
    (..., 7, 4), as p-summand matrices (..., 3, 3, 4)."""
    c, s = _require_reduced_range(pt)
    return tuple(_p_summand(r8[..., :4], r8[..., 4:])
                 for r8 in _vw(_pair_slots(pairs), c, s))


def _family_forms(slots, c: float, s: float) -> np.ndarray:
    x1, x2, x3, x4, y1, y2, y3 = slots
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


def family_forms(pairs, pt: ThetaPoint) -> np.ndarray:
    """Signed left-hand sides (..., 9) of the linear families (5i) to (7k),
    in `EQUATION_LABELS` order, for a pair stack (..., 7, 4)."""
    c, s = _require_reduced_range(pt)
    return _family_forms(_pair_slots(pairs), c, s)


def lemma_equations_residuals(pairs, pt: ThetaPoint) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (..., 3) of conditions (A)(B)(C) and (..., 13) of the
    thirteen equations, in `EQUATION_LABELS` order, for a pair stack
    (..., 7, 4); both vanish together on clear-cut inputs.

    (1)-(2) are quaternion norms, (3)-(4) scale-free Gram residuals and
    (5)-(7) the absolute linear forms.  (A)(B)(C) are evaluated on the
    reconstructed matrices, one batched call each.
    """
    c, s = _require_reduced_range(pt)
    slots = _pair_slots(pairs)
    x1, x2, x3, x4, y1, y2, y3 = slots
    v, w = _vw(slots, c, s)
    eq = np.concatenate([np.stack([
        np.sqrt(qnorm_sq(qmul(x1, y1) + qmul(x2, y2) - qmul(y1, x4))),
        np.sqrt(qnorm_sq(qmul(-qconj(x2), y1) + qmul(x3, y2) - qmul(y2, x4))),
        liealg.normalized_gram_residual(x4[..., 1:], y3[..., 1:]),
        liealg.normalized_gram_residual(v, w),
    ], axis=-1), np.abs(_family_forms(slots, c, s))], axis=-1)

    x, y = pair_matrices(pairs)
    abc = np.stack([
        conditionA_residual(x, y, pt),
        conditionB_residual(x, y),
        conditionC_residual(x, y, pt),
    ], axis=-1)
    return abc, eq


def lemma_equations_residual(pair, pt: ThetaPoint) -> ConditionResiduals:
    """`lemma_equations_residuals` of one pair (7, 4), with the equations
    keyed by label."""
    if np.shape(pair) != (7, 4):
        raise ValueError(f"expected one pair of shape (7, 4), got {np.shape(pair)}")
    abc, eq = lemma_equations_residuals(pair, pt)
    a_res, b_res, c_res = (float(r) for r in abc)
    return ConditionResiduals(a_res=a_res, b_res=b_res, c_res=c_res,
                              eq_res=dict(zip(EQUATION_LABELS, (float(r) for r in eq))))


def horizontal_basis(pt: ThetaPoint) -> np.ndarray:
    """Orthonormal coordinate basis (21, d) of the condition-(A) subspace."""
    return liealg.null_space(condition_basis(pt))


def _draw(rng: np.random.Generator, pair: np.ndarray, slots) -> np.ndarray:
    """Fill `slots` of `pair` in order with standard normal draws, one draw
    per slot: three for an imaginary slot, four for a full one."""
    for slot in slots:
        first = 1 if slot in _IMAGINARY_SLOTS else 0
        pair[slot, first:] = rng.standard_normal(4 - first)
    return pair


def random_reduced_pair(rng: np.random.Generator) -> np.ndarray:
    """Reduced pair (7, 4) with standard normal coordinates, drawn slot by slot."""
    return _draw(rng, np.zeros((7, 4)), range(7))


def x_side_solution(rng: np.random.Generator, pt: ThetaPoint) -> np.ndarray:
    """Reduced pair with zero Y side whose X side solves families (5)/(6) exactly."""
    c, s = math.cos(pt.theta), math.sin(pt.theta)
    pair = _draw(rng, np.zeros((7, 4)), (1, 3))
    x2, x4 = pair[1], pair[3]
    pair[0, 1:] = [
        (1.0 + 2.0 * s * s) * x4[1] / (2.0 * s * s),
        -(2.0 * _R3 * (c - 1.0) * x2[2] + c * c * x4[2]) / (s * s),
        -(2.0 * _R3 * (c - 1.0) * x2[3] + c * c * x4[3]) / (s * s),
    ]
    pair[2, 1:] = [3.0 * pair[0, 1], _R3 * x2[2], -_R3 * x2[3]]
    return pair


def y_side_solution(rng: np.random.Generator, pt: ThetaPoint) -> np.ndarray:
    """Reduced pair with zero X side whose Y side solves family (7) exactly."""
    c, s = math.cos(pt.theta), math.sin(pt.theta)
    pair = _draw(rng, np.zeros((7, 4)), (4, 5))
    y1, y2 = pair[4], pair[5]
    pair[6, 1:] = [
        4.0 * s * c * y1[1] / (1.0 + 2.0 * s * s),
        (2.0 * _R3 * s * y2[2] - 2.0 * s * c * y1[2]) / (c * c),
        (2.0 * _R3 * s * y2[3] - 2.0 * s * c * y1[3]) / (c * c),
    ]
    return pair
