"""Subalgebra embeddings and the one-parameter family of base points.

`phi3_alg` is the real-linear map sending an imaginary quaternion
t = t_i i + t_j j + t_k k to

    [[3 t_i i,                sqrt(3)(t_j j + t_k k)],
     [sqrt(3)(t_j j + t_k k), -t_i i - 2 t_j j + 2 t_k k]]

which is a Lie-algebra homomorphism into the 2x2 skew-Hermitian matrices.
`h1_elem` places that block in the upper-left corner with the raw t in the
(3,3) slot; `h2_elem` uses a zero corner instead.  `point_p(theta)` is the
rotation by theta in the (1,3) coordinate plane, with +sin(theta) in the
(1,3) entry; `adp_h1_basis` conjugates the h1 generators by it.

A generator triple is one float array of shape (3, 3, 3, 4): the images of
the imaginary units i, j, k, in that order, each a 3x3 quaternionic matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import liealg

__all__ = [
    "ThetaPoint",
    "adp_h1_basis",
    "adp_h1_closed_form",
    "h1_basis",
    "h1_elem",
    "h2_basis",
    "h2_elem",
    "p_matrix",
    "phi3_alg",
    "point_p",
    "rho",
    "rho_rank",
]

RANK_SV_TOL = 1e-9
POINT_UNITARY_TOL = 1e-12


def _im_components(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape[-1] != 3:
        raise ValueError(f"expected trailing length 3 of (i, j, k) components, got {t.shape}")
    return t


def phi3_alg(t) -> np.ndarray:
    """Irreducible image of an imaginary quaternion in the 2x2 algebra.

    Accepts an (..., 3) array of (i, j, k) components and broadcasts; the
    result has trailing shape (2, 2, 4).
    """
    c = _im_components(t)
    ti, tj, tk = c[..., 0], c[..., 1], c[..., 2]
    zero = np.zeros_like(ti)
    r3 = np.sqrt(3.0)
    off = np.stack([zero, zero, r3 * tj, r3 * tk], axis=-1)
    top = np.stack([zero, 3.0 * ti, zero, zero], axis=-1)
    bottom = np.stack([zero, -ti, -2.0 * tj, 2.0 * tk], axis=-1)
    row0 = np.stack([top, off], axis=-2)
    row1 = np.stack([off, bottom], axis=-2)
    return np.stack([row0, row1], axis=-3)


def _embed_block(block: np.ndarray, corner: np.ndarray) -> np.ndarray:
    out = np.zeros(block.shape[:-3] + (3, 3, 4))
    out[..., :2, :2, :] = block
    out[..., 2, 2, 1:] = corner
    return out


def h1_elem(t) -> np.ndarray:
    """phi3 block in the upper-left corner, raw t in the (3,3) slot."""
    c = _im_components(t)
    return _embed_block(phi3_alg(c), c)


def h2_elem(t) -> np.ndarray:
    """phi3 block in the upper-left corner, zero (3,3) slot."""
    c = _im_components(t)
    return _embed_block(phi3_alg(c), np.zeros_like(c))


def _constant_triple(elem) -> np.ndarray:
    triple = elem(np.eye(3))
    triple.setflags(write=False)
    return triple


@functools.cache
def h1_basis() -> np.ndarray:
    """The h1 generator triple (3, 3, 3, 4), built once; the array is read-only."""
    return _constant_triple(h1_elem)


@functools.cache
def h2_basis() -> np.ndarray:
    """The h2 generator triple (3, 3, 3, 4), built once; the array is read-only."""
    return _constant_triple(h2_elem)


def p_matrix(theta) -> np.ndarray:
    """Rotation by theta in the (1,3) coordinate plane, batched over theta."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    zero = np.zeros_like(c)
    one = np.ones_like(c)
    out = np.zeros(theta.shape + (3, 3, 4))
    out[..., 0, 0, 0] = c
    out[..., 0, 2, 0] = s
    out[..., 1, 1, 0] = one
    out[..., 2, 0, 0] = -s
    out[..., 2, 2, 0] = c
    out[..., 0, 1, 0] = zero
    return out


@dataclass(frozen=True)
class ThetaPoint:
    """Group element p(theta) together with its angle in radians."""

    theta: float
    matrix: np.ndarray


def point_p(theta: float) -> ThetaPoint:
    """Construct p(theta); only theta in the open interval (0, pi/2) is accepted."""
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2.0:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    matrix = p_matrix(theta)
    gram = liealg.mat_mul(matrix, liealg.conj_transpose(matrix))
    if np.max(np.abs(gram - liealg.identity())) > POINT_UNITARY_TOL:
        raise ValueError("constructed point failed the unitarity check")
    return ThetaPoint(theta=theta, matrix=matrix)


def adp_h1_basis(pt: ThetaPoint) -> np.ndarray:
    """h1 generator triple (3, 3, 3, 4) conjugated by p(theta), computed as
    matrix products."""
    return liealg.adjoint(pt.matrix, h1_basis())


def adp_h1_closed_form(pt: ThetaPoint, t) -> np.ndarray:
    """Entrywise closed form of the conjugated h1 generator at imaginary t."""
    c, s = np.cos(pt.theta), np.sin(pt.theta)
    comp = _im_components(t)
    ti, tj, tk = comp[..., 0], comp[..., 1], comp[..., 2]
    zero = np.zeros_like(ti)
    r3 = np.sqrt(3.0)

    def q(i_part, j_part, k_part):
        return np.stack([zero, i_part, j_part, k_part], axis=-1)

    e00 = q(3.0 * c * c * ti + s * s * ti, s * s * tj, s * s * tk)
    e01 = q(zero, r3 * c * tj, r3 * c * tk)
    e02 = q(-2.0 * c * s * ti, c * s * tj, c * s * tk)
    e11 = q(-ti, -2.0 * tj, 2.0 * tk)
    e12 = q(zero, -r3 * s * tj, -r3 * s * tk)
    e22 = q(3.0 * s * s * ti + c * c * ti, c * c * tj, c * c * tk)
    row0 = np.stack([e00, e01, e02], axis=-2)
    row1 = np.stack([e01, e11, e12], axis=-2)
    row2 = np.stack([e02, e12, e22], axis=-2)
    return np.stack([row0, row1, row2], axis=-3)


def rho(a: np.ndarray) -> np.ndarray:
    """(3,3) entry of a matrix, as quaternion components."""
    return np.asarray(a, dtype=float)[..., 2, 2, :]


def rho_rank(pt: ThetaPoint) -> int:
    """Rank of t -> rho(Ad_p h1(t)) as a real-linear map into R^3."""
    columns = rho(adp_h1_basis(pt))[:, 1:].T
    svals = np.linalg.svd(columns, compute_uv=False)
    return int(np.sum(svals > RANK_SV_TOL))
