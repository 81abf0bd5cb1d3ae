"""Quaternionic matrices and the Lie algebra of 3x3 skew-Hermitian ones.

Matrices are float arrays of shape (..., n, n, 4); the trailing axis holds
(re, i, j, k) components and leading axes broadcast, so everything here runs
on batches.  Products go through the faithful complex image of a quaternionic
matrix (entrywise q = a + b*j maps to the 2x2 complex block [[a, b],
[-conj(b), conj(a)]]), which turns quaternionic matmul into complex matmul.

The invariant pairing used throughout is g0(A, B) = -Re tr(A B).  On the
skew-Hermitian 3x3 matrices it is positive definite and `vec_sp3` maps that
space isometrically onto R^21 (9 diagonal imaginary coordinates plus 12
off-diagonal ones scaled by sqrt(2)).

The splitting handled by `split_kp` keeps the upper-left 2x2 block together
with the (3,3) entry (the "k" summand) and the remaining third-row/column
entries (the "p" summand); the two summands are g0-orthogonal and satisfy the
symmetric-pair identity [X, Y]_k = [X_k, Y_k] + [X_p, Y_p].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KPDecomposition",
    "SKEW_HERMITIAN_TOL",
    "UNITARY_TOL",
    "adjoint",
    "bracket",
    "conj_transpose",
    "g0_inner",
    "g0_norm",
    "gram_residual",
    "group_inverse",
    "identity",
    "mat_mul",
    "normalized_gram_residual",
    "null_space",
    "random_sp3",
    "require_sp3",
    "skew_defect",
    "sp2_project",
    "split_kp",
    "unvec_sp3",
    "vec_sp3",
]

SKEW_HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10

_SQRT2 = np.sqrt(2.0)
_OFF_DIAG = ((0, 1), (0, 2), (1, 2))

# k keeps the upper-left 2x2 block and the (3,3) slot; p keeps the rest.
_K_MASK = np.zeros((3, 3, 1))
_K_MASK[:2, :2] = 1.0
_K_MASK[2, 2] = 1.0
_P_MASK = 1.0 - _K_MASK
_SP2_MASK = np.zeros((3, 3, 1))
_SP2_MASK[:2, :2] = 1.0


def to_complex(a: np.ndarray) -> np.ndarray:
    """Complex 2n x 2n image of an (..., n, n, 4) quaternionic matrix."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-2]
    alpha = a[..., 0] + 1j * a[..., 1]
    beta = a[..., 2] + 1j * a[..., 3]
    out = np.zeros(a.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = alpha
    out[..., 0::2, 1::2] = beta
    out[..., 1::2, 0::2] = -np.conj(beta)
    out[..., 1::2, 1::2] = np.conj(alpha)
    return out


def from_complex(c: np.ndarray) -> np.ndarray:
    """Inverse of `to_complex`; reads each entry off its top block row."""
    alpha = c[..., 0::2, 0::2]
    beta = c[..., 0::2, 1::2]
    return np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=-1)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternionic matrix product, broadcasting over leading axes."""
    return from_complex(to_complex(a) @ to_complex(b))


def conj_transpose(a: np.ndarray) -> np.ndarray:
    out = np.array(np.swapaxes(a, -3, -2), dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def identity(n: int = 3) -> np.ndarray:
    out = np.zeros((n, n, 4))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def skew_defect(a: np.ndarray) -> np.ndarray:
    """Largest componentwise violation of A + conj_transpose(A) = 0."""
    return np.max(np.abs(a + conj_transpose(a)), axis=(-3, -2, -1))


def require_sp3(a, tol: float = SKEW_HERMITIAN_TOL) -> np.ndarray:
    """Validate membership in the skew-Hermitian 3x3 algebra and return it."""
    a = np.asarray(a, dtype=float)
    if a.shape[-3:] != (3, 3, 4):
        raise ValueError(f"expected trailing shape (3, 3, 4), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    defect = np.max(skew_defect(a))
    if defect > tol:
        raise ValueError(f"matrix is not skew-Hermitian: defect {defect:.3e} > {tol:.1e}")
    return a


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator [A, B] = AB - BA."""
    ca, cb = to_complex(a), to_complex(b)
    return from_complex(ca @ cb - cb @ ca)


def g0_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bi-invariant pairing -Re tr(AB), batched over leading axes."""
    ca, cb = to_complex(a), to_complex(b)
    return -0.5 * np.real(np.einsum("...ij,...ji->...", ca, cb))


def g0_norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(g0_inner(a, a), 0.0))


@dataclass(frozen=True)
class KPDecomposition:
    """g0-orthogonal split A = k_part + p_part."""

    k_part: np.ndarray
    p_part: np.ndarray


def split_kp(a: np.ndarray) -> KPDecomposition:
    a = np.asarray(a, dtype=float)
    return KPDecomposition(k_part=a * _K_MASK, p_part=a * _P_MASK)


def sp2_project(a: np.ndarray) -> np.ndarray:
    """Projection onto the upper-left 2x2 block (the sp(2) summand)."""
    return np.asarray(a, dtype=float) * _SP2_MASK


def group_inverse(p: np.ndarray) -> np.ndarray:
    """Inverse of a unit-symplectic element, taken as the conjugate transpose."""
    return conj_transpose(p)


def adjoint(p: np.ndarray, a: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Conjugation p A p^{-1} for unit-symplectic p.

    The inverse is the conjugate transpose; p is rejected if p p* differs
    from the identity by more than `tol`.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[-2]
    cp = to_complex(p)
    gram = cp @ np.conj(np.swapaxes(cp, -2, -1))
    defect = np.max(np.abs(gram - np.eye(2 * n)))
    if defect > tol:
        raise ValueError(f"matrix is not unit-symplectic: defect {defect:.3e} > {tol:.1e}")
    return from_complex(cp @ to_complex(a) @ np.conj(np.swapaxes(cp, -2, -1)))


def vec_sp3(a: np.ndarray) -> np.ndarray:
    """g0-orthonormal coordinates in R^21 of a skew-Hermitian matrix."""
    a = np.asarray(a, dtype=float)
    parts = [a[..., 0, 0, 1:], a[..., 1, 1, 1:], a[..., 2, 2, 1:]]
    parts += [_SQRT2 * a[..., r, c, :] for r, c in _OFF_DIAG]
    return np.concatenate(parts, axis=-1)


def unvec_sp3(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 21:
        raise ValueError(f"expected trailing length 21, got {x.shape}")
    out = np.zeros(x.shape[:-1] + (3, 3, 4))
    for d in range(3):
        out[..., d, d, 1:] = x[..., 3 * d:3 * d + 3]
    for k, (r, c) in enumerate(_OFF_DIAG):
        q = x[..., 9 + 4 * k:9 + 4 * k + 4] / _SQRT2
        out[..., r, c, :] = q
        out[..., c, r, 0] = -q[..., 0]
        out[..., c, r, 1:] = q[..., 1:]
    return out


def random_sp3(rng: np.random.Generator, size=None, normalized: bool = False) -> np.ndarray:
    """Gaussian sample on the 21 orthonormal coordinates, optionally g0-normalized."""
    shape = (21,) if size is None else (size, 21)
    coords = rng.standard_normal(shape)
    if normalized:
        coords /= np.linalg.norm(coords, axis=-1, keepdims=True)
    return unvec_sp3(coords)


def gram_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram determinant |a|^2 |b|^2 - <a, b>^2 of real vectors (batched)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa = np.sum(a * a, axis=-1)
    bb = np.sum(b * b, axis=-1)
    ab = np.sum(a * b, axis=-1)
    return aa * bb - ab * ab


def normalized_gram_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram residual of a and b after scaling both by the larger norm (batched).

    Scale-free in the pair, and a pair whose smaller member is negligible
    against the larger counts as dependent; the zero pair gives 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1))[..., None]
    scale = np.where(scale == 0.0, 1.0, scale)
    return gram_residual(a / scale, b / scale)


def null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n, n - rank) of the null space of an (m, n) matrix.

    From the full SVD; singular values above max(s) * eps * max(m, n) count
    toward the rank.
    """
    a = np.asarray(a, dtype=float)
    _, svals, vt = np.linalg.svd(a)
    rank = int(np.sum(svals > svals.max(initial=0.0) * np.finfo(float).eps * max(a.shape)))
    return vt[rank:].T
