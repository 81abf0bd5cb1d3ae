"""Endpoint certification and the independent residual search.

The algebraic pipeline reduces a candidate flat plane at p(theta), with all
coordinates confined to a single imaginary axis ell in {j, k}, to a 6x7
homogeneous linear system.  `kernel_solution` extracts its null space by
singular value decomposition, `kernel_reference` evaluates the closed-form
null vector, and `sign_certificate` checks that the surviving line violates
the one remaining quadratic equation, which rules the plane out.  The sign
convention baked into the system's fourth row is epsilon = +1 for ell = j
and -1 for ell = k.

`search_zero_plane` is the independent numerical check: it minimizes the
squared commutation residuals of conditions (B) and (C) over 2-planes inside
the condition-(A) subspace, so a flat plane would show up as a (near-)zero
minimum.  Every residual term is an antisymmetric bilinear bracket, so the
objective is a fixed real quadratic form in the wedge x ^ y, built once per
angle from the sp(3) structure constants and folded into antisymmetric
matrices A_k with residuals x^T A_k y.  That makes the Riemannian gradient
and Hessian on the Grassmannian Gr(2, 15) cheap and explicit, and each start
runs a Riemannian Newton method with a per-frame Levenberg shift until its
gradient norm falls below `GRAD_TOL`, it stalls, or it reaches the
iteration cap.  `search_zero_planes` runs that search for many angles as
one batched descent.  `bracket_floor` refines its sampled minima of the same
kind of form, the squared bracket on a subspace, with the same method, to
certify positive bracket floors, the computable form of "commuting implies
dependent".

Each objective pass cuts the rows of the frames that share a form into
zero-padded blocks of at most `_BLOCK` rows, a whole number of `_TILE`-row
tiles, and multiplies every block by its operand in one stacked matmul: one
gemm per block, small enough that OpenBLAS keeps it on the calling thread,
and never a gemv, even for a lone frame; sum_k r_k A_k takes the residual
rows four at a time as the columns of one gemm.  Every other product, and
the Cholesky factorizations of the shifted Hessians, runs one frame at a
time inside a stacked call.  A frame's values, and so its whole trajectory,
then do not depend on the batch it is evaluated in.  The retraction onto
orthonormal 2-frames is a closed-form Gram-Schmidt step.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import liealg
from .embeddings import ThetaPoint, point_p, rho_rank
from .liealg import unvec_sp3
from .zeroplane import horizontal_basis

__all__ = [
    "Certificate",
    "IdentityCheck",
    "KernelSolution",
    "SearchReport",
    "berger_complement_basis",
    "bracket_floor",
    "build_linear_system",
    "certify_theta",
    "identity_suite",
    "kernel_reference",
    "kernel_solution",
    "p_subspace_basis",
    "reference_match",
    "search_zero_plane",
    "search_zero_planes",
    "sign_certificate",
]

EPSILON_BY_ELL = {"j": 1.0, "k": -1.0}
KERNEL_SV_TOL = 1e-10
KERNEL_GAP_TOL = 1e-6
KERNEL_MATCH_MIN = 1.0 - 1e-8
VERDICT_POSITIVE = "positive"
VERDICT_INCONCLUSIVE = "inconclusive"

_R3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Linear endpoint system and its kernel
# ---------------------------------------------------------------------------

def _epsilon(ell: str) -> float:
    try:
        return EPSILON_BY_ELL[ell]
    except KeyError:
        raise ValueError(f"axis label must be 'j' or 'k', got {ell!r}") from None


def build_linear_system(theta: float, ell: str) -> np.ndarray:
    """6x7 coefficient matrix of the single-axis equations at p(theta).

    Columns are ordered (x1, x2, x3, x4, y1, y2, y3); rows are the linearized
    equation (2), the two scale rows (4.1)/(4.2), and the ell rows of
    families (5), (6) and (7).
    """
    eps = _epsilon(ell)
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2.0:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    if c == 0.0:
        raise ValueError("cos(theta) vanishes; the system is undefined")
    t = s / c
    return np.array([
        [0.0, 0.0, -t, t, -1.0, 0.0, 0.0],
        [c * s, 0.0, 0.0, -c * s, s * s - c * c, 0.0, c * s],
        [0.0, t, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, _R3, eps, 0.0, 0.0, 0.0, 0.0],
        [s * s, 2.0 * _R3 * (c - 1.0), 0.0, c * c, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 2.0 * s * c, -2.0 * _R3 * s, c * c],
    ])


def kernel_reference(theta, epsilon: float) -> np.ndarray:
    """Closed-form null vector of the single-axis system, batched over theta.

    Component order matches `build_linear_system`; the gauge has
    (x2) = -sqrt(3) cos(theta).
    """
    if epsilon not in (1.0, -1.0, 1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon!r}")
    eps = float(epsilon)
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    t = np.tan(theta)
    return np.stack([
        -3.0 * c * ((2.0 + eps) * c**2 - 4.0 * c + 2.0),
        -_R3 * c,
        3.0 * eps * c,
        -3.0 * (c - 1.0) * ((2.0 + eps) * c**2 + (eps - 2.0) * c - 2.0),
        -3.0 * t * ((2.0 + eps) * c**3 - 4.0 * c**2 + 2.0),
        -_R3 * s,
        6.0 * t**2 * ((2.0 + eps) * c**3 - 4.0 * c**2 + 1.0),
    ], axis=-1)


@dataclass(frozen=True)
class KernelSolution:
    """Gauge-normalized null vector of the single-axis system."""

    ell: str
    epsilon: float
    coords: np.ndarray


def kernel_solution(theta: float, ell: str) -> tuple[int, KernelSolution]:
    """Null-space dimension and gauge-normalized basis vector, via SVD.

    The dimension counts, at tolerance 1e-10, the vanishing entries of the
    seven-value spectrum of the system as a map on R^7 (six computed singular
    values plus the structural zero).  The count is only trustworthy with a
    gap above it, so a second-smallest computed singular value below 1e-6 is
    reported as an error.
    """
    eps = _epsilon(ell)
    matrix = build_linear_system(theta, ell)
    _, svals, vt = np.linalg.svd(matrix)
    if svals[4] < KERNEL_GAP_TOL:
        raise ValueError(
            f"ill-conditioned null-space gap: fifth singular value {svals[4]:.3e}")
    spectrum = np.append(svals, 0.0)
    dimension = int(np.sum(spectrum <= KERNEL_SV_TOL))
    vector = vt[-1]
    gauge = -_R3 * math.cos(theta)
    if abs(vector[1]) < 1e-12 * np.linalg.norm(vector):
        raise ValueError("kernel vector has no (x2) component; gauge undefined")
    coords = vector * (gauge / vector[1])
    return dimension, KernelSolution(ell=ell, epsilon=eps, coords=coords)


def reference_match(theta: float, solution: KernelSolution) -> float:
    """|cosine| between a kernel vector and the closed form on its axis."""
    reference = kernel_reference(theta, solution.epsilon)
    denom = np.linalg.norm(solution.coords) * np.linalg.norm(reference)
    return float(abs(solution.coords @ reference) / denom)


def reduced_pair_from_axis(coords: np.ndarray, ell: str) -> np.ndarray:
    """Reduced pair (7, 4) whose seven coordinates all sit on the imaginary axis ell."""
    _epsilon(ell)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (7,):
        raise ValueError(f"expected 7 axis coordinates, got shape {coords.shape}")
    pair = np.zeros((7, 4))
    pair[:, {"j": 2, "k": 3}[ell]] = coords
    return pair


def sign_certificate(theta: float) -> bool:
    """True when, on both axis lines, the kernel forces y1 (x1 - x4) < 0.

    All kernel components sit on the axis ell, so the quaternion product
    y1 (x1 - x4) equals minus the product of the real components; it is a
    negative real exactly when that component product is positive.  Equation
    (1) would force the same quantity to be +tan(theta) |x2|^2 > 0, so a
    True certificate leaves no nonzero single-axis solution.
    """
    theta = float(theta)
    if not 0.0 < theta < np.pi / 6.0:
        raise ValueError(f"sign certificate is stated on (0, pi/6), got {theta!r}")
    for eps in (1.0, -1.0):
        ref = kernel_reference(theta, eps)
        if not ref[4] * (ref[0] - ref[3]) > 0.0:
            return False
    return True


# ---------------------------------------------------------------------------
# Scalar identities used by the elimination chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


def _open_grid(lo: float, hi: float, n: int = 10000) -> np.ndarray:
    return np.linspace(lo, hi, n + 2)[1:-1]


def identity_suite() -> list[IdentityCheck]:
    """Grid and coefficient checks for the scalar facts the elimination uses."""
    checks = []

    target = np.array([2, -3, 0, 1])
    coeffs = np.convolve(np.array([1, -2, 1]), np.array([2, 1]))
    checks.append(IdentityCheck(
        name="factorization-coefficients",
        passed=bool(np.array_equal(coeffs, target)),
        detail=f"(c-1)^2 (2c+1) expands to coefficients {tuple(coeffs)}",
    ))

    grid6 = _open_grid(0.0, np.pi / 6.0)
    f = np.cos(grid6) ** 2 - 3.0 * np.sin(grid6) ** 2
    boundary = math.cos(np.pi / 6.0) ** 2 - 3.0 * math.sin(np.pi / 6.0) ** 2
    checks.append(IdentityCheck(
        name="v-nonvanishing-positivity",
        passed=bool(np.all(f > 0.0) and abs(boundary) <= 1e-6),
        detail=f"min(cos^2 - 3 sin^2) = {f.min():.6e}, value at pi/6 = {boundary:.3e}",
    ))

    g = 1.0 - 4.0 * np.sin(grid6) ** 2
    gb = 1.0 - 4.0 * math.sin(np.pi / 6.0) ** 2
    checks.append(IdentityCheck(
        name="i-component-positivity",
        passed=bool(np.all(g > 0.0) and abs(gb) <= 1e-6),
        detail=f"min(1 - 4 sin^2) = {g.min():.6e}, value at pi/6 = {gb:.3e}",
    ))

    def cubic(c):
        return 2.0 * c**3 - 3.0 * c**2 + 1.0

    h = cubic(np.cos(grid6))
    hb = cubic(math.cos(0.0))
    checks.append(IdentityCheck(
        name="factorization-positivity",
        passed=bool(np.all(h > 0.0) and abs(hb) <= 1e-6),
        detail=f"min(2c^3 - 3c^2 + 1) = {h.min():.6e}, value at 0 = {hb:.3e}",
    ))

    grid4 = _open_grid(0.0, np.pi / 4.0)
    c4, s4 = np.cos(grid4), np.sin(grid4)
    lhs = c4 * s4 / (c4**2 - s4**2)
    rhs = s4 / c4
    checks.append(IdentityCheck(
        name="scale-identity-coefficients",
        passed=bool(np.all(lhs > 0.0) and np.all(rhs > 0.0)),
        detail=f"min lhs coeff = {lhs.min():.6e}, min rhs coeff = {rhs.min():.6e}",
    ))

    return checks


# ---------------------------------------------------------------------------
# Bracket residuals as quadratic forms on wedges, and a batched Riemannian
# Newton search over 2-planes
# ---------------------------------------------------------------------------

# Structure constants of sp(3) on the g0-orthonormal coordinates of R^21:
# [e_i, e_j] = sum_k _STRUCTURE[i, j, k] e_k.  Coordinates 0..12 span the k
# summand and 13..20 the p summand; [k, k] and [p, p] both lie in k.
_UNITS = unvec_sp3(np.eye(21))
_STRUCTURE = liealg.vec_sp3(liealg.bracket(_UNITS[:, None], _UNITS[None, :]))
_K, _P = slice(0, 13), slice(13, 21)


def _wedge_terms(vectors: np.ndarray, structure: np.ndarray) -> np.ndarray:
    """Rows a < b of [v_a, v_b] for the columns v_a of `vectors` (..., dim,
    count), so that the bracket of x = V u and y = V v is (u ^ v) times this
    matrix; leading axes are a stack of independent bases."""
    dim, count = vectors.shape[-2:]
    columns = np.swapaxes(vectors, -1, -2)
    half = (columns @ structure.reshape(dim, -1)).reshape(columns.shape[:-1] + (dim, -1))
    a, b = np.triu_indices(count, 1)
    return (columns[..., None, :, :] @ half)[..., a, b, :]


def _compress(terms: np.ndarray) -> np.ndarray:
    """Factor L of rank r with L L^T = terms terms^T, from a thin SVD."""
    left, svals, _ = np.linalg.svd(terms, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * max(terms.shape) * np.finfo(float).eps))
    return left[:, :rank] * svals[:rank]


def _pair_forms(points: list[ThetaPoint], bases: list[np.ndarray]) -> list[np.ndarray]:
    """Forms of the squared (B)+(C) residuals at the points `points`, each on
    wedges of the columns of its basis in `bases`.

    The terms are [x, y], the k-k and p-p brackets of the pair, and the same
    two brackets of the pair moved by Ad_{p^-1}.  The points go through
    every product as one stack, and each form equals the one its point
    alone gives.
    """
    matrices = np.stack([pt.matrix for pt in points])
    basis = np.stack(bases)
    transport = np.swapaxes(liealg.vec_sp3(
        liealg.adjoint(liealg.group_inverse(matrices)[:, None], _UNITS)), 1, 2)
    terms = [_wedge_terms(basis, _STRUCTURE)]
    for vectors in (basis, transport @ basis):
        terms.append(_wedge_terms(vectors[:, _K], _STRUCTURE[_K, _K, _K]))
        terms.append(_wedge_terms(vectors[:, _P], _STRUCTURE[_P, _P, _K]))
    return [_compress(stack) for stack in np.concatenate(terms, axis=-1)]


# Most rows per gemm call in `_WedgeObjective`, and the tile that every
# call's row count is a multiple of; the class docstring gives the reasons.
_BLOCK = 32
_TILE = 4
# Most frames per pass of `_WedgeObjective.value` and `.model`.  They bound
# the temporaries: bracket_floor samples 20,000 frames in one call, and a
# model pass holds about 40 kB per pair frame.
_VALUE_FRAMES = 1024
_MODEL_FRAMES = 32


class _WedgeObjective:
    """Squared norm |(x ^ y) L|^2 of orthonormal coordinate pairs (x, y),
    batched over frames that may use different forms L, with its Riemannian
    gradient and Hessian as a function of the plane span(x, y).

    Every residual the searches minimize is a sum of squared brackets, each
    bilinear and antisymmetric in the pair, so it is a fixed quadratic form
    in the wedge coordinates x_a y_b - x_b y_a (a < b).  Column k of L is
    folded once into the antisymmetric matrix A_k, so the residuals are
    r_k = x^T A_k y, and the products A_k x and A_k y give the value, the
    gradient and the Gauss-Newton part of the Hessian.  The methods take
    `group`, the index of each frame's form (form 0 for all when None);
    forms of lower rank are padded with zero columns.

    The x and y rows of the frames that share a form are cut into blocks of
    equal height, at most `_BLOCK` rows and a multiple of `_TILE`, padded
    with zero rows.  One stacked matmul then takes every block times its
    operand, which numpy runs as one gemm per block.  For sum_k r_k A_k the
    residual rows go in as the columns of a gemm with the (d^2, K) operand,
    always exactly `_TILE` of them, one whole column tile.  A search compares
    a frame's values across calls with different live frames, so a frame's
    row must not depend on the batch it is evaluated in.  Three facts of
    OpenBLAS shape the blocks:

    - a gemm above a size threshold is split over threads, whose workers
      then spin and cost CPU time, not wall time; a 400-row product can
      cross it, a (32, 15) @ (15, 705) block does not, so the block size
      is a constant, not a function of the batch;
    - the rows of a partial 4-row tile round differently from those of a
      full one, and numpy sends a one-row product to gemv, which rounds
      differently again, so every block is padded to whole tiles and a lone
      row stays on gemm; columns behave alike, and a gemm with exactly four
      columns gives each column the same result whatever the other three
      hold, which wider column blocks do not;
    - a transposed operand rounds differently too, so every operand is
      stored contiguous.
    """

    def __init__(self, forms):
        wedges = len(forms[0])
        self.dim = dim = math.isqrt(2 * wedges) + 1
        self.rank = rank = max(form.shape[1] for form in forms)
        a, b = np.triu_indices(dim, 1)
        products = np.zeros((len(forms), dim, dim, rank))
        for out, form in zip(products, forms):
            out[b, a, :form.shape[1]] = form
            out[a, b, :form.shape[1]] = -form
        # v @ products[f] lists (A_k v)_a at column a * rank + k, and
        # matrices[f] @ r lists sum_k r_k A_k, transposed, row by row
        self.products = products.reshape(len(forms), dim, dim * rank)
        self.matrices = products.reshape(len(forms), dim * dim, rank)

    def _apply(self, rows: np.ndarray, group, operands: np.ndarray,
               columns: bool = False) -> np.ndarray:
        """rows[i] @ operands[group[i]] (operands[0] when group is None),
        through the zero-padded blocks, or with `columns` the products
        operands[group[i]] @ rows[i], the rows taken as the columns of
        one gemm per whole tile of `_TILE` rows; only the span of forms
        that the rows use is multiplied."""
        count, width = rows.shape
        if group is None:
            operands, sizes = operands[:1], np.array([count])
        else:
            low = int(group.min())
            group = group - low
            sizes = np.bincount(group)
            operands = operands[low:low + len(sizes)]
        tallest = int(sizes.max())
        if columns:
            height = _TILE
            stride = -(-tallest // _TILE) * _TILE
        else:
            height = min(_BLOCK, -(-tallest // _TILE) * _TILE)
            stride = -(-tallest // height) * height
        blocks = np.zeros((len(operands), stride // height, height, width))
        flat = blocks.reshape(-1, width)
        if group is None:
            at = slice(0, count)
        else:
            # the rows of form g take rows g * stride, g * stride + 1, ...
            at = np.empty(count, dtype=np.intp)
            at[np.argsort(group, kind="stable")] = np.arange(count) + np.repeat(
                np.arange(len(sizes)) * stride - (np.cumsum(sizes) - sizes), sizes)
        flat[at] = rows
        if columns:
            tiles = np.ascontiguousarray(np.swapaxes(blocks, 2, 3))
            out = np.swapaxes(operands[:, None] @ tiles, 2, 3)
        else:
            out = blocks @ operands[:, None]
        return out.reshape(-1, out.shape[-1])[at]

    def _group(self, group):
        return None if group is None or len(self.products) == 1 else np.asarray(group, np.intp)

    def value(self, coords: np.ndarray, group=None) -> np.ndarray:
        """Objective at the frames `coords` (n, d, 2)."""
        group = self._group(group)
        out = np.empty(len(coords))
        for first in range(0, len(coords), _VALUE_FRAMES):
            part = slice(first, first + _VALUE_FRAMES)
            ay = self._apply(coords[part, :, 1], None if group is None else group[part],
                             self.products)
            res = (coords[part, None, :, 0] @ ay.reshape(-1, self.dim, self.rank))[:, 0]
            out[part] = np.square(res).sum(axis=-1)
        return out

    def model(self, coords: np.ndarray, group=None):
        """Value, Riemannian gradient and Riemannian Hessian of the objective
        on the planes spanned by `coords`, and the orthonormal complements
        of the planes that the last two are written in (see `_tangent`).

        With Q the complement and T the rows q_i^T A_k x, then q_i^T A_k y,
        the gradient is 2 T r and the Hessian is 2 T T^T plus the
        second-order term 2 [[0, C], [-C, 0]], C = Q^T (sum_k r_k A_k) Q,
        minus twice the value (the Grassmann correction, since the
        Euclidean gradient has X^T grad = 2 value I).
        """
        count, dim = len(coords), self.dim
        size = 2 * (dim - 2)
        group = self._group(group)
        value, grad = np.empty(count), np.empty((count, size))
        hess = np.empty((count, size, size))
        # LAPACK's complete QR, one frame at a time: columns 2.. are an
        # orthonormal basis of the complement of the plane
        comp = np.linalg.qr(coords, mode="complete")[0][..., 2:]
        for first in range(0, count, _MODEL_FRAMES):
            part = slice(first, first + _MODEL_FRAMES)
            part_group = None if group is None else group[part]
            frames, basis = coords[part], comp[part]
            rows = np.swapaxes(frames, 1, 2).reshape(-1, dim)
            prods = self._apply(rows, None if part_group is None else np.repeat(part_group, 2),
                                self.products).reshape(len(frames), 2, dim, self.rank)
            res = (frames[:, None, :, 0] @ prods[:, 1])[:, 0]
            value[part] = np.square(res).sum(axis=-1)
            basis_t = np.swapaxes(basis, 1, 2)
            jac = (basis_t[:, None] @ prods).reshape(len(frames), size, self.rank)
            grad[part] = 2.0 * (jac @ res[..., None])[..., 0]
            # matrices @ r gives the transpose of the antisymmetric sum_k r_k A_k
            gmat = self._apply(res, part_group, self.matrices, columns=True)
            curv = -(basis_t @ gmat.reshape(len(frames), dim, dim) @ basis)
            block = hess[part]
            np.matmul(jac, np.ascontiguousarray(np.swapaxes(jac, 1, 2)), out=block)
            block[:, :dim - 2, dim - 2:] += curv
            block[:, dim - 2:, :dim - 2] -= curv
        diag = np.arange(size)
        hess[:, diag, diag] -= value[:, None]
        hess *= 2.0
        return value, grad, hess, comp


def _tangent(comp: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Tangent 2-frames of the coordinates (s_x, s_y) of
    `_WedgeObjective.model`: Q s_y moves x and -Q s_x moves y."""
    half = comp.shape[-1]
    return comp @ np.stack([step[:, half:], -step[:, :half]], axis=-1)


def _retract(v: np.ndarray) -> np.ndarray:
    """Q factor of the 2-frames v (..., d, 2), up to column signs.

    Gram-Schmidt with the second column orthogonalized twice, which keeps it
    orthogonal to working precision even when the columns are nearly
    dependent.  The columns may differ in sign from LAPACK's QR; every
    objective here is even in each column.
    """
    x = v[..., 0] / np.sqrt(np.einsum("...i,...i->...", v[..., 0], v[..., 0]))[..., None]
    y = v[..., 1]
    for _ in range(2):
        y = y - np.einsum("...i,...i->...", x, y)[..., None] * x
    y = y / np.sqrt(np.einsum("...i,...i->...", y, y))[..., None]
    return np.stack([x, y], axis=-1)


def _bordered_factors(hess: np.ndarray, grad: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of [[hess + shift I, grad], [grad^T, inf]],
    all NaN for each frame whose hess + shift I is not positive definite.

    The last row of a factor is z = L^-1 grad, with L the factor of the
    shifted Hessian, and the infinite corner keeps the last pivot positive.
    numpy's public cholesky raises for the whole stack when one matrix is
    indefinite; the gufunc it calls (`numpy.linalg._umath_linalg`, not
    public API) fills only that matrix with NaN, so each frame's factor and
    its fallback depend on that frame alone.
    """
    count, size = grad.shape
    bordered = np.empty((count, size + 1, size + 1))
    bordered[:, :size, :size] = hess
    bordered[:, :size, size] = grad
    bordered[:, size, :size] = grad
    bordered[:, size, size] = np.inf
    diag = np.arange(size)
    bordered[:, diag, diag] += shift[:, None]
    with np.errstate(invalid="ignore"):
        return _umath_linalg.cholesky_lo(bordered, signature="d->d", out=bordered)


def _newton_steps(factors: np.ndarray) -> np.ndarray:
    """Solutions s = -L^-T z of (hess + shift I) s = -grad, by back
    substitution in the factors of `_bordered_factors`, two rows at a time."""
    size = factors.shape[1] - 1
    half = factors[:, size, :size]
    step = np.empty((len(factors), size))
    for j in range(size - 2, -1, -2):
        rhs = half[:, j:j + 2] + (step[:, None, j + 2:] @ factors[:, j + 2:size, j:j + 2])[:, 0]
        step[:, j + 1] = last = -rhs[:, 1] / factors[:, j + 1, j + 1]
        step[:, j] = -(rhs[:, 0] + factors[:, j + 1, j] * last) / factors[:, j, j]
    return step


# A frame has converged once its Riemannian gradient norm is at most
# GRAD_TOL.  Values are O(1e-3) to O(1), so this is about the square root of
# their rounding.
GRAD_TOL = 1e-8
_STALLED, _CONVERGED = 1, 2
# Most times one iteration raises a frame's shift eightfold before giving
# the frame up as stalled; 8^40 exceeds any Hessian scale met here.
_MAX_RAISES = 40


@dataclass(frozen=True)
class _Descent:
    """Final frames of `_newton_search`, with per-frame value, Riemannian
    gradient norm, iterations run and outcome (0 capped, `_STALLED` or
    `_CONVERGED`)."""

    frames: np.ndarray
    value: np.ndarray
    grad_norm: np.ndarray
    iterations: np.ndarray
    outcome: np.ndarray


def _newton_search(objective: _WedgeObjective, frames: np.ndarray, cap: int,
                   group=None) -> _Descent:
    """Batched Riemannian Newton search on Gr(2, d), globalized by a
    per-frame Levenberg shift; frame s uses the form group[s].

    Each frame solves (H + mu I) s = -grad in the coordinates of
    `_WedgeObjective.model`.  mu is a multiple of the largest diagonal entry
    of H, 1 at first, and is raised eightfold until H + mu I is positive
    definite.  A step is accepted when the objective falls by more than 1e-4
    of the decrease its model predicts, and mu moves by Nielsen's rule
    (Madsen, Nielsen and Tingleff, "Methods for non-linear least squares
    problems", 2004).  A frame stops when its gradient norm is at most
    GRAD_TOL (converged), when a rejected step promised less than the
    rounding of its value (stalled), or after `cap` iterations.  Only live
    frames are evaluated, and every decision is per frame, so a frame's
    trajectory does not depend on the others.  No model outlives its
    iteration, which bounds memory.
    """
    u = np.array(frames, dtype=float)
    count = len(u)
    group = np.zeros(count, dtype=np.intp) if group is None else np.asarray(group, np.intp)
    value, grad_norm = np.empty(count), np.empty(count)
    iterations = np.zeros(count, dtype=np.intp)
    outcome = np.zeros(count, dtype=np.int8)
    live = np.arange(count)
    damping = np.ones(count)
    eps = np.finfo(float).eps
    for done in range(cap + 1):
        f, g, h, comp = objective.model(u[live], group[live])
        norm = np.sqrt(np.square(g).sum(axis=-1))
        value[live], grad_norm[live] = f, norm
        converged = norm <= GRAD_TOL
        outcome[live[converged]] = _CONVERGED
        if converged.any():
            keep = ~converged
            live, f, g, h, comp, damping = (a[keep] for a in (live, f, g, h, comp, damping))
        if not live.size or done == cap:
            break
        diag = np.arange(g.shape[1])
        scale = np.abs(h[:, diag, diag]).max(axis=-1)
        shift = damping * scale
        factors = _bordered_factors(h, g, shift)
        for _ in range(_MAX_RAISES):
            bad = np.flatnonzero(np.isnan(factors[:, -1, -1]))
            if not bad.size:
                break
            shift[bad] = np.maximum(8.0 * shift[bad], 1e-8 * scale[bad])
            for first in range(0, bad.size, _MODEL_FRAMES):  # bounds the copies
                rows = bad[first:first + _MODEL_FRAMES]
                factors[rows] = _bordered_factors(h[rows], g[rows], shift[rows])
        del h
        # a frame still indefinite takes a zero step, so it stalls below
        factors[np.isnan(factors[:, -1, -1])] = np.eye(factors.shape[1])
        step = _newton_steps(factors)
        # the model's decrease, from z = L^-1 grad in the factors' last row
        predicted = 0.5 * (np.square(factors[:, -1, :-1]).sum(axis=-1)
                           + shift * np.square(step).sum(axis=-1))
        trial = _retract(u[live] + _tangent(comp, step))
        del factors, comp
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = (f - objective.value(trial, group[live])) / predicted
        accept = (ratio > 1e-4) & (predicted > 0.0)
        iterations[live] += 1
        fit = np.clip(np.nan_to_num(ratio), 0.0, 1.0)
        damping = np.maximum(np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * fit - 1.0) ** 3),
                                      4.0) * shift / scale, eps)
        u[live[accept]] = trial[accept]
        stalled = ~accept & (predicted <= 4.0 * eps * f)
        if stalled.any():
            outcome[live[stalled]] = _STALLED
            live, damping = live[~stalled], damping[~stalled]
    return _Descent(u, value, grad_norm, iterations, outcome)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the residual search at one angle.

    `iterations` is the cap per start; `iterations_used` is the most any
    start ran.  `converged` and `stalled` count the starts that stopped on
    the gradient tolerance and on rounding, and `grad_norm` is the
    Riemannian gradient norm of the squared residual at the best frame.
    """

    theta: float
    starts: int
    iterations: int
    min_residual: float
    argmin_pair: tuple[np.ndarray, np.ndarray]
    iterations_used: int
    converged: int
    stalled: int
    grad_norm: float


# Largest number of frames one descent carries; longer scans run in
# consecutive groups of whole rows, and a row with more starts in
# consecutive chunks of its starts, so memory stays bounded.
MAX_DESCENT_FRAMES = 1024


def _search_rows(thetas, starts: int, iterations: int, seeds) -> list[SearchReport]:
    """Search every angle in `thetas`, all starts of all rows in one descent
    when they fit in MAX_DESCENT_FRAMES, and otherwise chunk by chunk of
    each row's starts, keeping each row's first best frame."""
    points = [point_p(theta) for theta in thetas]
    bases = [horizontal_basis(pt) for pt in points]
    for basis in bases:
        if basis.shape[1] != 15:
            raise ValueError(
                f"degenerate horizontal space of dimension {basis.shape[1]}, expected 15")
    objective = _WedgeObjective(_pair_forms(points, bases))
    rows = len(thetas)
    best = np.full(rows, math.inf)
    best_frame = np.zeros((rows, 15, 2))
    best_grad = np.zeros(rows)
    used = np.zeros(rows, dtype=np.intp)
    converged = np.zeros(rows, dtype=np.intp)
    stalled = np.zeros(rows, dtype=np.intp)
    per_chunk = min(starts, MAX_DESCENT_FRAMES)
    for first in range(0, starts, per_chunk):
        count = min(per_chunk, starts - first)
        u0 = np.stack([
            np.random.default_rng(seed + index).standard_normal((15, 2))
            for seed in seeds for index in range(first, first + count)
        ])
        run = _newton_search(objective, _retract(u0), iterations,
                             np.repeat(np.arange(rows), count))
        for row in range(rows):
            span = slice(row * count, (row + 1) * count)
            pick = row * count + int(np.argmin(run.value[span]))
            if run.value[pick] < best[row]:
                best[row] = run.value[pick]
                best_frame[row] = run.frames[pick]
                best_grad[row] = run.grad_norm[pick]
            used[row] = max(used[row], int(run.iterations[span].max()))
            converged[row] += int(np.sum(run.outcome[span] == _CONVERGED))
            stalled[row] += int(np.sum(run.outcome[span] == _STALLED))

    reports = []
    for row, (theta, basis) in enumerate(zip(thetas, bases)):
        coords = basis @ best_frame[row]
        reports.append(SearchReport(
            theta=theta,
            starts=starts,
            iterations=iterations,
            min_residual=float(math.sqrt(max(float(best[row]), 0.0))),
            argmin_pair=(unvec_sp3(coords[:, 0]), unvec_sp3(coords[:, 1])),
            iterations_used=int(used[row]),
            converged=int(converged[row]),
            stalled=int(stalled[row]),
            grad_norm=float(best_grad[row]),
        ))
    return reports


def _integer(name: str, value) -> int:
    """`value` as an int, accepting exactly what `operator.index` accepts."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _search_sizes(starts, iterations, seeds) -> tuple[int, int, list[int]]:
    starts = _integer("starts", starts)
    iterations = _integer("iterations", iterations)
    seeds = [_integer("seed", seed) for seed in seeds]
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations!r}")
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
    return starts, iterations, seeds


def search_zero_planes(thetas, starts: int, iterations: int, seeds) -> list[SearchReport]:
    """`search_zero_plane` at every angle of `thetas`, run as one batched descent.

    Angle r draws its start frames from seeds[r] + index, exactly as
    `search_zero_plane(thetas[r], starts, iterations, seeds[r])` would, and
    every frame descends independently, so each report matches the
    one-angle search.  Rows go through the descent in consecutive groups of
    at most `MAX_DESCENT_FRAMES` frames; a row with more starts goes alone,
    its starts in consecutive chunks of at most that many.
    """
    starts, iterations, seeds = _search_sizes(starts, iterations, seeds)
    thetas = [float(theta) for theta in thetas]
    if len(seeds) != len(thetas):
        raise ValueError(f"got {len(seeds)} seeds for {len(thetas)} angles")
    group = max(1, MAX_DESCENT_FRAMES // starts)
    reports: list[SearchReport] = []
    for first in range(0, len(thetas), group):
        reports += _search_rows(thetas[first:first + group], starts, iterations,
                                seeds[first:first + group])
    return reports


def search_zero_plane(theta: float, starts: int = 200, iterations: int = 500,
                      seed: int = 0) -> SearchReport:
    """Minimize the (B)+(C) residuals over orthonormal condition-(A) pairs.

    Start frames are drawn independently per start index from seed + index,
    so reports are reproducible and starts may be distributed freely.  Each
    start runs `_newton_search` for at most `iterations` iterations.  The
    reported residual is the g0 norm of the stacked commutators at the best
    frame found.
    """
    starts, iterations, seeds = _search_sizes(starts, iterations, [seed])
    return _search_rows([float(theta)], starts, iterations, seeds)[0]


# ---------------------------------------------------------------------------
# Positive bracket floors on distinguished subspaces
# ---------------------------------------------------------------------------

def p_subspace_basis() -> np.ndarray:
    """Orthonormal coordinates (21, 8) of the p summand."""
    return np.eye(21)[:, 13:21]


def berger_complement_basis() -> np.ndarray:
    """Orthonormal coordinates (21, 7) of the h2 orthocomplement inside sp(2)+0."""
    from .embeddings import h2_basis

    sp2_coords = [0, 1, 2, 3, 4, 5, 9, 10, 11, 12]
    h2_rows = liealg.vec_sp3(h2_basis())[:, sp2_coords]
    complement = liealg.null_space(h2_rows)
    out = np.zeros((21, complement.shape[1]))
    out[sp2_coords, :] = complement
    return out


def bracket_floor(subspace: np.ndarray, samples: int = 100_000, seed: int = 0,
                  refine_starts: int = 32, refine_iterations: int = 300) -> float:
    """Minimized squared bracket norm over orthonormal pairs in a subspace.

    Random orthonormal pairs are sampled first; the best candidates are then
    refined by the same Newton search the plane search uses, for at most
    `refine_iterations` iterations each.  A strictly positive floor
    certifies that commuting pairs in the subspace are dependent.
    `subspace` holds the coordinates (21, d) of an orthonormal basis, d >= 2.
    """
    subspace = np.asarray(subspace, dtype=float)
    if subspace.ndim != 2 or subspace.shape[0] != 21 or subspace.shape[1] < 2:
        raise ValueError("subspace must be a 2-D array with 21 rows and at least "
                         f"2 columns, got shape {subspace.shape}")
    if not np.all(np.isfinite(subspace)):
        raise ValueError("subspace entries must be finite")
    seed = _integer("seed", seed)
    samples = _integer("samples", samples)
    refine_starts = _integer("refine_starts", refine_starts)
    refine_iterations = _integer("refine_iterations", refine_iterations)
    for name, size, least in (("samples", samples, 1), ("refine_starts", refine_starts, 1),
                              ("refine_iterations", refine_iterations, 0)):
        if size < least:
            raise ValueError(f"{name} must be at least {least}, got {size!r}")
    dim = subspace.shape[1]
    objective = _WedgeObjective([_compress(_wedge_terms(subspace, _STRUCTURE))])
    rng = np.random.default_rng(seed)

    chunk = 20_000
    best_value = math.inf
    pool_frames: list[np.ndarray] = []
    pool_values: list[np.ndarray] = []
    remaining = samples
    while remaining > 0:
        count = min(chunk, remaining)
        remaining -= count
        frames = _retract(rng.standard_normal((count, dim, 2)))
        values = objective.value(frames)
        best_value = min(best_value, float(values.min()))
        keep = np.argsort(values)[:refine_starts]
        pool_frames.append(frames[keep])
        pool_values.append(values[keep])

    frames = np.concatenate(pool_frames)
    values = np.concatenate(pool_values)
    pool = frames[np.argsort(values)[:refine_starts]]
    return min(best_value, float(_newton_search(objective, pool, refine_iterations).value.min()))


# ---------------------------------------------------------------------------
# Assembled certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Collected algebraic evidence for one angle."""

    theta: float
    rho_rank: int
    kernel_dim_j: int
    kernel_dim_k: int
    kernel_match_j: float
    kernel_match_k: float
    sign_ok: bool
    lambda_case_note: float | None
    verdict: str

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "rho_rank": self.rho_rank,
            "kernel_dim_j": self.kernel_dim_j,
            "kernel_dim_k": self.kernel_dim_k,
            "kernel_match_j": self.kernel_match_j,
            "kernel_match_k": self.kernel_match_k,
            "sign_ok": self.sign_ok,
            "lambda_case_note": self.lambda_case_note,
            "verdict": self.verdict,
        }


def certify_theta(theta: float) -> Certificate:
    """Assemble the algebraic certificate at theta in (0, pi/2).

    The verdict is positive only when the corner map has full rank, both
    axis kernels are one-dimensional and match the closed form, the sign
    certificate holds, and theta lies in (0, pi/6); anything else, including
    an ill-conditioned kernel, is inconclusive.
    """
    theta = float(theta)
    if not 0.0 < theta < np.pi / 2.0:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")

    rank = rho_rank(point_p(theta))

    dims: dict[str, int] = {}
    matches: dict[str, float] = {}
    for ell in ("j", "k"):
        try:
            dims[ell], solution = kernel_solution(theta, ell)
            matches[ell] = reference_match(theta, solution)
        except ValueError:
            dims[ell] = 0
            matches[ell] = 0.0

    in_window = theta < np.pi / 6.0
    sign_ok = bool(sign_certificate(theta)) if in_window else False

    ref_j = kernel_reference(theta, 1.0)
    lambda_note = float(ref_j[6] / ref_j[3]) if abs(ref_j[3]) > 1e-12 else None

    positive = (
        rank == 3
        and dims["j"] == 1 and dims["k"] == 1
        and matches["j"] >= KERNEL_MATCH_MIN and matches["k"] >= KERNEL_MATCH_MIN
        and sign_ok
        and in_window
    )
    return Certificate(
        theta=theta,
        rho_rank=rank,
        kernel_dim_j=dims["j"],
        kernel_dim_k=dims["k"],
        kernel_match_j=matches["j"],
        kernel_match_k=matches["k"],
        sign_ok=sign_ok,
        lambda_case_note=lambda_note,
        verdict=VERDICT_POSITIVE if positive else VERDICT_INCONCLUSIVE,
    )
