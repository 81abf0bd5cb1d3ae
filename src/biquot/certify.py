"""Endpoint certification and the independent residual search.

The algebraic pipeline reduces a candidate flat plane at p(theta), with all
coordinates confined to a single imaginary axis ell in {j, k}, to a 6x7
homogeneous linear system.  The kernel chain is batched over angles:
`build_linear_system` stacks the systems, `kernel_solutions` extracts their
null spaces with one stacked singular value decomposition, and
`reference_match` compares them with the closed-form null vectors of
`kernel_reference`.  Each matrix of a stacked SVD is factored on its own,
so a batch's dimensions and coordinates equal the one-angle results bit
for bit.  `sign_certificate` checks that the surviving line violates the
one remaining quadratic equation, which rules the plane out.  The sign
convention baked into the system's fourth row is epsilon = +1 for ell = j
and -1 for ell = k.  `certify_theta` assembles the certificate at one
angle; `scan` certifies and searches a grid of angles, the certificates in
one batched pass, and computes each point p(theta) once for both.  The
scalar identities the elimination rests on are checked in `biquot.checks`.

`search_zero_plane` is the independent numerical check: it minimizes the
squared commutation residuals of conditions (B) and (C) over 2-planes inside
the condition-(A) subspace, so a flat plane would show up as a (near-)zero
minimum.  Every residual term is an antisymmetric bilinear bracket, so the
objective is a fixed real quadratic form in the wedge x ^ y, built once per
angle from the sp(3) structure constants and folded into antisymmetric
matrices A_k with residuals x^T A_k y.  That makes the Riemannian gradient
and Hessian on the Grassmannian Gr(2, 15) cheap and explicit.  The form's
factor is exact: by the symmetric-pair identity [x, y]_k = [x_k, y_k] +
[x_p, y_p], and because Ad_{p^-1} is an automorphism, 47 of the 73 residual
terms span the rest, and a 47 x 47 Cholesky factor per angle turns them into
a factor of the full form, with no SVD and no rank tolerance.  Each start
runs a Riemannian Newton method with a per-frame Levenberg shift until its
gradient norm falls below `GRAD_TOL`, it stalls, or it reaches the
iteration cap.  The objective has one evaluation, `_WedgeObjective.model`,
and each frame is modelled once per point: an accepted trial frame carries
its value, gradient and Hessian into the next iteration.  `scan` runs that
search for all its angles as batched descents.

`plucker_bound` bounds the same kind of form, the squared bracket on a
subspace (`_bracket_form`), from below, which certifies "commuting implies
dependent" there.  A 4-form vanishes on every decomposable wedge, so the
least eigenvalue of the form's Gram matrix plus any 4-form matrix is a
lower bound on the squared bracket of every orthonormal pair (Thorpe, "On
the curvature tensor of a positively curved 4-manifold", 1972).
`plucker_bound` finds the best such 4-form with a small semidefinite
program and returns its dual point; `verify_bound` certifies a dual point,
stored or fresh, with one floating Cholesky factorization and a rounding
margin.  `biquot.checks` verifies exact dual points on the exact bases of
`p_subspace_basis` and `berger_complement_basis`, and compares each bound
with the squared bracket of an exact pair.

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

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import liealg
from .embeddings import _angles_in, h2_basis, point_p, rho_rank
from .liealg import unvec_sp3
from .zeroplane import horizontal_basis

__all__ = [
    "Certificate",
    "SearchReport",
    "berger_complement_basis",
    "build_linear_system",
    "certify_theta",
    "kernel_reference",
    "kernel_solutions",
    "p_subspace_basis",
    "plucker_bound",
    "reference_match",
    "scan",
    "search_zero_plane",
    "sign_certificate",
    "verify_bound",
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


def build_linear_system(theta, ell: str) -> np.ndarray:
    """6x7 coefficient matrices (..., 6, 7) of the single-axis equations at
    p(theta), batched over theta.

    Columns are ordered (x1, x2, x3, x4, y1, y2, y3); rows are the linearized
    equation (2), the two scale rows (4.1)/(4.2), and the ell rows of
    families (5), (6) and (7).
    """
    eps = _epsilon(ell)
    theta = _angles_in(theta, np.pi / 2.0, "theta must lie in (0, pi/2)")[()]
    # cos > 0 on every double below np.pi / 2
    c, s = np.cos(theta), np.sin(theta)
    t = s / c
    zero = 0.0 * c
    one = zero + 1.0
    rows = [
        [zero, zero, -t, t, -one, zero, zero],
        [c * s, zero, zero, -c * s, s * s - c * c, zero, c * s],
        [zero, t, zero, zero, zero, -one, zero],
        [zero, _R3 * one, eps * one, zero, zero, zero, zero],
        [s * s, 2.0 * _R3 * (c - 1.0), zero, c * c, zero, zero, zero],
        [zero, zero, zero, zero, 2.0 * s * c, -2.0 * _R3 * s, c * c],
    ]
    system = np.array(rows)
    return system.transpose(*range(2, system.ndim), 0, 1)


def kernel_reference(theta, epsilon: float) -> np.ndarray:
    """Closed-form null vector of the single-axis system, batched over theta.

    Component order matches `build_linear_system`; the gauge has
    (x2) = -sqrt(3) cos(theta).
    """
    if epsilon not in (1.0, -1.0, 1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon!r}")
    eps = float(epsilon)
    # products, not powers: numpy rounds c**3 of an array and of a scalar
    # differently, and a batch must equal its one-angle calls bit for bit
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    t = np.tan(theta)
    c2 = c * c
    c3 = c2 * c
    return np.stack([
        -3.0 * c * ((2.0 + eps) * c2 - 4.0 * c + 2.0),
        -_R3 * c,
        3.0 * eps * c,
        -3.0 * (c - 1.0) * ((2.0 + eps) * c2 + (eps - 2.0) * c - 2.0),
        -3.0 * t * ((2.0 + eps) * c3 - 4.0 * c2 + 2.0),
        -_R3 * s,
        6.0 * (t * t) * ((2.0 + eps) * c3 - 4.0 * c2 + 1.0),
    ], axis=-1)


def kernel_solutions(theta, ell: str) -> tuple[np.ndarray, np.ndarray]:
    """Null-space dimensions and gauge-normalized basis vectors (..., 7),
    batched over theta, from one stacked SVD.

    Each dimension counts, at tolerance 1e-10, the vanishing entries of the
    seven-value spectrum of its system as a map on R^7 (six computed singular
    values plus the structural zero).  The count is only trustworthy with a
    gap above it, so an angle whose second-smallest computed singular value
    is below 1e-6, or whose null vector has no (x2) component to fix the
    gauge by, gets dimension 0 and NaN coordinates.  An SVD that fails to
    converge raises numpy's `LinAlgError`, a `ValueError`.
    """
    _, svals, vt = np.linalg.svd(build_linear_system(theta, ell))
    vectors = vt[..., -1, :]
    # the rows of vt are unit vectors
    ok = (svals[..., 4] >= KERNEL_GAP_TOL) & (np.abs(vectors[..., 1]) >= 1e-12)
    # above the gap only the sixth computed value can vanish
    dimensions = np.where(ok, (svals[..., 5] <= KERNEL_SV_TOL) + 1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        coords = vectors * (-_R3 * np.cos(theta) / vectors[..., 1])[..., None]
    return dimensions, np.where(ok[..., None], coords, np.nan)


def reference_match(coords: np.ndarray, reference: np.ndarray):
    """|cosine| between kernel vectors (..., 7) and the closed-form vectors
    `reference` of `kernel_reference` on their axis; a float for one pair."""
    denom = np.sqrt(np.vecdot(coords, coords)) * np.sqrt(np.vecdot(reference, reference))
    match = np.abs(np.vecdot(coords, reference)) / denom
    return match if np.ndim(match) else float(match)


def reduced_pair_from_axis(coords: np.ndarray, ell: str) -> np.ndarray:
    """Reduced pair (7, 4) whose seven coordinates all sit on the imaginary axis ell."""
    _epsilon(ell)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (7,):
        raise ValueError(f"expected 7 axis coordinates, got shape {coords.shape}")
    pair = np.zeros((7, 4))
    pair[:, {"j": 2, "k": 3}[ell]] = coords
    return pair


def sign_certificate(theta):
    """True where, on both axis lines, the kernel forces y1 (x1 - x4) < 0,
    batched over theta in (0, pi/6); a bool at one angle.

    All kernel components sit on the axis ell, so the quaternion product
    y1 (x1 - x4) equals minus the product of the real components; it is a
    negative real exactly when that component product is positive.  Equation
    (1) would force the same quantity to be +tan(theta) |x2|^2 > 0, so a
    True certificate leaves no nonzero single-axis solution.
    """
    theta = _angles_in(theta, np.pi / 6.0, "sign certificate is stated on (0, pi/6)")
    holds = True
    for eps in (1.0, -1.0):
        ref = kernel_reference(theta, eps)
        holds = holds & (ref[..., 4] * (ref[..., 0] - ref[..., 3]) > 0.0)
    return holds if np.ndim(holds) else bool(holds)


# ---------------------------------------------------------------------------
# Bracket residuals as quadratic forms on wedges, and a batched Riemannian
# Newton search over 2-planes
# ---------------------------------------------------------------------------

# Structure constants of sp(3) on the g0-orthonormal coordinates of R^21:
# [e_i, e_j] = sum_k _STRUCTURE[i, j, k] e_k.  [k, k] and [p, p] both lie in k.
_UNITS = unvec_sp3(np.eye(21))
_STRUCTURE = liealg.vec_sp3(liealg.bracket(_UNITS[:, None], _UNITS[None, :]))
_K, _P = liealg.K_COORDS, liealg.P_COORDS


def _wedge_terms(vectors: np.ndarray, structure: np.ndarray) -> np.ndarray:
    """Rows a < b of [v_a, v_b] for the columns v_a of `vectors` (..., dim,
    count), so that the bracket of x = V u and y = V v is (u ^ v) times this
    matrix; leading axes are a stack of independent bases."""
    dim, count = vectors.shape[-2:]
    columns = np.swapaxes(vectors, -1, -2)
    half = (columns @ structure.reshape(dim, -1)).reshape(columns.shape[:-1] + (dim, -1))
    a, b = np.triu_indices(count, 1)
    return (columns[..., None, :, :] @ half)[..., a, b, :]


def _pair_forms(points: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Factors L (n, 105, 47) of the squared (B)+(C) residuals at the points
    (n, 3, 3, 4), each on wedges of the columns of its basis (21, 15) in `bases`.

    The residual terms are T = [F | KK | PP | TKK | TPP]: the bracket
    F = [x, y], its parts KK = [x_k, y_k] and PP = [x_p, y_p], and the same
    two parts of the pair moved by A = Ad_{p^-1}.  Since [x, y]_k = [x_k, y_k]
    + [x_p, y_p] and A is an automorphism, PP = F_k - KK and
    TPP = F A_k^T - TKK, with A_k the k rows of A.  So T = S M with
    S = [F | KK | TKK], and L = S C with C the Cholesky factor of M M^T has
    L L^T = T T^T.  M M^T is at least the identity, so the factor always
    exists.  The points go through every product as one stack, and each form
    equals the one its point alone gives.
    """
    # A_k, the k rows of the coordinate matrix of Ad_{p^-1}
    moved = np.swapaxes(liealg.vec_sp3(
        liealg.adjoint(liealg.conj_transpose(points)[:, None], _UNITS)), 1, 2)[:, _K]
    kk = _STRUCTURE[_K, _K, _K]
    spanning = np.concatenate([_wedge_terms(bases, _STRUCTURE), _wedge_terms(bases[:, _K], kk),
                               _wedge_terms(moved @ bases, kk)], axis=-1)
    # M M^T in the blocks of S: [[I + P_k^T P_k + A_k^T A_k, -P_k^T, -A_k^T],
    # [-P_k, 2 I, 0], [-A_k, 0, 2 I]], with P_k the k rows of the identity
    moved_t = np.swapaxes(moved, 1, 2)
    gram = np.zeros((len(points), 47, 47))
    gram[:, :21, :21] = np.eye(21) + moved_t @ moved
    gram[:, 21:, 21:] = 2.0 * np.eye(26)
    gram[:, :21, 34:] = -moved_t
    gram[:, 34:, :21] = -moved
    k = np.arange(13)
    gram[:, k, k] += 1.0
    gram[:, k, 21 + k] = gram[:, 21 + k, k] = -1.0
    return spanning @ np.linalg.cholesky(gram)


def _bracket_form(subspace: np.ndarray) -> np.ndarray:
    """Terms of the squared bracket on wedges of the columns of `subspace`
    (21, d), without the coordinates the bracket never reaches: [p, p] lies
    in k and [sp(2), sp(2)] in sp(2), so those columns are exactly zero."""
    terms = _wedge_terms(subspace, _STRUCTURE)
    return terms[:, np.any(terms != 0.0, axis=0)]


# Most rows per gemm call in `_WedgeObjective`, and the tile that every
# call's row count is a multiple of; the class docstring gives the reasons.
_BLOCK = 32
_TILE = 4
# Most frames per pass of `_WedgeObjective.model`, which holds about 40 kB
# per pair frame, and per call of it on the trial frames of `_newton_search`.
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
    `group`, the index of each frame's form (form 0 for all when None).

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

    def __init__(self, forms: np.ndarray):
        count, wedges, self.rank = forms.shape
        self.dim = dim = math.isqrt(2 * wedges) + 1
        a, b = np.triu_indices(dim, 1)
        products = np.zeros((count, dim, dim, self.rank))
        products[:, b, a] = forms
        products[:, a, b] = -forms
        # v @ products[f] lists (A_k v)_a at column a * rank + k, and
        # matrices[f] @ r lists sum_k r_k A_k, transposed, row by row
        self.products = products.reshape(count, dim, dim * self.rank)
        self.matrices = products.reshape(count, dim * dim, self.rank)

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


def _bordered_factors(hess: np.ndarray, grad: np.ndarray, frames: np.ndarray,
                      shift: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of [[hess[f] + shift I, grad[f]], [grad[f]^T, inf]]
    for the frames f in `frames`, gathered from the model arrays; all NaN for
    each frame whose hess[f] + shift I is not positive definite.

    The last row of a factor is z = L^-1 grad, with L the factor of the
    shifted Hessian, and the infinite corner keeps the last pivot positive.
    numpy's public cholesky raises for the whole stack when one matrix is
    indefinite; the gufunc it calls (`numpy.linalg._umath_linalg`, not
    public API) fills only that matrix with NaN, so each frame's factor and
    its fallback depend on that frame alone.
    """
    size = grad.shape[1]
    bordered = np.empty((len(frames), size + 1, size + 1))
    # np.take buffers an `out` that is not contiguous; passes bound that buffer
    for first in range(0, len(frames), _MODEL_FRAMES):
        part = slice(first, first + _MODEL_FRAMES)
        np.take(hess, frames[part], axis=0, out=bordered[part, :size, :size])
    np.take(grad, frames, axis=0, out=bordered[:, size, :size])
    bordered[:, :size, size] = bordered[:, size, :size]
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


def _newton_search(objective: _WedgeObjective, frames: np.ndarray, cap: int, group=None):
    """Batched Riemannian Newton search on Gr(2, d), globalized by a
    per-frame Levenberg shift; frame s uses the form group[s].  Returns the
    tuple (frames, value, grad_norm, iterations, outcome): the final frames,
    and per frame the objective there, its Riemannian gradient norm, the
    iterations run, and the outcome (0 capped, `_STALLED` or `_CONVERGED`).

    Each frame solves (H + mu I) s = -grad in the coordinates of
    `_WedgeObjective.model`.  mu is a multiple of the largest diagonal entry
    of H, 1 at first, and is raised eightfold until H + mu I is positive
    definite.  Each trial frame gets its full model, and a step is accepted
    when the objective falls by more than 1e-4 of the decrease the current
    model predicts; an accepted frame carries the trial's model into the
    next iteration and a rejected one keeps its own, so no frame is modelled
    twice at one point.  mu moves by Nielsen's rule (Madsen, Nielsen and
    Tingleff, "Methods for non-linear least squares problems", 2004).  A
    frame stops when its gradient norm is at most GRAD_TOL (converged), when
    a rejected step promised less than the rounding of its value (stalled),
    or after `cap` iterations.  Only live frames are evaluated, and every
    decision is per frame, so a frame's trajectory does not depend on the
    others.
    """
    u = np.array(frames, dtype=float)
    count = len(u)
    group = np.zeros(count, dtype=np.intp) if group is None else np.asarray(group, np.intp)
    grad_norm = np.empty(count)
    iterations = np.zeros(count, dtype=np.intp)
    outcome = np.zeros(count, dtype=np.int8)
    live = np.arange(count)
    damping = np.ones(count)
    eps = np.finfo(float).eps
    # every frame's model at its current point, indexed by frame
    value, g, h, comp = objective.model(u, group)
    stalled = np.zeros(count, dtype=bool)
    for done in range(cap + 1):
        grad_norm[live] = norm = np.sqrt(np.square(g[live]).sum(axis=-1))
        converged = norm <= GRAD_TOL
        outcome[live[converged]] = _CONVERGED
        stop = converged | stalled
        if stop.any():
            live, damping = live[~stop], damping[~stop]
        if not live.size or done == cap:
            break
        f = value[live]
        scale = np.abs(np.diagonal(h, axis1=1, axis2=2)[live]).max(axis=-1)
        shift = damping * scale
        factors = _bordered_factors(h, g, live, shift)
        for _ in range(_MAX_RAISES):
            bad = np.flatnonzero(np.isnan(factors[:, -1, -1]))
            if not bad.size:
                break
            shift[bad] = np.maximum(8.0 * shift[bad], 1e-8 * scale[bad])
            factors[bad] = _bordered_factors(h, g, live[bad], shift[bad])
        # a frame still indefinite takes a zero step, so it stalls below
        factors[np.isnan(factors[:, -1, -1])] = np.eye(factors.shape[1])
        step = _newton_steps(factors)
        # the model's decrease, from z = L^-1 grad in the factors' last row
        predicted = 0.5 * (np.square(factors[:, -1, :-1]).sum(axis=-1)
                           + shift * np.square(step).sum(axis=-1))
        del factors
        trial = _retract(u[live] + _tangent(comp[live], step))
        ratio, accept = np.empty(live.size), np.empty(live.size, dtype=bool)
        # a pass of trial frames at a time, so that only one pass's models
        # are held beside the current ones
        for first in range(0, live.size, _MODEL_FRAMES):
            part = slice(first, first + _MODEL_FRAMES)
            rows = live[part]
            model = objective.model(trial[part], group[rows])
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio[part] = (f[part] - model[0]) / predicted[part]
            accept[part] = take = (ratio[part] > 1e-4) & (predicted[part] > 0.0)
            for current, moved in zip((u, value, g, h, comp), (trial[part], *model)):
                current[rows[take]] = moved[take]
        iterations[live] += 1
        fit = np.clip(np.nan_to_num(ratio), 0.0, 1.0)
        damping = np.maximum(np.where(accept, np.maximum(1.0 / 3.0, 1.0 - (2.0 * fit - 1.0) ** 3),
                                      4.0) * shift / scale, eps)
        stalled = ~accept & (predicted <= 4.0 * eps * f)
        outcome[live[stalled]] = _STALLED
    return u, value, grad_norm, iterations, outcome


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the residual search at one angle.

    `iterations` is the cap per start; `iterations_used` is the most any
    start ran.  `converged` and `stalled` count the starts that stopped on
    the gradient tolerance and on rounding, and `grad_norm` is the
    Riemannian gradient norm of the squared residual at the best frame.
    `check --json` writes the fields but `argmin_pair`, in this order.
    """

    starts: int
    iterations: int
    min_residual: float
    argmin_pair: tuple[np.ndarray, np.ndarray]
    iterations_used: int
    converged: int
    stalled: int
    grad_norm: float


# Largest number of frames one descent carries; a search with more runs its
# frames, laid out row after row, in consecutive chunks of at most that many,
# so memory stays bounded.
MAX_DESCENT_FRAMES = 1024


def _search_rows(points: np.ndarray, starts: int, iterations: int,
                 seeds: list[int]) -> list[SearchReport]:
    """Search at every point (n, 3, 3, 4), row r drawing its start frames
    from seeds[r] + index, as `search_zero_plane` at that point alone would.

    Every row's horizontal basis comes from one `horizontal_basis` call.
    The frames, row after row, descend in consecutive chunks of at most
    `MAX_DESCENT_FRAMES`.  Each row keeps running totals over its slices of
    the chunks and its first best frame, so memory is O(rows).  Every frame
    descends independently, so each report matches the one-angle search.
    """
    bases = horizontal_basis(points)
    if bases.shape[-1] != 15:
        raise ValueError(
            f"degenerate horizontal space of dimension {bases.shape[-1]}, expected 15")
    rows = len(points)
    best = np.full(rows, math.inf)
    best_frame = np.zeros((rows, 15, 2))
    best_grad = np.zeros(rows)
    used = np.zeros(rows, dtype=np.intp)
    converged = np.zeros(rows, dtype=np.intp)
    stalled = np.zeros(rows, dtype=np.intp)
    total = rows * starts
    for first in range(0, total, MAX_DESCENT_FRAMES):
        stop = min(first + MAX_DESCENT_FRAMES, total)
        owner, index = np.divmod(np.arange(first, stop), starts)
        low, high = int(owner[0]), int(owner[-1]) + 1
        u0 = np.stack([np.random.default_rng(seeds[row] + start).standard_normal((15, 2))
                       for row, start in zip(owner.tolist(), index.tolist())])
        frames, value, grad_norm, ran, outcome = _newton_search(
            _WedgeObjective(_pair_forms(points[low:high], bases[low:high])),
            _retract(u0), iterations, owner - low)
        for row in range(low, high):
            span = slice(max(row * starts, first) - first, min((row + 1) * starts, stop) - first)
            pick = span.start + int(np.argmin(value[span]))
            if value[pick] < best[row]:
                best[row] = value[pick]
                best_frame[row] = frames[pick]
                best_grad[row] = grad_norm[pick]
            used[row] = max(used[row], int(ran[span].max()))
            converged[row] += int(np.sum(outcome[span] == _CONVERGED))
            stalled[row] += int(np.sum(outcome[span] == _STALLED))

    coords = bases @ best_frame
    xs, ys = unvec_sp3(coords[..., 0]), unvec_sp3(coords[..., 1])
    return [SearchReport(
        starts=starts,
        iterations=iterations,
        min_residual=float(math.sqrt(max(float(best[row]), 0.0))),
        argmin_pair=(xs[row], ys[row]),
        iterations_used=int(used[row]),
        converged=int(converged[row]),
        stalled=int(stalled[row]),
        grad_norm=float(best_grad[row]),
    ) for row in range(rows)]


def _integer(name: str, value) -> int:
    """`value` as an int, accepting exactly what `operator.index` accepts."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _search_sizes(starts, iterations, seed) -> tuple[int, int, int]:
    starts = _integer("starts", starts)
    iterations = _integer("iterations", iterations)
    seed = _integer("seed", seed)
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    return starts, iterations, seed


def search_zero_plane(theta: float, starts: int = 200, iterations: int = 500,
                      seed: int = 0) -> SearchReport:
    """Minimize the (B)+(C) residuals over orthonormal condition-(A) pairs.

    Start frames are drawn independently per start index from seed + index,
    so reports are reproducible and starts may be distributed freely.  Each
    start runs `_newton_search` for at most `iterations` iterations.  The
    reported residual is the g0 norm of the stacked commutators at the best
    frame found.
    """
    starts, iterations, seed = _search_sizes(starts, iterations, seed)
    return _search_rows(point_p(theta)[None], starts, iterations, [seed])[0]


# ---------------------------------------------------------------------------
# Certified bracket floors on distinguished subspaces
# ---------------------------------------------------------------------------

def p_subspace_basis() -> np.ndarray:
    """Orthonormal coordinates (21, 8) of the p summand."""
    return np.eye(21)[:, liealg.P_COORDS]


def berger_complement_basis() -> np.ndarray:
    """Orthonormal coordinates (21, 7) of the h2 orthocomplement inside sp(2)+0,
    with no SVD: the unit vectors on the sp(2) coordinates h2 never reaches
    (1, 2, 9, 10), then each generator, which lives on its own two coordinates
    (phi3(i) on 0, 3; phi3(j) on 4, 11; phi3(k) on 5, 12), turned there by a
    right angle, (g_a, g_b) to (g_b, -g_a), and normalized."""
    h2 = liealg.vec_sp3(h2_basis())
    unreached = [c for c in liealg.SP2_COORDS if not h2[:, c].any()]
    out = np.zeros((21, len(unreached) + len(h2)))
    out[unreached, range(len(unreached))] = 1.0
    for column, generator in enumerate(h2, start=len(unreached)):
        a, b = np.flatnonzero(generator)
        out[[a, b], column] = np.array([generator[b], -generator[a]]) / np.linalg.norm(generator)
    return out


def _plucker_forms(dim: int) -> tuple[np.ndarray, ...]:
    """Constraint matrices of `plucker_bound` on the wedge coordinates a < b
    of R^dim, as (rows, cols, signs, starts, owner): matrix i holds signs[k]
    at (rows[k], cols[k]) for k from starts[i] up to the next start, and
    owner[k] is that i.

    Matrix 0 is the identity.  Matrix 1 + q is Omega(e_abcd) for the q-th
    a < b < c < d, with w^T Omega w = 2 (w_ab w_cd - w_ac w_bd + w_ad w_bc):
    the Plucker relation, which vanishes on every decomposable w = x ^ y.
    No two nonzeros share a position.
    """
    a, b = np.triu_indices(dim, 1)
    wedges = len(a)
    index = np.zeros((dim, dim), dtype=np.intp)
    index[a, b] = np.arange(wedges)
    a, b, c, d = np.array(list(itertools.combinations(range(dim), 4)),
                          dtype=np.intp).reshape(-1, 4).T
    ab, cd, ac, bd, ad, bc = (index[a, b], index[c, d], index[a, c], index[b, d],
                              index[a, d], index[b, c])
    diag = np.arange(wedges)
    rows = np.concatenate([diag, np.stack([ab, cd, ac, bd, ad, bc], axis=-1).ravel()])
    cols = np.concatenate([diag, np.stack([cd, ab, bd, ac, bc, ad], axis=-1).ravel()])
    signs = np.concatenate([np.ones(wedges), np.tile([1.0, 1.0, -1.0, -1.0, 1.0, 1.0], len(a))])
    starts = np.concatenate([[0], wedges + 6 * np.arange(len(a))])
    owner = np.concatenate([np.zeros(wedges, dtype=np.intp),
                            np.repeat(np.arange(1, len(starts)), 6)])
    return rows, cols, signs, starts, owner


def _combine(forms: tuple[np.ndarray, ...], wedges: int, y: np.ndarray) -> np.ndarray:
    """sum_i y_i F_i (wedges, wedges) for the matrices F_i of `_plucker_forms`."""
    rows, cols, signs, _, owner = forms
    out = np.zeros((wedges, wedges))
    out[rows, cols] = signs * y[owner]
    return out


def _max_step(half: np.ndarray, direction: np.ndarray) -> float:
    """Largest t <= 1 with Z + t D positive semidefinite, for Z = L L^T,
    `half` = L^-1 and D = `direction`."""
    least = np.linalg.eigvalsh(half @ direction @ half.T)[0]
    return 1.0 if least >= 0.0 else min(1.0, -1.0 / least)


def _checked_terms(terms) -> tuple[np.ndarray, int]:
    """`terms` as a float array, and the d of its d(d-1)/2 rows."""
    terms = np.asarray(terms, dtype=float)
    wedges = len(terms) if terms.ndim == 2 else 0
    dim = math.isqrt(2 * wedges) + 1
    if wedges == 0 or math.comb(dim, 2) != wedges:
        raise ValueError("terms must be a 2-D array with d(d-1)/2 rows, d >= 2, "
                         f"got shape {terms.shape}")
    if not np.all(np.isfinite(terms)):
        raise ValueError("terms must be finite")
    return terms, dim


# Most interior-point iterations of `plucker_bound`, and the duality gap,
# relative to the mean eigenvalue of the Gram matrix, at which it stops.
# Each iteration cuts the gap about a hundredfold.
_SDP_ITERATIONS = 50
_SDP_GAP = 1e-12


def plucker_bound(terms) -> tuple[float, np.ndarray]:
    """Certified lower bound on |(u ^ v) T|^2 over orthonormal pairs (u, v)
    of R^d, for the terms T (d(d-1)/2, K) on wedge coordinates a < b.

    An orthonormal pair's wedge w is a unit vector on which every 4-form
    matrix Omega vanishes (`_plucker_forms`), so w T T^T w^T is at least
    b whenever S = T T^T - Omega - b I is positive semidefinite.  The
    largest such b is a semidefinite program (Vandenberghe and Boyd,
    "Semidefinite programming", SIAM Review 38, 1996), solved here by a
    primal-dual interior-point method with the HKM direction and Mehrotra's
    predictor-corrector.  Both start points are feasible: X = I / n, and
    Omega = 0 with b at minus the mean eigenvalue of T T^T.  The loop stops at
    a duality gap of `_SDP_GAP` times that mean, after `_SDP_ITERATIONS`
    iterations, or when a step fails a factorization; every dual point kept
    has had its S, as computed, factored by a floating Cholesky.

    The Schur complement M_ij = <F_i, X F_j S^-1> takes X F_j from the
    nonzeros of F_j and multiplies all of them by S^-1 in one stacked
    product, one small gemm per matrix, and sums each <F_i, .> over the
    nonzeros of F_i; no product is large enough for OpenBLAS to split it
    over threads.

    Returns `(bound, y)`: y = (b, omega_1, ...) is the last dual point
    kept, one entry per matrix of `_plucker_forms`, and the bound is
    `verify_bound(terms, y)`, b less a rounding margin.  A stored y gives
    the same bound bit for bit through `verify_bound`, with no program
    solved.
    """
    terms, dim = _checked_terms(terms)
    wedges = len(terms)
    forms = _plucker_forms(dim)
    rows, cols, signs, starts, owner = forms
    unit = np.zeros(len(starts))
    unit[0] = 1.0

    def pair(z):
        return np.add.reduceat(signs * z[..., rows, cols], starts, axis=-1)

    def direction(x, s_inv, schur, centering, corrector):
        # (dy, dS, dX) toward X S = centering I, with the second-order
        # `corrector` term; dS = -sum_i dy_i F_i keeps the dual feasible
        dy = np.linalg.solve(schur, unit - centering * pair(s_inv) + pair(corrector @ s_inv))
        ds = -_combine(forms, wedges, dy)
        dx = centering * s_inv - x - (x @ ds + corrector) @ s_inv
        return dy, ds, 0.5 * (dx + dx.T)

    gram = terms @ terms.T
    scale = np.trace(gram) / wedges or 1.0
    x, y = np.eye(wedges) / wedges, -scale * unit
    slack = gram - _combine(forms, wedges, y)
    factor = np.linalg.cholesky(slack)
    for _ in range(_SDP_ITERATIONS):
        gap = np.vdot(x, slack)
        if gap <= _SDP_GAP * scale:
            break
        try:
            s_half = np.linalg.inv(factor)
            s_inv = s_half.T @ s_half
            x_half = np.linalg.inv(np.linalg.cholesky(x))
            # column c of X F_j is signs[k] times column r of X, for each
            # nonzero (r, c) of F_j, and X is symmetric
            moved = np.zeros((len(starts), wedges, wedges))
            moved[owner, :, cols] = signs[:, None] * x[rows]
            schur = pair(moved @ s_inv)
            schur = 0.5 * (schur + schur.T)
            dy, ds, dx = direction(x, s_inv, schur, 0.0, np.zeros_like(x))
            step_x, step_s = _max_step(x_half, dx), _max_step(s_half, ds)
            sigma = (np.vdot(x + step_x * dx, slack + step_s * ds) / gap) ** 3
            dy, ds, dx = direction(x, s_inv, schur, sigma * gap / wedges, dx @ ds)
            step_x, step_s = _max_step(x_half, dx), _max_step(s_half, ds)
            damp = 0.9 + 0.09 * min(step_x, step_s)
            trial = y + damp * step_s * dy
            trial_slack = gram - _combine(forms, wedges, trial)
            factor = np.linalg.cholesky(trial_slack)
        except np.linalg.LinAlgError:
            break
        x = x + damp * step_x * dx
        y, slack = trial, trial_slack
    return verify_bound(terms, y), y


def verify_bound(terms, y) -> float:
    """Certified lower bound on |(u ^ v) T|^2 over orthonormal pairs (u, v),
    for the terms T, from a dual point y = (b, omega_1, ...) of
    `plucker_bound`, or -inf when y certifies nothing.

    S = T T^T - Omega - b I is formed and factored by one floating Cholesky.
    The certificate: the computed S took one rounding per entry (every
    entry of Omega is exactly one +-omega_i), so it is within
    gamma_K |T||T|^T + u |S| of the exact matrix, entrywise, and the 2-norm
    of that is at most its largest row sum.  Its floating Cholesky ran to
    completion, so its least eigenvalue is above -alpha tr S, with
    alpha = gamma_(n+1) / (1 - gamma_(n+1)) (Rump, "Verification of positive
    definiteness", BIT 46, 2006).  The bound is b less twice the sum of the
    two, which covers the rounding of the margin itself; the entries here
    are far from underflow.

    It fails closed: a y that is not finite or has not one entry per matrix
    of `_plucker_forms`, or an S that fails the Cholesky, gives -inf.  Bad
    terms raise `ValueError`, as in `plucker_bound`.
    """
    terms, dim = _checked_terms(terms)
    wedges = len(terms)
    forms = _plucker_forms(dim)
    y = np.asarray(y, dtype=float)
    # forms[3] holds one start per matrix
    if y.shape != forms[3].shape or not np.all(np.isfinite(y)):
        return -math.inf
    slack = terms @ terms.T - _combine(forms, wedges, y)
    try:
        np.linalg.cholesky(slack)
    except np.linalg.LinAlgError:
        return -math.inf
    u = np.finfo(float).eps / 2.0

    def gamma(k):
        return k * u / (1.0 - k * u)

    rump = gamma(wedges + 1) / (1.0 - gamma(wedges + 1)) * np.trace(slack)
    formed = (gamma(terms.shape[1]) * (np.abs(terms) @ np.abs(terms).T)
              + u * np.abs(slack)).sum(axis=1).max()
    return float(y[0] - 2.0 * (rump + formed))


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


def _certificates(thetas: np.ndarray, points: np.ndarray) -> list[Certificate]:
    """The algebraic certificates at the angles `thetas` in (0, pi/2) and
    their points p(theta) (n, 3, 3, 4), from one `kernel_solutions` and one
    `kernel_reference` call per axis, one `sign_certificate` call on the
    angles below pi/6 and one `rho_rank` call.

    A verdict is positive only when the corner map has full rank, both axis
    kernels are one-dimensional and match the closed form, the sign
    certificate holds, and theta lies in (0, pi/6); anything else, including
    an ill-conditioned kernel (dimension 0, match 0), is inconclusive.
    """
    window = thetas < np.pi / 6.0
    sign_ok = np.zeros(len(thetas), dtype=bool)
    sign_ok[window] = sign_certificate(thetas[window])
    dims, matches, refs = {}, {}, {}
    for ell, eps in EPSILON_BY_ELL.items():
        dims[ell], coords = kernel_solutions(thetas, ell)
        refs[ell] = kernel_reference(thetas, eps)
        matches[ell] = np.where(dims[ell] > 0, reference_match(coords, refs[ell]), 0.0)
    ranks = rho_rank(points)
    certs = []
    for row, theta in enumerate(thetas):
        ref_j = refs["j"][row]
        positive = (ranks[row] == 3 and sign_ok[row]
                    and all(dims[ell][row] == 1 and matches[ell][row] >= KERNEL_MATCH_MIN
                            for ell in EPSILON_BY_ELL))
        certs.append(Certificate(
            theta=float(theta),
            rho_rank=int(ranks[row]),
            kernel_dim_j=int(dims["j"][row]),
            kernel_dim_k=int(dims["k"][row]),
            kernel_match_j=float(matches["j"][row]),
            kernel_match_k=float(matches["k"][row]),
            sign_ok=bool(sign_ok[row]),
            lambda_case_note=float(ref_j[6] / ref_j[3]) if abs(ref_j[3]) > 1e-12 else None,
            verdict=VERDICT_POSITIVE if positive else VERDICT_INCONCLUSIVE,
        ))
    return certs


def certify_theta(theta: float) -> Certificate:
    """The algebraic certificate at theta in (0, pi/2): `_certificates` at
    the one point p(theta)."""
    return _certificates(np.array([theta], dtype=float), point_p([theta]))[0]


def scan(lo: float, hi: float, steps: int, starts: int, iterations: int,
         seed: int) -> list[tuple[Certificate, SearchReport]]:
    """Certificate and residual search at `steps` evenly spaced angles from
    lo to hi, 0 < lo < hi < pi/2, the points p(theta) computed in one call.

    Row r searches with seed + 100003 r.  The range, the sizes and the seed
    are checked before the grid is built, so a bad size never waits on, or
    fails in, an allocation of `steps` angles.
    """
    lo, hi = float(lo), float(hi)
    if not (0.0 < lo < hi < math.pi / 2.0):
        raise ValueError(f"scan range must satisfy 0 < from < to < pi/2, "
                         f"got from={lo!r} to={hi!r}")
    steps = _integer("steps", steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps!r}")
    starts, iterations, seed = _search_sizes(starts, iterations, seed)
    thetas = np.linspace(lo, hi, steps)
    points = point_p(thetas)
    reports = _search_rows(points, starts, iterations,
                           [seed + 100003 * row for row in range(steps)])
    return list(zip(_certificates(thetas, points), reports))
