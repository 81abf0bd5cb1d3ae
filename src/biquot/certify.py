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
squared commutation residuals of conditions (B) and (C) over g0-orthonormal
pairs inside the condition-(A) subspace by projected gradient descent with
backtracking, so a flat plane would show up as a (near-)zero minimum.
`search_zero_planes` runs that search for many angles as one batched descent.
`bracket_floor` runs the same machinery to certify positive bracket floors
on a subspace, the computable form of "commuting implies dependent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import liealg
from .embeddings import point_p, rho_rank
from .liealg import to_complex, unvec_sp3
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


def _reference_match(theta: float, solution: KernelSolution) -> float:
    reference = kernel_reference(theta, solution.epsilon)
    denom = np.linalg.norm(solution.coords) * np.linalg.norm(reference)
    return float(abs(solution.coords @ reference) / denom)


def kernel_match(theta: float, ell: str) -> float:
    """|cosine| between the SVD kernel vector and the closed form."""
    _, solution = kernel_solution(theta, ell)
    return _reference_match(theta, solution)


def reduced_pair_from_axis(coords: np.ndarray, ell: str):
    """Reduced pair whose seven coordinates all sit on the imaginary axis ell."""
    from .quat import ImQuaternion, Quaternion
    from .zeroplane import ReducedPair

    _epsilon(ell)
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (7,):
        raise ValueError(f"expected 7 axis coordinates, got shape {coords.shape}")
    slot = {"j": 1, "k": 2}[ell]

    def im(value: float) -> ImQuaternion:
        parts = [0.0, 0.0, 0.0]
        parts[slot] = float(value)
        return ImQuaternion(*parts)

    x1, x2, x3, x4, y1, y2, y3 = coords
    return ReducedPair(x1=im(x1), x2=im(x2).quaternion, x3=im(x3), x4=im(x4),
                       y1=im(y1).quaternion, y2=im(y2).quaternion, y3=im(y3))


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
# Projected gradient descent over orthonormal pairs
# ---------------------------------------------------------------------------

# Complex 6x6 image of each unit coordinate vector of R^21, flattened to a row
# of 36 entries, and its entrywise-transposed twin for pulling gradients back.
_UNIT_IMAGES = to_complex(unvec_sp3(np.eye(21)))
_IMAGE = _UNIT_IMAGES.reshape(21, 36)
_PULLBACK = np.swapaxes(_UNIT_IMAGES, -2, -1).reshape(21, 36).T

# Entries of a complex image that the k coordinates 0..12 of R^21 reach; the
# p coordinates 13..20 reach exactly the other entries.
_K_ENTRIES = np.any(_UNIT_IMAGES[:13] != 0, axis=0)
_KP_MASKS = np.stack([_K_ENTRIES, ~_K_ENTRIES]).astype(float)


def _skew(ab: np.ndarray) -> np.ndarray:
    # [a, b] = ab - (ab)^H when a and b are skew-Hermitian, at one matmul;
    # overwrites the product ab
    ab -= np.conj(np.swapaxes(ab, -2, -1))
    return ab


def _rows_times(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """a[..., i, :, :] @ z[...] for every i, as one matmul over stacked rows."""
    return (a.reshape(a.shape[:-3] + (-1, 6)) @ z).reshape(a.shape)


def _norm_sq(a: np.ndarray) -> np.ndarray:
    # g0 norm squared of a skew-Hermitian complex image
    flat = a.reshape(a.shape[:-2] + (36,)).view(float)
    return 0.5 * np.einsum("...i,...i->...", flat, flat)


class _PairObjective:
    """Squared (B)+(C) commutation residuals of coordinate pairs, batched
    over frames that may sit at different angles.

    Frame s holds its pair in the horizontal basis of angle `angle[s]`.  The
    objective keeps, per angle, only that (21, 15) basis and the complex
    image of p(theta); R^21 coordinates become complex images through the
    shared `_IMAGE` map.  Every image involved is skew-Hermitian, and the k
    part of one is block-diagonal, the p part off-diagonal.
    """

    def __init__(self, bases: np.ndarray, p_matrices: np.ndarray, angle: np.ndarray):
        self.bases = np.asarray(bases, dtype=float)
        self.p = to_complex(p_matrices)
        self.ph = np.conj(np.swapaxes(self.p, -2, -1))
        self.angle = np.asarray(angle, dtype=np.intp)

    def _terms(self, coords: np.ndarray, frames):
        angle = self.angle if frames is None else self.angle[frames]
        basis = self.bases[angle]
        p, ph = self.p[angle, None], self.ph[angle, None]
        # axes: frame, (pair, pair transported by p^-1), (x, y)
        pairs = np.empty((len(angle), 2, 2, 6, 6), dtype=complex)
        pairs[:, 0] = (np.swapaxes(basis @ coords, -2, -1) @ _IMAGE).reshape(-1, 2, 6, 6)
        pairs[:, 1] = ph @ pairs[:, 0] @ p
        z = _skew(pairs[:, 0, 0] @ pairs[:, 0, 1])
        # [x_k, y_k] and [x_p, y_p] are the k parts of [x, y_k] and [x, y_p]
        zs = _skew(pairs[:, :, 0, None] @ (pairs[:, :, 1, None] * _KP_MASKS))
        zs *= _K_ENTRIES
        value = _norm_sq(z) + _norm_sq(zs).sum(axis=(1, 2))
        return value, (basis, p, ph, pairs, z, zs)

    def value(self, coords: np.ndarray, frames=None) -> np.ndarray:
        """Objective at `coords`, which hold the frames `frames` (all if None)."""
        return self._terms(coords, frames)[0]

    def value_and_grad(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, (basis, p, ph, pairs, z, zs) = self._terms(coords, None)
        # The y gradient pulls back [x, z] + [x_k, zk] + [x_p, zp], with the
        # transported terms carried back by p; the x gradient is minus the same
        # with y.  x_k zk + x_p zp is the k part of x zk plus the p part of x zp.
        kp = _rows_times(pairs, zs[:, :, 0])
        np.copyto(kp, _rows_times(pairs, zs[:, :, 1]), where=~_K_ENTRIES)
        kp = _skew(kp)
        total = _skew(_rows_times(pairs[:, 0], z)) + kp[:, 0] + p @ kp[:, 1] @ ph
        grad21 = (total.reshape(-1, 2, 36) @ _PULLBACK).real[:, ::-1]
        grad21[:, 0] *= -1.0
        return value, np.swapaxes(grad21 @ basis, -2, -1)


class _BracketObjective:
    """Squared bracket norm of a coordinate pair in a fixed subspace."""

    def __init__(self, basis21: np.ndarray):
        self.basis = np.asarray(basis21, dtype=float)
        self.elems = to_complex(unvec_sp3(self.basis.T))

    def _pair(self, coords):
        x = np.einsum("sd,dab->sab", coords[..., 0], self.elems)
        y = np.einsum("sd,dab->sab", coords[..., 1], self.elems)
        return x, y

    def value(self, coords: np.ndarray, frames=None) -> np.ndarray:
        x, y = self._pair(coords)
        return _norm_sq(_skew(x @ y))

    def value_and_grad(self, coords: np.ndarray):
        x, y = self._pair(coords)
        z = _skew(x @ y)
        value = _norm_sq(z)
        gu = -0.5 * np.real(np.einsum("sab,dba->sd", 2.0 * _skew(y @ z), self.elems))
        gv = -0.5 * np.real(np.einsum("sab,dba->sd", -2.0 * _skew(x @ z), self.elems))
        return value, np.stack([gu, gv], axis=-1)


def _tangent_project(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    m = np.swapaxes(u, -2, -1) @ g
    sym = 0.5 * (m + np.swapaxes(m, -2, -1))
    return g - u @ sym


def _retract(v: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(v)
    return q


def _stiefel_descent(objective, u0: np.ndarray, iterations: int,
                     grad_tol: float = 1e-12, armijo: float = 1e-4,
                     max_halvings: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Batched descent over orthonormal 2-frames with backtracking line search.

    Each batch member keeps its own step size and moves independently of the
    others, so one descent may carry frames of several angles; converged or
    stalled members freeze in place.  The line search hands
    `objective.value` the indices of the frames it is still trying.  Returns
    final frames and objective values.
    """
    u = np.array(u0, dtype=float)
    value, grad = objective.value_and_grad(u)
    n = u.shape[0]
    step = np.ones(n)
    frozen = np.zeros(n, dtype=bool)
    for _ in range(int(iterations)):
        tangent = _tangent_project(u, grad)
        gnorm_sq = np.einsum("sij,sij->s", tangent, tangent)
        frozen |= gnorm_sq <= grad_tol**2
        if frozen.all():
            break
        accepted = np.zeros(n, dtype=bool)
        trial = step.copy()
        for _ in range(max_halvings):
            todo = ~frozen & ~accepted
            if not todo.any():
                break
            idx = np.where(todo)[0]
            cand = _retract(u[idx] - trial[idx, None, None] * tangent[idx])
            cand_value = objective.value(cand, idx)
            ok = cand_value <= value[idx] - armijo * trial[idx] * gnorm_sq[idx]
            u[idx[ok]] = cand[ok]
            value[idx[ok]] = cand_value[ok]
            accepted[idx[ok]] = True
            trial[idx[~ok]] *= 0.5
        frozen |= ~frozen & ~accepted
        value, grad = objective.value_and_grad(u)
        step = np.minimum(trial * 2.0, 1.0)
    return u, value


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the residual search at one angle."""

    theta: float
    starts: int
    iterations: int
    min_residual: float
    argmin_pair: tuple[np.ndarray, np.ndarray]


# Largest number of frames one descent carries; longer scans run in
# consecutive groups of whole rows so memory stays bounded.
MAX_DESCENT_FRAMES = 1024


def _search_rows(thetas, starts: int, iterations: int, seeds) -> list[SearchReport]:
    """One descent over every start frame of every angle in `thetas`."""
    points = [point_p(theta) for theta in thetas]
    bases = [horizontal_basis(pt) for pt in points]
    for basis in bases:
        if basis.shape[1] != 15:
            raise ValueError(
                f"degenerate horizontal space of dimension {basis.shape[1]}, expected 15")
    objective = _PairObjective(np.stack(bases), np.stack([pt.matrix for pt in points]),
                               np.repeat(np.arange(len(points)), starts))
    u0 = np.stack([
        np.random.default_rng(seed + index).standard_normal((15, 2))
        for seed in seeds for index in range(starts)
    ])
    u, value = _stiefel_descent(objective, _retract(u0), iterations)

    reports = []
    for row, (theta, basis) in enumerate(zip(thetas, bases)):
        best = row * starts + int(np.argmin(value[row * starts:(row + 1) * starts]))
        coords = basis @ u[best]
        reports.append(SearchReport(
            theta=theta,
            starts=starts,
            iterations=iterations,
            min_residual=float(math.sqrt(max(float(value[best]), 0.0))),
            argmin_pair=(unvec_sp3(coords[:, 0]), unvec_sp3(coords[:, 1])),
        ))
    return reports


def _search_sizes(starts, iterations) -> tuple[int, int]:
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations!r}")
    return int(starts), int(iterations)


def search_zero_planes(thetas, starts: int, iterations: int, seeds) -> list[SearchReport]:
    """`search_zero_plane` at every angle of `thetas`, run as one batched descent.

    Angle r draws its start frames from seeds[r] + index, exactly as
    `search_zero_plane(thetas[r], starts, iterations, seeds[r])` would, and
    every frame descends independently, so each report matches the
    one-angle search.  Rows go through the descent in consecutive groups of
    at most `MAX_DESCENT_FRAMES` frames (one row per group if a row alone is
    larger).
    """
    starts, iterations = _search_sizes(starts, iterations)
    thetas = [float(theta) for theta in thetas]
    seeds = [int(seed) for seed in seeds]
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
    so reports are reproducible and starts may be distributed freely.  The
    reported residual is the g0 norm of the stacked commutators at the best
    frame found.
    """
    starts, iterations = _search_sizes(starts, iterations)
    return _search_rows([float(theta)], starts, iterations, [int(seed)])[0]


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
    h2_rows = liealg.vec_sp3(h2_basis().stack())[:, sp2_coords]
    complement = scipy.linalg.null_space(h2_rows)
    out = np.zeros((21, complement.shape[1]))
    out[sp2_coords, :] = complement
    return out


def bracket_floor(subspace: np.ndarray, samples: int = 100_000, seed: int = 0,
                  refine_starts: int = 32, refine_iterations: int = 300) -> float:
    """Minimized squared bracket norm over orthonormal pairs in a subspace.

    Random orthonormal pairs are sampled first; the best candidates are then
    refined by the same descent the plane search uses.  A strictly positive
    floor certifies that commuting pairs in the subspace are dependent.
    """
    subspace = np.asarray(subspace, dtype=float)
    dim = subspace.shape[1]
    objective = _BracketObjective(subspace)
    rng = np.random.default_rng(seed)

    chunk = 20_000
    best_value = math.inf
    pool_frames: list[np.ndarray] = []
    pool_values: list[np.ndarray] = []
    remaining = int(samples)
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
    keep = np.argsort(values)[:refine_starts]
    _, refined = _stiefel_descent(objective, frames[keep], refine_iterations)
    return float(min(best_value, float(refined.min())))


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
            matches[ell] = _reference_match(theta, solution)
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
