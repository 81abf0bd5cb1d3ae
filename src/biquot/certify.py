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
backtracking, so a flat plane would show up as a (near-)zero minimum.  Every
residual term is an antisymmetric bilinear bracket, so the objective is a
fixed real quadratic form in the wedge x ^ y, built once per angle from the
sp(3) structure constants.  `search_zero_planes` runs that search for many
angles as one batched descent.  `bracket_floor` minimizes the same kind of
form, the squared bracket on a subspace, to certify positive bracket floors,
the computable form of "commuting implies dependent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
# Bracket residuals as quadratic forms on wedges, and projected gradient
# descent over orthonormal pairs
# ---------------------------------------------------------------------------

# Structure constants of sp(3) on the g0-orthonormal coordinates of R^21:
# [e_i, e_j] = sum_k _STRUCTURE[i, j, k] e_k.  Coordinates 0..12 span the k
# summand and 13..20 the p summand; [k, k] and [p, p] both lie in k.
_UNITS = unvec_sp3(np.eye(21))
_STRUCTURE = liealg.vec_sp3(liealg.bracket(_UNITS[:, None], _UNITS[None, :]))
_K, _P = slice(0, 13), slice(13, 21)


def _wedge_terms(vectors: np.ndarray, structure: np.ndarray) -> np.ndarray:
    """Rows a < b of [v_a, v_b] for the columns v_a of `vectors`, so that the
    bracket of x = V u and y = V v is (u ^ v) times this matrix."""
    dim, count = vectors.shape
    half = (vectors.T @ structure.reshape(dim, -1)).reshape(count, dim, -1)
    return (vectors.T @ half)[np.triu_indices(count, 1)]


def _compress(terms: np.ndarray) -> np.ndarray:
    """Factor L of rank r with L L^T = terms terms^T, from a thin SVD."""
    left, svals, _ = np.linalg.svd(terms, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * max(terms.shape) * np.finfo(float).eps))
    return left[:, :rank] * svals[:rank]


def _pair_form(basis: np.ndarray, pt: ThetaPoint) -> np.ndarray:
    """Form of the squared (B)+(C) residuals at the point `pt` on wedges of
    `basis` columns.

    The terms are [x, y], the k-k and p-p brackets of the pair, and the same
    two brackets of the pair moved by Ad_{p^-1}.
    """
    transport = liealg.vec_sp3(liealg.adjoint(liealg.group_inverse(pt.matrix), _UNITS)).T
    terms = [_wedge_terms(basis, _STRUCTURE)]
    for vectors in (basis, transport @ basis):
        terms.append(_wedge_terms(vectors[_K], _STRUCTURE[_K, _K, _K]))
        terms.append(_wedge_terms(vectors[_P], _STRUCTURE[_P, _P, _K]))
    return _compress(np.hstack(terms))


class _WedgeObjective:
    """Squared norm |(x ^ y) L|^2 of orthonormal coordinate pairs (x, y),
    batched over frames that may use different forms L.

    Every residual the searches minimize is a sum of squared brackets, each
    bilinear and antisymmetric in the pair, so it is a fixed quadratic form
    in the wedge coordinates x_a y_b - x_b y_a (a < b).  Frame s uses
    forms[group[s]], or forms[0] when `group` is None; forms of lower rank
    are padded with zero columns.  Each frame goes through its own small
    matmul, so its value does not depend on which other frames share the
    batch.
    """

    def __init__(self, forms, group=None):
        self.forms = np.zeros((len(forms), len(forms[0]), max(f.shape[1] for f in forms)))
        for out, form in zip(self.forms, forms):
            out[:, :form.shape[1]] = form
        self.group = None if group is None else np.asarray(group, dtype=np.intp)
        # d(d-1)/2 wedge rows for pairs in R^d
        self.upper = np.triu_indices(math.isqrt(2 * len(forms[0])) + 1, 1)

    def _residuals(self, coords: np.ndarray, frames):
        """Runs of frames sharing a form, as (frames, form), and every
        frame's residual row (wedge) L."""
        x, y = coords[..., 0], coords[..., 1]
        a, b = self.upper
        wedge = x[:, a] * y[:, b] - x[:, b] * y[:, a]
        if self.group is None:
            group = np.zeros(len(coords), dtype=np.intp)
        else:
            group = self.group if frames is None else self.group[frames]
        cuts = [0, *(np.flatnonzero(np.diff(group)) + 1), len(coords)]
        runs = [(slice(lo, hi), self.forms[group[lo]]) for lo, hi in zip(cuts[:-1], cuts[1:])]
        res = np.empty((len(coords), 1, self.forms.shape[2]))
        for run, form in runs:
            np.matmul(wedge[run, None], form, out=res[run])
        return runs, res[:, 0]

    def value(self, coords: np.ndarray, frames=None) -> np.ndarray:
        """Objective at `coords`, which hold the frames `frames` (all if None)."""
        return np.square(self._residuals(coords, frames)[1]).sum(axis=-1)

    def value_and_grad(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # With G the antisymmetric matrix of d value / d wedge = 2 res L^T,
        # the gradient is G y in x and -G x in y.
        runs, res = self._residuals(coords, None)
        half = np.empty((len(coords), 1, self.forms.shape[1]))
        for run, form in runs:
            np.matmul(res[run, None], form.T, out=half[run])
        a, b = self.upper
        gmat = np.zeros((len(coords), coords.shape[1], coords.shape[1]))
        gmat[:, a, b] = half[:, 0]
        gmat[:, b, a] = -half[:, 0]
        turned = np.stack([coords[..., 1], -coords[..., 0]], axis=-1)
        return np.square(res).sum(axis=-1), 2.0 * (gmat @ turned)


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
    objective = _WedgeObjective([_pair_form(basis, pt) for pt, basis in zip(points, bases)],
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


def _search_sizes(starts, iterations, seeds) -> tuple[int, int, list[int]]:
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations!r}")
    seeds = [int(seed) for seed in seeds]
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
    return int(starts), int(iterations), seeds


def search_zero_planes(thetas, starts: int, iterations: int, seeds) -> list[SearchReport]:
    """`search_zero_plane` at every angle of `thetas`, run as one batched descent.

    Angle r draws its start frames from seeds[r] + index, exactly as
    `search_zero_plane(thetas[r], starts, iterations, seeds[r])` would, and
    every frame descends independently, so each report matches the
    one-angle search.  Rows go through the descent in consecutive groups of
    at most `MAX_DESCENT_FRAMES` frames (one row per group if a row alone is
    larger).
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
    so reports are reproducible and starts may be distributed freely.  The
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
    objective = _WedgeObjective([_compress(_wedge_terms(subspace, _STRUCTURE))])
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
