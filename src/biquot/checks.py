"""The property checks behind `biquot selftest` and the acceptance criteria.

Every property check lives here, the scalar identities of the elimination
chain among them.  Each takes its sample sizes, and the generator or seeds
it draws from, and returns what it measured as plain numbers, arrays, tuples
or dicts, with no tolerance applied.  Samples are reduced with numpy's `max`
and `min`, so a NaN sample reaches the result.  The selftest entries at the
end run the checks at fixed seeds and sizes, apply the tolerances, and give
one `(name, ok, detail)` line each.  Library functions are called through their
modules, so a function patched on its module is the one checked.

`positivity_floors` draws nothing: it checks the committed certificates of
the two bracket floors, module data here, with one Cholesky factorization
each (`certify.verify_bound`), and evaluates the squared bracket at an
exact witness pair in each subspace.  Both the dual points and the
witnesses are exact, so nothing is regenerated, and no solver or SVD runs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import certify, embeddings, liealg, quat, zeroplane


def quaternion_algebra(rng: np.random.Generator, pairs: int) -> float:
    """Worst defect of |ab| = |a||b|, conj(a) a = |a|^2, Re(ab) = Re(ba) and
    [Im a, Im b] = 2 Im a x Im b over random quaternions a, b, as one batch of
    component arrays; the scalar `quat.Quaternion` is the tests' oracle for it."""
    a, b = np.moveaxis(rng.standard_normal((pairs, 2, 4)), 1, 0)
    na, nb = quat.qnorm_sq(a), quat.qnorm_sq(b)
    ab, resolved = quat.qmul(a, b), quat.qmul(quat.qconj(a), a)
    ia, ib = (a - quat.qconj(a)) / 2.0, (b - quat.qconj(b)) / 2.0
    commutator = (quat.qmul(ia, ib) - quat.qmul(ib, ia))[:, 1:]
    return float(np.max([np.max(np.abs(quat.qnorm_sq(ab) - na * nb) / (na * nb)),
                         np.max(np.abs(resolved[:, 0] - na) / na),
                         np.max(np.abs(resolved[:, 1:])),
                         np.max(np.abs(ab[:, 0] - quat.qmul(b, a)[:, 0])),
                         np.max(np.abs(commutator - 2.0 * np.cross(ia[:, 1:], ib[:, 1:])))]))


def phi3_homomorphism(rng: np.random.Generator, pairs: int) -> float:
    """Largest defect of [phi3(t), phi3(s)] = phi3(2 t x s) relative to
    1 + |phi3(t)| |phi3(s)|, over random t, s in R^3."""
    t = rng.standard_normal((pairs, 3))
    s = rng.standard_normal((pairs, 3))
    ft, fs = embeddings.phi3_alg(t), embeddings.phi3_alg(s)
    lhs = liealg.bracket(ft, fs)
    rhs = embeddings.phi3_alg(2.0 * np.cross(t, s))
    scale = 1.0 + liealg.g0_norm(ft) * liealg.g0_norm(fs)
    return float(np.max(np.max(np.abs(lhs - rhs), axis=(-3, -2, -1)) / scale))


# Samples per pass of `structural_identities`: one pass over 1,000 samples
# peaks at 5.2 MB under tracemalloc, passes of 250 at 2.1 MB.
_PASS = 250


def structural_identities(rng: np.random.Generator,
                          samples: int) -> tuple[float, float, float]:
    """Worst defects of Ad_p-invariance of g0, of Ad_p [x, y] = [Ad_p x, Ad_p y]
    and of [x, y]_k = [x_k, y_k] + [x_p, y_p], at random angles and x, y.

    Every sample is drawn first, then measured `_PASS` samples at a time."""
    p = embeddings.p_matrix(rng.uniform(0.01, np.pi / 2.0 - 0.01, samples))
    x = liealg.random_sp3(rng, size=samples, normalized=True)
    y = liealg.random_sp3(rng, size=samples, normalized=True)
    worst = [_structural_defects(p[first:first + _PASS], x[first:first + _PASS],
                                 y[first:first + _PASS])
             for first in range(0, samples, _PASS)]
    return tuple(float(defect) for defect in np.max(worst, axis=0))


def _structural_defects(p, x, y) -> tuple:
    ax, ay = liealg.adjoint(p, x), liealg.adjoint(p, y)
    xy = liealg.bracket(x, y)
    invariance = np.max(np.abs(liealg.g0_inner(ax, ay) - liealg.g0_inner(x, y)))
    naturality = np.max(liealg.g0_norm(liealg.adjoint(p, xy) - liealg.bracket(ax, ay)))
    (xk, xp), (yk, yp) = liealg.split_kp(x), liealg.split_kp(y)
    split = np.max(liealg.g0_norm(
        liealg.split_kp(xy)[0]
        - liealg.bracket(xk, yk)
        - liealg.bracket(xp, yp)))
    return invariance, naturality, split


def display_reproduction(rng: np.random.Generator, angles: int) -> tuple[float, list[int]]:
    """Largest defect of the displayed closed forms of the Ad_p h1 generators,
    and the corner-map ranks, at random angles, the points in one batch."""
    thetas = rng.uniform(0.01, np.pi / 2.0 - 0.01, angles)
    points = embeddings.point_p(thetas)
    closed = np.stack([embeddings.adp_h1_closed_form(theta, np.eye(3)) for theta in thetas])
    defect = np.max(np.abs(embeddings.adp_h1_basis(points) - closed))
    return float(defect), embeddings.rho_rank(points).tolist()


def vw_convention(rng: np.random.Generator, angles: int, margin: float) -> dict[str, float]:
    """Largest defect of `zeroplane.vw_vectors` against (Ad_{P^-1} X)_p and
    (Ad_{P^-1} Y)_p, for P = p(theta) ("plus-sin") and for its transpose.
    Each angle draws its theta, then its pair; the adjoints run as one batch."""
    thetas, pairs, closed = [], [], []
    for _ in range(angles):
        thetas.append(rng.uniform(margin, np.pi / 4.0 - margin))
        pairs.append(zeroplane.random_reduced_pair(rng))
        closed.append(zeroplane.vw_vectors(pairs[-1], thetas[-1]))
    point = embeddings.point_p(np.array(thetas))
    x, y = zeroplane.pair_matrices(np.stack(pairs))
    v, w = (np.stack(part) for part in zip(*closed))
    defects = {}
    # P^-1 is the conjugate transpose of P, so the transpose's inverse is p(theta)
    for name, pinv in (("plus-sin", liealg.conj_transpose(point)), ("transpose", point)):
        got_v, got_w = (liealg.split_kp(liealg.adjoint(pinv, m))[1] for m in (x, y))
        defects[name] = float(np.max([np.max(np.abs(got_v - v)), np.max(np.abs(got_w - w))]))
    return defects


def mixed_pairs(rng: np.random.Generator, theta: float, random: int, sides: int,
                mixed: int) -> np.ndarray:
    """Pair stack (n, 7, 4) of random pairs, exact x-side and then y-side
    solutions at p(theta), pairs joining the two sides' halves (each drawing
    its x side, then its y side), and the zero pair, drawn in that order, each
    group in one draw."""
    return np.concatenate([zeroplane.random_reduced_pair(rng, random),
                           zeroplane.x_side_solution(rng, theta, sides),
                           zeroplane.y_side_solution(rng, theta, sides),
                           zeroplane._draw(rng, (1, 3, 4, 5), mixed, theta),
                           np.zeros((1, 7, 4))])


def equation_equivalence(rng: np.random.Generator, random: int, sides: int,
                         mixed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of `mixed_pairs` at pi/24, pi/12 and pi/8, the largest
    (A)(B)(C) residual and the largest of the thirteen equations."""
    abc, eq = [], []
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        conditions, equations = zeroplane.lemma_equations_residuals(
            mixed_pairs(rng, theta, random, sides, mixed), theta)
        abc.append(conditions.max(axis=-1))
        eq.append(equations.max(axis=-1))
    return np.concatenate(abc), np.concatenate(eq)


def linear_family_map(rng: np.random.Generator, fit: int,
                      fresh: int) -> tuple[float, float]:
    """Defect on `fresh` pairs, and determinant, of the map from the family
    forms to the condition-(A) pairings fitted on `fit` pairs at pi/12."""
    theta = np.pi / 12.0
    basis = zeroplane.condition_basis(embeddings.point_p(theta))

    def forms(pairs):
        # one-row products, which round as the one-pair vector products do
        x, y = (liealg.vec_sp3(m)[:, None] @ basis.T for m in zeroplane.pair_matrices(pairs))
        return (np.concatenate([x[:, 0, 3:6], x[:, 0, 0:3], y[:, 0, 0:3]], axis=-1),
                zeroplane.family_forms(pairs, theta))

    u, v = forms(zeroplane.random_reduced_pair(rng, fit))
    lmap, *_ = np.linalg.lstsq(v, u, rcond=None)
    fu, fv = forms(zeroplane.random_reduced_pair(rng, fresh))
    defect = np.max(np.abs((fv[:, None] @ lmap)[:, 0] - fu))
    return float(defect), float(np.linalg.det(lmap))


def kernel_two_path(points: int) -> tuple[set[int], float]:
    """Kernel dimensions seen, and the worst `certify.reference_match`, on
    both axes over `points` angles in (0, pi/6): one stacked SVD per axis.

    The match is taken over the angles that have a kernel, and is NaN only
    when none has one."""
    thetas = np.linspace(0.01, np.pi / 6.0 - 0.01, points)
    dims, matches = set(), []
    for ell, eps in certify.EPSILON_BY_ELL.items():
        found, coords = certify.kernel_solutions(thetas, ell)
        dims.update(found.tolist())
        match = certify.reference_match(coords, certify.kernel_reference(thetas, eps))
        matches.append(match[found > 0])
    matches = np.concatenate(matches)
    return dims, float(np.min(matches)) if matches.size else math.nan


def sign_identity(rng: np.random.Generator, angles: int) -> tuple[bool, float]:
    """Whether `certify.sign_certificate`, the verdict's sign test, holds at all
    of `angles` random angles, and the worst defect of x1 - x4 =
    6 - (6 + 3 eps) cos(theta) on the closed-form kernels there."""
    thetas = rng.uniform(0.001, np.pi / 6.0 - 0.001, angles)
    defects = []
    for eps in (1.0, -1.0):
        ref = certify.kernel_reference(thetas, eps)
        defects.append(np.abs(ref[..., 0] - ref[..., 3]
                              - (6.0 - (6.0 + 3.0 * eps) * np.cos(thetas))))
    return bool(np.all(certify.sign_certificate(thetas))), float(np.max(defects))


def scalar_identities(points: int) -> tuple[tuple[int, ...], dict[str, tuple[float, float]],
                                             tuple[float, float]]:
    """The scalar facts the elimination chain rests on.

    Returns the coefficients of (c - 1)^2 (2c + 1), highest degree first;
    for each sign fact, keyed by name, its least value on `points` interior
    angles of an evenly spaced grid on (0, pi/6) and its value at the angle
    that closes the range (pi/6 for cos^2 - 3 sin^2 and 1 - 4 sin^2, 0 for
    2c^3 - 3c^2 + 1 at c = cos(theta)); and the least values of the two
    scale coefficients c s / (c^2 - s^2) and s / c on the same kind of grid
    on (0, pi/4).  2c^3 - 3c^2 + 1 is evaluated as (2 sin^2(theta/2))^2 (2c + 1),
    which the coefficients confirm and which does not cancel near theta = 0.
    """
    closed = np.linspace(0.0, np.pi / 6.0, points + 2)
    c, s = np.cos(closed), np.sin(closed)
    one_minus_c = 2.0 * np.sin(closed / 2.0) ** 2
    signs = {"v-nonvanishing-positivity": (c**2 - 3.0 * s**2, -1),
             "i-component-positivity": (1.0 - 4.0 * s**2, -1),
             "factorization-positivity": (one_minus_c**2 * (2.0 * c + 1.0), 0)}
    grid = np.linspace(0.0, np.pi / 4.0, points + 2)[1:-1]
    c, s = np.cos(grid), np.sin(grid)
    return (tuple(int(a) for a in np.convolve([1, -2, 1], [2, 1])),
            {name: (float(np.min(f[1:-1])), float(f[end])) for name, (f, end) in signs.items()},
            (float(np.min(c * s / (c**2 - s**2))), float(np.min(s / c))))


def _dual(dim: int, floor: float, weights: dict) -> np.ndarray:
    """y = (b, omega) on R^dim for `certify.verify_bound`: omega is `floor`
    times `weights`, keyed by 4-sets, in `certify._plucker_forms` order, and
    b is `floor` less 1e-13, which leaves S that much room for its Cholesky."""
    quads = list(itertools.combinations(range(dim), 4))
    y = np.zeros(1 + len(quads))
    y[0] = floor - 1e-13
    y[[1 + quads.index(quad) for quad in weights]] = floor * np.array(list(weights.values()))
    return y


# The committed certificates of the two bracket floors, exact, on the columns
# of `certify.p_subspace_basis` (_P_*) and `certify.berger_complement_basis`
# (_BERGER_*).  At these weights, which `certify.plucker_bound` converges to
# (a tier-1 test checks it), T T^T - Omega(omega) has the exact eigenvalues
# 1/2 (25 times) and 13/2 (3) on p, and 2/5 (18) and 6 (3) on the complement,
# whose seven 4-sets complement the lines of a Fano plane.  The witness is an
# exact pair (21, 2) in sp(3) coordinates: on p the unit coordinates 13 and
# 17; on the complement (e_0 + 3 e_3) / sqrt(10) and e_1, g0-orthogonal to h2
# since phi3(i) has i-parts (3, -1) on the diagonal and phi3(j), phi3(k) a
# zero (0, 0) entry.
_P_DUAL = _dual(8, 0.5, {
    (0, 1, 2, 3): 3, (4, 5, 6, 7): 3, (0, 1, 4, 5): -1, (0, 1, 6, 7): 1,
    (0, 2, 4, 6): -1, (0, 2, 5, 7): -1, (0, 3, 4, 7): -1, (0, 3, 5, 6): 1,
    (1, 2, 4, 7): 1, (1, 2, 5, 6): -1, (1, 3, 4, 6): -1, (1, 3, 5, 7): -1,
    (2, 3, 4, 5): 1, (2, 3, 6, 7): -1})

_P_WITNESS = np.eye(21)[:, [13, 17]]

_BERGER_DUAL = _dual(7, 0.4, {
    (0, 1, 2, 3): -1, (0, 1, 5, 6): 1, (0, 2, 4, 6): 1, (0, 3, 4, 5): -1,
    (1, 2, 4, 5): 1, (1, 3, 4, 6): 1, (2, 3, 5, 6): -1})

_BERGER_WITNESS = np.zeros((21, 2))
_BERGER_WITNESS[[0, 3], 0] = np.array([1.0, 3.0]) / math.sqrt(10.0)
_BERGER_WITNESS[1, 1] = 1.0


def positivity_floors() -> tuple[tuple[float, float], tuple[float, float]]:
    """The committed certificates of the bracket floors, checked: on the p
    summand and on the sp(2) complement of h2, the bound that
    `certify.verify_bound` certifies from the stored dual point, and the
    squared bracket g0([x, y], [x, y]) of the stored witness pair.

    The least squared bracket over orthonormal pairs in the subspace lies
    between the two.  Each subspace's bracket terms are formed afresh, so a
    stored point that does not fit them gives a bound of -inf, and a
    witness that is not an orthonormal pair in the subspace, to 1e-12, a
    value of NaN.  No program is solved and no search is run.
    """
    return (_checked_floor(certify.p_subspace_basis(), _P_DUAL, _P_WITNESS),
            _checked_floor(certify.berger_complement_basis(), _BERGER_DUAL, _BERGER_WITNESS))


def _checked_floor(basis, dual, witness) -> tuple[float, float]:
    value = math.nan
    if np.shape(witness) == (21, 2):
        defect = np.max([np.max(np.abs(witness.T @ witness - np.eye(2))),
                         np.max(np.abs(basis @ (basis.T @ witness) - witness))])
        if defect <= 1e-12:
            x, y = liealg.unvec_sp3(witness.T)
            xy = liealg.bracket(x, y)
            value = float(liealg.g0_inner(xy, xy))
    return certify.verify_bound(certify._bracket_form(basis), dual), value


# ---------------------------------------------------------------------------
# selftest entries: the checks at fixed seeds and sizes, one line each
# ---------------------------------------------------------------------------

def _suite_quaternion_algebra():
    worst = quaternion_algebra(np.random.default_rng(101), pairs=500)
    return "quaternion-algebra", worst <= 1e-10, f"worst defect {worst:.3e} over 500 pairs"


def _suite_phi3_homomorphism():
    defect = phi3_homomorphism(np.random.default_rng(202), pairs=1000)
    return ("phi3-homomorphism", defect <= 1e-12,
            f"max relative defect {defect:.3e} over 1000 pairs")


def _suite_structural_identities():
    inv, nat, sym = structural_identities(np.random.default_rng(303), samples=1000)
    return ("structural-identities", max(inv, nat, sym) <= 1e-10,
            f"Ad-invariance {inv:.3e}, naturality {nat:.3e}, split identity {sym:.3e}")


def _suite_display_reproduction():
    worst, ranks = display_reproduction(np.random.default_rng(404), angles=20)
    ranks_ok = all(rank == 3 for rank in ranks)
    return ("display-reproduction", worst <= 1e-10 and ranks_ok,
            f"max entrywise defect {worst:.3e} over 20 angles, corner rank 3: {ranks_ok}")


def _suite_vw_identity():
    defects = vw_convention(np.random.default_rng(505), angles=20, margin=0.01)
    matching = [name for name, d in defects.items() if d <= 1e-10]
    return ("vw-identity-sign-convention", matching == ["plus-sin"],
            f"matching convention(s): {matching or 'none'}; "
            f"plus-sin defect {defects['plus-sin']:.3e}, "
            f"transpose defect {defects['transpose']:.3e}")


def _suite_equation_equivalence():
    tol = 1e-9
    abc, eq = equation_equivalence(np.random.default_rng(606), random=200, sides=20, mixed=10)
    agreements = int(np.sum((abc <= tol) == (eq <= tol)))
    return ("equation-equivalence", agreements == abc.size,
            f"{agreements}/{abc.size} agreement between condition residuals "
            f"and the thirteen equations at tolerance {tol:.0e}")


def _suite_linear_family_map():
    defect, det = linear_family_map(np.random.default_rng(707), fit=60, fresh=40)
    return ("linear-family-map", abs(det) > 1e-6 and defect <= 1e-9,
            f"fixed map from equation families to pairings: "
            f"verification defect {defect:.3e}, det {det:.6e}")


def _suite_kernel_two_path():
    dims, worst = kernel_two_path(points=1000)
    dims_ok = dims == {1}
    return ("kernel-two-path", dims_ok and worst >= certify.KERNEL_MATCH_MIN,
            f"dimension 1 on 1000-point grid: {dims_ok}, min |cosine| {worst:.17f}")


def _suite_kernel_line_obstruction():
    # no samples: the closed-form kernel line at pi/12 only
    theta = np.pi / 12.0
    details, ok = [], True
    for ell in ("j", "k"):
        coords = certify.kernel_reference(theta, certify.EPSILON_BY_ELL[ell])
        system = float(np.max(np.abs(certify.build_linear_system(theta, ell) @ coords)))
        pair = certify.reduced_pair_from_axis(coords, ell)
        eq_res = dict(zip(zeroplane.EQUATION_LABELS,
                          zeroplane.lemma_equations_residuals(pair, theta)[1]))
        ok = ok and system <= 1e-9 and eq_res["1"] > 0.1
        details.append(f"ell={ell}: system residual {system:.3e}, "
                       f"eq (1) obstruction {eq_res['1']:.6e}, "
                       f"family (5{ell}) form {eq_res['5' + ell]:.6e}")
    note = ("row 4 of the linear system uses the opposite sign from family (5); "
            "flipping it only swaps the ell=j and ell=k kernels and leaves the "
            "sign certificate unchanged")
    return "kernel-line-obstruction", ok, "; ".join(details) + f" [{note}]"


def _suite_identity_suite():
    coefficients, signs, scale = scalar_identities(points=10_000)
    passed = {"factorization-coefficients": coefficients == (2, -3, 0, 1)}
    for name, (least, end) in signs.items():
        passed[name] = least > 0.0 and abs(end) <= 1e-6
    passed["scale-identity-coefficients"] = all(least > 0.0 for least in scale)
    return ("identity-suite", all(passed.values()),
            "; ".join(f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in passed.items()))


def _suite_sign_certificate():
    holds, identity = sign_identity(np.random.default_rng(808), angles=2000)
    return ("sign-certificate", holds and identity <= 1e-9,
            f"component product positive on 2000 angles: {holds}, "
            f"difference identity defect {identity:.3e}")


def _suite_positivity_floors():
    floors = positivity_floors()
    (p_bound, p_value), (berger_bound, berger_value) = floors
    # a NaN value fails too
    return ("positivity-floors", all(1e-6 <= bound <= value for bound, value in floors),
            f"min |bracket|^2 over orthonormal pairs, certified bound and attained "
            f"value: p summand {p_bound:.9f} and {p_value:.9f}, "
            f"sp(2) complement of h2 {berger_bound:.9f} and {berger_value:.9f}")


SELFTEST_SUITES = (
    _suite_quaternion_algebra,
    _suite_phi3_homomorphism,
    _suite_structural_identities,
    _suite_display_reproduction,
    _suite_vw_identity,
    _suite_equation_equivalence,
    _suite_linear_family_map,
    _suite_kernel_two_path,
    _suite_kernel_line_obstruction,
    _suite_identity_suite,
    _suite_sign_certificate,
    _suite_positivity_floors,
)
