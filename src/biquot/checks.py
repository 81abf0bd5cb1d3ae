"""The property checks behind `biquot selftest` and the acceptance criteria.

Each check takes its sample sizes, and the generator or seeds it draws from,
and returns what it measured, with no tolerance applied.  Samples are reduced
with numpy's `max` and `min`, so a NaN sample reaches the result.  The selftest
entries at the end run the checks at fixed seeds and sizes, one
`(name, ok, detail)` line each.  Library functions are called through their
modules, so a function patched on its module is the one checked.
"""

from __future__ import annotations

import numpy as np

from . import certify, embeddings, liealg, zeroplane
from .quat import Quaternion


def quaternion_algebra(rng: np.random.Generator, pairs: int) -> float:
    """Worst defect of |ab| = |a||b|, conj(a) a = |a|^2, Re(ab) = Re(ba) and
    [Im a, Im b] = 2 Im a x Im b over random scalar quaternions a, b."""
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


def structural_identities(rng: np.random.Generator,
                          samples: int) -> tuple[float, float, float]:
    """Worst defects of Ad_p-invariance of g0, of Ad_p [x, y] = [Ad_p x, Ad_p y]
    and of [x, y]_k = [x_k, y_k] + [x_p, y_p], at random angles and x, y."""
    p = embeddings.p_matrix(rng.uniform(0.01, np.pi / 2.0 - 0.01, samples))
    x = liealg.random_sp3(rng, size=samples, normalized=True)
    y = liealg.random_sp3(rng, size=samples, normalized=True)
    ax, ay = liealg.adjoint(p, x), liealg.adjoint(p, y)
    invariance = float(np.max(np.abs(liealg.g0_inner(ax, ay) - liealg.g0_inner(x, y))))
    naturality = float(np.max(liealg.g0_norm(
        liealg.adjoint(p, liealg.bracket(x, y)) - liealg.bracket(ax, ay))))
    xs, ys = liealg.split_kp(x), liealg.split_kp(y)
    split = float(np.max(liealg.g0_norm(
        liealg.split_kp(liealg.bracket(x, y)).k_part
        - liealg.bracket(xs.k_part, ys.k_part)
        - liealg.bracket(xs.p_part, ys.p_part))))
    return invariance, naturality, split


def display_reproduction(rng: np.random.Generator, angles: int) -> tuple[float, list[int]]:
    """Largest defect of the displayed closed forms of the Ad_p h1 generators,
    and the corner-map ranks, at random angles."""
    defects, ranks = [], []
    for _ in range(angles):
        pt = embeddings.point_p(rng.uniform(0.01, np.pi / 2.0 - 0.01))
        computed = embeddings.adp_h1_basis(pt)
        closed = np.stack([embeddings.adp_h1_closed_form(pt, unit) for unit in np.eye(3)])
        defects.append(np.max(np.abs(computed - closed)))
        ranks.append(embeddings.rho_rank(pt))
    return float(np.max(defects)), ranks


def vw_convention(rng: np.random.Generator, angles: int, margin: float) -> dict[str, float]:
    """Largest defect of `zeroplane.vw_vectors` against (Ad_{P^-1} X)_p and
    (Ad_{P^-1} Y)_p, for P = p(theta) ("plus-sin") and for its transpose."""
    defects = {"plus-sin": [], "transpose": []}
    for _ in range(angles):
        pt = embeddings.point_p(rng.uniform(margin, np.pi / 4.0 - margin))
        pair = zeroplane.random_reduced_pair(rng)
        x, y = zeroplane.pair_matrices(pair)
        v, w = zeroplane.vw_vectors(pair, pt)
        for name, p in (("plus-sin", pt.matrix),
                        ("transpose", liealg.conj_transpose(pt.matrix))):
            pinv = liealg.group_inverse(p)
            got_v = liealg.split_kp(liealg.adjoint(pinv, x)).p_part
            got_w = liealg.split_kp(liealg.adjoint(pinv, y)).p_part
            defects[name] += [np.max(np.abs(got_v - v)), np.max(np.abs(got_w - w))]
    return {name: float(np.max(found)) for name, found in defects.items()}


def mixed_pairs(rng: np.random.Generator, pt, random: int, sides: int,
                mixed: int) -> np.ndarray:
    """Pair stack (n, 7, 4) of random pairs, exact x-side and then y-side
    solutions at `pt`, pairs joining the two sides' halves, and the zero
    pair, drawn in that order."""
    pairs = [zeroplane.random_reduced_pair(rng) for _ in range(random)]
    pairs += [zeroplane.x_side_solution(rng, pt) for _ in range(sides)]
    pairs += [zeroplane.y_side_solution(rng, pt) for _ in range(sides)]
    for _ in range(mixed):
        xs = zeroplane.x_side_solution(rng, pt)
        ys = zeroplane.y_side_solution(rng, pt)
        pairs.append(np.concatenate([xs[:4], ys[4:]]))
    pairs.append(np.zeros((7, 4)))
    return np.stack(pairs)


def equation_equivalence(rng: np.random.Generator, random: int, sides: int,
                         mixed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of `mixed_pairs` at pi/24, pi/12 and pi/8, the largest
    (A)(B)(C) residual and the largest of the thirteen equations."""
    abc, eq = [], []
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        pt = embeddings.point_p(theta)
        conditions, equations = zeroplane.lemma_equations_residuals(
            mixed_pairs(rng, pt, random, sides, mixed), pt)
        abc.append(conditions.max(axis=-1))
        eq.append(equations.max(axis=-1))
    return np.concatenate(abc), np.concatenate(eq)


def linear_family_map(rng: np.random.Generator, fit: int,
                      fresh: int) -> tuple[float, float]:
    """Defect on `fresh` pairs, and determinant, of the map from the family
    forms to the condition-(A) pairings fitted on `fit` pairs at pi/12."""
    pt = embeddings.point_p(np.pi / 12.0)
    basis = zeroplane.condition_basis(pt)

    def forms(pair):
        x, y = zeroplane.pair_matrices(pair)
        px = liealg.vec_sp3(x) @ basis.T
        py = liealg.vec_sp3(y) @ basis.T
        pairings = np.concatenate([px[3:6], px[0:3], py[0:3]])
        return pairings, zeroplane.family_forms(pair, pt)

    fitted = [forms(zeroplane.random_reduced_pair(rng)) for _ in range(fit)]
    u = np.stack([f[0] for f in fitted])
    v = np.stack([f[1] for f in fitted])
    lmap, *_ = np.linalg.lstsq(v, u, rcond=None)
    checked = [forms(zeroplane.random_reduced_pair(rng)) for _ in range(fresh)]
    defect = np.max([np.max(np.abs(fv @ lmap - fu)) for fu, fv in checked])
    return float(defect), float(np.linalg.det(lmap))


def kernel_two_path(points: int) -> tuple[set[int], float]:
    """Kernel dimensions seen, and the worst `certify.reference_match`, on
    both axes over `points` angles in (0, pi/6)."""
    dims, matches = set(), []
    for theta in np.linspace(0.01, np.pi / 6.0 - 0.01, points):
        for ell in ("j", "k"):
            dim, solution = certify.kernel_solution(float(theta), ell)
            dims.add(dim)
            matches.append(certify.reference_match(float(theta), solution))
    return dims, float(np.min(matches))


def sign_identity(rng: np.random.Generator, angles: int) -> tuple[float, float]:
    """Smallest product y1 (x1 - x4) on the closed-form kernels, and worst
    defect of x1 - x4 = 6 - (6 + 3 eps) cos(theta), at random angles."""
    thetas = rng.uniform(0.001, np.pi / 6.0 - 0.001, angles)
    products, defects = [], []
    for eps in (1.0, -1.0):
        ref = certify.kernel_reference(thetas, eps)
        difference = ref[..., 0] - ref[..., 3]
        products.append(ref[..., 4] * difference)
        defects.append(np.abs(difference - (6.0 - (6.0 + 3.0 * eps) * np.cos(thetas))))
    return float(np.min(products)), float(np.max(defects))


def positivity_floors(p_seed: int, berger_seed: int, samples: int) -> tuple[float, float]:
    """`certify.bracket_floor` on the p summand and the sp(2) complement of h2."""
    return (certify.bracket_floor(certify.p_subspace_basis(), samples=samples, seed=p_seed),
            certify.bracket_floor(certify.berger_complement_basis(),
                                  samples=samples, seed=berger_seed))


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
    pt = embeddings.point_p(theta)
    details, ok = [], True
    for ell in ("j", "k"):
        coords = certify.kernel_reference(theta, certify.EPSILON_BY_ELL[ell])
        system = float(np.max(np.abs(certify.build_linear_system(theta, ell) @ coords)))
        pair = certify.reduced_pair_from_axis(coords, ell)
        eq_res = zeroplane.lemma_equations_residual(pair, pt).eq_res
        ok = ok and system <= 1e-9 and eq_res["1"] > 0.1
        details.append(f"ell={ell}: system residual {system:.3e}, "
                       f"eq (1) obstruction {eq_res['1']:.6e}, "
                       f"family (5{ell}) form {eq_res['5' + ell]:.6e}")
    note = ("row 4 of the linear system uses the opposite sign from family (5); "
            "flipping it only swaps the ell=j and ell=k kernels and leaves the "
            "sign certificate unchanged")
    return "kernel-line-obstruction", ok, "; ".join(details) + f" [{note}]"


def _suite_identity_suite():
    checks = certify.identity_suite()
    return ("identity-suite", all(c.passed for c in checks),
            "; ".join(f"{c.name}: {'pass' if c.passed else 'FAIL'}" for c in checks))


def _suite_sign_certificate():
    product, identity = sign_identity(np.random.default_rng(808), angles=2000)
    positive = product > 0.0
    return ("sign-certificate", positive and identity <= 1e-9,
            f"component product positive on 2000 angles: {positive}, "
            f"difference identity defect {identity:.3e}")


def _suite_positivity_floors():
    p_floor, berger_floor = positivity_floors(909, 910, samples=100_000)
    return ("positivity-floors", p_floor >= 1e-6 and berger_floor >= 1e-6,
            f"min |bracket|^2 over orthonormal pairs: p summand {p_floor:.9f}, "
            f"sp(2) complement of h2 {berger_floor:.9f}")


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
