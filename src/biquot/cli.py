"""Command-line interface: single-angle checks, grid scans, and self-tests.

Exit codes: 0 for a positive verdict (or an all-pass self-test), 2 for an
inconclusive verdict, 1 for usage or internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import certify, embeddings, liealg, zeroplane
from .quat import Quaternion

__all__ = ["build_parser", "cmd_check", "cmd_scan", "cmd_selftest", "main"]

CSV_HEADER = ("theta,rho_rank,kernel_dim_j,kernel_dim_k,"
              "kernel_match_j,kernel_match_k,sign_ok,min_residual,verdict")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def _require_output_dir(path: str) -> None:
    """Fail before any work when the directory meant to hold `path` is missing;
    the file itself is written only once every result is computed."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    if args.json:
        _require_output_dir(args.json)
    theta = math.radians(args.theta) if args.degrees else float(args.theta)
    report = None
    if args.mode in ("search", "both"):
        # the search validates theta, its sizes and the seed before doing any work
        report = certify.search_zero_plane(theta, starts=args.starts,
                                           iterations=args.iterations, seed=args.seed)
    cert = certify.certify_theta(theta)

    print(f"theta = {_fmt(cert.theta)} rad")
    print(f"rho rank: {cert.rho_rank}")
    print(f"kernel ell=j: dimension {cert.kernel_dim_j}, "
          f"reference match {_fmt(cert.kernel_match_j)}")
    print(f"kernel ell=k: dimension {cert.kernel_dim_k}, "
          f"reference match {_fmt(cert.kernel_match_k)}")
    print(f"sign certificate on (0, pi/6): {_bool(cert.sign_ok)}")
    if cert.lambda_case_note is not None:
        print(f"lambda note (y3 = lambda x4 on the ell=j kernel): "
              f"{_fmt(cert.lambda_case_note)}")
    if report is not None:
        print(f"search: starts={report.starts} iterations={report.iterations} "
              f"min residual = {_fmt(report.min_residual)}")
    print(f"verdict: {cert.verdict}")

    if args.json:
        payload = cert.to_dict()
        payload["search"] = None if report is None else {
            "starts": report.starts,
            "iterations": report.iterations,
            "min_residual": report.min_residual,
            "iterations_used": report.iterations_used,
            "converged": report.converged,
            "stalled": report.stalled,
            "grad_norm": report.grad_norm,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    return 0 if cert.verdict == certify.VERDICT_POSITIVE else 2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    _require_output_dir(args.out)
    lo = math.radians(args.theta_from) if args.degrees else float(args.theta_from)
    hi = math.radians(args.theta_to) if args.degrees else float(args.theta_to)
    if not (0.0 < lo < hi < math.pi / 2.0):
        raise ValueError(f"scan range must satisfy 0 < from < to < pi/2, "
                         f"got from={lo!r} to={hi!r}")
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps!r}")

    thetas = [float(theta) for theta in np.linspace(lo, hi, args.steps)]
    # the search validates its sizes and seeds before doing any work
    reports = certify.search_zero_planes(
        thetas, args.starts, args.iterations,
        [args.seed + 100003 * row for row in range(args.steps)])
    certs = [certify.certify_theta(theta) for theta in thetas]
    rows = [",".join([
        _fmt(cert.theta),
        str(cert.rho_rank),
        str(cert.kernel_dim_j),
        str(cert.kernel_dim_k),
        _fmt(cert.kernel_match_j),
        _fmt(cert.kernel_match_k),
        _bool(cert.sign_ok),
        _fmt(report.min_residual),
        cert.verdict,
    ]) for cert, report in zip(certs, reports)]

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for line in rows:
            fh.write(line + "\n")
    print(f"wrote {args.steps} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _suite_quaternion_algebra():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        a = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        prod = a * b
        worst = max(worst, abs(prod.norm_sq() - a.norm_sq() * b.norm_sq())
                    / (a.norm_sq() * b.norm_sq()))
        resolved = a.conj() * a
        worst = max(worst, abs(resolved.re - a.norm_sq()) / a.norm_sq(),
                    abs(resolved.ci), abs(resolved.cj), abs(resolved.ck))
        worst = max(worst, abs((a * b).re - (b * a).re))
        ia, ib = a.imag().quaternion, b.imag().quaternion
        comm = (ia * ib - ib * ia).imag().array
        worst = max(worst, float(np.max(np.abs(
            comm - 2.0 * np.cross(a.imag().array, b.imag().array)))))
    ok = worst <= 1e-10
    return "quaternion-algebra", ok, f"worst defect {worst:.3e} over 500 pairs"


def _suite_phi3_homomorphism():
    rng = np.random.default_rng(202)
    t = rng.standard_normal((1000, 3))
    s = rng.standard_normal((1000, 3))
    lhs = liealg.bracket(embeddings.phi3_alg(t), embeddings.phi3_alg(s))
    rhs = embeddings.phi3_alg(2.0 * np.cross(t, s))
    scale = 1.0 + liealg.g0_norm(embeddings.phi3_alg(t)) * liealg.g0_norm(embeddings.phi3_alg(s))
    defect = float(np.max(np.max(np.abs(lhs - rhs), axis=(-3, -2, -1)) / scale))
    ok = defect <= 1e-12
    return "phi3-homomorphism", ok, f"max relative defect {defect:.3e} over 1000 pairs"


def _suite_structural_identities():
    rng = np.random.default_rng(303)
    n = 1000
    thetas = rng.uniform(0.01, np.pi / 2.0 - 0.01, n)
    p = embeddings.p_matrix(thetas)
    x = liealg.random_sp3(rng, size=n, normalized=True)
    y = liealg.random_sp3(rng, size=n, normalized=True)
    ax = liealg.adjoint(p, x)
    ay = liealg.adjoint(p, y)
    inv = float(np.max(np.abs(liealg.g0_inner(ax, ay) - liealg.g0_inner(x, y))))
    nat = float(np.max(liealg.g0_norm(
        liealg.adjoint(p, liealg.bracket(x, y)) - liealg.bracket(ax, ay))))
    b = liealg.bracket(x, y)
    xs, ys = liealg.split_kp(x), liealg.split_kp(y)
    sym = float(np.max(liealg.g0_norm(
        liealg.split_kp(b).k_part
        - liealg.bracket(xs.k_part, ys.k_part)
        - liealg.bracket(xs.p_part, ys.p_part))))
    worst = max(inv, nat, sym)
    ok = worst <= 1e-10
    return ("structural-identities", ok,
            f"Ad-invariance {inv:.3e}, naturality {nat:.3e}, split identity {sym:.3e}")


def _suite_display_reproduction():
    rng = np.random.default_rng(404)
    worst = 0.0
    ranks_ok = True
    for _ in range(20):
        pt = embeddings.point_p(rng.uniform(0.01, np.pi / 2.0 - 0.01))
        computed = embeddings.adp_h1_basis(pt).stack()
        closed = np.stack([
            embeddings.adp_h1_closed_form(pt, unit)
            for unit in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
        ])
        worst = max(worst, float(np.max(np.abs(computed - closed))))
        ranks_ok = ranks_ok and embeddings.rho_rank(pt) == 3
    ok = worst <= 1e-10 and ranks_ok
    return ("display-reproduction", ok,
            f"max entrywise defect {worst:.3e} over 20 angles, corner rank 3: {ranks_ok}")


def _suite_vw_identity():
    rng = np.random.default_rng(505)
    defects = {"plus-sin": 0.0, "transpose": 0.0}
    for _ in range(20):
        pt = embeddings.point_p(rng.uniform(0.01, np.pi / 4.0 - 0.01))
        rp = zeroplane.random_reduced_pair(rng)
        x, y = rp.to_matrices()
        v, w = zeroplane.vw_vectors(rp, pt)
        for name, p in (("plus-sin", pt.matrix),
                        ("transpose", liealg.conj_transpose(pt.matrix))):
            pinv = liealg.group_inverse(p)
            got_v = liealg.split_kp(liealg.adjoint(pinv, x)).p_part
            got_w = liealg.split_kp(liealg.adjoint(pinv, y)).p_part
            defect = max(float(np.max(np.abs(got_v - v.to_matrix()))),
                         float(np.max(np.abs(got_w - w.to_matrix()))))
            defects[name] = max(defects[name], defect)
    matching = [name for name, d in defects.items() if d <= 1e-10]
    ok = matching == ["plus-sin"]
    return ("vw-identity-sign-convention", ok,
            f"matching convention(s): {matching or 'none'}; "
            f"plus-sin defect {defects['plus-sin']:.3e}, "
            f"transpose defect {defects['transpose']:.3e}")


def _suite_equation_equivalence():
    rng = np.random.default_rng(606)
    tol = 1e-9
    cases = 0
    agreements = 0
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        pt = embeddings.point_p(theta)
        pairs = [zeroplane.random_reduced_pair(rng) for _ in range(200)]
        pairs += [zeroplane.x_side_solution(rng, pt) for _ in range(20)]
        pairs += [zeroplane.y_side_solution(rng, pt) for _ in range(20)]
        for _ in range(10):
            xs = zeroplane.x_side_solution(rng, pt)
            ys = zeroplane.y_side_solution(rng, pt)
            pairs.append(zeroplane.ReducedPair(
                x1=xs.x1, x2=xs.x2, x3=xs.x3, x4=xs.x4,
                y1=ys.y1, y2=ys.y2, y3=ys.y3))
        pairs.append(zeroplane.ReducedPair.zero())
        abc, eq = zeroplane.lemma_equations_residuals(
            np.stack([rp.array for rp in pairs]), pt)
        cases += len(pairs)
        agreements += int(np.sum((abc.max(axis=-1) <= tol) == (eq.max(axis=-1) <= tol)))
    ok = agreements == cases
    return ("equation-equivalence", ok,
            f"{agreements}/{cases} agreement between condition residuals "
            f"and the thirteen equations at tolerance {tol:.0e}")


def _suite_linear_family_map():
    rng = np.random.default_rng(707)
    pt = embeddings.point_p(np.pi / 12.0)
    basis = zeroplane.condition_basis(pt)

    def forms(rp):
        x, y = rp.to_matrices()
        px = liealg.vec_sp3(x) @ basis.T
        py = liealg.vec_sp3(y) @ basis.T
        pairings = np.concatenate([px[3:6], px[0:3], py[0:3]])
        return pairings, zeroplane.family_forms(rp.array, pt)

    fit = [forms(zeroplane.random_reduced_pair(rng)) for _ in range(60)]
    u = np.stack([f[0] for f in fit])
    v = np.stack([f[1] for f in fit])
    lmap, *_ = np.linalg.lstsq(v, u, rcond=None)
    det = float(np.linalg.det(lmap))
    fresh = [forms(zeroplane.random_reduced_pair(rng)) for _ in range(40)]
    defect = max(float(np.max(np.abs(fv @ lmap - fu))) for fu, fv in fresh)
    ok = abs(det) > 1e-6 and defect <= 1e-9
    return ("linear-family-map", ok,
            f"fixed map from equation families to pairings: "
            f"verification defect {defect:.3e}, det {det:.6e}")


def _suite_kernel_two_path():
    grid = np.linspace(0.01, np.pi / 6.0 - 0.01, 1000)
    worst_match = 1.0
    dims_ok = True
    for theta in grid:
        for ell in ("j", "k"):
            dim, solution = certify.kernel_solution(float(theta), ell)
            dims_ok = dims_ok and dim == 1
            worst_match = min(worst_match, certify._reference_match(float(theta), solution))
    ok = dims_ok and worst_match >= certify.KERNEL_MATCH_MIN
    return ("kernel-two-path", ok,
            f"dimension 1 on 1000-point grid: {dims_ok}, min |cosine| {worst_match:.17f}")


def _suite_kernel_line_obstruction():
    theta = np.pi / 12.0
    pt = embeddings.point_p(theta)
    details = []
    ok = True
    for ell in ("j", "k"):
        eps = certify.EPSILON_BY_ELL[ell]
        coords = certify.kernel_reference(theta, eps)
        system_residual = float(np.max(np.abs(
            certify.build_linear_system(theta, ell) @ coords)))
        rp = certify.reduced_pair_from_axis(coords, ell)
        res = zeroplane.lemma_equations_residual(rp, pt)
        ok = ok and system_residual <= 1e-9 and res.eq_res["1"] > 0.1
        details.append(f"ell={ell}: system residual {system_residual:.3e}, "
                       f"eq (1) obstruction {res.eq_res['1']:.6e}, "
                       f"family (5{ell}) form {res.eq_res['5' + ell]:.6e}")
    note = ("row 4 of the linear system uses the opposite sign from family (5); "
            "flipping it only swaps the ell=j and ell=k kernels and leaves the "
            "sign certificate unchanged")
    return ("kernel-line-obstruction", ok, "; ".join(details) + f" [{note}]")


def _suite_identity_suite():
    checks = certify.identity_suite()
    ok = all(c.passed for c in checks)
    return ("identity-suite", ok,
            "; ".join(f"{c.name}: {'pass' if c.passed else 'FAIL'}" for c in checks))


def _suite_sign_certificate():
    rng = np.random.default_rng(808)
    thetas = rng.uniform(0.001, np.pi / 6.0 - 0.001, 2000)
    all_ok = True
    worst_identity = 0.0
    for eps in (1.0, -1.0):
        ref = certify.kernel_reference(thetas, eps)
        all_ok = all_ok and bool(np.all(ref[..., 4] * (ref[..., 0] - ref[..., 3]) > 0.0))
        worst_identity = max(worst_identity, float(np.max(np.abs(
            ref[..., 0] - ref[..., 3] - (6.0 - (6.0 + 3.0 * eps) * np.cos(thetas))))))
    ok = all_ok and worst_identity <= 1e-9
    return ("sign-certificate", ok,
            f"component product positive on 2000 angles: {all_ok}, "
            f"difference identity defect {worst_identity:.3e}")


def _suite_positivity_floors():
    p_floor = certify.bracket_floor(certify.p_subspace_basis(), samples=100_000, seed=909)
    berger_floor = certify.bracket_floor(certify.berger_complement_basis(),
                                         samples=100_000, seed=910)
    ok = p_floor >= 1e-6 and berger_floor >= 1e-6
    return ("positivity-floors", ok,
            f"min |bracket|^2 over orthonormal pairs: p summand {p_floor:.9f}, "
            f"sp(2) complement of h2 {berger_floor:.9f}")


_SELFTEST_SUITES = (
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


def cmd_selftest(args=None) -> int:
    failed = []
    for suite in _SELFTEST_SUITES:
        name, ok, detail = suite()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAILED: {failed[0]}")
        return 1
    print("all suites passed")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquot",
        description="Certify the absence of zero-curvature planes at p(theta).")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="certify a single angle")
    check.add_argument("--theta", type=float, required=True,
                       help="angle in radians (see --degrees)")
    check.add_argument("--degrees", action="store_true",
                       help="interpret --theta in degrees")
    check.add_argument("--mode", choices=("algebraic", "search", "both"),
                       default="algebraic")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--starts", type=int, default=200)
    check.add_argument("--iterations", type=int, default=500,
                       help="most search iterations per start")
    check.add_argument("--json", default=None, help="write a JSON report here")
    check.set_defaults(func=cmd_check)

    scan = sub.add_parser("scan", help="scan a theta range and write a CSV")
    scan.add_argument("--from", dest="theta_from", type=float, required=True)
    scan.add_argument("--to", dest="theta_to", type=float, required=True)
    scan.add_argument("--steps", type=int, default=50)
    scan.add_argument("--out", required=True)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--starts", type=int, default=16)
    scan.add_argument("--iterations", type=int, default=500,
                      help="most search iterations per start")
    scan.add_argument("--degrees", action="store_true")
    scan.set_defaults(func=cmd_scan)

    selftest = sub.add_parser("selftest", help="run the property suites")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
