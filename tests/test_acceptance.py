"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS line once its assertions hold; run with
`pytest -s tests/test_acceptance.py` to see them.
"""

import time

import numpy as np
import pytest

from biquot import certify, cli, embeddings, liealg, zeroplane

PI6 = np.pi / 6.0
PI12 = np.pi / 12.0

FROZEN_KERNEL_J = np.array([
    -2.7103921201, -1.6730326075, 2.8977774789, -0.0170596835,
    -0.7810282637, -0.4482877361, -0.0122288333,
])


def test_criterion_01_representation_suite():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    t = rng.standard_normal((1000, 3))
    s = rng.standard_normal((1000, 3))
    ft, fs = embeddings.phi3_alg(t), embeddings.phi3_alg(s)
    lhs = liealg.bracket(ft, fs)
    rhs = embeddings.phi3_alg(2.0 * np.cross(t, s))
    scale = 1.0 + liealg.g0_norm(ft) * liealg.g0_norm(fs)
    defect = np.max(np.abs(lhs - rhs), axis=(-3, -2, -1)) / scale
    elapsed = time.perf_counter() - start
    assert np.max(defect) <= 1e-12
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: homomorphism defect {np.max(defect):.3e} "
          f"on 1000 pairs in {elapsed:.2f}s")


def test_criterion_02_structural_suite():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    n = 1000
    p = embeddings.p_matrix(rng.uniform(0.01, np.pi / 2.0 - 0.01, n))
    x = liealg.random_sp3(rng, size=n, normalized=True)
    y = liealg.random_sp3(rng, size=n, normalized=True)
    ax, ay = liealg.adjoint(p, x), liealg.adjoint(p, y)
    invariance = np.max(np.abs(liealg.g0_inner(ax, ay) - liealg.g0_inner(x, y)))
    naturality = np.max(liealg.g0_norm(
        liealg.adjoint(p, liealg.bracket(x, y)) - liealg.bracket(ax, ay)))
    xs, ys = liealg.split_kp(x), liealg.split_kp(y)
    split = np.max(liealg.g0_norm(
        liealg.split_kp(liealg.bracket(x, y)).k_part
        - liealg.bracket(xs.k_part, ys.k_part)
        - liealg.bracket(xs.p_part, ys.p_part)))
    elapsed = time.perf_counter() - start
    assert invariance <= 1e-10
    assert naturality <= 1e-10
    assert split <= 1e-10
    assert elapsed < 5.0
    print(f"PASS criterion 2: invariance {invariance:.3e}, naturality {naturality:.3e}, "
          f"split {split:.3e} on 1000 triples in {elapsed:.2f}s")


def test_criterion_03_display_reproduction():
    rng = np.random.default_rng(1003)
    units = (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
    display_defect = 0.0
    for _ in range(20):
        pt = embeddings.point_p(rng.uniform(0.01, np.pi / 2.0 - 0.01))
        computed = embeddings.adp_h1_basis(pt).stack()
        closed = np.stack([embeddings.adp_h1_closed_form(pt, u) for u in units])
        display_defect = max(display_defect, float(np.max(np.abs(computed - closed))))
    assert display_defect <= 1e-10

    defects = {"plus-sin": 0.0, "transpose": 0.0}
    for _ in range(20):
        pt = embeddings.point_p(rng.uniform(0.02, np.pi / 4.0 - 0.02))
        rp = zeroplane.random_reduced_pair(rng)
        x, y = rp.to_matrices()
        v, w = zeroplane.vw_vectors(rp, pt)
        for name, p in (("plus-sin", pt.matrix),
                        ("transpose", liealg.conj_transpose(pt.matrix))):
            pinv = liealg.group_inverse(p)
            dv = np.max(np.abs(liealg.split_kp(liealg.adjoint(pinv, x)).p_part
                               - v.to_matrix()))
            dw = np.max(np.abs(liealg.split_kp(liealg.adjoint(pinv, y)).p_part
                               - w.to_matrix()))
            defects[name] = max(defects[name], float(dv), float(dw))
    assert defects["plus-sin"] <= 1e-10
    assert defects["transpose"] > 1e-2
    print(f"PASS criterion 3: display defect {display_defect:.3e}; v,w matches the "
          f"plus-sin convention ({defects['plus-sin']:.3e}) and only that one "
          f"(other: {defects['transpose']:.3e})")


def test_criterion_04_equivalence_suite():
    rng = np.random.default_rng(1004)
    tol = 1e-9
    total = 0
    for theta in (np.pi / 24.0, PI12, np.pi / 8.0):
        pt = embeddings.point_p(theta)
        pairs = [zeroplane.random_reduced_pair(rng) for _ in range(1000)]
        pairs += [zeroplane.x_side_solution(rng, pt) for _ in range(25)]
        pairs += [zeroplane.y_side_solution(rng, pt) for _ in range(25)]
        for _ in range(10):
            xs = zeroplane.x_side_solution(rng, pt)
            ys = zeroplane.y_side_solution(rng, pt)
            pairs.append(zeroplane.ReducedPair(
                x1=xs.x1, x2=xs.x2, x3=xs.x3, x4=xs.x4,
                y1=ys.y1, y2=ys.y2, y3=ys.y3))
        pairs.append(zeroplane.ReducedPair.zero())
        abc, eq = zeroplane.lemma_equations_residuals(
            np.stack([rp.array for rp in pairs]), pt)
        assert np.array_equal(abc.max(axis=-1) <= tol, eq.max(axis=-1) <= tol)
        total += len(pairs)
    print(f"PASS criterion 4: two-sided equivalence on {total} pairs "
          f"across three angles at tolerance {tol:.0e}")


def test_criterion_05_kernel_reproduction():
    for theta in (np.pi / 24.0, PI12, 0.5):
        for ell in ("j", "k"):
            dim, sol = certify.kernel_solution(theta, ell)
            assert dim == 1
            svals = np.linalg.svd(certify.build_linear_system(theta, ell),
                                  compute_uv=False)
            spectrum = np.append(svals, 0.0)
            assert np.sum(spectrum <= 1e-10) == 1
            assert svals[-1] >= 1e-3
            reference = certify.kernel_reference(theta, sol.epsilon)
            cosine = abs(sol.coords @ reference) / (
                np.linalg.norm(sol.coords) * np.linalg.norm(reference))
            assert cosine >= 1.0 - 1e-8

    _, sol = certify.kernel_solution(PI12, "j")
    assert np.max(np.abs(sol.coords - FROZEN_KERNEL_J)) <= 1e-5
    assert np.max(np.abs(certify.kernel_reference(PI12, 1.0) - FROZEN_KERNEL_J)) <= 1e-5
    print("PASS criterion 5: kernel dimension 1 with clean gap at all probed angles; "
          "frozen vector reproduced to 1e-5 by both paths")


def test_criterion_06_sign_certificate():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    thetas = rng.uniform(0.001, PI6 - 0.001, 10_000)
    worst_identity = 0.0
    for eps in (1.0, -1.0):
        ref = certify.kernel_reference(thetas, eps)
        products = ref[..., 4] * (ref[..., 0] - ref[..., 3])
        assert np.all(products > 0.0)
        worst_identity = max(worst_identity, float(np.max(np.abs(
            ref[..., 0] - ref[..., 3] - (6.0 - (6.0 + 3.0 * eps) * np.cos(thetas))))))
    elapsed = time.perf_counter() - start
    assert worst_identity <= 1e-9
    assert elapsed < 2.0
    print(f"PASS criterion 6: y1(x1-x4) < 0 on 10000 angles for both axes, "
          f"difference identity defect {worst_identity:.3e}, in {elapsed:.2f}s")


def test_criterion_07_identity_suite():
    coeffs = np.convolve(np.array([1, -2, 1]), np.array([2, 1]))
    assert np.array_equal(coeffs, np.array([2, -3, 0, 1]))

    grid = np.linspace(0.0, PI6, 10_002)[1:-1]
    c, s = np.cos(grid), np.sin(grid)
    for values, boundary in (
        (c**2 - 3.0 * s**2, np.cos(PI6) ** 2 - 3.0 * np.sin(PI6) ** 2),
        (1.0 - 4.0 * s**2, 1.0 - 4.0 * np.sin(PI6) ** 2),
        (2.0 * c**3 - 3.0 * c**2 + 1.0, 2.0 - 3.0 + 1.0),
    ):
        assert np.all(values > 0.0)
        assert abs(boundary) <= 1e-6

    checks = certify.identity_suite()
    assert all(check.passed for check in checks)
    print("PASS criterion 7: exact coefficient match and strict positivity on "
          "10000-point grids with boundary zeros confirmed")


def test_criterion_08_search_certificate():
    start = time.perf_counter()
    report = certify.search_zero_plane(PI12, starts=200, iterations=500, seed=0)
    elapsed = time.perf_counter() - start
    assert zeroplane.horizontal_basis(embeddings.point_p(PI12)).shape[1] == 15
    assert report.min_residual >= 1e-6
    x, y = report.argmin_pair
    assert abs(liealg.g0_inner(x, x) - 1.0) <= 1e-10
    assert abs(liealg.g0_inner(y, y) - 1.0) <= 1e-10
    assert abs(liealg.g0_inner(x, y)) <= 1e-10
    assert zeroplane.conditionA_residual(x, y, embeddings.point_p(PI12)) <= 1e-10
    assert elapsed < 60.0
    print(f"PASS criterion 8: constrained search floor {report.min_residual:.6f} "
          f"over 200 starts x 500 iterations in {elapsed:.1f}s")


def test_criterion_09_positivity_oracles():
    p_floor = certify.bracket_floor(certify.p_subspace_basis(),
                                    samples=100_000, seed=1009)
    berger_floor = certify.bracket_floor(certify.berger_complement_basis(),
                                         samples=100_000, seed=1010)
    assert p_floor >= 1e-6
    assert berger_floor >= 1e-6
    print(f"PASS criterion 9: positivity floors p = {p_floor:.9f}, "
          f"sp(2) complement of h2 = {berger_floor:.9f}")


def test_criterion_10_end_to_end_scan(tmp_path):
    args = ["scan", "--from", "0.05", "--to", str(PI6 - 0.01), "--steps", "50",
            "--seed", "77", "--starts", "4", "--iterations", "120"]
    first = tmp_path / "scan1.csv"
    second = tmp_path / "scan2.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0

    lines = first.read_text().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 51
    assert all(line.endswith(",positive") for line in lines[1:])
    assert first.read_bytes() == second.read_bytes()
    print("PASS criterion 10: 50-row scan all positive and byte-identical "
          "across two runs with the same seed")
