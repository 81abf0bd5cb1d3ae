"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS line once its assertions hold; run with
`pytest -s tests/test_acceptance.py` to see them.  Criteria 1-4, 6, 7 and 9
run the checks behind `biquot selftest`, the functions of `biquot.checks`,
at their own seeds and sizes, and assert their own tolerances on the
numbers those return.  Criterion 9 draws nothing: it checks the committed
bracket-floor certificates that the `positivity-floors` suite checks,
with the same test.
"""

import time

import numpy as np
import pytest

from biquot import certify, checks, cli, embeddings, liealg, zeroplane

PI6 = np.pi / 6.0
PI12 = np.pi / 12.0

FROZEN_KERNEL_J = np.array([
    -2.7103921201, -1.6730326075, 2.8977774789, -0.0170596835,
    -0.7810282637, -0.4482877361, -0.0122288333,
])


def test_criterion_01_representation_suite():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    defect = checks.phi3_homomorphism(rng, pairs=1000)
    elapsed = time.perf_counter() - start
    assert defect <= 1e-12
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: homomorphism defect {defect:.3e} "
          f"on 1000 pairs in {elapsed:.2f}s")


def test_criterion_02_structural_suite():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    invariance, naturality, split = checks.structural_identities(rng, samples=1000)
    elapsed = time.perf_counter() - start
    assert invariance <= 1e-10
    assert naturality <= 1e-10
    assert split <= 1e-10
    assert elapsed < 5.0
    print(f"PASS criterion 2: invariance {invariance:.3e}, naturality {naturality:.3e}, "
          f"split {split:.3e} on 1000 triples in {elapsed:.2f}s")


def test_criterion_03_display_reproduction():
    rng = np.random.default_rng(1003)
    display_defect, ranks = checks.display_reproduction(rng, angles=20)
    assert display_defect <= 1e-10
    assert ranks == [3] * 20

    defects = checks.vw_convention(rng, angles=20, margin=0.02)
    assert defects["plus-sin"] <= 1e-10
    assert defects["transpose"] > 1e-2
    print(f"PASS criterion 3: display defect {display_defect:.3e}; v,w matches the "
          f"plus-sin convention ({defects['plus-sin']:.3e}) and only that one "
          f"(other: {defects['transpose']:.3e})")


def test_criterion_04_equivalence_suite():
    rng = np.random.default_rng(1004)
    tol = 1e-9
    abc, eq = checks.equation_equivalence(rng, random=1000, sides=25, mixed=10)
    assert np.array_equal(abc <= tol, eq <= tol)
    print(f"PASS criterion 4: two-sided equivalence on {abc.size} pairs "
          f"across three angles at tolerance {tol:.0e}")


def test_criterion_05_kernel_reproduction():
    for theta in (np.pi / 24.0, PI12, 0.5):
        for ell, eps in certify.EPSILON_BY_ELL.items():
            dim, coords = certify.kernel_solutions(theta, ell)
            assert dim == 1
            svals = np.linalg.svd(certify.build_linear_system(theta, ell),
                                  compute_uv=False)
            spectrum = np.append(svals, 0.0)
            assert np.sum(spectrum <= 1e-10) == 1
            assert svals[-1] >= 1e-3
            assert certify.reference_match(coords, certify.kernel_reference(theta, eps)) \
                >= 1.0 - 1e-8

    _, coords = certify.kernel_solutions(PI12, "j")
    assert np.max(np.abs(coords - FROZEN_KERNEL_J)) <= 1e-5
    assert np.max(np.abs(certify.kernel_reference(PI12, 1.0) - FROZEN_KERNEL_J)) <= 1e-5
    print("PASS criterion 5: kernel dimension 1 with clean gap at all probed angles; "
          "frozen vector reproduced to 1e-5 by both paths")


def test_criterion_06_sign_certificate():
    rng = np.random.default_rng(1006)
    start = time.perf_counter()
    holds, identity = checks.sign_identity(rng, angles=10_000)
    elapsed = time.perf_counter() - start
    assert holds is True
    assert identity <= 1e-9
    assert elapsed < 2.0
    print(f"PASS criterion 6: y1(x1-x4) < 0 on 10000 angles for both axes, "
          f"difference identity defect {identity:.3e}, in {elapsed:.2f}s")


def test_criterion_07_identity_suite():
    coefficients, signs, scale = checks.scalar_identities(points=10_000)
    assert coefficients == (2, -3, 0, 1)
    assert list(signs) == ["v-nonvanishing-positivity", "i-component-positivity",
                           "factorization-positivity"]
    assert all(least > 0.0 and abs(end) <= 1e-12 for least, end in signs.values())
    assert all(least > 0.0 for least in scale)
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
    (p_bound, p_value), (berger_bound, berger_value) = checks.positivity_floors()
    # as in `positivity-floors`: each bound at most its witness value, so a
    # NaN value fails
    assert 1e-6 <= p_bound <= p_value
    assert 1e-6 <= berger_bound <= berger_value
    print(f"PASS criterion 9: certified positivity floors (attained) p = {p_bound:.9f} "
          f"({p_value:.9f}), sp(2) complement of h2 = {berger_bound:.9f} ({berger_value:.9f})")


def test_criterion_09_fails_on_a_witness_of_the_wrong_shape(monkeypatch):
    monkeypatch.setattr(checks, "_P_WITNESS", checks._P_WITNESS[:-1])
    with pytest.raises(AssertionError):
        test_criterion_09_positivity_oracles()


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
