import numpy as np
import pytest
from _oracles import mat_from_quaternions, scalar_lemma_equations

from biquot import certify, checks, embeddings, liealg, zeroplane
from biquot.embeddings import ThetaPoint

PT = embeddings.point_p(np.pi / 12.0)


def random_pair(rng):
    x = liealg.random_sp3(rng, normalized=True)
    y = liealg.random_sp3(rng, normalized=True)
    return x, y


def test_reduced_pair_matrices_are_skew_and_block_shaped():
    rng = np.random.default_rng(30)
    pair = zeroplane.random_reduced_pair(rng)
    x, y = zeroplane.pair_matrices(pair)
    assert liealg.skew_defect(x) == 0.0
    assert liealg.skew_defect(y) == 0.0
    assert np.max(np.abs(liealg.split_kp(x).p_part)) == 0.0
    assert np.max(np.abs(x[0, 2])) == 0.0
    assert np.max(np.abs(liealg.sp2_project(y))) == 0.0
    assert x[2, 2, 1:] == pytest.approx(pair[3, 1:])
    assert y[0, 2] == pytest.approx(pair[4])


def test_random_reduced_pair_layout_and_draw_order():
    # the selftest output depends on this draw order
    for seed in (0, 1, 2):
        draws = np.random.default_rng(seed)
        expected = np.zeros((7, 4))
        for slot in range(7):
            if slot in (0, 2, 3, 6):
                expected[slot, 1:] = draws.standard_normal(3)
            else:
                expected[slot] = draws.standard_normal(4)
        pair = zeroplane.random_reduced_pair(np.random.default_rng(seed))
        assert pair.shape == (7, 4)
        assert np.array_equal(pair, expected)
        assert np.all(pair[[0, 2, 3, 6], 0] == 0.0)


def test_conditionA_zero_pair():
    zero = np.zeros((3, 3, 4))
    assert zeroplane.conditionA_residual(zero, zero, PT) == 0.0


def test_conditionA_detects_h2_component():
    h2_i = embeddings.h2_basis()[0]
    residual = zeroplane.conditionA_residual(h2_i, np.zeros((3, 3, 4)), PT)
    # the largest pairing is g0(h2_i, h2_i) = 9 + 1 = 10
    assert residual == pytest.approx(10.0, rel=1e-12)


def test_conditionA_vanishes_on_horizontal_projection():
    rng = np.random.default_rng(31)
    basis = zeroplane.horizontal_basis(PT)
    x, y = random_pair(rng)
    px = liealg.unvec_sp3(basis @ (basis.T @ liealg.vec_sp3(x)))
    py = liealg.unvec_sp3(basis @ (basis.T @ liealg.vec_sp3(y)))
    assert zeroplane.conditionA_residual(px, py, PT) <= 1e-11


def test_conditionB_commuting_diagonals():
    from biquot.quat import Quaternion
    i = Quaternion(0, 1, 0, 0)
    x = mat_from_quaternions([[i, 0, 0], [0, i * 2.0, 0], [0, 0, i * 3.0]])
    y = mat_from_quaternions([[i * -1.0, 0, 0], [0, i, 0], [0, 0, i * 0.5]])
    assert zeroplane.conditionB_residual(x, y) <= 1e-14


def test_conditionB_split_brackets_cancel_for_commuting_pairs():
    rng = np.random.default_rng(32)
    for _ in range(100):
        x = liealg.random_sp3(rng, normalized=True)
        y = liealg.mat_mul(liealg.mat_mul(x, x), x)
        xs, ys = liealg.split_kp(x), liealg.split_kp(y)
        bk = liealg.bracket(xs.k_part, ys.k_part)
        bp = liealg.bracket(xs.p_part, ys.p_part)
        # [X, Y] = 0, so the k- and p-brackets are exact negatives
        assert liealg.g0_norm(bk + bp) <= 1e-12
        assert abs(liealg.g0_norm(bk) - liealg.g0_norm(bp)) <= 1e-12


def test_conditionC_at_identity_complements_conditionB():
    rng = np.random.default_rng(33)
    pt_identity = ThetaPoint(theta=0.0, matrix=liealg.identity())
    for _ in range(20):
        x, y = random_pair(rng)
        b = zeroplane.conditionB_residual(x, y)
        c = zeroplane.conditionC_residual(x, y, pt_identity)
        full = liealg.g0_norm(liealg.bracket(x, y))
        assert c * c + full * full == pytest.approx(b * b, rel=1e-12)


def test_condition_residuals_scale_with_plane_change():
    rng = np.random.default_rng(34)
    x, y = random_pair(rng)
    a, b, c, d = rng.standard_normal(4)
    xp, yp = a * x + b * y, c * x + d * y
    factor = abs(a * d - b * c)
    assert zeroplane.conditionB_residual(xp, yp) == pytest.approx(
        factor * zeroplane.conditionB_residual(x, y), rel=1e-10)
    assert zeroplane.conditionC_residual(xp, yp, PT) == pytest.approx(
        factor * zeroplane.conditionC_residual(x, y, PT), rel=1e-10)


def test_normal_form_reduce_synthetic_pair():
    rng = np.random.default_rng(35)
    y = liealg.random_sp3(rng)
    x = (2.0 * liealg.split_kp(y).p_part + 3.0 * liealg.sp2_project(y))
    x[2, 2, 1:] = rng.standard_normal(3)
    x = liealg.require_sp3(x)

    xr, yr = zeroplane.pair_matrices(zeroplane.normal_form_reduce(x, y, PT))
    span = np.stack([liealg.vec_sp3(m) for m in (x, y, xr, yr)])
    svals = np.linalg.svd(span, compute_uv=False)
    assert svals[1] > 1e-8 and svals[2] < 1e-10


def test_normal_form_reduce_keeps_reduced_pairs():
    rng = np.random.default_rng(36)
    x, y = zeroplane.pair_matrices(zeroplane.random_reduced_pair(rng))
    xr, yr = zeroplane.pair_matrices(zeroplane.normal_form_reduce(x, y, PT))
    assert np.allclose(xr * liealg.g0_norm(x), x * liealg.g0_norm(xr), atol=1e-9)
    assert np.allclose(yr * liealg.g0_norm(y), y * liealg.g0_norm(yr), atol=1e-9)


def test_normal_form_reduce_rejects_independent_p_parts():
    rng = np.random.default_rng(37)
    x, y = random_pair(rng)
    with pytest.raises(zeroplane.NormalFormError, match="p parts"):
        zeroplane.normal_form_reduce(x, y, PT)


def test_normal_form_reduce_rejects_dependent_input():
    rng = np.random.default_rng(38)
    x = liealg.random_sp3(rng)
    with pytest.raises(zeroplane.NormalFormError, match="independent"):
        zeroplane.normal_form_reduce(x, 2.0 * x, PT)


def test_normal_form_reduce_rejects_degenerate_corner_map(monkeypatch):
    rng = np.random.default_rng(39)
    x, y = random_pair(rng)
    monkeypatch.setattr("biquot.zeroplane.embeddings.rho_rank", lambda pt: 2)
    with pytest.raises(zeroplane.NormalFormError, match="surjective"):
        zeroplane.normal_form_reduce(x, y, PT)


def test_vw_zero_pair():
    v, w = zeroplane.vw_vectors(np.zeros((7, 4)), PT)
    assert np.max(np.abs(v)) == 0.0
    assert np.max(np.abs(w)) == 0.0


def test_vw_vanishes_when_x1_equals_x4_and_x2_zero():
    rng = np.random.default_rng(40)
    pair = np.zeros((7, 4))
    pair[0, 1:] = pair[3, 1:] = rng.standard_normal(3)
    pair[2, 1:] = rng.standard_normal(3)
    pair[4] = rng.standard_normal(4)
    pair[5] = rng.standard_normal(4)
    pair[6, 1:] = rng.standard_normal(3)
    v, _ = zeroplane.vw_vectors(pair, PT)
    assert np.max(np.abs(v)) == 0.0


def test_vw_matches_transported_projection():
    rng = np.random.default_rng(41)
    defects = checks.vw_convention(rng, angles=20, margin=0.02)
    assert defects["plus-sin"] <= 1e-10


def test_theta_range_guard():
    pt_large = embeddings.point_p(1.0)
    pair = np.zeros((7, 4))
    with pytest.raises(ValueError, match="pi/4"):
        zeroplane.vw_vectors(pair, pt_large)
    with pytest.raises(ValueError, match="pi/4"):
        zeroplane.lemma_equations_residual(pair, pt_large)


def test_lemma_equations_zero_pair():
    res = zeroplane.lemma_equations_residual(np.zeros((7, 4)), PT)
    assert res.max_eq == 0.0
    assert res.max_abc == 0.0
    assert tuple(res.eq_res) == zeroplane.EQUATION_LABELS


def test_lemma_equations_on_kernel_line():
    theta = float(PT.theta)
    coords = certify.kernel_reference(theta, 1.0)
    pair = certify.reduced_pair_from_axis(coords, "j")
    res = zeroplane.lemma_equations_residual(pair, PT)
    for label in ("2", "3", "4", "5i", "5k", "6i", "6j", "6k", "7i", "7j", "7k"):
        assert res.eq_res[label] <= 1e-8, label
    # the one remaining equation is obstructed: its residual is large ...
    assert res.eq_res["1"] > 0.1
    # ... and the (5j) form shows the row-4 sign convention difference verbatim
    assert res.eq_res["5j"] == pytest.approx(6.0 * np.cos(theta), abs=1e-9)


def test_exact_family_solutions_pass_both_residual_paths():
    rng = np.random.default_rng(42)
    for build in (zeroplane.x_side_solution, zeroplane.y_side_solution):
        for _ in range(10):
            res = zeroplane.lemma_equations_residual(build(rng, PT), PT)
            assert res.max_eq <= 1e-12
            assert res.max_abc <= 1e-12


def test_random_pairs_fail_both_residual_paths():
    rng = np.random.default_rng(43)
    for _ in range(50):
        res = zeroplane.lemma_equations_residual(zeroplane.random_reduced_pair(rng), PT)
        assert res.max_eq > 1e-6
        assert res.max_abc > 1e-6


def test_equivalence_holds_at_wider_angle():
    rng = np.random.default_rng(45)
    pt = embeddings.point_p(0.6)
    for pair in checks.mixed_pairs(rng, pt, random=100, sides=5, mixed=0):
        res = zeroplane.lemma_equations_residual(pair, pt)
        assert (res.max_abc <= 1e-9) == (res.max_eq <= 1e-9)


def test_family5_matches_direct_pairings():
    rng = np.random.default_rng(44)
    h2 = embeddings.h2_basis()
    r3 = np.sqrt(3.0)
    for _ in range(50):
        pair = zeroplane.random_reduced_pair(rng)
        x, _ = zeroplane.pair_matrices(pair)
        x1, x2, x3 = pair[0], pair[1], pair[2]
        signed = np.array([
            3.0 * x1[1] - x3[1],
            r3 * x2[2] - x3[2],
            r3 * x2[3] + x3[3],
        ])
        direct = np.array([liealg.g0_inner(x, h2[0]),
                           liealg.g0_inner(x, h2[1]),
                           liealg.g0_inner(x, h2[2])])
        # the two evaluation paths differ by the fixed diagonal factor (1, 2, 2)
        assert np.allclose(direct, signed * np.array([1.0, 2.0, 2.0]), atol=1e-11)


def test_horizontal_basis_properties():
    basis = zeroplane.horizontal_basis(PT)
    assert basis.shape == (21, 15)
    assert np.allclose(basis.T @ basis, np.eye(15), atol=1e-12)
    assert np.max(np.abs(zeroplane.condition_basis(PT) @ basis)) <= 1e-12


def test_batched_equations_match_scalar_oracle_and_per_pair_conditions():
    rng = np.random.default_rng(46)
    checked = 0
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        pt = embeddings.point_p(theta)
        stack = checks.mixed_pairs(rng, pt, random=50, sides=10, mixed=5)
        abc, eq = zeroplane.lemma_equations_residuals(stack, pt)
        assert abc.shape == (len(stack), 3) and eq.shape == (len(stack), 13)
        for row, got_eq, got_abc in zip(stack, eq, abc):
            # relative to the size of the pair's coordinates
            scale = max(1.0, float(np.max(np.abs(row))))
            oracle = np.array(scalar_lemma_equations(row, theta))
            assert np.max(np.abs(got_eq - oracle)) <= 1e-12 * scale
            x, y = zeroplane.pair_matrices(row)
            direct = np.array([zeroplane.conditionA_residual(x, y, pt),
                               zeroplane.conditionB_residual(x, y),
                               zeroplane.conditionC_residual(x, y, pt)])
            assert np.max(np.abs(got_abc - direct)) <= 1e-12 * max(1.0, np.max(direct))
            checked += 1
    assert checked >= 200


def test_batched_equations_keep_leading_axes():
    rng = np.random.default_rng(47)
    pairs = np.stack([zeroplane.random_reduced_pair(rng) for _ in range(10)])
    stack = pairs.reshape(2, 5, 7, 4)
    abc, eq = zeroplane.lemma_equations_residuals(stack, PT)
    assert eq.shape == (2, 5, 13)
    assert abc.shape == (2, 5, 3)
    single = zeroplane.lemma_equations_residual(pairs[7], PT)
    assert list(eq[1, 2]) == pytest.approx(list(single.eq_res.values()), rel=1e-12, abs=1e-15)
    assert zeroplane.family_forms(stack, PT).shape == (2, 5, 9)


def test_batched_equations_reject_malformed_stacks():
    stack = np.zeros((3, 7, 4))
    with pytest.raises(ValueError, match="trailing shape"):
        zeroplane.lemma_equations_residuals(np.zeros((3, 6, 4)), PT)
    stack[1, 2, 0] = 1.0  # a real part in the imaginary slot x3
    with pytest.raises(ValueError, match="real part"):
        zeroplane.lemma_equations_residuals(stack, PT)
    stack[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        zeroplane.lemma_equations_residuals(stack, PT)
    with pytest.raises(ValueError, match="one pair"):
        zeroplane.lemma_equations_residual(np.zeros((3, 7, 4)), PT)
