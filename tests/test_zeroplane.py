import numpy as np
import pytest
from _oracles import (haar_point, mat_from_quaternions, per_angle_vw_convention,
                      per_pair_linear_family_map, per_pair_mixed_pairs, scalar_lemma_equations,
                      slot_by_slot_random_pair, slot_by_slot_x_side, slot_by_slot_y_side)

from biquot import certify, checks, embeddings, liealg, zeroplane

THETA = np.pi / 12.0
PT = embeddings.point_p(THETA)


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
    assert np.max(np.abs(liealg.split_kp(x)[1])) == 0.0
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


DRAWERS = {
    "random": (lambda rng, size=None: zeroplane.random_reduced_pair(rng, size),
               slot_by_slot_random_pair),
    "x-side": (lambda rng, size=None: zeroplane.x_side_solution(rng, THETA, size),
               lambda rng: slot_by_slot_x_side(rng, THETA)),
    "y-side": (lambda rng, size=None: zeroplane.y_side_solution(rng, THETA, size),
               lambda rng: slot_by_slot_y_side(rng, THETA)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [606, 4242])
@pytest.mark.parametrize("drawer", DRAWERS)
def test_sized_draw_equals_consecutive_one_pair_draws(drawer, seed):
    draw, slot_by_slot = DRAWERS[drawer]
    batch_rng, one_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(3))
    stack = draw(batch_rng, 25)
    singles = [draw(one_rng) for _ in range(25)]
    assert stack.shape == (25, 7, 4) and singles[0].shape == (7, 4)
    assert same_bits(stack, np.stack(singles))
    assert same_bits(stack, np.stack([slot_by_slot(oracle_rng) for _ in range(25)]))
    assert batch_rng.bit_generator.state == one_rng.bit_generator.state
    assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state
    empty_rng = np.random.default_rng(seed)
    assert draw(empty_rng, 0).shape == (0, 7, 4)
    assert empty_rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("seed", [606, 4242])
def test_mixed_pairs_equal_the_per_pair_loop(seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        got = checks.mixed_pairs(rng, theta, random=200, sides=20, mixed=10)
        assert got.shape == (251, 7, 4)
        assert same_bits(got, per_pair_mixed_pairs(oracle_rng, theta, 200, 20, 10))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", [505, 5150])
def test_vw_convention_equals_the_per_angle_loop(seed):
    got = checks.vw_convention(np.random.default_rng(seed), angles=20, margin=0.01)
    assert got == per_angle_vw_convention(np.random.default_rng(seed), 20, 0.01)


@pytest.mark.parametrize("seed", [707, 7070])
def test_linear_family_map_equals_the_per_pair_forms_and_fit(seed):
    got = checks.linear_family_map(np.random.default_rng(seed), fit=60, fresh=40)
    assert got == per_pair_linear_family_map(np.random.default_rng(seed), 60, 40)


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
        (xk, xp), (yk, yp) = liealg.split_kp(x), liealg.split_kp(y)
        bk = liealg.bracket(xk, yk)
        bp = liealg.bracket(xp, yp)
        # [X, Y] = 0, so the k- and p-brackets are exact negatives
        assert liealg.g0_norm(bk + bp) <= 1e-12
        assert abs(liealg.g0_norm(bk) - liealg.g0_norm(bp)) <= 1e-12


def test_conditionC_at_identity_complements_conditionB():
    rng = np.random.default_rng(33)
    for _ in range(20):
        x, y = random_pair(rng)
        b = zeroplane.conditionB_residual(x, y)
        c = zeroplane.conditionC_residual(x, y, liealg.identity())
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
    x = (2.0 * liealg.split_kp(y)[1] + 3.0 * liealg.sp2_project(y))
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
    monkeypatch.setattr("biquot.zeroplane.embeddings.rho_rank", lambda p: 2)
    with pytest.raises(zeroplane.NormalFormError, match="surjective"):
        zeroplane.normal_form_reduce(x, y, PT)


def test_vw_zero_pair():
    v, w = zeroplane.vw_vectors(np.zeros((7, 4)), THETA)
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
    v, _ = zeroplane.vw_vectors(pair, THETA)
    assert np.max(np.abs(v)) == 0.0


def test_vw_matches_transported_projection():
    rng = np.random.default_rng(41)
    defects = checks.vw_convention(rng, angles=20, margin=0.02)
    assert defects["plus-sin"] <= 1e-10


def test_theta_range_guard():
    pair = np.zeros((7, 4))
    with pytest.raises(ValueError, match="pi/4"):
        zeroplane.vw_vectors(pair, 1.0)
    with pytest.raises(ValueError, match="pi/4"):
        zeroplane.lemma_equations_residuals(pair, 1.0)


@pytest.mark.parametrize("theta,shown", [(0.0, "0.0"), (np.nan, "nan"), (2.0, "2.0"),
                                          (np.pi / 4.0, repr(np.pi / 4.0))])
@pytest.mark.parametrize("draw", [
    lambda rng, theta: zeroplane.x_side_solution(rng, theta),
    lambda rng, theta: zeroplane.y_side_solution(rng, theta, 5),
    lambda rng, theta: zeroplane._draw(rng, (1, 3, 4, 5), 5, theta),
    lambda rng, theta: zeroplane.family_forms(np.zeros((7, 4)), theta),
], ids=["x-side", "y-side", "mixed", "family-forms"])
def test_theta_is_checked_before_any_draw(draw, theta, shown):
    rng = np.random.default_rng(23)
    before = rng.bit_generator.state
    with pytest.raises(ValueError) as error:
        draw(rng, theta)
    assert str(error.value) == f"reduced equations require theta in (0, pi/4), got {shown}"
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("theta", [np.array([0.1, 0.2]), np.array([0.1])],
                         ids=["two-angles", "one-element"])
@pytest.mark.parametrize("call", [
    lambda rng, theta: zeroplane.x_side_solution(rng, theta),
    lambda rng, theta: zeroplane.y_side_solution(rng, theta, 5),
    lambda rng, theta: zeroplane._draw(rng, (1, 3, 4, 5), 5, theta),
    lambda rng, theta: zeroplane.family_forms(np.zeros((7, 4)), theta),
    lambda rng, theta: zeroplane.vw_vectors(np.zeros((7, 4)), theta),
    lambda rng, theta: zeroplane.lemma_equations_residuals(np.zeros((7, 4)), theta),
], ids=["x-side", "y-side", "mixed", "family-forms", "vw-vectors", "lemma-equations"])
def test_reduced_equations_reject_an_array_of_angles(call, theta):
    # they take one angle; an array got numpy's TypeError before
    rng = np.random.default_rng(23)
    before = rng.bit_generator.state
    with pytest.raises(ValueError) as error:
        call(rng, theta)
    assert str(error.value) == ("reduced equations take one angle theta, "
                                f"got an array of shape {theta.shape}")
    assert rng.bit_generator.state == before


def test_lemma_equations_zero_pair():
    abc, eq = zeroplane.lemma_equations_residuals(np.zeros((7, 4)), THETA)
    assert np.max(eq) == 0.0
    assert np.max(abc) == 0.0
    assert abc.shape == (3,)
    assert eq.shape == (len(zeroplane.EQUATION_LABELS),)


def test_lemma_equations_on_kernel_line():
    theta = THETA
    coords = certify.kernel_reference(theta, 1.0)
    pair = certify.reduced_pair_from_axis(coords, "j")
    eq = dict(zip(zeroplane.EQUATION_LABELS, zeroplane.lemma_equations_residuals(pair, THETA)[1]))
    for label in ("2", "3", "4", "5i", "5k", "6i", "6j", "6k", "7i", "7j", "7k"):
        assert eq[label] <= 1e-8, label
    # the one remaining equation is obstructed: its residual is large ...
    assert eq["1"] > 0.1
    # ... and the (5j) form shows the row-4 sign convention difference verbatim
    assert eq["5j"] == pytest.approx(6.0 * np.cos(theta), abs=1e-9)


def test_exact_family_solutions_pass_both_residual_paths():
    rng = np.random.default_rng(42)
    for build in (zeroplane.x_side_solution, zeroplane.y_side_solution):
        pairs = np.stack([build(rng, THETA) for _ in range(10)])
        abc, eq = zeroplane.lemma_equations_residuals(pairs, THETA)
        assert np.max(eq) <= 1e-12
        assert np.max(abc) <= 1e-12


def test_random_pairs_fail_both_residual_paths():
    rng = np.random.default_rng(43)
    pairs = np.stack([zeroplane.random_reduced_pair(rng) for _ in range(50)])
    abc, eq = zeroplane.lemma_equations_residuals(pairs, THETA)
    assert np.all(np.max(eq, axis=-1) > 1e-6)
    assert np.all(np.max(abc, axis=-1) > 1e-6)


def test_equivalence_holds_at_wider_angle():
    rng = np.random.default_rng(45)
    abc, eq = zeroplane.lemma_equations_residuals(
        checks.mixed_pairs(rng, 0.6, random=100, sides=5, mixed=0), 0.6)
    assert np.array_equal(np.max(abc, axis=-1) <= 1e-9, np.max(eq, axis=-1) <= 1e-9)


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


def test_batched_horizontal_basis_equals_the_one_point_calls():
    # the criterion-10 angles, then a point off the curve
    points = np.concatenate([embeddings.point_p(np.linspace(0.05, np.pi / 6.0 - 0.01, 50)),
                             haar_point(11)[None]])
    bases = zeroplane.horizontal_basis(points)
    rows = zeroplane.condition_basis(points)
    assert bases.shape == (51, 21, 15) and rows.shape == (51, 6, 21)
    for point, basis, row in zip(points, bases, rows):
        assert np.array_equal(zeroplane.horizontal_basis(point), basis)
        assert np.array_equal(zeroplane.condition_basis(point), row)


def test_horizontal_basis_is_the_null_space_at_any_rank(monkeypatch):
    points = embeddings.point_p([0.1, 0.2])
    rows = zeroplane.condition_basis(points)
    rows[1, 5] = rows[1, 0]
    # a rank-5 condition basis alone has a 16-dimensional null space
    monkeypatch.setattr(zeroplane, "condition_basis", lambda p: rows[1])
    basis = zeroplane.horizontal_basis(points[1])
    assert basis.shape == (21, 16)
    assert np.allclose(basis.T @ basis, np.eye(16), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(rows[1] @ basis)) <= 1e-12
    # in one stack with a rank-6 basis, it raises
    monkeypatch.setattr(zeroplane, "condition_basis", lambda p: rows)
    with pytest.raises(ValueError,
                       match=r"^condition bases of ranks \[5, 6\] in one stack$"):
        zeroplane.horizontal_basis(points)


def test_batched_equations_match_scalar_oracle_and_per_pair_conditions():
    rng = np.random.default_rng(46)
    checked = 0
    for theta in (np.pi / 24.0, np.pi / 12.0, np.pi / 8.0):
        p = embeddings.point_p(theta)
        stack = checks.mixed_pairs(rng, theta, random=50, sides=10, mixed=5)
        abc, eq = zeroplane.lemma_equations_residuals(stack, theta)
        assert abc.shape == (len(stack), 3) and eq.shape == (len(stack), 13)
        for row, got_eq, got_abc in zip(stack, eq, abc):
            # relative to the size of the pair's coordinates
            scale = max(1.0, float(np.max(np.abs(row))))
            oracle = np.array(scalar_lemma_equations(row, theta))
            assert np.max(np.abs(got_eq - oracle)) <= 1e-12 * scale
            x, y = zeroplane.pair_matrices(row)
            direct = np.array([zeroplane.conditionA_residual(x, y, p),
                               zeroplane.conditionB_residual(x, y),
                               zeroplane.conditionC_residual(x, y, p)])
            assert np.max(np.abs(got_abc - direct)) <= 1e-12 * max(1.0, np.max(direct))
            checked += 1
    assert checked >= 200


def test_batched_equations_keep_leading_axes():
    rng = np.random.default_rng(47)
    pairs = np.stack([zeroplane.random_reduced_pair(rng) for _ in range(10)])
    stack = pairs.reshape(2, 5, 7, 4)
    abc, eq = zeroplane.lemma_equations_residuals(stack, THETA)
    assert eq.shape == (2, 5, 13)
    assert abc.shape == (2, 5, 3)
    _, single = zeroplane.lemma_equations_residuals(pairs[7], THETA)
    assert single.shape == (13,)
    assert list(eq[1, 2]) == pytest.approx(list(single), rel=1e-12, abs=1e-15)
    assert zeroplane.family_forms(stack, THETA).shape == (2, 5, 9)


def test_batched_equations_reject_malformed_stacks():
    stack = np.zeros((3, 7, 4))
    with pytest.raises(ValueError, match="trailing shape"):
        zeroplane.lemma_equations_residuals(np.zeros((3, 6, 4)), THETA)
    stack[1, 2, 0] = 1.0  # a real part in the imaginary slot x3
    with pytest.raises(ValueError, match="real part"):
        zeroplane.lemma_equations_residuals(stack, THETA)
    stack[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        zeroplane.lemma_equations_residuals(stack, THETA)
