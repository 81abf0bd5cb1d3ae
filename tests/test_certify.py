import numpy as np
import pytest

from biquot import certify, embeddings, liealg, zeroplane

R3 = np.sqrt(3.0)
PI12 = np.pi / 12.0

# closed-form kernel at theta = pi/12, ell = j, in the (x2) = -sqrt(3)cos gauge
FROZEN_KERNEL_J = np.array([
    -2.7103921201, -1.6730326075, 2.8977774789, -0.0170596835,
    -0.7810282637, -0.4482877361, -0.0122288333,
])


def test_linear_system_rows():
    theta = 0.31
    t = np.tan(theta)
    m = certify.build_linear_system(theta, "j")
    assert m.shape == (6, 7)
    assert m[3] == pytest.approx([0.0, R3, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert m[2] == pytest.approx([0.0, t, 0.0, 0.0, 0.0, -1.0, 0.0])
    mk = certify.build_linear_system(theta, "k")
    assert mk[3] == pytest.approx([0.0, R3, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_linear_system_rejects_bad_inputs():
    with pytest.raises(ValueError, match="axis label"):
        certify.build_linear_system(0.3, "i")
    with pytest.raises(ValueError, match="pi/2"):
        certify.build_linear_system(2.0, "j")


def test_reference_annihilated_by_system():
    for theta in np.linspace(0.02, 1.5, 40):
        for ell, eps in (("j", 1.0), ("k", -1.0)):
            m = certify.build_linear_system(float(theta), ell)
            v = certify.kernel_reference(float(theta), eps)
            assert np.max(np.abs(m @ v)) <= 1e-9 * max(1.0, np.max(np.abs(v)))


def test_reference_components():
    theta = 0.47
    ref = certify.kernel_reference(theta, 1.0)
    assert ref[1] == pytest.approx(-R3 * np.cos(theta))
    ref_k = certify.kernel_reference(PI12, -1.0)
    assert ref_k[2] == pytest.approx(-3.0 * np.cos(PI12))


def test_reference_difference_identity():
    grid = np.linspace(0.01, 1.5, 500)
    for eps in (1.0, -1.0):
        ref = certify.kernel_reference(grid, eps)
        expected = 6.0 - (6.0 + 3.0 * eps) * np.cos(grid)
        assert np.max(np.abs(ref[..., 0] - ref[..., 3] - expected)) <= 1e-10


def test_kernel_solution_dimension_and_gauge():
    for theta in (np.pi / 24.0, PI12, 0.5):
        for ell in ("j", "k"):
            dim, sol = certify.kernel_solution(theta, ell)
            assert dim == 1
            assert sol.coords[1] == pytest.approx(-R3 * np.cos(theta))
            assert sol.epsilon == (1.0 if ell == "j" else -1.0)
            assert certify.kernel_match(theta, ell) >= certify.KERNEL_MATCH_MIN


def test_kernel_frozen_values_two_paths():
    assert certify.kernel_reference(PI12, 1.0) == pytest.approx(FROZEN_KERNEL_J, abs=1e-6)
    _, sol = certify.kernel_solution(PI12, "j")
    assert sol.coords == pytest.approx(FROZEN_KERNEL_J, abs=1e-6)


def test_kernel_solution_reports_ill_conditioned_gap(monkeypatch):
    rank_two = np.outer(np.arange(1.0, 7.0), np.ones(7))
    rank_two[0, 0] += 1.0
    monkeypatch.setattr("biquot.certify.build_linear_system", lambda theta, ell: rank_two)
    with pytest.raises(ValueError, match="ill-conditioned"):
        certify.kernel_solution(0.3, "j")


def test_sign_certificate_values():
    assert certify.sign_certificate(PI12) is True
    ref_j = certify.kernel_reference(PI12, 1.0)
    assert ref_j[4] == pytest.approx(-0.7810282637, abs=1e-6)
    assert ref_j[0] - ref_j[3] == pytest.approx(6.0 - 9.0 * np.cos(PI12), abs=1e-12)
    ref_k = certify.kernel_reference(PI12, -1.0)
    assert ref_k[4] > 0.0
    assert ref_k[0] - ref_k[3] == pytest.approx(6.0 - 3.0 * np.cos(PI12), abs=1e-12)


def test_sign_certificate_rejects_out_of_window():
    with pytest.raises(ValueError, match="pi/6"):
        certify.sign_certificate(np.pi / 5.0)
    with pytest.raises(ValueError, match="pi/6"):
        certify.sign_certificate(0.0)


def test_identity_suite_all_pass():
    checks = certify.identity_suite()
    assert len(checks) == 5
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "factorization-coefficients" in names


def test_search_is_deterministic():
    a = certify.search_zero_plane(PI12, starts=6, iterations=60, seed=11)
    b = certify.search_zero_plane(PI12, starts=6, iterations=60, seed=11)
    assert a.min_residual == b.min_residual
    assert np.array_equal(a.argmin_pair[0], b.argmin_pair[0])
    assert np.array_equal(a.argmin_pair[1], b.argmin_pair[1])
    # start streams are seeded seed + index, so a disjoint seed range gives
    # genuinely different starts
    c = certify.search_zero_plane(PI12, starts=6, iterations=5, seed=500)
    d = certify.search_zero_plane(PI12, starts=6, iterations=5, seed=11)
    assert not np.array_equal(c.argmin_pair[0], d.argmin_pair[0])


def test_search_argmin_is_orthonormal_and_horizontal():
    report = certify.search_zero_plane(PI12, starts=8, iterations=150, seed=0)
    x, y = report.argmin_pair
    assert abs(liealg.g0_inner(x, x) - 1.0) <= 1e-10
    assert abs(liealg.g0_inner(y, y) - 1.0) <= 1e-10
    assert abs(liealg.g0_inner(x, y)) <= 1e-10
    pt = embeddings.point_p(PI12)
    assert zeroplane.conditionA_residual(x, y, pt) <= 1e-10
    assert report.min_residual > 1e-6


def test_search_residual_matches_condition_residuals():
    report = certify.search_zero_plane(PI12, starts=4, iterations=100, seed=5)
    x, y = report.argmin_pair
    pt = embeddings.point_p(PI12)
    b = zeroplane.conditionB_residual(x, y)
    c = zeroplane.conditionC_residual(x, y, pt)
    assert report.min_residual == pytest.approx(np.hypot(b, c), rel=1e-9)


def test_batched_objective_gradient_and_residuals():
    thetas = (0.05, PI12, 0.45)
    points = [embeddings.point_p(theta) for theta in thetas]
    bases = [zeroplane.horizontal_basis(pt) for pt in points]
    angle = np.array([0, 1, 2, 1, 0, 2, 2])
    objective = certify._WedgeObjective(
        [certify._pair_form(basis, pt) for pt, basis in zip(points, bases)], angle)
    rng = np.random.default_rng(4)
    u = certify._retract(rng.standard_normal((angle.size, 15, 2)))
    value, grad = objective.value_and_grad(u)
    # the line search compares values from both entry points
    assert np.array_equal(objective.value(u), value)

    for frame, a in enumerate(angle):
        coords = bases[a] @ u[frame]
        x, y = liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1])
        expected = np.hypot(zeroplane.conditionB_residual(x, y),
                            zeroplane.conditionC_residual(x, y, points[a]))
        assert np.sqrt(value[frame]) == pytest.approx(expected, rel=1e-9)

    _assert_gradient_matches_slopes(objective, u, grad, rng)

    subset = np.array([5, 1])
    assert np.array_equal(objective.value(u[subset], subset), value[subset])


def _assert_gradient_matches_slopes(objective, u, grad, rng, step=1e-6):
    for _ in range(3):
        direction = certify._tangent_project(u, rng.standard_normal(u.shape))
        direction /= np.linalg.norm(direction, axis=(1, 2), keepdims=True)
        slope = (objective.value(u + step * direction)
                 - objective.value(u - step * direction)) / (2.0 * step)
        predicted = np.einsum("sij,sij->s", grad, direction)
        assert slope == pytest.approx(predicted, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("basis", [certify.p_subspace_basis(),
                                   certify.berger_complement_basis()],
                         ids=["p", "berger-complement"])
def test_bracket_floor_objective_is_squared_bracket(basis):
    objective = certify._WedgeObjective(
        [certify._compress(certify._wedge_terms(basis, certify._STRUCTURE))])
    rng = np.random.default_rng(12)
    u = certify._retract(rng.standard_normal((6, basis.shape[1], 2)))
    value, grad = objective.value_and_grad(u)
    assert np.array_equal(objective.value(u), value)
    for frame in range(len(u)):
        coords = basis @ u[frame]
        b = liealg.bracket(liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1]))
        assert value[frame] == pytest.approx(liealg.g0_inner(b, b), rel=1e-12)
    _assert_gradient_matches_slopes(objective, u, grad, rng)


def test_batched_search_matches_one_angle_searches(monkeypatch):
    thetas = [0.1, 0.2, 0.3]
    seeds = [3, 100006, 200009]
    # three starts per angle against a two-frame cap: one angle per descent
    monkeypatch.setattr(certify, "MAX_DESCENT_FRAMES", 2)
    grouped = certify.search_zero_planes(thetas, 3, 40, seeds)
    monkeypatch.undo()
    batched = certify.search_zero_planes(thetas, 3, 40, seeds)
    for theta, seed, a, b in zip(thetas, seeds, grouped, batched):
        single = certify.search_zero_plane(theta, starts=3, iterations=40, seed=seed)
        assert (a.theta, a.starts, a.iterations) == (theta, 3, 40)
        for report in (a, b):
            assert report.min_residual == pytest.approx(single.min_residual, rel=1e-9)
            assert np.allclose(report.argmin_pair[0], single.argmin_pair[0], atol=1e-9)


def test_search_rejects_negative_iterations_and_seed_mismatch():
    with pytest.raises(ValueError, match="iterations"):
        certify.search_zero_plane(PI12, starts=2, iterations=-1)
    with pytest.raises(ValueError, match="iterations"):
        certify.search_zero_planes([PI12], 2, -5, [0])
    with pytest.raises(ValueError, match="seeds"):
        certify.search_zero_planes([0.1, 0.2], 2, 5, [0])
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        certify.search_zero_plane(PI12, starts=2, iterations=5, seed=-1)


def test_search_rejects_bad_starts():
    with pytest.raises(ValueError, match="starts"):
        certify.search_zero_plane(PI12, starts=0)


def test_search_floor_positive_across_window():
    for theta in (0.02, np.pi / 24.0, PI12, np.pi / 6.0 - 0.02):
        report = certify.search_zero_plane(theta, starts=20, iterations=150, seed=7)
        assert report.min_residual >= 1e-8


def test_bracket_floor_quick():
    p_floor = certify.bracket_floor(certify.p_subspace_basis(), samples=2000, seed=1,
                                    refine_starts=8, refine_iterations=120)
    assert 1e-6 <= p_floor <= 0.5 + 1e-6
    berger = certify.bracket_floor(certify.berger_complement_basis(), samples=2000,
                                   seed=2, refine_starts=8, refine_iterations=120)
    assert 1e-6 <= berger <= 0.4 + 1e-6


def test_subspace_bases():
    p_basis = certify.p_subspace_basis()
    assert p_basis.shape == (21, 8)
    assert np.max(np.abs(liealg.split_kp(liealg.unvec_sp3(p_basis.T)).k_part)) == 0.0
    berger = certify.berger_complement_basis()
    assert berger.shape == (21, 7)
    elems = liealg.unvec_sp3(berger.T)
    assert np.max(np.abs(elems - liealg.sp2_project(elems))) == 0.0
    h2 = embeddings.h2_basis().stack()
    cross = liealg.vec_sp3(h2) @ berger
    assert np.max(np.abs(cross)) <= 1e-12


def test_certify_theta_verdicts():
    cert = certify.certify_theta(PI12)
    assert cert.verdict == "positive"
    assert cert.rho_rank == 3
    assert cert.kernel_dim_j == 1 and cert.kernel_dim_k == 1
    assert cert.kernel_match_j >= certify.KERNEL_MATCH_MIN
    assert cert.kernel_match_k >= certify.KERNEL_MATCH_MIN
    assert cert.sign_ok is True
    assert cert.lambda_case_note is not None

    outside = certify.certify_theta(0.6)
    assert outside.verdict == "inconclusive"
    assert outside.sign_ok is False

    with pytest.raises(ValueError, match="pi/2"):
        certify.certify_theta(-0.1)


@pytest.mark.parametrize("target,patch", [
    ("rho_rank", lambda theta_pt: 2),
    ("sign_certificate", lambda theta: False),
])
def test_certify_theta_monotone_safety_simple(monkeypatch, target, patch):
    monkeypatch.setattr(f"biquot.certify.{target}", patch)
    assert certify.certify_theta(PI12).verdict == "inconclusive"


def test_certify_theta_monotone_safety_kernel(monkeypatch):
    real = certify.kernel_solution

    def wrong_dimension(theta, ell):
        _, sol = real(theta, ell)
        return 2, sol

    monkeypatch.setattr("biquot.certify.kernel_solution", wrong_dimension)
    assert certify.certify_theta(PI12).verdict == "inconclusive"


def test_certify_theta_monotone_safety_reference(monkeypatch):
    real = certify.kernel_reference

    def skewed(theta, epsilon):
        out = real(theta, epsilon)
        return out + 0.05 * np.ones_like(out)

    monkeypatch.setattr("biquot.certify.kernel_reference", skewed)
    cert = certify.certify_theta(PI12)
    assert cert.verdict == "inconclusive"
    assert cert.kernel_match_j < certify.KERNEL_MATCH_MIN


def test_certify_theta_inconclusive_on_kernel_error(monkeypatch):
    def broken(theta, ell):
        raise ValueError("ill-conditioned null-space gap")

    monkeypatch.setattr("biquot.certify.kernel_solution", broken)
    cert = certify.certify_theta(PI12)
    assert cert.verdict == "inconclusive"
    assert cert.kernel_dim_j == 0 and cert.kernel_dim_k == 0


def test_reduced_pair_from_axis():
    coords = np.arange(1.0, 8.0)
    rp = certify.reduced_pair_from_axis(coords, "k")
    assert rp.x1.array == pytest.approx([0, 0, 1.0])
    assert rp.y3.array == pytest.approx([0, 0, 7.0])
    assert rp.x2.array == pytest.approx([0, 0, 0, 2.0])
    with pytest.raises(ValueError, match="axis label"):
        certify.reduced_pair_from_axis(coords, "i")
    with pytest.raises(ValueError, match="7 axis"):
        certify.reduced_pair_from_axis(coords[:5], "j")
