import dataclasses
import math

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
            assert certify.reference_match(theta, sol) >= certify.KERNEL_MATCH_MIN


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
    objective = certify._WedgeObjective(certify._pair_forms(points, bases))
    rng = np.random.default_rng(4)
    u = certify._retract(rng.standard_normal((angle.size, 15, 2)))
    value = objective.model(u, angle)[0]
    # bracket_floor ranks samples by `value` and refines them by `model`
    assert np.array_equal(objective.value(u, angle), value)

    for frame, a in enumerate(angle):
        coords = bases[a] @ u[frame]
        x, y = liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1])
        expected = np.hypot(zeroplane.conditionB_residual(x, y),
                            zeroplane.conditionC_residual(x, y, points[a]))
        assert np.sqrt(value[frame]) == pytest.approx(expected, rel=1e-9)

    _assert_model_matches_differences(objective, u, rng, angle)

    subset = np.array([5, 1])
    assert np.array_equal(objective.value(u[subset], angle[subset]), value[subset])


def _pair_forms(thetas):
    points = [embeddings.point_p(theta) for theta in thetas]
    return certify._pair_forms(points, [zeroplane.horizontal_basis(pt) for pt in points])


@pytest.mark.parametrize("forms,group", [
    (_pair_forms((0.05, PI12, 0.45)), np.repeat([0, 1, 2], [61, 70, 69])),
    (_pair_forms((PI12,)), np.zeros(200, dtype=int)),
    ([certify._compress(certify._wedge_terms(certify.berger_complement_basis(),
                                             certify._STRUCTURE))], None),
], ids=["three-angles", "one-angle", "berger-complement"])
def test_objective_rows_do_not_depend_on_the_batch(forms, group):
    # the search evaluates only its live frames and compares their values
    # with values from earlier, larger batches
    objective = certify._WedgeObjective(forms)
    rng = np.random.default_rng(31)
    dim = math.isqrt(2 * len(forms[0])) + 1
    u = certify._retract(rng.standard_normal((200, dim, 2)))
    model = objective.model(u, group)
    assert np.array_equal(objective.value(u, group), model[0])
    for count in (1, 2, certify._BLOCK - 1, certify._BLOCK, certify._BLOCK + 1, 200):
        frames = np.sort(rng.choice(200, count, replace=False))
        sub_group = None if group is None else group[frames]
        assert np.array_equal(objective.value(u[frames], sub_group), model[0][frames])
        for part, whole in zip(objective.model(u[frames], sub_group), model):
            assert np.array_equal(part, whole[frames])
        fresh = certify._WedgeObjective(forms)
        for part, whole in zip(fresh.model(u[frames], sub_group), model):
            assert np.array_equal(part, whole[frames])


def test_retraction_is_orthonormal_and_spans_the_qr_plane():
    rng = np.random.default_rng(21)
    random = rng.standard_normal((500, 15, 2))
    x = random[..., 0] / np.linalg.norm(random[..., 0], axis=-1, keepdims=True)
    z = random[..., 1] - np.einsum("si,si->s", x, random[..., 1])[:, None] * x
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    cos = 1.0 - 1e-10
    nearly_dependent = np.stack([3.0 * x, 0.5 * (cos * x + math.sqrt(1.0 - cos**2) * z)],
                                axis=-1)
    for frames in (random, nearly_dependent):
        q = certify._retract(frames)
        gram = np.swapaxes(q, 1, 2) @ q
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-13
        reference = np.linalg.qr(frames)[0]
        gap = np.max(np.abs(q @ np.swapaxes(q, 1, 2)
                            - reference @ np.swapaxes(reference, 1, 2)), axis=(1, 2))
        # both are backward stable, so each plane is exact up to about
        # eps * cond(frames); near-dependent columns widen the bound
        bound = np.maximum(1e-12, 4.0 * np.finfo(float).eps * np.linalg.cond(frames))
        assert np.all(gap <= bound)
        for count in (1, 7):
            assert np.array_equal(certify._retract(frames[:count]), q[:count])


def _assert_model_matches_differences(objective, u, rng, group=None, step=1e-6,
                                     curve_step=1e-4):
    """The Riemannian gradient and Hessian of `model` against central
    differences of the value along retracted random tangent directions;
    span(u + t Z) is a second-order retraction on the Grassmannian."""
    value, grad, hess, comp = objective.model(u, group)
    assert np.array_equal(objective.value(u, group), value)
    assert np.max(np.abs(hess - np.swapaxes(hess, 1, 2))) <= 1e-12
    gram = np.swapaxes(comp, 1, 2) @ comp
    assert np.max(np.abs(gram - np.eye(comp.shape[2]))) <= 1e-13
    assert np.max(np.abs(np.swapaxes(u, 1, 2) @ comp)) <= 1e-13

    def along(coords, t):
        return objective.value(certify._retract(u + t * certify._tangent(comp, coords)), group)

    for _ in range(3):
        coords = rng.standard_normal(grad.shape)
        coords /= np.linalg.norm(coords, axis=-1, keepdims=True)
        assert np.allclose(np.linalg.norm(certify._tangent(comp, coords), axis=(1, 2)), 1.0,
                           rtol=0.0, atol=1e-13)
        slope = (along(coords, step) - along(coords, -step)) / (2.0 * step)
        assert slope == pytest.approx(np.sum(grad * coords, axis=-1), rel=1e-6, abs=1e-9)
        curve = (along(coords, curve_step) - 2.0 * value
                 + along(coords, -curve_step)) / curve_step**2
        predicted = np.einsum("si,sij,sj->s", coords, hess, coords)
        assert curve == pytest.approx(predicted, rel=1e-5, abs=1e-6)


def test_bordered_factors_mark_only_the_indefinite_frames():
    # a frame's fallback must not depend on the others, so an indefinite
    # frame in a mixed stack comes back all NaN and alone
    rng = np.random.default_rng(41)
    size, count = 26, 9
    a = rng.standard_normal((count, size, size))
    hess = a @ np.swapaxes(a, 1, 2) / size
    hess[[1, 4, 5]] -= 4.0 * np.eye(size)
    grad = rng.standard_normal((count, size))
    shift = np.full(count, 0.1)
    factors = certify._bordered_factors(hess, grad, shift)
    shifted = hess + 0.1 * np.eye(size)
    indefinite = np.linalg.eigvalsh(shifted)[:, 0] < 0.0
    assert np.flatnonzero(indefinite).tolist() == [1, 4, 5]
    for frame in range(count):
        if indefinite[frame]:
            assert np.all(np.isnan(factors[frame]))
            continue
        alone = certify._bordered_factors(hess[frame:frame + 1], grad[frame:frame + 1],
                                          shift[frame:frame + 1])
        assert np.array_equal(factors[frame], alone[0])
        lower, half = factors[frame, :size, :size], factors[frame, size, :size]
        assert np.array_equal(lower, np.tril(lower))
        assert np.allclose(lower @ lower.T, shifted[frame], rtol=0.0, atol=1e-12)
        assert np.allclose(lower @ half, grad[frame], rtol=0.0, atol=1e-12)
        assert factors[frame, size, size] == np.inf


@pytest.mark.parametrize("basis", [certify.p_subspace_basis(),
                                   certify.berger_complement_basis()],
                         ids=["p", "berger-complement"])
def test_bracket_floor_objective_is_squared_bracket(basis):
    objective = certify._WedgeObjective(
        [certify._compress(certify._wedge_terms(basis, certify._STRUCTURE))])
    rng = np.random.default_rng(12)
    u = certify._retract(rng.standard_normal((6, basis.shape[1], 2)))
    value = objective.value(u)
    for frame in range(len(u)):
        coords = basis @ u[frame]
        b = liealg.bracket(liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1]))
        assert value[frame] == pytest.approx(liealg.g0_inner(b, b), rel=1e-12)
    _assert_model_matches_differences(objective, u, rng)


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


def test_search_converges_at_pi12():
    report = certify.search_zero_plane(PI12, starts=200, iterations=500, seed=0)
    # the floor that per-start L-BFGS on the same objective reaches
    assert abs(report.min_residual - 0.0879999554) <= 1e-6
    assert report.grad_norm <= certify.GRAD_TOL
    assert report.iterations_used < 500
    assert report.converged + report.stalled == 200
    doubled = certify.search_zero_plane(PI12, starts=200, iterations=1000, seed=0)
    assert abs(doubled.min_residual - report.min_residual) <= 1e-12


def _assert_same_report(a, b):
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if field.name == "argmin_pair":
            assert all(np.array_equal(p, q) for p, q in zip(left, right))
        else:
            assert left == right, field.name


def test_search_chunks_a_row_larger_than_a_descent(monkeypatch):
    thetas, seeds = [0.2, PI12], [4, 900]
    whole = certify.search_zero_planes(thetas, 7, 60, seeds)
    sizes = []
    real = certify._newton_search

    def spy(objective, frames, cap, group):
        sizes.append(len(frames))
        return real(objective, frames, cap, group)

    monkeypatch.setattr(certify, "MAX_DESCENT_FRAMES", 3)
    monkeypatch.setattr(certify, "_newton_search", spy)
    chunked = certify.search_zero_planes(thetas, 7, 60, seeds)
    single = certify.search_zero_plane(0.2, starts=7, iterations=60, seed=4)
    # two rows, then the one-angle search, each in chunks of 3, 3 and 1 starts
    assert sizes == [3, 3, 1] * 3
    for a, b in zip(whole, chunked):
        _assert_same_report(a, b)
    _assert_same_report(whole[0], single)


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


def test_search_rejects_non_integral_sizes():
    with pytest.raises(ValueError, match="^starts must be an integer, got 2.5"):
        certify.search_zero_plane(0.3, starts=2.5)
    with pytest.raises(ValueError, match="^iterations must be an integer, got 3.0"):
        certify.search_zero_plane(0.3, starts=2, iterations=3.0)
    with pytest.raises(ValueError, match="^seed must be an integer, got 0.5"):
        certify.search_zero_planes([0.1, 0.2], 2, 3, [0, 0.5])
    report = certify.search_zero_plane(0.3, starts=np.int64(2), iterations=np.int32(3),
                                       seed=np.uint8(1))
    assert (report.starts, report.iterations) == (2, 3)


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


@pytest.mark.parametrize("name,value,message", [
    pytest.param("samples", 0, "must be at least", id="samples-0"),
    pytest.param("refine_starts", 0, "must be at least", id="refine_starts-0"),
    pytest.param("refine_iterations", -1, "must be at least", id="refine_iterations--1"),
    pytest.param("subspace", np.eye(21)[:, :1], "must be a 2-D array", id="subspace-1-column"),
    pytest.param("subspace", np.eye(21)[:, :0], "must be a 2-D array", id="subspace-0-columns"),
    pytest.param("subspace", np.eye(5), "must be a 2-D array", id="subspace-5-rows"),
    pytest.param("subspace", np.ones(21), "must be a 2-D array", id="subspace-1-d"),
    pytest.param("subspace", np.full((21, 8), np.nan), "entries must be finite",
                 id="subspace-nan"),
])
def test_bracket_floor_rejects_bad_sizes(name, value, message):
    kwargs = {"subspace": certify.p_subspace_basis(), "samples": 10, name: value}
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        certify.bracket_floor(**kwargs)


@pytest.mark.parametrize("name", ["samples", "seed", "refine_starts", "refine_iterations"])
def test_bracket_floor_rejects_non_integral_sizes(name):
    kwargs = {"samples": 10, "refine_starts": 2, "refine_iterations": 3, name: 1.5}
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5"):
        certify.bracket_floor(certify.p_subspace_basis(), **kwargs)
    kwargs[name] = np.int64(2)
    assert certify.bracket_floor(certify.p_subspace_basis(), **kwargs) > 0.0


def test_subspace_bases():
    p_basis = certify.p_subspace_basis()
    assert p_basis.shape == (21, 8)
    assert np.max(np.abs(liealg.split_kp(liealg.unvec_sp3(p_basis.T)).k_part)) == 0.0
    berger = certify.berger_complement_basis()
    assert berger.shape == (21, 7)
    elems = liealg.unvec_sp3(berger.T)
    assert np.max(np.abs(elems - liealg.sp2_project(elems))) == 0.0
    h2 = embeddings.h2_basis()
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
    pair = certify.reduced_pair_from_axis(coords, "k")
    assert pair[0, 1:] == pytest.approx([0, 0, 1.0])
    assert pair[6, 1:] == pytest.approx([0, 0, 7.0])
    assert pair[1] == pytest.approx([0, 0, 0, 2.0])
    with pytest.raises(ValueError, match="axis label"):
        certify.reduced_pair_from_axis(coords, "i")
    with pytest.raises(ValueError, match="7 axis"):
        certify.reduced_pair_from_axis(coords[:5], "j")
