import dataclasses
import math
import re
import sys
import time

import numpy as np
import pytest
from _oracles import (bracket_terms, haar_point, pair_terms, per_angle_kernel_two_path,
                      retracted_bracket_floor)

from biquot import certify, checks, embeddings, liealg, zeroplane

R3 = np.sqrt(3.0)
PI12 = np.pi / 12.0
# the p summand's first three coordinates and two commuting k coordinates
COMMUTING_SUBSPACE = np.eye(21)[:, [0, 3, 13, 14, 15]]

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


@pytest.mark.parametrize("check,upper,statement", [
    (embeddings.point_p, np.pi / 2.0, "theta must lie in (0, pi/2)"),
    (lambda theta: certify.build_linear_system(theta, "j"), np.pi / 2.0,
     "theta must lie in (0, pi/2)"),
    (certify.sign_certificate, np.pi / 6.0, "sign certificate is stated on (0, pi/6)"),
], ids=["point_p", "build_linear_system", "sign_certificate"])
@pytest.mark.parametrize("theta,first", [
    (np.nan, "nan"), (0.0, "0.0"), ("upper", "upper"), ([0.1, "upper", np.nan, 0.0], "upper"),
], ids=["nan", "zero", "upper", "mixed"])
def test_angle_range_checks_name_the_first_bad_angle(check, upper, statement, theta, first):
    def at(value):
        return upper if value == "upper" else value

    theta = [at(value) for value in theta] if isinstance(theta, list) else at(theta)
    first = repr(upper) if first == "upper" else first
    with pytest.raises(ValueError, match=f"^{re.escape(statement)}, got {first}$"):
        check(theta)


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
        for ell, eps in certify.EPSILON_BY_ELL.items():
            dim, coords = certify.kernel_solutions(theta, ell)
            assert dim == 1
            assert coords.shape == (7,)
            assert coords[1] == pytest.approx(-R3 * np.cos(theta))
            match = certify.reference_match(coords, certify.kernel_reference(theta, eps))
            assert isinstance(match, float) and match >= certify.KERNEL_MATCH_MIN


def test_kernel_frozen_values_two_paths():
    assert certify.kernel_reference(PI12, 1.0) == pytest.approx(FROZEN_KERNEL_J, abs=1e-6)
    _, coords = certify.kernel_solutions(PI12, "j")
    assert coords == pytest.approx(FROZEN_KERNEL_J, abs=1e-6)


RANK_TWO = np.outer(np.arange(1.0, 7.0), np.ones(7))
RANK_TWO[0, 0] += 1.0


def test_kernel_solution_reports_ill_conditioned_gap(monkeypatch):
    monkeypatch.setattr("biquot.certify.build_linear_system", lambda theta, ell: RANK_TWO)
    dim, coords = certify.kernel_solutions(0.3, "j")
    assert dim == 0
    assert np.isnan(coords).all()


SELFTEST_GRID = np.linspace(0.01, np.pi / 6.0 - 0.01, 1000)
BUILD_LINEAR_SYSTEM = certify.build_linear_system


@pytest.mark.parametrize("ell", ["j", "k"])
def test_kernel_solutions_match_one_angle_calls(ell):
    dims, coords = certify.kernel_solutions(SELFTEST_GRID, ell)
    one_angle = [certify.kernel_solutions(float(theta), ell) for theta in SELFTEST_GRID]
    assert np.array_equal(dims, [dim for dim, _ in one_angle])
    assert np.array_equal(coords, np.stack([vector for _, vector in one_angle]))


@pytest.mark.parametrize("eps", [1.0, -1.0])
def test_kernel_reference_batch_equals_one_angle_calls(eps):
    batch = certify.kernel_reference(SELFTEST_GRID, eps)
    one_angle = np.stack([certify.kernel_reference(float(theta), eps)
                          for theta in SELFTEST_GRID])
    assert np.array_equal(batch, one_angle)


def _with_systems(monkeypatch, replaced):
    """Patch `build_linear_system` to return the true systems with the ones at
    the given angle indices replaced."""
    def build(theta, ell):
        systems = BUILD_LINEAR_SYSTEM(theta, ell).copy()
        for index, system in replaced.items():
            systems[index] = system
        return systems

    monkeypatch.setattr("biquot.certify.build_linear_system", build)


def test_kernel_solutions_give_dimension_zero_where_the_kernel_is_undefined(monkeypatch):
    no_gauge = np.hstack([np.zeros((6, 1)), np.eye(6)])  # kernel along (x1)
    thetas = np.linspace(0.1, 0.5, 5)
    true_dims, true_coords = certify.kernel_solutions(thetas, "k")
    assert np.array_equal(true_dims, [1] * 5)

    _with_systems(monkeypatch, {1: no_gauge, 3: RANK_TWO})
    dims, coords = certify.kernel_solutions(thetas, "k")
    assert np.array_equal(dims, [1, 0, 1, 0, 1])
    assert np.isnan(coords[[1, 3]]).all()
    assert np.array_equal(coords[[0, 2, 4]], true_coords[[0, 2, 4]])
    # either system alone gives the same
    for system in (no_gauge, RANK_TWO):
        monkeypatch.setattr("biquot.certify.build_linear_system", lambda theta, ell: system)
        dim, alone = certify.kernel_solutions(0.3, "k")
        assert dim == 0 and np.isnan(alone).all()


def test_kernel_two_path_matches_per_angle_oracle():
    dims, worst = checks.kernel_two_path(points=1000)
    oracle_dims, oracle_worst = per_angle_kernel_two_path(points=1000)
    assert dims == oracle_dims == {1}
    assert abs(worst - oracle_worst) <= 4.0 * np.spacing(oracle_worst)


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
    coefficients, signs, scale = checks.scalar_identities(points=10_000)
    assert coefficients == (2, -3, 0, 1)
    assert len(signs) == 3
    for least, end in signs.values():
        assert least > 0.0
        assert abs(end) <= 1e-6
    # both scale coefficients behave like theta at 0, so each least value
    # sits at the first grid angle
    assert scale == pytest.approx((np.pi / 4.0 / 10_001,) * 2, rel=1e-7)


def test_factorization_positivity_is_not_rounding_near_zero():
    # 2c^3 - 3c^2 + 1 cancels near theta = 0; at 20,000 points its expanded
    # form reads -2.2e-16 there, the factored one stays positive
    _, signs, _ = checks.scalar_identities(points=20_000)
    least, end = signs["factorization-positivity"]
    assert least > 0.0 and end == 0.0
    # the least value sits at the first grid angle, where 1 - c = theta^2 / 2
    # to about 1e-10 and 2c + 1 = 3 to about 1e-9
    first = np.pi / 6.0 / 20_001
    assert least == pytest.approx(3.0 * (first * first / 2.0) ** 2, rel=1e-8)


def test_identity_suite_fails_each_fact_it_cannot_confirm(monkeypatch):
    nan = float("nan")
    monkeypatch.setattr(checks, "scalar_identities", lambda points: (
        (2, -3, 0, 2), {"a": (1.0, 0.0), "b": (nan, 0.0), "c": (1.0, 1e-3)}, (1.0, nan)))
    name, ok, detail = checks._suite_identity_suite()
    assert (name, ok) == ("identity-suite", False)
    assert detail == ("factorization-coefficients: FAIL; a: pass; b: FAIL; c: FAIL; "
                      "scale-identity-coefficients: FAIL")


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
    assert zeroplane.conditionA_residual(x, y, embeddings.point_p(PI12)) <= 1e-10
    assert report.min_residual > 1e-6


def test_search_residual_matches_condition_residuals():
    report = certify.search_zero_plane(PI12, starts=4, iterations=100, seed=5)
    x, y = report.argmin_pair
    b = zeroplane.conditionB_residual(x, y)
    c = zeroplane.conditionC_residual(x, y, embeddings.point_p(PI12))
    assert report.min_residual == pytest.approx(np.hypot(b, c), rel=1e-9)


def test_search_runs_at_a_point_off_the_curve():
    q = haar_point(11)
    assert zeroplane.horizontal_basis(q).shape == (21, 15)
    (report,) = certify._search_rows(q[None], 8, 200, [0])
    x, y = report.argmin_pair
    assert zeroplane.conditionA_residual(x, y, q) <= 1e-10
    assert report.min_residual == pytest.approx(
        np.hypot(zeroplane.conditionB_residual(x, y), zeroplane.conditionC_residual(x, y, q)),
        rel=1e-9)
    assert report.min_residual > 1e-3


def test_batched_objective_gradient_and_residuals():
    points, bases = _points_and_bases((0.05, PI12, 0.45))
    angle = np.array([0, 1, 2, 1, 0, 2, 2])
    objective = certify._WedgeObjective(certify._pair_forms(points, bases))
    rng = np.random.default_rng(4)
    u = certify._retract(rng.standard_normal((angle.size, 15, 2)))
    value = objective.model(u, angle)[0]

    for frame, a in enumerate(angle):
        coords = bases[a] @ u[frame]
        x, y = liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1])
        expected = np.hypot(zeroplane.conditionB_residual(x, y),
                            zeroplane.conditionC_residual(x, y, points[a]))
        assert np.sqrt(value[frame]) == pytest.approx(expected, rel=1e-9)

    _assert_model_matches_differences(objective, u, rng, angle)

    subset = np.array([5, 1])
    assert np.array_equal(objective.model(u[subset], angle[subset])[0], value[subset])


def _points_and_bases(thetas):
    points = embeddings.point_p(np.asarray(thetas))
    return points, zeroplane.horizontal_basis(points)


def _pair_forms(thetas):
    return certify._pair_forms(*_points_and_bases(thetas))


def _gram_gap(factor, terms):
    """max |L L^T - T T^T| relative to max |T T^T|, per form."""
    lhs = factor @ np.swapaxes(factor, -1, -2)
    rhs = terms @ np.swapaxes(terms, -1, -2)
    return np.max(np.abs(lhs - rhs), axis=(-2, -1)) / np.max(np.abs(rhs), axis=(-2, -1))


def test_pair_forms_factor_the_residual_terms():
    thetas = (0.05, PI12, 0.45, 0.52, 0.60, 1.2)
    points, bases = _points_and_bases(thetas)
    forms = certify._pair_forms(points, bases)
    assert forms.shape == (len(thetas), 105, 47)
    assert np.all(_gram_gap(forms, pair_terms(points, bases)) <= 1e-13)
    for row in range(len(thetas)):
        alone = certify._pair_forms(points[row:row + 1], bases[row:row + 1])
        assert np.array_equal(alone[0], forms[row])


@pytest.mark.parametrize("basis,width", [(certify.p_subspace_basis(), 13),
                                         (certify.berger_complement_basis(), 10)],
                         ids=["p", "berger-complement"])
def test_bracket_forms_keep_every_bracket_coordinate(basis, width):
    form = certify._bracket_form(basis)
    assert form.shape == (math.comb(basis.shape[1], 2), width)
    assert _gram_gap(form, bracket_terms(basis)) <= 1e-13


def test_pair_forms_stay_on_the_calling_thread():
    # a BLAS call split over threads leaves the workers spinning after it
    # returns, which charges CPU time while this thread sleeps
    points, bases = _points_and_bases(np.linspace(0.05, 0.6, 50))
    time.sleep(0.3)
    cpu, wall = time.process_time(), time.perf_counter()
    certify._pair_forms(points, bases)
    wall = time.perf_counter() - wall
    time.sleep(0.3)
    assert time.process_time() - cpu - wall <= 0.02


@pytest.mark.parametrize("forms,group", [
    (_pair_forms((0.05, PI12, 0.45)), np.repeat([0, 1, 2], [61, 70, 69])),
    (_pair_forms((PI12,)), np.zeros(200, dtype=int)),
    (certify._bracket_form(certify.berger_complement_basis())[None], None),
], ids=["three-angles", "one-angle", "berger-complement"])
def test_objective_rows_do_not_depend_on_the_batch(forms, group):
    # the search evaluates only its live frames and compares their values
    # with values from earlier, larger batches
    objective = certify._WedgeObjective(forms)
    rng = np.random.default_rng(31)
    dim = math.isqrt(2 * len(forms[0])) + 1
    u = certify._retract(rng.standard_normal((200, dim, 2)))
    model = objective.model(u, group)
    for count in (1, 2, certify._BLOCK - 1, certify._BLOCK, certify._BLOCK + 1, 200):
        frames = np.sort(rng.choice(200, count, replace=False))
        sub_group = None if group is None else group[frames]
        for part, whole in zip(objective.model(u[frames], sub_group), model):
            assert np.array_equal(part, whole[frames])
        fresh = certify._WedgeObjective(forms)
        for part, whole in zip(fresh.model(u[frames], sub_group), model):
            assert np.array_equal(part, whole[frames])


def _p_summand_search():
    objective = certify._WedgeObjective(certify._bracket_form(certify.p_subspace_basis())[None])
    frames = certify._retract(np.random.default_rng(0).standard_normal((64, 8, 2)))
    return certify._newton_search(objective, frames, 200)


@pytest.mark.parametrize("search,stalls", [
    (lambda: certify.search_zero_plane(PI12, starts=200, iterations=500, seed=0), 0),
    (lambda: certify.scan(0.05, 0.45, 3, 4, 120, 77), 0),
    (_p_summand_search, 7),
], ids=["pi-12-200-starts", "three-row-scan", "p-summand-with-stalls"])
def test_search_models_each_frame_once_per_point(monkeypatch, search, stalls):
    # the start frames, then one trial frame per live frame per iteration: an
    # accepted trial carries its model, and a rejected or stalled frame is
    # not modelled again
    model, newton = certify._WedgeObjective.model, certify._newton_search
    modelled, expected, stalled = [], [], []

    def counted_model(self, coords, group=None):
        modelled.append(len(coords))
        return model(self, coords, group)

    def counted_newton(objective, frames, cap, group=None):
        out = newton(objective, frames, cap, group)
        expected.append(len(frames) + int(out[3].sum()))
        stalled.append(int(np.sum(out[4] == certify._STALLED)))
        return out

    monkeypatch.setattr(certify._WedgeObjective, "model", counted_model)
    monkeypatch.setattr(certify, "_newton_search", counted_newton)
    search()
    assert len(expected) == 1
    assert sum(modelled) == expected[0]
    assert stalled == [stalls]


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
    assert np.max(np.abs(hess - np.swapaxes(hess, 1, 2))) <= 1e-12
    gram = np.swapaxes(comp, 1, 2) @ comp
    assert np.max(np.abs(gram - np.eye(comp.shape[2]))) <= 1e-13
    assert np.max(np.abs(np.swapaxes(u, 1, 2) @ comp)) <= 1e-13

    def along(coords, t):
        return objective.model(certify._retract(u + t * certify._tangent(comp, coords)), group)[0]

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
    factors = certify._bordered_factors(hess, grad, np.arange(count), shift)
    shifted = hess + 0.1 * np.eye(size)
    indefinite = np.linalg.eigvalsh(shifted)[:, 0] < 0.0
    assert np.flatnonzero(indefinite).tolist() == [1, 4, 5]
    # a gather out of order, with repeats and more frames than one pass of
    # `_MODEL_FRAMES`, factors each frame as the whole stack does
    subset = 7 * np.arange(certify._MODEL_FRAMES + 8) % count
    gathered = certify._bordered_factors(hess, grad, subset, shift[subset])
    for frame, got in zip(subset, gathered):
        assert np.array_equal(got, factors[frame], equal_nan=True)
    for frame in range(count):
        if indefinite[frame]:
            assert np.all(np.isnan(factors[frame]))
            continue
        alone = certify._bordered_factors(hess[frame:frame + 1], grad[frame:frame + 1],
                                          np.array([0]), shift[frame:frame + 1])
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
    objective = certify._WedgeObjective(certify._bracket_form(basis)[None])
    rng = np.random.default_rng(12)
    u = certify._retract(rng.standard_normal((6, basis.shape[1], 2)))
    value = objective.model(u)[0]
    for frame in range(len(u)):
        coords = basis @ u[frame]
        b = liealg.bracket(liealg.unvec_sp3(coords[:, 0]), liealg.unvec_sp3(coords[:, 1]))
        assert value[frame] == pytest.approx(liealg.g0_inner(b, b), rel=1e-12)
    _assert_model_matches_differences(objective, u, rng)


def test_batched_search_matches_one_angle_searches(monkeypatch):
    thetas = [0.1, 0.2, 0.3]
    seeds = [3, 100006, 200009]
    # three starts per angle against a two-frame cap: one angle per descent
    points = embeddings.point_p(thetas)
    monkeypatch.setattr(certify, "MAX_DESCENT_FRAMES", 2)
    grouped = certify._search_rows(points, 3, 40, seeds)
    monkeypatch.undo()
    batched = certify._search_rows(points, 3, 40, seeds)
    for theta, seed, a, b in zip(thetas, seeds, grouped, batched):
        single = certify.search_zero_plane(theta, starts=3, iterations=40, seed=seed)
        assert (a.starts, a.iterations) == (3, 40)
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
    points, seeds = embeddings.point_p([0.2, PI12]), [4, 900]
    whole = certify._search_rows(points, 7, 60, seeds)
    sizes = []
    real = certify._newton_search

    def spy(objective, frames, cap, group):
        sizes.append(len(frames))
        return real(objective, frames, cap, group)

    monkeypatch.setattr(certify, "MAX_DESCENT_FRAMES", 3)
    monkeypatch.setattr(certify, "_newton_search", spy)
    chunked = certify._search_rows(points, 7, 60, seeds)
    single = certify.search_zero_plane(0.2, starts=7, iterations=60, seed=4)
    # the two rows' 14 frames in chunks of 3, then the one-angle search's 7
    assert sizes == [3, 3, 3, 3, 2] + [3, 3, 1]
    assert max(sizes) <= 3
    for a, b in zip(whole, chunked):
        _assert_same_report(a, b)
    _assert_same_report(whole[0], single)


def test_search_builds_all_its_bases_in_one_call(monkeypatch):
    calls = []
    real = certify.horizontal_basis

    def spy(points):
        calls.append(points.shape)
        return real(points)

    monkeypatch.setattr(certify, "horizontal_basis", spy)
    monkeypatch.setattr(certify, "MAX_DESCENT_FRAMES", 3)
    certify.scan(0.1, 0.3, 3, 2, 5, 0)
    certify.search_zero_plane(PI12, starts=2, iterations=5)
    # one call per search, even when the rows' frames run in several descents
    assert calls == [(3, 3, 3, 4), (1, 3, 3, 4)]


def test_search_rejects_a_degenerate_horizontal_space(monkeypatch):
    real = certify.horizontal_basis
    monkeypatch.setattr(certify, "horizontal_basis", lambda points: real(points)[..., 1:])
    with pytest.raises(ValueError,
                       match="^degenerate horizontal space of dimension 14, expected 15$"):
        certify.search_zero_plane(PI12, starts=2, iterations=5)


def test_search_rejects_negative_iterations_and_seeds():
    with pytest.raises(ValueError, match="iterations"):
        certify.search_zero_plane(PI12, starts=2, iterations=-1)
    with pytest.raises(ValueError, match="iterations"):
        certify.scan(0.1, 0.2, 2, 2, -5, 0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        certify.search_zero_plane(PI12, starts=2, iterations=5, seed=-1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        certify.scan(0.1, 0.2, 2, 2, 5, -1)


@pytest.mark.parametrize("args,message", [
    ((0.2, 0.1, 5), "^scan range must satisfy 0 < from < to < pi/2, got from=0.2 to=0.1$"),
    ((0.0, 0.1, 5), "got from=0.0 to=0.1"),
    ((0.1, 2.0, 5), "got from=0.1 to=2.0"),
    ((0.1, 0.2, 1), "^steps must be at least 2, got 1$"),
    ((0.1, 0.2, 2.0), "^steps must be an integer, got 2.0$"),
], ids=["reversed", "zero", "past-pi-2", "one-step", "float-steps"])
def test_scan_rejects_bad_ranges_and_steps(monkeypatch, args, message):
    def no_grid(*args, **kwargs):
        raise AssertionError("the angle grid was built before the check")

    monkeypatch.setattr(certify.np, "linspace", no_grid)
    with pytest.raises(ValueError, match=message):
        certify.scan(*args, 1, 1, 0)


def test_search_rejects_bad_starts():
    with pytest.raises(ValueError, match="starts"):
        certify.search_zero_plane(PI12, starts=0)


def test_search_rejects_non_integral_sizes():
    with pytest.raises(ValueError, match="^starts must be an integer, got 2.5"):
        certify.search_zero_plane(0.3, starts=2.5)
    with pytest.raises(ValueError, match="^iterations must be an integer, got 3.0"):
        certify.search_zero_plane(0.3, starts=2, iterations=3.0)
    with pytest.raises(ValueError, match="^seed must be an integer, got 0.5"):
        certify.scan(0.1, 0.2, 2, 2, 3, 0.5)
    report = certify.search_zero_plane(0.3, starts=np.int64(2), iterations=np.int32(3),
                                       seed=np.uint8(1))
    assert (report.starts, report.iterations) == (2, 3)


def test_search_floor_positive_across_window():
    for theta in (0.02, np.pi / 24.0, PI12, np.pi / 6.0 - 0.02):
        report = certify.search_zero_plane(theta, starts=20, iterations=150, seed=7)
        assert report.min_residual >= 1e-8


BRACKET_BASES = {"p": certify.p_subspace_basis(),
                 "berger-complement": certify.berger_complement_basis()}


def _bound(basis):
    return certify.plucker_bound(certify._bracket_form(basis))[0]


def _squared_bracket(pair):
    """g0([x, y], [x, y]) for the pair (21, 2) of sp(3) coordinates (x, y)."""
    x, y = liealg.unvec_sp3(pair.T)
    return float(liealg.g0_inner(*[liealg.bracket(x, y)] * 2))


@pytest.mark.parametrize("dim", [4, 7, 8])
def test_plucker_forms_vanish_on_decomposable_wedges(dim):
    # a wrong sign would make the bound invalid, and on the two symmetric
    # subspaces no other check would notice
    rows, cols, signs, starts, owner = certify._plucker_forms(dim)
    wedges = dim * (dim - 1) // 2
    forms = np.zeros((len(starts), wedges, wedges))
    forms[owner, rows, cols] = signs
    assert np.array_equal(owner[starts], np.arange(len(starts)))
    assert np.array_equal(forms[0], np.eye(wedges))
    forms = forms[1:]
    assert len(forms) == math.comb(dim, 4)
    assert np.array_equal(forms, np.swapaxes(forms, 1, 2))
    assert np.all(np.count_nonzero(forms, axis=(1, 2)) == 6)
    a, b = np.triu_indices(dim, 1)
    rng = np.random.default_rng(17)
    pairs = certify._retract(rng.standard_normal((50, dim, 2)))
    wedge = pairs[:, a, 0] * pairs[:, b, 1] - pairs[:, b, 0] * pairs[:, a, 1]
    values = np.einsum("si,fij,sj->fs", wedge, forms, wedge)
    assert np.max(np.abs(values)) <= 1e-14
    generic = rng.standard_normal(wedges)
    assert np.min(np.abs(np.einsum("i,fij,j->f", generic, forms, generic))) > 1e-6


@pytest.mark.parametrize("subspace,seed", [("p", 909), ("berger-complement", 910),
                                           ("p", 1009), ("berger-complement", 1010)])
def test_bracket_bounds_bracket_the_minimum(subspace, seed):
    basis = BRACKET_BASES[subspace]
    bound = _bound(basis)
    floor = {"p": 0.5, "berger-complement": 0.4}[subspace]
    assert floor - 1e-10 <= bound <= floor
    # the sampler the bound replaced, as an independent upper bound
    attained = retracted_bracket_floor(basis, 2000, seed)
    assert abs(attained - floor) <= 1e-12
    assert bound <= attained <= bound + 1e-9


def test_bracket_floor_quick():
    p_bound = _bound(certify.p_subspace_basis())
    p_attained = retracted_bracket_floor(certify.p_subspace_basis(), 2000, 1)
    assert 1e-6 <= p_bound <= p_attained <= 0.5 + 1e-6
    berger_bound = _bound(certify.berger_complement_basis())
    berger_attained = retracted_bracket_floor(certify.berger_complement_basis(), 2000, 2)
    assert 1e-6 <= berger_bound <= berger_attained <= 0.4 + 1e-6


@pytest.mark.parametrize("subspace,seed,samples,refine_starts", [
    ("p", 909, 100_000, 32),
    ("berger-complement", 910, 100_000, 32),
    ("p", 1009, 100_000, 32),
    ("berger-complement", 1010, 100_000, 32),
    ("p", 7, 3 * 1024 + 5, 5),
    ("berger-complement", 8, 20, 32),
], ids=["p-909", "berger-910", "p-1009", "berger-1010", "p-ragged-pass", "berger-few-samples"])
def test_bracket_floor_matches_the_retracting_sampler(subspace, seed, samples, refine_starts):
    # at the sizes the certified bound replaced: a full run, a last chunk of
    # 5 draws past a multiple of 1024, and fewer draws than refine starts
    basis = BRACKET_BASES[subspace]
    bound = _bound(basis)
    sampled = retracted_bracket_floor(basis, samples, seed, refine_starts)
    assert bound <= sampled <= bound + 1e-9
    # the exact witness pair that `checks.positivity_floors` evaluates
    witness = {"p": checks._P_WITNESS, "berger-complement": checks._BERGER_WITNESS}[subspace]
    assert bound <= _squared_bracket(witness) <= bound + 1e-9


@pytest.mark.parametrize("subspace", BRACKET_BASES)
def test_sample_scores_are_the_retracted_values(subspace):
    # every retracted frame's score is the squared bracket of its pair, and
    # no score lies below the certified bound
    basis = BRACKET_BASES[subspace]
    objective = certify._WedgeObjective(certify._bracket_form(basis)[None])
    rng = np.random.default_rng(31)
    draws = rng.standard_normal((400, basis.shape[1], 2))
    # the second half: columns 1e-6 rad apart, of unequal lengths
    x = certify._retract(draws[200:])
    draws[200:, :, 1] = (math.cos(1e-6) * x[..., 0] + math.sin(1e-6) * x[..., 1]) * 3.0
    draws[200:, :, 0] = x[..., 0] * 0.5
    frames = certify._retract(draws)
    gram = np.swapaxes(frames, 1, 2) @ frames
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
    pair = liealg.unvec_sp3(np.swapaxes(basis @ frames, 1, 2))
    expected = liealg.g0_inner(*[liealg.bracket(pair[:, 0], pair[:, 1])] * 2)
    scores = objective.model(frames)[0]
    assert np.max(np.abs(scores / expected - 1.0)) <= 1e-12
    assert np.min(scores) >= _bound(basis)


def test_bracket_bound_is_below_the_attained_value_on_a_random_subspace():
    basis = np.linalg.qr(np.random.default_rng(5).standard_normal((21, 6)))[0]
    bound = _bound(basis)
    attained = retracted_bracket_floor(basis, 2000, 3)
    assert 0.05 <= bound <= attained <= bound + 1e-9


def test_bracket_bounds_are_zero_on_a_subspace_with_a_commuting_pair():
    # coordinates 0 and 3 are the i-parts of two diagonal entries, and they
    # commute exactly
    bound = _bound(COMMUTING_SUBSPACE)
    attained = _squared_bracket(np.eye(21)[:, [0, 3]])
    assert -1e-12 <= bound <= 1e-12
    assert 0.0 <= attained <= 1e-12


def test_plucker_bound_stays_on_the_calling_thread():
    terms = certify._bracket_form(certify.p_subspace_basis())
    time.sleep(0.3)
    cpu, wall = time.process_time(), time.perf_counter()
    certify.plucker_bound(terms)
    wall = time.perf_counter() - wall
    time.sleep(0.3)
    assert time.process_time() - cpu - wall <= 0.02


@pytest.mark.parametrize("terms,message", [
    (np.zeros((2, 3)), "2-D array with d\\(d-1\\)/2 rows"),
    (np.zeros((0, 3)), "2-D array"),
    (np.zeros(6), "2-D array"),
    (np.full((6, 2), np.nan), "finite"),
], ids=["two-rows", "no-rows", "1-d", "nan"])
def test_plucker_bound_rejects_bad_terms(terms, message):
    with pytest.raises(ValueError, match=f"^terms must be (a )?{message}"):
        certify.plucker_bound(terms)


def test_plucker_bound_is_the_least_eigenvalue_below_four_dimensions():
    # every wedge in R^2 and R^3 is decomposable, and there are no 4-forms
    terms = np.random.default_rng(4).standard_normal((3, 5))
    least = np.linalg.eigvalsh(terms @ terms.T)[0]
    assert least - 1e-10 <= certify.plucker_bound(terms)[0] <= least


@pytest.mark.parametrize("basis", [
    *BRACKET_BASES.values(), np.linalg.qr(np.random.default_rng(5).standard_normal((21, 6)))[0],
], ids=[*BRACKET_BASES, "random-6"])
def test_verify_bound_returns_the_solvers_bound_bit_for_bit(basis):
    terms = certify._bracket_form(basis)
    bound, y = certify.plucker_bound(terms)
    assert bound > 0.0
    assert certify.verify_bound(terms, y) == bound
    assert certify.verify_bound(terms, list(y)) == bound


def test_verify_bound_fails_closed():
    terms = certify._bracket_form(certify.p_subspace_basis())
    bound, y = certify.plucker_bound(terms)
    # a wrong length, another shape and a non-finite entry certify nothing
    for stored in (y[:-1], np.append(y, 0.0), y[None], np.r_[y[:5], np.nan, y[6:]]):
        assert certify.verify_bound(terms, stored) == -math.inf
    # b raised past the least eigenvalue leaves S indefinite
    raised = y.copy()
    raised[0] += 1e-3
    assert certify.verify_bound(terms, raised) == -math.inf
    # the p summand's point has the wrong length for a 5-dimensional subspace
    other = certify._bracket_form(COMMUTING_SUBSPACE)
    assert certify.verify_bound(other, y) == -math.inf
    with pytest.raises(ValueError, match="^terms must be finite"):
        certify.verify_bound(np.full_like(terms, np.nan), y)


@pytest.mark.parametrize("subspace,seed,dual,witness", [
    ("p", 909, "_P_DUAL", "_P_WITNESS"),
    ("berger-complement", 910, "_BERGER_DUAL", "_BERGER_WITNESS"),
])
def test_committed_floor_certificates_are_the_solvers_output(subspace, seed, dual, witness):
    """The exact dual points that `checks.positivity_floors` verifies are the
    ones `plucker_bound` converges to: its omega matches the committed one
    entry by entry, and its bound the committed point's bound, to 1e-12.
    The exact witness pairs are no worse than the least value the sampler
    finds at `seed`."""
    basis = BRACKET_BASES[subspace]
    terms = certify._bracket_form(basis)
    bound, y = certify.plucker_bound(terms)
    committed = getattr(checks, dual)
    assert np.max(np.abs(y[1:] - committed[1:])) <= 1e-12
    assert abs(bound - certify.verify_bound(terms, committed)) <= 1e-12
    value = _squared_bracket(getattr(checks, witness))
    assert value <= retracted_bracket_floor(basis, 2000, seed) + 1e-15


def test_positivity_floors_bracket_the_floors():
    (p_bound, p_value), (berger_bound, berger_value) = checks.positivity_floors()
    assert 0.5 - 1e-12 <= p_bound <= p_value <= 0.5 + 1e-12
    assert 0.4 - 1e-12 <= berger_bound <= berger_value <= 0.4 + 1e-12


def test_positivity_floors_run_no_solver_and_no_svd(monkeypatch):
    expected = checks.positivity_floors()

    def refuse(*args, **kwargs):
        raise RuntimeError("the floors must not run this")

    for module, name in ((zeroplane, "horizontal_basis"), (np.linalg, "svd"),
                         (certify, "plucker_bound"), (certify, "_newton_search")):
        monkeypatch.setattr(module, name, refuse)
    assert checks.positivity_floors() == expected


def test_positivity_floors_name_a_witness_of_the_wrong_shape(monkeypatch):
    monkeypatch.setattr(checks, "_P_WITNESS", checks._P_WITNESS[:-1])
    (p_bound, p_value), (berger_bound, _) = checks.positivity_floors()
    assert p_bound > 0.0 and berger_bound > 0.0
    assert math.isnan(p_value)


@pytest.mark.parametrize("change", [
    lambda pair: (1.0 + 1e-11) * pair,
    lambda pair: np.roll(pair, 1, axis=0),
], ids=["not-orthonormal", "off-the-subspace"])
def test_positivity_floors_need_an_orthonormal_witness_in_the_subspace(monkeypatch, change):
    # the rolled pair is (e_1 + 3 e_4) / sqrt(10) and e_2, and phi3(j) has a
    # j-part at e_4, so the first leaves the complement of h2
    monkeypatch.setattr(checks, "_BERGER_WITNESS", change(checks._BERGER_WITNESS))
    (_, p_value), (berger_bound, berger_value) = checks.positivity_floors()
    assert p_value == _squared_bracket(checks._P_WITNESS)
    assert berger_bound > 0.0
    assert math.isnan(berger_value)


def test_subspace_bases():
    p_basis = certify.p_subspace_basis()
    assert p_basis.shape == (21, 8)
    assert np.max(np.abs(liealg.split_kp(liealg.unvec_sp3(p_basis.T))[0])) == 0.0
    berger = certify.berger_complement_basis()
    assert berger.shape == (21, 7)
    elems = liealg.unvec_sp3(berger.T)
    assert np.max(np.abs(elems - liealg.sp2_project(elems))) == 0.0
    h2 = liealg.vec_sp3(embeddings.h2_basis())
    assert np.max(np.abs(h2 @ berger)) <= 1e-15
    for basis in (p_basis, berger):
        assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-15
    # the witness pair that `checks.positivity_floors` evaluates is a pair
    # of basis columns, up to sign
    for column in checks._BERGER_WITNESS.T:
        assert min(np.max(np.abs(column - sign * b))
                   for b in berger.T for sign in (1, -1)) <= 1e-15


def test_subspace_bases_equal_the_index_list_recipe():
    # the bases built from explicit index lists, bit for bit: on the sp(2)
    # complement of h2, the unit vectors on the coordinates h2 never
    # reaches, then phi3(i), phi3(j), phi3(k), on (0, 3), (4, 11), (5, 12),
    # each turned by a right angle; sqrt(6) is the sqrt(2) sqrt(3) of
    # `vec_sp3` scaling phi3's off-diagonal sqrt(3)
    assert np.array_equal(certify.p_subspace_basis(), np.eye(21)[:, list(range(13, 21))])
    r6, r10 = math.sqrt(2.0) * math.sqrt(3.0), math.sqrt(10.0)
    expected = np.zeros((21, 7))
    expected[[1, 2, 9, 10], [0, 1, 2, 3]] = 1.0
    expected[[0, 3], 4] = -1.0 / r10, -3.0 / r10
    expected[[4, 11], 5] = r6 / r10, 2.0 / r10
    expected[[5, 12], 6] = r6 / r10, -2.0 / r10
    assert np.array_equal(certify.berger_complement_basis(), expected)


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
    ("rho_rank", lambda points: np.full(len(points), 2)),
    ("sign_certificate", lambda theta: False),
])
def test_certify_theta_monotone_safety_simple(monkeypatch, target, patch):
    monkeypatch.setattr(f"biquot.certify.{target}", patch)
    assert certify.certify_theta(PI12).verdict == "inconclusive"


def test_certify_theta_monotone_safety_kernel(monkeypatch):
    real = certify.kernel_solutions

    def wrong_dimension(theta, ell):
        dims, coords = real(theta, ell)
        return dims + 1, coords

    monkeypatch.setattr("biquot.certify.kernel_solutions", wrong_dimension)
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


CRITERION_10_GRID = np.linspace(0.05, np.pi / 6.0 - 0.01, 50)


def test_certificates_compute_each_axis_reference_once(monkeypatch):
    # `sign_certificate` takes its lines from `kernel_reference` too, one
    # batched call per axis of its own
    real = certify.kernel_reference
    calls = []

    def counted(theta, epsilon):
        calls.append((sys._getframe(1).f_code.co_name, np.shape(theta), epsilon))
        return real(theta, epsilon)

    monkeypatch.setattr(certify, "kernel_reference", counted)
    certs = certify._certificates(CRITERION_10_GRID, embeddings.point_p(CRITERION_10_GRID))
    assert sorted(calls) == [("_certificates", (50,), -1.0), ("_certificates", (50,), 1.0),
                             ("sign_certificate", (50,), -1.0),
                             ("sign_certificate", (50,), 1.0)]
    assert [cert.verdict for cert in certs] == ["positive"] * 50


def test_certificates_equal_one_angle_certificates():
    thetas = np.array([*CRITERION_10_GRID, 0.6, 1.0, 1.5707963267948961, 1e-300])
    batch = certify._certificates(thetas, embeddings.point_p(thetas))
    for theta, cert in zip(thetas, batch):
        assert cert == certify.certify_theta(theta)
    assert [cert.verdict for cert in batch[-4:]] == ["inconclusive"] * 4
    window = np.array(thetas) < np.pi / 6.0
    assert np.array_equal(certify.sign_certificate(np.array(thetas)[window]),
                          [certify.sign_certificate(theta)
                           for theta in np.array(thetas)[window]])


def test_certify_theta_inconclusive_on_kernel_error(monkeypatch):
    monkeypatch.setattr("biquot.certify.build_linear_system",
                        lambda theta, ell: np.broadcast_to(RANK_TWO, np.shape(theta) + (6, 7)))
    cert = certify.certify_theta(PI12)
    assert cert.verdict == "inconclusive"
    assert cert.kernel_dim_j == 0 and cert.kernel_dim_k == 0
    assert cert.kernel_match_j == 0.0 and cert.kernel_match_k == 0.0
    assert cert.rho_rank == 3 and cert.sign_ok is True


def test_scan_rows_inconclusive_when_the_sign_test_fails(monkeypatch):
    monkeypatch.setattr(certify, "sign_certificate", lambda theta: False)
    rows = certify.scan(0.05, np.pi / 6.0 - 0.01, 5, 1, 2, 0)
    assert [(cert.sign_ok, cert.verdict) for cert, _ in rows] == [(False, "inconclusive")] * 5
    assert all(cert.kernel_dim_j == cert.kernel_dim_k == 1 for cert, _ in rows)


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
