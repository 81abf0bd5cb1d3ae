import numpy as np
import pytest
from _oracles import mat_from_quaternions, scalar_bracket, scalar_g0

from biquot import embeddings, liealg
from biquot.quat import MUL_TABLE, Quaternion

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ZERO = Quaternion()


def diag(*entries):
    return mat_from_quaternions([
        [entries[0], ZERO, ZERO],
        [ZERO, entries[1], ZERO],
        [ZERO, ZERO, entries[2]],
    ])


def test_mat_mul_matches_component_table():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 3, 3, 4))
    b = rng.standard_normal((10, 3, 3, 4))
    reference = np.einsum("...ikp,...kjq,pqc->...ijc", a, b, MUL_TABLE)
    assert np.allclose(liealg.mat_mul(a, b), reference, atol=1e-12)


def test_complex_embedding_is_multiplicative():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3, 4))
    b = rng.standard_normal((3, 3, 4))
    lhs = liealg.to_complex(liealg.mat_mul(a, b))
    rhs = liealg.to_complex(a) @ liealg.to_complex(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_bracket_of_element_with_itself_vanishes():
    rng = np.random.default_rng(5)
    a = liealg.random_sp3(rng)
    assert np.max(np.abs(liealg.bracket(a, a))) < 1e-14


def test_bracket_diagonal_units():
    got = liealg.bracket(diag(I, ZERO, ZERO), diag(J, ZERO, ZERO))
    assert np.allclose(got, diag(K * 2.0, ZERO, ZERO), atol=1e-14)


def test_bracket_of_embedded_images_matches_scalar_oracle():
    phi_i = embeddings.h2_elem(np.array([1.0, 0.0, 0.0]))
    phi_j = embeddings.h2_elem(np.array([0.0, 1.0, 0.0]))
    assert np.allclose(liealg.bracket(phi_i, phi_j),
                       scalar_bracket(phi_i, phi_j), atol=1e-13)
    assert np.allclose(liealg.bracket(phi_i, phi_j),
                       embeddings.h2_elem(np.array([0.0, 0.0, 2.0])), atol=1e-13)


def test_bracket_stays_skew_hermitian():
    rng = np.random.default_rng(6)
    a = liealg.random_sp3(rng, size=20)
    b = liealg.random_sp3(rng, size=20)
    assert np.max(liealg.skew_defect(liealg.bracket(a, b))) < 1e-13


def test_g0_unit_diagonal():
    a = diag(I, ZERO, ZERO)
    assert liealg.g0_inner(a, a) == pytest.approx(1.0)


def test_g0_h1_generator_norm():
    h1_i = embeddings.h1_basis()[0]
    assert liealg.g0_inner(h1_i, h1_i) == pytest.approx(11.0)
    assert scalar_g0(h1_i, h1_i) == pytest.approx(11.0)


def test_g0_symmetric_and_positive():
    rng = np.random.default_rng(7)
    a = liealg.random_sp3(rng, size=100)
    b = liealg.random_sp3(rng, size=100)
    assert np.allclose(liealg.g0_inner(a, b), liealg.g0_inner(b, a), atol=1e-12)
    assert np.all(liealg.g0_inner(a, a) > 0.0)


def test_g0_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        a, b = liealg.random_sp3(rng), liealg.random_sp3(rng)
        assert liealg.g0_inner(a, b) == pytest.approx(scalar_g0(a, b), rel=1e-12, abs=1e-12)


def test_split_kp_examples():
    h2 = embeddings.h2_basis()[1]
    assert np.max(np.abs(liealg.split_kp(h2).p_part)) == 0.0

    only_z1 = mat_from_quaternions([[ZERO, ZERO, 1.0], [ZERO, ZERO, ZERO], [-1.0, ZERO, ZERO]])
    assert np.max(np.abs(liealg.split_kp(only_z1).k_part)) == 0.0


def test_split_kp_orthogonal_and_reconstructs():
    rng = np.random.default_rng(9)
    a = liealg.random_sp3(rng, size=50)
    parts = liealg.split_kp(a)
    assert np.allclose(parts.k_part + parts.p_part, a)
    assert np.max(np.abs(liealg.g0_inner(parts.k_part, parts.p_part))) < 1e-12


def test_sp2_project():
    assert np.max(np.abs(liealg.sp2_project(diag(ZERO, ZERO, I)))) == 0.0
    h2 = embeddings.h2_basis()[2]
    assert np.allclose(liealg.sp2_project(h2), h2)
    rng = np.random.default_rng(10)
    a = liealg.random_sp3(rng, size=100)
    once = liealg.sp2_project(a)
    assert np.allclose(liealg.sp2_project(once), once)


def test_adjoint_identity_and_closed_entries():
    rng = np.random.default_rng(11)
    a = liealg.random_sp3(rng)
    assert np.allclose(liealg.adjoint(liealg.identity(), a), a, atol=1e-14)

    theta = 0.37
    c, s = np.cos(theta), np.sin(theta)
    conj = liealg.adjoint(embeddings.p_matrix(theta), embeddings.h1_basis()[0])
    assert conj[0, 0] == pytest.approx([0, 3 * c * c + s * s, 0, 0], abs=1e-12)
    assert conj[0, 2] == pytest.approx([0, -2 * c * s, 0, 0], abs=1e-12)
    assert conj[2, 2] == pytest.approx([0, 3 * s * s + c * c, 0, 0], abs=1e-12)


def test_adjoint_preserves_g0():
    rng = np.random.default_rng(12)
    p = embeddings.p_matrix(rng.uniform(0.1, 1.4, 100))
    a = liealg.random_sp3(rng, size=100)
    b = liealg.random_sp3(rng, size=100)
    lhs = liealg.g0_inner(liealg.adjoint(p, a), liealg.adjoint(p, b))
    assert np.allclose(lhs, liealg.g0_inner(a, b), atol=1e-12)


def test_adjoint_rejects_non_unitary():
    rng = np.random.default_rng(13)
    bad = liealg.identity() * 1.5
    with pytest.raises(ValueError, match="unit-symplectic"):
        liealg.adjoint(bad, liealg.random_sp3(rng))


def test_group_inverse():
    p = embeddings.p_matrix(0.9)
    assert np.allclose(liealg.mat_mul(p, liealg.group_inverse(p)),
                       liealg.identity(), atol=1e-15)


def test_vec_roundtrip_and_isometry():
    rng = np.random.default_rng(14)
    a = liealg.random_sp3(rng, size=50)
    b = liealg.random_sp3(rng, size=50)
    assert np.allclose(liealg.unvec_sp3(liealg.vec_sp3(a)), a)
    dots = np.sum(liealg.vec_sp3(a) * liealg.vec_sp3(b), axis=-1)
    assert np.allclose(dots, liealg.g0_inner(a, b), atol=1e-12)


def test_random_sp3_shape_and_normalization():
    rng = np.random.default_rng(15)
    a = liealg.random_sp3(rng, size=200, normalized=True)
    assert a.shape == (200, 3, 3, 4)
    assert np.max(liealg.skew_defect(a)) == 0.0
    assert np.allclose(liealg.g0_inner(a, a), 1.0, atol=1e-12)


def test_require_sp3_rejects_non_skew():
    bad = np.zeros((3, 3, 4))
    bad[0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="skew-Hermitian"):
        liealg.require_sp3(bad)


def test_symmetric_pair_identity():
    rng = np.random.default_rng(16)
    x = liealg.random_sp3(rng, size=200, normalized=True)
    y = liealg.random_sp3(rng, size=200, normalized=True)
    xk, xp = liealg.split_kp(x).k_part, liealg.split_kp(x).p_part
    yk, yp = liealg.split_kp(y).k_part, liealg.split_kp(y).p_part
    lhs = liealg.split_kp(liealg.bracket(x, y)).k_part
    rhs = liealg.bracket(xk, yk) + liealg.bracket(xp, yp)
    assert np.max(liealg.g0_norm(lhs - rhs)) < 1e-11


def test_dependence_residual_examples():
    # p-summand vectors (z1, z2) in R^8: v = (1, 0), w = (0, 1), a = (i, 0)
    v = np.eye(8)[0]
    assert liealg.gram_residual(v, v) == pytest.approx(0.0, abs=1e-15)
    w = np.eye(8)[4]
    assert liealg.gram_residual(v, w) == pytest.approx(1.0)
    a = np.eye(8)[1]
    b = 2.0 * np.eye(8)[1]
    assert liealg.gram_residual(a, b) == pytest.approx(0.0, abs=1e-14)


def test_dependence_residual_scale_covariance():
    rng = np.random.default_rng(17)
    v = np.concatenate([rng.standard_normal(4), rng.standard_normal(4)])
    w = np.concatenate([rng.standard_normal(4), rng.standard_normal(4)])
    base = liealg.gram_residual(v, w)
    assert liealg.gram_residual(2.0 * v, 3.0 * w) == pytest.approx(36.0 * base, rel=1e-12)
    assert liealg.normalized_gram_residual(v, w) >= 0.0
