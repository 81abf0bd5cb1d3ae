import numpy as np
import pytest
from _oracles import scalar_bracket

from biquot import checks, embeddings, liealg

UNIT_I = np.array([1.0, 0.0, 0.0])
UNIT_J = np.array([0.0, 1.0, 0.0])
UNIT_K = np.array([0.0, 0.0, 1.0])
R3 = np.sqrt(3.0)


def test_phi3_at_units():
    at_i = embeddings.phi3_alg(UNIT_I)
    assert at_i[0, 0] == pytest.approx([0, 3, 0, 0])
    assert at_i[1, 1] == pytest.approx([0, -1, 0, 0])
    assert np.max(np.abs(at_i[0, 1])) == 0.0

    at_j = embeddings.phi3_alg(UNIT_J)
    assert at_j[0, 1] == pytest.approx([0, 0, R3, 0])
    assert at_j[1, 0] == pytest.approx([0, 0, R3, 0])
    assert at_j[1, 1] == pytest.approx([0, 0, -2, 0])

    at_k = embeddings.phi3_alg(UNIT_K)
    assert at_k[0, 1] == pytest.approx([0, 0, 0, R3])
    assert at_k[1, 1] == pytest.approx([0, 0, 0, 2])


def test_phi3_is_real_linear_and_skew():
    rng = np.random.default_rng(20)
    t = rng.standard_normal((100, 3))
    s = rng.standard_normal((100, 3))
    lhs = embeddings.phi3_alg(2.0 * t - 0.5 * s)
    rhs = 2.0 * embeddings.phi3_alg(t) - 0.5 * embeddings.phi3_alg(s)
    assert np.allclose(lhs, rhs, atol=1e-13)
    assert np.max(liealg.skew_defect(embeddings.phi3_alg(t))) == 0.0


def test_phi3_bracket_of_units_matches_scalar_oracle():
    lhs = scalar_bracket(embeddings.h2_elem(UNIT_I), embeddings.h2_elem(UNIT_J))
    assert np.allclose(lhs, embeddings.h2_elem(2.0 * UNIT_K), atol=1e-13)


def test_phi3_homomorphism_property():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((1000, 3))
    s = rng.standard_normal((1000, 3))
    lhs = liealg.bracket(embeddings.phi3_alg(t), embeddings.phi3_alg(s))
    rhs = embeddings.phi3_alg(2.0 * np.cross(t, s))
    scale = 1.0 + np.abs(t).max() * np.abs(s).max()
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * 20.0 * scale


def test_h1_h2_generators():
    h1_i = embeddings.h1_basis()[0]
    assert h1_i[0, 0] == pytest.approx([0, 3, 0, 0])
    assert h1_i[1, 1] == pytest.approx([0, -1, 0, 0])
    assert h1_i[2, 2] == pytest.approx([0, 1, 0, 0])

    h2_i = embeddings.h2_basis()[0]
    assert np.allclose(h2_i[:2, :2], h1_i[:2, :2])
    assert np.max(np.abs(h2_i[2, 2])) == 0.0


def test_h1_i_orthogonal_to_h2_j():
    val = liealg.g0_inner(embeddings.h1_basis()[0], embeddings.h2_basis()[1])
    assert val == pytest.approx(0.0, abs=1e-14)


def test_basis_triples_have_rank_three():
    for triple in (embeddings.h1_basis(), embeddings.h2_basis(),
                   embeddings.adp_h1_basis(embeddings.point_p(0.4))):
        coords = liealg.vec_sp3(triple)
        assert np.linalg.svd(coords, compute_uv=False)[-1] > 1e-8


def test_generator_triples_are_read_only():
    for triple in (embeddings.h1_basis(), embeddings.h2_basis()):
        assert triple.shape == (3, 3, 3, 4)
        with pytest.raises(ValueError, match="read-only"):
            triple[0, 0, 0, 1] = 0.0


def test_point_p_construction():
    pt = embeddings.point_p(np.pi / 4.0)
    assert pt.matrix[0, 0, 0] == pytest.approx(np.sqrt(2.0) / 2.0)
    assert pt.matrix[0, 2, 0] == pytest.approx(np.sin(np.pi / 4.0))
    assert pt.matrix[2, 0, 0] == pytest.approx(-np.sin(np.pi / 4.0))
    assert pt.matrix[1, 1, 0] == 1.0
    gram = liealg.mat_mul(pt.matrix, liealg.conj_transpose(pt.matrix))
    assert np.allclose(gram, liealg.identity(), atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, -1.0, np.pi / 2.0, 2.0])
def test_point_p_rejects_degenerate_angles(theta):
    with pytest.raises(ValueError, match="pi/2"):
        embeddings.point_p(theta)


def test_adp_h1_matches_closed_form_on_random_angles():
    defect, _ = checks.display_reproduction(np.random.default_rng(22), angles=20)
    assert defect <= 1e-10


def test_adp_h1_specific_entries():
    pt = embeddings.point_p(0.3)
    c, s = np.cos(0.3), np.sin(0.3)
    at_i = embeddings.adp_h1_basis(pt)[0]
    assert np.max(np.abs(at_i[0, 1])) < 1e-14
    assert np.max(np.abs(at_i[1, 2])) < 1e-14
    assert at_i[0, 2] == pytest.approx([0, -2 * c * s, 0, 0], abs=1e-14)

    at_j = embeddings.adp_h1_basis(pt)[1]
    assert at_j[1, 1] == pytest.approx([0, 0, -2, 0], abs=1e-14)
    assert at_j[0, 1] == pytest.approx([0, 0, R3 * c, 0], abs=1e-14)


def test_adp_h1_matches_scalar_adjoint_oracle():
    rng = np.random.default_rng(23)
    from _oracles import scalar_mat_mul
    for _ in range(5):
        pt = embeddings.point_p(rng.uniform(0.05, 1.5))
        pinv = liealg.group_inverse(pt.matrix)
        for elem, computed in zip(embeddings.h1_basis(), embeddings.adp_h1_basis(pt)):
            brute = scalar_mat_mul(scalar_mat_mul(pt.matrix, elem), pinv)
            assert np.allclose(computed, brute, atol=1e-13)


def test_rho_vanishes_on_h2():
    for elem in embeddings.h2_basis():
        assert np.max(np.abs(embeddings.rho(elem))) == 0.0


def test_rho_rank_values():
    assert embeddings.rho_rank(embeddings.point_p(np.pi / 12.0)) == 3
    assert embeddings.rho_rank(embeddings.point_p(np.pi / 4.0 - 1e-6)) == 3
    near_vertical = embeddings.point_p(np.pi / 2.0 - 1e-9)
    assert embeddings.rho_rank(near_vertical) == 1
