import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquot.quat import (
    MUL_TABLE,
    Quaternion,
    qmul,
    qnorm_sq,
)

I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)
ONE = Quaternion(1, 0, 0, 0)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_defining_relations():
    assert (I * J).array == pytest.approx(K.array)
    assert (J * I).array == pytest.approx((-K).array)
    assert (J * K).array == pytest.approx(I.array)
    assert (K * I).array == pytest.approx(J.array)
    for unit in (I, J, K):
        assert (unit * unit).array == pytest.approx((-ONE).array)


def test_conjugate_pair_product():
    a = Quaternion(1, 1, 0, 0)
    b = Quaternion(1, -1, 0, 0)
    assert (a * b).array == pytest.approx([2, 0, 0, 0])


def test_conj_norm_examples():
    assert I.conj().array == pytest.approx((-I).array)
    assert I.norm_sq() == pytest.approx(1.0)
    q = Quaternion(1, 0, 1, 0)
    assert q.conj().array == pytest.approx([1, 0, -1, 0])
    assert q.norm_sq() == pytest.approx(2.0)


def test_conj_times_self_is_real_norm():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = Quaternion.from_array(rng.standard_normal(4))
        prod = q.conj() * q
        assert prod.re == pytest.approx(q.norm_sq(), rel=1e-12)
        assert abs(prod.ci) + abs(prod.cj) + abs(prod.ck) < 1e-12 * q.norm_sq()


def test_component_order_is_re_i_j_k():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert list(q.array) == [1.0, 2.0, 3.0, 4.0]


def test_rejects_non_finite_components():
    with pytest.raises(ValueError):
        Quaternion(float("nan"), 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    prod = a * b
    assert abs(prod.norm_sq() - a.norm_sq() * b.norm_sq()) <= 1e-12 * a.norm_sq() * b.norm_sq() + 1e-12


@settings(max_examples=150, deadline=None)
@given(quaternions, quaternions)
def test_real_part_of_product_is_symmetric(a, b):
    assert (a * b).re == pytest.approx((b * a).re, rel=1e-12, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(quaternions, quaternions)
def test_imaginary_commutator_is_twice_cross_product(a, b):
    ia, ib = Quaternion(0.0, a.ci, a.cj, a.ck), Quaternion(0.0, b.ci, b.cj, b.ck)
    comm = (ia * ib - ib * ia).array
    expected = 2.0 * np.cross(a.array[1:], b.array[1:])
    assert comm[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(comm[1:], expected, atol=1e-9)


def test_mul_table_matches_scalar_product():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((50, 4))
    b = rng.standard_normal((50, 4))
    batched = qmul(a, b)
    for row_a, row_b, row_out in zip(a, b, batched):
        scalar = Quaternion.from_array(row_a) * Quaternion.from_array(row_b)
        assert np.allclose(row_out, scalar.array, atol=1e-13)
    assert MUL_TABLE.shape == (4, 4, 4)
    assert qnorm_sq(a) == pytest.approx(np.sum(a * a, axis=-1))
