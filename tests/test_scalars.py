import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loophh.scalars import (
    BackendMismatch,
    CycElt,
    CyclotomicField,
    _inverse_coeffs,
    common_backend,
    cyclotomic_polynomial,
)


def test_cyclotomic_polynomials_small():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_3 = x^2 + x + 1,
    # Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_zeta_power_m_is_one(m):
    F = CyclotomicField(m)
    z = F.zeta()
    acc = F.one()
    for _ in range(m):
        acc = acc * z
    assert acc == F.one()
    assert (acc - 1).is_zero()


def test_phi_relation_kills_element():
    F = CyclotomicField(3)
    z = F.zeta()
    assert (1 + z + z * z).is_zero()


def test_primitive_root_nontrivial_powers():
    F = CyclotomicField(6)
    z = F.zeta()
    acc = F.one()
    for k in range(1, 6):
        acc = acc * z
        assert not (acc - 1).is_zero(), f"zeta_6^{k} == 1"


def test_inverse_and_division():
    F = CyclotomicField(4)  # Q(i)
    i = F.zeta()
    x = 2 + 3 * i
    assert x * x.inverse() == F.one()
    assert (x / x) == F.one()
    # (2 + 3i)(2 - 3i) = 13
    assert x * (2 - 3 * i) == F.from_rational(13)


def test_mixed_conductors_rejected():
    a = CyclotomicField(3).zeta()
    b = CyclotomicField(4).zeta()
    with pytest.raises(BackendMismatch):
        _ = a + b
    with pytest.raises(BackendMismatch):
        common_backend([a, b])


def test_rational_coercion():
    F = CyclotomicField(3)
    z = F.zeta()
    assert (z - z) + Fraction(1, 2) == F.from_rational(Fraction(1, 2))
    assert Fraction(1, 2) * F.from_rational(2) == F.one()


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@given(st.lists(small_rats, min_size=1, max_size=4), st.lists(small_rats, min_size=1, max_size=4))
def test_field_laws_q_zeta3(ac, bc):
    F = CyclotomicField(3)
    a = F.element(ac)
    b = F.element(bc)
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) * a == a * a + b * a
    if not a.is_zero():
        assert (b / a) * a == b


def _random_nonzero(F, rng):
    while True:
        x = F.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(F.degree)])
        if x:
            return x


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_inverse_memo_is_exact_across_field_objects(m):
    rng = random.Random(m)
    F, G = CyclotomicField(m), CyclotomicField(m)
    assert F is not G
    for _ in range(10):
        coeffs = _random_nonzero(F, rng).coeffs
        for field in (F, G, F, G):  # each element twice, from two field objects
            x = CycElt(field, coeffs)
            y = x.inverse()
            assert y.field is field
            assert x * y == field.one()
    hits = _inverse_coeffs.cache_info().hits
    x = _random_nonzero(F, rng)
    assert x.inverse() == x.inverse()
    assert _inverse_coeffs.cache_info().hits > hits


def test_inverse_memo_keeps_conductors_apart():
    # 1 + zeta in Q(zeta_3) is -zeta^2, with inverse -zeta; in Q(i) it is
    # 1 + i, with inverse (1 - i)/2
    coeffs = (Fraction(1), Fraction(1))
    F3, F4 = CyclotomicField(3), CyclotomicField(4)
    x3, x4 = CycElt(F3, coeffs), CycElt(F4, coeffs)
    for _ in range(2):
        assert x3.inverse() == -F3.zeta()
        assert x4.inverse() == F4.element([Fraction(1, 2), Fraction(-1, 2)])
        assert x3 * x3.inverse() == F3.one()
        assert x4 * x4.inverse() == F4.one()
