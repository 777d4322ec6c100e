import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from loophh.linalg import SparseMatrix
from loophh.scalars import (
    BackendMismatch,
    CycElt,
    CyclotomicField,
    _inverse_coeffs,
    cyclotomic_polynomial,
    exact_div,
    primitive,
    rational,
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
    # a matrix decides its one field when it is built
    with pytest.raises(BackendMismatch):
        SparseMatrix(1, 2, {(0, 0): a, (0, 1): b})
    with pytest.raises(BackendMismatch):
        primitive({0: a, 1: b})


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


def test_exact_div_keeps_ints_and_fractions_exact():
    q = exact_div(4, 2)
    assert q == 2 and type(q) is int
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(-6, 4) == Fraction(-3, 2)
    assert exact_div(Fraction(2, 3), 2) == Fraction(1, 3)
    z = CyclotomicField(3).zeta()
    assert exact_div(1, z) == z.inverse()
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


@pytest.mark.parametrize("m", [3, 4])
def test_a_rational_valued_element_hashes_like_its_rational(m):
    F = CyclotomicField(m)
    for q in (0, 1, -2, 7, Fraction(1, 2), Fraction(-7, 3)):
        x = F.from_rational(q)
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1
        assert {x: "a"}.get(q) == "a" and {q: "a"}.get(x) == "a"
    assert hash(F.one()) == hash(1) == hash(Fraction(1))
    assert F.zeta() != 1 and len({F.zeta(), F.one(), 1}) == 2


def test_primitive_scales_to_coprime_integral_coefficients():
    assert primitive({0: 2, 3: 3}) == {0: 2, 3: 3}
    assert primitive({0: -4, 3: 6}) == {0: -2, 3: 3}  # a positive factor keeps the sign
    v = primitive({0: Fraction(2, 3), 1: 4, 2: Fraction(-1, 6)})
    assert v == {0: 4, 1: 24, 2: -1} and all(type(c) is int for c in v.values())
    F = CyclotomicField(3)
    z = F.zeta()
    v = primitive({0: Fraction(1, 2), 1: Fraction(3, 4) * z, 2: 2 * z - 1})
    assert v == {0: 2, 1: 3 * z, 2: 8 * z - 4}
    assert all(type(x) is CycElt and all(type(c) is int for c in x.coeffs) for x in v.values())
    assert primitive({0: 6 * z + 4, 1: F.from_rational(2)}) == {0: 3 * z + 2, 1: 1}


def test_rational_is_an_int_when_integral():
    for x, want in ((3, 3), (Fraction(6, 3), 2), ("4/2", 2), (True, 1)):
        assert type(rational(x)) is int and rational(x) == want
    assert rational(Fraction(1, 2)) == Fraction(1, 2)


def test_cyclotomic_inverse_coefficients_are_exact():
    x = CyclotomicField(3).element([1, 1])
    inv = x.inverse()
    assert all(type(c) is int or type(c) is Fraction for c in inv.coeffs)
    assert x * inv == 1
    y = CyclotomicField(4).element([1, 1]).inverse()  # (1 - i) / 2
    assert y.coeffs == (Fraction(1, 2), Fraction(-1, 2))
    assert all(type(c) is int for c in (x * inv).coeffs)


def _true_divisions(node):
    return [n for n in ast.walk(node)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)]


def test_the_only_true_division_is_exact_div():
    # int / int is a float, so every scalar division goes through exact_div
    trees = {p.stem: ast.parse(p.read_text())
             for p in (Path(__file__).resolve().parents[1] / "src" / "loophh").glob("*.py")}
    counts = {name: len(_true_divisions(tree)) for name, tree in trees.items()}
    assert {name: c for name, c in counts.items() if c} == {"scalars": 1}
    [exact] = [n for n in ast.walk(trees["scalars"])
               if isinstance(n, ast.FunctionDef) and n.name == "exact_div"]
    assert len(_true_divisions(exact)) == 1
