"""Relation strings: `parse_polynomial` against polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loophh.instancefile import ParseError, parse_polynomial
from loophh.models import AlgebraPresentation

PLANE = AlgebraPresentation([("x", (1,), 1), ("y", (-1,), 1)], rank=1)
ALG = PLANE.ambient


def _power(pair):
    (text, p), k = pair
    if k is None:
        return text, p
    out = ALG.poly_scalar(1)
    for _ in range(k):
        out = out * p
    return f"{text}^{k}", out


def _product(factors):
    text, out = factors[0]
    for t, p in factors[1:]:
        text, out = f"{text}*{t}", out * p
    return text, out


def _signed(run, p):
    return p.scaled(-1) if run.count("-") % 2 else p


def _sum(parts):
    lead, (text, p), rest = parts
    text, out = lead + text, _signed(lead, p)
    for run, (t, q) in rest:
        text, out = f"{text}{run}{t}", out + _signed(run, q)
    return text, out


def _exprs(atoms):
    """Sums of signed products of powers of `atoms`, in the file syntax,
    each with the polynomial it denotes."""
    factors = st.tuples(atoms, st.none() | st.integers(0, 2)).map(_power)
    terms = st.lists(factors, min_size=1, max_size=3).map(_product)
    lead = st.sampled_from(["", "-", "+", "--", "- +"])
    runs = st.sampled_from(["+", "-", " + ", " - ", "+-", "- -"])
    return st.tuples(lead, terms, st.lists(st.tuples(runs, terms), max_size=2)).map(_sum)


_NAMES = st.sampled_from(["x", "y"]).map(lambda n: (n, ALG.poly_gen(n)))
_COEFFICIENTS = st.fractions(0, 5, max_denominator=3).map(lambda q: (str(q), ALG.poly_scalar(q)))
_ATOMS = st.recursive(
    _NAMES | _COEFFICIENTS,
    lambda inner: _exprs(inner).map(lambda e: (f"({e[0]})", e[1])),
    max_leaves=3,
)


@settings(max_examples=100, deadline=None)
@given(_exprs(_ATOMS))
def test_parse_equals_the_arithmetic(case):
    text, expected = case
    assert parse_polynomial(text, PLANE).terms == expected.terms


def test_parse_reads_rational_coefficients():
    p = parse_polynomial("1/2*x^2*y - 3", PLANE)
    assert p.terms == {(2, 1): Fraction(1, 2), (0, 0): -3}


@pytest.mark.parametrize("text", [
    "", "x^", "x^y", "x^-1", "x^2^3", "(x", "x)", "()", "x y", "*x", "x*", "x +", "x*-y",
    "2/0", "z", "x & y",
])
def test_malformed_polynomial_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_polynomial(text, PLANE)
