"""Monomial enumeration and the graded Leibniz rule against plain references."""

import itertools
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from loophh.algebra import Derivation, FreeAlgebra, Generator, Polynomial, enumerate_monomials
from loophh.grading import Multidegree
from loophh.scalars import CyclotomicField

Q_ZETA3 = CyclotomicField(3)


@st.composite
def algebras(draw, max_gens=4):
    """Odd, even, Laurent and explicit-range generators over a torus of rank 0-2."""
    rank = draw(st.integers(0, 2))
    gens = []
    for i in range(draw(st.integers(0, max_gens))):
        name = f"g{i}"
        weight = tuple(draw(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)))
        # odd twice: Koszul signs need two odd generators
        kind = draw(st.sampled_from(("odd", "even", "odd", "laurent", "range")))
        if kind == "odd":
            g = Generator(name, draw(st.sampled_from((-1, 1))), weight, draw(st.integers(0, 2)))
        elif kind == "even":
            g = Generator(name, draw(st.sampled_from((0, 2))), weight, draw(st.integers(1, 2)))
        elif kind == "laurent":
            g = Generator(name, 0, weight, draw(st.integers(0, 1)), laurent=True)
        else:
            lo = draw(st.integers(0, 2))
            g = Generator(name, draw(st.sampled_from((-2, 0, 2))), weight,
                          draw(st.integers(0, 1)), exp_range=(lo, draw(st.integers(lo, lo + 2))))
        gens.append(g)
    return FreeAlgebra(gens, rank)


def _exp_range(g, aux_max, cap):
    if g.exp_range is not None:
        return g.exp_range
    if g.odd:
        return (0, 1)
    if g.laurent:
        return (-cap, cap)
    return (0, aux_max // g.aux)


def brute_force_bins(alg, aux_max, cap, target):
    """Every exponent tuple of the full box, filtered; bins in first-seen order."""
    box = [range(lo, hi + 1) for lo, hi in (_exp_range(g, aux_max, cap) for g in alg.gens)]
    bins = {}
    for exps in itertools.product(*box):
        deg = alg.monomial_degree(exps)
        if deg.aux <= aux_max and (target is None or deg.weight == target):
            bins.setdefault(deg, []).append(exps)
    return bins


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_enumeration_equals_filtered_box(data):
    alg = data.draw(algebras())
    aux_max = data.draw(st.integers(0, 4))
    cap = data.draw(st.integers(0, 2))
    target = data.draw(st.none() | st.tuples(*[st.integers(-3, 3)] * alg.rank))
    enum = enumerate_monomials(alg, aux_max, laurent_cap=cap, weight_filter=target)
    # label order within a bin and the order of the bins themselves
    assert list(enum.bins.items()) == list(brute_force_bins(alg, aux_max, cap, target).items())
    assert enum.laurent_caps == {g.name: cap for g in alg.gens
                                 if g.laurent and g.exp_range is None}


def test_enumeration_example():
    # x (weight 1, aux 1), odd e (weight -1), w Laurent of weight 0
    alg = FreeAlgebra([Generator("x", 0, (1,), 1), Generator("e", -1, (-1,), 1),
                       Generator("w", 0, (0,), 0, laurent=True)], 1)
    enum = enumerate_monomials(alg, 2, laurent_cap=1, weight_filter=(0,))
    assert enum.bins == {
        Multidegree(0, (0,), 0): [(0, 0, -1), (0, 0, 0), (0, 0, 1)],
        Multidegree(-1, (0,), 2): [(1, 1, -1), (1, 1, 0), (1, 1, 1)],
    }


# -- the graded Leibniz rule -------------------------------------------------


def _odd_degree(alg, exps):
    return sum(e for e, g in zip(exps, alg.gens) if g.odd) % 2


def reference_product(alg, a, b):
    """x^a * x^b as (sign, exps), or None; the sign counts each odd factor of b
    moved past the odd factors of a with a larger index."""
    out = tuple(x + y for x, y in zip(a, b))
    if any(e > 1 for e, g in zip(out, alg.gens) if g.odd):
        return None
    if any(e < 0 for e, g in zip(out, alg.gens) if not g.laurent):
        return None
    odd = [i for i, g in enumerate(alg.gens) if g.odd]
    swaps = sum(a[i] * b[j] for i in odd for j in odd if i > j)
    return (-1) ** swaps, out


def reference_apply_monomial(D, exps):
    """sum_j ±e_j x^left * D(x_j) * x^right as a Polynomial triple product."""
    alg = D.alg
    n = len(exps)
    out = alg.poly()
    odd_before = 0
    for j, (e, g) in enumerate(zip(exps, alg.gens)):
        if e and g.name in D.images:
            left = exps[:j] + (e - 1,) + (0,) * (n - j - 1)
            right = (0,) * (j + 1) + exps[j + 1:]
            c = Fraction(-e if odd_before % 2 else e)
            out = out + (Polynomial(alg, {left: c}) * D.images[g.name]
                         * Polynomial(alg, {right: Fraction(1)}))
        if g.odd:
            odd_before += e
    return out


def _monomials(alg):
    """Exponent tuples with odd exponents 0/1 and negative Laurent exponents."""
    def exp(g):
        if g.odd:
            return st.integers(0, 1)
        return st.integers(-3, 3) if g.laurent else st.integers(0, 3)
    return st.tuples(*[exp(g) for g in alg.gens])


def _scalars(field):
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    if field is None:
        return rat
    return st.tuples(rat, rat).map(lambda ab: Q_ZETA3.element(ab))


def _with_parity(alg, m, parity):
    """m, or m with its first odd exponent flipped, so that its odd degree is parity."""
    if _odd_degree(alg, m) == parity:
        return m
    for i, g in enumerate(alg.gens):
        if g.odd:
            return m[:i] + (1 - m[i],) + m[i + 1:]
    return None


@st.composite
def derivations(draw):
    """An odd derivation: each image has the opposite parity of its generator.
    Laurent generators get images too, so the power rule meets negative exponents."""
    alg = draw(algebras())
    field = draw(st.sampled_from((None, Q_ZETA3)))
    images = {}
    for g in alg.gens:
        terms = {}
        for m in draw(st.lists(_monomials(alg), max_size=3)):
            m = _with_parity(alg, m, int(not g.odd))
            if m is not None:
                terms[m] = draw(_scalars(field))
        images[g.name] = Polynomial(alg, terms)
    return Derivation(alg, images), field


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mul_monomials_equals_reference(data):
    alg = data.draw(algebras(max_gens=5))
    a, b = data.draw(_monomials(alg)), data.draw(_monomials(alg))
    assert alg.mul_monomials(a, b) == reference_product(alg, a, b)


def test_mul_monomials_exterior_signs():
    # every product in the exterior algebra on three odd generators
    alg = FreeAlgebra([Generator(f"e{i}", 1, (), 0) for i in range(3)], 0)
    cube = list(itertools.product((0, 1), repeat=3))
    for a in cube:
        for b in cube:
            assert alg.mul_monomials(a, b) == reference_product(alg, a, b)
    assert alg.mul_monomials((0, 1, 0), (1, 0, 0)) == (-1, (1, 1, 0))
    assert alg.mul_monomials((0, 1, 1), (1, 0, 0)) == (1, (1, 1, 1))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_monomial_equals_triple_product(data):
    D, _ = data.draw(derivations())
    exps = data.draw(_monomials(D.alg))
    assert D.apply_monomial(exps).terms == reference_apply_monomial(D, exps).terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_monomial_graded_leibniz(data):
    # D(ab) = D(a) b + (-1)^|a| a D(b), also when ab = 0 by a repeated odd factor
    D, _ = data.draw(derivations())
    alg = D.alg
    a, b = data.draw(_monomials(alg)), data.draw(_monomials(alg))
    pa, pb = Polynomial(alg, {a: Fraction(1)}), Polynomial(alg, {b: Fraction(1)})
    prod = alg.mul_monomials(a, b)
    lhs = alg.poly() if prod is None else D.apply_monomial(prod[1]).scaled(prod[0])
    sign = -1 if _odd_degree(alg, a) else 1
    rhs = D.apply_monomial(a) * pb + (pa * D.apply_monomial(b)).scaled(sign)
    assert (lhs - rhs).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_apply_is_linear(data):
    D, field = data.draw(derivations())
    alg = D.alg
    terms = data.draw(st.dictionaries(_monomials(alg), _scalars(field), max_size=4))
    expected = alg.poly()
    for m, c in terms.items():
        expected = expected + D.apply_monomial(m).scaled(c)
    assert D.apply(Polynomial(alg, terms)).terms == expected.terms


def test_apply_monomial_examples():
    # x even, e and f odd, w Laurent; D(x) = e, D(f) = x^2
    alg = FreeAlgebra([Generator("x", 0, (), 1), Generator("e", -1, (), 1),
                       Generator("f", -1, (), 1), Generator("w", 0, (), 0, laurent=True)], 0)
    e, f, x = alg.poly_gen("e"), alg.poly_gen("f"), alg.poly_gen("x")
    w = alg.poly_gen("w")
    D = Derivation(alg, {"x": e, "f": x * x})
    # power rule: D(x^3) = 3 x^2 e
    assert D.apply_monomial((3, 0, 0, 0)).terms == {(2, 1, 0, 0): Fraction(3)}
    # Koszul sign: D(e f) = -e D(f) = -x^2 e
    assert D.apply_monomial((0, 1, 1, 0)).terms == {(2, 1, 0, 0): Fraction(-1)}
    # a repeated odd factor: D(x e) = e e + x D(e) = 0
    assert D.apply_monomial((1, 1, 0, 0)).is_zero()
    # negative Laurent exponents ride along: D(x w^-2) = e w^-2
    assert D.apply_monomial((1, 0, 0, -2)).terms == {(0, 1, 0, -2): Fraction(1)}
    # a Q(zeta3) image
    z = Q_ZETA3.zeta()
    Dz = Derivation(alg, {"x": e.scaled(z)})
    assert Dz.apply_monomial((2, 0, 0, 0)).terms == {(1, 1, 0, 0): z * 2}
    assert Dz.apply(w * x + x).terms == {(0, 1, 0, 1): z, (0, 1, 0, 0): z}
