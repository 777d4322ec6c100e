"""Free graded-commutative algebras with exact coefficients.

Generators carry a multidegree; monomials are exponent tuples in a fixed
generator order (odd-cohdeg generators square to zero, designated Laurent
generators may have negative exponents).  Polynomials are monomial->scalar
dicts.  Differentials and mixed differentials are derivations given on
generators and extended by the graded Leibniz rule with Koszul signs.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul, sub
from typing import NamedTuple

from .grading import Multidegree
from .scalars import is_zero


class Generator(NamedTuple):
    name: str
    cohdeg: int
    weight: tuple
    aux: int
    laurent: bool = False
    exp_range: tuple | None = None  # explicit (lo, hi); required if aux == 0 and not odd

    @property
    def odd(self) -> bool:
        return self.cohdeg % 2 != 0


class FreeAlgebra:
    def __init__(self, gens, rank: int):
        self.gens: tuple[Generator, ...] = tuple(gens)
        self.rank = rank
        names = [g.name for g in self.gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        for g in self.gens:
            if len(g.weight) != rank:
                raise ValueError(f"generator {g.name}: weight length != rank")
            if g.aux < 0:
                raise ValueError(f"generator {g.name}: negative aux")
            if not g.odd and g.aux == 0 and g.exp_range is None and not g.laurent:
                raise ValueError(
                    f"generator {g.name}: even aux-0 generator needs an explicit exponent range"
                )
            if g.laurent and g.odd:
                raise ValueError("laurent generators must be even")
        self.odd_idx = tuple(i for i, g in enumerate(self.gens) if g.odd)
        self.nonnegative_idx = tuple(i for i, g in enumerate(self.gens) if not g.laurent)

    def __repr__(self):
        return f"FreeAlgebra({list(self.gens)!r}, rank={self.rank})"

    def zero_exps(self):
        return (0,) * len(self.gens)

    def gen_monomial(self, name, e=1):
        exps = list(self.zero_exps())
        exps[self.index[name]] = e
        return tuple(exps)

    # -- monomial data ---------------------------------------------------------
    def monomial_degree(self, exps) -> Multidegree:
        cohdeg = 0
        weight = [0] * self.rank
        aux = 0
        for e, g in zip(exps, self.gens):
            if not e:
                continue
            cohdeg += e * g.cohdeg
            for k in range(self.rank):
                weight[k] += e * g.weight[k]
            aux += e * g.aux if e > 0 else 0
        return Multidegree(cohdeg, tuple(weight), aux, 0)

    def monomial_str(self, exps) -> str:
        parts = []
        for e, g in zip(exps, self.gens):
            if not e:
                continue
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def mul_monomials(self, a, b):
        """(sign, exps), or None if an odd generator repeats or a non-Laurent
        exponent goes negative."""
        # Through a list: CPython sizes a tuple built straight from an
        # iterator with no length at 10 slots and shrinks it, and the shrunk
        # tuples then fill its per-size free lists (+0.3 MB peak RSS on hh big3).
        out = tuple([*map(add, a, b)])
        for i in self.odd_idx:
            if out[i] > 1:
                return None
        for i in self.nonnegative_idx:
            if out[i] < 0:
                return None
        # Koszul sign: move each odd factor of b past odd factors of a
        # with larger generator index.
        sign = 1
        cross = 0  # odd exponents of a beyond the current index
        for j in reversed(self.odd_idx):
            if b[j] and cross % 2:
                sign = -sign
            cross += a[j]
        return sign, out

    # -- polynomials -----------------------------------------------------------
    def poly(self, terms=None) -> "Polynomial":
        return Polynomial(self, terms or {})

    def poly_scalar(self, c) -> "Polynomial":
        return Polynomial(self, {self.zero_exps(): c})

    def poly_gen(self, name, e=1) -> "Polynomial":
        return Polynomial(self, {self.gen_monomial(name, e): 1})


def _add_term(out: dict, m, c):
    """out[m] += c, dropping the monomial when the sum cancels."""
    if m in out:
        c = out[m] + c
    if is_zero(c):
        out.pop(m, None)
    else:
        out[m] = c


class Polynomial:
    __slots__ = ("alg", "terms")

    def __init__(self, alg: FreeAlgebra, terms):
        self.alg = alg
        self.terms = {m: c for m, c in terms.items() if not is_zero(c)}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return Polynomial(self.alg, out)

    def __neg__(self):
        return Polynomial(self.alg, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                r = self.alg.mul_monomials(m1, m2)
                if r is None:
                    continue
                sign, m = r
                c = c1 * c2
                _add_term(out, m, -c if sign < 0 else c)
        return Polynomial(self.alg, out)

    def scaled(self, c):
        return Polynomial(self.alg, {m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Multidegree | None:
        """The common multidegree of all terms, or None if inhomogeneous."""
        deg = None
        for m in self.terms:
            d = self.alg.monomial_degree(m)
            if deg is None:
                deg = d
            elif d != deg:
                return None
        return deg

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            bits.append(f"({c})*{self.alg.monomial_str(m)}")
        return " + ".join(bits)


class Derivation:
    """Odd derivation determined by images of generators (graded Leibniz).

    It is compiled once into a term table: for each generator position j
    with an image, the terms (m, c) of D(x_j), each with the odd positions
    k != j set in m.
    """

    def __init__(self, alg: FreeAlgebra, images: dict):
        self.alg = alg
        self.images = {name: p for name, p in images.items() if p is not None and not p.is_zero()}
        for name, p in self.images.items():
            for m in p.terms:
                if any(m[k] > 1 for k in alg.odd_idx) or any(m[i] < 0 for i in alg.nonnegative_idx):
                    raise ValueError(f"D({name}) has a term outside the algebra: {m}")
        self._odd = tuple(int(g.odd) for g in alg.gens)
        self._table = tuple(
            (j, tuple((m, c, tuple(k for k in alg.odd_idx if m[k] and k != j))
                      for m, c in self.images[g.name].terms.items()))
            for j, g in enumerate(alg.gens) if g.name in self.images
        )
        self._active = tuple(int(g.odd or g.name in self.images) for g in alg.gens)
        self._memo = {}  # x^exps, 0 off the active positions -> the shifts of D(x^exps)

    def __repr__(self):
        return f"Derivation({self.images!r})"

    def image_terms(self, exps) -> dict:
        """The terms of D(x^exps) = sum_j ±e_j x^(exps - δ_j) D(x_j), as a dict
        (the power rule holds for any integer e_j).

        A generator y that is even with D(y) = 0 (w, t, ξ, x under the loop d)
        passes through, D(x^a y^b) = D(x^a) y^b, and signs, drops and e_j read
        only the active rest: the shifts of its terms are memoized per active part.
        """
        rep = tuple([*map(mul, exps, self._active)])
        shifts = self._memo.get(rep)
        if shifts is None:
            shifts = self._memo[rep] = [(tuple([*map(sub, m, rep)]), c)  # lists, as in mul_monomials
                                        for m, c in self._leibniz(rep).items()]
        return {tuple([*map(add, exps, s)]): c for s, c in shifts}

    def _leibniz(self, exps) -> dict:
        """D(x^exps) by the Leibniz rule.  A term m of D(x_j) is dropped
        where its product vanishes: an odd position of m is already set in
        exps - δ_j.  No non-Laurent exponent can go negative, as neither exps
        nor m has one.  The sign counts the odd factors of x^exps before j,
        which x_j passes, and for each odd k != j in m those strictly between
        k and j, which that factor passes; `prefix[i]` counts the odd factors
        before position i.
        """
        out = {}
        prefix = [0, *accumulate(map(mul, exps, self._odd))]
        for j, terms in self._table:
            e = exps[j]
            if not e:
                continue
            lead = (*exps[:j], e - 1, *exps[j + 1:])
            pj, pj1 = prefix[j], prefix[j + 1]
            for m, c, odd in terms:
                flips = pj
                for k in odd:
                    if lead[k]:
                        break
                    # a difference of counts, taken mod 2 as a sum
                    flips += pj + prefix[k + 1] if k < j else prefix[k] + pj1
                else:
                    coef = -e if flips % 2 else e
                    _add_term(out, tuple([*map(add, lead, m)]),  # a list, as in mul_monomials
                              c if coef == 1 else -c if coef == -1 else c * coef)
        return out

    def apply_monomial(self, exps) -> Polynomial:
        """D(x^exps) as a Polynomial."""
        return Polynomial(self.alg, self.image_terms(exps))

    def apply(self, poly: Polynomial) -> Polynomial:
        out = {}
        for m, c in poly.terms.items():
            for tm, tc in self.image_terms(m).items():
                _add_term(out, tm, c * tc)
        return Polynomial(self.alg, out)


class Enumeration(NamedTuple):
    """Monomial enumeration of an algebra within finite bounds."""

    bins: dict  # Multidegree -> sorted list of exponent tuples


def enumerate_monomials(
    alg: FreeAlgebra,
    aux_max: int,
    laurent_cap: int | None = None,
    weight_filter=None,
) -> Enumeration:
    """All monomials with aux <= aux_max; Laurent exponents capped at |e| <= cap.

    Columns are complete in cohdeg by construction.  If weight_filter is
    given, only monomials of exactly that weight are kept (a subcomplex,
    since differentials preserve weight).
    """
    gens = alg.gens
    ranges = []
    for g in gens:
        if g.exp_range is not None:
            ranges.append(g.exp_range)
        elif g.odd:
            ranges.append((0, 1))
        elif g.laurent:
            if laurent_cap is None:
                raise ValueError(f"laurent generator {g.name} needs a cap")
            ranges.append((-laurent_cap, laurent_cap))
        else:
            ranges.append((0, aux_max // g.aux if g.aux else 0))
    n = len(gens)
    target = None if weight_filter is None else tuple(weight_filter)
    if target is not None:
        if len(target) != alg.rank:
            raise ValueError("weight_filter length != rank")
        # reach[i][k]: the (min, max) of weight_k that generators i.. can add
        reach = [((0, 0),) * alg.rank]
        for (lo, hi), g in zip(reversed(ranges), reversed(gens)):
            reach.append(tuple(
                (a + min(lo * w, hi * w), b + max(lo * w, hi * w))
                for (a, b), w in zip(reach[-1], g.weight)
            ))
        reach.reverse()

    def reachable(i, weight):
        """Can generators i.. bring `weight` to the target?"""
        return target is None or all(
            a <= t - x <= b for t, x, (a, b) in zip(target, weight, reach[i])
        )

    out: dict[tuple, list] = {}  # the fields of a Multidegree -> its labels
    exps = [0] * n
    moves = [any(g.weight) for g in gens]

    # The partial degree of exps[:i] travels down the recursion, and a branch
    # stops as soon as its weight can no longer reach the target (a weight-0
    # generator cannot move it: reach[i + 1] = reach[i] held at rec(i)).  Leaves
    # arrive in lexicographic order, so every bin comes out sorted.
    def rec(i, cohdeg, weight, aux_used):
        if i == n:
            out.setdefault((cohdeg, weight, aux_used, 0), []).append(tuple(exps))
            return
        lo, hi = ranges[i]
        g = gens[i]
        for e in range(lo, hi + 1):
            cost = e * g.aux if e > 0 else 0
            if aux_used + cost > aux_max:
                break
            w = tuple([a + e * b for a, b in zip(weight, g.weight)]) if moves[i] else weight
            if not moves[i] or reachable(i + 1, w):
                exps[i] = e
                rec(i + 1, cohdeg + e * g.cohdeg, w, aux_used + cost)
        exps[i] = 0

    if reachable(0, (0,) * alg.rank):
        rec(0, 0, (0,) * alg.rank, 0)
    del rec  # rec holds itself through its cell: break the cycle
    return Enumeration({Multidegree(*m): labels for m, labels in out.items()})
