"""Free graded-commutative algebras with exact coefficients.

Generators carry a multidegree; monomials are exponent tuples in a fixed
generator order (odd-cohdeg generators square to zero, designated Laurent
generators may have negative exponents).  Polynomials are monomial->scalar
dicts.  Differentials and mixed differentials are derivations given on
generators and extended by the graded Leibniz rule with Koszul signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .grading import Multidegree
from .scalars import is_zero


@dataclass(frozen=True)
class Generator:
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
        if isinstance(c, int):
            c = Fraction(c)
        if is_zero(c):
            return Polynomial(self, {})
        return Polynomial(self, {self.zero_exps(): c})

    def poly_gen(self, name, e=1) -> "Polynomial":
        return Polynomial(self, {self.gen_monomial(name, e): Fraction(1)})


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
        if isinstance(other, (int, Fraction)) or not isinstance(other, Polynomial):
            return self.scaled(other)
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

    __rmul__ = __mul__

    def scaled(self, c):
        if isinstance(c, int):
            c = Fraction(c)
        if is_zero(c):
            return Polynomial(self.alg, {})
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
    """Odd derivation determined by images of generators (graded Leibniz)."""

    def __init__(self, alg: FreeAlgebra, images: dict):
        self.alg = alg
        self.images = {name: p for name, p in images.items() if p is not None and not p.is_zero()}

    def __repr__(self):
        return f"Derivation({self.images!r})"

    def apply_monomial(self, exps) -> Polynomial:
        """D(x^exps) = sum_j ±e_j (x^left * D(x_j) * x^right), where left holds
        the exponents before j and x_j^(e_j - 1), right those after j, and the
        sign is the parity of the odd factors passed."""
        alg = self.alg
        mul = alg.mul_monomials
        exps = tuple(exps)
        n = len(exps)
        out = {}
        prefix_parity = 0
        for j, (e, g) in enumerate(zip(exps, alg.gens)):
            if not e:
                continue
            img = self.images.get(g.name)
            if img is not None:
                # power rule, valid for any integer e
                left = exps[:j] + (e - 1,) + (0,) * (n - j - 1)
                right = (0,) * (j + 1) + exps[j + 1:]
                mult = -e if prefix_parity % 2 else e
                for m, c in img.terms.items():
                    r = mul(left, m)
                    if r is None:
                        continue
                    s1, m = r
                    r = mul(m, right)
                    if r is None:
                        continue
                    s2, m = r
                    coef = mult * s1 * s2
                    _add_term(out, m, c if coef == 1 else -c if coef == -1 else c * coef)
            if g.odd and e % 2:
                prefix_parity += 1
        return Polynomial(alg, out)

    def apply(self, poly: Polynomial) -> Polynomial:
        out = {}
        for m, c in poly.terms.items():
            if isinstance(c, int):
                c = Fraction(c)
            for tm, tc in self.apply_monomial(m).terms.items():
                _add_term(out, tm, c * tc)
        return Polynomial(self.alg, out)


@dataclass
class Enumeration:
    """Monomial enumeration of an algebra within finite bounds."""

    bins: dict  # Multidegree -> sorted list of exponent tuples
    aux_max: int
    laurent_caps: dict = field(default_factory=dict)  # name -> cap L used


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
    caps = {}
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
            caps[g.name] = laurent_cap
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

    out: dict[Multidegree, list] = {}
    exps = [0] * n

    # The partial degree of exps[:i] travels down the recursion, and a branch
    # stops as soon as its weight can no longer reach the target.  Leaves
    # arrive in lexicographic order, so every bin comes out sorted.
    def rec(i, cohdeg, weight, aux_used):
        if i == n:
            out.setdefault(Multidegree(cohdeg, weight, aux_used, 0), []).append(tuple(exps))
            return
        lo, hi = ranges[i]
        g = gens[i]
        for e in range(lo, hi + 1):
            cost = e * g.aux if e > 0 else 0
            if aux_used + cost > aux_max:
                if e > 0:
                    break
                continue
            w = tuple([a + e * b for a, b in zip(weight, g.weight)])  # as in mul_monomials
            if reachable(i + 1, w):
                exps[i] = e
                rec(i + 1, cohdeg + e * g.cohdeg, w, aux_used + cost)
        exps[i] = 0

    if reachable(0, (0,) * alg.rank):
        rec(0, 0, (0,) * alg.rank, 0)
    return Enumeration(out, aux_max, caps)
