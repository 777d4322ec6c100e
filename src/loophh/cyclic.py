"""The (equivariant) cyclic bar complex with the Connes B-operator.

Independent oracle for Hochschild homology and its circle action (Loday,
*Cyclic Homology*, 1.1 and 2.1).  For a monomial-relation presentation A and
diagonalizable G, level n holds (A^{(x) n+1} (x) k[G])^G.

Elements are plain tuples (`BarElement`, a NamedTuple of monomials and mu).
The aux degree and weight of each monomial of A are tabulated once per
complex, and products of monomials are memoized.  Each level is numbered
once, in bin order.  The structure maps are defined once each, per level, on
the (monos, mu) pairs of that level: d_i multiplies slots i, i + 1; the last
face is twisted, d_n(a_0...a_n (x) w^mu) = (a_n a_0) (x) ... (x)
w^{mu + wt(a_n)}; t rotates a_n to the front and its weight into the group
monomial (validated by t^{n+1} = id on invariants); s_j inserts a unit after
slot j.  Their images are looked up as plain tuples and stored as tables of
target numbers (`faces[n][i]`, `t[n]`, `s[n][j]`): None where a product hits
a relation, CAPPED where mu leaves the box |mu| <= mu_cap.

Everything else is index arithmetic on these tables.  The simplicial
identities compose whole table rows.  b = sum (-1)^i d_i is read off the
face tables.  B = (1 - lambda) s_{-1} N, with lambda = (-1)^n t, takes the
extra degeneracy s_{-1} = t_{n+1} s_n (the unit in front) of the cyclic set.
b^2 = B^2 = bB + Bb = 0 are checked column by column, and skipped for an
element when one of its own columns, or the column of a term that survives
cancellation in its image, hit the cap.  `connes_B` pushes the same columns
to the normalized complex.

Simplicial truncation at depth N is exact on low weights: the normalized
level n only touches aux >= n (every inner slot carries aux >= 1), so a bin
of auxiliary degree a is final once N >= a; deeper bins are edge-flagged.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .complexes import GradedComplex
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex
from .models import AlgebraPresentation, TorusData

CAPPED = "capped"  # a face or t whose group exponent leaves the mu box


class BarElement(NamedTuple):
    monos: tuple  # tuple of A-monomial exponent tuples, length n+1
    mu: tuple  # group-coordinate exponent, () when not equivariant

    @property
    def level(self):
        return len(self.monos) - 1


class CyclicLevels:
    def __init__(self, P: AlgebraPresentation, T: TorusData | None, N: int,
                 aux_max: int, mu_cap: int = 0):
        if N < 0:
            raise ValueError("depth must be >= 0")
        self.P = P
        self.T = T
        self.N = N
        self.aux_max = aux_max
        self.mu_cap = mu_cap
        self.rank = P.rank
        self.equivariant = T is not None and T.rank > 0
        if self.equivariant and T.rank != P.rank:
            raise ValueError("torus rank mismatch")
        self.gens = P.generators
        self.unit = (0,) * len(self.gens)
        self.relation_monos = self._relation_monomials()
        self._products = {}  # (a, b) -> mono_mul(a, b)
        self.A_basis = self._a_basis()
        self.mono_aux = {
            m: sum(e * g.aux for e, g in zip(m, self.gens)) for m in self.A_basis
        }
        self.mono_weight = {
            m: tuple(sum(e * g.weight[k] for e, g in zip(m, self.gens))
                     for k in range(self.rank))
            for m in self.A_basis
        }
        self._build_levels()
        self._build_tables()

    # -- the algebra -----------------------------------------------------------
    def _relation_monomials(self):
        if any(len(rel.terms) != 1 for rel in self.P.relations):
            raise NotImplementedError("cyclic bar supports monomial relations only")
        return [next(iter(rel.terms)) for rel in self.P.relations]

    def _a_basis(self):
        """Monomials of A up to aux_max (quotient by monomial relations)."""
        level = [((), 0)]  # exponents of the first generators, their aux
        for g in self.gens:
            longer = []
            for m, aux in level:
                e = 0
                while aux + e * g.aux <= self.aux_max:
                    longer.append((m + (e,), aux + e * g.aux))
                    e += 1
            level = longer
        return sorted(m for m, _ in level if self.mono_mul(m, self.unit) is not None)

    def total_weight(self, monos):
        return tuple(map(sum, zip(*map(self.mono_weight.__getitem__, monos))))

    def mono_mul(self, a, b):
        """Product in A: None if it hits a monomial relation."""
        m = self._products.get((a, b), False)
        if m is False:
            m = tuple(x + y for x, y in zip(a, b))
            if any(all(e >= r for e, r in zip(m, rel)) for rel in self.relation_monos):
                m = None
            self._products[a, b] = m
        return m

    # -- level bases -----------------------------------------------------------
    def _build_levels(self):
        self.levels: list[dict[Multidegree, list]] = []
        self.elements: list[list[BarElement]] = []  # level n in bin order
        self.number: list[dict[BarElement, int]] = []  # position in elements[n]
        self.mu_preserved = True
        built = []  # binned only once mu_preserved is final
        box = self._mu_box()
        for level in self._tensor_tuples():
            elems = []
            for monos in level:
                if self.equivariant:
                    if any(self.total_weight(monos)):
                        continue
                    if any(any(self.mono_weight[m]) for m in monos):
                        self.mu_preserved = False
                    elems += [BarElement(monos, mu) for mu in box]
                else:
                    elems.append(BarElement(monos, ()))
            built.append(elems)
        for elems in built:
            self._add_level(elems)

    def _add_level(self, elems):
        """Bin one level's elements by degree and number them in bin order."""
        bins: dict[Multidegree, list] = {}
        for el in elems:
            bins.setdefault(self._degree(el), []).append(el)
        for ls in bins.values():
            ls.sort()
        self.levels.append(bins)
        flat = [el for ls in bins.values() for el in ls]
        self.elements.append(flat)
        self.number.append({el: e for e, el in enumerate(flat)})

    def _build_tables(self):
        """faces[n][i], t[n] and s[n][j]: the number of the image of each
        element of level n under d_i, t and s_j (j >= 0, levels below N)."""
        self.faces = [[]]
        self.t = []
        self.s = []
        for n, elems in enumerate(self.elements):
            if n:
                self.faces.append([
                    self._numbered(n - 1, elems, self._face(n, i, elems), f"d_{i}")
                    for i in range(n + 1)
                ])
            self.t.append(self._numbered(n, elems, self._rotation(n, elems), "t"))
            if n < self.N:
                self.s.append([
                    self._numbered(n + 1, elems, self._degeneracy(j, elems), f"s_{j}")
                    for j in range(n + 1)
                ])

    def _numbered(self, level, elems, images, name):
        """Number in `level` of each image (a (monos, mu) tuple); None and
        CAPPED stay."""
        number = self.number[level]
        out = [number.get(im, im) if im.__class__ is tuple else im for im in images]
        e = next((e for e, im in enumerate(out) if im.__class__ is tuple), None)
        if e is not None:  # an image that is not numbered
            raise NotAComplex(self._degree(elems[e]), f"{name} leaves level {level}")
        return out

    def _tensor_tuples(self):
        """Per level n, the (n+1)-tuples of A-monomials of total aux <= aux_max
        in lex order; each level extends the tuples of the level below."""
        basis = [(m, self.mono_aux[m]) for m in self.A_basis]
        tuples, auxes = [()], [0]
        for _ in range(self.N + 1):
            longer, longer_aux = [], []
            for t, a in zip(tuples, auxes):
                for m, b in basis:
                    if a + b <= self.aux_max:
                        longer.append(t + (m,))
                        longer_aux.append(a + b)
            tuples, auxes = longer, longer_aux
            yield tuples

    def _mu_box(self):
        box = [()]
        for _ in range(self.rank):
            box = [b + (k,) for b in box for k in range(-self.mu_cap, self.mu_cap + 1)]
        return box

    def _degree(self, el: BarElement) -> Multidegree:
        aux = sum(map(self.mono_aux.__getitem__, el.monos))
        if self.equivariant:
            w = el.mu if self.mu_preserved else (0,) * self.rank
        else:
            w = self.total_weight(el.monos)
        return Multidegree(-el.level, w, aux, 0)

    # -- structure maps, one level at a time --------------------------------------
    # Each takes the (monos, mu) pairs of level n and yields their images as
    # (monos, mu) tuples, None where a product hits a relation, or CAPPED.
    def _face(self, n, i, elems):
        """d_i multiplies slots i, i + 1; the last face d_n is twisted:
        a_n a_0 (x) a_1 ... a_{n-1} (x) w^{mu + wt(a_n)}."""
        mul = self.mono_mul
        if i < n:
            for m, mu in elems:
                p = mul(m[i], m[i + 1])
                yield None if p is None else (m[:i] + (p,) + m[i + 2:], mu)
            return
        for m, mu in elems:
            p = mul(m[n], m[0])
            if p is None:
                yield None
                continue
            mu = self._shifted(mu, m[n])
            yield CAPPED if mu is CAPPED else ((p,) + m[1:n], mu)

    def _rotation(self, n, elems):
        """t moves a_n to the front and its weight into the group monomial."""
        for m, mu in elems:
            mu = self._shifted(mu, m[n])
            yield CAPPED if mu is CAPPED else ((m[n],) + m[:n], mu)

    def _degeneracy(self, j, elems):
        """s_j inserts the unit after slot j."""
        unit = (self.unit,)
        return ((m[:j + 1] + unit + m[j + 1:], mu) for m, mu in elems)

    def _shifted(self, mu, a):
        """mu + wt(a) when equivariant, CAPPED outside the box |mu| <= mu_cap."""
        if not self.equivariant:
            return mu
        mu = tuple(map(add, mu, self.mono_weight[a]))
        return CAPPED if any(abs(x) > self.mu_cap for x in mu) else mu

    def is_degenerate(self, el: BarElement) -> bool:
        return self.unit in el.monos[1:]

    # -- columns ---------------------------------------------------------------------
    def _b(self, n, combo, out=None):
        """b of a combination {number: coefficient} on level n, read off
        faces[n] and added into `out`: (out, whether a face hit the cap)."""
        out = {} if out is None else out
        capped = False
        for k, c in combo.items():
            for d in self.faces[n]:  # d_i with sign (-1)^i
                t = d[k]
                if t is CAPPED:
                    capped = True
                elif t is not None:
                    out[t] = out.get(t, 0) + c
                c = -c
        return out, capped

    def _b_column(self, n, e):
        """b of element e of level n: ({number: coefficient}, hit the cap)."""
        col, capped = self._b(n, {e: 1})
        return {k: v for k, v in col.items() if v}, capped

    def _B_column(self, n, e):
        """B = (1 - lambda) s_{-1} N of element e of level n < N, numbered in
        level n + 1, with lambda = (-1)^n t and the extra degeneracy
        s_{-1} = t s_n (the unit in front; it moves no weight, so never caps)."""
        t, up, s_n = self.t[n], self.t[n + 1], self.s[n][n]
        sign_n = -1 if n % 2 else 1
        col = {}
        capped = False
        sign = 1
        for _ in range(n + 1):  # N = sum lambda^i; lambda^i e = sign * t^i e
            k = up[s_n[e]]
            col[k] = col.get(k, 0) + sign
            k = up[k]  # -lambda = (-1)^n t on level n + 1
            if k is CAPPED:
                capped = True
            else:
                col[k] = col.get(k, 0) + sign * sign_n
            e = t[e]
            if e is CAPPED:
                capped = True
                break
            sign *= sign_n
        return {k: v for k, v in col.items() if v}, capped

    # -- law checks -----------------------------------------------------------------
    def check_simplicial_identities(self):
        """Face-face, cyclic and face-degeneracy identities on every level.

        Each identity composes whole table rows; a violation is reported at
        the first element, in level order, where one fails.
        """
        for n in range(2, self.N + 1):
            d, below = self.faces[n], self.faces[n - 1]
            bad = []  # (element, j, i) of the first failure of each pair
            for j in range(1, n + 1):
                for i in range(j):
                    e = _first_difference(_compose(below[i], d[j]),
                                          _compose(below[j - 1], d[i]))
                    if e is not None:
                        bad.append((e, j, i))
            if bad:
                e, j, i = min(bad)
                raise NotAComplex(self._degree(self.elements[n][e]),
                                  f"d_{i} d_{j} != d_{j-1} d_{i}")
        for n, t in enumerate(self.t):
            ks = ident = list(range(len(t)))
            for _ in range(n + 1):
                ks = _compose(t, ks)
            e = _first_difference(ks, ident)
            if e is not None:
                raise NotAComplex(self._degree(self.elements[n][e]), "t^{n+1} != id")
        for n, s in enumerate(self.s):
            d = self.faces[n + 1]
            ident = list(range(len(self.elements[n])))
            bad = []
            for j, sj in enumerate(s):
                for face in (d[j], d[j + 1]):
                    row = [face[k] for k in sj]
                    if row != ident:
                        bad.append((next(e for e, k in enumerate(row) if k != e), j))
            if bad:
                e, j = min(bad)
                raise NotAComplex(self._degree(self.elements[n][e]), f"d s_{j} != id")
        return True

    def check_bar_laws(self):
        """b^2 = 0, B^2 = 0, bB + Bb = 0 on the unnormalized levels.

        b is read off the face tables for each check; B columns are kept for
        the levels n - 1, n, n + 1 in use.
        """
        B_cols = {}
        for n in range(self.N + 1):
            B_cols.pop(n - 2, None)
            for m in range(max(n - 1, 0), min(n + 1, self.N - 1) + 1):
                if m not in B_cols:
                    B_cols[m] = [self._B_column(m, e) for e in range(len(self.elements[m]))]
            for e, el in enumerate(self.elements[n]):
                b1, cb = self._b_column(n, e)  # empty on level 0
                bb, cbb = self._b(n - 1, b1)
                if any(bb.values()) and not (cb or cbb):
                    raise NotAComplex(self._degree(el), "b^2 != 0")
                if n + 1 > self.N:
                    continue
                B1, cB = B_cols[n][e]
                if n + 2 <= self.N:
                    BB, cBB = _image(B1, B_cols[n + 1])
                    if any(BB.values()) and not (cB or cBB):
                        raise NotAComplex(self._degree(el), "B^2 != 0")
                tot, cbB = self._b(n + 1, B1)
                tot, cBb = _image(b1, B_cols.get(n - 1), tot)
                if any(tot.values()) and not (cB or cb or cbB or cBb):
                    raise NotAComplex(self._degree(el), "bB + Bb != 0")
        return True


def _compose(table, row):
    """table applied to each entry of row: a number, None or CAPPED (the last
    two stay)."""
    return [table[k] if k.__class__ is int else k for k in row]


def _first_difference(a, b):
    """The first position where rows a and b differ, neither entry being
    CAPPED (a capped image is edge-flagged); None if there is none."""
    if a == b:
        return None
    return next((e for e, (x, y) in enumerate(zip(a, b))
                 if x != y and x is not CAPPED and y is not CAPPED), None)


def _image(combo, columns, out=None):
    """Sum of c * columns[k] over the terms k: c of combo, added into `out`,
    and whether one of those columns hit the cap."""
    out = {} if out is None else out
    capped = False
    for k, c in combo.items():
        col, cap = columns[k]
        capped |= cap
        for t, v in col.items():
            out[t] = out.get(t, 0) + c * v
    return out, capped


def cyclic_bar(P: AlgebraPresentation, N: int, aux_max: int) -> CyclicLevels:
    """Plain cyclic bar complex of a monomial-relation algebra."""
    return CyclicLevels(P, None, N, aux_max)


def equivariant_cyclic_bar(P: AlgebraPresentation, T: TorusData, N: int,
                           aux_max: int, mu_cap: int) -> CyclicLevels:
    return CyclicLevels(P, T, N, aux_max, mu_cap)


def connes_B(L: CyclicLevels) -> MixedComplex:
    """Normalized mixed complex: d = Hochschild b, eps = Connes B.

    Bins at simplicial depth N with aux > N are edge (depth truncation); all
    lower bins are final by the weight-stabilization bound.
    """
    bins = {}
    place = []  # place[n][e]: (bin, normalized position) of element e, None if degenerate
    for n in range(L.N + 1):
        place.append([])
        for mdeg, ls in L.levels[n].items():
            basis = []
            for el in ls:
                if L.is_degenerate(el):
                    place[n].append(None)
                else:
                    place[n].append((mdeg, len(basis)))
                    basis.append((el.monos, el.mu))
            if basis:
                bins[mdeg] = basis

    cap_bins = set()

    def blocks(n, to, column, name):
        """Per-bin normalized matrices of `column` from level n to level `to`."""
        ent = {}
        for e, src in enumerate(place[n]):
            if src is None:
                continue
            mdeg, j = src
            col, capped = column(n, e)
            if capped:
                cap_bins.add(mdeg)
            by_tgt = ent.setdefault(mdeg, {})
            for k, v in col.items():
                if place[to][k] is not None:
                    tk, i = place[to][k]
                    by_tgt.setdefault(tk, {})[(i, j)] = v
        out = {}
        for mdeg, by_tgt in ent.items():
            if len(by_tgt) > 1:
                raise NotAComplex(mdeg, f"{name} spreads over several bins")
            for tk, entries in by_tgt.items():
                out[mdeg] = SparseMatrix(len(bins[tk]), len(bins[mdeg]), entries)
        return out

    diffs = {}
    eps = {}
    for n in range(L.N + 1):
        if n >= 1:
            diffs.update(blocks(n, n - 1, L._b_column, "b"))
        if n < L.N:
            eps.update(blocks(n, n + 1, L._B_column, "B"))

    edge = set(cap_bins)
    weights = sorted({m.weight for m in bins})
    for w in weights:
        for a in range(L.N + 1, L.aux_max + 1):
            edge.add(Multidegree(-L.N, w, a, 0))
            edge.add(Multidegree(-L.N - 1, w, a, 0))
    # mu-cap shield for the collapsed equivariant case
    if L.equivariant and not L.mu_preserved:
        s_real = max(
            (abs(x) for w in L.mono_weight.values() for x in w), default=0
        )
        for mdeg, basis in bins.items():
            if any(abs(x) > L.mu_cap - s_real for _, mu in basis for x in mu):
                edge.add(mdeg)

    if bins:
        cohs = [m.cohdeg for m in bins]
        wr = tuple(
            (min(m.weight[k] for m in bins), max(m.weight[k] for m in bins))
            for k in range(L.rank)
        )
        win = Window((min(cohs), max(cohs) + 1), wr, (0, L.aux_max))
    else:
        win = Window((-1, 1), ((0, 0),) * L.rank, (0, L.aux_max))
    gc = GradedComplex(bins, diffs, win, edge)
    out = MixedComplex(gc, eps)
    out.cohdeg_floor = -L.N
    out.zero_certifier = lambda m: m.aux < -m.cohdeg
    return out
