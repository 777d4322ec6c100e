"""The (equivariant) cyclic bar complex with the Connes B-operator.

Independent oracle for Hochschild homology and its circle action (Loday,
*Cyclic Homology*, 1.1 and 2.1).  For a monomial-relation presentation A and
diagonalizable G, level n holds (A^{(x) n+1} (x) k[G])^G.

Each monomial of A up to aux_max is coded by its index in the sorted
`A_basis`; the coding preserves order, so lex order on codes is lex order on
exponents.  The aux degree and weight of each code are tabulated once, and so
is the product table `prod[a][b]` (a code, or None where the product hits a
relation) over the pairs inside the aux window.  An element of level n is a
tuple (codes, mu) of n + 1 codes and a group exponent mu.  The tuple builder
carries each tuple's aux and weight, so the elements come out binned and in
lex order; each level is numbered once, in bin order.  Exponent tuples are
decoded only for the normalized labels of `connes_B`.

The structure maps are Loday's: d_i multiplies slots i, i + 1; the last
face is twisted, d_n(a_0...a_n (x) w^mu) = (a_n a_0) (x) ... (x) w^{mu + wt(a_n)};
t rotates a_n to the front and its weight into the group monomial; s_j
inserts a unit after slot j.  They are stored as tables of target numbers
(`faces[n][i]`, `t[n]`, `s[n][j]`): None where a product hits a relation,
CAPPED where mu leaves the box |mu| <= mu_cap.  No image tuple is built or
hashed.  The tuples of level n that extend a tuple of level n - 1 form one
block of the lex order, so a map on the first n slots moves whole blocks,
and the last face and s_n are offsets inside a block.  t and d_n put a code
c in front: the lex rank of (c,) + v is the count of tuples with a smaller
head plus the rank of v among those of aux <= aux_max - aux(c).  One
position list per level turns lex ranks into element numbers, with mu moved
for d_n and t.

Everything else is index arithmetic on these tables.  The simplicial and
cyclic identities compose whole table rows, CAPPED entries skipped; by
Loday's argument (2.1) they give b^2 = B^2 = bB + Bb = 0, so the laws are
not re-checked column by column.  b = sum (-1)^i d_i is read off the face
tables.  B = (1 - lambda) s_{-1} N, with lambda = (-1)^n t, takes the extra
degeneracy s_{-1} = t_{n+1} s_n (the unit in front) of the cyclic set.
`connes_B` pushes these columns to the normalized complex and edge-flags the
bins of columns that hit the cap.

Simplicial truncation at depth N is exact on low weights: the normalized
level n only touches aux >= n (every inner slot carries aux >= 1), so a bin
of auxiliary degree a is final once N >= a; deeper bins are edge-flagged.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import add

from .complexes import GradedComplex
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex
from .models import AlgebraPresentation, TorusData

CAPPED = "capped"  # a face or t whose group exponent leaves the mu box
UNIT = 0  # code of the unit monomial, the least exponent tuple
_OUTSIDE = "outside"  # in place of the number of a (tuple, mu) that is no element


class CyclicLevels:
    def __init__(self, P: AlgebraPresentation, T: TorusData | None, N: int,
                 aux_max: int, mu_cap: int = 0):
        for name, value in (("N", N), ("aux_max", aux_max), ("mu_cap", mu_cap)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
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
        self.relation_monos = self._relation_monomials()
        self.A_basis = self._a_basis()  # code c is the monomial A_basis[c]
        self.mono_aux = [sum(e * g.aux for e, g in zip(m, self.gens)) for m in self.A_basis]
        self.mono_weight = [
            tuple(sum(e * g.weight[k] for e, g in zip(m, self.gens)) for k in range(self.rank))
            for m in self.A_basis
        ]
        self.prod = self._product_table()
        self._build_levels()
        self._build_tables()

    # -- the algebra -----------------------------------------------------------
    def _relation_monomials(self):
        if any(len(rel.terms) != 1 for rel in self.P.relations):
            raise NotImplementedError("cyclic bar supports monomial relations only")
        return [next(iter(rel.terms)) for rel in self.P.relations]

    def _a_basis(self):
        """Monomials of A up to aux_max (quotient by monomial relations), sorted."""
        level = [((), 0)]  # exponents of the first generators, their aux
        for g in self.gens:
            longer = []
            for m, aux in level:
                e = 0
                while aux + e * g.aux <= self.aux_max:
                    longer.append((m + (e,), aux + e * g.aux))
                    e += 1
            level = longer
        rels = self.relation_monos
        return sorted(m for m, _ in level
                      if not any(all(e >= r for e, r in zip(m, rel)) for rel in rels))

    def _product_table(self):
        """prod[a][b]: the code of the product of codes a and b, for aux(a) +
        aux(b) <= aux_max; None where it hits a relation, which inside the
        window is exactly where the product is missing from A_basis."""
        code = {m: c for c, m in enumerate(self.A_basis)}
        aux = self.mono_aux
        return [{b: code.get(tuple(map(add, x, y)))
                 for b, y in enumerate(self.A_basis) if aux[a] + aux[b] <= self.aux_max}
                for a, x in enumerate(self.A_basis)]

    def decode(self, el):
        """(exponent tuples, mu) of the element (codes, mu)."""
        return tuple(map(self.A_basis.__getitem__, el[0])), el[1]

    # -- level bases -----------------------------------------------------------
    def _build_levels(self):
        """Levels 0..N, binned.  Level n's code tuples come out in lex order as
        each tuple of level n - 1 followed in turn by every code its aux leaves
        room for.  An element is tuple k with mu = box[m] (plain levels have the
        one mu ()).  Kept for _build_tables, per level: the aux of each tuple,
        the k and m of each element, and rows[m][k], the number of element
        (k, m) or _OUTSIDE, with None at k = -1 (a product that hits a relation)
        and, at m = -1, a row of CAPPED (a mu that leaves the box)."""
        A, zero = self.aux_max, (0,) * self.rank
        fits = [[(c, b, v) for c, (b, v) in enumerate(zip(self.mono_aux, self.mono_weight))
                 if b <= r] for r in range(A + 1)]  # the codes of aux <= r
        built = []  # per level, (codes, aux, weight) of each tuple in lex order
        level = [((), 0, zero)]
        for _ in range(self.N + 1):
            level = [(t + (c,), a + b, tuple(map(add, w, v)))
                     for t, a, w in level for c, b, v in fits[A - a]]
            built.append(level)
        self.mu_preserved = True  # bins are made only once it is final
        box = self._box = [()]
        if self.equivariant:
            weighty = {c for c, w in enumerate(self.mono_weight) if any(w)}
            self.mu_preserved = not any(weighty.intersection(codes) for level in built
                                        for codes, _, w in level if w == zero)
            box = self._box = self._mu_box()
        self.levels: list[dict[Multidegree, list]] = []  # bins of level n, in lex order
        self.elements: list[list[tuple]] = []  # level n in bin order
        self.number: list[dict[tuple, int]] = []  # position in elements[n]
        B = len(box)
        # every index and number below is taken from one list, so that the
        # tables share int objects rather than hold a fresh one per entry
        ints = self._ints = list(range(max(map(len, built)) * B + 1))
        self._scratch = []
        for n, level in enumerate(built):
            built[n] = None
            bins = {}  # (weight, aux) -> the slot k * B + m of each element, in lex order
            for k, (codes, a, w) in zip(ints, level):
                if not self.equivariant:
                    bins.setdefault((w, a), []).append(k)
                elif w != zero:
                    continue
                elif self.mu_preserved:
                    for m, mu in enumerate(box):
                        bins.setdefault((mu, a), []).append(k * B + m)
                else:
                    bins.setdefault((zero, a), []).extend(range(k * B, k * B + B))
            self.levels.append({Multidegree(-n, w, a, 0): [(level[x // B][0], box[x % B])
                                                           for x in xs]
                                for (w, a), xs in bins.items()})
            slots = list(chain.from_iterable(bins.values()))
            ks, ms = [ints[x // B] for x in slots], [x % B for x in slots]
            rows = [[x] * len(level) + [None] for x in [_OUTSIDE] * B + [CAPPED] * self.equivariant]
            number = {}
            for e, el, k, m in zip(ints, chain.from_iterable(self.levels[n].values()), ks, ms):
                number[el] = rows[m][k] = e
            self.elements.append(list(number))
            self.number.append(number)
            self._scratch.append(([a for _, a, _ in level], ks, ms, rows))

    def _bin(self, n, e):
        """The bin of element e of level n, for error messages."""
        for mdeg, ls in self.levels[n].items():
            if e < len(ls):
                return mdeg
            e -= len(ls)

    def _build_tables(self):
        """faces[n][i], t[n] and s[n][j]: the number of the image of each
        element of level n under d_i, t and s_j (j >= 0, levels below N).

        Each map is first a lex table: per tuple of level n, the lex rank of its
        image, -1 where a product hits a relation.  The block of tuple u of level
        n - 1 is u followed by each code of aux <= A - aux(u).  d_i (i <= n - 2)
        and s_j (j <= n - 1) keep aux, so their tables put the block of each
        image one level down in its place.  d_{n-1} multiplies the last two codes
        inside the blocks of level n - 2; s_n sends k to the start of its block
        (UNIT is code 0, of aux 0).  t is the inverse of the stable sort of level
        n by last code, as (c,) + v ranks by c, then by v.  d_n sends
        (a_0, w, a_n) to (a_n a_0, w), the image of (w, a_n a_0) under t one
        level down."""
        A, aux, prod, ints = self.aux_max, self.mono_aux, self.prod, self._ints
        codes = [[c for c, b in enumerate(aux) if b <= r] for r in range(A + 1)]
        place = [{c: i for i, c in enumerate(cs)} for cs in codes]
        # pairs[r][b]: in a block of budget r, the place of b c for each c of the
        # block that follows b
        pairs = [{b: [-1 if (p := prod[b][c]) is None else place[r][p] for c in codes[r - aux[b]]]
                  for b in codes[r]} for r in range(A + 1)]
        at = {mu: m for m, mu in enumerate(self._box)}
        moved = [[at.get(tuple(map(add, mu, w)), -1) for w in self.mono_weight]
                 for mu in self._box]  # m of mu + wt(c), -1 outside the box
        self.faces, self.t, self.s = [[]], [], []
        aux1 = aux2 = [0]  # the tuples of levels n - 1 and n - 2; level -1 is ()
        faces, degens = [], []  # lex d_0..d_{n-2} of level n - 1, s_0..s_{n-2} of n - 2
        for n in range(self.N + 1):
            sizes = [len(codes[A - a]) for a in aux1]
            starts = [0, *map(ints.__getitem__, accumulate(sizes))]  # then the size of level n
            rng = ints[:starts[-1]]  # the lex indices of level n
            last = list(chain.from_iterable(codes[A - a] for a in aux1))
            t = sorted(rng, key=sorted(rng, key=last.__getitem__).__getitem__)
            _, ks, ms, _ = self._scratch[n]
            mus = [moved[m][last[k]] for k, m in zip(ks, ms)] if self.equivariant else None
            keep = iter if n < self.N else _drained  # level n + 1 reads the lex tables
            if n:
                pad = rng1 + [-1] * len(codes[A])
                faces = [_blockwise(d, starts1, sizes, pad) for d in faces]
                faces.append([-1 if j < 0 else rng1[base + j] for base, a in zip(starts1, aux2)
                              for j in chain.from_iterable(pairs[A - a].values())])
                faces.append([-1 if j < 0 else t1[base + j] for c in codes[A]
                              for base, a in zip(starts1, aux2) if a + aux[c] <= A
                              for j in pairs[A - a][c]])
                del pad, rng1, t1  # read for the last time
                self.faces.append([self._numbered(n, n - 1, d, f"d_{i}", mus if i == n else None)
                                   for i, d in enumerate(keep(faces))])
                del faces[n:]  # d_n
                degens = [_blockwise(s, starts, sizes1, rng) for s in degens] + [starts[:-1]]
                self.s.append([self._numbered(n - 1, n, s, f"s_{j}")
                               for j, s in enumerate(keep(degens))])
                self._scratch[n - 1] = None  # numbered
            self.t.append(self._numbered(n, n, t, "t", mus))
            aux1, aux2 = self._scratch[n][0], aux1
            starts1, sizes1, rng1, t1 = starts, sizes, rng, t
        del self._box, self._ints, self._scratch

    def _numbered(self, n, level, lex, name, mus=None):
        """Number in `level` of the image of each element (k, m) of level n:
        (lex[k], m), or (lex[k], mus[e]) for the e-th element where mu moves
        (d_n and t, equivariant; -1 where it leaves the box).  None and CAPPED
        stay; an image outside `level` raises at the first such element."""
        _, ks, ms, _ = self._scratch[n]
        rows, ms = self._scratch[level][3], ms if mus is None else mus
        size = len(rows[0]) - 1
        if -1 <= min(lex) and max(lex) < size:
            if not self.equivariant:  # one mu; every tuple is an element
                row = rows[0]
                return [row[lex[k]] for k in ks]
            out = [rows[m][lex[k]] for k, m in zip(ks, ms)]
            if _OUTSIDE not in out:
                return out
        e = next(e for e, (k, m) in enumerate(zip(ks, ms))
                 if not -1 <= lex[k] < size or rows[m][lex[k]] is _OUTSIDE)
        raise NotAComplex(self._bin(n, e), f"{name} leaves level {level}")

    def _mu_box(self):
        box = [()]
        for _ in range(self.rank):
            box = [b + (k,) for b in box for k in range(-self.mu_cap, self.mu_cap + 1)]
        return box

    def is_degenerate(self, el) -> bool:
        return UNIT in el[0][1:]

    # -- columns ---------------------------------------------------------------------
    def _b_column(self, n, e):
        """b = sum (-1)^i d_i of element e of level n, read off faces[n]:
        ({number: coefficient}, whether a face hit the cap)."""
        col = {}
        capped = False
        c = 1
        for d in self.faces[n]:  # d_i with sign (-1)^i
            k = d[e]
            if k is CAPPED:
                capped = True
            elif k is not None:
                col[k] = col.get(k, 0) + c
            c = -c
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

    # -- identities -----------------------------------------------------------------
    # Each identity composes whole table rows; a violation is reported at the
    # first element, in level order, where one fails.
    def check_simplicial_identities(self):
        """Face-face, t^{n+1} = id, d_j s_j = d_{j+1} s_j = id and, for
        k < n, d_k s_n = s_{n-1} d_k on every level."""
        for n in range(2, self.N + 1):
            d, below = self.faces[n], self.faces[n - 1]
            self._check(n, ((f"d_{i} d_{j} != d_{j-1} d_{i}",
                             _compose(below[i], d[j]), _compose(below[j - 1], d[i]))
                            for j in range(1, n + 1) for i in range(j)))
        for n, t in enumerate(self.t):
            ks = ident = list(range(len(t)))
            for _ in range(n + 1):
                ks = _compose(t, ks)
            self._check(n, [("t^{n+1} != id", ks, ident)])
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
                raise NotAComplex(self._bin(n, e), f"d s_{j} != id")
            self._check(n, ((f"d_{k} s_{n} != s_{n-1} d_{k}", _compose(d[k], s[n]),
                             _compose(self.s[n - 1][n - 1], self.faces[n][k]))
                            for k in range(n)))
        return True

    def check_bar_laws(self):
        """The cyclic identities d_0 t = d_n and d_i t = t d_{i-1}, 1 <= i <= n.

        With the simplicial identities they give the laws of the mixed
        complex (Loday, 2.1.1 and 2.1.4).  b^2 = 0 follows from face-face.
        These two identities give (1 - lambda) b' = b (1 - lambda) and
        b' N = N b, with b' = sum_{i<n} (-1)^i d_i.  With d_{n+1} s_n = id
        and d_k s_n = s_{n-1} d_k (k < n) they give d_0 s_{-1} = id and
        d_i s_{-1} = s_{-1} d_{i-1}, so b' s_{-1} + s_{-1} b' = id and
        bB + Bb = (1 - lambda)(b' s_{-1} + s_{-1} b') N = (1 - lambda) N = 0.
        B^2 = 0 because N (1 - lambda) = 0, which is t^{n+1} = id.
        """
        for n in range(1, self.N + 1):
            d, t = self.faces[n], self.t[n]
            self._check(n, [(f"d_0 t != d_{n}", _compose(d[0], t), d[n])] + [
                (f"d_{i} t != t d_{i-1}", _compose(d[i], t), _compose(self.t[n - 1], d[i - 1]))
                for i in range(1, n + 1)])
        return True

    def _check(self, n, identities):
        """Raise at the first element of level n where the two rows of an
        identity (message, lhs, rhs) differ; of the identities failing
        there, the first listed names the violation."""
        bad = [(e, k, msg) for k, (msg, lhs, rhs) in enumerate(identities)
               if (e := _first_difference(lhs, rhs)) is not None]
        if bad:
            e, _, msg = min(bad)
            raise NotAComplex(self._bin(n, e), msg)


def _blockwise(table, starts, sizes, numbers):
    """The lex table one level up of a map that acts on all codes but the last:
    per tuple, numbers[starts[image]:] as many as sizes has for the tuple (an
    image -1 starts past the level, at the -1s that pad numbers)."""
    out = []
    for image, size in zip(table, sizes):
        first = starts[image]
        out += numbers[first:first + size]
    return out


def _drained(tables):
    """Each of `tables` in turn, each dropped from the list once it is read."""
    while tables:
        yield tables.pop(0)


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
                    basis.append(L.decode(el))
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
            (abs(x) for w in L.mono_weight for x in w), default=0
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
