"""The (equivariant) cyclic bar complex with the Connes B-operator.

Independent oracle for Hochschild homology and its circle action.  For a
monomial-relation presentation A and diagonalizable G, level n holds
(A^{(x) n+1} (x) k[G])^G with the twisted last face d_n(a_0...a_n (x) w^mu)
= (a_n a_0) (x) ... (x) w^{mu + wt(a_n)}, the cyclic operator rotating the
coaction leg into the group monomial (the convention is validated by
t^{n+1} = id on invariants), and degeneracies inserting units.  The mixed
differential is B = (1 - lambda) s N with lambda = (-1)^n t, pushed to the
normalized complex.

Simplicial truncation at depth N is exact on low weights: the normalized
level n only touches aux >= n (every inner slot carries aux >= 1), so a bin
of auxiliary degree a is final once N >= a; deeper bins are edge-flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import GradedComplex
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex
from .models import AlgebraPresentation, TorusData


@dataclass(frozen=True)
class BarElement:
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
        self.relation_monos = self._relation_monomials()
        self.A_basis = self._a_basis()
        self._build_levels()

    # -- the algebra -----------------------------------------------------------
    def _relation_monomials(self):
        out = []
        for rel in self.P.relations:
            if len(rel.terms) != 1:
                raise NotImplementedError(
                    "cyclic bar supports monomial relations only"
                )
            (mono,) = rel.terms
            out.append(mono)
        return out

    def _a_basis(self):
        """Monomials of A up to aux_max (quotient by monomial relations)."""
        out = []
        exps = [0] * len(self.gens)

        def reduced(m):
            for rel in self.relation_monos:
                if all(e >= r for e, r in zip(m, rel)):
                    return False
            return True

        def rec(i, aux):
            if i == len(self.gens):
                m = tuple(exps)
                if reduced(m):
                    out.append(m)
                return
            g = self.gens[i]
            e = 0
            while aux + e * g.aux <= self.aux_max:
                exps[i] = e
                rec(i + 1, aux + e * g.aux)
                e += 1
            exps[i] = 0

        rec(0, 0)
        out.sort()
        return out

    def mono_weight(self, m):
        w = [0] * self.rank
        for e, g in zip(m, self.gens):
            for k in range(self.rank):
                w[k] += e * g.weight[k]
        return tuple(w)

    def mono_aux(self, m):
        return sum(e * g.aux for e, g in zip(m, self.gens))

    def mono_mul(self, a, b):
        """Product in A: None if it hits a monomial relation."""
        m = tuple(x + y for x, y in zip(a, b))
        for rel in self.relation_monos:
            if all(e >= r for e, r in zip(m, rel)):
                return None
        return m

    @property
    def unit(self):
        return (0,) * len(self.gens)

    # -- level bases -----------------------------------------------------------
    def _build_levels(self):
        self.levels: list[dict[Multidegree, list]] = []
        self.index: list[dict] = []
        self.mu_preserved = True
        for n in range(self.N + 1):
            elems = []
            for monos in self._tensor_tuples(n + 1):
                wt = tuple(
                    sum(ws) for ws in zip(*(self.mono_weight(m) for m in monos))
                ) if self.rank else ()
                if self.equivariant:
                    if any(wt):
                        continue
                    if any(any(self.mono_weight(m)) for m in monos):
                        self.mu_preserved = False
                    for mu in self._mu_box():
                        elems.append(BarElement(monos, mu))
                else:
                    elems.append(BarElement(monos, ()))
            bins: dict[Multidegree, list] = {}
            for el in elems:
                bins.setdefault(self._degree(el), []).append(el)
            for k in bins:
                bins[k].sort(key=lambda el: (el.monos, el.mu))
            self.levels.append(bins)
            self.index.append(
                {el: (k, i) for k, ls in bins.items() for i, el in enumerate(ls)}
            )

    def _tensor_tuples(self, slots):
        out = []
        cur = []

        def rec(aux):
            if len(cur) == slots:
                out.append(tuple(cur))
                return
            for m in self.A_basis:
                a = self.mono_aux(m)
                if aux + a > self.aux_max:
                    continue
                cur.append(m)
                rec(aux + a)
                cur.pop()

        rec(0)
        return out

    def _mu_box(self):
        if self.rank == 1:
            return [(k,) for k in range(-self.mu_cap, self.mu_cap + 1)]
        box = [()]
        for _ in range(self.rank):
            box = [b + (k,) for b in box for k in range(-self.mu_cap, self.mu_cap + 1)]
        return box

    def _degree(self, el: BarElement) -> Multidegree:
        n = el.level
        aux = sum(self.mono_aux(m) for m in el.monos)
        if self.equivariant:
            w = el.mu if self.mu_preserved else (0,) * self.rank
        else:
            w = tuple(
                sum(ws) for ws in zip(*(self.mono_weight(m) for m in el.monos))
            ) if self.rank else ()
        return Multidegree(-n, w, aux, 0)

    # -- structure maps ---------------------------------------------------------
    def face(self, el: BarElement, i: int):
        """d_i; returns BarElement or None (killed by a relation / mu cap)."""
        n = el.level
        monos = el.monos
        if i < n:
            prod = self.mono_mul(monos[i], monos[i + 1])
            if prod is None:
                return None
            return BarElement(monos[:i] + (prod,) + monos[i + 2:], el.mu)
        prod = self.mono_mul(monos[n], monos[0])
        if prod is None:
            return None
        mu = el.mu
        if self.equivariant:
            shift = self.mono_weight(monos[n])
            mu = tuple(m + s for m, s in zip(mu, shift))
            if any(abs(x) > self.mu_cap for x in mu):
                return "capped"
        return BarElement((prod,) + monos[1:n], mu)

    def degeneracy(self, el: BarElement, j: int) -> BarElement:
        """s_j inserts the unit after slot j; j = -1 means the front (extra)."""
        monos = el.monos
        if j < 0:
            return BarElement((self.unit,) + monos, el.mu)
        return BarElement(monos[: j + 1] + (self.unit,) + monos[j + 1:], el.mu)

    def cyclic_t(self, el: BarElement):
        n = el.level
        monos = el.monos
        mu = el.mu
        if self.equivariant:
            shift = self.mono_weight(monos[n])
            mu = tuple(m + s for m, s in zip(mu, shift))
            if any(abs(x) > self.mu_cap for x in mu):
                return "capped"
        return BarElement((monos[n],) + monos[:n], mu)

    # -- operators as linear data -------------------------------------------------
    def apply_b(self, el: BarElement):
        """Hochschild boundary: list of (sign, element); records cap hits."""
        if el.level == 0:
            return [], False
        out = []
        capped = False
        for i in range(el.level + 1):
            im = self.face(el, i)
            if im == "capped":
                capped = True
                continue
            if im is not None:
                out.append(((-1) ** i, im))
        return out, capped

    def _apply_linear(self, op, combo):
        out = {}
        capped = False
        for el, c in combo.items():
            terms, cap = op(el)
            capped |= cap
            for s, im in terms:
                out[im] = out.get(im, 0) + c * s
        return {e: v for e, v in out.items() if v}, capped

    def check_bar_laws(self):
        """b^2 = 0, B^2 = 0, bB + Bb = 0 on the unnormalized levels."""
        for n in range(self.N + 1):
            for ls in self.levels[n].values():
                for el in ls:
                    combo = {el: 1}
                    b1, cb = self._apply_linear(self.apply_b, combo)
                    bb, cbb = self._apply_linear(self.apply_b, b1)
                    if bb and not (cb or cbb):
                        raise NotAComplex(self._degree(el), "b^2 != 0")
                    if n + 1 > self.N:
                        continue
                    B1, cB = self._apply_linear(self.apply_B, combo)
                    if n + 2 <= self.N:
                        BB, cBB = self._apply_linear(self.apply_B, B1)
                        if BB and not (cB or cBB):
                            raise NotAComplex(self._degree(el), "B^2 != 0")
                    bB, cbB = self._apply_linear(self.apply_b, B1)
                    Bb, cBb = self._apply_linear(self.apply_B, b1)
                    tot = dict(bB)
                    for e, v in Bb.items():
                        tot[e] = tot.get(e, 0) + v
                    tot = {e: v for e, v in tot.items() if v}
                    if tot and not (cB or cbB or cb or cBb):
                        raise NotAComplex(self._degree(el), "bB + Bb != 0")
        return True

    def apply_B(self, el: BarElement):
        """Connes boundary (1 - lambda) s N, unnormalized."""
        n = el.level
        out = {}
        capped = False

        def add(sign, e):
            out[e] = out.get(e, 0) + sign

        # N = sum lambda^i with lambda = (-1)^n t on C_n
        cur = [(1, el)]
        for i in range(n + 1):
            for sign, e in cur:
                s_e = self.degeneracy(e, -1)
                add(sign, s_e)
                lam_se = self.cyclic_t(s_e)
                if lam_se == "capped":
                    capped = True
                else:
                    add(-sign * ((-1) ** (n + 1)), lam_se)
            nxt = []
            for sign, e in cur:
                te = self.cyclic_t(e)
                if te == "capped":
                    capped = True
                    continue
                nxt.append((sign * ((-1) ** n), te))
            cur = nxt
        return [(s, e) for e, s in out.items() if s], capped

    def is_degenerate(self, el: BarElement) -> bool:
        return any(m == self.unit for m in el.monos[1:])

    # -- identity checks -----------------------------------------------------------
    def check_simplicial_identities(self):
        """Face-face, face-degeneracy and cyclic identities on every level."""
        for n in range(2, self.N + 1):
            for ls in self.levels[n].values():
                for el in ls:
                    for j in range(1, n + 1):
                        for i in range(j):
                            a = self._chain_face(el, i, j)
                            b = self._chain_face_rev(el, i, j)
                            if a == "capped" or b == "capped":
                                continue  # unknown region; edge-flagged
                            if a != b:
                                raise NotAComplex(
                                    self._degree(el), f"d_{i} d_{j} != d_{j-1} d_{i}"
                                )
        for n in range(0, self.N + 1):
            for ls in self.levels[n].values():
                for el in ls:
                    cur = el
                    ok = True
                    for _ in range(n + 1):
                        cur = self.cyclic_t(cur)
                        if cur == "capped":
                            ok = False
                            break
                    if ok and cur != el:
                        raise NotAComplex(self._degree(el), "t^{n+1} != id")
        for n in range(0, self.N):
            for ls in self.levels[n].values():
                for el in ls:
                    for j in range(-1, n + 1):
                        s_el = self.degeneracy(el, j)
                        if j >= 0:
                            if self.face(s_el, j) != el or self.face(s_el, j + 1) != el:
                                raise NotAComplex(
                                    self._degree(el), f"d s_{j} != id"
                                )
        return True

    def _chain_face(self, el, i, j):
        mid = self.face(el, j)
        if mid in (None, "capped"):
            return mid
        return self.face(mid, i)

    def _chain_face_rev(self, el, i, j):
        mid = self.face(el, i)
        if mid in (None, "capped"):
            return mid
        return self.face(mid, j - 1)

    # -- assembly -------------------------------------------------------------------
    def _matrices(self, op, level_from, level_to, normalized):
        """Assemble op: C_{level_from} -> C_{level_to} as bin matrices."""
        src_bins = self.levels[level_from]
        tgt_index = self.index[level_to]
        mats = {}
        cap_bins = set()
        for mdeg, ls in src_bins.items():
            if normalized:
                cols = [el for el in ls if not self.is_degenerate(el)]
            else:
                cols = ls
            if not cols:
                continue
            ent = {}
            tgt_count = {}
            for j, el in enumerate(cols):
                terms, capped = op(el)
                if capped:
                    cap_bins.add(mdeg)
                for sign, im in terms:
                    if normalized and self.is_degenerate(im):
                        continue
                    tk, ti = tgt_index[im]
                    if normalized:
                        ti = self._normalized_index(level_to, tk, im)
                    key = (tk, ti, j)
                    ent[key] = ent.get(key, 0) + sign
            by_tgt = {}
            for (tk, ti, j), v in ent.items():
                if v:
                    by_tgt.setdefault(tk, {})[(ti, j)] = Fraction(v)
            mats[mdeg] = by_tgt
        return mats, cap_bins

    def _normalized_index(self, n, mdeg, el):
        basis = [e for e in self.levels[n].get(mdeg, []) if not self.is_degenerate(e)]
        return basis.index(el)


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
    norm_basis = {}
    for n in range(L.N + 1):
        for mdeg, ls in L.levels[n].items():
            basis = [el for el in ls if not L.is_degenerate(el)]
            if basis:
                bins[mdeg] = [(el.monos, el.mu) for el in basis]
                norm_basis[mdeg] = basis

    diffs = {}
    eps = {}
    cap_bins = set()
    for n in range(L.N + 1):
        if n >= 1:
            mats, capped = L._matrices(lambda e: L.apply_b(e), n, n - 1, normalized=True)
            cap_bins |= capped
            for mdeg, by_tgt in mats.items():
                if len(by_tgt) > 1:
                    raise NotAComplex(mdeg, "b spreads over several bins")
                for tk, ent in by_tgt.items():
                    diffs[mdeg] = SparseMatrix(
                        len(norm_basis.get(tk, ())), len(norm_basis.get(mdeg, ())), ent
                    )
        if n < L.N:
            mats, capped = L._matrices(lambda e: L.apply_B(e), n, n + 1, normalized=True)
            cap_bins |= capped
            for mdeg, by_tgt in mats.items():
                if len(by_tgt) > 1:
                    raise NotAComplex(mdeg, "B spreads over several bins")
                for tk, ent in by_tgt.items():
                    eps[mdeg] = SparseMatrix(
                        len(norm_basis.get(tk, ())), len(norm_basis.get(mdeg, ())), ent
                    )

    edge = set(cap_bins)
    weights = sorted({m.weight for m in bins})
    for w in weights:
        for a in range(L.N + 1, L.aux_max + 1):
            edge.add(Multidegree(-L.N, w, a, 0))
            edge.add(Multidegree(-L.N - 1, w, a, 0))
    # mu-cap shield for the collapsed equivariant case
    if L.equivariant and not L.mu_preserved:
        s_real = max(
            (abs(x) for m in L.A_basis for x in L.mono_weight(m)), default=0
        )
        for mdeg, basis in norm_basis.items():
            if any(abs(x) > L.mu_cap - s_real for el in basis for x in el.mu):
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
