r"""Derived completion as level towers, and Cech local cohomology.

Two completion routes, chosen by the shape of the ideal:

* point ideals (w_j - z_j) in the Laurent group coordinates: the model is a
  free module over its Laurent coordinate ring, so tensoring with the Koszul
  complex on (w_j - z_j)^n is quasi-isomorphic to the coefficient reduction
  k[w^\pm] -> k[t]/(t^n), t = w - z, which has finite bins.  Only the top
  level N is instantiated; level n is its quotient by the labels with a
  t-exponent >= n.  Those labels span a dg-ideal (t is d- and eps-closed),
  so the quotient maps are chain maps by construction.

* homogeneous ideals (generators of positive aux or nonzero weight degree):
  literal Koszul adjunction at complex level, one odd generator kappa^(n)
  with d(kappa^(n)) = g^n per ideal generator.  Bins stay finite because the
  grading shifts.  Each level checks its laws when it is built.

A tower holds its levels only: no check reads a map between levels.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import FreeAlgebra, Polynomial
from .complexes import ChainMap, GradedComplex
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex, tate
from .models import SemifreeModel, TorusPoint
from .scalars import is_zero
from .tables import HilbertTable


class Tower:
    """Levels 1..N.  The basis labels of every level are exponent tuples over
    `gen_names`, when given."""

    def __init__(self, levels, gen_names=None):
        self.levels: list[MixedComplex] = list(levels)
        self.gen_names: list[str] | None = gen_names

    @property
    def depth(self):
        return len(self.levels)

    def level(self, n: int) -> MixedComplex:
        return self.levels[n - 1]

    def tate_tables(self, u_window: int) -> list[HilbertTable]:
        return [tate(lv, u_window).cohomology() for lv in self.levels]


def _verify_eps_square(F: ChainMap, src: MixedComplex, tgt: MixedComplex):
    for m in set(src.base.bins) | set(F.blocks):
        et = m.shift(cohdeg=-1)
        lhs = F.block(et) @ src.eps_from(m)
        rhs = tgt.eps_from(m) @ F.block(m)
        if lhs != rhs:
            raise NotAComplex(m, "chain map does not commute with eps")
    return True


# ---------------------------------------------------------------------------
# point-ideal route
# ---------------------------------------------------------------------------

def point_completion_tower(
    model: SemifreeModel,
    z: TorusPoint,
    N: int,
    aux_max: int,
    weight_filter=None,
    backend=None,
) -> Tower:
    """Levels k[t]/(t^n), n = 1..N, of the completion at z, from level N.

    t has degree 0, so every level has the same bins and window; level n
    keeps, in each bin, the level-N labels with t-exponents < n, in order,
    and d and eps restricted to them.
    """
    if N < 1:
        return Tower([])
    top_model = model.at_torus_point_level(z, N, backend=backend)
    top_model.check_symbolic()
    depths = {}
    top = top_model.instantiate(aux_max, weight_filter=weight_filter, edge_depths=depths)
    levels = [
        _quotient_level(top, top_model.t_index, n, {m for m, v in depths.items() if v < n})
        for n in range(1, N)
    ]
    levels.append(top)
    return Tower(levels, [g.name for g in top_model.alg.gens])


def _quotient_level(top: MixedComplex, tp, n: int, edge) -> MixedComplex:
    """`top` modulo the labels with a t-exponent >= n (t at generator
    position tp; None keeps every label)."""
    keep = {}
    for m, labels in top.base.bins.items():
        keep[m] = {j: i for i, j in enumerate(
            j for j, lbl in enumerate(labels) if tp is None or lbl[tp] < n
        )}

    def restrict(mats, target):
        out = {}
        for m, mat in mats.items():
            cols, rows = keep[m], keep.get(target(m), {})
            ent = {
                (rows[i], cols[j]): v for (i, j), v in mat.entries.items()
                if i in rows and j in cols
            }
            if ent:
                out[m] = SparseMatrix(len(rows), len(cols), ent)
        return out

    base = top.base
    bins = {m: [base.bins[m][j] for j in idx] for m, idx in keep.items()}
    gc = GradedComplex(bins, restrict(base.diffs, base.d_target), base.window, edge,
                       aux_shift=base.aux_shift)
    return MixedComplex(gc, restrict(top.eps, top.eps_target))


# ---------------------------------------------------------------------------
# homogeneous (Koszul cone) route
# ---------------------------------------------------------------------------

class BinOperator:
    """Degree-homogeneous operator on a complex: blocks md -> md + deg."""

    def __init__(self, deg: Multidegree, blocks, truncated=()):
        self.deg = deg
        self.blocks: dict[Multidegree, SparseMatrix] = dict(blocks)
        self.truncated: set[Multidegree] = set(truncated)

    def block(self, C: GradedComplex, m: Multidegree) -> SparseMatrix:
        b = self.blocks.get(m)
        if b is not None:
            return b
        return SparseMatrix.zero(C.dim(m.add(self.deg)), C.dim(m))


def multiplication_operator(alg: FreeAlgebra, C: GradedComplex, poly: Polynomial) -> BinOperator:
    """Multiplication by a homogeneous polynomial on a model-instantiated complex.

    Source bins whose products leave the enumerated window are recorded in
    `truncated` so downstream constructions can edge-flag them.
    """
    deg = poly.homogeneous_degree()
    if deg is None:
        raise ValueError("multiplication operator needs a homogeneous polynomial")
    pos = {m: {lbl: i for i, lbl in enumerate(ls)} for m, ls in C.bins.items()}
    blocks = {}
    truncated = set()
    for m, labels in C.bins.items():
        tgt = m.add(deg)
        tp = pos.get(tgt, {})
        ent = {}
        for j, mono in enumerate(labels):
            prod = Polynomial(alg, {mono: Fraction(1)}) * poly
            for tm, c in prod.terms.items():
                i = tp.get(tm)
                if i is None:
                    truncated.add(m)
                    continue
                ent[(i, j)] = ent.get((i, j), 0) + c
        if ent:
            blocks[m] = SparseMatrix(
                C.dim(tgt), len(labels), {k: v for k, v in ent.items() if not is_zero(v)}
            )
    return BinOperator(deg, blocks, truncated)


def koszul_cone(M: MixedComplex, op: BinOperator) -> MixedComplex:
    """Adjoin one odd Koszul generator kappa with d(kappa . v) = op(v) - kappa . dv.

    The mixed differential extends by eps(kappa . v) = -kappa . eps(v).
    Requires op to commute with d and eps (verified by the mixed-law check
    downstream).
    """
    base = M.base
    if base.aux_shift:
        if any(not d.is_zero_matrix() for d in base.diffs.values()):
            raise NotImplementedError("koszul cone over an aux-shifting differential")
        base = GradedComplex(base.bins, {}, base.window, base.edge, aux_shift=0)
        M = MixedComplex(base, M.eps)
    kdeg = Multidegree(op.deg.cohdeg - 1, op.deg.weight, op.deg.aux, op.deg.upow)
    bins = {}
    for m in sorted(base.bins):
        bins.setdefault(m, []).extend(("b", l) for l in base.bins[m])
    for m in sorted(base.bins):
        km = m.add(kdeg)
        bins.setdefault(km, []).extend(("k", l) for l in base.bins[m])
    bins = {m: ls for m, ls in bins.items() if ls}
    offs = {}
    for m, ls in bins.items():
        nb = sum(1 for tag, _ in ls if tag == "b")
        offs[m] = nb  # kappa-sector starts after the base sector

    def _emb(m, sector):
        return 0 if sector == "b" else offs[m]

    diffs = {}
    eps = {}
    for m, ls in bins.items():
        tgt = Multidegree(m.cohdeg + 1, m.weight, m.aux + base.aux_shift, m.upow)
        ent = {}
        et = m.shift(cohdeg=-1)
        eent = {}
        # base sector source
        src_b = m if m in base.bins else None
        if src_b is not None:
            d = base.diff_from(m)
            for (i, j), v in d.entries.items():
                ent[(_emb(tgt, "b") + i, _emb(m, "b") + j)] = v
            e = M.eps_from(m)
            for (i, j), v in e.entries.items():
                eent[(_emb(et, "b") + i, _emb(m, "b") + j)] = v
        # kappa sector source: kappa . v with v in base bin m - kdeg
        vsrc = Multidegree(m.cohdeg - kdeg.cohdeg, _wsub(m.weight, kdeg.weight), m.aux - kdeg.aux, m.upow - kdeg.upow)
        if vsrc in base.bins:
            opb = op.block(base, vsrc)
            for (i, j), v in opb.entries.items():
                ent[(_emb(tgt, "b") + i, _emb(m, "k") + j)] = v
            d = base.diff_from(vsrc)
            for (i, j), v in d.entries.items():
                ent[(_emb(tgt, "k") + i, _emb(m, "k") + j)] = -v
            e = M.eps_from(vsrc)
            for (i, j), v in e.entries.items():
                eent[(_emb(et, "k") + i, _emb(m, "k") + j)] = -v
        if ent:
            diffs[m] = SparseMatrix(len(bins.get(tgt, ())), len(ls), ent)
        if eent:
            eps[m] = SparseMatrix(len(bins.get(et, ())), len(ls), eent)
    win = base.window.combine(
        Window((min(kdeg.cohdeg, 0), max(kdeg.cohdeg, 0)),
               tuple((min(wk, 0), max(wk, 0)) for wk in kdeg.weight),
               (min(kdeg.aux, 0), max(kdeg.aux, 0)))
    )
    edge = set()
    for m in base.edge:
        edge.add(m)
        edge.add(m.add(kdeg))
    for m in op.truncated:
        # the dropped products live beyond the window; the kappa-sector bin
        # whose outgoing arrow was cut is m + kdeg
        edge.add(m.add(kdeg))
        edge.add(m.add(op.deg))
    gc = GradedComplex(bins, diffs, win, edge, aux_shift=base.aux_shift)
    return MixedComplex(gc, eps)


def _wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def homogeneous_completion_tower(M: MixedComplex, ops_for_level, N: int) -> Tower:
    """Koszul tower: level n adjoins kappa_j^(n) with d = g_j^n.

    `ops_for_level(n)` returns the list of multiplication-by-g_j^n
    BinOperators on the base complex.
    """
    levels = []
    for n in range(1, N + 1):
        lv = M
        for op in ops_for_level(n):
            lv = koszul_cone(lv, op)
        lv.base.check_complex()
        lv.check_mixed_laws()
        levels.append(lv)
    return Tower(levels)


# ---------------------------------------------------------------------------
# standard tower builders and fixtures
# ---------------------------------------------------------------------------

def cartan_augmentation_tower(cart_model: SemifreeModel, N: int, aux_max: int) -> Tower:
    """Weight-0 Cartan model completed along the Lie-coordinate augmentation."""
    r = cart_model.alg.rank
    inv = cart_model.instantiate(aux_max, weight_filter=(0,) * r)
    if r == 0:
        return Tower([inv] * N)  # trivial group: the completion ideal is zero
    alg = cart_model.alg

    def ops_for_level(n):
        return [
            multiplication_operator(alg, inv.base, alg.poly_gen(f"xi{l}", n))
            for l in range(r)
        ]

    return homogeneous_completion_tower(inv, ops_for_level, N)


def torsion_laurent_module(cap: int):
    """The module k[x, x^{-1}]/k[x] (x of weight -1): basis x^{-a}, a = 1..cap.

    Returns (module complex in degree 0, n -> multiplication-by-x^n operator).
    Weights <= 0 vanish in the quotient, so the operators are exact; only the
    upper weight frontier is a truncation.
    """
    bins = {
        Multidegree(0, (a,), 0, 0): [f"x^-{a}"] for a in range(1, cap + 1)
    }
    win = Window((-2, 2), ((-cap, cap),), (0, 0))
    gc = GradedComplex(bins, {}, win)
    M = MixedComplex(gc, {})

    def op(n):
        deg = Multidegree(0, (-n,), 0, 0)
        blocks = {}
        for a in range(1, cap + 1):
            if a - n >= 1:
                src = Multidegree(0, (a,), 0, 0)
                blocks[src] = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
        return BinOperator(deg, blocks)

    return M, op


def torsion_completion_tower(cap: int, N: int) -> Tower:
    """Derived (x)-adic completion tower of k[x,x^{-1}]/k[x]."""
    if N + 1 > cap:
        raise ValueError("cap too small for the requested depth")
    M, op = torsion_laurent_module(cap)
    levels = []
    for n in range(1, N + 1):
        lv = koszul_cone(M, op(n))
        # inflow into weights > cap - n comes from beyond the cap
        for m in list(lv.base.bins):
            if m.weight[0] > cap - n:
                lv.base.edge.add(m)
        lv.base.check_complex()
        levels.append(lv)
    return Tower(levels)


# ---------------------------------------------------------------------------
# Cech local cohomology
# ---------------------------------------------------------------------------

def cech_local_cohomology(
    model: SemifreeModel,
    invert: list[str],
    cap: int,
) -> GradedComplex:
    """G^bullet (x) M via formal inversion of monomial ideal generators.

    `invert` names model generators; each subset S of them contributes the
    instantiation with those generators made Laurent (capped at `cap`),
    placed in cohomological degree |S|, with alternating inclusion maps.
    Output bins are graded by weight alone (aux is zeroed): the inclusions
    do not preserve polynomial degree, only the weight.
    """
    from .algebra import Generator

    subsets = []
    for mask in range(1 << len(invert)):
        subsets.append(tuple(invert[i] for i in range(len(invert)) if mask >> i & 1))

    shift = model.laurent_shift_bound()
    for poly in model.d.images.values():
        for mono in poly.terms:
            for e, g in zip(mono, model.alg.gens):
                shift = max(shift, abs(e))

    terms = {}
    for S in subsets:
        gens = []
        for g in model.alg.gens:
            if g.name in S or g.laurent:
                gens.append(Generator(g.name, g.cohdeg, g.weight, 0, laurent=True))
            elif g.odd:
                gens.append(Generator(g.name, g.cohdeg, g.weight, 0, exp_range=(0, 1)))
            else:
                gens.append(Generator(g.name, g.cohdeg, g.weight, 0, exp_range=(0, cap)))
        alg = FreeAlgebra(gens, model.alg.rank)
        sub = SemifreeModel(
            alg,
            {n: _relabel(p, alg) for n, p in model.d.images.items()},
            laurent_names=tuple(g.name for g in gens if g.laurent),
        )
        mc = sub.instantiate(0, laurent_cap=cap)
        # cap shield for the truncated polynomial directions
        capped = [i for i, g in enumerate(gens) if g.exp_range == (0, cap)]
        for m, ls in mc.base.bins.items():
            if any(mono[i] > cap - shift for mono in ls for i in capped):
                mc.base.edge.add(m)
        terms[S] = mc

    bins = {}
    edge = set()
    offs = {}
    for S in subsets:
        t = terms[S]
        for m, ls in t.base.bins.items():
            tm = m.shift(cohdeg=len(S))
            cur = bins.setdefault(tm, [])
            offs[(S, m)] = len(cur)
            cur.extend((S, l) for l in ls)
        for m in t.base.edge:
            edge.add(m.shift(cohdeg=len(S)))

    diffs = {}
    for S in subsets:
        t = terms[S]
        for m, ls in t.base.bins.items():
            tm = m.shift(cohdeg=len(S))
            ent = diffs.setdefault(tm, {})
            tgt_md = tm.shift(cohdeg=1)
            # internal differential of the term
            d = t.base.diffs.get(m)
            if d is not None:
                im = t.base.d_target(m)
                sgn = -1 if len(S) % 2 else 1
                o_src = offs[(S, m)]
                o_tgt = offs.get((S, im))
                if o_tgt is not None:
                    for (i, j), v in d.entries.items():
                        ent[(o_tgt + i, o_src + j)] = ent.get((o_tgt + i, o_src + j), 0) + sgn * v
            # Cech inclusions into S + {j}
            for jname in invert:
                if jname in S:
                    continue
                S2 = tuple(x for x in invert if x in S or x == jname)
                sign = (-1) ** S2.index(jname)
                t2 = terms[S2]
                tpos = {lbl: i for i, lbl in enumerate(t2.base.labels(m))}
                o_src = offs[(S, m)]
                o2 = offs.get((S2, m))
                if o2 is None:
                    continue
                for j, lbl in enumerate(ls):
                    i = tpos.get(lbl)
                    if i is not None:
                        key = (o2 + i, o_src + j)
                        ent[key] = ent.get(key, 0) + sign

    out_diffs = {}
    for m, ent in diffs.items():
        ent = {k: v for k, v in ent.items() if not is_zero(_frac(v))}
        if not ent:
            continue
        tgt = m.shift(cohdeg=1)
        out_diffs[m] = SparseMatrix(len(bins.get(tgt, ())), len(bins[m]), {k: _frac(v) for k, v in ent.items()})

    full = terms[subsets[-1]]
    win = full.base.window
    win = Window((win.cohdeg[0], win.cohdeg[1] + len(invert)), win.weight, win.aux)
    return GradedComplex(bins, out_diffs, win, edge)


def _frac(v):
    return Fraction(v) if isinstance(v, int) else v


def _relabel(poly: Polynomial, alg: FreeAlgebra) -> Polynomial:
    return Polynomial(alg, dict(poly.terms))


# ---------------------------------------------------------------------------
# pro-graded comparison
# ---------------------------------------------------------------------------

def pro_graded_compare(t1: HilbertTable, t2: HilbertTable, weights) -> dict:
    """Per-weight table equality report over the given weight vectors."""
    report = {}
    for w in weights:
        w = tuple(w)
        sub1 = {m: v for m, v in t1.values.items() if m.weight == w}
        sub2 = {m: v for m, v in t2.values.items() if m.weight == w}
        keys = set(sub1) | set(sub2)
        mism = []
        comp = []
        for k in sorted(keys):
            if t1.known(k) and t2.known(k):
                comp.append(k)
                if t1.dim(k) != t2.dim(k):
                    mism.append((k, t1.dim(k), t2.dim(k)))
        report[w] = {"equal": not mism, "mismatches": mism, "compared": comp}
    return report


# ---------------------------------------------------------------------------
# stabilization (Tate commutes with the completion limit, levelwise)
# ---------------------------------------------------------------------------

def stable_keys_for_level(M: MixedComplex, gdeg: Multidegree, keys, n: int):
    """Keys unaffected by the level bump n -> n+1 of a Koszul tower.

    A bin is stable when the kappa sector of neither level can reach it or
    its cohdeg neighbors: the base complex certifies vanishing at the
    corresponding shifted bins.
    """
    out = []
    for key in keys:
        ok = True
        for dc in (-1, 0, 1):
            probe = Multidegree(key.cohdeg + dc, key.weight, key.aux, 0)
            for k in (n, n + 1):
                shifted = Multidegree(
                    probe.cohdeg + 1,
                    tuple(w - k * gw for w, gw in zip(probe.weight, gdeg.weight)),
                    probe.aux - k * gdeg.aux,
                    0,
                )
                if shifted.aux < 0:
                    continue
                if not M.certified_zero(shifted):
                    ok = False
        if ok:
            out.append(key)
    return out


def tate_stabilization_report(tower: Tower, base: MixedComplex, gdeg: Multidegree,
                              u_window: int):
    """Check level-n and level-(n+1) Tate tables agree on stable bins."""
    tabs = tower.tate_tables(u_window)
    failures = []
    for n in range(1, tower.depth):
        t_lo, t_hi = tabs[n - 1], tabs[n]
        keys = set(t_lo.values) | set(t_hi.values)
        base_keys = {Multidegree(k.cohdeg, k.weight, k.aux, 0) for k in keys}
        stable = set(stable_keys_for_level(base, gdeg, base_keys, n))
        for k in sorted(keys):
            if Multidegree(k.cohdeg, k.weight, k.aux, 0) not in stable:
                continue
            if not (t_lo.known(k) and t_hi.known(k)):
                continue
            if t_lo.dim(k) != t_hi.dim(k):
                failures.append((n, k, t_lo.dim(k), t_hi.dim(k)))
    return (not failures, failures)
