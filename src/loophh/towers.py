r"""Derived completion as level towers.

Two completion routes, chosen by the shape of the ideal:

* point ideals (w_j - z_j) in the Laurent group coordinates: the model is a
  free module over its Laurent coordinate ring, so tensoring with the Koszul
  complex on (w_j - z_j)^n is quasi-isomorphic to the coefficient reduction
  k[w^\pm] -> k[t]/(t^n), t = w - z, which has finite bins.  Only the top
  level N is instantiated; level n is its quotient by the labels with a
  t-exponent >= n.  Those labels span a dg-ideal (t is d- and eps-closed),
  so the quotient maps are chain maps by construction, and each level
  inherits d^2 = 0 and the mixed laws when the top level has them.

* homogeneous ideals (generators of positive aux or nonzero weight degree):
  literal Koszul adjunction at complex level, one odd generator kappa^(n)
  with d(kappa^(n)) = g^n per ideal generator.  Bins stay finite because the
  grading shifts.  Each level checks its laws when it is built.

A point tower also keeps, per level, where each label of its top level lands
(`Tower.placements`): a map built and checked on the top level restricts to
every lower level along them.  No check reads a map between levels.
"""

from __future__ import annotations

from .algebra import FreeAlgebra, Polynomial
from .complexes import GradedComplex, Relabelling
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex
from .models import LIE_COORD, SemifreeModel, TorusPoint
from .scalars import is_zero


class Tower:
    """Levels 1..N.  The basis labels of every level are exponent tuples over
    `gen_names`, when given.  `placements[n - 1]`, when given, is the
    `Relabelling` of the top level onto level n < N."""

    def __init__(self, levels, gen_names=None, placements=()):
        self.levels: list[MixedComplex] = list(levels)
        self.gen_names: list[str] | None = gen_names
        self.placements: list[Relabelling] = list(placements)

    def level(self, n: int) -> MixedComplex:
        return self.levels[n - 1]


# ---------------------------------------------------------------------------
# point-ideal route
# ---------------------------------------------------------------------------

def point_completion_tower(
    model: SemifreeModel,
    z: TorusPoint,
    N: int,
    aux_max: int,
    backend=None,
) -> Tower:
    """Levels k[t]/(t^n), n = 1..N, of the completion at z, from level N;
    each level is the weight-0 part.

    t has degree 0, so every level has the same bins and window; level n
    keeps, in each bin, the level-N labels with t-exponents < n, in order,
    and d and eps restricted to them.
    """
    top_model = model.at_torus_point_level(z, N, backend=backend)
    top_model.check_symbolic()
    depths = {}
    top = top_model.instantiate(aux_max, weight_filter=(0,) * z.rank, edge_depths=depths)
    d2_ok = not top.base.d_squared_faults()
    try:
        laws_ok = top.check_mixed_laws()
    except NotAComplex:
        laws_ok = False  # inherit a pass only: each level then checks itself
    tp = top_model.t_index
    placements = [
        Relabelling(top.base.bins, lambda m, lbl, n=n: m if tp is None or lbl[tp] < n else None)
        for n in range(1, N)
    ]
    levels = [
        _quotient_level(top, p, {m for m, v in depths.items() if v < n}, d2_ok, laws_ok)
        for n, p in enumerate(placements, 1)
    ]
    levels.append(top)
    return Tower(levels, [g.name for g in top_model.alg.gens], placements)


def _quotient_level(top: MixedComplex, placement: Relabelling, edge, d2_ok, laws_ok) -> MixedComplex:
    """`top` modulo the labels that `placement` drops, which span a dg-ideal.
    The quotient of a complex by a dg-ideal has d^2 = 0 and the mixed laws
    when `d2_ok` and `laws_ok` say the top level has them."""
    base = top.base
    gc = GradedComplex(placement.bins, placement.blocks(base.diffs, base.d_target), base.window,
                       edge, aux_shift=base.aux_shift, d2_faults=[] if d2_ok else None)
    return MixedComplex(gc, placement.blocks(top.eps, top.eps_target), laws_ok=laws_ok)


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
            prod = Polynomial(alg, {mono: 1}) * poly
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
    """Adjoin one odd Koszul generator kappa with d(kappa . v) = op(v) to a
    complex whose d vanishes.

    The mixed differential extends by eps(kappa . v) = -kappa . eps(v).
    Requires op to commute with eps (verified by the mixed-law check
    downstream).  The cone's d shifts no aux, whatever the base's did.
    """
    base = M.base
    if any(not d.is_zero_matrix() for d in base.diffs.values()):
        raise NotImplementedError("koszul cone over an aux-shifting differential")
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
        tgt = m.shift(cohdeg=1)
        ent = {}
        et = m.shift(cohdeg=-1)
        eent = {}
        # base sector source
        src_b = m if m in base.bins else None
        if src_b is not None:
            e = M.eps_from(m)
            for (i, j), v in e.entries.items():
                eent[(_emb(et, "b") + i, _emb(m, "b") + j)] = v
        # kappa sector source: kappa . v with v in base bin m - kdeg
        vsrc = Multidegree(m.cohdeg - kdeg.cohdeg, _wsub(m.weight, kdeg.weight), m.aux - kdeg.aux, m.upow - kdeg.upow)
        if vsrc in base.bins:
            opb = op.block(base, vsrc)
            for (i, j), v in opb.entries.items():
                ent[(_emb(tgt, "b") + i, _emb(m, "k") + j)] = v
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
    gc = GradedComplex(bins, diffs, win, edge)
    return MixedComplex(gc, eps)


def _wsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# standard tower builder
# ---------------------------------------------------------------------------

def cartan_augmentation_tower(cart_model: SemifreeModel, N: int, aux_max: int) -> Tower:
    """Weight-0 Cartan model completed along the Lie-coordinate augmentation.

    Koszul tower: level n adjoins kappa_l^(n) with d(kappa_l^(n)) = xi_l^n.
    """
    r = cart_model.alg.rank
    inv = cart_model.instantiate(aux_max, weight_filter=(0,) * r)
    if r == 0:
        return Tower([inv] * N)  # trivial group: the completion ideal is zero
    alg = cart_model.alg
    levels = []
    for n in range(1, N + 1):
        lv = inv
        for l in range(r):
            xi_n = alg.poly_gen(LIE_COORD.format(l), n)
            lv = koszul_cone(lv, multiplication_operator(alg, inv.base, xi_n))
        lv.base.check_complex()
        lv.check_mixed_laws()
        levels.append(lv)
    return Tower(levels)
