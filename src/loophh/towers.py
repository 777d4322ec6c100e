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

* the augmentation ideal (xi) of a rank-1 Cartan model: level n is one
  Koszul cone, an odd kappa with d(kappa) = xi^n, adjoined to the weight-0
  part, whose d vanishes.  Bins stay finite because the grading shifts.
  The laws are checked once on that part, and every level inherits them by
  the argument in `koszul_cone`.  Rank 0 has a zero ideal; rank > 1 raises.

A point tower also keeps, per level, where each label of its top level lands
(`Tower.placements`): a map built and checked on the top level restricts to
every lower level along them.  No check reads a map between levels.
"""

from __future__ import annotations

from .complexes import GradedComplex, Relabelling
from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix
from .mixed import MixedComplex
from .models import LIE_COORD, SemifreeModel, TorusPoint


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
# augmentation-ideal (Koszul cone) route
# ---------------------------------------------------------------------------

def koszul_cone(M: MixedComplex, deg: Multidegree, image) -> MixedComplex:
    """Adjoin one odd kappa with d(kappa . v) = g . v to a complex M whose d
    vanishes, for an even g of degree `deg` that commutes with eps.
    `image(label)` is the label of g . label, or None where that product is
    zero.  A product label missing from its target bin left the window; both
    ends of that arrow are edge.

    Each bin lists its base labels ("b", l), then its kappa labels ("k", l).
    eps extends by eps(kappa . v) = -kappa . eps(v).  The cone inherits its
    laws, checked on M once (memoized there):
    * d^2 = 0: d lands in the base sector, where d vanishes;
    * eps^2 = 0 and d eps + eps d = 0 on kappa . v: the terms are
      -kappa . eps^2(v) and -g . eps(v) + eps(g . v), and g . eps(v) =
      eps(g . v) holds in the window too when eps preserves aux, as the
      models' eps does: g . eps(v) leaves the window exactly when g . v does.
    """
    base = M.base
    if any(not d.is_zero_matrix() for d in base.diffs.values()):
        raise NotImplementedError("koszul cone over an aux-shifting differential")
    M.check_mixed_laws()
    kdeg = deg.shift(cohdeg=-1)
    bins = {m: [("b", l) for l in ls] for m, ls in sorted(base.bins.items())}
    under = {m.add(kdeg): m for m in sorted(base.bins)}  # kappa-sector bin -> base bin of v
    for k, v in under.items():
        bins.setdefault(k, []).extend(("k", l) for l in base.bins[v])
    edge = base.edge | {m.add(kdeg) for m in base.edge}
    diffs, eps = {}, {}
    for m, ls in bins.items():
        et = m.shift(cohdeg=-1)
        eent = dict(M.eps_from(m).entries) if m in base.bins else {}
        ent = {}
        v = under.get(m)
        if v is not None:
            k0, tgt = base.dim(m), v.add(deg)  # kappa labels follow the base labels
            tpos = {l: i for i, l in enumerate(base.labels(tgt))}
            for j, l in enumerate(base.bins[v]):
                g = image(l)
                if g is None:
                    continue
                i = tpos.get(g)
                if i is None:
                    edge |= {m, tgt}
                else:
                    ent[(i, k0 + j)] = 1
            ke = base.dim(et)
            for (i, j), c in M.eps_from(v).entries.items():
                eent[(ke + i, k0 + j)] = -c
        if ent:
            diffs[m] = SparseMatrix(len(bins.get(m.shift(cohdeg=1), ())), len(ls), ent)
        if eent:
            eps[m] = SparseMatrix(len(bins.get(et, ())), len(ls), eent)
    win = base.window.combine(
        Window((min(kdeg.cohdeg, 0), max(kdeg.cohdeg, 0)),
               tuple((min(wk, 0), max(wk, 0)) for wk in kdeg.weight),
               (min(kdeg.aux, 0), max(kdeg.aux, 0)))
    )
    return MixedComplex(GradedComplex(bins, diffs, win, edge, d2_faults=[]), eps, laws_ok=True)


def cartan_augmentation_tower(cart_model: SemifreeModel, N: int, aux_max: int) -> Tower:
    """Weight-0 Cartan model completed along the Lie-coordinate augmentation:
    level n is the Koszul cone on xi^n, the xi-exponent shift l[x] += n.  xi
    is even and eps-closed, so each product has coefficient 1 and commutes
    with eps.  Rank <= 1."""
    alg = cart_model.alg
    if alg.rank > 1:
        raise NotImplementedError("torus rank > 1 completion points")
    inv = cart_model.instantiate(aux_max, weight_filter=(0,) * alg.rank)
    if alg.rank == 0:
        return Tower([inv] * N)  # trivial group: the completion ideal is zero
    xi = LIE_COORD.format(0)
    x = alg.index[xi]
    return Tower([
        koszul_cone(inv, alg.monomial_degree(alg.gen_monomial(xi, n)),
                    lambda l, n=n: l[:x] + (l[x] + n,) + l[x + 1:])
        for n in range(1, N + 1)
    ])
