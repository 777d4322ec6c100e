"""Semifree dg-algebra models for weight-graded affine quotient presentations.

Builds the loop-space model with Laurent group coordinates
(d eps_i = (w^{lambda_i} - 1) x_i) and its base change to k[t]/(t^n) at a
torus point, and the Cartan / odd-tangent model (d dx_i = <lambda_i, xi> x_i
with mixed differential the de Rham operator), plus classical fixed loci and
the finite stabilizer-subgroup analysis for linear torus actions.

Conventions fixed here once:
  * right coaction c(x_i) = x_i (x) w^{lambda_i}; the loop differential is
    (w^{lambda_i} - 1) x_i.
  * the Lie coordinates xi_l carry weight 0 and one unit of aux, so the
    Cartan differential is homogeneous of aux-degree +1 (declared shift).
  * the de Rham mixed differential and the Cartan differential anticommute
    up to the weight (Euler) operator, hence exactly on weight-0 parts;
    models record this and the engine only uses Cartan mixed structures on
    invariant subcomplexes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .algebra import Derivation, FreeAlgebra, Generator, Polynomial, enumerate_monomials
from .grading import Multidegree, Window
from .linalg import SparseMatrix
from .scalars import CyclotomicField, coerce, exact_div


# ---------------------------------------------------------------------------
# torus data
# ---------------------------------------------------------------------------

class TorusData(namedtuple("TorusData", "rank")):
    __slots__ = ()

    def __new__(cls, rank):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        return super().__new__(cls, rank)


class TorusPoint(NamedTuple):
    """Point of G_m^r with coordinates q_j * exp(2 pi i theta_j), exact.

    Stored as pairs (q_j, theta_j) with q_j a nonzero rational and theta_j a
    rational mod 1.  Character evaluation happens in Q^x times Q/Z, so
    equality with 1 is decided exactly.
    """

    coords: tuple  # of (Fraction q, Fraction theta in [0,1))

    @staticmethod
    def make(values) -> "TorusPoint":
        out = []
        for v in values:
            if isinstance(v, tuple):
                q, theta = v
            else:
                q, theta = v, 0
            q = Fraction(q)
            if q == 0:
                raise ValueError("torus point coordinate must be nonzero")
            theta = Fraction(theta) % 1
            out.append((q, theta))
        return TorusPoint(tuple(out))

    @property
    def rank(self):
        return len(self.coords)

    def character_value(self, lam):
        """lambda(z) in the value group Q^x x (Q/Z)."""
        q = Fraction(1)
        theta = Fraction(0)
        for (qj, tj), lj in zip(self.coords, lam):
            q *= qj ** lj
            theta += lj * tj
        return q, theta % 1

    def character_is_one(self, lam) -> bool:
        q, theta = self.character_value(lam)
        return q == 1 and theta == 0

    def conductor(self) -> int:
        c = 1
        for _, theta in self.coords:
            if theta:
                c = c * theta.denominator // math.gcd(c, theta.denominator)
        return c

    def field(self):
        """The residue field of the point: None (the rationals) at conductor
        1, otherwise Q(zeta_m) for the conductor m."""
        m = self.conductor()
        return None if m == 1 else CyclotomicField(m)

    def coordinate_scalar(self, j):
        """z_j as a scalar of `field()`."""
        q, theta = self.coords[j]
        field = self.field()
        if theta == 0:
            return coerce(q, field)
        return field.zeta(int(theta * field.conductor)) * field.from_rational(q)


def identity_point(rank: int) -> TorusPoint:
    return TorusPoint.make([(Fraction(1), Fraction(0))] * rank)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

class AlgebraPresentation:
    """Weight-graded affine presentation: ambient generators plus relations."""

    def __init__(self, generators, relations=(), *, rank, asserted_smooth=False):
        gens = [Generator(n, 0, tuple(w), a) for (n, w, a) in generators]
        self.rank = rank
        for g in gens:
            if len(g.weight) != rank:
                raise ValueError(f"generator {g.name}: weight length != rank {rank}")
            if g.aux < 1:
                raise ValueError(f"generator {g.name}: ambient aux must be >= 1")
        self.asserted_smooth = asserted_smooth
        self.ambient = FreeAlgebra(gens, rank)
        self.generators = self.ambient.gens
        self.relations: list[Polynomial] = []
        for rel in relations:
            self.add_relation(rel)

    def add_relation(self, poly: Polynomial):
        if poly.alg is not self.ambient:
            poly = lift_poly(poly, self.ambient)
        if poly.is_zero():
            return
        if poly.homogeneous_degree() is None:
            raise ValueError(f"relation {poly!r} is not weight/aux homogeneous")
        self.relations.append(poly)

    def relation_support(self) -> set:
        names = set()
        for rel in self.relations:
            for m in rel.terms:
                for e, g in zip(m, self.ambient.gens):
                    if e:
                        names.add(g.name)
        return names

    def bare_relation_names(self) -> set:
        """Generators cut out by a bare linear relation c * x_i."""
        out = set()
        for rel in self.relations:
            if len(rel.terms) != 1:
                continue
            (m,) = rel.terms
            nz = [(i, e) for i, e in enumerate(m) if e]
            if len(nz) == 1 and nz[0][1] == 1:
                out.add(self.ambient.gens[nz[0][0]].name)
        return out


def lift_poly(poly: Polynomial, new_alg: FreeAlgebra) -> Polynomial:
    """Transplant a polynomial into a larger algebra, matching generator names."""
    src = poly.alg
    pos = []
    for g in src.gens:
        if g.name not in new_alg.index:
            pos.append(None)
        else:
            pos.append(new_alg.index[g.name])
    out = {}
    for m, c in poly.terms.items():
        exps = [0] * len(new_alg.gens)
        for e, p, g in zip(m, pos, src.gens):
            if not e:
                continue
            if p is None:
                raise ValueError(f"generator {g.name} missing in target algebra")
            exps[p] = e
        out[tuple(exps)] = c
    return Polynomial(new_alg, out)


def fixed_points(P: AlgebraPresentation, z: TorusPoint) -> AlgebraPresentation:
    """Presentation of the classical fixed locus pi_0(X^z).

    Adds the relation x_i for every generator whose weight character is
    nontrivial at z; existing relations are retained; the weight lattice is
    unchanged (for diagonalizable G the centralizer is G itself).
    """
    if z.rank != P.rank:
        raise ValueError("torus point rank mismatch")
    Q = AlgebraPresentation(
        [(g.name, g.weight, g.aux) for g in P.generators], P.relations,
        rank=P.rank, asserted_smooth=P.asserted_smooth,
    )
    existing_bare = Q.bare_relation_names()
    for g in P.generators:
        if not z.character_is_one(g.weight) and g.name not in existing_bare:
            Q.add_relation(Q.ambient.poly_gen(g.name))
    return Q


def reduce_linear_relations(P: AlgebraPresentation) -> AlgebraPresentation:
    """Quotient out bare linear relations: drop those generators entirely.

    Remaining relations are reduced modulo the killed generators.
    """
    killed = P.bare_relation_names()
    if not killed:
        return P
    keep = [(g.name, g.weight, g.aux) for g in P.generators if g.name not in killed]
    Q = AlgebraPresentation(keep, rank=P.rank, asserted_smooth=P.asserted_smooth)
    killed_idx = {P.ambient.index[n] for n in killed}
    for rel in P.relations:
        Q.add_relation(Polynomial(P.ambient, {
            m: c for m, c in rel.terms.items() if not any(m[i] for i in killed_idx)
        }))
    return Q


# ---------------------------------------------------------------------------
# semifree models
# ---------------------------------------------------------------------------

GROUP_COORD = "w:{}"
LIE_COORD = "xi:{}"
POINT_COORD = "t:{}"


class SemifreeModel:
    """Free graded-commutative dg algebra with differential on generators.

    `eps_images`, when present, is the mixed differential as a derivation,
    and `aux_shift_d` the aux degree of d.  The rest is read off the algebra:
    `laurent_names` are its Laurent generators (the group coordinates), and
    `t_index` is the position of the coordinate t:0 of a coefficient ring
    k[t]/(t^n) (see `at_torus_point_level`), or None.  When the algebra has
    the Lie coordinates xi:l (torus Cartan models), d and eps anticommute
    only up to the weight operator, and such mixed structures are used
    exclusively on weight-0 subcomplexes.
    """

    def __init__(self, alg: FreeAlgebra, d_images, eps_images=None, aux_shift_d=0):
        self.alg = alg
        self.d = Derivation(alg, d_images)
        self.eps = Derivation(alg, eps_images) if eps_images is not None else None
        self.aux_shift_d = aux_shift_d
        self.laurent_names = tuple(g.name for g in alg.gens if g.laurent)
        self.t_index = alg.index.get(POINT_COORD.format(0))
        for n in self.laurent_names:
            if n in self.d.images or (self.eps and n in self.eps.images):
                raise ValueError("laurent coordinates must be closed")

    # -- symbolic validation ---------------------------------------------------
    def check_symbolic(self):
        for label, D, cohshift, auxshift in (("d", self.d, 1, self.aux_shift_d),
                                             ("eps", self.eps, -1, 0)):
            if D is None:
                continue
            for name, img in D.images.items():
                g = self.alg.gens[self.alg.index[name]]
                deg = img.homogeneous_degree()
                if deg is None:
                    raise ValueError(f"{label}({name}) not homogeneous")
                want = Multidegree(g.cohdeg + cohshift, g.weight, g.aux + auxshift, 0)
                if deg != want:
                    raise ValueError(f"{label}({name}) has degree {deg}, expected {want}")
                if not D.apply(img).is_zero():
                    raise ValueError(f"{label}^2 != 0 on generator {name}")
        if self.eps is not None:
            self._check_anticommute()
        return True

    def _check_anticommute(self):
        lie = [LIE_COORD.format(l) for l in range(self.alg.rank)]
        euler = bool(lie) and all(n in self.alg.index for n in lie)
        # generator order, so the first failure named does not depend on set order
        for gen in self.alg.gens:
            name = gen.name
            if name not in self.d.images and name not in self.eps.images:
                continue
            g = self.alg.poly_gen(name)
            comm = self.d.apply(self.eps.apply(g)) + self.eps.apply(self.d.apply(g))
            if euler:
                # Euler identity: [d, eps] = <weight, xi> on each generator
                expected = self.alg.poly()
                for xi, wl in zip(lie, gen.weight):
                    if wl:
                        expected = expected + (self.alg.poly_gen(xi) * g).scaled(wl)
                if not (comm - expected).is_zero():
                    raise ValueError(f"[d,eps] != weight operator on {name}")
            else:
                if not comm.is_zero():
                    raise ValueError(f"d eps + eps d != 0 on generator {name}")

    # -- instantiation -----------------------------------------------------------
    def instantiate(self, aux_max, laurent_cap=None, weight_filter=None, edge_depths=None):
        """Enumerate bins and assemble differential/mixed matrices.  A column
        is its label's image, which passes through every even generator that
        the derivation kills (w, t, xi, and x under the loop d): see
        `Derivation.image_terms`.  Returns a MixedComplex (with zero eps
        when the model carries none).  For a model over k[t]/(t^N), a dict
        passed as `edge_depths` receives a depth per edge bin: the bin is
        edge at the quotient level k[t]/(t^n) exactly when its depth is < n.
        """
        from .mixed import MixedComplex

        bins = enumerate_monomials(
            self.alg, aux_max, laurent_cap=laurent_cap, weight_filter=weight_filter
        ).bins
        pos = {m: {lbl: i for i, lbl in enumerate(ls)} for m, ls in bins.items()}
        edge: set[Multidegree] = set()
        tp = self.t_index

        def assemble(deriv: Derivation, cohshift: int, auxshift: int):
            mats = {}
            for mdeg, labels in bins.items():
                tgt = mdeg.shift(cohdeg=cohshift, aux=auxshift)
                tgt_pos = pos.get(tgt, {})
                ent = {}
                touched = False
                depth = None
                for j, mono in enumerate(labels):
                    for tm, c in deriv.image_terms(mono).items():
                        ti = tgt_pos.get(tm)
                        if edge_depths is not None:
                            # Depth rule.  t is closed, so the terms of
                            # d(t^e x) are t^e times the terms t^k y of d(x),
                            # and every bin holds t^e x for each e < N.  A
                            # term t^T y of the image of t^e x has T >= e.
                            # - growth k = T - e > 0: at every level n > k
                            #   some label is sent past t^n, a term counted as
                            #   leaving the window (depth k).  In k[t]/(t^n) that
                            #   product is zero, so these edges are too many;
                            #   dropping them changes report bytes and waits
                            #   for the report v2 format.
                            # - a term missing from the window with k = 0 is
                            #   missing at every level that holds its
                            #   t-exponent T (depth T; 0 for a model without t).
                            e, T = (0, 0) if tp is None else (mono[tp], tm[tp])
                            if T > e or ti is None:
                                cand = T - e if T > e else T
                                depth = cand if depth is None else min(depth, cand)
                        if ti is None:
                            touched = True
                            continue
                        ent[(ti, j)] = c
                if touched:
                    edge.add(mdeg)
                    edge.add(tgt)
                if depth is not None:
                    for b in (mdeg, tgt):
                        edge_depths[b] = min(edge_depths.get(b, depth), depth)
                if ent:
                    mats[mdeg] = SparseMatrix(len(bins.get(tgt, ())), len(labels), ent)
            return mats

        diffs = assemble(self.d, 1, self.aux_shift_d)
        eps_mats = assemble(self.eps, -1, 0) if self.eps is not None else {}

        # Laurent cap shield: bins holding monomials near the cap may receive
        # maps from beyond the cap.  Laurent generators are d-closed, so the
        # exponent-shift pattern is translation invariant and the realized
        # shifts of the assembled matrices bound the unseen ones.
        if laurent_cap is not None:
            idxs = [self.alg.index[n] for n in self.laurent_names]
            s_real = 0
            for mats, cshift, ashift in (
                (diffs, 1, self.aux_shift_d),
                (eps_mats, -1, 0),
            ):
                for mdeg, mat in mats.items():
                    src = bins[mdeg]
                    tgt = bins.get(mdeg.shift(cohdeg=cshift, aux=ashift), [])
                    for k in idxs:
                        s_real = max(s_real, max((abs(tgt[i][k] - src[j][k])
                                                  for i, j in mat.entries), default=0))
            if s_real:
                for mdeg, labels in bins.items():
                    for mono in labels:
                        if any(abs(mono[i]) > laurent_cap - s_real for i in idxs):
                            edge.add(mdeg)
                            break

        window = self._window_for(bins, aux_max, weight_filter)
        from .complexes import GradedComplex

        gc = GradedComplex(bins, diffs, window, edge, aux_shift=self.aux_shift_d)
        return MixedComplex(gc, eps_mats)

    def _window_for(self, bins, aux_max, weight_filter):
        cohs = [m.cohdeg for m in bins]
        if weight_filter is not None:
            wr = tuple((w, w) for w in weight_filter)
        else:
            wr = tuple(
                (min(m.weight[k] for m in bins), max(m.weight[k] for m in bins))
                for k in range(self.alg.rank)
            )
        return Window((min(cohs) - 1, max(cohs) + 1), wr, (0, aux_max), (0, 0))

    # -- coefficient contexts -------------------------------------------------
    def at_torus_point_level(self, z: TorusPoint, n: int) -> "SemifreeModel":
        """Base change along k[w^+-] -> k[t]/(t^n), t = w - z, over the
        residue field `z.field()`.

        Valid because the model is a free module over its Laurent coordinate
        ring; this computes the same cohomology as tensoring with the Koszul
        complex on (w - z)^n, with finite bins.  Each w^e, e any integer,
        becomes the binomial series sum_{k<n} C(e, k) z^(e-k) t^k; t takes
        w's generator position, so the other exponents carry over.
        """
        if n < 1:
            raise ValueError("level must be >= 1")
        lnames = self.laurent_names
        if len(lnames) != z.rank:
            raise ValueError("torus point rank mismatch with group coordinates")
        new_alg = FreeAlgebra(
            [
                Generator(POINT_COORD.format(lnames.index(g.name)), 0, (0,) * self.alg.rank, 0,
                          exp_range=(0, n - 1))
                if g.name in lnames else g
                for g in self.alg.gens
            ],
            self.alg.rank,
        )
        tpos = [self.alg.index[nm] for nm in lnames]
        field = z.field()
        zvals = [z.coordinate_scalar(j) for j in range(z.rank)]

        def binomial_series(zj, e):
            # c_0 = z^e, c_k = c_{k-1} (e - k + 1) / (k z)
            c = coerce(1, field)
            for _ in range(abs(e)):
                c = c * zj
            if e < 0:
                c = exact_div(1, c)
            series = [c]
            for k in range(1, n):
                c = exact_div(c * (e - k + 1), k * zj)
                series.append(c)
            return series

        def subst(poly: Polynomial) -> Polynomial:
            out = {}
            for m, c in poly.terms.items():
                c = coerce(c, field)
                if not tpos:
                    out[m] = c
                    continue
                if len(tpos) > 1:
                    raise NotImplementedError("torus rank > 1 completion points")
                (tp,) = tpos
                for k, ck in enumerate(binomial_series(zvals[0], m[tp])):
                    mono = m[:tp] + (k,) + m[tp + 1:]
                    out[mono] = out.get(mono, 0) + c * ck
            return Polynomial(new_alg, out)

        d_images = {nm: subst(p) for nm, p in self.d.images.items()}
        eps_images = (
            {nm: subst(p) for nm, p in self.eps.images.items()}
            if self.eps is not None
            else None
        )
        return SemifreeModel(new_alg, d_images, eps_images, aux_shift_d=self.aux_shift_d)


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def loop_model(P: AlgebraPresentation, T: TorusData) -> SemifreeModel:
    """Model of functions on the derived loop space, before invariants.

    Generators: ambient x_i; loop variables eps_i (cohdeg -1, same
    weight/aux); Koszul eta_j for relations; Laurent group coordinates w_l.
    d(eps_i) = (w^{lambda_i} - 1) x_i and d(eta_j) = f_j.  Invariant
    functions are the weight-0 part.
    """
    if T.rank != P.rank:
        raise ValueError("torus rank mismatch")
    gens = list(P.generators)
    gens += [Generator(f"eps:{g.name}", -1, g.weight, g.aux) for g in P.generators]
    for j, rel in enumerate(P.relations):
        deg = rel.homogeneous_degree()
        gens.append(Generator(f"eta:{j}", -1, deg.weight, deg.aux))
    wnames = [GROUP_COORD.format(l) for l in range(T.rank)]
    gens += [Generator(n, 0, (0,) * P.rank, 0, laurent=True) for n in wnames]
    alg = FreeAlgebra(gens, P.rank)

    d_images = {}
    for g in P.generators:
        lam = g.weight
        wmono = [0] * len(alg.gens)
        for l, wl in enumerate(lam):
            wmono[alg.index[wnames[l]]] = wl
        coeff = Polynomial(alg, {tuple(wmono): 1}) - alg.poly_scalar(1)
        d_images[f"eps:{g.name}"] = coeff * alg.poly_gen(g.name)
    for j, rel in enumerate(P.relations):
        d_images[f"eta:{j}"] = lift_poly(rel, alg)

    model = SemifreeModel(alg, d_images)
    _attach_de_rham(model, P)
    return model


def _attach_de_rham(model: SemifreeModel, P: AlgebraPresentation):
    """Attach eps = de Rham, x -> eps_x, on every ambient generator x whose
    loop differential d(eps_x) vanishes and that appears in no relation.

    On that set eps anticommutes with d generator by generator: for x in it,
    d(eps x) = d(eps_x) = 0 and d x = 0; for y outside it, d(eps_y) = c y with
    c closed, and eps kills y; every generator of a relation f = d(eta) is
    outside it, so eps f = 0.
    """
    related = P.relation_support()
    model.eps = Derivation(model.alg, {
        name: model.alg.poly_gen(f"eps:{name}")
        for name in sorted(g.name for g in P.generators)
        if name not in related and f"eps:{name}" not in model.d.images
    })


def derived_fiber_model(P: AlgebraPresentation, T: TorusData, z: TorusPoint) -> SemifreeModel:
    """Loop model specialized at w = z (tower level 1): the derived z-fiber."""
    model = loop_model(P, T)
    fiber = model.at_torus_point_level(z, 1)
    # re-derive the de Rham support in the specialized context
    _attach_de_rham(fiber, P)
    return fiber


def _forms(P: AlgebraPresentation, who: str, lie=()):
    """Forms on a smooth presentation: (P, algebra, de Rham eps images).

    Bare linear relations are reduced first; any other relation is rejected
    (smoothness hypothesis).  The algebra holds the ambient x_i, the forms
    d:x_i in cohdeg -1 with the weight/aux of x_i, and the Lie coordinates
    named in `lie` in cohdeg 0, weight 0, aux 1; eps is x_i -> d:x_i.
    """
    P = reduce_linear_relations(P)
    if P.relations:
        raise ValueError(f"{who} requires a smooth (relation-free) presentation")
    gens = list(P.generators)
    gens += [Generator(f"d:{g.name}", -1, g.weight, g.aux) for g in P.generators]
    gens += [Generator(n, 0, (0,) * P.rank, 1) for n in lie]
    alg = FreeAlgebra(gens, P.rank)
    return P, alg, {g.name: alg.poly_gen(f"d:{g.name}") for g in P.generators}


def odd_tangent_model(P: AlgebraPresentation) -> SemifreeModel:
    """Forms on X placed in negative degrees (HKR), keeping the weight lattice.

    No group/Lie coordinates: d = 0 and the mixed differential is de Rham.
    This is the plain odd tangent bundle oracle for fixed loci and bar
    comparisons.
    """
    _, alg, eps_images = _forms(P, "odd_tangent_model")
    return SemifreeModel(alg, {}, eps_images)


def cartan_model(P: AlgebraPresentation, T: TorusData) -> SemifreeModel:
    """Cartan / odd-tangent model (Sym g^* (x) forms, Cartan differential).

    The forms of `_forms` plus Lie coordinates xi_l, with
    d(dx_i) = <lambda_i, xi> x_i.
    """
    if T.rank != P.rank:
        raise ValueError("torus rank mismatch")
    xnames = [LIE_COORD.format(l) for l in range(T.rank)]
    P, alg, eps_images = _forms(P, "cartan_model", xnames)
    d_images = {}
    for g in P.generators:
        acc = alg.poly()
        for l, wl in enumerate(g.weight):
            if wl:
                acc = acc + (alg.poly_gen(xnames[l]) * alg.poly_gen(g.name)).scaled(wl)
        if not acc.is_zero():
            d_images[f"d:{g.name}"] = acc
    return SemifreeModel(alg, d_images, eps_images, aux_shift_d=1 if T.rank else 0)


# ---------------------------------------------------------------------------
# stabilizer analysis
# ---------------------------------------------------------------------------

def _hermite_normal_form(rows, r):
    """Row-style Hermite normal form of an integer matrix (list of length-r
    rows): column by column, Euclid on the column, a positive pivot, and the
    rows above it reduced into [0, pivot)."""
    mat = [list(row) for row in rows if any(row)]
    out = []
    for col in range(r):
        live = [row for row in mat if row[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[col]))
            p = live[0]
            for row in live[1:]:
                q = row[col] // p[col]
                row[:] = [a - q * b for a, b in zip(row, p)]
            live = [p] + [row for row in live[1:] if row[col]]
        (p,) = live
        if p[col] < 0:
            p[:] = [-a for a in p]
        mat = [row for row in mat if row is not p and any(row)]
        for prev in out:
            q = prev[col] // p[col]
            prev[:] = [a - q * b for a, b in zip(prev, p)]
        out.append(p)
    return tuple(tuple(row) for row in out)


class SubgroupDescriptor(NamedTuple):
    """Solution set of character equations {w^lambda = 1 : lambda in lattice}.

    Canonicalized by the Hermite normal form of the character sublattice, so
    two subsets of weights cutting out the same subgroup compare equal.
    """

    rank: int
    equations: tuple  # HNF rows generating the character lattice

    def contains(self, z: TorusPoint) -> bool:
        return all(z.character_is_one(lam) for lam in self.equations)

    @property
    def dimension(self) -> int:
        return self.rank - len(self.equations)

    def describe(self) -> str:
        if not self.equations:
            return "full torus"
        if self.rank == 1:
            d = abs(self.equations[0][0])
            return "trivial" if d == 1 else f"mu_{d}"
        if len(self.equations) == self.rank and all(
            self.equations[i][i] == 1 and all(v == 0 for j, v in enumerate(self.equations[i]) if j > i)
            for i in range(self.rank)
        ):
            return "trivial"
        return f"dim {self.dimension} lattice {self.equations}"


def stabilizer_subgroups(T: TorusData, weights) -> list[SubgroupDescriptor]:
    """All subgroups arising as intersections of character kernels.

    These are cut out by the lattices that subsets of the weights generate
    (the possible pointwise stabilizers of the linear action).  The lattices
    are built one distinct weight at a time, each known lattice extended by
    it, so the work grows with the number of lattices, not of subsets.
    """
    lattices = {()}
    for w in dict.fromkeys(tuple(w) for w in weights):
        lattices |= {_hermite_normal_form([*hnf, w], T.rank) for hnf in lattices}
    return sorted((SubgroupDescriptor(T.rank, hnf) for hnf in lattices),
                  key=lambda s: (len(s.equations), s.equations))


def localization_open_set(T: TorusData, weights, z: TorusPoint):
    """U = T minus the stabilizer subgroups not containing z.

    Returns (deleted, kept): the deleted subgroup descriptors and the ones
    containing z.  For w in U, the fixed locus of w is contained in that of
    z at the level of the linear action.
    """
    subs = stabilizer_subgroups(T, weights)
    deleted = [s for s in subs if not s.contains(z)]
    kept = [s for s in subs if s.contains(z)]
    return deleted, kept


def point_in_open_set(w: TorusPoint, deleted) -> bool:
    return all(not s.contains(w) for s in deleted)


# ---------------------------------------------------------------------------
# group-exponent regrading
# ---------------------------------------------------------------------------

def regrade_by_group_exponent(mixed, model: SemifreeModel):
    """Re-key an invariant complex by the Laurent exponent vector.

    Applies when every assembled differential/mixed matrix connects
    monomials of equal group exponents (e.g. the weight-0 part of a loop
    model with no surviving couplings).  The exponent vector is stored in
    the weight slot, which is free after invariants.  Returns None, moving
    no label, when an entry joins labels of unequal group exponents.
    """
    from .complexes import GradedComplex, Relabelling
    from .mixed import MixedComplex

    gc = mixed.base
    idxs = [model.alg.index[n] for n in model.laurent_names]

    def move(m, lbl):
        return Multidegree(m.cohdeg, tuple(lbl[i] for i in idxs), m.aux, m.upow)

    for mats, target in ((gc.diffs, gc.d_target), (mixed.eps, mixed.eps_target)):
        for m, mat in mats.items():
            src, tgt = gc.labels(m), gc.labels(target(m))
            if any(src[j][k] != tgt[i][k] for i, j in mat.entries for k in idxs):
                return None
    regraded = Relabelling(gc.bins, move)
    edge = {move(m, lbl) for m in gc.edge for lbl in gc.labels(m)}
    # weight window: the realized exponent range per coordinate
    wr = [(min(e), max(e)) for e in zip(*(m.weight for m in regraded.bins))]
    win = gc.window
    new_win = Window(win.cohdeg, tuple(wr), win.aux, win.upow)
    out = GradedComplex(regraded.bins, regraded.blocks(gc.diffs, gc.d_target), new_win, edge,
                        aux_shift=gc.aux_shift)
    return MixedComplex(out, regraded.blocks(mixed.eps, mixed.eps_target))
