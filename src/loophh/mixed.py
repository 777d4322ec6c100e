"""Mixed complexes and the S^1 constructions as windowed u-series complexes.

A mixed complex is a GradedComplex with a square-zero degree -1 operator eps
anticommuting with d (the sign is fixed so that d + u*eps squares to zero).
The u-series functors are built cell-by-cell: a cell (i, p) holds the
underlying bin in cohomological degree i tensored with u^p, |u| = 2; the
total differential sends (i, p) to (i+1, p) by d and to (i-1, p+1) by eps.
Flavors differ in the p-window and in which truncation boundaries are
genuine (quotient/sub structure of the true object) versus artifacts that
must be edge-flagged.

(d + u eps)^2 = d^2 + u (d eps + eps d) + u^2 eps^2, so once the bin laws
hold the total differential squares to zero on every p-window (d keeps p and
eps raises it, so a window is a subquotient).  A u-series complex checks them
when it is built, from the d^2 record of the underlying complex and the
mixed-law check, each computed once per complex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter

from .complexes import GradedComplex, Relabelling
from .grading import Multidegree
from .linalg import NotAComplex, SparseMatrix, column_leads, induced_rank
from .tables import HilbertTable

FLAVORS = ("invariants", "coinvariants", "tate")


class MixedComplex:
    def __init__(self, base: GradedComplex, eps=None, laws_ok=False):
        self.base = base
        self.eps: dict[Multidegree, SparseMatrix] = dict(eps) if eps else {}
        self._laws_ok = laws_ok  # set once check_mixed_laws passes, or inherited
        self._strips = None  # see strips()

    def eps_target(self, m: Multidegree) -> Multidegree:
        return m.shift(cohdeg=-1)

    def eps_from(self, m: Multidegree) -> SparseMatrix:
        e = self.eps.get(m)
        if e is not None:
            return e
        return SparseMatrix.zero(self.base.dim(self.eps_target(m)), self.base.dim(m))

    def cohomology(self, known_only=False) -> HilbertTable:
        return self.base.cohomology(known_only)

    # -- laws ---------------------------------------------------------------------
    def check_mixed_laws(self):
        """eps^2 = 0 and d.eps + eps.d = 0 on every bin.  A pass is
        remembered; a failure is not, so every later call raises again."""
        if self._laws_ok:
            return True
        gc = self.base
        for m in gc.all_bins():
            e1 = self.eps_from(m)
            e2 = self.eps_from(self.eps_target(m))
            if not (e2 @ e1).is_zero_matrix():
                raise NotAComplex(m, "eps^2 != 0")
            d_then_eps = self.eps_from(gc.d_target(m)) @ gc.diff_from(m)
            eps_then_d = gc.diff_from(self.eps_target(m)) @ self.eps_from(m)
            if not (d_then_eps + eps_then_d).is_zero_matrix():
                raise NotAComplex(m, "d eps + eps d != 0")
        self._laws_ok = True
        return True

    # Complexes truncated in cohdeg (simplicial depth) set a floor and may
    # supply a structural certifier for bins below it.
    cohdeg_floor = None
    zero_certifier = None

    def strips(self):
        """The u-series strip index, (weight, aux) -> `_Strip`: each strip with
        a bin or an edge degree, built on first u-series use (laws checked, any
        cohdeg floor declared)."""
        if self._strips is None:
            dims, edge = {}, {}
            for m, labels in self.base.bins.items():
                dims.setdefault((m.weight, m.aux), {})[m.cohdeg] = len(labels)
            for m in self.base.edge:
                edge.setdefault((m.weight, m.aux), set()).add(m.cohdeg)
            self._strips = {
                (w, a): _Strip(self, w, a, dims.get((w, a), {}), edge.get((w, a), frozenset()))
                for w, a in sorted(dims.keys() | edge.keys())
            }
        return self._strips

    # -- induced mixed map on cohomology ---------------------------------------
    def eps_induced_rank(self, m: Multidegree) -> int:
        """Rank of the map induced by eps on cohomology H(m) -> H(m - e1)."""
        gc = self.base
        return induced_rank(gc.diff_from(m), self.eps_from(m),
                            gc.diff_from(gc.d_source(self.eps_target(m))))


# ---------------------------------------------------------------------------
# u-series complexes
# ---------------------------------------------------------------------------

class USeriesComplex:
    """Windowed (V[[u]]-style, d + u*eps) complex of a declared flavor.

    Construction raises NotAComplex unless d^2 = 0 on every bin, edge or not,
    and the mixed laws hold.  A table walks the strips of the mixed complex
    (`_Strip.walk`), which yield the shape of each column.  What a shape
    determines (its reduction, its classes) is kept in records that every
    strip of equal content shares; the mixed complex keeps its strips.
    """

    def __init__(self, mixed: MixedComplex, flavor: str, p_range: tuple):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor}")
        if mixed.base.aux_shift and any(
            not d.is_zero_matrix() for d in mixed.base.diffs.values()
        ):
            raise NotImplementedError("u-series over aux-shifting differentials")
        faults = mixed.base.d_squared_faults()
        if faults:
            raise NotAComplex(faults[0], "d^2 != 0")
        mixed.check_mixed_laws()
        self.mixed = mixed
        self.flavor = flavor
        self.p_lo, self.p_hi = p_range

    # -- cells ---------------------------------------------------------------
    def columns(self):
        """Total columns keyed (tau, weight, aux), sorted, each ->
        (strip, prv, src, nxt) as `_Strip.walk` yields them."""
        return dict(sorted(  # keys are unique, so no two strips are compared
            ((tau, w, a), (strip, *shapes)) for (w, a), strip in self.mixed.strips().items()
            for tau, *shapes in strip.walk(self.p_lo, self.p_hi)))

    # -- edge / validity ----------------------------------------------------------
    def _column_is_edge(self, strip, tau, src) -> bool:
        """Column tau of the strip, of shape src, holds an edge cell or meets
        an artifact of the p-window (`_cut`)."""
        edge = strip.edge
        return bool(edge) and not edge.isdisjoint(strip.cells(src)) or self._cut(strip, tau)

    def _cut(self, strip, tau) -> bool:
        """Column tau of the strip meets an artifact of the p-window.  d keeps
        p and eps raises it, so the only couplings across the window are the
        eps-arrow into the bottom cell (from cell p_lo - 1 of column tau - 1)
        and the dropped one out of the top cell (to cell p_hi + 1 of column
        tau + 1); each is harmless iff its bin is certified zero.  Invariants
        levels are honest quotients, coinvariants genuinely end at p = 0."""
        if self.flavor == "invariants":
            return False
        mixed, lo, hi = self.mixed, self.p_lo, self.p_hi
        if not strip.certified_zero(tau + 1 - 2 * lo, mixed):
            return True
        return self.flavor == "tate" and not strip.certified_zero(tau - 2 * hi - 1, mixed)

    # -- cohomology ------------------------------------------------------------
    def cohomology(self, known_only=False) -> HilbertTable:
        """Table keyed (i, w, a, p); homology classes are attributed to the
        cell of their echelon pivot (canonical in all split cases).  With
        `known_only` (see `GradedComplex.cohomology`) an edge column gets no
        value, which `useries_induced_iso` relies on, and a strip of edge
        bins walks no column (its cell (i, p) makes column i + 2p edge);
        `_content_key` scanned its blocks' backend."""
        vals, edge = {}, set()
        lo, hi = self.p_lo, self.p_hi
        for (w, a), strip in self.mixed.strips().items():
            if known_only and strip.edge.issuperset(strip.dims):
                edge.update(Multidegree(i, w, a, p) for i in strip.dims for p in range(lo, hi + 1))
                continue
            for tau, prv, src, nxt in strip.walk(lo, hi):
                if self._column_is_edge(strip, tau, src):
                    edge.update(Multidegree(i, w, a, (tau - i) // 2) for i in strip.cells(src))
                    if known_only:
                        continue
                counts = strip.classes.get((prv, src, nxt))
                if counts is None:
                    counts = strip.classes_of(prv, src, nxt)
                for i, n in counts:
                    vals[Multidegree(i, w, a, (tau - i) // 2)] = n
        return HilbertTable(vals, edge, self.mixed.base.window.with_upow(lo, hi))

    # -- u multiplication ----------------------------------------------------------
    def u_map_bijective(self):
        """Check u . (-) : H^tau -> H^{tau+2} bijective on non-edge columns.

        Returns (ok, failures); failures name (tau, weight, aux) columns.
        """
        failures = []
        cols = self.columns()
        for (tau, w, a), (strip, prv, src, nxt) in cols.items():
            # u sends cell i of column tau (p -> p+1) to cell i of column tau + 2;
            # usable only if the image column retains every shifted cell.
            if (tau + 2, w, a) not in cols:
                continue
            _, tprv, tsrc, tnxt = cols[(tau + 2, w, a)]
            if self._column_is_edge(strip, tau, src) or self._column_is_edge(strip, tau + 2, tsrc):
                continue
            offset, total = strip.offsets(src)
            toffset, ttotal = strip.offsets(tsrc)
            if any(i not in toffset for i in offset):
                continue
            hs, ht = strip.h_dim(prv, src, nxt), strip.h_dim(tprv, tsrc, tnxt)
            # u embeds each cell's basis into the same cell of column tau + 2
            shift = SparseMatrix(ttotal, total, {
                (toffset[i] + k, offset[i] + k): 1 for i in offset for k in range(strip.dims[i])})
            r = induced_rank(strip.matrix(src, nxt), shift, strip.matrix(tprv, tsrc))
            if not (hs == ht == r):
                failures.append(((tau, w, a), hs, ht, r))
        return (not failures, failures)  # in the columns' order, so sorted


class _Strip:
    """The bins of one (weight, aux) strip of a mixed complex, as u-series
    columns read them.  Column (tau, w, a) over the p-window [p_lo, p_hi]
    holds the cells (i, (tau - i)/2) for the degrees i = tau mod 2 with
    tau - 2 p_hi <= i <= tau - 2 p_lo, in descending i: a slice of one
    parity's degrees, its shape (parity, lo, hi), or None if empty.  From
    cell i, d is placed exactly when i + 1 is a cell of column tau + 1, and
    eps exactly when i - 1 is.  So a column's matrix depends only on the
    shapes (src, nxt) of columns tau and tau + 1, and its classes only on
    (prv, src, nxt).  A pair's record is the lead sets of its matrix's kernel
    and image; a triple's is its class counts.  Those records depend only on
    the strip's content: its dimensions and its d- and eps-blocks by degree.
    So all strips of equal content share one `columns` dict (per pair) and
    one `classes` dict (per triple), taken from `_STRIP_MEMO`."""

    __slots__ = ("w", "a", "degrees", "dims", "d", "eps", "edge", "inside", "columns", "classes")

    def __init__(self, mixed, w, a, dims, edge):
        base, win = mixed.base, mixed.base.window
        self.w, self.a, self.dims, self.edge = w, a, dims, edge
        self.degrees = tuple(tuple(sorted(i for i in dims if i & 1 == par)) for par in (0, 1))
        # each bin's d- and eps-block by degree; an aux-shifting d leaves the strip
        self.d, self.eps = {}, {}
        d_blocks = {} if base.aux_shift else base.diffs
        for blocks, source in ((self.d, d_blocks), (self.eps, mixed.eps)):
            for i in dims:
                block = source.get(Multidegree(i, w, a))
                if block is not None:
                    blocks[i] = block
        self.inside = len(w) == len(win.weight) and win.aux[0] <= a <= win.aux[1] and all(
            lo <= x <= hi for x, (lo, hi) in zip(w, win.weight))
        content = (tuple(sorted(dims.items())), *(
            tuple((i, _content_key(block)) for i, block in sorted(blocks.items()))
            for blocks in (self.d, self.eps)))
        # (src, nxt) -> column leads, and (prv, src, nxt) -> classes_of
        self.columns, self.classes = _STRIP_MEMO.setdefault(content, ({}, {}))

    def shape(self, tau, p_lo, p_hi):
        par = tau & 1
        lo = bisect_left(self.degrees[par], tau - 2 * p_hi)
        hi = bisect_right(self.degrees[par], tau - 2 * p_lo)
        return (par, lo, hi) if lo < hi else None

    def walk(self, p_lo, p_hi):
        """(tau, prv, src, nxt) of each nonempty column over the p-window
        [p_lo, p_hi], in tau order: the shapes of columns tau - 1, tau and
        tau + 1, each computed once as the walk slides along tau."""
        if not self.dims:
            return
        first = min(self.dims) + 2 * p_lo
        prv, src = None, self.shape(first, p_lo, p_hi)
        for tau in range(first, max(self.dims) + 2 * p_hi + 1):
            nxt = self.shape(tau + 1, p_lo, p_hi)
            if src is not None:
                yield tau, prv, src, nxt
            prv, src = src, nxt

    def cells(self, shape):
        """The degrees of a shape's cells, descending."""
        if shape is None:
            return ()
        par, lo, hi = shape
        return self.degrees[par][lo:hi][::-1]

    def offsets(self, shape):
        """({degree: offset} of a shape's cells, total dimension)."""
        offset, total = {}, 0
        for i in self.cells(shape):
            offset[i] = total
            total += self.dims[i]
        return offset, total

    def certified_zero(self, i, mixed) -> bool:
        """The bin (i, w, a) of `mixed` is known to vanish: empty, not edge,
        inside the window, and above any declared cohdeg floor or vouched for
        by the complex's certifier below it."""
        if i in self.dims or i in self.edge or not self.inside:
            return False
        certify = mixed.zero_certifier
        if mixed.cohdeg_floor is not None and i < mixed.cohdeg_floor:
            return bool(certify and certify(Multidegree(i, self.w, self.a)))
        return True

    def matrix(self, src, nxt) -> SparseMatrix:
        """The total differential out of shape src into shape nxt: from cell
        i, d to cell i + 1 and eps to cell i - 1, where that cell exists."""
        offset, total = self.offsets(src)
        target, ttotal = self.offsets(nxt)
        return SparseMatrix(ttotal, total, {
            (target[j] + r, col + c): v for i, col in offset.items()
            for block, j in ((self.d.get(i), i + 1), (self.eps.get(i), i - 1))
            if block is not None and j in target for (r, c), v in block.entries.items()})

    def column(self, src, nxt):
        """The shared (kernel leads, image leads) of `matrix(src, nxt)`, as
        `column_leads` gives them: a miss reduces the matrix, a hit builds
        nothing."""
        record = self.columns.get((src, nxt))
        if record is None:
            record = self.columns[(src, nxt)] = column_leads(self.matrix(src, nxt))
        return record

    def h_dim(self, prv, src, nxt) -> int:
        return sum(n for _, n in self.classes_of(prv, src, nxt))

    def classes_of(self, prv, src, nxt):
        """((degree, class count), ...) of shape src in descending degree; a
        class is a lead of ker D not among im Dprev's."""
        record = self.classes.get((prv, src, nxt))
        if record is None:
            image = self.column(prv, src)[1]
            owner = [i for i in self.cells(src) for _ in range(self.dims[i])]
            counts = {}
            for f in self.column(src, nxt)[0]:
                if f not in image:
                    counts[owner[f]] = counts.get(owner[f], 0) + 1
            record = self.classes[(prv, src, nxt)] = tuple(counts.items())
        return record


# strip content -> the (columns, classes) dicts that every strip of that
# content shares.  `cli.run_verb` clears it, so one CLI call is one memo
# lifetime.  In it, each shape pair of a strip content is reduced once.  No
# column matrix is kept.
_STRIP_MEMO: dict[tuple, tuple] = {}


def clear_column_memo():
    _STRIP_MEMO.clear()


def _content_key(M: SparseMatrix) -> tuple:
    """Backend, shape and entries sorted by (i, j): equal keys, equal matrices."""
    field = M.backend()
    backend = ("Q",) if field is None else (type(field).__name__, field.conductor)
    # positions are unique, so sorting never compares two scalars
    return (backend, M.nrows, M.ncols, tuple(sorted(M.entries.items())))


# ---------------------------------------------------------------------------
# the S^1 functors
# ---------------------------------------------------------------------------

def s1_invariants_level(V: MixedComplex, n: int) -> USeriesComplex:
    """Level n of the filtered limit for invariants: (V[u]/u^n, d + u eps)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return USeriesComplex(V, "invariants", (0, n - 1))


def coinvariants(V: MixedComplex, u_window: int) -> USeriesComplex:
    return USeriesComplex(V, "coinvariants", (-u_window, 0))


def tate(V: MixedComplex, u_window: int) -> USeriesComplex:
    return USeriesComplex(V, "tate", (-u_window, u_window))


def useries_induced_iso(us_src: USeriesComplex, us_tgt: USeriesComplex, F,
                        t_src: HilbertTable, t_tgt: HilbertTable):
    """The u-linear extension of a chain map induces isomorphisms columnwise.

    t_src and t_tgt are the known-only tables of us_src and us_tgt that the
    caller compared (a table of another window raises ValueError), so a
    column's class count is the sum of its cells' values, and 0 when it is
    edge.  Both complexes checked their laws when built, and F is a
    `ChainMap` that commutes with d and eps (`ChainMap.verify_chain_map`):
    Fcol commutes with d + u eps, its rank on a column's H is at most
    min(hs, ht), and a column with no class on either side passes.  Where
    one side has none, its column (empty if it lacks the strip) must be
    edge.  Where both have one, the rank is one `induced_rank` of the source
    column's matrix, Fcol and the target's previous column matrix, once per
    (w, a, shapes).  Returns (ok, failures); HH's check is the HN level 1 case.
    """
    if (us_src.flavor, us_src.p_lo, us_src.p_hi) != (us_tgt.flavor, us_tgt.p_lo, us_tgt.p_hi):
        raise ValueError("flavor/window mismatch")
    classes = []  # per side: (tau, w, a) -> class count
    for us, table in ((us_src, t_src), (us_tgt, t_tgt)):
        if table.window != us.mixed.base.window.with_upow(us.p_lo, us.p_hi):
            raise ValueError("a table of another window")
        classes.append(Counter())
        for m, n in table.values.items():
            classes[-1][m.cohdeg + 2 * m.upow, m.weight, m.aux] += n
    failures, ranks = [], {}  # ranks: (w, a, source shapes, target shapes) -> rank
    lo, hi = us_src.p_lo, us_src.p_hi
    s_strips, t_strips = us_src.mixed.strips(), us_tgt.mixed.strips()
    for key in classes[0].keys() | classes[1].keys():
        (tau, w, a), hs, ht = key, classes[0][key], classes[1][key]
        s_strip, t_strip = s_strips.get((w, a)), t_strips.get((w, a))
        if not (hs and ht):
            us, strip = (us_src, s_strip) if not hs else (us_tgt, t_strip)
            strip = strip or _Strip(us.mixed, w, a, {}, frozenset())
            if not us._column_is_edge(strip, tau, strip.shape(tau, lo, hi)):
                failures.append((key, hs, ht, 0))
            continue
        shapes = (w, a, *(strip.shape(x, lo, hi) for strip in (s_strip, t_strip)
                          for x in (tau - 1, tau, tau + 1)))
        r = ranks.get(shapes)
        if r is None:
            # F's blocks are per bin, so equal shapes give equal Fcol
            _, s_own, s_nxt, t_prv, t_own, _ = shapes[2:]
            (s_off, s_total), (t_off, t_total) = s_strip.offsets(s_own), t_strip.offsets(t_own)
            Fcol = SparseMatrix(t_total, s_total, {
                (t_off[i] + row, col + c): v for i, col in s_off.items() if i in t_off
                for (row, c), v in F.block(Multidegree(i, w, a)).entries.items()})
            r = ranks[shapes] = induced_rank(s_strip.matrix(s_own, s_nxt), Fcol,
                                             t_strip.matrix(t_prv, t_own))
        if not (hs == ht == r):
            failures.append((key, hs, ht, r))
    failures.sort()
    return (not failures, failures)


# ---------------------------------------------------------------------------
# built-in additive-group presets (for the unipotent-vs-formal check)
# ---------------------------------------------------------------------------

def bga_polynomial_preset(aux_max: int) -> MixedComplex:
    """k[x, eta] with eps = eta d/dx: functions on the unipotent loops of the
    classifying stack of the additive group.  x has weight -1 (the
    contracting scaling action), eta sits in cohdeg -1 with weight -1."""
    from .algebra import FreeAlgebra, Generator
    from .models import SemifreeModel

    alg = FreeAlgebra(
        [
            Generator("x", 0, (-1,), 1),
            Generator("eta", -1, (-1,), 1),
        ],
        1,
    )
    model = SemifreeModel(alg, {}, eps_images={"x": alg.poly_gen("eta")})
    model.check_symbolic()
    return model.instantiate(aux_max)


def bga_completed_preset(aux_max: int, truncation: int) -> MixedComplex:
    """The x-adically completed preset, represented by truncation at x^D.

    Bins with aux >= truncation are edge: they are artifacts of representing
    the power series ring by a finite quotient.
    """
    if truncation > aux_max:
        raise ValueError("truncation must lie inside the aux window")
    full = bga_polynomial_preset(aux_max)
    kept = Relabelling(full.base.bins, lambda m, lbl: m if m.aux < truncation else None)
    # everything at or beyond the truncation frontier is unrepresented
    edge = {m for m in full.base.bins if m.aux >= truncation - 1}
    gc = GradedComplex(kept.bins, kept.blocks(full.base.diffs, full.base.d_target),
                       full.base.window, edge)
    return MixedComplex(gc, kept.blocks(full.eps, full.eps_target))
