"""Windowed multigraded chain complexes over exact scalars.

A GradedComplex stores, per multidegree bin, an ordered basis of opaque
labels and the differential matrix into the cohdeg+1 bin.  The differential
preserves (weight, upow) and shifts aux by a fixed declared amount
(`aux_shift`, normally 0; the torus Cartan differential uses +1 because the
Lie coordinate carries one unit of aux).  Bins listed in `edge` may be
contaminated by out-of-window data and are excluded from all comparisons.
A `Relabelling` moves labels between bins and carries per-bin blocks along;
every derived complex (a tower level, a regrading, a truncation) and every
derived map is built through it.
"""

from __future__ import annotations

from .grading import Multidegree, Window
from .linalg import NotAComplex, SparseMatrix, rank
from .tables import HilbertTable


class GradedComplex:
    """`d2_faults`, when given, is the d^2 fault list known from how the
    complex was built; otherwise `d_squared_faults` computes it on first use."""

    def __init__(self, bins, diffs, window: Window, edge=None, aux_shift: int = 0,
                 d2_faults=None):
        self.bins: dict[Multidegree, list] = {m: list(ls) for m, ls in bins.items() if ls}
        self.diffs: dict[Multidegree, SparseMatrix] = dict(diffs)
        self.window = window
        self.edge: set[Multidegree] = set(edge) if edge else set()
        self.aux_shift = aux_shift
        self._ranks: dict[Multidegree, int] = {}  # source bin -> rank of its d
        self._d2_faults: list[Multidegree] | None = d2_faults

    # -- bin structure -------------------------------------------------------
    def dim(self, m: Multidegree) -> int:
        return len(self.bins.get(m, ()))

    def labels(self, m: Multidegree):
        return self.bins.get(m, [])

    def d_target(self, m: Multidegree) -> Multidegree:
        return m.shift(cohdeg=1, aux=self.aux_shift)

    def d_source(self, m: Multidegree) -> Multidegree:
        return m.shift(cohdeg=-1, aux=-self.aux_shift)

    def diff_from(self, m: Multidegree) -> SparseMatrix:
        d = self.diffs.get(m)
        if d is not None:
            return d
        return SparseMatrix.zero(self.dim(self.d_target(m)), self.dim(m))

    def all_bins(self):
        return sorted(self.bins.keys())

    # -- validation ------------------------------------------------------------
    def _edge_adjacent(self, m: Multidegree) -> bool:
        return (
            m in self.edge
            or self.d_source(m) in self.edge
            or self.d_target(m) in self.edge
        )

    def d_squared_faults(self) -> list[Multidegree]:
        """The sorted bins m with d(d(m)) != 0, computed once per complex."""
        if self._d2_faults is None:
            self._d2_faults = [
                m for m in self.all_bins()
                if not (self.diff_from(self.d_target(m)) @ self.diff_from(m)).is_zero_matrix()
            ]
        return self._d2_faults

    def check_complex(self):
        """d .. d = 0 on every non-edge bin (edge bins carry cap artifacts)."""
        for m in self.d_squared_faults():
            if not self._edge_adjacent(m):
                raise NotAComplex(m, "d^2 != 0")
        return True

    # -- cohomology --------------------------------------------------------------
    def _rank(self, m: Multidegree) -> int:
        """Rank of the differential out of bin m, computed once."""
        r = self._ranks.get(m)
        if r is None:
            d = self.diffs.get(m)
            r = self._ranks[m] = rank(d) if d is not None else 0
        return r

    def h_dim(self, m: Multidegree) -> int:
        """dim H at bin m: dim(m) - rank(d out of m) - rank(d into m)."""
        return self.dim(m) - self._rank(m) - self._rank(self.d_source(m))

    def cohomology(self, known_only=False) -> HilbertTable:
        """The table of H; edge-adjacent bins are edge.  With `known_only` they
        get no value: a rank only they need is not taken, and their d-blocks
        get just the backend scan `rank` would make.  A table that is only
        compared may be known-only: `compare` compares the bins both sides
        know and masks a bin only from the side that knows it, `known` reads
        `edge` and the window, `at_weight` filters bins and `forget_weight`
        marks every image of an edge bin edge, so no value on an edge bin
        reaches a report line.  Printing a table reads those values, and so
        does `shear_aux_into_upow`: a value widens its row's edge."""
        self.check_complex()
        vals = {}
        edge = set()
        for m in self.all_bins():
            if self._edge_adjacent(m):
                edge.add(m)
                if known_only:
                    self.diff_from(m).backend()
                    continue
                h = max(self.h_dim(m), 0)  # cap artifacts can make the formal count negative
            else:
                h = self.h_dim(m)
            if h:
                vals[m] = h
        # an edge bin with zero computed dimension is still unknown
        for m in self.edge:
            edge.add(m)
        return HilbertTable(vals, edge, self.window)

    def euler_consistent(self) -> bool:
        """Per (weight, aux, upow) column: alternating sums of C and H agree.

        Only meaningful for aux_shift == 0 (columns are d-stable) and finite
        enumerated columns.
        """
        if self.aux_shift != 0:
            return True
        cols: dict[tuple, list[Multidegree]] = {}
        for m in self.bins:
            cols.setdefault((m.weight, m.aux, m.upow), []).append(m)
        table = self.cohomology()
        for key, ms in cols.items():
            if any(m in self.edge for m in ms):
                continue
            chi_c = sum((-1 if m.cohdeg % 2 else 1) * self.dim(m) for m in ms)
            chi_h = sum((-1 if m.cohdeg % 2 else 1) * table.dim(m) for m in ms)
            if chi_c != chi_h:
                return False
        return True


class Relabelling:
    """Each label of `bins` moved to the bin `move(m, label)`, or dropped
    where that is None.  New bins fill in the order of the old bins and keep
    their labels' order."""

    def __init__(self, bins, move):
        self.bins: dict[Multidegree, list] = {}
        self.where: dict[Multidegree, list] = {}  # old bin -> (new bin, index) or None per label
        for m, labels in bins.items():
            row = self.where[m] = []
            for lbl in labels:
                new = move(m, lbl)
                if new is None:
                    row.append(None)
                else:
                    dest = self.bins.setdefault(new, [])
                    row.append((new, len(dest)))
                    dest.append(lbl)

    def blocks(self, mats, target, onto=None):
        """Blocks m -> target(m), keyed by source bin, re-indexed along this
        move on the source side and along `onto` (by default this move) on
        the target side.  An entry at a dropped label is dropped.  An entry
        that would land outside target(its new source bin) raises ValueError."""
        onto = onto or self
        ents, goal = {}, {}
        for m, mat in mats.items():
            if not mat.entries:
                continue
            src, tgt = self.where[m], onto.where[target(m)]
            for (i, j), v in mat.entries.items():
                s, t = src[j], tgt[i]
                if s is None or t is None:
                    continue
                sb = s[0]
                ent = ents.get(sb)
                if ent is None:
                    ent = ents[sb] = {}
                    goal[sb] = target(sb)
                if t[0] != goal[sb]:
                    raise ValueError(f"an entry of the block at {m} leaves the target of {sb}")
                ent[(t[1], s[1])] = v
        return {
            sb: SparseMatrix(len(onto.bins.get(goal[sb], ())), len(self.bins[sb]), ent)
            for sb, ent in ents.items()
        }


class ChainMap:
    """Degree-zero map of mixed complexes, given per bin of their bases."""

    def __init__(self, source, target, blocks):
        self.source = source  # MixedComplex
        self.target = target  # MixedComplex
        self.blocks: dict[Multidegree, SparseMatrix] = dict(blocks)

    def block(self, m: Multidegree) -> SparseMatrix:
        b = self.blocks.get(m)
        if b is not None:
            return b
        return SparseMatrix.zero(self.target.base.dim(m), self.source.base.dim(m))

    def verify_chain_map(self):
        """F d = d F and F eps = eps F on every bin."""
        src, tgt = self.source, self.target
        if src.base.aux_shift != tgt.base.aux_shift:
            raise NotAComplex("?", "aux shift mismatch between sides")
        for m in set(src.base.bins) | set(self.blocks):
            F = self.block(m)
            if self.block(src.base.d_target(m)) @ src.base.diff_from(m) != tgt.base.diff_from(m) @ F:
                raise NotAComplex(m, "comparison map is not a chain map")
            if self.block(src.eps_target(m)) @ src.eps_from(m) != tgt.eps_from(m) @ F:
                raise NotAComplex(m, "chain map does not commute with eps")
        return True

    def induced_iso_everywhere(self):
        """(ok, failures): the induced map on H(V, d) is an isomorphism on
        every bin edge on neither side.  H(V, d) is HN level 1, (V[u]/u,
        d + u eps): its columns are single bins, and an invariants level cuts
        no column, so this is `useries_induced_iso` there, on both sides'
        known-only HN level 1 tables, with each failing column (i, w, a)
        named by its bin.  A bin is edge on a side only if it holds a label
        there.  The map must be a chain map (`verify_chain_map`, or inherited
        from one checked where it was built)."""
        from .mixed import s1_invariants_level, useries_induced_iso

        us_src, us_tgt = s1_invariants_level(self.source, 1), s1_invariants_level(self.target, 1)
        ok, failures = useries_induced_iso(us_src, us_tgt, self, us_src.cohomology(known_only=True),
                                           us_tgt.cohomology(known_only=True))
        return ok, [(Multidegree(*key), hs, ht, r) for key, hs, ht, r in failures]
