"""Windowed multigraded chain complexes over exact scalars.

A GradedComplex stores, per multidegree bin, an ordered basis of opaque
labels and the differential matrix into the cohdeg+1 bin.  The differential
preserves (weight, upow) and shifts aux by a fixed declared amount
(`aux_shift`, normally 0; the torus Cartan differential uses +1 because the
Lie coordinate carries one unit of aux).  Bins listed in `edge` may be
contaminated by out-of-window data and are excluded from all comparisons.
"""

from __future__ import annotations

from .grading import Multidegree, Window
from .linalg import (
    NotAComplex,
    SparseMatrix,
    apply_matrix,
    image_basis,
    kernel_basis,
    quotient_rank,
    rank,
)
from .tables import HilbertTable


class GradedComplex:
    def __init__(self, bins, diffs, window: Window, edge=None, aux_shift: int = 0):
        self.bins: dict[Multidegree, list] = {m: list(ls) for m, ls in bins.items() if ls}
        self.diffs: dict[Multidegree, SparseMatrix] = dict(diffs)
        self.window = window
        self.edge: set[Multidegree] = set(edge) if edge else set()
        self.aux_shift = aux_shift
        self._ranks: dict[Multidegree, int] = {}  # source bin -> rank of its d
        self._bases: dict[Multidegree, tuple] = {}
        self._d2_faults: list[Multidegree] | None = None

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

    def cohomology_data(self, m: Multidegree):
        """(kernel basis of d_out, image basis of d_in) at bin m, for the
        induced-map checks; dimensions come from `h_dim`."""
        data = self._bases.get(m)
        if data is None:
            d_in = self.diff_from(self.d_source(m))
            ker = kernel_basis(self.diff_from(m))
            im = image_basis(d_in) if not d_in.is_zero_matrix() else []
            data = self._bases[m] = (ker, im)
        return data

    def cohomology(self) -> HilbertTable:
        self.check_complex()
        vals = {}
        edge = set()
        for m in self.all_bins():
            h = self.h_dim(m)
            if self._edge_adjacent(m):
                edge.add(m)
                h = max(h, 0)  # cap artifacts can make the formal count negative
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
            chi_c = sum((-1) ** m.cohdeg * self.dim(m) for m in ms)
            chi_h = sum((-1) ** m.cohdeg * table.dim(m) for m in ms)
            if chi_c != chi_h:
                return False
        return True

    # -- constructions -------------------------------------------------------------
    def tensor(self, other: "GradedComplex") -> "GradedComplex":
        """Graded tensor product with Koszul signs.

        d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy.  Requires both factors to
        have aux_shift 0.
        """
        if self.aux_shift or other.aux_shift:
            raise ValueError("tensor requires aux_shift 0 factors")
        bins: dict[Multidegree, list] = {}
        index: dict[Multidegree, dict] = {}
        for m1, l1 in self.bins.items():
            for m2, l2 in other.bins.items():
                m = m1.add(m2)
                tgt = bins.setdefault(m, [])
                idx = index.setdefault(m, {})
                for a in l1:
                    for b in l2:
                        idx[(m1, a, m2, b)] = len(tgt)
                        tgt.append((a, b))
        diffs: dict[Multidegree, dict] = {}

        def _pos(m1, a, m2, b):
            m = m1.add(m2)
            return m, index[m].get((m1, a, m2, b))

        for m1, l1 in self.bins.items():
            d1 = self.diffs.get(m1)
            t1 = self.d_target(m1)
            for m2, l2 in other.bins.items():
                d2 = other.diffs.get(m2)
                t2 = other.d_target(m2)
                m = m1.add(m2)
                ent = diffs.setdefault(m, {})
                for j1, a in enumerate(l1):
                    for j2, b in enumerate(l2):
                        col = index[m][(m1, a, m2, b)]
                        if d1 is not None:
                            for (i, j), v in d1.entries.items():
                                if j != j1:
                                    continue
                                tm, row = _pos(t1, self.labels(t1)[i], m2, b)
                                ent[(row, col)] = ent.get((row, col), 0) + v
                        if d2 is not None:
                            sign = -1 if (m1.cohdeg % 2) else 1
                            for (i, j), v in d2.entries.items():
                                if j != j2:
                                    continue
                                tm, row = _pos(m1, a, t2, other.labels(t2)[i])
                                ent[(row, col)] = ent.get((row, col), 0) + sign * v
        out_diffs = {}
        for m, ent in diffs.items():
            tgt = m.shift(cohdeg=1)
            if not ent:
                continue
            out_diffs[m] = SparseMatrix(len(bins.get(tgt, ())), len(bins[m]), ent)
        edge = set()
        for m1 in self.edge:
            for m2 in other.bins:
                edge.add(m1.add(m2))
        for m2 in other.edge:
            for m1 in self.bins:
                edge.add(m1.add(m2))
        return GradedComplex(bins, out_diffs, self.window.combine(other.window), edge)


def unit_complex(rank: int, window: Window) -> GradedComplex:
    """k in multidegree zero."""
    m = Multidegree(0, (0,) * rank, 0, 0)
    return GradedComplex({m: ["1"]}, {}, window)


class ChainMap:
    """Degree-zero map of graded complexes, given per-bin."""

    def __init__(self, source: GradedComplex, target: GradedComplex, blocks):
        self.source = source
        self.target = target
        self.blocks: dict[Multidegree, SparseMatrix] = dict(blocks)

    def block(self, m: Multidegree) -> SparseMatrix:
        b = self.blocks.get(m)
        if b is not None:
            return b
        return SparseMatrix.zero(self.target.dim(m), self.source.dim(m))

    def verify_chain_map(self):
        if self.source.aux_shift != self.target.aux_shift:
            raise NotAComplex("?", "aux shift mismatch between sides")
        for m in set(self.source.bins) | set(self.blocks):
            tgt = self.source.d_target(m)
            lhs = self.block(tgt) @ self.source.diff_from(m)
            rhs = self.target.diff_from(m) @ self.block(m)
            if lhs != rhs:
                raise NotAComplex(m, "comparison map is not a chain map")
        return True

    def induced_rank(self, m: Multidegree) -> int:
        """Rank of the induced map H(source) -> H(target) at bin m."""
        ker_s, _ = self.source.cohomology_data(m)
        _, im_t = self.target.cohomology_data(m)
        F = self.block(m)
        images = [apply_matrix(F, v) for v in ker_s]
        return quotient_rank(images, im_t, self.target.dim(m))

    def induced_iso_everywhere(self):
        """(ok, failures): induced map is an isomorphism on every known bin."""
        failures = []
        bins = set(self.source.bins) | set(self.target.bins)
        for m in sorted(bins):
            if m in self.source.edge or m in self.target.edge:
                continue
            hs = self.source.h_dim(m)
            ht = self.target.h_dim(m)
            r = self.induced_rank(m)
            if not (hs == ht == r):
                failures.append((m, hs, ht, r))
        return (not failures, failures)
