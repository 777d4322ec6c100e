"""Hilbert tables: the comparison currency for every theorem check.

A table maps multidegree bins to nonnegative integers, remembers which bins
are edge (possibly contaminated by out-of-window data) and which window it
was computed over.  Within the window, an absent bin means dimension zero;
outside the window nothing is known.
"""

from __future__ import annotations

from .grading import Multidegree, Window


class HilbertTable:
    def __init__(self, values=None, edge=None, window: Window | None = None):
        self.values: dict[Multidegree, int] = {}
        if values:
            for k, v in values.items():
                if v:
                    self.values[k] = v
        self.edge: set[Multidegree] = set(edge) if edge else set()
        self.window = window

    # -- queries ------------------------------------------------------------
    def dim(self, m: Multidegree) -> int:
        return self.values.get(m, 0)

    def is_edge(self, m: Multidegree) -> bool:
        return m in self.edge

    def known(self, m: Multidegree) -> bool:
        """Bin value is exactly known: inside window and not edge."""
        if m in self.edge:
            return False
        if self.window is not None and not self.window.contains(m):
            return False
        return True

    # -- transforms -----------------------------------------------------------
    def at_weight(self, w) -> "HilbertTable":
        """The bins of weight w, over the same window."""
        return HilbertTable({m: v for m, v in self.values.items() if m.weight == w},
                            {m for m in self.edge if m.weight == w}, self.window)

    def forget_weight(self) -> "HilbertTable":
        vals: dict[Multidegree, int] = {}
        edge = set()
        for m, v in self.values.items():
            k = Multidegree(m.cohdeg, (), m.aux, m.upow)
            vals[k] = vals.get(k, 0) + v
        for m in self.edge:
            edge.add(Multidegree(m.cohdeg, (), m.aux, m.upow))
        win = None
        if self.window is not None:
            win = Window(self.window.cohdeg, (), self.window.aux, self.window.upow)
        return HilbertTable(vals, edge, win)

    def shear_aux_into_upow(self) -> "HilbertTable":
        """Reindex along tu = s: a bin (i, w, a, q) contributes to (i, w, 0, q+a).

        A sheared bin is known only if every potential source bin across the
        aux window is known; otherwise it is marked edge.
        """
        if self.window is None:
            raise ValueError("shear needs a window to reason about sources")
        vals: dict[Multidegree, int] = {}
        edge: set[Multidegree] = set()
        lo_a, hi_a = self.window.aux
        targets = set()
        for m in list(self.values) + list(self.edge):
            targets.add((m.cohdeg, m.weight, m.upow + m.aux))
        # also sweep all upow targets in the window so zero rows get marked
        for p in range(self.window.upow[0], self.window.upow[1] + 1):
            for m in self.values:
                targets.add((m.cohdeg, m.weight, p))
        for (i, w, p) in sorted(targets):
            key = Multidegree(i, w, 0, p)
            total = 0
            ok = True
            for a in range(lo_a, hi_a + 1):
                src = Multidegree(i, w, a, p - a)
                if not self.known(src):
                    ok = False
                total += self.dim(src)
            if total:
                vals[key] = total
            if not ok:
                edge.add(key)
        win = Window(self.window.cohdeg, self.window.weight, (0, 0), self.window.upow)
        return HilbertTable(vals, edge, win)

    # -- comparison -----------------------------------------------------------
    def compare(self, other: "HilbertTable"):
        """Compare on bins exactly known to both sides.

        Returns (mismatches, comparable, masked): mismatching bins, the bins
        compared, and nonzero bins visible on one side but unknown on the
        other (evidence the window was too tight).
        """
        keys = set(self.values) | set(other.values) | self.edge | other.edge
        mismatches = []
        comparable = []
        masked = []
        for k in sorted(keys):
            a_known = self.known(k)
            b_known = other.known(k)
            if a_known and b_known:
                comparable.append(k)
                if self.dim(k) != other.dim(k):
                    mismatches.append((k, self.dim(k), other.dim(k)))
            elif a_known and self.dim(k):
                masked.append(k)
            elif b_known and other.dim(k):
                masked.append(k)
        return mismatches, comparable, masked

    # -- serialization ----------------------------------------------------------
    def serialize(self) -> str:
        """One line per bin: `i;w1,...,wr;a;p -> dim`, sorted, edges marked."""
        lines = []
        keys = sorted(set(self.values) | self.edge)
        for m in keys:
            wpart = ",".join(str(w) for w in m.weight)
            line = f"{m.cohdeg};{wpart};{m.aux};{m.upow} -> {self.dim(m)}"
            if m in self.edge:
                line += " [edge]"
            lines.append(line)
        return "\n".join(lines)

    def __repr__(self):
        return f"HilbertTable({len(self.values)} bins, {len(self.edge)} edge)"
