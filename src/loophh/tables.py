"""Hilbert tables: the comparison currency for every theorem check.

A table maps multidegree bins to nonnegative integers, remembers which bins
are edge (possibly contaminated by out-of-window data) and which window it
was computed over.  Within the window, an absent bin means dimension zero;
outside the window nothing is known.
"""

from __future__ import annotations

from itertools import chain

from .grading import Multidegree, Window


class HilbertTable:
    def __init__(self, values, edge, window: Window):
        self.values: dict[Multidegree, int] = {k: v for k, v in values.items() if v}
        self.edge: set[Multidegree] = set(edge)
        self.window = window

    # -- queries ------------------------------------------------------------
    def dim(self, m: Multidegree) -> int:
        return self.values.get(m, 0)

    def is_edge(self, m: Multidegree) -> bool:
        return m in self.edge

    def known(self, m: Multidegree) -> bool:
        """Bin value is exactly known: inside window and not edge."""
        return m not in self.edge and self.window.contains(m)

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
        win = self.window
        return HilbertTable(vals, edge, Window(win.cohdeg, (), win.aux, win.upow))

    def shear_aux_into_upow(self) -> "HilbertTable":
        """Reindex along tu = s: a bin (i, w, a, q) contributes to (i, w, 0, q+a).

        A sheared bin (i, w, 0, p) is known only if every potential source bin
        (i, w, a, p - a) across the aux window is known: (i, w) lies in the
        window, so does p - a for every a, that is u_lo + a_hi <= p <=
        u_hi + a_lo, and no source is edge.  Otherwise it is marked edge.
        """
        win = self.window
        (a_lo, a_hi), (u_lo, u_hi) = win.aux, win.upow
        vals: dict[Multidegree, int] = {}
        for m, v in self.values.items():
            if a_lo <= m.aux <= a_hi:
                key = Multidegree(m.cohdeg, m.weight, 0, m.upow + m.aux)
                vals[key] = vals.get(key, 0) + v
        edge = {Multidegree(m.cohdeg, m.weight, 0, m.upow + m.aux)
                for m in self.edge if a_lo <= m.aux <= a_hi}
        # every target of a bin, and every upow in the window for a nonzero
        # (i, w), is edge when a source leaves the window
        targets = {(m.cohdeg, m.weight, m.upow + m.aux) for m in chain(self.values, self.edge)}
        for i, w in {(m.cohdeg, m.weight) for m in self.values}:
            targets.update((i, w, p) for p in range(u_lo, u_hi + 1))
        for i, w, p in targets:
            if not (u_lo + a_hi <= p <= u_hi + a_lo and win.contains(Multidegree(i, w, a_lo, u_lo))):
                edge.add(Multidegree(i, w, 0, p))
        return HilbertTable(vals, edge, Window(win.cohdeg, win.weight, (0, 0), win.upow))

    # -- comparison -----------------------------------------------------------
    def compare(self, other: "HilbertTable"):
        """Compare on bins exactly known to both sides.

        Returns (mismatches, comparable, masked): mismatching bins, the bins
        compared, and nonzero bins visible on one side but unknown on the
        other (evidence the window was too tight).  Only bins holding a value
        on either side are visited: a bin that is only edge is unknown to a
        side that marks it and zero on the other, so it is neither compared
        nor masked.
        """
        mismatches, comparable, masked = [], [], []
        a_vals, a_edge, a_win = self.values, self.edge, self.window
        b_vals, b_edge, b_win = other.values, other.edge, other.window
        for k in a_vals.keys() | b_vals.keys():
            a_known = k not in a_edge and a_win.contains(k)
            b_known = k not in b_edge and b_win.contains(k)
            a, b = a_vals.get(k, 0), b_vals.get(k, 0)
            if a_known and b_known:
                comparable.append(k)
                if a != b:
                    mismatches.append((k, a, b))
            elif (a_known and a) or (b_known and b):
                masked.append(k)
        # bins are distinct, so each list sorts by bin
        mismatches.sort()
        comparable.sort()
        masked.sort()
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
