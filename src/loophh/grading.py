"""Multidegrees and finite windows for the graded machinery.

A multidegree is (cohdeg, weight, aux, upow): cohomological degree (raised by
1 by internal differentials), integer torus-weight vector of length r, a
nonnegative auxiliary/polynomial degree, and the power of the degree-2 series
parameter u (zero outside u-series complexes).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple


class Multidegree(NamedTuple):
    cohdeg: int
    weight: tuple
    aux: int
    upow: int = 0

    def shift(self, cohdeg=0, aux=0, upow=0):
        return Multidegree(self.cohdeg + cohdeg, self.weight, self.aux + aux, self.upow + upow)

    def add(self, other: "Multidegree") -> "Multidegree":
        if len(self.weight) != len(other.weight):
            raise ValueError("weight rank mismatch")
        return Multidegree(
            self.cohdeg + other.cohdeg,
            tuple(a + b for a, b in zip(self.weight, other.weight)),
            self.aux + other.aux,
            self.upow + other.upow,
        )


def md(cohdeg, weight=(), aux=0, upow=0) -> Multidegree:
    return Multidegree(cohdeg, tuple(weight), aux, upow)


class Window(namedtuple("Window", "cohdeg weight aux upow", defaults=((0, 0),))):
    """Finite truncation window; all ranges inclusive: cohdeg (lo, hi), weight
    one (lo, hi) per coordinate, aux (0, D), upow (lo, hi)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for lo, hi in (self.cohdeg, self.aux, self.upow, *self.weight):
            if lo > hi:
                raise ValueError("empty window range")
        return self

    def contains(self, m: Multidegree) -> bool:
        if not (self.cohdeg[0] <= m.cohdeg <= self.cohdeg[1]):
            return False
        if len(m.weight) != len(self.weight):
            return False
        for w, (lo, hi) in zip(m.weight, self.weight):
            if not (lo <= w <= hi):
                return False
        if not (self.aux[0] <= m.aux <= self.aux[1]):
            return False
        return self.upow[0] <= m.upow <= self.upow[1]

    def combine(self, other: "Window") -> "Window":
        """Minkowski sum of ranges (the window of a tensor product)."""
        if len(self.weight) != len(other.weight):
            raise ValueError("weight rank mismatch")
        add = lambda a, b: (a[0] + b[0], a[1] + b[1])
        return Window(
            add(self.cohdeg, other.cohdeg),
            tuple(add(a, b) for a, b in zip(self.weight, other.weight)),
            add(self.aux, other.aux),
            add(self.upow, other.upow),
        )

    def with_upow(self, lo, hi) -> "Window":
        return Window(self.cohdeg, self.weight, self.aux, (lo, hi))
