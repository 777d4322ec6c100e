"""Mixed-complex fixtures for the structural law suites.

`random_mixed_complex` builds a small random mixed complex from
law-preserving blocks, joined by `direct_sum`, under a random change of
basis; `tests/test_mixed.py` and `tests/test_acceptance.py` check the
mixed-complex laws and the u-series functors on it.
"""

import random
from fractions import Fraction

from loophh.complexes import GradedComplex
from loophh.grading import Multidegree, Window
from loophh.linalg import SparseMatrix, rank as mat_rank, rref
from loophh.mixed import MixedComplex


def direct_sum(a: MixedComplex, b: MixedComplex) -> MixedComplex:
    bins = {}
    for m in set(a.base.bins) | set(b.base.bins):
        bins[m] = [("L", l) for l in a.base.labels(m)] + [("R", l) for l in b.base.labels(m)]

    def _block(m, da, db, tgt):
        na, nb = a.base.dim(m), b.base.dim(m)
        ta, tb = a.base.dim(tgt), b.base.dim(tgt)
        ent = {}
        for (i, j), v in da.entries.items():
            ent[(i, j)] = v
        for (i, j), v in db.entries.items():
            ent[(i + ta, j + na)] = v
        return SparseMatrix(ta + tb, na + nb, ent)

    if a.base.aux_shift != b.base.aux_shift:
        raise ValueError("aux shift mismatch in direct sum")
    diffs = {}
    eps = {}
    for m in bins:
        tgt = Multidegree(m.cohdeg + 1, m.weight, m.aux + a.base.aux_shift, m.upow)
        dmat = _block(m, a.base.diff_from(m), b.base.diff_from(m), tgt)
        if not dmat.is_zero_matrix():
            diffs[m] = dmat
        et = m.shift(cohdeg=-1)
        emat = _block(m, a.eps_from(m), b.eps_from(m), et)
        if not emat.is_zero_matrix():
            eps[m] = emat
    win = a.base.window
    edge = set(a.base.edge) | set(b.base.edge)
    gc = GradedComplex(bins, diffs, win, edge, aux_shift=a.base.aux_shift)
    return MixedComplex(gc, eps)


def random_mixed_complex(seed: int, rank: int = 1) -> MixedComplex:
    """Small random mixed complex built from law-preserving blocks and a
    random change of basis; used by the structural law suite."""
    rng = random.Random(seed)

    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["point", "acyclic", "epspair", "chain"])
        i = rng.randint(-2, 1)
        w = tuple(rng.randint(-1, 1) for _ in range(rank))
        a = rng.randint(0, 2)
        m = Multidegree(i, w, a, 0)
        win = Window((-6, 6), tuple((-4, 4) for _ in range(rank)), (0, 6))
        if kind == "point":
            gc = GradedComplex({m: ["v"]}, {}, win)
            pieces.append(MixedComplex(gc, {}))
        elif kind == "acyclic":
            m2 = m.shift(cohdeg=1)
            c = Fraction(rng.randint(1, 3))
            gc = GradedComplex(
                {m: ["v"], m2: ["dv"]},
                {m: SparseMatrix(1, 1, {(0, 0): c})},
                win,
            )
            pieces.append(MixedComplex(gc, {}))
        elif kind == "epspair":
            m2 = m.shift(cohdeg=-1)
            c = Fraction(rng.randint(1, 3))
            gc = GradedComplex({m: ["v"], m2: ["ev"]}, {}, win)
            pieces.append(MixedComplex(gc, {m: SparseMatrix(1, 1, {(0, 0): c})}))
        else:
            # x, eta, x*eta, 1 fragment of the additive-group preset shape
            m0 = Multidegree(0, w, a, 0)
            m1 = Multidegree(-1, w, a, 0)
            gc = GradedComplex({m0: ["x"], m1: ["eta"]}, {}, win)
            pieces.append(
                MixedComplex(gc, {m0: SparseMatrix(1, 1, {(0, 0): Fraction(rng.randint(1, 2))})})
            )
    total = pieces[0]
    for p in pieces[1:]:
        total = direct_sum(total, p)
    return _random_basis_change(total, rng)


def _random_basis_change(V: MixedComplex, rng) -> MixedComplex:
    S = {}
    Sinv = {}
    for m in V.base.bins:
        n = V.base.dim(m)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            M = SparseMatrix.from_rows(rows)
            if mat_rank(M) == n:
                break
        S[m] = M
        Sinv[m] = _matrix_inverse(M)
    diffs = {}
    for m in V.base.bins:
        d = V.base.diff_from(m)
        tgt = V.base.d_target(m)
        if not d.is_zero_matrix():
            diffs[m] = S.get(tgt, SparseMatrix.identity(d.nrows)) @ d @ Sinv[m]
    eps = {}
    for m in V.base.bins:
        e = V.eps_from(m)
        tgt = m.shift(cohdeg=-1)
        if not e.is_zero_matrix():
            eps[m] = S.get(tgt, SparseMatrix.identity(e.nrows)) @ e @ Sinv[m]
    gc = GradedComplex(V.base.bins, diffs, V.base.window, V.base.edge, V.base.aux_shift)
    return MixedComplex(gc, eps)


def _matrix_inverse(M: SparseMatrix) -> SparseMatrix:
    n = M.nrows
    aug = M.hstack(SparseMatrix.identity(n))
    pivot_cols, rows = rref(aug)
    if pivot_cols != list(range(n)):
        raise ValueError("matrix not invertible")
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            if c >= n:
                ent[(r, c - n)] = v
    return SparseMatrix(n, n, ent)
