"""Mixed-complex fixtures for the structural law suites.

`random_mixed_complex` builds a small random mixed complex from
law-preserving blocks, joined by `direct_sum`, under a random change of
basis; `tests/test_mixed.py` and `tests/test_acceptance.py` check the
mixed-complex laws and the u-series functors on it.  `summand_maps` gives
the inclusion of a summand of a direct sum and the projection onto it.

`torsion_cone_levels` builds the derived (x)-adic completion tower of the
torsion module k[x, x^-1]/k[x] by Koszul cones; `tests/test_towers.py` and
`tests/test_acceptance.py` read its [1]-shift off the kappa sector.

`localization_instance` builds what `localize` builds for an instance
file (`LOCALIZE_CASES` lists the files and windows), and `zeroed_at_a_class` corrupts its top restriction map;
`tests/test_complexes.py` and `tests/test_mixed.py` check the induced-map
checks on both.
"""

import random
from fractions import Fraction
from pathlib import Path

from loophh.complexes import ChainMap, GradedComplex
from loophh.grading import Multidegree, Window
from loophh.harness import LocalizationInstance, Truncation
from loophh.instancefile import parse_instance
from loophh.linalg import SparseMatrix, rank as mat_rank, rref
from loophh.mixed import MixedComplex
from loophh.towers import koszul_cone

_ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((_ROOT / "instances").glob("*.loop"))
# the shipped instances and the benchmark's two scale inputs, each at its
# own window and at the smallest one
LOCALIZE_CASES = [(path, small) for path in SHIPPED + [_ROOT / "perfbench" / "instances" / name
                                                       for name in ("big3.loop", "cyc3.loop")]
                  for small in (False, True)]


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


def summand_maps(A: MixedComplex, S: MixedComplex):
    """[(A, S, inclusion), (S, A, projection)] for the summand A of
    S = direct_sum(A, B), both maps checked against d and eps: A's labels
    come first in every bin of S."""
    def block(m, rows, cols):
        return SparseMatrix(rows, cols, {(i, i): Fraction(1) for i in range(A.base.dim(m))})

    inc = ChainMap(A, S, {m: block(m, S.base.dim(m), A.base.dim(m)) for m in A.base.bins})
    proj = ChainMap(S, A, {m: block(m, A.base.dim(m), S.base.dim(m)) for m in A.base.bins})
    inc.verify_chain_map()
    proj.verify_chain_map()
    return [(A, S, inc), (S, A, proj)]


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


def torsion_cone_levels(cap: int, N: int) -> list[MixedComplex]:
    """Levels n = 1..N: the Koszul cone on k[x, x^-1]/k[x] along x^n.

    x has weight -1; the module has basis x^-a, a = 1..cap, in degree 0.
    Weights <= 0 vanish in the quotient, so multiplication by x^n is exact;
    only the upper weight frontier is a truncation: at level n the inflow
    into weights > cap - n comes from beyond the cap, so those bins are edge.
    """
    names = {a: f"x^-{a}" for a in range(1, cap + 1)}
    power = {name: a for a, name in names.items()}
    bins = {Multidegree(0, (a,), 0, 0): [name] for a, name in names.items()}
    M = MixedComplex(GradedComplex(bins, {}, Window((-2, 2), ((-cap, cap),), (0, 0))), {})
    levels = []
    for n in range(1, N + 1):
        # x^n . x^-a = x^-(a - n), which is zero in the quotient when a <= n
        lv = koszul_cone(M, Multidegree(0, (-n,), 0, 0), lambda l, n=n: names.get(power[l] - n))
        lv.base.edge |= {m for m in lv.base.bins if m.weight[0] > cap - n}
        lv.base.check_complex()
        levels.append(lv)
    return levels


def localization_instance(path: Path, small: bool = False) -> LocalizationInstance:
    """The instance `localize` checks for an instance file, at the file's
    own window or, if small, at `--aux-max 0 --tower-levels 1 --u-window 1`."""
    P, T, z, tr = parse_instance(path.read_text())
    if small:
        tr = Truncation(**{**tr._asdict(), "aux_max": 0, "tower_levels": 1, "u_window": 1})
    return LocalizationInstance(P, T, z, tr)


def zeroed_at_a_class(inst: LocalizationInstance) -> ChainMap:
    """The top restriction map of `inst` with its block zeroed at the first
    bin, edge on neither side, where both sides hold a class; it is checked
    to be a chain map that commutes with eps still."""
    F = inst.maps[-1]
    s, t = F.source.base, F.target.base
    m = next(m for m in sorted(F.blocks)
             if s.h_dim(m) and t.h_dim(m) and m not in s.edge and m not in t.edge)
    blocks = dict(F.blocks)
    blocks[m] = SparseMatrix.zero(F.blocks[m].nrows, F.blocks[m].ncols)
    G = ChainMap(F.source, F.target, blocks)
    G.verify_chain_map()
    return G
