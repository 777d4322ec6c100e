from fractions import Fraction

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loophh import harness, mixed
from loophh.cli import build_parser, run_verb
from loophh.complexes import ChainMap, GradedComplex
from loophh.cyclic import connes_B, cyclic_bar
from loophh.grading import Multidegree, Window, md
from loophh.linalg import (
    NotAComplex,
    SparseMatrix,
    apply_matrix,
    image_basis,
    kernel_basis,
    quotient_pivots,
    quotient_rank,
)
from loophh.mixed import (
    MixedComplex,
    bga_completed_preset,
    bga_polynomial_preset,
    coinvariants,
    s1_invariants_level,
    tate,
)
from loophh.models import AlgebraPresentation
from loophh.scalars import CyclotomicField
from mixed_fixtures import (
    LOCALIZE_CASES,
    SHIPPED,
    direct_sum,
    localization_instance,
    random_mixed_complex,
    summand_maps,
    zeroed_at_a_class,
)

WIN = Window((-6, 6), ((-6, 6),), (0, 6))


def _plane():
    return AlgebraPresentation([("x", (1,), 1), ("y", (2,), 1)], rank=1, asserted_smooth=True)


def point_complex():
    m = md(0, (0,), 0)
    gc = GradedComplex({m: ["1"]}, {}, WIN)
    return MixedComplex(gc, {})


def eps_pair():
    """k + k[-1] with eps the identity from cohomological degree 1 to 0."""
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    gc = GradedComplex({m0: ["a"], m1: ["b"]}, {}, WIN)
    return MixedComplex(gc, {m1: SparseMatrix.from_rows([[1]])})


def test_invariants_level_point():
    V = point_complex()
    t = s1_invariants_level(V, 3).cohomology()
    assert t.values == {md(0, (0,), 0, p): 1 for p in range(3)}
    assert not t.edge


def test_invariants_level_one_recovers_v():
    V = bga_polynomial_preset(4)
    t1 = s1_invariants_level(V, 1).cohomology()
    plain = V.cohomology()
    assert {Multidegree(m.cohdeg, m.weight, m.aux, 0): v for m, v in t1.values.items()} == plain.values


def test_invariants_level_eps_pair():
    # level n: surviving classes at (0, p=0) and (1, p=n-1)
    V = eps_pair()
    for n in (1, 2, 3):
        t = s1_invariants_level(V, n).cohomology()
        assert t.values == {
            md(0, (0,), 0, 0): 1,
            md(1, (0,), 0, n - 1): 1,
        }


def test_tate_of_zero_eps_is_periodic_spread():
    V = point_complex()
    t = tate(V, 3).cohomology()
    assert t.values == {md(0, (0,), 0, p): 1 for p in range(-3, 4)}
    assert not t.edge


def test_tate_bga_preset_is_ku_pattern():
    V = bga_polynomial_preset(5)
    t = tate(V, 3).cohomology()
    expected = {md(0, (0,), 0, p): 1 for p in range(-3, 4)}
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == expected


def test_tate_completed_preset_matches_away_from_edges():
    A = tate(bga_polynomial_preset(6), 3).cohomology()
    B = tate(bga_completed_preset(6, 4), 3).cohomology()
    mism, comp, _ = A.compare(B)
    assert not mism
    assert comp  # nonempty comparable region


def test_coinvariants_point():
    V = point_complex()
    t = coinvariants(V, 3).cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {md(0, (0,), 0, p): 1 for p in range(-2, 1)} or known == {
        md(0, (0,), 0, p): 1 for p in range(-3, 1)
    }


def test_tate_spread_identity_with_differential():
    # eps = 0: the Tate table is exactly the 2-periodic spread of H(V)
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    m2 = md(2, (0,), 1)
    gc = GradedComplex(
        {m0: ["a", "b"], m1: ["c"], m2: ["e"]},
        {m0: SparseMatrix.from_rows([[1, 0]])},
        WIN,
    )
    V = MixedComplex(gc, {})
    h = V.cohomology()
    t = tate(V, 2).cohomology()
    for m, v in h.values.items():
        for p in range(-2, 3):
            key = Multidegree(m.cohdeg, m.weight, m.aux, p)
            if t.known(key):
                assert t.dim(key) == v
    for m in t.values:
        base = Multidegree(m.cohdeg, m.weight, m.aux, 0)
        assert t.dim(m) == h.dim(base)


def test_periodicity_point_and_bga():
    ok, failures = tate(point_complex(), 3).u_map_bijective()
    assert ok, failures
    ok, failures = tate(bga_polynomial_preset(5), 3).u_map_bijective()
    assert ok, failures


def test_periodicity_acyclic():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    gc = GradedComplex({m0: ["v"], m1: ["dv"]}, {m0: SparseMatrix.from_rows([[1]])}, WIN)
    V = MixedComplex(gc, {})
    ok, failures = tate(V, 3).u_map_bijective()
    assert ok


def test_mixed_laws_on_presets():
    bga_polynomial_preset(5).check_mixed_laws()
    bga_completed_preset(6, 4).check_mixed_laws()
    eps_pair().check_mixed_laws()


def test_random_mixed_complexes_laws():
    for seed in range(12):
        V = random_mixed_complex(seed)
        V.base.check_complex()
        V.check_mixed_laws()
        # the u-series checks (d + u eps)^2 = 0 when it is built
        t = tate(V, 2)
        t.cohomology()
        assert V.base.euler_consistent()


def test_direct_sum_adds_tables():
    a = point_complex()
    b = eps_pair()
    s = direct_sum(a, b)
    s.check_mixed_laws()
    ta = a.cohomology()
    tb = b.cohomology()
    ts = s.cohomology()
    for m in set(ta.values) | set(tb.values):
        assert ts.dim(m) == ta.dim(m) + tb.dim(m)


def test_column_memo_key_separates_backend_and_shape():
    F = CyclotomicField(3)
    rational = SparseMatrix(2, 2, {(0, 0): Fraction(2), (1, 1): Fraction(-1)})
    cyclotomic = SparseMatrix(2, 2, {(0, 0): F.from_rational(2), (1, 1): F.from_rational(-1)})
    assert mixed._content_key(rational) != mixed._content_key(cyclotomic)

    wide = SparseMatrix(1, 3, {(0, 0): Fraction(1)})
    tall = SparseMatrix(3, 1, {(0, 0): Fraction(1)})
    assert mixed._content_key(wide) != mixed._content_key(tall)

    again = SparseMatrix(2, 2, {(1, 1): Fraction(-1), (0, 0): Fraction(2)})
    assert mixed._content_key(rational) == mixed._content_key(again)


def test_column_memo_shares_results_between_equal_columns():
    mixed.clear_column_memo()
    V = bga_polynomial_preset(4)
    first = tate(V, 2)
    first.cohomology()
    second = tate(bga_polynomial_preset(4), 2)
    assert second.cohomology().values == first.cohomology().values
    for key in _columns_and_predecessors(first):
        (strip, _, src, nxt), (again, _, src2, nxt2) = _shapes(first, key), _shapes(second, key)
        assert again.column(src2, nxt2) is strip.column(src, nxt)


def _strip_content(strip):
    """What a strip's column matrices and classes depend on: its dimensions
    and the content of its d- and eps-blocks by degree."""
    return (tuple(sorted(strip.dims.items())),
            *(tuple((i, mixed._content_key(block)) for i, block in sorted(blocks.items()))
              for blocks in (strip.d, strip.eps)))


def test_one_memo_lifetime_reduces_each_strip_column_once(monkeypatch):
    # strips of equal content recur across tower levels, both sides and the
    # group exponents; each (strip content, shape pair) is reduced once
    reduced, last = [], [None]

    def matrix(self, src, nxt, _fn=mixed._Strip.matrix):
        last[0] = (_strip_content(self), src, nxt)
        return _fn(self, src, nxt)

    def recording(M, _fn=mixed.column_leads):
        reduced.append(last[0])
        return _fn(M)

    monkeypatch.setattr(mixed._Strip, "matrix", matrix)
    monkeypatch.setattr(mixed, "column_leads", recording)
    path = Path(__file__).resolve().parents[1] / "instances" / "01_line_gm_z2.loop"
    args = build_parser().parse_args(["localize", str(path)])
    _, code = run_verb("localize", args, path.read_text())
    assert code == 0
    assert reduced and len(set(reduced)) == len(reduced)


def test_not_a_complex_raises_on_every_call():
    # d + u eps with d eps + eps d != 0: no column result may be remembered
    m0, m1 = md(0, (0,), 0), md(1, (0,), 0)
    gc = GradedComplex({m0: ["a"], m1: ["b"]}, {m0: SparseMatrix.from_rows([[1]])}, WIN)
    V = MixedComplex(gc, {m1: SparseMatrix.from_rows([[1]])})
    for _ in range(2):
        with pytest.raises(NotAComplex):
            tate(V, 1).cohomology()

    path = Path(__file__).resolve().parents[1] / "instances" / "05_plane_opposite_z3.loop"
    text = path.read_text()
    args = build_parser().parse_args(["hp", str(path)])
    for _ in range(2):
        with pytest.raises(NotAComplex):
            run_verb("hp", args, text)


def test_eps_square_fault_raises_at_construction():
    # eps: cohdeg 2 -> 1 -> 0, both the identity, and d = 0: the only fault
    # is eps^2 != 0 at cohdeg 2
    m0, m1, m2 = md(0, (0,), 0), md(1, (0,), 0), md(2, (0,), 0)
    one = SparseMatrix.from_rows([[1]])
    V = MixedComplex(GradedComplex({m0: ["a"], m1: ["b"], m2: ["c"]}, {}, WIN), {m2: one, m1: one})
    assert V.base.d_squared_faults() == []
    with pytest.raises(NotAComplex) as err:
        tate(V, 1)
    assert err.value.bin_name == m2 and "eps^2" in str(err.value)


@pytest.mark.xfail(strict=True, reason="u-series tables mark as edge only cells that hold "
                   "labels, so a label-less edge bin reads as a known zero")
def test_labelless_edge_bin_is_not_known_in_its_tate_table():
    # an edge bin that holds no label, inside the window, as a Koszul cone
    # flags the product bins beyond aux_max
    win = Window((-1, 1), ((0, 0),), (0, 1))
    gc = GradedComplex({md(0, (0,), 0): ["a"]}, {}, win, edge={md(0, (0,), 1)})
    V = MixedComplex(gc)
    assert not V.cohomology().known(md(0, (0,), 1))
    assert not tate(V, 1).cohomology().known(md(0, (0,), 1, 0))


def test_edge_adjacent_d_squared_fault_exempt_only_for_graded_table():
    # d: cohdeg 0 -> 1 -> 2, both the identity, so d^2 != 0 at cohdeg 0;
    # cohdeg 1 is edge, so that bin is edge-adjacent
    m0, m1, m2 = md(0, (0,), 0), md(1, (0,), 0), md(2, (0,), 0)
    one = SparseMatrix.from_rows([[1]])
    gc = GradedComplex({m0: ["a"], m1: ["b"], m2: ["c"]}, {m0: one, m1: one}, WIN, edge={m1})
    V = MixedComplex(gc, {})
    assert gc.d_squared_faults() == [m0]
    assert m0 in V.cohomology().edge
    for build in (tate, coinvariants, s1_invariants_level):
        with pytest.raises(NotAComplex) as err:
            build(V, 1)
        assert err.value.bin_name == m0 and "d^2" in str(err.value)


def test_laws_computed_once_per_mixed_complex(monkeypatch):
    # d^2 takes one product per bin, eps^2 one, d eps + eps d two
    products = [0]

    def counting(a, b, _fn=SparseMatrix.__matmul__):
        products[0] += 1
        return _fn(a, b)

    V = bga_polynomial_preset(4)
    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    hn = s1_invariants_level(V, 2)
    assert products[0] == 4 * len(V.base.bins)
    hc, hp = coinvariants(V, 2), tate(V, 2)
    for us in (hn, hc, hp):
        us.cohomology()
    V.cohomology()
    assert products[0] == 4 * len(V.base.bins)


def _same_block_elsewhere():
    """One d-block (cohdeg 0 -> 1) beside one idle bin.  In Tate at u-window 1
    the block lands at row 0 (idle bin at cohdeg -1) or row 1 (cohdeg 3) of
    equal 2x1 columns, and at column 0 (cohdeg -2) or column 1 (cohdeg 2) of
    equal 1x2 columns: only the offsets tell these matrices apart."""
    m0, m1 = md(0, (0,), 0), md(1, (0,), 0)
    d = {m0: SparseMatrix.from_rows([[1]])}
    return [
        MixedComplex(GradedComplex({m0: ["v"], m1: ["dv"], md(i, (0,), 0): ["e"]}, d, WIN), {})
        for i in (-1, 3, -2, 2)
    ]


def _key_check_complexes():
    cases = [random_mixed_complex(seed) for seed in range(16)]
    return cases + _same_block_elsewhere() + [
        bga_polynomial_preset(4),
        bga_completed_preset(5, 3),
        # a cohdeg floor with a zero certifier below it, for the cut rule
        connes_B(cyclic_bar(_plane(), N=3, aux_max=2)),
    ]


def _all_flavors(V, windows=(1, 2)):
    """Each of the three flavors at each u-window."""
    for u in windows:
        yield mixed.USeriesComplex(V, "invariants", (0, u))
        yield mixed.USeriesComplex(V, "coinvariants", (-u, 0))
        yield mixed.USeriesComplex(V, "tate", (-u, u))


def _shapes(us, key):
    """(strip, prv, src, nxt) of column key, read off its strip one tau at
    a time; a strip the complex lacks is empty."""
    tau, w, a = key
    strip = us.mixed.strips().get((w, a)) or mixed._Strip(us.mixed, w, a, {}, frozenset())
    return (strip, *(strip.shape(t, us.p_lo, us.p_hi) for t in (tau - 1, tau, tau + 1)))


def _column_matrix(us, key):
    """Total differential out of column key into key + e_tau."""
    strip, _, src, nxt = _shapes(us, key)
    return strip.matrix(src, nxt)


def test_strip_walk_equals_shapes_tau_by_tau():
    for V in _key_check_complexes():
        for us in _all_flavors(V, (1, 2, 4)):
            for strip in V.strips().values():
                lo, hi = us.p_lo, us.p_hi
                taus = range(-30, 31)
                expected = [(tau, *(strip.shape(t, lo, hi) for t in (tau - 1, tau, tau + 1)))
                            for tau in taus if strip.shape(tau, lo, hi) is not None]
                assert list(strip.walk(lo, hi)) == expected


def _columns_and_predecessors(us):
    keys = set()
    for tau, w, a in us.columns():
        keys |= {(tau, w, a), (tau - 1, w, a)}
    return sorted(keys)


def _localize_levels():
    """(L, R, F, u-window) of every tower level `localize` checks on the
    shipped instances and the benchmark's big3 and cyc3, each at its own
    window."""
    for path, small in LOCALIZE_CASES:
        if not small:
            inst = localization_instance(path)
            for L, R, F in zip(inst.lhs.levels, inst.rhs.levels, inst.maps):
                yield L, R, F, inst.truncation.u_window


def test_strips_sharing_records_have_equal_matrices():
    # one memo lifetime: strips that share their records must give equal
    # matrices for every shape pair their walks yield, across every level,
    # side and instance, and across the key-check complexes
    mixed.clear_column_memo()
    cases = [(V, u) for L, R, _, u in _localize_levels() for V in (L, R)]
    cases += [(V, u) for V in _key_check_complexes() for u in (1, 2)]
    groups = {}  # id of the shared columns dict -> [(strip, complex index, u-window)]
    for n, (V, u) in enumerate(cases):
        for strip in V.strips().values():
            groups.setdefault(id(strip.columns), []).append((strip, n, u))
    assert len(groups) < sum(map(len, groups.values()))  # shared, so the check has teeth
    assert any(len({n for _, n, _ in group}) > 1 for group in groups.values())
    for group in groups.values():
        pairs = set()
        for strip, _, u in group:
            # HN, HC and HP p-windows, as `_localize_flavors` builds them
            for lo, hi in ((0, u - 1), (-u, 0), (-u, u)):
                for _, prv, src, nxt in strip.walk(lo, hi):
                    pairs |= {(prv, src), (src, nxt)}
        first = group[0][0]
        expected = {pair: mixed._content_key(first.matrix(*pair)) for pair in pairs}
        for strip, _, _ in group[1:]:
            assert strip.dims == first.dims
            assert {pair: mixed._content_key(strip.matrix(*pair)) for pair in pairs} == expected


def _induced_iso(us_src, us_tgt, F):
    """`useries_induced_iso` of F on the known-only tables of both sides, the
    tables a check compares before it runs."""
    return mixed.useries_induced_iso(us_src, us_tgt, F, us_src.cohomology(known_only=True),
                                     us_tgt.cohomology(known_only=True))


def _level_results(L, R, F, u):
    """HN, HC and HP tables of both sides at u-window u, and the induced-map
    check of F on each flavor."""
    tables = [(t.values, t.edge) for V in (L, R)
              for t in (us.cohomology() for us in _localize_flavors(V, u))]
    checks = [_induced_iso(us_src, us_tgt, F)
              for us_src, us_tgt in zip(_localize_flavors(L, u), _localize_flavors(R, u))]
    return tables, checks


def test_warm_memo_equals_cold_level_by_level():
    # one memo lifetime over every level, side and instance, against each
    # level recomputed on fresh strips right after a clear
    mixed.clear_column_memo()
    warm = [(L, R, F, u, _level_results(L, R, F, u)) for L, R, F, u in _localize_levels()]
    for L, R, F, u, results in warm:
        mixed.clear_column_memo()
        fresh = [MixedComplex(V.base, V.eps, laws_ok=True) for V in (L, R)]
        assert _level_results(*fresh, F, u) == results


def test_column_h_equals_memo_free_recompute():
    mixed.clear_column_memo()
    for V in _key_check_complexes():
        for us in _all_flavors(V):
            for key in sorted(us.columns()):
                tau, w, a = key
                ker = kernel_basis(_column_matrix(us, key))
                im = image_basis(_column_matrix(us, (tau - 1, w, a)))
                strip, prv, src, nxt = _shapes(us, key)
                assert strip.h_dim(prv, src, nxt) == len(quotient_pivots(ker, im))


class _CellReference:
    """A u-series complex rebuilt cell by cell, with no shapes and no memo:
    columns from the bins, column matrices from the cell lists, classes
    from `kernel_basis`, `image_basis` and `quotient_pivots`, and the edge
    rule written out."""

    def __init__(self, us):
        self.us, self.base = us, us.mixed.base
        self.cols = {}
        for m in self.base.bins:
            for p in range(us.p_lo, us.p_hi + 1):
                self.cols.setdefault((m.cohdeg + 2 * p, m.weight, m.aux), []).append((m, p))
        for cells in self.cols.values():
            cells.sort(key=lambda cell: cell[1])

    def offsets(self, key):
        offset, total = {}, 0
        for m, p in self.cols.get(key, []):
            offset[(m, p)] = total
            total += self.base.dim(m)
        return offset, total

    def matrix(self, key):
        """The total differential out of column key: d from cell (m, p) to
        (m + e_cohdeg, p), eps to (m - e_cohdeg, p + 1), where those cells
        exist."""
        tau, w, a = key
        offset, total = self.offsets(key)
        target, ttotal = self.offsets((tau + 1, w, a))
        ent = {}
        for (m, p), col in offset.items():
            d, eps = self.base.diffs.get(m), self.us.mixed.eps.get(m)
            for block, cell in ((d, (self.base.d_target(m), p)), (eps, (m.shift(cohdeg=-1), p + 1))):
                if block is not None and cell in target:
                    for (i, j), v in block.entries.items():
                        ent[(target[cell] + i, col + j)] = v
        return SparseMatrix(ttotal, total, ent)

    def kernel_image(self, key):
        tau, w, a = key
        return kernel_basis(self.matrix(key)), image_basis(self.matrix((tau - 1, w, a)))

    def pivots(self, key):
        return quotient_pivots(*self.kernel_image(key))

    def certified_zero(self, m):
        V, win = self.us.mixed, self.base.window
        if self.base.dim(m) or m in self.base.edge or len(m.weight) != len(win.weight):
            return False
        if not all(lo <= x <= hi for x, (lo, hi) in zip(m.weight, win.weight)):
            return False
        if not win.aux[0] <= m.aux <= win.aux[1]:
            return False
        if V.cohdeg_floor is not None and m.cohdeg < V.cohdeg_floor:
            return bool(V.zero_certifier and V.zero_certifier(m))
        return True

    def is_edge(self, key):
        """An edge cell, or a p-window boundary whose eps-arrow in (all but
        invariants) or out (Tate) may meet a nonzero bin."""
        tau, w, a = key
        us = self.us
        if any(m in self.base.edge for m, _ in self.cols.get(key, [])):
            return True
        probes = []
        if us.flavor in ("tate", "coinvariants"):
            probes.append(Multidegree(tau + 1 - 2 * us.p_lo, w, a))
        if us.flavor == "tate":
            probes.append(Multidegree(tau - 2 * us.p_hi - 1, w, a))
        return not all(self.certified_zero(m) for m in probes)

    def table(self):
        vals, edge = {}, set()
        for key in sorted(self.cols):
            cells = self.cols[key]
            owner = [(m, p) for m, p in cells for _ in range(self.base.dim(m))]
            for f in self.pivots(key):
                m, p = owner[f]
                cell = Multidegree(m.cohdeg, m.weight, m.aux, p)
                vals[cell] = vals.get(cell, 0) + 1
            if self.is_edge(key):
                edge |= {Multidegree(m.cohdeg, m.weight, m.aux, p) for m, p in cells}
        return vals, edge

    def induced_iso_failures(self, target, F):
        """`useries_induced_iso` from this reference into `target`'s, one
        column at a time."""
        failures = []
        for key in sorted(set(self.cols) | set(target.cols)):
            if self.is_edge(key) or target.is_edge(key):
                continue
            s_off, s_total = self.offsets(key)
            t_off, t_total = target.offsets(key)
            ent = {}
            for (m, p), col in s_off.items():
                if m in F.blocks and (m, p) in t_off:
                    for (i, j), v in F.blocks[m].entries.items():
                        ent[(t_off[(m, p)] + i, col + j)] = v
            ker, _ = self.kernel_image(key)
            _, im = target.kernel_image(key)
            images = [apply_matrix(SparseMatrix(t_total, s_total, ent), v) for v in ker]
            hs, ht = len(self.pivots(key)), len(target.pivots(key))
            r = quotient_rank(images, im, t_total)
            if not (hs == ht == r):
                failures.append((key, hs, ht, r))
        return failures


def test_tables_equal_cell_by_cell_reference():
    # u-window 4 is wider than every strip, so interior shapes repeat.  A
    # known-only table, computed first so that it fills the class records
    # itself, has the reference's edge set and its values off that set
    mixed.clear_column_memo()
    dropped = [0, 0]  # edge values the graded and the u-series tables drop
    for V in _key_check_complexes():
        for us in _all_flavors(V, (1, 2, 4)):
            known = us.cohomology(known_only=True)
            table = us.cohomology()
            values, edge = _CellReference(us).table()
            assert (table.values, table.edge) == (values, edge)
            assert known.edge == edge
            assert known.values == {m: v for m, v in values.items() if m not in edge}
            dropped[1] += len(values) - len(known.values)
        # the graded table, also with every third bin marked edge
        bins = V.base.all_bins()
        for edge in (V.base.edge, V.base.edge | set(bins[::3])):
            base = GradedComplex(V.base.bins, V.base.diffs, V.base.window, edge)
            known, table = base.cohomology(known_only=True), base.cohomology()
            assert known.edge == table.edge
            assert known.values == {m: v for m, v in table.values.items() if m not in table.edge}
            dropped[0] += len(table.values) - len(known.values)
    assert all(dropped)


def test_induced_iso_lists_every_failing_column():
    # the identity of the BGa preset with the block of its unit zeroed fails
    # at every column of the unit's periodic classes; at Tate u-window 4
    # those columns all have one shape
    mixed.clear_column_memo()
    V = bga_polynomial_preset(5)
    blocks = {m: SparseMatrix.identity(V.base.dim(m)) for m in V.base.bins}
    blocks[md(0, (0,), 0)] = SparseMatrix.zero(1, 1)
    F = ChainMap(V, V, blocks)
    us_src, us_tgt = tate(V, 4), tate(V, 4)
    ok, failures = _induced_iso(us_src, us_tgt, F)
    assert not ok
    assert failures == _CellReference(us_src).induced_iso_failures(_CellReference(us_tgt), F)
    shapes = [_shapes(us_src, key)[1:] for key, *_ in failures]
    assert len(set(shapes)) < len(shapes)


def _summand_pairs():
    """(A, direct_sum(A, B)) pairs; each B holds a (weight, aux) strip A lacks."""
    def lone_point(V, w, a):
        return MixedComplex(GradedComplex({md(0, w, a): ["p"]}, {}, V.base.window), {})

    pairs = []
    for seed in range(4):
        A = random_mixed_complex(seed)
        B = direct_sum(random_mixed_complex(seed + 20), lone_point(A, (3,), 4))
        pairs.append((A, direct_sum(A, B)))
    A = bga_completed_preset(5, 3)
    pairs.append((A, direct_sum(A, direct_sum(eps_pair(), lone_point(A, (1,), 2)))))
    return pairs


def test_induced_iso_equals_reference_between_different_complexes():
    # the inclusion of a summand and the projection onto it, at every flavor
    # and u-window; each pair has a strip on one side only
    mixed.clear_column_memo()
    failing = 0
    for A, S in _summand_pairs():
        assert not S.strips().keys() <= A.strips().keys()
        for V, W, F in summand_maps(A, S):
            for us_src, us_tgt in zip(_all_flavors(V, (1, 2, 4)), _all_flavors(W, (1, 2, 4))):
                ok, failures = _induced_iso(us_src, us_tgt, F)
                assert failures == _CellReference(us_src).induced_iso_failures(_CellReference(us_tgt), F)
                assert ok == (not failures)
                failing += bool(failures)
        # a strip one side lacks is not added to that side's index
        assert not S.strips().keys() <= A.strips().keys()
    assert failing


def _localize_flavors(V, u):
    """HN, HC and HP at u-window u, as `check_hc_variants` builds them."""
    return [s1_invariants_level(V, u), coinvariants(V, u), tate(V, u)]


def _assert_induced_iso_equals_reference(L, R, F, u):
    """The HN, HC and HP checks of F: L -> R at u-window u equal
    `_CellReference`'s, which ranks every column edge on neither side.
    Returns the number of those columns where a side has no class."""
    without_a_class = 0
    for us_src, us_tgt in zip(_localize_flavors(L, u), _localize_flavors(R, u)):
        ok, failures = _induced_iso(us_src, us_tgt, F)
        src, tgt = _CellReference(us_src), _CellReference(us_tgt)
        assert failures == src.induced_iso_failures(tgt, F)
        assert ok == (not failures)
        without_a_class += sum(
            1 for key in set(src.cols) | set(tgt.cols)
            if not (src.is_edge(key) or tgt.is_edge(key)) and not (src.pivots(key) and tgt.pivots(key)))
    return without_a_class


def test_localize_induced_iso_equals_rank_everywhere_reference():
    # every level's restriction map that `localize` checks; columns where a
    # side has no class must occur for the check to have teeth
    without_a_class = 0
    for path, small in LOCALIZE_CASES:
        mixed.clear_column_memo()
        inst = localization_instance(path, small)
        for L, R, F in zip(inst.lhs.levels, inst.rhs.levels, inst.maps):
            without_a_class += _assert_induced_iso_equals_reference(L, R, F, inst.truncation.u_window)
    assert without_a_class


def test_zeroed_restriction_block_fails_columnwise_like_the_reference():
    mixed.clear_column_memo()
    inst = localization_instance(SHIPPED[0])
    L, R, u = inst.lhs.levels[-1], inst.rhs.levels[-1], inst.truncation.u_window
    G = zeroed_at_a_class(inst)
    ok, failures = _induced_iso(tate(L, u), tate(R, u), G)
    assert not ok and all(hs and ht and r == 0 for _, hs, ht, r in failures)
    _assert_induced_iso_equals_reference(L, R, G, u)


def test_clear_column_memo_empties_the_memo():
    mixed.clear_column_memo()
    old = tate(bga_polynomial_preset(4), 2)
    table = old.cohomology()
    assert mixed._STRIP_MEMO
    mixed.clear_column_memo()
    assert not mixed._STRIP_MEMO

    # the same content after a clear gets fresh records
    new = tate(bga_polynomial_preset(4), 2)
    assert new.cohomology().values == table.values
    old_strips, new_strips = old.mixed.strips(), new.mixed.strips()
    assert old_strips.keys() == new_strips.keys()
    assert all(new_strips[k].columns is not old_strips[k].columns for k in old_strips)


def _record_induced_ranks(monkeypatch):
    """Record (D, B) of every `induced_rank` call the engine makes;
    `loophh.mixed` is the only module that calls it."""
    calls = []

    def recording(D, F, B, _fn=mixed.induced_rank):
        calls.append((D, B))
        return _fn(D, F, B)

    monkeypatch.setattr(mixed, "induced_rank", recording)
    return calls


def test_tables_build_no_bases(monkeypatch):
    calls = _record_induced_ranks(monkeypatch)
    mixed.clear_column_memo()
    V = bga_polynomial_preset(5)
    assert tate(V, 3).cohomology().values
    assert V.base.cohomology().values
    assert calls == []


def test_localize_builds_kernels_only_for_induced_map_columns(monkeypatch):
    # each check ranks once per (w, a, shapes) key whose columns are edge on
    # neither side and hold a class on both: elsewhere the induced rank of a
    # chain map is 0.  HH's restriction check is the HN level 1 case, so it
    # runs through the same function.
    calls = _record_induced_ranks(monkeypatch)
    content = mixed._content_key
    level_one = [0]  # checks at HN level 1, as HH's check makes them
    ranked = [0]  # calls made inside a check

    def expected_ranks(us_src, us_tgt):
        """(source D, target B) contents, one per key the check must rank."""
        keys = {}
        for key in set(us_src.columns()) | set(us_tgt.columns()):
            sides = [(us, *_shapes(us, key)) for us in (us_src, us_tgt)]
            if any(us._column_is_edge(strip, key[0], src) for us, strip, _, src, _ in sides):
                continue
            if all(src and strip.h_dim(prv, src, nxt) for _, strip, prv, src, nxt in sides):
                (_, s_strip, _, s_src, s_nxt), (_, t_strip, t_prv, t_src, _) = sides
                keys[(key[1:], tuple(side[2:] for side in sides))] = (
                    content(s_strip.matrix(s_src, s_nxt)), content(t_strip.matrix(t_prv, t_src)))
        return sorted(keys.values())

    def check(us_src, us_tgt, F, t_src, t_tgt, _fn=mixed.useries_induced_iso):
        level_one[0] += (us_src.flavor, us_src.p_lo, us_src.p_hi) == ("invariants", 0, 0)
        expected = expected_ranks(us_src, us_tgt)
        first = len(calls)
        result = _fn(us_src, us_tgt, F, t_src, t_tgt)
        made = sorted((content(D), content(B)) for D, B in calls[first:])
        assert made == expected
        ranked[0] += len(made)
        return result

    # HH's check reaches it through complexes, HN/HC/HP's through harness
    monkeypatch.setattr(mixed, "useries_induced_iso", check)
    monkeypatch.setattr(harness, "useries_induced_iso", check)
    # at 05's window, some columns have a class on one side only or on
    # none, and are not edge
    for name in ("01_line_gm_z2", "05_plane_opposite_z3"):
        path = Path(__file__).resolve().parents[1] / "instances" / f"{name}.loop"
        args = build_parser().parse_args(["localize", str(path)])
        _, code = run_verb("localize", args, path.read_text())
        assert code == 0
    assert level_one[0]
    assert ranked[0] and ranked[0] == len(calls)


def _columnwise_induced_iso(us_src, us_tgt, F):
    """`useries_induced_iso` as it was before it read class counts from the
    compared tables, kept as the reference of the equivalence property: it
    walks both sides' strips, tests every column of either for edge and
    counts each column's classes itself."""
    if (us_src.flavor, us_src.p_lo, us_src.p_hi) != (us_tgt.flavor, us_tgt.p_lo, us_tgt.p_hi):
        raise ValueError("flavor/window mismatch")
    empty = (None, None, None)  # the shapes of a column with no cell
    failures = []
    ranks = {}  # (w, a, source shapes, target shapes) -> [hs, ht, rank or None]
    lo, hi = us_src.p_lo, us_src.p_hi
    s_strips, t_strips = us_src.mixed.strips(), us_tgt.mixed.strips()
    for w, a in s_strips.keys() | t_strips.keys():
        # a strip or column one side lacks is empty there: no cell, so no
        # class and no image, whatever its neighbours hold
        s_strip = s_strips.get((w, a)) or mixed._Strip(us_src.mixed, w, a, {}, frozenset())
        t_strip = t_strips.get((w, a)) or mixed._Strip(us_tgt.mixed, w, a, {}, frozenset())
        s_cols = {tau: (prv, src, nxt) for tau, prv, src, nxt in s_strip.walk(lo, hi)}
        t_cols = {tau: (prv, src, nxt) for tau, prv, src, nxt in t_strip.walk(lo, hi)}
        for tau in s_cols.keys() | t_cols.keys():
            s_shapes, t_shapes = s_cols.get(tau, empty), t_cols.get(tau, empty)
            if us_src._column_is_edge(s_strip, tau, s_shapes[1]) or \
                    us_tgt._column_is_edge(t_strip, tau, t_shapes[1]):
                continue
            shapes = (w, a, s_shapes, t_shapes)
            record = ranks.get(shapes)
            if record is None:
                hs, ht = s_strip.h_dim(*s_shapes), t_strip.h_dim(*t_shapes)
                record = ranks[shapes] = [hs, ht, None if hs and ht else 0]
            hs, ht, r = record
            if r is None:
                (_, s_src, s_nxt), (t_prv, t_src, _) = s_shapes, t_shapes
                s_off, s_total = s_strip.offsets(s_src)
                t_off, t_total = t_strip.offsets(t_src)
                ent = {}
                for i, col in s_off.items():
                    blk = F.blocks.get(Multidegree(i, w, a))
                    if blk is not None and i in t_off:
                        for (row, c), v in blk.entries.items():
                            ent[(t_off[i] + row, col + c)] = v
                Fcol = SparseMatrix(t_total, s_total, ent)
                r = record[2] = mixed.induced_rank(s_strip.matrix(s_src, s_nxt), Fcol,
                                                   t_strip.matrix(t_prv, t_src))
            if not (hs == ht == r):
                failures.append(((tau, w, a), hs, ht, r))
    failures.sort()
    return (not failures, failures)


def _result_and_ranks(check, us_src, us_tgt, F):
    """(check's (ok, failures), the contents of its `induced_rank` inputs,
    sorted)."""
    calls, real = [], mixed.induced_rank

    def recording(D, Fcol, B):
        calls.append(tuple(mixed._content_key(M) for M in (D, Fcol, B)))
        return real(D, Fcol, B)

    mixed.induced_rank = recording
    try:
        result = check(us_src, us_tgt, F)
    finally:
        mixed.induced_rank = real
    return result, sorted(calls, key=repr)


def _two_windows_each(V):
    """Each flavor at two p-windows; HH's HN level 1 is the first."""
    return [mixed.USeriesComplex(V, flavor, window) for flavor, window in (
        ("invariants", (0, 0)), ("invariants", (0, 2)), ("coinvariants", (-1, 0)),
        ("coinvariants", (-3, 0)), ("tate", (-1, 1)), ("tate", (-3, 3)))]


def _assert_equals_the_columnwise_check(V, W, F):
    """Returns how many of the six checks of F: V -> W failed and how many
    ranks they took."""
    failing = ranked = 0
    for us_src, us_tgt in zip(_two_windows_each(V), _two_windows_each(W)):
        (ok, failures), ranks = _result_and_ranks(_induced_iso, us_src, us_tgt, F)
        assert ((ok, failures), ranks) == _result_and_ranks(_columnwise_induced_iso, us_src, us_tgt, F)
        failing += not ok
        ranked += len(ranks)
    return failing, ranked


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_induced_iso_equals_the_columnwise_check(seed_a, seed_b):
    # the inclusion of a random summand and the projection onto it
    mixed.clear_column_memo()
    A = random_mixed_complex(seed_a)
    for V, W, F in summand_maps(A, direct_sum(A, random_mixed_complex(seed_b))):
        _assert_equals_the_columnwise_check(V, W, F)


def _class_against_a_cut_column():
    """A class in degree 0 and a lone bin in degree 1 of the same strip.  At
    coinvariants u-window 1, column -2 holds the class's cell (0, -1) on the
    first, and is empty on the second, where the eps-arrow into its bottom
    cell comes from the bin in degree 1: cut, so edge."""
    X, Y = (MixedComplex(GradedComplex({md(i, (0,), 0): ["v"]}, {}, WIN), {}) for i in (0, 1))
    us_x, us_y = coinvariants(X, 1), coinvariants(Y, 1)
    (strip_y,) = Y.strips().values()
    assert us_x.cohomology(known_only=True).dim(md(0, (0,), 0, -1)) == 1
    assert strip_y.shape(-2, -1, 0) is None
    assert us_y._column_is_edge(strip_y, -2, None) and not us_y._column_is_edge(strip_y, 0, None)
    return X, Y


def test_induced_iso_equals_the_columnwise_check_on_restriction_maps():
    # the top restriction map of 01 and the same map zeroed at a class, and
    # the zero maps between a class and a column of the other side that is
    # empty and cut, in both directions; and the identity of two lone bins
    # in degrees 0 and 2, whose classes share column 2 of invariants (0, 2)
    # in cells (2, 0) and (0, 1), so a column's count is a sum over cells
    mixed.clear_column_memo()
    inst = localization_instance(SHIPPED[0])
    L, R = inst.lhs.levels[-1], inst.rhs.levels[-1]
    assert _assert_equals_the_columnwise_check(L, R, inst.maps[-1])[1]
    failing, ranked = _assert_equals_the_columnwise_check(L, R, zeroed_at_a_class(inst))
    assert failing and ranked
    X, Y = _class_against_a_cut_column()
    for V, W in ((X, Y), (Y, X)):
        assert _assert_equals_the_columnwise_check(V, W, ChainMap(V, W, {}))[0]
    Z = MixedComplex(GradedComplex({md(i, (0,), 0): ["v"] for i in (0, 2)}, {}, WIN), {})
    identity = ChainMap(Z, Z, {m: SparseMatrix.identity(1) for m in Z.base.bins})
    failing, ranked = _assert_equals_the_columnwise_check(Z, Z, identity)
    assert not failing and ranked


def _walk_every_column(us):
    """The known-only table of `us` (values, edge), from a walk of every
    column of every strip."""
    vals, edge = {}, set()
    for (w, a), strip in us.mixed.strips().items():
        for tau, prv, src, nxt in strip.walk(us.p_lo, us.p_hi):
            cells = {i: Multidegree(i, w, a, (tau - i) // 2) for i in strip.cells(src)}
            if us._column_is_edge(strip, tau, src):
                edge.update(cells.values())
                continue
            vals.update((cells[i], n) for i, n in strip.classes_of(prv, src, nxt))
    return vals, edge


def test_known_only_tables_equal_a_walk_of_every_column():
    # every level `localize` checks, at HN level 1 (HH's check) and at the
    # HN, HC and HP windows; strips whose bins are all edge must occur, or
    # the shortcut goes untested
    mixed.clear_column_memo()
    all_edge = 0
    for L, R, _, u in _localize_levels():
        for V in (L, R):
            for us in [s1_invariants_level(V, 1)] + _localize_flavors(V, u):
                table = us.cohomology(known_only=True)
                assert (table.values, table.edge) == _walk_every_column(us)
            all_edge += sum(1 for s in V.strips().values() if s.dims and s.edge.issuperset(s.dims))
    assert all_edge


def test_localize_walks_each_strip_once_per_window(monkeypatch):
    # the tables walk each strip once per flavor and window, and the
    # induced-map checks walk nothing: they read the tables they follow
    # (HH's check builds its HN level 1 tables)
    walks, strips = {}, []

    def walk(self, p_lo, p_hi, _fn=mixed._Strip.walk):
        strips.append(self)  # kept alive, so no id is reused
        walks[(id(self), p_lo, p_hi)] = walks.get((id(self), p_lo, p_hi), 0) + 1
        return _fn(self, p_lo, p_hi)

    monkeypatch.setattr(mixed._Strip, "walk", walk)
    mixed.clear_column_memo()
    path = SHIPPED[4]  # 05
    _, code = run_verb("localize", build_parser().parse_args(["localize", str(path)]),
                       path.read_text())
    assert code == 0
    assert any(key[1:] == (0, 0) for key in walks)
    assert max(walks.values()) == 1


def test_u_series_tables_leave_nothing_on_the_mixed_complex():
    # known-only tables, one that a check reads and one that no check
    # follows (as hp-completion's), and HH's check keep nothing on the mixed
    # complex but the strip index its first u-series use builds
    mixed.clear_column_memo()
    V = bga_polynomial_preset(4)
    V.check_mixed_laws()

    def state():  # copies of the dicts, which a record would fill in place
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(V).items()}

    before = state()
    us = tate(V, 2)
    table = us.cohomology(known_only=True)
    identity = ChainMap(V, V, {m: SparseMatrix.identity(V.base.dim(m)) for m in V.base.bins})
    assert mixed.useries_induced_iso(us, tate(V, 2), identity, table, table) == (True, [])
    assert tate(V, 3).cohomology(known_only=True).values
    assert identity.induced_iso_everywhere() == (True, [])
    after = state()
    assert before.pop("_strips") is None and after.pop("_strips")
    assert after == before


def test_induced_iso_rejects_a_table_of_another_window_or_flavor():
    # of another flavor's p-window, u-window or aux window
    mixed.clear_column_memo()
    V = bga_polynomial_preset(4)
    identity = ChainMap(V, V, {m: SparseMatrix.identity(V.base.dim(m)) for m in V.base.bins})
    hn, hp = s1_invariants_level(V, 2), tate(V, 2)
    t_hn, t_hp = (us.cohomology(known_only=True) for us in (hn, hp))
    t_narrow = tate(V, 1).cohomology(known_only=True)
    t_low = tate(bga_polynomial_preset(3), 2).cohomology(known_only=True)
    assert mixed.useries_induced_iso(hp, hp, identity, t_hp, t_hp) == (True, [])
    for tables in ((t_hn, t_hp), (t_hp, t_hn), (t_hp, t_narrow), (t_narrow, t_hp), (t_low, t_hp)):
        with pytest.raises(ValueError):
            mixed.useries_induced_iso(hp, hp, identity, *tables)
    with pytest.raises(ValueError):
        mixed.useries_induced_iso(hn, hp, identity, t_hn, t_hp)
