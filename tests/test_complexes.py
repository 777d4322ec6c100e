import random

import pytest
from hypothesis import given, settings, strategies as st

from loophh.cli import _weight_zero_mixed
from loophh.complexes import ChainMap, GradedComplex, Relabelling
from loophh.instancefile import parse_instance
from loophh.grading import Multidegree, Window, md
from loophh.harness import LocalizationInstance
from loophh.linalg import (
    NotAComplex,
    SparseMatrix,
    apply_matrix,
    image_basis,
    kernel_basis,
    quotient_rank,
)
from loophh.mixed import MixedComplex, tate
from loophh.models import cartan_model
from loophh.tables import HilbertTable
from loophh.towers import cartan_augmentation_tower
from mixed_fixtures import (
    LOCALIZE_CASES,
    SHIPPED,
    direct_sum,
    localization_instance,
    random_mixed_complex,
    summand_maps,
    zeroed_at_a_class,
)

WIN = Window((-4, 4), ((-4, 4),), (0, 4))


def two_term_zero():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    return GradedComplex({m0: ["a"], m1: ["b"]}, {}, WIN)


def test_two_term_zero_differential():
    C = two_term_zero()
    t = C.cohomology()
    assert t.dim(md(0, (0,), 0)) == 1
    assert t.dim(md(1, (0,), 0)) == 1


def test_cohomology_kills_acyclic():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    C = GradedComplex(
        {m0: ["a"], m1: ["b"]},
        {m0: SparseMatrix.from_rows([[1]])},
        WIN,
    )
    t = C.cohomology()
    assert t.values == {}


def test_d_squared_violation_named():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    m2 = md(2, (0,), 0)
    C = GradedComplex(
        {m0: ["a"], m1: ["b"], m2: ["c"]},
        {m0: SparseMatrix.from_rows([[1]]), m1: SparseMatrix.from_rows([[1]])},
        WIN,
    )
    with pytest.raises(NotAComplex) as ei:
        C.cohomology()
    assert str(md(0, (0,), 0)) in str(ei.value)


def test_euler_consistency():
    C = two_term_zero()
    assert C.euler_consistent()


def test_chain_map_verification_and_induced():
    m0 = md(0, (0,), 0)
    C = MixedComplex(GradedComplex({m0: ["a"]}, {}, WIN))
    D = MixedComplex(GradedComplex({m0: ["b"]}, {}, WIN))
    F = ChainMap(C, D, {m0: SparseMatrix.from_rows([[2]])})
    F.verify_chain_map()
    assert F.induced_iso_everywhere() == (True, [])
    assert _induced_rank(F, m0) == 1


def _induced_rank(F, m):
    """Rank of the map F induces on H(V, d) at bin m: F of a kernel basis of
    d out of m, modulo an image basis of d into m, both from `linalg`."""
    s, t = F.source.base, F.target.base
    images = [apply_matrix(F.block(m), v) for v in kernel_basis(s.diff_from(m))]
    return quotient_rank(images, image_basis(t.diff_from(t.d_source(m))), t.dim(m))


def _rank_every_bin(F):
    """`induced_iso_everywhere` by the plain rule: rank the induced map on
    every bin that is edge on neither side."""
    s, t = F.source.base, F.target.base
    failures = []
    for m in sorted(set(s.bins) | set(t.bins)):
        if m in s.edge or m in t.edge:
            continue
        hs, ht, r = s.h_dim(m), t.h_dim(m), _induced_rank(F, m)
        if not (hs == ht == r):
            failures.append((m, hs, ht, r))
    return (not failures, failures)


def test_induced_iso_equals_rank_everywhere_reference():
    # every level's restriction map that `localize` checks; bins where a
    # side has no class must occur for the check to have teeth
    skipped = 0
    for path, small in LOCALIZE_CASES:
        for F in localization_instance(path, small).maps:
            assert F.induced_iso_everywhere() == _rank_every_bin(F), (path.stem, small)
            s, t = F.source.base, F.target.base
            skipped += sum(1 for m in set(s.bins) | set(t.bins) if not (s.h_dim(m) and t.h_dim(m)))
    assert skipped


def test_induced_iso_equals_rank_everywhere_reference_on_summands():
    # the inclusion of a summand A into S = A + B and the projection back fail
    # where only B has a class, with rank 0 there
    failing = []
    for seed in range(4):
        A = random_mixed_complex(seed)
        for *_, F in summand_maps(A, direct_sum(A, random_mixed_complex(seed + 20))):
            ok, failures = F.induced_iso_everywhere()
            assert (ok, failures) == _rank_every_bin(F)
            failing += failures
    assert any(not (hs and ht) for _, hs, ht, _ in failing)


def test_zeroed_restriction_block_fails_like_the_reference():
    G = zeroed_at_a_class(localization_instance(SHIPPED[0]))
    ok, failures = G.induced_iso_everywhere()
    assert not ok and failures
    assert (ok, failures) == _rank_every_bin(G)
    assert all(hs and ht and r == 0 for _, hs, ht, r in failures)


def test_tower_levels_hold_a_label_in_every_edge_bin():
    # HH's induced-map check walks HN level 1's columns, which do not see an
    # edge bin with no label on its side, so it compares that bin where the
    # per-bin rule skips it.  No tower level `localize` checks has such a bin:
    # t has degree 0, so a bin that holds y t^k also holds y t^0, and every
    # level keeps the t^0 labels
    levels = edge = 0
    for path, small in LOCALIZE_CASES:
        inst = localization_instance(path, small)
        for V in inst.lhs.levels + inst.rhs.levels:
            assert V.base.edge <= V.base.bins.keys(), (path.stem, small)
            levels += 1
            edge += len(V.base.edge)
    assert levels == 76 and edge


def test_chain_map_detects_non_chain():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    C = MixedComplex(GradedComplex({m0: ["a"], m1: ["b"]}, {m0: SparseMatrix.from_rows([[1]])}, WIN))
    D = MixedComplex(GradedComplex({m0: ["a"], m1: ["b"]}, {}, WIN))
    F = ChainMap(C, D, {m0: SparseMatrix.identity(1), m1: SparseMatrix.identity(1)})
    with pytest.raises(NotAComplex, match="not a chain map"):
        F.verify_chain_map()


def test_chain_map_that_commutes_with_d_only_fails_on_eps():
    # d is zero on both sides; eps is a -> b on the source and zero on the
    # target, so the identity commutes with d but not with eps
    m0, m1 = md(0, (0,), 0), md(-1, (0,), 0)
    bins = {m0: ["a"], m1: ["b"]}
    C = MixedComplex(GradedComplex(bins, {}, WIN), {m0: SparseMatrix.identity(1)})
    D = MixedComplex(GradedComplex(bins, {}, WIN))
    F = ChainMap(C, D, {m0: SparseMatrix.identity(1), m1: SparseMatrix.identity(1)})
    with pytest.raises(NotAComplex, match="chain map does not commute with eps"):
        F.verify_chain_map()


def test_known_only_level_tables_keep_the_edge_and_the_known_values():
    # each tower level `localize` compares, known-only first so that it
    # takes its own ranks: the full table's edge set, and its values off it;
    # the full table then ranks the differentials only edge bins need
    skipped = 0
    for path, small in LOCALIZE_CASES:
        inst = localization_instance(path, small)
        for V in inst.lhs.levels + inst.rhs.levels:
            known = V.cohomology(known_only=True)
            ranked = len(V.base._ranks)
            full = V.cohomology()
            assert known.edge == full.edge and known.window == full.window
            assert known.values == _known_only(full).values, (path.stem, small)
            skipped += len(V.base._ranks) - ranked
    assert skipped


def test_relabelling_moves_drops_and_refuses_to_leave_the_target_bin():
    a, b = md(0, (0,), 0), md(1, (0,), 0)
    bins = {a: ["x", "y", "z"], b: ["p", "q"]}
    d = {a: SparseMatrix(2, 3, {(0, 0): 1, (1, 1): 2, (0, 2): 3})}
    d_target = lambda m: m.shift(cohdeg=1)
    # dropping z drops its column; the other entries keep their places
    keep = Relabelling(bins, lambda m, lbl: None if lbl == "z" else m)
    assert keep.bins == {a: ["x", "y"], b: ["p", "q"]}
    assert keep.blocks(d, d_target) == {a: SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 2})}
    # moving each label to the bin of its key splits the block by key
    key = {"x": 1, "y": 2, "z": 1, "p": 1, "q": 2}
    by_key = Relabelling(bins, lambda m, lbl: md(m.cohdeg, (key[lbl],), m.aux))
    assert by_key.bins == {md(0, (1,), 0): ["x", "z"], md(0, (2,), 0): ["y"],
                           md(1, (1,), 0): ["p"], md(1, (2,), 0): ["q"]}
    assert by_key.blocks(d, d_target) == {
        md(0, (1,), 0): SparseMatrix(1, 2, {(0, 0): 1, (0, 1): 3}),
        md(0, (2,), 0): SparseMatrix(1, 1, {(0, 0): 2}),
    }
    # z -> p would leave the target bin of z's new bin
    key["z"] = 2
    by_key = Relabelling(bins, lambda m, lbl: md(m.cohdeg, (key[lbl],), m.aux))
    with pytest.raises(ValueError, match=r"block at Multidegree\(cohdeg=0, weight=\(0,\)"):
        by_key.blocks(d, d_target)
    # a map between two complexes re-indexes each side along its own move
    F = {a: SparseMatrix(2, 3, {(0, 0): 1, (1, 2): 1})}
    onto = Relabelling({a: ["u", "v"]}, lambda m, lbl: m if lbl == "v" else None)
    assert keep.blocks(F, lambda m: m, onto) == {}
    drop_x = Relabelling(bins, lambda m, lbl: None if lbl == "x" else m)
    assert drop_x.blocks(F, lambda m: m, onto) == {a: SparseMatrix(1, 2, {(0, 1): 1})}


def test_table_serialization_format():
    t = HilbertTable({md(0, (2,), 1): 3, md(-1, (0,), 0): 1}, {md(-1, (0,), 0)}, WIN)
    text = t.serialize()
    assert "-1;0;0;0 -> 1 [edge]" in text.splitlines()[0]
    assert "0;2;1;0 -> 3" in text


def test_table_compare_and_masking():
    a = HilbertTable({md(0, (0,), 0): 1}, set(), WIN)
    b = HilbertTable({md(0, (0,), 0): 1}, set(), WIN)
    mism, comp, masked = a.compare(b)
    assert not mism and comp
    c = HilbertTable({md(0, (0,), 0): 2}, set(), WIN)
    mism, _, _ = a.compare(c)
    assert mism
    d = HilbertTable({md(0, (0,), 0): 1}, edge={md(0, (0,), 0)}, window=WIN)
    mism, comp, masked = a.compare(d)
    assert not mism and masked == [md(0, (0,), 0)]


def _reference_compare(a, b):
    """The loop `compare` replaced: every key of both tables in sorted order,
    knownness from `known`."""
    mismatches, comparable, masked = [], [], []
    for k in sorted(set(a.values) | set(b.values) | a.edge | b.edge):
        a_known, b_known = a.known(k), b.known(k)
        if a_known and b_known:
            comparable.append(k)
            if a.dim(k) != b.dim(k):
                mismatches.append((k, a.dim(k), b.dim(k)))
        elif a_known and a.dim(k):
            masked.append(k)
        elif b_known and b.dim(k):
            masked.append(k)
    return mismatches, comparable, masked


_RANGES = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(sorted).map(tuple)
_WINDOWS = st.builds(lambda c, w, a, u: Window(c, (w,), a, u), _RANGES, _RANGES, _RANGES, _RANGES)


@st.composite
def _table_pairs(draw):
    """Two tables over one small pool of bins, some beyond either window:
    values (zero or not) and edge marks overlap, and each window is the
    other side's or its own."""
    coordinate = st.integers(-2, 1)
    pool = draw(st.lists(st.builds(md, coordinate, st.tuples(coordinate), coordinate, coordinate),
                         min_size=3, max_size=10, unique=True))
    bins = st.sampled_from(pool)

    def table(window):
        return HilbertTable(draw(st.dictionaries(bins, st.integers(0, 2), min_size=1)),
                            draw(st.sets(bins)), window)

    a = table(draw(_WINDOWS))
    return a, table(draw(st.just(a.window) | _WINDOWS))


@settings(max_examples=150, deadline=None)
@given(_table_pairs())
def test_compare_equals_the_sorted_loop(pair):
    a, b = pair
    assert a.compare(b) == _reference_compare(a, b)
    assert b.compare(a) == _reference_compare(b, a)


def _known_only(t):
    """`t` without the values on its edge bins."""
    return HilbertTable({m: v for m, v in t.values.items() if m not in t.edge}, t.edge, t.window)


@settings(max_examples=150, deadline=None)
@given(_table_pairs(), st.integers(-2, 1))
def test_edge_values_reach_no_comparison(pair, w):
    # why the theorem checks may compare known-only tables
    a, b = pair

    def results(x, y):
        return (x.compare(y), y.compare(x), x.at_weight((w,)).compare(y.at_weight((w,))),
                x.forget_weight().compare(y.forget_weight()))

    expected = results(a, b)
    for x, y in ((_known_only(a), b), (a, _known_only(b)), (_known_only(a), _known_only(b))):
        assert results(x, y) == expected


def test_compare_visits_only_bins_that_hold_a_value(monkeypatch):
    # 1,000 edge-only bins, most of them inside the window, and six valued
    # bins: known to both, edge on one side, or beyond the window
    win = Window((-4, 4), ((-4, 4),), (0, 4))
    edge = {md(i, (w,), a) for i in range(-5, 5) for w in range(-5, 5) for a in range(10)}
    a = HilbertTable({md(0, (0,), 0): 1, md(1, (0,), 0): 2, md(2, (1,), 1): 1, md(5, (0,), 0): 3},
                     edge - {md(0, (0,), 0), md(1, (0,), 0), md(2, (1,), 1)}, win)
    b = HilbertTable({md(0, (0,), 0): 1, md(1, (0,), 0): 1, md(3, (2,), 2): 4},
                     {md(2, (1,), 1), md(4, (0,), 0)}, win)
    assert len(a.edge) == 997
    expected = _reference_compare(a, b), _reference_compare(b, a)
    assert all(expected[0])  # a mismatch, compared bins and masked bins

    calls = [0]
    contains = Window.contains

    def counting(self, m):
        calls[0] += 1
        return contains(self, m)

    monkeypatch.setattr(Window, "contains", counting)
    assert (a.compare(b), b.compare(a)) == expected
    valued = len(a.values.keys() | b.values.keys())
    assert calls[0] <= 2 * 2 * valued  # two comparisons, each at most twice per valued bin


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_rank_path_dims_equal_basis_dims(path):
    # the weight-0 loop model that `hh` tabulates: dim - rank(d out) - rank(d in)
    # must count the same classes as a kernel basis modulo an image basis
    P, T, _, tr = parse_instance(path.read_text())
    gc = _weight_zero_mixed(P, T, tr).base
    assert gc.bins
    for m in gc.all_bins():
        ker, im = kernel_basis(gc.diff_from(m)), image_basis(gc.diff_from(gc.d_source(m)))
        assert gc.h_dim(m) == len(ker) - len(im)


def _reference_shear(t):
    """The sweep `shear_aux_into_upow` replaced: each target sums its sources
    across the aux window, and is edge if one of them is not known."""
    vals, edge = {}, set()
    lo_a, hi_a = t.window.aux
    targets = {(m.cohdeg, m.weight, m.upow + m.aux) for m in list(t.values) + list(t.edge)}
    for p in range(t.window.upow[0], t.window.upow[1] + 1):
        targets.update((m.cohdeg, m.weight, p) for m in t.values)
    for i, w, p in sorted(targets):
        srcs = [Multidegree(i, w, a, p - a) for a in range(lo_a, hi_a + 1)]
        total = sum(t.dim(src) for src in srcs)
        if total:
            vals[Multidegree(i, w, 0, p)] = total
        if not all(t.known(src) for src in srcs):
            edge.add(Multidegree(i, w, 0, p))
    return vals, edge


def _assert_shear_equals_reference(t):
    sheared = t.shear_aux_into_upow()
    assert (sheared.values, sheared.edge) == _reference_shear(t)
    assert sheared.window == Window(t.window.cohdeg, t.window.weight, (0, 0), t.window.upow)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shear_equals_the_sweep_on_the_cartan_tables(path):
    # the tables hp-completion shears: Tate of each Cartan tower level
    inst = LocalizationInstance(*parse_instance(path.read_text()))
    tr = inst.truncation
    rhs = cartan_augmentation_tower(cartan_model(inst.fixed, inst.T), tr.tower_levels, tr.aux_max)
    for n in range(1, tr.tower_levels + 1):
        t = tate(rhs.level(n), tr.u_window).cohomology()
        assert t.edge and t.values
        _assert_shear_equals_reference(t)


def test_shear_reads_a_value_on_an_edge_bin():
    # the row (0, (0,)) holds a value only at the edge bin (0, (0,), 1, 0):
    # with it, the shear marks the row's p = 0, whose source at aux 1 lies
    # below the u-window, edge; without it, that p is not a target at all.
    # So check_hp_completion shears a full Cartan table, not a known-only one
    win = Window((-2, 2), ((-2, 2),), (0, 1), (0, 2))
    edge_bin = md(0, (0,), 1, 0)
    full = HilbertTable({edge_bin: 1}, {edge_bin}, win)
    row_p0 = md(0, (0,), 0, 0)
    assert row_p0 in full.shear_aux_into_upow().edge
    assert row_p0 not in _known_only(full).shear_aux_into_upow().edge
    assert _known_only(full).shear_aux_into_upow().known(row_p0)


def test_shear_equals_the_sweep_on_random_tables():
    rng = random.Random(0)
    for _ in range(300):
        win = Window((-2, 1), ((-1, 1),), (rng.randint(0, 1), rng.randint(1, 3)),
                     (rng.randint(-2, 0), rng.randint(0, 3)))
        # bins a little beyond the window on every side, values, edges or both
        bins = [Multidegree(rng.randint(-3, 2), (rng.randint(-2, 2),), rng.randint(0, 4),
                            rng.randint(-3, 4)) for _ in range(rng.randint(0, 12))]
        t = HilbertTable({m: rng.randint(0, 3) for m in bins if rng.random() < 0.8},
                         {m for m in bins if rng.random() < 0.3}, win)
        _assert_shear_equals_reference(t)
