from fractions import Fraction

from pathlib import Path

import pytest

from loophh import mixed
from loophh.cli import build_parser, run_verb
from loophh.complexes import GradedComplex
from loophh.grading import Multidegree, Window, md
from loophh.linalg import (
    NotAComplex,
    SparseMatrix,
    image_basis,
    kernel_basis,
    quotient_pivots,
)
from loophh.mixed import (
    MixedComplex,
    bga_completed_preset,
    bga_polynomial_preset,
    coinvariants,
    s1_invariants_level,
    tate,
)
from loophh.scalars import CyclotomicField
from mixed_fixtures import direct_sum, random_mixed_complex

WIN = Window((-6, 6), ((-6, 6),), (0, 6))


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
    stored = len(mixed._COLUMN_MEMO)
    assert stored
    second = tate(bga_polynomial_preset(4), 2)
    assert second.cohomology().values == first.cohomology().values
    assert len(mixed._COLUMN_MEMO) == stored
    for key in _columns_and_predecessors(first):
        assert second._column(key) is first._column(key)


def test_one_memo_lifetime_reduces_each_column_content_once(monkeypatch):
    reduced = []

    def recording(M, _fn=mixed.column_leads):
        reduced.append(mixed._content_key(M))
        return _fn(M)

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
    ]


def _all_flavors(V):
    """Each of the three flavors at two windows."""
    for u in (1, 2):
        yield mixed.USeriesComplex(V, "invariants", (0, u))
        yield mixed.USeriesComplex(V, "coinvariants", (-u, 0))
        yield mixed.USeriesComplex(V, "tate", (-u, u))


def _columns_and_predecessors(us):
    keys = set()
    for tau, w, a in us.columns():
        keys |= {(tau, w, a), (tau - 1, w, a)}
    return sorted(keys)


def test_structural_column_keys_are_sound():
    # one memo lifetime: equal keys must mean equal matrices across every
    # complex, flavor and window, not only within one u-series complex
    mixed.clear_column_memo()
    content_of = {}
    checked = 0
    for V in _key_check_complexes():
        for us in _all_flavors(V):
            for key in _columns_and_predecessors(us):
                content = mixed._content_key(us._column_matrix(key))
                assert content_of.setdefault(us._column_key(key), content) == content
                checked += 1
    assert len(content_of) < checked  # keys recur, so the check has teeth


def test_column_h_equals_memo_free_recompute():
    mixed.clear_column_memo()
    for V in _key_check_complexes():
        for us in _all_flavors(V):
            for key in sorted(us.columns()):
                tau, w, a = key
                ker = kernel_basis(us._column_matrix(key))
                im = image_basis(us._column_matrix((tau - 1, w, a)))
                assert us._column_pivots(key) == sorted(quotient_pivots(ker, im))
                assert us._column_kernel(key) == ker
                assert us._column_image(key) == im


def test_each_column_key_is_built_once_per_complex(monkeypatch):
    # column tau's key is also the key of Dprev for column tau + 1
    built = []
    column_key = mixed.USeriesComplex._column_key

    def recording(self, key):
        built.append((id(self), key))
        return column_key(self, key)

    monkeypatch.setattr(mixed.USeriesComplex, "_column_key", recording)
    mixed.clear_column_memo()
    complexes = []
    for V in _key_check_complexes():
        for us in _all_flavors(V):
            complexes.append(us)  # alive, so no id is reused
            us.cohomology()
    assert built and len(set(built)) == len(built)


def test_block_tokens_are_never_reissued():
    mixed.clear_column_memo()
    block = SparseMatrix(1, 1, {(0, 0): Fraction(2)})
    before = mixed._block_token(block)
    assert mixed._block_token(SparseMatrix(1, 1, {(0, 0): Fraction(2)})) == before
    F = CyclotomicField(3)
    assert mixed._block_token(SparseMatrix(1, 1, {(0, 0): F.from_rational(2)})) != before

    old = tate(bga_polynomial_preset(4), 2)
    table = old.cohomology()
    assert mixed._COLUMN_MEMO and mixed._BLOCK_TOKENS
    mixed.clear_column_memo()
    assert not mixed._COLUMN_MEMO and not mixed._BLOCK_TOKENS
    assert mixed._block_token(block) != before

    # the same content after a clear gets fresh tokens, so keys built from
    # tokens issued before it cannot name the new columns
    new = tate(bga_polynomial_preset(4), 2)
    assert new.cohomology().values == table.values
    keys = sorted(old.columns())
    old_tokens = {t for k in keys for *_, t in old._column_key(k)[2]}
    new_tokens = {t for k in keys for *_, t in new._column_key(k)[2]}
    assert old_tokens and new_tokens and not old_tokens & new_tokens



def _record_basis_calls(monkeypatch):
    """Record (module, function, matrix, open checks) of every kernel_basis and
    image_basis call the engine makes.  Returns the record and a one-element
    counter of open induced-map checks, for the caller's wrappers to keep."""
    from loophh import complexes

    calls, open_checks = [], [0]
    for module in (mixed, complexes):
        for name in ("kernel_basis", "image_basis"):

            def recording(M, _fn=getattr(module, name), _at=(module.__name__, name)):
                calls.append((*_at, M, open_checks[0]))
                return _fn(M)

            monkeypatch.setattr(module, name, recording)
    return calls, open_checks


def test_tables_build_no_bases(monkeypatch):
    calls, _ = _record_basis_calls(monkeypatch)
    mixed.clear_column_memo()
    V = bga_polynomial_preset(5)
    assert tate(V, 3).cohomology().values
    assert V.base.cohomology().values
    assert calls == []


def test_localize_builds_kernels_only_for_induced_map_columns(monkeypatch):
    from loophh.complexes import ChainMap

    calls, open_checks = _record_basis_calls(monkeypatch)
    read = set()  # contents of the source columns useries_induced_iso reads

    def check(fn, record_reads=False):
        def wrapper(*args):
            if record_reads:
                us_src, us_tgt, _ = args
                for key in set(us_src.columns()) | set(us_tgt.columns()):
                    if not (us_src._column_is_edge(key) or us_tgt._column_is_edge(key)):
                        read.add(mixed._content_key(us_src._column_matrix(key)))
            open_checks[0] += 1
            try:
                return fn(*args)
            finally:
                open_checks[0] -= 1

        return wrapper

    monkeypatch.setattr(mixed, "useries_induced_iso",
                        check(mixed.useries_induced_iso, record_reads=True))
    monkeypatch.setattr(ChainMap, "induced_iso_everywhere",
                        check(ChainMap.induced_iso_everywhere))
    path = Path(__file__).resolve().parents[1] / "instances" / "01_line_gm_z2.loop"
    args = build_parser().parse_args(["localize", str(path)])
    _, code = run_verb("localize", args, path.read_text())
    assert code == 0
    kernels = [M for module, name, M, _ in calls if (module, name) == ("loophh.mixed", "kernel_basis")]
    assert kernels and read
    assert {mixed._content_key(M) for M in kernels} <= read
    assert all(depth for *_, depth in calls)
