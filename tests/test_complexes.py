from pathlib import Path

import pytest

from loophh.cli import _weight_zero_mixed
from loophh.complexes import ChainMap, GradedComplex, Relabelling
from loophh.instancefile import parse_instance
from loophh.grading import Window, md
from loophh.linalg import NotAComplex, SparseMatrix
from loophh.tables import HilbertTable

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
    C = GradedComplex({m0: ["a"]}, {}, WIN)
    D = GradedComplex({m0: ["b"]}, {}, WIN)
    F = ChainMap(C, D, {m0: SparseMatrix.from_rows([[2]])})
    F.verify_chain_map()
    ok, failures = F.induced_iso_everywhere()
    assert ok
    assert F.induced_rank(m0) == 1


def test_chain_map_detects_non_chain():
    m0 = md(0, (0,), 0)
    m1 = md(1, (0,), 0)
    C = GradedComplex({m0: ["a"], m1: ["b"]}, {m0: SparseMatrix.from_rows([[1]])}, WIN)
    D = GradedComplex({m0: ["a"], m1: ["b"]}, {}, WIN)
    F = ChainMap(C, D, {m0: SparseMatrix.identity(1), m1: SparseMatrix.identity(1)})
    with pytest.raises(NotAComplex):
        F.verify_chain_map()


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
    assert by_key.blocks(d, d_target) is None
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
    a = HilbertTable({md(0, (0,), 0): 1}, window=WIN)
    b = HilbertTable({md(0, (0,), 0): 1}, window=WIN)
    mism, comp, masked = a.compare(b)
    assert not mism and comp
    c = HilbertTable({md(0, (0,), 0): 2}, window=WIN)
    mism, _, _ = a.compare(c)
    assert mism
    d = HilbertTable({md(0, (0,), 0): 1}, edge={md(0, (0,), 0)}, window=WIN)
    mism, comp, masked = a.compare(d)
    assert not mism and masked == [md(0, (0,), 0)]


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "instances").glob("*.loop"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_rank_path_dims_equal_basis_dims(path):
    # the weight-0 loop model that `hh` tabulates: dim - rank(d out) - rank(d in)
    # must count the same classes as a kernel basis modulo an image basis
    P, T, _, tr = parse_instance(path.read_text())
    gc = _weight_zero_mixed(P, T, tr).base
    assert gc.bins
    for m in gc.all_bins():
        ker, im = gc.cohomology_data(m)
        assert gc.h_dim(m) == len(ker) - len(im)
