from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loophh.grading import Multidegree, md
from loophh.mixed import bga_completed_preset, bga_polynomial_preset, s1_invariants_level, tate
from loophh.models import (
    AlgebraPresentation,
    SemifreeModel,
    TorusData,
    TorusPoint,
    cartan_model,
    fixed_points,
    loop_model,
    reduce_linear_relations,
)
from loophh.algebra import FreeAlgebra, Generator
from loophh.complexes import ChainMap
from loophh.instancefile import parse_instance
from loophh.linalg import SparseMatrix
from loophh.scalars import CyclotomicField
from loophh.towers import (
    _verify_eps_square,
    cartan_augmentation_tower,
    cech_local_cohomology,
    point_completion_tower,
    pro_graded_compare,
    tate_stabilization_report,
    torsion_completion_tower,
    torsion_laurent_module,
)


def laurent_line_model():
    """k[w^+-] as a loop model of a point modulo the rank-1 torus."""
    P = AlgebraPresentation([], rank=1)
    return loop_model(P, TorusData(1))


def test_point_tower_laurent_ring():
    V = laurent_line_model()
    z = TorusPoint.make([2])
    tower = point_completion_tower(V, z, 4, aux_max=2, weight_filter=(0,))
    for n in range(1, 5):
        t = tower.level(n).cohomology()
        assert t.values == {md(0, (0,), 0): n}
        assert not t.edge


def test_point_tower_h0_nondecreasing():
    V = laurent_line_model()
    z = TorusPoint.make([3])
    tower = point_completion_tower(V, z, 4, aux_max=1, weight_filter=(0,))
    dims = [tower.level(n).cohomology().dim(md(0, (0,), 0)) for n in range(1, 5)]
    assert dims == sorted(dims)
    assert all(b - a == 1 for a, b in zip(dims, dims[1:]))  # locally free of rank 1


def test_point_tower_root_of_unity_needs_cyclotomic():
    from loophh.scalars import BackendMismatch, CyclotomicField

    V = laurent_line_model()
    z = TorusPoint.make([(1, Fraction(1, 3))])
    with pytest.raises(BackendMismatch):
        point_completion_tower(V, z, 2, aux_max=1, weight_filter=(0,))
    F = CyclotomicField(3)
    tower = point_completion_tower(V, z, 2, aux_max=1, weight_filter=(0,), backend=F)
    assert tower.level(2).cohomology().dim(md(0, (0,), 0)) == 2


def _nonzero_blocks(mats):
    return {m: (b.nrows, b.ncols, b.entries) for m, b in mats.items() if b.entries}


def _label_quotient(src, tgt):
    """Level n+1 -> level n: a label survives verbatim or maps to zero."""
    blocks = {}
    for m, labels in src.base.bins.items():
        tpos = {lbl: i for i, lbl in enumerate(tgt.base.labels(m))}
        ent = {(tpos[lbl], j): 1 for j, lbl in enumerate(labels) if lbl in tpos}
        if ent:
            blocks[m] = SparseMatrix(tgt.base.dim(m), len(labels), ent)
    return ChainMap(src.base, tgt.base, blocks)


def assert_tower_matches_per_level_build(model, z, N, aux_max, backend=None):
    """Every derived level equals the level instantiated on its own, and the
    label quotients between levels are chain maps commuting with eps."""
    wf = (0,) * z.rank
    tower = point_completion_tower(model, z, N, aux_max, weight_filter=wf, backend=backend)
    assert tower.depth == N
    for n in range(1, N + 1):
        got = tower.level(n)
        want = model.at_torus_point_level(z, n, backend=backend).instantiate(
            aux_max, weight_filter=wf
        )
        assert got.base.bins == want.base.bins  # bins and label order
        assert _nonzero_blocks(got.base.diffs) == _nonzero_blocks(want.base.diffs)
        assert _nonzero_blocks(got.eps) == _nonzero_blocks(want.eps)
        assert got.base.edge == want.base.edge, n
        assert got.base.window == want.base.window
        assert got.base.aux_shift == want.base.aux_shift
    for n in range(1, N):
        src, tgt = tower.level(n + 1), tower.level(n)
        F = _label_quotient(src, tgt)
        F.verify_chain_map()
        _verify_eps_square(F, src, tgt)
    return tower


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "instances").glob("*.loop"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
@pytest.mark.parametrize("aux_max", [2, 4])
def test_point_tower_levels_equal_per_level_build(path, aux_max):
    P, T, z, _ = parse_instance(path.read_text())
    backend = CyclotomicField(z.conductor()) if z.conductor() > 1 else None
    for side in (P, reduce_linear_relations(fixed_points(P, z))):
        assert_tower_matches_per_level_build(loop_model(side, T), z, 5, aux_max, backend)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(1, 2)), min_size=2, max_size=3
    ),
    st.sampled_from([1, -1, 2, Fraction(1, 2)]),
    st.integers(1, 4),
)
def test_point_tower_levels_equal_per_level_build_generated(gens, zval, aux_max):
    P = AlgebraPresentation(
        [(f"x{i}", (w,), a) for i, (w, a) in enumerate(gens)], rank=1
    )
    assert_tower_matches_per_level_build(
        loop_model(P, TorusData(1)), TorusPoint.make([zval]), 5, aux_max
    )


def _aux_raising_model(laurent):
    """d x = (w - 1) y (or d x = y without w), raising aux by one, so the
    image of the top-aux bin leaves the window."""
    gens = [Generator("x", 0, (0,) * laurent, 1), Generator("y", 1, (0,) * laurent, 2)]
    if laurent:
        gens.append(Generator("w0", 0, (0,), 0, laurent=True))
    alg = FreeAlgebra(gens, laurent)
    coeff = alg.poly_gen("w0") - alg.poly_scalar(1) if laurent else alg.poly_scalar(1)
    return SemifreeModel(alg, {"x": coeff * alg.poly_gen("y")}, aux_shift_d=1,
                         laurent_names=("w0",) if laurent else ())


@pytest.mark.parametrize("zval, level1_edge", [(1, False), (2, True)])
def test_point_tower_levels_equal_per_level_build_aux_shift(zval, level1_edge):
    # at z = 1 the image t y of x is zero at level 1
    model = _aux_raising_model(1)
    tower = assert_tower_matches_per_level_build(model, TorusPoint.make([zval]), 5, 3)
    assert bool(tower.level(1).base.edge) == level1_edge
    assert all(tower.level(n).base.edge for n in range(2, 6))


def test_point_tower_rank0_levels_all_equal_top():
    tower = assert_tower_matches_per_level_build(_aux_raising_model(0), TorusPoint.make([]), 3, 3)
    assert all(tower.level(n).base.edge for n in range(1, 4))


def test_torsion_module_completion_shift_pattern():
    tower = torsion_completion_tower(cap=8, N=4)
    for n in range(1, 5):
        t = tower.level(n).cohomology()
        known = {m: v for m, v in t.values.items() if t.known(m)}
        assert known == {md(-1, (w,), 0): 1 for w in range(1 - n, 1)}


def test_cech_k_x_supported_in_degree_one():
    P = AlgebraPresentation([("x", (-1,), 1)], rank=1)
    model = SemifreeModel(P.ambient, {})
    C = cech_local_cohomology(model, ["x"], cap=6)
    C.check_complex()
    t = C.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {md(1, (a,), 0): 1 for a in range(1, 7)}
    assert all(m.cohdeg == 1 for m in known)


def test_cech_laurent_module_is_zero():
    alg = FreeAlgebra([Generator("x", 0, (-1,), 0, laurent=True)], 1)
    model = SemifreeModel(alg, {}, laurent_names=("x",))
    C = cech_local_cohomology(model, ["x"], cap=6)
    t = C.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {}


def test_cech_torsion_quotient():
    # k[x]/x: already (x)-torsion: local cohomology = k in degree 0
    P = AlgebraPresentation([("x", (-1,), 1)], rank=1)
    P.add_relation(P.ambient.poly_gen("x"))
    from loophh.models import koszul_model

    model = koszul_model(P)
    C = cech_local_cohomology(model, ["x"], cap=6)
    C.check_complex()
    t = C.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {md(0, (0,), 0): 1}


def test_pro_graded_compare_bga_presets():
    A = bga_polynomial_preset(6).cohomology()
    B = bga_completed_preset(6, 5).cohomology()
    weights = [(-m,) for m in range(0, 4)]
    report = pro_graded_compare(A, B, weights)
    assert all(r["equal"] and r["compared"] for r in report.values())
    # global tables differ in the uncapped direction
    mism, comp, masked = A.compare(B)
    assert not mism
    assert masked  # nonzero A-bins invisible to the truncated side


def test_pro_graded_self_compare():
    A = bga_polynomial_preset(4).cohomology()
    report = pro_graded_compare(A, A, [(-m,) for m in range(4)])
    assert all(r["equal"] for r in report.values())


def test_cartan_tower_point_mod_gm():
    P = AlgebraPresentation([], rank=1)
    cart = cartan_model(P, TorusData(1))
    tower = cartan_augmentation_tower(cart, 4, aux_max=6)
    for n in range(1, 5):
        t = tower.level(n).cohomology()
        vals = {m: v for m, v in t.values.items() if t.known(m)}
        assert vals == {md(0, (0,), s): 1 for s in range(n)}


def test_cartan_tower_stabilization():
    P = AlgebraPresentation([], rank=1)
    cart = cartan_model(P, TorusData(1))
    tower = cartan_augmentation_tower(cart, 4, aux_max=6)
    base = cart.instantiate(6, weight_filter=(0,))
    ok, failures = tate_stabilization_report(
        tower, base, Multidegree(0, (0,), 1, 0), u_window=3
    )
    assert ok, failures


def test_invariants_tower_levelwise_stabilization():
    # u-truncation towers stabilize per bin as the level grows
    V = bga_polynomial_preset(5)
    tables = [s1_invariants_level(V, n).cohomology() for n in range(1, 6)]
    for n in range(1, 5):
        lo, hi = tables[n - 1], tables[n]
        for m, v in lo.values.items():
            if m.upow <= n - 2:
                assert hi.dim(m) == v


def test_completion_tower_dispatcher_point():
    V = laurent_line_model()
    tower = point_completion_tower(V, TorusPoint.make([2]), 3, aux_max=1, weight_filter=(0,))
    assert tower.level(3).cohomology().dim(md(0, (0,), 0)) == 3


def test_completion_tower_dispatcher_homogeneous():
    P = AlgebraPresentation([], rank=1)
    cart = cartan_model(P, TorusData(1))
    tower = cartan_augmentation_tower(cart, 3, aux_max=5)
    t = tower.level(2).cohomology()
    vals = {m: v for m, v in t.values.items() if t.known(m)}
    assert vals == {md(0, (0,), 0): 1, md(0, (0,), 1): 1}


def test_regularity_evidence():
    from loophh.models import koszul_model, regularity_evidence

    P = AlgebraPresentation([("x", (1,), 1)], rank=1)
    P.add_relation(P.ambient.poly_gen("x"))
    P.add_relation(P.ambient.poly_gen("x"))
    bad = regularity_evidence(koszul_model(P), 3)
    assert bad and all(m.cohdeg < 0 for m in bad)
    Q = AlgebraPresentation([("x", (1,), 1)], rank=1)
    Q.add_relation(Q.ambient.poly_gen("x", 2))
    assert regularity_evidence(koszul_model(Q), 3) == []
