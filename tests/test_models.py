import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loophh
from loophh import complexes, models

from loophh.algebra import Derivation
from loophh.cli import main
from loophh.grading import md
from loophh.instancefile import parse_instance
from loophh.models import (
    AlgebraPresentation,
    TorusData,
    TorusPoint,
    _hermite_normal_form,
    cartan_model,
    derived_fiber_model,
    fixed_points,
    identity_point,
    localization_open_set,
    loop_model,
    odd_tangent_model,
    point_in_open_set,
    reduce_linear_relations,
    regrade_by_group_exponent,
    stabilizer_subgroups,
)
from loophh.scalars import CycElt, CyclotomicField, coerce, exact_div, is_zero

ROOT = Path(__file__).resolve().parents[1]


def line(weight=1, rank=1):
    return AlgebraPresentation([("x", (weight,), 1)], rank=rank, asserted_smooth=True)


def plane(w1, w2):
    return AlgebraPresentation([("x", (w1,), 1), ("y", (w2,), 1)], rank=1, asserted_smooth=True)


# -- loop models -----------------------------------------------------------------

def test_loop_model_line_weight_one():
    P = line()
    V = loop_model(P, TorusData(1))
    V.check_symbolic()
    inv = V.instantiate(3, laurent_cap=4, weight_filter=(0,))
    reg = regrade_by_group_exponent(inv, V)
    assert reg is not None
    t = reg.cohomology()
    # weight-0 H = k[w^+-]: dim 1 per w-power in cohdeg 0, nothing else
    for mu in range(-4, 5):
        assert t.dim(md(0, (mu,), 0)) == 1
    assert all(m.cohdeg == 0 for m in t.values)
    assert not t.edge


def test_loop_model_point_bg():
    P = AlgebraPresentation([], rank=1)
    V = loop_model(P, TorusData(1))
    inv = V.instantiate(2, laurent_cap=3, weight_filter=(0,))
    reg = regrade_by_group_exponent(inv, V)
    t = reg.cohomology()
    assert {m for m in t.values} == {md(0, (mu,), 0) for mu in range(-3, 4)}


@pytest.mark.parametrize("path", [ROOT / "instances" / "05_plane_opposite_z3.loop",
                                  ROOT / "perfbench" / "instances" / "big3.loop"],
                         ids=lambda p: p.stem)
def test_regrading_refuses_before_it_moves_a_label(path, monkeypatch):
    # their weight-0 loop complexes couple unequal group exponents: the
    # entries decide that, and no label is moved first
    P, T, _, tr = parse_instance(path.read_text())
    V = loop_model(P, T)
    inv = V.instantiate(tr.aux_max, laurent_cap=tr.laurent_cap, weight_filter=(0,))

    def refuse(*args):
        raise AssertionError("regrading built a Relabelling")

    monkeypatch.setattr(complexes, "Relabelling", refuse)
    assert regrade_by_group_exponent(inv, V) is None


def test_loop_model_trivial_group_is_hkr():
    P2 = AlgebraPresentation([("x", (), 1)], rank=0, asserted_smooth=True)
    V = loop_model(P2, TorusData(0))
    V.check_symbolic()
    mc = V.instantiate(3)
    t = mc.cohomology()
    # odd tangent bundle of the line: k[x] + k[x]dx
    for a in range(4):
        assert t.dim(md(0, (), a)) == 1
    for a in range(1, 4):
        assert t.dim(md(-1, (), a)) == 1
    # mixed structure is the de Rham differential: rank 1 on H per aux >= 1
    assert mc.eps_induced_rank(md(0, (), 2)) == 1


def test_loop_model_mixed_weights():
    V = loop_model(plane(1, -1), TorusData(1))
    V.check_symbolic()
    inv = V.instantiate(2, laurent_cap=6, weight_filter=(0,))
    t = inv.cohomology()
    # the aux-2 column couples w-powers across the cap: must be edge-flagged
    assert t.is_edge(md(0, (0,), 2))
    # the derived fiber at the identity sees the honest class xy (HKR)
    fib = derived_fiber_model(plane(1, -1), TorusData(1), identity_point(1))
    tf = fib.instantiate(2, weight_filter=(0,)).cohomology()
    assert tf.dim(md(0, (0,), 2)) == 1
    assert not tf.is_edge(md(0, (0,), 2))


PLANE_XY = """\
[space]
generator x weight=1 aux=1
generator y weight=-1 aux=1
relation x*y
[group]
rank 1
[point]
z 3
[truncation]
aux_max 4
[assert]
smooth true
"""


def test_loop_model_of_a_relation(tmp_path, capsys):
    # the Koszul generator of x*y sits in cohdeg -1 at the relation's weight
    # and aux, d sends it to x*y, and eps is attached to neither x nor y,
    # which the relation involves
    P, T, _, _ = parse_instance(PLANE_XY)
    assert P.relation_support() == {"x", "y"}
    V = loop_model(P, T)
    V.check_symbolic()
    eta = V.alg.gens[V.alg.index["eta:0"]]
    assert (eta.cohdeg, eta.weight, eta.aux) == (-1, (0,), 2)
    assert V.d.images["eta:0"].terms == (V.alg.poly_gen("x") * V.alg.poly_gen("y")).terms
    assert not {"x", "y"} & V.eps.images.keys()
    f = tmp_path / "plane_xy.loop"
    f.write_text(PLANE_XY)
    assert main(["hh", str(f)]) == 0
    assert "HH table" in capsys.readouterr().out


# -- cartan models ------------------------------------------------------------

def test_cartan_point_mod_torus():
    P = AlgebraPresentation([], rank=1)
    V = cartan_model(P, TorusData(1))
    V.check_symbolic()
    t = V.instantiate(4, weight_filter=(0,)).cohomology()
    assert t.values == {md(0, (0,), s): 1 for s in range(5)}


def test_cartan_line_trivial_group():
    P = AlgebraPresentation([("x", (), 1)], rank=0, asserted_smooth=True)
    V = cartan_model(P, TorusData(0))
    V.check_symbolic()
    mc = V.instantiate(4)
    t = mc.cohomology()
    assert t.dim(md(0, (), 0)) == 1
    assert t.dim(md(-1, (), 3)) == 1
    assert mc.eps_induced_rank(md(0, (), 3)) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2), st.booleans()), max_size=3),
       st.integers(0, 4))
def test_rank0_cartan_model_is_the_odd_tangent_model(gens, aux_max):
    # with no torus, the Cartan model adds nothing to the forms: both models
    # come from one builder, bare relations reduced first
    P = AlgebraPresentation([(f"x{i}", (), a) for i, (a, _) in enumerate(gens)], rank=0)
    for i, (_, bare) in enumerate(gens):
        if bare:
            P.add_relation(P.ambient.poly_gen(f"x{i}"))
    hkr = odd_tangent_model(P).instantiate(aux_max)
    cart = cartan_model(P, TorusData(0)).instantiate(aux_max)

    def entries(mats):
        return {m: a.entries for m, a in mats.items()}

    assert cart.base.bins == hkr.base.bins
    assert entries(cart.base.diffs) == entries(hkr.base.diffs)
    assert entries(cart.eps) == entries(hkr.eps)
    assert cart.base.edge == hkr.base.edge
    assert cart.base.window == hkr.base.window


def test_cartan_line_weight_one_invariants():
    P = line()
    V = cartan_model(P, TorusData(1))
    V.check_symbolic()
    t = V.instantiate(4, weight_filter=(0,)).cohomology()
    # weight-0 part is the xi tower
    assert t.values == {md(0, (0,), s): 1 for s in range(5)}


# -- fixed points ----------------------------------------------------------------

def test_fixed_points_identity_keeps_presentation():
    P = plane(1, 2)
    Q = fixed_points(P, identity_point(1))
    assert not Q.relations
    assert [g.name for g in Q.generators] == ["x", "y"]


def test_fixed_points_minus_one():
    P = plane(1, 2)
    z = TorusPoint.make([-1])
    Q = fixed_points(P, z)
    assert Q.bare_relation_names() == {"x"}
    R = reduce_linear_relations(Q)
    assert [g.name for g in R.generators] == ["y"]


def test_fixed_points_root_of_unity():
    P = line(weight=2)
    z = TorusPoint.make([(1, Fraction(1, 2))])  # zeta_2
    Q = fixed_points(P, z)
    assert not Q.relations  # lambda(z) = zeta_2^2 = 1


def test_derived_fiber_at_2():
    P = line()
    z = TorusPoint.make([2])
    fib = derived_fiber_model(P, TorusData(1), z)
    t = fib.instantiate(3).cohomology()
    assert t.values == {md(0, (0,), 0): 1}


def test_derived_fiber_at_identity_is_hkr():
    P = line()
    fib = derived_fiber_model(P, TorusData(1), identity_point(1))
    mc = fib.instantiate(3)
    t = mc.cohomology()
    assert t.dim(md(0, (2,), 2)) == 1
    assert t.dim(md(-1, (2,), 2)) == 1
    # de Rham support got re-derived on the fiber
    assert mc.eps_induced_rank(md(0, (2,), 2)) == 1


# -- base change to k[t]/(t^n) ------------------------------------------------------

def _reference_w_power(zj, e, n, one):
    """(z + t)^e mod t^n, by repeated multiplication by z + t, or for e < 0
    by the truncated series z^-1 sum_i (-t/z)^i."""

    def trunc_mul(a, b):
        out = [0 * one] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if i + j < n:
                    out[i + j] = out[i + j] + x * y
        return out

    base = [zj, one]
    if e < 0:
        zinv = exact_div(one, zj)
        base, acc = [], zinv
        for _ in range(n):
            base.append(acc)
            acc = -acc * zinv
    out = [one] + [0 * one] * (n - 1)
    for _ in range(abs(e)):
        out = trunc_mul(out, base)
    return out


def _reference_image(poly, p, zj, n, one):
    out = {}
    for m, c in poly.terms.items():
        for k, ck in enumerate(_reference_w_power(zj, m[p], n, one)):
            mono = m[:p] + (k,) + m[p + 1:]
            out[mono] = out.get(mono, 0 * one) + c * ck
    return {m: v for m, v in out.items() if not is_zero(v)}


BASE_CHANGE_INSTANCES = sorted((ROOT / "instances").glob("*.loop")) + [
    ROOT / "perfbench" / "instances" / f"{name}.loop" for name in ("big3", "cyc3")
]


@pytest.mark.parametrize("path", BASE_CHANGE_INSTANCES, ids=lambda p: p.stem)
def test_base_change_matches_repeated_multiplication(path):
    P, T, z, _ = parse_instance(path.read_text())
    backend = None if z.conductor() == 1 else CyclotomicField(z.conductor())
    model = loop_model(P, T)
    (p,) = [model.alg.index[nm] for nm in model.laurent_names]
    zj, one = z.coordinate_scalar(0, backend), coerce(1, backend)
    for n in range(1, 5):
        based = model.at_torus_point_level(z, n, backend=backend)
        assert based.t_index == p and based.alg.gens[p].name == "t:0"
        for old, new in ((model.d, based.d), (model.eps, based.eps)):
            assert set(new.images) <= set(old.images)
            for name, poly in old.images.items():
                got = new.images[name].terms if name in new.images else {}
                assert got == _reference_image(poly, p, zj, n, one), (name, n)


def _instantiations(path):
    """(name, complex, edge depths) of every model the engine instantiates for
    an instance: the loop, Cartan and odd-tangent models at its window, and,
    for 01 and for cyc3 (a zeta(3) point), the loop model over k[t]/(t^3)."""
    P, T, z, tr = parse_instance(path.read_text())
    wf = (0,) * T.rank
    out = [
        ("loop", loop_model(P, T).instantiate(
            tr.aux_max, laurent_cap=tr.laurent_cap if T.rank else None, weight_filter=wf), None),
        ("cartan", cartan_model(P, T).instantiate(tr.aux_max, weight_filter=wf), None),
        ("odd tangent", odd_tangent_model(P).instantiate(tr.aux_max), None),
    ]
    if path.stem in ("01_line_gm_z2", "cyc3"):
        backend = None if z.conductor() == 1 else CyclotomicField(z.conductor())
        depths = {}
        mc = loop_model(P, T).at_torus_point_level(z, 3, backend=backend).instantiate(
            tr.aux_max, weight_filter=wf, edge_depths=depths)
        out.append(("level 3", mc, depths))
    return out


@pytest.mark.parametrize("path", sorted((ROOT / "instances").glob("*.loop"))
                         + [ROOT / "perfbench" / "instances" / "cyc3.loop"], ids=lambda p: p.stem)
def test_instantiate_equals_the_triple_product_assembly(path, monkeypatch):
    # the compiled term tables against D(x^e) as a Polynomial triple product
    from test_algebra import reference_apply_monomial

    shipped = _instantiations(path)
    monkeypatch.setattr(Derivation, "image_terms",
                        lambda D, exps: reference_apply_monomial(D, exps).terms)
    def entries(mats):
        return {m: a.entries for m, a in mats.items()}

    for (name, got, got_depths), (_, want, want_depths) in zip(shipped, _instantiations(path)):
        assert got.base.bins == want.base.bins, name
        assert entries(got.base.diffs) == entries(want.base.diffs), name
        assert entries(got.eps) == entries(want.eps), name
        assert got.base.edge == want.base.edge, name
        assert got_depths == want_depths, name
    if path.stem == "cyc3":  # the zeta(3) level has edge depths and cyclotomic entries
        _, mc, depths = shipped[-1]
        assert depths and any(isinstance(c, CycElt) for a in mc.base.diffs.values()
                              for c in a.entries.values())


# -- stabilizers ------------------------------------------------------------------

def test_stabilizers_weight_one():
    subs = stabilizer_subgroups(TorusData(1), [(1,)])
    assert [s.describe() for s in subs] == ["full torus", "trivial"]


def test_stabilizers_weight_two():
    subs = stabilizer_subgroups(TorusData(1), [(2,)])
    assert [s.describe() for s in subs] == ["full torus", "mu_2"]


def test_stabilizers_mixed():
    subs = stabilizer_subgroups(TorusData(1), [(1,), (-1,)])
    assert [s.describe() for s in subs] == ["full torus", "trivial"]


def _reference_stabilizer_lattices(weights, r):
    """One Hermite normal form per subset of the weights, as defined."""
    seen = set()
    for mask in range(1 << len(weights)):
        subset = [tuple(w) for i, w in enumerate(weights) if mask >> i & 1]
        seen.add(_hermite_normal_form(subset, r))
    return sorted(seen, key=lambda hnf: (len(hnf), hnf))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.tuples(*[st.integers(-4, 4)] * r), max_size=7))))
def test_stabilizers_equal_the_subset_definition(case):
    r, weights = case
    got = stabilizer_subgroups(TorusData(r), weights)
    assert [s.equations for s in got] == _reference_stabilizer_lattices(weights, r)


@pytest.mark.parametrize("weights, limit, want", [
    ([(1,)] * 24, 64, ["full torus", "trivial"]),
    ([(w,) for w in range(1, 25)], 400, ["full torus", "trivial"] + [f"mu_{d}" for d in range(2, 25)]),
], ids=["repeated", "distinct"])
def test_stabilizers_grow_with_lattices_not_subsets(weights, limit, want, monkeypatch):
    # 2^24 subsets, but 2 and 25 lattices
    calls = []

    def counted(rows, r):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError("a Hermite normal form per subset")
        return _hermite_normal_form(rows, r)

    monkeypatch.setattr(models, "_hermite_normal_form", counted)
    assert [s.describe() for s in stabilizer_subgroups(TorusData(1), weights)] == want


def _reference_hnf(rows, r):
    """The Hermite normal form as computed before the column-by-column rewrite."""
    mat = [list(row) for row in rows if any(row)]
    out = []
    col = 0
    while mat and col < r:
        cand = [row for row in mat if row[col]]
        if not cand:
            col += 1
            continue
        # reduce the column by gcd steps
        while True:
            cand = sorted((row for row in mat if row[col]), key=lambda rw: abs(rw[col]))
            if len(cand) <= 1:
                break
            a = cand[0]
            changed = False
            for row in cand[1:]:
                q = row[col] // a[col]
                if q:
                    for k in range(r):
                        row[k] -= q * a[k]
                    changed = True
            mat = [row for row in mat if any(row)]
            if not changed:
                break
        pivot_rows = [row for row in mat if row[col]]
        if pivot_rows:
            p = pivot_rows[0]
            if p[col] < 0:
                for k in range(r):
                    p[k] = -p[k]
            mat.remove(p)
            mat = [row for row in mat if not row[col] or _reference_reduce_row(row, p, col, r)]
            mat = [row for row in mat if any(row)]
            # reduce earlier pivots above this one
            for prev in out:
                q = prev[col] // p[col]
                if q:
                    for k in range(r):
                        prev[k] -= q * p[k]
            out.append(p)
        col += 1
    return tuple(tuple(row) for row in out)


def _reference_reduce_row(row, pivot, col, r):
    q = row[col] // pivot[col]
    for k in range(r):
        row[k] -= q * pivot[k]
    return True


_matrices = st.integers(1, 4).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(st.lists(st.integers(-7, 7), min_size=r, max_size=r), max_size=6),
    )
)


@settings(max_examples=200, deadline=None)
@given(_matrices)
def test_hermite_normal_form(case):
    r, rows = case
    hnf = _hermite_normal_form(rows, r)
    assert hnf == _reference_hnf(rows, r)
    # echelon rows with positive pivots, and the entries above each pivot in [0, pivot)
    pivots = [next(c for c, v in enumerate(row) if v) for row in hnf]
    assert pivots == sorted(set(pivots))
    for i, (row, c) in enumerate(zip(hnf, pivots)):
        assert row[c] > 0
        assert all(0 <= prev[c] < row[c] for prev in hnf[:i])
    # every input row lies in the lattice the HNF rows span
    for row in rows:
        v = list(row)
        for h, c in zip(hnf, pivots):
            q, rem = divmod(v[c], h[c])
            assert rem == 0
            v = [a - q * b for a, b in zip(v, h)]
        assert not any(v)


def test_localization_open_set_examples():
    T = TorusData(1)
    z2 = TorusPoint.make([2])
    deleted, kept = localization_open_set(T, [(1,)], z2)
    assert [s.describe() for s in deleted] == ["trivial"]
    z1 = identity_point(1)
    deleted, kept = localization_open_set(T, [(1,)], z1)
    assert deleted == []
    # weights {2}, z = -1: mu_2 contains -1, so nothing is deleted and U = T
    zm1 = TorusPoint.make([-1])
    deleted, kept = localization_open_set(T, [(2,)], zm1)
    assert deleted == []
    assert any(s.describe() == "mu_2" for s in kept)


def test_open_set_membership_and_containment():
    T = TorusData(1)
    z = TorusPoint.make([2])
    P = line()
    deleted, _ = localization_open_set(T, [(1,)], z)
    samples = [TorusPoint.make([q]) for q in (2, 3, -2, Fraction(1, 2), 5, -1, 7, Fraction(3, 2), -3, 4)]
    inside = [w for w in samples if point_in_open_set(w, deleted)]
    assert len(inside) == 10
    base = {g.name for g in fixed_points(P, z).generators if g.name in fixed_points(P, z).bare_relation_names()}
    for w in inside:
        rel_w = fixed_points(P, w).bare_relation_names()
        assert base <= rel_w or rel_w == base


# d eps + eps d is nonzero on x, y and c; x comes first in generator order
_THREE_ANTICOMMUTE_FAILURES = """
from loophh.algebra import FreeAlgebra, Generator
from loophh.models import SemifreeModel
alg = FreeAlgebra([Generator("x", 0, (), 1), Generator("y", 0, (), 1), Generator("c", 1, (), 1)], 0)
c = alg.poly_gen("c")
model = SemifreeModel(alg, {"x": c, "y": c}, eps_images={"c": alg.poly_gen("x")})
try:
    model.check_symbolic()
except ValueError as e:
    print(e)
"""


@pytest.mark.parametrize("seed", ["0", "1", "2", "12345"])
def test_anticommute_failure_names_the_first_generator(seed):
    # a fresh interpreter per hash seed: set order must not pick the name
    src = str(Path(loophh.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _THREE_ANTICOMMUTE_FAILURES],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "d eps + eps d != 0 on generator x"
