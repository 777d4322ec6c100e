"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from loophh.cyclic import connes_B, cyclic_bar, equivariant_cyclic_bar
from loophh.grading import Multidegree, md
from loophh.harness import (
    PASS,
    LocalizationInstance,
    Truncation,
    check_derived_fixed_fiber,
    check_hc_variants,
    check_hh_localization,
    check_hp_completion,
    check_unipotent_formal_tate,
)
from loophh.mixed import (
    bga_completed_preset,
    bga_polynomial_preset,
    s1_invariants_level,
    tate,
)
from loophh.models import (
    AlgebraPresentation,
    TorusData,
    TorusPoint,
    cartan_model,
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
from loophh.towers import (
    cartan_augmentation_tower,
    cech_local_cohomology,
    point_completion_tower,
    pro_graded_compare,
    torsion_completion_tower,
)
from mixed_fixtures import random_mixed_complex


def verdict(n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def line_gm():
    return AlgebraPresentation(
        [("x", (1,), 1)], rank=1, asserted_smooth=True, asserted_regular_sequence=True
    )


def plane_12():
    return AlgebraPresentation(
        [("x", (1,), 1), ("y", (2,), 1)], rank=1, asserted_smooth=True,
        asserted_regular_sequence=True,
    )


# -- criterion 1: A^1/G_m Hochschild localization ---------------------------------

def test_criterion_1_hh_localization():
    t0 = time.monotonic()
    P = line_gm()
    z = TorusPoint.make([2])
    inst = LocalizationInstance(P, TorusData(1), z, Truncation(tower_levels=4))
    ses = inst.session
    lhs, rhs, maps = ses.lhs, ses.rhs, ses.maps
    ok = True
    for n in range(1, 5):
        tl = lhs.level(n).cohomology()
        tr = rhs.level(n).cohomology()
        want = {md(0, (0,), 0): n}
        ok &= tl.values == want and not tl.edge
        ok &= tr.values == want and not tr.edge
        iso, _ = maps[n - 1].induced_iso_everywhere()
        ok &= iso
    rep = check_hh_localization(inst)
    ok &= rep.verdict == PASS
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    verdict(1, ok, f"H^0 dims 1..4 exact, map full rank, {elapsed:.2f}s")


# -- criterion 2: A^1/G_m HP completion (tu = s shear) ------------------------------

def test_criterion_2_hp_completion():
    P = line_gm()
    z = TorusPoint.make([2])
    tr = Truncation(tower_levels=4, u_window=4, aux_max=4, cohdeg_min=-6, cohdeg_max=6)
    inst = LocalizationInstance(P, TorusData(1), z, tr)

    lhs_model = loop_model(P, TorusData(1))
    lhs = point_completion_tower(lhs_model, z, 4, tr.aux_max, weight_filter=(0,))
    fixed = reduce_linear_relations(fixed_points(P, z))
    cart = cartan_model(fixed, TorusData(1))
    rhs = cartan_augmentation_tower(cart, 4, tr.aux_max)

    ok = True
    for n in range(1, 5):
        tl = tate(lhs.level(n), 4).cohomology()
        trt = tate(rhs.level(n), 4).cohomology().shear_aux_into_upow()
        mism, comp, _ = tl.compare(trt)
        ok &= not mism and bool(comp)
        for k in comp:
            if -6 <= k.cohdeg <= 6:
                ok &= tl.dim(k) == trt.dim(k)
        # the sheared B G_m tower collapses to dims n per safe u-power
        ok &= all(tl.dim(k) == n for k in comp if k.cohdeg == 0)
    rep = check_hp_completion(inst)
    ok &= rep.verdict == PASS
    verdict(2, ok, "sheared Cartan oracle of B G_m matches levelwise")


# -- criterion 3: fixed-locus jump instance ------------------------------------------

def test_criterion_3_fixed_locus_jump():
    P = plane_12()
    ok = True
    for zval, fixed_dims in ((-1, "line"), (3, "point")):
        z = TorusPoint.make([zval])
        inst = LocalizationInstance(P, TorusData(1), z, Truncation())
        ok &= check_hh_localization(inst).verdict == PASS
        ok &= check_hp_completion(inst).verdict == PASS
        rep = check_derived_fixed_fiber(inst)
        ok &= rep.verdict == PASS

    # exact HKR tables of the derived fiber
    from loophh.models import derived_fiber_model

    fib = derived_fiber_model(P, TorusData(1), TorusPoint.make([-1]))
    t = fib.instantiate(4).cohomology().forget_weight()
    want = {md(0, (), a): 1 for a in range(5)}
    want.update({md(-1, (), a): 1 for a in range(1, 5)})
    ok &= t.values == want

    fib3 = derived_fiber_model(P, TorusData(1), TorusPoint.make([3]))
    t3 = fib3.instantiate(4).cohomology().forget_weight()
    ok &= t3.values == {md(0, (), 0): 1}
    verdict(3, ok, "z = -1 (axis) and z = 3 (point): HH, HP, fiber vs HKR exact")


# -- criterion 4: unipotent vs formal Tate --------------------------------------------

def test_criterion_4_unipotent_formal():
    rep = check_unipotent_formal_tate(aux_max=6, truncation=5, u_window=3)
    ok = rep.verdict == PASS

    A = bga_polynomial_preset(6)
    B = bga_completed_preset(6, 5)
    tateA = tate(A, 3).cohomology()
    tateB = tate(B, 3).cohomology()
    pattern = {md(0, (0,), 0, p): 1 for p in range(-3, 4)}
    knownA = {m: v for m, v in tateA.values.items() if tateA.known(m)}
    ok &= knownA == pattern
    mism, comp, _ = tateA.compare(tateB)
    ok &= not mism and bool(comp)
    per = pro_graded_compare(A.cohomology(), B.cohomology(), [(-m,) for m in range(4)])
    ok &= all(r["equal"] and r["compared"] for r in per.values())
    verdict(4, ok, "pre-Tate differ, per-weight equal, Tate = k((u)) pattern")


# -- criterion 5: oracle equivalence (HKR vs bar) ---------------------------------------

def test_criterion_5_oracle_equivalence():
    P = line_gm()
    ok = True

    # plain pair: bar depth 5 >= aux 4 + 1, so all aux <= 4 bins are final
    L = cyclic_bar(P, N=5, aux_max=4)
    L.check_simplicial_identities()
    L.check_bar_laws()
    bar = connes_B(L)
    bar_t = bar.cohomology()
    hkr = odd_tangent_model(P).instantiate(4)
    hkr_t = hkr.cohomology()
    mism, comp, _ = bar_t.compare(hkr_t)
    ok &= not mism and bool(comp)
    expected = {md(0, (w,), w): 1 for w in range(5)}
    expected.update({md(-1, (w,), w): 1 for w in range(1, 5)})
    known = {m: v for m, v in bar_t.values.items() if bar_t.known(m)}
    ok &= known == expected

    # Connes B vs de Rham eps on cohomology: equal rank per bin
    for w in range(5):
        rb = bar.eps_induced_rank(md(0, (w,), w))
        rd = hkr.eps_induced_rank(md(0, (w,), w))
        ok &= rb == rd == (1 if w >= 1 else 0)

    # equivariant pair: (k[x], G_m) bar vs weight-0 loop model
    T = TorusData(1)
    LE = equivariant_cyclic_bar(P, T, N=5, aux_max=4, mu_cap=4)
    LE.check_simplicial_identities()
    LE.check_bar_laws()
    bare = connes_B(LE)
    bare_t = bare.cohomology()
    V = loop_model(P, T)
    inv = V.instantiate(4, laurent_cap=4, weight_filter=(0,))
    reg = regrade_by_group_exponent(inv, V)
    loop_t = reg.cohomology()
    mism, comp, _ = bare_t.compare(loop_t)
    ok &= not mism
    ok &= set(comp) >= {md(0, (mu,), 0) for mu in range(-4, 5)}
    for mu in range(-4, 5):
        ok &= bare.eps_induced_rank(md(0, (mu,), 0)) == reg.eps_induced_rank(md(0, (mu,), 0)) == 0
    verdict(5, ok, "bar = HKR bin-for-bin; B matches de Rham eps on H")


# -- criterion 6: structural law suite ------------------------------------------------

def _law_check_mixed(V, u_window=2):
    V.base.check_complex()
    V.check_mixed_laws()
    t = tate(V, u_window)
    t.cohomology()
    assert V.base.euler_consistent()
    ok, failures = t.u_map_bijective()
    assert ok, failures


def test_criterion_6_structural_laws():
    P = line_gm()
    z = TorusPoint.make([2])

    objects = []
    lhs = point_completion_tower(loop_model(P, TorusData(1)), z, 3, 3, weight_filter=(0,))
    objects += lhs.levels
    cart = cartan_model(AlgebraPresentation([], rank=1), TorusData(1))
    objects += cartan_augmentation_tower(cart, 3, 4).levels
    objects.append(bga_polynomial_preset(5))
    objects.append(odd_tangent_model(P).instantiate(4))

    for V in objects:
        _law_check_mixed(V)

    # bar-side laws (simplicial, cyclic, b/B) on the criterion-5 objects
    L = cyclic_bar(P, N=4, aux_max=3)
    L.check_simplicial_identities()
    L.check_bar_laws()
    bar = connes_B(L)
    bar.base.check_complex()
    bar.check_mixed_laws()
    LE = equivariant_cyclic_bar(P, TorusData(1), N=3, aux_max=2, mu_cap=3)
    LE.check_simplicial_identities()
    LE.check_bar_laws()

    # 50 randomized small mixed complexes
    for seed in range(50):
        V = random_mixed_complex(seed)
        _law_check_mixed(V)
    verdict(6, True, "all laws hold on criteria 1-5 objects and 50 random complexes")


# -- criterion 7: completion fixtures ---------------------------------------------------

def test_criterion_7_completion_fixtures():
    ok = True
    tower = torsion_completion_tower(cap=8, N=4)
    for n in range(1, 5):
        t = tower.level(n).cohomology()
        known = {m: v for m, v in t.values.items() if t.known(m)}
        ok &= known == {md(-1, (w,), 0): 1 for w in range(1 - n, 1)}

    P = AlgebraPresentation([("x", (-1,), 1)], rank=1)
    from loophh.models import SemifreeModel

    model = SemifreeModel(P.ambient, {})
    C = cech_local_cohomology(model, ["x"], cap=6)
    C.check_complex()
    t = C.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    ok &= known == {md(1, (a,), 0): 1 for a in range(1, 7)}
    ok &= all(m.cohdeg == 1 for m in known)
    verdict(7, ok, "derived completion shows the [1]-shift; Cech sits in cohdeg 1")


# -- criterion 8: stabilizer enumeration ---------------------------------------------------

def test_criterion_8_stabilizers():
    T = TorusData(1)
    ok = True
    subs = stabilizer_subgroups(T, [(1,)])
    ok &= [s.describe() for s in subs] == ["full torus", "trivial"]
    subs = stabilizer_subgroups(T, [(2,)])
    ok &= [s.describe() for s in subs] == ["full torus", "mu_2"]
    subs = stabilizer_subgroups(T, [(1,), (-1,)])
    ok &= [s.describe() for s in subs] == ["full torus", "trivial"]

    deleted, _ = localization_open_set(T, [(1,)], TorusPoint.make([2]))
    ok &= [s.describe() for s in deleted] == ["trivial"]
    deleted, _ = localization_open_set(T, [(1,)], identity_point(1))
    ok &= deleted == []
    # weights {2}, z = -1: every stabilizer contains -1 (mu_2 does), so
    # nothing is deleted and U is the whole torus
    deleted, kept = localization_open_set(T, [(2,)], TorusPoint.make([-1]))
    ok &= deleted == [] and any(s.describe() == "mu_2" for s in kept)

    # ten sample points of U: fixed-locus containment as relation sets
    samples = [
        TorusPoint.make([q])
        for q in (2, 3, -2, Fraction(1, 2), 5, -1, 7, Fraction(3, 2), -3, 4)
    ]
    for weights, zv in (([(1,)], 2), ([(2,)], -1), ([(1,), (-1,)], 3)):
        gens = [(f"x{i}", w, 1) for i, w in enumerate(weights)]
        P = AlgebraPresentation(gens, rank=1, asserted_smooth=True)
        z = TorusPoint.make([zv])
        deleted, _ = localization_open_set(T, weights, z)
        inside = [w for w in samples if point_in_open_set(w, deleted)]
        ok &= len(inside) >= 10 if not deleted else len(inside) > 0
        rel_z = fixed_points(P, z).bare_relation_names()
        for w in inside[:10]:
            rel_w = fixed_points(P, w).bare_relation_names()
            ok &= rel_z <= rel_w
    verdict(8, ok, "subgroup lists, open-set verdicts, containment on 10 samples")
