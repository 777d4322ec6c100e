import hashlib
from fractions import Fraction

import pytest

from loophh.grading import Multidegree, md
from loophh.linalg import NotAComplex
from loophh.models import (
    AlgebraPresentation,
    TorusData,
    loop_model,
    odd_tangent_model,
    regrade_by_group_exponent,
)
from loophh.cyclic import (
    BarElement,
    CyclicLevels,
    connes_B,
    cyclic_bar,
    equivariant_cyclic_bar,
)


def kx(weight=1):
    return AlgebraPresentation([("x", (weight,), 1)], rank=1, asserted_smooth=True)


def kx_trivial():
    return AlgebraPresentation([("x", (), 1)], rank=0, asserted_smooth=True)


def test_bar_of_ground_field():
    P = AlgebraPresentation([], rank=0)
    L = cyclic_bar(P, N=3, aux_max=0)
    L.check_simplicial_identities()
    L.check_bar_laws()
    V = connes_B(L)
    t = V.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {md(0, (), 0): 1}


def test_bar_kx_matches_hkr():
    P = kx()
    L = cyclic_bar(P, N=4, aux_max=3)
    L.check_simplicial_identities()
    L.check_bar_laws()
    V = connes_B(L)
    V.base.check_complex()
    V.check_mixed_laws()
    t = V.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    expected = {md(0, (w,), w): 1 for w in range(0, 4)}
    expected.update({md(-1, (w,), w): 1 for w in range(1, 4)})
    assert known == expected


def test_bar_connes_b_is_de_rham_rank():
    P = kx()
    L = cyclic_bar(P, N=4, aux_max=3)
    V = connes_B(L)
    # B: H^0(aux w) -> H^{-1}(aux w) has rank 1 for w >= 1 (de Rham under HKR)
    for w in range(1, 4):
        assert V.eps_induced_rank(md(0, (w,), w)) == 1
    assert V.eps_induced_rank(md(0, (0,), 0)) == 0


def test_bar_matches_odd_tangent_oracle():
    P = kx()
    L = cyclic_bar(P, N=4, aux_max=3)
    bar_t = connes_B(L).cohomology()
    # trivial-rank HKR oracle, regraded to the same rank-1 keys
    ot = odd_tangent_model(P).instantiate(3)
    hkr_t = ot.cohomology()
    mism, comp, _ = bar_t.compare(hkr_t)
    assert not mism and comp


def test_bar_nonsmooth_tail():
    P = kx()
    P.add_relation(P.ambient.poly_gen("x", 2))
    L = cyclic_bar(P, N=4, aux_max=5)
    L.check_simplicial_identities()
    L.check_bar_laws()
    t = connes_B(L).cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    # HH^{-n} nonzero for every n within the window: the non-smooth tail
    for n in range(0, 4):
        assert any(m.cohdeg == -n and v for m, v in known.items()), n


def test_equivariant_bar_point_mod_gm():
    P = AlgebraPresentation([], rank=1)
    L = equivariant_cyclic_bar(P, TorusData(1), N=3, aux_max=0, mu_cap=3)
    L.check_simplicial_identities()
    L.check_bar_laws()
    assert L.mu_preserved
    V = connes_B(L)
    t = V.cohomology()
    known = {m: v for m, v in t.values.items() if t.known(m)}
    assert known == {md(0, (mu,), 0): 1 for mu in range(-3, 4)}
    # B = 0 on cohomology: Laurent-ring spread
    for mu in range(-3, 4):
        assert V.eps_induced_rank(md(0, (mu,), 0)) == 0


def test_equivariant_bar_kx_level_zero():
    P = kx()
    L = equivariant_cyclic_bar(P, TorusData(1), N=0, aux_max=2, mu_cap=2)
    # C_0 = (k[x] (x) k[w^+-])^{wt 0} = k[w^+-]
    total = sum(len(ls) for ls in L.levels[0].values())
    assert total == 5  # mu in [-2, 2]


def test_equivariant_bar_matches_loop_model():
    P = kx()
    T = TorusData(1)
    L = equivariant_cyclic_bar(P, T, N=3, aux_max=2, mu_cap=3)
    bar_t = connes_B(L).cohomology()
    V = loop_model(P, T)
    inv = V.instantiate(2, laurent_cap=3, weight_filter=(0,))
    reg = regrade_by_group_exponent(inv, V)
    loop_t = reg.cohomology()
    mism, comp, _ = bar_t.compare(loop_t)
    assert not mism
    assert set(comp) >= {md(0, (mu,), 0) for mu in range(-3, 4)}


def test_equivariant_bar_bins_every_level_by_final_mu_flag():
    # level 0 holds only weight-0 monomials; level 1 holds x (x) y, which
    # turns the mu grading off, so level 0 must be binned without mu too
    P = AlgebraPresentation([("x", (1,), 1), ("y", (-1,), 1)], rank=1, asserted_smooth=True)
    L = equivariant_cyclic_bar(P, TorusData(1), N=3, aux_max=2, mu_cap=2)
    assert not L.mu_preserved
    assert all(m.weight == (0,) for level in L.levels for m in level)
    L.check_simplicial_identities()
    L.check_bar_laws()
    connes_B(L).cohomology()


def test_bar_depth_edge_flags():
    P = kx()
    L = cyclic_bar(P, N=2, aux_max=4)
    t = connes_B(L).cohomology()
    # aux 3, 4 bins at the truncation depth are edge; aux <= 2 are final
    assert any(m.aux > 2 and m.cohdeg == -2 in (True,) for m in t.edge) or t.edge
    for w in range(0, 3):
        assert t.known(md(0, (w,), w))


def test_equivariant_table_shift_invariant():
    # the Laurent module structure: the table is invariant under reindexing
    # w-powers (both b and B are linear over the group coordinate ring)
    P = kx()
    L = equivariant_cyclic_bar(P, TorusData(1), N=3, aux_max=2, mu_cap=4)
    t = connes_B(L).cohomology()
    for m, v in t.values.items():
        shifted = Multidegree(m.cohdeg, (m.weight[0] + 1,), m.aux, m.upow)
        if t.known(m) and t.known(shifted):
            assert t.dim(shifted) == v


def test_bar_plane_matches_odd_tangent():
    P = AlgebraPresentation(
        [("x", (1,), 1), ("y", (2,), 1)], rank=1, asserted_smooth=True
    )
    L = cyclic_bar(P, N=3, aux_max=2)
    L.check_bar_laws()
    bar_t = connes_B(L).cohomology()
    hkr_t = odd_tangent_model(P).instantiate(2).cohomology()
    mism, comp, _ = bar_t.compare(hkr_t)
    assert not mism
    assert md(-1, (3,), 2) in comp  # a genuinely 2-form-adjacent bin


def test_loop_model_trivial_group_matches_odd_tangent_plane():
    P = AlgebraPresentation(
        [("x", (), 1), ("y", (), 1)], rank=0, asserted_smooth=True
    )
    lm = loop_model(P, TorusData(0)).instantiate(3).cohomology()
    ot = odd_tangent_model(P).instantiate(3).cohomology()
    mism, comp, _ = lm.compare(ot)
    assert not mism and comp


def test_unnormalized_vs_normalized_ranks():
    # independent dual route: the unnormalized b-complex computes the same H
    P = kx()
    L = cyclic_bar(P, N=3, aux_max=2)
    from loophh.linalg import SparseMatrix, rank as mrank

    # unnormalized b = sum (-1)^i d_i at aux 2, read off the face tables
    def unnorm_matrix(n, aux):
        src = L.levels[n].get(md(-n, (aux,), aux), [])
        tgt = L.levels[n - 1].get(md(-n + 1, (aux,), aux), [])
        ent = {}
        for j, el in enumerate(src):
            for i, d in enumerate(L.faces[n]):
                k = d[L.number[n][el]]
                if k is not None:
                    key = (tgt.index(L.elements[n - 1][k]), j)
                    ent[key] = ent.get(key, 0) + (-1) ** i
        return SparseMatrix(len(tgt), len(src), {k: Fraction(v) for k, v in ent.items() if v})

    d1 = unnorm_matrix(1, 2)
    d2 = unnorm_matrix(2, 2)
    dim_c0 = len(L.levels[0].get(md(0, (2,), 2), []))
    dim_c1 = len(L.levels[1].get(md(-1, (2,), 2), []))
    h0 = (dim_c0 - 0) - mrank(d1)
    assert h0 == 1  # matches the normalized table
    assert dim_c1 - mrank(d1) - mrank(d2) == 1  # x dx


def test_bar_laws_catch_a_sign_error_in_connes_b(monkeypatch):
    L = cyclic_bar(kx(), N=4, aux_max=3)
    assert L.check_bar_laws()
    apply_B = CyclicLevels.apply_B

    def apply_B_odd_sign_flipped(self, el):
        terms, capped = apply_B(self, el)
        if el.level % 2:
            terms = [(-s, e) for s, e in terms]
        return terms, capped

    monkeypatch.setattr(CyclicLevels, "apply_B", apply_B_odd_sign_flipped)
    with pytest.raises(NotAComplex, match=r"bB \+ Bb != 0"):
        L.check_bar_laws()


def test_identity_checks_catch_a_wrong_face(monkeypatch):
    assert cyclic_bar(kx(), N=4, aux_max=3).check_simplicial_identities()
    face = CyclicLevels.face

    def face_wrong_pair(self, el, i):
        if el.level == 3 and i == 1:  # multiplies slots 2, 3 instead of 1, 2
            prod = self.mono_mul(el.monos[2], el.monos[3])
            return None if prod is None else BarElement(el.monos[:2] + (prod,), el.mu)
        return face(self, el, i)

    monkeypatch.setattr(CyclicLevels, "face", face_wrong_pair)
    L = cyclic_bar(kx(), N=4, aux_max=3)
    with pytest.raises(NotAComplex, match=r"d_\d d_\d"):
        L.check_simplicial_identities()


def test_identity_checks_catch_a_wrong_cyclic_operator(monkeypatch):
    cyclic_t = CyclicLevels.cyclic_t

    def t_swapping(self, el):
        if el.level == 2:  # swaps the last two slots instead of rotating
            a0, a1, a2 = el.monos
            return BarElement((a0, a2, a1), el.mu)
        return cyclic_t(self, el)

    monkeypatch.setattr(CyclicLevels, "cyclic_t", t_swapping)
    L = cyclic_bar(kx(), N=4, aux_max=3)
    with pytest.raises(NotAComplex, match=r"t\^\{n\+1\} != id"):
        L.check_simplicial_identities()


def test_bar_laws_catch_a_corrupt_face_entry():
    # d_2 of x(x)x(x)x(x)x redirected to d_0's target: the element has no unit
    # slot, so no B column and no bB + Bb check below level 3 reads it
    L = cyclic_bar(kx(), N=4, aux_max=4)
    assert L.check_bar_laws()
    x = (1,)
    e = L.number[3][BarElement((x, x, x, x), ())]
    L.faces[3][2][e] = L.faces[3][0][e]
    with pytest.raises(NotAComplex, match=r"b\^2 != 0"):
        L.check_bar_laws()


def _plane():
    return AlgebraPresentation([("x", (1,), 1), ("y", (2,), 1)], rank=1, asserted_smooth=True)


def _dual_numbers():
    P = kx()
    P.add_relation(P.ambient.poly_gen("x", 2))
    return P


# sha256 of connes_B(L).cohomology().serialize(), edge bins included
@pytest.mark.parametrize("build, digest", [
    (lambda: cyclic_bar(_plane(), N=4, aux_max=3),
     "f14d6f88a44ecd7d1dce383a96b99d7d465ecdcc33748b7b9d7bacadb8638eb2"),
    (lambda: cyclic_bar(_dual_numbers(), N=6, aux_max=6),
     "8666156eedaedf77551014221773b657ccdea8105ca163997a6b221ce257b9c8"),
    (lambda: equivariant_cyclic_bar(kx(), TorusData(1), N=4, aux_max=3, mu_cap=4),
     "63ef209622ca3dca4504c13fbe3da62b48d6a9df51fa6b9fba0f9de7bb64b6e2"),
    (lambda: cyclic_bar(_plane(), N=5, aux_max=4),
     "bb331995f3160972181af7bf28c24d0d55998b74908555994a57ede650f8188c"),
], ids=["plane N4 aux3", "k[x]/(x^2) N6 aux6", "equivariant k[x] N4 aux3 mu4",
        "plane N5 aux4"])
def test_oracle_tables_pinned(build, digest):
    table = connes_B(build()).cohomology().serialize()
    assert hashlib.sha256(table.encode()).hexdigest() == digest
