import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from loophh.algebra import Polynomial
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
    CAPPED,
    CyclicLevels,
    connes_B,
    cyclic_bar,
    equivariant_cyclic_bar,
)
from mixed_fixtures import LOCALIZE_CASES, localization_instance


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
    assert {m for m in t.edge if m.cohdeg == -2} == {
        md(-2, (w,), a) for w in range(5) for a in (3, 4)}
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


def _nonzero_blocks(mats):
    return {m: (b.nrows, b.ncols, b.entries) for m, b in mats.items() if b.entries}


def test_loop_model_trivial_group_matches_odd_tangent_plane():
    # on the plane and on the fixed locus of every instance `localize` is
    # checked on, as derived-fixed-fiber builds it (its generators under the
    # trivial group), the two models instantiate to one mixed complex; so
    # that check's "fiber vs L(fixed)" and "fiber vs HKR" lines compare the
    # fiber with one table twice
    plane = AlgebraPresentation([("x", (), 1), ("y", (), 1)], rank=0, asserted_smooth=True)
    cases = [(plane, 3)]
    for path in sorted({path for path, _ in LOCALIZE_CASES}):
        inst = localization_instance(path)
        fixed = AlgebraPresentation([(g.name, (), g.aux) for g in inst.fixed.generators],
                                    rank=0, asserted_smooth=True)
        cases.append((fixed, inst.truncation.aux_max))
    for P, aux_max in cases:
        lm = loop_model(P, TorusData(0)).instantiate(aux_max)
        ot = odd_tangent_model(P).instantiate(aux_max)
        assert lm.base.bins == ot.base.bins  # bins and label order
        assert _nonzero_blocks(lm.base.diffs) == _nonzero_blocks(ot.base.diffs)
        assert _nonzero_blocks(lm.eps) == _nonzero_blocks(ot.eps)
        assert (lm.base.edge, lm.base.window, lm.base.aux_shift) == \
            (ot.base.edge, ot.base.window, ot.base.aux_shift)
        mism, comp, _ = lm.cohomology().compare(ot.cohomology())
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
    # the laws hold by argument on the tables; a wrong B column is caught by
    # the generic law check of the mixed complex it builds
    L = cyclic_bar(kx(), N=4, aux_max=3)
    assert connes_B(L).check_mixed_laws()
    B_column = CyclicLevels._B_column

    def B_column_odd_sign_flipped(self, n, e):
        col, capped = B_column(self, n, e)
        if n % 2:
            col = {k: -v for k, v in col.items()}
        return col, capped

    monkeypatch.setattr(CyclicLevels, "_B_column", B_column_odd_sign_flipped)
    with pytest.raises(NotAComplex, match=r"d eps \+ eps d != 0") as err:
        connes_B(L).check_mixed_laws()
    assert err.value.bin_name == md(-2, (3,), 3)  # the first bin that fails


def test_identity_checks_catch_a_wrong_face():
    L = cyclic_bar(kx(), N=4, aux_max=3)
    assert L.check_simplicial_identities()

    def face_wrong_pair(el):  # d_1 of level 3 multiplies slots 2, 3 instead of 1, 2
        (a0, a1, a2, a3), mu = el
        p = _ref_mul(L, a2, a3)
        return None if p is None else ((a0, a1, p), mu)

    L.faces[3][1] = _ref_table(L, 3, 2, face_wrong_pair)
    with pytest.raises(NotAComplex, match=r"d_\d d_\d") as err:
        L.check_simplicial_identities()
    assert str(err.value).endswith("d_0 d_1 != d_0 d_0")  # the first identity that fails
    assert err.value.bin_name == md(-3, (1,), 1)


def test_identity_checks_catch_a_wrong_cyclic_operator():
    L = cyclic_bar(kx(), N=4, aux_max=3)

    def t_swapping(el):  # t of level 2 swaps the last two slots instead of rotating
        (a0, a1, a2), mu = el
        return (a0, a2, a1), mu

    L.t[2] = _ref_table(L, 2, 2, t_swapping)
    with pytest.raises(NotAComplex, match=r"t\^\{n\+1\} != id") as err:
        L.check_simplicial_identities()
    assert err.value.bin_name == md(-2, (1,), 1)


def _s_0_outside(monkeypatch, outside):
    """Send every image of s_0 on level 0 to outside(lex, elements of level 1)
    before the guard that numbers the lex tables reads it."""
    numbered = CyclicLevels._numbered

    def s_0_outside(self, n, level, lex, name, mus=None):
        if name == "s_0":
            lex = outside(lex, len(self.elements[level]))
        return numbered(self, n, level, lex, name, mus)

    monkeypatch.setattr(CyclicLevels, "_numbered", s_0_outside)


def test_tables_reject_an_image_outside_the_level(monkeypatch):
    _s_0_outside(monkeypatch, lambda lex, size: [size] * len(lex))  # one past the level
    with pytest.raises(NotAComplex, match="s_0 leaves level 1") as err:
        cyclic_bar(kx(), N=2, aux_max=2)
    assert err.value.bin_name == md(0, (0,), 0)  # the first element of level 0


@pytest.mark.parametrize("build, outside, bin_name", [
    (lambda: cyclic_bar(kx(), N=2, aux_max=2), lambda lex, size: [-2] * len(lex), md(0, (0,), 0)),
    # tuple 1 of level 1 is 1 (x) x, of weight 1: no element of the level
    (lambda: equivariant_cyclic_bar(kx(), TorusData(1), N=2, aux_max=2, mu_cap=1),
     lambda lex, size: [1] * len(lex), md(0, (-1,), 0)),
], ids=["below -1", "a tuple of nonzero weight"])
def test_tables_reject_an_image_below_the_level_or_of_nonzero_weight(monkeypatch, build,
                                                                     outside, bin_name):
    _s_0_outside(monkeypatch, outside)
    with pytest.raises(NotAComplex, match="s_0 leaves level 1") as err:
        build()
    assert err.value.bin_name == bin_name


def test_bar_laws_catch_a_corrupt_face_entry():
    # d_2 of x(x)x(x)x(x)x redirected to d_0's target x^2(x)x(x)x: t fixes the
    # element and t d_1 sends it to x(x)x(x)x^2, so d_2 t = t d_1 fails at level 3
    L = cyclic_bar(kx(), N=4, aux_max=4)
    assert L.check_bar_laws()
    x = L.A_basis.index((1,))
    e = L.number[3][((x, x, x, x), ())]
    L.faces[3][2][e] = L.faces[3][0][e]
    with pytest.raises(NotAComplex, match=r"d_2 t != t d_1"):
        L.check_bar_laws()


def test_bar_laws_catch_a_rotation_in_the_wrong_direction():
    L = cyclic_bar(kx(), N=4, aux_max=3)

    def t_backwards(el):  # a_0 to the back: t^{-1}, so t^{n+1} = id still
        monos, mu = el
        return monos[1:] + monos[:1], mu

    for n in range(L.N + 1):
        L.t[n] = _ref_table(L, n, n, t_backwards)
    assert L.check_simplicial_identities()
    with pytest.raises(NotAComplex, match=r"d_1 t != t d_0") as err:
        L.check_bar_laws()
    assert err.value.bin_name == md(-2, (1,), 1)  # level 1 has t^{-1} = t


def test_bar_laws_catch_a_last_face_without_its_twist():
    L = equivariant_cyclic_bar(_opposite_plane(), TorusData(1), N=3, aux_max=2, mu_cap=2)

    def face_untwisted(el):  # d_n leaves mu as it is
        monos, mu = el
        p = _ref_mul(L, monos[-1], monos[0])
        return None if p is None else ((p,) + monos[1:-1], mu)

    for n in range(1, L.N + 1):
        L.faces[n][n] = _ref_table(L, n, n - 1, face_untwisted)
    assert L.check_simplicial_identities()
    with pytest.raises(NotAComplex, match=r"d_0 t != d_1") as err:
        L.check_bar_laws()
    assert err.value.bin_name == md(-1, (0,), 2)


def test_identity_checks_catch_a_corrupt_last_degeneracy_entry():
    L = cyclic_bar(kx(), N=4, aux_max=3)
    assert L.check_simplicial_identities()
    x = L.A_basis.index((1,))
    e = L.number[2][((x, x, x), ())]
    L.s[2][2][e] = L.s[2][1][e]  # x(x)x(x)1(x)x for x(x)x(x)x(x)1
    with pytest.raises(NotAComplex, match=r"d s_2 != id") as err:
        L.check_simplicial_identities()
    assert err.value.bin_name == md(-2, (3,), 3)


@pytest.mark.parametrize("field, kwargs", [
    ("aux_max", {"aux_max": -1}),
    ("mu_cap", {"aux_max": 2, "mu_cap": -1}),
])
def test_levels_reject_a_negative_window(field, kwargs):
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        CyclicLevels(kx(), TorusData(1), N=2, **kwargs)


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


# -- reference: Loday's element-level definitions ----------------------------------
# Each acts on one (exponent tuples, mu) element and returns an element, None (a
# product hits a relation) or CAPPED (mu leaves the box).  B uses the extra
# degeneracy as the unit in front, not through t s_n.  Elements of the tables
# are (codes, mu), a code being a monomial's index in the sorted A_basis.

def _decode(L, el):
    return tuple(L.A_basis[c] for c in el[0]), el[1]


def _ref_number(L, level, image):
    if image is None or image is CAPPED:
        return image
    return L.number[level][(tuple(L.A_basis.index(m) for m in image[0]), image[1])]


def _ref_unit(L):
    return (0,) * len(L.gens)


def _ref_aux(L, a):
    return sum(e * g.aux for e, g in zip(a, L.gens))


def _ref_weight(L, a):
    return tuple(sum(e * g.weight[k] for e, g in zip(a, L.gens)) for k in range(L.rank))


def _ref_mul(L, a, b):
    m = tuple(x + y for x, y in zip(a, b))
    return None if any(all(e >= r for e, r in zip(m, rel)) for rel in L.relation_monos) else m


def _ref_shift(L, mu, a):
    if not L.equivariant:
        return mu
    mu = tuple(x + w for x, w in zip(mu, _ref_weight(L, a)))
    return CAPPED if any(abs(x) > L.mu_cap for x in mu) else mu


def _ref_face(L, el, i):
    monos, mu = el
    n = len(monos) - 1
    if i < n:
        p = _ref_mul(L, monos[i], monos[i + 1])
        return None if p is None else (monos[:i] + (p,) + monos[i + 2:], mu)
    p = _ref_mul(L, monos[n], monos[0])
    if p is None:
        return None
    mu = _ref_shift(L, mu, monos[n])
    return CAPPED if mu is CAPPED else ((p,) + monos[1:n], mu)


def _ref_t(L, el):
    monos, mu = el
    mu = _ref_shift(L, mu, monos[-1])
    return CAPPED if mu is CAPPED else ((monos[-1],) + monos[:-1], mu)


def _ref_degeneracy(L, el, j):
    monos, mu = el
    return (monos[:j + 1] + (_ref_unit(L),) + monos[j + 1:], mu)


def _ref_B(L, el):
    """(1 - lambda) s_{-1} N, lambda = (-1)^n t: ({element: coefficient}, capped)."""
    n = len(el[0]) - 1
    sign_n = (-1) ** n
    out, capped, sign = {}, False, 1
    for _ in range(n + 1):
        front = ((_ref_unit(L),) + el[0], el[1])
        out[front] = out.get(front, 0) + sign
        rotated = _ref_t(L, front)
        if rotated is CAPPED:
            capped = True
        else:
            out[rotated] = out.get(rotated, 0) + sign * sign_n
        el = _ref_t(L, el)
        if el is CAPPED:
            capped = True
            break
        sign *= sign_n
    return {k: v for k, v in out.items() if v}, capped


def _ref_table(L, n, level, image):
    """The numbers in `level` of the images of the elements of level n under
    `image`, which acts on (exponent tuples, mu)."""
    return [_ref_number(L, level, image(_decode(L, el))) for el in L.elements[n]]


def _ref_tuples(L, n):
    """The (n + 1)-tuples of monomials of total aux <= aux_max."""
    tuples = [()]
    for _ in range(n + 1):
        tuples = [t + (m,) for t in tuples for m in L.A_basis
                  if sum(_ref_aux(L, a) for a in t + (m,)) <= L.aux_max]
    return tuples


def _ref_mu_preserved(L):
    """mu grades the levels unless a tuple of total weight 0 holds a monomial
    of nonzero weight."""
    for n in range(L.N + 1 if L.equivariant else 0):
        for monos in _ref_tuples(L, n):
            weights = [_ref_weight(L, a) for a in monos]
            if not any(map(sum, zip(*weights))) and any(map(any, weights)):
                return False
    return True


def _ref_level(L, n):
    """Every element of level n with its bin, from the exponent tuples."""
    out = {}
    for monos in _ref_tuples(L, n):
        aux = sum(_ref_aux(L, a) for a in monos)
        weight = tuple(map(sum, zip(*(_ref_weight(L, a) for a in monos))))
        if not L.equivariant:
            out[(monos, ())] = Multidegree(-n, weight, aux, 0)
        elif not any(weight):
            for mu in L._mu_box():
                w = mu if L.mu_preserved else (0,) * L.rank
                out[(monos, mu)] = Multidegree(-n, w, aux, 0)
    return out


# `caps`: whether some face, t or B column leaves the mu box, so the CAPPED
# rule is compared too
_TABLE_CASES = pytest.mark.parametrize("build, caps", [
    (lambda: cyclic_bar(_plane(), N=4, aux_max=3), False),
    (lambda: cyclic_bar(_dual_numbers(), N=6, aux_max=6), False),
    (lambda: equivariant_cyclic_bar(kx(), TorusData(1), N=4, aux_max=3, mu_cap=4), False),
    (lambda: equivariant_cyclic_bar(
        AlgebraPresentation([("x", (1,), 1), ("y", (-1,), 1)], rank=1, asserted_smooth=True),
        TorusData(1), N=3, aux_max=2, mu_cap=2), True),
    (lambda: cyclic_bar(_plane(), N=5, aux_max=4), False),
], ids=["plane N4 aux3", "k[x]/(x^2) N6 aux6", "equivariant k[x] N4 aux3 mu4",
        "x weight 1, y weight -1 mu2", "plane N5 aux4"])


@_TABLE_CASES
def test_tables_equal_the_element_level_definitions(build, caps):
    L = build()
    capped = False
    for n, elems in enumerate(L.elements):
        elems = [_decode(L, el) for el in elems]
        for i in range(n + 1 if n else 0):
            assert L.faces[n][i] == [_ref_number(L, n - 1, _ref_face(L, el, i)) for el in elems]
            capped |= CAPPED in L.faces[n][i]
        assert L.t[n] == [_ref_number(L, n, _ref_t(L, el)) for el in elems]
        capped |= CAPPED in L.t[n]
        if n == L.N:
            continue
        for j in range(n + 1):
            assert L.s[n][j] == [_ref_number(L, n + 1, _ref_degeneracy(L, el, j)) for el in elems]
        for e, el in enumerate(elems):
            col, cap = _ref_B(L, el)
            assert L._B_column(n, e) == ({_ref_number(L, n + 1, k): v for k, v in col.items()}, cap)
            capped |= cap
    assert capped == caps
    assert L.mu_preserved == (not caps)


def _deepest(P, aux_max, most):
    """The largest N <= 4 whose top level holds at most `most` tuples."""
    aux = cyclic_bar(P, 0, aux_max).mono_aux
    ways = [1] + [0] * aux_max  # tuples of each total aux, one level at a time
    for N in range(5):
        ways = [sum(ways[a - b] for b in aux if b <= a) for a in range(aux_max + 1)]
        if sum(ways) > most:
            return max(N - 1, 0)
    return 4


@settings(max_examples=150, deadline=None)
@given(gens=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)), min_size=1, max_size=3),
       relation=st.lists(st.integers(0, 2), max_size=3), aux_max=st.integers(0, 5),
       N=st.integers(0, 4), mu_cap=st.none() | st.integers(0, 3))
@example(gens=[(1, 1), (-1, 1)], relation=[], aux_max=3, N=3, mu_cap=1)  # mu collapses, caps
@example(gens=[(2, 1), (-1, 1), (0, 2)], relation=[0, 2, 1], aux_max=4, N=2, mu_cap=0)
def test_tables_equal_the_element_level_definitions_on_generated_presentations(
        gens, relation, aux_max, N, mu_cap):
    # 1-3 generators of weight -2..2 and aux 1-2, a monomial relation where
    # `relation` has a nonzero exponent; plain, or equivariant with mu_cap 0-3;
    # N is cut to the depth whose top level holds at most 120 tuples
    P = AlgebraPresentation([(f"x{i}", (w,), a) for i, (w, a) in enumerate(gens)],
                            rank=1, asserted_smooth=True)
    exps = tuple(relation + [0] * len(gens))[:len(gens)]
    if any(exps):
        P.add_relation(Polynomial(P.ambient, {exps: 1}))
    N = min(N, _deepest(P, aux_max, 120))
    L = (cyclic_bar(P, N, aux_max) if mu_cap is None
         else equivariant_cyclic_bar(P, TorusData(1), N, aux_max, mu_cap))
    assert L.mu_preserved == _ref_mu_preserved(L)
    for n, elems in enumerate(L.elements):
        assert elems == [el for ls in L.levels[n].values() for el in ls]
        assert {_decode(L, el): mdeg for mdeg, ls in L.levels[n].items() for el in ls} == \
            _ref_level(L, n)
        for ls in L.levels[n].values():
            assert [_decode(L, el) for el in ls] == sorted(_decode(L, el) for el in ls)
        for i in range(n + 1 if n else 0):
            assert L.faces[n][i] == _ref_table(L, n, n - 1, lambda el: _ref_face(L, el, i))
        assert L.t[n] == _ref_table(L, n, n, lambda el: _ref_t(L, el))
        for j in range(n + 1 if n < L.N else 0):
            assert L.s[n][j] == _ref_table(L, n, n + 1, lambda el: _ref_degeneracy(L, el, j))


@_TABLE_CASES
def test_bins_hold_their_elements_sorted_and_connes_labels_are_the_elements(build, caps):
    # the tuple builder emits each bin in lex order without a sort; decoded,
    # every bin is sorted, and connes_B labels its bins with the non-degenerate
    # elements in that order
    L = build()
    V = connes_B(L)
    for n, bins in enumerate(L.levels):
        ref = _ref_level(L, n)
        assert sorted(_decode(L, el) for el in L.elements[n]) == sorted(ref)
        for mdeg, ls in bins.items():
            decoded = [_decode(L, el) for el in ls]
            assert decoded == sorted(decoded)
            assert all(ref[el] == mdeg for el in decoded)
            labels = [el for el in decoded if _ref_unit(L) not in el[0][1:]]
            assert V.base.labels(mdeg) == labels


def _opposite_plane():
    return AlgebraPresentation([("x", (1,), 1), ("y", (-1,), 1)], rank=1, asserted_smooth=True)


def _law_faults(V):
    """The bins where d^2, eps^2 or d eps + eps d is nonzero."""
    gc = V.base
    faults = set(gc.d_squared_faults())
    for m in gc.all_bins():
        eps = V.eps_from(m)
        if not (V.eps_from(V.eps_target(m)) @ eps).is_zero_matrix():
            faults.add(m)
        d_then_eps = V.eps_from(gc.d_target(m)) @ gc.diff_from(m)
        if not (d_then_eps + gc.diff_from(V.eps_target(m)) @ eps).is_zero_matrix():
            faults.add(m)
    return faults


# the benchmark's three bar cases and the pinned builds; on the opposite-weight
# plane t leaves the mu box, so the laws fail on some bins, all of them edge
@pytest.mark.parametrize("build, caps", [
    (lambda: cyclic_bar(_plane(), N=4, aux_max=3), 0),
    (lambda: cyclic_bar(_plane(), N=5, aux_max=4), 0),
    (lambda: cyclic_bar(_dual_numbers(), N=6, aux_max=6), 0),
    (lambda: equivariant_cyclic_bar(kx(), TorusData(1), N=4, aux_max=3, mu_cap=4), 0),
    (lambda: equivariant_cyclic_bar(_opposite_plane(), TorusData(1), N=3, aux_max=2, mu_cap=1), 12),
    (lambda: equivariant_cyclic_bar(_opposite_plane(), TorusData(1), N=4, aux_max=4, mu_cap=2), 250),
], ids=["plane N4 aux3", "plane N5 aux4", "k[x]/(x^2) N6 aux6", "equivariant k[x] N4 aux3 mu4",
        "x weight 1, y weight -1 N3 aux2 mu1", "x weight 1, y weight -1 N4 aux4 mu2"])
def test_mixed_laws_fail_only_on_edge_bins_when_the_identities_hold(build, caps):
    L = build()
    assert L.check_simplicial_identities() and L.check_bar_laws()
    assert sum(row.count(CAPPED) for row in L.t) == caps
    V = connes_B(L)
    faults = _law_faults(V)
    assert faults <= V.base.edge
    assert bool(faults) == bool(caps)
