import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loophh import linalg, scalars
from loophh.linalg import (
    EchelonReducer,
    NotAComplex,
    SparseMatrix,
    apply_matrix,
    cohomology_dims,
    column_leads,
    image_basis,
    induced_rank,
    kernel_basis,
    quotient_pivots,
    quotient_rank,
    rank,
    rank_of_vectors,
    rref,
)
from loophh.scalars import BackendMismatch, CycElt, CyclotomicField, coerce, exact_div


def test_rank_trivial_examples():
    assert rank(SparseMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank(SparseMatrix.from_rows([[2, 4]])) == 1
    assert rank(SparseMatrix.identity(3)) == 3
    assert rank(SparseMatrix.zero(2, 5)) == 0


def test_rank_cyclotomic_vanishing_entry():
    F = CyclotomicField(3)
    z = F.zeta()
    M = SparseMatrix(1, 1, {(0, 0): 1 + z + z * z})
    assert rank(M) == 0


def test_kernel_canonical_normalization():
    # [[2,4]] -> canonical (1, -1/2)
    [v] = kernel_basis(SparseMatrix.from_rows([[2, 4]]))
    assert v == {0: Fraction(1), 1: Fraction(-1, 2)}

    assert kernel_basis(SparseMatrix.identity(3)) == []

    [v] = kernel_basis(SparseMatrix.from_rows([[1, 1], [1, 1]]))
    assert v == {0: Fraction(1), 1: Fraction(-1)}


def test_kernel_size_matches_rank():
    M = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert rank(M) == 2
    assert len(kernel_basis(M)) == 1


def test_cohomology_dims_examples():
    two = SparseMatrix.zero(0, 2)  # no outgoing rows
    zin = SparseMatrix.zero(2, 0)
    assert cohomology_dims(zin, two, "b") == 2

    d_out = SparseMatrix.from_rows([[1]])
    assert cohomology_dims(SparseMatrix.zero(1, 0), d_out, "b") == 0

    d_in = SparseMatrix.from_rows([[1], [0]])  # k -> k^2
    d_out = SparseMatrix.from_rows([[0, 1]])  # k^2 -> k
    assert cohomology_dims(d_in, d_out, "b") == 0


def test_not_a_complex_names_bin():
    d_in = SparseMatrix.from_rows([[1], [0]])
    d_out = SparseMatrix.from_rows([[1, 0]])
    with pytest.raises(NotAComplex) as ei:
        cohomology_dims(d_in, d_out, bin_name="(0, (1,), 2)")
    assert "(0, (1,), 2)" in str(ei.value)


def test_image_basis_and_quotient_rank():
    M = SparseMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
    basis = image_basis(M)
    assert len(basis) == 2
    # vector already in the image contributes nothing mod the image
    assert quotient_rank([{0: Fraction(1), 1: Fraction(2)}], basis, 3) == 0
    assert quotient_rank([{0: Fraction(1)}], basis, 3) == 1


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_transpose_invariant(rows):
    M = SparseMatrix.from_rows(rows)
    T = SparseMatrix(M.ncols, M.nrows, {(j, i): v for (i, j), v in M.entries.items()})
    assert rank(M) == rank(T)


def _random_invertible(n, rng):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = SparseMatrix.from_rows(rows)
        if rank(M) == n:
            return M


def test_cohomology_dims_basis_invariance():
    rng = random.Random(7)
    # complex k^2 --d_in--> k^3 --d_out--> k^2 with d_out d_in = 0
    d_in = SparseMatrix.from_rows([[1, 0], [0, 0], [0, 0]])
    d_out = SparseMatrix.from_rows([[0, 0, 1], [0, 0, 0]])
    base = cohomology_dims(d_in, d_out, "b")
    for _ in range(10):
        A = _random_invertible(2, rng)
        B = _random_invertible(3, rng)
        C = _random_invertible(2, rng)
        # conjugated complex: same cohomology
        d_in2 = B @ d_in @ A
        Binv_needed = cohomology_dims(d_in2, C @ d_out @ _inverse(B), "b")
        assert Binv_needed == base


def _inverse(M):
    n = M.nrows
    aug = M.hstack(SparseMatrix.identity(n))
    from loophh.linalg import rref

    pivot_cols, rows = rref(aug)
    assert pivot_cols == list(range(n)), "matrix not invertible"
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            if c >= n:
                ent[(r, c - n)] = v
    return SparseMatrix(n, n, ent)


def test_cyclotomic_kernel():
    F = CyclotomicField(4)
    i = F.zeta()
    # [[1, i]] has kernel spanned by (1, i) after normalization: (1, ?)
    [v] = kernel_basis(SparseMatrix(1, 2, {(0, 0): F.one(), (0, 1): i}))
    assert v[0] == F.one()
    assert v[1] == -i.inverse()  # -1/i = i... wait: x + i y = 0 => y = -x/i
    # check it is actually in the kernel
    assert (F.one() * v[0] + i * v[1]).is_zero()


_small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda ncols: st.lists(
            st.lists(st.one_of(st.just(Fraction(0)), _small_fractions),
                     min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=5,
        )
    )
)
def test_rank_rref_kernel_agree_with_sympy(rows):
    sympy = pytest.importorskip("sympy")
    S = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])
    M = SparseMatrix.from_rows(rows)
    ncols = len(rows[0])

    assert rank(M) == S.rank()

    R, spivots = S.rref()
    pivot_cols, prows = rref(M)
    assert tuple(pivot_cols) == spivots
    for k, row in enumerate(prows):
        assert [row.get(c, 0) for c in range(ncols)] == [Fraction(int(x.p), int(x.q)) for x in R.row(k)]

    basis = kernel_basis(M)
    assert len(basis) == len(S.nullspace())
    for vec in basis:
        assert apply_matrix(M, vec) == {}
        assert vec[min(vec)] == 1
    if basis:
        K = SparseMatrix(ncols, len(basis), {(i, j): v for j, vec in enumerate(basis) for i, v in vec.items()})
        assert rank(K) == len(basis)

    RT, _ = S.T.rref()
    expected_image = [[Fraction(int(x.p), int(x.q)) for x in RT.row(k)] for k in range(S.rank())]
    assert [[row.get(i, 0) for i in range(len(rows))] for row in image_basis(M)] == expected_image

    vectors = [{j: v for j, v in enumerate(r) if v} for r in rows]
    for k in range(len(rows) + 1):
        assert quotient_rank(vectors[:k], vectors[k:], ncols) == S.rank() - S[k:, :].rank()


def test_every_entry_point_rejects_mixed_conductors():
    a, b = CyclotomicField(3).zeta(), CyclotomicField(4).zeta()
    M = SparseMatrix(2, 2, {(0, 0): a, (1, 1): b})
    for f in (rank, kernel_basis, image_basis, column_leads):
        with pytest.raises(BackendMismatch):
            f(M)
    with pytest.raises(BackendMismatch):
        rank_of_vectors([{0: a}, {1: b}], 2)
    with pytest.raises(BackendMismatch):
        quotient_rank([{0: a}], [{1: b}], 2)
    with pytest.raises(BackendMismatch):
        induced_rank(SparseMatrix.zero(0, 1), SparseMatrix(1, 1, {(0, 0): a}),
                     SparseMatrix(1, 1, {(0, 0): b}))


def test_echelon_reducer_pivots_and_dependence():
    red = EchelonReducer()
    assert red.add({1: 2, 2: 3}) == 1
    assert red.rows[1] == {1: 2, 2: 3}  # kept whole, not divided by its pivot
    assert red.add({1: Fraction(-1), 2: Fraction(-3, 2)}) is None
    assert red.add({1: Fraction(1, 2), 2: Fraction(4), 3: Fraction(13, 2)}) == 2
    assert red.rows[2] == {2: 1, 3: 2}  # 2 * (1, 8, 13) - (2, 3, 0), over 13
    assert red.add({0: Fraction(2, 3), 2: Fraction(1, 3)}) == 0
    assert red.rows[0] == {0: 2, 2: 1}
    assert all(type(v) is int for row in red.rows.values() for v in row.values())
    assert red.add({}) is None
    assert red.add({3: Fraction(0)}) is None  # explicit zeros are not entries
    pivots, rows = red.reduced()
    assert pivots == [0, 1, 2]
    assert rows == [{0: 1, 3: -1}, {1: 1, 3: -3}, {2: 1, 3: 2}]
    assert red.rows[0] == {0: 2, 2: 1}  # reduced() leaves the rows as they were


def test_column_leads_and_rank_never_divide_over_a_cyclotomic_field(monkeypatch):
    F = CyclotomicField(3)
    z = F.zeta()
    M = SparseMatrix.from_rows([[2 + z, 3, z, 0],
                                [1, Fraction(1, 2), 2 * z, z * z],
                                [3 + 3 * z, 3 + Fraction(3, 2) * z, 0, 5]])
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(linalg, "exact_div", counted("exact_div", scalars.exact_div))
    monkeypatch.setattr(scalars, "exact_div", counted("exact_div", scalars.exact_div))
    monkeypatch.setattr(CycElt, "inverse", counted("inverse", CycElt.inverse))
    assert rank(M) == 3
    assert column_leads(M) == ((0,), (0, 1, 2))
    assert calls == []
    # the pivot-1 rows of the RREF are where the divisions are
    assert rref(M)[0] == [0, 1, 2] and calls


_Q3 = CyclotomicField(3)


def _scalar(backend, a, b):
    if backend == "Q":
        return Fraction(a, b or 1)
    return _Q3.from_rational(a) + _Q3.from_rational(b) * _Q3.zeta()


@st.composite
def _sparse_matrices(draw, backend=None, nrows=None, ncols=None):
    """Random sparse matrices over Q or Q(zeta3), zero and empty shapes included."""
    backend = backend or draw(st.sampled_from(["Q", "Q(zeta3)"]))
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    cells = [(i, j) for i in range(nrows) for j in range(ncols)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    ent = {c: _scalar(backend, draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
           for c in chosen}
    return SparseMatrix(nrows, ncols, ent)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_lead_sets_match_the_bases(M):
    kernel, image = column_leads(M)
    assert kernel == tuple(sorted(EchelonReducer(kernel_basis(M)).rows))
    assert len(kernel) == M.ncols - rank(M)
    assert image == tuple(sorted(min(v) for v in image_basis(M)))


def _columns_from(M, f):
    """The submatrix of M's columns f..ncols-1."""
    return SparseMatrix(M.nrows, M.ncols - f,
                        {(i, j - f): v for (i, j), v in M.entries.items() if j >= f})


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_leads_match_the_definition(M):
    # f leads a kernel vector exactly when col_f adds no rank to the columns
    # after it; the count and the image leads are checked above
    assert column_leads(M)[0] == tuple(
        f for f in range(M.ncols) if rank(_columns_from(M, f)) == rank(_columns_from(M, f + 1))
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lead_set_difference_equals_quotient_pivots(data):
    # I = im N inside K = ker M: N's columns are random combinations of a
    # kernel basis of M
    M = data.draw(_sparse_matrices())
    backend = "Q" if M.backend() is None else "Q(zeta3)"
    ker = kernel_basis(M)
    K = SparseMatrix(M.ncols, len(ker), {(i, k): v for k, vec in enumerate(ker) for i, v in vec.items()})
    N = K @ data.draw(_sparse_matrices(backend=backend, nrows=len(ker)))
    assert (M @ N).is_zero_matrix()
    expected = sorted(quotient_pivots(ker, image_basis(N)))
    assert sorted(set(column_leads(M)[0]) - set(column_leads(N)[1])) == expected


def _exact(values):
    """Ints, Fractions, or CycElts with such coefficients."""
    return all(type(v) is int or type(v) is Fraction or (type(v) is CycElt and _exact(v.coeffs))
               for v in values)


def _undo_row_scale(vec, r):
    """An image vector of the matrix with row r scaled by 1/3, with
    coordinate r scaled back and the lead coordinate renormalised to 1."""
    vec = {i: v * 3 if i == r else v for i, v in vec.items()}
    lead = vec[min(vec)]
    return {i: exact_div(v, lead) for i, v in vec.items()}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_and_fraction_entries_give_the_same_linear_algebra(data):
    nrows, ncols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    rows = [[data.draw(st.integers(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
    r = data.draw(st.integers(0, nrows - 1))
    k = data.draw(st.integers(0, nrows))
    forms = [
        rows,
        [[Fraction(v) for v in row] for row in rows],
        [[Fraction(v, 3) if i == r else v for v in row] for i, row in enumerate(rows)],
    ]
    # over Q(zeta3): entries v/d + w*zeta, those with w = 0 given as an int,
    # a Fraction or a CycElt, against every entry coerced into the field
    zetas = [[data.draw(st.integers(-2, 2)) for _ in range(ncols)] for _ in range(nrows)]
    dens = [[data.draw(st.sampled_from([1, 2])) for _ in range(ncols)] for _ in range(nrows)]
    mixed = [[_Q3.from_rational(Fraction(v, d)) + w * _Q3.zeta() if w
              else data.draw(st.sampled_from([v // d if v % d == 0 else Fraction(v, d),
                                              Fraction(v, d), _Q3.from_rational(Fraction(v, d))]))
              for v, w, d in zip(*cells)] for cells in zip(rows, zetas, dens)]
    forms += [mixed, [[coerce(v, _Q3) for v in row] for row in mixed]]
    results = []
    for form in forms:
        M = SparseMatrix.from_rows(form)
        vectors = [{j: v for j, v in enumerate(row) if v} for row in form]
        kernel, image = kernel_basis(M), image_basis(M)
        assert all(_exact(v.values()) for v in kernel + image)
        results.append((rank(M), column_leads(M), quotient_pivots(vectors[:k], vectors[k:]),
                        kernel, image))
    assert results[1] == results[0]
    # scaling a row keeps the rank, both lead sets, the row spans and the
    # kernel; the image is the old one with coordinate r scaled
    assert results[2][:4] == results[0][:4]
    assert [_undo_row_scale(v, r) for v in results[2][4]] == results[0][4]
    assert results[3] == results[4]


def _kernel_matrix(M):
    """A matrix whose columns are `kernel_basis(M)`."""
    ker = kernel_basis(M)
    return SparseMatrix(M.ncols, len(ker), {(i, k): v for k, vec in enumerate(ker) for i, v in vec.items()})


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_induced_rank_equals_the_basis_reference(data):
    # F is any matrix, not a chain map; half the time im B also holds part
    # of F(ker D), so the quotient is a real one
    D = data.draw(_sparse_matrices())
    backend = "Q" if D.backend() is None else "Q(zeta3)"
    F = data.draw(_sparse_matrices(backend=backend, ncols=D.ncols))
    B = data.draw(_sparse_matrices(backend=backend, nrows=F.nrows))
    if data.draw(st.booleans()):
        K = _kernel_matrix(D)
        B = B.hstack(F @ K @ data.draw(_sparse_matrices(backend=backend, nrows=K.ncols)))
    images = [apply_matrix(F, v) for v in kernel_basis(D)]
    assert induced_rank(D, F, B) == quotient_rank(images, image_basis(B), F.nrows)
