"""Sparse exact linear algebra: rank, lead sets, induced ranks.

Matrices act on column vectors; an (r x c) matrix maps k^c -> k^r.  Entries
are scalars from a single backend, and both backends are fields: rationals
(an int when integral, else a Fraction) or CycElt.  A stored integral
Fraction becomes an int, and every division goes through `exact_div`.  All
elimination goes through one `EchelonReducer`: each vector is reduced
against the rows kept so far by its lowest nonzero index, and kept if it
reaches a new pivot.  Reduction is fraction-free, as in Bareiss's
integer-preserving elimination: a kept row is a primitive vector over Z or
Z[zeta_m], integral coefficients with gcd 1, and a step replaces v by
a*v - b*row, with a the row's pivot and b v's entry there, so it never
divides.  Rank, the lead sets, quotient rank and induced rank read the
pivots alone.  No verb needs more: RREF, kernel and image bases, which
`reduced()` builds by scaling rows to pivot 1 and back-substituting, are
the tests' reference.  Kernel bases are echelonized and normalized so the
first nonzero coordinate is 1, making every output canonical and
reproducible.

The lead set of a subspace is {lowest index of v : v != 0 in it}.  It depends
only on the subspace, and an echelon basis has one vector per lead, so for
subspaces I <= K the classes of K / I sit at the leads of K that are not
leads of I: a Hilbert table needs lead sets, not bases.  One reduction of M's
columns, from the last column to the first, gives both lead sets of M
(`column_leads`).  Its pivots are the leads of the column space, whatever the
column order.  f is a lead of ker M exactly when col_f lies in the span of the
columns after it, which are what the reducer holds when col_f arrives: a
kernel vector with lowest coordinate f is such a relation, and such a relation
is a kernel vector with lowest coordinate f.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import BackendMismatch, common_backend, exact_div, is_zero, primitive, scalar_one


class NotAComplex(Exception):
    """d^2 != 0 (or a mismatched composition) at a named bin."""

    def __init__(self, bin_name, detail=""):
        self.bin_name = bin_name
        super().__init__(f"not a complex at bin {bin_name}: {detail}")


def _coerce_entry(x):
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


class SparseMatrix:
    """Immutable-by-convention sparse matrix with exact scalar entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = _coerce_entry(v)
                if is_zero(v):
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                self.entries[(i, j)] = v

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = ncols if ncols is not None else (len(rows[0]) if rows else 0)
        ent = {}
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                v = _coerce_entry(v)
                if not is_zero(v):
                    ent[(i, j)] = v
        return cls(nr, nc, ent)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(nrows, ncols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    # -- basics ---------------------------------------------------------------
    def backend(self):
        return common_backend(self.entries.values())

    def is_zero_matrix(self):
        return not self.entries

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        by_row = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, []).append((k, v))
        out = {}
        for (i, j), v in self.entries.items():
            for k, w in by_row.get(j, ()):
                key = (i, k)
                cur = out.get(key)
                out[key] = v * w if cur is None else cur + v * w
        out = {k: v for k, v in out.items() if not is_zero(v)}
        return SparseMatrix(self.nrows, other.ncols, out)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in addition")
        out = dict(self.entries)
        for k, v in other.entries.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return SparseMatrix(self.nrows, self.ncols, out)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"

    def columns(self):
        """Columns as list of dicts row -> value."""
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.ncols)] = v
        return SparseMatrix(self.nrows, self.ncols + other.ncols, ent)


# -- elimination --------------------------------------------------------------

def _check_backend(vectors):
    """Raise BackendMismatch unless all entries of `vectors` share one backend."""
    try:
        common_backend(v for vec in vectors for v in vec.values())
    except BackendMismatch as e:
        raise BackendMismatch(f"matrix entries: {e}") from e


def _axpy(row, coef, other):
    """row += coef * other in place, dropping the entries that become zero."""
    for c, v in other.items():
        cur = row.get(c)
        s = coef * v if cur is None else cur + coef * v
        if s:  # both backends are falsy exactly at zero
            row[c] = s
        else:
            row.pop(c, None)


class EchelonReducer:
    """Incremental echelon basis: `add` reduces a vector against the rows so far.

    Rows are keyed by their pivot (lowest) index.  Each is primitive: over Q a
    dict of ints with gcd 1, over Q(zeta_m) of CycElts whose integer
    coefficients have gcd 1.  No row is divided by its pivot until `reduced()`.
    """

    def __init__(self, vectors=()):
        self.rows = {}  # pivot index -> primitive row dict
        for vec in vectors:
            self.add(vec)

    def __len__(self):
        return len(self.rows)

    def add(self, vec):
        """Reduce a primitive copy of `vec` and keep it if independent.

        Returns its new pivot index, or None if it lies in the span so far.
        """
        vec = {c: v for c, v in vec.items() if v}
        if not vec:
            return None
        vec = primitive(vec)
        stepped = False
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                self.rows[lead] = primitive(vec) if stepped else vec
                return lead
            # vec <- a*vec - b*row, up to sign, for a the row's pivot and b
            # vec's entry there, over Z first divided by gcd(a, b)
            a, b = row[lead], vec[lead]
            if a == -1:  # vec + b*row
                b = -b
            elif a != 1:
                if type(a) is int and type(b) is int:
                    g = gcd(a, b)
                    a, b = a // g, b // g
                if a != 1:
                    for c, v in vec.items():
                        vec[c] = a * v
            _axpy(vec, -b, row)
            stepped = True
        return None

    def reduced(self):
        """(pivot columns, rows) of the RREF, by pivot: the rows scaled to
        pivot 1 and back-substituted, in new dicts."""
        pivots = sorted(self.rows)
        rows = []
        for pc in pivots:
            row = self.rows[pc]
            p = row[pc]
            rows.append(dict(row) if p == 1 else {c: exact_div(v, p) for c, v in row.items()})
        for idx in range(len(rows) - 1, 0, -1):
            pc, row = pivots[idx], rows[idx]
            for urow in rows[:idx]:
                coef = urow.get(pc)
                if coef is not None:
                    _axpy(urow, -coef, row)
        return pivots, rows


def _reduce(vectors):
    """An EchelonReducer of `vectors`, after the backend check."""
    vectors = list(vectors)
    _check_backend(vectors)
    return EchelonReducer(vectors)


def _rows(M: SparseMatrix):
    rows = [dict() for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    return rows


def rank(M: SparseMatrix) -> int:
    return len(_reduce(_rows(M)))


def rref(M: SparseMatrix):
    """Reduced row echelon form.

    Returns (pivot_cols, rows) with rows the normalized pivot rows as dicts,
    ordered by pivot column.  RREF is canonical, independent of pivoting.
    """
    return _reduce(_rows(M)).reduced()


def kernel_basis(M: SparseMatrix):
    """Echelonized right-kernel basis, canonically normalized.

    Each vector is a dict col -> value with its first (lowest-index) nonzero
    coordinate scaled to 1; vectors are ordered by free column.
    Size is always ncols - rank(M).
    """
    pivot_cols, rows = rref(M)
    pivset = set(pivot_cols)
    basis = []
    for f in range(M.ncols):
        if f in pivset:
            continue
        vec = {f: scalar_one(_sample(M))}
        for pc, row in zip(pivot_cols, rows):
            c = row.get(f)
            if c is not None:
                vec[pc] = -c
        lead = min(vec.keys())
        lv = vec[lead]
        if lv != 1:
            vec = {c: exact_div(v, lv) for c, v in vec.items()}
        basis.append(vec)
    return basis


def _sample(M: SparseMatrix):
    for v in M.entries.values():
        return v
    return 1


def image_basis(M: SparseMatrix):
    """Echelonized basis of the column space, as dicts row -> value.

    These are the rows of RREF(M^T), read off the reduced columns of M.
    """
    return _reduce(M.columns()).reduced()[1]


def column_leads(M: SparseMatrix):
    """(lead set of ker M, lead set of the column space of M) as sorted
    tuples, read off one reduction of M's columns from the last to the first.
    The kernel leads are the columns found dependent; there are
    ncols - rank(M) of them."""
    cols = M.columns()
    _check_backend(cols)
    reducer = EchelonReducer()
    kernel = [f for f in reversed(range(M.ncols)) if reducer.add(cols[f]) is None]
    return tuple(reversed(kernel)), tuple(sorted(reducer.rows))


def rank_of_vectors(vectors, dim) -> int:
    """Rank of a list of sparse vectors (dicts index -> value) in k^dim."""
    return len(_reduce(vectors))


def quotient_pivots(vectors, subspace):
    """Pivots of the images of `vectors` in k^n / span(subspace).

    Seeds one reducer with `subspace`, then adds `vectors` in order; each
    vector that gets a new pivot adds one class to the quotient, attributed
    to that pivot index.
    """
    vectors, subspace = list(vectors), list(subspace)
    _check_backend(vectors + subspace)
    reducer = EchelonReducer(subspace)
    return [p for p in map(reducer.add, vectors) if p is not None]


def quotient_rank(vectors, subspace, dim) -> int:
    """Rank of the images of `vectors` in k^dim / span(subspace)."""
    return len(quotient_pivots(vectors, subspace))


def induced_rank(D: SparseMatrix, F: SparseMatrix, B: SparseMatrix) -> int:
    """Rank of the map F induces from ker D to coker B, by one reduction.

    The columns of [[D, 0], [F, B]] whose D-part vanishes span
    F(ker D) + im B, and their leads are the column space's leads at or
    after D.nrows.  Seeded with B's columns, the reducer keeps rank B of
    those; each further one is a class of the image.  F need not be a
    chain map.
    """
    if F.ncols != D.ncols or F.nrows != B.nrows:
        raise ValueError(f"shape mismatch: D {D!r}, F {F!r}, B {B!r}")
    n = D.nrows
    cols = D.columns()
    for j, col in enumerate(F.columns()):
        cols[j].update((n + i, v) for i, v in col.items())
    im_b = [{n + i: v for i, v in col.items()} for col in B.columns()]
    return sum(p >= n for p in quotient_pivots(cols, im_b))


def cohomology_dims(d_in: SparseMatrix, d_out: SparseMatrix, bin_name="?") -> int:
    """dim ker(d_out) - rank(d_in) for a two-step piece d_in ; d_out.

    Requires codomain(d_in) == domain(d_out) and d_out . d_in == 0.
    """
    if d_in.nrows != d_out.ncols:
        raise NotAComplex(bin_name, f"domain mismatch {d_in.nrows} vs {d_out.ncols}")
    comp = d_out @ d_in
    if not comp.is_zero_matrix():
        raise NotAComplex(bin_name, "composition of differentials is nonzero")
    return (d_out.ncols - rank(d_out)) - rank(d_in)


def apply_matrix(M: SparseMatrix, vec):
    """M applied to a sparse column vector (dict col -> value)."""
    out = {}
    for (i, j), v in M.entries.items():
        c = vec.get(j)
        if c is None:
            continue
        cur = out.get(i)
        s = v * c if cur is None else cur + v * c
        out[i] = s
    return {i: v for i, v in out.items() if not is_zero(v)}
