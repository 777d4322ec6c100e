"""Sparse exact linear algebra: rank, kernel bases, per-bin cohomology dims.

Matrices act on column vectors; an (r x c) matrix maps k^c -> k^r.  Entries
are Fraction or CycElt scalars from a single backend, and both backends are
fields.  Elimination is sparse Gauss elimination over the field with
deterministic pivoting: lowest remaining row index first, then lowest column.
Kernel bases are echelonized and normalized so the first nonzero coordinate
is 1, making every output canonical and reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import BackendMismatch, common_backend, is_zero, scalar_one


class NotAComplex(Exception):
    """d^2 != 0 (or a mismatched composition) at a named bin."""

    def __init__(self, bin_name, detail=""):
        self.bin_name = bin_name
        super().__init__(f"not a complex at bin {bin_name}: {detail}")


def _coerce_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


class SparseMatrix:
    """Immutable-by-convention sparse matrix with exact scalar entries."""

    __slots__ = ("nrows", "ncols", "entries", "row_labels", "col_labels")

    def __init__(self, nrows, ncols, entries=None, row_labels=None, col_labels=None):
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
        self.row_labels = row_labels
        self.col_labels = col_labels

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
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    # -- basics ---------------------------------------------------------------
    def backend(self):
        return common_backend(self.entries.values())

    def is_zero_matrix(self):
        return not self.entries

    def get(self, i, j):
        return self.entries.get((i, j), Fraction(0))

    def transpose(self):
        return SparseMatrix(
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
            row_labels=self.col_labels,
            col_labels=self.row_labels,
        )

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

    def scaled(self, c):
        c = _coerce_entry(c)
        if is_zero(c):
            return SparseMatrix.zero(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols, {k: c * v for k, v in self.entries.items()})

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        return self + (-other)

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

def _check_backend(M: SparseMatrix):
    try:
        return M.backend()
    except BackendMismatch as e:
        raise BackendMismatch(f"matrix entries: {e}") from e


def _forward_eliminate(M: SparseMatrix):
    """Sparse Gauss elimination over the field.

    Returns (pivots, rows) where pivots is a list of (row, col) in elimination
    order and rows is the final list of row dicts (col -> value); each pivot
    row is scaled so its pivot is 1.  Rows with no entry in the pivot column
    are left untouched.
    """
    _check_backend(M)
    rows = [dict() for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    active = list(range(M.nrows))
    pivots = []
    while True:
        pr = next((ri for ri in active if rows[ri]), None)
        if pr is None:
            break
        pc = min(rows[pr])
        pivots.append((pr, pc))
        active.remove(pr)
        prow = _scaled_to_one(rows[pr], pc)
        rows[pr] = prow
        for ri in active:
            row = rows[ri]
            coef = row.get(pc)
            if coef is not None:
                _axpy(row, -coef, prow)
    return pivots, rows


def _scaled_to_one(row, pc):
    """`row` divided by its entry at `pc`."""
    pval = row[pc]
    if pval == 1:
        return row
    return {c: _div(v, pval) for c, v in row.items()}


def _axpy(row, coef, other):
    """row += coef * other in place, dropping the entries that become zero."""
    for c, v in other.items():
        cur = row.get(c)
        s = coef * v if cur is None else cur + coef * v
        if s:  # both backends are falsy exactly at zero
            row[c] = s
        else:
            row.pop(c, None)


def _div(a, b):
    # Both backends are fields, so division is always exact.
    if isinstance(a, int):
        a = Fraction(a)
    return a / b


class EchelonReducer:
    """Incremental echelon basis: `add` reduces a vector against the rows so far.

    Rows are keyed by their pivot (lowest) index and scaled so the pivot is 1.
    """

    def __init__(self):
        self.rows = {}  # pivot index -> row dict (pivot scaled to 1)

    def add(self, vec):
        """Reduce `vec` (consumed) and keep it if independent.

        Returns its new pivot index, or None if it lies in the span so far.
        """
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                self.rows[lead] = _scaled_to_one(vec, lead)
                return lead
            _axpy(vec, -vec[lead], row)
        return None


def rank(M: SparseMatrix) -> int:
    pivots, _ = _forward_eliminate(M)
    return len(pivots)


def rref(M: SparseMatrix):
    """Reduced row echelon form.

    Returns (pivot_cols, rows) with rows the normalized pivot rows as dicts,
    ordered by pivot column.  RREF is canonical, independent of pivoting.
    """
    pivots, rows = _forward_eliminate(M)
    # pivot rows (already scaled to 1) ordered by pivot column; eliminate upward
    ordered = sorted(((pc, rows[ri]) for ri, pc in pivots), key=lambda t: t[0])
    for idx in range(len(ordered) - 1, -1, -1):
        pc, row = ordered[idx]
        for _, urow in ordered[:idx]:
            coef = urow.get(pc)
            if coef is not None:
                _axpy(urow, -coef, row)
    return [pc for pc, _ in ordered], [row for _, row in ordered]


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
            vec = {c: _div(v, lv) for c, v in vec.items()}
        basis.append(vec)
    return basis


def _sample(M: SparseMatrix):
    for v in M.entries.values():
        return v
    return Fraction(1)


def image_basis(M: SparseMatrix):
    """Echelonized basis of the column space, as dicts row -> value."""
    pivot_cols, rows = rref(M.transpose())
    # rows of RREF(M^T) span the column space of M
    return [dict(r) for r in rows]


def rank_of_vectors(vectors, dim) -> int:
    """Rank of a list of sparse vectors (dicts index -> value) in k^dim."""
    ent = {}
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            ent[(i, j)] = v
    return rank(SparseMatrix(dim, len(vectors), ent))


def quotient_rank(vectors, subspace, dim) -> int:
    """Rank of the images of `vectors` in k^dim / span(subspace)."""
    return rank_of_vectors(list(vectors) + list(subspace), dim) - rank_of_vectors(
        list(subspace), dim
    )


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
