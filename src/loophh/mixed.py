"""Mixed complexes and the S^1 constructions as windowed u-series complexes.

A mixed complex is a GradedComplex with a square-zero degree -1 operator eps
anticommuting with d (the sign is fixed so that d + u*eps squares to zero).
The u-series functors are built cell-by-cell: a cell (i, p) holds the
underlying bin in cohomological degree i tensored with u^p, |u| = 2; the
total differential sends (i, p) to (i+1, p) by d and to (i-1, p+1) by eps.
Flavors differ in the p-window and in which truncation boundaries are
genuine (quotient/sub structure of the true object) versus artifacts that
must be edge-flagged.

(d + u eps)^2 = d^2 + u (d eps + eps d) + u^2 eps^2, so once the bin laws
hold the total differential squares to zero on every p-window (d keeps p and
eps raises it, so a window is a subquotient).  A u-series complex checks them
when it is built, from the d^2 record of the underlying complex and the
mixed-law check, each computed once per complex.
"""

from __future__ import annotations

import itertools

from .complexes import GradedComplex
from .grading import Multidegree
from .linalg import (
    NotAComplex,
    SparseMatrix,
    apply_matrix,
    column_leads,
    image_basis,
    kernel_basis,
    quotient_rank,
)
from .tables import HilbertTable

FLAVORS = ("invariants", "coinvariants", "tate")


class MixedComplex:
    def __init__(self, base: GradedComplex, eps=None):
        self.base = base
        self.eps: dict[Multidegree, SparseMatrix] = dict(eps) if eps else {}
        self._laws_ok = False  # set once check_mixed_laws passes

    # -- delegation -----------------------------------------------------------
    def dim(self, m):
        return self.base.dim(m)

    def all_bins(self):
        return self.base.all_bins()

    @property
    def window(self):
        return self.base.window

    @property
    def edge(self):
        return self.base.edge

    def eps_target(self, m: Multidegree) -> Multidegree:
        return m.shift(cohdeg=-1)

    def eps_from(self, m: Multidegree) -> SparseMatrix:
        e = self.eps.get(m)
        if e is not None:
            return e
        return SparseMatrix.zero(self.base.dim(self.eps_target(m)), self.base.dim(m))

    def cohomology(self) -> HilbertTable:
        return self.base.cohomology()

    # -- laws ---------------------------------------------------------------------
    def check_mixed_laws(self):
        """eps^2 = 0 and d.eps + eps.d = 0 on every bin.  A pass is
        remembered; a failure is not, so every later call raises again."""
        if self._laws_ok:
            return True
        gc = self.base
        for m in gc.all_bins():
            e1 = self.eps_from(m)
            e2 = self.eps_from(self.eps_target(m))
            if not (e2 @ e1).is_zero_matrix():
                raise NotAComplex(m, "eps^2 != 0")
            d_then_eps = self.eps_from(gc.d_target(m)) @ gc.diff_from(m)
            eps_then_d = gc.diff_from(self.eps_target(m)) @ self.eps_from(m)
            if not (d_then_eps + eps_then_d).is_zero_matrix():
                raise NotAComplex(m, "d eps + eps d != 0")
        self._laws_ok = True
        return True

    # Complexes truncated in cohdeg (simplicial depth) set a floor and may
    # supply a structural certifier for bins below it.
    cohdeg_floor = None
    zero_certifier = None

    def certified_zero(self, m: Multidegree) -> bool:
        """The bin is known to vanish (complete enumeration, not edge)."""
        if self.base.dim(m):
            return False
        if m in self.base.edge:
            return False
        win = self.base.window
        if len(m.weight) != len(win.weight):
            return False
        for w, (lo, hi) in zip(m.weight, win.weight):
            if not (lo <= w <= hi):
                return False
        if not (win.aux[0] <= m.aux <= win.aux[1]):
            return False
        # cohdeg is complete by construction of instantiations unless a
        # depth floor was declared.
        if self.cohdeg_floor is not None and m.cohdeg < self.cohdeg_floor:
            return bool(self.zero_certifier and self.zero_certifier(m))
        return True

    # -- induced mixed map on cohomology ---------------------------------------
    def eps_induced_rank(self, m: Multidegree) -> int:
        """Rank of the map induced by eps on cohomology H(m) -> H(m - e1)."""
        ker_s, _ = self.base.cohomology_data(m)
        tgt = self.eps_target(m)
        _, im_t = self.base.cohomology_data(tgt)
        E = self.eps_from(m)
        images = [apply_matrix(E, v) for v in ker_s]
        return quotient_rank(images, im_t, self.base.dim(tgt))


# ---------------------------------------------------------------------------
# u-series complexes
# ---------------------------------------------------------------------------

class USeriesComplex:
    """Windowed (V[[u]]-style, d + u*eps) complex of a declared flavor.

    Construction raises NotAComplex unless d^2 = 0 on every bin, edge or not,
    and the mixed laws hold.
    """

    def __init__(self, mixed: MixedComplex, flavor: str, p_range: tuple):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor}")
        if mixed.base.aux_shift and any(
            not d.is_zero_matrix() for d in mixed.base.diffs.values()
        ):
            raise NotImplementedError("u-series over aux-shifting differentials")
        faults = mixed.base.d_squared_faults()
        if faults:
            raise NotAComplex(faults[0], "d^2 != 0")
        mixed.check_mixed_laws()
        self.mixed = mixed
        self.flavor = flavor
        self.p_lo, self.p_hi = p_range
        self._columns = None
        self._pivots = {}  # column key -> sorted class pivots
        self._bases = {}
        self._keys = {}  # column key -> _column_key(column key)
        self._tokens = None  # (d tokens, eps tokens) by bin, built on first use

    # -- cells ---------------------------------------------------------------
    def columns(self):
        """Group cells into total columns keyed (tau, weight, aux)."""
        if self._columns is not None:
            return self._columns
        cols: dict[tuple, list] = {}
        for m in self.mixed.base.bins:
            for p in range(self.p_lo, self.p_hi + 1):
                tau = m.cohdeg + 2 * p
                cols.setdefault((tau, m.weight, m.aux), []).append((m, p))
        for key in cols:
            cols[key].sort(key=lambda mp: (mp[1], mp[0]))
        self._columns = cols
        return cols

    def _column_basis(self, key):
        """(cells, offset of each cell, total dimension) of column key."""
        basis = self._bases.get(key)
        if basis is None:
            cells = self.columns().get(key, [])
            offset = {}
            total = 0
            for (m, p) in cells:
                offset[(m, p)] = total
                total += self.mixed.base.dim(m)
            basis = self._bases[key] = (cells, offset, total)
        return basis

    def _placements(self, key, d_blocks, eps_blocks):
        """(row offset, col offset, block) of each d- and eps-block of the
        total differential out of column key into key + e_tau.

        The block maps are keyed by bin: the complex's matrices, or their
        tokens.  Both `_column_matrix` and `_column_key` place through here.
        """
        tau, w, a = key
        cells, offset, _ = self._column_basis(key)
        _, toffset, _ = self._column_basis((tau + 1, w, a))
        base = self.mixed.base
        for (m, p) in cells:
            off = offset[(m, p)]
            d = d_blocks.get(m)
            if d is not None:
                to = toffset.get((base.d_target(m), p))
                if to is not None:
                    yield to, off, d
            e = eps_blocks.get(m)
            if e is not None and p + 1 <= self.p_hi:
                to = toffset.get((m.shift(cohdeg=-1), p + 1))
                if to is not None:
                    yield to, off, e

    def _column_matrix(self, key):
        """Total differential out of column key into key + e_tau."""
        tau, w, a = key
        _, _, total = self._column_basis(key)
        _, _, ttotal = self._column_basis((tau + 1, w, a))
        ent = {}
        for to, off, block in self._placements(key, self.mixed.base.diffs, self.mixed.eps):
            for (i, j), v in block.entries.items():
                ent[(to + i, off + j)] = v
        return SparseMatrix(ttotal, total, ent)

    def _column_key(self, key):
        """Shape and token placements of `_column_matrix(key)`: equal keys,
        equal matrices."""
        if self._tokens is None:
            self._tokens = (
                {m: _block_token(d) for m, d in self.mixed.base.diffs.items()},
                {m: _block_token(e) for m, e in self.mixed.eps.items()},
            )
        tau, w, a = key
        _, _, total = self._column_basis(key)
        _, _, ttotal = self._column_basis((tau + 1, w, a))
        return (ttotal, total, tuple(self._placements(key, *self._tokens)))

    # -- edge / validity ----------------------------------------------------------
    def _column_is_edge(self, key) -> bool:
        tau, w, a = key
        base = self.mixed.base
        cells, _, _ = self._column_basis(key)
        for (m, p) in cells:
            if m in base.edge:
                return True
        # Truncation boundaries.  d preserves p and eps raises it by one, so
        # the only couplings across the p-window are the eps-arrow into our
        # bottom cell (source: column tau-1, cell p_lo - 1) and the dropped
        # eps-arrow out of our top cell (target: column tau+1, cell p_hi + 1).
        # Each is harmless iff the corresponding underlying bin is certified
        # zero.  Invariants levels are honest quotients (no probes);
        # coinvariants genuinely end at p = 0 (no upper probe).
        if self.flavor in ("tate", "coinvariants"):
            m_low = Multidegree(tau + 1 - 2 * self.p_lo, w, a, 0)
            if not self.mixed.certified_zero(m_low):
                return True
        if self.flavor == "tate":
            m_high = Multidegree(tau - 2 * self.p_hi - 1, w, a, 0)
            if not self.mixed.certified_zero(m_high):
                return True
        return False

    # -- cohomology ------------------------------------------------------------
    def _key_of(self, key):
        """`_column_key(key)`, built once per complex."""
        ck = self._keys.get(key)
        if ck is None:
            ck = self._keys[key] = self._column_key(key)
        return ck

    def _column(self, key):
        """The shared `_Column` of column `key`: a memo miss reduces the
        column matrix, a hit builds nothing."""
        ck = self._key_of(key)
        record = _COLUMN_MEMO.get(ck)
        if record is None:
            record = _COLUMN_MEMO[ck] = _Column(*column_leads(self._column_matrix(key)))
        return record

    def _column_pivots(self, key):
        """The sorted pivot of each cohomology class of column `key`: the
        leads of ker D not among the leads of im Dprev, kept per complex.
        The bases are not built here: see `_column_kernel` and
        `_column_image`."""
        pivots = self._pivots.get(key)
        if pivots is None:
            tau, w, a = key
            image = self._column((tau - 1, w, a)).image_leads
            pivots = self._pivots[key] = [
                f for f in self._column(key).kernel_leads if f not in image
            ]
        return pivots

    def _column_kernel(self, key):
        """Kernel basis of D out of column `key`, built on first request and
        kept on the column's record."""
        record = self._column(key)
        if record.kernel is None:
            record.kernel = kernel_basis(self._column_matrix(key))
        return record.kernel

    def _column_image(self, key):
        """Image basis of Dprev into column `key`, kept on the record of the
        predecessor column like `_column_kernel`."""
        tau, w, a = key
        prev = (tau - 1, w, a)
        record = self._column(prev)
        if record.image is None:
            record.image = image_basis(self._column_matrix(prev))
        return record.image

    def cohomology(self) -> HilbertTable:
        """Table keyed (i, w, a, p); homology classes are attributed to the
        cell of their echelon pivot (canonical in all split cases)."""
        vals: dict[Multidegree, int] = {}
        edge: set[Multidegree] = set()
        for key in sorted(self.columns().keys()):
            tau, w, a = key
            cells, offset, total = self._column_basis(key)
            if total == 0:
                continue
            pivots = self._column_pivots(key)
            cell_of_index = {}
            for (m, p) in cells:
                off = offset[(m, p)]
                for j in range(self.mixed.base.dim(m)):
                    cell_of_index[off + j] = (m, p)
            col_edge = self._column_is_edge(key)
            for idx in pivots:
                m, p = cell_of_index[idx]
                bkey = Multidegree(m.cohdeg, m.weight, m.aux, p)
                vals[bkey] = vals.get(bkey, 0) + 1
            if col_edge:
                for (m, p) in cells:
                    edge.add(Multidegree(m.cohdeg, m.weight, m.aux, p))
        win = self.mixed.base.window
        return HilbertTable(vals, edge, win.with_upow(self.p_lo, self.p_hi))

    def column_h_dim(self, key) -> int:
        return len(self._column_pivots(key))

    # -- u multiplication ----------------------------------------------------------
    def u_map_bijective(self):
        """Check u . (-) : H^tau -> H^{tau+2} bijective on non-edge columns.

        Returns (ok, failures); failures name (tau, weight, aux) columns.
        """
        failures = []
        cols = self.columns()
        for key in sorted(cols.keys()):
            tau, w, a = key
            tkey = (tau + 2, w, a)
            if self._column_is_edge(key) or self._column_is_edge(tkey):
                continue
            # u shifts every cell p -> p+1; usable only if the image column
            # retains all shifted cells inside the window.
            cells, offset, total = self._column_basis(key)
            tcells, toffset, ttotal = self._column_basis(tkey)
            if any((m, p + 1) not in toffset for (m, p) in cells):
                continue
            hs = self.column_h_dim(key)
            ht = self.column_h_dim(tkey)
            im_t = self._column_image(tkey)
            shifted = []
            for vec in self._column_kernel(key):
                out = {}
                for idx, v in vec.items():
                    m, p = _cell_of(cells, offset, idx, self.mixed.base)
                    ti = toffset[(m, p + 1)] + (idx - offset[(m, p)])
                    out[ti] = v
                shifted.append(out)
            r = quotient_rank(shifted, im_t, ttotal)
            if not (hs == ht == r):
                failures.append((key, hs, ht, r))
        return (not failures, failures)


def _cell_of(cells, offset, idx, base):
    for (m, p) in reversed(cells):
        if idx >= offset[(m, p)]:
            return (m, p)
    raise IndexError(idx)


class _Column:
    """One column's memoized result: the lead sets of ker D and im D, read off
    one reduction, and the kernel and image bases of D once an induced-map
    check has asked for them."""

    __slots__ = ("kernel_leads", "image_leads", "kernel", "image")

    def __init__(self, kernel_leads, image_leads):
        self.kernel_leads = kernel_leads
        self.image_leads = image_leads
        self.kernel = None
        self.image = None


# Column results keyed by structure: a column key is the column's shape and
# the (row offset, col offset, token) of every block placed in it, where a
# block's token names its exact content (`_content_key`) in `_BLOCK_TOKENS`.
# Equal keys mean equal matrices, and the same columns recur across flavors,
# windows, tower levels and the two sides of each comparison.  The memo maps
# one column key to one `_Column`: its two lead sets always (sorted tuples,
# far smaller than sets), its two bases only after `_column_kernel` or
# `_column_image` built them.  So each column is reduced once and each basis
# built at most once per memo lifetime, and only for a column an induced-map
# check reads; no column matrix is kept.  No law is checked here: a u-series
# complex checked its laws when it was built.  `cli.run_verb` clears both
# tables, so one CLI call is one memo lifetime; tokens come from a counter that
# is never reset, so a token issued before a clear never names other content
# after it.
_COLUMN_MEMO: dict[tuple, _Column] = {}
_BLOCK_TOKENS: dict[tuple, int] = {}
_TOKEN_COUNTER = itertools.count()


def clear_column_memo():
    _COLUMN_MEMO.clear()
    _BLOCK_TOKENS.clear()


def _content_key(M: SparseMatrix) -> tuple:
    """Backend, shape and entries sorted by (i, j): equal keys, equal matrices."""
    field = M.backend()
    backend = ("Q",) if field is None else (type(field).__name__, field.conductor)
    # positions are unique, so sorting never compares two scalars
    return (backend, M.nrows, M.ncols, tuple(sorted(M.entries.items())))


def _block_token(M: SparseMatrix) -> int:
    """The token of M's content, issued on first sight."""
    ck = _content_key(M)
    token = _BLOCK_TOKENS.get(ck)
    if token is None:
        token = _BLOCK_TOKENS[ck] = next(_TOKEN_COUNTER)
    return token


# ---------------------------------------------------------------------------
# the S^1 functors
# ---------------------------------------------------------------------------

def s1_invariants_level(V: MixedComplex, n: int) -> USeriesComplex:
    """Level n of the filtered limit for invariants: (V[u]/u^n, d + u eps)."""
    if n < 1:
        raise ValueError("level must be >= 1")
    return USeriesComplex(V, "invariants", (0, n - 1))


def coinvariants(V: MixedComplex, u_window: int) -> USeriesComplex:
    return USeriesComplex(V, "coinvariants", (-u_window, 0))


def tate(V: MixedComplex, u_window: int) -> USeriesComplex:
    return USeriesComplex(V, "tate", (-u_window, u_window))


def useries_induced_iso(us_src: USeriesComplex, us_tgt: USeriesComplex, F):
    """The u-linear extension of a chain map induces isomorphisms columnwise.

    Both u-series complexes checked their laws when they were built.  F must
    commute with d and with eps; the caller checks that, with
    `ChainMap.verify_chain_map` and `towers._verify_eps_square`.  Columns that
    are edge on either side are skipped.  Returns (ok, failures).
    """
    if (us_src.flavor, us_src.p_lo, us_src.p_hi) != (us_tgt.flavor, us_tgt.p_lo, us_tgt.p_hi):
        raise ValueError("flavor/window mismatch")
    failures = []
    keys = set(us_src.columns()) | set(us_tgt.columns())
    for key in sorted(keys):
        if us_src._column_is_edge(key) or us_tgt._column_is_edge(key):
            continue
        s_cells, s_off, s_total = us_src._column_basis(key)
        t_cells, t_off, t_total = us_tgt._column_basis(key)
        ent = {}
        for (m, p) in s_cells:
            blk = F.blocks.get(m)
            if blk is None:
                continue
            if (m, p) not in t_off:
                continue
            for (i, j), v in blk.entries.items():
                ent[(t_off[(m, p)] + i, s_off[(m, p)] + j)] = v
        Fcol = SparseMatrix(t_total, s_total, ent)
        hs = us_src.column_h_dim(key)
        ht = us_tgt.column_h_dim(key)
        images = [apply_matrix(Fcol, v) for v in us_src._column_kernel(key)]
        r = quotient_rank(images, us_tgt._column_image(key), t_total)
        if not (hs == ht == r):
            failures.append((key, hs, ht, r))
    return (not failures, failures)


# ---------------------------------------------------------------------------
# built-in additive-group presets (for the unipotent-vs-formal check)
# ---------------------------------------------------------------------------

def bga_polynomial_preset(aux_max: int) -> MixedComplex:
    """k[x, eta] with eps = eta d/dx: functions on the unipotent loops of the
    classifying stack of the additive group.  x has weight -1 (the
    contracting scaling action), eta sits in cohdeg -1 with weight -1."""
    from .algebra import FreeAlgebra, Generator
    from .models import SemifreeModel

    alg = FreeAlgebra(
        [
            Generator("x", 0, (-1,), 1),
            Generator("eta", -1, (-1,), 1),
        ],
        1,
    )
    model = SemifreeModel(alg, {}, eps_images={"x": alg.poly_gen("eta")})
    model.check_symbolic()
    return model.instantiate(aux_max)


def bga_completed_preset(aux_max: int, truncation: int) -> MixedComplex:
    """The x-adically completed preset, represented by truncation at x^D.

    Bins with aux >= truncation are edge: they are artifacts of representing
    the power series ring by a finite quotient.
    """
    if truncation > aux_max:
        raise ValueError("truncation must lie inside the aux window")
    full = bga_polynomial_preset(aux_max)
    bins = {m: ls for m, ls in full.base.bins.items() if m.aux < truncation}
    diffs = {
        m: d for m, d in full.base.diffs.items()
        if m.aux < truncation and full.base.d_target(m).aux < truncation
    }
    eps = {
        m: e for m, e in full.eps.items()
        if m.aux < truncation and m.shift(cohdeg=-1).aux < truncation
    }
    # everything at or beyond the truncation frontier is unrepresented
    edge = {m for m in full.base.bins if m.aux >= truncation - 1}
    win = full.base.window
    gc = GradedComplex(bins, diffs, win, edge)
    return MixedComplex(gc, eps)
