"""Orchestrates both sides of the localization/completion theorems on
concrete instances and emits pass/fail comparison reports.

Every check computes the two sides as truncated Hilbert tables, verifies the
comparison map is a chain map, compares tables on bins exactly known to both
sides, and (where a map exists) requires the induced map on cohomology to be
an isomorphism levelwise.  Verdicts: PASS, FAIL, or INCONCLUSIVE when the
windows leave nothing to compare.  A table that is only compared is
known-only (`GradedComplex.cohomology`); the sheared Cartan side is not.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .complexes import ChainMap
from .grading import Multidegree
from .linalg import SparseMatrix
from .mixed import (
    MixedComplex,
    bga_completed_preset,
    bga_polynomial_preset,
    coinvariants,
    s1_invariants_level,
    tate,
    useries_induced_iso,
)
from .models import (
    AlgebraPresentation,
    TorusData,
    TorusPoint,
    cartan_model,
    derived_fiber_model,
    fixed_points,
    loop_model,
    odd_tangent_model,
    reduce_linear_relations,
)
from .scalars import CyclotomicField
from .tables import HilbertTable
from .towers import Tower, cartan_augmentation_tower, point_completion_tower

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"


# the window fields and their defaults
_TRUNCATION = dict(aux_max=4, tower_levels=4, bar_depth=5, u_window=4, cohdeg_min=-6,
                   cohdeg_max=6, laurent_cap=6)


class Truncation(namedtuple("Truncation", _TRUNCATION, defaults=_TRUNCATION.values())):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # an empty window would leave the checks nothing to compare (and PASS)
        # or the tables nothing to print
        for name, low in (("tower_levels", 1), ("u_window", 1), ("aux_max", 0), ("laurent_cap", 0),
                          ("bar_depth", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.cohdeg_min > self.cohdeg_max:
            raise ValueError(
                f"cohdeg_min must be <= cohdeg_max, got {self.cohdeg_min} > {self.cohdeg_max}"
            )
        return self


class LocalizationInstance:
    """One instance of the localization theorems, and what its checks share,
    each built once: the z-fixed locus (`fixed`), the completed weight-0 loop
    towers of X/G (`lhs`) and of the fixed locus (`rhs`), the restriction maps
    between their levels, and the left Tate tables (only tables: keeping
    u-series complexes would cost memory).

    The fixed locus is modelled by its reduced presentation: degree -1 Koszul
    generators for its bare relations would add spurious negative classes.
    """

    def __init__(self, P: AlgebraPresentation, T: TorusData, z: TorusPoint,
                 truncation: Truncation = Truncation()):
        if not P.asserted_smooth:
            raise ValueError("theorem checks require asserted_smooth")
        if T.rank != P.rank or z.rank != T.rank:
            raise ValueError("rank mismatch in instance")
        vars(self).update(P=P, T=T, z=z, truncation=truncation)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def backend(self):
        m = self.z.conductor()
        return None if m == 1 else CyclotomicField(m)

    @cached_property
    def fixed(self) -> AlgebraPresentation:
        return reduce_linear_relations(fixed_points(self.P, self.z))

    def _tower(self, P: AlgebraPresentation) -> Tower:
        tr = self.truncation
        return point_completion_tower(
            loop_model(P, self.T), self.z, tr.tower_levels, tr.aux_max, backend=self.backend(),
        )

    @cached_property
    def lhs(self) -> Tower:
        return self._tower(self.P)

    @cached_property
    def rhs(self) -> Tower:
        return self._tower(self.fixed)

    @cached_property
    def maps(self) -> list[ChainMap]:
        """Restriction maps lhs level n -> rhs level n, for n = 1..N, each a
        `ChainMap` between the two mixed levels.  The top one is built and
        checked against d and eps.  It sends each label to a label with the
        same t-exponent, or to zero, so it carries the dg-ideal each lower
        level quotients by into the other side's; its restriction along the
        towers' placements is then again a chain map that commutes with eps,
        and is not checked again.  HH's induced-map check is HN level 1's, so
        both read the same strips of each level."""
        lhs, rhs = self.lhs, self.rhs
        F = _restriction_map(lhs.levels[-1], rhs.levels[-1], lhs.gen_names, rhs.gen_names)
        F.verify_chain_map()
        maps = [
            ChainMap(s, t, p.blocks(F.blocks, lambda m: m, q))
            for s, t, p, q in zip(lhs.levels, rhs.levels, lhs.placements, rhs.placements)
        ]
        maps.append(F)
        return maps

    @cached_property
    def lhs_tate(self) -> list[HilbertTable]:
        """Tate tables of the left levels 1..N at the instance's u-window."""
        return [tate(L, self.truncation.u_window).cohomology(known_only=True) for L in self.lhs.levels]


class Report:
    def __init__(self, name: str, verdict: str, lines=()):
        self.name, self.verdict, self.lines = name, verdict, list(lines)

    def add(self, text):
        self.lines.append(text)

    def render(self) -> str:
        body = "\n".join(self.lines)
        return f"== {self.name}: {self.verdict}\n{body}" if body else f"== {self.name}: {self.verdict}"


def _compare_tables(name, lhs: HilbertTable, rhs: HilbertTable, report: Report):
    """Table comparison verdict: PASS / FAIL / INCONCLUSIVE."""
    mism, comp, masked = lhs.compare(rhs)
    if mism:
        for k, a, b in mism[:8]:
            report.add(f"  mismatch at {k}: {a} vs {b}")
        return FAIL
    if not comp:
        report.add(f"  {name}: no comparable non-edge bins (window too small)")
        return INCONCLUSIVE
    report.add(f"  {name}: {len(comp)} bins agree" + (f", {len(masked)} masked" if masked else ""))
    return PASS


def merge_verdicts(verdicts):
    if FAIL in verdicts:
        return FAIL
    if INCONCLUSIVE in verdicts:
        return INCONCLUSIVE
    return PASS


def _restriction_map(src: MixedComplex, tgt: MixedComplex, src_names, tgt_names) -> ChainMap:
    """The quotient map along added relations between instantiated models.

    Labels are exponent tuples over the named generators; generators present
    only on the source side are sent to zero (they vanish in the quotient),
    shared generators map to their namesakes.
    """
    tgt_pos = {n: i for i, n in enumerate(tgt_names)}
    src_to_tgt = [tgt_pos.get(n) for n in src_names]

    def image_label(lbl):
        out = [0] * len(tgt_names)
        for e, pos in zip(lbl, src_to_tgt):
            if not e:
                continue
            if pos is None:
                return None  # killed generator: monomial maps to zero
            out[pos] = e
        return tuple(out)

    blocks = {}
    for m, ls in src.base.bins.items():
        tpos = {lbl: i for i, lbl in enumerate(tgt.base.labels(m))}
        ent = {}
        for j, lbl in enumerate(ls):
            im = image_label(lbl)
            if im is None:
                continue
            i = tpos.get(im)
            if i is not None:
                ent[(i, j)] = 1
        if ent:
            blocks[m] = SparseMatrix(tgt.base.dim(m), len(ls), ent)
    return ChainMap(src, tgt, blocks)


# ---------------------------------------------------------------------------
# the theorem checks
# ---------------------------------------------------------------------------

def check_hh_localization(inst: LocalizationInstance) -> Report:
    """Completed HH towers of X/G and of the z-fixed locus agree, and the
    restriction map is an isomorphism levelwise."""
    report = Report("hh-localization", PASS)
    verdicts = []
    for n in range(1, inst.truncation.tower_levels + 1):
        tl = inst.lhs.level(n).cohomology(known_only=True)
        tr_ = inst.rhs.level(n).cohomology(known_only=True)
        verdicts.append(_compare_tables(f"level {n}", tl, tr_, report))
        ok, failures = inst.maps[n - 1].induced_iso_everywhere()
        if not ok:
            for m, hs, ht, r in failures[:5]:
                report.add(f"  level {n}: induced map not iso at {m}: {hs}/{ht}/rank {r}")
            verdicts.append(FAIL)
        else:
            report.add(f"  level {n}: restriction map full rank on cohomology")
    report.verdict = merge_verdicts(verdicts)
    return report


def check_hc_variants(inst: LocalizationInstance) -> Report:
    """Same comparison for HN (invariants levels), HC (coinvariants) and HP
    (Tate), mixed structure from the de Rham operator on each side; the
    restriction map must induce isomorphisms columnwise as well, which the
    check reads off the two tables just compared."""
    report = Report("hc-variants", PASS)
    tr = inst.truncation
    verdicts = []
    for n in range(1, tr.tower_levels + 1):
        L, R, F_n = inst.lhs.level(n), inst.rhs.level(n), inst.maps[n - 1]
        for tag, F in (
            ("HN", lambda V: s1_invariants_level(V, tr.u_window)),
            ("HC", lambda V: coinvariants(V, tr.u_window)),
            ("HP", lambda V: tate(V, tr.u_window)),
        ):
            us_l, us_r = F(L), F(R)
            tl = inst.lhs_tate[n - 1] if tag == "HP" else us_l.cohomology(known_only=True)
            tr_ = us_r.cohomology(known_only=True)
            verdicts.append(_compare_tables(f"{tag} level {n}", tl, tr_, report))
            ok, failures = useries_induced_iso(us_l, us_r, F_n, tl, tr_)
            if not ok:
                for key, hs, ht, r in failures[:5]:
                    report.add(f"  {tag} level {n}: induced map not iso at {key}: {hs}/{ht}/rank {r}")
                verdicts.append(FAIL)
    report.verdict = merge_verdicts(verdicts)
    return report


def check_hp_completion(inst: LocalizationInstance) -> Report:
    """Tate of the completed loop tower vs the sheared Cartan oracle of the
    fixed quotient, completed along its augmentation ideal (tu = s)."""
    report = Report("hp-completion", PASS)
    tr = inst.truncation
    cart = cartan_model(inst.fixed, inst.T)
    rhs = cartan_augmentation_tower(cart, tr.tower_levels, tr.aux_max)
    verdicts = []
    for n in range(1, tr.tower_levels + 1):
        tl = inst.lhs_tate[n - 1]
        # a full table: the shear widens the edge of each row holding a value
        tr_ = tate(rhs.level(n), tr.u_window).cohomology().shear_aux_into_upow()
        verdicts.append(_compare_tables(f"Tate level {n} (sheared)", tl, tr_, report))
    report.verdict = merge_verdicts(verdicts)
    return report


def check_derived_fixed_fiber(inst: LocalizationInstance) -> Report:
    """The derived fiber of the loop model at w = z reproduces the loop model
    of the classical fixed locus (trivial group), and its Tate table matches
    the plain odd-tangent oracle of the fixed locus."""
    report = Report("derived-fixed-fiber", PASS)
    tr = inst.truncation
    backend = inst.backend()
    fib = derived_fiber_model(inst.P, inst.T, inst.z, backend=backend)
    fib_mc = fib.instantiate(tr.aux_max)
    fib_t = fib_mc.cohomology(known_only=True).forget_weight()

    fixed_trivial = AlgebraPresentation(
        [(g.name, (), g.aux) for g in inst.fixed.generators], rank=0,
        asserted_smooth=True,
    )
    # the loop model of the fixed locus with the trivial group is its
    # odd-tangent complex, so one table serves both lines
    hkr_mc = odd_tangent_model(fixed_trivial).instantiate(tr.aux_max)
    hkr_t = hkr_mc.cohomology(known_only=True)
    verdicts = [_compare_tables(line, fib_t, hkr_t, report)
                for line in ("fiber vs L(fixed)", "fiber vs HKR")]

    tate_fib = tate(fib_mc, tr.u_window).cohomology(known_only=True).forget_weight()
    tate_hkr = tate(hkr_mc, tr.u_window).cohomology(known_only=True)
    verdicts.append(_compare_tables("HP fiber vs de Rham oracle", tate_fib, tate_hkr, report))
    report.verdict = merge_verdicts(verdicts)
    return report


# the unipotent check's window: aux bound, truncation of the completed
# preset, and u-window of the Tate tables
UNIPOTENT_AUX_MAX, UNIPOTENT_TRUNCATION, UNIPOTENT_U_WINDOW = 6, 5, 3


def check_unipotent_formal_tate() -> Report:
    """Unipotent vs formal loops of the additive classifying stack: the
    global tables differ, the homogeneous parts agree at every weight in the
    window, and the Tate tables both collapse to the k((u)) pattern."""
    report = Report("unipotent-formal-tate", PASS)
    A = bga_polynomial_preset(UNIPOTENT_AUX_MAX)
    B = bga_completed_preset(UNIPOTENT_AUX_MAX, UNIPOTENT_TRUNCATION)
    tA = A.cohomology(known_only=True)
    tB = B.cohomology(known_only=True)
    verdicts = []

    # pre-Tate global tables differ in the uncapped direction
    mism, comp, masked = tA.compare(tB)
    diff = [m for m in masked if tA.known(m) and tA.dim(m)]
    if mism:
        verdicts.append(FAIL)
        report.add("  unexpected mismatch on shared bins")
    elif diff:
        report.add(f"  pre-Tate tables differ beyond the cap ({len(diff)} bins), as expected")
        verdicts.append(PASS)
    else:
        report.add("  pre-Tate difference not visible (window too small)")
        verdicts.append(INCONCLUSIVE)

    bad = []
    for w in [(-m,) for m in range(UNIPOTENT_TRUNCATION - 1)]:
        mism, comp, _ = tA.at_weight(w).compare(tB.at_weight(w))
        if mism or not comp:
            bad.append(w)
    if not bad:
        report.add(f"  homogeneous parts equal at weights 0..-{UNIPOTENT_TRUNCATION - 2}")
        verdicts.append(PASS)
    else:
        report.add(f"  homogeneous-part failure at {bad}")
        verdicts.append(FAIL)

    tateA = tate(A, UNIPOTENT_U_WINDOW).cohomology(known_only=True)
    tateB = tate(B, UNIPOTENT_U_WINDOW).cohomology(known_only=True)
    expected = HilbertTable(
        {Multidegree(0, (0,), 0, p): 1 for p in range(-UNIPOTENT_U_WINDOW, UNIPOTENT_U_WINDOW + 1)},
        set(), tateA.window,
    )
    verdicts.append(_compare_tables("Tate(polynomial) = k((u))", tateA, expected, report))
    verdicts.append(_compare_tables("Tate(completed) = k((u))", tateB, expected, report))
    verdicts.append(_compare_tables("Tate A = Tate B", tateA, tateB, report))
    report.verdict = merge_verdicts(verdicts)
    return report
