"""Orchestrates both sides of the localization/completion theorems on
concrete instances and emits pass/fail comparison reports.

Every check computes the two sides as truncated Hilbert tables, verifies the
comparison map is a chain map, compares tables on bins exactly known to both
sides, and (where a map exists) requires the induced map on cohomology to be
an isomorphism levelwise.  Verdicts: PASS, FAIL, or INCONCLUSIVE when the
windows leave nothing to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .towers import (
    Tower,
    cartan_augmentation_tower,
    point_completion_tower,
    pro_graded_compare,
)

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"


@dataclass(frozen=True)
class Truncation:
    aux_max: int = 4
    tower_levels: int = 4
    bar_depth: int = 5
    u_window: int = 4
    cohdeg_min: int = -6
    cohdeg_max: int = 6
    laurent_cap: int = 6

    def __post_init__(self):
        # an empty window would leave the checks nothing to compare (and PASS)
        # or the tables nothing to print
        for name, low in (("tower_levels", 1), ("u_window", 1), ("aux_max", 0), ("laurent_cap", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.cohdeg_min > self.cohdeg_max:
            raise ValueError(
                f"cohdeg_min must be <= cohdeg_max, got {self.cohdeg_min} > {self.cohdeg_max}"
            )


@dataclass(frozen=True)
class LocalizationInstance:
    P: AlgebraPresentation
    T: TorusData
    z: TorusPoint
    truncation: Truncation = field(default_factory=Truncation)

    def __post_init__(self):
        if not self.P.asserted_smooth:
            raise ValueError("theorem checks require asserted_smooth")
        if self.T.rank != self.P.rank or self.z.rank != self.T.rank:
            raise ValueError("rank mismatch in instance")

    def backend(self):
        m = self.z.conductor()
        return None if m == 1 else CyclotomicField(m)

    @cached_property
    def session(self) -> "LocalizationSession":
        return LocalizationSession(self)


@dataclass
class Report:
    name: str
    verdict: str
    lines: list = field(default_factory=list)

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


def _merge(verdicts):
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
    return ChainMap(src.base, tgt.base, blocks)


class LocalizationSession:
    """What the localization checks of one instance share, each built once:
    the completed weight-0 loop towers of X/G (`lhs`) and of the z-fixed locus
    (`rhs`), the restriction maps between their levels, and the left Tate
    tables (only tables: keeping u-series complexes would cost memory).

    The fixed locus is modelled by its reduced presentation: degree -1 Koszul
    generators for its bare relations would add spurious negative classes.
    """

    def __init__(self, inst: LocalizationInstance):
        self.inst = inst
        self._lhs_tate: dict[int, HilbertTable] = {}

    def _tower(self, P: AlgebraPresentation) -> Tower:
        inst, tr = self.inst, self.inst.truncation
        return point_completion_tower(
            loop_model(P, inst.T), inst.z, tr.tower_levels, tr.aux_max,
            weight_filter=(0,) * inst.T.rank, backend=inst.backend(),
        )

    @cached_property
    def lhs(self) -> Tower:
        return self._tower(self.inst.P)

    @cached_property
    def rhs(self) -> Tower:
        return self._tower(reduce_linear_relations(fixed_points(self.inst.P, self.inst.z)))

    @cached_property
    def maps(self) -> list[ChainMap]:
        """Restriction maps lhs level n -> rhs level n, for n = 1..N."""
        maps = []
        for s, t in zip(self.lhs.levels, self.rhs.levels):
            F = _restriction_map(s, t, self.lhs.gen_names, self.rhs.gen_names)
            F.verify_chain_map()
            maps.append(F)
        return maps

    def lhs_tate(self, n: int) -> HilbertTable:
        """Tate table of the left level n at the instance's u-window."""
        if n not in self._lhs_tate:
            self._lhs_tate[n] = tate(self.lhs.level(n), self.inst.truncation.u_window).cohomology()
        return self._lhs_tate[n]


# ---------------------------------------------------------------------------
# the theorem checks
# ---------------------------------------------------------------------------

def check_hh_localization(inst: LocalizationInstance) -> Report:
    """Completed HH towers of X/G and of the z-fixed locus agree, and the
    restriction map is an isomorphism levelwise."""
    report = Report("hh-localization", PASS)
    ses = inst.session
    verdicts = []
    for n in range(1, inst.truncation.tower_levels + 1):
        tl = ses.lhs.level(n).cohomology()
        tr_ = ses.rhs.level(n).cohomology()
        verdicts.append(_compare_tables(f"level {n}", tl, tr_, report))
        ok, failures = ses.maps[n - 1].induced_iso_everywhere()
        if not ok:
            for m, hs, ht, r in failures[:5]:
                report.add(f"  level {n}: induced map not iso at {m}: {hs}/{ht}/rank {r}")
            verdicts.append(FAIL)
        else:
            report.add(f"  level {n}: restriction map full rank on cohomology")
    report.verdict = _merge(verdicts)
    return report


def check_hc_variants(inst: LocalizationInstance) -> Report:
    """Same comparison for HN (invariants levels), HC (coinvariants) and HP
    (Tate), mixed structure from the de Rham operator on each side; the
    restriction map must induce isomorphisms columnwise as well."""
    from .mixed import useries_induced_iso
    from .towers import _verify_eps_square

    report = Report("hc-variants", PASS)
    tr = inst.truncation
    ses = inst.session
    verdicts = []
    for n in range(1, tr.tower_levels + 1):
        L, R, F_n = ses.lhs.level(n), ses.rhs.level(n), ses.maps[n - 1]
        _verify_eps_square(F_n, L, R)
        for tag, F in (
            ("HN", lambda V: s1_invariants_level(V, tr.u_window)),
            ("HC", lambda V: coinvariants(V, tr.u_window)),
            ("HP", lambda V: tate(V, tr.u_window)),
        ):
            us_l, us_r = F(L), F(R)
            tl = ses.lhs_tate(n) if tag == "HP" else us_l.cohomology()
            tr_ = us_r.cohomology()
            verdicts.append(_compare_tables(f"{tag} level {n}", tl, tr_, report))
            ok, failures = useries_induced_iso(us_l, us_r, F_n)
            if not ok:
                for key, hs, ht, r in failures[:5]:
                    report.add(f"  {tag} level {n}: induced map not iso at {key}: {hs}/{ht}/rank {r}")
                verdicts.append(FAIL)
    report.verdict = _merge(verdicts)
    return report


def check_hp_completion(inst: LocalizationInstance) -> Report:
    """Tate of the completed loop tower vs the sheared Cartan oracle of the
    fixed quotient, completed along its augmentation ideal (tu = s)."""
    report = Report("hp-completion", PASS)
    tr = inst.truncation
    fixed = reduce_linear_relations(fixed_points(inst.P, inst.z))
    cart = cartan_model(fixed, inst.T)
    rhs = cartan_augmentation_tower(cart, tr.tower_levels, tr.aux_max)
    verdicts = []
    for n in range(1, tr.tower_levels + 1):
        tl = inst.session.lhs_tate(n)
        tr_ = tate(rhs.level(n), tr.u_window).cohomology().shear_aux_into_upow()
        verdicts.append(_compare_tables(f"Tate level {n} (sheared)", tl, tr_, report))
    report.verdict = _merge(verdicts)
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
    fib_t = fib_mc.cohomology().forget_weight()

    fixed = reduce_linear_relations(fixed_points(inst.P, inst.z))
    fixed_trivial = AlgebraPresentation(
        [(g.name, (), g.aux) for g in fixed.generators], rank=0,
        asserted_smooth=True,
    )
    plain = loop_model(fixed_trivial, TorusData(0))
    plain_t = plain.instantiate(tr.aux_max).cohomology()
    verdicts = [_compare_tables("fiber vs L(fixed)", fib_t, plain_t, report)]

    hkr_mc = odd_tangent_model(fixed_trivial).instantiate(tr.aux_max)
    hkr_t = hkr_mc.cohomology()
    verdicts.append(_compare_tables("fiber vs HKR", fib_t, hkr_t, report))

    tate_fib = tate(fib_mc, tr.u_window).cohomology().forget_weight()
    tate_hkr = tate(hkr_mc, tr.u_window).cohomology()
    verdicts.append(_compare_tables("HP fiber vs de Rham oracle", tate_fib, tate_hkr, report))
    report.verdict = _merge(verdicts)
    return report


def check_unipotent_formal_tate(aux_max: int = 6, truncation: int = 5,
                                u_window: int = 3) -> Report:
    """Unipotent vs formal loops of the additive classifying stack: the
    global tables differ, the homogeneous parts agree at every weight in the
    window, and the Tate tables both collapse to the k((u)) pattern."""
    report = Report("unipotent-formal-tate", PASS)
    A = bga_polynomial_preset(aux_max)
    B = bga_completed_preset(aux_max, truncation)
    tA = A.cohomology()
    tB = B.cohomology()
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

    weights = [(-m,) for m in range(truncation - 1)]
    per = pro_graded_compare(tA, tB, weights)
    if all(r["equal"] and r["compared"] for r in per.values()):
        report.add(f"  homogeneous parts equal at weights 0..-{truncation - 2}")
        verdicts.append(PASS)
    else:
        bad = [w for w, r in per.items() if not r["equal"] or not r["compared"]]
        report.add(f"  homogeneous-part failure at {bad}")
        verdicts.append(FAIL)

    tateA = tate(A, u_window).cohomology()
    tateB = tate(B, u_window).cohomology()
    expected = HilbertTable(
        {Multidegree(0, (0,), 0, p): 1 for p in range(-u_window, u_window + 1)},
        window=tateA.window,
    )
    verdicts.append(_compare_tables("Tate(polynomial) = k((u))", tateA, expected, report))
    verdicts.append(_compare_tables("Tate(completed) = k((u))", tateB, expected, report))
    verdicts.append(_compare_tables("Tate A = Tate B", tateA, tateB, report))
    report.verdict = _merge(verdicts)
    return report
