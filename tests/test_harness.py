import gc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from loophh.grading import Window
from loophh.harness import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    LocalizationInstance,
    Truncation,
    _restriction_map,
    check_derived_fixed_fiber,
    check_hc_variants,
    check_hh_localization,
    check_hp_completion,
    check_unipotent_formal_tate,
)
from loophh.instancefile import parse_instance
from loophh.models import (
    AlgebraPresentation,
    SubgroupDescriptor,
    TorusData,
    TorusPoint,
    stabilizer_subgroups,
)
from mixed_fixtures import localization_instance, zeroed_at_a_class

ROOT = Path(__file__).resolve().parents[1]
# the shipped instances, and the benchmark's two larger ones (read only)
INSTANCE_FILES = sorted((ROOT / "instances").glob("*.loop")) + [
    ROOT / "perfbench" / "instances" / name for name in ("big3.loop", "cyc3.loop")
]


def line_instance(z, **tr):
    P = AlgebraPresentation([("x", (1,), 1)], rank=1, asserted_smooth=True)
    return LocalizationInstance(
        P, TorusData(1), TorusPoint.make([z]), Truncation(**tr)
    )


def plane_instance(w1, w2, z, **tr):
    P = AlgebraPresentation([("x", (w1,), 1), ("y", (w2,), 1)], rank=1, asserted_smooth=True)
    return LocalizationInstance(
        P, TorusData(1), TorusPoint.make([z]), Truncation(**tr)
    )


def test_hh_localization_line_at_2():
    rep = check_hh_localization(line_instance(2))
    assert rep.verdict == PASS, rep.render()


def test_a_restriction_map_zeroed_at_a_class_fails_both_induced_map_checks():
    inst = localization_instance(INSTANCE_FILES[0])
    inst.maps[-1] = zeroed_at_a_class(inst)
    top = inst.truncation.tower_levels
    rep = check_hh_localization(inst)
    assert rep.verdict == FAIL
    assert f"  level {top}: induced map not iso at " in rep.render()
    rep = check_hc_variants(inst)
    assert rep.verdict == FAIL
    assert all(f"  {tag} level {top}: induced map not iso at " in rep.render()
               for tag in ("HN", "HC", "HP"))


def test_hh_localization_line_at_identity():
    rep = check_hh_localization(line_instance(1))
    assert rep.verdict == PASS, rep.render()


def test_hh_localization_plane_jump():
    rep = check_hh_localization(plane_instance(1, 2, -1))
    assert rep.verdict == PASS, rep.render()
    rep = check_hh_localization(plane_instance(1, 2, 3))
    assert rep.verdict == PASS, rep.render()


def test_hc_variants_line():
    rep = check_hc_variants(line_instance(2, tower_levels=3, u_window=3))
    assert rep.verdict == PASS, rep.render()


def test_hc_variants_trivial_group():
    P = AlgebraPresentation([("x", (), 1)], rank=0, asserted_smooth=True)
    inst = LocalizationInstance(
        P, TorusData(0), TorusPoint.make([]), Truncation(tower_levels=2, u_window=3)
    )
    rep = check_hc_variants(inst)
    assert rep.verdict == PASS, rep.render()


def test_hc_variants_mixed_weights():
    rep = check_hc_variants(plane_instance(1, -1, 3, tower_levels=2, u_window=3, aux_max=3))
    assert rep.verdict == PASS, rep.render()


def test_hp_completion_line():
    rep = check_hp_completion(line_instance(2))
    assert rep.verdict == PASS, rep.render()


def test_hp_completion_independent_of_check_order():
    fresh = check_hp_completion(plane_instance(1, 2, -1, tower_levels=3, u_window=3))
    inst = plane_instance(1, 2, -1, tower_levels=3, u_window=3)
    check_hc_variants(inst)
    assert check_hp_completion(inst).render() == fresh.render()


def test_truncation_is_frozen():
    inst = line_instance(2)
    with pytest.raises(AttributeError):
        inst.truncation.u_window = 9
    with pytest.raises(AttributeError):
        inst.truncation = Truncation(u_window=9)


def test_truncation_repr_is_the_report_line():
    assert repr(Truncation()) == ("Truncation(aux_max=4, tower_levels=4, bar_depth=5, u_window=4, "
                                  "cohdeg_min=-6, cohdeg_max=6, laurent_cap=6)")
    assert repr(Truncation(3, u_window=2)) == (
        "Truncation(aux_max=3, tower_levels=4, bar_depth=5, u_window=2, "
        "cohdeg_min=-6, cohdeg_max=6, laurent_cap=6)")


@pytest.mark.parametrize("make, message", [
    (lambda: Truncation(tower_levels=0), "tower_levels must be >= 1, got 0"),
    (lambda: Truncation(4, -1), "tower_levels must be >= 1, got -1"),
    (lambda: Truncation(u_window=0), "u_window must be >= 1, got 0"),
    (lambda: Truncation(aux_max=-1), "aux_max must be >= 0, got -1"),
    (lambda: Truncation(laurent_cap=-1), "laurent_cap must be >= 0, got -1"),
    (lambda: Truncation(bar_depth=-3), "bar_depth must be >= 0, got -3"),
    (lambda: Truncation(cohdeg_min=3, cohdeg_max=-3), "cohdeg_min must be <= cohdeg_max, got 3 > -3"),
    (lambda: Window((1, 0), (), (0, 0)), "empty window range"),
    (lambda: Window((0, 0), ((0, 0), (2, 1)), (0, 0)), "empty window range"),
    (lambda: Window((0, 0), (), (0, 0), upow=(1, -1)), "empty window range"),
    (lambda: TorusData(-1), "rank must be >= 0"),
    (lambda: TorusData(rank=-2), "rank must be >= 0"),
])
def test_record_validation_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_immutable_records_refuse_assignment():
    inst = line_instance(2)
    records = [inst.truncation, inst, Window((0, 0), (), (0, 0)), inst.P.generators[0]]
    for record, field in zip(records, ("u_window", "truncation", "aux", "name")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.note = 1
    assert inst.lhs is inst.lhs  # the cached properties still cache


def test_points_and_subgroups_compare_by_value():
    assert TorusPoint.make([2]) == TorusPoint.make([Fraction(4, 2)])
    assert hash(TorusPoint.make([(2, 1)])) == hash(TorusPoint.make([2]))
    subs = stabilizer_subgroups(TorusData(1), [(2,), (-2,), (4,)])
    assert [s.describe() for s in subs] == ["full torus", "mu_2", "mu_4"]
    assert len(set(subs) | {SubgroupDescriptor(1, ((2,),))}) == 3


def test_hp_completion_line_at_identity():
    rep = check_hp_completion(line_instance(1))
    assert rep.verdict == PASS, rep.render()


def test_hp_completion_trivial_group():
    P = AlgebraPresentation([("x", (), 1)], rank=0, asserted_smooth=True)
    inst = LocalizationInstance(
        P, TorusData(0), TorusPoint.make([]), Truncation(tower_levels=2, u_window=3)
    )
    rep = check_hp_completion(inst)
    assert rep.verdict == PASS, rep.render()


def test_hp_completion_point():
    P = AlgebraPresentation([], rank=1)
    P.asserted_smooth = True
    inst = LocalizationInstance(P, TorusData(1), TorusPoint.make([2]))
    rep = check_hp_completion(inst)
    assert rep.verdict == PASS, rep.render()


def test_fixed_fiber_line():
    rep = check_derived_fixed_fiber(line_instance(2))
    assert rep.verdict == PASS, rep.render()
    rep = check_derived_fixed_fiber(line_instance(1))
    assert rep.verdict == PASS, rep.render()


def test_fixed_fiber_plane():
    rep = check_derived_fixed_fiber(plane_instance(1, 2, -1))
    assert rep.verdict == PASS, rep.render()


def test_unipotent_formal():
    rep = check_unipotent_formal_tate()
    assert rep.verdict == PASS, rep.render()


def test_instance_is_freed_without_the_cycle_collector():
    # what the checks cache on the instance holds no reference back to it, so
    # dropping the instance frees it by reference counting alone
    path = Path(__file__).resolve().parents[1] / "instances" / "01_line_gm_z2.loop"
    gc.disable()
    try:
        inst = LocalizationInstance(*parse_instance(path.read_text()))
        for check in (check_hh_localization, check_hc_variants, check_hp_completion):
            assert check(inst).verdict == PASS
        ref = weakref.ref(inst)
        del inst
        assert ref() is None
    finally:
        gc.enable()


def test_negative_control_corrupted_differential():
    # corrupt one side: the comparison must FAIL with the bin named
    inst = line_instance(2, tower_levels=2)
    from loophh import harness as H

    lhs, rhs, maps = inst.lhs, inst.rhs, inst.maps
    t1 = lhs.level(1).cohomology()
    t2 = rhs.level(1).cohomology()
    # tamper with the table directly
    k = next(iter(t1.values))
    t2.values[k] = t1.values[k] + 7
    rep = H.Report("corrupted", PASS)
    assert H._compare_tables("corrupted", t1, t2, rep) == FAIL
    assert any("mismatch" in ln for ln in rep.lines)


def test_window_too_small_is_inconclusive():
    from loophh import harness as H
    from loophh.tables import HilbertTable
    from loophh.grading import Window, md

    win = Window((0, 0), ((0, 0),), (0, 0))
    a = HilbertTable({md(0, (0,), 0): 1}, edge={md(0, (0,), 0)}, window=win)
    b = HilbertTable({md(0, (0,), 0): 1}, edge={md(0, (0,), 0)}, window=win)
    rep = H.Report("tiny", PASS)
    assert H._compare_tables("tiny", a, b, rep) == INCONCLUSIVE


@pytest.mark.xfail(strict=True, reason="`HilbertTable.compare` visits only bins that hold a "
                   "value, so two known tables that vanish on the whole window compare no bin")
def test_two_known_zero_tables_agree():
    # every bin of the window is known to both sides and zero on both
    from loophh import harness as H
    from loophh.tables import HilbertTable

    win = Window((0, 1), ((0, 1),), (0, 1))
    rep = H.Report("zero", PASS)
    verdict = H._compare_tables("zero", HilbertTable({}, set(), win), HilbertTable({}, set(), win), rep)
    assert verdict == PASS, rep.lines


def test_pass_monotone_in_window():
    small = check_hh_localization(line_instance(2, tower_levels=2, aux_max=2))
    big = check_hh_localization(line_instance(2, tower_levels=4, aux_max=5))
    assert small.verdict == PASS
    assert big.verdict == PASS


def _blocks(F):
    return {m: (b.nrows, b.ncols, b.entries) for m, b in F.blocks.items()}


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.stem)
def test_derived_level_maps_equal_per_level_restriction_maps(path):
    # only the top map is built and checked; each lower one is its
    # restriction along the towers' placements
    inst = LocalizationInstance(*parse_instance(path.read_text()))
    lhs, rhs = inst.lhs, inst.rhs
    assert len(inst.maps) == inst.truncation.tower_levels
    for n, F in enumerate(inst.maps, 1):
        s, t = lhs.level(n), rhs.level(n)
        assert F.source is s and F.target is t
        assert _blocks(F) == _blocks(_restriction_map(s, t, lhs.gen_names, rhs.gen_names)), n
        F.verify_chain_map()
