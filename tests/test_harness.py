import dataclasses
import gc
import weakref
from pathlib import Path

import pytest

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
from loophh.models import AlgebraPresentation, TorusData, TorusPoint
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
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.truncation.u_window = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.truncation = Truncation(u_window=9)


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
