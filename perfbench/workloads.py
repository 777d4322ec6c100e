"""The benchmark's workloads: named lists of operations on loophh's public API.

Each operation is a zero-argument callable returning its outcome, a small
dict that is compared with the outcome recorded in ``reference.json``:

* a CLI verb: ``{"code": <exit code>, "sha256": <report digest>}``, or
  ``{"raises": <exception class>}`` when it raises;
* a cyclic-bar oracle case: ``{"oracle": "agree"}`` when the bar complex
  agrees with its independent oracle, otherwise a word naming what did not.

Building the operations reads every instance file, so it belongs to set-up.
Run ``python3 perfbench/workloads.py`` from the checkout root to record the
reference outcomes again.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INSTANCES = HERE / "instances"
REFERENCE = HERE / "reference.json"

SHIPPED = (
    "01_line_gm_z2",
    "02_plane_12_zm1",
    "03_plane_12_z3",
    "04_line_gm_identity",
    "05_plane_opposite_z3",
    "06_weight2_zeta2",
)


class Op(NamedTuple):
    id: str
    run: Callable[[], dict]


def import_engine():
    """Import loophh from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "loophh" / "__init__.py").is_file():
        raise SystemExit(f"error: no loophh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import loophh
    import loophh.cli
    import loophh.cyclic  # noqa: F401  (every engine module is now loaded)

    if Path(loophh.__file__).resolve().parent != SRC / "loophh":
        raise SystemExit(f"error: imported loophh from {loophh.__file__}, not {SRC}")


def _cli_op(verb, instance=None, *flags) -> Op:
    from loophh.cli import build_parser, run_verb

    argv = [verb] + ([instance] if instance else []) + list(flags)
    args = build_parser().parse_args(argv)
    text = (INSTANCES / f"{instance}.loop").read_text() if instance else None

    def run():
        report, code = run_verb(verb, args, text)
        return {"code": code, "sha256": hashlib.sha256(report.encode()).hexdigest()}

    return Op(" ".join(argv), _guarded(run))


def _oracle(check) -> Callable[[], dict]:
    return _guarded(lambda: {"oracle": check()})


def _guarded(run) -> Callable[[], dict]:
    def guarded():
        try:
            return run()
        except Exception as e:  # recorded, and compared with the reference
            return {"raises": type(e).__name__}

    return guarded


def _bar_plane():
    """Plane (x w1, y w2) bar complex at N=5, aux 4 against the HKR oracle."""
    from loophh.cyclic import connes_B, cyclic_bar
    from loophh.models import AlgebraPresentation, odd_tangent_model

    P = AlgebraPresentation([("x", (1,), 1), ("y", (2,), 1)], rank=1, asserted_smooth=True)
    L = cyclic_bar(P, N=5, aux_max=4)
    L.check_simplicial_identities()
    L.check_bar_laws()
    bar_t = connes_B(L).cohomology()
    hkr_t = odd_tangent_model(P).instantiate(4).cohomology()
    mism, comp, _ = bar_t.compare(hkr_t)
    return "mismatch" if mism else "agree" if comp else "nothing-comparable"


def _bar_nonsmooth():
    """k[x]/(x^2) at N=6, aux 6: HH^{-n} is nonzero for every n < N."""
    from loophh.cyclic import connes_B, cyclic_bar
    from loophh.models import AlgebraPresentation

    P = AlgebraPresentation([("x", (1,), 1)], rank=1, asserted_smooth=True)
    P.add_relation(P.ambient.poly_gen("x", 2))
    L = cyclic_bar(P, N=6, aux_max=6)
    L.check_simplicial_identities()
    L.check_bar_laws()
    t = connes_B(L).cohomology()
    known = [m for m, v in t.values.items() if v and t.known(m)]
    tail = all(any(m.cohdeg == -n for m in known) for n in range(6))
    return "agree" if tail else "tail-missing"


def _bar_equivariant():
    """Equivariant bar of k[x] at N=4, aux 3, mu_cap 4 against the loop model."""
    from loophh.cyclic import connes_B, equivariant_cyclic_bar
    from loophh.grading import md
    from loophh.models import (
        AlgebraPresentation,
        TorusData,
        loop_model,
        regrade_by_group_exponent,
    )

    P = AlgebraPresentation([("x", (1,), 1)], rank=1, asserted_smooth=True)
    T = TorusData(1)
    L = equivariant_cyclic_bar(P, T, N=4, aux_max=3, mu_cap=4)
    L.check_simplicial_identities()
    L.check_bar_laws()
    bar_t = connes_B(L).cohomology()
    V = loop_model(P, T)
    inv = V.instantiate(3, laurent_cap=4, weight_filter=(0,))
    loop_t = regrade_by_group_exponent(inv, V).cohomology()
    mism, comp, _ = bar_t.compare(loop_t)
    if mism:
        return "mismatch"
    wanted = {md(0, (mu,), 0) for mu in range(-4, 5)}
    return "agree" if wanted <= set(comp) else "nothing-comparable"


def _localize_ops():
    return [
        _cli_op("localize", "big3", "--aux-max", "8", "--u-window", "8", "--tower-levels", "6"),
        _cli_op("localize", "cyc3", "--aux-max", "4", "--u-window", "4"),
        _cli_op("fixed-fiber", "cyc3", "--aux-max", "4", "--u-window", "4"),
    ]


def _tables_oracle_ops():
    ops = [_cli_op("hh", "big3", "--aux-max", "14")]
    for verb in ("hh", "hp", "hn", "hc", "stabilizers"):
        ops += [_cli_op(verb, name) for name in SHIPPED]
    ops.append(_cli_op("unipotent-check"))
    ops += [
        Op("bar plane N5 aux4 vs HKR", _oracle(_bar_plane)),
        Op("bar k[x]/(x^2) N6 aux6 tail", _oracle(_bar_nonsmooth)),
        Op("equivariant bar k[x] N4 aux3 mu4 vs loop model", _oracle(_bar_equivariant)),
    ]
    return ops


WORKLOADS = {"localize": _localize_ops, "tables-oracle": _tables_oracle_ops}


def build(workload) -> list[Op]:
    """The operations of one workload, in their canonical order."""
    return WORKLOADS[workload]()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def record():
    import_engine()
    ref = {}
    for name in WORKLOADS:
        ref[name] = {}
        for op in build(name):
            ref[name][op.id] = op.run()
            print(name, op.id, ref[name][op.id], file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
