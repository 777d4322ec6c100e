"""Self-check of the benchmark's tracing wrappers.

    python3 -m pytest perfbench/test_selfcheck.py

Runs one traced pass of each workload and checks the prediction table: every
layer predicted to run on a workload reads nonzero there, and every other
layer reads zero.  A wrapper that misses an alias (a name bound by ``from .x
import y`` in a module the tracer did not patch) shows up as a zero where a
nonzero is predicted.  The traced pass must also reproduce every recorded
report hash and oracle verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent

ALL = set(workloads.WORKLOADS)
LOCALIZE = {"localize"}
ORACLE = {"tables-oracle"}

# layer -> workloads on which it is predicted to run
PREDICTED = {
    "linalg.elim": ALL,
    "mixed.useries": ALL,
    "scalars.cyc_inverse": LOCALIZE,
    "towers.build": LOCALIZE,
    "models.instantiate": ALL,
    "algebra.enumerate": ALL,
    "complexes.cohomology": ALL,
    "complexes.chainmap": LOCALIZE,
    "cyclic.build": ORACLE,
    "cyclic.laws": ORACLE,
    "cyclic.connes": ORACLE,
    "tables.compare": ALL,
    "harness.hh_localization": LOCALIZE,
    "harness.hc_variants": LOCALIZE,
    "harness.hp_completion": LOCALIZE,
    "harness.fixed_fiber": LOCALIZE,
    "instancefile.parse": ALL,
}

# counters kept outside a layer's span, and the layer whose calls they follow
COUNTERS = {
    "mixed.columns": "mixed.useries",
    "scalars.cyc_mul_calls": "scalars.cyc_inverse",
    "models.basis_size": "models.instantiate",
    "algebra.monomials": "algebra.enumerate",
    "complexes.bins": "complexes.cohomology",
    "cyclic.elements": "cyclic.build",
    "tables.bins_compared": "tables.compare",
    "linalg.distinct_inputs": "linalg.elim",
    "linalg.entries_in": "linalg.elim",
}


def test_table_covers_every_layer():
    assert set(PREDICTED) == set(tracing.LAYERS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_pass_matches_predictions(workload):
    spans = HERE.parent / ".perfbench"
    spans.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, "--seed", "0",
         "--trace", str(spans / f"selfcheck-{workload}.tsv")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["mismatched"] == 0, proc.stderr
    layers = result["layers"]

    wrong = []
    for layer, where in PREDICTED.items():
        for name in (f"{layer}_s", f"{layer}_calls"):
            if bool(layers[name]) != (workload in where):
                wrong.append((name, layers[name]))
    for name, layer in COUNTERS.items():
        if bool(layers[name]) != (workload in PREDICTED[layer]):
            wrong.append((name, layers[name]))
    assert not wrong, f"{workload}: readings against the prediction table: {wrong}"
