"""Run the loophh benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--trace 0|1]    # every workload, one after another

Each workload is a closed loop with one caller: a pass runs the workload's
operations one after another in a fresh interpreter (``worker.py``), and the
next pass starts when the previous one has ended.  Passes repeat until
``--seconds`` have gone by (at least one pass).  With ``--trace 0`` the run
also starts SETUP_SAMPLES interpreters that only set up, between the passes,
and reports the end-to-end metrics as medians.  Times are scaled to the
reference host speed by the calibration bursts each process runs
(``calibrate.py``); the raw times are printed in the notes.  With ``--trace 1`` it runs one
untraced pass, then traced passes, and reports the per-layer metrics as
medians over the traced passes, plus ``trace.overhead_s``.  Spans are written
to ``.perfbench/`` in the checkout.

The last line of output is one JSON object: ``correct`` (every operation
matched its recorded outcome), ``attempted`` and ``failed`` (operations run,
and those whose outcome differs from the recorded one) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS = ROOT / ".perfbench"
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 120

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def spawn(workload, seed, pass_no, *extra):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed),
           "--pass", str(pass_no), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload, seed, seconds, trace=False, setups=None):
    """Passes until `seconds` have gone by, at least one.

    With a list `setups`, also starts SETUP_SAMPLES set-up-only interpreters,
    spread over the run in proportion to the time gone by, and appends their
    set-up times: samples taken in one burst would all see the same moment's
    load on the machine.
    """
    start = time.monotonic()
    passes = []
    while not passes or time.monotonic() < start + seconds:
        k = len(passes)
        extra = ["--trace", str(SPANS / f"spans-{workload}-p{k}.tsv")] if trace else []
        passes.append(spawn(workload, seed, k, *extra))
        if setups is not None:
            share = min(1.0, (time.monotonic() - start) / seconds) if seconds else 1.0
            while len(setups) < math.ceil(SETUP_SAMPLES * share):
                setups.append(spawn(workload, seed, 0, "--setup-only"))
    if setups is not None:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, 0, "--setup-only"))
    return passes


def measure(workload, seed, seconds, trace):
    """Returns (result, notes): the JSON result object and lines for people."""
    notes = []
    if trace:
        SPANS.mkdir(exist_ok=True)
        base = spawn(workload, seed, 0)
        traced = run_passes(workload, seed, seconds, trace=True)
        passes = [base] + traced
        values = {name: statistics.median_low(p["layers"][name] for p in traced)
                  for name in tracing.metric_names()}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - base["wall_s"]
        units = {name: tracing.unit(name) for name in values}
        notes.append(f"{len(traced)} traced passes after 1 untraced; spans in {SPANS}")
    else:
        setups = []
        passes = run_passes(workload, seed, seconds, setups=setups)
        values = {name: statistics.median(p[name] for p in passes)
                  for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(s["setup_ref_s"] for s in setups)
        units = END_TO_END
        walls = sorted(p["wall_s"] for p in passes)
        speed = statistics.median(p["wall_ref_s"] / p["wall_s"] for p in passes)
        notes.append(f"{len(passes)} passes, raw wall_s {walls[0]:.3f} .. {walls[-1]:.3f} s, "
                     f"median {statistics.median(walls):.3f} s; host speed {speed:.3f} "
                     f"of the reference; setup_s median of {len(setups)}, raw "
                     f"{statistics.median(s['setup_s'] for s in setups):.4f} s")
    attempted = sum(p["attempted"] for p in passes)
    failed_ops = sum(p["failed_ops"] for p in passes)
    notes.append(f"fail_share {failed_ops}/{attempted} = {failed_ops / attempted:.4f} "
                 "(operations that raised or differ from the recorded outcome)")
    mismatched = sum(p["mismatched"] for p in passes)
    result = {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": mismatched,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, notes


def show(workload, result, notes):
    print(f"== {workload}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    if not result["correct"]:
        print(f"  NOT CORRECT: {result['failed']} operations differ from the recorded outcome")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (workloads.SRC / "loophh" / "__init__.py").is_file():
        raise SystemExit(f"error: no loophh sources under {workloads.SRC}; "
                         "run from the root of a checkout")

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        result, notes = measure(name, args.seed, args.seconds, args.trace)
        show(name, result, notes)
    if args.workload:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
