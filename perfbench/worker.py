"""One pass over one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N --pass K --t0 T [--setup-only] [--trace FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, importing loophh and
reading the instance files.  The seed and the pass number only permute the
order of the operations.  Calibration bursts between the operations scale
the pass's times to the reference host speed (``calibrate.py``); a set-up-only
process runs one burst after setting up.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import workloads
from calibrate import Meter, speed


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_no", type=int, default=0)
    p.add_argument("--t0", type=float, default=time.monotonic(),
                   help="default: now, which leaves interpreter start out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", metavar="FILE", help="record spans and write them to FILE")
    args = p.parse_args()

    workloads.import_engine()
    ops = workloads.build(args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * speed()}))
        return

    reference = workloads.load_reference()[args.workload]
    random.Random(f"{args.seed}/{args.pass_no}").shuffle(ops)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    meter = Meter()
    meter.start()
    for op in ops:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is None:
            outcome = op.run()
        else:
            tracer.op = op.id
            outcome = tracer.run("op", op.run)
        meter.add(time.perf_counter() - wall0, time.process_time() - cpu0)
        outcomes.append((op.id, outcome))
    meter.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    mismatched = []
    for op_id, outcome in outcomes:
        if outcome != reference.get(op_id):
            mismatched.append(op_id)
            print(f"mismatch: {args.workload} / {op_id}: got {outcome}, "
                  f"expected {reference.get(op_id)}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "wall_s": meter.wall_s,
        "cpu_s": meter.cpu_s,
        "wall_ref_s": meter.wall_ref_s,
        "cpu_ref_s": meter.cpu_ref_s,
        "calib_s": meter.calib_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "mismatched": len(mismatched),
        "failed_ops": sum("raises" in o or op_id in mismatched for op_id, o in outcomes),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
