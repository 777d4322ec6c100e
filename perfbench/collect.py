"""Run the benchmark several times and append every result to a file.

    python3 perfbench/collect.py --out FILE [--checkout DIR] [--runs N]
                                 [--seed0 S] [--seconds S] [--trace 0|1] [WORKLOAD ...]

Run r uses seed S + r; within a run the workloads go one after another, so
drift on the machine reaches all of them alike.  Each line of FILE is one
JSON object: workload, seed, trace and the benchmark's result.  To compare two
commits, alternate which side runs first:

    for i in 0 1 2 3 4 5 6 7 8 9; do
      for side in $([ $((i % 2)) = 0 ] && echo parent change || echo change parent); do
        python3 perfbench/collect.py --checkout ../$side --out $side.jsonl --runs 1 --seed0 $i
      done
    done
    python3 perfbench/compare.py parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    p.add_argument("--out", required=True)
    p.add_argument("--checkout", default=".")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    checkout = Path(args.checkout).resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    out = Path(args.out).resolve()
    for r in range(args.runs):
        seed = args.seed0 + r
        for name in names:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"error: {name} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(out, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                     "result": result}) + "\n")
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)


if __name__ == "__main__":
    main()
