"""Summarize benchmark results, or compare the results of two commits.

    python3 perfbench/compare.py RESULTS.jsonl              # spread of one commit
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl  # change against parent

Result files are written by ``collect.py``.  Bounds and the direction of each
metric come from the BENCHMARK.json beside this directory.  For one file the
tool prints, per workload and end-to-end metric, the median, the quartiles and
the spread (quartile distance over the median) against the metric's bound.
For two files it prints both sides and, for runs paired by seed, how many
pairs the change won (ties count for neither).  The verdict follows the rule
the benchmark is used with:

* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``gain``: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile distance;
* ``unresolved``: the parent's spread is wider than the bound, and not every
  run of the change reads better than every run of the parent;
* ``same``: none of these.

Traced results (``--trace 1``) are summarized the same way, without bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {seed: result}} in file order."""
    runs = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def series(results, name):
    return {seed: r["metrics"][name]["value"] for seed, r in results.items()
            if name in r["metrics"]}


def better(a, b, direction):
    """Whether value b is better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(a, b, bound, direction):
    aq1, amed, aq3 = quartiles(sorted(a.values()))
    bmed = statistics.median(b.values())
    worse_by = (bmed - amed) / amed if direction == "lower" else (amed - bmed) / amed
    pairs = [s for s in a if s in b]
    won = sum(better(a[s], b[s], direction) for s in pairs)
    all_better = all(better(x, y, direction) for x in a.values() for y in b.values())
    if bound is not None and worse_by > bound:
        text = "worse"
    elif pairs and won >= 0.9 * len(pairs) and abs(bmed - amed) > aq3 - aq1:
        text = "gain"
    elif bound is not None and (aq3 - aq1) / amed > bound and not all_better:
        text = "unresolved"
    else:
        text = "same"
    return won, len(pairs), worse_by, text


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.loads(BENCHMARK.read_text())
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [load(p) for p in sys.argv[1:]]
    steady = True
    for key, results in sides[0].items():
        workload, trace = key
        print(f"== {workload}{' (traced)' if trace else ''}")
        for name in next(iter(results.values()))["metrics"]:
            m = spec.get(name, {"unit": "?", "better": "lower"})
            bound = m.get("bound")
            a = series(results, name)
            q1, med, q3 = quartiles(sorted(a.values()))
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:30s} {med:12.6g} [{q1:.6g} .. {q3:.6g}] {m['unit']:5s} n={len(a)}"
            if len(sides) == 1:
                if bound is not None:
                    ok = spread <= bound / 3
                    steady &= ok
                    line += f"  spread {spread:.3f} (bound {bound}) {'ok' if ok else 'WIDE'}"
            else:
                b = series(sides[1].get(key, {}), name)
                if not b:
                    continue
                bq1, bmed, bq3 = quartiles(sorted(b.values()))
                won, n, worse_by, text = verdict(a, b, bound, m["better"])
                line += (f"  -> {bmed:.6g} [{bq1:.6g} .. {bq3:.6g}]  won {won}/{n}"
                         f"  worse by {worse_by:+.3f}")
                if bound is not None:
                    line += f" (bound {bound}) {text}"
            print(line)
        for side, runs in zip("AB", sides):
            res = runs.get(key, {}).values()
            if res:
                print(f"  {side}: correct in {sum(r['correct'] for r in res)}/{len(res)} runs, "
                      f"failed {sum(r['failed'] for r in res)}/{sum(r['attempted'] for r in res)}")
    if len(sides) == 1 and not steady:
        print("some spread is wider than a third of its bound")


if __name__ == "__main__":
    main()
