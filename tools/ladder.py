"""The ladder: every CLI verb on every instance file, each in a fresh interpreter.

    python3 tools/ladder.py --out BENCH_<sha>.json [--repeat R]
    python3 tools/ladder.py --compare A.json B.json

The grid is the seven table and theorem verbs on ``instances/*.loop`` and
``perfbench/instances/*.loop`` (a file whose bytes equal an earlier one runs
once), each at three windows (the file's own, the smallest, and a u-window
wider than every strip), plus ``unipotent-check``.
Each entry runs ``python -m loophh`` on this checkout's ``src`` once per
round, in ``--repeat`` rounds over the whole grid.  Per entry the file
records the exit code, the sha256 of stdout and of stderr, whether stderr
holds a traceback, the wall time of each run (interpreter start-up
included) and the peak RSS.  Wall times are scaled to the reference host
speed by the benchmark's calibration bursts (``perfbench/calibrate.py``),
run between stretches of entries.  The peak RSS is the child's
``ru_maxrss``, read from the rusage that ``os.wait4`` returns for that
child alone: the ``RUSAGE_CHILDREN`` total keeps the largest child seen so
far.  The ladder prints the stderr of each run that ends in a traceback and,
after it writes the file, exits 1 if there was one.

``--compare`` lists every entry whose exit code, traceback flag or output
hash differs between two files, and every entry whose median scaled wall
time moved by more than the noise: the sum of the two entries' spreads
(max - min over their runs; entries with one run have no spread and their
times are not compared).  B's times are first divided by the median ratio
B/A of the common entries' median times, which it prints, so a host that
runs a session uniformly faster or slower flags no entry.  It also prints
the median over the common entries of the ratio B/A of their median peak
RSS.  It exits 1 when an outcome changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import calibrate  # noqa: E402

SCHEMA = "loophh-ladder/1"
VERBS = ("hh", "hp", "hn", "hc", "stabilizers", "localize", "fixed-fiber")
WINDOWS = (
    (),
    ("--aux-max", "0", "--tower-levels", "1", "--u-window", "1"),
    ("--aux-max", "5", "--u-window", "8"),
)
OUTCOME = ("code", "traceback", "stdout_sha256", "stderr_sha256")


def grid():
    """The argv of every entry, after ``python -m loophh``."""
    files, seen = [], set()
    for f in sorted(ROOT.glob("instances/*.loop")) + sorted(ROOT.glob("perfbench/instances/*.loop")):
        data = f.read_bytes()
        if data not in seen:
            seen.add(data)
            files.append(f)
    entries = [[verb, str(f.relative_to(ROOT)), *flags]
               for f in files for verb in VERBS for flags in WINDOWS]
    return entries + [["unipotent-check"]]


def run_once(argv, env):
    """(exit code, stdout, stderr, raw wall seconds, peak RSS in MB) of one run."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "loophh", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024


def run_ladder(entries, repeat):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LOOPHH_CACHE_DIR", None)  # every run computes its report
    pending = []  # (record, raw wall) of the runs since the last burst
    stretch_s = 0.0
    speed_before = calibrate.speed()

    def scale_pending():
        nonlocal speed_before, stretch_s
        speed_after = calibrate.speed()
        speed = (speed_before + speed_after) / 2
        for record, wall in pending:
            record["wall_ref_s"].append(round(wall * speed, 4))
        pending.clear()
        speed_before, stretch_s = speed_after, 0.0

    records = [{"argv": argv, "wall_ref_s": [], "peak_rss_mb": []} for argv in entries]
    for run in range(repeat):  # whole rounds, so the spread of an entry includes drift
        for record in records:
            argv = record["argv"]
            code, out, err, wall, peak = run_once(argv, env)
            outcome = {
                "code": code,
                "traceback": b"Traceback" in err,
                "stdout_sha256": hashlib.sha256(out).hexdigest(),
                "stderr_sha256": hashlib.sha256(err).hexdigest(),
            }
            if run == 0 and outcome["traceback"]:
                print(f"traceback: {' '.join(argv)}\n{err.decode()}", file=sys.stderr)
            elif run and any(record[k] != outcome[k] for k in OUTCOME):
                raise SystemExit(f"error: {' '.join(argv)}: runs differ in their output")
            record.update(outcome)
            record["peak_rss_mb"].append(round(peak, 2))
            pending.append((record, wall))
            stretch_s += wall
            if stretch_s >= calibrate.STRETCH_S:
                scale_pending()
    if pending:
        scale_pending()
    return records


def compare(a_path, b_path):
    """Lines naming each changed outcome and each moved time; whether an
    outcome changed."""
    a, b = (
        {tuple(e["argv"]): e for e in json.loads(Path(p).read_text())["entries"]}
        for p in (a_path, b_path)
    )
    lines = [f"only in {p}: {' '.join(k)}"
             for p, mine, other in ((a_path, a, b), (b_path, b, a))
             for k in mine if k not in other]
    changed = bool(lines)
    common = [k for k in a if k in b]
    for key in common:
        for field in OUTCOME:
            if a[key][field] != b[key][field]:
                changed = True
                lines.append(f"changed {field}: {' '.join(key)}: {a[key][field]} -> {b[key][field]}")
    # entries with a spread on both sides, and their median times
    timed = [(key, a[key]["wall_ref_s"], b[key]["wall_ref_s"]) for key in common]
    timed = [(key, ta, tb, statistics.median(ta), statistics.median(tb))
             for key, ta, tb in timed if min(len(ta), len(tb)) >= 2]
    ratio = statistics.median(mb / ma for *_, ma, mb in timed) if timed else 1.0
    moved = 0
    for key, ta, tb, ma, mb in timed:
        noise = (max(ta) - min(ta)) + (max(tb) - min(tb)) / ratio
        if abs(mb / ratio - ma) > noise:
            moved += 1
            lines.append(f"time moved: {' '.join(key)}: {ma:.3f} -> {mb / ratio:.3f} s "
                         f"(noise {noise:.3f})")
    peaks = [[statistics.median(x[key]["peak_rss_mb"]) for x in (a, b)] for key in common]
    rss = statistics.median(pb / pa for pa, pb in peaks) if peaks else 1.0
    lines.append(f"median peak RSS ratio B/A {rss:.3f}")
    lines.append(f"{len(common)} common entries; outcomes {'changed' if changed else 'all equal'}; "
                 f"{moved} times moved beyond the noise; median time ratio B/A {ratio:.3f}")
    return lines, changed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", metavar="FILE", help="write the ladder to FILE")
    p.add_argument("--repeat", type=int, default=3, help="runs per entry (default 3)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two ladder files")
    args = p.parse_args(argv)
    if args.compare:
        lines, changed = compare(*args.compare)
        print("\n".join(lines))
        return 1 if changed else 0
    if not args.out:
        p.error("--out or --compare is required")
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    records = run_ladder(grid(), args.repeat)
    head = {"schema": SCHEMA, "python": sys.version.split()[0], "repeat": args.repeat}
    # one entry per line, so two files diff entry by entry
    body = ",\n".join(json.dumps(r) for r in records)
    Path(args.out).write_text(json.dumps(head)[:-1] + ', "entries": [\n' + body + "\n]}\n")
    return 1 if any(r["traceback"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
