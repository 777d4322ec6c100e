"""The ladder: every CLI verb on every instance file, each in a fresh interpreter.

    python3 tools/ladder.py --out BENCH_<sha>.json [--repeat R]
    python3 tools/ladder.py --compare A.json B.json

The grid is the seven table and theorem verbs on ``instances/*.loop`` and
``perfbench/instances/*.loop`` (a file whose bytes equal an earlier one runs
once), each at three windows (the file's own, the smallest, and a u-window
wider than every strip), plus ``unipotent-check`` and one heavy rung: the
benchmark's big3 ``localize``, whose engine time is several times the
start-up, so that ``engine_s`` can resolve an engine change.
Each entry runs ``python -m loophh`` on this checkout's ``src`` once per
round, in ``--repeat`` rounds (5 by default) over the whole grid.  Per
entry the file records the exit code, the sha256 of stdout and of stderr,
whether stderr holds a traceback, the wall time of each run (interpreter
start-up included) and the peak RSS.  The peak RSS is the child's ``ru_maxrss``,
read from the rusage that ``os.wait4`` returns for that child alone.  A
child's ``ru_maxrss`` starts at the RSS of the process that forked it, so
the fresh runs are forked by a small launcher interpreter, started once.

Each entry also runs once per round in a child forked from the ladder after
it has imported ``loophh.cli`` and ``loophh.cyclic``: the child calls
``cli.main(argv)`` with stdout and stderr in files of the run's temporary
directory.  The wall time of that call, taken in the child, is the verb
without interpreter start-up, import or fork: the entry's ``engine_s``.  The fresh run stays the outcome: a
forked run whose exit code or stdout differs from it is a finding about
module-level state.  Wall and engine times are scaled to the reference host
speed by the benchmark's calibration bursts (``perfbench/calibrate.py``),
run between stretches of entries.  The ladder prints the stderr of each run
that ends in a traceback and each forked run that differs and, after it
writes the file, exits 1 if there was one.

``--compare`` lists every entry whose exit code, traceback flag or output
hash differs between two files, every entry only one of them has (one only
in A is a changed outcome; one only in B is new, and is not), and every
entry whose median scaled wall time moved by more than the noise: the sum
of the two entries' interquartile ranges (inclusive quartiles of their
runs: at 5 runs the second-smallest to the second-largest, so one slow run
does not widen it).  Only an entry with 5 or more runs on both sides is
read as moved or not: at 3 runs the inclusive interquartile range is half
of max - min, too narrow to bound the noise.  The other entries are counted
as not resolved, and the count is printed.  B's times are first divided by
the median ratio B/A of the median times of the common entries with 2 or
more runs on both sides, which it prints, so a host that runs a session
uniformly faster or slower flags no entry.  It also prints the median over
the common entries of the ratio B/A of their median peak RSS and, unless
neither file has one, of their median ``engine_s`` (an older file without
``engine_s`` reads as n/a), with each engine time that moved beyond the
noise in the same way.  It exits 1 when an outcome changed.
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
import traceback
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
RESOLVED = 5  # runs on both sides for --compare to read a time as moved or not
# the first operation of the benchmark's localize workload
HEAVY = ["localize", "perfbench/instances/big3.loop", "--aux-max", "8", "--u-window", "8",
         "--tower-levels", "6"]


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
    return entries + [["unipotent-check"], HEAVY]


# Forks each fresh run and reports "<exit code> <wall s> <ru_maxrss KB>".  It
# runs under -S and imports only built-in modules, so that its own RSS, the
# floor of each child's ru_maxrss, stays below that of any verb.
LAUNCHER = """
import os, sys, time
for line in sys.stdin:
    out, err, *argv = line[:-1].split("\\0")
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.dup2(os.open(out, os.O_WRONLY | os.O_TRUNC), 1)
            os.dup2(os.open(err, os.O_WRONLY | os.O_TRUNC), 2)
            os.execv(sys.executable, [sys.executable, "-m", "loophh", *argv])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss, flush=True)
"""


def run_once(argv, launcher, tmp):
    """(exit code, stdout, stderr, raw wall seconds, peak RSS in MB) of one
    fresh run, forked by `launcher`."""
    out, err = tmp / "fresh.out", tmp / "fresh.err"
    out.write_bytes(b"")
    err.write_bytes(b"")
    launcher.stdin.write("\0".join([str(out), str(err), *argv]) + "\n")
    launcher.stdin.flush()
    code, wall, peak_kb = launcher.stdout.readline().split()
    return int(code), out.read_bytes(), err.read_bytes(), float(wall), int(peak_kb) / 1024


def run_forked(argv, cli, tmp):
    """(exit code, stdout, stderr, raw wall seconds) of `cli.main(argv)` in a
    child forked from this process.  The child times itself, so the fork and
    the wait, which grow with the ladder's own size, are not counted."""
    out, err, wall = tmp / "forked.out", tmp / "forked.err", tmp / "forked.wall"
    wall.write_text("")
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        t0, code = time.perf_counter(), 1
        try:
            os.chdir(ROOT)
            os.environ.pop("LOOPHH_CACHE_DIR", None)  # as for the fresh runs
            sys.stdin = open(os.devnull)
            sys.stdout, sys.stderr = open(out, "w"), open(err, "w")
            code = cli.main(argv)
        except SystemExit as e:  # argparse
            code = 0 if e.code is None else e.code
        except BaseException:  # the child must not return into the ladder
            traceback.print_exc()
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
                wall.write_text(repr(time.perf_counter() - t0))
            finally:
                os._exit(code if isinstance(code, int) else 1)
    _, status, _ = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes(),
            float(wall.read_text()))


def run_ladder(entries, repeat):
    """The records of every entry, and whether a forked run differed."""
    sys.path.insert(0, str(ROOT / "src"))
    from loophh import cli
    import loophh.cyclic  # noqa: F401  (every engine module is loaded before a fork)

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "loophh":
        raise SystemExit(f"error: imported loophh from {cli.__file__}, not {ROOT / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LOOPHH_CACHE_DIR", None)  # every run computes its report
    launcher = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER], cwd=ROOT, env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    pending = []  # (record, raw wall, raw engine time) of the runs since the last burst
    stretch_s = 0.0
    speed_before = calibrate.speed()

    def scale_pending():
        nonlocal speed_before, stretch_s
        speed_after = calibrate.speed()
        speed = (speed_before + speed_after) / 2
        for record, wall, engine in pending:
            record["wall_ref_s"].append(round(wall * speed, 4))
            record["engine_s"].append(round(engine * speed, 5))
        pending.clear()
        speed_before, stretch_s = speed_after, 0.0

    records = [{"argv": argv, "wall_ref_s": [], "engine_s": [], "peak_rss_mb": []}
               for argv in entries]
    differs = False
    with tempfile.TemporaryDirectory() as tmp, launcher:
        tmp = Path(tmp)
        for run in range(repeat):  # whole rounds, so the spread of an entry includes drift
            for record in records:
                argv = record["argv"]
                code, out, err, wall, peak = run_once(argv, launcher, tmp)
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
                fcode, fout, ferr, engine = run_forked(argv, cli, tmp)
                if fcode != code or fout != out:
                    differs = True
                    print(f"forked run differs: {' '.join(argv)}: exit code {code} -> {fcode}, "
                          f"stdout {'equal' if fout == out else 'differs'}\n{ferr.decode()}",
                          file=sys.stderr)
                record["peak_rss_mb"].append(round(peak, 2))
                pending.append((record, wall, engine))
                stretch_s += wall + engine
                if stretch_s >= calibrate.STRETCH_S:
                    scale_pending()
        launcher.stdin.close()
    if pending:
        scale_pending()
    return records, differs


def compare(a_path, b_path):
    """Lines naming each changed outcome and each moved time; whether an
    outcome changed."""
    a, b = (
        {tuple(e["argv"]): e for e in json.loads(Path(p).read_text())["entries"]}
        for p in (a_path, b_path)
    )
    lines = [f"only in {a_path}: {' '.join(k)}" for k in a if k not in b]
    changed = bool(lines)
    lines += [f"only in {b_path}: {' '.join(k)}" for k in b if k not in a]
    common = [k for k in a if k in b]
    for key in common:
        for field in OUTCOME:
            if a[key][field] != b[key][field]:
                changed = True
                lines.append(f"changed {field}: {' '.join(key)}: {a[key][field]} -> {b[key][field]}")
    ratio, moved, unresolved = _moved_times(a, b, common, "wall_ref_s", "time moved", lines)
    peaks = [[statistics.median(x[key]["peak_rss_mb"]) for x in (a, b)] for key in common]
    rss = statistics.median(pb / pa for pa, pb in peaks) if peaks else 1.0
    lines.append(f"median peak RSS ratio B/A {rss:.3f}")
    engine = [k for k in common if a[k].get("engine_s") and b[k].get("engine_s")]
    if engine:
        eratio, emoved, eunresolved = _moved_times(a, b, engine, "engine_s", "engine time moved",
                                                   lines, 4)
        lines.append(f"median engine time ratio B/A {eratio:.3f} over {len(engine)} entries; "
                     f"{emoved} engine times moved beyond the noise; {eunresolved} not resolved")
    elif any(x[k].get("engine_s") for x in (a, b) for k in common):
        lines.append("median engine time ratio B/A n/a: one file has no engine_s")
    lines.append(f"{len(common)} common entries; outcomes {'changed' if changed else 'all equal'}; "
                 f"{moved} times moved beyond the noise; {unresolved} not resolved (fewer than "
                 f"{RESOLVED} runs); median time ratio B/A {ratio:.3f}")
    return lines, changed


def _moved_times(a, b, keys, field, label, lines, digits=3):
    """The median ratio B/A of the entries' median `field` times, how many
    moved beyond the noise, each named in `lines`, and how many have too few
    runs to tell."""
    # entries with a spread on both sides, and their median times
    timed = [(key, a[key][field], b[key][field]) for key in keys]
    timed = [(key, ta, tb, statistics.median(ta), statistics.median(tb))
             for key, ta, tb in timed if min(len(ta), len(tb)) >= 2]
    ratio = statistics.median(mb / ma for *_, ma, mb in timed) if timed else 1.0
    resolved = [entry for entry in timed if min(map(len, entry[1:3])) >= RESOLVED]
    moved = 0
    for key, ta, tb, ma, mb in resolved:
        noise = _iqr(ta) + _iqr(tb) / ratio
        if abs(mb / ratio - ma) > noise:
            moved += 1
            lines.append(f"{label}: {' '.join(key)}: {ma:.{digits}f} -> {mb / ratio:.{digits}f} s "
                         f"(noise {noise:.{digits}f})")
    return ratio, moved, len(keys) - len(resolved)


def _iqr(ts):
    q1, _, q3 = statistics.quantiles(ts, n=4, method="inclusive")
    return q3 - q1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", metavar="FILE", help="write the ladder to FILE")
    p.add_argument("--repeat", type=int, default=RESOLVED,
                   help=f"runs per entry (default {RESOLVED})")
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
    records, differs = run_ladder(grid(), args.repeat)
    head = {"schema": SCHEMA, "python": sys.version.split()[0], "repeat": args.repeat}
    # one entry per line, so two files diff entry by entry
    body = ",\n".join(json.dumps(r) for r in records)
    Path(args.out).write_text(json.dumps(head)[:-1] + ', "entries": [\n' + body + "\n]}\n")
    return 1 if differs or any(r["traceback"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
