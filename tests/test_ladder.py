"""tools/ladder.py on a two-entry slice of its grid: the file's schema and
--compare.

No timing is checked: the times depend on the host.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


def test_ladder_slice_schema_and_compare(tmp_path, monkeypatch, capsys):
    ladder = load_ladder()
    entries = ladder.grid()
    assert len(entries) == 8 * 7 * 3 + 2  # perfbench's copies of instances/ run once
    monkeypatch.setattr(ladder, "grid", lambda: entries[:2])
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out), "--repeat", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "loophh-ladder/1" and doc["repeat"] == 2
    assert [e["argv"] for e in doc["entries"]] == [
        ["hh", "instances/01_line_gm_z2.loop"],
        ["hh", "instances/01_line_gm_z2.loop", "--aux-max", "0", "--tower-levels", "1",
         "--u-window", "1"],
    ]
    for e in doc["entries"]:
        assert set(e) == {"argv", "code", "traceback", "stdout_sha256", "stderr_sha256",
                          "wall_ref_s", "engine_s", "peak_rss_mb"}
        assert e["code"] == 0 and e["traceback"] is False
        assert re.fullmatch("[0-9a-f]{64}", e["stdout_sha256"])
        assert re.fullmatch("[0-9a-f]{64}", e["stderr_sha256"])
        assert len(e["wall_ref_s"]) == len(e["engine_s"]) == len(e["peak_rss_mb"]) == 2
        assert all(isinstance(x, float) and x > 0
                   for x in e["wall_ref_s"] + e["engine_s"] + e["peak_rss_mb"])

    capsys.readouterr()
    assert ladder.main(["--compare", str(out), str(out)]) == 0
    assert "outcomes all equal; 0 times moved" in capsys.readouterr().out

    doc["entries"][1]["stdout_sha256"] = "0" * 64
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert ladder.main(["--compare", str(out), str(other)]) == 1
    assert ("changed stdout_sha256: hh instances/01_line_gm_z2.loop --aux-max 0"
            in capsys.readouterr().out)


def _entry(argv, times, rss=20.0):
    return {"argv": argv, "code": 0, "traceback": False, "stdout_sha256": "0" * 64,
            "stderr_sha256": "0" * 64, "wall_ref_s": times, "peak_rss_mb": [rss] * len(times)}


def _ladder_file(path, entries):
    path.write_text(json.dumps({"schema": "loophh-ladder/1", "repeat": 3, "entries": entries}))
    return str(path)


FIVE = [1.0, 1.005, 1.01, 1.015, 1.02]  # five runs: enough to read a time as moved


def test_compare_divides_out_the_median_time_ratio(tmp_path):
    ladder = load_ladder()
    base = [_entry(["hh", f"f{k}.loop"], FIVE) for k in range(5)]
    a = _ladder_file(tmp_path / "a.json", base)
    # a host 10% slower on every entry: nothing moved
    slower = [_entry(e["argv"], [round(t * 1.1, 4) for t in e["wall_ref_s"]]) for e in base]
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "b.json", slower))
    assert not changed
    assert lines == ["median peak RSS ratio B/A 1.000",
                     "5 common entries; outcomes all equal; 0 times moved beyond the noise; "
                     "0 not resolved (fewer than 5 runs); median time ratio B/A 1.100"]
    # ... except one entry that also doubled, read at the host speed of A
    slower[2]["wall_ref_s"] = [2.2, 2.211, 2.222, 2.233, 2.244]
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "c.json", slower))
    assert not changed
    assert lines[0] == "time moved: hh f2.loop: 1.010 -> 2.020 s (noise 0.030)"
    assert lines[1] == "median peak RSS ratio B/A 1.000"
    assert lines[2].endswith("1 times moved beyond the noise; 0 not resolved (fewer than 5 runs); "
                             "median time ratio B/A 1.100")


def test_compare_prints_the_median_peak_rss_ratio(tmp_path):
    ladder = load_ladder()
    base = [_entry(["hh", f"f{k}.loop"], [1.0, 1.01, 1.02]) for k in range(3)]
    a = _ladder_file(tmp_path / "a.json", base)
    # two of three entries 5% lighter, one 10% heavier: the median ratio is 0.95
    b = [_entry(e["argv"], e["wall_ref_s"], rss) for e, rss in zip(base, (19.0, 22.0, 19.0))]
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "b.json", b))
    assert not changed
    assert lines == ["median peak RSS ratio B/A 0.950",
                     "3 common entries; outcomes all equal; 0 times moved beyond the noise; "
                     "3 not resolved (fewer than 5 runs); median time ratio B/A 1.000"]


def test_a_forked_run_that_differs_from_the_fresh_one_fails_the_ladder(tmp_path, monkeypatch,
                                                                       capsys):
    # module-level state that changes a verb's outcome shows only in the
    # forked run, which calls cli.main in a child of the ladder
    ladder = load_ladder()
    entry = ["hh", "instances/01_line_gm_z2.loop", "--aux-max", "0"]
    monkeypatch.setattr(ladder, "grid", lambda: [entry])
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out), "--repeat", "1"]) == 0
    assert "forked run differs" not in capsys.readouterr().err

    from loophh import cli

    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: main(argv) + 1)
    assert ladder.main(["--out", str(out), "--repeat", "1"]) == 1
    assert ("forked run differs: hh instances/01_line_gm_z2.loop --aux-max 0: exit code 0 -> 1, "
            "stdout equal" in capsys.readouterr().err)
    doc = json.loads(out.read_text())  # the file is written, with the fresh outcome
    assert doc["entries"][0]["code"] == 0


def test_fresh_runs_do_not_inherit_the_ladders_peak_rss(tmp_path, monkeypatch):
    # a forked child's ru_maxrss starts at its parent's RSS; the launcher
    # that forks the fresh runs is small, however large the ladder grows
    ladder = load_ladder()
    monkeypatch.setattr(ladder, "grid", lambda: [["hh", "instances/01_line_gm_z2.loop"]])
    ballast = b"\1" * (96 << 20)  # written, so resident
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out), "--repeat", "1"]) == 0
    (peak,) = json.loads(out.read_text())["entries"][0]["peak_rss_mb"]
    assert peak < 64 and len(ballast) == 96 << 20


def test_compare_prints_the_median_engine_time_ratio(tmp_path):
    ladder = load_ladder()
    base = [_entry(["hh", f"f{k}.loop"], FIVE) for k in range(3)]
    old = _ladder_file(tmp_path / "old.json", base)
    for e in base:
        e["engine_s"] = [0.01, 0.01005, 0.0101, 0.01015, 0.0102]
    a = _ladder_file(tmp_path / "a.json", base)
    # the engine 20% faster on every entry but one, which doubled
    b = [dict(e, engine_s=[round(t * 0.8, 5) for t in e["engine_s"]]) for e in base]
    b[1]["engine_s"] = [0.02, 0.0201, 0.0202, 0.0203, 0.0204]
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "b.json", b))
    assert not changed
    assert lines == ["median peak RSS ratio B/A 1.000",
                     "engine time moved: hh f1.loop: 0.0101 -> 0.0252 s (noise 0.0003)",
                     "median engine time ratio B/A 0.800 over 3 entries; "
                     "1 engine times moved beyond the noise; 0 not resolved",
                     "3 common entries; outcomes all equal; 0 times moved beyond the noise; "
                     "0 not resolved (fewer than 5 runs); median time ratio B/A 1.000"]
    # a file written before engine_s was recorded has none to compare
    lines, changed = ladder.compare(old, a)
    assert not changed
    assert lines[1] == "median engine time ratio B/A n/a: one file has no engine_s"


def test_the_heavy_rung_is_the_benchmarks_big3_localize():
    # one entry whose engine time is several times the start-up, so that
    # engine_s can resolve an engine change; the benchmark runs the same op
    ladder = load_ladder()
    heavy = ["localize", "perfbench/instances/big3.loop", "--aux-max", "8", "--u-window", "8",
             "--tower-levels", "6"]
    assert ladder.grid()[-1] == heavy
    assert ladder.grid().count(heavy) == 1
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    op = " ".join(["localize", "big3", *heavy[2:]])
    assert reference["localize"][op]["code"] == 0


def test_compare_reads_an_entry_only_in_b_as_new(tmp_path):
    # a ladder from before an entry was added compares on the common entries
    ladder = load_ladder()
    base = [_entry(["hh", f"f{k}.loop"], [1.0, 1.01, 1.02]) for k in range(3)]
    a = _ladder_file(tmp_path / "a.json", base)
    b = _ladder_file(tmp_path / "b.json", base + [_entry(["localize", "heavy.loop"], [2.0, 2.0])])
    lines, changed = ladder.compare(a, b)
    assert not changed
    assert lines[0] == f"only in {b}: localize heavy.loop"
    assert lines[-1].startswith("3 common entries; outcomes all equal;")
    # ... but a ladder that lost an entry changed an outcome
    lines, changed = ladder.compare(b, a)
    assert changed
    assert lines[0] == f"only in {b}: localize heavy.loop"
    assert lines[-1].startswith("3 common entries; outcomes changed;")


def test_a_time_with_fewer_than_five_runs_is_not_resolved(tmp_path):
    # at 3 runs the inclusive interquartile range is half of max - min, too
    # narrow to bound the noise: a doubled time is counted, not flagged
    ladder = load_ladder()
    base = [_entry(["hh", f"f{k}.loop"], [1.0, 1.01, 1.02]) for k in range(3)]
    base.append(_entry(["hh", "f3.loop"], FIVE))
    a = _ladder_file(tmp_path / "a.json", base)
    doubled = [dict(e) for e in base]
    doubled[1]["wall_ref_s"] = [2.0, 2.02, 2.04]
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "b.json", doubled))
    assert not changed and not any(line.startswith("time moved") for line in lines)
    assert lines[-1] == ("4 common entries; outcomes all equal; 0 times moved beyond the noise; "
                         "3 not resolved (fewer than 5 runs); median time ratio B/A 1.000")
    # the five-run entry is read: doubled, it moved
    doubled[3]["wall_ref_s"] = [2 * t for t in FIVE]
    lines, _ = ladder.compare(a, _ladder_file(tmp_path / "c.json", doubled))
    assert lines[0].startswith("time moved: hh f3.loop: 1.010 -> ")


def test_the_default_repeat_gives_enough_runs_to_resolve_a_time(tmp_path, monkeypatch):
    ladder = load_ladder()
    monkeypatch.setattr(ladder, "run_ladder", lambda entries, repeat: ([], False))
    out = tmp_path / "ladder.json"
    assert ladder.main(["--out", str(out)]) == 0
    assert json.loads(out.read_text())["repeat"] == ladder.RESOLVED == 5


def test_one_slow_repeat_does_not_hide_a_moved_engine_time(tmp_path):
    # the noise is the sum of the interquartile ranges: a 20% faster entry
    # with one slow repeat among five still moved (max - min would read
    # 0.024 s of noise and flag nothing)
    ladder = load_ladder()
    base = [dict(_entry(["hh", f"f{k}.loop"], [1.0, 1.01, 1.02]), engine_s=[0.01, 0.0101, 0.0102])
            for k in range(3)]
    heavy = dict(_entry(["localize", "big3.loop"], [1.0] * 5),
                 engine_s=[0.030, 0.031, 0.052, 0.032, 0.031])
    a = _ladder_file(tmp_path / "a.json", base + [heavy])
    faster = dict(heavy, engine_s=[0.024, 0.025, 0.0245, 0.026, 0.025])
    lines, changed = ladder.compare(a, _ladder_file(tmp_path / "b.json", base + [faster]))
    assert not changed
    assert "engine time moved: localize big3.loop: 0.0310 -> 0.0250 s (noise 0.0015)" in lines
