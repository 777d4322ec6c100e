import hashlib
import os
import re
import shutil
import stat
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from loophh.cli import build_parser, main, run_verb
from loophh.complexes import ChainMap, GradedComplex
from loophh.instancefile import parse_instance
from loophh.linalg import EchelonReducer, SparseMatrix
from loophh.mixed import USeriesComplex
from loophh.models import SemifreeModel
from loophh.scalars import CycElt

LINE_GM = """\
# the scaling line modulo the rank-1 torus
[space]
generator x weight=1 aux=1
[group]
rank 1
[point]
z 2
[truncation]
aux_max 3
tower_levels 3
u_window 3
laurent_cap 4
[assert]
smooth true
regular_sequence true
"""

POINT_TRIVIAL = """\
[space]
[group]
rank 0
[point]
z
[truncation]
aux_max 2
[assert]
smooth true
"""

PLANE_OPPOSITE = """\
[space]
generator x weight=1 aux=1
generator y weight=-1 aux=1
[group]
rank 1
[point]
z 3
[truncation]
aux_max 2
tower_levels 2
u_window 3
laurent_cap 5
[assert]
smooth true
"""


# the rank-2 torus acting on the plane by its two coordinates, at z = (-1, 1)
RANK_TWO = """\
[space]
generator x weight=1,0 aux=1
generator y weight=0,1 aux=1
[group]
rank 2
[point]
z -1,1
[assert]
smooth true
"""


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("verb, code", [
    ("localize", 2), ("fixed-fiber", 2), ("hh", 0), ("hp", 0), ("stabilizers", 0),
])
def test_rank_two_point(tmp_path, capsys, verb, code):
    # completing at a rank-2 point is not implemented: the verbs that complete
    # say so in one line; the others do not complete and run
    f = tmp_path / "rank2.loop"
    f.write_text(RANK_TWO)
    got, out, err = run_cli([verb, str(f)], capsys)
    assert got == code
    assert err == ("error: torus rank > 1 completion points\n" if code else "")
    assert (out == "") == bool(code)


def test_hh_line_gm(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["hh", str(f)], capsys)
    assert code == 0
    assert "loophh report v1" in out.splitlines()[0]
    # the k[z^+-] row: one line per group exponent
    for mu in (-4, -1, 0, 1, 4):
        assert f"0;{mu};0;0 -> 1" in out


def test_hh_point_trivial(tmp_path, capsys):
    f = tmp_path / "pt.loop"
    f.write_text(POINT_TRIVIAL)
    code, out, _ = run_cli(["hh", str(f)], capsys)
    assert code == 0
    assert "0;;0;0 -> 1" in out


def test_hh_plane_opposite_weights(tmp_path, capsys):
    f = tmp_path / "plane.loop"
    f.write_text(PLANE_OPPOSITE)
    code, out, _ = run_cli(["hh", str(f)], capsys)
    assert code == 0


def test_hp_line(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["hp", str(f)], capsys)
    assert code == 0
    assert "HP table:" in out


def test_localize_line(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["localize", str(f)], capsys)
    assert code == 0, out
    assert "verdict: PASS" in out


def test_fixed_fiber(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["fixed-fiber", str(f)], capsys)
    assert code == 0, out


@pytest.mark.parametrize("path", ["/nonexistent/file.loop", "line.loop"])
def test_unipotent_check_refuses_an_instance_file(path, tmp_path, capsys):
    (tmp_path / "line.loop").write_text(LINE_GM)
    assert run_cli(["unipotent-check", str(tmp_path / path)], capsys) == (
        2, "", "error: unipotent-check takes no instance file\n")


def test_unipotent_check(capsys):
    code, out, _ = run_cli(["unipotent-check"], capsys)
    assert code == 0
    assert "unipotent-formal-tate: PASS" in out


def test_stabilizers(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["stabilizers", str(f)], capsys)
    assert code == 0
    assert "full torus" in out and "trivial" in out


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.loop"
    f.write_text("[space]\ngenerator x weight=1,2 aux=1\n[group]\nrank 1\n")
    code, _, err = run_cli(["hh", str(f)], capsys)
    assert code == 2


@pytest.mark.parametrize("weight", ["1,,2", "-", "1,", ",1", "1-"])
def test_malformed_weight_list_names_its_line(weight, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace("weight=1", f"weight={weight}"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == f"parse error: bad generator line: 'generator x weight={weight} aux=1'\n"


def test_rank_zero_refuses_a_listed_weight(tmp_path, capsys):
    f = tmp_path / "pt.loop"
    f.write_text(POINT_TRIVIAL.replace("[space]", "[space]\ngenerator x weight=5 aux=1"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert (code, out) == (2, "")
    assert err == "parse error: generator x: weight length != rank 0\n"


def test_rank_zero_accepts_an_empty_weight_list(tmp_path, capsys):
    # a weight list holds exactly `rank` integers, so rank 0's is empty
    f = tmp_path / "pt.loop"
    f.write_text(POINT_TRIVIAL.replace("[space]", "[space]\ngenerator x weight= aux=1"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert (code, err) == (0, "")
    assert "0;;1;0 -> 1" in out.splitlines()
    P, *_ = parse_instance(f.read_text())
    assert [tuple(g.weight) for g in P.generators] == [()]
    # at rank 1 an empty list is one weight short
    f.write_text(LINE_GM.replace("weight=1", "weight="))
    assert run_cli(["hh", str(f)], capsys) == (
        2, "", "parse error: generator x: weight length != rank 1\n")


@pytest.mark.parametrize("coord", ["zeta(0)", "1/0", "2*zeta(0)", "1/0*zeta(3)"])
def test_degenerate_coordinate_rejected(coord, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace("z 2", f"z {coord}"))
    code, out, err = run_cli(["localize", str(f)], capsys)
    assert code == 2
    assert "parse error" in err and repr(coord) in err and "PASS" not in out


@pytest.mark.parametrize("line,bad", [("aux_max 3", "aux_max four"), ("rank 1", "rank one")])
def test_non_integer_field_rejected(line, bad, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace(line, bad))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    field, _, val = bad.partition(" ")
    assert f"parse error: {field}" in err and repr(val) in err and "table" not in out


@pytest.mark.parametrize("section,typo", [("group", "grp"), ("truncation", "truncaton")])
def test_unknown_section_rejected(section, typo, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace(f"[{section}]", f"[{typo}]"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    assert f"[{typo}]" in err and "table" not in out


def test_inhomogeneous_relation_rejected(tmp_path, capsys):
    f = tmp_path / "bad.loop"
    f.write_text(
        "[space]\ngenerator x weight=1 aux=1\ngenerator y weight=2 aux=1\n"
        "relation x + y\n[group]\nrank 1\n[assert]\nsmooth true\n"
    )
    code, _, err = run_cli(["hh", str(f)], capsys)
    assert code == 2


@pytest.mark.parametrize("coeff", ["2/0", "1/00"])
def test_zero_denominator_relation_coefficient_rejected(coeff, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace("[group]", f"relation {coeff}*x\n[group]"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    assert err.startswith("parse error") and repr(coeff) in err and "table" not in out


def test_backend_mismatch_exit_3(tmp_path, capsys):
    f = tmp_path / "zeta.loop"
    f.write_text(
        "[space]\ngenerator x weight=2 aux=1\n[group]\nrank 1\n"
        "[point]\nz zeta(3)\n[truncation]\naux_max 2\ntower_levels 2\n"
        "[assert]\nsmooth true\n"
    )
    # root-of-unity points route through the cyclotomic backend automatically,
    # so localize must succeed
    code, out, _ = run_cli(["localize", str(f)], capsys)
    assert code == 0, out


def test_window_too_small_inconclusive(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    # a 1-wide u-window leaves the sheared comparison with no usable bins
    code, out, _ = run_cli(["localize", str(f), "--u-window", "1"], capsys)
    assert code == 4
    assert "INCONCLUSIVE" in out


def test_non_utf8_instance_is_an_error_line(tmp_path, capsys):
    f = tmp_path / "bad.loop"
    f.write_bytes(b"\xff\xfe[space]\n")
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_tower_levels_flag_below_one_rejected(levels, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, err = run_cli(["localize", str(f), "--tower-levels", levels], capsys)
    assert code == 2
    assert "tower_levels" in err and "PASS" not in out


def test_tower_levels_line_below_one_rejected(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace("tower_levels 3", "tower_levels 0"))
    code, out, err = run_cli(["localize", str(f)], capsys)
    assert code == 2
    assert "tower_levels" in err and "PASS" not in out


# each window that is empty or inverted, as flags and as [truncation] lines
EMPTY_WINDOWS = [
    ("u_window", {"u_window": 0}),
    ("u_window", {"u_window": -2}),
    ("aux_max", {"aux_max": -1}),
    ("laurent_cap", {"laurent_cap": -1}),
    ("cohdeg_min", {"cohdeg_min": 3, "cohdeg_max": -3}),
    ("bar_depth", {"bar_depth": -3}),
]


@pytest.mark.parametrize("verb", ["hh", "localize"])
@pytest.mark.parametrize("field,values", EMPTY_WINDOWS)
def test_empty_window_flag_rejected(verb, field, values, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    flags = [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", str(v))]
    code, out, err = run_cli([verb, str(f), *flags], capsys)
    assert code == 2
    assert field in err and "table" not in out and "PASS" not in out


@pytest.mark.parametrize("field,values", EMPTY_WINDOWS)
def test_empty_window_line_rejected(field, values, tmp_path, capsys):
    f = tmp_path / "line.loop"
    # each line replaces the file's own line for its field, if it has one
    kept = [ln for ln in LINE_GM.splitlines(keepends=True) if ln.split(" ")[0] not in values]
    lines = "".join(f"{k} {v}\n" for k, v in values.items())
    f.write_text("".join(kept).replace("[assert]", lines + "[assert]"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    assert field in err and "repeated" not in err and "table" not in out


# the validating constructor's message for each window, read through the flags
FLAG_MESSAGES = [
    (["--tower-levels", "0"], "tower_levels must be >= 1, got 0"),
    (["--u-window", "-2"], "u_window must be >= 1, got -2"),
    (["--aux-max", "-1"], "aux_max must be >= 0, got -1"),
    (["--laurent-cap", "-1"], "laurent_cap must be >= 0, got -1"),
    (["--bar-depth", "-3"], "bar_depth must be >= 0, got -3"),
    (["--cohdeg-min", "3", "--cohdeg-max", "-3"], "cohdeg_min must be <= cohdeg_max, got 3 > -3"),
    (["--cohdeg-min", "7"], "cohdeg_min must be <= cohdeg_max, got 7 > 6"),
]


@pytest.mark.parametrize("flags,message", FLAG_MESSAGES)
def test_window_flag_messages(flags, message, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    assert run_cli(["localize", str(f), *flags], capsys) == (2, "", f"error: {message}\n")


# a field given twice, in each section whose fields are single
REPEATED = [
    ("group", "rank", ("rank 1", "rank 1\nrank 1")),
    ("point", "z", ("z 2", "z 2\nz 3")),
    ("truncation", "u_window", ("u_window 3", "u_window 3\nu_window 2")),
    ("truncation", "aux_max", ("[assert]", "[truncation]\naux_max 2\n[assert]")),
    ("assert", "smooth", ("smooth true", "smooth true\nsmooth false")),
]


@pytest.mark.parametrize("section,field,edit", REPEATED)
def test_repeated_field_rejected(section, field, edit, tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM.replace(*edit))
    assert run_cli(["localize", str(f)], capsys) == (
        2, "", f"parse error: repeated {section} field {field!r}\n")


def test_no_instance_file_repeats_a_field():
    root = Path(__file__).resolve().parents[1]
    for path in sorted(root.glob("instances/*.loop")) + sorted(root.glob("perfbench/instances/*.loop")):
        parse_instance(path.read_text())


def test_smallest_windows_accepted(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["hh", str(f), "--aux-max", "0", "--laurent-cap", "0",
                            "--bar-depth", "0", "--cohdeg-min", "0", "--cohdeg-max", "0"], capsys)
    assert code == 0 and "HH table" in out


def test_cache_round_trip(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    cdir = tmp_path / "cache"
    code1, out1, err1 = run_cli(["hh", str(f), "--cache-dir", str(cdir)], capsys)
    code2, out2, err2 = run_cli(["hh", str(f), "--cache-dir", str(cdir)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    assert "cache hit" in err2 and "cache hit" not in err1


def test_cache_ignores_comments_and_sees_truncation(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    g = tmp_path / "line2.loop"
    g.write_text("# a new comment\n" + LINE_GM)
    cdir = tmp_path / "cache"
    run_cli(["hh", str(f), "--cache-dir", str(cdir)], capsys)
    code, out, err = run_cli(["hh", str(g), "--cache-dir", str(cdir)], capsys)
    assert "cache hit" in err  # comments excluded from the hash
    code, out, err = run_cli(["hh", str(f), "--cache-dir", str(cdir), "--aux-max", "2"], capsys)
    assert "cache hit" not in err  # window change -> miss


def test_corrupt_cache_recomputed(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    cdir = tmp_path / "cache"
    run_cli(["hh", str(f), "--cache-dir", str(cdir)], capsys)
    for entry in os.listdir(cdir):
        p = cdir / entry
        p.write_bytes(b"loophh-cache:0:deadbeef\ngarbage")
    code, out, err = run_cli(["hh", str(f), "--cache-dir", str(cdir)], capsys)
    assert code == 0
    assert "corrupt cache" in err


def test_cache_misses_after_the_engine_source_changes(tmp_path):
    # ENGINE_VERSION stays put across engine changes, so the key must also
    # cover the source: cache a report with a copy of the engine, change one
    # of the copy's modules, and the entry must miss
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "loophh", src / "loophh",
                    ignore=shutil.ignore_patterns("__pycache__"))
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)

    def stderr_of_hh():
        proc = subprocess.run(
            [sys.executable, "-m", "loophh", "hh", str(f), "--cache-dir", str(tmp_path / "cache")],
            capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    assert "cache hit" not in stderr_of_hh()
    assert "cache hit" in stderr_of_hh()
    with open(src / "loophh" / "towers.py", "a") as fh:
        fh.write("# changed\n")
    assert "cache hit" not in stderr_of_hh()


def test_report_file_written(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    rpt = tmp_path / "out"
    rpt.mkdir()
    target = rpt / "report.txt"
    code, out, _ = run_cli(["hh", str(f), "--report", str(target)], capsys)
    assert target.read_text() == out


def test_report_and_cache_entry_modes(tmp_path, capsys):
    # a new report or cache entry gets 0o666 less the umask, as `open` gives
    # a new file; an existing report keeps its mode
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    new, kept, cdir = tmp_path / "new.txt", tmp_path / "kept.txt", tmp_path / "cache"
    kept.write_text("")
    kept.chmod(0o640)
    old = os.umask(0o022)
    try:
        for target in (new, kept):
            code, out, _ = run_cli(["stabilizers", str(f), "--report", str(target),
                                    "--cache-dir", str(cdir)], capsys)
            assert code == 0 and target.read_text() == out
    finally:
        os.umask(old)
    (entry,) = cdir.iterdir()
    modes = [stat.S_IMODE(p.stat().st_mode) for p in (new, kept, entry)]
    assert modes == [0o644, 0o640, 0o644]
    assert sorted(os.listdir(tmp_path)) == ["cache", "kept.txt", "line.loop", "new.txt"]


@pytest.mark.parametrize("where", ["missing directory", "existing directory"])
def test_unwritable_report_is_one_error_line(where, tmp_path, capsys):
    # the report is printed, then one line says why the file was not written;
    # no temp file is left beside the target
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    (tmp_path / "dir").mkdir()
    target = tmp_path / ("no/such/dir/r.txt" if where == "missing directory" else "dir")
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_cli(["hh", str(f), "--report", str(target)], capsys)
    assert code == 2
    assert "HH table" in out
    assert err.startswith("error: cannot write the report") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before and os.listdir(tmp_path / "dir") == []


@pytest.mark.parametrize("args, verdict_code", [
    (["hh"], 0), (["localize", "--aux-max", "0"], 1),
])
def test_unwritable_cache_is_one_warning_line(args, verdict_code, tmp_path, capsys):
    # a cache directory that cannot be made (a file is in the way) costs the
    # cache, not the verdict: one warning line and the verdict's exit code
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for cdir in (blocker, blocker / "cache"):
        code, out, err = run_cli([args[0], str(f), *args[1:], "--cache-dir", str(cdir)], capsys)
        assert code == verdict_code
        assert out.startswith("loophh report")
        assert err.startswith("warning: cannot write a cache entry") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name",
    [
        "01_line_gm_z2.loop",
        "02_plane_12_zm1.loop",
        "03_plane_12_z3.loop",
        "04_line_gm_identity.loop",
        "05_plane_opposite_z3.loop",
        "06_weight2_zeta2.loop",
    ],
)
def test_shipped_instances_localize_pass(name, capsys):
    path = Path(__file__).resolve().parents[1] / "instances" / name
    code, out, _ = run_cli(["localize", str(path)], capsys)
    assert code == 0, out
    assert "verdict: PASS" in out


def test_reports_byte_deterministic(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    _, out1, _ = run_cli(["localize", str(f)], capsys)
    _, out2, _ = run_cli(["localize", str(f)], capsys)
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "loophh", "unipotent-check"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "unipotent-formal-tate: PASS" in proc.stdout


@pytest.mark.parametrize("verb", ["hh", "hp", "hn", "hc"])
def test_table_verbs_print_values_on_edge_bins(verb, monkeypatch, tmp_path, capsys):
    # a table verb prints every bin with its value, so it asks for full
    # tables; hh on 05, and hp and hc on a plane with a weight-0 coordinate,
    # print a nonzero value on an edge bin
    asked = []
    for cls in (GradedComplex, USeriesComplex):
        def recording(self, known_only=False, cohomology=cls.cohomology):
            asked.append(known_only)
            return cohomology(self, known_only)

        monkeypatch.setattr(cls, "cohomology", recording)
    f = tmp_path / "instance.loop"
    f.write_text(_shipped("05_plane_opposite_z3") if verb == "hh" else
                 LINE_GM.replace("[group]", "generator y weight=0 aux=1\n[group]"))
    code, out, _ = run_cli([verb, str(f)], capsys)
    assert code == 0 and asked and not any(asked)
    edge_values = re.findall(r"^\S+ -> [1-9]\d* \[edge\]$", out, re.M)
    assert bool(edge_values) == (verb != "hn"), edge_values


def test_law_violation_exit_1_without_traceback():
    # 05's weight-0 complex has d^2 != 0 on an edge-adjacent bin: `hh` exempts
    # it, the u-series does not
    path = Path(__file__).resolve().parents[1] / "instances" / "05_plane_opposite_z3.loop"
    proc = subprocess.run(
        [sys.executable, "-m", "loophh", "hp", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: not a complex at bin ")
    assert proc.stdout == ""


# sha256 of the reports, recorded before the localization checks shared one
# session per instance; a refactor of the harness must not move a byte.
REPORT_SHA256 = {
    ("localize", "01_line_gm_z2"): "d842866db5c5ce26a08e31317d2b55474e4316655aa2f1129d5e6183e7d0f3c8",
    ("fixed-fiber", "01_line_gm_z2"): "1b2473dee0c2a52aac9c336b39b055a78818d7431610436a6890a22325dafe67",
    ("localize", "03_plane_12_z3"): "60f24cf5ebac41711879f574d5892b387686f408d125b8ad5efd8b53cb08eb09",
    ("fixed-fiber", "03_plane_12_z3"): "80c1e6293f319751c93b51785845d819f178de441cb2649e69262d3dbb3ebc89",
    ("localize", "06_weight2_zeta2"): "66cb9f45d2dad74768578261f1aa02fe996857107d2294a4348c20e0161551b0",
    ("fixed-fiber", "06_weight2_zeta2"): "507cd78b40c2dc3fa707677bfdac16f383e5fd9214ecb493b4a37ef660135699",
    ("localize", "01_line_gm_z2", "--tower-levels", "2", "--u-window", "3"):
        "efeef2cc958dee7e9d74afe1756d0c9e7798e32dbd55357c65ec3b3036955469",
    # the u-series verbs, recorded before the column memo took structural keys;
    # they run over Q, and localize / fixed-fiber on 06 (conductor 2) above
    # pin the u-series path over a cyclotomic field
    ("hp", "01_line_gm_z2"): "d14c8ceef59189a1b316dde676f0d8ec46b07c923a51758a760434761b4ba43e",
    ("hn", "01_line_gm_z2"): "d632e3d6daaa7555cefa93831ed2608bf1ab44713b366773e2f8fbd4284f0506",
    ("hc", "01_line_gm_z2"): "80ce34cd075e89f4060009d40a650c8b8ce01c9146534c1e203544b0f1e73963",
    ("hp", "03_plane_12_z3"): "66d013a3345d259622c1c2ffdddf39d0f4ca4aa6c146b6480b46707eb2d5d9ea",
    ("hn", "03_plane_12_z3"): "3d3d62d203ecf4d9372b3879b600e06b81bec825d03766a4bdbe57c8e83deb10",
    ("hc", "03_plane_12_z3"): "6d6d8196ec90767db3d133731b20b6623ef1e90f7a48e31f911a96b73d2e4cb3",
    ("hp", "06_weight2_zeta2"): "eccf8e51d5e2738281b68f6e0a0ebea739542d71f10716775e6eb6c89b5542fc",
    ("hn", "06_weight2_zeta2"): "22ee50a7da74849812dd196b5587190af1b272b356b0b81c5f37c5ae37106a85",
    ("hc", "06_weight2_zeta2"): "d09e5e93bf5b4181faea5a20a4d79937fea50ad38a06aac255ca382544bc1ddd",
    # u-windows wider than every strip, so interior column shapes repeat;
    # recorded before the u-series columns were keyed by shape
    ("hp", "02_plane_12_zm1", "--u-window", "8"):
        "cca57f7c80a395ae2a18f815362f1625fc5aea9a76e443d20ff9f3c58ebb095e",
    ("hc", "02_plane_12_zm1", "--u-window", "8"):
        "46d5f0105d208f34dae12998ec7ff0d77e202f1543f1f944714079e2996b7371",
    ("hn", "04_line_gm_identity", "--u-window", "8"):
        "7733a794d2a469b6d0f02ac2061ab67d4bb0fe3ea2270dbe493c9c450338b924",
    ("localize", "02_plane_12_zm1", "--u-window", "7"):
        "8baf104927c3717390d0565a8dda25986cad58597de2af0ebdd725021357cb28",
    ("localize", "04_line_gm_identity", "--u-window", "7"):
        "442374dc4693168c7aabe270040eb6f536e22c99dad2aa0ce3d6a19fd76879ea",
}


def _shipped(name):
    return (Path(__file__).resolve().parents[1] / "instances" / f"{name}.loop").read_text()


@pytest.mark.parametrize("case", sorted(REPORT_SHA256), ids=" ".join)
def test_report_bytes_pinned(case):
    verb, name, *flags = case
    args = build_parser().parse_args([verb, name, *flags])
    report, code = run_verb(verb, args, _shipped(name))
    assert code == 0
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[case]


def test_localize_builds_each_tower_once(monkeypatch):
    from loophh import harness as H

    calls = Counter()

    def counted(name):
        fn = getattr(H, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(H, name, wrapper)

    counted("point_completion_tower")
    counted("cartan_augmentation_tower")
    counted("_restriction_map")
    for cls, name in ((SemifreeModel, "at_torus_point_level"), (SemifreeModel, "instantiate"),
                      (ChainMap, "verify_chain_map")):
        fn = getattr(cls, name)

        def method(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, method)
    args = build_parser().parse_args(["localize", "01_line_gm_z2"])
    _, code = run_verb("localize", args, _shipped("01_line_gm_z2"))
    assert code == 0
    # each point tower instantiates its top level only; the Cartan tower
    # instantiates its base once; the restriction map is built and checked
    # on the top level only (one per level would be 4 of each)
    assert calls == {"point_completion_tower": 2, "cartan_augmentation_tower": 1,
                     "at_torus_point_level": 2, "instantiate": 3,
                     "_restriction_map": 1, "verify_chain_map": 1}


def _exact_scalar(v):
    """A non-bool int, a Fraction, or a CycElt with such coefficients."""
    if type(v) is CycElt:
        return all(type(c) is int or type(c) is Fraction for c in v.coeffs)
    return type(v) is int or type(v) is Fraction


@pytest.mark.parametrize("name, point", [
    ("01_line_gm_z2", None), ("03_plane_12_z3", None), ("03_plane_12_z3", "zeta(3)"),
])
def test_verbs_store_no_float(monkeypatch, name, point):
    text = _shipped(name)
    if point:  # 03 at a primitive cube root of unity: scalars in Q(zeta_3)
        text = text.replace("\nz 3\n", f"\nz {point}\n")
    seen = Counter()

    def guard(kind, values):
        values = list(values)
        assert all(map(_exact_scalar, values)), (kind, [v for v in values if not _exact_scalar(v)])
        seen[kind] += len(values)

    matrix_init, add, cyc_init = SparseMatrix.__init__, EchelonReducer.add, CycElt.__init__

    def checked_matrix_init(self, *args, **kwargs):
        matrix_init(self, *args, **kwargs)
        guard("matrix", self.entries.values())

    def checked_add(self, vec):
        pivot = add(self, vec)
        if pivot is not None:
            guard("row", self.rows[pivot].values())
        return pivot

    def checked_cyc_init(self, field, coeffs):
        cyc_init(self, field, coeffs)
        guard("cyc", [self])

    monkeypatch.setattr(SparseMatrix, "__init__", checked_matrix_init)
    monkeypatch.setattr(EchelonReducer, "add", checked_add)
    monkeypatch.setattr(CycElt, "__init__", checked_cyc_init)
    for verb in ("localize", "hp", "fixed-fiber"):
        args = build_parser().parse_args(
            [verb, name, "--aux-max", "1", "--tower-levels", "2", "--u-window", "1"])
        run_verb(verb, args, text)
    assert seen["matrix"] and seen["row"]
    assert bool(seen["cyc"]) == bool(point)


def _body(report):
    """A report after its instance echo and truncation line."""
    return report.split("\ntruncation:", 1)[1].split("\n", 1)[1]


@pytest.mark.parametrize("verb", ["hh", "hp", "localize", "fixed-fiber"])
def test_generator_names_of_derived_generators_are_free(verb):
    # the models adjoin eps, eta, d, w, xi and t generators; none of their
    # names is a word, so an instance may use any word as a generator name
    def report(name):
        text = ("[space]\ngenerator x weight=1 aux=1\n"
                f"generator {name} weight=2 aux=1\n[group]\nrank 1\n[point]\nz 1\n"
                "[assert]\nsmooth true\n")
        out, code = run_verb(verb, build_parser().parse_args([verb, "-"]), text)
        assert code == 0, (name, out)
        return _body(out)

    expected = report("y")
    for name in ("dx", "eps_x", "w0", "xi0", "t0"):
        assert report(name) == expected, name


@pytest.mark.parametrize("verb", ["hh", "hp", "hn", "hc", "localize", "fixed-fiber"])
@pytest.mark.parametrize("name", ["01_line_gm_z2", "06_weight2_zeta2"])
def test_verbs_eliminate_fraction_free(monkeypatch, verb, name):
    # only `EchelonReducer.reduced` divides rows by their pivots
    def refuse(self):
        raise AssertionError("a verb scaled rows to pivot 1")

    monkeypatch.setattr(EchelonReducer, "reduced", refuse)
    report, code = run_verb(verb, build_parser().parse_args([verb, name]), _shipped(name))
    assert code == 0, report
