import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from loophh.cli import build_parser, main, run_verb
from loophh.models import SemifreeModel

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


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_inhomogeneous_relation_rejected(tmp_path, capsys):
    f = tmp_path / "bad.loop"
    f.write_text(
        "[space]\ngenerator x weight=1 aux=1\ngenerator y weight=2 aux=1\n"
        "relation x + y\n[group]\nrank 1\n[assert]\nsmooth true\n"
    )
    code, _, err = run_cli(["hh", str(f)], capsys)
    assert code == 2


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
    # a later line of the section overrides an earlier one
    lines = "".join(f"{k} {v}\n" for k, v in values.items())
    f.write_text(LINE_GM.replace("[assert]", lines + "[assert]"))
    code, out, err = run_cli(["hh", str(f)], capsys)
    assert code == 2
    assert field in err and "table" not in out


def test_smallest_windows_accepted(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    code, out, _ = run_cli(["hh", str(f), "--aux-max", "0", "--laurent-cap", "0",
                            "--cohdeg-min", "0", "--cohdeg-max", "0"], capsys)
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


def test_report_file_written(tmp_path, capsys):
    f = tmp_path / "line.loop"
    f.write_text(LINE_GM)
    rpt = tmp_path / "out"
    rpt.mkdir()
    target = rpt / "report.txt"
    code, out, _ = run_cli(["hh", str(f), "--report", str(target)], capsys)
    assert target.read_text() == out


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
    for name in ("at_torus_point_level", "instantiate"):
        fn = getattr(SemifreeModel, name)

        def method(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(SemifreeModel, name, method)
    args = build_parser().parse_args(["localize", "01_line_gm_z2"])
    _, code = run_verb("localize", args, _shipped("01_line_gm_z2"))
    assert code == 0
    # each point tower instantiates its top level only; the Cartan tower
    # instantiates its base once
    assert calls == {"point_completion_tower": 2, "cartan_augmentation_tower": 1,
                     "at_torus_point_level": 2, "instantiate": 3}
