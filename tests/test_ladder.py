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
    assert len(entries) == 8 * 7 * 3 + 1  # perfbench's copies of instances/ run once
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
                          "wall_ref_s", "peak_rss_mb"}
        assert e["code"] == 0 and e["traceback"] is False
        assert re.fullmatch("[0-9a-f]{64}", e["stdout_sha256"])
        assert re.fullmatch("[0-9a-f]{64}", e["stderr_sha256"])
        assert len(e["wall_ref_s"]) == len(e["peak_rss_mb"]) == 2
        assert all(isinstance(x, float) and x > 0 for x in e["wall_ref_s"] + e["peak_rss_mb"])

    capsys.readouterr()
    assert ladder.main(["--compare", str(out), str(out)]) == 0
    assert "outcomes all equal; 0 times moved" in capsys.readouterr().out

    doc["entries"][1]["stdout_sha256"] = "0" * 64
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert ladder.main(["--compare", str(out), str(other)]) == 1
    assert ("changed stdout_sha256: hh instances/01_line_gm_z2.loop --aux-max 0"
            in capsys.readouterr().out)
