"""Every name that `src/loophh/*.py` and `tests/*.py` import is used, and
importing the engine loads no module that only introspection or the report
cache needs.

The scan is by name, per file: an import binds its alias, or the name it
imports (the top package for `import a.b`), and the name is used when the
file reads it as a variable anywhere, attribute chains (`a.b.c` reads `a`)
included.  `from __future__` imports bind nothing.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each imported name the source never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "loophh").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in paths}
    assert {p: u for p, u in found.items() if u} == {}


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport sys as system\n"
              "from fractions import Fraction\nfrom typing import Any as A\nprint(os.sep, A)\n")
    assert unused_imports(source) == [(3, "system"), (4, "Fraction")]


# `dataclasses` imports `inspect`, which imports the rest, and `hashlib`
# loads OpenSSL's libcrypto, which only a run with a cache directory needs;
# each verb runs in a fresh interpreter, so every module here would add to
# its start-up
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib")


def test_the_engine_imports_no_introspection_module():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import loophh.cli, loophh.cyclic; "
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src"), *NOT_LOADED],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
