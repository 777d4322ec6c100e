"""Every definition in `src/loophh` is reached from a verb or the benchmark.

The scan is by name: each module-level function, class and method of a
module-level class is a def.  A def is reached when module-level code, or
the body of a reached def, names it as a variable or an attribute; an
import alone reaches nothing.  The roots are `cli.main`, `cli.run_verb`
and every identifier in `perfbench/*.py`, string constants included,
because the tracer there wraps functions it names in strings.  Dunder
methods of a reached class are reached.  Name matching over-approximates:
a def whose name some reached code uses for anything counts as reached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Defs that only tests call, kept on purpose as test helpers.
KEPT_FOR_TESTS = {
    "apply_monomial",     # algebra: D(x^e) as a Polynomial, the Leibniz-rule tests
    "apply_matrix",       # linalg: M v, a helper of the kernel-basis reference
    "euler_consistent",   # complexes: Euler characteristic of a test complex
    "from_rows",          # linalg: SparseMatrix literal in tests
    "hstack",             # linalg: block matrices in the linalg tests
    "identity",           # linalg: identity matrix in the linalg tests
    "eps_induced_rank",   # mixed: rank of eps on cohomology, law tests
    "point_in_open_set",  # models: membership in the localization open set
    "is_edge",            # tables: per-bin edge query
}


def _names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _defs_and_module_names(tree):
    """(name, node, class name or None) per def; names used by module-level code."""
    defs, top = [], set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((stmt.name, stmt, None))
        elif isinstance(stmt, ast.ClassDef):
            defs.append((stmt.name, stmt, None))
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs.append((sub.name, sub, stmt.name))
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            top |= _names(stmt)
    return defs, top


def _body_names(node, is_class):
    if not is_class:
        return _names(node)
    # a class names what its bases, decorators and non-method body name
    out = set()
    for part in node.bases + node.keywords + node.decorator_list:
        out |= _names(part)
    for sub in node.body:
        if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out |= _names(sub)
    return out


def _perfbench_identifiers():
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _names(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out |= set(re.findall(r"[A-Za-z_]\w*", n.value))
    return out


def unreached_defs():
    defs, named = [], set()
    for path in sorted((ROOT / "src" / "loophh").glob("*.py")):
        mod_defs, top = _defs_and_module_names(ast.parse(path.read_text()))
        defs += [(path.stem, *d) for d in mod_defs]
        named |= top
    named |= _perfbench_identifiers()
    reached = {
        i for i, (mod, name, _, cls) in enumerate(defs)
        if mod == "cli" and cls is None and name in ("main", "run_verb")
    }
    for i in reached:
        named |= _names(defs[i][2])
    reached_classes = set()
    while True:
        new = set()
        for i, (mod, name, node, cls) in enumerate(defs):
            if i in reached:
                continue
            dunder = name.startswith("__") and name.endswith("__")
            if name in named or (dunder and (mod, cls) in reached_classes):
                new.add(i)
        if not new:
            break
        for i in new:
            mod, name, node, cls = defs[i]
            is_class = isinstance(node, ast.ClassDef)
            if is_class:
                reached_classes.add((mod, name))
            named |= _body_names(node, is_class)
        reached |= new
    return {name for i, (_, name, _, _) in enumerate(defs) if i not in reached}


def test_every_def_is_reached_from_a_verb_or_the_benchmark():
    assert unreached_defs() == KEPT_FOR_TESTS
