"""Spans and counts at loophh's layer boundaries, recorded from outside.

``Tracer.install`` wraps the public functions and methods listed in LAYERS.
A function that another module bound with ``from .x import y`` (under any
name) is replaced in every loophh module that holds it; a method is replaced
under every attribute of its class that holds it (``CycElt.__rmul__`` is
``CycElt.__mul__``).  Only the outermost call of a layer opens a span: a
nested call of the same layer (``kernel_basis`` calling ``rref``) runs as part
of the open one, so ``<layer>_calls`` counts outermost calls.

A span is (name, start, end, parent, operation, hook seconds).  The time the
tracer itself spends in counting hooks (hashing matrix contents, walking
outputs) is paused out of every span that encloses it, so a layer's time is
its span's duration minus that hook time, and its self time is that minus the
layer time of its child spans.  The per-call cost of the wrappers themselves
is not paused out; the difference between a traced and an untraced pass,
``trace.overhead_s``, bounds it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# layer -> (module, function or Class.method) pairs; each layer is one span name
LAYERS = {
    "linalg.elim": [
        ("loophh.linalg", f)
        for f in ("rank", "rref", "kernel_basis", "image_basis", "rank_of_vectors",
                  "quotient_rank", "cohomology_dims")
    ],
    "mixed.useries": [
        ("loophh.mixed", "USeriesComplex.cohomology"),
        ("loophh.mixed", "USeriesComplex.u_map_bijective"),
        ("loophh.mixed", "useries_induced_iso"),
    ],
    "scalars.cyc_inverse": [("loophh.scalars", "CycElt.inverse")],
    "towers.build": [
        ("loophh.towers", "point_completion_tower"),
        ("loophh.towers", "cartan_augmentation_tower"),
    ],
    "models.instantiate": [("loophh.models", "SemifreeModel.instantiate")],
    "algebra.enumerate": [("loophh.algebra", "enumerate_monomials")],
    "complexes.cohomology": [("loophh.complexes", "GradedComplex.cohomology")],
    "complexes.chainmap": [
        ("loophh.complexes", "ChainMap.verify_chain_map"),
        ("loophh.complexes", "ChainMap.induced_iso_everywhere"),
    ],
    "cyclic.build": [
        ("loophh.cyclic", "cyclic_bar"),
        ("loophh.cyclic", "equivariant_cyclic_bar"),
    ],
    "cyclic.laws": [
        ("loophh.cyclic", "CyclicLevels.check_simplicial_identities"),
        ("loophh.cyclic", "CyclicLevels.check_bar_laws"),
    ],
    "cyclic.connes": [("loophh.cyclic", "connes_B")],
    "tables.compare": [("loophh.tables", "HilbertTable.compare")],
    "harness.hh_localization": [("loophh.harness", "check_hh_localization")],
    "harness.hc_variants": [("loophh.harness", "check_hc_variants")],
    "harness.hp_completion": [("loophh.harness", "check_hp_completion")],
    "harness.fixed_fiber": [("loophh.harness", "check_derived_fixed_fiber")],
    "instancefile.parse": [("loophh.instancefile", "parse_instance")],
}

# calls counted without a span (too many and too short to time one by one)
COUNTED = {"scalars.cyc_mul_calls": ("loophh.scalars", "CycElt.__mul__")}

SUMS = ("linalg.entries_in", "linalg.empty_calls", "mixed.columns", "models.basis_size",
        "algebra.monomials", "complexes.bins", "cyclic.elements", "tables.bins_compared")
MAXIMA = ("linalg.max_dim", "linalg.coeff_bits_max")


def metric_names():
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}_s", f"{layer}_self_s", f"{layer}_calls"]
    names += ["linalg.distinct_inputs", "linalg.distinct_ratio", *MAXIMA, *SUMS, *COUNTED]
    return names


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id, hook seconds)
        self.op = None
        self.time = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.sums = Counter()
        self.maxima = Counter()
        self.distinct = set()
        self._stack = []  # open frames: [span index, hook clock at entry, child layer time]
        self._open = Counter()
        self._hook = 0.0  # seconds spent in counting hooks so far

    # -- spans -----------------------------------------------------------------
    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (nested calls of an open name run bare)."""
        if self._open[name]:
            return fn(*args, **kwargs)
        self._open[name] += 1
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        frame = [idx, self._hook, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            hook = self._hook - frame[1]
            dur = end - start - hook
            if self._stack:
                self._stack[-1][2] += dur
            self.spans[idx] = (name, start, end, parent, self.op, hook)
            self.time[name] += dur
            self.self_time[name] += dur - frame[2]
            self.calls[name] += 1

    def _wrap(self, layer, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self._open[layer]
            result = self.run(layer, fn, *args, **kwargs)
            if observe is not None and not nested:
                t = perf_counter()
                observe(self, args, result)
                self._hook += perf_counter() - t
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------------
    def install(self):
        mods = [m for n, m in sys.modules.items() if n == "loophh" or n.startswith("loophh.")]
        for layer, targets in LAYERS.items():
            observe = OBSERVERS.get(layer)
            for module, qualname in targets:
                _replace(mods, module, qualname, lambda fn, layer=layer, observe=observe:
                         self._wrap(layer, fn, observe))
        for name, (module, qualname) in COUNTED.items():
            _replace(mods, module, qualname, lambda fn, name=name: self._count(name, fn))

    # -- results ---------------------------------------------------------------
    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = self.time[layer]
            out[f"{layer}_self_s"] = self.self_time[layer]
            out[f"{layer}_calls"] = self.calls[layer]
        elim = self.calls["linalg.elim"]
        out["linalg.distinct_inputs"] = len(self.distinct)
        out["linalg.distinct_ratio"] = len(self.distinct) / elim if elim else 0.0
        for name in MAXIMA:
            out[name] = self.maxima[name]
        for name in SUMS:
            out[name] = self.sums[name]
        for name in COUNTED:
            out[name] = self.calls[name]
        return out

    def write(self, path):
        """Write the spans, one per line: index, parent, name, op, start, end, hook."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\top\tstart\tend\thook_s\n")
            for i, (name, start, end, parent, op, hook) in enumerate(self.spans):
                p = "" if parent is None else parent
                fh.write(f"{i}\t{p}\t{name}\t{op}\t{start!r}\t{end!r}\t{hook!r}\n")


def _replace(mods, module, qualname, make):
    """Replace module.qualname by make(original) wherever it is bound."""
    owner = sys.modules[module]
    cls_name, _, attr = qualname.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name)
        orig = vars(cls)[attr]
        holders = [cls]
    else:
        orig = getattr(owner, attr)
        holders = mods
    wrapped = make(orig)
    hits = 0
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, wrapped)
                hits += 1
    if not hits:
        raise RuntimeError(f"{module}.{qualname} is bound nowhere")


# -- counting hooks: (tracer, call args, result), run outside every span -------

def _matrix_like(x):
    return hasattr(x, "entries") and hasattr(x, "nrows")


def _content(x):
    if _matrix_like(x):
        return (x.nrows, x.ncols, frozenset(x.entries.items()))
    if isinstance(x, dict):
        return frozenset(x.items())
    if isinstance(x, (list, tuple)):
        return tuple(_content(v) for v in x)
    return x


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, dict):
        return max((_bits(v) for v in x.values()), default=0)
    if isinstance(x, (list, tuple)):
        return max((_bits(v) for v in x), default=0)
    coeffs = getattr(x, "coeffs", None)  # a cyclotomic element
    return _bits(coeffs) if coeffs is not None else 0


def _observe_elim(tr, args, result):
    inputs = [a for a in args if not isinstance(a, str)]  # drop bin labels
    tr.distinct.add(hash(tuple(_content(a) for a in inputs)))
    dim = entries = 0
    for a in inputs:
        if _matrix_like(a):
            dim = max(dim, a.nrows, a.ncols)
            entries += len(a.entries)
        elif isinstance(a, int):
            dim = max(dim, a)
        else:
            dim = max(dim, len(a))
            entries += sum(len(v) for v in a)
    tr.maxima["linalg.max_dim"] = max(tr.maxima["linalg.max_dim"], dim)
    tr.sums["linalg.entries_in"] += entries
    tr.sums["linalg.empty_calls"] += not entries
    tr.maxima["linalg.coeff_bits_max"] = max(tr.maxima["linalg.coeff_bits_max"], _bits(result))


def _observe_useries(tr, args, result):
    keys = set()
    for a in args:
        if hasattr(a, "columns") and hasattr(a, "flavor"):
            keys |= set(a.columns())
    tr.sums["mixed.columns"] += len(keys)


def _observe_instantiate(tr, args, result):
    tr.sums["models.basis_size"] += sum(len(v) for v in result.base.bins.values())


def _observe_enumerate(tr, args, result):
    tr.sums["algebra.monomials"] += sum(len(v) for v in result.bins.values())


def _observe_cohomology(tr, args, result):
    tr.sums["complexes.bins"] += len(args[0].bins)


def _observe_cyclic(tr, args, result):
    tr.sums["cyclic.elements"] += sum(len(ls) for level in result.levels for ls in level.values())


def _observe_compare(tr, args, result):
    tr.sums["tables.bins_compared"] += len(result[1])


OBSERVERS = {
    "linalg.elim": _observe_elim,
    "mixed.useries": _observe_useries,
    "models.instantiate": _observe_instantiate,
    "algebra.enumerate": _observe_enumerate,
    "complexes.cohomology": _observe_cohomology,
    "cyclic.build": _observe_cyclic,
    "tables.compare": _observe_compare,
}
