"""Command-line front end.

Verbs: hh, hp, hn, hc, localize, fixed-fiber, unipotent-check, stabilizers.
Reports are line-oriented, byte-deterministic, and cached content-addressed
(the hash covers the comment-stripped instance, the effective truncation,
the verb, and the engine version).

Exit codes: 0 ok/PASS, 1 FAIL or a law violation, 2 parse or homogeneity
error, 3 backend mismatch, 4 INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

from . import ENGINE_VERSION
from .harness import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    LocalizationInstance,
    check_derived_fixed_fiber,
    check_hc_variants,
    check_hh_localization,
    check_hp_completion,
    check_unipotent_formal_tate,
)
from .instancefile import ParseError, canonical_content, parse_instance
from .linalg import NotAComplex
from .mixed import clear_column_memo, coinvariants, s1_invariants_level, tate
from .models import (
    loop_model,
    localization_open_set,
    regrade_by_group_exponent,
    stabilizer_subgroups,
)
from .scalars import BackendMismatch

REPORT_HEADER = f"loophh report v1 (engine {ENGINE_VERSION})"

EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_BACKEND, EXIT_INCONCLUSIVE = 0, 1, 2, 3, 4

_WINDOW_FLAGS = (
    "aux_max", "tower_levels", "bar_depth", "u_window",
    "cohdeg_min", "cohdeg_max", "laurent_cap",
)


def build_parser():
    p = argparse.ArgumentParser(prog="loophh", description=__doc__)
    p.add_argument("verb", choices=[
        "hh", "hp", "hn", "hc", "localize", "fixed-fiber",
        "unipotent-check", "stabilizers",
    ])
    p.add_argument("instance", nargs="?", help="instance file (not needed for unipotent-check)")
    p.add_argument("--report", help="also write the report to this path")
    p.add_argument("--cache-dir", default=os.environ.get("LOOPHH_CACHE_DIR"))
    for flag in _WINDOW_FLAGS:
        p.add_argument(f"--{flag.replace('_', '-')}", type=int, default=None)
    return p


def _table_lines(table, tr):
    out = []
    for ln in table.serialize().splitlines():
        i = int(ln.split(";", 1)[0])
        if tr.cohdeg_min <= i <= tr.cohdeg_max:
            out.append(ln)
    return out


def _weight_zero_mixed(P, T, tr):
    model = loop_model(P, T)
    mc = model.instantiate(
        tr.aux_max,
        laurent_cap=tr.laurent_cap if T.rank else None,
        weight_filter=(0,) * T.rank,
    )
    reg = regrade_by_group_exponent(mc, model) if T.rank else None
    return reg if reg is not None else mc


def run_verb(verb, args, text):
    """Returns (report_text, exit_code)."""
    clear_column_memo()
    lines = [REPORT_HEADER, f"verb: {verb}"]
    if verb == "unipotent-check":
        rep = check_unipotent_formal_tate()
        lines += ["", rep.render()]
        code = {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}[rep.verdict]
        return "\n".join(lines) + "\n", code

    P, T, z, tr = parse_instance(text)
    overrides = {f: getattr(args, f) for f in _WINDOW_FLAGS}
    tr = replace(tr, **{f: v for f, v in overrides.items() if v is not None})
    lines.append("instance:")
    lines += ["  " + ln for ln in canonical_content(text).splitlines()]
    lines.append(f"truncation: {tr}")
    lines.append("")

    if verb == "hh":
        mc = _weight_zero_mixed(P, T, tr)
        lines.append("HH table (weight-0 part; group exponents in the weight slot when graded):")
        lines += _table_lines(mc.cohomology(), tr)
        return "\n".join(lines) + "\n", EXIT_OK

    if verb in ("hp", "hn", "hc"):
        mc = _weight_zero_mixed(P, T, tr)
        if verb == "hp":
            us = tate(mc, tr.u_window)
        elif verb == "hn":
            us = s1_invariants_level(mc, tr.u_window)
        else:
            us = coinvariants(mc, tr.u_window)
        lines.append(f"{verb.upper()} table:")
        lines += _table_lines(us.cohomology(), tr)
        return "\n".join(lines) + "\n", EXIT_OK

    if verb == "stabilizers":
        weights = [g.weight for g in P.generators]
        subs = stabilizer_subgroups(T, weights)
        lines.append("stabilizer subgroups:")
        lines += [f"  {s.describe()}" for s in subs]
        deleted, kept = localization_open_set(T, weights, z)
        lines.append("deleted (not containing z):")
        lines += [f"  {s.describe()}" for s in deleted] or ["  (none; U = T)"]
        lines.append("kept (containing z):")
        lines += [f"  {s.describe()}" for s in kept]
        return "\n".join(lines) + "\n", EXIT_OK

    inst = LocalizationInstance(P, T, z, tr)
    if verb == "fixed-fiber":
        reps = [check_derived_fixed_fiber(inst)]
    else:  # localize
        reps = [
            check_hh_localization(inst),
            check_hc_variants(inst),
            check_hp_completion(inst),
        ]
    for rep in reps:
        lines += ["", rep.render()]
    verdicts = [r.verdict for r in reps]
    if FAIL in verdicts:
        code = EXIT_FAIL
    elif INCONCLUSIVE in verdicts:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    lines += ["", f"verdict: {'FAIL' if code == EXIT_FAIL else 'INCONCLUSIVE' if code == EXIT_INCONCLUSIVE else 'PASS'}"]
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cache_key(verb, text, args):
    h = hashlib.sha256()
    h.update(ENGINE_VERSION.encode())
    h.update(verb.encode())
    h.update(canonical_content(text or "").encode())
    for flag in _WINDOW_FLAGS:
        h.update(f"{flag}={getattr(args, flag)};".encode())
    return h.hexdigest()


def cache_read(cache_dir, key):
    path = os.path.join(cache_dir, key + ".cache")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            head, payload = fh.read().split(b"\n", 1)
        tag, _, digest = head.decode().partition(":")
        code_s, _, digest = digest.partition(":")
        if tag != "loophh-cache":
            return None
        if hashlib.sha256(payload).hexdigest() != digest:
            print("warning: corrupt cache entry, recomputing", file=sys.stderr)
            return None
        return payload.decode(), int(code_s)
    except Exception:
        print("warning: corrupt cache entry, recomputing", file=sys.stderr)
        return None


def cache_write(cache_dir, key, report, code):
    os.makedirs(cache_dir, exist_ok=True)
    payload = report.encode()
    head = f"loophh-cache:{code}:{hashlib.sha256(payload).hexdigest()}\n".encode()
    fd, tmp = tempfile.mkstemp(dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head + payload)
        os.replace(tmp, os.path.join(cache_dir, key + ".cache"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------

def main(argv=None):
    args = build_parser().parse_args(argv)
    text = None
    if args.verb != "unipotent-check":
        if not args.instance:
            print("error: this verb needs an instance file", file=sys.stderr)
            return EXIT_PARSE
        try:
            with open(args.instance) as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_PARSE

    key = cache_key(args.verb, text, args)
    if args.cache_dir:
        hit = cache_read(args.cache_dir, key)
        if hit is not None:
            report, code = hit
            print("cache hit", file=sys.stderr)
            sys.stdout.write(report)
            if args.report:
                _write_report(args.report, report)
            return code

    try:
        report, code = run_verb(args.verb, args, text)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, NotImplementedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except BackendMismatch as e:
        print(f"backend mismatch: {e}", file=sys.stderr)
        return EXIT_BACKEND
    except NotAComplex as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL

    sys.stdout.write(report)
    if args.report:
        _write_report(args.report, report)
    if args.cache_dir:
        cache_write(args.cache_dir, key, report, code)
    return code


def _write_report(path, report):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d)
    with os.fdopen(fd, "w") as fh:
        fh.write(report)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
