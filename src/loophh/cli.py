"""Command-line front end.

Verbs: hh, hp, hn, hc, localize, fixed-fiber, unipotent-check, stabilizers.
Reports are line-oriented, byte-deterministic, and cached content-addressed
under --cache-dir (the hash covers the comment-stripped instance, the
effective truncation, the verb, the engine version and the engine's source).

Exit codes: 0 ok/PASS, 1 FAIL or a law violation, 2 parse or homogeneity
error, 3 backend mismatch (never from an instance file: the scalar field
follows the point), 4 INCONCLUSIVE.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import ENGINE_VERSION
from .harness import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    LocalizationInstance,
    Truncation,
    check_derived_fixed_fiber,
    check_hc_variants,
    check_hh_localization,
    check_hp_completion,
    check_unipotent_formal_tate,
    merge_verdicts,
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
VERDICT_EXIT = {PASS: EXIT_OK, FAIL: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}

_WINDOW_FLAGS = Truncation._fields


def build_parser():
    p = argparse.ArgumentParser(prog="loophh", description=__doc__)
    p.add_argument("verb", choices=[
        "hh", "hp", "hn", "hc", "localize", "fixed-fiber",
        "unipotent-check", "stabilizers",
    ])
    p.add_argument("instance", nargs="?", help="instance file (none for unipotent-check)")
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
    mc = model.instantiate(tr.aux_max, laurent_cap=tr.laurent_cap, weight_filter=(0,) * T.rank)
    reg = regrade_by_group_exponent(mc, model) if T.rank else None
    return reg if reg is not None else mc


def run_verb(verb, args, text):
    """Returns (report_text, exit_code)."""
    clear_column_memo()
    lines = [REPORT_HEADER, f"verb: {verb}"]
    if verb == "unipotent-check":
        rep = check_unipotent_formal_tate()
        lines += ["", rep.render()]
        return "\n".join(lines) + "\n", VERDICT_EXIT[rep.verdict]

    P, T, z, tr = parse_instance(text)
    flags = (getattr(args, f) for f in _WINDOW_FLAGS)
    tr = Truncation(*(v if flag is None else flag for v, flag in zip(tr, flags)))
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
    verdict = merge_verdicts([r.verdict for r in reps])
    lines += ["", f"verdict: {verdict}"]
    return "\n".join(lines) + "\n", VERDICT_EXIT[verdict]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _sha256(*parts: bytes) -> str:
    import hashlib  # loads OpenSSL's libcrypto, which only a cached run needs

    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def cache_key(verb, text, args):
    """Also keyed by the engine's own source, so an entry written by other
    code misses although ENGINE_VERSION is unchanged."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = []
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                source.append(f"{name}:{_sha256(fh.read())};".encode())
    flags = (f"{flag}={getattr(args, flag)};".encode() for flag in _WINDOW_FLAGS)
    return _sha256(ENGINE_VERSION.encode(), *source, verb.encode(),
                   canonical_content(text or "").encode(), *flags)


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
        if _sha256(payload) != digest:
            print("warning: corrupt cache entry, recomputing", file=sys.stderr)
            return None
        return payload.decode(), int(code_s)
    except Exception:
        print("warning: corrupt cache entry, recomputing", file=sys.stderr)
        return None


def cache_write(cache_dir, key, report, code):
    os.makedirs(cache_dir, exist_ok=True)
    payload = report.encode()
    head = f"loophh-cache:{code}:{_sha256(payload)}\n".encode()
    _write_atomically(os.path.join(cache_dir, key + ".cache"), head + payload)


def _write_atomically(path, data: bytes):
    """Write `data` to `path` through a temporary file in the same directory,
    so a reader sees the old file or the whole new one.  A new file gets mode
    0o666 less the umask, as `open` would give it; an existing one keeps its
    mode."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------

def main(argv=None):
    args = build_parser().parse_args(argv)
    text = None
    if args.verb == "unipotent-check" and args.instance:
        print("error: unipotent-check takes no instance file", file=sys.stderr)
        return EXIT_PARSE
    if args.verb != "unipotent-check":
        if not args.instance:
            print("error: this verb needs an instance file", file=sys.stderr)
            return EXIT_PARSE
        try:
            with open(args.instance, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_PARSE
        except UnicodeDecodeError as e:
            print(f"error: {args.instance} is not UTF-8 text: {e.reason} at byte {e.start}",
                  file=sys.stderr)
            return EXIT_PARSE

    hit = None
    if args.cache_dir:
        key = cache_key(args.verb, text, args)
        hit = cache_read(args.cache_dir, key)
    if hit is not None:
        report, code = hit
        print("cache hit", file=sys.stderr)
    else:
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
        try:
            _write_atomically(args.report, report.encode())
        except OSError as e:
            print(f"error: cannot write the report to {args.report}: {e.strerror or e}",
                  file=sys.stderr)
            return EXIT_PARSE
    if args.cache_dir and hit is None:
        try:
            cache_write(args.cache_dir, key, report, code)
        except OSError as e:
            print(f"warning: cannot write a cache entry in {args.cache_dir}: {e.strerror or e}",
                  file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
