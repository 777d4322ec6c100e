"""Declarative instance files: sections [space], [group], [point],
[truncation], [assert]; line-oriented, comment-friendly, auditable.

    [space]
    generator x weight=1 aux=1
    relation x*y - 2*x^3
    [group]
    rank 1
    [point]
    z 2
    [truncation]
    aux_max 4
    tower_levels 4
    [assert]
    smooth true
    regular_sequence true

Points are lists of coordinates `q`, `q*zeta(m)^k`, or `zeta(m)^k`.
Relations must be weight/aux homogeneous; violations are parse errors.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import Polynomial
from .harness import Truncation
from .models import AlgebraPresentation, TorusData, TorusPoint, identity_point
from .scalars import rational


class ParseError(Exception):
    pass


SECTIONS = ("space", "group", "point", "truncation", "assert")


def strip_comments(text: str) -> str:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].rstrip()
        if line.strip():
            out.append(line.strip())
    return "\n".join(out)


def canonical_content(text: str) -> str:
    """Comment- and whitespace-normalized content (the cache hash input)."""
    return strip_comments(text) + "\n"


def parse_instance(text: str):
    """Returns (presentation, torus, point, truncation)."""
    lines = strip_comments(text).splitlines()
    sections: dict[str, list[str]] = {}
    cur = None
    for ln in lines:
        if ln.startswith("[") and ln.endswith("]"):
            cur = ln[1:-1].strip().lower()
            sections.setdefault(cur, [])
            continue
        if cur is None:
            raise ParseError(f"content before any section: {ln!r}")
        sections[cur].append(ln)
    for name in sections:
        if name not in SECTIONS:
            raise ParseError(f"unknown section [{name}]")

    rank = 1
    for key, val in _fields(sections, "group", ("rank",)):
        rank = _int_field(key, val)

    gens = []
    relations_raw = []
    for ln in sections.get("space", []):
        head, _, rest = ln.partition(" ")
        if head == "generator":
            # a weight list holds `rank` integers: `weight=` is the rank-0 form
            m = re.match(r"(\w+)\s+weight=((?:-?\d+(?:,-?\d+)*)?)\s+aux=(\d+)$", rest.strip())
            if not m:
                raise ParseError(f"bad generator line: {ln!r}")
            name, wstr, astr = m.groups()
            weight = tuple(int(x) for x in wstr.split(",")) if wstr else ()
            if len(weight) != rank:
                raise ParseError(f"generator {name}: weight length != rank {rank}")
            gens.append((name, weight, int(astr)))
        elif head == "relation":
            relations_raw.append(rest.strip())
        else:
            raise ParseError(f"unknown space field {head!r}")

    # `regular_sequence` is accepted and read by nothing
    flags = {"smooth": False, "regular_sequence": False}
    for key, val in _fields(sections, "assert", flags):
        flags[key] = val.strip().lower() in ("true", "1", "yes")

    P = AlgebraPresentation(gens, rank=rank, asserted_smooth=flags["smooth"])
    for raw in relations_raw:
        try:
            P.add_relation(parse_polynomial(raw, P))
        except ValueError as e:
            raise ParseError(str(e)) from e

    point = None
    for _, val in _fields(sections, "point", ("z",)):
        coords = [parse_coordinate(tok.strip()) for tok in val.split(",")] if val.strip() else []
        if len(coords) != rank:
            raise ParseError(f"point has {len(coords)} coordinates, rank is {rank}")
        point = TorusPoint.make(coords)
    if point is None:
        point = identity_point(rank)

    overrides = {key: _int_field(key, val)
                 for key, val in _fields(sections, "truncation", Truncation._fields)}

    try:
        truncation = Truncation(**overrides)
    except ValueError as e:
        raise ParseError(str(e)) from e
    return P, TorusData(rank), point, truncation


def _fields(sections, section: str, known):
    """(key, value) of each line of a section of `key value` lines, in which
    each known key may appear once."""
    seen = set()
    for ln in sections.get(section, []):
        key, _, val = ln.partition(" ")
        if key not in known:
            raise ParseError(f"unknown {section} field {key!r}")
        if key in seen:
            raise ParseError(f"repeated {section} field {key!r}")
        seen.add(key)
        yield key, val


def _int_field(key: str, val: str) -> int:
    try:
        return int(val)
    except ValueError:
        raise ParseError(f"{key}: expected an integer, got {val.strip()!r}") from None


def parse_coordinate(tok: str):
    """`q`, `q*zeta(m)^k`, `zeta(m)^k`, or `zeta(m)`; m >= 1, q finite."""
    m = re.match(r"^(?:(-?\d+(?:/\d+)?)\*)?zeta\((\d+)\)(?:\^(-?\d+))?$", tok)
    try:
        if m:
            qs, ms, ks = m.groups()
            mm = int(ms)
            if mm < 1:
                raise ParseError(f"zeta conductor must be >= 1 in coordinate {tok!r}")
            q = Fraction(qs) if qs else Fraction(1)
            k = int(ks) if ks else 1
            return (q, Fraction(k % mm, mm))
        return (Fraction(tok), Fraction(0))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in coordinate {tok!r}") from None
    except ValueError:
        raise ParseError(f"bad coordinate token {tok!r}") from None


# ---------------------------------------------------------------------------
# polynomial strings
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|\w+|\^|\*|\+|-|\(|\))")


def _tokenize(s: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad character in polynomial at {s[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_polynomial(s: str, P: AlgebraPresentation) -> Polynomial:
    """+, -, *, ^, parentheses, rational coefficients, generator names."""
    toks = _tokenize(s)
    alg = P.ambient
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def expr():
        nonlocal i
        sign = 1
        while peek() in ("+", "-"):
            if toks[i] == "-":
                sign = -sign
            i += 1
        acc = term().scaled(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if toks[i] == "-":
                    sign = -sign
                i += 1
            acc = acc + term().scaled(sign)
        return acc

    def term():
        nonlocal i
        acc = factor()
        while peek() == "*":
            i += 1
            acc = acc * factor()
        return acc

    def factor():
        nonlocal i
        a = atom()
        if peek() == "^":
            i += 1
            e = peek()
            if e is None or not re.fullmatch(r"\d+", e):
                raise ParseError("expected integer exponent after ^")
            i += 1
            out = alg.poly_scalar(1)
            for _ in range(int(e)):
                out = out * a
            return out
        return a

    def atom():
        nonlocal i
        t = peek()
        if t is None:
            raise ParseError("unexpected end of polynomial")
        if t == "(":
            i += 1
            inner = expr()
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            i += 1
            return inner
        if re.fullmatch(r"\d+(/\d+)?", t):
            i += 1
            try:
                return alg.poly_scalar(rational(t))
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in coefficient {t!r}") from None
        if t in alg.index:
            i += 1
            return alg.poly_gen(t)
        raise ParseError(f"unknown name {t!r} in polynomial")

    out = expr()
    if i != len(toks):
        raise ParseError(f"trailing tokens in polynomial: {toks[i:]}")
    return out
