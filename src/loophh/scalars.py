"""Exact scalar arithmetic: rationals and cyclotomic extensions Q(zeta_m).

Two backends.  A rational is stored as an `int` when it is integral and as a
`fractions.Fraction` otherwise (`rational`); both are exact, and
`Fraction(n) == n` with equal hashes, so the two forms of one value are
interchangeable as keys.  `int / int` is a float, so every division goes
through `exact_div`.  The cyclotomic backend represents elements of Q(zeta_m)
as polynomials of degree < phi(m) in a fixed primitive m-th root of unity,
with rational coefficients reduced modulo the m-th cyclotomic polynomial.
All arithmetic is exact; equality is decided on the reduced normal form, and
an element equal to a rational hashes like it.  `primitive` is the one place
that clears denominators and content, for the fraction-free elimination in
`linalg`.

The conductor m is fixed per field object; elements of distinct conductors
never mix (BackendMismatch), mirroring the session-level conductor contract.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm


class BackendMismatch(Exception):
    """Raised when scalars from incompatible backends meet."""


def rational(x):
    """The rational x as an int when it is integral, otherwise as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a, b):
    """a / b, exactly: an int when both are ints and b divides a, a Fraction
    for other ints, and field division when either is a CycElt."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: list, b: list):
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]  # 1 for every cyclotomic modulus
    while len(a) >= len(b):
        coef = a[-1] if lead == 1 else exact_div(a[-1], lead)
        deg = len(a) - len(b)
        q[deg] = coef
        for i, y in enumerate(b):
            a[deg + i] -= coef * y
        _poly_trim(a)
        if not a:
            break
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial.

    Computed by exact division: x^m - 1 = prod_{d | m} Phi_d(x).
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            q, r = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division not exact")
            num = q
    return tuple(num)


@lru_cache(maxsize=4096)
def _inverse_coeffs(conductor: int, coeffs: tuple) -> tuple:
    """Reduced coefficients of the inverse of a nonzero element of Q(zeta_m).

    Keyed on the conductor, not on a field object: equal fields are often
    distinct objects, and elements of one field recur across them.
    """
    modulus = list(cyclotomic_polynomial(conductor))
    # xgcd(a, modulus) with gcd a nonzero constant.
    r0, r1 = modulus, list(coeffs)
    s0, s1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(
            [a - b for a, b in zip_longest(s0, _poly_mul(q, s1), fillvalue=0)]
        )
    if len(r0) != 1:
        raise AssertionError("modulus not coprime to element")
    inv_consts = exact_div(1, r0[0])
    return CyclotomicField(conductor).element([c * inv_consts for c in s0]).coeffs


class CyclotomicField:
    """The field Q(zeta_m), zeta_m a fixed primitive m-th root of unity."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        self.modulus = list(cyclotomic_polynomial(conductor))
        self.degree = len(self.modulus) - 1  # phi(m)

    def __repr__(self):
        return f"CyclotomicField({self.conductor})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.conductor == self.conductor

    def __hash__(self):
        return hash(("CyclotomicField", self.conductor))

    def element(self, coeffs) -> "CycElt":
        c = [rational(x) for x in coeffs]
        if len(c) >= len(self.modulus):
            _, c = _poly_divmod(c, self.modulus)
        return CycElt(self, tuple(_poly_trim(list(c))))

    def one(self) -> "CycElt":
        return CycElt(self, (1,))

    def zeta(self, power: int = 1) -> "CycElt":
        power %= self.conductor
        return self.element([0] * power + [1])

    def from_rational(self, q) -> "CycElt":
        q = rational(q)
        return CycElt(self, (q,) if q else ())


class CycElt:
    """Element of a CyclotomicField; immutable reduced polynomial in zeta."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    # -- coercion ---------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CycElt):
            if other.field != self.field:
                raise BackendMismatch(
                    f"mixed conductors {self.field.conductor} and {other.field.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- ring ops ---------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        c = [0] * n
        for i, x in enumerate(self.coeffs):
            c[i] += x
        for i, x in enumerate(o.coeffs):
            c[i] += x
        return CycElt(self.field, tuple(_poly_trim(c)))

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.field, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(o.coeffs))
        if len(prod) >= len(self.field.modulus):
            _, prod = _poly_divmod(prod, self.field.modulus)
        return CycElt(self.field, tuple(map(rational, _poly_trim(prod))))

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        """Inverse via extended Euclid against the (irreducible) modulus,
        remembered per (conductor, coefficients)."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        return CycElt(self.field, _inverse_coeffs(self.field.conductor, self.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.field.from_rational(other) * self.inverse()

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycElt):
            return NotImplemented
        if other.field != self.field:
            return False
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal to the hash of the rational it equals, as __eq__ requires
        if len(self.coeffs) < 2:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.field.conductor, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(terms)


# -- backend helpers --------------------------------------------------------

def scalar_one(sample):
    if isinstance(sample, CycElt):
        return sample.field.one()
    return 1


def is_zero(x) -> bool:
    if isinstance(x, CycElt):
        return x.is_zero()
    return x == 0


def backend_of(x):
    """Backend tag of a scalar: None for rational, the field for cyclotomic."""
    if isinstance(x, CycElt):
        return x.field
    if isinstance(x, (int, Fraction)):
        return None
    raise BackendMismatch(f"unsupported scalar type {type(x)!r}")


def common_backend(scalars):
    """The unique backend of a collection of scalars.

    Plain rationals are absorbed into a cyclotomic backend if one is present;
    two distinct cyclotomic fields are a mismatch.
    """
    field = None
    for s in scalars:
        b = backend_of(s)
        if b is None:
            continue
        if field is None:
            field = b
        elif field != b:
            raise BackendMismatch(
                f"mixed conductors {field.conductor} and {b.conductor}"
            )
    return field


def primitive(vec):
    """`vec`, a dict index -> scalar with a nonzero entry, times the positive
    rational that makes its coefficients integers with gcd 1.

    Rational entries are coerced into the field of its cyclotomic entries, if
    it has any; the coefficients are then those of every entry in zeta.
    """
    values = vec.values()
    try:
        g = gcd(*values)  # ints only: a Fraction or a CycElt raises TypeError
    except TypeError:
        pass
    else:
        return vec if g == 1 else {i: v // g for i, v in vec.items()}
    field = common_backend(values)
    if field is None:
        coeffs = values
    else:
        vec = {i: coerce(v, field) for i, v in vec.items()}
        coeffs = [c for v in vec.values() for c in v.coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    g = gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    if den == 1 and g == 1:
        return vec

    def scaled(c):
        return c.numerator * (den // c.denominator) // g

    if field is None:
        return {i: scaled(v) for i, v in vec.items()}
    return {i: CycElt(field, tuple(map(scaled, v.coeffs))) for i, v in vec.items()}


def coerce(x, field):
    """Coerce scalar x into the given backend (None = rational)."""
    if field is None:
        if isinstance(x, CycElt):
            raise BackendMismatch("cyclotomic scalar in a rational session")
        return rational(x)
    if isinstance(x, CycElt):
        if x.field != field:
            raise BackendMismatch(
                f"mixed conductors {x.field.conductor} and {field.conductor}"
            )
        return x
    return field.from_rational(x)
