"""Exact coefficients a + b*sqrt(2) with rational a, b.

Zero-mode Clifford actions introduce a factor 1/sqrt(2); nothing else in the
in-scope computations leaves Q, so this quadratic extension is the whole
coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class QSqrt2:
    """(p + q*sqrt(2)) / d on plain ints, with d > 0 and gcd(p, q, d) = 1.

    The normal form makes equal values equal field by field, so comparison
    and hashing never normalize; each ring operation costs one gcd.  The
    rational parts are exposed as the `Fraction` properties `a` and `b`.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0):
        a, b = _ratio(a), _ratio(b)
        d = a[1] * b[1] // gcd(a[1], b[1])
        # reduced parts over the lcm of their denominators share no factor
        self._p = a[0] * (d // a[1])
        self._q = b[0] * (d // b[1])
        self._d = d

    @classmethod
    def _reduced(cls, p: int, q: int, d: int) -> "QSqrt2":
        """(p + q*sqrt(2)) / d for d > 0, divided by gcd(p, q, d)."""
        if d != 1:
            g = gcd(p, q, d)
            if g != 1:
                p, q, d = p // g, q // g, d // g
        x = object.__new__(cls)
        x._p, x._q, x._d = p, q, d
        return x

    @classmethod
    def of(cls, x) -> "QSqrt2":
        if isinstance(x, QSqrt2):
            return x
        n, d = _ratio(x)
        return cls._reduced(n, 0, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __add__(self, other):
        if type(other) is not QSqrt2:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSqrt2.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return QSqrt2._reduced(self._p + other._p, self._q + other._q, d1)
        return QSqrt2._reduced(
            self._p * d2 + other._p * d1, self._q * d2 + other._q * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (QSqrt2, int, Fraction)):
            return NotImplemented
        return self + -QSqrt2.of(other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if type(other) is QSqrt2:
            p1, q1, p2, q2 = self._p, self._q, other._p, other._q
            return QSqrt2._reduced(
                p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self._d * other._d
            )
        if isinstance(other, int):
            if other == 1:
                return self
            if other == -1:
                return -self
            # gcd(n, d) = g leaves (n/g) p, (n/g) q, d/g in normal form
            g = gcd(other, self._d)
            n = other // g
            return QSqrt2._reduced(n * self._p, n * self._q, self._d // g)
        if isinstance(other, Fraction):
            return self * QSqrt2.of(other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        x = object.__new__(QSqrt2)
        x._p, x._q, x._d = -self._p, -self._q, self._d
        return x

    def __truediv__(self, other):
        o = QSqrt2.of(other)
        # 1 / ((p + q sqrt2)/d) = d (p - q sqrt2) / (p^2 - 2 q^2)
        norm = o._p * o._p - 2 * o._q * o._q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        sign = 1 if norm > 0 else -1
        return self * QSqrt2._reduced(
            sign * o._d * o._p, -sign * o._d * o._q, sign * norm
        )

    def __bool__(self):
        return bool(self._p) or bool(self._q)

    def __eq__(self, other):
        if type(other) is not QSqrt2:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QSqrt2.of(other)
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self):
        if self._q:
            return hash((self._p, self._q, self._d))
        # a rational value equals, so hashes like, its int or Fraction
        return hash(self._p) if self._d == 1 else hash(Fraction(self._p, self._d))

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        root = "√2" if b == 1 else f"{b}√2"
        if b == -1:
            root = "-√2"
        if not a:
            return root
        sign = "+" if b > 0 else "-"
        mag = abs(b)
        tail = "√2" if mag == 1 else f"{mag}√2"
        return f"{a}{sign}{tail}"

    __repr__ = __str__


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an int or Fraction, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {type(x).__name__} into QSqrt2")


ZERO = QSqrt2()
ONE = QSqrt2(1)
SQRT2 = QSqrt2(0, 1)
INV_SQRT2 = QSqrt2(0, Fraction(1, 2))
