"""Exact root-system data and Weyl-group machinery for type B_r (so(2r+1), r >= 2).

Weights live in L-coordinates: a dominant weight is a weakly decreasing tuple
of nonnegative rationals, all integral or all half-odd-integral.  The bilinear
form is normalized so that (theta, theta) = 2 for the highest root
theta = L1 + L2; in L-coordinates it is the plain dot product.

The root data, the Weyl dimension and every routine below `Weight` work on
"doubled" coordinates (tuples of ints equal to twice the L-coordinates), so
they stay in integer arithmetic.  `Weight` is the Fraction boundary: it
validates its coordinates on their doubled ints and carries them as `w.d`,
which is what the engines read; `Weight.from_dbl` builds one from them.
`Weight` hashes, compares and orders on `d`; `Fraction` coordinates are kept
for parse and print.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, total_ordering


class RankError(ValueError):
    """Rank outside the supported range: so(2r+1) needs r >= 2."""


def require_rank(r: int, name: str = "r") -> None:
    """Reject a rank below 2; `name` is the argument the message names."""
    if r < 2:
        raise RankError(
            f"so(2{name}+1) requires {name} >= 2 (got {name}={r}); "
            f"the highest-root convention theta = L1+L2 breaks at {name} = 1"
        )


# Fractions are immutable, so weights share the coordinates they are built from
@lru_cache(maxsize=1024)
def _half(x: int) -> Fraction:
    return Fraction(x, 2)


@lru_cache(maxsize=1024)
def _fraction(text: str) -> Fraction:
    return Fraction(text)


class Frozen:
    """Base of the immutable slotted value classes: their `__init__` fills
    the slots through `object.__setattr__` (or, where construction is hot,
    the slot descriptors' `__set__`), and afterwards assigning or deleting
    an attribute raises AttributeError.  A class names its value fields
    once, in `_fields` (every slot unless it says otherwise), so derived and
    memo slots stay out of the value.  Value semantics come from `_key()`,
    the fields unless a subclass narrows it: two objects of the same class
    are equal when their keys are, and hash as their key; the repr names
    every field.  The fields are the constructor's arguments, in order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, from the fields
        # even where `_key` narrows them, so checks, derived slots and memo
        # slots come out as at construction: a stored hash of strings holds
        # only in the process that computed it
        return self.__class__, Frozen._key(self)


@total_ordering
class Weight(Frozen):
    """A dominant weight of so(2r+1) in L-coordinates; `d` holds the doubled
    coordinates (ints), set once the coordinates pass validation.  Equality,
    order and hash read `d` only, by methods of its own: weights key every
    fusion row.  `<` is written out, and `total_ordering` derives the rest.
    The one field is `coords`: the repr names only it."""

    __slots__ = ("coords", "d", "_hash")
    _fields = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        # floor(2c): exact for integral and half-odd c, and it keeps the sign
        # of any rational c; the order of other rationals is checked on coords
        d = tuple(2 * c.numerator // c.denominator for c in coords)
        self._admit(coords, d, all(c.denominator <= 2 for c in coords))

    def _admit(self, cs, d, halves: bool) -> None:
        """Validate the coordinates cs with doubled floors d (exact when
        halves, every denominator at most 2) and fill the slots."""
        if len(d) < 2:
            require_rank(len(d))
        if min(d) < 0:
            raise ValueError(f"not dominant (negative coordinate): {cs}")
        keys = d if halves else cs
        if any(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError(f"not dominant (coordinates increase): {cs}")
        if not halves or len({x & 1 for x in d}) > 1:
            raise ValueError(f"coordinates must be all integral or all half-odd: {cs}")
        setattr_ = object.__setattr__
        setattr_(self, "coords", cs)
        setattr_(self, "d", d)
        # weights key every fusion row: hash the int tuple once per object
        setattr_(self, "_hash", hash(d))

    # d is 2 * coords, so comparing d compares coords
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.d == other.d
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.d < other.d
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def level(self) -> Fraction:
        """(lambda, theta) = b1 + b2."""
        return self.coords[0] + self.coords[1]

    @property
    def is_so(self) -> bool:
        """True iff every coordinate is integral (exponentiates to SO(2r+1))."""
        return not self.d[0] & 1

    @classmethod
    def from_dbl(cls, d) -> "Weight":
        """The weight with doubled coordinates d (ints), validated like any
        other, on the ints themselves."""
        d = tuple(d)
        w = cls.__new__(cls)
        w._admit(tuple(map(_half, d)), d, True)
        return w

    @classmethod
    def zero(cls, r: int) -> "Weight":
        return cls.from_dbl((0,) * r)

    @classmethod
    def fundamental(cls, r: int, i: int) -> "Weight":
        """omega_i; omega_0 is the zero weight, omega_r the spin weight."""
        require_rank(r)
        if i == 0:
            return cls.zero(r)
        if i == r:
            return cls.from_dbl((1,) * r)
        if not 0 < i < r:
            raise ValueError(f"fundamental weight index {i} out of range for rank {r}")
        return cls.from_dbl(tuple(2 if k < i else 0 for k in range(r)))

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Parse comma-separated L-coordinates, halves written as "k/2"."""
        return cls(tuple(_fraction(part.strip()) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


# -- doubled-coordinate root data (ints equal to 2*L-coordinate) ------------

@lru_cache(maxsize=None)
def _dbl_rho(r: int) -> tuple[int, ...]:
    return tuple(2 * r - 2 * i - 1 for i in range(r))


@lru_cache(maxsize=None)
def _dbl_positive_roots(r: int) -> tuple[tuple[int, ...], ...]:
    """The r^2 positive roots of B_r, doubled: L_i - L_j and L_i + L_j for
    i < j, then the short roots L_i."""
    require_rank(r)
    unit = tuple(tuple(2 * (k == i) for k in range(r)) for i in range(r))
    long_roots = tuple(
        tuple(a + s * b for a, b in zip(unit[i], unit[j]))
        for i, j in itertools.combinations(range(r), 2)
        for s in (-1, 1)
    )
    return long_roots + unit


def fold_shifted(x: tuple[int, ...]):
    """Fold a rho-shifted doubled vector to the dominant chamber.

    Returns (dominant_tuple, sign) where sign is the determinant of the
    signed permutation used, or None when x lies on a reflection wall
    (a zero coordinate or two coordinates of equal absolute value).
    """
    negs = 0
    a = []
    for c in x:
        if c == 0:
            return None
        if c < 0:
            negs += 1
            a.append(-c)
        else:
            a.append(c)
    sign = -1 if negs & 1 else 1
    # insertion sort (descending), tracking permutation parity; ranks are small
    for i in range(1, len(a)):
        v = a[i]
        j = i
        while j > 0 and a[j - 1] < v:
            a[j] = a[j - 1]
            j -= 1
            sign = -sign
        a[j] = v
    for i in range(len(a) - 1):
        if a[i] == a[i + 1]:
            return None
    return tuple(a), sign


def _dominant_weights_below(lam_d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dominant weights mu <= lam (doubled coords): partial sums of lam-mu
    are nonnegative (automatically integral within a parity class)."""
    r = len(lam_d)
    out = []

    def rec(prefix, i, deficit):
        # deficit = sum(lam[:i]) - sum(prefix), in doubled units (>= 0 kept)
        if i == r:
            out.append(tuple(prefix))
            return
        hi = min(lam_d[i] + deficit, prefix[-1] if prefix else lam_d[0])
        lo = lam_d[i] & 1  # smallest nonnegative value in the parity class
        v = hi - ((hi - lo) % 2 if hi >= lo else 0)
        while v >= lo:
            rec(prefix + [v], i + 1, deficit + lam_d[i] - v)
            v -= 2
    rec([], 0, 0)
    return out


@lru_cache(maxsize=None)
def _weight_multiplicities_dbl(lam_d: tuple[int, ...]) -> dict:
    """Freudenthal recursion over the dominant weights of V_lambda.

    All inner products are computed as raw doubled dot products (4x the true
    value); the formula is homogeneous so the factor cancels.
    """
    r = len(lam_d)
    rho = _dbl_rho(r)
    roots = _dbl_positive_roots(r)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    lam_rho = tuple(a + b for a, b in zip(lam_d, rho))
    lam_norm = dot(lam_rho, lam_rho)

    doms = _dominant_weights_below(lam_d)
    # height of lam - mu in the simple-root basis = sum of partial sums
    def height(mu):
        h = 0
        run = 0
        for a, b in zip(lam_d, mu):
            run += a - b
            h += run
        return h

    doms.sort(key=height)
    mult: dict = {}

    for mu in doms:
        if mu == lam_d:
            mult[mu] = 1
            continue
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = lam_norm - dot(mu_rho, mu_rho)
        num = 0
        for alpha in roots:
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                # multiplicities are Weyl-invariant: look up the dominant
                # representative (weights along a root string form an
                # interval, so the first miss ends the inner sum)
                rep = tuple(sorted((abs(c) for c in nu), reverse=True))
                m = mult.get(rep, 0)
                if m == 0:
                    break
                num += dot(nu, alpha) * m
                k += 1
        assert denom > 0 and (2 * num) % denom == 0, (lam_d, mu)
        mult[mu] = 2 * num // denom
    return mult


def weyl_orbit_dbl(dom: tuple[int, ...]):
    """All distinct signed permutations of a dominant doubled vector."""
    for perm in set(itertools.permutations(dom)):
        nz = [i for i, c in enumerate(perm) if c != 0]
        for signs in itertools.product((1, -1), repeat=len(nz)):
            v = list(perm)
            for i, s in zip(nz, signs):
                v[i] *= s
            yield tuple(v)


@lru_cache(maxsize=None)
def weyl_dim(lam_d: tuple[int, ...]) -> int:
    """Weyl dimension formula for V_lambda, lambda in doubled coordinates:
    the product over positive roots of (lam+rho, alpha) / (rho, alpha)."""
    rho = _dbl_rho(len(lam_d))
    x = tuple(a + b for a, b in zip(lam_d, rho))
    num = den = 1
    for alpha in _dbl_positive_roots(len(lam_d)):
        num *= sum(a * b for a, b in zip(x, alpha))
        den *= sum(a * b for a, b in zip(rho, alpha))
    return num // den
