"""Fock states and vectors for the level-one modules of so(2d+1), d related
to a tensor grid of generator indices (j, p), j in [-r..r], p in [-s..s].

A generator is a triple (tm, j, p) where tm is TWICE the mode: odd tm for the
NS sector (modes in Z+1/2), even for the R sector.  States store a wedge of
generators sorted ascending by (tm, j, p); reordering signs live in the
coefficients.  The stored generators are:

  * all tm < 0 (creation modes), and
  * in the R sector, zero modes: lowering phi_{j,p} (raw index < 0) in the
    standard realization, raising phi^{j,p} (raw index > 0) in the dual
    ("opposite Borel") realization used for the third slot of the forms.

The raw index pair (0,0) at tm = 0 is the odd generator e^0: it never enters
a wedge, acting instead by the scalar (-1)^degree / sqrt(2).
"""

from __future__ import annotations

from bisect import bisect_left

from .coeff import INV_SQRT2, ONE, ZERO, QSqrt2
from ..rootsys import Frozen

NS = "NS"
R = "R"

Gen = tuple[int, int, int]  # (tm, j, p)


class SectorError(ValueError):
    """Generator mode incompatible with the sector of the state."""


def _index_positive(j: int, p: int) -> bool:
    return j > 0 or (j == 0 and p > 0)


class FockState(Frozen):
    """One basis state: a sorted wedge of generators in a sector, in the
    standard or the dual realization.  Its fields are sector, wedge and
    dual; twice the energy (sum of -tm over the wedge) and the hash are
    computed once, at construction, because states key every dict of the
    engine."""

    __slots__ = ("sector", "wedge", "dual", "energy2", "_hash")
    _fields = ("sector", "wedge", "dual")

    def __init__(self, sector: str, wedge: tuple[Gen, ...], dual: bool = False):
        setattr_ = object.__setattr__
        setattr_(self, "sector", sector)
        setattr_(self, "wedge", wedge)
        setattr_(self, "dual", dual)
        self._admit()

    def _admit(self) -> None:
        """Check that the wedge is strictly sorted and of the sector's
        parity, and fill energy2 and the hash."""
        parity = 1 if self.sector == NS else 0
        energy2 = 0
        prev = ()  # the empty tuple sorts before every generator
        for gen in self.wedge:
            tm = gen[0]
            if tm & 1 != parity:
                raise SectorError(f"mode {tm}/2 not allowed in sector {self.sector}")
            if gen <= prev:
                raise ValueError(f"wedge not canonically sorted: {self.wedge}")
            energy2 -= tm
            prev = gen
        object.__setattr__(self, "energy2", energy2)
        object.__setattr__(self, "_hash", hash((self.sector, self.wedge, self.dual)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.wedge == other.wedge and self.sector == other.sector
                    and self.dual == other.dual)
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.wedge)

    def is_ground(self) -> bool:
        """All modes zero; the wedge is sorted by mode, so its ends decide."""
        w = self.wedge
        return not w or w[0][0] == 0 == w[-1][0]


# the slot setters of FockState, for the private constructor below
_set_fields = (
    FockState.sector.__set__,
    FockState.wedge.__set__,
    FockState.dual.__set__,
    FockState.energy2.__set__,
    FockState._hash.__set__,
)


def _derived_state(sector: str, wedge: tuple[Gen, ...], dual: bool, energy2: int) -> FockState:
    """A FockState built without the checks of `_admit`: the caller
    guarantees a strictly sorted wedge of the sector's parity and passes its
    energy2.  The hash is the one the public constructor computes."""
    set_sector, set_wedge, set_dual, set_energy2, set_hash = _set_fields
    state = object.__new__(FockState)
    set_sector(state, sector)
    set_wedge(state, wedge)
    set_dual(state, dual)
    set_energy2(state, energy2)
    set_hash(state, hash((sector, wedge, dual)))
    return state


def vacuum(sector: str) -> FockState:
    return FockState(sector, ())


class FockVector:
    """Finite linear combination of Fock states over Q[sqrt(2)]."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[FockState, QSqrt2] | None = None):
        self.terms = {s: c for s, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    @classmethod
    def unit(cls, state: FockState, coeff=ONE) -> "FockVector":
        return cls({state: QSqrt2.of(coeff)})

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for s, c in other.terms.items():
            old = out.get(s)
            out[s] = c if old is None else old + c
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for s, c in other.terms.items():
            old = out.get(s)
            out[s] = -c if old is None else old - c
        return FockVector(out)

    def __rmul__(self, scalar) -> "FockVector":
        c = QSqrt2.of(scalar)
        return FockVector({s: c * v for s, v in self.terms.items()})

    __mul__ = __rmul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def energy2(self) -> int:
        return max((s.energy2 for s in self.terms), default=0)

    def coefficient(self, state: FockState) -> QSqrt2:
        return self.terms.get(state, ZERO)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for s, c in sorted(self.terms.items(), key=lambda kv: kv[0].wedge):
            gens = " ".join(_gen_str(g) for g in s.wedge) or "1"
            bits.append(f"({c}) {gens}")
        return "  +  ".join(bits)

    __repr__ = __str__


def _gen_str(g: Gen) -> str:
    tm, j, p = g
    mode = f"{tm//2}" if tm % 2 == 0 else f"{tm}/2"
    if _index_positive(j, p) or (j, p) == (0, 0):
        return f"phi^{{{j},{p}}}({mode})"
    return f"phi_{{{-j},{-p}}}({mode})"


_NEG_INV_SQRT2 = -INV_SQRT2


def clifford_state(gen: Gen, state: FockState):
    """Action of a Clifford generator phi^{j,p}(tm/2) on one basis state:
    (state', c) with c = +-1 or +-1/sqrt(2), or None when it vanishes.

    Creations wedge (with the reordering sign), annihilations contract via
    the pairing {phi^{a}(m), phi^{b}(n)} = delta_{a+b,0} delta_{m+n,0}, and
    the R-sector zero mode at raw index (0,0) acts by (-1)^deg / sqrt(2).

    The image is derived from the source state unchecked: inserting an
    absent generator at its bisect position, or removing the one paired
    generator, keeps the wedge strictly sorted, the sector is checked on
    entry, and either way the energy drops by the mode, energy2 - tm.
    """
    tm, j, p = gen
    if tm & 1 != (state.sector == NS):
        raise SectorError(f"mode {tm}/2 not allowed in sector {state.sector}")
    w = state.wedge
    if tm == 0 and j == 0 and p == 0:
        return state, (_NEG_INV_SQRT2 if len(w) & 1 else INV_SQRT2)
    # tm < 0 creates; at tm = 0 the raw index sign and the realization decide
    if tm < 0 or (tm == 0 and _index_positive(j, p) == state.dual):
        i = bisect_left(w, gen)
        if i < len(w) and w[i] == gen:
            return None
        new = w[:i] + (gen,) + w[i:]
    else:
        # generators are distinct in a wedge: at most one pairs with gen
        pair = (-tm, -j, -p)
        i = bisect_left(w, pair)
        if i == len(w) or w[i] != pair:
            return None
        new = w[:i] + w[i + 1 :]
    image = _derived_state(state.sector, new, state.dual, state.energy2 - tm)
    return image, (-1 if i & 1 else 1)


def clifford_apply(gen: Gen, v: FockVector) -> FockVector:
    """Action of a Clifford generator phi^{j,p}(tm/2) on a Fock vector,
    state by state through clifford_state."""
    out: dict[FockState, QSqrt2] = {}
    for state, coeff in v.terms.items():
        hit = clifford_state(gen, state)
        if hit is not None:
            new, c = hit
            c = coeff * c
            old = out.get(new)
            out[new] = c if old is None else old + c
    return FockVector(out)
