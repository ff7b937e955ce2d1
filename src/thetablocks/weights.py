"""Level-bounded weight enumeration, the affine diagram automorphism sigma,
and Young-diagram calculus (transpose, box complement, star)."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

from .rootsys import Frozen, Weight, require_rank


class LevelError(ValueError):
    """Weight does not satisfy the level bound (lambda, theta) <= ell."""


def check_level(lam: Weight, ell: int) -> None:
    if lam.level > ell:
        raise LevelError(f"{lam} is above level {ell}")


def check_weight(lam: Weight, r: int, ell: int) -> None:
    """Admit lam as a weight of so(2r+1) at level ell: the rank is checked
    first (ValueError), then the level (LevelError)."""
    if lam.rank != r:
        raise ValueError(f"{lam} has rank {lam.rank}, expected rank {r}")
    check_level(lam, ell)


@lru_cache(maxsize=None)
def enumerate_level(r: int, ell: int) -> tuple[Weight, ...]:
    """All dominant weights of so(2r+1) with b1 + b2 <= ell.

    Deterministic order: SO weights first, then spin weights, each family
    sorted lexicographically by L-coordinates (enumerated and sorted as
    doubled ints, which order the same way).
    """
    require_rank(r)
    if ell < 1:
        raise ValueError(f"level must be >= 1, got {ell}")
    ell2 = 2 * ell

    def family(shift: int) -> list[tuple[int, ...]]:
        # weakly decreasing doubled coordinates with d1 + d2 <= 2 ell, all
        # even (shift 0, the SO weights) or all odd (shift 1, the spin ones)
        coords = range(ell2 - shift, shift - 1, -2)
        return sorted(t for t in combinations_with_replacement(coords, r)
                      if t[0] + t[1] <= ell2)

    return tuple(Weight.from_dbl(d) for d in family(0) + family(1))


def sigma(lam: Weight, ell: int) -> Weight:
    """Affine diagram automorphism exchanging the nodes omega_0 and omega_1:
    lam_1 goes to ell - lam_1 in L-coordinates, everything else fixed."""
    check_level(lam, ell)
    return Weight.from_dbl((2 * ell - lam.d[0],) + lam.d[1:])


# -- Young diagrams -----------------------------------------------------------

class YoungDiagram(Frozen):
    """Weakly decreasing row lengths; trailing zeros normalized away."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        if any(a < 0 for a in rows):
            raise ValueError(f"negative row length: {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError(f"rows must weakly decrease: {rows}")
        if rows and rows[-1] == 0:
            rows = tuple(a for a in rows if a > 0)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    def fits(self, nrows: int, ncols: int) -> bool:
        return len(self.rows) <= nrows and (not self.rows or self.rows[0] <= ncols)

    def row(self, i: int) -> int:
        """Length of row i (1-based); 0 beyond the diagram."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    @classmethod
    def parse(cls, text: str) -> "YoungDiagram":
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"expected bracketed row list like [3,1], got {text!r}")
        inner = body[1:-1].strip()
        rows = tuple(int(p) for p in inner.split(",")) if inner else ()
        return cls(rows)

    def __str__(self) -> str:
        return "[" + ",".join(str(a) for a in self.rows) + "]"


def transpose(y: YoungDiagram) -> YoungDiagram:
    if not y.rows:
        return y
    cols = tuple(sum(1 for a in y.rows if a >= j) for j in range(1, y.rows[0] + 1))
    return YoungDiagram(cols)


def complement(y: YoungDiagram, nrows: int, ncols: int) -> YoungDiagram:
    """Complement inside an nrows x ncols box, rotated back to a diagram."""
    if not y.fits(nrows, ncols):
        raise ValueError(f"{y} does not fit in a {nrows}x{ncols} box")
    rows = tuple(ncols - y.row(nrows - i) for i in range(nrows))
    return YoungDiagram(rows)


def star(y: YoungDiagram, nrows: int, ncols: int) -> YoungDiagram:
    """Transpose, then complement in the transposed (ncols x nrows) box."""
    if not y.fits(nrows, ncols):
        raise ValueError(f"{y} does not fit in a {nrows}x{ncols} box")
    return complement(transpose(y), ncols, nrows)


def young_diagrams(nrows: int, ncols: int) -> list[YoungDiagram]:
    """All diagrams in an nrows x ncols box, |Y_{r,s}| = C(r+s, r) of them,
    depth-first with longer rows first.  Every row emitted is positive, so
    each diagram appears once."""
    out = []

    def rec(prefix):
        out.append(YoungDiagram(tuple(prefix)))
        if len(prefix) == nrows:
            return
        hi = prefix[-1] if prefix else ncols
        for v in range(hi, 0, -1):
            rec(prefix + [v])
    rec([])
    return out

