"""Normal-ordered fermion bilinears B^{i,p}_{k,q}(m) and the embedded L/R
current actions on Fock vectors."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .coeff import QSqrt2
from .states import NS, FockState, FockVector, clifford_state

Idx = tuple[int, int]


@dataclass(frozen=True)
class BilinearOp:
    """B^{upper}_{lower}(mode) = sum_{a+b=mode} :phi^{upper}(a) phi_{lower}(b):
    acting by Clifford multiplication; phi_{k,q} = phi^{-k,-q}."""

    upper: Idx
    lower: Idx
    mode: int

    def __str__(self):
        (i, p), (k, q) = self.upper, self.lower
        return f"B{{{i},{p};{k},{q}}}({self.mode})"


_HALF = QSqrt2(Fraction(1, 2))


def _add_product(out: dict, x: tuple, y: tuple, state: FockState, coeff) -> None:
    """out += coeff * phi^{x} phi^{y} state, the factors applied right to
    left to the one basis state."""
    hit = clifford_state(y, state)
    if hit is None:
        return
    mid, c1 = hit
    hit = clifford_state(x, mid)
    if hit is None:
        return
    new, c2 = hit
    c = coeff * (c1 * c2)
    old = out.get(new)
    out[new] = c if old is None else old + c


def apply_bilinear(op: BilinearOp, v: FockVector) -> FockVector:
    """Apply a normal-ordered bilinear; only finitely many mode splits act.

    Normal ordering: a > 0 > b swaps with a sign; a = b = 0 antisymmetrizes;
    all other splits act as written.  Each split acts on one basis state at
    a time and adds into a single output dict.
    """
    out: dict[FockState, QSqrt2] = {}
    tm_op = 2 * op.mode
    ui, up = op.upper
    li, lp = op.lower
    for state, coeff in v.terms.items():
        parity = 1 if state.sector == NS else 0
        budget = state.energy2
        lo = min(tm_op, 0) - budget
        hi = max(tm_op, 0) + budget
        for ta in range(lo + ((parity - lo) % 2), hi + 1, 2):
            tb = tm_op - ta
            x = (ta, ui, up)
            y = (tb, -li, -lp)
            if ta > 0 > tb:
                _add_product(out, y, x, state, -coeff)
            elif ta == 0 and tb == 0:
                half = _HALF * coeff
                _add_product(out, x, y, state, half)
                _add_product(out, y, x, state, -half)
            else:
                _add_product(out, x, y, state, coeff)
    return FockVector(out)


def apply_LR(i: int, j: int, mode: int, side: str, v: FockVector, r: int, s: int) -> FockVector:
    """Embedded action of B^i_j(mode): side "L" sums phi^{i,q} phi_{j,q} over
    q in [-s..s] (so(2r+1)); side "R" sums phi^{p,i} phi_{p,j} over
    p in [-r..r] (so(2s+1))."""
    if side == "L":
        if not (-r <= i <= r and -r <= j <= r):
            raise ValueError(f"index out of range for so({2*r+1}): ({i},{j})")
        ops = [BilinearOp((i, q), (j, q), mode) for q in range(-s, s + 1)]
    elif side == "R":
        if not (-s <= i <= s and -s <= j <= s):
            raise ValueError(f"index out of range for so({2*s+1}): ({i},{j})")
        ops = [BilinearOp((p, i), (p, j), mode) for p in range(-r, r + 1)]
    else:
        raise ValueError("side must be 'L' or 'R'")
    out: dict[FockState, QSqrt2] = {}
    for op in ops:
        for state, c in apply_bilinear(op, v).terms.items():
            old = out.get(state)
            out[state] = c if old is None else old + c
    return FockVector(out)


@dataclass(frozen=True)
class SlotExpression:
    """A word of mode -1 bilinears over a base vector; ops[0] is outermost.

    The number of negative-mode operators is the termination measure of the
    gauge reduction in blocks.evaluate_block.

    The expression keeps its value and its tail (ops[1:] over the same base)
    once computed, so value() applies one bilinear to the tail's value; the
    memo is not a field and takes no part in eq, hash or repr.
    """

    ops: tuple[BilinearOp, ...]
    base: FockVector

    def __post_init__(self):
        assert all(op.mode == -1 for op in self.ops), "slot words carry mode -1 ops"

    def value(self) -> FockVector:
        return self._value

    def tail(self) -> "SlotExpression":
        """The expression with its outermost operator stripped."""
        return self._tail

    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows
    @cached_property
    def _value(self) -> FockVector:
        if not self.ops:
            return self.base
        return apply_bilinear(self.ops[0], self.tail().value())

    @cached_property
    def _tail(self) -> "SlotExpression":
        return SlotExpression(self.ops[1:], self.base)
