"""Gauge-symmetry evaluation of three-point level-one blocks.

The three slots sit at 0, 1 and infinity.  A slot expression whose outermost
operator has mode -1 is reduced by choosing a function with a simple pole at
that slot's point; the expansions at the other two points produce operators
of mode >= 0 there:

    pole at 0   (f = 1/z):      slot1 += -sum_k (-1)^k X(k),  slot2 += -X(1)
    pole at 1   (f = 1/(z-1)):  slot0 += +sum_k X(k),         slot2 += -sum_{k>=1} X(k)
    pole at inf (f = z):        slot0 += -X(1),               slot1 += -(X(0)+X(1))

Transferred operators are pushed through the target slot's pending word with
the affine commutation relation, so the mode -1 handles survive for later
strips; pushes that reach the base act concretely.  Each strip lowers the
total count of mode -1 operators by one, which bounds the recursion.
"""

from __future__ import annotations

from ..common import UnreducibleError
from .algebra import bracket, invariant_form
from .coeff import ONE, ZERO, QSqrt2
from .forms import GroundStratumError, psi_pair, psitilde
from .operators import BilinearOp, SlotExpression, apply_bilinear
from .states import FockVector

PSI = "Psi"
PSITILDE = "PsiTilde"


def _transfers(i: int, budgets) -> list:
    """(target, [(k, coeff)]) lists for stripping X(-1) from slot i; series
    are truncated by the target's energy budget (X(k) kills states of energy
    below k)."""
    if i == 0:
        # f = 1/z: at 1 the expansion is sum (-1)^k xi^k, at infinity it is w
        t1 = [(k, -((-1) ** k)) for k in range(0, budgets[1] + 1)]
        t2 = [(1, -1)] if budgets[2] >= 1 else []
        return [(1, t1), (2, t2)]
    if i == 1:
        # f = 1/(z-1): at 0 it is -sum z^k, at infinity sum_{k>=1} w^k
        t0 = [(k, 1) for k in range(0, budgets[0] + 1)]
        t2 = [(k, -1) for k in range(1, budgets[2] + 1)]
        return [(0, t0), (2, t2)]
    # f = z: at 0 it is z, at 1 it is 1 + xi (a finite expansion)
    t0 = [(1, -1)] if budgets[0] >= 1 else []
    t1 = [(k, -1) for k in range(0, min(1, budgets[1]) + 1)]
    return [(0, t0), (1, t1)]


def _absorb(label, k: int, word: tuple, base: FockVector) -> list:
    """Push B^label(k) into word . base; returns [(coeff, word, base)].

    Mode -1 operators join the word; modes >= 0 commute inward, spawning
    bracket terms at mode k-1 and (at k = 1) the level-one central term.
    """
    op = BilinearOp(label[0], label[1], k)
    if k == -1:
        return [(ONE, (op,) + word, base)]
    if not word:
        nb = apply_bilinear(op, base)
        return [(ONE, (), nb)] if nb else []
    head = word[0]
    out = []
    for c, w2, b2 in _absorb(label, k, word[1:], base):
        out.append((c, (head,) + w2, b2))
    for blabel, coeff in bracket(label, (head.upper, head.lower)):
        for c, w2, b2 in _absorb(blabel, k - 1, word[1:], base):
            out.append((QSqrt2(coeff) * c, w2, b2))
    if k == 1:
        f = invariant_form(label, (head.upper, head.lower))
        if f:
            out.append((QSqrt2(f), word[1:], base))
    return out


def _final_value(slots: tuple, form: str) -> QSqrt2:
    v0, v1, v2 = (s.value() for s in slots)
    for v in (v1, v2):
        for st in v.terms:
            if not st.is_ground():
                raise UnreducibleError(f"non-ground Ramond state survives: {st}")
    # an argument outside its ground stratum is unreducible under either form
    try:
        if form == PSI:
            c0 = ZERO
            for st, c in v0.terms.items():
                if st.degree != 0:
                    raise UnreducibleError(f"non-vacuum NS state survives: {st}")
                c0 = c0 + c
            return c0 * psi_pair(v1, v2)
        if form == PSITILDE:
            return psitilde(v0, v1, v2)
    except GroundStratumError as exc:
        raise UnreducibleError(str(exc)) from exc
    raise ValueError(f"form must be {PSI} or {PSITILDE}")


def evaluate_block(
    slot1: SlotExpression,
    slot2: SlotExpression,
    slot3: SlotExpression,
    form: str,
    strip_order=None,
) -> QSqrt2:
    """Evaluate <form | slot1 (x) slot2 (x) slot3> by gauge reduction.

    strip_order optionally forces which slot is reduced first at each step
    (a sequence of slot indices consumed left to right); the result is
    independent of the choice.
    """
    order = tuple(strip_order) if strip_order is not None else ()

    def reduce(slots: tuple, depth: int) -> QSqrt2:
        pending = [i for i in range(3) if slots[i].ops]
        if not pending:
            return _final_value(slots, form)
        if depth < len(order) and order[depth] in pending:
            i = order[depth]
        else:
            i = pending[0]
        x = slots[i].ops[0]
        stripped = slots[i].tail()
        # only the two targets are read; the stripped slot's own value (one
        # more bilinear over its tail's) is never needed
        budgets = [None if j == i else slots[j].value().energy2 // 2 for j in range(3)]
        total = ZERO
        for j, kcoeffs in _transfers(i, budgets):
            if not slots[j].value():
                continue
            for k, c in kcoeffs:
                for c2, w2, b2 in _absorb(
                    (x.upper, x.lower), k, slots[j].ops, slots[j].base
                ):
                    ns = list(slots)
                    ns[i] = stripped
                    ns[j] = SlotExpression(w2, b2)
                    term = reduce(tuple(ns), depth + 1)
                    if term:
                        total = total + QSqrt2.of(c) * c2 * term
        return total

    return reduce((slot1, slot2, slot3), 0)
