"""The 2x2 matrix of the elliptic-factorization rank-level map on the
sigma-orbit of lambda = Y + omega_r, Y in the r x (s-1) box with first row
exactly s-1, and its determinant (exactly zero: the strange-duality failure).
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import PSI, PSITILDE, evaluate_block
from .coeff import QSqrt2
from .hwv import filled_first_row, sigma_twist_ops, spin_hwv, spin_hwv_opposite
from .operators import BilinearOp, SlotExpression
from .states import NS, FockState, FockVector, vacuum
from ..rootsys import require_rank
from ..weights import YoungDiagram


def _ns_vacuum_slot() -> SlotExpression:
    return SlotExpression((), FockVector.unit(vacuum(NS)))


def _tilde_word(r: int) -> tuple[BilinearOp, ...]:
    """B^{2,0}_{2,0}(-1) ... B^{r,0}_{r,0}(-1) B^{0,0}_{1,0}(-1)."""
    ops = [BilinearOp((k, 0), (k, 0), -1) for k in range(2, r + 1)]
    ops.append(BilinearOp((0, 0), (1, 0), -1))
    return tuple(ops)


def _phi10_base() -> FockVector:
    return FockVector.unit(FockState(NS, ((-1, 1, 0),)))


@dataclass
class RankLevelMatrix:
    y: YoungDiagram
    r: int
    s: int
    entries: tuple[tuple[QSqrt2, QSqrt2], tuple[QSqrt2, QSqrt2]]
    determinant: QSqrt2


def ranklevel_matrix(y: YoungDiagram, r: int, s: int) -> RankLevelMatrix:
    """Entries <form | u (x) v (x) w> over the basis pairs:

        rows:    u = 1 (Psi)  /  u = tilde-v word (PsiTilde)
        columns: (v_lam, v^lam)  /  (twisted v-bar_lam, v-bar^lam)
    """
    require_rank(r)
    require_rank(s, "s")
    if y.row(1) != s - 1 or not y.fits(r, s - 1):
        raise ValueError(
            f"need Y in the {r}x{s-1} box with first row exactly {s-1}, got {y}"
        )
    v_lam = SlotExpression((), spin_hwv(y, r, s))
    v_lam_op = SlotExpression((), spin_hwv_opposite(y, r, s))
    ybar = filled_first_row(y, s)
    twist = tuple(sigma_twist_ops(y, r, s))  # a single op: first row is s-1
    twist_op = tuple(BilinearOp((0, 0), op.upper, -1) for op in twist)
    vbar = SlotExpression(twist, spin_hwv(ybar, r, s))
    vbar_op = SlotExpression(twist_op, spin_hwv_opposite(ybar, r, s))
    tilde = SlotExpression(_tilde_word(r), _phi10_base())

    a11 = evaluate_block(_ns_vacuum_slot(), v_lam, v_lam_op, PSI)
    a12 = evaluate_block(_ns_vacuum_slot(), vbar, vbar_op, PSI)
    a21 = evaluate_block(tilde, v_lam, v_lam_op, PSITILDE)
    a22 = evaluate_block(tilde, vbar, vbar_op, PSITILDE)
    det = a11 * a22 - a12 * a21
    return RankLevelMatrix(y, r, s, ((a11, a12), (a21, a22)), det)
