"""The 2x2 matrix of the elliptic-factorization rank-level map on the
sigma-orbit of lambda = Y + omega_r, Y in the r x (s-1) box with first row
exactly s-1, and its determinant (exactly zero: the strange-duality failure).

The matrix reads Y and s only through the complement c_j = s - Y_j,
j = 1..r: the black positions of the spin vectors span p in [-c_j, 0), the
filled first row has complement (0, c_2, ..., c_r), and the twist runs over
k = 1..c_1.  So it is computed once per (r, c), from the smallest box that
holds c, in a bounded memo.  Over 2 <= r <= 5, 2 <= s <= 6 the 451 diagrams
have 209 distinct complements.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .blocks import PSI, PSITILDE, evaluate_block
from .coeff import QSqrt2
from .hwv import sigma_twist_slots, spin_hwv, spin_hwv_opposite
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


def _matrix_slots(y: YoungDiagram, r: int, s: int) -> tuple[SlotExpression, ...]:
    """The slots the matrix pairs: (vacuum, v_lam, v^lam, twisted v-bar_lam,
    v-bar^lam, tilde-v word)."""
    return (
        _ns_vacuum_slot(),
        SlotExpression((), spin_hwv(y, r, s)),
        SlotExpression((), spin_hwv_opposite(y, r, s)),
        *sigma_twist_slots(y, r, s),  # one op each: the first row is s-1
        SlotExpression(_tilde_word(r), _phi10_base()),
    )


def _representative(comp: tuple[int, ...]) -> tuple[YoungDiagram, int]:
    """(Y0, s0): the diagram of complement `comp` in the smallest valid box,
    s0 = max(2, c_r) and Y0_j = s0 - c_j."""
    s0 = max(2, comp[-1])
    return YoungDiagram(tuple(s0 - c for c in comp)), s0


# the matrix of Y in the r x (s-1) box: entries ((a11, a12), (a21, a22)) and
# their determinant, in Q[sqrt2]
RankLevelMatrix = namedtuple("RankLevelMatrix", "y r s entries determinant")


@lru_cache(maxsize=256)  # holds the 209 complements of r <= 5, s <= 6
def _complement_matrix(
    r: int, comp: tuple[int, ...]
) -> tuple[tuple[tuple[QSqrt2, QSqrt2], tuple[QSqrt2, QSqrt2]], QSqrt2]:
    """Entries and determinant of the matrix of complement `comp` in rank r."""
    y0, s0 = _representative(comp)
    vac, v_lam, v_lam_op, vbar, vbar_op, tilde = _matrix_slots(y0, r, s0)
    a11 = evaluate_block(vac, v_lam, v_lam_op, PSI)
    a12 = evaluate_block(vac, vbar, vbar_op, PSI)
    a21 = evaluate_block(tilde, v_lam, v_lam_op, PSITILDE)
    a22 = evaluate_block(tilde, vbar, vbar_op, PSITILDE)
    return ((a11, a12), (a21, a22)), a11 * a22 - a12 * a21


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
    comp = tuple(s - y.row(j) for j in range(1, r + 1))
    entries, det = _complement_matrix(r, comp)
    return RankLevelMatrix(y, r, s, entries, det)
