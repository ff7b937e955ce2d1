"""Highest weight vectors of the branching components inside the level-one
Fock modules of so(2d+1), in operator ("Kac-Moody") or wedge form."""

from __future__ import annotations

from .operators import BilinearOp, SlotExpression
from .states import NS, R, FockState, FockVector, _index_positive, vacuum
from ..weights import YoungDiagram


def black_positions(y: YoungDiagram, r: int, s: int) -> list[tuple[int, int]]:
    """Positions (j, p), j in 1..r, p in -s..-1, complementary to the diagram:
    row j is black at the rightmost s - Y_j columns."""
    if not y.fits(r, s):
        raise ValueError(f"{y} does not fit in the {r}x{s} box")
    out = []
    for j in range(1, r + 1):
        for p in range(y.row(j) - s, 0):
            out.append((j, p))
    return out


def _permutation_sign(order: list[int]) -> int:
    """Sign of a permutation of range(n): each cycle of length L flips it
    L - 1 times."""
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start]:
            continue
        seen[start] = True
        i = order[start]
        while i != start:
            seen[i] = True
            i = order[i]
            sign = -sign
    return sign


def _wedge_vector(sector: str, dual: bool, gens) -> FockVector:
    """The product of the listed generators, left to right, on the vacuum:
    one sort into the canonical wedge, signed by the parity of the sorting
    permutation, and zero when a generator repeats.  Every generator must
    create on the vacuum (negative mode, or a zero mode the realization
    keeps), else ValueError."""
    gens = list(gens)
    for tm, j, p in gens:
        if not (tm < 0 or (tm == 0 and (j, p) != (0, 0) and _index_positive(j, p) == dual)):
            raise ValueError(f"generator {(tm, j, p)} does not create on the vacuum")
    order = sorted(range(len(gens)), key=gens.__getitem__)
    wedge = tuple(gens[i] for i in order)
    if any(a == b for a, b in zip(wedge, wedge[1:])):
        return FockVector.zero()
    return FockVector.unit(FockState(sector, wedge, dual), _permutation_sign(order))


def spin_hwv(y: YoungDiagram, r: int, s: int) -> FockVector:
    """v_Y: the R-sector vector of the component (Y + omega_r, Y* + omega_s),
    the wedge of lowered zero modes phi_{j,p} over the black positions."""
    return _wedge_vector(R, False, ((0, -j, -p) for j, p in black_positions(y, r, s)))


def spin_hwv_opposite(y: YoungDiagram, r: int, s: int) -> FockVector:
    """v^Y: the same index set with raised generators, in the dual realization."""
    return _wedge_vector(R, True, ((0, j, p) for j, p in black_positions(y, r, s)))


def ns_column_hwv(r: int, s: int) -> FockVector:
    """The NS vector of the component (omega_0, (2r+1) omega_1):
    wedge of phi^{j,1}(-1/2) over j = -r..r."""
    return _wedge_vector(NS, False, ((-1, j, 1) for j in range(-r, r + 1)))


def _removable_cells(y: YoungDiagram):
    rows = y.rows
    for i in range(len(rows), 0, -1):
        if i == len(rows) or rows[i - 1] > rows[i]:
            yield (i, rows[i - 1])


def _remove_cell(y: YoungDiagram, cell) -> YoungDiagram:
    i, _ = cell
    rows = list(y.rows)
    rows[i - 1] -= 1
    return YoungDiagram(tuple(rows))


def so_pair_hwv(y: YoungDiagram, r: int, s: int) -> FockVector:
    """NS-sector vector of the component (Y, Y^T): a chain of two-box
    operators B^{a,b}_{-c,-d}(-1) over the vacuum (|Y| even) or over
    phi^{1,1}(-1/2) (|Y| odd), removing the two largest removable cells at
    each step."""
    if not y.fits(r, s):
        raise ValueError(f"{y} does not fit in the {r}x{s} box")
    word = []
    cur = y
    while cur.size > 1:
        c1 = max(_removable_cells(cur))
        mid = _remove_cell(cur, c1)
        c2 = max(_removable_cells(mid))
        cur = _remove_cell(mid, c2)
        (a, b), (c, d) = min(c1, c2), max(c1, c2)
        word.append(BilinearOp((a, b), (-c, -d), -1))
    if cur.size == 1:
        base = _wedge_vector(NS, False, [(-1, 1, 1)])
    else:
        base = FockVector.unit(vacuum(NS))
    return SlotExpression(tuple(reversed(word)), base).value()


def sigma_twist_ops(y: YoungDiagram, r: int, s: int) -> list[BilinearOp]:
    """The operators of the sigma-twisted component for Y in the r x (s-1)
    box: B^{1,k}_{0,0}(-1) over the black first-row columns k = 1..s - Y_1."""
    if not y.fits(r, s - 1):
        raise ValueError(f"sigma twist needs Y inside the {r}x{s-1} box, got {y}")
    return [BilinearOp((1, k), (0, 0), -1) for k in range(1, s - y.row(1) + 1)]


def filled_first_row(y: YoungDiagram, s: int) -> YoungDiagram:
    """Y' of the twist construction: the first row filled out to s columns."""
    rows = (s,) + y.rows[1:] if y.rows else (s,)
    return YoungDiagram(rows)


def sigma_twist_slots(
    y: YoungDiagram, r: int, s: int
) -> tuple[SlotExpression, SlotExpression]:
    """The sigma-twisted component (sigma(Y + omega_r), Y* + omega_s) as two
    slots: the twist word over v_Y' and the opposite word B^{0,0}_{1,k}(-1)
    over v^Y', where Y' is Y with its first row filled out to s columns."""
    ybar = filled_first_row(y, s)
    ops = tuple(sigma_twist_ops(y, r, s))
    opposite = tuple(BilinearOp((0, 0), op.upper, -1) for op in ops)
    return (
        SlotExpression(ops, spin_hwv(ybar, r, s)),
        SlotExpression(opposite, spin_hwv_opposite(ybar, r, s)),
    )


def sigma_twist_hwv(y: YoungDiagram, r: int, s: int) -> FockVector:
    """Vector of the component (sigma(Y + omega_r), Y* + omega_s)."""
    return sigma_twist_slots(y, r, s)[0].value()


def sigma_twist_hwv_opposite(y: YoungDiagram, r: int, s: int) -> FockVector:
    return sigma_twist_slots(y, r, s)[1].value()
