"""High-precision trigonometric Verlinde oracle for so(2r+1) at level ell.

The S-matrix is built from the signed-permutation sum, which factorizes as a
determinant of sines:

    S_{lam,mu} = c * det[ sin(2 pi x_i y_j / k) ],   x = lam+rho, y = mu+rho,

with k = ell + 2r - 1 and c > 0 fixed by unitarity of the first row.  The
Oxbury-Wilson sums over SO-weights and the theta-characteristic counts live
here too; every sum must round to an integer within DEFAULT_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .common import DEFAULT_DPS
from .rootsys import Weight, _dbl_positive_roots, _dbl_rho, dbl, require_rank
from .weights import check_weight, enumerate_level, sigma

DEFAULT_TOL = 1e-6


class PrecisionError(ArithmeticError):
    """A trig sum failed to round to an integer within tolerance."""


@dataclass(frozen=True)
class SMatrix:
    rank: int
    level: int
    weights: tuple[Weight, ...]
    entries: tuple  # tuple of tuples of mpf
    dps: int


@lru_cache(maxsize=None)
def s_matrix(r: int, ell: int, dps: int = DEFAULT_DPS) -> SMatrix:
    require_rank(r)
    ws = enumerate_level(r, ell)
    rho = _dbl_rho(r)
    k = ell + 2 * r - 1
    with mpmath.workdps(dps):
        # x = lam + rho, halved from doubled ints (exact in binary)
        shifted = [[mpmath.mpf(c + p) / 2 for c, p in zip(dbl(w.coords), rho)]
                   for w in ws]
        two_pi_over_k = 2 * mpmath.pi / k
        raw = []
        for x in shifted:
            row = []
            for y in shifted:
                m = mpmath.matrix(r)
                for i in range(r):
                    for j in range(r):
                        m[i, j] = mpmath.sin(two_pi_over_k * x[i] * y[j])
                row.append(mpmath.det(m))
            raw.append(row)
        norm = mpmath.sqrt(mpmath.fsum(v ** 2 for v in raw[0]))
        c = 1 / norm
        if raw[0][0] < 0:
            c = -c
        entries = tuple(tuple(c * v for v in row) for row in raw)
    return SMatrix(r, ell, ws, entries, dps)


def _round_checked(value) -> int:
    n = int(mpmath.nint(value))
    residual = abs(value - n)
    if residual > DEFAULT_TOL:
        raise PrecisionError(f"rounding residual {mpmath.nstr(residual, 8)} "
                             f"exceeds tolerance {DEFAULT_TOL}")
    return n


def dim_trig(g: int, lams, r: int, ell: int, dps: int = DEFAULT_DPS) -> int:
    """Verlinde dimension sum(mu) S_{0mu}^{2-2g-n} prod_i S_{lam_i,mu}."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    lams = list(lams)
    for w in lams:
        check_weight(w, r, ell)
    sm = s_matrix(r, ell, dps)
    index = {w: i for i, w in enumerate(sm.weights)}
    rows = [sm.entries[index[w]] for w in lams]
    vacuum = sm.entries[0]
    power = 2 - 2 * g - len(lams)
    with mpmath.workdps(dps):
        total = mpmath.fsum(
            (vacuum[j] ** power) * mpmath.fprod(row[j] for row in rows)
            for j in range(len(sm.weights))
        )
        return _round_checked(total)


def n0_oxbury(g: int, r: int, ell: int, dps: int = DEFAULT_DPS) -> int:
    """The Oxbury-Wilson sum

    N_g^0 = (4 k^r)^(g-1) * sum over SO-weights mu of
            prod over positive roots (2 sin(pi (mu+rho, alpha) / k))^(2-2g)

    with k = ell + 2r - 1.
    """
    require_rank(r)
    if g < 1:
        raise ValueError("n0_oxbury needs g >= 1")
    rho, roots = _dbl_rho(r), _dbl_positive_roots(r)
    k = ell + 2 * r - 1
    so_weights = [w for w in enumerate_level(r, ell) if w.is_so]
    with mpmath.workdps(dps):
        pi_over_k = mpmath.pi / k
        total = mpmath.mpf(0)
        for mu in so_weights:
            x = tuple(c + p for c, p in zip(dbl(mu.coords), rho))
            # (mu + rho, alpha) is the dot product of the doubled vectors over 4
            total += mpmath.fprod(
                (2 * mpmath.sin(
                    pi_over_k * (mpmath.mpf(sum(a * b for a, b in zip(x, alpha))) / 4)
                )) ** (2 - 2 * g)
                for alpha in roots
            )
        total *= (4 * mpmath.mpf(k) ** r) ** (g - 1)
        return _round_checked(total)


def twisted_total(g: int, r: int, ell: int, dps: int = DEFAULT_DPS) -> int:
    """dim V_{omega_0} + dim V_{ell*omega_1} at genus g (one marked point
    carries ell*omega_1); equals 2 * n0_oxbury by the character-sign collapse."""
    top = sigma(Weight.zero(r), ell)  # ell * omega_1
    vac = dim_trig(g, [], r, ell, dps)
    twisted = dim_trig(g, [top], r, ell, dps)
    return vac + twisted


@dataclass(frozen=True)
class OxburyReport:
    g: int
    r: int
    s: int
    lhs: int
    rhs: int
    equal: bool


def oxbury_check(g: int, r: int, s: int, dps: int = DEFAULT_DPS) -> OxburyReport:
    """Check N_g^0(so(2r+1), 2s+1) = N_g^0(so(2s+1), 2r+1), both sides
    evaluated independently."""
    require_rank(r)
    require_rank(s, "s")  # s is the rank of the right side
    lhs = n0_oxbury(g, r, 2 * s + 1, dps)
    rhs = n0_oxbury(g, s, 2 * r + 1, dps)
    return OxburyReport(g, r, s, lhs, rhs, lhs == rhs)


def theta_counts(g: int) -> tuple[int, int, int]:
    """(total, even, odd) theta-characteristic counts:
    2^(2g), 2^(g-1)(2^g + 1), 2^(g-1)(2^g - 1)."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    total = 4 ** g
    return total, (total + 2 ** g) // 2, (total - 2 ** g) // 2
