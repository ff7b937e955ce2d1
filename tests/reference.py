"""Independent references that the tests compare the engines against, and
the helpers several test modules share.  None of them runs in the program
itself."""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

from thetablocks.fock.operators import apply_bilinear
from thetablocks.fock.states import NS, FockVector, clifford_apply, vacuum
from thetablocks.fusion import _weight_system
from thetablocks.goldens import GOLDENS
from thetablocks.rootsys import (
    Weight,
    _dbl_positive_roots,
    _dbl_rho,
    fold_shifted,
    require_rank,
    weyl_dim,
)
from thetablocks.verlinde import SINE_GUARD_BITS, _working_prec, magnitude_bound
from thetablocks.weights import YoungDiagram, enumerate_level


@lru_cache(maxsize=None)
def tensor_product(lam_d, mu_d):
    """Klimyk's formula: V_lambda (x) V_mu as {doubled nu: multiplicity},
    folding lam + rho + v through the finite Weyl group for every weight v
    of the smaller factor."""
    rho = _dbl_rho(len(lam_d))
    if weyl_dim(mu_d) > weyl_dim(lam_d):
        lam_d, mu_d = mu_d, lam_d
    shift = tuple(a + b for a, b in zip(lam_d, rho))
    acc = {}
    for v, m in _weight_system(mu_d):
        folded = fold_shifted(tuple(a + b for a, b in zip(shift, v)))
        if folded is None:
            continue
        dom, sign = folded
        key = tuple(a - b for a, b in zip(dom, rho))
        acc[key] = acc.get(key, 0) + sign * m
    out = {k: v for k, v in acc.items() if v}
    assert all(v > 0 for v in out.values()), "Klimyk alternation went negative"
    return out


def sine_table(q: int, bits: int) -> list:
    """round(2^bits sin(2 pi m / q)) for 0 <= m < q, by mpmath at bits plus
    SINE_GUARD_BITS."""
    with mpmath.workprec(bits + SINE_GUARD_BITS):
        return [int(mpmath.nint(mpmath.ldexp(mpmath.sinpi(mpmath.mpf(2 * m) / q), bits)))
                for m in range(q)]


def n0_oxbury(g: int, r: int, ell: int):
    """The Oxbury-Wilson sum (4 k^r)^(g-1) * sum over SO-weights mu of
    prod over positive roots (2 sin(pi (mu+rho, alpha) / k))^(2-2g) in mpf
    arithmetic at the engine's working precision, from the mpmath sine
    table: (the nearest integer, the rounding residual as a float), not
    certified."""
    rho, roots = _dbl_rho(r), _dbl_positive_roots(r)
    k = ell + 2 * r - 1
    q = 4 * k
    so_weights = [w for w in enumerate_level(r, ell) if w.is_so]
    with mpmath.workprec(_working_prec(magnitude_bound(g, [], r, ell))):
        bits = mpmath.mp.prec + SINE_GUARD_BITS
        # 2 sin(2 pi m / 4k), m < 4k
        two_sines = [mpmath.ldexp(t, 1 - bits) for t in sine_table(q, bits)]
        total = mpmath.mpf(0)
        for mu in so_weights:
            x = tuple(c + p for c, p in zip(mu.d, rho))
            # (mu + rho, alpha) is the dot product of the doubled vectors over
            # 4, so pi (mu + rho, alpha) / k = 2 pi (dot / 2) / 4k
            total += mpmath.fprod(
                two_sines[sum(a * b for a, b in zip(x, alpha)) // 2 % q] ** (2 - 2 * g)
                for alpha in roots
            )
        total *= (4 * mpmath.mpf(k) ** r) ** (g - 1)
        n = int(mpmath.nint(total))
        return n, float(abs(total - n))


def det_fraction(a) -> int:
    """det a of an int matrix by Gaussian elimination over Fraction, each
    pivot the entry of largest absolute value in its column."""
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if not m[p][k]:
            return 0
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    assert det.denominator == 1
    return det.numerator


def doubled(coords) -> tuple:
    """Twice each of any rational L-coordinates (not necessarily those of a
    dominant weight), as ints."""
    return tuple(int(2 * Fraction(c)) for c in coords)


def enumerate_level_fractions(r: int, ell: int) -> tuple:
    """The weights with b1 + b2 <= ell, enumerated and sorted on Fraction
    L-coordinates: SO weights first, then spin weights, each family in
    lexicographic order."""

    def family(shift):
        out = []

        def rec(prefix):
            i = len(prefix)
            if i == r:
                out.append(Weight(tuple(prefix)))
                return
            if i == 0:
                hi = ell - shift
            elif i == 1:
                hi = min(prefix[0], ell - prefix[0])
            else:
                hi = prefix[-1]
            v = shift
            while v <= hi:
                rec(prefix + [v])
                v += 1
        rec([])
        return sorted(out, key=lambda w: w.coords)

    return tuple(family(Fraction(0)) + family(Fraction(1, 2)))


def weight_of_young(y: YoungDiagram, r: int, spin: bool = False) -> Weight:
    """The weight Y (SO kind) or Y + omega_r (spin kind) for a diagram with
    at most r rows."""
    require_rank(r)
    if len(y.rows) > r:
        raise ValueError(f"{y} has more than {r} rows")
    return Weight.from_dbl(tuple(2 * y.row(i + 1) + spin for i in range(r)))


def orbit_size(d) -> int:
    """Closed form for the size of the Weyl orbit (signed permutations) of a
    dominant doubled vector."""
    zeros = sum(1 for c in d if c == 0)
    stab = factorial(zeros) * 2 ** zeros
    for v in set(c for c in d if c != 0):
        stab *= factorial(sum(1 for c in d if c == v))
    return 2 ** len(d) * factorial(len(d)) // stab


def omega_coords(w: Weight) -> tuple:
    """Coefficients (a_1, ..., a_r) of w in the fundamental-weight basis."""
    b, r = w.coords, w.rank
    return tuple(int(b[i] - b[i + 1]) for i in range(r - 1)) + (int(2 * b[r - 1]),)


def from_omega(a) -> Weight:
    """The weight with fundamental-weight coefficients a."""
    r = len(a)
    return Weight(tuple(sum(a[i:r - 1]) + Fraction(a[r - 1], 2) for i in range(r)))


def apply_word(word, v):
    """Apply a word of bilinears, rightmost first."""
    for op in reversed(tuple(word)):
        v = apply_bilinear(op, v)
    return v


def ns_monomial(*pairs):
    """phi^{j1,p1}(-1/2) ... phi^{jn,pn}(-1/2) on the NS vacuum."""
    v = FockVector.unit(vacuum(NS))
    for j, p in reversed(pairs):
        v = clifford_apply((-1, j, p), v)
    return v


def golden_rows(prefix: str) -> tuple:
    """The golden rows whose name starts with `prefix`, in table order."""
    return tuple(row for row in GOLDENS if row.name.startswith(prefix))


def want(prefix: str):
    """The wanted value of the one golden row whose name starts with `prefix`."""
    (row,) = golden_rows(prefix)
    return row.want
