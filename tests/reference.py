"""Independent references that the tests compare the engines against.  None
of them runs in the program itself."""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from thetablocks.fusion import _weight_system
from thetablocks.rootsys import Weight, _dbl_rho, fold_shifted, weyl_dim


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
