#!/usr/bin/env python3
"""Genus-g strange-duality census: the paper's two headline claims as exact
tables.  For each 2 <= r < s <= rmax and 1 <= g <= gmax, with the left side
so(2r+1) at level 2s+1 and the right side so(2s+1) at level 2r+1, print

* both vacuum dimensions dim V_g (`verlinde_dims(g, [[]], ...)`, exact over
  F_p), which naive strange duality would make equal;
* both Oxbury-Wilson sums N_g^0 (`n0_oxbury`), which the paper proves equal;
* both spin parts dim V_g - N_g^0 (the sum over spin weights mu of
  S_{0mu}^(2-2g)) and their ratio, left over right;
* whether dim V_{omega_0} + dim V_{ell*omega_1} = 2 N_g^0
  (`twisted_total`) holds on each side,

then one summary line with the counts and the total time in seconds.

Usage: python scripts/strange_duality_census.py [rmax] [gmax]
(integers, rmax >= 3 and gmax >= 1, default 5 5; exit 1 on bad arguments,
2 when N_g^0 differs or the identity fails on a side)
"""

import sys
import time
from fractions import Fraction

from thetablocks.verlinde import n0_oxbury, twisted_total, verlinde_dims


USAGE = ("usage: python scripts/strange_duality_census.py [rmax] [gmax]"
         "  (integers, rmax >= 3, gmax >= 1)")


def _side(g: int, r: int, ell: int) -> tuple[int, int, bool]:
    """(dim V_g, N_g^0, whether twisted_total == 2 N_g^0) of so(2r+1) at ell."""
    n0 = n0_oxbury(g, r, ell)
    [dim] = verlinde_dims(g, [[]], r, ell)
    return dim, n0, twisted_total(g, r, ell) == 2 * n0


def main(rmax: int = 5, gmax: int = 5) -> int:
    start = time.monotonic()
    cases = differ = agree = holds = 0
    for r in range(2, rmax + 1):
        for s in range(r + 1, rmax + 1):
            for g in range(1, gmax + 1):
                dim_l, n0_l, ok_l = _side(g, r, 2 * s + 1)
                dim_r, n0_r, ok_r = _side(g, s, 2 * r + 1)
                spin_l, spin_r = dim_l - n0_l, dim_r - n0_r
                cases += 1
                differ += dim_l != dim_r
                agree += n0_l == n0_r
                holds += ok_l and ok_r
                print(
                    f"(r,s,g)=({r},{s},{g})  dim {dim_l} vs {dim_r}"
                    f"  N_g^0 {n0_l} vs {n0_r}{'' if n0_l == n0_r else '  *** DIFFER'}"
                    f"  spin {spin_l} / {spin_r} = {float(Fraction(spin_l, spin_r)):.4g}"
                    f"  identity {'holds' if ok_l else 'FAILS'}/{'holds' if ok_r else 'FAILS'}"
                )
    print(f"{cases} cases: dims differ in {differ}, N_g^0 agrees in {agree}, "
          f"the identity holds on both sides in {holds}; "
          f"{time.monotonic() - start:.2f} s")
    return 0 if agree == holds == cases else 2


def _parse_args(argv: list[str]) -> tuple[int, int] | None:
    """(rmax, gmax) from at most two integer arguments, else None."""
    if len(argv) > 2:
        return None
    try:
        rmax, gmax = [int(a) for a in argv] + [5, 5][len(argv):]
    except ValueError:
        return None
    return None if rmax < 3 or gmax < 1 else (rmax, gmax)


if __name__ == "__main__":
    bounds = _parse_args(sys.argv[1:])
    if bounds is None:
        print(USAGE, file=sys.stderr)
        sys.exit(1)
    sys.exit(main(*bounds))
