#!/usr/bin/env python3
"""Scan the elliptic rank-level matrix over small (r, s) and all diagrams in
the r x (s-1) box with first row exactly s-1, printing each matrix, its
determinant and its time in milliseconds, then the number of matrices
scanned and the total time in seconds.  Every determinant comes out exactly
zero in Q[sqrt(2)]: the sigma-orbit pair of columns is dependent, which is
the strange-duality failure mechanism.

A matrix depends on (Y, s) only through the complement c_j = s - Y_j, and
`ranklevel_matrix` keeps one matrix per (r, c) in a bounded memo: a diagram
whose complement already came up at a smaller s prints near 0 ms.  Over
rmax = 5, smax = 6 the 451 diagrams have 209 distinct complements.

Usage: python scripts/strange_duality_scan.py [rmax] [smax]
(integers >= 2, default 3 3; exit 1 on bad arguments or a nonzero determinant)
"""

import sys
import time

from thetablocks.fock import ranklevel_matrix
from thetablocks.weights import young_diagrams


USAGE = "usage: python scripts/strange_duality_scan.py [rmax] [smax]  (integers >= 2)"


def main(rmax: int = 3, smax: int = 3) -> int:
    start = time.monotonic()
    nonzero = scanned = 0
    for r in range(2, rmax + 1):
        for s in range(2, smax + 1):
            for y in young_diagrams(r, s - 1):
                if y.row(1) != s - 1:
                    continue
                t0 = time.monotonic()
                m = ranklevel_matrix(y, r, s)
                scanned += 1
                flat = [str(e) for row in m.entries for e in row]
                status = "det = 0" if not m.determinant else f"det = {m.determinant}  *** NONZERO"
                if m.determinant:
                    nonzero += 1
                print(
                    f"(r,s)=({r},{s})  Y={str(y):8s}  A = [{flat[0]}, {flat[1]}; "
                    f"{flat[2]}, {flat[3]}]  {status}   [{1000 * (time.monotonic() - t0):.1f} ms]"
                )
    print("all determinants vanish" if not nonzero else f"{nonzero} NONZERO determinants")
    print(f"{scanned} matrices scanned in {time.monotonic() - start:.2f} s")
    return 1 if nonzero else 0


def _parse_args(argv: list[str]) -> tuple[int, int] | None:
    """(rmax, smax) from at most two integer arguments >= 2, else None."""
    if len(argv) > 2:
        return None
    try:
        bounds = [int(a) for a in argv] + [3] * (2 - len(argv))
    except ValueError:
        return None
    return None if min(bounds) < 2 else (bounds[0], bounds[1])


if __name__ == "__main__":
    bounds = _parse_args(sys.argv[1:])
    if bounds is None:
        print(USAGE, file=sys.stderr)
        sys.exit(1)
    sys.exit(main(*bounds))
