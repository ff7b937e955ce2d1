#!/usr/bin/env python3
"""Certify the exact Kac-Walton fusion rings against the Verlinde formula,
then check the certified Oxbury-Wilson reciprocity
N_g^0(so(2r+1), 2s+1) = N_g^0(so(2s+1), 2r+1) on the stated (r, s, genus)
grid, printing the time of each case and, for the reciprocity, its number
of residue primes.  Every entry of every FusionTable.product row of the
GRID and TABLE_RINGS rings is checked against the Verlinde formula over F_p
by `verlinde.table_mismatches`, and each table is saved.  The reciprocity
pairs have r < s: with r = s both sides are the same call, and (s, r)
repeats (r, s) with its sides swapped.

Usage: python scripts/dual_oracle_sweep.py [cache_dir]
Exit status: 2 when a table disagrees with the Verlinde formula (engine
disagreement), else 1 when a reciprocity check fails, else 0.
"""

import sys
import time

from thetablocks.fusion import FusionTable
from thetablocks.verlinde import (
    certificate_primes, magnitude_bound, oxbury_check, table_mismatches,
)

# the certified rings: the dual-oracle grid, every triple of which the
# tests also compare with the float oracle `dim_trig`, and so(7) level 7 and
# so(9) level 5, of 70 and 50 weights, far past it
GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
TABLE_RINGS = [(3, 7), (4, 5)]
# (r, s) pairs, r < s, and genera of the reciprocity sweep; the trig sums
# alone once returned wrong integers on such a grid from g = 14 on
OXBURY_RANKS = [(2, 3), (2, 4), (3, 4), (2, 5)]
OXBURY_GENERA = range(1, 17)


def main(cache_dir: str | None) -> int:
    """The number of table entries, over GRID and TABLE_RINGS, that disagree
    with the Verlinde formula."""
    bad = 0
    for r, ell in GRID + TABLE_RINGS:
        t0 = time.monotonic()
        table = FusionTable(r, ell, cache_dir=cache_dir)
        mismatches = table_mismatches(table)
        table.save()  # a no-op without a cache directory
        bad += len(mismatches)
        n = len(table.weights())
        print(f"so({2*r+1}) level {ell}: {n * n * (n + 1) // 2} row entries, "
              f"{len(mismatches)} mismatches   [{time.monotonic()-t0:.1f} s]")
        for m in mismatches[:5]:
            print("   ", m)
    print("tables agree everywhere" if not bad else f"{bad} TABLE MISMATCHES")
    return bad


def oxbury_sweep() -> int:
    """Certified reciprocity N_g^0(so(2r+1), 2s+1) = N_g^0(so(2s+1), 2r+1)."""
    unequal = 0
    for r, s in OXBURY_RANKS:
        for g in OXBURY_GENERA:
            t0 = time.monotonic()
            rep = oxbury_check(g, r, s)
            dt = time.monotonic() - t0
            primes = [len(certificate_primes(a, 2 * b + 1, magnitude_bound(g, [], a, 2 * b + 1)))
                      for a, b in ((r, s), (s, r))]
            unequal += not rep.equal
            print(f"g={g:2d} so({2*r+1}) level {2*s+1} vs so({2*s+1}) level {2*r+1}: "
                  f"{'equal' if rep.equal else 'UNEQUAL'}, {len(str(rep.lhs))} digits, "
                  f"primes {primes[0]}+{primes[1]}   [{dt:.2f} s]")
    print("reciprocity holds everywhere" if not unequal else f"{unequal} UNEQUAL")
    return 1 if unequal else 0


if __name__ == "__main__":
    cache = sys.argv[1] if len(sys.argv) > 1 else None
    bad = main(cache)
    unequal = oxbury_sweep()
    sys.exit(2 if bad else unequal)
