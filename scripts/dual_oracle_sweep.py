#!/usr/bin/env python3
"""Compare the exact Kac-Walton fusion engine against the trigonometric
S-matrix oracle on every weight triple of the stated (rank, level) grid.

Usage: python scripts/dual_oracle_sweep.py [cache_dir]
"""

import itertools
import sys
import time

from thetablocks.fusion import FusionTable
from thetablocks.verlinde import dim_trig

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


def main(cache_dir: str | None) -> int:
    bad = 0
    for r, ell in GRID:
        t0 = time.monotonic()
        table = FusionTable(r, ell, cache_dir=cache_dir)
        ws = table.weights()
        mismatches = []
        for a, b, c in itertools.product(ws, repeat=3):
            exact = table.triple(a, b, c)
            trig = dim_trig(0, [a, b, c], r, ell)
            if exact != trig:
                mismatches.append((a, b, c, exact, trig))
        table.save()  # a no-op without a cache directory
        bad += len(mismatches)
        print(
            f"so({2*r+1}) level {ell}: {len(ws)**3} triples, "
            f"{len(mismatches)} mismatches   [{time.monotonic()-t0:.1f} s]"
        )
        for m in mismatches[:5]:
            print("   ", m)
    print("engines agree everywhere" if not bad else f"{bad} MISMATCHES")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
