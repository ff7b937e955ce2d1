#!/usr/bin/env python3
"""Compare the exact Kac-Walton fusion engine against the trigonometric
S-matrix oracle on every weight triple of the stated (rank, level) grid, then
check the certified Oxbury-Wilson reciprocity
N_g^0(so(2r+1), 2s+1) = N_g^0(so(2s+1), 2r+1) on the stated (r, s, genus)
grid, printing the time and the number of residue primes of each case.  The
pairs have r < s: with r = s both sides are the same call, and (s, r)
repeats (r, s) with its sides swapped.  Last, every entry of every
FusionTable.product row of so(7) level 7 and so(9) level 5 is checked
against the Verlinde formula over F_p (`verlinde_dims` at genus 0): every
weight of so(2r+1) is self-dual, so N_{lam mu}^nu is the triple dimension.

Usage: python scripts/dual_oracle_sweep.py [cache_dir]
Exit status: 2 when a whole table disagrees with the Verlinde formula (engine
disagreement), else 1 when a triple or a reciprocity check fails, else 0.
"""

import itertools
import sys
import time

from thetablocks.fusion import FusionTable
from thetablocks.verlinde import (
    certificate_primes, dim_trig, magnitude_bound, oxbury_check, verlinde_dims,
)

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
# (r, s) pairs, r < s, and genera of the reciprocity sweep; the trig sums
# alone once returned wrong integers on such a grid from g = 14 on
OXBURY_RANKS = [(2, 3), (2, 4), (3, 4), (2, 5)]
OXBURY_GENERA = range(1, 17)
# the rings whose whole fusion tables are checked entry by entry
TABLE_RINGS = [(3, 7), (4, 5)]


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


def table_mismatches(r: int, ell: int, cache_dir: str | None = None) -> list:
    """(lam, mu, nu, Kac-Walton, Verlinde) for each entry N_{lam mu}^nu of
    the FusionTable.product rows of so(2r+1) at level ell, one row per
    unordered pair, that differs from verlinde_dims(0, [lam, mu, nu]).  The
    Verlinde sum is symmetric in its weights, so the unordered triples are
    joined, in one batch."""
    table = FusionTable(r, ell, cache_dir=cache_dir)
    ws = table.weights()
    triples = list(itertools.combinations_with_replacement(range(len(ws)), 3))
    verlinde = dict(zip(triples, verlinde_dims(0, [[ws[i] for i in t] for t in triples], r, ell)))
    out = []
    for i, j in itertools.combinations_with_replacement(range(len(ws)), 2):
        row = table.product(ws[i], ws[j])
        for k, c in enumerate(ws):
            kw, n = row.get(c, 0), verlinde[tuple(sorted((i, j, k)))]
            if kw != n:
                out.append((ws[i], ws[j], c, kw, n))
    table.save()  # a no-op without a cache directory
    return out


def table_sweep(cache_dir: str | None) -> int:
    """Whole TABLE_RINGS tables against the Verlinde formula over F_p."""
    bad = 0
    for r, ell in TABLE_RINGS:
        t0 = time.monotonic()
        mismatches = table_mismatches(r, ell, cache_dir)
        bad += len(mismatches)
        print(f"so({2*r+1}) level {ell} whole table: {len(mismatches)} mismatches"
              f"   [{time.monotonic()-t0:.1f} s]")
        for m in mismatches[:5]:
            print("   ", m)
    print("whole tables agree" if not bad else f"{bad} TABLE MISMATCHES")
    return bad


if __name__ == "__main__":
    cache = sys.argv[1] if len(sys.argv) > 1 else None
    status = main(cache) | oxbury_sweep()
    sys.exit(2 if table_sweep(cache) else status)
