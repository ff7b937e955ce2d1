#!/usr/bin/env python3
"""Mutation audit: which one-line faults in the program the tier-1 suite
catches.

Each entry of MUTANTS names a file, a text that must occur in it exactly
once, the text that replaces it, and the fault that makes.  The script
copies the checkout into a temporary directory, applies one mutant at a time
to the copy (never to the working tree), runs tier-1 on it with -x and a
timeout, and prints killed or survived per mutant and the kill rate over the
mutants not marked equivalent.  An equivalent mutant (one that cannot change
any result) is listed with the reason and not run.

An entry that does not match exactly once stops the audit before anything
runs, so a stale entry is seen; so does a suite that fails unmutated.

Usage: python scripts/mutation_audit.py   (up to about 20 s per mutant, and
TIMEOUT_S for one that hangs: about 12 min for the 61 entries on a 2-core host)
Exit status: 0 when every mutant run was killed, 1 when one survived, 2 for
a stale entry or a failing unmutated suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
# tests/test_mutation_audit.py checks this file against the tree it sits in,
# so in a mutated copy it fails whatever the mutant is and would kill it first
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutation_audit.py"]
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*",
    ".theta-blocks-cache",
)


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    fault: str
    equivalent: str = ""  # why no result can change; such mutants are not run


MUTANTS = [
    # Weight validation on doubled ints
    Mutant("src/thetablocks/rootsys.py",
           "        if min(d) < 0:\n",
           "        if False:\n",
           "Weight accepts a negative coordinate"),
    Mutant("src/thetablocks/rootsys.py",
           "any(keys[i] < keys[i + 1] for",
           "any(keys[i] <= keys[i + 1] for",
           "Weight rejects equal neighbouring coordinates"),
    Mutant("src/thetablocks/rootsys.py",
           "keys = d if halves else cs",
           "keys = d",
           "Weight orders coordinates of denominator above 2 by floor(2c)"),
    Mutant("src/thetablocks/rootsys.py",
           "if not halves or len({x & 1 for x in d}) > 1:",
           "if not halves:",
           "Weight accepts mixed integral and half-odd coordinates"),
    Mutant("src/thetablocks/rootsys.py",
           "if not halves or len({x & 1 for x in d}) > 1:",
           "if len({x & 1 for x in d}) > 1:",
           "Weight accepts a coordinate that is not a multiple of 1/2"),
    Mutant("src/thetablocks/rootsys.py",
           "    if r < 2:\n        raise RankError(",
           "    if r < 1:\n        raise RankError(",
           "rank 1 is admitted"),
    # Weight and YoungDiagram value semantics
    Mutant("src/thetablocks/rootsys.py",
           "            return self.d < other.d\n",
           "            return self.d > other.d\n",
           "Weight.__lt__ is reversed"),
    Mutant("src/thetablocks/rootsys.py",
           'setattr_(self, "_hash", hash(d))',
           'setattr_(self, "_hash", hash(d[1:]))',
           "Weight hashes only the doubled coordinates after the first"),
    Mutant("src/thetablocks/rootsys.py",
           "            return self.d == other.d\n",
           "            return self.d[:-1] == other.d[:-1]\n",
           "Weight equality ignores the last coordinate"),
    Mutant("src/thetablocks/rootsys.py",
           "        return self.__class__, Frozen._key(self)\n",
           "        return self.__class__, Frozen._key(self)[:-1]\n",
           "copy and pickle rebuild a value without its last field"),
    Mutant("src/thetablocks/weights.py",
           "            rows = tuple(a for a in rows if a > 0)\n",
           "            pass\n",
           "YoungDiagram keeps trailing zero rows"),
    # admission of a weight to a ring
    Mutant("src/thetablocks/weights.py",
           "    if lam.level > ell:",
           "    if lam.level > ell + 1:",
           "a weight one level too high is admitted"),
    Mutant("src/thetablocks/weights.py",
           "    if lam.rank != r:",
           "    if lam.rank > r:",
           "a weight of too small a rank is admitted"),
    # Weyl-group and sigma signs
    Mutant("src/thetablocks/rootsys.py",
           "    sign = -1 if negs & 1 else 1\n",
           "    sign = 1\n",
           "fold_shifted ignores the sign of coordinate flips"),
    Mutant("src/thetablocks/fusion.py",
           "        x = (x[0] - c, x[1] - c) + x[2:]\n        sign = -sign\n",
           "        x = (x[0] - c, x[1] - c) + x[2:]\n",
           "the affine reflection does not flip the Kac-Walton sign"),
    # only rings past the dual-oracle grid (rank 2 to level 4, rank 3 to
    # level 3) reach these; the whole tables of so(5) level 7 and so(7)
    # level 5 kill them
    Mutant("src/thetablocks/fusion.py",
           "        x = (x[0] - c, x[1] - c) + x[2:]\n",
           "        x = tuple(sorted((x[0] - c, x[1] - c) + x[2:], reverse=True))\n",
           "an affinely reflected point is re-sorted without the sign of the sort"),
    Mutant("src/thetablocks/fusion.py",
           "acc[dom] = acc.get(dom, 0) + sign * m\n",
           "acc[dom] = acc.get(dom, 0) + sign * min(m, 5)\n",
           "the Kac-Walton sum caps weight multiplicities at 5"),
    Mutant("src/thetablocks/fusion.py",
           "        return {(ell2 - k[0],) + k[1:]: n for k, n in row.items()}",
           "        return row",
           "a row with one sigma-twisted factor is not twisted back"),
    Mutant("src/thetablocks/fusion.py",
           "    if lam_d[0] > ell:\n",
           "    if lam_d[0] > ell + 1:\n",
           "the sigma fundamental domain moves by one",
           "product(sigma a, b) = sigma product(a, b) holds for every row, so "
           "either domain gives the same rows"),
    # the fusion cache
    Mutant("src/thetablocks/fusion.py",
           "                if n < 0:\n",
           "                if n < -1:\n",
           "a cache line with multiplicity -1 is read"),
    Mutant("src/thetablocks/fusion.py",
           "            self._products[key] = row\n            self._unsaved = True\n",
           "            self._products[key] = row\n",
           "save() skips a table that computed new rows"),
    Mutant("src/thetablocks/fusion.py",
           "        if path is None or not self._unsaved:\n",
           "        if path is None:\n",
           "a save with no new rows rewrites the cache file"),
    Mutant("src/thetablocks/fusion.py",
           "        except UnicodeDecodeError as exc:\n"
           "            _ignore_file(path, \"undecodable cache file\", exc)\n",
           "        except UnicodeDecodeError as exc:\n"
           "            raise\n",
           "a cache file that is not UTF-8 makes the command fail"),
    Mutant("src/thetablocks/fusion.py",
           "            if w not in self._own:\n",
           "            if False:\n",
           "the level-one ring admits any weight"),
    # trig oracle: normalisation, the CRT join and its confirmation
    Mutant("src/thetablocks/verlinde.py",
           "self._c = c if raw[0] > 0 else -c",
           "self._c = c",
           "the S-matrix sign is not fixed by the vacuum row"),
    Mutant("src/thetablocks/verlinde.py",
           "    if residual > DEFAULT_TOL:\n",
           "    if residual > 1e-2:\n",
           "a trig sum 1e-4 from the joined integer confirms it"),
    Mutant("src/thetablocks/verlinde.py",
           "    if residual > DEFAULT_TOL:\n",
           "    if False:\n",
           "dim_trig never confirms its join by the trig sum"),
    Mutant("src/thetablocks/verlinde.py",
           "upper[:2 * k] + [-v for v in upper[:2 * k]]",
           "upper[:2 * k] + [v for v in upper[:2 * k]]",
           "the sine table keeps the sign of the first half wave in the second"),
    Mutant("src/thetablocks/verlinde.py",
           "int(mpmath.nint(mpmath.ldexp(",
           "int(mpmath.floor(mpmath.ldexp(",
           "the sine table rounds its entries down instead of to the nearest"),
    Mutant("src/thetablocks/verlinde.py",
           "    return n - modulus if n > modulus // 2 else n\n",
           "    return n - modulus if n > modulus else n\n",
           "the CRT join is not lifted to the signed range"),
    Mutant("src/thetablocks/verlinde.py",
           "        if a != n % p:\n"
           "            raise PrecisionError(f\"joined value",
           "        if False:\n"
           "            raise PrecisionError(f\"joined value",
           "a CRT join is not checked at the prime past the bound"),
    Mutant("src/thetablocks/verlinde.py",
           "islice(_good_primes(r, ell), len(primes), None)",
           "islice(_good_primes(r, ell), len(primes) - 1, None)",
           "a batched join is checked at its last certificate prime, not one more"),
    Mutant("src/thetablocks/verlinde.py",
           "            power = 2 - 2 * g - n\n",
           "            power = 1 - 2 * g - n\n",
           "_residue_sums raises E_0mu to 1 - 2g - n instead of 2 - 2g - n"),
    Mutant("src/thetablocks/verlinde.py",
           "            prefix = factors.get(n)\n",
           "            prefix = next(iter(factors.values()), None)\n",
           "_residue_sums caches its column factors without n in their key"),
    Mutant("src/thetablocks/verlinde.py",
           "        if (n, lams[:-1]) != head:\n            head = (n, lams[:-1])\n",
           "        if lams[:-1] != head:\n            head = lams[:-1]\n",
           "a query reuses the product of the query before when only its length differs"),
    Mutant("src/thetablocks/verlinde.py",
           "bound = max([magnitude_bound(g, lams, r, ell) for lams in queries], default=0)",
           "bound = magnitude_bound(g, queries[0], r, ell)",
           "_admitted takes the bound of its first query, not the largest"),
    Mutant("src/thetablocks/verlinde.py",
           "_dim_square_sum(r, ell) ** (g - 1)",
           "_dim_square_sum(r, ell) ** (g - 2)",
           "magnitude_bound raises sum_mu dim V_mu^2 to g - 2 instead of g - 1"),
    Mutant("src/thetablocks/verlinde.py",
           "MAX_SKIPPED_PRIMES = 64\n",
           "MAX_SKIPPED_PRIMES = 0\n",
           "the prime search gives up at the first prime it skips"),
    # the Verlinde certificate of a whole fusion ring
    Mutant("src/thetablocks/verlinde.py",
           "    for i, j in itertools.combinations_with_replacement(range(len(ws)), 2):\n",
           "    for i, j in itertools.combinations(range(len(ws)), 2):\n",
           "table_mismatches skips the diagonal rows lam x lam"),
    Mutant("src/thetablocks/verlinde.py",
           "n, want = row.get(nu, 0), verlinde[tuple(sorted((i, j, k)))]",
           "want = verlinde[tuple(sorted((i, j, k)))]; n = row.get(nu, want)",
           "table_mismatches passes an entry missing from its row"),
    Mutant("src/thetablocks/verlinde.py",
           "if w.is_so}",
           "}",
           "n0_oxbury sums every column, not only the SO-weights"),
    Mutant("src/thetablocks/verlinde.py",
           "    return max(MIN_PREC, bound.bit_length() + GUARD_BITS)\n",
           "    return MIN_PREC\n",
           "the working precision ignores the magnitude bound"),
    Mutant("src/thetablocks/verlinde.py",
           "    if abs(n) > bound:\n        raise PrecisionError(f\"joined value",
           "    if abs(n) > 2 * bound:\n        raise PrecisionError(f\"joined value",
           "a CRT join above the magnitude bound is returned"),
    # the one elimination of the S and residue rows
    Mutant("src/thetablocks/verlinde.py",
           "m[k], m[i], sign = m[i], m[k], -sign",
           "m[k], m[i], sign = m[i], m[k], sign",
           "a row swap in _det does not flip the sign"),
    Mutant("src/thetablocks/verlinde.py",
           "        prev = top[k]\n",
           "",
           "_det never updates the Bareiss divisor"),
    Mutant("src/thetablocks/verlinde.py",
           "        for i in range(k, n):\n            if m[i][k]:",
           "        for i in range(k + 1, n):\n            if m[i][k]:",
           "_det searches for a pivot from the row below the diagonal"),
    # branching
    Mutant("src/thetablocks/branching.py",
           "        return self.lam, self.mu, self.Lambda, self.exponent\n",
           "        return self.lam, self.mu, self.Lambda, self.exponent, self.rule\n",
           "BranchTriple equality and hashing read the rule too"),
    Mutant("src/thetablocks/branching.py",
           "    return 2 * r * s + r + s, 2 * s + 1, 2 * r + 1\n",
           "    return 2 * r * s + r + s, 2 * r + 1, 2 * s + 1\n",
           "embedding gives so(2r+1) the level 2r+1 and so(2s+1) the level 2s+1"),
    Mutant("src/thetablocks/branching.py",
           "    if num < 0 or num % den:\n",
           "    if num % den:\n",
           "a negative sewing exponent is accepted"),
    Mutant("src/thetablocks/branching.py",
           'yield bullet(_sigma(lam, ell_l), mu, f"(sigma(Y), Y^T) with Y={y}")',
           'yield bullet(lam, _sigma(mu, ell_r), f"(sigma(Y), Y^T) with Y={y}")',
           "the sigma-twist of a (sigma(Y), Y^T) bullet lands on the wrong side"),
    Mutant("src/thetablocks/branching.py",
           "        rules.setdefault((lam, mu), rule)\n",
           "        rules[(lam, mu)] = rule\n",
           "the rule table keeps the last matching bullet, not the first"),
    Mutant("src/thetablocks/branching.py",
           "        return lam, mu, _sewing(lam, mu, Lambda, ell_l, ell_r, big), rule\n",
           "        try:\n"
           "            return lam, mu, _sewing(lam, mu, Lambda, ell_l, ell_r, big), rule\n"
           "        except BranchingError:\n"
           "            return lam, mu, 0, rule\n",
           "a bullet whose exponent fails the check is listed anyway"),
    # exit codes
    Mutant("src/thetablocks/cli.py",
           '        print(f"engine disagreement: {exc}", file=sys.stderr)\n'
           "        return EXIT_DISAGREE\n",
           '        print(f"engine disagreement: {exc}", file=sys.stderr)\n'
           "        return EXIT_PARSE\n",
           "an engine disagreement exits 1 instead of 2"),
    Mutant("src/thetablocks/cli.py",
           "        return EXIT_UNREDUCIBLE\n",
           "        return EXIT_PARSE\n",
           "an unreducible Clifford evaluation exits 1 instead of 3"),
    # the heap frozen at exit
    Mutant("src/thetablocks/cli.py",
           "    atexit.register(gc.freeze)\n",
           "",
           "a CLI process leaves its heap to the final collections"),
    Mutant("src/thetablocks/cli.py",
           "    atexit.register(gc.freeze)\n",
           "    gc.freeze()\n",
           "main freezes its in-process caller's heap at once"),
    # Fock sign conventions
    Mutant("src/thetablocks/fock/states.py",
           "    return image, (-1 if i & 1 else 1)\n",
           "    return image, 1\n",
           "a Clifford generator ignores its reordering sign"),
    Mutant("src/thetablocks/fock/states.py",
           "(_NEG_INV_SQRT2 if len(w) & 1 else INV_SQRT2)",
           "INV_SQRT2",
           "the Ramond zero mode ignores the degree sign"),
    Mutant("src/thetablocks/fock/operators.py",
           "                _add_product(out, y, x, state, -half)\n",
           "                _add_product(out, y, x, state, half)\n",
           "the zero-mode bilinear is symmetrised instead of antisymmetrised"),
    # Fock value classes
    Mutant("src/thetablocks/fock/operators.py",
           "                value = apply_bilinear(self.ops[0], self.tail().value())\n",
           "                value = self.tail().value()\n",
           "SlotExpression.value() drops its outermost operator"),
    Mutant("src/thetablocks/fock/states.py",
           "            return (self.wedge == other.wedge and self.sector == other.sector\n"
           "                    and self.dual == other.dual)\n",
           "            return self.wedge == other.wedge and self.sector == other.sector\n",
           "FockState equality ignores the realization (dual)"),
]


def stale_entries() -> list[str]:
    """The entries whose old text does not occur exactly once."""
    out = []
    for m in MUTANTS:
        n = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if n != 1:
            out.append(f"{m.path}: {m.fault}: old text found {n} times")
    return out


def run_tier1(tree: Path) -> tuple[bool, float, str]:
    """(passed, seconds, how it ended) for tier-1 run on `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - t0, f"timeout after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, time.monotonic() - t0, lines[-1] if lines else ""


def main() -> int:
    stale = stale_entries()
    if stale:
        print("stale mutant entries:\n  " + "\n  ".join(stale))
        return 2
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        passed, secs, how = run_tier1(tree)
        if not passed:
            print(f"the unmutated suite fails ({how}); no audit")
            return 2
        print(f"unmutated: passed in {secs:.1f} s")
        killed = survived = 0
        for m in MUTANTS:
            if m.equivalent:
                print(f"EQUIVALENT  {m.path}: {m.fault} ({m.equivalent})")
                continue
            target = tree / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, secs, how = run_tier1(tree)
            finally:
                target.write_text(original, encoding="utf-8")
            if passed:
                survived += 1
            else:
                killed += 1
            verdict = "SURVIVED" if passed else "killed  "
            print(f"{verdict}    {m.path}: {m.fault} [{secs:.1f} s: {how}]", flush=True)
    total = killed + survived
    print(f"kill rate: {killed}/{total} = {killed / total:.0%} "
          f"({sum(1 for m in MUTANTS if m.equivalent)} equivalent not run)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
