"""Exact fusion multiplicities for so(2r+1), with genus-g dimensions via the
factorization recursion.

Level-ell fusion (Kac-Walton) folds lam + rho + v, for every weight v of the
smaller factor, in one pass through the shifted affine Weyl group.  Only
rows over a fundamental domain of the simple current sigma are folded; the
others follow from product(sigma a, b) = sigma product(a, b).  The engines
work in doubled-int coordinates; `Weight` objects appear only where rows
leave a `FusionTable` and in its text cache.

`FusionRing` holds the genus engine, with genus-g dimensions from the
recursion N_g(vec) = sum_mu N_{g-1}(vec, mu, mu), that `FusionTable`
(Kac-Walton, optional disk cache) and `LevelOneTable` share.  Whoever builds
a table owns it, and calls `save()` to persist its rows.
"""

from __future__ import annotations

import os
from functools import lru_cache
from operator import add, sub

from .rootsys import (
    Weight,
    _dbl_rho,
    _weight_multiplicities_dbl,
    fold_shifted,
    require_rank,
    weyl_dim,
    weyl_orbit_dbl,
)
from .weights import check_weight, enumerate_level

CACHE_VERSION = 1
_MAX_AFFINE_FOLDS = 10_000


@lru_cache(maxsize=None)
def _weight_system(lam_d: tuple[int, ...]) -> tuple:
    """Full weight system of V_lambda: (vector, multiplicity) doubled pairs."""
    out = []
    for dom, m in _weight_multiplicities_dbl(lam_d).items():
        for v in weyl_orbit_dbl(dom):
            out.append((v, m))
    return tuple(out)


def _affine_fold(x: tuple[int, ...], k2: int):
    """Fold a shifted doubled vector through the level-ell affine Weyl group.

    k2 is twice (ell + h_vee).  Returns (alcove interior point, sign) or None
    on a wall.
    """
    sign = 1
    for _ in range(_MAX_AFFINE_FOLDS):
        folded = fold_shifted(x)
        if folded is None:
            return None
        x, s = folded
        sign *= s
        t = x[0] + x[1]
        if t == k2:
            return None
        if t < k2:
            return x, sign
        c = t - k2
        x = (x[0] - c, x[1] - c) + x[2:]
        sign = -sign
    raise RuntimeError("affine folding failed to terminate")


@lru_cache(maxsize=None)
def _fusion_product_dbl(lam_d, mu_d, r: int, ell: int) -> dict:
    """Level-ell fusion row of a sorted doubled pair: {doubled nu: N}.

    The simple current sigma(x) = (2 ell - x_1, x_2, ...) satisfies
    product(sigma a, b) = sigma product(a, b), so a row with a factor above
    the sigma fundamental domain (x_1 > ell) is read off the canonical row.
    Canonical rows fold lam + rho + v for every weight v of the smaller
    factor straight through the affine Weyl group.
    """
    ell2 = 2 * ell
    twists = 0
    if lam_d[0] > ell:
        lam_d = (ell2 - lam_d[0],) + lam_d[1:]
        twists += 1
    if mu_d[0] > ell:
        mu_d = (ell2 - mu_d[0],) + mu_d[1:]
        twists += 1
    if twists:
        a, b = sorted((lam_d, mu_d))
        row = _fusion_product_dbl(a, b, r, ell)
        if twists == 2:
            return row
        return {(ell2 - k[0],) + k[1:]: n for k, n in row.items()}
    rho = _dbl_rho(r)
    k2 = 2 * (ell + 2 * r - 1)
    if weyl_dim(mu_d) > weyl_dim(lam_d):
        lam_d, mu_d = mu_d, lam_d
    shift = tuple(map(add, lam_d, rho))
    acc: dict = {}  # alcove point nu + rho -> signed multiplicity
    for v, m in _weight_system(mu_d):
        folded = _affine_fold(tuple(map(add, shift, v)), k2)
        if folded is None:
            continue
        dom, sign = folded
        acc[dom] = acc.get(dom, 0) + sign * m
    out = {tuple(map(sub, k, rho)): v for k, v in acc.items() if v}
    assert all(v > 0 for v in out.values()), "Kac-Walton alternation went negative"
    return out


class FusionRing:
    """A fusion ring of so(2r+1) at level ell and its genus engine.

    Subclasses supply `weights()` and `product(lam, mu)` -> {nu: N}; the
    three-point, n-point genus-0 and genus-g dimensions are computed here
    from `product` alone, memoizing genus-g values per instance.
    """

    def __init__(self, r: int, ell: int):
        require_rank(r)
        self.rank = r
        self.level = ell
        self._memo_genus: dict = {}

    def triple(self, lam: Weight, mu: Weight, nu: Weight) -> int:
        check_weight(nu, self.rank, self.level)  # product() checks the others
        return self.product(lam, mu).get(nu, 0)

    def dim_genus0(self, lams) -> int:
        """n-point genus-0 dimension, contracting in input order (the result
        is order-independent); n < 3 is padded with the vacuum weight."""
        lams = list(lams)
        zero = Weight.zero(self.rank)
        while len(lams) < 3:
            lams.append(zero)
        # product() checks the others
        check_weight(lams[-1], self.rank, self.level)
        vec = {lams[0]: 1}
        for mid in lams[1:-1]:
            new: dict = {}
            for nu, c in vec.items():
                for tau, n in self.product(nu, mid).items():
                    new[tau] = new.get(tau, 0) + c * n
            vec = new
        return vec.get(lams[-1], 0)

    def dim_genus_g(self, g: int, lams) -> int:
        """N_g(vec) = sum over mu of N_{g-1}(vec, mu, mu); base case genus 0."""
        if g < 0:
            raise ValueError("genus must be >= 0")
        lams = tuple(sorted(lams, key=lambda w: w.coords))
        if g == 0:
            return self.dim_genus0(lams)
        key = (g, lams)
        val = self._memo_genus.get(key)
        if val is None:
            val = sum(
                self.dim_genus_g(g - 1, lams + (mu, mu)) for mu in self.weights()
            )
            self._memo_genus[key] = val
        return val


def _ignore_file(where: str, what: str, exc: Exception) -> None:
    """Warn once that a cache file is read as absent, naming where and why."""
    import logging  # only on this path: keeps it off CLI start-up

    logging.getLogger(__name__).warning("%s: %s (%s); ignoring the file", where, what, exc)


class FusionTable(FusionRing):
    """Fusion multiplicities of so(2r+1) at level ell, with optional disk cache.

    The table is filled one product row at a time; computed rows can be
    persisted as a sorted text artifact, one line per entry "lam|mu|nu|N",
    under a "B r level ell version 1" header.  Rows are keyed by the sorted
    pair of doubled coordinates; their entries are the table's own weights.
    A table with a `cache_dir` reads the cache file when built and writes it
    only when its owner calls `save()`, and then only if the table computed
    a row since, or the file was rejected.
    """

    def __init__(self, r: int, ell: int, cache_dir: str | None = None):
        super().__init__(r, ell)
        self.cache_dir = cache_dir
        # doubled coordinates -> Weight, for every weight of the table
        self._weight_of = {w.d: w for w in self.weights()}
        self._products: dict[tuple, dict] = {}
        self._unsaved = False  # rows the cache file lacks, or a rejected file
        if cache_dir:
            self._load()

    def weights(self) -> tuple[Weight, ...]:
        return enumerate_level(self.rank, self.level)

    def product(self, lam: Weight, mu: Weight) -> dict[Weight, int]:
        check_weight(lam, self.rank, self.level)
        check_weight(mu, self.rank, self.level)
        a, b = lam.d, mu.d
        key = (a, b) if a <= b else (b, a)
        row = self._products.get(key)
        if row is None:
            weight_of = self._weight_of
            raw = _fusion_product_dbl(key[0], key[1], self.rank, self.level)
            row = {weight_of[k]: n for k, n in raw.items()}
            self._products[key] = row
            self._unsaved = True
        return row

    # -- persistence ----------------------------------------------------

    @property
    def cache_path(self) -> str | None:
        """The cache file, or None for a table without a cache directory
        (`save` is then a no-op)."""
        if not self.cache_dir:
            return None
        return os.path.join(
            self.cache_dir, f"B{self.rank}_level{self.level}.fusion.txt"
        )

    def _header(self) -> str:
        return f"B {self.rank} level {self.level} version {CACHE_VERSION}"

    def _load(self) -> None:
        """Read the rows of the cache file.  A file with another header, or
        that is not UTF-8, or with any line that is not "lam|mu|nu|N" over
        weights of this table with an integer N >= 0, is ignored as a whole
        (with one warning when undecodable or for a bad line); the next
        `save` replaces it."""
        path = self.cache_path
        if path is None or not os.path.exists(path):
            return
        self._unsaved = True  # until the whole file is read
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            _ignore_file(path, "undecodable cache file", exc)
            return
        if not lines or lines[0] != self._header():
            return  # version bump or foreign file: ignore, will be rebuilt
        weight_of = self._weight_of
        parsed: dict = {}  # cache text -> doubled coords

        def parse(text):
            d = parsed.get(text)
            if d is None:
                d = Weight.parse(text).d
                if d not in weight_of:
                    raise ValueError(f"{text} is not a weight of this table")
                parsed[text] = d
            return d

        products: dict = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                a, b, c, n = line.split("|")
                a_d, b_d, nu = parse(a), parse(b), weight_of[parse(c)]
                n = int(n)
                if n < 0:
                    raise ValueError(f"negative multiplicity {n}")
            except (ValueError, ArithmeticError) as exc:
                _ignore_file(f"{path}:{lineno}", "bad cache line", exc)
                return
            key = (a_d, b_d) if a_d <= b_d else (b_d, a_d)
            row = products.setdefault(key, {})
            if n:
                row[nu] = n
        self._products = products
        self._unsaved = False

    def save(self) -> None:
        """Write every row to the cache file atomically, when the table
        holds rows the file lacks or `_load` rejected the file: a temporary
        file in the same directory replaces the old one only once fully
        written."""
        path = self.cache_path
        if path is None or not self._unsaved:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        weight_of = self._weight_of
        label = {w: str(w) for w in weight_of.values()}  # each formatted once
        lines = []
        for (a, b), row in self._products.items():
            prefix = f"{label[weight_of[a]]}|{label[weight_of[b]]}|"
            for nu, n in row.items():
                lines.append(f"{prefix}{label[nu]}|{n}")
        lines.sort()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self._header() + "\n")
                fh.write("\n".join(lines))
                if lines:
                    fh.write("\n")
            os.replace(tmp, path)
            self._unsaved = False
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


class LevelOneTable(FusionRing):
    """Closed-form level-one fusion ring of so(2d+1) on {omega_0, omega_1,
    omega_d}: omega_1 x omega_1 = omega_0, omega_1 x omega_d = omega_d,
    omega_d x omega_d = omega_0 + omega_1 (Ising-type rules)."""

    def __init__(self, d: int):
        super().__init__(d, 1)
        self._w0 = Weight.zero(d)
        self._w1 = Weight.fundamental(d, 1)
        self._wd = Weight.fundamental(d, d)
        self._own = frozenset(self.weights())

    def weights(self) -> tuple[Weight, ...]:
        return (self._w0, self._w1, self._wd)

    def product(self, lam: Weight, mu: Weight) -> dict[Weight, int]:
        # the level-one weights are exactly those of level <= 1: any other
        # weight fails check_weight, with its error
        for w in (lam, mu):
            if w not in self._own:
                check_weight(w, self.rank, 1)
        w0, w1, wd = self._w0, self._w1, self._wd
        if lam == w0:
            return {mu: 1}
        if mu == w0:
            return {lam: 1}
        if lam == w1 and mu == w1:
            return {w0: 1}
        if wd in (lam, mu) and w1 in (lam, mu):
            return {wd: 1}
        return {w0: 1, w1: 1}
