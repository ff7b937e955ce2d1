"""Trigonometric Verlinde oracle for so(2r+1) at level ell: every integer it
returns is joined by CRT from its exact residues modulo primes, and the
high-precision sum of S-matrix rows only confirms it.

Over F_p, p = 1 (mod 4k) with k = ell + 2r - 1, and with X = 2(lam+rho),
Y = 2(mu+rho) as doubled ints, the signed-permutation sum of the S-matrix
becomes E_{lam,mu} = det[z^m - z^-m], m_ij = X_i Y_j mod 4k, for a primitive
4k-th root of unity z, and the Verlinde number is

    N = (sum_mu E_{0mu}^2)^(g-1) * sum_mu E_{0mu}^(2-2g-n) prod_i E_{lam_i mu},

the normalization and its sign entering only squared.  This is an identity
in Z[zeta_4k, 1/2] (Kac-Peterson, Adv. Math. 53, 1984; Coste-Gannon, Phys.
Lett. B 323, 1994), so it holds under every ring map to F_p.  The residues
modulo primes whose product exceeds twice an integer bound on |N| fix N;
`_residue_sums` is the one place the formula is written, for a batch of
queries at once: for `verlinde_dims` and `dim_trig` over every column and for
the Oxbury-Wilson sums of `n0_oxbury` over the SO-weights.  `_admitted` is
the one admission of `verlinde_dims` and `dim_trig`: rank, genus, weights and
the magnitude bound.  `verlinde_dims` joins many values under one bound and
`n0_oxbury` one; neither evaluates a sine.

`dim_trig` then confirms its join by the same sum over the reals.  There E is
(2i)^r times the sine determinant, so

    S_{lam,mu} = c * det[ sin(2 pi m_ij / 4k) ],

and every entry reads its r^2 sines from one table of 4k values.  The sines
are mpmath's, rounded to fixed-point ints, the determinant (of sines here,
of residues above) is found exactly by fraction-free elimination, so a
vanishing S_{lam,mu} is just a zero, and c = +-1/|row 0| is fixed by the
vacuum row.  A row is built when a sum first asks for it.  The working
precision, in bits, is chosen here and nowhere else: the bit length of the
integer bound plus GUARD_BITS, and no less than MIN_PREC.  A sum farther
than DEFAULT_TOL from the joined integer raises PrecisionError.  mpmath is
imported only on this float path: in the sine table, the S-matrix rows and
the sum of `dim_trig`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import prod
from operator import mul

from .rootsys import Weight, _dbl_rho, require_rank, weyl_dim
from .weights import check_weight, enumerate_level, sigma

DEFAULT_TOL = 1e-6
# The least working precision in bits, mpmath's at 50 digits.  Every query
# whose bound has at most MIN_PREC - GUARD_BITS bits works at it, so one
# S-matrix (and one sine table) per ring serves every small query.
MIN_PREC = 169
GUARD_BITS = 56  # working bits beyond those of the magnitude bound
SINE_GUARD_BITS = 64  # fixed-point bits of the sine table beyond the working ones
PRIME_TOP = 2 ** 61  # the residue primes are the largest ones below this
# Residue norms and vacuum entries are images of nonzero algebraic integers,
# so they vanish modulo finitely many primes only: a longer run of such primes
# than this means the residues are wrong, and raises PrecisionError.
MAX_SKIPPED_PRIMES = 64
# Miller-Rabin with these bases is deterministic below 3.3e24
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PrecisionError(ArithmeticError):
    """An integer joined from its residues lies beyond its bound or disagrees
    with one more residue, or the trig sum lies beyond tolerance from it."""


# -- rows of determinants read from one table of 4k values --------------------

@lru_cache(maxsize=64)
def _sine_table(q: int, bits: int) -> tuple:
    """round(2^bits sin(2 pi m / q)) for 0 <= m < q, q = 4k: the quarter wave
    0 <= m <= k by mpmath's sinpi, SINE_GUARD_BITS beyond bits, the other
    quadrants by symmetry."""
    import mpmath

    k = q // 4
    with mpmath.workprec(bits + SINE_GUARD_BITS):
        quarter = [int(mpmath.nint(mpmath.ldexp(mpmath.sinpi(mpmath.mpf(m) / (2 * k)), bits)))
                   for m in range(k + 1)]
    # sin(pi - x) = sin x, sin(pi + x) = -sin x
    upper = quarter + quarter[-2::-1]
    return tuple(upper[:2 * k] + [-v for v in upper[:2 * k]])


def _det(a):
    """det a by fraction-free (Bareiss) elimination, exact on ints: a zero
    pivot swaps in a lower row, and a column of zeros gives 0."""
    m = [list(row) for row in a]
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        for i in range(k, n):
            if m[i][k]:
                break
        else:
            return 0
        if i != k:
            m[k], m[i], sign = m[i], m[k], -sign
        top = m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev = top[k]
    return sign * prev


class _Dets:
    """det[t[X_i Y_j mod 4k]] over the level-ell weights of so(2r+1), for one
    table t of 4k values; `row(w)` builds the row of w once and keeps it."""

    def __init__(self, r: int, ell: int, table):
        self.weights = enumerate_level(r, ell)
        rho = _dbl_rho(r)
        self._shifted = {w: tuple(c + p for c, p in zip(w.d, rho))
                         for w in self.weights}
        self._table = table
        self._rows = {}

    def _raw_row(self, w: Weight) -> list:
        t, q = self._table, len(self._table)
        # every coordinate of Y = 2(mu+rho) lies below 4k
        lines = [[t[a * b % q] for b in range(q)] for a in self._shifted[w]]
        return [_det([[line[b] for b in y] for line in lines])
                for y in self._shifted.values()]

    def row(self, w: Weight) -> tuple:
        row = self._rows.get(w)
        if row is None:
            row = self._rows[w] = self._finished(self._raw_row(w))
        return row


class SMatrix(_Dets):
    """The S-matrix of so(2r+1) at level ell and prec bits, a row at a time:
    c * det[sin(2 pi m_ij / 4k)] with c = +-1/|row 0| from the vacuum row.
    The sines are held as ints scaled by 2^B, B being the working precision
    in bits plus SINE_GUARD_BITS, so the determinants are exact ints and the
    scale drops out of c."""

    def __init__(self, r: int, ell: int, prec: int):
        import mpmath

        self.rank, self.level, self.prec = r, ell, prec
        q = 4 * (ell + 2 * r - 1)
        super().__init__(r, ell, _sine_table(q, prec + SINE_GUARD_BITS))
        vacuum = self.weights[0]
        raw = self._raw_row(vacuum)
        with mpmath.workprec(prec):
            c = 1 / mpmath.sqrt(sum(v * v for v in raw))
            self._c = c if raw[0] > 0 else -c
        self._rows[vacuum] = self._finished(raw)

    def _finished(self, dets: list) -> tuple:
        import mpmath

        with mpmath.workprec(self.prec):
            return tuple(self._c * v for v in dets)


@lru_cache(maxsize=None)
def s_matrix(r: int, ell: int, prec: int) -> SMatrix:
    require_rank(r)
    return SMatrix(r, ell, prec)


# -- exact residues modulo primes p = 1 (mod 4k) ------------------------------

def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact below 3.3e24)."""
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(q: int, top: int) -> int:
    """The largest prime p < top with p = 1 (mod q)."""
    p = (top - 2) // q * q + 1
    while not _is_prime(p):
        p -= q
    return p


def _root_of_unity(q: int, p: int) -> int:
    """A primitive q-th root of unity mod the prime p = 1 (mod q)."""
    factors = {f for f in range(2, q + 1) if q % f == 0 and _is_prime(f)}
    for a in itertools.count(2):
        z = pow(a, (p - 1) // q, p)
        if all(pow(z, q // f, p) != 1 for f in factors):
            return z


class _Residues(_Dets):
    """E_{lam,mu} = det[z^m - z^-m] mod p, a row at a time, and
    sum_mu E_{0mu}^2 mod p."""

    def __init__(self, r: int, ell: int, p: int):
        self.p = p
        q = 4 * (ell + 2 * r - 1)
        z = _root_of_unity(q, p)
        powers = [pow(z, m, p) for m in range(q)]
        super().__init__(r, ell, [powers[m] - powers[-m % q] for m in range(q)])
        self.vacuum = self.row(self.weights[0])
        self.norm = sum(e * e for e in self.vacuum) % p

    def _finished(self, dets: list) -> tuple:
        return tuple(v % self.p for v in dets)


@lru_cache(maxsize=None)
def _residues(r: int, ell: int, p: int) -> _Residues:
    return _Residues(r, ell, p)


def _good_primes(r: int, ell: int):
    """The primes p = 1 (mod 4k) below PRIME_TOP, largest first, skipping a
    prime where sum_mu E_{0mu}^2 or some E_{0mu} vanishes; more than
    MAX_SKIPPED_PRIMES skipped in a row raise PrecisionError."""
    q = 4 * (ell + 2 * r - 1)
    p = PRIME_TOP
    skipped = 0
    while True:
        p = _prime_below(q, p)
        res = _residues(r, ell, p)
        if res.norm and all(res.vacuum):
            skipped = 0
            yield p
        else:
            skipped += 1
            if skipped > MAX_SKIPPED_PRIMES:
                raise PrecisionError(
                    f"the residues of so({2 * r + 1}) at level {ell} vanish modulo "
                    f"{skipped} primes in a row, down to {p}")


def certificate_primes(r: int, ell: int, bound: int) -> list[int]:
    """The first of `_good_primes` that certify an integer of absolute value
    at most bound: their product exceeds 2 * bound."""
    good = _good_primes(r, ell)
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        p = next(good)
        primes.append(p)
        modulus *= p
    return primes


def _residue_sums(res: _Residues, p: int, g: int, queries, columns) -> list:
    """For each list lams of n weights in queries, (sum_mu E_{0mu}^2)^(g-1)
    * sum over the columns mu of E_{0mu}^(2-2g-n) prod_i E_{lam_i mu}, mod p:
    the Verlinde numbers at genus g, summed over the given columns only (a
    range or a set of indices).  The column factors E_{0mu}^(2-2g-n), 0 off
    the columns, are computed once per n, not once per query, and a query
    whose n and weights but the last match the query before it reuses their
    product."""
    norm = pow(res.norm, g - 1, p)
    factors, out = {}, []
    head = prefix = None
    for lams in queries:
        n = len(lams)
        if (n, lams[:-1]) != head:
            head = (n, lams[:-1])
            prefix = factors.get(n)
            if prefix is None:
                power = 2 - 2 * g - n
                prefix = factors[n] = [pow(e, power, p) if j in columns else 0
                                       for j, e in enumerate(res.vacuum)]
            for w in lams[:-1]:
                prefix = list(map(mul, prefix, res.row(w)))
        terms = map(mul, prefix, res.row(lams[-1])) if lams else prefix
        out.append(norm * sum(terms) % p)
    return out


def _signed_crt(residues, primes) -> int:
    """The integer n with -M/2 < n <= M/2, M the product of the primes, that
    is congruent to each residue modulo its prime (Garner's join)."""
    n, modulus = 0, 1
    for a, p in zip(residues, primes):
        n += modulus * ((a - n) * pow(modulus, -1, p) % p)
        modulus *= p
    return n - modulus if n > modulus // 2 else n


def _join(primes, bound: int, r: int, ell: int, g: int, queries, columns) -> list:
    """The integers of absolute value at most bound that equal the
    `_residue_sums` of the queries modulo each of the primes, each joined by
    CRT.  The primes' product must exceed 2 * bound; a join beyond the bound
    raises PrecisionError."""
    per_prime = [_residue_sums(_residues(r, ell, p), p, g, queries, columns)
                 for p in primes]
    values = [_signed_crt(column, primes) for column in zip(*per_prime)]
    n = max(values, key=abs, default=0)
    if abs(n) > bound:
        raise PrecisionError(f"joined value {n} exceeds the bound {bound}")
    return values


def _joined(bound: int, r: int, ell: int, g: int, queries, columns) -> list:
    """`_join` over the certificate primes of the bound, checked against the
    residue sums at the next good prime too, else PrecisionError: a bound
    too small to fix an integer is refused, not wrapped."""
    primes = certificate_primes(r, ell, bound)
    values = _join(primes, bound, r, ell, g, queries, columns)
    p = next(itertools.islice(_good_primes(r, ell), len(primes), None))
    for n, a in zip(values, _residue_sums(_residues(r, ell, p), p, g, queries, columns)):
        if a != n % p:
            raise PrecisionError(f"joined value {n} disagrees with its exact "
                                 f"residue modulo the prime {p} past the bound")
    return values


# -- precision from an integer magnitude bound --------------------------------

@lru_cache(maxsize=None)
def _dim_square_sum(r: int, ell: int) -> int:
    return sum(weyl_dim(w.d) ** 2 for w in enumerate_level(r, ell))


def magnitude_bound(g: int, lams, r: int, ell: int) -> int:
    """An integer bound on |N_g(lams)|, and on the sum of the absolute values
    of its Verlinde terms: prod_i dim V_lam_i at g = 0, and
    |P| * (sum_mu dim V_mu^2)^(g-1) * prod_i dim V_lam_i for g >= 1, since
    qdim <= dim, S_{0mu} >= S_00 and |S_{lam,mu} / S_{0mu}| <= qdim_lam."""
    out = prod(weyl_dim(w.d) for w in lams)
    if g >= 1:
        out *= len(enumerate_level(r, ell)) * _dim_square_sum(r, ell) ** (g - 1)
    return out


def _working_prec(bound: int) -> int:
    """The working precision in bits: every bit of the bound and GUARD_BITS
    more, and no less than MIN_PREC."""
    return max(MIN_PREC, bound.bit_length() + GUARD_BITS)


def _admitted(g: int, queries, r: int, ell: int) -> tuple:
    """(bound, columns) for Verlinde numbers of so(2r+1) at level ell and
    genus g: the rank and g >= 0 checked, each weight of the queries admitted
    once, the largest magnitude bound of the queries, and every column."""
    require_rank(r)
    if g < 0:
        raise ValueError("genus must be >= 0")
    for w in dict.fromkeys(itertools.chain.from_iterable(queries)):
        check_weight(w, r, ell)
    bound = max([magnitude_bound(g, lams, r, ell) for lams in queries], default=0)
    return bound, range(len(enumerate_level(r, ell)))


def dim_trig(g: int, lams, r: int, ell: int) -> int:
    """Verlinde dimension sum(mu) S_{0mu}^{2-2g-n} prod_i S_{lam_i,mu}, joined
    by `_join` from its exact residues modulo primes, then confirmed by the
    sum of S rows at the working precision of its magnitude bound: a float
    sum farther than DEFAULT_TOL from the join raises PrecisionError."""
    import mpmath

    lams = list(lams)
    bound, columns = _admitted(g, [lams], r, ell)
    primes = certificate_primes(r, ell, bound)
    [n] = _join(primes, bound, r, ell, g, [lams], columns)
    sm = s_matrix(r, ell, _working_prec(bound))
    vacuum = sm.row(sm.weights[0])
    rows = [sm.row(w) for w in lams]
    power = 2 - 2 * g - len(lams)
    with mpmath.workprec(sm.prec):
        total = mpmath.fsum(
            (vacuum[j] ** power) * mpmath.fprod(row[j] for row in rows)
            for j in columns
        )
        residual = abs(total - n)
    if residual > DEFAULT_TOL:
        raise PrecisionError(f"trig sum {mpmath.nstr(total, 15)} lies "
                             f"{float(residual):.8g} from the joined value {n}, "
                             f"beyond the tolerance {DEFAULT_TOL}")
    return n


def n0_oxbury(g: int, r: int, ell: int) -> int:
    """The Oxbury-Wilson sum

    N_g^0 = (4 k^r)^(g-1) * sum over SO-weights mu of
            prod over positive roots (2 sin(pi (mu+rho, alpha) / k))^(2-2g)

    with k = ell + 2r - 1, which equals sum over SO-weights mu of
    S_{0mu}^(2-2g).  No sum of sines is evaluated: the integer is joined by
    `_joined` from its exact residues
    (sum_mu E_{0mu}^2)^(g-1) * sum over SO-weights mu of E_{0mu}^(2-2g)
    modulo the primes of its magnitude bound.
    """
    require_rank(r)
    if g < 1:
        raise ValueError("n0_oxbury needs g >= 1")

    so = {j for j, w in enumerate(enumerate_level(r, ell)) if w.is_so}
    [n] = _joined(magnitude_bound(g, [], r, ell), r, ell, g, [[]], so)
    return n


def verlinde_dims(g: int, queries, r: int, ell: int) -> list[int]:
    """[dim V_g(lams) for lams in queries], queries a list of weight
    sequences, for so(2r+1) at level ell: each weight admitted once, all
    joined by `_joined` under the largest magnitude bound of the queries.  No
    sine is evaluated."""
    bound, columns = _admitted(g, queries, r, ell)
    return _joined(bound, r, ell, g, queries, columns)


def twisted_total(g: int, r: int, ell: int) -> int:
    """dim V_{omega_0} + dim V_{ell*omega_1} at genus g (one marked point
    carries ell*omega_1); equals 2 * n0_oxbury by the character-sign collapse."""
    top = sigma(Weight.zero(r), ell)  # ell * omega_1
    return sum(verlinde_dims(g, [[], [top]], r, ell))


OxburyReport = namedtuple("OxburyReport", "g r s lhs rhs equal")


def oxbury_check(g: int, r: int, s: int) -> OxburyReport:
    """Check N_g^0(so(2r+1), 2s+1) = N_g^0(so(2s+1), 2r+1), both sides
    evaluated independently."""
    require_rank(r)
    require_rank(s, "s")  # s is the rank of the right side
    lhs = n0_oxbury(g, r, 2 * s + 1)
    rhs = n0_oxbury(g, s, 2 * r + 1)
    return OxburyReport(g, r, s, lhs, rhs, lhs == rhs)

