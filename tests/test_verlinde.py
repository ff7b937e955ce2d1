import copy
import functools
import itertools
import time
from fractions import Fraction
from math import prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetablocks import goldens, verlinde
from thetablocks.branching import RANKLEVEL_EXAMPLES, EmbeddingParams, lambda_weight
from thetablocks.common import theta_counts
from thetablocks.fusion import FusionTable, LevelOneTable
from thetablocks.rootsys import Weight
from thetablocks.verlinde import (
    GUARD_BITS,
    MIN_PREC,
    PrecisionError,
    SMatrix,
    _joined,
    _prime_below,
    _signed_crt,
    _sine_table,
    _working_prec,
    certificate_primes,
    dim_trig,
    magnitude_bound,
    n0_oxbury,
    oxbury_check,
    s_matrix,
    twisted_total,
    verlinde_dims,
)
from thetablocks.weights import enumerate_level, sigma

import reference
from reference import golden_rows, script, want


# the grid the trig S-matrix must keep symmetric and unitary to 1e-40 at
# MIN_PREC, 50 digits (the worst deviation reads 1.6e-50)
S_GRID = [(2, ell) for ell in range(1, 6)] + [(3, ell) for ell in range(1, 4)]


# the rings whose sampled rows must be symmetric and orthonormal to 1e-40
SAMPLED_GRID = [(r, ell) for r in (2, 3, 4) for ell in range(1, 12)]


def _rows(sm):
    return [sm.row(w) for w in sm.weights]


def _sampled_weights(sm):
    """The vacuum, sigma(vacuum), the first spin weight and the last weight."""
    ws = sm.weights
    first_spin = next(w for w in ws if not w.is_so)
    return list(dict.fromkeys([ws[0], sigma(ws[0], sm.level), first_spin, ws[-1]]))


class TestSineTable:
    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_entries_are_rounded_sines(self, bits):
        for k in range(1, 26):
            q = 4 * k
            table = _sine_table(q, bits)
            assert len(table) == q
            assert all(abs(a - b) <= 1 for a, b in zip(table, reference.sine_table(q, bits)))
            # and correctly rounded: within half a unit of 2^bits sin(2 pi m / q)
            with mpmath.workprec(bits + 128):
                for m, a in enumerate(table):
                    exact = mpmath.ldexp(mpmath.sinpi(mpmath.mpf(2 * m) / q), bits)
                    assert abs(a - exact) < 0.5 + 2 ** -32, (q, m)

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_the_symmetric_quadrants_equal_the_direct_sines(self, bits):
        # the reference takes every entry from sinpi, not only the quarter wave
        for k in range(1, 26):
            assert list(_sine_table(4 * k, bits)) == reference.sine_table(4 * k, bits), k


class TestWorkingPrecision:
    def test_the_floor_is_mpmaths_precision_at_50_digits(self):
        assert MIN_PREC == mpmath.libmp.dps_to_prec(50)
        with mpmath.workprec(MIN_PREC):
            assert mpmath.mp.dps == 50

    def test_the_floor_holds_up_to_113_bits(self):
        for bits in range(114):
            assert _working_prec((1 << bits) - 1) == MIN_PREC, bits

    def test_above_the_floor_it_is_the_bit_length_plus_the_guard(self):
        assert GUARD_BITS == 56
        for bits in (114, 115, 271, 367, 1000):
            assert _working_prec(1 << (bits - 1)) == bits + 56
            assert _working_prec((1 << bits) - 1) == bits + 56

    def test_a_bound_past_the_str_digit_limit(self):
        # 6021 digits: past Python's default 4300-digit int-to-str limit
        bound = 1 << 20000
        assert _working_prec(bound) == 20001 + GUARD_BITS


class TestSMatrix:
    @pytest.mark.parametrize("r,ell", S_GRID)
    def test_symmetric_unitary_positive(self, r, ell):
        sm = s_matrix(r, ell, MIN_PREC)
        assert sm.prec == MIN_PREC
        n = len(sm.weights)
        rows = _rows(sm)
        with mpmath.workprec(sm.prec):
            tol = mpmath.mpf(10) ** (-mpmath.mp.dps + 10)
            for i in range(n):
                assert rows[0][i] > 0
                for j in range(n):
                    assert abs(rows[i][j] - rows[j][i]) < tol
                    dot = mpmath.fsum(rows[i][k] * rows[j][k] for k in range(n))
                    assert abs(dot - (1 if i == j else 0)) < tol

    @pytest.mark.parametrize("r,ell", SAMPLED_GRID)
    def test_sampled_rows(self, r, ell):
        sm = s_matrix(r, ell, MIN_PREC)
        index = {w: j for j, w in enumerate(sm.weights)}
        picked = _sampled_weights(sm)
        with mpmath.workprec(sm.prec):
            tol = mpmath.mpf(10) ** -40
            assert all(v > 0 for v in sm.row(sm.weights[0]))
            for a in picked:
                for b in picked:
                    assert abs(sm.row(a)[index[b]] - sm.row(b)[index[a]]) < tol
                    dot = mpmath.fsum(x * y for x, y in zip(sm.row(a), sm.row(b)))
                    assert abs(dot - (1 if a == b else 0)) < tol
                # the simple current: S_{sigma lam, mu} = eps(mu) S_{lam, mu},
                # eps = +1 on SO weights and -1 on spin weights
                twisted = sm.row(sigma(a, ell))
                for mu, x, y in zip(sm.weights, sm.row(a), twisted):
                    assert abs(y - (x if mu.is_so else -x)) < tol

    def test_s_squared_is_identity(self):
        # charge conjugation is trivial for B_r, so S^2 = 1 within tolerance
        sm = s_matrix(2, 3, MIN_PREC)
        n = len(sm.weights)
        rows = _rows(sm)
        with mpmath.workprec(sm.prec):
            tol = mpmath.mpf(10) ** (-mpmath.mp.dps + 10)
            for i in range(n):
                for j in range(n):
                    dot = mpmath.fsum(rows[i][k] * rows[k][j] for k in range(n))
                    assert abs(dot - (1 if i == j else 0)) < tol

    def test_rows_are_built_on_demand(self):
        sm = SMatrix(3, 9, MIN_PREC)
        assert list(sm._rows) == [sm.weights[0]]
        w = sm.weights[7]
        assert sm.row(w) is sm.row(w)
        assert list(sm._rows) == [sm.weights[0], w]

    def test_so7_level9_rows_are_unitary(self):
        # mpmath.det crashed on this ring: rows 1, 17, 64 and 124 hold
        # vanishing entries
        sm = s_matrix(3, 9, MIN_PREC)
        assert len(sm.weights) == 125
        picked = [sm.weights[i] for i in (0, 1, 17, 64, 124)]
        with mpmath.workprec(sm.prec):
            tol = mpmath.mpf(10) ** -40
            for i, a in enumerate(picked):
                for j, b in enumerate(picked):
                    assert abs(sm.row(a)[sm.weights.index(b)]
                               - sm.row(b)[sm.weights.index(a)]) < tol
                    dot = mpmath.fsum(x * y for x, y in zip(sm.row(a), sm.row(b)))
                    assert abs(dot - (1 if i == j else 0)) < tol


class TestDimTrig:
    def test_level_one_genus_forms(self):
        for g in (2, 3):
            assert dim_trig(g, [Weight.fundamental(2, 1)], 2, 1) == want(f"N_{g}(omega_1")

    def test_torus_vacuum(self):
        assert dim_trig(1, [], 2, 2) == 6
        assert dim_trig(1, [], 3, 2) == len(enumerate_level(3, 2))

    def test_failure_example_via_trig(self):
        lam = Weight.parse("5/2,1/2")
        w1 = Weight.fundamental(2, 1)
        assert dim_trig(0, [lam, lam, w1, w1], 2, 7) == 4

    def test_genus_three_at_default_precision(self):
        assert dim_trig(3, [], 2, 3) == 16864

    def test_level_one_vacuum_past_the_str_digit_limit(self):
        # the even theta characteristics at g = 2650: a 1596-digit answer
        # whose magnitude bound has more than 4300 digits
        assert dim_trig(2650, [], 2, 1) == 2 ** 2649 * (2 ** 2650 + 1)

    def test_so7_level5_genus14_vacuum(self):
        # the exact value of perfbench op c:B3L5:g14
        assert dim_trig(14, [], 3, 5) == (
            8822744214291785516496941747113937474450549755813888
        )

    def test_negative_genus_raises_like_the_exact_engine(self):
        lams = [Weight.parse("1/2,1/2")]
        with pytest.raises(ValueError, match="genus must be >= 0"):
            FusionTable(2, 3).dim_genus_g(-1, lams)
        with pytest.raises(ValueError, match="genus must be >= 0"):
            dim_trig(-1, lams, 2, 3)


def _forced_dim_trig(monkeypatch, g, r, ell, join, shift):
    """dim_trig(g, [], r, ell) with its CRT join forced to `join` and its
    float sum moved from the true value to join + shift, shift a decimal."""
    true = dim_trig(g, [], r, ell)
    real = mpmath.fsum
    with monkeypatch.context() as m:
        m.setattr(verlinde, "_signed_crt", lambda residues, primes: join)
        m.setattr(mpmath, "fsum",
                  lambda terms: real(terms) + (join - true) + mpmath.mpf(shift))
        return dim_trig(g, [], r, ell)


def _joined_of(monkeypatch, bound, *values):
    """`_joined` at so(5) level 3 with the residue sums forced to the given
    integers modulo every prime."""
    monkeypatch.setattr(verlinde, "_residue_sums",
                        lambda res, p, g, queries, columns: [v % p for v in values])
    return _joined(bound, 2, 3, 0, [], range(0))


# the rings where mpmath.det crashed on a vanishing S entry
CRASH_RINGS = [(3, 9), (3, 10), (4, 7), (4, 8), (4, 11)]


class TestCertificate:
    @pytest.mark.parametrize("r,ell", CRASH_RINGS)
    def test_crash_rings_sum_to_one_at_genus_zero(self, r, ell):
        assert dim_trig(0, [], r, ell) == 1

    def test_a_float_sum_1e_4_off_the_join_is_refused(self, monkeypatch):
        assert _forced_dim_trig(monkeypatch, 3, 2, 3, 16864, "1e-9") == 16864
        for shift in ("1e-4", "-1e-4"):
            with pytest.raises(PrecisionError, match="from the joined value 16864"):
                _forced_dim_trig(monkeypatch, 3, 2, 3, 16864, shift)

    def test_the_confirmation_is_exact_beyond_a_float(self, monkeypatch):
        big = 8822744214291785516496941747113937474450549755813888
        for shift in ("1e-9", "-1e-9"):
            assert _forced_dim_trig(monkeypatch, 14, 3, 5, big, shift) == big
            assert _forced_dim_trig(monkeypatch, 3, 2, 3, -5, shift) == -5
        with pytest.raises(PrecisionError, match="beyond the tolerance"):
            _forced_dim_trig(monkeypatch, 14, 3, 5, big, "1e-4")

    def test_a_residue_table_finds_its_root_of_unity_once(self, monkeypatch):
        calls = []
        real = verlinde._root_of_unity

        def counted(q, p):
            calls.append((q, p))
            return real(q, p)

        monkeypatch.setattr(verlinde, "_root_of_unity", counted)
        p = _prime_below(24, 2 ** 61)  # so(5) level 3: 4k = 24
        verlinde._Residues(2, 3, p)
        assert calls == [(24, p)]

    def test_a_join_one_off_is_refused_by_the_confirmation(self, monkeypatch):
        # 16863 lies within the bound; only the float sum, near 16864, refuses it
        assert dim_trig(3, [], 2, 3) == 16864
        monkeypatch.setattr(verlinde, "_signed_crt", lambda residues, primes: 16863)
        with pytest.raises(PrecisionError, match="from the joined value 16863"):
            dim_trig(3, [], 2, 3)

    def test_an_off_by_one_oxbury_sum_is_refused(self, monkeypatch):
        # a join one off is refused at the prime past the bound
        true = n0_oxbury(2, 2, 3)
        monkeypatch.setattr(verlinde, "_signed_crt", lambda residues, primes: true + 1)
        with pytest.raises(PrecisionError, match="residue modulo the prime"):
            n0_oxbury(2, 2, 3)

    def test_the_join_lifts_to_the_signed_range(self):
        primes = certificate_primes(2, 3, 2 ** 100)
        modulus = prod(primes)
        for n in (0, 1, -1, -5, 2 ** 100, -(2 ** 100), modulus // 2, -(modulus // 2)):
            assert _signed_crt([n % p for p in primes], primes) == n

    def test_a_join_is_checked_at_the_prime_past_the_bound(self, monkeypatch):
        # x lies beyond the certificate's product, so its join wraps to 5,
        # inside the bound: only the next prime sees it
        bound = 2 ** 100
        primes = certificate_primes(2, 3, bound)
        x = prod(primes) + 5
        assert _joined_of(monkeypatch, bound, 5) == [5]
        with pytest.raises(PrecisionError, match="value 5 disagrees .* past the bound"):
            _joined_of(monkeypatch, bound, x)
        # a batch is refused when any one of its values wraps
        assert _joined_of(monkeypatch, bound, 1, 5, 2) == [1, 5, 2]
        with pytest.raises(PrecisionError, match="value 5 disagrees .* past the bound"):
            _joined_of(monkeypatch, bound, 1, x, 2)

    def test_a_join_beyond_the_bound_is_refused(self, monkeypatch):
        with pytest.raises(PrecisionError, match="joined value -7 exceeds the bound 6"):
            _joined_of(monkeypatch, 6, -7)
        with pytest.raises(PrecisionError, match="joined value -7 exceeds the bound 6"):
            _joined_of(monkeypatch, 6, 6, -7, 0)

    def test_an_oxbury_bound_forced_too_small_is_refused(self, monkeypatch):
        # N_3^0(so(5), 5) = 2723840 cannot be joined within a bound of 1000
        assert n0_oxbury(3, 2, 5) == 2723840
        monkeypatch.setattr(verlinde, "magnitude_bound", lambda *args: 1000)
        with pytest.raises(PrecisionError):
            n0_oxbury(3, 2, 5)
        # g = 400: the true value has 800 bits, the forced bound 64
        monkeypatch.setattr(verlinde, "magnitude_bound", lambda *args: 2 ** 64)
        with pytest.raises(PrecisionError):
            n0_oxbury(400, 2, 1)

    def test_a_value_beyond_the_bound_is_refused(self, monkeypatch):
        bound = magnitude_bound(3, [], 2, 3)
        monkeypatch.setattr(verlinde, "_signed_crt", lambda residues, primes: bound + 1)
        with pytest.raises(PrecisionError, match=f"joined value {bound + 1} exceeds the bound"):
            dim_trig(3, [], 2, 3)

    @pytest.mark.parametrize("g,lams,r,ell", [
        (0, [], 2, 3), (3, [], 2, 3), (0, ["1/2,1/2"] * 3, 2, 3), (16, [], 3, 5),
    ])
    def test_primes_cover_twice_the_bound(self, g, lams, r, ell):
        q = 4 * (ell + 2 * r - 1)
        bound = magnitude_bound(g, [Weight.parse(w) for w in lams], r, ell)
        primes = certificate_primes(r, ell, bound)
        assert all(p % q == 1 and p < 2 ** 61 for p in primes)
        assert primes == sorted(set(primes), reverse=True)
        # the fewest primes: dropping the last leaves the product too small
        assert prod(primes[:-1]) <= 2 * bound < prod(primes)
        assert all(pow(3, p - 1, p) == 1 for p in primes)

    def test_a_prime_with_a_vanishing_vacuum_entry_is_skipped(self, monkeypatch):
        first = _prime_below(24, 2 ** 61)  # so(5) level 3: 4k = 24
        real = verlinde._residues

        def residues(r, ell, p):
            res = real(r, ell, p)
            if p == first:
                res = copy.copy(res)
                res.vacuum = (0,) + res.vacuum[1:]
            return res

        monkeypatch.setattr(verlinde, "_residues", residues)
        primes = certificate_primes(2, 3, magnitude_bound(3, [], 2, 3))
        assert first not in primes
        assert primes[0] == _prime_below(24, first)
        assert dim_trig(3, [], 2, 3) == 16864

    def test_residues_vanishing_at_every_prime_are_refused_fast(self, monkeypatch):
        # with every determinant 0 no prime is good: the search gives up
        # after MAX_SKIPPED_PRIMES bad primes in a row instead of running on
        verlinde._residues.cache_clear()
        monkeypatch.setattr(verlinde, "_det", lambda a: 0)
        skipped = verlinde.MAX_SKIPPED_PRIMES + 1
        try:
            for query in (lambda: dim_trig(3, [], 2, 3), lambda: n0_oxbury(3, 2, 3)):
                t0 = time.perf_counter()
                with pytest.raises(PrecisionError, match=f"{skipped} primes in a row"):
                    query()
                assert time.perf_counter() - t0 < 1.0
        finally:
            verlinde._residues.cache_clear()

    def test_genus14_oxbury_sums_are_exact(self):
        # the trig sums read ...9999856 and ...9999472 before the certificate
        want_n0 = 8822744214291785506549208294720000000000000000000000
        assert n0_oxbury(14, 3, 5) == want_n0
        assert n0_oxbury(14, 2, 7) == want_n0
        assert oxbury_check(14, 3, 2).equal


class TestVerlindeDims:
    """The batched exact join against the float-confirmed dim_trig."""

    @pytest.mark.parametrize("r,ell", S_GRID)
    def test_every_triple_set_matches_dim_trig(self, r, ell):
        triples = list(itertools.combinations_with_replacement(enumerate_level(r, ell), 3))
        assert verlinde_dims(0, triples, r, ell) == [dim_trig(0, t, r, ell) for t in triples]

    def test_mixed_lengths_in_one_call(self):
        # the column factor E_0mu^(2-2g-n) depends on n: [] and [top] share a call
        for g, r, ell in ((0, 2, 3), (2, 2, 3), (3, 3, 2), (2, 2, 7)):
            top = sigma(Weight.zero(r), ell)
            queries = [[], [top], [], [top, top], [top]]
            assert verlinde_dims(g, queries, r, ell) == [dim_trig(g, q, r, ell) for q in queries]

    @pytest.mark.parametrize("g", range(4))
    @pytest.mark.parametrize("r,ell", [(2, 1), (2, 3), (3, 2), (2, 7), (3, 5)])
    def test_twisted_total_is_the_sum_of_its_two_dims(self, g, r, ell):
        top = sigma(Weight.zero(r), ell)
        assert twisted_total(g, r, ell) == dim_trig(g, [], r, ell) + dim_trig(g, [top], r, ell)

    def test_the_bound_is_the_largest_of_the_queries(self):
        # [] at genus 0 has bound 1, one prime; 160 spin points give 2^79
        spin = Weight.fundamental(2, 2)
        assert verlinde_dims(0, [[], [spin] * 160], 2, 1) == [1, 2 ** 79]

    def test_a_bound_forced_too_small_is_refused(self, monkeypatch):
        assert verlinde_dims(3, [[]], 2, 5) == [dim_trig(3, [], 2, 5)]
        monkeypatch.setattr(verlinde, "magnitude_bound", lambda *args: 1000)
        with pytest.raises(PrecisionError):
            verlinde_dims(3, [[]], 2, 5)

    def test_domain_errors_and_the_empty_batch(self):
        assert verlinde_dims(2, [], 2, 3) == []
        with pytest.raises(ValueError, match="genus must be >= 0"):
            verlinde_dims(-1, [[]], 2, 3)
        with pytest.raises(ValueError):
            verlinde_dims(0, [[Weight.parse("4,0")]], 2, 3)


@functools.lru_cache(maxsize=None)
def _ring(r, ell):
    return FusionTable(r, ell)


def _kac_walton_dim(ring, g, lams):
    """N_g(lams) from the ring's Kac-Walton rows alone, no bound involved:
    the vacuum fused with each lam, then g times with the handle
    sum_mu mu x mu, read at the vacuum (every weight of so(2r+1) is
    self-dual)."""
    zero = ring.weights()[0]

    def fuse(vec, w):
        out = {}
        for nu, c in vec.items():
            for tau, n in ring.product(nu, w).items():
                out[tau] = out.get(tau, 0) + c * n
        return out

    vec = {zero: 1}
    for w in lams:
        vec = fuse(vec, w)
    for _ in range(g):
        handled = {}
        for mu in ring.weights():
            for tau, n in fuse(fuse(vec, mu), mu).items():
                handled[tau] = handled.get(tau, 0) + n
        vec = handled
    return vec.get(zero, 0)


class TestMagnitudeBound:
    """magnitude_bound(g, lams, r, ell) >= |N_g(lams)|, N from the
    Kac-Walton rows, on every golden Verlinde number and on a grid."""

    @staticmethod
    def _bounded(ring, g, lams):
        n = _kac_walton_dim(ring, g, lams)
        assert magnitude_bound(g, lams, ring.rank, ring.level) >= abs(n), (g, lams)
        return n

    def test_every_golden_verlinde_number(self):
        small = _ring(2, 1)
        top = sigma(Weight.zero(2), 1)
        for row in golden_rows("N_g(omega_1"):
            (g,) = row.compute.args
            assert self._bounded(small, g, [Weight.fundamental(2, 1)]) == row.want
        for row in golden_rows("N_g(2n spin"):
            (r,) = row.compute.args
            ring, spin = LevelOneTable(r), Weight.fundamental(r, r)
            assert tuple(self._bounded(ring, g, [spin] * (2 * n))
                         for g, n in goldens._SPIN_GN) == row.want
        for row in golden_rows("twisted total"):
            (g,) = row.compute.args
            assert self._bounded(small, g, []) + self._bounded(small, g, [top]) == row.want
        for row in golden_rows("Oxbury-Wilson"):
            g, r, s = row.compute.args
            (n0,) = row.want
            for rank, ell in ((r, 2 * s + 1), (s, 2 * r + 1)):
                ring, top_ell = _ring(rank, ell), sigma(Weight.zero(rank), ell)
                assert self._bounded(ring, g, []) + self._bounded(ring, g, [top_ell]) == 2 * n0
        for row in golden_rows("rank-level failure"):
            (n,) = row.compute.args
            cfg = RANKLEVEL_EXAMPLES[n]
            p = EmbeddingParams(cfg["r"], cfg["s"])
            source, target = ([Weight.parse(w) for w in cfg[side].split(";")]
                              for side in ("source", "target"))
            level1 = [lambda_weight(label, p.d) for label in cfg["Lambdas"]]
            assert (self._bounded(_ring(p.r, p.levels[0]), 0, source),
                    self._bounded(_ring(p.s, p.levels[1]), 0, target),
                    self._bounded(LevelOneTable(p.d), 0, level1)) == row.want
        table = _ring(2, 3)
        for t in itertools.combinations_with_replacement(table.weights(), 3):
            assert self._bounded(table, 0, t) == table.triple(*t)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_grid_of_rings_genera_and_weights(self, data):
        r, ell = data.draw(st.sampled_from((2, 3))), data.draw(st.integers(1, 4))
        g = data.draw(st.integers(0, 5))
        lams = data.draw(st.lists(st.sampled_from(enumerate_level(r, ell)), max_size=3))
        n = self._bounded(_ring(r, ell), g, lams)
        if g <= 2:
            assert n == _ring(r, ell).dim_genus_g(g, lams)


class TestWholeTables:
    """scripts/dual_oracle_sweep.py's whole-table phase on two 34-36 weight
    rings: every entry of every FusionTable row against the Verlinde formula
    over F_p."""

    def test_so5_level7_and_so7_level5_agree(self):
        sweep = script("dual_oracle_sweep")
        start = time.perf_counter()
        assert sweep.table_mismatches(2, 7) == []
        assert sweep.table_mismatches(3, 5) == []
        assert time.perf_counter() - start < 1.0

    def test_a_wrong_entry_is_reported(self, monkeypatch):
        sweep = script("dual_oracle_sweep")
        real = verlinde._residue_sums
        zero, a = Weight.zero(2), Weight.parse("1,0")
        wrong = sorted([zero, a, a])

        def off_by_one(res, p, g, queries, columns):
            # the Verlinde side of N_{0 a}^a = N_{a a}^0 reads 2
            return [n + (sorted(q) == wrong) for n, q in
                    zip(real(res, p, g, queries, columns), queries)]

        monkeypatch.setattr(verlinde, "_residue_sums", off_by_one)
        assert sweep.table_mismatches(2, 3) == [(zero, a, a, 1, 2), (a, a, zero, 1, 2)]


class TestOxbury:
    def test_level_one_totals(self):
        # twisted_total(g, 2, 1) is a golden row
        for g in (2, 3):
            assert twisted_total(g, 3, 1) == 2 ** (2 * g)
            for r in (2, 3):
                assert 2 * n0_oxbury(g, r, 1) == 2 ** (2 * g)

    def test_n0_value(self):
        assert n0_oxbury(2, 2, 1) == 8

    def test_genus_400_is_fast(self):
        # the sum of sines this replaced took about 1.7 s here
        start = time.perf_counter()
        n0 = n0_oxbury(400, 2, 1)
        assert n0 == twisted_total(400, 2, 1) // 2 == 2 ** 799
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("ell", [1, 3, 5, 7, 9])
    def test_matches_the_mpmath_sum(self, r, ell):
        for g in range(1, 6):
            want_n, residual = reference.n0_oxbury(g, r, ell)
            assert residual < 1e-6
            assert n0_oxbury(g, r, ell) == want_n, (g, r, ell)

    def test_high_genus_sums_match_the_mpmath_sum(self):
        for g, r, ell in ((16, 3, 5), (20, 2, 5)):
            assert n0_oxbury(g, r, ell) == reference.n0_oxbury(g, r, ell)[0]

    def test_genus_one_counts_so_weights(self):
        for r, ell in ((2, 3), (2, 5), (3, 3)):
            want = sum(1 for w in enumerate_level(r, ell) if w.is_so)
            assert n0_oxbury(1, r, ell) == want

    def test_twisted_total_identity(self):
        # dim V_{omega_0} + dim V_{ell omega_1} = 2 * n0 at every level
        for g, r, ell in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
            assert twisted_total(g, r, ell) == 2 * n0_oxbury(g, r, ell)

    @pytest.mark.parametrize("g,r,s", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3)])
    def test_symmetry(self, g, r, s):
        rep = oxbury_check(g, r, s)
        assert rep.equal, (rep.lhs, rep.rhs)
        assert {rep.lhs} == want(f"Oxbury-Wilson N_{g}^0(so({2 * r + 1}),{2 * s + 1})")

    def test_vacuum_block_matches_fusion(self):
        # the two independent engines agree on the twisted total at (2,2):
        # dim V_{omega_0} + dim V_{5 omega_1} = 2 * N_2^0(so(5), 5)
        ell = 5
        t = FusionTable(2, ell)
        top = Weight.parse("5,0")
        fusion_sum = t.dim_genus_g(2, []) + t.dim_genus_g(2, [top])
        assert fusion_sum == twisted_total(2, 2, ell) == 2 * n0_oxbury(2, 2, ell)


class TestHighRank:
    """Level one at ranks whose r x r determinants an r!-term expansion could
    not reach: the trig oracle against the closed-form ring, and the
    Oxbury-Wilson sums."""

    @pytest.mark.parametrize("r", [9, 12, 20])
    def test_level_one_dims_and_oxbury_sums(self, r):
        ring = LevelOneTable(r)
        for g in range(4):
            for n in (0, 2, 4):
                for w in ring.weights():
                    lams = [w] * n
                    assert dim_trig(g, lams, r, 1) == ring.dim_genus_g(g, lams), (g, n, w)
        for g in (1, 2, 3):
            assert n0_oxbury(g, r, 1) == 2 ** (2 * g - 1)

    def test_oxbury_check_at_ranks_2_and_9(self):
        assert oxbury_check(2, 2, 9).equal


class TestHeadlineClaims:
    """The paper's two claims at (r, s) = (2, 3): the vacuum blocks of
    so(5) at level 7 and so(7) at level 5 differ in dimension (naive strange
    duality fails), while the Oxbury-Wilson sums N_g^0 agree, each half the
    twisted total of its side."""

    VACUUM = {1: (36, 34), 2: (23232, 22458), 3: (178314112, 177541564)}

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_vacuum_dimensions_differ(self, g):
        assert (dim_trig(g, [], 2, 7), dim_trig(g, [], 3, 5)) == self.VACUUM[g]

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_oxbury_wilson_sums_agree(self, g):
        left, right = n0_oxbury(g, 2, 7), n0_oxbury(g, 3, 5)
        assert left == right
        assert twisted_total(g, 2, 7) == 2 * left
        assert twisted_total(g, 3, 5) == 2 * right


class TestCensusScript:
    """scripts/strange_duality_census.py on (r, s) = (2, 3), g <= 2."""

    LINES = [
        "(r,s,g)=(2,3,1)  dim 36 vs 34  N_g^0 20 vs 20  spin 16 / 14 = 1.143"
        "  identity holds/holds",
        "(r,s,g)=(2,3,2)  dim 23232 vs 22458  N_g^0 21000 vs 21000"
        "  spin 2232 / 1458 = 1.531  identity holds/holds",
    ]

    def test_main_prints_the_table(self, capsys):
        census = script("strange_duality_census")
        start = time.perf_counter()
        assert census.main(3, 2) == 0
        assert time.perf_counter() - start < 0.5
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == self.LINES
        assert lines[2].startswith("2 cases: dims differ in 2, N_g^0 agrees in 2, "
                                   "the identity holds on both sides in 2; ")

    def test_a_disagreement_exits_2(self, capsys, monkeypatch):
        census = script("strange_duality_census")
        monkeypatch.setattr(census, "n0_oxbury", lambda g, r, ell: r)
        assert census.main(3, 1) == 2
        out = capsys.readouterr().out
        assert "N_g^0 2 vs 3  *** DIFFER" in out and "identity FAILS/FAILS" in out

    @pytest.mark.parametrize("argv,want", [
        ([], (5, 5)), (["3"], (3, 5)), (["4", "2"], (4, 2)),
        (["2"], None), (["3", "0"], None), (["x"], None), (["3", "2", "1"], None),
    ])
    def test_arguments(self, argv, want):
        assert script("strange_duality_census")._parse_args(argv) == want


class TestThetaCounts:
    def test_values(self):
        # g = 2 is a golden row
        assert theta_counts(0) == (1, 1, 0)
        assert theta_counts(3) == (64, 36, 28)

    def test_closed_forms(self):
        for g in range(13):
            counts = theta_counts(g)
            half = Fraction(2) ** (g - 1)
            assert counts == (2 ** (2 * g), half * (2 ** g + 1), half * (2 ** g - 1))
            assert all(type(n) is int for n in counts)

    def test_odd_matches_level_one_dimension(self):
        t = FusionTable(2, 1)
        for g in (2, 3):
            n_g = t.dim_genus_g(g, [Weight.fundamental(2, 1)])
            assert theta_counts(g)[2] == n_g

    def test_partition(self):
        for g in range(6):
            total, even, odd = theta_counts(g)
            assert even + odd == total


class TestDualOracle:
    @pytest.mark.parametrize("r,ell", [(2, 1), (2, 2), (3, 1)])
    def test_small_triple_sets(self, r, ell):
        t = FusionTable(r, ell)
        ws = t.weights()
        for a, b, c in itertools.product(ws, repeat=3):
            assert t.triple(a, b, c) == dim_trig(0, [a, b, c], r, ell), (a, b, c)
