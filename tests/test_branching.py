import hashlib
from fractions import Fraction as F
from math import comb

import pytest

from thetablocks import branching
from thetablocks.branching import (
    BranchTriple,
    BranchingError,
    EmbeddingParams,
    _anomaly,
    _rule_table,
    branch_pairs,
    lambda_weight,
    ranklevel_example,
    ranklevel_report,
    sewing_exponent,
)
from thetablocks.goldens import _bad_sewing
from thetablocks.rootsys import Weight, _dbl_rho
from thetablocks.weights import LevelError, enumerate_level, sigma, young_diagrams


def _ref_trace_anomaly(lam, ell):
    """Reference: (lam, lam + 2 rho) / (2 (h_vee + ell)), the invariant form
    being the Fraction dot product in L-coordinates."""
    r = lam.rank
    rho = tuple(F(p, 2) for p in _dbl_rho(r))
    form = sum(c * (c + 2 * p) for c, p in zip(lam.coords, rho))
    return form / (2 * (2 * r - 1 + ell))


def _ref_sewing(lam, mu, Lambda, r, s):
    p = EmbeddingParams(r, s)
    return (
        _ref_trace_anomaly(lam, p.levels[0])
        + _ref_trace_anomaly(mu, p.levels[1])
        - _ref_trace_anomaly(lambda_weight(Lambda, p.d), 1)
    )


def is_conformal(r, s, index=None):
    """Conformal-embedding criterion in exact rational arithmetic:

    sum_i  d_i * dim(g_i) / (h_i + d_i)  =  dim(g) / (h + 1),

    with so(n) of dimension n(n-1)/2 and dual Coxeter number n - 2, and
    Dynkin multi-index d = (2s+1, 2r+1) for the tensor embedding."""
    p = EmbeddingParams(r, s)
    d1, d2 = index if index is not None else p.levels

    def term(n, d):
        return F(d * n * (n - 1) // 2, n - 2 + d)

    return term(2 * r + 1, d1) + term(2 * s + 1, d2) == term(2 * p.d + 1, 1)


class TestEmbedding:
    def test_params(self):
        p = EmbeddingParams(2, 3)
        assert p.d == 17
        assert p.levels == (7, 5)
        assert (2 * 2 + 1) * (2 * 3 + 1) == 2 * p.d + 1

    def test_value_semantics(self):
        p = EmbeddingParams(2, 3)
        assert p == EmbeddingParams(2, 3) and hash(p) == hash(EmbeddingParams(2, 3))
        assert p != EmbeddingParams(3, 2) and p != (2, 3)
        assert repr(p) == "EmbeddingParams(r=2, s=3)"
        with pytest.raises(AttributeError):
            p.r = 3
        with pytest.raises(AttributeError):
            del p.s

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (3, 4), (4, 3), (5, 2)])
    def test_conformal(self, r, s):
        assert is_conformal(r, s)

    def test_negative_control(self):
        assert not is_conformal(2, 2, index=(1, 1))


class TestTraceAnomaly:
    """`_anomaly` gives Delta_lam, from the doubled coordinates of lam, as an
    int numerator and denominator."""

    def test_examples(self):
        assert F(*_anomaly(Weight.zero(3).d, 5)) == 0
        assert F(*_anomaly(Weight.fundamental(2, 1).d, 7)) == F(1, 5)
        assert F(*_anomaly(Weight.fundamental(17, 1).d, 1)) == F(1, 2)
        assert F(*_anomaly(Weight.fundamental(3, 1).d, 5)) == F(3, 10)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_the_killing_form_reference(self, r):
        for ell in range(1, 10):
            for lam in enumerate_level(r, ell):
                num, den = _anomaly(lam.d, ell)
                assert type(num) is type(den) is int
                assert F(num, den) == _ref_trace_anomaly(lam, ell)

    def test_above_level_fails(self):
        with pytest.raises(LevelError, match="2,1 is above level 2"):
            _anomaly(Weight.parse("2,1").d, 2)


class TestSewing:
    def test_vector_triple(self):
        m = sewing_exponent(
            Weight.fundamental(2, 1), Weight.fundamental(3, 1), "1", 2, 3
        )
        assert m == 0

    def test_vacuum_triple(self):
        assert sewing_exponent(Weight.zero(2), Weight.zero(2), "0", 2, 2) == 0

    def test_rejects_non_pair(self):
        with pytest.raises(BranchingError):
            sewing_exponent(
                Weight.fundamental(2, 1), Weight.zero(2), "0", 2, 2
            )

    def test_rejection_names_the_exponent(self):
        lam, mu = Weight.fundamental(2, 1), Weight.zero(2)
        m = _ref_sewing(lam, mu, "0", 2, 2)
        with pytest.raises(BranchingError, match=f"is {m}, not a nonnegative"):
            sewing_exponent(lam, mu, "0", 2, 2)

    def test_rejects_a_negative_integer_exponent(self):
        # both weights are in range and the exponent is an integer, so only
        # its sign makes this no branching pair
        lam, mu = Weight.parse("1/2,1/2"), Weight.parse("5/2,1/2,1/2")
        assert _ref_sewing(lam, mu, "d", 2, 3) == -1
        with pytest.raises(BranchingError, match="is -1, not a nonnegative"):
            sewing_exponent(lam, mu, "d", 2, 3)

    def test_rejects_weights_of_another_rank(self):
        # (r, s) = (2, 3): lam must have rank 2 and mu rank 3
        for lam, mu, message in (
            ("1,0,0", "1,0", "1,0,0 has rank 3, expected rank 2"),
            ("1,0", "1,0", "1,0 has rank 2, expected rank 3"),
            ("1,0,0", "1,0,0", "1,0,0 has rank 3, expected rank 2"),
        ):
            with pytest.raises(ValueError, match=message):
                sewing_exponent(Weight.parse(lam), Weight.parse(mu), "1", 2, 3)

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3)])
    def test_all_bullets_integral(self, r, s):
        for lab in ("0", "1", "d"):
            for t in branch_pairs(lab, r, s):
                assert isinstance(t.exponent, int) and t.exponent >= 0

    @pytest.mark.parametrize("r,s", [(2, 3), (3, 4), (4, 3)])
    def test_exponents_at_the_example_shapes(self, r, s):
        # the (r, s) of the three bundled rank-level examples
        for lab in ("0", "1", "d"):
            for t in branch_pairs(lab, r, s):
                assert type(t.exponent) is int and t.exponent >= 0
                assert t.exponent == _ref_sewing(t.lam, t.mu, lab, r, s), t

    def test_a_bullet_with_a_bad_exponent_raises(self, monkeypatch):
        # Y = [] mapped to omega_1 on both sides: (omega_1, omega_1) at
        # omega_0 has exponent 1/5 + 3/10 = 1/2
        real = branching._young

        def shifted(y, r, spin=0):
            d = real(y, r, spin)
            return d if y.rows else (d[0] + 2,) + d[1:]

        monkeypatch.setattr(branching, "_young", shifted)
        with pytest.raises(BranchingError, match=r"\(1,0; 1,0,0; omega_0\) is 1/2, not"):
            branch_pairs("0", 2, 3)
        with pytest.raises(BranchingError, match="is 1/2, not a nonnegative"):
            ranklevel_report(2, 3, [Weight.zero(2)], [Weight.zero(3)], ["0"])
        # the paper-check row walks the same bullets at (2, 2)
        with pytest.raises(BranchingError, match=r"\(1,0; 1,0; omega_0\) is 1/2, not"):
            _bad_sewing(None)


class TestBranchPairs:
    # sha256 over "r|s|Lambda|lam|mu|exponent|rule" lines for 2 <= r, s <= 3,
    # taken from the Fraction implementation (230 triples)
    PINNED = "299bc9e0854634cbe1fa2514c494423f089d0636490396cee4f6070256e420f0"

    def test_exponents_and_rules_unchanged(self):
        h = hashlib.sha256()
        n = 0
        for r in (2, 3):
            for s in (2, 3):
                for lab in ("0", "1", "d"):
                    rules = _rule_table(lab, r, s)
                    for t in branch_pairs(lab, r, s):
                        assert t.exponent == _ref_sewing(t.lam, t.mu, lab, r, s)
                        assert (t.lam.d, t.mu.d) in rules
                        h.update(
                            f"{r}|{s}|{lab}|{t.lam}|{t.mu}|{t.exponent}|{t.rule}\n"
                            .encode()
                        )
                        n += 1
        assert n == 230
        assert h.hexdigest() == self.PINNED

    def test_equality_ignores_the_rule(self):
        t = branch_pairs("1", 2, 2)[0]
        other = BranchTriple(t.lam, t.mu, t.Lambda, t.exponent, "another rule")
        assert t == other and hash(t) == hash(other)
        assert t != BranchTriple(t.lam, t.mu, t.Lambda, t.exponent + 1, t.rule)
        assert t != BranchTriple(t.lam, t.mu, "0", t.exponent, t.rule)
        with pytest.raises(AttributeError):
            t.rule = "another rule"

    def test_bad_label_fails(self):
        with pytest.raises(ValueError, match="Lambda label must be one of"):
            branch_pairs("2", 2, 2)

    def test_vacuum_contains_empty(self):
        tris = branch_pairs("0", 2, 2)
        assert any(t.lam == Weight.zero(2) and t.mu == Weight.zero(2) for t in tris)

    def test_vector_contains_boxes(self):
        tris = branch_pairs("1", 2, 2)
        assert any(
            t.lam == Weight.parse("1,0") and t.mu == Weight.parse("1,0")
            for t in tris
        )

    def test_spin_twists_at_22(self):
        # Y=[1] in Y_{2,1}: both (Y+w2, Y*+w2) and (sigma(Y+w2), Y*+w2)
        tris = branch_pairs("d", 2, 2)
        lam = Weight.parse("3/2,1/2")
        mu = Weight.parse("5/2,3/2")
        assert any(t.lam == lam and t.mu == mu for t in tris)
        slam = sigma(lam, 5)
        assert any(t.lam == slam and t.mu == mu for t in tris)

    @pytest.mark.parametrize("r,s", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_structural_counts(self, r, s):
        """Even |Y| contributes one pair to B(omega_0) and two to B(omega_1),
        odd |Y| the reverse; B(omega_d) gets two pairs per diagram."""
        diagrams = young_diagrams(r, s)
        even = sum(1 for y in diagrams if y.size % 2 == 0)
        odd = len(diagrams) - even
        assert len(branch_pairs("0", r, s)) == even + 2 * odd
        assert len(branch_pairs("1", r, s)) == odd + 2 * even
        assert len(branch_pairs("d", r, s)) == 2 * len(diagrams)
        total01 = len(branch_pairs("0", r, s)) + len(branch_pairs("1", r, s))
        assert total01 == 3 * comb(r + s, r)

    def test_levels_respected(self):
        for lab in ("0", "1", "d"):
            for t in branch_pairs(lab, 2, 3):
                assert t.lam.level <= 7
                assert t.mu.level <= 5

    def test_sigma_fixed_remark(self):
        # if sigma(lam) != lam and (lam, mu) in B(omega_d) then sigma(mu) = mu
        for r, s in ((2, 2), (2, 3)):
            ell_l, ell_r = 2 * s + 1, 2 * r + 1
            for t in branch_pairs("d", r, s):
                if sigma(t.lam, ell_l) != t.lam:
                    assert sigma(t.mu, ell_r) == t.mu, t

    def test_admissibility_sigma_symmetric(self):
        """Simultaneous sigma on (lam, Lambda) stays inside the bullet list
        whenever mu is untwisted; double-twisted pairs (sigma Y, sigma Y^T)
        are genuine branching components (their sewing exponents are
        integral) but are not part of the six-bullet contract."""
        r = s = 2
        for lab, twisted in (("0", "1"), ("1", "0")):
            rules = _rule_table(twisted, r, s)
            for t in branch_pairs(lab, r, s):
                if "sigma(Y^T)" in t.rule:
                    m = _ref_sewing(sigma(t.lam, 5), t.mu, twisted, r, s)
                    assert m.denominator == 1 and m >= 0, t
                else:
                    assert (sigma(t.lam, 5).d, t.mu.d) in rules, t


class TestRankLevelReports:
    def test_example1_fully_admissible(self):
        rep = ranklevel_example(1)
        assert all("not admitted" not in c for c in rep.certificates)

    def test_strict_raises_on_bad_pair(self):
        with pytest.raises(BranchingError):
            ranklevel_report(
                2,
                2,
                [Weight.parse("1,0")],
                [Weight.parse("1,1")],
                ["1"],
                strict=True,
            )

    @pytest.mark.parametrize("n, labels", [(1, ["d", "1"]), (2, ["d", "1"]), (3, ["d", "1"])])
    def test_work_guard_one_branch_list_per_lambda(self, monkeypatch, n, labels):
        # one pass over the bullets of each distinct Lambda, and no Weight
        # triples: a report never calls branch_pairs
        calls = []
        real = branching._bullets

        def counted(Lambda, r, s):
            calls.append(Lambda)
            return real(Lambda, r, s)

        def refused(*args):
            raise AssertionError("a report built Weight triples")

        monkeypatch.setattr(branching, "_bullets", counted)
        monkeypatch.setattr(branching, "branch_pairs", refused)
        rep = ranklevel_example(n)
        assert calls == labels
        assert len(rep.certificates) == len(rep.Lambdas) > len(labels)

    def test_first_matching_rule_is_kept(self, monkeypatch):
        # a pair listed under two bullets is certified by the first, in the
        # report as in the rule table it reads
        real = branching._bullets

        def listed_twice(Lambda, r, s):
            bullets = list(real(Lambda, r, s))
            return bullets + [(lam, mu, m, "second") for lam, mu, m, _rule in bullets]

        monkeypatch.setattr(branching, "_bullets", listed_twice)
        for lam, mu, _m, rule in real("1", 2, 2):
            source, target = Weight.from_dbl(lam), Weight.from_dbl(mu)
            rep = ranklevel_report(2, 2, [source], [target], ["1"])
            assert rep.certificates == (rule,)
            assert _rule_table("1", 2, 2).get((lam, mu)) == rule

    def test_lambda_weight(self):
        assert lambda_weight("0", 12) == Weight.zero(12)
        assert lambda_weight("1", 12) == Weight.fundamental(12, 1)
        assert lambda_weight("d", 12) == Weight.fundamental(12, 12)
        with pytest.raises(ValueError):
            lambda_weight("2", 12)
