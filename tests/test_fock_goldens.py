"""Clifford-algebra goldens: explicit operator actions with frozen exact
values in Q[sqrt(2)], up to the recorded sign/normalization conventions."""

from fractions import Fraction as F
from math import factorial

import pytest

from thetablocks.fock.coeff import INV_SQRT2
from thetablocks.fock.hwv import spin_hwv
from thetablocks.fock.operators import BilinearOp, apply_LR, apply_bilinear
from thetablocks.fock.states import NS, FockState, clifford_apply
from thetablocks.weights import YoungDiagram

from reference import ns_monomial


def coeff_of(v, *index_pairs):
    return v.coefficient(FockState(NS, tuple(sorted((-1, j, p) for j, p in index_pairs))))


class TestRAction:
    # the single action on phi^{1,1}(-1/2) is a golden row

    def test_k1_intermediate(self):
        # R(B^0_1) v_2 = phi^{1,0} phi^{2,1} + phi^{1,1} phi^{2,0}
        got = apply_LR(0, 1, 0, "R", ns_monomial((1, 1), (2, 1)), 2, 2)
        want = ns_monomial((1, 0), (2, 1)) + ns_monomial((1, 1), (2, 0))
        assert got == want

    def test_k2_monomial_multiset(self):
        """The proof's step-by-step output: coefficient +2 on the leading
        monomial and -1 on each of the two cross terms (the displayed
        formula's bracket is a typo)."""
        v2 = ns_monomial((1, 1), (2, 1))
        got = apply_LR(0, 1, 0, "R", apply_LR(0, 1, 0, "R", v2, 2, 2), 2, 2)
        want = (
            2 * ns_monomial((1, 0), (2, 0))
            - ns_monomial((1, -1), (2, 1))
            - ns_monomial((1, 1), (2, -1))
        )
        assert got == want

    def test_k3_cross_pattern(self):
        v3 = ns_monomial((1, 1), (2, 1), (3, 1))
        cur = v3
        for _ in range(3):
            cur = apply_LR(0, 1, 0, "R", cur, 3, 2)
        assert coeff_of(cur, (1, 0), (2, 0), (3, 0)) == 6
        cross = [
            ((1, -1), (2, 0), (3, 1)),
            ((1, 0), (2, -1), (3, 1)),
            ((1, -1), (2, 1), (3, 0)),
            ((1, 0), (2, 1), (3, -1)),
            ((1, 1), (2, -1), (3, 0)),
            ((1, 1), (2, 0), (3, -1)),
        ]
        for pairs in cross:
            assert coeff_of(cur, *pairs) == -3, pairs
        assert len(cur.terms) == 7

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_extraterms_leading_coefficient(self, k):
        r, s = 5, 2
        vk = ns_monomial(*[(j, 1) for j in range(1, k + 1)])
        cur = vk
        for _ in range(k):
            cur = apply_LR(0, 1, 0, "R", cur, r, s)
        assert coeff_of(cur, *[(j, 0) for j in range(1, k + 1)]) == factorial(k)
        for st in cur.terms:
            ps = [p for _, _, p in st.wedge]
            assert all(p in (-1, 0, 1) for p in ps)
            assert sum(ps) == 0


class TestLAction:
    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3), (3, 4)])
    def test_leftaction_single(self, k, m):
        r, s = 4, 2
        v = spin_hwv(YoungDiagram(()), r, s)
        got = apply_LR(-k, k + 1, 0, "L", v, r, s)
        want = clifford_apply((0, -k, 0), clifford_apply((0, -(k + 1), 0), v))
        assert got == want

    def test_leftaction_chain_with_zero_index(self):
        """L(B^0_1) L(B^{-2}_3) v is proportional to
        phi_{1,0} ^ phi_{2,0} ^ phi_{3,0} ^ v; the zero-index factor
        contributes the recorded constant -1/sqrt(2)."""
        r, s = 3, 2
        v = spin_hwv(YoungDiagram(()), r, s)
        got = apply_LR(0, 1, 0, "L", apply_LR(-2, 3, 0, "L", v, r, s), r, s)
        want = v
        for j in (3, 2, 1):
            want = clifford_apply((0, -j, 0), want)
        assert got == -INV_SQRT2 * want


class TestZeroModeBilinears:
    def setup_method(self):
        self.r = self.s = 2
        self.y = YoungDiagram.parse("[1]")
        self.v = spin_hwv(self.y, self.r, self.s)

    def test_diagonal_half(self):
        for i in (1, 2):
            got = apply_bilinear(BilinearOp((i, 0), (i, 0), 0), self.v)
            assert got == F(1, 2) * self.v

    def test_creation_identity(self):
        got = apply_bilinear(BilinearOp((0, 0), (1, 0), 0), self.v)
        sign = (-1) ** (self.r * self.s - self.y.size + 1)
        want = sign * INV_SQRT2 * clifford_apply((0, -1, 0), self.v)
        assert got == want


class TestPairRemoval:
    def test_vanishing_and_removal(self):
        r, s = 2, 2
        v = spin_hwv(YoungDiagram(()), r, s)
        w = clifford_apply((0, -1, 0), clifford_apply((0, -2, 0), v))
        assert not apply_bilinear(BilinearOp((2, 1), (-1, 1), 0), w)
        assert not apply_bilinear(BilinearOp((2, -1), (-1, -1), 0), w)
        assert apply_bilinear(BilinearOp((1, 0), (-2, 0), 0), w) == -1 * v

    def test_extravanishing(self):
        # removing the (2,0),(3,0) pair from phi10^phi20^phi30^v leaves
        # -(phi_{1,0} ^ v); nonzero second indices annihilate
        r, s = 3, 2
        v = spin_hwv(YoungDiagram(()), r, s)
        w = v
        for j in (3, 2, 1):
            w = clifford_apply((0, -j, 0), w)
        want = -1 * clifford_apply((0, -1, 0), v)
        assert apply_bilinear(BilinearOp((2, 0), (-3, 0), 0), w) == want
        for (i, a, j, b) in ((1, 1, 2, 1), (2, -1, 1, -1), (3, 1, 1, -1)):
            assert not apply_bilinear(BilinearOp((i, a), (-j, b), 0), w)
