from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetablocks.fock import (
    INV_SQRT2,
    NS,
    ONE,
    R,
    SQRT2,
    ZERO,
    FockState,
    FockVector,
    QSqrt2,
    SectorError,
    clifford_apply,
    vacuum,
)


class TestQSqrt2:
    def test_ring_ops(self):
        x = QSqrt2(F(1), F(2))
        y = QSqrt2(F(3), F(-1))
        assert x + y == QSqrt2(F(4), F(1))
        assert x * y == QSqrt2(F(3) - 4, F(6) - 1)
        assert SQRT2 * SQRT2 == QSqrt2(F(2))
        assert SQRT2 * INV_SQRT2 == ONE

    def test_division(self):
        x = QSqrt2(F(1), F(1))
        assert x / x == ONE
        assert (ONE / SQRT2) == INV_SQRT2
        with pytest.raises(ZeroDivisionError):
            ONE / QSqrt2()

    def test_str(self):
        assert str(QSqrt2(F(1, 2), F(3, 4))) == "1/2+3/4√2"
        assert str(QSqrt2(F(0), F(-1))) == "-√2"
        assert str(QSqrt2()) == "0"

    def test_zero_detection(self):
        assert not QSqrt2()
        assert QSqrt2(F(0), F(1, 7))


def _fraction_pair(x: QSqrt2) -> tuple:
    return x.a, x.b


def _ref_mul(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


_rationals = st.fractions(max_denominator=50).filter(lambda f: abs(f) < 1000)


class TestQSqrt2Contract:
    """The int-backed ring keeps the surface of the (a, b) Fraction pair."""

    def test_equal_values_by_different_routes(self):
        halves = [
            QSqrt2(F(2, 4)),
            QSqrt2.of(F(1, 2)),
            QSqrt2(1) / 2,
            ONE - QSqrt2(F(1, 2)),
            INV_SQRT2 * INV_SQRT2,
        ]
        ones = [INV_SQRT2 * SQRT2, ONE, QSqrt2(F(3, 3)), QSqrt2(1, 0), SQRT2 / SQRT2]
        roots = [INV_SQRT2, SQRT2 / 2, QSqrt2(0, F(2, 4)), ONE / SQRT2, SQRT2 * F(1, 2)]
        zeros = [ZERO, QSqrt2(), SQRT2 - SQRT2, QSqrt2(F(0, 5), 0), 0 * INV_SQRT2]
        for group in (halves, ones, roots, zeros):
            for x in group:
                assert x == group[0]
                assert hash(x) == hash(group[0])
        assert len({x for g in (halves, ones, roots, zeros) for x in g}) == 4

    def test_rational_values_equal_their_rationals(self):
        assert QSqrt2(F(1, 2)) == F(1, 2) and F(1, 2) == QSqrt2(F(1, 2))
        assert QSqrt2(3) == 3 and 3 == QSqrt2(3)
        assert QSqrt2(1, 1) != 1 and QSqrt2(1, 1) != 1.0

    def test_parts_are_fractions(self):
        x = QSqrt2(F(-6, 4), 3)
        assert type(x.a) is F and type(x.b) is F
        assert (x.a, x.b) == (F(-3, 2), F(3))
        assert type(ZERO.a) is F and ZERO.a == 0 and ZERO.b == 0

    def test_str_pins(self):
        assert str(QSqrt2(0, F(-3, 4))) == "-3/4√2"
        assert str(QSqrt2(F(1, 2), -1)) == "1/2-√2"
        assert str(QSqrt2(F(-1, 2), F(3, 2))) == "-1/2+3/2√2"
        assert str(QSqrt2(2, 1)) == "2+√2"
        assert str(QSqrt2(0, 2)) == "2√2"
        assert str(QSqrt2(F(-5, 3))) == "-5/3"
        assert str(QSqrt2(F(0, 7), F(0, 3))) == "0"
        assert repr(INV_SQRT2) == "1/2√2"

    def test_int_and_fraction_operands_on_both_sides(self):
        x = QSqrt2(1, 1)
        assert x + 2 == 2 + x == QSqrt2(3, 1)
        assert x - 2 == QSqrt2(-1, 1)
        assert 2 - x == QSqrt2(1, -1)
        assert x * 2 == 2 * x == QSqrt2(2, 2)
        h = F(1, 2)
        assert x + h == h + x == QSqrt2(F(3, 2), 1)
        assert x - h == QSqrt2(h, 1)
        assert h - x == QSqrt2(-h, -1)
        assert x * h == h * x == QSqrt2(h, h)
        assert x * -1 == -x == QSqrt2(-1, -1)
        assert x * 0 == ZERO and not x * 0
        with pytest.raises(TypeError):
            x + 1.5
        with pytest.raises(TypeError):
            QSqrt2(0.5)

    def test_divide_by_zero_raises(self):
        for zero in (ZERO, QSqrt2(), 0, F(0), SQRT2 - SQRT2):
            with pytest.raises(ZeroDivisionError):
                ONE / zero
        with pytest.raises(ZeroDivisionError):
            ZERO / ZERO

    @given(_rationals, _rationals, _rationals, _rationals)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_pair_reference(self, a1, b1, a2, b2):
        x, y = QSqrt2(a1, b1), QSqrt2(a2, b2)
        assert _fraction_pair(x + y) == (a1 + a2, b1 + b2)
        assert _fraction_pair(x - y) == (a1 - a2, b1 - b2)
        assert _fraction_pair(x * y) == _ref_mul((a1, b1), (a2, b2))
        assert _fraction_pair(-x) == (-a1, -b1)
        assert bool(x) == bool(a1 or b1)
        if y:
            norm = a2 * a2 - 2 * b2 * b2
            assert _fraction_pair(x / y) == _ref_mul((a1, b1), (a2 / norm, -b2 / norm))
        assert str(x * y) == str(QSqrt2(*_ref_mul((a1, b1), (a2, b2))))


class TestFockState:
    def test_sector_parity(self):
        FockState(NS, ((-1, 1, 1),))
        FockState(R, ((-2, 1, 1), (0, -1, 0)))
        with pytest.raises(SectorError):
            FockState(NS, ((0, -1, 0),))
        with pytest.raises(SectorError):
            FockState(R, ((-1, 1, 1),))

    def test_energy(self):
        s = FockState(NS, ((-3, 0, 0), (-1, 1, 1)))
        assert s.energy2 == 4
        assert not s.is_ground()
        assert FockState(R, ((0, -1, 0),)).is_ground()


class TestCliffordApply:
    def test_creation_on_vacuum(self):
        v = clifford_apply((-1, -1, 0), FockVector.unit(vacuum(NS)))
        assert v == FockVector.unit(FockState(NS, ((-1, -1, 0),)))

    def test_pairing_contraction(self):
        # phi^{1,1}(1/2) against phi_{1,1}(-1/2) ^ w
        w = FockVector.unit(FockState(NS, ((-1, -1, -1), (-1, 2, 0))))
        stacked = clifford_apply((-1, -1, -1), w)
        assert not stacked  # duplicate generator wedges to zero
        v = clifford_apply((-1, -1, -1), FockVector.unit(
            FockState(NS, ((-1, 2, 0),))
        ))
        out = clifford_apply((1, 1, 1), v)
        assert out == FockVector.unit(FockState(NS, ((-1, 2, 0),)))

    def test_zero_mode_scalar(self):
        # sqrt2 * phi^{0,0}(0) acts by (-1)^degree
        for wedge, sign in ((tuple(), 1), (((0, -1, 0),), -1)):
            v = FockVector.unit(FockState(R, wedge))
            out = SQRT2 * clifford_apply((0, 0, 0), v)
            assert out == sign * v

    def test_dual_realization_roles(self):
        # in the dual realization positive zero modes create
        v = clifford_apply((0, 1, 1), FockVector.unit(vacuum(R, dual=True)))
        assert v == FockVector.unit(FockState(R, ((0, 1, 1),), dual=True))
        assert not clifford_apply((0, -1, -1), FockVector.unit(vacuum(R, dual=True)))

    def test_anticommutator_is_pairing(self):
        # {phi^a(m), phi^b(-m)} = delta_{a+b,0} on arbitrary states
        v = FockVector.unit(FockState(NS, ((-1, 1, 1), (-1, 2, -1))))
        a, b = (1, -2, 1), (-1, 2, -1)
        lhs = clifford_apply(a, clifford_apply(b, v)) + clifford_apply(
            b, clifford_apply(a, v)
        )
        assert lhs == v  # pairing 1
        a2 = (1, 0, 1)
        lhs2 = clifford_apply(a2, clifford_apply(b, v)) + clifford_apply(
            b, clifford_apply(a2, v)
        )
        assert not lhs2  # pairing 0

    def test_vector_arithmetic(self):
        s1 = FockVector.unit(FockState(NS, ((-1, 1, 1),)), F(1, 2))
        s2 = FockVector.unit(FockState(NS, ((-1, 1, 1),)), F(-1, 2))
        assert not (s1 + s2)
        assert (2 * s1).coefficient(FockState(NS, ((-1, 1, 1),))) == ONE
