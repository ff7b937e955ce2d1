from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetablocks.fock.coeff import INV_SQRT2, ONE, SQRT2, ZERO, QSqrt2
from thetablocks.fock.forms import GroundStratumError, _ground_labels
from thetablocks.fock.hwv import _wedge_vector
from thetablocks.fock.operators import BilinearOp, apply_bilinear
from thetablocks.fock.states import (
    NS,
    R,
    FockState,
    FockVector,
    SectorError,
    clifford_apply,
    clifford_state,
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

    def test_rational_values_hash_like_their_rationals(self):
        assert hash(QSqrt2(1)) == hash(1)
        assert hash(QSqrt2(F(1, 2))) == hash(F(1, 2))
        assert len({QSqrt2(3), 3}) == 1
        assert hash(QSqrt2(F(-6, 4))) == hash(F(-3, 2))
        assert hash(ONE - ONE) == hash(0) == hash(ZERO)
        assert {QSqrt2(F(1, 2)): "half"}[F(1, 2)] == "half"

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
        assert FockState(R, ()).is_ground()
        assert not FockState(R, ((-2, 1, 1), (0, -1, 0))).is_ground()
        assert not FockState(R, ((0, -1, 0), (2, 1, 1))).is_ground()

    def test_unsorted_or_repeated_wedge_fails(self):
        with pytest.raises(ValueError, match="not canonically sorted"):
            FockState(NS, ((-1, 2, 0), (-1, 1, 0)))
        with pytest.raises(ValueError, match="not canonically sorted"):
            FockState(R, ((0, -1, 0), (0, -1, 0)))
        with pytest.raises(ValueError, match="not canonically sorted"):
            FockState(R, ((-2, 1, 1), (0, -2, 0), (0, -3, 0)), dual=True)

    def test_wrong_sector_fails_on_every_path(self):
        with pytest.raises(SectorError):
            FockState(NS, ((-1, 1, 0), (0, 2, 0)))
        ns = FockVector.unit(FockState(NS, ((-1, 1, 0),)))
        r = FockVector.unit(FockState(R, ((0, -1, 0),)))
        for gen, v in (((0, 2, 0), ns), ((0, 0, 0), ns), ((-1, 2, 0), r), ((1, -1, 0), r)):
            with pytest.raises(SectorError):
                clifford_apply(gen, v)
            with pytest.raises(SectorError):
                clifford_state(gen, next(iter(v.terms)))

    def test_eq_hash_repr_are_the_dataclass_ones(self):
        a = FockState(NS, ((-1, 1, 0),))
        b = FockState(NS, ((-1, 1, 0),), False)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != FockState(NS, ((-1, 1, 0),), True)
        assert a != FockState(NS, ((-1, 1, 1),))
        assert repr(a) == "FockState(sector='NS', wedge=((-1, 1, 0),), dual=False)"
        with pytest.raises(AttributeError):
            a.wedge = ()
        with pytest.raises(AttributeError):
            a.energy2 = 0


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
        v = clifford_apply((0, 1, 1), FockVector.unit(FockState(R, (), True)))
        assert v == FockVector.unit(FockState(R, ((0, 1, 1),), dual=True))
        assert not clifford_apply((0, -1, -1), FockVector.unit(FockState(R, (), True)))

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


class TestVectorArithmetic:
    def test_sub_is_add_of_the_negative(self):
        a, b = FockState(NS, ((-1, 1, 1),)), FockState(NS, ((-3, 0, 1),))
        x = FockVector({a: QSqrt2(1, 2), b: QSqrt2(F(1, 2))})
        y = FockVector({a: QSqrt2(1, 2), vacuum(NS): INV_SQRT2})
        assert x - y == x + (-1) * y
        assert x - y == FockVector({b: QSqrt2(F(1, 2)), vacuum(NS): -INV_SQRT2})
        assert not (x - x)
        assert (FockVector() - y) == (-1) * y


# -- the engine's Clifford and bilinear kernels against the vector-level
# versions they replaced --------------------------------------------------


def _is_creation(gen, dual: bool) -> bool:
    tm, j, p = gen
    if tm != 0:
        return tm < 0
    pos = j > 0 or (j == 0 and p > 0)
    return pos if dual else not pos


def _reference_clifford_apply(gen, v: FockVector) -> FockVector:
    """Clifford generator on a vector: wedge by a linear scan with the
    reordering sign, contract against the paired generator, and act by
    (-1)^degree / sqrt(2) at the R-sector raw index (0, 0)."""
    tm, j, p = gen
    out = FockVector()
    for state, coeff in v.terms.items():
        if tm & 1 != (1 if state.sector == NS else 0):
            raise SectorError(gen)
        w = state.wedge
        if (tm, j, p) == (0, 0, 0):
            sign = -1 if len(w) & 1 else 1
            out = out + FockVector.unit(state, coeff * INV_SQRT2 * sign)
        elif _is_creation(gen, state.dual):
            if gen in w:
                continue
            i = sum(1 for g in w if g < gen)
            new = FockState(state.sector, w[:i] + (gen,) + w[i:], state.dual)
            out = out + FockVector.unit(new, coeff * (-1) ** i)
        else:
            for i, g in enumerate(w):
                if g == (-tm, -j, -p):
                    new = FockState(state.sector, w[:i] + w[i + 1 :], state.dual)
                    out = out + FockVector.unit(new, coeff * (-1) ** i)
    return out


def _reference_apply_bilinear(op: BilinearOp, v: FockVector) -> FockVector:
    """Normal-ordered bilinear at the vector level: two Clifford actions on
    a unit vector per mode split, accumulated with FockVector +/-."""

    def term(x, y, sv):
        return _reference_clifford_apply(x, _reference_clifford_apply(y, sv))

    out = FockVector.zero()
    tm_op = 2 * op.mode
    (ui, up), (li, lp) = op.upper, op.lower
    for state, coeff in v.terms.items():
        sv = FockVector.unit(state, coeff)
        parity = 1 if state.sector == NS else 0
        lo = min(tm_op, 0) - state.energy2
        hi = max(tm_op, 0) + state.energy2
        for ta in range(lo + ((parity - lo) % 2), hi + 1, 2):
            tb = tm_op - ta
            x, y = (ta, ui, up), (tb, -li, -lp)
            if ta > 0 > tb:
                out = out - term(y, x, sv)
            elif ta == 0 and tb == 0:
                out = out + QSqrt2(F(1, 2)) * (term(x, y, sv) - term(y, x, sv))
            else:
                out = out + term(x, y, sv)
    return out


_IDX = st.integers(-2, 2)
_COEFFS = st.sampled_from(
    [ONE, -ONE, QSqrt2(F(1, 2)), INV_SQRT2, QSqrt2(3, -1), QSqrt2(F(-2, 3), F(1, 4))]
)


@st.composite
def _states(draw, sector, dual):
    """A stored state: creation modes, plus in R the zero modes that the
    realization keeps (lowered in the standard one, raised in the dual)."""
    tms = [-5, -3, -1] if sector == NS else [-4, -2, 0]
    gens = draw(st.sets(st.tuples(st.sampled_from(tms), _IDX, _IDX), max_size=5))
    kept = [g for g in gens if g[0] != 0 or (g[1:] != (0, 0) and _is_creation(g, dual))]
    return FockState(sector, tuple(sorted(kept)), dual)


@st.composite
def _vectors(draw):
    sector = draw(st.sampled_from([NS, R]))
    dual = draw(st.booleans())
    states = draw(st.lists(_states(sector, dual), min_size=1, max_size=3))
    return FockVector({s: draw(_COEFFS) for s in states})


_OPS = st.builds(
    BilinearOp, st.tuples(_IDX, _IDX), st.tuples(_IDX, _IDX), st.integers(-2, 2)
)


class TestKernelsMatchTheVectorLevelReference:
    @given(_vectors(), st.tuples(st.integers(-4, 4), _IDX, _IDX))
    @settings(max_examples=200, deadline=None)
    def test_clifford_apply(self, v, gen):
        parity = 1 if next(iter(v.terms)).sector == NS else 0
        gen = (gen[0] + (gen[0] & 1 != parity),) + gen[1:]
        assert clifford_apply(gen, v) == _reference_clifford_apply(gen, v)

    @given(_vectors(), _OPS)
    @settings(max_examples=300, deadline=None)
    def test_apply_bilinear(self, v, op):
        assert apply_bilinear(op, v) == _reference_apply_bilinear(op, v)

    @given(st.booleans(), _states(R, False), _states(R, True), _OPS)
    @settings(max_examples=100, deadline=None)
    def test_zero_mode_splits(self, dual, std, dl, op):
        """Mode 0 on the R sector: the a = b = 0 split antisymmetrizes."""
        v = FockVector.unit(dl if dual else std, QSqrt2(1, 1))
        op = BilinearOp(op.upper, op.lower, 0)
        assert apply_bilinear(op, v) == _reference_apply_bilinear(op, v)

    def test_zero_mode_split_contributes(self):
        # B^{0,0}_{1,0}(0) on the R vacuum: only the a = b = 0 split acts,
        # (1/2)(phi^{0,0}(0) phi_{1,0}(0) - phi_{1,0}(0) phi^{0,0}(0))
        v = FockVector.unit(vacuum(R))
        op = BilinearOp((0, 0), (1, 0), 0)
        want = -INV_SQRT2 * FockVector.unit(FockState(R, ((0, -1, 0),)))
        assert apply_bilinear(op, v) == want == _reference_apply_bilinear(op, v)


class TestDerivedStates:
    """clifford_state derives each image state from its source unchecked; the
    image must be the state the checked constructor builds."""

    @given(st.data(), st.sampled_from([NS, R]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_images_equal_the_checked_states(self, data, sector, dual):
        state = data.draw(_states(sector, dual))
        tms = [-5, -3, -1, 1, 3] if sector == NS else [-4, -2, 0, 2]
        gens = st.tuples(st.sampled_from(tms), _IDX, _IDX)
        for _ in range(data.draw(st.integers(1, 4))):
            # the pair of a stored generator always contracts
            pairs = [(-tm, -j, -p) for tm, j, p in state.wedge]
            gen = data.draw(st.one_of(gens, st.sampled_from(pairs)) if pairs else gens)
            hit = clifford_state(gen, state)
            if hit is None:
                continue
            image = hit[0]
            checked = FockState(image.sector, image.wedge, image.dual)
            assert (image.sector, image.dual) == (sector, dual)
            assert image == checked
            assert image.energy2 == checked.energy2
            assert hash(image) == hash(checked)
            state = image


def _reference_wedge_vector(sector, dual, gens) -> FockVector:
    """The generators applied right to left to the vacuum, one Clifford
    action each."""
    v = FockVector.unit(FockState(sector, (), dual))
    for g in reversed(list(gens)):
        v = clifford_apply(g, v)
    return v


@st.composite
def _creations(draw, sector, dual):
    """Generators that create on the vacuum of the sector and realization."""
    tms = [-5, -3, -1] if sector == NS else [-4, -2, 0]
    gen = draw(st.tuples(st.sampled_from(tms), _IDX, _IDX))
    if gen[0] == 0 and (gen[1:] == (0, 0) or not _is_creation(gen, dual)):
        gen = (-2,) + gen[1:]
    return gen


class TestWedgeVector:
    """_wedge_vector sorts once and signs by the permutation parity; the
    Clifford loop it replaced is the reference."""

    @given(st.data(), st.sampled_from([NS, R]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_distinct_creations(self, data, sector, dual):
        gens = data.draw(st.lists(_creations(sector, dual), unique=True, max_size=8))
        got = _wedge_vector(sector, dual, gens)
        assert got == _reference_wedge_vector(sector, dual, gens)
        assert got.coefficient(FockState(sector, tuple(sorted(gens)), dual)) in (ONE, -ONE)

    @given(st.data(), st.sampled_from([NS, R]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_repeated_generator_gives_zero(self, data, sector, dual):
        gens = data.draw(st.lists(_creations(sector, dual), min_size=1, max_size=6))
        twin = data.draw(st.sampled_from(gens))
        gens.insert(data.draw(st.integers(0, len(gens))), twin)
        assert not _wedge_vector(sector, dual, gens)
        assert not _reference_wedge_vector(sector, dual, gens)

    def test_sign_of_a_reversed_list(self):
        gens = [(-1, j, 1) for j in (3, 2, 1)]  # one transposition: sign -1
        want = FockVector.unit(FockState(NS, tuple(sorted(gens))), -1)
        assert _wedge_vector(NS, False, gens) == want

    @pytest.mark.parametrize("sector, dual, gen", [
        (NS, False, (1, 1, 0)),
        (R, False, (2, 1, 0)),
        (R, False, (0, 1, 0)),
        (R, True, (0, -1, 0)),
        (R, False, (0, 0, 0)),
    ])
    def test_a_non_creation_fails(self, sector, dual, gen):
        ok = (-1, 2, 0) if sector == NS else (-2, 2, 0)
        with pytest.raises(ValueError, match="does not create"):
            _wedge_vector(sector, dual, [ok, gen])


def _sorted_sign(labels: list) -> tuple[tuple, int]:
    """Reference: insertion-sort labels ascending, tracking the permutation
    parity."""
    labels = list(labels)
    sign = 1
    for i in range(1, len(labels)):
        v = labels[i]
        j = i
        while j > 0 and labels[j - 1] > v:
            labels[j] = labels[j - 1]
            j -= 1
            sign = -sign
        labels[j] = v
    return tuple(labels), sign


class TestGroundLabels:
    @given(st.sets(st.tuples(_IDX, _IDX), max_size=8), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_insertion_sort(self, pairs, dual):
        state = FockState(R, tuple((0, j, p) for j, p in sorted(pairs)), dual)
        if dual:
            labels = [(j, p) for _, j, p in state.wedge]
        else:
            labels = [(-j, -p) for _, j, p in state.wedge]
        assert _ground_labels(state, dual) == _sorted_sign(labels)

    def test_sign_of_a_standard_wedge(self):
        wedge = ((0, -2, 0), (0, -1, -1), (0, -1, 0))  # n = 3: three swaps
        state = FockState(R, wedge)
        assert _ground_labels(state, False) == (((1, 0), (1, 1), (2, 0)), -1)
        assert _ground_labels(FockState(R, wedge[:2]), False)[1] == -1
        assert _ground_labels(FockState(R, ()), False) == ((), 1)

    @pytest.mark.parametrize("state, dual", [
        (FockState(R, ((0, -1, 0),)), True),
        (FockState(R, ((0, 1, 0),), True), False),
        (FockState(R, ((-2, 1, 1), (0, -1, 0))), False),
        (FockState(NS, ((-1, 1, 0),)), False),
    ])
    def test_outside_the_ground_stratum_fails(self, state, dual):
        with pytest.raises(GroundStratumError):
            _ground_labels(state, dual)
