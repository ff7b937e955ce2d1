from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetablocks.branching import sewing_exponent
from thetablocks.fusion import FusionTable, LevelOneTable
from thetablocks.rootsys import Weight
from thetablocks.verlinde import dim_trig
from thetablocks.weights import (
    LevelError,
    YoungDiagram,
    complement,
    enumerate_level,
    sigma,
    star,
    transpose,
    young_diagrams,
)

from reference import from_omega, omega_coords, weight_of_young


class TestEnumerateLevel:
    def test_level_one_any_rank(self):
        for r in (2, 3, 5, 8):
            ws = enumerate_level(r, 1)
            assert len(ws) == 3
            assert set(ws) == {
                Weight.zero(r),
                Weight.fundamental(r, 1),
                Weight.fundamental(r, r),
            }

    def test_r2_level2(self):
        got = {str(w) for w in enumerate_level(2, 2)}
        assert got == {"0,0", "1,0", "1,1", "2,0", "1/2,1/2", "3/2,1/2"}

    def test_exhaustive_matches_inequality(self):
        ws = enumerate_level(3, 4)
        for w in ws:
            assert w.level <= 4
        # brute force count over a bounding box of quarter-integers
        count = 0
        for num0 in range(0, 17):
            for num1 in range(0, num0 + 1):
                for num2 in range(0, num1 + 1):
                    if (num0 % 2) == (num1 % 2) == (num2 % 2) and num0 + num1 <= 8:
                        count += 1
        assert len(ws) == count

    def test_deterministic_order(self):
        assert list(enumerate_level(2, 3)) == sorted(
            enumerate_level(2, 3), key=lambda w: (not w.is_so, w.coords)
        )


def sigma_omega(lam, ell):
    """Reference sigma in omega-coordinates: a_1 goes to
    ell - (a_1 + 2(a_2+...+a_{r-1}) + a_r), everything else fixed."""
    a = list(omega_coords(lam))
    a[0] = ell - int(lam.level)
    return from_omega(a)


class TestSigma:
    def test_matches_the_omega_coordinate_reference(self):
        for r in (2, 3, 4):
            for ell in range(1, 10):
                for w in enumerate_level(r, ell):
                    img = sigma(w, ell)
                    assert img == sigma_omega(w, ell), (w, ell)
                    assert img.level <= ell

    def test_vacuum_to_top(self):
        for r, ell in ((2, 1), (3, 5), (4, 7)):
            img = sigma(Weight.zero(r), ell)
            assert omega_coords(img)[0] == ell
            assert img == Weight(tuple([F(ell)] + [F(0)] * (r - 1)))

    def test_involution_and_kind(self):
        for r in (2, 3, 4):
            for ell in range(1, 10):
                for w in enumerate_level(r, ell):
                    img = sigma(w, ell)
                    assert sigma(img, ell) == w
                    assert img.is_so == w.is_so

    def test_fixed_example(self):
        w = Weight.parse("5/2,1/2")
        assert sigma(w, 5) == w

    def test_level_guard(self):
        with pytest.raises(LevelError):
            sigma(Weight.parse("3,0"), 2)


def _in_slot(call, good: str, slot: int):
    """call(*weights) with the bad weight in `slot` of three otherwise `good`."""
    def admit(bad):
        args = [Weight.parse(good)] * 3
        args[slot] = bad
        return call(*args)
    return admit


# (rank, level, admit): admit(w) hands w to an engine at that rank and level
ADMITTING = {
    **{f"FusionTable.triple:{i}": (2, 3, _in_slot(FusionTable(2, 3).triple, "1,0", i))
       for i in range(3)},
    **{f"LevelOneTable.triple:{i}": (2, 1, _in_slot(LevelOneTable(2).triple, "0,0", i))
       for i in range(3)},
    "dim_trig": (2, 3, lambda w: dim_trig(0, [w], 2, 3)),
    "sewing_exponent:lam": (
        2, 7, lambda w: sewing_exponent(w, Weight.parse("1,0,0"), "1", 2, 3)),
    "sewing_exponent:mu": (
        3, 5, lambda w: sewing_exponent(Weight.parse("1,0"), w, "1", 2, 3)),
}


class TestOneAdmissionRule:
    """Every engine admits a weight by weights.check_weight: a weight of
    another rank raises the rank ValueError, even when it is also above the
    level, and a weight of the right rank above the level raises LevelError."""

    @pytest.mark.parametrize("engine", sorted(ADMITTING))
    @pytest.mark.parametrize("top", ["1", "9"])
    def test_wrong_rank_names_the_rank(self, engine, top):
        r, _, admit = ADMITTING[engine]
        bad = Weight.parse(",".join([top] + ["0"] * r))  # rank r + 1
        message = f"^{bad} has rank {r + 1}, expected rank {r}$"
        with pytest.raises(ValueError, match=message) as exc:
            admit(bad)
        assert type(exc.value) is ValueError

    @pytest.mark.parametrize("engine", sorted(ADMITTING))
    def test_above_the_level_is_level_error(self, engine):
        r, ell, admit = ADMITTING[engine]
        bad = Weight.parse(",".join([str(ell + 1)] + ["0"] * (r - 1)))
        with pytest.raises(LevelError, match=f"^{bad} is above level {ell}$"):
            admit(bad)


class TestYoungCalculus:
    def test_transpose(self):
        assert transpose(YoungDiagram.parse("[3,1]")) == YoungDiagram.parse("[2,1,1]")
        assert transpose(YoungDiagram.parse("[]")) == YoungDiagram.parse("[]")

    def test_complement(self):
        assert complement(YoungDiagram.parse("[3,1]"), 2, 3) == YoungDiagram.parse("[2]")
        assert complement(YoungDiagram.parse("[]"), 2, 2) == YoungDiagram.parse("[2,2]")

    def test_star(self):
        assert star(YoungDiagram.parse("[3,1]"), 2, 3) == YoungDiagram.parse("[1,1]")

    def test_star_involution(self):
        for r, s in ((2, 2), (2, 3), (3, 2), (3, 3)):
            for y in young_diagrams(r, s):
                assert star(star(y, r, s), s, r) == y

    def test_box_count(self):
        for r in range(1, 7):
            for s in range(1, 7):
                ys = young_diagrams(r, s)
                assert len(set(ys)) == len(ys) == comb(r + s, r), (r, s)

    def test_generation_order(self):
        # depth-first, longer rows first: the perfbench fock child shuffles
        # from this order, so a change to it changes the benchmark
        assert [str(y) for y in young_diagrams(2, 2)] == [
            "[]", "[2]", "[2,2]", "[2,1]", "[1]", "[1,1]"
        ]

    def test_box_violation(self):
        with pytest.raises(ValueError):
            complement(YoungDiagram.parse("[4]"), 2, 3)

    def test_weight_maps(self):
        y = YoungDiagram.parse("[2,1]")
        w = weight_of_young(y, 3)
        assert w == Weight.parse("2,1,0")
        ws = weight_of_young(y, 3, spin=True)
        assert ws == Weight.parse("5/2,3/2,1/2")

    def test_normalization(self):
        assert YoungDiagram((3, 1, 0, 0)).rows == (3, 1)
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))

    @given(st.lists(st.integers(0, 3), max_size=4), st.lists(st.integers(0, 3), max_size=4),
           st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_value_semantics(self, a, b, zeros):
        ya = YoungDiagram(tuple(sorted(a, reverse=True)))
        yb = YoungDiagram(tuple(sorted(b, reverse=True)))
        assert (ya == yb) == (ya.rows == yb.rows)
        padded = YoungDiagram(ya.rows + (0,) * zeros)
        assert padded.rows == ya.rows and 0 not in padded.rows
        assert padded == ya and hash(padded) == hash(ya)

    def test_repr_and_immutability(self):
        y = YoungDiagram((3, 1, 0))
        assert repr(y) == "YoungDiagram(rows=(3, 1))"
        assert y != (3, 1)
        with pytest.raises(AttributeError):
            y.rows = (2,)
        with pytest.raises(AttributeError):
            del y.rows
        assert y.rows == (3, 1)


class TestSigmaOrbits:
    def test_count_fixed(self):
        # sigma fixes |Y_{r,s}| - |Y_{r,s-1}| spin weights at level 2s+1
        for r, s in ((2, 2), (2, 3), (3, 2), (3, 3)):
            ell = 2 * s + 1
            fixed = sum(
                1 for w in enumerate_level(r, ell) if not w.is_so and sigma(w, ell) == w
            )
            assert fixed == comb(r + s, r) - comb(r + s - 1, r)

    def test_so_weights_never_fixed_at_odd_level(self):
        for r, s in ((2, 2), (2, 3), (3, 2)):
            ell = 2 * s + 1
            for w in enumerate_level(r, ell):
                if w.is_so:
                    assert sigma(w, ell) != w

    def test_box_is_fundamental_domain(self):
        # SO weights at level 2s+1 are exactly Y_{r,s} plus its sigma image
        r, s = 2, 2
        ell = 2 * s + 1
        box = {weight_of_young(y, r) for y in young_diagrams(r, s)}
        so = {w for w in enumerate_level(r, ell) if w.is_so}
        assert so == box | {sigma(w, ell) for w in box}
        assert not box & {sigma(w, ell) for w in box}
