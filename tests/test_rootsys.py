import ast
import copy
import inspect
import itertools
import operator
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetablocks.branching import BranchTriple
from thetablocks.fock.operators import BilinearOp, SlotExpression
from thetablocks.fock.states import NS, R, FockState, FockVector, vacuum
from thetablocks.rootsys import (
    Frozen,
    RankError,
    Weight,
    _dbl_positive_roots,
    _dbl_rho,
    _weight_multiplicities_dbl,
    fold_shifted,
    weyl_dim,
    weyl_orbit_dbl,
)
from thetablocks.weights import YoungDiagram, enumerate_level

from reference import doubled, enumerate_level_fractions, from_omega, omega_coords, orbit_size


def b2_weyl_group():
    """All 8 signed-permutation matrices of B_2 with their determinants."""
    out = []
    for perm in itertools.permutations((0, 1)):
        for signs in itertools.product((1, -1), repeat=2):
            def act(v, perm=perm, signs=signs):
                return tuple(signs[i] * v[perm[i]] for i in range(2))
            # determinant of the signed permutation matrix
            det = signs[0] * signs[1] * (1 if perm == (0, 1) else -1)
            out.append((act, det))
    return out


class TestRootSystem:
    """Root data in doubled coordinates (ints equal to 2x the L-coordinates)."""

    def test_counts_and_rho(self):
        for r in (2, 3, 4, 5):
            roots = _dbl_positive_roots(r)
            assert len(roots) == len(set(roots)) == r * r
            assert _dbl_rho(r) == tuple(2 * r - 2 * i - 1 for i in range(r))
            # rho is half the sum of the positive roots
            assert tuple(sum(c) // 2 for c in zip(*roots)) == _dbl_rho(r)
            # h_vee = (rho, theta) + 1, a doubled dot product over 4
            theta = (2, 2) + (0,) * (r - 2)
            assert theta in roots
            assert sum(a * b for a, b in zip(_dbl_rho(r), theta)) // 4 + 1 == 2 * r - 1

    def test_root_order(self):
        # long roots L_i - L_j, L_i + L_j (i < j), then the short roots L_i
        assert _dbl_positive_roots(2) == ((2, -2), (2, 2), (2, 0), (0, 2))

    def test_theta_norm(self):
        # the invariant form is the dot product in L-coordinates:
        # (theta, theta) = 2 reads 8 on doubled vectors
        theta = (2, 2, 0)
        assert theta in _dbl_positive_roots(3)
        assert sum(c * c for c in theta) == 8

    def test_rank_one_rejected(self):
        with pytest.raises(RankError):
            _dbl_positive_roots(1)
        with pytest.raises(RankError):
            Weight((F(1),))


class TestWeight:
    def test_validation(self):
        with pytest.raises(ValueError):
            Weight((F(0), F(1)))  # increasing
        with pytest.raises(ValueError):
            Weight((F(1), F(-1)))  # negative
        with pytest.raises(ValueError):
            Weight((F(3, 2), F(1)))  # mixed parity

    def test_omega_round_trip(self):
        for r in (2, 3, 4):
            for i in range(r + 1):
                w = Weight.fundamental(r, i)
                assert from_omega(omega_coords(w)) == w

    def test_parse_str_round_trip(self):
        w = Weight.parse("3/2,1/2")
        assert str(w) == "3/2,1/2"
        assert not w.is_so
        assert w.level == 2

    @pytest.mark.parametrize("coords,message", [
        ((F(1),), "so(2r+1) requires r >= 2 (got r=1); "
                  "the highest-root convention theta = L1+L2 breaks at r = 1"),
        ((F(-1), F(0)), "not dominant (negative coordinate): (Fraction(-1, 1), Fraction(0, 1))"),
        ((F(1), F(-1)), "not dominant (negative coordinate): (Fraction(1, 1), Fraction(-1, 1))"),
        ((F(0), F(1)), "not dominant (coordinates increase): (Fraction(0, 1), Fraction(1, 1))"),
        ((F(0), F(1, 3)), "not dominant (coordinates increase): (Fraction(0, 1), Fraction(1, 3))"),
        ((F(3, 2), F(1)), "coordinates must be all integral or all half-odd: "
                          "(Fraction(3, 2), Fraction(1, 1))"),
        ((F(1), F(1, 3)), "coordinates must be all integral or all half-odd: "
                          "(Fraction(1, 1), Fraction(1, 3))"),
    ])
    def test_rejection_messages(self, coords, message):
        with pytest.raises(ValueError) as exc:
            Weight(coords)
        assert str(exc.value) == message

    def test_from_dbl_validates(self):
        w = Weight.from_dbl((301, 1))
        assert w.coords == (F(301, 2), F(1, 2)) and w.d == (301, 1)
        for d in ((1, 2), (0, -2), (64, -2), (3, 2), (2,)):
            with pytest.raises(ValueError):
                Weight.from_dbl(d)

    def test_doubled_coordinates(self):
        # d is twice the L-coordinates, and from_dbl, parse and str round-trip;
        # the doubled-int enumeration keeps the Fraction-sorted order
        for r in (2, 3, 4):
            for ell in range(1, 8):
                ws = enumerate_level(r, ell)
                assert ws == enumerate_level_fractions(r, ell)
                for w in ws:
                    assert w.d == tuple(int(2 * c) for c in w.coords)
                    assert Weight.from_dbl(w.d) == w
                    assert Weight.parse(str(w)) == w


@st.composite
def valid_weights(draw):
    """A dominant weight of rank 2..5 with small coordinates, so that equal
    and neighbouring weights are drawn often."""
    r = draw(st.integers(2, 5))
    spin = draw(st.integers(0, 1))
    xs = sorted(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)), reverse=True)
    return Weight.from_dbl(tuple(2 * x + spin for x in xs))


class TestWeightValueSemantics:
    """Weight compares, orders and hashes on d, which agrees with coords."""

    @given(valid_weights(), valid_weights())
    @settings(max_examples=200, deadline=None)
    def test_eq_and_order_follow_coords(self, a, b):
        assert (a == b) == (a.coords == b.coords)
        assert (a != b) == (a.coords != b.coords)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(a, b) == op(a.coords, b.coords), op
        if a == b:
            assert hash(a) == hash(b)

    @given(valid_weights())
    @settings(max_examples=100, deadline=None)
    def test_every_constructor_gives_an_equal_weight(self, w):
        for twin in (Weight(w.coords), Weight.from_dbl(w.d), Weight.parse(str(w))):
            assert twin == w and hash(twin) == hash(w)
            assert (twin.coords, twin.d) == (w.coords, w.d)

    @given(valid_weights())
    @settings(max_examples=50, deadline=None)
    def test_immutable(self, w):
        for name in ("coords", "d", "rank", "other"):
            with pytest.raises(AttributeError):
                setattr(w, name, (F(1), F(0)))
            with pytest.raises(AttributeError):
                delattr(w, name)
        assert Weight.from_dbl(w.d) == w

    def test_the_hash_separates_the_weights_of_a_ring(self):
        # the weights key every fusion row: equal hashes would collide there
        for r, ell in ((2, 7), (3, 5), (4, 4)):
            ws = enumerate_level(r, ell)
            assert len({hash(w) for w in ws}) == len(ws)

    def test_other_types_are_not_equal_or_ordered(self):
        w = Weight.parse("1,0")
        assert w != (F(1), F(0)) and w != (2, 0)
        with pytest.raises(TypeError):
            w < (2, 0)

    def test_repr(self):
        assert repr(Weight.parse("5/2,1/2")) == "Weight(coords=(Fraction(5, 2), Fraction(1, 2)))"

    def test_copy_and_pickle_round_trip(self):
        w = Weight.parse("5/2,1/2")
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert twin == w and hash(twin) == hash(w) and twin.coords == w.coords


class TestWeylDim:
    def test_small(self):
        assert weyl_dim((2, 0)) == 5  # omega_1 of so(5)
        assert weyl_dim((1, 1)) == 4  # omega_2, the spin weight of so(5)
        # adjoint of so(7) = Lambda^2(vector): 7*6/2
        assert weyl_dim((2, 2, 0)) == 21

    def test_spin_dimension(self):
        for r in (2, 3, 4):
            assert weyl_dim((1,) * r) == 2 ** r


class TestDominantConjugate:
    """fold_shifted on doubled coordinates: the dominant representative of a
    rho-shifted vector and the determinant of the folding element."""

    def test_already_dominant(self):
        assert fold_shifted((5, 1)) == ((5, 1), 1)

    def test_walls(self):
        assert fold_shifted((6, 0)) is None
        assert fold_shifted((4, -4)) is None

    def test_against_group_enumeration(self):
        # the sign is the determinant of the (unique) folding group element
        cases = [(-F(1, 2), F(3, 2)), (F(1, 2), F(5, 2)), (-3, 1), (-2, -4)]
        for v in cases:
            got = fold_shifted(doubled(v))
            matches = []
            for act, det in b2_weyl_group():
                img = act(v)
                if img[0] > img[1] > 0:
                    matches.append((doubled(img), det))
            assert len(matches) == 1
            assert got == matches[0]

    def test_spec_example_sign(self):
        # the folding element for (-1/2, 3/2) is [[0,1],[-1,0]], det +1
        assert fold_shifted((-1, 3)) == ((3, 1), 1)


def sym2_zero_multiplicity():
    """Independent oracle: weights of Sym^2 of the so(5) vector rep {+-L_i, 0},
    which is V_(2,0) + V_0."""
    vec = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    count = 0
    for i in range(5):
        for j in range(i, 5):
            w = (vec[i][0] + vec[j][0], vec[i][1] + vec[j][1])
            if w == (0, 0):
                count += 1
    return count - 1  # remove the trivial summand


def multiplicities(coords):
    """Freudenthal multiplicities of V_lambda, keyed by doubled weights."""
    return _weight_multiplicities_dbl(Weight.parse(coords).d)


class TestFreudenthal:
    def test_vector_rep(self):
        assert multiplicities("1,0") == {(2, 0): 1, (0, 0): 1}

    def test_spin_rep(self):
        assert multiplicities("1/2,1/2") == {(1, 1): 1}

    def test_sym_square(self):
        assert multiplicities("2,0")[(0, 0)] == sym2_zero_multiplicity() == 2

    def test_adjoint_zero_mult_is_rank(self):
        assert multiplicities("1,1")[(0, 0)] == 2

    @pytest.mark.parametrize(
        "coords",
        ["2,1", "3/2,1/2", "2,2", "2,1,0", "3/2,3/2,1/2", "1,1,1,0"],
    )
    def test_orbit_sum_equals_dimension(self, coords):
        total = sum(orbit_size(mu) * m for mu, m in multiplicities(coords).items())
        assert total == weyl_dim(Weight.parse(coords).d)


class TestOrbitSize:
    """The closed-form reference in doubled coordinates."""

    def test_examples(self):
        assert orbit_size((2, 0)) == 4
        assert orbit_size((1, 1)) == 4
        assert orbit_size((0, 0)) == 1
        assert orbit_size((4, 2)) == 8
        # and the orbits weyl_orbit_dbl enumerates
        for dom in ((2, 0), (1, 1), (0, 0), (4, 2), (4, 4, 0), (3, 1, 1), (6, 4, 2, 0)):
            orbit = list(weyl_orbit_dbl(dom))
            assert len(set(orbit)) == len(orbit) == orbit_size(dom), dom


class TestOneValueClassIdiom:
    """Value classes are `Frozen` subclasses or namedtuples: nothing under
    src/ imports dataclasses or uses functools.cached_property."""

    def test_src_uses_no_dataclasses_and_no_cached_property(self):
        src = Path(__file__).resolve().parent.parent / "src" / "thetablocks"
        found = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] == "dataclasses" or name == "cached_property":
                        found.append(f"{path.relative_to(src)}:{node.lineno}: {name}")
        assert found == []


def _one_of_each_value_class() -> list:
    """An instance of every `Frozen` subclass of the program, the
    SlotExpression with its memo slots filled."""
    op = BilinearOp((1, 0), (0, -1), -1)
    expr = SlotExpression((op, op), FockVector.unit(vacuum(NS)))
    expr.value()
    return [
        Weight.parse("5/2,1/2"),
        YoungDiagram((3, 1)),
        BranchTriple(Weight.parse("1,0"), Weight.parse("1,0,0"), "1", 0, "(Y, Y^T) with Y=[1]"),
        op,
        expr,
        FockState(R, ((-2, 1, 1), (0, -1, 0)), dual=True),
    ]


class TestFrozenRoundTrips:
    """Copy and pickle rebuild a `Frozen` value through its constructor."""

    def test_every_value_class_is_covered(self):
        assert {type(v) for v in _one_of_each_value_class()} == set(Frozen.__subclasses__())

    def test_the_fields_are_the_constructor_arguments(self):
        for cls in Frozen.__subclasses__():
            params = tuple(inspect.signature(cls.__init__).parameters)
            assert params == ("self", *cls._fields), cls

    @pytest.mark.parametrize("twin_of", [copy.copy, copy.deepcopy,
                                         lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_deepcopy_and_pickle(self, twin_of):
        values = _one_of_each_value_class()
        for v in values:
            twin = twin_of(v)
            assert type(twin) is type(v) and twin == v
            assert hash(twin) == hash(v) and repr(twin) == repr(v)
            memo = {"_value", "_tail"} if isinstance(v, SlotExpression) else set()
            for name in set(type(v).__slots__) - memo:
                assert getattr(twin, name) == getattr(v, name), (v, name)
            for name in memo:  # rebuilt, not copied
                assert getattr(twin, name) is None
        # the rebuilt memo computes the same value
        [expr] = [v for v in values if isinstance(v, SlotExpression)]
        assert twin_of(expr).value() == expr.value()
