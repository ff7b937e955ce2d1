"""Property tests derived from the module invariants."""

from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetablocks.fock.algebra import bracket, invariant_form
from thetablocks.fock.coeff import QSqrt2
from thetablocks.fock.operators import BilinearOp, apply_bilinear
from thetablocks.fock.states import FockState, FockVector, NS
from thetablocks.fusion import FusionTable
from thetablocks.rootsys import _weight_multiplicities_dbl, fold_shifted, weyl_dim
from thetablocks.verlinde import _det
from thetablocks.weights import enumerate_level, sigma, star, young_diagrams

from reference import det_fraction, doubled, orbit_size

_TABLES = {}


def table(r, ell):
    if (r, ell) not in _TABLES:
        _TABLES[(r, ell)] = FusionTable(r, ell)
    return _TABLES[(r, ell)]


@st.composite
def level_weights(draw, rmax=4, lmax=9):
    r = draw(st.integers(2, rmax))
    ell = draw(st.integers(1, lmax))
    ws = enumerate_level(r, ell)
    w = draw(st.sampled_from(ws))
    return r, ell, w


class TestSigmaInvolution:
    @given(level_weights())
    @settings(max_examples=120, deadline=None)
    def test_involution_level_kind(self, rlw):
        r, ell, w = rlw
        img = sigma(w, ell)
        assert sigma(img, ell) == w
        assert img.level <= ell
        assert img.is_so == w.is_so


class TestStarInvolution:
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_star_star(self, r, s, data):
        y = data.draw(st.sampled_from(young_diagrams(r, s)))
        assert star(star(y, r, s), s, r) == y


class TestFoldProperties:
    @given(
        st.lists(
            st.integers(-12, 12).map(lambda n: F(n, 2)),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_and_sign(self, coords):
        coords = tuple(coords)
        pars = {2 * F(c) % 2 for c in coords}
        if len(pars) > 1:
            return
        folded = fold_shifted(doubled(coords))
        if folded is None:
            return
        dom, sign = folded
        assert sign in (1, -1)
        assert fold_shifted(dom) == (dom, 1)
        # composing with one sign flip multiplies the sign by -1
        flipped = (-dom[0],) + dom[1:]
        ref = fold_shifted(flipped)
        assert ref is None or ref == (dom, -1)


class TestFreudenthalConsistency:
    @given(level_weights(rmax=3, lmax=5))
    @settings(max_examples=40, deadline=None)
    def test_orbit_sum_is_dimension(self, rlw):
        _, _, lam = rlw
        lam_d = lam.d
        if weyl_dim(lam_d) > 100_000:
            return
        mults = _weight_multiplicities_dbl(lam_d)
        total = sum(orbit_size(mu) * m for mu, m in mults.items())
        assert total == weyl_dim(lam_d)


class TestFusionProperties:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sigma_equivariance(self, data):
        ell = data.draw(st.integers(1, 4))
        t = table(2, ell)
        ws = t.weights()
        a = data.draw(st.sampled_from(ws))
        b = data.draw(st.sampled_from(ws))
        c = data.draw(st.sampled_from(ws))
        assert t.triple(a, b, c) == t.triple(sigma(a, ell), sigma(b, ell), c)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_contraction_order_independence(self, data):
        ell = data.draw(st.integers(1, 3))
        t = table(2, ell)
        ws = t.weights()
        lams = [data.draw(st.sampled_from(ws)) for _ in range(5)]
        perm = data.draw(st.permutations(lams))
        assert t.dim_genus0(lams) == t.dim_genus0(perm)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_genus_recursion_consistency(self, data):
        # factoring a handle commutes with factoring a point pair
        t = table(2, 2)
        ws = t.weights()
        lam = data.draw(st.sampled_from(ws))
        direct = t.dim_genus_g(1, [lam])
        by_sum = sum(t.dim_genus0([lam, mu, mu]) for mu in ws)
        assert direct == by_sum


# the sine rows hold ints of about 2^240 at the working precision's floor
SINE_SCALE = 1 << 240


@st.composite
def int_matrices(draw):
    """Square int matrices of size 1-6 whose entries are small, of any size
    up to the sine scale, or within 8 of +-SINE_SCALE."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-SINE_SCALE, SINE_SCALE),
        st.builds(lambda sign, d: sign * (SINE_SCALE - d),
                  st.sampled_from((1, -1)), st.integers(0, 8)),
    )
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


class TestDetProperties:
    """verlinde._det, the one elimination of the S and residue rows, against
    Gaussian elimination over Fraction."""

    @given(int_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    @example([[2, 0, 0], [0, 0, 3], [0, 5, 0]])
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_elimination(self, a):
        before = [list(row) for row in a]
        assert _det(a) == det_fraction(a)
        assert a == before

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_a_zero_pivot_at_each_position(self, a):
        # the leading (k+1)-minor vanishes, so the k-th pivot is 0: the corner
        # at k = 0, else row k repeating row 0 on the first k + 1 columns
        for k in range(len(a)):
            b = [list(row) for row in a]
            if k:
                b[k][:k + 1] = b[0][:k + 1]
            else:
                b[0][0] = 0
            assert _det(b) == det_fraction(b), k

    @given(int_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_zero_column_or_two_equal_rows_give_0(self, a, data):
        n = len(a)
        c = data.draw(st.integers(0, n - 1))
        assert _det([row[:c] + [0] + row[c + 1:] for row in a]) == 0
        if n > 1:
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            b = [list(row) for row in a]
            b[j] = list(b[i])
            assert _det(b) == 0 == det_fraction(b)


IDX = [(j, p) for j in range(-2, 3) for p in range(-2, 3)]


class TestBracketFidelity:
    @given(
        st.sampled_from(IDX),
        st.sampled_from(IDX),
        st.sampled_from(IDX),
        st.sampled_from(IDX),
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.sets(st.sampled_from([(tm, j, p) for tm in (-1, -3) for j, p in IDX]),
                min_size=0, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutator_is_bracket_plus_central(self, xu, xl, yu, yl, m, n, gens):
        v = FockVector.unit(FockState(NS, tuple(sorted(gens))))
        X = BilinearOp(xu, xl, m)
        Y = BilinearOp(yu, yl, n)
        lhs = apply_bilinear(X, apply_bilinear(Y, v)) - apply_bilinear(
            Y, apply_bilinear(X, v)
        )
        rhs = FockVector.zero()
        for lbl, c in bracket((xu, xl), (yu, yl)):
            rhs = rhs + QSqrt2(c) * apply_bilinear(
                BilinearOp(lbl[0], lbl[1], m + n), v
            )
        if m + n == 0:
            central = QSqrt2(F(m)) * QSqrt2(invariant_form((xu, xl), (yu, yl)))
            rhs = rhs + central * v
        assert lhs == rhs
