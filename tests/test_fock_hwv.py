"""Highest-weight property suite: every constructed branching vector is
annihilated by all positive modes and by the mode-0 raising operators of both
embedded algebras, with the claimed diagonal eigenvalues."""

from fractions import Fraction as F

import pytest

from thetablocks.fock.hwv import ns_column_hwv, sigma_twist_hwv, so_pair_hwv, spin_hwv
from thetablocks.fock.operators import apply_LR
from thetablocks.rootsys import Weight
from thetablocks.weights import sigma, star, transpose, young_diagrams

from reference import weight_of_young

R_, S_ = 2, 2


def raising_indices(n):
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append((i, j))  # root L_i - L_j
            out.append((i, -j))  # root L_i + L_j
        out.append((i, 0))  # root L_i
    return out


def assert_hwv(w, lam_coords, mu_coords):
    assert w, "vector vanished"
    for side, n in (("L", R_), ("R", S_)):
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                if (i, j) == (0, 0):
                    continue
                for mode in (1, 2, 3):
                    assert not apply_LR(i, j, mode, side, w, R_, S_), (
                        side,
                        (i, j),
                        mode,
                    )
        for i, j in raising_indices(n):
            assert not apply_LR(i, j, 0, side, w, R_, S_), (side, (i, j))
    for side, n, coords in (("L", R_, lam_coords), ("R", S_, mu_coords)):
        for i in range(1, n + 1):
            assert apply_LR(i, i, 0, side, w, R_, S_) == coords[i - 1] * w, (side, i)


@pytest.mark.parametrize("y", young_diagrams(R_, S_), ids=str)
def test_spin_components(y):
    lam = weight_of_young(y, R_, spin=True)
    mu = weight_of_young(star(y, R_, S_), S_, spin=True)
    assert_hwv(spin_hwv(y, R_, S_), lam.coords, mu.coords)


@pytest.mark.parametrize("y", young_diagrams(R_, S_), ids=str)
def test_ns_pair_components(y):
    lam = weight_of_young(y, R_)
    mu = weight_of_young(transpose(y), S_)
    assert_hwv(so_pair_hwv(y, R_, S_), lam.coords, mu.coords)


@pytest.mark.parametrize("y", young_diagrams(R_, S_ - 1), ids=str)
def test_sigma_twisted_components(y):
    lam = weight_of_young(y, R_, spin=True)
    mu = weight_of_young(star(y, R_, S_), S_, spin=True)
    slam = sigma(lam, 2 * S_ + 1)
    assert_hwv(sigma_twist_hwv(y, R_, S_), slam.coords, mu.coords)


def test_ns_column_component():
    mu = tuple([F(2 * R_ + 1)] + [F(0)] * (S_ - 1))
    assert_hwv(ns_column_hwv(R_, S_), Weight.zero(R_).coords, mu)
