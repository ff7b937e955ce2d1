"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here: the trig confirmation at 1e-6 (the engine's
DEFAULT_TOL: dim_trig joins its integer from exact residues, then raises if
its trig sum lies farther than that from it), everything else exact integer
or Q[sqrt(2)] arithmetic.  Stated runtime budgets are asserted.  A criterion
that is also a row of the golden-number table (`thetablocks.goldens`) runs
that row and reads its wanted value from there, inside the criterion's
budget.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import factorial

from thetablocks import goldens
from thetablocks.branching import branch_pairs
from thetablocks.common import theta_counts
from thetablocks.fock.algebra import bracket, invariant_form
from thetablocks.fock.coeff import INV_SQRT2, QSqrt2
from thetablocks.fock.forms import psi_pair, psitilde
from thetablocks.fock.hwv import (
    ns_column_hwv,
    sigma_twist_hwv,
    so_pair_hwv,
    spin_hwv,
    spin_hwv_opposite,
)
from thetablocks.fock.operators import BilinearOp, apply_LR, apply_bilinear
from thetablocks.fock.ranklevel import ranklevel_matrix
from thetablocks.fock.states import NS, FockState, FockVector, clifford_apply
from thetablocks.fusion import FusionTable, LevelOneTable
from thetablocks.rootsys import Weight, _weight_multiplicities_dbl, weyl_dim
from thetablocks.verlinde import DEFAULT_TOL, dim_trig
from thetablocks.weights import (
    YoungDiagram,
    enumerate_level,
    sigma,
    star,
    transpose,
    young_diagrams,
)

from reference import (
    golden_rows,
    ns_monomial,
    orbit_size,
    tensor_product,
    want,
    weight_of_young,
)


def announce(number, title, started):
    print(f"ACCEPTANCE {number:>2} PASS  {title}  ({time.monotonic()-started:.2f} s)")


def run_goldens(prefix):
    """Run every golden row whose name starts with `prefix`."""
    ctx = goldens.context()
    ran = golden_rows(prefix)
    assert ran, prefix
    for row in ran:
        assert row.compute(ctx) == row.want, row.name


def test_acceptance_01_level_one_closed_forms():
    started = time.monotonic()
    run_goldens("N_")  # omega_1 on the Kac-Walton table, spin weights at r = 2, 5
    for r in (2, 5):
        ring = LevelOneTable(r)
        w1 = Weight.fundamental(r, 1)
        for g in range(2, 6):
            assert ring.dim_genus_g(g, [w1]) == want(f"N_{g}(omega_1, level 1)")
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f} s"
    announce(1, "level-one closed forms, r = 2 and r = 5, exact, < 1 s", started)


def test_acceptance_02_twisted_total_level_one():
    started = time.monotonic()
    run_goldens("twisted total level 1")  # r = 2
    for g in (2, 3):
        vac = dim_trig(g, [], 3, 1)
        top = dim_trig(g, [Weight.fundamental(3, 1)], 3, 1)
        assert vac + top == 2 ** (2 * g) == theta_counts(g)[0]
    announce(2, "twisted total at level one equals 2^(2g) = |Th(C)|", started)


def test_acceptance_03_oxbury_wilson():
    started = time.monotonic()
    run_goldens("Oxbury-Wilson")  # (r, s) in {(2, 2), (2, 3)}, g in {2, 3}
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f} s"
    announce(3, "Oxbury-Wilson symmetry, (r,s) in {(2,2),(2,3)}, g in {2,3}", started)


def test_acceptance_04_failure_examples_cold_cache(tmp_path):
    started = time.monotonic()
    script = (
        "from thetablocks.branching import ranklevel_example\n"
        "for n in (1, 2, 3):\n"
        "    rep = ranklevel_example(n, cache_dir=%r)\n"
        "    print(n, rep.dim_source, rep.dim_target, rep.dim_level1)\n"
    ) % str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    got = {}
    for line in proc.stdout.splitlines():
        n, a, b, c = (int(x) for x in line.split())
        got[n] = (a, b, c)
    assert got == {n: want(f"rank-level failure example {n}:") for n in (1, 2, 3)}
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"budget exceeded: {elapsed:.1f} s"
    announce(4, "failure examples (4,5), (3,4), (14,20), level-one blocks 1, cold cache", started)


def test_acceptance_05_dual_oracle_equivalence():
    started = time.monotonic()
    assert DEFAULT_TOL == 1e-6  # the pinned trig confirmation tolerance
    checked = 0
    for r, lmax in ((2, 4), (3, 3)):
        for ell in range(1, lmax + 1):
            t = FusionTable(r, ell)
            ws = t.weights()
            for a, b, c in itertools.product(ws, repeat=3):
                assert t.triple(a, b, c) == dim_trig(0, [a, b, c], r, ell)
                checked += 1
    assert checked > 5000
    announce(5, f"dual-oracle agreement on {checked} triples (r=2 l<=4, r=3 l<=3)", started)


def test_acceptance_06_littlewood_richardson_anchors():
    started = time.monotonic()
    for r in (2, 3, 4):
        wr = Weight.fundamental(r, r).d
        allowed = [Weight.fundamental(r, i) for i in range(r)]
        allowed.append(Weight((F(1),) * r))
        assert tensor_product(wr, wr) == {w.d: 1 for w in allowed}
    rng = random.Random(20260809)
    for r, ell in ((2, 5), (3, 7)):
        t = FusionTable(r, ell)
        spins = [w for w in t.weights() if not w.is_so]
        sample = rng.sample(spins, min(30, len(spins)))
        w1 = Weight.fundamental(r, 1)
        for lam in sample:
            assert t.triple(lam, lam, w1) == 1, lam
    announce(6, "Littlewood-Richardson anchors and diagonal one-dimensionality", started)


def test_acceptance_07_clifford_appendix_goldens():
    started = time.monotonic()

    # single and cubed R-actions
    run_goldens("Clifford")
    # Prop k=2 monomial/coefficient multiset (one recorded global sign: +)
    got = apply_LR(0, 1, 0, "R", apply_LR(0, 1, 0, "R", ns_monomial((1, 1), (2, 1)), 2, 2), 2, 2)
    assert got == (
        2 * ns_monomial((1, 0), (2, 0))
        - ns_monomial((1, -1), (2, 1))
        - ns_monomial((1, 1), (2, -1))
    )
    # k-fold R-action: k! leading coefficient, k <= 5
    for k in range(1, 6):
        v = ns_monomial(*[(j, 1) for j in range(1, k + 1)])
        for _ in range(k):
            v = apply_LR(0, 1, 0, "R", v, 5, 2)
        leadk = FockState(NS, tuple((-1, j, 0) for j in range(1, k + 1)))
        assert v.coefficient(leadk) == factorial(k)
    # embedded left-action wedge outputs
    full = spin_hwv(YoungDiagram(()), 4, 2)
    for k, m in ((1, 2), (2, 3), (3, 4)):
        got = apply_LR(-k, k + 1, 0, "L", full, 4, 2)
        want = clifford_apply((0, -k, 0), clifford_apply((0, -(k + 1), 0), full))
        assert got == want
    # diagonal 1/2 eigenvalue and the phi_{1,0} creation identity
    y = YoungDiagram.parse("[1]")
    v = spin_hwv(y, 2, 2)
    for i in (1, 2):
        assert apply_bilinear(BilinearOp((i, 0), (i, 0), 0), v) == F(1, 2) * v
    got = apply_bilinear(BilinearOp((0, 0), (1, 0), 0), v)
    sign = (-1) ** (2 * 2 - y.size + 1)
    assert got == sign * INV_SQRT2 * clifford_apply((0, -1, 0), v)
    announce(7, "Clifford goldens (R-action k=1,2,3, k! leading, left action, zero modes)", started)


def _assert_hwv(w, lam_coords, mu_coords, r, s):
    assert w
    raising = lambda n: (
        [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        + [(i, -j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        + [(i, 0) for i in range(1, n + 1)]
    )
    for side, n in (("L", r), ("R", s)):
        for i in range(-n, n + 1):
            for j in range(-n, n + 1):
                if (i, j) == (0, 0):
                    continue
                for mode in (1, 2, 3):
                    assert not apply_LR(i, j, mode, side, w, r, s)
        for i, j in raising(n):
            assert not apply_LR(i, j, 0, side, w, r, s)
    for side, n, coords in (("L", r, lam_coords), ("R", s, mu_coords)):
        for i in range(1, n + 1):
            assert apply_LR(i, i, 0, side, w, r, s) == coords[i - 1] * w


def test_acceptance_08_highest_weight_suite():
    started = time.monotonic()
    r = s = 2
    for y in young_diagrams(r, s):
        lam = weight_of_young(y, r, spin=True)
        mu = weight_of_young(star(y, r, s), s, spin=True)
        _assert_hwv(spin_hwv(y, r, s), lam.coords, mu.coords, r, s)
        lam2 = weight_of_young(y, r)
        mu2 = weight_of_young(transpose(y), s)
        _assert_hwv(so_pair_hwv(y, r, s), lam2.coords, mu2.coords, r, s)
    for y in young_diagrams(r, s - 1):
        lam = weight_of_young(y, r, spin=True)
        mu = weight_of_young(star(y, r, s), s, spin=True)
        _assert_hwv(
            sigma_twist_hwv(y, r, s), sigma(lam, 2 * s + 1).coords, mu.coords, r, s
        )
    _assert_hwv(
        ns_column_hwv(r, s),
        Weight.zero(r).coords,
        tuple([F(2 * r + 1)] + [F(0)] * (s - 1)),
        r,
        s,
    )
    announce(8, "highest-weight invariant suite, r = s = 2, all branching kinds", started)


def test_acceptance_09_strange_duality_failure():
    started = time.monotonic()
    run_goldens("strange duality det A = 0")  # exactly zero in Q[sqrt(2)]
    m = ranklevel_matrix(YoungDiagram.parse("[1]"), 2, 2)
    assert all(e for row in m.entries for e in row)
    a = FockVector.unit(FockState(NS, ((-1, 1, 0),)))
    for rows in ("[1]", "[2]"):
        y = YoungDiagram.parse(rows)
        v, w = spin_hwv(y, 2, 2), spin_hwv_opposite(y, 2, 2)
        assert psitilde(a, clifford_apply((0, -1, 0), v), w) == psi_pair(v, w)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f} s"
    announce(9, "strange-duality failure: det A = 0 exactly, entry identities exact", started)


def test_acceptance_10_sewing_exponents():
    started = time.monotonic()
    run_goldens("sewing exponents")
    assert [len(branch_pairs(lab, 2, 2)) for lab in ("0", "1", "d")] == [8, 10, 12]
    announce(10, "sewing exponents at (2,2): all branching pairs give m in Z>=0", started)


def test_acceptance_11_invariant_property_checks():
    started = time.monotonic()
    # sigma involution
    for r, ell in ((2, 5), (3, 4)):
        for w in enumerate_level(r, ell):
            assert sigma(sigma(w, ell), ell) == w
    # fusion sigma-equivariance (even twist count)
    t = FusionTable(2, 3)
    ws = t.weights()
    for a, b in itertools.product(ws, repeat=2):
        assert t.product(a, b) == t.product(sigma(a, 3), sigma(b, 3))
    # factorization order-independence on random 5-point inputs
    rng = random.Random(99)
    for _ in range(20):
        lams = [rng.choice(ws) for _ in range(5)]
        perm = lams[:]
        rng.shuffle(perm)
        assert t.dim_genus0(lams) == t.dim_genus0(perm)
    # bracket fidelity on random operators and states
    idx = [(j, p) for j in range(-2, 3) for p in range(-2, 3)]
    for _ in range(50):
        xu, xl, yu, yl = (rng.choice(idx) for _ in range(4))
        m, n = rng.choice([-2, -1, 0, 1, 2]), rng.choice([-2, -1, 0, 1, 2])
        pool = [(-1, j, p) for j, p in idx] + [(-3, j, p) for j, p in idx]
        gens = tuple(sorted(rng.sample(pool, rng.randint(0, 3))))
        v = FockVector.unit(FockState(NS, gens))
        X, Y = BilinearOp(xu, xl, m), BilinearOp(yu, yl, n)
        lhs = apply_bilinear(X, apply_bilinear(Y, v)) - apply_bilinear(
            Y, apply_bilinear(X, v)
        )
        rhs = FockVector.zero()
        for lbl, c in bracket((xu, xl), (yu, yl)):
            rhs = rhs + QSqrt2(c) * apply_bilinear(BilinearOp(*lbl, m + n), v)
        if m + n == 0:
            rhs = rhs + (QSqrt2(F(m)) * QSqrt2(invariant_form((xu, xl), (yu, yl)))) * v
        assert lhs == rhs
    # Freudenthal / Weyl-dimension consistency
    for coords in ("2,1", "3/2,3/2", "2,1,0", "5/2,3/2,1/2"):
        lam_d = Weight.parse(coords).d
        mults = _weight_multiplicities_dbl(lam_d)
        assert sum(orbit_size(mu) * k for mu, k in mults.items()) == weyl_dim(lam_d)
    announce(11, "invariant property checks (sigma, equivariance, ordering, bracket, Freudenthal)", started)
