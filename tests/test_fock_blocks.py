"""Gauge-symmetry block evaluation: the worked minimal cases, the elliptic
2x2 matrix with its vanishing determinant, and order-independence."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from math import factorial

import pytest

from thetablocks.common import UnreducibleError
from thetablocks.fock import operators
from thetablocks.fock.blocks import PSI, PSITILDE, evaluate_block
from thetablocks.fock.coeff import QSqrt2
from thetablocks.fock.forms import psi_pair, psitilde
from thetablocks.fock.hwv import spin_hwv, spin_hwv_opposite
from thetablocks.fock.operators import BilinearOp, SlotExpression, apply_LR
from thetablocks.fock.ranklevel import (
    _complement_matrix,
    _matrix_slots,
    _ns_vacuum_slot,
    _representative,
    ranklevel_matrix,
)
from thetablocks.fock.states import NS, FockState, FockVector, clifford_apply
from thetablocks.weights import YoungDiagram, young_diagrams

from reference import apply_word, ns_monomial


@pytest.fixture(autouse=True)
def _cold_matrix_memo():
    """Each test sees a cold matrix memo, so a work count does not depend on
    which test evaluated the same complement before it."""
    _complement_matrix.cache_clear()


def lowered(v, *pairs):
    for j, p in reversed(pairs):
        v = clifford_apply((0, -j, -p), v)
    return v


def kacmoody_slot(v: FockVector) -> list:
    """Rewrite an NS vector of mode -1/2 monomials as a combination of
    mode -1 words over ground bases: consecutive wedge pairs become
    B^{x}_{-y}(-1) operators over the vacuum or a trailing single generator.

    Valid when no monomial contains a pair of opposite indices (then the
    operators create exactly their two factors); the rank-level monomials
    R^k(B^0_1) v_k all satisfy this.
    """
    out = []
    for state, coeff in v.terms.items():
        gens = state.wedge
        if any(tm != -1 for tm, _, _ in gens):
            raise ValueError(f"not a mode -1/2 monomial: {state}")
        idx = [(j, p) for _, j, p in gens]
        if any((-j, -p) in idx for j, p in idx):
            raise ValueError(f"opposite index pair in {state}: rewrite invalid")
        word = []
        k = 0
        while k + 1 < len(gens):
            (j1, p1), (j2, p2) = idx[k], idx[k + 1]
            word.append(BilinearOp((j1, p1), (-j2, -p2), -1))
            k += 2
        if k < len(gens):
            base = FockVector.unit(
                FockState(state.sector, (gens[k],), state.dual)
            )
        else:
            base = FockVector.unit(FockState(state.sector, (), state.dual))
        out.append((coeff, SlotExpression(tuple(word), base)))
    return out


def combination_block(terms, v2: FockVector, v3: FockVector, form: str) -> QSqrt2:
    """The block of sum c e (x) v2 (x) v3 over the (c, e) terms of a
    kacmoody_slot rewrite, evaluated term by term: the block is linear in
    its first slot."""
    s2, s3 = SlotExpression((), v2), SlotExpression((), v3)
    return sum((c * evaluate_block(e, s2, s3, form) for c, e in terms), QSqrt2(0))


class TestForms:
    def test_matched_wedges_pair_to_one(self):
        y = YoungDiagram.parse("[1]")
        assert psi_pair(spin_hwv(y, 2, 2), spin_hwv_opposite(y, 2, 2)) == QSqrt2(F(1))

    def test_mismatch_pairs_to_zero(self):
        a = spin_hwv(YoungDiagram.parse("[1]"), 2, 2)
        b = spin_hwv_opposite(YoungDiagram.parse("[2]"), 2, 2)
        assert not psi_pair(a, b)

    def test_degree_mismatch_zero(self):
        a = spin_hwv(YoungDiagram.parse("[]"), 2, 2)
        b = spin_hwv_opposite(YoungDiagram.parse("[1]"), 2, 2)
        assert not psi_pair(a, b)

    def test_psitilde_case_II(self):
        # removing one box: a = phi^{i_k} picks out the unmatched factor
        y = YoungDiagram.parse("[1]")
        v = spin_hwv(y, 2, 2)
        w = spin_hwv_opposite(y, 2, 2)
        a = FockVector.unit(FockState(NS, ((-1, 1, 0),)))
        assert psitilde(a, lowered(v, (1, 0)), w) == QSqrt2(F(1))

    def test_psitilde_case_I_zero_mode(self):
        # equal degrees: only the phi^{0,0} slot pairs, with the 1/sqrt2 factor
        y = YoungDiagram.parse("[1]")
        v = spin_hwv(y, 2, 2)
        w = spin_hwv_opposite(y, 2, 2)
        a0 = FockVector.unit(FockState(NS, ((-1, 0, 0),)))
        got = psitilde(a0, v, w)
        assert got == QSqrt2(F(0), F(-1, 2))  # (-1)^deg / sqrt2, deg = 3
        a1 = FockVector.unit(FockState(NS, ((-1, 1, 1),)))
        assert not psitilde(a1, v, w)


class TestWorkedExamples:
    def test_omega2_case(self):
        """The worked Y = omega_2 reduction: value +2 times the base pairing."""
        r = s = 2
        v = spin_hwv(YoungDiagram(()), r, s)
        vopp = spin_hwv_opposite(YoungDiagram(()), r, s)
        rv2 = ns_monomial((1, 1), (2, 1))
        for _ in range(2):
            rv2 = apply_LR(0, 1, 0, "R", rv2, r, s)
        val = combination_block(kacmoody_slot(rv2), lowered(v, (1, 0), (2, 0)), vopp, PSI)
        assert val == QSqrt2(F(2))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_minimal_case_factorial(self, k):
        r, s = max(2, k), 2
        vfull = spin_hwv(YoungDiagram(()), r, s)
        vopp = spin_hwv_opposite(YoungDiagram(()), r, s)
        cur = ns_monomial(*[(j, 1) for j in range(1, k + 1)])
        for _ in range(k):
            cur = apply_LR(0, 1, 0, "R", cur, r, s)
        slot2 = lowered(vfull, *[(j, 0) for j in range(1, k + 1)])
        form = PSI if k % 2 == 0 else PSITILDE
        val = combination_block(kacmoody_slot(cur), slot2, vopp, form)
        assert val == QSqrt2(F(factorial(k)))

    def test_ground_slots_reduce_to_forms(self):
        y = YoungDiagram.parse("[2,1]")
        v, w = spin_hwv(y, 2, 2), spin_hwv_opposite(y, 2, 2)
        assert evaluate_block(
            _ns_vacuum_slot(), SlotExpression((), v), SlotExpression((), w), PSI
        ) == psi_pair(v, w)


class TestRankLevelMatrix:
    def test_determinant_vanishes_22(self):
        m = ranklevel_matrix(YoungDiagram.parse("[1]"), 2, 2)
        assert not m.determinant
        a11, a12 = m.entries[0]
        a21, a22 = m.entries[1]
        assert a11 == QSqrt2(F(1))
        assert a12 == QSqrt2(F(-1, 2))
        assert a21 == QSqrt2(F(0), F(1, 4))
        assert a22 == QSqrt2(F(0), F(-1, 8))
        for row in m.entries:
            for entry in row:
                assert entry  # all four entries nonzero

    def test_determinant_vanishes_23(self):
        m = ranklevel_matrix(YoungDiagram.parse("[2]"), 2, 3)
        assert not m.determinant
        assert all(entry for row in m.entries for entry in row)

    def test_entry_identities(self):
        """Removing the unmatched box via psitilde agrees with the plain
        pairing, for both the base diagram and its filled variant."""
        r = s = 2
        a = FockVector.unit(FockState(NS, ((-1, 1, 0),)))
        for y in (YoungDiagram.parse("[1]"), YoungDiagram.parse("[2]")):
            v, w = spin_hwv(y, r, s), spin_hwv_opposite(y, r, s)
            assert psitilde(a, lowered(v, (1, 0)), w) == psi_pair(v, w)

    def test_box_preconditions(self):
        with pytest.raises(ValueError):
            ranklevel_matrix(YoungDiagram.parse("[2]"), 2, 2)  # first row = s
        with pytest.raises(ValueError):
            ranklevel_matrix(YoungDiagram.parse("[]"), 2, 2)  # first row != s-1


class TestOrderIndependence:
    def test_a22_all_strip_orders(self):
        _, _, _, vbar, vbar_op, tilde = _matrix_slots(YoungDiagram.parse("[1]"), 2, 2)
        vals = {
            str(
                evaluate_block(
                    tilde, vbar, vbar_op, PSITILDE, strip_order=order * 3
                )
            )
            for order in itertools.permutations((0, 1, 2))
        }
        assert vals == {"-1/8√2"}

    def test_a12_both_orders(self):
        vac, _, _, vbar, vbar_op, _ = _matrix_slots(YoungDiagram.parse("[1]"), 2, 2)
        for order in ((1, 2), (2, 1)):
            val = evaluate_block(vac, vbar, vbar_op, PSI, strip_order=order)
            assert val == QSqrt2(F(-1, 2))


class TestUnreducible:
    def test_non_ground_residue_raises(self):
        # a depth-one Ramond state with no symbolic handle cannot be paired
        r = s = 2
        stuck = clifford_apply((-2, 1, 1), spin_hwv(YoungDiagram(()), r, s))
        with pytest.raises(UnreducibleError):
            evaluate_block(
                _ns_vacuum_slot(),
                SlotExpression((), stuck),
                SlotExpression((), spin_hwv_opposite(YoungDiagram(()), r, s)),
                PSI,
            )

    def test_kacmoody_slot_guards(self):
        with pytest.raises(ValueError):
            kacmoody_slot(ns_monomial((1, 1), (-1, -1)))  # opposite index pair


# Entries a11,a12,a21,a22 and determinant of every rank-level matrix with
# r <= 3, s <= 4, as strings; recorded from the Fraction-backed coefficient
# ring that preceded the int-backed one.
PINNED_SCAN = {
    "r2s2:[1]": ("1,-1/2,1/4√2,-1/8√2", "0"),
    "r2s2:[1,1]": ("1,-1/2,-1/4√2,1/8√2", "0"),
    "r2s3:[2]": ("1,-1/2,-1/4√2,1/8√2", "0"),
    "r2s3:[2,2]": ("1,-1/2,-1/4√2,1/8√2", "0"),
    "r2s3:[2,1]": ("1,-1/2,1/4√2,-1/8√2", "0"),
    "r2s4:[3]": ("1,-1/2,1/4√2,-1/8√2", "0"),
    "r2s4:[3,3]": ("1,-1/2,-1/4√2,1/8√2", "0"),
    "r2s4:[3,2]": ("1,-1/2,1/4√2,-1/8√2", "0"),
    "r2s4:[3,1]": ("1,-1/2,-1/4√2,1/8√2", "0"),
    "r3s2:[1]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s2:[1,1]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s2:[1,1,1]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s3:[2]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s3:[2,2]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s3:[2,2,2]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s3:[2,2,1]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s3:[2,1]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s3:[2,1,1]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3,3]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s4:[3,3,3]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3,3,2]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s4:[3,3,1]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3,2]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3,2,2]": ("1,-1/2,-1/8√2,1/16√2", "0"),
    "r3s4:[3,2,1]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s4:[3,1]": ("1,-1/2,1/8√2,-1/16√2", "0"),
    "r3s4:[3,1,1]": ("1,-1/2,-1/8√2,1/16√2", "0"),
}


def _scan(rmax: int, smax: int) -> dict:
    out = {}
    for r in range(2, rmax + 1):
        for s in range(2, smax + 1):
            for y in young_diagrams(r, s - 1):
                if y.row(1) == s - 1:
                    m = ranklevel_matrix(y, r, s)
                    entries = ",".join(str(e) for row in m.entries for e in row)
                    out[f"r{r}s{s}:{y}"] = (entries, str(m.determinant))
    return out


def _entries(slots, strip_order=None) -> str:
    vac, v, v_op, vbar, vbar_op, tilde = slots
    vals = (
        evaluate_block(vac, v, v_op, PSI, strip_order),
        evaluate_block(vac, vbar, vbar_op, PSI, strip_order),
        evaluate_block(tilde, v, v_op, PSITILDE, strip_order),
        evaluate_block(tilde, vbar, vbar_op, PSITILDE, strip_order),
    )
    return ",".join(map(str, vals))


class TestPinnedScan:
    def test_scan_reproduces_the_pinned_strings(self):
        assert _scan(3, 4) == PINNED_SCAN


class TestSlotMemo:
    """value() and tail() memoize on the expression without changing what
    it is or what blocks built from it evaluate to."""

    def test_memo_leaves_eq_hash_repr(self):
        y = YoungDiagram.parse("[2,1]")
        for used, fresh in zip(_matrix_slots(y, 3, 3), _matrix_slots(y, 3, 3)):
            used.value()
            used.tail().value()
            assert used == fresh and fresh == used
            assert hash(used) == hash(fresh)
            assert repr(used) == repr(fresh)
            assert used.value() == fresh.value()
            assert used.tail() == SlotExpression(fresh.ops[1:], fresh.base)

    def test_value_applies_the_word(self):
        _, _, _, _, _, tilde = _matrix_slots(YoungDiagram.parse("[2,1]"), 3, 3)
        assert tilde.value() == apply_word(tilde.ops, tilde.base)
        assert tilde.tail().ops == tilde.ops[1:] and tilde.tail().base is tilde.base

    def test_reused_slots_give_the_same_blocks_in_every_order(self):
        y = YoungDiagram.parse("[2,1]")
        slots = _matrix_slots(y, 3, 3)
        expected = PINNED_SCAN["r3s3:[2,1]"][0]
        orders = [None] + [order * 4 for order in itertools.permutations((0, 1, 2))]
        for order in orders:
            assert _entries(slots, order) == expected
            assert _entries(slots, order) == expected


def _count_bilinears(monkeypatch) -> list:
    """The list every fock-module call of apply_bilinear appends its op to."""
    original = operators.apply_bilinear
    calls = []

    def counted(op, v):
        calls.append(op)
        return original(op, v)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("thetablocks.fock")
                and getattr(mod, "apply_bilinear", None) is original):
            monkeypatch.setattr(mod, "apply_bilinear", counted)
    return calls


class TestComplementMemo:
    """The matrix depends on (Y, s) only through the complement
    c_j = s - Y_j, so one memo entry per (r, c) serves every box."""

    def test_slots_depend_only_on_the_complement(self):
        """Over the perfbench fock box (2 <= r <= 5, 2 <= s <= 6) every
        diagram's slots equal those of its smallest-box representative; the
        451 diagrams have 209 distinct complements."""
        keys, mismatches, scanned = set(), [], 0
        for r in range(2, 6):
            for s in range(2, 7):
                for y in young_diagrams(r, s - 1):
                    if y.row(1) != s - 1:
                        continue
                    comp = tuple(s - y.row(j) for j in range(1, r + 1))
                    y0, s0 = _representative(comp)
                    assert y0.row(1) == s0 - 1 and y0.fits(r, s0 - 1) and s0 <= s
                    if _matrix_slots(y, r, s) != _matrix_slots(y0, r, s0):
                        mismatches.append(f"r{r}s{s}:{y}")
                    keys.add((r, comp))
                    scanned += 1
        assert mismatches == []
        assert (scanned, len(keys)) == (451, 209)

    def test_equal_complement_applies_no_bilinear(self, monkeypatch):
        """[2,1] at s = 3 and [3,2,1] at s = 4 share the complement (1,2,3):
        the second matrix comes from the memo and carries its own Y and s."""
        ranklevel_matrix(YoungDiagram.parse("[2,1]"), 3, 3)
        calls = _count_bilinears(monkeypatch)
        m = ranklevel_matrix(YoungDiagram.parse("[3,2,1]"), 3, 4)
        assert calls == []
        assert (str(m.y), m.r, m.s) == ("[3,2,1]", 3, 4)
        entries = ",".join(str(e) for row in m.entries for e in row)
        assert (entries, str(m.determinant)) == PINNED_SCAN["r3s4:[3,2,1]"]

    def test_memo_is_bounded_and_holds_the_fock_box(self):
        maxsize = _complement_matrix.cache_info().maxsize
        assert maxsize is not None and maxsize >= 209


class TestWorkGuard:
    def test_bilinear_calls_of_one_matrix(self, monkeypatch):
        """Each slot value is computed once per expression, and a reduction
        step evaluates only its two target slots: the 2x2 matrix of
        (r, s, Y) = (3, 3, [2,1]) applies 38 bilinears (44 when each step
        also evaluated the slot it strips, 72 when every step re-applied
        each slot's whole word)."""
        calls = _count_bilinears(monkeypatch)
        m = ranklevel_matrix(YoungDiagram.parse("[2,1]"), 3, 3)
        assert ",".join(str(e) for row in m.entries for e in row) == (
            PINNED_SCAN["r3s3:[2,1]"][0]
        )
        assert len(calls) == 38

    def test_bilinear_calls_of_the_small_scan(self, monkeypatch):
        """With a cold matrix memo, the 28 diagrams with r <= 3, s <= 4 (14
        distinct complements) apply 512 bilinears (592 when each reduction
        step also evaluated the slot it strips)."""
        calls = _count_bilinears(monkeypatch)
        assert _scan(3, 4) == PINNED_SCAN
        assert _complement_matrix.cache_info().currsize == 14
        assert len(calls) == 512

    def test_vector_constructions_of_one_matrix(self, monkeypatch):
        """A bilinear builds one FockVector per call, however many mode splits
        act, a wedge vector builds one, and the two Psi entries share one
        vacuum slot: the same matrix builds 50 vectors (56 when each reduction
        step also evaluated the slot it strips, 57 with a vacuum slot per
        entry besides, 79 when each wedge generator built one through
        clifford_apply, 500 when each split built a unit vector and each
        partial sum copied the output)."""
        original = FockVector.__init__
        built = []

        def counted(self, terms=None):
            built.append(1)
            original(self, terms)

        monkeypatch.setattr(FockVector, "__init__", counted)
        m = ranklevel_matrix(YoungDiagram.parse("[2,1]"), 3, 3)
        assert ",".join(str(e) for row in m.entries for e in row) == (
            PINNED_SCAN["r3s3:[2,1]"][0]
        )
        assert len(built) == 50

    def test_checked_state_constructions_of_one_matrix(self, monkeypatch):
        """Clifford images are derived from their source states unchecked and
        a wedge vector checks its one state: the same matrix runs the checks
        of the public FockState constructor 6 times (7 with a vacuum slot
        per Psi entry, 95 when every image state and every wedge step was
        checked)."""
        original = FockState.__post_init__
        checked = []

        def counted(self):
            checked.append(1)
            original(self)

        monkeypatch.setattr(FockState, "__post_init__", counted)
        m = ranklevel_matrix(YoungDiagram.parse("[2,1]"), 3, 3)
        assert ",".join(str(e) for row in m.entries for e in row) == (
            PINNED_SCAN["r3s3:[2,1]"][0]
        )
        assert len(checked) == 6


class TestScanScript:
    SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "strange_duality_scan.py")

    def run(self, *args):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        return subprocess.run(
            [sys.executable, self.SCRIPT, *args],
            capture_output=True, text=True, env=env, timeout=300,
        )

    @pytest.mark.parametrize("args", [("x",), ("2.5", "3"), ("1", "1"), ("2", "1"), ("3", "3", "3")])
    def test_bad_arguments_print_usage_and_exit_1(self, args):
        proc = self.run(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: ")

    def test_scan_ends_with_its_count_and_time(self):
        proc = self.run("2", "3")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 7
        assert lines[-2] == "all determinants vanish"
        assert lines[-1].startswith("5 matrices scanned in ") and lines[-1].endswith(" s")
