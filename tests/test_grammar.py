from fractions import Fraction as F

import pytest

from thetablocks.fock.coeff import QSqrt2
from thetablocks.fock.grammar import GrammarError, evaluate, parse_expression
from thetablocks.fock.hwv import spin_hwv
from thetablocks.fock.operators import BilinearOp
from thetablocks.fock.states import NS, FockState, FockVector, clifford_apply
from thetablocks.weights import YoungDiagram


class TestParsing:
    def test_generator_atoms(self):
        e = parse_expression("phi^{1,1}(-1/2)")
        assert e.base == FockVector.unit(FockState(NS, ((-1, 1, 1),)))
        e = parse_expression("phi_{1,0}(0)·v[1]", 2, 2)
        want = clifford_apply((0, -1, 0), spin_hwv(YoungDiagram.parse("[1]"), 2, 2))
        assert e.base == want

    def test_operator_word_stays_symbolic(self):
        e = parse_expression("B{1,1;0,0}(-1)·v[2]", 2, 2)
        assert e.ops == (BilinearOp((1, 1), (0, 0), -1),)

    def test_non_minus_one_ops_apply(self):
        e = parse_expression("B{1,0;1,0}(0)·v[1]", 2, 2)
        assert e.ops == ()
        assert e.base == F(1, 2) * spin_hwv(YoungDiagram.parse("[1]"), 2, 2)

    def test_separator_variants(self):
        for sep in ("·", "*", "."):
            e = parse_expression(f"phi^{{1,1}}(-1/2){sep}phi^{{2,1}}(-1/2)")
            assert len(e.base.terms) == 1

    def test_errors(self):
        with pytest.raises(GrammarError):
            parse_expression("nonsense")
        with pytest.raises(GrammarError):
            parse_expression("v[1]")  # needs r, s
        with pytest.raises(GrammarError):
            parse_expression("B{0,1;1,1}(-1/2)·1")  # half-integer op mode
        with pytest.raises(GrammarError):
            parse_expression("B{0,1;1,1}(-1)")  # no base

    @pytest.mark.parametrize("expr", [
        "phi^{9,9}(-1/2)·1",
        "phi^{3,0}(-1/2)·1",
        "phi_{0,-3}(0)·v[1]",
        "B{9,9;0,0}(-1)·v[2]",
        "B{0,0;0,3}(0)·v[1]",
        "B{1,1;-3,1}(-1)·v[1]",
    ])
    def test_index_outside_the_grid_is_rejected(self, expr):
        with pytest.raises(GrammarError, match="out of range"):
            parse_expression(expr, 2, 2)

    def test_indices_on_the_grid_edge_parse(self):
        e = parse_expression("B{2,-2;-2,2}(-1)·phi_{2,2}(-1/2)·1", 2, 2)
        assert e.ops == (BilinearOp((2, -2), (-2, 2), -1),)
        assert e.base == FockVector.unit(FockState(NS, ((-1, -2, -2),)))

    def test_without_r_and_s_indices_are_not_checked(self):
        e = parse_expression("phi^{9,9}(-1/2)")
        assert e.base == FockVector.unit(FockState(NS, ((-1, 9, 9),)))


class TestEvaluate:
    def test_single_bilinear_via_grammar(self):
        got = evaluate("B{0,0;0,1}(0)·phi^{0,1}(-1/2)")
        # a single bilinear term of R(B^0_1) acting on phi^{0,1}
        assert isinstance(got, FockVector)

    def test_psi_block(self):
        val = evaluate(
            "Psi(1 ; B{1,1;0,0}(-1)·v[2] ; B{0,0;1,1}(-1)·vopp[2])", 2, 2
        )
        assert val == QSqrt2(F(-1, 2))

    def test_psitilde_block(self):
        val = evaluate(
            "PsiTilde(phi^{1,0}(-1/2) ; phi_{1,0}(0)·v[1] ; vopp[1])", 2, 2
        )
        assert val == QSqrt2(F(1))

    def test_form_needs_three_slots(self):
        with pytest.raises(GrammarError):
            evaluate("Psi(1 ; v[1])", 2, 2)

    @pytest.mark.parametrize("r, s", [(2, -1), (-1, 2), (-3, -3)])
    def test_negative_r_or_s_is_rejected(self, r, s):
        with pytest.raises(GrammarError, match="must be >= 0"):
            evaluate("Psi(1; v[]; vopp[])", r, s)
        with pytest.raises(GrammarError, match="must be >= 0"):
            evaluate("B{0,0;0,1}(0)·phi^{0,1}(-1/2)", r, s)
