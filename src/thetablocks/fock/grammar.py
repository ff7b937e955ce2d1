"""Tiny expression grammar for the command-line Clifford evaluator.

Atoms:
    phi^{j,p}(m)   raised generator at mode m (m integer or half-integer)
    phi_{j,p}(m)   lowered generator, i.e. phi^{-j,-p}(m)
    B{i,p;k,q}(m)  normal-ordered bilinear B^{i,p}_{k,q}(m)
    v[rows]        ground vector v_Y (R sector), e.g. v[], v[1], v[2,1]
    vopp[rows]     the opposite ground vector v^Y
    1              the NS vacuum

Atoms are separated by "·", "*" or ".", applied right to left like an
operator word.  Psi(e1; e2; e3) and PsiTilde(e1; e2; e3) evaluate a
three-point block by gauge reduction; in a block slot a leading run of
mode -1 bilinears stays symbolic, everything else is applied concretely.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .blocks import PSI, PSITILDE, evaluate_block
from .hwv import spin_hwv, spin_hwv_opposite
from .operators import BilinearOp, SlotExpression, apply_bilinear
from .states import NS, FockVector, clifford_apply, vacuum
from ..weights import YoungDiagram


class GrammarError(ValueError):
    pass


_GEN = re.compile(r"^phi(\^|_)\{(-?\d+),(-?\d+)\}\(([-\d/]+)\)$")
_BOP = re.compile(r"^B\{(-?\d+),(-?\d+);(-?\d+),(-?\d+)\}\(([-\d/]+)\)$")
_VEC = re.compile(r"^(v|vopp)\[([\d,\s]*)\]$")
_FORM = re.compile(r"^(Psi|PsiTilde)\((.*)\)$", re.DOTALL)


def _mode2(text: str) -> int:
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GrammarError(f"bad mode {text!r}") from exc
    tm = 2 * f
    if tm.denominator != 1:
        raise GrammarError(f"mode must be integer or half-integer, got {text}")
    return int(tm)


def tokenize(text: str) -> list[str]:
    parts = re.split(r"[·*]|(?<!\d)\.(?!\d)|\s+", text.strip())
    return [p for p in parts if p]


def _check_index(token: str, j: int, p: int, r: int | None, s: int | None) -> None:
    """With r and s given, indices live on the grid W_r (x) W_s: |j| <= r and
    |p| <= s."""
    if r is not None and s is not None and (abs(j) > r or abs(p) > s):
        raise GrammarError(
            f"index ({j},{p}) out of range in {token}: needs |j| <= {r}, |p| <= {s}"
        )


def parse_atom(token: str, r: int | None, s: int | None):
    """Returns ("gen", Gen) | ("op", BilinearOp) | ("vec", FockVector).

    Generator and bilinear indices are checked against r and s when both
    are given."""
    m = _GEN.match(token)
    if m:
        arrow, j, p, mode = m.groups()
        j, p = int(j), int(p)
        _check_index(token, j, p, r, s)
        if arrow == "_":
            j, p = -j, -p
        return ("gen", (_mode2(mode), j, p))
    m = _BOP.match(token)
    if m:
        i, p, k, q = (int(x) for x in m.groups()[:4])
        mode = m.group(5)
        _check_index(token, i, p, r, s)
        _check_index(token, k, q, r, s)
        tm = _mode2(mode)
        if tm % 2:
            raise GrammarError(f"bilinear mode must be an integer: {token}")
        return ("op", BilinearOp((i, p), (k, q), tm // 2))
    m = _VEC.match(token)
    if m:
        kind, rows = m.groups()
        if r is None or s is None:
            raise GrammarError(f"{token} needs --r and --s")
        y = YoungDiagram.parse(f"[{rows.strip()}]" if rows.strip() else "[]")
        vec = spin_hwv(y, r, s) if kind == "v" else spin_hwv_opposite(y, r, s)
        return ("vec", vec)
    if token == "1":
        return ("vec", FockVector.unit(vacuum(NS)))
    raise GrammarError(f"cannot parse {token!r}")


def parse_expression(text: str, r: int | None = None, s: int | None = None):
    """Parse an operator word into (symbolic_ops, base_vector).

    The leading run of mode -1 bilinears is kept symbolic; the remaining
    atoms are applied right to left onto the base.
    """
    tokens = tokenize(text)
    if not tokens:
        raise GrammarError("empty expression")
    atoms = [parse_atom(t, r, s) for t in tokens]
    word = []
    i = 0
    while i < len(atoms) and atoms[i][0] == "op" and atoms[i][1].mode == -1:
        word.append(atoms[i][1])
        i += 1
    rest = atoms[i:]
    if not rest:
        raise GrammarError("an operator word needs a base state")
    base = None
    for kind, payload in reversed(rest):
        if kind == "vec":
            if base is not None:
                raise GrammarError("named vectors may only appear at the end")
            base = payload
        elif kind == "gen":
            if base is None:
                tm = payload[0]
                base = FockVector.unit(vacuum(NS if tm % 2 else "R"))
            base = clifford_apply(payload, base)
        else:
            if base is None:
                raise GrammarError("an operator word needs a base state")
            base = apply_bilinear(payload, base)
    return SlotExpression(tuple(word), base)


def _split_slots(inner: str) -> list[str]:
    """Split on ';' at brace depth zero (B{...;...} atoms contain ';')."""
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == ";" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def evaluate(text: str, r: int | None = None, s: int | None = None):
    """Evaluate a grammar expression: either a QSqrt2 (for Psi/PsiTilde
    blocks) or a FockVector (for plain operator words)."""
    for name, value in (("r", r), ("s", s)):
        if value is not None and value < 0:
            raise GrammarError(f"--{name} must be >= 0, got {value}")
    m = _FORM.match(text.strip())
    if m:
        name, inner = m.groups()
        slots = _split_slots(inner)
        if len(slots) != 3:
            raise GrammarError("a form takes exactly three ;-separated slots")
        exprs = [parse_expression(p, r, s) for p in slots]
        return evaluate_block(*exprs, PSI if name == "Psi" else PSITILDE)
    return parse_expression(text, r, s).value()
