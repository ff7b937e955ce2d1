"""The paper's golden numbers, one row each.  A row passes when
`compute(ctx) == want`.  `theta-blocks paper-check` prints one PASS/FAIL line
per row, in table order; the tests run every row and read wanted values from
here.  Each compute function imports the engines it runs when it is called,
so importing this module loads none."""

from __future__ import annotations

from collections import namedtuple
from functools import partial

# table: the so(5) level-3 FusionTable of the dual-oracle row
Context = namedtuple("Context", "table cache_dir")


def context(cache_dir: str | None = None) -> Context:
    from .fusion import FusionTable

    return Context(FusionTable(2, 3, cache_dir), cache_dir)


# compute: Context -> the value; the row passes when it equals want
Golden = namedtuple("Golden", "name compute want")


def _omega1(g, ctx):
    from .fusion import FusionTable
    from .rootsys import Weight

    return FusionTable(2, 1).dim_genus_g(g, [Weight.fundamental(2, 1)])


_SPIN_GN = tuple((g, n) for g in range(4) for n in range(1, 4))


def _spin(r, ctx):
    """N_g of 2n spin weights for each (g, n) of _SPIN_GN."""
    from .fusion import LevelOneTable
    from .rootsys import Weight

    ring, spin = LevelOneTable(r), Weight.fundamental(r, r)
    return tuple(ring.dim_genus_g(g, [spin] * (2 * n)) for g, n in _SPIN_GN)


def _twisted(g, ctx):
    from .verlinde import twisted_total

    return twisted_total(g, 2, 1)


def _theta(g, ctx):
    from .common import theta_counts

    return theta_counts(g)


def _oxbury(g, r, s, ctx):
    """{lhs, rhs}: one value exactly when the two sides agree."""
    from .verlinde import oxbury_check

    rep = oxbury_check(g, r, s)
    return {rep.lhs, rep.rhs}


def _ranklevel(n, ctx):
    from .branching import ranklevel_example

    rep = ranklevel_example(n, ctx.cache_dir)
    return rep.dim_source, rep.dim_target, rep.dim_level1


def _dual_oracle(ctx):
    """The entries of the so(5) level-3 Kac-Walton rows that disagree with
    the Verlinde formula over F_p, by `verlinde.table_mismatches`."""
    from .verlinde import table_mismatches

    return tuple(table_mismatches(ctx.table))


def _bad_sewing(ctx):
    """() once every bullet of B(0), B(1) and B(d) at (2,2) is listed:
    `_bullets` raises `BranchingError` (exit 1) on a sewing exponent that is
    not a nonnegative integer, so the row passes or raises."""
    from .branching import _bullets

    for lab in ("0", "1", "d"):
        for _ in _bullets(lab, 2, 2):
            pass
    return ()


def _det(ctx):
    from .fock.ranklevel import ranklevel_matrix
    from .weights import YoungDiagram

    return ranklevel_matrix(YoungDiagram.parse("[1]"), 2, 2).determinant


def _r_action(k, r):
    """R(B^0_1)^k applied to phi^{1,1} ... phi^{k,1}(-1/2) in W_r (x) W_2."""
    from .fock.operators import apply_LR
    from .fock.states import NS, FockVector, clifford_apply, vacuum

    v = FockVector.unit(vacuum(NS))
    for j in range(k, 0, -1):
        v = clifford_apply((-1, j, 1), v)
    for _ in range(k):
        v = apply_LR(0, 1, 0, "R", v, r, 2)
    return v


def _r_action_once(ctx):
    return str(_r_action(1, 2))


def _r_action_cubed(ctx):
    """(leading coefficient, sorted cross-term coefficients)."""
    from .fock.states import NS, FockState

    v = _r_action(3, 3)
    lead = FockState(NS, ((-1, 1, 0), (-1, 2, 0), (-1, 3, 0)))
    cross = sorted(str(c) for st, c in v.terms.items() if st != lead)
    return str(v.coefficient(lead)), tuple(cross)


GOLDENS = (
    # N_g(omega_1) = 2^(g-1) (2^g - 1), the odd theta characteristics
    *(Golden(f"N_{g}(omega_1, level 1) = {want}", partial(_omega1, g), want)
      for g, want in ((2, 6), (3, 28), (4, 120), (5, 496))),
    *(Golden(f"N_g(2n spin weights, level 1) = 2^(2g+n-1), r={r}", partial(_spin, r),
             tuple(2 ** (2 * g + n - 1) for g, n in _SPIN_GN))
      for r in (2, 5)),
    *(Golden(f"twisted total level 1, g={g}: 2^{2 * g}", partial(_twisted, g),
             2 ** (2 * g))
      for g in (2, 3)),
    *(Golden(f"theta counts g={g} = {want}", partial(_theta, g), want)
      for g, want in ((2, (16, 10, 6)),)),
    *(Golden(f"Oxbury-Wilson N_{g}^0(so({2 * r + 1}),{2 * s + 1})"
             f" = N_{g}^0(so({2 * s + 1}),{2 * r + 1})",
             partial(_oxbury, g, r, s), frozenset({n0}))
      for g, r, s, n0 in ((2, 2, 2, 2688), (2, 2, 3, 21000),
                          (3, 2, 2, 2723840), (3, 2, 3, 177100000))),
    *(Golden(f"rank-level failure example {n}: dims {want}", partial(_ranklevel, n), want)
      for n, want in ((1, (4, 5, 1)), (2, (3, 4, 1)), (3, (14, 20, 1)))),
    Golden("dual-oracle agreement r=2, level 3 (full triple set)", _dual_oracle, ()),
    Golden("sewing exponents at (r,s)=(2,2) all nonnegative integers", _bad_sewing, ()),
    Golden("strange duality det A = 0 at (2,2), Y=[1]", _det, 0),
    Golden("Clifford: R(B^0_1) phi^{1,1}(-1/2) = phi^{1,0}(-1/2)",
           _r_action_once, "(1) phi^{1,0}(-1/2)"),
    *(Golden(f"Clifford cubed R-action: leading {lead}, six cross terms {cross}",
             _r_action_cubed, (lead, (cross,) * 6))
      for lead, cross in (("6", "-3"),)),
)
