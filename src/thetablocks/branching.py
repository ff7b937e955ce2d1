"""Branching data of the conformal embedding so(2r+1) + so(2s+1) -> so(2d+1),
d = 2rs + r + s: trace anomalies, the branching pair lists B(Lambda),
sewing exponents, and rank-level comparison reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fusion import FusionTable, LevelOneTable
from .rootsys import Weight, _dbl_rho, require_rank
from .weights import (
    check_level,
    check_weight,
    sigma,
    star,
    transpose,
    weight_of_young,
    young_diagrams,
)

LAMBDA_LABELS = ("0", "1", "d")


class BranchingError(ValueError):
    """Inconsistent branching data (bad exponent or inadmissible pair)."""


@dataclass(frozen=True)
class EmbeddingParams:
    r: int
    s: int

    def __post_init__(self):
        require_rank(self.r)
        require_rank(self.s, "s")

    @property
    def d(self) -> int:
        return 2 * self.r * self.s + self.r + self.s

    @property
    def levels(self) -> tuple[int, int]:
        """(level of so(2r+1), level of so(2s+1)) = the Dynkin multi-index."""
        return (2 * self.s + 1, 2 * self.r + 1)


def _anomaly(lam: Weight, ell: int) -> tuple[int, int]:
    """The trace anomaly as (numerator, 8 (h_vee + ell)): on doubled ints
    L = 2 lam and R = 2 rho, (lam, lam + 2 rho) = sum L_i (L_i + 2 R_i) / 4."""
    check_level(lam, ell)
    r = lam.rank
    num = 0
    for x, p in zip(lam.d, _dbl_rho(r)):
        num += x * (x + 2 * p)
    return num, 8 * (2 * r - 1 + ell)


def lambda_weight(label: str, d: int) -> Weight:
    """The level-one so(2d+1) weight named by "0", "1" or "d"."""
    if label == "0":
        return Weight.zero(d)
    if label == "1":
        return Weight.fundamental(d, 1)
    if label == "d":
        return Weight.fundamental(d, d)
    raise ValueError(f"Lambda label must be one of {LAMBDA_LABELS}, got {label!r}")


@dataclass(frozen=True)
class BranchTriple:
    """An admissible (lam, mu, Lambda) with its sewing exponent."""

    lam: Weight
    mu: Weight
    Lambda: str
    exponent: int
    rule: str = field(default="", compare=False)


def sewing_exponent(lam: Weight, mu: Weight, Lambda: str, r: int, s: int) -> int:
    """m = Delta_lam + Delta_mu - Delta_Lambda; a branching pair must give a
    nonnegative integer."""
    p = EmbeddingParams(r, s)
    check_weight(lam, r, p.levels[0])
    check_weight(mu, s, p.levels[1])
    return _sewing(lam, mu, Lambda, p)


def _sewing(lam, mu, Lambda, p: EmbeddingParams, big=None) -> int:
    """sewing_exponent, with Delta_Lambda given as `big` = _anomaly(...) when
    the caller already has it.  The exponent is one int numerator over the
    product of the three anomaly denominators: for weights of ranks r and s
    both factors have h_vee + ell = 2(r + s), and so(2d+1) at level one 2d."""
    nl, dl = _anomaly(lam, p.levels[0])
    nm, dm = _anomaly(mu, p.levels[1])
    nL, dL = big if big is not None else _anomaly(lambda_weight(Lambda, p.d), 1)
    den = dl * dm * dL
    num = (nl * dm + nm * dl) * dL - nL * dl * dm
    if num < 0 or num % den:
        raise BranchingError(
            f"sewing exponent for ({lam}; {mu}; omega_{Lambda}) is "
            f"{Fraction(num, den)}, "
            "not a nonnegative integer: the pair is not a branching pair"
        )
    return num // den


def branch_pairs(Lambda: str, r: int, s: int) -> tuple[BranchTriple, ...]:
    """The branching pairs B(Lambda) for Lambda in {omega_0, omega_1, omega_d}.

    For the vacuum and vector nodes, each diagram Y in the r x s box pairs
    with its transpose, with single sigma-twists flipping the node by the
    parity of |Y|.  For the spin node, Y + omega_r pairs with Y* + omega_s,
    with the sigma-twist on the left for Y in the (s-1)-column box and on the
    right otherwise.
    """
    p = EmbeddingParams(r, s)
    ell_l, ell_r = p.levels
    if Lambda not in LAMBDA_LABELS:
        raise ValueError(f"Lambda label must be one of {LAMBDA_LABELS}")
    big = _anomaly(lambda_weight(Lambda, p.d), 1)
    out: list[BranchTriple] = []

    def emit(lam, mu, rule):
        out.append(BranchTriple(lam, mu, Lambda, _sewing(lam, mu, Lambda, p, big), rule))

    if Lambda in ("0", "1"):
        want_parity = 0 if Lambda == "0" else 1
        for y in young_diagrams(r, s):
            lam = weight_of_young(y, r)
            mu = weight_of_young(transpose(y), s)
            if y.size % 2 == want_parity:
                emit(lam, mu, f"(Y, Y^T) with Y={y}")
            else:
                emit(sigma(lam, ell_l), mu, f"(sigma(Y), Y^T) with Y={y}")
                emit(lam, sigma(mu, ell_r), f"(Y, sigma(Y^T)) with Y={y}")
    else:
        for y in young_diagrams(r, s):
            lam = weight_of_young(y, r, spin=True)
            mu = weight_of_young(star(y, r, s), s, spin=True)
            emit(lam, mu, f"(Y+omega_r, Y*+omega_s) with Y={y}")
            if y.fits(r, s - 1):
                emit(
                    sigma(lam, ell_l),
                    mu,
                    f"(sigma(Y+omega_r), Y*+omega_s) with Y={y}",
                )
            else:
                emit(
                    lam,
                    sigma(mu, ell_r),
                    f"(Y+omega_r, sigma(Y*+omega_s)) with Y={y}",
                )
    return tuple(out)


def _rule_table(Lambda: str, r: int, s: int) -> dict:
    """(lam, mu) -> the first bullet of B(Lambda) that admits the pair."""
    rules: dict = {}
    for tri in branch_pairs(Lambda, r, s):
        rules.setdefault((tri.lam, tri.mu), tri.rule)
    return rules


@dataclass
class RankLevelReport:
    r: int
    s: int
    source: tuple[Weight, ...]
    target: tuple[Weight, ...]
    Lambdas: tuple[str, ...]
    dim_source: int
    dim_target: int
    dim_level1: int
    certificates: tuple[str, ...]


def ranklevel_report(
    r: int,
    s: int,
    source,
    target,
    Lambdas,
    cache_dir: str | None = None,
    strict: bool = True,
) -> RankLevelReport:
    """Dimensions of the three conformal blocks of a rank-level configuration.

    Each point must carry a branching pair (lam_i, mu_i) in B(Lambda_i); with
    strict=False a failed admissibility check is recorded in the certificate
    instead of raised.  The level-one block dimension must be 1 for the
    rank-level map to be defined up to scalar.  With a cache_dir, the two
    fusion tables are read from it and saved back to it before returning.
    """
    p = EmbeddingParams(r, s)
    source = tuple(source)
    target = tuple(target)
    Lambdas = tuple(Lambdas)
    if not len(source) == len(target) == len(Lambdas):
        raise ValueError("source, target and Lambda lists must have equal length")
    certs = []
    tables: dict = {}  # B(Lambda) is built once per distinct Lambda
    for lam, mu, L in zip(source, target, Lambdas):
        if L not in tables:
            tables[L] = _rule_table(L, r, s)
        rule = tables[L].get((lam, mu))
        if rule is None:
            msg = f"({lam}; {mu}) not admitted by the B(omega_{L}) rules"
            if strict:
                raise BranchingError(msg)
            certs.append(msg)
        else:
            certs.append(rule)
    ring_l = FusionTable(r, p.levels[0], cache_dir)
    ring_r = FusionTable(s, p.levels[1], cache_dir)
    ring_1 = LevelOneTable(p.d)
    dim_source = ring_l.dim_genus0(source)
    dim_target = ring_r.dim_genus0(target)
    dim_level1 = ring_1.dim_genus0([lambda_weight(L, p.d) for L in Lambdas])
    ring_l.save()
    ring_r.save()
    return RankLevelReport(
        r, s, source, target, Lambdas, dim_source, dim_target, dim_level1, tuple(certs)
    )


def _w(text: str) -> Weight:
    return Weight.parse(text)


# Bundled rank-level comparison configurations.  Each has a one-dimensional
# level-one block, so the rank-level map is defined up to scalar, and the
# source/target dimensions differ (their golden dimensions are the
# "rank-level failure example" rows of `goldens.GOLDENS`).  Configuration 1
# passes the strict bullet-admissibility check; 2 and 3 are evaluated with
# strict=False, so per-point checks land in the report certificates instead
# of raising.
RANKLEVEL_EXAMPLES = {
    1: dict(
        r=2,
        s=3,
        source=(_w("5/2,1/2"), _w("5/2,1/2"), _w("1,0"), _w("1,0")),
        target=(_w("5/2,3/2,3/2"), _w("5/2,3/2,3/2"), _w("1,0,0"), _w("1,0,0")),
        Lambdas=("d", "d", "1", "1"),
        strict=True,
    ),
    2: dict(
        r=3,
        s=4,
        source=(_w("5/2,5/2,3/2"), _w("5/2,5/2,3/2"), _w("2,1,0")),
        target=(_w("7/2,5/2,5/2,1/2"), _w("7/2,5/2,5/2,1/2"), _w("2,1,0,0")),
        Lambdas=("d", "d", "1"),
        strict=False,
    ),
    3: dict(
        r=4,
        s=3,
        source=(_w("5/2,5/2,3/2,3/2"), _w("5/2,5/2,3/2,3/2"), _w("3,2,1,1")),
        target=(_w("9/2,5/2,1/2"), _w("9/2,5/2,1/2"), _w("3,2,1")),
        Lambdas=("d", "d", "1"),
        strict=False,
    ),
}


def ranklevel_example(n: int, cache_dir: str | None = None) -> RankLevelReport:
    if n not in RANKLEVEL_EXAMPLES:
        raise ValueError(f"example must be one of {sorted(RANKLEVEL_EXAMPLES)}")
    cfg = RANKLEVEL_EXAMPLES[n]
    return ranklevel_report(
        cfg["r"],
        cfg["s"],
        cfg["source"],
        cfg["target"],
        cfg["Lambdas"],
        cache_dir=cache_dir,
        strict=cfg["strict"],
    )
