"""Branching data of the conformal embedding so(2r+1) + so(2s+1) -> so(2d+1),
d = 2rs + r + s: trace anomalies, the branching pair lists B(Lambda),
sewing exponents, and rank-level comparison reports."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .rootsys import Frozen, Weight, _dbl_rho, require_rank
from .weights import LevelError, check_weight, star, transpose, young_diagrams

LAMBDA_LABELS = ("0", "1", "d")


class BranchingError(ValueError):
    """Inconsistent branching data (bad exponent or inadmissible pair)."""


def embedding(r: int, s: int) -> tuple[int, int, int]:
    """(d, level of so(2r+1), level of so(2s+1)): d = 2rs + r + s, and the
    levels are the Dynkin multi-index (2s+1, 2r+1)."""
    require_rank(r)
    require_rank(s, "s")
    return 2 * r * s + r + s, 2 * s + 1, 2 * r + 1


def _check_level(d: tuple[int, ...], ell: int) -> None:
    """`weights.check_level` on doubled coordinates, with its LevelError."""
    if d[0] + d[1] > 2 * ell:
        raise LevelError(f"{Weight.from_dbl(d)} is above level {ell}")


def _sigma(d: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """`weights.sigma` on doubled coordinates: lam_1 goes to ell - lam_1."""
    _check_level(d, ell)
    return (2 * ell - d[0],) + d[1:]


def _anomaly(d: tuple[int, ...], ell: int) -> tuple[int, int]:
    """The trace anomaly of the weight with doubled coordinates d, as
    (numerator, 8 (h_vee + ell)): with R = 2 rho,
    (lam, lam + 2 rho) = sum d_i (d_i + 2 R_i) / 4."""
    _check_level(d, ell)
    num = 0
    for x, p in zip(d, _dbl_rho(len(d))):
        num += x * (x + 2 * p)
    return num, 8 * (2 * len(d) - 1 + ell)


def _lambda_dbl(label: str, d: int) -> tuple[int, ...]:
    """Doubled coordinates of the level-one so(2d+1) weight named by "0", "1"
    or "d"."""
    if label == "0":
        return (0,) * d
    if label == "1":
        return (2,) + (0,) * (d - 1)
    if label == "d":
        return (1,) * d
    raise ValueError(f"Lambda label must be one of {LAMBDA_LABELS}, got {label!r}")


def lambda_weight(label: str, d: int) -> Weight:
    """The level-one so(2d+1) weight named by "0", "1" or "d"."""
    return Weight.from_dbl(_lambda_dbl(label, d))


class BranchTriple(Frozen):
    """An admissible (lam, mu, Lambda) with its sewing exponent; the `rule`
    that admits it takes no part in equality or hashing."""

    __slots__ = ("lam", "mu", "Lambda", "exponent", "rule")

    def __init__(self, lam: Weight, mu: Weight, Lambda: str, exponent: int, rule: str = ""):
        setattr_ = object.__setattr__
        setattr_(self, "lam", lam)
        setattr_(self, "mu", mu)
        setattr_(self, "Lambda", Lambda)
        setattr_(self, "exponent", exponent)
        setattr_(self, "rule", rule)

    def _key(self) -> tuple:
        return self.lam, self.mu, self.Lambda, self.exponent


def sewing_exponent(lam: Weight, mu: Weight, Lambda: str, r: int, s: int) -> int:
    """m = Delta_lam + Delta_mu - Delta_Lambda; a branching pair must give a
    nonnegative integer."""
    d, ell_l, ell_r = embedding(r, s)
    check_weight(lam, r, ell_l)
    check_weight(mu, s, ell_r)
    return _sewing(lam.d, mu.d, Lambda, ell_l, ell_r, _anomaly(_lambda_dbl(Lambda, d), 1))


def _sewing(lam, mu, Lambda, ell_l: int, ell_r: int, big) -> int:
    """sewing_exponent on doubled coordinates at the levels ell_l and ell_r,
    with Delta_Lambda given as `big` = _anomaly(...).  The exponent is
    one int numerator over the product of the three anomaly denominators:
    for weights of ranks r and s both factors have h_vee + ell = 2(r + s),
    and so(2d+1) at level one 2d."""
    nl, dl = _anomaly(lam, ell_l)
    nm, dm = _anomaly(mu, ell_r)
    nL, dL = big
    den = dl * dm * dL
    num = (nl * dm + nm * dl) * dL - nL * dl * dm
    if num < 0 or num % den:
        raise BranchingError(
            f"sewing exponent for ({Weight.from_dbl(lam)}; {Weight.from_dbl(mu)}; "
            f"omega_{Lambda}) is {Fraction(num, den)}, "
            "not a nonnegative integer: the pair is not a branching pair"
        )
    return num // den


def _young(y, r: int, spin: int = 0) -> tuple[int, ...]:
    """Doubled coordinates of the weight Y (SO kind) or Y + omega_r (spin
    kind, spin=1) of a diagram with at most r rows."""
    return tuple(2 * y.row(i + 1) + spin for i in range(r))


def _bullets(Lambda: str, r: int, s: int):
    """Each bullet of B(Lambda), for Lambda in {omega_0, omega_1, omega_d},
    as (lam doubled, mu doubled, sewing exponent, rule), in rule order.
    Both levels and the exponent of every bullet are checked on ints.

    For the vacuum and vector nodes, each diagram Y in the r x s box pairs
    with its transpose, with single sigma-twists flipping the node by the
    parity of |Y|.  For the spin node, Y + omega_r pairs with Y* + omega_s,
    with the sigma-twist on the left for Y in the (s-1)-column box and on the
    right otherwise.
    """
    d, ell_l, ell_r = embedding(r, s)
    if Lambda not in LAMBDA_LABELS:
        raise ValueError(f"Lambda label must be one of {LAMBDA_LABELS}")
    big = _anomaly(_lambda_dbl(Lambda, d), 1)

    def bullet(lam, mu, rule):
        return lam, mu, _sewing(lam, mu, Lambda, ell_l, ell_r, big), rule

    if Lambda in ("0", "1"):
        want_parity = 0 if Lambda == "0" else 1
        for y in young_diagrams(r, s):
            lam = _young(y, r)
            mu = _young(transpose(y), s)
            if y.size % 2 == want_parity:
                yield bullet(lam, mu, f"(Y, Y^T) with Y={y}")
            else:
                yield bullet(_sigma(lam, ell_l), mu, f"(sigma(Y), Y^T) with Y={y}")
                yield bullet(lam, _sigma(mu, ell_r), f"(Y, sigma(Y^T)) with Y={y}")
    else:
        for y in young_diagrams(r, s):
            lam = _young(y, r, 1)
            mu = _young(star(y, r, s), s, 1)
            yield bullet(lam, mu, f"(Y+omega_r, Y*+omega_s) with Y={y}")
            if y.fits(r, s - 1):
                yield bullet(_sigma(lam, ell_l), mu,
                             f"(sigma(Y+omega_r), Y*+omega_s) with Y={y}")
            else:
                yield bullet(lam, _sigma(mu, ell_r),
                             f"(Y+omega_r, sigma(Y*+omega_s)) with Y={y}")


def branch_pairs(Lambda: str, r: int, s: int) -> tuple[BranchTriple, ...]:
    """The branching pairs B(Lambda) of `_bullets`, as `Weight` triples."""
    return tuple(
        BranchTriple(Weight.from_dbl(lam), Weight.from_dbl(mu), Lambda, m, rule)
        for lam, mu, m, rule in _bullets(Lambda, r, s)
    )


def _rule_table(Lambda: str, r: int, s: int) -> dict:
    """(lam doubled, mu doubled) -> the first bullet of B(Lambda) that admits
    the pair."""
    rules: dict = {}
    for lam, mu, _m, rule in _bullets(Lambda, r, s):
        rules.setdefault((lam, mu), rule)
    return rules


# source and target are tuples of Weight, Lambdas of labels, certificates of
# the rule (or the failed check) of each point
RankLevelReport = namedtuple("RankLevelReport", (
    "r s source target Lambdas dim_source dim_target dim_level1 certificates"))


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
    fusion tables are read from it and saved back to it, if they gained
    rows, before returning.
    """
    d, ell_l, ell_r = embedding(r, s)
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
        rule = tables[L].get((lam.d, mu.d))
        if rule is None:
            msg = f"({lam}; {mu}) not admitted by the B(omega_{L}) rules"
            if strict:
                raise BranchingError(msg)
            certs.append(msg)
        else:
            certs.append(rule)
    from .fusion import FusionTable, LevelOneTable  # only a report uses fusion

    ring_l = FusionTable(r, ell_l, cache_dir)
    ring_r = FusionTable(s, ell_r, cache_dir)
    ring_1 = LevelOneTable(d)
    dim_source = ring_l.dim_genus0(source)
    dim_target = ring_r.dim_genus0(target)
    dim_level1 = ring_1.dim_genus0([lambda_weight(L, d) for L in Lambdas])
    ring_l.save()
    ring_r.save()
    return RankLevelReport(
        r, s, source, target, Lambdas, dim_source, dim_target, dim_level1, tuple(certs)
    )


# Bundled rank-level comparison configurations.  Their weights are kept as
# ';'-separated text and parsed only when the example runs, so importing
# this module builds no `Weight`.  Each has a one-dimensional level-one
# block, so the rank-level map is defined up to scalar, and the
# source/target dimensions differ (their golden dimensions are the
# "rank-level failure example" rows of `goldens.GOLDENS`).  Configuration 1
# passes the strict bullet-admissibility check; 2 and 3 are evaluated with
# strict=False, so per-point checks land in the report certificates instead
# of raising.
RANKLEVEL_EXAMPLES = {
    1: dict(
        r=2,
        s=3,
        source="5/2,1/2; 5/2,1/2; 1,0; 1,0",
        target="5/2,3/2,3/2; 5/2,3/2,3/2; 1,0,0; 1,0,0",
        Lambdas=("d", "d", "1", "1"),
        strict=True,
    ),
    2: dict(
        r=3,
        s=4,
        source="5/2,5/2,3/2; 5/2,5/2,3/2; 2,1,0",
        target="7/2,5/2,5/2,1/2; 7/2,5/2,5/2,1/2; 2,1,0,0",
        Lambdas=("d", "d", "1"),
        strict=False,
    ),
    3: dict(
        r=4,
        s=3,
        source="5/2,5/2,3/2,3/2; 5/2,5/2,3/2,3/2; 3,2,1,1",
        target="9/2,5/2,1/2; 9/2,5/2,1/2; 3,2,1",
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
        [Weight.parse(part) for part in cfg["source"].split(";")],
        [Weight.parse(part) for part in cfg["target"].split(";")],
        cfg["Lambdas"],
        cache_dir=cache_dir,
        strict=cfg["strict"],
    )
