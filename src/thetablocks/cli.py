"""Command-line front end: exact fusion dimensions, the trig oracle, branching
data, rank-level reports, Clifford evaluations, and the bundled golden-number
suite.  Reports are emitted as aligned text (default) or JSON (--json).

Each subcommand imports the engine it uses when it runs, so start-up (and
argument parsing) loads no engine."""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from .common import UnreducibleError, theta_counts

EXIT_PARSE = 1
EXIT_DISAGREE = 2
EXIT_UNREDUCIBLE = 3

DEFAULT_CACHE = ".theta-blocks-cache"


class EngineDisagreement(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # parse errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


@dataclass
class Report:
    command: str
    inputs: dict
    outputs: dict
    engine: str
    version: str = __version__
    lines: list = field(default_factory=list)  # preformatted extras (text mode)

    def rendered(self, as_json: bool) -> str:
        if as_json:
            blob = {
                "command": self.command,
                "inputs": self.inputs,
                "outputs": self.outputs,
                "engine": self.engine,
                "version": self.version,
            }
            return json.dumps(blob, sort_keys=True, indent=2)
        out = [f"command : {self.command}"]
        for k, v in self.inputs.items():
            out.append(f"{k:8s}: {v}")
        for k, v in self.outputs.items():
            out.append(f"{k:8s}: {v}")
        out.extend(self.lines)
        out.append(f"engine  : {self.engine}")
        return "\n".join(out)


def parse_weights(text: str) -> list:
    from .rootsys import Weight

    return [Weight.parse(part) for part in text.split(";") if part.strip()]


def _dims_both(g, lams, r, ell, method, cache_dir):
    exact = trig = table = None
    if method in ("exact", "both"):
        from .fusion import FusionTable

        table = FusionTable(r, ell, cache_dir)
        exact = table.dim_genus_g(g, lams)
    if method in ("trig", "both"):
        from .verlinde import dim_trig

        trig = dim_trig(g, lams, r, ell)
    if method == "both" and exact != trig:
        raise EngineDisagreement(
            f"fusion gives {exact}, trig gives {trig} for genus {g}, {lams}"
        )
    if table is not None:
        table.save()
    return exact if exact is not None else trig, exact, trig


def cmd_fusion(args) -> Report:
    lams = parse_weights(args.weights)
    if len(lams) != 3:
        raise _usage_error("fusion needs exactly three weights")
    value, exact, trig = _dims_both(
        0, lams, args.rank, args.level, args.method, args.cache_dir
    )
    outputs = {"N": value}
    if args.method == "both":
        outputs.update({"N_exact": exact, "N_trig": trig})
    return Report(
        "fusion",
        {
            "rank": args.rank,
            "level": args.level,
            "weights": ";".join(str(w) for w in lams),
        },
        outputs,
        engine=args.method if args.method != "both" else "fusion+trig",
    )


def cmd_dim(args) -> Report:
    lams = parse_weights(args.weights) if args.weights else []
    value, exact, trig = _dims_both(
        args.genus, lams, args.rank, args.level, args.method, args.cache_dir
    )
    outputs = {"dim": value}
    if args.method == "both":
        outputs.update({"dim_exact": exact, "dim_trig": trig})
    return Report(
        "dim",
        {
            "rank": args.rank,
            "level": args.level,
            "genus": args.genus,
            "weights": ";".join(str(w) for w in lams),
        },
        outputs,
        engine=args.method if args.method != "both" else "fusion+trig",
    )


def cmd_branch(args) -> Report:
    from .branching import branch_pairs

    tris = branch_pairs(args.Lambda, args.r, args.s)
    outputs = {
        "count": len(tris),
        "pairs": [
            {
                "lam": str(t.lam),
                "mu": str(t.mu),
                "exponent": t.exponent,
                "rule": t.rule,
            }
            for t in tris
        ],
    }
    lines = [
        f"  ({t.lam})  ({t.mu})   m={t.exponent}   {t.rule}" for t in tris
    ]
    rep = Report(
        "branch",
        {"r": args.r, "s": args.s, "Lambda": args.Lambda},
        outputs,
        engine="fusion",
    )
    rep.lines = lines
    if not args.json:
        rep.outputs = {"count": len(tris)}
    return rep


def cmd_sewing(args) -> Report:
    lams = parse_weights(args.weights)
    if len(lams) != 2:
        raise _usage_error("sewing needs exactly two weights 'lam;mu'")
    from .branching import sewing_exponent

    m = sewing_exponent(lams[0], lams[1], args.Lambda, args.r, args.s)
    return Report(
        "sewing",
        {
            "r": args.r,
            "s": args.s,
            "Lambda": args.Lambda,
            "weights": ";".join(str(w) for w in lams),
        },
        {"exponent": m},
        engine="fusion",
    )


def cmd_oxbury(args) -> Report:
    from .verlinde import n0_oxbury, oxbury_check

    if {args.rank, args.level} != {None} and {args.r, args.s} != {None}:
        raise _usage_error("oxbury takes --rank/--level or --r/--s, not both")
    if args.rank is not None and args.level is not None:
        n0 = n0_oxbury(args.genus, args.rank, args.level)
        return Report(
            "oxbury",
            {"genus": args.genus, "rank": args.rank, "level": args.level},
            {"n0": n0, "twisted_total": 2 * n0},
            engine="trig",
        )
    if args.r is None or args.s is None:
        raise _usage_error("oxbury needs either --rank/--level or --r/--s")
    rep = oxbury_check(args.genus, args.r, args.s)
    return Report(
        "oxbury",
        {"genus": args.genus, "r": args.r, "s": args.s},
        {"lhs": rep.lhs, "rhs": rep.rhs, "equal": rep.equal},
        engine="trig",
    )


def cmd_ranklevel(args) -> Report:
    from .branching import ranklevel_example

    rep = ranklevel_example(args.example, args.cache_dir)
    outputs = {
        "dim_source": rep.dim_source,
        "dim_target": rep.dim_target,
        "dim_level1": rep.dim_level1,
        "certificates": list(rep.certificates),
    }
    return Report(
        "ranklevel",
        {
            "example": args.example,
            "r": rep.r,
            "s": rep.s,
            "source": ";".join(str(w) for w in rep.source),
            "target": ";".join(str(w) for w in rep.target),
            "Lambda": ";".join(rep.Lambdas),
        },
        outputs,
        engine="fusion",
    )


def cmd_ranklevel_matrix(args) -> Report:
    from .fock.ranklevel import ranklevel_matrix
    from .weights import YoungDiagram

    y = YoungDiagram.parse(args.weights)
    m = ranklevel_matrix(y, args.r, args.s)
    return Report(
        "ranklevel-matrix",
        {"r": args.r, "s": args.s, "Y": str(y)},
        {
            "matrix": [[str(x) for x in row] for row in m.entries],
            "determinant": str(m.determinant),
            "determinant_zero": not m.determinant,
        },
        engine="fock",
    )


def cmd_clifford_eval(args) -> Report:
    from .fock.coeff import QSqrt2
    from .fock.grammar import evaluate

    value = evaluate(args.expr, args.r, args.s)
    if isinstance(value, QSqrt2):
        outputs = {"value": str(value)}
    else:
        outputs = {"vector": str(value)}
    return Report(
        "clifford-eval",
        {"expr": args.expr, "r": args.r, "s": args.s},
        outputs,
        engine="fock",
    )


def cmd_theta_counts(args) -> Report:
    total, even, odd = theta_counts(args.genus)
    return Report(
        "theta-counts",
        {"genus": args.genus},
        {"total": total, "even": even, "odd": odd},
        engine="trig",
    )


def cmd_paper_check(args):
    """One PASS/FAIL line per golden row as it runs, or with --json one
    report of the passed count and the failed names at the end; exit 2 when a
    row fails."""
    from .goldens import GOLDENS, context

    ctx = context(args.cache_dir)
    failed = []
    for row in GOLDENS:
        got = row.compute(ctx)
        if got != row.want:
            failed.append(row.name)
        if not args.json:
            print(f"PASS  {row.name}" if got == row.want
                  else f"FAIL  {row.name}   [got {got}]")
    if not failed:
        ctx.table.save()
    if args.json:
        outputs = {"passed": len(GOLDENS) - len(failed), "failed": failed}
        print(Report("paper-check", {}, outputs, engine="goldens").rendered(True))
    else:
        print(f"{len(failed)} golden check(s) FAILED" if failed
              else "all golden checks passed")
    if failed:
        raise SystemExit(EXIT_DISAGREE)
    return None


def _usage_error(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(EXIT_PARSE)


# Argument specs: the flag and its argparse keywords.
RANK = ("--rank", {"type": int, "required": True})
LEVEL = ("--level", {"type": int, "required": True})
GENUS = ("--genus", {"type": int, "required": True})
WEIGHTS = ("--weights", {"required": True})
R = ("--r", {"type": int, "required": True})
S = ("--s", {"type": int, "required": True})
LAMBDA = ("--Lambda", {"choices": ("0", "1", "d"), "required": True})
METHOD = ("--method", {"choices": ("exact", "trig", "both"), "default": "exact"})


def _optional(spec):
    flag, kwargs = spec
    return flag, {**kwargs, "required": False}


# Taken by every subcommand, after its own arguments.
COMMON_ARGS = (
    ("--cache-dir", {"default": DEFAULT_CACHE}),
    ("--json", {"action": "store_true"}),
)

# One row per subcommand: name, help, handler, its own arguments in order.
SUBCOMMANDS = (
    ("fusion", "three-point fusion multiplicity", cmd_fusion,
     (RANK, LEVEL, WEIGHTS, METHOD)),
    ("dim", "genus-g n-point dimension", cmd_dim,
     (RANK, LEVEL, GENUS, _optional(WEIGHTS), METHOD)),
    ("branch", "branching pairs B(Lambda)", cmd_branch, (R, S, LAMBDA)),
    ("sewing", "sewing exponent of a branching pair", cmd_sewing,
     (WEIGHTS, R, S, LAMBDA)),
    ("oxbury", "Oxbury-Wilson sums and the symmetry check", cmd_oxbury,
     (_optional(RANK), _optional(LEVEL), GENUS, _optional(R), _optional(S))),
    ("ranklevel", "bundled rank-level comparison reports", cmd_ranklevel,
     (("--example", {"type": int, "choices": (1, 2, 3), "required": True}),)),
    ("ranklevel-matrix", "the 2x2 elliptic matrix and det", cmd_ranklevel_matrix,
     (WEIGHTS, R, S)),
    ("clifford-eval", "evaluate a Clifford expression", cmd_clifford_eval,
     (("expr", {}), _optional(R), _optional(S))),
    ("theta-counts", "theta-characteristic counts", cmd_theta_counts, (GENUS,)),
    ("paper-check", "run the bundled golden-number suite", cmd_paper_check, ()),
)


def build_parser() -> _Parser:
    p = _Parser(prog="theta-blocks", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, help_text, handler, args in SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in args + COMMON_ARGS:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    # atexit hooks run before the interpreter's final collections, which then
    # have no heap to walk: the OS frees it anyway at process exit
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        # rendering can fail too: str() of an int past Python's digit limit
        text = None if report is None else report.rendered(args.json)
    except EngineDisagreement as exc:
        print(f"engine disagreement: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except UnreducibleError as exc:
        print(f"UNREDUCIBLE: {exc}", file=sys.stderr)
        return EXIT_UNREDUCIBLE
    except (ValueError, ArithmeticError, OSError) as exc:  # OSError: cache I/O
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RecursionError:  # FusionRing.dim_genus_g recurses once per genus
        print("error: genus too deep for the exact engine's genus recursion",
              file=sys.stderr)
        return EXIT_PARSE
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
