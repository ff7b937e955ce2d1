"""Workload definitions, per-operation output checks and latency statistics.

Shared by the parent process (run.py), the per-phase child (child.py), the reference
generator (refgen.py) and the self-tests.  Importing this module does not
import thetablocks, so the parent process stays free of the engine.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

WORKLOADS = ("tables", "oracle", "fock", "cli")

# -- tables: full Kac-Walton product tables, written then reloaded ----------
TABLES = {"full": [(3, 7), (4, 5)], "smoke": [(2, 3), (3, 2)]}

# -- oracle: exact engine against the trig oracle ---------------------------
# (a) the genus-0 triple grid of scripts/dual_oracle_sweep.py
ORACLE_GRID = {
    "full": [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)],
    "smoke": [(2, 1), (2, 2)],
}
# (b) vacuum dim_genus_g against dim_trig: (rank, level, genus)
ORACLE_GENUS = {
    "full": [(2, 3, 4), (3, 3, 3), (2, 7, 2), (3, 5, 2)],
    "smoke": [(2, 3, 2)],
}
# (c) trig-only vacuum queries checked against exact goldens
ORACLE_TRIG_ONLY = {
    "full": [(3, 5, g) for g in range(12, 17)],
    "smoke": [(2, 3, 5)],
}

# -- fock: the strange-duality scan over 2 <= r <= rmax, 2 <= s <= smax ------
FOCK_BOX = {"full": (5, 6), "smoke": (3, 3)}

# -- cli: chains of invocations; each chain runs on its own fresh cache dir,
# the seed permutes the chains and a chain keeps its internal order.
MALFORMED_LINE = "this line is not a cache entry\n"


def _inv(op_id, *argv, prepare=None):
    return {"id": op_id, "argv": list(argv), "prepare": prepare}


CLI_CHAINS = [
    [_inv("paper-check-cold", "paper-check"), _inv("paper-check-warm", "paper-check")],
    [
        _inv("ranklevel-1-cold", "ranklevel", "--example", "1"),
        _inv("ranklevel-1-warm", "ranklevel", "--example", "1"),
        _inv("ranklevel-1-malformed", "ranklevel", "--example", "1",
             prepare="append-malformed"),
    ],
    [
        _inv("ranklevel-2-cold", "ranklevel", "--example", "2"),
        _inv("ranklevel-2-warm", "ranklevel", "--example", "2"),
    ],
    [
        _inv("ranklevel-3-cold", "ranklevel", "--example", "3"),
        _inv("ranklevel-3-warm", "ranklevel", "--example", "3"),
    ],
    [_inv("dim-level1", "dim", "--genus", "2", "--rank", "2", "--level", "1",
          "--weights", "1,0")],
    [_inv("dim-trig", "dim", "--genus", "3", "--rank", "2", "--level", "3",
          "--method", "trig")],
    [_inv("dim-both", "dim", "--genus", "1", "--rank", "2", "--level", "4",
          "--weights", "1,0;1,0", "--method", "both")],
    [_inv("dim-r3-l9-both", "dim", "--genus", "0", "--rank", "3", "--level", "9",
          "--method", "both")],
    [_inv("fusion-both", "fusion", "--rank", "2", "--level", "3",
          "--weights", "1/2,1/2;1/2,1/2;1,1", "--method", "both")],
    [_inv("fusion-r3", "fusion", "--rank", "3", "--level", "3",
          "--weights", "1,1,0;1,0,0;1,0,0")],
    [_inv("fusion-rank1-error", "fusion", "--rank", "1", "--level", "2",
          "--weights", "1;1;0")],
    [_inv("branch-json", "branch", "--r", "2", "--s", "2", "--Lambda", "d", "--json")],
    [_inv("branch-text", "branch", "--r", "2", "--s", "3", "--Lambda", "1")],
    [_inv("sewing", "sewing", "--r", "2", "--s", "3", "--Lambda", "1",
          "--weights", "1,0;1,0,0")],
    [_inv("oxbury-check", "oxbury", "--genus", "2", "--r", "2", "--s", "3")],
    [_inv("oxbury-sum", "oxbury", "--genus", "3", "--rank", "2", "--level", "5")],
    [_inv("ranklevel-matrix", "ranklevel-matrix", "--r", "3", "--s", "3",
          "--weights", "[2,1]")],
    [_inv("clifford-eval", "clifford-eval",
          "Psi(1 ; B{1,1;0,0}(-1)·v[2] ; B{0,0;1,1}(-1)·vopp[2])", "--r", "2", "--s", "2")],
    [_inv("theta-counts", "theta-counts", "--genus", "3")],
]
CLI_SMOKE_IDS = {
    "paper-check-cold", "paper-check-warm", "theta-counts", "fusion-rank1-error", "branch-json",
}


def oracle_op_id(kind: str, r: int, ell: int, arg) -> str:
    """kind "a": arg is a triple of weight indices; "b", "c": arg is the genus."""
    suffix = ".".join(map(str, arg)) if kind == "a" else f"g{arg}"
    return f"{kind}:{table_key(r, ell)}:{suffix}"


def oracle_op_ids(size: str, refs: dict) -> set[str]:
    """Every operation the oracle workload must answer, from the reference
    number of weights of each grid table."""
    ids = set()
    for r, ell in ORACLE_GRID[size]:
        n = refs["grid_weights"][table_key(r, ell)]
        ids.update(oracle_op_id("a", r, ell, ijk)
                   for ijk in itertools.product(range(n), repeat=3))
    for kind, queries in (("b", ORACLE_GENUS[size]), ("c", ORACLE_TRIG_ONLY[size])):
        ids.update(oracle_op_id(kind, r, ell, g) for r, ell, g in queries)
    return ids


def fock_op_ids(size: str, refs: dict) -> set[str]:
    """The reference matrices that lie in the size's box."""
    rmax, smax = FOCK_BOX[size]
    ids = set()
    for op in refs["entries"]:
        r, s = map(int, re.match(r"r(\d+)s(\d+):", op).groups())
        if r <= rmax and s <= smax:
            ids.add(op)
    return ids


def cli_chains(size: str) -> list[list[dict]]:
    if size == "full":
        return CLI_CHAINS
    return [c for c in CLI_CHAINS if all(op["id"] in CLI_SMOKE_IDS for op in c)]


# -- identifiers and digests --------------------------------------------------

def table_key(r: int, ell: int) -> str:
    return f"B{r}L{ell}"


def cache_file_name(r: int, ell: int) -> str:
    return f"B{r}_level{ell}.fusion.txt"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digest(row: dict) -> str:
    """Digest of one fusion row {Weight: multiplicity}, independent of order."""
    return digest(";".join(sorted(f"{nu}:{n}" for nu, n in row.items())))


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def load_refs(workload: str) -> dict:
    with open(os.path.join(REFS_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_known_defects() -> dict[str, dict[str, str]]:
    """{workload: {op id: how it fails}}"""
    with open(os.path.join(REFS_DIR, "known_defects.json"), encoding="utf-8") as fh:
        return {w: {d["op"]: d["fails"] for d in ds} for w, ds in json.load(fh).items()}


# -- checks: each returns one Outcome per operation -------------------------

WRONG = "wrong value"
MISSING = "missing"
EXTRA = "extra"


@dataclass
class Outcome:
    op: str
    ok: bool
    detail: str = ""
    kind: str = ""  # how it failed: an exception type, WRONG, MISSING, "exit N: ...", ...


def error_kind(text: str) -> str:
    """The exception type of an error text "Type: message"."""
    return text.split(":", 1)[0]


def _missing_and_extra(expected, got) -> list[Outcome]:
    """A failed Outcome for every expected op without a result, and for
    every result of an op that is not expected."""
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    return [Outcome(op, False, "no result", MISSING) for op in missing] + [
        Outcome(op, False, "no such reference operation", EXTRA) for op in extra
    ]


def check_tables(build_rows, reload_rows, file_shas, reload_computed, refs) -> list[Outcome]:
    """build_rows / reload_rows: {op id: row digest or {"error": text}};
    file_shas: {table key: sha256 of the saved file or None}, one entry per
    table built; reload_computed: rows process B computed instead of loading
    (None if B died)."""
    expected = {
        f"{key}:{i}": want for key in file_shas for i, want in enumerate(refs[key]["rows"])
    }
    out = _missing_and_extra(expected, build_rows)
    for op, want in sorted(expected.items()):
        if op not in build_rows:
            continue
        got, back = build_rows[op], reload_rows.get(op)
        if isinstance(got, dict):
            out.append(Outcome(op, False, got["error"], error_kind(got["error"])))
        elif got != want:
            out.append(Outcome(op, False, f"computed row {got}, reference {want}", WRONG))
        elif back != got:
            kind = error_kind(back["error"]) if isinstance(back, dict) else WRONG
            out.append(Outcome(op, False, f"reloaded row {back}, computed {got}", kind))
        else:
            out.append(Outcome(op, True))
    for key, sha in sorted(file_shas.items()):
        want = refs[key]["sha256"]
        out.append(Outcome(f"{key}:save", sha == want,
                           "" if sha == want else f"cache file sha256 {sha}, reference {want}",
                           "" if sha == want else WRONG))
    if reload_computed is not None:
        ok = reload_computed == 0
        out.append(Outcome("reload:from-cache", ok,
                           "" if ok else f"{reload_computed} rows computed instead of loaded",
                           "" if ok else "rows computed"))
    return out


def check_oracle(results: dict, expected: set, refs: dict) -> list[Outcome]:
    """results: {op id: [exact or None, trig]}; values are ints, or the text
    of the exception that engine raised.  expected: every op id that must
    have a result."""
    out = _missing_and_extra(expected, results)
    for op in sorted(expected & set(results)):
        exact, trig = results[op]
        golden = refs["goldens"].get(op)
        errors = [v for v in (exact, trig) if isinstance(v, str)]
        if errors:
            out.append(Outcome(op, False, "; ".join(errors), error_kind(errors[0])))
        elif exact is not None and exact != trig:
            out.append(Outcome(op, False, f"exact {exact} != trig {trig}", WRONG))
        elif golden is not None and trig != golden:
            out.append(Outcome(op, False, f"trig {trig} != golden {golden}", WRONG))
        else:
            out.append(Outcome(op, True))
    return out


def check_fock(results: dict, expected: set, refs: dict) -> list[Outcome]:
    """results: {op id: [determinant text, entries digest] or error text}."""
    out = _missing_and_extra(expected, results)
    for op in sorted(expected & set(results)):
        got = results[op]
        if isinstance(got, str):
            out.append(Outcome(op, False, got, error_kind(got)))
        elif got[0] != "0":
            out.append(Outcome(op, False, f"determinant {got[0]} != 0", WRONG))
        elif got[1] != refs["entries"][op]:
            out.append(Outcome(op, False, f"entries digest {got[1]} != {refs['entries'][op]}",
                               WRONG))
        else:
            out.append(Outcome(op, True))
    return out


def check_cli(op: str, returncode: int, stdout: str, stderr: str, refs: dict) -> Outcome:
    want = refs[op]
    problems = []
    if returncode != want["exit"]:
        problems.append(f"exit {returncode}, expected {want['exit']}")
    if "stdout" in want and stdout != want["stdout"]:
        problems.append("stdout differs from reference")
    got_lines = set(stdout.splitlines())
    missing = [line for line in want.get("stdout_has", []) if line not in got_lines]
    if missing:
        problems.append(f"stdout lacks {missing}")
    missing = [s for s in want.get("stderr_has", []) if s not in stderr]
    if missing:
        problems.append(f"stderr lacks {missing}")
    if not problems:
        return Outcome(op, True)
    last = (stderr.strip().splitlines()[-1:] or [""])[0]
    problems.append(f"stderr tail: {last[:200]}")
    if "Traceback (most recent call last)" in stderr:
        kind = error_kind(last)
    elif returncode != want["exit"]:
        kind = f"exit {returncode}: {last[:120]}"
    else:
        kind = "wrong output"
    return Outcome(op, False, "; ".join(problems), kind)


@dataclass
class Tally:
    attempted: int
    failures: list
    unexpected: list

    @property
    def fail_frac(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


def tally(outcomes, known: dict) -> Tally:
    """Every failed operation counts; a failure makes the run incorrect unless
    known_defects.json lists its op failing in that same way."""
    failures = [o for o in outcomes if not o.ok]
    return Tally(len(outcomes), failures, [o for o in failures if known.get(o.op) != o.kind])


# -- latency statistics -------------------------------------------------------

TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, p: float):
    """Nearest-rank percentile of an ascending sequence."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten operations beyond it
    (nearest rank); the median when there are too few operations."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def latency_summary(latencies_s) -> dict:
    values = sorted(latencies_s)
    if not values:  # the phase process died before timing anything
        return {"ops": 0}
    p = tail_percentile(len(values))
    return {
        "op_p50_ms": nearest_rank(values, 50) * 1e3,
        "op_tail_ms": nearest_rank(values, p) * 1e3,
        "tail_percentile": p,
        "ops": len(values),
    }


# -- host speed ----------------------------------------------------------------
# The speed of the shared VM this was written on drifts by up to 1.5x, over
# spans from a second to minutes.  Every child therefore times this fixed
# pure-Python job (integers, tuples, a dict, fractions, as the engine uses)
# about every CALIB_PERIOD_S from start to exit (child.HostSpeed).  run.py
# takes the job's runs out of the child's times and scales the rest by
# CALIB_REF_S over the mean job time: times are in seconds of a host on
# which the job takes CALIB_REF_S.

CALIB_REF_S = 0.003
CALIB_PERIOD_S = 0.05


def calibration_job() -> int:
    table: dict = {}
    acc, frac, big = 0, Fraction(0), 3 ** 200
    for i in range(4000):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + (i * i) % 1009
        acc += (big * i) % 1000003
        if i % 16 == 0:
            frac += Fraction(i, i % 7 + 1)
    return acc + len(table) + frac.numerator
