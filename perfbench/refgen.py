#!/usr/bin/env python3
"""Regenerate the benchmark's reference outputs under perfbench/refs/.

Usage: python3 perfbench/refgen.py [tables] [oracle] [fock] [cli]

Run from the root of a source checkout (the engine is imported from ./src).
With no argument every reference file is rewritten.

- tables: per-row digests, in combinations_with_replacement order, and the
  sha256 of the saved cache file of every table the workload builds (with
  the phase code of child.py, as is the fock scan).
- oracle: exact goldens (H^g)_00 for every vacuum genus-g query, with the
  handle operator H = sum_mu N_mu^2 over the fusion matrices
  (N_mu)_{lam,nu} = N_{lam,mu,nu}, in Python integers; and the number of
  weights of every table of the genus-0 triple grid, which fixes the grid's
  operations (each triple is checked by exact/trig agreement).
- fock: digest of the printed entries of every rank-level matrix.
- cli: exit code and exact stdout of every invocation, each run through
  `python3 -m thetablocks.cli` on a fresh cache directory.  The two
  invocations hit by known defects get the behaviour the defect breaks:
  a cache file with a malformed line is read as absent (same output as the
  clean run), and `dim --method both` prints the exact engine's value for
  both engines and exits 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import ops  # noqa: E402
from thetablocks.fusion import FusionTable  # noqa: E402


def write(name: str, data) -> None:
    path = os.path.join(ops.REFS_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def gen_tables() -> dict:
    configs = ops.TABLES["full"] + ops.TABLES["smoke"]
    result: dict = {}
    with tempfile.TemporaryDirectory() as cache:
        child.phase_tables({"tables": configs, "cache_dir": cache, "seed": 0}, result,
                           reload=False)
        out = {}
        for r, ell in configs:
            key = ops.table_key(r, ell)
            rows = sorted((int(op.split(":")[1]), d) for op, d in result["rows"].items()
                          if op.split(":")[0] == key)
            assert all(re.fullmatch("[0-9a-f]{16}", d) for _, d in rows), key
            sha = ops.file_sha256(os.path.join(cache, ops.cache_file_name(r, ell)))
            out[key] = {"sha256": sha, "rows": [d for _, d in rows]}
    return out


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def handle_goldens(r: int, ell: int, genera) -> dict[int, int]:
    """(H^g)_00 for each g, exactly; index 0 is the vacuum weight."""
    table = FusionTable(r, ell)
    ws = table.weights()
    n = len(ws)
    h = [[0] * n for _ in range(n)]
    for mu in ws:
        nm = [[table.triple(lam, mu, nu) for nu in ws] for lam in ws]
        sq = _matmul(nm, nm)
        h = [[x + y for x, y in zip(hr, sr)] for hr, sr in zip(h, sq)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    out = {}
    for g in range(1, max(genera) + 1):
        power = _matmul(power, h)
        if g in genera:
            out[g] = power[0][0]
    return out


def gen_oracle() -> dict:
    goldens = {}
    queries = [("b", q) for size in ("full", "smoke") for q in ops.ORACLE_GENUS[size]]
    queries += [("c", q) for size in ("full", "smoke") for q in ops.ORACLE_TRIG_ONLY[size]]
    by_ring: dict = {}
    for kind, (r, ell, g) in queries:
        by_ring.setdefault((r, ell), []).append((kind, g))
    for (r, ell), items in by_ring.items():
        values = handle_goldens(r, ell, {g for _, g in items})
        for kind, g in items:
            goldens[ops.oracle_op_id(kind, r, ell, g)] = values[g]
    grid = {q for size in ("full", "smoke") for q in ops.ORACLE_GRID[size]}
    grid_weights = {ops.table_key(r, ell): len(FusionTable(r, ell).weights()) for r, ell in grid}
    return {"goldens": goldens, "grid_weights": grid_weights}


def gen_fock() -> dict:
    result: dict = {}
    child.phase_fock({"box": ops.FOCK_BOX["full"], "seed": 0}, result)
    entries = {}
    for op, got in sorted(result["results"].items()):
        assert not isinstance(got, str) and got[0] == "0", (op, got)
        entries[op] = got[1]
    return {"entries": entries}


def _cli(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "thetablocks.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def gen_cli() -> dict:
    refs = {}
    for chain in ops.CLI_CHAINS:
        with tempfile.TemporaryDirectory() as cdir:
            cache = os.path.join(cdir, "cache")
            for op in chain:
                op_id, argv = op["id"], op["argv"] + ["--cache-dir", cache]
                if op["prepare"] == "append-malformed":
                    # a malformed line must be read as absent: same as clean
                    refs[op_id] = {"exit": 0, "stdout": refs["ranklevel-1-cold"]["stdout"]}
                    continue
                if op_id == "dim-r3-l9-both":
                    exact = [a if a != "both" else "exact" for a in argv]
                    rc, stdout, _ = _cli(exact, cdir)
                    assert rc == 0, stdout
                    value = [ln for ln in stdout.splitlines() if ln.startswith("dim ")][0]
                    value = value.split(":", 1)[1].strip()
                    refs[op_id] = {"exit": 0, "stdout_has": [
                        f"dim     : {value}", f"dim_exact: {value}", f"dim_trig: {value}",
                        "engine  : fusion+trig",
                    ]}
                    continue
                rc, stdout, stderr = _cli(argv, cdir)
                assert "Traceback" not in stderr, (op_id, stderr)
                refs[op_id] = {"exit": rc, "stdout": stdout}
                if rc != 0:
                    refs[op_id]["stderr_has"] = [stderr.strip().splitlines()[-1]]
    return refs


GENERATORS = {"tables": gen_tables, "oracle": gen_oracle, "fock": gen_fock, "cli": gen_cli}


def main(names) -> int:
    os.makedirs(ops.REFS_DIR, exist_ok=True)
    for name in names or GENERATORS:
        write(name, GENERATORS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
