#!/usr/bin/env python3
"""theta-blocks benchmark: one workload, checked operation by operation.

Usage:
  python3 perfbench/run.py --workload {tables,oracle,fock,cli} [--seed N]
                           [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source checkout; the engine is imported from ./src.
Load is a closed loop from this one process: each phase of a pass runs in
a fresh interpreter (so module-level caches start cold) and at most one child
is alive at a time.  Untraced (--trace 0), passes repeat until --seconds is
spent and each timing is the median over passes; every end-to-end metric is
printed, and the last stdout line is a JSON object with those in E2E_GATED.
Traced (--trace 1), one untraced and one traced pass run; the last line
carries the per-layer metrics in PER_LAYER_GATED and the spans are written
under .perfbench-out/.  Every run works in its own temporary directory under
.perfbench-tmp/, removed at exit.  Times are scaled for the host's speed,
measured by each child with a calibration job (see ops.CALIB_REF_S); the
unscaled ones are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass, field

import ops
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0
clock = time.perf_counter

# every end-to-end metric, with its unit and the workload it belongs to
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "fail_frac": ("ratio", None),
    "peak_rss_mb": ("MB", None),
    "op_p50_ms": ("ms", None),
    "op_tail_ms": ("ms", None),
    "build_s": ("s", "tables"),
    "reload_s": ("s", "tables"),
    "exact_s": ("s", "oracle"),
    "trig_s": ("s", "oracle"),
    "paper_check_cold_s": ("s", "cli"),
    "paper_check_warm_s": ("s", "cli"),
}
# The subset on the last line: defined on every workload, never 0, and steady
# enough over ten seeds for a bound of at most 0.25.  On a 2-core VM, drift of
# the host's speed moved op_p50_ms by up to 0.31 (interquartile range over
# median, tables), so the latency percentiles are printed but not on it.
E2E_GATED = ("setup_s", "wall_s", "peak_rss_mb")

PER_LAYER = {
    "rootsys.fold.calls": "count",
    "rootsys.fold.wall_frac": "ratio",
    "rootsys.orbit.calls": "count",
    "rootsys.weyl_dim.calls": "count",
    "weights.check_level.calls": "count",
    "fusion.product.calls": "count",
    "fusion.product.self_s": "s",
    "fusion.rows.computed": "count",
    "fusion.rows.loaded": "count",
    "fusion.rows.saved": "count",
    "fusion.entries": "count",
    "fusion.load.self_s": "s",
    "fusion.load.bytes": "B",
    "fusion.save.self_s": "s",
    "fusion.save.bytes": "B",
    "fusion.genus.calls": "count",
    "fusion.genus0.calls": "count",
    "fusion.genus.self_s": "s",
    "fusion.triple.calls": "count",
    "verlinde.smatrix.builds": "count",
    "verlinde.smatrix.dets": "count",
    "verlinde.smatrix.self_s": "s",
    "verlinde.sum.calls": "count",
    "verlinde.sum.self_s": "s",
    "verlinde.refused": "count",
    "verlinde.errors": "count",
    "branching.pairs.calls": "count",
    "branching.pairs.self_s": "s",
    "branching.sewing.calls": "count",
    "branching.report.self_s": "s",
    "fock.matrix.calls": "count",
    "fock.matrix.self_s": "s",
    "fock.block.calls": "count",
    "fock.block.self_s": "s",
    "fock.hwv.self_s": "s",
    "fock.bilinear.calls": "count",
    "fock.clifford.calls": "count",
    "cli.import_s": "s",
    "cli.invocations": "count",
    "cli.exit_unexpected": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
# the subset on the last line of a traced run: counts, ratios and the two
# times that every workload produces.  Self times of layers a workload does
# not reach are exactly 0, so they are printed above the last line only.
PER_LAYER_GATED = tuple(
    name for name, unit in PER_LAYER.items() if unit != "s"
) + ("cli.import_s", "trace.overhead_s")


@dataclass
class Child:
    """One finished child process.  Its times exclude the calibration job's
    runs and, unless named raw, are multiplied by `scale`."""

    returncode: int  # negative: killed by that signal, -9 at the run deadline
    t_spawn: float
    t_exit: float
    result: dict
    stdout: str
    stderr: str

    @property
    def scale(self) -> float:
        """CALIB_REF_S over the child's mean calibration time: above 1 on a
        host faster than the reference, 1 if the child timed nothing."""
        samples = self.result.get("calib")
        return ops.CALIB_REF_S / statistics.mean(samples) if samples else 1.0

    @property
    def setup_raw_s(self) -> float | None:
        ready = self.result.get("t_ready")
        if ready is None:
            return None
        return ready - self.t_spawn - self.result["calib_ready_s"]

    @property
    def setup_s(self) -> float | None:
        raw = self.setup_raw_s
        return None if raw is None else raw * self.scale

    @property
    def work_raw_s(self) -> float:
        """From the end of set-up (or the spawn) to the exit."""
        r = self.result
        calib = r.get("calib_total_s", 0.0) - r.get("calib_ready_s", 0.0)
        return self.t_exit - r.get("t_ready", self.t_spawn) - calib

    @property
    def work_s(self) -> float:
        return self.work_raw_s * self.scale

    @property
    def latency_s(self) -> float:
        """From the spawn to the exit, as a user of the CLI waits."""
        r = self.result
        return (self.t_exit - self.t_spawn - r.get("calib_total_s", 0.0)) * self.scale

    @property
    def phase_s(self) -> float:
        """Time of the phase's own work, inside the child."""
        r = self.result
        calib = r["calib_done_s"] - r["calib_ready_s"]
        return (r["t_work_done"] - r["t_ready"] - calib) * self.scale

    @property
    def latencies(self) -> list[float]:
        """The per-operation latencies the child timed."""
        return [dt * self.scale for dt in self.result.get("latencies", [])]

    def failure(self, name: str) -> ops.Outcome | None:
        if self.returncode == 0 and "t_work_done" in self.result:
            return None
        tail = (self.stderr.strip().splitlines() or [""])[-1][:200]
        return ops.Outcome(f"{name}:process", False, tail, f"exit {self.returncode}")


class Runner:
    """Spawns children one at a time and keeps every one it ran."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.children: list[Child] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, spec: dict, cwd: str) -> Child:
        n = len(self.children)
        spec_path = os.path.join(self.tmp, f"spec-{n}.json")
        result_path = os.path.join(self.tmp, f"result-{n}.json")
        out_path = os.path.join(self.tmp, f"stdout-{n}.txt")
        err_path = os.path.join(self.tmp, f"stderr-{n}.txt")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = clock()
            proc = subprocess.Popen(
                [sys.executable, CHILD, spec_path, result_path], cwd=cwd, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            # wait() with a timeout polls with sleeps of up to 50 ms, which
            # would quantize exit times; block instead and kill on a timer.
            timer = threading.Timer(max(1.0, self.deadline - clock()), proc.kill)
            timer.start()
            try:
                rc = proc.wait()
            finally:  # also on SIGTERM: never leave a child behind
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_exit = clock()
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        child = Child(rc, t_spawn, t_exit, result, stdout, stderr)
        self.children.append(child)
        return child


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    children: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    cli_invocations: int = 0
    cli_unexpected_exit: int = 0

    def metrics(self) -> dict:
        m = {"wall_s": sum(c.work_s for c in self.children),
             "wall_raw_s": sum(c.work_raw_s for c in self.children)}
        m.update(ops.latency_summary(self.latencies))
        m.update(self.extra)
        return m


def pass_tables(runner, spec, pdir, refs) -> Pass:
    cache = os.path.join(pdir, "cache")
    spec = dict(spec, tables=ops.TABLES[spec["size"]], cache_dir=cache)
    build = runner.spawn(dict(spec, phase="tables_build"), pdir)
    shas = {}
    for r, ell in spec["tables"]:
        path = os.path.join(cache, ops.cache_file_name(r, ell))
        shas[ops.table_key(r, ell)] = ops.file_sha256(path) if os.path.exists(path) else None
    reload = runner.spawn(dict(spec, phase="tables_reload"), pdir)
    p = Pass(children=[build, reload], latencies=build.latencies)
    p.outcomes = ops.check_tables(
        build.result.get("rows", {}), reload.result.get("rows", {}), shas,
        reload.result.get("rows_computed"), refs,
    )
    p.outcomes += [f for f in (build.failure("build"), reload.failure("reload")) if f]
    if not any(f.op.endswith(":process") for f in p.outcomes):
        p.extra = {"build_s": build.phase_s, "reload_s": reload.phase_s}
    return p


def pass_oracle(runner, spec, pdir, refs) -> Pass:
    size = spec["size"]
    spec = dict(spec, phase="oracle", grid=ops.ORACLE_GRID[size],
                genus=ops.ORACLE_GENUS[size], trig_only=ops.ORACLE_TRIG_ONLY[size])
    child = runner.spawn(spec, pdir)
    p = Pass(children=[child], latencies=child.latencies)
    p.outcomes = ops.check_oracle(
        child.result.get("results", {}), ops.oracle_op_ids(size, refs), refs
    )
    failure = child.failure("oracle")
    if failure:
        p.outcomes.append(failure)
    else:
        p.extra = {name: child.result[name] * child.scale for name in ("exact_s", "trig_s")}
    return p


def pass_fock(runner, spec, pdir, refs) -> Pass:
    child = runner.spawn(dict(spec, phase="fock", box=ops.FOCK_BOX[spec["size"]]), pdir)
    p = Pass(children=[child], latencies=child.latencies)
    p.outcomes = ops.check_fock(
        child.result.get("results", {}), ops.fock_op_ids(spec["size"], refs), refs
    )
    failure = child.failure("fock")
    if failure:
        p.outcomes.append(failure)
    return p


def _append_malformed_line(cache: str) -> str | None:
    names = sorted(os.listdir(cache)) if os.path.isdir(cache) else []
    if not names:
        return "no cache file to append a malformed line to"
    with open(os.path.join(cache, names[0]), "a", encoding="utf-8") as fh:
        fh.write(ops.MALFORMED_LINE)
    return None


def pass_cli(runner, spec, pdir, refs) -> Pass:
    chains = list(enumerate(ops.cli_chains(spec["size"])))
    random.Random(spec["seed"]).shuffle(chains)
    p = Pass()
    for index, chain in chains:
        cdir = os.path.join(pdir, f"chain-{index}")
        cache = os.path.join(cdir, "cache")
        os.makedirs(cdir)
        for op in chain:
            if op["prepare"] == "append-malformed":
                problem = _append_malformed_line(cache)
                if problem:
                    p.outcomes.append(ops.Outcome(op["id"], False, problem, "set-up"))
                    continue
            child = runner.spawn(
                dict(spec, phase="cli", argv=op["argv"] + ["--cache-dir", cache]), cdir
            )
            p.children.append(child)
            p.cli_invocations += 1
            latency = child.latency_s
            p.latencies.append(latency)
            if child.returncode != refs[op["id"]]["exit"]:
                p.cli_unexpected_exit += 1
            p.outcomes.append(
                ops.check_cli(op["id"], child.returncode, child.stdout, child.stderr, refs)
            )
            if op["id"] == "paper-check-cold":
                p.extra["paper_check_cold_s"] = latency
            elif op["id"] == "paper-check-warm":
                p.extra["paper_check_warm_s"] = latency
    return p


PASSES = {"tables": pass_tables, "oracle": pass_oracle, "fock": pass_fock, "cli": pass_cli}


def run_pass(workload, runner, spec, tmp, refs) -> Pass:
    pdir = tempfile.mkdtemp(prefix="pass-", dir=tmp)
    return PASSES[workload](runner, spec, pdir, refs)


def per_layer(traced: Pass, untraced: Pass) -> dict:
    flat: dict = {}
    for child in traced.children:  # span ids are unique within one process
        trace = child.result.get("trace", {})
        for k, v in trace.get("counts", {}).items():
            flat[k] = flat.get(k, 0) + v
        for k, v in tracing.summarize(trace.get("spans", [])).items():
            if k.endswith(".self_s"):
                v *= child.scale
            flat[k] = flat.get(k, 0) + v
    calls = flat.get("rootsys.fold.calls", 0)
    flat["rootsys.fold.wall_frac"] = flat.get("rootsys.fold.walls", 0) / calls if calls else 0.0
    imports = [c.result["import_s"] * c.scale for c in traced.children if "import_s" in c.result]
    flat["cli.import_s"] = statistics.median(imports) if imports else 0.0
    flat["cli.invocations"] = traced.cli_invocations
    flat["cli.exit_unexpected"] = traced.cli_unexpected_exit
    flat["trace.overhead_s"] = traced.metrics()["wall_s"] - untraced.metrics()["wall_s"]
    return {name: flat.get(name, 0) for name in PER_LAYER}


def write_spans(path: str, traced: Pass) -> int:
    n = 0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["run_id", "process", "id", "parent", "name", "start", "end"]) + "\n")
        for proc, child in enumerate(traced.children):
            trace = child.result.get("trace", {})
            for sid, parent, name, start, end in trace.get("spans", []):
                fh.write(json.dumps([trace["run_id"], proc, sid, parent, name, start, end]) + "\n")
                n += 1
    return n


def platform_info(runner: Runner, seed: int) -> dict:
    backends = {c.result.get("backend") for c in runner.children} - {None}
    return {
        "python": platform.python_version(),
        "mpmath_backend": ",".join(sorted(backends)) or "unknown",
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "seed": seed,
    }


def median_of(metrics: list[dict], name: str):
    values = [m[name] for m in metrics if name in m]
    return statistics.median(values) if values else None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the harness itself")
    return ap.parse_args(argv)


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "thetablocks", "cli.py")):
        print(f"error: no thetablocks sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    t_run = clock()
    workload, seed = args.workload, args.seed
    refs = ops.load_refs(workload)
    known = ops.load_known_defects()[workload]
    run_id = uuid.uuid4().hex[:12]
    spec = {"seed": seed, "size": "smoke" if args.smoke else "full", "trace": False,
            "run_id": run_id}

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    try:
        runner = Runner(tmp, t_run + RUN_DEADLINE_S)
        # first child compiles bytecode and warms the file cache; not measured
        runner.spawn({"phase": "probe"}, tmp)
        probes = [runner.spawn({"phase": "probe"}, tmp) for _ in range(SETUP_PROBES)]
        passes: list[Pass] = []
        traced = None
        t0 = clock()
        if args.trace:
            passes.append(run_pass(workload, runner, spec, tmp, refs))
            traced = run_pass(workload, runner, dict(spec, trace=True), tmp, refs)
        else:
            while True:
                passes.append(run_pass(workload, runner, spec, tmp, refs))
                elapsed = clock() - t0
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
        info = platform_info(runner, seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    measured = passes + ([traced] if traced else [])
    t = ops.tally([o for p in measured for o in p.outcomes], known)

    measured_children = probes + [c for p in passes for c in p.children]
    setups = [c for c in measured_children if c.setup_s is not None]
    e2e = {
        "setup_s": statistics.median(c.setup_s for c in setups) if setups else None,
        "fail_frac": t.fail_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    per_pass = [p.metrics() for p in passes]
    tail = {"percentile": per_pass[0].get("tail_percentile"), "ops_per_pass": per_pass[0]["ops"]}
    for name in E2E:
        if name not in e2e:
            e2e[name] = median_of(per_pass, name)

    print(f"# theta-blocks benchmark  workload={workload}  seed={seed}  "
          f"size={spec['size']}  trace={args.trace}  run={run_id}")
    print("# " + "  ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# passes={len(passes)}{' + 1 traced' if traced else ''}  "
          f"operations={t.attempted}  failed={len(t.failures)}  "
          f"unexpected={len(t.unexpected)}")
    setup_raw = statistics.median(c.setup_raw_s for c in setups) if setups else None
    print(f"# unscaled: setup_s={setup_raw}  wall_s={median_of(per_pass, 'wall_raw_s')}  "
          f"host scale={statistics.median(c.scale for c in measured_children):.4f}")
    repeats = Counter((o.op, o.kind, o.detail) for o in t.failures)
    for (op, kind, detail), n in repeats.items():
        tag = "known defect" if known.get(op) == kind else "UNEXPECTED"
        print(f"# FAIL [{tag}] {op} (x{n}, {kind}): {detail}")
    for name, (unit, only) in E2E.items():
        value = e2e[name]
        if value is None:
            print(f"  {name:20s} n/a ({only} only)" if only else f"  {name:20s} n/a")
            continue
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail['percentile']:g} of {tail['ops_per_pass']} operations per pass)"
        print(f"  {name:20s} {value:.6g} {unit}{note}")

    layers = None
    if traced:
        layers = per_layer(traced, passes[0])
        spans_path = os.path.join(OUT_ROOT, f"spans-{workload}-seed{seed}.jsonl")
        n_spans = write_spans(spans_path, traced)
        print(f"# traced pass: {n_spans} spans written to "
              f"{os.path.relpath(spans_path, ROOT)}")
        for name, value in layers.items():
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:28s} {shown} {PER_LAYER[name]}")

    if traced:
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k]} for k in PER_LAYER_GATED}
    else:
        metrics = {k: {"value": e2e[k], "unit": E2E[k][0]} for k in E2E_GATED}
    print(json.dumps({
        "correct": not t.unexpected,
        "attempted": t.attempted,
        "failed": len(t.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
