"""One benchmark phase in a fresh interpreter, so every module-level cache
starts cold.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec names the phase and its parameters.  The child stamps the moment
set-up ends (interpreter start, `import thetablocks.cli`, `build_parser()`),
does the phase's work and, when the interpreter exits, writes the stamps,
per-operation outputs and latencies, the times of the calibration job
(`ops.calibration_job`, run by a thread about every CALIB_PERIOD_S from
start to exit) and, if tracing was asked for, its spans and counts to
RESULT_JSON.
All times are `time.perf_counter()` readings, which on Linux share one
monotonic clock across processes.
"""

import sys
import time

T_START = time.perf_counter()

import atexit  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import threading  # noqa: E402

import ops  # noqa: E402

clock = time.perf_counter


class HostSpeed(threading.Thread):
    """Runs the calibration job about every CALIB_PERIOD_S while the child
    works.  The job holds the GIL, so the main thread stands still while it
    runs; `busy_s`, the total time of the job so far, is taken out of every
    time the child reports."""

    def __init__(self):
        super().__init__(name="host-speed", daemon=True)
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.done = threading.Event()

    def run(self):
        while True:
            # a collection here would walk the engine's heap and charge it
            # to the job
            gc_was_on = gc.isenabled()
            gc.disable()
            t0 = clock()
            ops.calibration_job()
            dt = clock() - t0
            if gc_was_on:
                gc.enable()
            self.samples.append(dt)
            self.busy_s += dt
            if self.done.wait(ops.CALIB_PERIOD_S):
                return

    def stop(self):
        self.done.set()
        self.join()


HOST = HostSpeed()


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def phase_probe(spec, out):
    """Set-up only."""


def phase_tables(spec, out, reload: bool):
    """Process A (reload false): compute every product row of each table in
    seed order, then save().  Process B (reload true): build each table from
    the saved cache and answer every row."""
    from thetablocks import fusion
    from thetablocks.fusion import FusionTable

    tables = {
        ops.table_key(r, ell): FusionTable(r, ell, cache_dir=spec["cache_dir"])
        for r, ell in spec["tables"]
    }
    todo = [
        (key, i, a, b)
        for key, table in tables.items()
        for i, (a, b) in enumerate(itertools.combinations_with_replacement(table.weights(), 2))
    ]
    random.Random(spec["seed"]).shuffle(todo)
    rows, latencies = {}, []
    for key, i, a, b in todo:
        row, dt = _timed(tables[key].product, a, b)
        if isinstance(row, str):
            rows[f"{key}:{i}"] = {"error": row}
            continue
        latencies.append(dt)
        rows[f"{key}:{i}"] = ops.row_digest(row)
    if reload:
        # every row must have come from the cache files
        out["rows_computed"] = fusion._fusion_product_dbl.cache_info().misses
    else:
        for table in tables.values():
            table.save()
    out["rows"] = rows
    out["latencies"] = latencies


def _timed(fn, *args):
    """fn's value, or the text of its exception; and its time."""
    t0, busy0 = clock(), HOST.busy_s
    try:
        value = fn(*args)
    except Exception as exc:
        value = _error(exc)
    return value, clock() - t0 - (HOST.busy_s - busy0)


def phase_oracle(spec, out):
    from thetablocks.fusion import FusionTable
    from thetablocks.verlinde import dim_trig

    tables = {}

    def table(r, ell):
        if (r, ell) not in tables:
            tables[r, ell] = FusionTable(r, ell)
        return tables[r, ell]

    todo = []
    for r, ell in spec["grid"]:
        n = len(table(r, ell).weights())
        for ijk in itertools.product(range(n), repeat=3):
            todo.append(("a", r, ell, ijk))
    todo += [("b", r, ell, g) for r, ell, g in spec["genus"]]
    todo += [("c", r, ell, g) for r, ell, g in spec["trig_only"]]
    random.Random(spec["seed"]).shuffle(todo)

    results, latencies = {}, []
    exact_s = trig_s = 0.0
    for kind, r, ell, arg in todo:
        tab = table(r, ell)
        if kind == "a":
            ws = tab.weights()
            lams = [ws[i] for i in arg]
            exact, dt_exact = _timed(tab.triple, *lams)
            trig, dt_trig = _timed(dim_trig, 0, lams, r, ell)
        elif kind == "b":
            exact, dt_exact = _timed(tab.dim_genus_g, arg, [])
            trig, dt_trig = _timed(dim_trig, arg, [], r, ell)
        else:
            exact, dt_exact = None, 0.0
            trig, dt_trig = _timed(dim_trig, arg, [], r, ell)
        op = ops.oracle_op_id(kind, r, ell, arg)
        exact_s += dt_exact
        trig_s += dt_trig
        latencies.append(dt_exact + dt_trig)
        results[op] = [exact, trig]
    out.update(results=results, latencies=latencies, exact_s=exact_s, trig_s=trig_s)


def phase_fock(spec, out):
    from thetablocks.fock import ranklevel_matrix
    from thetablocks.weights import young_diagrams

    rmax, smax = spec["box"]
    todo = [
        (r, s, y)
        for r in range(2, rmax + 1)
        for s in range(2, smax + 1)
        for y in young_diagrams(r, s - 1)
        if y.row(1) == s - 1
    ]
    random.Random(spec["seed"]).shuffle(todo)
    results, latencies = {}, []
    for r, s, y in todo:
        m, dt = _timed(ranklevel_matrix, y, r, s)
        latencies.append(dt)
        if isinstance(m, str):
            results[f"r{r}s{s}:{y}"] = m
            continue
        flat = ",".join(str(e) for row in m.entries for e in row)
        results[f"r{r}s{s}:{y}"] = [str(m.determinant), ops.digest(flat)]
    out.update(results=results, latencies=latencies)


PHASES = {
    "probe": phase_probe,
    "tables_build": lambda spec, out: phase_tables(spec, out, reload=False),
    "tables_reload": lambda spec, out: phase_tables(spec, out, reload=True),
    "oracle": phase_oracle,
    "fock": phase_fock,
}


def main() -> int:
    # The job (a few ms) must not lose the GIL half-way, which it would after
    # the default switch interval of 5 ms on a slow host.
    sys.setswitchinterval(0.05)
    HOST.start()
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"t_start": T_START}
    tracer = originals = None

    def write_result():
        HOST.stop()
        out["calib"] = HOST.samples
        out["calib_total_s"] = HOST.busy_s
        out["t_done"] = clock()
        if tracer is not None:
            from tracing import finish

            finish(tracer, originals)
            out["trace"] = tracer.dump()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)

    atexit.register(write_result)

    t0 = clock()
    import thetablocks.cli as cli

    out["import_s"] = clock() - t0
    import mpmath.libmp

    out["backend"] = mpmath.libmp.BACKEND
    if spec["phase"] == "cli":
        # set-up ends when main() has built its parser
        build_parser = cli.build_parser

        def stamped_build_parser():
            parser = build_parser()
            if "t_ready" not in out:
                out["t_ready"], out["calib_ready_s"] = clock(), HOST.busy_s
            return parser

        cli.build_parser = stamped_build_parser
    else:
        cli.build_parser()
        out["t_ready"], out["calib_ready_s"] = clock(), HOST.busy_s

    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        originals = tracing.install(tracer)

    if spec["phase"] == "cli":
        return cli.main(spec["argv"])
    PHASES[spec["phase"]](spec, out)
    out["t_work_done"], out["calib_done_s"] = clock(), HOST.busy_s
    return 0


if __name__ == "__main__":
    sys.exit(main())
