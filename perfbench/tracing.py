"""Spans and counts at the thetablocks layer boundaries, recorded from outside.

`install(tracer)` rebinds the public entry points of each layer, in every
thetablocks module and class that binds them, to wrappers that record a span
(name, start, end, parent span, run id) or, for the entry points hit around
10^5 times or more per run, only a call count.  Spans stay in memory; the
child writes them out when its phase ends and `summarize` turns them into
per-name call counts and self times (duration minus the time covered by
child spans).
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    def spanned(self, name: str, fn, after=None, on_error=None):
        """Wrap fn in a span; after(args, result) and on_error(exc) may add counts."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn, none_key: str | None = None):
        """Wrap fn with a call count; none_key also counts None results."""
        counts = self.counts
        if none_key is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if result is None:
                    counts[none_key] += 1
                return result
        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def rebind(original, replacement) -> int:
    """Replace every binding of `original` in thetablocks modules and in the
    classes they define; returns the number of bindings replaced."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "thetablocks" or name.startswith("thetablocks.")):
            continue
        for holder in [mod] + [
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == name
        ]:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)
                    n += 1
    return n


def install(tracer: Tracer) -> dict:
    """Instrument every layer boundary; returns the originals whose state
    (lru cache statistics) `finish` reads at the end of the phase."""
    import mpmath

    from thetablocks import branching, cli, fusion, rootsys, verlinde, weights
    from thetablocks.fock import blocks, hwv, operators, ranklevel, states

    t, counts = tracer, tracer.counts

    def bind(original, replacement):
        if rebind(original, replacement) == 0:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    # rootsys: count only; fold_shifted also counts wall hits (None)
    bind(rootsys.fold_shifted,
         t.counted("rootsys.fold.calls", rootsys.fold_shifted, "rootsys.fold.walls"))
    bind(rootsys.weyl_orbit_dbl, t.counted("rootsys.orbit.calls", rootsys.weyl_orbit_dbl))
    bind(rootsys.weyl_dim, t.counted("rootsys.weyl_dim.calls", rootsys.weyl_dim))

    # weights
    bind(weights.check_level, t.counted("weights.check_level.calls", weights.check_level))

    # fusion: products, Kac-Walton rows, cache load/save, genus engine
    Table = fusion.FusionTable
    bind(Table.product, t.spanned("fusion.product", Table.product))
    bind(Table.triple, t.spanned("fusion.triple", Table.triple))
    bind(Table.dim_genus0, t.spanned("fusion.genus0", Table.dim_genus0))
    bind(Table.dim_genus_g, t.spanned("fusion.genus", Table.dim_genus_g))

    rows = fusion._fusion_product_dbl

    def count_row(*args):
        result = rows(*args)
        counts["fusion.rows.computed"] += 1
        counts["fusion.entries"] += len(result)
        return result

    count_row.cache_info = rows.cache_info  # the tables check reads the misses
    bind(rows, count_row)

    load = Table._load

    def counted_load(table):
        before = len(table._products)
        load(table)
        counts["fusion.rows.loaded"] += len(table._products) - before
        path = table.cache_path
        if path is not None and os.path.exists(path):
            counts["fusion.load.bytes"] += os.path.getsize(path)

    bind(load, t.spanned("fusion.load", counted_load))

    def after_save(args, _result):
        table = args[0]
        counts["fusion.rows.saved"] += len(table._products)
        if table.cache_path is not None and os.path.exists(table.cache_path):
            counts["fusion.save.bytes"] += os.path.getsize(table.cache_path)

    bind(Table.save, t.spanned("fusion.save", Table.save, after=after_save))

    # verlinde: S-matrix builds and determinants, Verlinde sums, refusals
    def sum_error(exc):
        key = "verlinde.refused" if isinstance(exc, verlinde.PrecisionError) else "verlinde.errors"
        counts[key] += 1

    s_matrix = verlinde.s_matrix
    bind(s_matrix, t.spanned("verlinde.smatrix", s_matrix))
    mpmath.det = t.counted("verlinde.smatrix.dets", mpmath.det)
    for fn in (verlinde.dim_trig, verlinde.n0_oxbury):
        bind(fn, t.spanned("verlinde.sum", fn, on_error=sum_error))

    # branching
    bind(branching.branch_pairs, t.spanned("branching.pairs", branching.branch_pairs))
    bind(branching.sewing_exponent, t.spanned("branching.sewing", branching.sewing_exponent))
    for fn in (branching.ranklevel_example, branching.ranklevel_report):
        bind(fn, t.spanned("branching.report", fn))

    # fock
    bind(ranklevel.ranklevel_matrix, t.spanned("fock.matrix", ranklevel.ranklevel_matrix))
    bind(blocks.evaluate_block, t.spanned("fock.block", blocks.evaluate_block))
    for fn in (hwv.spin_hwv, hwv.spin_hwv_opposite, hwv.ns_column_hwv, hwv.so_pair_hwv,
               hwv.sigma_twist_hwv, hwv.sigma_twist_hwv_opposite):
        bind(fn, t.spanned("fock.hwv", fn))
    bind(operators.apply_bilinear, t.counted("fock.bilinear.calls", operators.apply_bilinear))
    bind(states.clifford_apply, t.counted("fock.clifford.calls", states.clifford_apply))

    # cli
    bind(cli.main, t.spanned("cli.main", cli.main))
    return {"s_matrix": s_matrix}


def finish(tracer: Tracer, originals: dict) -> None:
    tracer.counts["verlinde.smatrix.builds"] = originals["s_matrix"].cache_info().misses


def summarize(spans) -> dict:
    """Per span name: number of spans (`<name>.calls`) and self time in
    seconds (`<name>.self_s`)."""
    name_of = {s[0]: s[2] for s in spans}
    out: Counter = Counter()
    for _sid, parent, name, start, end in spans:
        dur = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur
        if parent is not None and parent in name_of:
            out[f"{name_of[parent]}.self_s"] -= dur
    return dict(out)
