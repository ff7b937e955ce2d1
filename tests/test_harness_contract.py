"""The names that the benchmark harness under perfbench/ calls or traces
still resolve.  perfbench/tests checks the harness as a whole, but tier-1
does not run it, so without this file a deleted or renamed entry point (say
`hwv.so_pair_hwv` or `verlinde.s_matrix`) would show only when the benchmark
next ran.  A fresh interpreter with src/ and perfbench/ on the path
resolves every name perfbench/child.py calls, then installs the tracer,
which raises when a name it traces has lost its binding."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import importlib

missing = []
for module, name in [
    ("thetablocks.fusion", "FusionTable"),
    ("thetablocks.fusion", "_fusion_product_dbl.cache_info"),
    ("thetablocks.verlinde", "dim_trig"),
    ("thetablocks.fock", "ranklevel_matrix"),
    ("thetablocks.weights", "young_diagrams"),
    ("thetablocks.cli", "build_parser"),
    ("thetablocks.cli", "main"),
]:
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append(f"{module}.{name}")
assert not missing, f"perfbench/child.py calls missing names: {missing}"

from thetablocks.fusion import FusionTable

FusionTable(2, 1, cache_dir=None)

import tracing

tracing.install(tracing.Tracer("t"))
"""


def test_the_names_the_benchmark_calls_and_traces_resolve():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, (
        "the benchmark harness under perfbench/ no longer finds a name it calls or "
        "traces; the harness may change only with the benchmark (ROADMAP item 1):\n"
        + proc.stderr)
