"""Every entry point the traced benchmark wraps must exist, and a small
traced run must report every per-layer metric.

perfbench/spans.py looks each hook up by (owner, attribute) and quietly
drops the metrics of a hook whose target has gone or whose counter hook no
longer understands its arguments or result, so a rename or a changed return
shape in trigrad would shorten the benchmark's report without failing
anything.
"""

import importlib.util
import json
import os

import trigrad.algebra
import trigrad.cube
import trigrad.homfly
import trigrad.homology
from trigrad.braid import build_marked_diagram, parse_braid

SPANS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_resolves():
    spans = _load_spans()
    for owner, attr, name, _hook in spans.HOOKS:
        assert owner is not None, name
        assert callable(getattr(owner, attr, None)), f"{name}: {attr}"



BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")

# per-layer metrics that perfbench/run.py adds itself, outside the tracer
RUN_METRICS = {"trace.wall_s", "trace.overhead_ratio", "braid.crossings",
               "braid.vars"}


def test_traced_run_reports_every_per_layer_metric():
    # call through the module attributes, which install() replaces
    spans = _load_spans()
    with open(BENCHMARK) as fh:
        wanted = {m["name"] for m in json.load(fh)["per_layer"]} - RUN_METRICS
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.recording = True
        trefoil = parse_braid("1 1 1")
        trigrad.cube.braid_homology(trefoil, 4)
        diagram = build_marked_diagram(parse_braid("1 2"))
        trigrad.homology.graph_homology(trigrad.cube.resolve(diagram, 1), 6)
        trigrad.algebra.qt_expand(trigrad.homfly.homfly_F(trefoil), 6)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert not tracer.missing | tracer.broken
    metrics = tracer.metrics()
    assert metrics["homology.max_coeff_bits"] > 0
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
