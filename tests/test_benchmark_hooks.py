"""Every entry point the traced benchmark wraps must exist.

perfbench/spans.py looks each hook up by (owner, attribute) and quietly
drops the metrics of a hook whose target has gone, so a rename in trigrad
would shorten the benchmark's report without failing anything.
"""

import importlib.util
import os

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

