"""The functions the benchmark traces exist under the names it looks them up by."""

import importlib

from reference import ROOT, load


def test_every_trace_target_resolves():
    spans = load(ROOT / "bench" / "spans.py", "bench_spans")
    assert spans.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
