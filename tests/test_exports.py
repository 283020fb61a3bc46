"""Public names and the benchmark's traced bindings still resolve."""

import importlib
import importlib.util
from pathlib import Path

import triptych

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_public_and_traced_names_resolve():
    assert [n for n in triptych.__all__ if not hasattr(triptych, n)] == []
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr)
        for module, attr, _span, _counter in tracing.BINDINGS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
