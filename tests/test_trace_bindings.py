"""The benchmark's span tracer must find every name it wraps.

perfbench/spans.py wraps functions where gphier's modules bind them; a
renamed or removed binding would only surface when a traced benchmark run
fails.  The file is only read, by path.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_wraps():
    # compiled from source, so no bytecode cache is written beside it
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["WRAPS"]


def test_every_wrapped_binding_is_callable():
    wraps = load_wraps()
    assert wraps
    missing = []
    for modname, attr, _group in wraps:
        module = importlib.import_module(modname)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{attr}")
    assert missing == []
