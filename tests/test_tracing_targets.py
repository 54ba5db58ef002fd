"""Every function the benchmark's traced child wraps still exists.

``perfbench/tracing.py`` looks each ``(layer, function)`` of its ``TARGETS``
up on ``lipcot.<layer>`` when it installs its spans. A deleted or renamed
function would break only the traced benchmark run, so the names are checked
here, from the file as it is, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = _tracing().TARGETS
    missing = [
        f"lipcot.{layer}.{function}"
        for layer, functions in targets.items()
        for function in functions
        if not callable(getattr(importlib.import_module(f"lipcot.{layer}"), function, None))
    ]
    assert targets
    assert missing == []
