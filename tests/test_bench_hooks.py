"""Every library name that the benchmark's tracer patches still exists.

`bench/tracing.py` wraps library functions by (module, attribute); without
this check a rename in the library only shows in the slow benchmark suite.
The tracer file is loaded as it is and never modified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for module, attr, _ in tracing.SPANS + tracing.COUNTS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        if "." in attr:  # "Class.member": the tracer patches the class's own member
            cls_name, member = attr.split(".")
            found = member in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced names missing from the library: {missing}"
