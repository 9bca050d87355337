"""Every name the benchmark's tracer wraps exists in the package.

perfbench/tracer.py wraps module functions (FUNCTIONS, looked up with
getattr) and class methods (METHODS, looked up in the class __dict__).  A
rename or deletion of one of them makes ``perfbench/run.py --trace 1`` fail
before it measures anything, so it fails here first.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in tracer.FUNCTIONS
        if getattr(owner, attr, None) is None
    ]
    missing += [
        f"{cls.__qualname__}.{attr}"
        for cls, attr, _, _ in tracer.METHODS
        if attr not in cls.__dict__
    ]
    assert not missing, missing
