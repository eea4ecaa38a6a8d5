"""Every boundary the benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` lists a boundary it cannot find as "absent" and runs
on, so a rename in the package would silently drop that module from the
benchmark's per-module split.  This test reads the list and fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


BOUNDARIES = _boundaries()


@pytest.mark.parametrize("name,module_name,attr", BOUNDARIES,
                         ids=[name for name, _, _ in BOUNDARIES])
def test_boundary_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if attr.startswith("Trace."):
        # the tracer wraps methods found in the class's own namespace
        assert attr.split(".", 1)[1] in vars(module.Trace), name
    else:
        assert callable(getattr(module, attr, None)), name
