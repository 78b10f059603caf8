"""The benchmark tracer's targets resolve against the package.

``hexbench/tracer.py`` wraps each ``(module, function)`` of its
``TARGETS`` and rebinds the wrapper wherever the package holds the
original, so a rename or a re-binding in ``hexcnn`` breaks the benchmark
without breaking any kernel test.  This reads ``TARGETS`` from the
tracer's source (it imports only the standard library) and checks it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "hexbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_hexbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(m, f) for m, f, _ in mod.TARGETS]


@pytest.mark.parametrize("module,function", _targets())
def test_tracer_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


# (module holding a binding, name there, module of the original): the
# re-bindings the tracer must find and patch.
BINDINGS = [
    ("hexcnn.ops", "gemm", "hexcnn.matmul"),
    ("hexcnn.zeronet", "gemm", "hexcnn.matmul"),
    ("hexcnn.im2col", "gemm", "hexcnn.matmul"),
    ("hexcnn.grads", "window_columns", "hexcnn.ops"),
    ("hexcnn.nn", "conv_valid", "hexcnn.ops"),
    ("hexcnn.grads", "conv_full", "hexcnn.ops"),
    ("hexcnn.ops", "pad_rings", "hexcnn.grid"),
]


@pytest.mark.parametrize("holder,name,origin", BINDINGS)
def test_tracer_bindings_are_the_originals(holder, name, origin):
    assert (origin, name) in _targets()
    # the package re-exports the ``im2col`` function under its module's
    # name, so the module is reached through the import system
    bound = getattr(importlib.import_module(holder), name)
    assert bound is getattr(importlib.import_module(origin), name)
