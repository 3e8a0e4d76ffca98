"""The span hooks of the benchmark harness must all resolve.

``perfbench/spans.py`` wraps package functions by module and attribute
name; a name that disappears makes its per-layer metrics read ``null``
instead of a number.  This test loads the hook table read-only and checks
every entry against the package.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.exists(SPANS),
                    reason="benchmark harness not in this checkout")
def test_every_benchmark_hook_resolves():
    spans = _load_spans()
    unresolved = []
    for name, module, path in spans.HOOKS:
        importlib.import_module(module)
        owner, attr = spans._resolve(module, path)
        if attr is None or not callable(getattr(owner, attr)):
            unresolved.append(f"{name}: {module}.{path}")
    assert unresolved == []
