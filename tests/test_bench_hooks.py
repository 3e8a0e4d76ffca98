"""The benchmark harness must keep working against the package.

``perfbench/spans.py`` wraps package functions by module and attribute
name; a name that disappears makes its per-layer metrics read ``null``
instead of a number.  ``perfbench/workloads.py`` drives the CLI with fixed
command lines; a removed or renamed flag makes every benchmark run fail.
These tests load both files read-only and check them against the package.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from opentropy.cli import build_parser

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
SPANS = os.path.join(PERFBENCH, "spans.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up while the class is built
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.skipif(not os.path.exists(SPANS),
                    reason="benchmark harness not in this checkout")
def test_every_benchmark_hook_resolves():
    spans = _load(SPANS, "_perfbench_spans")
    unresolved = []
    for name, module, path in spans.HOOKS:
        importlib.import_module(module)
        owner, attr = spans._resolve(module, path)
        if attr is None or not callable(getattr(owner, attr)):
            unresolved.append(f"{name}: {module}.{path}")
    assert unresolved == []


@pytest.mark.skipif(not os.path.exists(WORKLOADS),
                    reason="benchmark harness not in this checkout")
def test_every_benchmark_command_line_parses(tmp_path):
    workloads = _load(WORKLOADS, "_perfbench_workloads")
    parser = build_parser()
    for name, workload in workloads.WORKLOADS.items():
        calls = workload.cycle(1, 0, False, str(tmp_path))
        assert calls, name
        for call in calls:
            args = parser.parse_args(list(call.argv))
            assert args.command == call.kind, (name, call.argv)


@pytest.mark.skipif(not os.path.exists(WORKLOADS),
                    reason="benchmark harness not in this checkout")
def test_benchmark_varies_exactly_the_parameters_each_suite_reads():
    # a verify workload cycles every parameter its suite reads, and pins
    # each one the suite does not read, where resolve would replace it
    from opentropy.bounds import SUITES

    workloads = _load(WORKLOADS, "_perfbench_workloads")
    for suite, lists in workloads.SUITE_PARAMS.items():
        axes = SUITES[suite].axes
        for slot, values in zip(("alpha", "beta", "delta", "lam"), lists):
            count = len(values.split(","))
            if slot in axes:
                assert count >= 2, (suite, slot, values)
            else:
                assert count == 1, (suite, slot, values)
