"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps foamtor
functions by name; every name it lists must still exist, or --trace 1 breaks.
The harness module is only imported, never changed or run."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("span", sorted(tracing.FUNCTIONS))
def test_traced_function_resolves(span):
    for module, attr in tracing.FUNCTIONS[span]:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_group_methods_resolve():
    from foamtor.groups import SU2, U1
    for cls in (SU2, U1):
        for method in tracing.GROUP_METHODS:
            assert isinstance(cls.__dict__.get(method), staticmethod), (cls, method)


def test_descent_counter_binds_find_flat_batch_parameters():
    # _count_descent binds n and trace by name; losing either breaks --trace 1
    from foamtor.connection import find_flat_batch
    assert {"n", "trace"} <= set(inspect.signature(find_flat_batch).parameters)
