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


def test_counted_functions_keep_the_attributes_the_counters_read():
    # the counters read results by attribute: cohomology(...).rank_warning,
    # z_mc(...).meta["n_samples"], and find_flat_batch's n and trace by name.
    # No CLI command calls cohomology, so the traced smoke rounds would not
    # notice a renamed field; each counted function is called once here.
    import dataclasses

    import numpy as np

    from foamtor.connection import find_flat_batch
    from foamtor.foam import builtin
    from foamtor.groups import SU2
    from foamtor.partition import z_mc
    from foamtor.torsion import torsion_at
    from foamtor.twisted import cohomology

    assert set(tracing.COUNTERS) <= set(tracing.SPANS)
    rng = np.random.default_rng(0)
    trace = []
    found = find_flat_batch(builtin("torus"), "su2", rng, n=2, trace=trace)
    assert trace and len(found) <= 2
    assert isinstance(cohomology(found[0]).rank_warning, bool)
    assert z_mc(builtin("torus"), "su2", 0.5, 100, seed=1).meta["n_samples"] == 100
    # _count_refusals counts the ValueErrors of torsion_at
    with pytest.raises(ValueError, match="flagged possibly singular"):
        torsion_at(dataclasses.replace(found[0], possibly_singular=np.array([True])), rng)
    g = SU2.mul(SU2.identity((3,)), SU2.identity((3,)))
    assert g.size // g.shape[-1] == 3
    assert SU2.heat_kernel(0.3, np.array([0.5, 1.0])).size == 2
