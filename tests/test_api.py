import dataclasses
import inspect

import numpy as np
import pytest

import foamtor as ft
from foamtor import connection, foam, torsion, twisted

SAMPLE_PARAMS = {"conn", "sample", "samples"}


@pytest.mark.parametrize("module", [connection, twisted, torsion, foam],
                         ids=lambda m: m.__name__)
def test_no_function_takes_a_foam_beside_its_connection(module):
    # a connection carries its foam: a second foam argument could only disagree
    takes_sample, doubled = [], []
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        params = set(inspect.signature(fn).parameters)
        if params & SAMPLE_PARAMS:
            takes_sample.append(name)
            if "foam" in params:
                doubled.append(name)
    assert takes_sample, "no public function of %s takes a sample" % module.__name__
    assert doubled == []


@pytest.mark.parametrize("name", ["su2", "u1"])
def test_every_entry_point_takes_a_group_as_its_class_or_its_name(name):
    # a group is its class: the name, the class and get_group's answer are one
    # group, and every function that takes a group gives the same bits for each
    cls = {"su2": ft.SU2, "u1": ft.U1}[name]
    torus = ft.builtin("torus")

    def outcomes(group):
        rng = np.random.default_rng(3)
        found = ft.find_flat_batch(torus, group, rng, 2)
        sampled = ft.sample_flat("torus", group, 2, rng)[1]
        report = ft.min_b2("torus", group, 2, rng)
        conn = ft.Connection(torus, group, found[0].data)
        return (ft.get_group(group), conn.group, found[0].group,
                sampled[0].group,
                [s.data.tobytes() for s in [*found, *sampled]], report.b2_0,
                report.histogram, ft.z_mc(torus, group, 0.5, 200, seed=1).value,
                ft.z_char_surface(2, 0.6, group).value)

    want = outcomes(name)
    assert want[:4] == (cls,) * 4
    for group in (name.upper(), cls, ft.get_group(name)):
        assert outcomes(group) == want


def test_a_flat_sample_is_a_connection():
    # one record per sample: the connection's fields, then the residual and
    # the classification, in this order
    assert issubclass(ft.FlatSample, ft.Connection)
    assert [f.name for f in dataclasses.fields(ft.FlatSample)] == [
        "foam", "group", "data", "residual", "b0", "b2", "component_tag",
        "possibly_singular"]
    # the inherited builders cannot make a sample without its residual
    torus = ft.builtin("torus")
    with pytest.raises(TypeError, match="residual"):
        ft.FlatSample.identity(torus, "su2")
    with pytest.raises(TypeError, match="residual"):
        ft.FlatSample.haar(torus, "su2", np.random.default_rng(0))


def _api_samples():
    rng = np.random.default_rng(21)
    return {
        "torus": ft.analytic_flat("torus", rng),
        "appendix-irred": ft.analytic_flat("appendix", rng, family="irred"),
        "appendix-red": ft.analytic_flat("appendix", rng, family="red"),
        "genus2": ft.find_flat_batch(ft.builtin("genus:2"), "su2", rng, 1)[0],
        "torus-u1": ft.find_flat_batch(ft.builtin("torus"), "u1", rng, 1)[0],
    }


def _bits(x):
    """x as comparable bytes: arrays and floats bit for bit (-0.0 is not
    0.0), a Connection by its data, a report field by field."""
    if isinstance(x, ft.Connection):
        return type(x), _bits(x.data)
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (np.ndarray, float)):
        arr = np.asarray(x)
        return arr.dtype.str, arr.shape, arr.tobytes()
    return x


SAMPLE_FUNCTIONS = {
    "holonomy": lambda c: connection.holonomy(c, c.foam.F - 1),
    "holonomy_word": lambda c: connection.holonomy_word(c, c.foam.faces[0]),
    "flatness_residual": connection.flatness_residual,
    "build_delta0": twisted.build_delta0,
    "build_delta1": twisted.build_delta1,
    "gauge_act": lambda c: connection.gauge_act(
        c.group.haar(np.random.default_rng(5)), c),
    "sample[e]": lambda c: c[c.foam.edge_ids[-1]],
    "cohomology": twisted.cohomology,
    "gaussian_volume": lambda c: torsion.gaussian_volume(c, 1),
    "verify_redundancy": lambda c: foam.verify_redundancy(c.foam.faces[0], [c]),
}


@pytest.mark.parametrize("fn", sorted(SAMPLE_FUNCTIONS))
def test_every_function_of_a_connection_takes_a_sample(fn):
    # a sample answers as its own connection does, bit for bit
    for name, s in _api_samples().items():
        assert isinstance(s, ft.FlatSample)
        conn = ft.Connection(s.foam, s.group, s.data)
        got, want = SAMPLE_FUNCTIONS[fn](s), SAMPLE_FUNCTIONS[fn](conn)
        assert _bits(got) == _bits(want), name
