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
        conn = ft.Connection(torus, group, found[0].connection.data)
        return (ft.get_group(group), conn.group, found[0].connection.group,
                sampled[0].connection.group,
                [s.connection.data.tobytes() for s in found + sampled], report.b2_0,
                report.histogram, ft.z_mc(torus, group, 0.5, 200, seed=1).value)

    want = outcomes(name)
    assert want[:4] == (cls,) * 4
    for group in (name.upper(), cls, ft.get_group(name)):
        assert outcomes(group) == want
