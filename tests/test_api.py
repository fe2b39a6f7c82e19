import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import pkgutil

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


def test_every_batch_reader_takes_a_sample_set_and_refuses_a_list():
    # a batch reader reads one SampleSet: a list of samples is refused by
    # type, so no reader grows a second input format
    sample = ft.analytic_flat("torus", np.random.default_rng(0))
    readers = []
    for module in (twisted, torsion):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if name.startswith("_") or fn.__module__ != module.__name__ or "samples" not in params:
                continue
            readers.append(name)
            extra = {"rng": np.random.default_rng(1)} if "rng" in params else {}
            with pytest.raises(TypeError, match="SampleSet"):
                fn(samples=[sample], **extra)
    assert {"cohomology_batch", "torsion_batch"} <= set(readers)


@pytest.mark.parametrize("name", ["su2", "u1"])
def test_every_entry_point_takes_a_group_as_its_class_or_its_name(name):
    # a group is its class: the name, the class and get_group's answer are one
    # group, and every function that takes a group gives the same bits for each
    cls = {"su2": ft.SU2, "u1": ft.U1}[name]
    torus = ft.builtin("torus")

    def outcomes(group):
        rng = np.random.default_rng(3)
        found = ft.find_flat_batch(torus, group, rng, 2)
        sampled = ft.sample_flat("torus", group, 2, rng)
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


def _foam_inputs(key):
    """A builtin's key, its Foam, a parsed copy named mine.foam and, for the
    torus, its alias genus:1 and a two-vertex copy whose tree edge t
    reduction removes: each a foam argument that reduces to the builtin's
    presentation."""
    inputs = [key, ft.builtin(key),
              ft.parse_foam(ft.serialize_foam(ft.builtin(key)), name="mine.foam")]
    if key == "torus":
        inputs += ["genus:1", ft.parse_foam(
            "vertices: 2\nedges: t a1 b1\nedge t: 0 1\nface: a1 b1 a1^-1 b1^-1\n",
            name="tree.foam")]
    return inputs


ANALYTIC_ARGS = {"torus": ([1, -1, -1], None),
                 "appendix": ([1, -1, 1], ["irred", "irred", "red"])}
BUILDERS = {
    "find_flat_batch": (["genus:2"],
                        lambda foam, key, rng: ft.find_flat_batch(foam, "su2", rng, 2)),
    "analytic_flat_batch": (["torus", "appendix"],
                            lambda foam, key, rng: ft.analytic_flat_batch(
                                foam, rng, *ANALYTIC_ARGS[key])),
    "analytic_flat": (["torus", "appendix"],
                      lambda foam, key, rng: ft.analytic_flat(foam, rng)),
    "sample_flat": (["torus", "appendix", "genus:2"],
                    lambda foam, key, rng: ft.sample_flat(foam, "su2", 3, rng)),
    "min_b2": (["torus", "appendix", "genus:2"],
               lambda foam, key, rng: ft.min_b2(foam, "su2", 3, rng).samples),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_builder_returns_its_samples_on_the_callers_reduced_foam(builder):
    # a foam argument is a Foam or a builtin key, reduced and recognised by
    # structure: the returned set (a sample, for analytic_flat) lives on
    # reduce_foam(input), name included, and every input of one builtin
    # draws the same bits from the same seed
    keys, build = BUILDERS[builder]
    for key in keys:
        want = None
        for foam in _foam_inputs(key):
            got = build(foam, key, np.random.default_rng(11))
            data = got.data if isinstance(got, ft.FlatSample) else got.g
            assert got.foam == ft.reduce_foam(foam), (key, foam)
            assert got.foam.name == (foam.name if isinstance(foam, ft.Foam)
                                     else ft.builtin(foam).name)
            assert len(data) > 0
            want = data.tobytes() if want is None else want
            assert data.tobytes() == want, (key, foam)


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
COMMANDS = [
    "analyze --foam torus --samples 4 --seed 1", "flat --foam appendix --samples 3 --seed 1",
    "flat --foam torus --group u1 --samples 2 --seed 1",
    "ztau --foam torus --tau-grid 0.01:0.1:4 --seed 1",
    "ztau --foam genus:2 --method mc --samples 200 --tau-grid 0.5:0.5:1 --seed 1",
    "fit --in %s" % (GOLDEN / "ztau_char_torus.csv"),
    "torsion --foam appendix --samples 6 --seed 1",
    "torsion --foam torus --check torus-volume --grid 2 --seed 1", "toy --tau-grid 1e-4:1e-2:5",
]


def test_no_type_serializes_itself_and_every_record_a_command_writes_is_a_dataclass(
        monkeypatch):
    # the output format is the CLI's one decision: no class writes its own
    # JSON, and a command puts its records (dataclass instances, which the
    # writer gives as their fields) in its payload as they are, beside plain
    # JSON data
    from foamtor import cli
    for info in pkgutil.iter_modules(ft.__path__):
        if info.name == "__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module("foamtor." + info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            assert not hasattr(cls, "to_json"), (module.__name__, name)
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda args, payload: payloads.append(payload))
    records = set()

    def walk(o):
        if isinstance(o, dict):
            assert all(isinstance(k, str) for k in o)
            for v in o.values():
                walk(v)
        elif isinstance(o, (list, tuple)):
            for v in o:
                walk(v)
        elif dataclasses.is_dataclass(o):
            records.add(type(o))
            for f in dataclasses.fields(o):
                walk(getattr(o, f.name))
        else:
            assert o is None or type(o) in (str, int, float, bool), type(o)

    for command in COMMANDS:
        assert cli.main(command.split()) == 0, command
        walk(payloads.pop())
    assert records == {ft.TorsionValue, ft.ZEstimate, ft.ScalingFit}


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


def test_the_library_quick_start_runs_and_gives_what_its_comments_state():
    # README's library block, run statement by statement; each expression's
    # value is kept under its source text
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (library)", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0]
    scope, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node.value)] = eval(code, scope)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert values["ft.cellular_homology(foam).betti"] == (1, 2, 1)
    assert values["ft.cohomology(sample).betti"] == (1, 2, 1)
    assert values['ft.min_b2("genus:2", "su2", 100, rng).b2_0'] == 0
    assert abs(values["ft.torsion_at(sample, rng).magnitude"] - 1.0) < 1e-12
    assert abs(values["ft.char_sum_limit(1)"] - 2.0 * math.pi) < 1e-6
