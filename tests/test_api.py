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


@pytest.mark.parametrize("module", [connection, twisted, torsion],
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


SAMPLE_READERS = {"holonomy_word", "verify_redundancy", "gauge_act", "build_delta0",
                  "build_delta1", "cohomology", "cohomology_batch", "torsion_at",
                  "torsion_batch", "singular_value_torsion", "gaussian_volume"}


def test_every_batch_reader_takes_a_sample_set_and_refuses_a_list():
    # a sample has one type, the SampleSet (one connection is a one-row set):
    # every public reader of samples takes it as samples and refuses a list
    # of samples by type, so no reader grows a second input format, and the
    # package exports no per-sample record
    sample = ft.analytic_flat("torus", np.random.default_rng(0))
    extra = {"rng": np.random.default_rng(1), "word": "a1 b1", "h": ft.SU2.identity(),
             "rank": 2}
    readers = []
    for module in (connection, twisted, torsion, foam):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if name.startswith("_") or fn.__module__ != module.__name__ or not (
                    SAMPLE_PARAMS & set(params)):
                continue
            readers.append(name)
            with pytest.raises(TypeError, match="SampleSet"):
                fn(samples=[sample], **{k: v for k, v in extra.items() if k in params})
    assert sorted(readers) == sorted(SAMPLE_READERS)
    assert not hasattr(ft, "Connection") and not hasattr(ft, "FlatSample")


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
        conn = ft.SampleSet(torus, group, found.g[:1])
        return (ft.get_group(group), conn.group, found[0].group,
                sampled[0].group, found.g.tobytes(), sampled.g.tobytes(), report.b2_0,
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
    # structure: the returned set (of one row, for analytic_flat) lives on
    # reduce_foam(input), name included, and every input of one builtin
    # draws the same bits from the same seed
    keys, build = BUILDERS[builder]
    for key in keys:
        want = None
        for foam in _foam_inputs(key):
            got = build(foam, key, np.random.default_rng(11))
            data = got.g
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


@pytest.mark.parametrize("group", ["su2", "u1"])
def test_the_set_constructors_build_connections_with_the_draws_of_one_connection(group):
    # SampleSet.identity is the one-row identity connection, and
    # SampleSet.haar's n rows are one group.haar draw: a set of one draws
    # the bits of one edge-array draw, and leaves the generator as it does
    G = ft.get_group(group)
    genus2 = ft.builtin("genus:2")
    one = ft.SampleSet.identity(genus2, group)
    assert len(one) == 1 and one.group is G and one.residual.tolist() == [0.0]
    assert one.g.tobytes() == G.identity((1, genus2.E)).tobytes()
    for n in (1, 3):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        drawn = ft.SampleSet.haar(genus2, group, rng, n)
        assert len(drawn) == n and drawn.foam is genus2
        assert drawn.g.tobytes() == np.stack([G.haar(ref, (genus2.E,))
                                              for _ in range(n)]).tobytes()
        assert rng.random() == ref.random()


def _api_samples():
    rng = np.random.default_rng(21)
    return {
        "torus": ft.analytic_flat("torus", rng),
        "appendix-irred": ft.analytic_flat("appendix", rng, family="irred"),
        "appendix-red": ft.analytic_flat("appendix", rng, family="red"),
        "genus2": ft.find_flat_batch(ft.builtin("genus:2"), "su2", rng, 2)[1],
        "torus-u1": ft.find_flat_batch(ft.builtin("torus"), "u1", rng, 1),
    }


def _bits(x):
    """x as comparable bytes: arrays and floats bit for bit (-0.0 is not
    0.0), a record or a set field by field."""
    if dataclasses.is_dataclass(x):
        return type(x), tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (np.ndarray, float)):
        arr = np.asarray(x)
        return arr.dtype.str, arr.shape, arr.tobytes()
    return x


SAMPLE_FUNCTIONS = {
    "H": lambda c: c.H,
    "holonomy_word": lambda c: connection.holonomy_word(c, c.foam.faces[0]),
    "build_delta0": twisted.build_delta0,
    "build_delta1": twisted.build_delta1,
    "gauge_act": lambda c: connection.gauge_act(
        c.group.haar(np.random.default_rng(5)), c),
    "cohomology": twisted.cohomology,
    "gaussian_volume": lambda c: torsion.gaussian_volume(c, 1),
    "singular_value_torsion": torsion.singular_value_torsion,
    "verify_redundancy": lambda c: connection.verify_redundancy(c.foam.faces[0], c),
}


@pytest.mark.parametrize("fn", sorted(SAMPLE_FUNCTIONS))
def test_every_function_of_a_connection_takes_a_sample(fn):
    # a builder's sample, with its tag and the walk its builder handed over
    # (a projection's accepting step), answers as the set of its bare
    # connection does, walking its own faces, bit for bit
    for name, s in _api_samples().items():
        assert type(s) is ft.SampleSet and len(s) == 1
        conn = ft.SampleSet(s.foam, s.group, s.g)
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
