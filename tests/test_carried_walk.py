"""Every sample set holds one walk, H and delta1 at its g, for the twisted
complex to read.

A projected SampleSet (find_flat_batch) is handed, beside each kept
connection g, the face holonomies H and delta1 of the Levenberg-Marquardt
step that accepted g, so the complex reads them in place of a second
word_jacobian walk.  The walk works elementwise over the batch axis, so the
carried pair is word_jacobian at the kept g, bit for bit; the torsion
command runs torsion_batch on sample_flat's set and writes what
torsion_batch of its rows rebuilt as a new set gives.  Any other set, an analytic
family's (analytic_flat_batch) or SampleSet(foam, group, g) alone, fills
its own: one word_jacobian walk at g, whose H also gives the residuals.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from foamtor import connection
from foamtor.cli import main
from foamtor.connection import SampleSet, face_residual, find_flat_batch, word_jacobian
from foamtor.foam import builtin, parse_foam
from foamtor.torsion import TorsionValue, torsion_batch
from foamtor.twisted import min_b2, sample_flat

GOLDEN = pathlib.Path(__file__).parent / "golden"
FILES = ("genus2_dup.foam", "genus2_t1.foam")
SU2_FOAMS = ("genus:2", "genus:3", "genus:4", "genus:5", "dunce_hat",
             "projective_plane") + FILES


def _foam(name):
    if name in FILES:
        return parse_foam((GOLDEN / name).read_text(), name=name)
    return builtin(name)


CASES = [(name, "su2") for name in SU2_FOAMS] + [("torus", "u1"), ("genus:2", "u1")]


@pytest.mark.parametrize("name,group", CASES)
def test_the_carried_walk_is_word_jacobian_at_the_kept_connections(name, group):
    foam = _foam(name)
    for seed in (0, 1):
        found = find_flat_batch(foam, group, np.random.default_rng(seed), 5)
        H, J = found.H, found.delta1
        assert len(found) > 0
        H1, J1 = word_jacobian(found.group, found.foam.words_idx, found.g)
        # byte for byte: signed zeros and the last bits included
        assert H.shape == H1.shape and H.tobytes() == np.ascontiguousarray(H1).tobytes()
        assert J.shape == J1.shape and J.tobytes() == np.ascontiguousarray(J1).tobytes()


def _torsion_json(values):
    return [dataclasses.asdict(v) if isinstance(v, TorsionValue) else {"error": str(v)}
            for v in values]


@pytest.mark.parametrize("name", SU2_FOAMS)
def test_the_stacked_torsion_command_writes_what_torsion_batch_gives(name, capsys,
                                                                      monkeypatch):
    monkeypatch.chdir(GOLDEN)
    for seed in range(5):
        code = main(["torsion", "--foam", name, "--samples", "6", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert code == 0
        rng = np.random.default_rng(seed)
        samples = sample_flat(_foam(name), "su2", 6, rng)
        state = rng.bit_generator.state
        ref = _torsion_json(torsion_batch(samples, rng))
        # the set's rows rebuilt, their delta1 from a fresh walk, write the same
        rng.bit_generator.state = state
        fresh = SampleSet(samples.foam, samples.group, samples.g, tags=samples.tags,
                          possibly_singular=samples.possibly_singular)
        assert json.dumps(_torsion_json(torsion_batch(fresh, rng))) == json.dumps(ref)
        got = json.loads(out)
        assert got["foam"] == samples.foam.name
        assert json.dumps(got["torsion"]) == json.dumps(ref), (name, seed)


@pytest.mark.parametrize("name", ["genus:3", "genus2_t1.foam"])
def test_a_projected_job_walks_its_faces_only_in_the_projection(name, monkeypatch,
                                                                capsys):
    walks = []
    walk = connection._face_walk

    def counted(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(connection, "_face_walk", counted)
    monkeypatch.chdir(GOLDEN)
    foam = _foam(name)
    find_flat_batch(foam, "su2", np.random.default_rng(3), 6)
    alone = len(walks)
    assert alone > 1
    walks.clear()
    min_b2(foam, "su2", 6, np.random.default_rng(3))
    assert len(walks) == alone
    walks.clear()
    assert main(["torsion", "--foam", name, "--samples", "6", "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(walks) == alone


@pytest.mark.parametrize("name", ["torus", "appendix"])
def test_an_analytic_set_walks_its_faces_and_plans_delta1_once(name, monkeypatch, capsys):
    # the set's one word_jacobian walk gives its residuals and delta1, so
    # analyze, torsion and min_b2 walk and plan once; flat, which uses no
    # delta1, still assembles it once per set
    walks, plans = [], []
    walk, plan = connection._face_walk, connection._letter_plan
    monkeypatch.setattr(connection, "_face_walk", lambda *a: walks.append(1) or walk(*a))
    monkeypatch.setattr(connection, "_letter_plan", lambda *a: plans.append(1) or plan(*a))
    for argv in (["analyze", "--samples", "20"], ["torsion", "--samples", "6"]):
        assert main(argv + ["--foam", name, "--seed", "3"]) == 0
        assert (len(walks), len(plans)) == (1, 1), argv
        walks.clear(), plans.clear()
    min_b2(name, "su2", 8, np.random.default_rng(3))
    assert (len(walks), len(plans)) == (1, 1)
    walks.clear(), plans.clear()
    assert main(["flat", "--foam", name, "--samples", "5", "--seed", "3"]) == 0
    sample_flat(name, "su2", 5, np.random.default_rng(3))
    families = None if name == "torus" else ["irred", "red"]
    connection.analytic_flat_batch(name, np.random.default_rng(3), [1, 1], families)
    assert (len(walks), len(plans)) == (3, 3)
    capsys.readouterr()


@pytest.mark.parametrize("name", ["torus", "appendix"])
def test_the_handed_walk_gives_word_jacobian_at_the_analytic_samples(name):
    families = None if name == "torus" else ["irred", "red", "irred", "red"]
    signs = [1, -1, 1, 1] if name == "torus" else [1, 1, -1, 1]
    found = connection.analytic_flat_batch(name, np.random.default_rng(4), signs, families)
    H1, J1 = word_jacobian(found.group, found.foam.words_idx, found.g)
    assert found.H.tobytes() == np.ascontiguousarray(H1).tobytes()
    assert found.delta1.tobytes() == np.ascontiguousarray(J1).tobytes()


SETS = {
    "analytic torus": lambda: connection.analytic_flat_batch(
        "torus", np.random.default_rng(5), [1, -1, -1, 1]),
    "analytic appendix": lambda: connection.analytic_flat_batch(
        "appendix", np.random.default_rng(6), [1, 1, -1, 1], ["irred", "red", "irred", "red"]),
    "projected genus:2 su2": lambda: find_flat_batch("genus:2", "su2",
                                                     np.random.default_rng(7), 4),
    "projected torus u1": lambda: find_flat_batch("torus", "u1", np.random.default_rng(8), 4),
}


@pytest.mark.parametrize("name", sorted(SETS))
def test_a_set_built_from_its_connections_alone_fills_its_walk_residual_and_tags(name):
    built = SETS[name]()
    alone = SampleSet(built.foam, built.group.name, built.g)
    H, J = word_jacobian(built.group, built.foam.words_idx, built.g)
    assert alone.group is built.group and alone.g.tobytes() == built.g.tobytes()
    assert alone.H.shape == H.shape and alone.H.tobytes() == np.ascontiguousarray(H).tobytes()
    assert alone.delta1.shape == J.shape and alone.delta1.tobytes() == J.tobytes()
    residual = face_residual(built.group, H)
    assert alone.residual.shape == (len(built),)
    assert alone.residual.tobytes() == residual.tobytes()
    assert alone.tags == (None,) * len(built)
    assert (alone.b0, alone.b2, alone.possibly_singular) == (None, None, None)
