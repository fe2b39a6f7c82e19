"""The walk that builds a sample set feeds the twisted complex.

A projected SampleSet (find_flat_batch) keeps, beside each kept connection
g, the face holonomies H and delta1 of the Levenberg-Marquardt step that
accepted g, and the twisted complex reads them in place of a second
word_jacobian walk.  The walk works elementwise over the batch axis, so the
carried pair is word_jacobian at the kept g, bit for bit; the torsion
command runs torsion_batch on sample_flat's set and writes what
torsion_batch of its FlatSample records gives.  An analytic set
(analytic_flat_batch) keeps the holonomies and frames of the walk that gave
its residuals, and word_jacobian assembles delta1 from them only where a
complex is built: flat and analytic_flat_batch plan no delta1.
"""

import json
import pathlib

import numpy as np
import pytest

from foamtor import connection
from foamtor.cli import main
from foamtor.connection import find_flat_batch, word_jacobian
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
    return [v.to_json() if isinstance(v, TorsionValue) else {"error": str(v)}
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
        foam, samples = sample_flat(_foam(name), "su2", 6, rng)
        state = rng.bit_generator.state
        ref = _torsion_json(torsion_batch(samples, rng))
        # the set's records, their delta1 from a fresh walk, write the same
        rng.bit_generator.state = state
        assert json.dumps(_torsion_json(torsion_batch(list(samples), rng))) == json.dumps(ref)
        got = json.loads(out)
        assert got["foam"] == foam.name
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
def test_an_analytic_set_walks_its_faces_once_and_flat_assembles_no_delta1(name, monkeypatch,
                                                                          capsys):
    # the walk that gives an analytic set its residuals hands its frames to
    # delta1; flat and analytic_flat_batch, which use no delta1, plan none
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
    assert (len(walks), len(plans)) == (3, 0)
    capsys.readouterr()


@pytest.mark.parametrize("name", ["torus", "appendix"])
def test_the_handed_walk_gives_word_jacobian_at_the_analytic_samples(name):
    families = None if name == "torus" else ["irred", "red", "irred", "red"]
    signs = [1, -1, 1, 1] if name == "torus" else [1, 1, -1, 1]
    found = connection.analytic_flat_batch(name, np.random.default_rng(4), signs, families)
    G, foam, g = found.group, found.foam, found.g
    H, J = word_jacobian(G, foam.words_idx, g, (found.H, found.frames))
    H1, J1 = word_jacobian(G, foam.words_idx, g)
    assert H.tobytes() == np.ascontiguousarray(H1).tobytes()
    assert J.tobytes() == np.ascontiguousarray(J1).tobytes()
