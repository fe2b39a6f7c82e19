"""The projection's last walk feeds the twisted complex.

A projected sample set keeps, beside each kept connection g, the face
holonomies H and delta1 J of the Levenberg-Marquardt step that accepted g
(connection._projected_stack), and twisted._complex_columns reads them in
place of a second word_jacobian walk.  The walk works elementwise over the
batch axis, so the carried pair is word_jacobian at the kept g, bit for bit;
the torsion command runs on that stacked complex (torsion._torsion_columns)
and writes what torsion_batch of sample_flat's samples gives.
"""

import json
import pathlib

import numpy as np
import pytest

from foamtor import connection
from foamtor.cli import main
from foamtor.connection import _projected_stack, word_jacobian
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
        (rfoam, G, g, res, _), (H, J) = _projected_stack(
            foam, group, np.random.default_rng(seed), 5)
        assert len(g) > 0
        H1, J1 = word_jacobian(G, rfoam.words_idx, g)
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
        ref = _torsion_json(torsion_batch(samples, rng))
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
    _projected_stack(foam, "su2", np.random.default_rng(3), 6)
    alone = len(walks)
    assert alone > 1
    walks.clear()
    min_b2(foam, "su2", 6, np.random.default_rng(3))
    assert len(walks) == alone
    walks.clear()
    assert main(["torsion", "--foam", name, "--samples", "6", "--seed", "3"]) == 0
    capsys.readouterr()
    assert len(walks) == alone
