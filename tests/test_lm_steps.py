"""Bit guard for every Levenberg-Marquardt step of the flat-set projection.

tests/golden/lm_steps.json holds, per case, the number of steps and SHA-256
digests (in face_walk.json's style) of the residual vectors that
find_flat_batch appends to its trace= list, of the final sample data and of
the final residuals.  It was recorded while delta1 was still assembled with
one indexed add per letter and Ad read strided (..., L, 4) frames, so a
step that regroups a sum, a norm or a class angle moves a digest.

The cases are genus 2 moved by a Tietze-1 move (two faces of unequal
length), the projective plane <a | a a>, the dunce hat <a | a a a^-1>
(one block written three times) and <e | e^2, e^-1, e^6>, whose starts
stall at non-flat critical points (blocks written up to six times), each
over SU(2) and U(1) with seeds fixed by the case name.
"""

import hashlib
import json
import pathlib
import zlib

import numpy as np

from foamtor.connection import find_flat_batch
from foamtor.foam import builtin, parse_foam

GOLDEN = pathlib.Path(__file__).parent / "golden"

FOAMS = {
    "genus2_tietze1": parse_foam("edges: a1 b1 a2 b2 c\n"
                                 "face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n"
                                 "face: c b1^-1 a1^-1\n", name="genus2_tietze1"),
    "projective_plane": builtin("projective_plane"),
    "dunce_hat": builtin("dunce_hat"),
    "stalls": parse_foam("edges: e\nface: e e\nface: e^-1\nface: e e e e e e\n",
                         name="stalls"),
}
STARTS = 8


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def lm_step_table():
    """{case: {"steps", "trace", "data", "residual"}} over FOAMS and both groups."""
    table = {}
    for name, foam in FOAMS.items():
        for gname in ("su2", "u1"):
            key = "%s %s" % (gname, name)
            trace = []
            samples = find_flat_batch(foam, gname, np.random.default_rng(zlib.crc32(key.encode())),
                                      STARTS, trace=trace)
            table[key] = {"steps": len(trace), "trace": _digest(np.array(trace)),
                          "data": _digest(samples.g), "residual": _digest(samples.residual)}
    return table


def test_lm_steps_keep_their_recorded_bits():
    ref = json.loads((GOLDEN / "lm_steps.json").read_text())
    assert lm_step_table() == ref
