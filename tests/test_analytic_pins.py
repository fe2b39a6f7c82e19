"""Bit pins for the analytic_flat_batch branches that no CLI golden reaches.

The analyze, flat and torsion goldens draw the torus and the appendix foam
with every axis and angle drawn and the families interleaved.  The cases
here fix what those leave free: an axis, every angle (no uniform draw per
sample), and appendix batches of one family alone.  tests/golden/
analytic_batches.json holds, per case, SHA-256 digests (in face_walk.json's
style) of the sample data, of the residuals and of the next four uniforms
of the stream, so a case that draws one number more or less moves a digest;
the tags are stored as they are.  It was recorded while each sample's draws
were still one allocating Generator call apiece.  That a batch draws and
computes what its samples give alone, analytic_flat calls (batches of one)
in turn, tests/test_connection.py checks on these branches too.
"""

import hashlib
import json
import pathlib
import zlib

import numpy as np

from foamtor.connection import analytic_flat_batch

GOLDEN = pathlib.Path(__file__).parent / "golden"

SIGNS = [1, -1, -1, 1, -1, 1, 1, -1, 1, 1, -1]
CASES = {
    "torus axis": ("torus", SIGNS, None, {"axis": [0.3, -1.2, 2.0]}),
    "torus fixed angles": ("torus", SIGNS, None, {"psi_a": 0.4, "psi_b": 2.5}),
    "torus fixed": ("torus", SIGNS, None, {"psi_a": 1.3, "psi_b": 0.2, "axis": [0, 0, 2]}),
    "appendix irred": ("appendix", SIGNS, ["irred"] * len(SIGNS), {}),
    "appendix red": ("appendix", [1] * 9, ["red"] * 9, {}),
    "appendix red axis": ("appendix", [1] * 9, ["red"] * 9,
                          {"psi_h": 0.9, "axis": [1.0, -2.0, 0.5]}),
    "appendix red fixed angles": ("appendix", [1] * 9, ["red"] * 9,
                                  {"psi_a": 0.3, "psi_b": 1.7, "psi_h": 2.9}),
}


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def analytic_pin_table():
    """{case: {"data", "residual", "tags", "next"}} over CASES."""
    table = {}
    for name, (kind, signs, families, fixed) in CASES.items():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        batch = analytic_flat_batch(kind, rng, signs, families, **fixed)
        table[name] = {"data": _digest(batch.g), "residual": _digest(batch.residual),
                       "tags": list(batch.tags),
                       "next": _digest(rng.random(4))}
    return table


def test_analytic_batches_keep_their_recorded_bits():
    ref = json.loads((GOLDEN / "analytic_batches.json").read_text())
    assert analytic_pin_table() == ref

