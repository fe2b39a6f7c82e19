"""Bit guard for the face walk and the SU(2) product.

tests/golden/face_walk.json holds SHA-256 digests of the face holonomies H
and the Jacobian delta1 J that word_jacobian returns, and of su2_mul on two
broadcast shape pairs.  It was recorded while every letter of the walk was
still one su2_mul call on (..., 4) element arrays; a walk that regroups a
sum or a norm moves the last bits of some entry, and so its digest.

The cases cover the builtin foams, genus 2 moved by a Tietze-1 and by a
Tietze-2 move, both groups, batch shapes (), (7,) and (3, 4) of seeded Haar
connections, and one batch of elements with exact-zero components, whose
products carry signed zeros.
"""

import hashlib
import json
import pathlib
import zlib

import numpy as np
from hypothesis import given, settings, strategies as st

from foamtor.connection import _face_walk, word_jacobian
from foamtor.foam import builtin, parse_foam, reduce_foam
from foamtor.groups import get_group, su2_mul

GOLDEN = pathlib.Path(__file__).parent / "golden"

# genus 2 with its face duplicated (Tietze 2) and with an edge c = a1 b1 (Tietze 1)
TIETZE_TEXTS = {
    "genus2_tietze2": """\
edges: a1 b1 a2 b2
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
""",
    "genus2_tietze1": """\
edges: a1 b1 a2 b2 c
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
face: c b1^-1 a1^-1
""",
}
BUILTINS = ("torus", "appendix", "genus:2", "genus:3", "genus:4", "genus:5",
            "dunce_hat", "projective_plane")
SHAPES = ((), (7,), (3, 4))

# elements with exact-zero components, some of them negative zeros: +-1,
# +-i, j, k and two half-way rotations; over U(1), angles with exact zeros
# in their sums
_H = 0.5 ** 0.5
ZERO_ELEMENTS = {
    "su2": np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, -0.0, -0.0], [0.0, 1.0, 0.0, 0.0],
                     [-0.0, -1.0, 0.0, -0.0], [0.0, -0.0, 1.0, 0.0], [0.0, 0.0, -0.0, 1.0],
                     [_H, 0.0, _H, -0.0], [-0.0, _H, 0.0, -_H]]),
    "u1": np.array([[0.0], [np.pi], [0.5 * np.pi], [1.5 * np.pi]]),
}


def _foams():
    foams = {name: reduce_foam(builtin(name)) for name in BUILTINS}
    for name, text in TIETZE_TEXTS.items():
        foams[name] = reduce_foam(parse_foam(text, name=name))
    return foams


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _seed(key):
    return zlib.crc32(key.encode())


def face_walk_table():
    """{case: {"H": digest, "J": digest}} over every foam, group and batch
    shape, plus {case: digest} for su2_mul."""
    table = {}
    for name, foam in _foams().items():
        words = foam.words_idx
        for gname in ("su2", "u1"):
            G = get_group(gname)
            cases = {}
            for shape in SHAPES:
                key = "%s %s %r" % (gname, name, shape)
                cases[key] = G.haar(np.random.default_rng(_seed(key)), shape + (foam.E,))
            zeros = ZERO_ELEMENTS[gname]
            pick = np.arange(5 * foam.E).reshape(5, foam.E) % len(zeros)
            cases["%s %s zeros" % (gname, name)] = zeros[pick]
            for key, g in cases.items():
                H, J = word_jacobian(G, words, g)
                table[key] = {"H": _digest(H), "J": _digest(J)}
    SU2 = get_group("su2")
    for lhs, rhs in (((), (5, 3)), ((5, 3), (5, 3))):
        key = "su2_mul %r x %r" % (lhs + (4,), rhs + (4,))
        rng = np.random.default_rng(_seed(key))
        a, b = SU2.haar(rng, lhs), SU2.haar(rng, rhs)
        table[key] = _digest(su2_mul(a, b))
    return table


def test_face_walk_keeps_its_recorded_bits():
    ref = json.loads((GOLDEN / "face_walk.json").read_text())
    assert face_walk_table() == ref


def per_letter_jacobian(G, words_idx, g):
    """delta1 as it was assembled before letters were grouped by occurrence
    rank: one indexed add of +-Ad(frame) per letter, in word order."""
    H, frames = _face_walk(G, words_idx, g)
    batch = g.shape[:-2]
    E, d, F = g.shape[-2], G.dim_g, len(words_idx)
    J = np.zeros(batch + (F, d, E, d))
    if frames.shape[-2]:
        B = G.adjoint(frames)
        letters = [(f, e, s) for f, word_idx in enumerate(words_idx) for e, s in word_idx]
        for i, (f, e, s) in enumerate(letters):
            if s > 0:
                J[..., f, :, e, :] += B[..., i, :, :]
            else:
                J[..., f, :, e, :] -= B[..., i, :, :]
    return H, J.reshape(batch + (F * d, E * d))


@st.composite
def _jacobian_cases(draw):
    """(group, words_idx, g): 0-3 faces of 0-12 letters over 1-4 edges, with
    repeated letters of both signs, as lists or tuples, on Haar or exact-zero
    elements of batch shape (), (1,) or (3, 4)."""
    G = get_group(draw(st.sampled_from(["su2", "u1"])))
    E = draw(st.integers(1, 4))
    letter = st.tuples(st.integers(0, E - 1), st.sampled_from([1, -1]))
    words = draw(st.lists(st.lists(letter, max_size=12), max_size=3))
    if draw(st.booleans()):
        words = tuple(tuple(word) for word in words)
    shape = draw(st.sampled_from([(), (1,), (3, 4)])) + (E,)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        zeros = ZERO_ELEMENTS[G.name]
        g = zeros[np.random.default_rng(seed).integers(len(zeros), size=shape)]
    else:
        g = G.haar(np.random.default_rng(seed), shape)
    return G, words, g


@settings(max_examples=300, deadline=None)
@given(_jacobian_cases())
def test_rank_grouped_delta1_equals_the_per_letter_loop(case):
    # int64 views, so that signed zeros count
    G, words, g = case
    H, J = word_jacobian(G, words, g)
    H0, J0 = per_letter_jacobian(G, words, g)
    assert J.shape == J0.shape and H.shape == H0.shape
    assert np.array_equal(J.view(np.int64), J0.view(np.int64))
    assert np.array_equal(H.view(np.int64), H0.view(np.int64))
