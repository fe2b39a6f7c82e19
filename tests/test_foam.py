import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foamtor.cli import main
from foamtor.foam import (FaceWord, Foam, FoamError, Letter, builtin,
                          cellular_homology, match_builtin, parse_foam, reduce_foam,
                          serialize_foam, tietze1_collapse, tietze1_expand,
                          tietze2_add_face, verify_redundancy)

TORUS_TEXT = "edges: a b\nface: a b a^-1 b^-1\n"


def test_parse_torus():
    f = parse_foam(TORUS_TEXT)
    assert (f.V, f.E, f.F) == (1, 2, 1)
    assert f.edge_ids == ("a", "b")
    assert str(f.faces[0]) == "a b a^-1 b^-1"


def test_parse_empty_word_sphere():
    f = parse_foam("edges:\nface:\n")
    assert (f.V, f.E, f.F) == (1, 0, 1)
    assert f.euler == 2
    assert len(f.faces[0]) == 0


def test_parse_dunce_hat():
    f = parse_foam("edges: a\nface: a a a^-1\n")
    assert (f.E, f.F) == (1, 1)
    assert cellular_homology(f).betti == (1, 0, 0)


def test_parse_errors_carry_position():
    with pytest.raises(FoamError, match="line 2"):
        parse_foam("edges: a\nface: a b\n")  # undeclared edge b
    with pytest.raises(FoamError, match="line 1"):
        parse_foam("edgez: a\n")
    with pytest.raises(FoamError, match="exponent"):
        parse_foam("edges: a\nface: a^2\n")


def test_words_outside_a_file_refuse_what_the_parser_refuses():
    # a word given as a string is read by the parser's letter rule:
    # "a1^2" was read as an edge named 'a1^2'
    with pytest.raises(FoamError, match="bad exponent"):
        tietze1_expand(builtin("torus"), "a1^2", "c")
    from foamtor.foam import _as_word
    with pytest.raises(FoamError, match="bad exponent"):
        _as_word("a^2")
    assert str(_as_word("a b^-1")) == "a b^-1"


def test_parse_multivertex_chaining():
    theta = ("edges: e1 e2 e3\nvertices: 2\n"
             "edge e1: 0 1\nedge e2: 0 1\nedge e3: 0 1\n"
             "face: e1 e2^-1\nface: e2 e3^-1\n")
    f = parse_foam(theta)
    assert f.V == 2 and f.E == 3 and f.F == 2
    bad = theta.replace("face: e1 e2^-1", "face: e1 e2")
    with pytest.raises(FoamError, match="chain"):
        parse_foam(bad)
    unclosed = ("edges: e1\nvertices: 2\nedge e1: 0 1\nface: e1\n")
    with pytest.raises(FoamError, match="close"):
        parse_foam(unclosed)


def test_parse_disconnected_rejected():
    with pytest.raises(FoamError, match="connected"):
        parse_foam("edges: a\nvertices: 3\nedge a: 0 1\n")


def test_reduce_theta_graph():
    theta = ("edges: e1 e2 e3\nvertices: 2\n"
             "edge e1: 0 1\nedge e2: 0 1\nedge e3: 0 1\n"
             "face: e1 e2^-1\nface: e2 e3^-1\n")
    f = parse_foam(theta)
    r = reduce_foam(f)
    assert r.V == 1
    assert r.E == f.E - (f.V - 1)
    assert r.F == f.F
    # tree contraction preserves the rational Betti numbers
    assert cellular_homology(f).betti == cellular_homology(r).betti


def test_reduce_keeps_the_depth_first_tree_of_every_foam():
    # the tree comes from one stack walk from vertex 0 that marks a vertex
    # when it is pushed: on the square, a breadth-first walk would keep e3
    # and a recursive one e2, each with other face words
    triangle = ("edges: e1 e2 e3 e4 e5\nvertices: 3\nedge e1: 0 1\nedge e2: 1 2\n"
                "edge e3: 2 0\nedge e4: 0 1\nedge e5: 1 1\n"
                "face: e1 e2 e3\nface: e1 e4^-1\nface: e5 e2 e3 e4\n")
    square = ("edges: e1 e2 e3 e4\nvertices: 4\nedge e1: 0 1\nedge e2: 0 2\n"
              "edge e3: 2 3\nedge e4: 1 3\nface: e1 e4 e3^-1 e2^-1\n")
    for text, edges, words in (
            (triangle, ("e2", "e4", "e5"), ["e2", "e4^-1", "e5 e2 e4"]),
            (square, ("e4",), ["e4"])):
        r = reduce_foam(parse_foam(text))
        assert r.edges == tuple((e, 0, 0) for e in edges)
        assert [str(f) for f in r.faces] == words


def test_reduce_idempotent():
    t = builtin("torus")
    assert reduce_foam(t) is t


def test_reduce_preserves_betti_randomized():
    rng = np.random.default_rng(0)
    for _ in range(20):
        V = int(rng.integers(2, 5))
        edges = []
        # a random spanning path plus extras keeps the skeleton connected
        for v in range(1, V):
            edges.append(("t%d" % v, v - 1, v))
        for k in range(rng.integers(0, 4)):
            edges.append(("x%d" % k, int(rng.integers(V)), int(rng.integers(V))))
        foam = Foam(name="rand", n_vertices=V, edges=tuple(edges), faces=())
        # random closed words: walk the directed graph and return via the path
        faces = []
        for k in range(rng.integers(0, 3)):
            word = []
            cur = 0
            for _ in range(int(rng.integers(1, 6))):
                cands = [(i, +1, d) for i, (_, s, d) in enumerate(foam.edges) if s == cur]
                cands += [(i, -1, s) for i, (_, s, d) in enumerate(foam.edges) if d == cur]
                if not cands:
                    break
                i, sgn, nxt = cands[int(rng.integers(len(cands)))]
                word.append(Letter(foam.edges[i][0], sgn))
                cur = nxt
            while cur != 0:  # walk home along the tree path
                word.append(Letter("t%d" % cur, -1))
                cur -= 1
            faces.append(FaceWord(tuple(word)))
        foam = Foam(name="rand", n_vertices=V, edges=tuple(edges), faces=tuple(faces))
        red = reduce_foam(foam)
        assert red.V == 1 and red.E == foam.E - (foam.V - 1) and red.F == foam.F
        assert cellular_homology(foam).betti == cellular_homology(red).betti


def test_cellular_homology_builtins():
    assert cellular_homology(builtin("sphere")).betti == (1, 0, 1)
    assert cellular_homology(builtin("sphere")).euler == 2
    assert cellular_homology(builtin("torus")).betti == (1, 2, 1)
    assert cellular_homology(builtin("torus")).euler == 0
    assert cellular_homology(builtin("dunce_hat")).betti == (1, 0, 0)
    assert cellular_homology(builtin("dunce_hat")).euler == 1
    assert cellular_homology(builtin("projective_plane")).betti == (1, 0, 0)
    # both appendix relators are commutators, so boundary2 = 0 over Q
    assert cellular_homology(builtin("appendix")).betti == (1, 3, 2)
    for g in range(4):
        rep = cellular_homology(builtin("genus:%d" % g))
        if g == 0:
            assert rep.betti == (1, 0, 1)
        else:
            assert rep.betti == (1, 2 * g, 1)


def test_boundary_composition_is_zero():
    for name in ("torus", "genus:2", "appendix", "dunce_hat"):
        f = builtin(name)
        rep = cellular_homology(f)
        d1 = np.array(rep.boundary1, dtype=int).reshape(f.V, f.E)
        d2 = np.array(rep.boundary2, dtype=int).reshape(f.E, f.F)
        assert not np.any(d1 @ d2)
        assert rep.betti[0] - rep.betti[1] + rep.betti[2] == rep.euler


def test_boundary2_uses_net_exponents():
    rep = cellular_homology(builtin("dunce_hat"))
    assert rep.boundary2 == ((1,),)  # a a a^-1 has net exponent 1
    rep = cellular_homology(builtin("projective_plane"))
    assert rep.boundary2 == ((2,),)


def test_tietze1_roundtrip():
    t = builtin("torus")
    f = tietze1_expand(t, "a1 b1", "c")
    assert f.E == 3 and f.F == 2
    assert str(f.faces[-1]) == "c b1^-1 a1^-1"
    assert f.euler == t.euler
    assert cellular_homology(f).betti[2] == cellular_homology(t).betti[2]
    back = tietze1_collapse(f, "c")
    assert back == t


def test_tietze1_errors():
    t = builtin("torus")
    with pytest.raises(FoamError):
        tietze1_expand(t, "a1", "a1")       # name collision
    with pytest.raises(FoamError):
        tietze1_expand(t, "c", "c")         # word references the new edge
    with pytest.raises(FoamError):
        tietze1_collapse(t, "a1")           # a1 occurs twice in the face


def test_tietze2_and_redundancy():
    from foamtor.connection import analytic_flat
    rng = np.random.default_rng(1)
    t = builtin("torus")
    dup = tietze2_add_face(t, "a1 b1 a1^-1 b1^-1")
    assert dup.F == 2 and dup.E == 2
    samples = [analytic_flat("torus", rng) for _ in range(50)]
    assert verify_redundancy(FaceWord((Letter("a1", 1), Letter("b1", 1),
                                          Letter("a1", -1), Letter("b1", -1))),
                             samples) < 1e-12
    # the word "a1" is unconstrained on the flat set: holonomy = a itself
    worst = verify_redundancy("a1", samples)
    assert worst > 0.1


def test_verify_redundancy_refuses_no_samples():
    # no samples answered 0.0, "the relation holds exactly", with no evidence;
    # find_flat_batch returns an empty set when it asks for no starts or
    # drops them all
    from foamtor.connection import find_flat_batch
    empty = find_flat_batch(builtin("torus"), "su2", np.random.default_rng(0), 0)
    assert len(empty) == 0
    for samples in ([], empty, iter(())):
        with pytest.raises(ValueError, match="at least one sample"):
            verify_redundancy("a1 b1", samples)


def test_verify_redundancy_refuses_a_word_off_the_foam():
    # the word names an edge the samples' foam lacks: refused as
    # tietze2_add_face refuses it, not a bare KeyError
    from foamtor.connection import analytic_flat
    samples = [analytic_flat("torus", np.random.default_rng(2))]
    with pytest.raises(FoamError, match="'zz'"):
        verify_redundancy("zz", samples)
    with pytest.raises(FoamError, match="'zz'"):
        tietze2_add_face(builtin("torus"), "a1 zz")


def test_builtin_catalog():
    g2 = builtin("genus:2")
    assert g2.E == 4 and g2.F == 1 and len(g2.faces[0]) == 8
    app = builtin("appendix")
    assert app.E == 3 and app.F == 2
    assert builtin("genus:0").name == "sphere"
    with pytest.raises(FoamError):
        builtin("genus:-1")
    with pytest.raises(FoamError):
        builtin("unknown_thing")


def test_a_genus_builtin_is_built_in_time_linear_in_its_handles():
    # the surface word grew as a tuple, one copy per handle: genus:40000 took
    # about 30 s, and genus:100000 passed 120 s
    builtin.cache_clear()
    start = time.perf_counter()
    foam = builtin("genus:40000")
    assert time.perf_counter() - start < 5.0
    assert foam.E == 80_000 and len(foam.faces[0]) == 160_000
    assert foam.faces[0].letters[-4:] == (Letter("a40000", 1), Letter("b40000", 1),
                                          Letter("a40000", -1), Letter("b40000", -1))


def test_a_char_ztau_job_builds_its_genus_foam_once(monkeypatch, capsys):
    # the foam is loaded by its key and matched against the character sums'
    # builtins by the same key: the match used to build it a second time
    builtin.cache_clear()
    built = []
    validate = Foam._validate

    def counted(foam):
        built.append(foam.name)
        return validate(foam)

    monkeypatch.setattr(Foam, "_validate", counted)
    assert main(["ztau", "--foam", "genus:2000", "--method", "char",
                 "--tau-grid", "0.5:0.5:1"]) == 0
    assert '"method": "char"' in capsys.readouterr().out
    assert built.count("genus2000") == 1


def test_a_char_ztau_job_beyond_the_cache_builds_its_genus_foam_once(monkeypatch, capsys):
    # genus:3000 has more edges than builtin caches: the match reads a
    # genus:g key's presentation with no foam built, so the foam is still
    # built once
    built = []
    validate = Foam._validate

    def counted(foam):
        built.append(foam.name)
        return validate(foam)

    monkeypatch.setattr(Foam, "_validate", counted)
    assert main(["ztau", "--foam", "genus:3000", "--method", "char",
                 "--tau-grid", "0.5:0.5:1"]) == 0
    assert '"method": "char"' in capsys.readouterr().out
    assert built == ["genus3000"]
    keys = tuple("genus:%d" % g for g in range(5))
    for g in range(5):
        assert match_builtin(parse_foam(serialize_foam(builtin("genus:%d" % g))), keys) == keys[g]


def test_serialize_roundtrip_builtins():
    for name in ("sphere", "torus", "genus:3", "appendix", "dunce_hat",
                 "projective_plane"):
        f = builtin(name)
        assert parse_foam(serialize_foam(f), name=f.name) == f


def test_an_empty_face_on_a_two_vertex_foam_is_accepted():
    # an empty word chains trivially: nothing to check against the endpoints
    f = parse_foam("edges: a\nvertices: 2\nedge a: 0 1\nface:\n")
    assert (f.V, f.E, f.faces) == (2, 1, (FaceWord((), None),))
    assert cellular_homology(f).betti == (1, 0, 1)


def test_serialize_roundtrip_multivertex():
    theta = ("edges: e1 e2 e3\nvertices: 2\n"
             "edge e1: 0 1\nedge e2: 0 1\nedge e3: 0 1\n"
             "face: e1 e2^-1\nface: e2 e3^-1\n")
    f = parse_foam(theta)
    assert parse_foam(serialize_foam(f)) == f


@st.composite
def random_reduced_foams(draw):
    n_edges = draw(st.integers(0, 4))
    ids = ["e%d" % i for i in range(n_edges)]
    faces = []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 6)) if ids else 0
        letters = tuple(Letter(draw(st.sampled_from(ids)), draw(st.sampled_from([1, -1])))
                        for _ in range(length))
        faces.append(FaceWord(letters))
    return Foam(name="h", edges=tuple((e, 0, 0) for e in ids), faces=tuple(faces))


@given(random_reduced_foams())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip_property(f):
    assert parse_foam(serialize_foam(f), name="h") == f
    rep = cellular_homology(f)
    assert rep.betti[0] - rep.betti[1] + rep.betti[2] == rep.euler


def test_match_builtin_compares_presentations_not_names():
    keys = ("sphere", "torus", "genus:2", "appendix")
    for key in keys:
        text = serialize_foam(builtin(key)).replace("face f_a:", "face:")
        assert match_builtin(parse_foam(text, name="genus3"), keys) == key
    assert match_builtin(parse_foam(TORUS_TEXT, name="torus"), keys) is None  # edges a, b
    t = builtin("torus")
    assert match_builtin(tietze1_expand(t, "a1 b1", "c"), keys) is None
    assert match_builtin(tietze2_add_face(t, "a1 b1 a1^-1 b1^-1"), keys) is None
    swapped = parse_foam("edges: b1 a1\nface: a1 b1 a1^-1 b1^-1\n", name="torus")
    assert match_builtin(swapped, keys) is None                   # edge order
    assert match_builtin(builtin("genus:0"), ("genus:0",)) == "genus:0"
    # a multi-vertex foam is compared after reduction
    two = parse_foam("edges: t a1 b1\nvertices: 2\nedge t: 0 1\nedge a1: 0 0\n"
                     "edge b1: 0 0\nface: a1 b1 a1^-1 b1^-1\n")
    assert match_builtin(two, keys) == "torus"


def test_tietze_moves_name_the_missing_edge():
    # all three moves check edge membership the one way Foam.edge_index does
    t = builtin("torus")
    moves = (lambda: tietze1_expand(t, "a1 zz", "c"),
             lambda: tietze1_collapse(t, "zz"),
             lambda: tietze2_add_face(t, "a1 zz"))
    for move in moves:
        with pytest.raises(FoamError, match="foam 'genus1' has no edge 'zz'"):
            move()


# every refusal of the module, with the message it gives; parse_foam's carry
# the line and column of the offending token
REFUSALS = {
    "letter exponent 2": (lambda: Letter("a", 2), "letter exponent must be +1 or -1, got 2"),
    "no vertex": (lambda: Foam(n_vertices=0), "a foam needs at least one vertex"),
    "bad edge id": (lambda: Foam(edges=(("1a", 0, 0),)), "bad edge id '1a'"),
    "duplicate edge id": (lambda: Foam(edges=(("a", 0, 0), ("a", 0, 0))),
                          "duplicate edge id 'a'"),
    "endpoint out of range": (lambda: Foam(edges=(("a", 0, 1),)),
                              "edge 'a' endpoints out of range"),
    "face on an undeclared edge": (
        lambda: Foam(edges=(("a", 0, 0),), faces=(FaceWord((Letter("b", 1),)),)),
        "face word uses undeclared edge 'b'"),
    "bad id in a face word": (lambda: parse_foam("edges: a\nface: a 1b\n"),
                              "line 2, col 9: bad edge id '1b'"),
    "undeclared edge in a face word": (
        lambda: parse_foam("edges: b\nface: a\n"),
        "line 2, col 7: undeclared edge 'a' in face word"),
    "bad exponent after indent": (
        lambda: parse_foam("edges: a\n  face:  a^2\n"),
        "line 2, col 10: bad exponent in 'a^2' (only ^-1 is allowed)"),
    "no colon": (lambda: parse_foam("edges a b\n"), "line 1, col 1: expected 'key: ...'"),
    "bad id in edges": (lambda: parse_foam("edges: a 1b\n"),
                        "line 1, col 10: bad edge id '1b'"),
    "duplicate id in edges": (lambda: parse_foam("edges: a b a\n"),
                              "line 1, col 12: duplicate edge 'a'"),
    "bad vertex count": (lambda: parse_foam("edges: a\nvertices: x\n"),
                         "line 2, col 1: expected 'vertices: <count>'"),
    "superscript vertex count": (lambda: parse_foam("edges: a\nvertices: ²\n"),
                                 "line 2, col 1: expected 'vertices: <count>'"),
    "endpoints of an undeclared edge": (
        lambda: parse_foam("edges: a\nedge b: 0 0\n"),
        "line 2, col 1: endpoint declaration for undeclared edge 'b'"),
    "one endpoint": (lambda: parse_foam("edges: a\nvertices: 2\nedge a: 0\n"),
                     "line 3, col 1: expected 'edge a: <src> <dst>'"),
    "non-integer endpoint": (lambda: parse_foam("edges: a\nvertices: 2\nedge a: 0 x\n"),
                             "line 3, col 1: expected 'edge a: <src> <dst>'"),
    "no vertex in a file": (lambda: parse_foam("edges: a\nvertices: 0\n"),
                            "line 2, col 11: a foam needs at least one vertex"),
    "endpoint past the vertex count": (
        lambda: parse_foam("edges: a\nvertices: 2\nedge a: 0 5\n"),
        "line 3, col 11: edge 'a' endpoint 5 is outside 0..1"),
    "endpoint declared before the vertex count": (
        lambda: parse_foam("edges: a\nedge a: 0 5\nvertices: 2\n"),
        "line 2, col 11: edge 'a' endpoint 5 is outside 0..1"),
    "negative endpoint": (lambda: parse_foam("edges: a\nvertices: 2\nedge a: -1 0\n"),
                          "line 3, col 9: edge 'a' endpoint -1 is outside 0..1"),
    "endpoint without a vertex count": (lambda: parse_foam("edges: a\nedge a: 0 1\n"),
                                        "line 2, col 11: edge 'a' endpoint 1 is outside 0..0"),
    "fewer edges than a tree": (
        lambda: parse_foam("edges: a\nvertices: 1000000\nedge a: 0 1\n"),
        "1-skeleton is not connected"),
    "tietze1_expand bad id": (lambda: tietze1_expand(builtin("torus"), "a1", "1c"),
                              "bad edge id '1c'"),
    "tietze1_collapse inverse lead": (
        lambda: tietze1_collapse(parse_foam("edges: a c\nface: c^-1 a\n"), "c"),
        "edge 'c' is not collapsible"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_refusal_gives_its_message(case):
    make, message = REFUSALS[case]
    with pytest.raises(FoamError) as refused:
        make()
    assert str(refused.value) == message


def test_a_wide_disconnected_skeleton_is_refused_before_it_is_allocated(tmp_path, capsys):
    # a connected 1-skeleton needs V - 1 edges: one declared line of a million
    # vertices used to build a million adjacency lists before refusing
    text = "edges: a\nvertices: 1000000\nedge a: 0 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(FoamError, match="^1-skeleton is not connected$"):
            parse_foam(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    path = tmp_path / "wide.foam"
    path.write_text(text)
    assert main(["analyze", "--foam", str(path)]) == 2
    assert "1-skeleton is not connected" in capsys.readouterr().err


def test_the_builtin_cache_keeps_no_foam_beyond_its_edge_budget():
    # builtin's cache held any foam it built: a cached genus:100000 held
    # 105 MB, so sixteen large keys kept about 1.7 GB alive.  Foams of more
    # than 4096 edges (genus:2049 and up) are built at each call instead
    builtin.cache_clear()
    small = builtin("genus:2048")
    assert builtin("genus:2048") is small and small.E == 4096
    big = builtin("genus:2049")
    assert builtin("genus:2049") == big and builtin("genus:2049") is not big
    del big
    tracemalloc.start()
    try:
        for g in range(2050, 2054):
            builtin("genus:%d" % g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 10 ** 6     # one such foam holds about 2 MB
    assert builtin.cache_info().currsize == 1
