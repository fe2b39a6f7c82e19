"""Cell 2-complexes ("foams") encoded as finite group presentations.

Edges are generators, faces are relator words.  A reduced foam has a single
vertex; multi-vertex foams are accepted by the parser and reduced by
contracting a spanning tree before analysis.  Cellular Betti numbers are
computed exactly over the rationals (fraction-free elimination), never by
floating-point rank.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

__all__ = [
    "Letter", "FaceWord", "Foam", "CellularReport", "FoamError",
    "parse_foam", "serialize_foam", "reduce_foam", "cellular_homology",
    "tietze1_expand", "tietze1_collapse", "tietze2_add_face",
    "verify_redundancy", "builtin", "match_builtin",
]

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_CACHE_EDGES = 4096     # the largest foam builtin caches (genus:2048: about 2 MB)


class FoamError(ValueError):
    pass


@dataclass(frozen=True)
class Letter:
    edge: str
    exponent: int  # +1 or -1

    def __post_init__(self):
        if self.exponent not in (1, -1):
            raise FoamError("letter exponent must be +1 or -1, got %r" % (self.exponent,))

    def inverse(self):
        return Letter(self.edge, -self.exponent)

    def __str__(self):
        return self.edge if self.exponent == 1 else self.edge + "^-1"


@dataclass(frozen=True)
class FaceWord:
    letters: tuple = ()
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def inverse(self):
        return FaceWord(tuple(l.inverse() for l in reversed(self.letters)), self.name)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(str(l) for l in self.letters)


@dataclass(frozen=True)
class Foam:
    """A cell 2-complex: vertices, directed edges, and face boundary words.

    edges is a tuple of (id, source vertex, target vertex); for a reduced foam
    all sources and targets are 0.  Face words are ordered: the holonomy is
    the left-to-right product of edge elements with the written exponents.
    words_idx[f] is face f's word as (edge index, exponent) pairs, built once.
    """

    name: str = "foam"
    n_vertices: int = 1
    edges: tuple = ()      # ((id, src, dst), ...)
    faces: tuple = ()      # (FaceWord, ...)
    _index: dict = field(init=False, repr=False, compare=False)
    words_idx: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((str(e), int(s), int(d)) for e, s, d in self.edges))
        object.__setattr__(self, "faces", tuple(self.faces))
        object.__setattr__(self, "_index", {e: i for i, (e, _, _) in enumerate(self.edges)})
        self._validate()
        object.__setattr__(self, "words_idx", tuple(
            tuple((self._index[l.edge], l.exponent) for l in f.letters) for f in self.faces))

    # -- basic counts
    @property
    def V(self):
        return self.n_vertices

    @property
    def E(self):
        return len(self.edges)

    @property
    def F(self):
        return len(self.faces)

    @property
    def euler(self):
        return self.V - self.E + self.F

    @property
    def edge_ids(self):
        return tuple(e for e, _, _ in self.edges)

    def edge_index(self, edge_id):
        if edge_id not in self._index:
            raise FoamError("foam %r has no edge %r" % (self.name, edge_id))
        return self._index[edge_id]

    def is_reduced(self):
        return self.n_vertices == 1

    # -- validation
    def _validate(self):
        if self.n_vertices < 1:
            raise FoamError("a foam needs at least one vertex")
        seen = set()
        for e, s, d in self.edges:
            if not _ID_RE.match(e):
                raise FoamError("bad edge id %r" % e)
            if e in seen:
                raise FoamError("duplicate edge id %r" % e)
            seen.add(e)
            if not (0 <= s < self.n_vertices and 0 <= d < self.n_vertices):
                raise FoamError("edge %r endpoints out of range" % e)
        for f in self.faces:
            for l in f.letters:
                if l.edge not in self._index:
                    raise FoamError("face word uses undeclared edge %r" % l.edge)
        if self.n_vertices > 1:
            # under V - 1 edges: refused before an adjacency list per vertex
            if self.n_vertices > self.E + 1 or len(self._spanning_tree()) < self.V - 1:
                raise FoamError("1-skeleton is not connected")
            for fi, f in enumerate(self.faces):
                self._check_chaining(fi, f)

    def _spanning_tree(self):
        """Edge indices of the depth-first tree of the 1-skeleton from vertex
        0, which marks a vertex when it is pushed; spanning iff connected."""
        adj = {v: [] for v in range(self.n_vertices)}
        for i, (_, s, d) in enumerate(self.edges):
            adj[s].append((d, i))
            adj[d].append((s, i))
        tree, seen, stack = set(), {0}, [0]
        while stack:
            for w, i in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    tree.add(i)
                    stack.append(w)
        return tree

    def _endpoints(self, letter):
        _, s, d = self.edges[self._index[letter.edge]]
        return (s, d) if letter.exponent == 1 else (d, s)

    def _check_chaining(self, fi, word):
        if not word.letters:
            return
        cur = self._endpoints(word.letters[0])[0]
        start = cur
        for l in word.letters:
            s, d = self._endpoints(l)
            if s != cur:
                raise FoamError("face %d: word does not chain at letter %s" % (fi, l))
            cur = d
        if cur != start:
            raise FoamError("face %d: word does not close into a loop" % fi)


# ----------------------------------------------------------------------
# text format

def _parse_letter(tok):
    """The Letter a token writes: an edge id, or an edge id followed by ^-1."""
    if tok.endswith("^-1"):
        base, exp = tok[:-3], -1
    elif "^" in tok:
        raise FoamError("bad exponent in %r (only ^-1 is allowed)" % tok)
    else:
        base, exp = tok, 1
    if not _ID_RE.match(base):
        raise FoamError("bad edge id %r" % base)
    return Letter(base, exp)


def parse_foam(text, name="foam"):
    """Parse the line-oriented foam format.

    Grammar: '#' starts a comment; 'edges: a b c' declares edges;
    'face [name]: a b a^-1' declares one face; optional 'vertices: N' and
    'edge a: src dst' lines describe multi-vertex foams.
    """
    edge_order = []
    endpoints = {}
    declared = {}       # edge id -> (line, endpoint columns) of its 'edge a:' line
    faces = []
    n_vertices = None

    def err(lineno, col, msg):
        raise FoamError("line %d, col %d: %s" % (lineno, col, msg)) from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            err(lineno, 1, "expected 'key: ...'")
        key, _, rest = line.partition(":")
        at = len(raw) - len(raw.lstrip()) + len(key) + 2    # column of rest's first char
        words = [(at + m.start(), m.group()) for m in re.finditer(r"\S+", rest)]
        key, toks = key.strip(), [tok for _, tok in words]
        if key == "edges":
            for col, tok in words:
                if not _ID_RE.match(tok):
                    err(lineno, col, "bad edge id %r" % tok)
                if tok in endpoints:
                    err(lineno, col, "duplicate edge %r" % tok)
                edge_order.append(tok)
                endpoints[tok] = (0, 0)
        elif key == "vertices":
            if len(toks) != 1 or not toks[0].isdecimal():
                err(lineno, 1, "expected 'vertices: <count>'")
            n_vertices = int(toks[0])
            if n_vertices < 1:
                err(lineno, words[0][0], "a foam needs at least one vertex")
        elif key == "face" or key.startswith("face "):
            fname = key[4:].strip() or None
            letters = []
            for col, tok in words:
                try:
                    l = _parse_letter(tok)
                except FoamError as exc:
                    err(lineno, col, exc)
                if l.edge not in endpoints:
                    err(lineno, col, "undeclared edge %r in face word" % l.edge)
                letters.append(l)
            faces.append(FaceWord(tuple(letters), fname))
        elif key.startswith("edge "):
            eid = key[4:].strip()
            if eid not in endpoints:
                err(lineno, 1, "endpoint declaration for undeclared edge %r" % eid)
            try:
                src, dst = map(int, toks)
            except ValueError:
                err(lineno, 1, "expected 'edge %s: <src> <dst>'" % eid)
            endpoints[eid] = (src, dst)
            declared[eid] = (lineno, [col for col, _ in words])
        else:
            err(lineno, 1, "unknown key %r" % key)

    if n_vertices is None:
        n_vertices = 1
    for eid, (lineno, cols) in declared.items():
        for col, v in zip(cols, endpoints[eid]):
            if not 0 <= v < n_vertices:
                err(lineno, col, "edge %r endpoint %d is outside 0..%d" % (eid, v, n_vertices - 1))
    edges = tuple((e,) + endpoints[e] for e in edge_order)
    return Foam(name=name, n_vertices=n_vertices, edges=edges, faces=tuple(faces))


def serialize_foam(foam):
    """Canonical text form; parse_foam(serialize_foam(f)) == f."""
    lines = ["edges: " + " ".join(foam.edge_ids) if foam.E else "edges:"]
    if foam.n_vertices > 1:
        lines.append("vertices: %d" % foam.n_vertices)
        for e, s, d in foam.edges:
            lines.append("edge %s: %d %d" % (e, s, d))
    for f in foam.faces:
        head = "face %s:" % f.name if f.name else "face:"
        lines.append((head + " " + str(f)).rstrip())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# reduction (spanning-tree contraction)

def reduce_foam(foam):
    """Deformation retract with one vertex: V -> 1, E -> E-V+1, F unchanged.

    foam is a Foam or a builtin key: the one rule for reading a foam argument.
    Tree-edge letters are deleted from the face words; idempotent on reduced
    foams.
    """
    if isinstance(foam, str):
        foam = builtin(foam)
    if foam.is_reduced():
        return foam
    tree = foam._spanning_tree()
    keep = [i for i in range(foam.E) if i not in tree]
    kept_ids = {foam.edges[i][0] for i in keep}
    new_edges = tuple((foam.edges[i][0], 0, 0) for i in keep)
    new_faces = tuple(
        FaceWord(tuple(l for l in f.letters if l.edge in kept_ids), f.name)
        for f in foam.faces)
    return Foam(name=foam.name, n_vertices=1, edges=new_edges, faces=new_faces)


# ----------------------------------------------------------------------
# cellular homology over Q

def _rank_bareiss(rows):
    """Exact rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return 0
    nrow, ncol = len(m), len(m[0])
    rank = 0
    prev = 1
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrow):
            for j in range(c + 1, ncol):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        rank += 1
        if r == nrow:
            break
    return rank


@dataclass(frozen=True)
class CellularReport:
    boundary1: tuple   # V x E integer matrix, rows = vertices
    boundary2: tuple   # E x F integer matrix, entry = net signed exponent count
    betti: tuple       # (b0, b1, b2) over Q
    euler: int


def cellular_homology(foam):
    """Exact rational Betti numbers of the chain complex Z^F -> Z^E -> Z^V."""
    V, E, F = foam.V, foam.E, foam.F
    d1 = [[0] * E for _ in range(V)]
    for j, (_, s, d) in enumerate(foam.edges):
        d1[d][j] += 1
        d1[s][j] -= 1
    d2 = [[0] * F for _ in range(E)]
    for fi, word_idx in enumerate(foam.words_idx):
        for ei, exp in word_idx:
            d2[ei][fi] += exp
    r1 = _rank_bareiss(d1)
    r2 = _rank_bareiss(d2)
    b0 = V - r1
    b1 = E - r1 - r2
    b2 = F - r2
    return CellularReport(
        boundary1=tuple(tuple(r) for r in d1),
        boundary2=tuple(tuple(r) for r in d2),
        betti=(b0, b1, b2),
        euler=V - E + F,
    )


# ----------------------------------------------------------------------
# Tietze moves

def tietze1_expand(foam, word, new_edge):
    """Add a generator with its defining relation: new face = new_edge . word^-1."""
    if new_edge in foam.edge_ids:
        raise FoamError("edge id %r already exists" % new_edge)
    if not _ID_RE.match(new_edge):
        raise FoamError("bad edge id %r" % new_edge)
    word = _as_word(word)
    for l in word.letters:
        if l.edge == new_edge:
            raise FoamError("defining word may not reference the new edge")
        foam.edge_index(l.edge)
    new_face = FaceWord((Letter(new_edge, 1),) + word.inverse().letters)
    return Foam(name=foam.name, n_vertices=foam.n_vertices,
                edges=foam.edges + ((new_edge, 0, 0),),
                faces=foam.faces + (new_face,))


def tietze1_collapse(foam, edge_id):
    """Inverse of tietze1_expand: exact round trip on the foam encoding."""
    foam.edge_index(edge_id)
    uses = [(fi, [i for i, l in enumerate(f.letters) if l.edge == edge_id])
            for fi, f in enumerate(foam.faces)]
    uses = [(fi, pos) for fi, pos in uses if pos]
    if len(uses) != 1 or len(uses[0][1]) != 1 or uses[0][1][0] != 0:
        raise FoamError("edge %r is not collapsible (must occur exactly once, "
                        "leading its defining face)" % edge_id)
    fi = uses[0][0]
    lead = foam.faces[fi].letters[0]
    if lead.exponent != 1:
        raise FoamError("edge %r is not collapsible" % edge_id)
    edges = tuple(e for e in foam.edges if e[0] != edge_id)
    faces = tuple(f for i, f in enumerate(foam.faces) if i != fi)
    return Foam(name=foam.name, n_vertices=foam.n_vertices, edges=edges, faces=faces)


def tietze2_add_face(foam, word, name=None):
    """Add a relation claimed redundant; pair with verify_redundancy."""
    word = _as_word(word)
    for l in word.letters:
        foam.edge_index(l.edge)
    return Foam(name=foam.name, n_vertices=foam.n_vertices, edges=foam.edges,
                faces=foam.faces + (FaceWord(word.letters, name),))


def verify_redundancy(word, samples):
    """Max distance to the identity of the word's holonomy over flat samples,
    the word read in the edges of each sample's own foam.  ValueError for no
    samples: an empty set (find_flat_batch drops every start it cannot
    project) is no evidence that the relation holds."""
    from .connection import holonomy_word
    word = _as_word(word)
    distances = [float(s.group.distance(holonomy_word(s, word))) for s in samples]
    if not distances:
        raise ValueError("verify_redundancy needs at least one sample; got none")
    return max(0.0, *distances)


def _as_word(word):
    if isinstance(word, FaceWord):
        return word
    if isinstance(word, str):
        return FaceWord(tuple(map(_parse_letter, word.split())))
    return FaceWord(tuple(word))


# ----------------------------------------------------------------------
# builtin catalog

def _commutator(a, b):
    return (Letter(a, 1), Letter(b, 1), Letter(a, -1), Letter(b, -1))


def _genus(name):
    """g for the builtin key genus:g (the torus: 1), None for any other key."""
    key = name.lower()
    if key == "torus":
        return 1
    if not key.startswith("genus:"):
        return None
    if not key[6:].isdecimal():
        raise FoamError("builtin %r: genus:g needs an integer g >= 0" % name)
    return int(key[6:])


def _genus_presentation(g):
    """genus:g's presentation (see _presentation) from tuples alone: edges
    a1, b1, ..., ag, bg and one face [a1, b1] ... [ag, bg]."""
    ids = tuple("%s%d" % (c, i) for i in range(1, g + 1) for c in "ab")
    word = tuple(p for e in range(0, 2 * g, 2)
                 for p in ((e, 1), (e + 1, 1), (e, -1), (e + 1, -1)))
    return ids, (word,)


def builtin(name):
    """Canonical reduced foams: sphere, torus, genus:g, appendix, dunce_hat,
    projective_plane.  genus:0 is the sphere (one trivially attached face).
    Each key of at most _CACHE_EDGES edges is built once per process, in a
    cache of 16 foams (a Foam is frozen, so every caller may share it), and
    a larger genus at each call, so the cache holds some 34 MB at most."""
    g = _genus(name)
    if g is not None and 2 * g > _CACHE_EDGES:
        return _build_builtin(name)
    return _cached_builtin(name)


def _build_builtin(name):
    key, g = name.lower(), _genus(name)
    if key == "sphere" or g == 0:
        return Foam(name="sphere", edges=(), faces=(FaceWord((), "disk"),))
    if g is not None:
        ids, (word,) = _genus_presentation(g)
        return Foam(name="genus%d" % g, edges=tuple((e, 0, 0) for e in ids),
                    faces=(FaceWord(tuple(Letter(ids[e], s) for e, s in word), "surface"),))
    if key == "appendix":
        edges = (("a", 0, 0), ("b", 0, 0), ("h", 0, 0))
        return Foam(name="appendix", edges=edges,
                    faces=(FaceWord(_commutator("a", "h"), "f_a"),
                           FaceWord(_commutator("b", "h"), "f_b")))
    if key == "dunce_hat":
        return Foam(name="dunce_hat", edges=(("a", 0, 0),),
                    faces=(FaceWord((Letter("a", 1), Letter("a", 1), Letter("a", -1)),),))
    if key == "projective_plane":
        return Foam(name="projective_plane", edges=(("a", 0, 0),),
                    faces=(FaceWord((Letter("a", 1), Letter("a", 1)),),))
    raise FoamError("unknown builtin %r" % name)


_cached_builtin = functools.lru_cache(maxsize=16)(_build_builtin)
builtin.cache_clear, builtin.cache_info = _cached_builtin.cache_clear, _cached_builtin.cache_info


def _presentation(foam):
    """A reduced foam's edge ids and its face words as (edge index, exponent)
    pairs, which name the same letters."""
    return foam.edge_ids, foam.words_idx


def match_builtin(foam, keys):
    """The first of the builtin keys whose foam has this foam's presentation
    once reduced (reduce_foam): the same edge ids in the same order and the
    same face words, letter for letter and in the same order.  Names, of the
    foam and of its faces, play no part.  None if no key matches.  A genus:g
    key beyond builtin's cache is matched with no foam built, so a foam
    loaded by that key is built once, however large.
    """
    shape = _presentation(reduce_foam(foam))
    return next((key for key in keys if _key_presentation(key) == shape), None)


def _key_presentation(key):
    g = _genus(key)
    if g is not None and 2 * g > _CACHE_EDGES:
        return _genus_presentation(g)
    return _presentation(builtin(key))
