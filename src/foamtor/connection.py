"""Discrete connections on a reduced foam.

A connection assigns a group element to every edge; the holonomy of a face is
the left-to-right product of edge elements with the word's exponents, and a
connection is flat when every face holonomy is the identity.  Flat connections
are produced either by analytic parametrizations (torus, appendix foam) or by
damped Gauss-Newton projection: the face-word Jacobian (the twisted
differential delta1) linearizes the curvature map, and Levenberg-Marquardt
steps drive every face holonomy to the identity.

One walk, _face_walk, multiplies out the face words: its products are the
holonomies and its prefix products the frames of delta1 (word_jacobian).
Every holonomy and residual here is read off it (face_residual sums the
residual); only the fused Monte Carlo word_angle walks faces on its own.
A projection keeps the H and delta1 of each sample's accepting step, and an
analytic family the H and frames of its residual walk, which
word_jacobian(..., walk=) assembles: word_jacobian's bits, batch elementwise.
The walk is laid out component-major: it builds the right-multiplication
table (group.right_table) of every edge element once, and that of its
inverse from it (group.inv_table: for SU(2) a transposed view), keeps the
running product as (elem_dim, ...), multiplies it by one table per letter
(group.right_mul), and writes the frames into one (elem_dim, L, ...) array,
L the number of letters.  H (..., F, elem_dim) and the frames
(..., L, elem_dim) it returns are views of that memory, so group.adjoint
reads each frame component as one contiguous row.  delta1 adds the
letters' signed Ad blocks by occurrence rank (_letter_plan): one gathered
add for the first letter of every (face, edge) block, one for the second,
and so on, planned once per word_jacobian call and once per projection.

A flat sample is a Connection: FlatSample adds the residual and the
classification, so every function of a connection takes a sample as it is.
A sample set is a SampleSet, one array per field: the builders
(find_flat_batch, analytic_flat_batch) fill it with the walk that built it,
and the twisted complex, min_b2's rule and torsion read it.  It runs one
element check over all its rows, refusing as Connection does, and builds a
FlatSample record only for the row it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .foam import Foam, _as_word, builtin as _builtin_foam, match_builtin, reduce_foam
from .groups import EPS_LOG, SU2, get_group, su2_normalize

FLAT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Connection:
    """Edge assignment e -> g_e, ordered by the foam's edge list.

    data has shape (E, elem_dim); rows follow foam.edge_ids, and conn[e] is
    edge e's row.  A row that is not a group element (group.is_element: a
    unit quaternion to ELEMENT_TOL, a finite angle) is refused with
    ValueError naming its edge.
    """

    foam: Foam
    group: object
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "group", get_group(self.group))
        arr = np.asarray(self.data, dtype=float).reshape(self.foam.E, self.group.elem_dim)
        _check_elements(self.foam, self.group, arr)
        object.__setattr__(self, "data", arr)

    def __getitem__(self, edge_id):
        return self.data[self.foam.edge_index(edge_id)]

    def to_json(self):
        return {e: self.group.to_json(self.data[i])
                for i, e in enumerate(self.foam.edge_ids)}

    @classmethod
    def identity(cls, foam, group):
        group = get_group(group)
        return cls(foam, group, group.identity((foam.E,)))

    @classmethod
    def haar(cls, foam, group, rng):
        group = get_group(group)
        return cls(foam, group, group.haar(rng, (foam.E,)))


@dataclass(frozen=True, eq=False)
class FlatSample(Connection):
    """A connection on the flat set, with its residual and classification;
    its JSON nests the connection's edge map under "connection"."""

    residual: float
    b0: int | None = None
    b2: int | None = None
    component_tag: str | None = None
    possibly_singular: bool = False

    def to_json(self):
        return {
            "connection": super().to_json(),
            "residual": self.residual,
            "b0": self.b0,
            "b2": self.b2,
            "component_tag": self.component_tag,
            "possibly_singular": self.possibly_singular,
        }


# ----------------------------------------------------------------------
# a whole sample set, as columns

def _check_elements(foam, group, g):
    """ValueError naming the edge of the first row of g (..., E, elem_dim)
    that is not an element of group, from one group.is_element call over all
    its rows: the one element check of every Connection."""
    rows = g.reshape(-1, group.elem_dim)
    ok = group.is_element(rows)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError("edge %r carries %r, which is not an element of %s"
                         % (foam.edge_ids[k % foam.E], rows[k].tolist(), group.name))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Flat samples on one foam and group, one array per field.

    g (n, E, elem_dim) stacks the connections, residual and tags (n,) hold
    their residuals and component tags.  H (n, F, elem_dim) and either
    delta1 (n, F*d, E*d) or frames (n, L, elem_dim) are the builder's face
    walk: a projection's accepting step, or an analytic family's residual
    walk, which word_jacobian(..., walk=) turns into delta1 only where a
    complex is built.  min_b2 fills b0, b2 and possibly_singular (n,).
    Construction runs one element check over all n*E rows, refusing as
    Connection does.  set[i] is sample i as a FlatSample, set[a:b] the
    SampleSet of those rows; len goes by sample, and iteration by set[i].
    """

    foam: Foam
    group: object
    g: np.ndarray
    residual: np.ndarray
    tags: tuple
    H: np.ndarray | None = None
    delta1: np.ndarray | None = None
    frames: np.ndarray | None = None
    b0: np.ndarray | None = None
    b2: np.ndarray | None = None
    possibly_singular: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "group", get_group(self.group))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        _check_elements(self.foam, self.group, self.g)

    def __len__(self):
        return len(self.g)

    def __getitem__(self, i):
        if isinstance(i, slice):
            columns = {f.name: getattr(self, f.name) for f in fields(self)[2:]}
            return replace(self, **{k: v[i] for k, v in columns.items() if v is not None})

        def at(column, cast, default=None):
            return default if column is None else cast(column[i])
        # the set's element check covers this row: skip __init__ and its second check
        sample = object.__new__(FlatSample)
        sample.__dict__.update(foam=self.foam, group=self.group, data=self.g[i],
                               residual=float(self.residual[i]), b0=at(self.b0, int),
                               b2=at(self.b2, int), component_tag=self.tags[i],
                               possibly_singular=at(self.possibly_singular, bool, False))
        return sample


# ----------------------------------------------------------------------
# the face walk: holonomies, residual and delta1 (edge arrays (..., E, elem_dim))

def _face_walk(group, words_idx, g):
    """Face holonomies H (..., F, elem_dim) and, per letter in word order, the
    prefix product that transports it (..., L, elem_dim).  The one place face
    words are multiplied out (besides the fused Monte Carlo word_angle), laid
    out component-major as the module docstring describes."""
    batch = g.shape[:-2]
    # tables (..., E) of every edge element and its inverse; [..., e] is edge e's
    fwd = group.right_table(g)
    back = group.inv_table(fwd)
    L = sum(len(word_idx) for word_idx in words_idx)
    H = np.empty((len(words_idx), group.elem_dim) + batch)
    frames = np.empty((group.elem_dim, L) + batch)
    one = group.identity().reshape((group.elem_dim,) + (1,) * len(batch))
    i = 0
    for f, word_idx in enumerate(words_idx):
        P = one
        for e, s in word_idx:
            if s > 0:
                frames[:, i] = P
                P = group.right_mul(P, fwd[..., e])
            else:
                P = group.right_mul(P, back[..., e])
                frames[:, i] = P
            i += 1
        H[f] = P
    axes = tuple(range(2, H.ndim))      # the batch axes of H and frames
    return H.transpose(axes + (0, 1)), frames.transpose(axes + (1, 0))


def face_residual(group, H):
    """Flatness residual sum_f distance(H_f, 1)^2 of face holonomies H
    (..., F, elem_dim), summed face by face."""
    res = np.zeros(H.shape[:-2])
    for f in range(H.shape[-2]):
        d = group.distance(H[..., f, :])
        res = res + d * d
    return res


def _letter_plan(words_idx, E, d):
    """Per occurrence rank k, the rows (F, d, E) of _jacobian's block stack
    [Ad(P_1) .. Ad(P_L), -Ad(P_1) .. -Ad(P_L), 0] that J's block (f, e)
    takes from the letter writing it for the (k+1)-th time: +-Ad by the
    exponent, or the zero block where face f has fewer letters e^+-1."""
    L = sum(len(word_idx) for word_idx in words_idx)
    ranks, seen = [], {}
    i = 0
    for f, word_idx in enumerate(words_idx):
        for e, s in word_idx:
            k = seen[f, e] = seen.get((f, e), -1) + 1
            if k == len(ranks):
                ranks.append(np.full((len(words_idx), E), 2 * L))
            ranks[k][f, e] = i if s > 0 else L + i
            i += 1
    return [idx[:, None, :] * d + np.arange(d)[:, None] for idx in ranks]


def _jacobian(group, words_idx, ranks, g, walk=None):
    """word_jacobian with the letter plan built by the caller: one gather
    and one add per rank.  Each block sums 0 + s1 B1 + s2 B2 + ... in word
    order, signed zeros included: a sum that starts at +0 is never -0, so
    the zero blocks that pad the later ranks leave it as it is."""
    H, frames = _face_walk(group, words_idx, g) if walk is None else walk
    batch = g.shape[:-2]
    E, d = g.shape[-2], group.dim_g
    F, L = len(words_idx), frames.shape[-2]
    A = group.adjoint(frames)
    B = np.concatenate((A, -A, np.zeros(batch + (1, d, d))), axis=-3)
    B = B.reshape(batch + ((2 * L + 1) * d, d))
    J = np.zeros(batch + (F, d, E, d))
    for rows in ranks:
        J += np.take(B, rows, axis=-2)
    return H, J.reshape(batch + (F * d, E * d))


def word_jacobian(group, words_idx, g, walk=None):
    """Face holonomies and the linearized curvature delta1 in one walk.

    g has shape (..., E, elem_dim) and words_idx lists each face word as
    (edge index, exponent) pairs; walk, _face_walk's (H, frames) at g, stands
    in for the walk where the caller has made it.  Returns H of shape
    (..., F, elem_dim) and J of shape (..., F*d, E*d), d = dim G.  J is the
    right-trivialized Jacobian of the curvature map, H_f(exp(eps v) g) =
    exp(eps (J v)_f) H_f(g) to first order: face f's block at edge e sums
    +Ad(P_{i-1}) over letters l_i = e and -Ad(P_i) over letters l_i = e^-1,
    with P_i the product of the first i letters.  No log is taken, so J is
    defined at any connection.

    The blocks are added by occurrence rank (_letter_plan, _jacobian): the
    first letter of every block at once, then every second, ..., so a
    surface word takes two adds and a a a^-1 three, with the bits of one add
    per letter in word order.
    """
    ranks = _letter_plan(words_idx, g.shape[-2], group.dim_g)
    return _jacobian(group, words_idx, ranks, g, walk)


def holonomy(conn, f):
    """Holonomy of face f of conn.foam: ordered product of g_e^{+-1} along
    the face word (raw element array)."""
    return _face_walk(conn.group, [conn.foam.words_idx[f]], conn.data)[0][0]


def holonomy_word(conn, word):
    """Holonomy of a word in the edges of conn.foam (raw element array); the
    word is a FaceWord, a sequence of Letters or a string such as "a b^-1"."""
    idx = [(conn.foam.edge_index(l.edge), l.exponent) for l in _as_word(word).letters]
    return _face_walk(conn.group, [idx], conn.data)[0][0]


def flatness_residual(conn):
    """Sum over faces of distance(H_f, 1)^2; zero iff the connection is flat."""
    H = _face_walk(conn.group, conn.foam.words_idx, conn.data)[0]
    return float(face_residual(conn.group, H))


def gauge_act(h, conn):
    """Conjugate every edge element by the element array h (single-vertex
    gauge transformation)."""
    group = conn.group
    hb = np.broadcast_to(np.asarray(h, dtype=float), conn.data.shape)
    new = group.mul(group.mul(hb, conn.data), group.inv(hb))
    return Connection(conn.foam, group, new)


# ----------------------------------------------------------------------
# Gauss-Newton projection onto the flat set

LM_LAMBDA0 = 1e-2        # initial Levenberg-Marquardt damping
LM_SHRINK = 0.1          # damping factor after an accepted step
LM_GROW = 10.0           # damping factor after a rejected step
# Damping bounds on the scale of J's O(1) entries (Ad is orthogonal).  J J^T
# is singular when faces constrain an edge twice or a face word is empty, and
# a smaller lam is lost to rounding there; a larger one only shrinks steps
# that are already negligible.
LM_LAMBDA_RANGE = (1e-12, 1e12)
# Projection goes far below the FLAT_TOL gate.  At the singular points of the
# representation variety delta1 . delta0 grows like sqrt(residual): stopping
# at the gate's 1e-10 would leave it near 1e-5, while 1e-24 puts it near
# 1e-12, the absolute floor of the SVD rank decisions.
PROJECT_TOL = 1e-24
MAX_ITERS = 5000         # steps before the starts still above PROJECT_TOL are dropped


def _curvature(group, words_idx, plan, g):
    """(residual, r, H, J) of a batch (n, E, elem_dim) of connections.

    r stacks log H_f per sample and residual = |r|^2, or inf for a sample with
    a face holonomy on the cut locus, where log (hence r) is unusable.  The
    cut test and log read one group.polar pass per holonomy: its class angle
    and the norm (SU(2)) or wrapped angle (U(1)) that log divides by.
    """
    H, J = _jacobian(group, words_idx, plan, g)
    polar = group.polar(H)
    cut = np.any(polar[0] > np.pi - EPS_LOG, axis=-1)
    r = group.log(H, check_cut_locus=False, polar=polar).reshape(g.shape[0], -1)
    return np.where(cut, np.inf, np.sum(r * r, axis=-1)), r, H, J


def _descend(group, words_idx, g, trace=None):
    """Batched damped Gauss-Newton projection; returns (g, residual, H, J),
    H and J word_jacobian's at g, kept from the step that accepted it.

    Each sample takes the minimum-norm Levenberg-Marquardt step
    xi = -J^T (J J^T + lam I)^-1 log H and moves g <- exp(xi) g.  The step is
    accepted per sample iff it lowers the residual (inf on the cut locus, so
    a start there keeps the first step off it); lam shrinks on accept and
    grows on reject, so the per-sample residual never increases.  Once every
    sample is under PROJECT_TOL, one more step polishes the samples it helps,
    so that rank decisions at the limit point do not sit on the SVD noise
    floor; samples stalled at a non-flat critical point, or on the cut locus
    (an SU(2) holonomy of exactly -1 has log 0), do not hold that step back.
    """
    n, E = g.shape[:2]
    plan = _letter_plan(words_idx, E, group.dim_g)
    res, r, H, J = _curvature(group, words_idx, plan, g)
    eye = np.eye(r.shape[-1])
    lam = np.full(n, LM_LAMBDA0)
    stalled = np.zeros(n, dtype=bool)
    for _ in range(MAX_ITERS):
        polish = np.all((res <= PROJECT_TOL) | stalled)
        Jt = np.swapaxes(J, -1, -2)
        y = np.linalg.solve(J @ Jt + lam[:, None, None] * eye, r[..., None])
        xi = -(Jt @ y).reshape(n, E, group.dim_g)
        g_new = group.mul(group.exp(xi), g)
        res_new, r_new, H_new, J_new = _curvature(group, words_idx, plan, g_new)
        ok = res_new < res
        # rejected at the damping cap: g, J and lam stay as they are, so the
        # same step is rejected forever (a non-flat critical point)
        stalled = ~ok & (lam == LM_LAMBDA_RANGE[1])
        g = np.where(ok[:, None, None], g_new, g)
        res = np.where(ok, res_new, res)
        r = np.where(ok[:, None], r_new, r)
        H = np.where(ok[:, None, None], H_new, H)
        J = np.where(ok[:, None, None], J_new, J)
        lam = np.where(ok, lam * LM_SHRINK, lam * LM_GROW)  # np.clip's bits, less overhead
        lam = np.minimum(np.maximum(lam, LM_LAMBDA_RANGE[0]), LM_LAMBDA_RANGE[1])
        if trace is not None:
            trace.append(res.copy())
        if polish:
            break
    return g, res, H, J


def find_flat_batch(foam, group, rng, n, trace=None):
    """n independent projections onto the flat set, advanced together for speed.

    foam is a Foam or a builtin key.  Each of the n Haar starts is projected
    to a residual of PROJECT_TOL within MAX_ITERS steps; the starts that do
    not get there (_descend) are dropped, so fewer than n samples, possibly
    none, may come back, as a SampleSet on the reduced foam that carries H
    and delta1 from each kept sample's accepting step.  When trace is a list,
    the residual vector is appended after every step.
    """
    group = get_group(group)
    if n < 0:
        raise ValueError("the number of starts must be at least 0, got %d" % n)
    foam = reduce_foam(_builtin_foam(foam) if isinstance(foam, str) else foam)
    g = group.haar(rng, (n, foam.E))
    if n == 0 or foam.E == 0 or foam.F == 0:
        H, J = word_jacobian(group, foam.words_idx, g)
        res = face_residual(group, H)
    else:
        g, res, H, J = _descend(group, foam.words_idx, g, trace=trace)
        ok = res <= PROJECT_TOL
        g, res, H, J = g[ok], res[ok], H[ok], J[ok]
    return SampleSet(foam, group, g, res, (None,) * len(g), H=H, delta1=J)


# ----------------------------------------------------------------------
# analytic flat families for the builtin foams

def unit_vectors(v):
    """v (..., 3) over the norms of its rows.  Each squared norm is the row's
    dot product with itself, as in np.linalg.norm of one vector, so a row
    scales by the same bits alone or in a stack (a sum-reduction over the
    last axis rounds differently)."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


PSI_RANGE = (0.15, np.pi - 0.15)    # class angles drawn by the analytic families
ANALYTIC_FOAMS = ("torus", "appendix")   # the builtins with analytic SU(2) families


def analytic_flat_batch(kind, rng, signs, families=None, psi_a=None, psi_b=None,
                        psi_h=None, axis=None):
    """Exact SU(2) flat samples on the builtin torus or appendix foam, one per
    entry of signs (each +1 or -1), built together.

    torus: a = exp(psi_a n), b = exp(sign psi_b n) about a common axis n.
    appendix: families[i] is 'irred' (a, b Haar random, h = sign * identity)
    or 'red' (a, b, h on a common axis n, with class angles psi_a, psi_b,
    psi_h; sign +1 only).  An axis or angle left as None is drawn.  Before
    any draw, ValueError names each parameter that no sample uses: psi_h and
    families on the torus, the angles and axis when no sample is 'red', and
    a sign -1 on a 'red' sample; it also names families of another length
    than signs, and an angle or axis that is not finite.

    A first loop draws each sample's numbers in turn, into rows of arrays
    allocated once, in this order: the torus and 'red' draw the axis (three
    normals) and then their free angles (uniforms u, mapped at once to
    PSI_RANGE as rng.uniform maps them), 'irred' draws the normals of a and
    b (one (2, 4) row).
    The samples are then built at once: one unit_vectors call, one exp over
    every (sample, edge), one su2_normalize of every 'irred' sample's
    normals (the arithmetic of SU2.haar), one stacked (n, E, 4) array, one
    residual walk over the face words and one element check over all rows.
    Sample for sample this gives the bits of building each one alone, so a
    batch of one (analytic_flat) and a batch of n draw and compute the same
    numbers.  The SampleSet keeps the H and frames of the residual walk, for
    the complex to assemble delta1 from without walking again.
    """
    n = len(signs)
    if any(sgn not in (1, -1) for sgn in signs):
        raise ValueError("each sign must be +1 or -1, got %r" % (list(signs),))
    if kind == "torus":
        _refuse_unused("torus", psi_h=psi_h, families=families)
        chart = np.ones(n, dtype=bool)      # samples on a common-axis chart
    elif kind != "appendix":
        raise ValueError("no analytic flat family for %r" % kind)
    elif families is None or any(fam not in ("irred", "red") for fam in families):
        raise ValueError("appendix family must be 'irred' or 'red'")
    elif len(families) != n:
        raise ValueError("families has %d entries for %d signs" % (len(families), n))
    else:
        chart = np.array([fam == "red" for fam in families], dtype=bool)
        if not chart.any():
            _refuse_unused("appendix 'irred'", psi_a=psi_a, psi_b=psi_b, psi_h=psi_h,
                           axis=axis)
        if any(sgn != 1 for sgn, red in zip(signs, chart) if red):
            _refuse_unused("appendix 'red'", sign=-1)
    for name, value in (("psi_a", psi_a), ("psi_b", psi_b), ("psi_h", psi_h), ("axis", axis)):
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError("%s %r is not finite" % (name, value))
    foam = _builtin_foam(kind)
    fixed = (psi_a, psi_b, psi_h)[:foam.E]
    free = [k for k, p in enumerate(fixed) if p is None]
    m = int(np.count_nonzero(chart))
    axes, u, normals = np.empty((m, 3)), np.empty((m, len(free))), np.empty((n - m, 2, 4))
    if axis is not None:
        axes[:] = axis
    rows_a, rows_u, rows_n = iter(axes), iter(u), iter(normals)
    for on_chart in chart.tolist():
        if not on_chart:
            rng.standard_normal(out=next(rows_n))
            continue
        if axis is None:
            rng.standard_normal(out=next(rows_a))
        rng.random(out=next(rows_u))
    psi = np.tile([np.nan if p is None else float(p) for p in fixed], (m, 1))
    # rng.uniform(*PSI_RANGE)'s arithmetic on its doubles, low + (high - low) u
    psi[:, free] = PSI_RANGE[0] + (PSI_RANGE[1] - PSI_RANGE[0]) * u
    signs = np.asarray(signs, dtype=float)
    g = np.empty((n, foam.E, 4))
    if kind == "torus":
        psi[:, 1] *= signs
    else:
        g[~chart, :2] = su2_normalize(np.ascontiguousarray(normals.T)).T
        g[~chart, 2] = SU2.identity() * signs[~chart, None]
    g[chart] = SU2.exp(psi[..., None] * unit_vectors(axes)[:, None, :])
    H, frames = _face_walk(SU2, foam.words_idx, g)
    tags = (["torus:+" if sgn > 0 else "torus:-" for sgn in signs] if kind == "torus"
            else families)
    return SampleSet(foam, SU2, g, face_residual(SU2, H), tuple(tags), H=H, frames=frames)


def analytic_flat(foam, rng, sign=+1, family=None, psi_a=None, psi_b=None, psi_h=None,
                  axis=None):
    """One exact SU(2) flat sample of an analytic family: analytic_flat_batch
    with one sample.

    foam is a Foam or a builtin key, recognised by structure
    (foam.match_builtin).  The torus (genus:1) has a = exp(psi_a n),
    b = exp(sign psi_b n) about a common axis n; the appendix foam has family
    'irred' (the default: h = sign * identity, a and b Haar random) or 'red'
    (a, b, h on a common axis).  Any other foam is refused with ValueError
    (find_flat_batch projects), and so is a parameter the family does not use.
    """
    if isinstance(foam, str):
        foam = _builtin_foam(foam)
    kind = match_builtin(foam, ANALYTIC_FOAMS)
    if kind is None:
        raise ValueError("no analytic flat family for foam %r" % foam.name)
    if kind == "appendix" and family is None:
        family = "irred"
    return analytic_flat_batch(kind, rng, [sign], None if family is None else [family],
                               psi_a=psi_a, psi_b=psi_b, psi_h=psi_h, axis=axis)[0]


def _refuse_unused(label, **params):
    """ValueError naming each parameter set that the family label does not use."""
    named = [k for k, v in params.items() if v is not None]
    if named:
        raise ValueError("the %s family does not use %s" % (label, ", ".join(named)))
