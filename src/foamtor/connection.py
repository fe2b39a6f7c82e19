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
The walk is laid out component-major: it builds the right-multiplication
tables (group.right_table) of every edge element and its inverse once, keeps
the running product as (elem_dim, ...) and multiplies it by one table per
letter (group.right_mul), and writes the frames into one (L, elem_dim, ...)
array, L the number of letters.  H (..., F, elem_dim) and the frames
(..., L, elem_dim) it returns are views of that memory, so delta1 reads the
frames without stacking them.

A flat sample is a Connection: FlatSample adds the residual and the
classification, so every function of a connection takes a sample as it is.
A sample set's records are built in one pass (_flat_samples): one element
check over all its rows, refusing as Connection does, and the frozen records
filled without their per-instance __init__ (_records).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .foam import Foam, _as_word, builtin as _builtin_foam, match_builtin, reduce_foam
from .groups import EPS_LOG, SU2, CutLocusError, get_group, su2_normalize

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
# records of a whole sample set

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


def _records(cls, **columns):
    """One instance of the frozen dataclass cls per row of columns (each field
    -> a sequence of its values), without the generated __init__ and its
    object.__setattr__ per field.  The instances keep cls's equality, hash,
    repr and immutability; the caller supplies what __post_init__ computes."""
    names = tuple(cls.__dataclass_fields__)
    if set(columns) != set(names):
        raise TypeError("%s records need the columns %s" % (cls.__name__, ", ".join(names)))
    new = object.__new__
    out = []
    for row in zip(*(columns[name] for name in names)):
        obj = new(cls)
        obj.__dict__.update(zip(names, row))
        out.append(obj)
    return out


def _flat_samples(foam, group, g, residuals, component_tags=None, b0=None, b2=None,
                  possibly_singular=None):
    """FlatSample(foam, group, g[i], residuals[i], ...) for every i of a stack
    g (n, E, elem_dim), group a group class: one element check over all n*E
    rows, refusing as Connection does.  The other columns are sequences; one
    left as None takes its field's default."""
    _check_elements(foam, group, g)
    n = len(g)
    return _records(FlatSample, foam=[foam] * n, group=[group] * n, data=list(g),
                    residual=residuals, b0=b0 or [None] * n, b2=b2 or [None] * n,
                    component_tag=component_tags or [None] * n,
                    possibly_singular=possibly_singular or [False] * n)


# ----------------------------------------------------------------------
# the face walk: holonomies, residual and delta1 (edge arrays (..., E, elem_dim))

def _face_walk(group, words_idx, g):
    """Face holonomies H (..., F, elem_dim) and, per letter in word order, the
    prefix product that transports it (..., L, elem_dim).  The one place face
    words are multiplied out (besides the fused Monte Carlo word_angle), laid
    out component-major as the module docstring describes."""
    batch = g.shape[:-2]
    # tables (..., E) of every edge element and its inverse; [..., e] is edge e's
    fwd, back = group.right_table(g), group.right_table(group.inv(g))
    L = sum(len(word_idx) for word_idx in words_idx)
    H = np.empty((len(words_idx), group.elem_dim) + batch)
    frames = np.empty((L, group.elem_dim) + batch)
    one = group.identity().reshape((group.elem_dim,) + (1,) * len(batch))
    i = 0
    for f, word_idx in enumerate(words_idx):
        P = one
        for e, s in word_idx:
            if s > 0:
                frames[i] = P
                P = group.right_mul(P, fwd[..., e])
            else:
                P = group.right_mul(P, back[..., e])
                frames[i] = P
            i += 1
        H[f] = P
    axes = tuple(range(2, H.ndim)) + (0, 1)     # (X, elem_dim, ...) -> (..., X, elem_dim)
    return H.transpose(axes), frames.transpose(axes)


def face_residual(group, H):
    """Flatness residual sum_f distance(H_f, 1)^2 of face holonomies H
    (..., F, elem_dim), summed face by face."""
    res = np.zeros(H.shape[:-2])
    for f in range(H.shape[-2]):
        d = group.distance(H[..., f, :])
        res = res + d * d
    return res


def word_jacobian(group, words_idx, g):
    """Face holonomies and the linearized curvature delta1 in one walk.

    g has shape (..., E, elem_dim) and words_idx lists each face word as
    (edge index, exponent) pairs.  Returns H of shape (..., F, elem_dim) and
    J of shape (..., F*d, E*d), d = dim G.  J is the right-trivialized
    Jacobian of the curvature map, H_f(exp(eps v) g) = exp(eps (J v)_f) H_f(g)
    to first order: face f's block at edge e sums +Ad(P_{i-1}) over letters
    l_i = e and -Ad(P_i) over letters l_i = e^-1, with P_i the product of the
    first i letters.  No log is taken, so J is defined at any connection.
    """
    H, frames = _face_walk(group, words_idx, g)
    batch = g.shape[:-2]
    E, d = g.shape[-2], group.dim_g
    F = len(words_idx)
    J = np.zeros(batch + (F, d, E, d))
    if frames.shape[-2]:
        B = group.adjoint(frames)
        letters = [(f, e, s) for f, word_idx in enumerate(words_idx) for e, s in word_idx]
        for i, (f, e, s) in enumerate(letters):
            if s > 0:
                J[..., f, :, e, :] += B[..., i, :, :]
            else:
                J[..., f, :, e, :] -= B[..., i, :, :]
    return H, J.reshape(batch + (F * d, E * d))


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
CUT_RETRIES = 10         # jitters of the starts on the cut locus before giving up
# Projection goes far below the FLAT_TOL gate.  At the singular points of the
# representation variety delta1 . delta0 grows like sqrt(residual): stopping
# at the gate's 1e-10 would leave it near 1e-5, while 1e-24 puts it near
# 1e-12, the absolute floor of the SVD rank decisions.
PROJECT_TOL = 1e-24
MAX_ITERS = 5000         # steps before the starts still above PROJECT_TOL are dropped


def _curvature(group, words_idx, g):
    """(residual, cut, r, J) of a batch (n, E, elem_dim) of connections.

    r stacks log H_f per sample, residual = |r|^2, and cut flags the samples
    with a face holonomy on the cut locus, where log (hence r) is unusable.
    """
    H, J = word_jacobian(group, words_idx, g)
    cut = np.any(group.distance(H) > np.pi - EPS_LOG, axis=-1)
    r = group.log(H, check_cut_locus=False).reshape(g.shape[0], -1)
    return np.sum(r * r, axis=-1), cut, r, J


def _descend(group, words_idx, g, rng, trace=None):
    """Batched damped Gauss-Newton projection; returns (g, residual).

    Each sample takes the minimum-norm Levenberg-Marquardt step
    xi = -J^T (J J^T + lam I)^-1 log H and moves g <- exp(xi) g.  The step is
    accepted per sample only if it lowers the residual without putting a
    holonomy on the cut locus; lam shrinks on accept and grows on reject, so
    the per-sample residual never increases.  Once every sample is under
    PROJECT_TOL, one more step polishes the samples it helps, so that rank
    decisions at the limit point do not sit on the SVD noise floor; samples
    stalled at a non-flat critical point do not hold that step back.  Starts
    on the cut locus are jittered up to CUT_RETRIES times.
    """
    n, E = g.shape[:2]
    res, cut, r, J = _curvature(group, words_idx, g)
    for _ in range(CUT_RETRIES):
        if not cut.any():
            break
        kick = group.exp(rng.normal(scale=0.05, size=(n, E, group.dim_g)))
        g = np.where(cut[:, None, None], group.mul(kick, g), g)
        res, cut, r, J = _curvature(group, words_idx, g)
    if cut.any():
        raise CutLocusError("%d starts stay on the cut locus after %d retries"
                            % (int(cut.sum()), CUT_RETRIES))
    eye = np.eye(r.shape[-1])
    lam = np.full(n, LM_LAMBDA0)
    stalled = np.zeros(n, dtype=bool)
    for _ in range(MAX_ITERS):
        polish = np.all((res <= PROJECT_TOL) | stalled)
        Jt = np.swapaxes(J, -1, -2)
        y = np.linalg.solve(J @ Jt + lam[:, None, None] * eye, r[..., None])
        xi = -(Jt @ y).reshape(n, E, group.dim_g)
        g_new = group.mul(group.exp(xi), g)
        res_new, cut_new, r_new, J_new = _curvature(group, words_idx, g_new)
        ok = ~cut_new & (res_new < res)
        # rejected at the damping cap: g, J and lam stay as they are, so the
        # same step is rejected forever (a non-flat critical point)
        stalled = ~ok & (lam == LM_LAMBDA_RANGE[1])
        g = np.where(ok[:, None, None], g_new, g)
        res = np.where(ok, res_new, res)
        r = np.where(ok[:, None], r_new, r)
        J = np.where(ok[:, None, None], J_new, J)
        lam = np.clip(np.where(ok, lam * LM_SHRINK, lam * LM_GROW), *LM_LAMBDA_RANGE)
        if trace is not None:
            trace.append(res.copy())
        if polish:
            break
    return g, res


def find_flat_batch(foam, group, rng, n, trace=None):
    """n independent projections onto the flat set, advanced together for speed.

    Each of the n Haar starts is projected to a residual of PROJECT_TOL within
    MAX_ITERS steps; the starts that do not get there are dropped, so fewer
    than n samples may come back.  When trace is a list, the residual vector
    is appended after every step.
    """
    group = get_group(group)
    foam = reduce_foam(foam)
    g = group.haar(rng, (n, foam.E))
    if foam.E == 0 or foam.F == 0:
        res = face_residual(group, _face_walk(group, foam.words_idx, g)[0])
        return _flat_samples(foam, group, g, res.tolist())
    g, res = _descend(group, foam.words_idx, g, rng, trace=trace)
    ok = res <= PROJECT_TOL
    return _flat_samples(foam, group, g[ok], res[ok].tolist())


# ----------------------------------------------------------------------
# analytic flat families for the builtin foams

def unit_vectors(v):
    """v (..., 3) over the norms of its rows.  Each squared norm is the row's
    dot product with itself, as in np.linalg.norm of one vector, so a row
    scales by the same bits alone or in a stack (a sum-reduction over the
    last axis rounds differently)."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


PSI_RANGE = (0.15, np.pi - 0.15)    # class angles drawn by the analytic families


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
    a sign -1 on a 'red' sample.

    A first loop draws each sample's numbers in turn, in this order: the torus
    and 'red' draw the axis (three normals) and then their free angles (one
    uniform call), 'irred' draws the normals of a and b (one (2, 4) call).
    The samples are then built at once: one unit_vectors call, one exp over
    every (sample, edge), one su2_normalize of every 'irred' sample's
    normals (the arithmetic of SU2.haar), one stacked (n, E, 4) array, one
    residual walk over the face words and one element check over all rows.
    Sample for sample this gives the bits of building each one alone, so a
    batch of one (analytic_flat) and a batch of n draw and compute the same
    numbers.
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
    else:
        chart = np.array([fam == "red" for fam in families], dtype=bool)
        if not chart.any():
            _refuse_unused("appendix 'irred'", psi_a=psi_a, psi_b=psi_b, psi_h=psi_h,
                           axis=axis)
        if any(sgn != 1 for sgn, red in zip(signs, chart) if red):
            _refuse_unused("appendix 'red'", sign=-1)
    foam = _builtin_foam(kind)
    fixed = (psi_a, psi_b, psi_h)[:foam.E]
    free = [k for k, p in enumerate(fixed) if p is None]
    axes, angles, normals = [], [], []
    for on_chart in chart.tolist():
        if on_chart:
            axes.append(rng.standard_normal(3) if axis is None else axis)
            angles.append(rng.uniform(*PSI_RANGE, size=len(free)))
        else:
            normals.append(rng.standard_normal((2, 4)))
    m = len(axes)
    psi = np.tile([np.nan if p is None else float(p) for p in fixed], (m, 1))
    psi[:, free] = np.reshape(angles, (m, len(free)))
    signs = np.asarray(signs, dtype=float)
    g = np.empty((n, foam.E, 4))
    if kind == "torus":
        psi[:, 1] *= signs
    else:
        c = np.ascontiguousarray(np.reshape(normals, (n - m, 2, 4)).T)
        g[~chart, :2] = su2_normalize(c).T
        g[~chart, 2] = SU2.identity() * signs[~chart, None]
    axes = unit_vectors(np.reshape(np.asarray(axes, dtype=float), (m, 3)))
    g[chart] = SU2.exp(psi[..., None] * axes[:, None, :])
    H = _face_walk(SU2, foam.words_idx, g)[0]
    res = face_residual(SU2, H)
    tags = (["torus:+" if sgn > 0 else "torus:-" for sgn in signs] if kind == "torus"
            else families)
    return _flat_samples(foam, SU2, g, res.tolist(), list(tags))


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
    kind = match_builtin(foam, ("torus", "appendix"))
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
