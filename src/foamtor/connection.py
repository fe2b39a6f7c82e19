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

Samples have one type, the columnar SampleSet: one array per field, which
every sample reader here, in the twisted complex, min_b2's rule and torsion
takes (a one-row set is one connection), giving one value per row, and the
flat command writes row by row.  It checks all its rows at once, walks its
faces once for H and delta1 unless its builder hands them over (a
projection, from each accepting step), and slices its columns for set[i].

Every builder reads its foam by one rule (foam.reduce_foam: a Foam or a
builtin key), takes a special route by the reduced foam's structure
(foam.match_builtin), never by its name, and returns a set on that foam.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .foam import Foam, _as_word, match_builtin, reduce_foam
from .groups import EPS_LOG, SU2, get_group, su2_normalize

FLAT_TOL = 1e-10


# ----------------------------------------------------------------------
# a whole sample set, as columns

def _check_elements(foam, group, g):
    """ValueError naming the edge of the first row of g (..., E, elem_dim)
    that is not an element of group, from one group.is_element call over all
    its rows: the one element check of every SampleSet."""
    rows = g.reshape(-1, group.elem_dim)
    ok = group.is_element(rows)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError("edge %r carries %r, which is not an element of %s"
                         % (foam.edge_ids[k % foam.E], rows[k].tolist(), group.name))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Connections on one foam and group, one array per field: a builder's
    flat samples, or one connection as the set of one row.

    g (n, E, elem_dim) stacks the connections, rows following foam.edge_ids;
    residual and tags (n,) hold their residuals and component tags, H
    (n, F, elem_dim) and delta1 (n, F*d, E*d) word_jacobian at g.
    Construction refuses a g of any other shape, naming the shape it got and
    the one it needs, runs one element check over all n*E rows, refusing a
    row that is not a group element (group.is_element: a unit quaternion to
    ELEMENT_TOL, a finite angle) with ValueError naming its edge, and refuses
    a handed column of another shape, naming it, or H without delta1 or the
    reverse.  It then fills what its builder left out: H and delta1 from one
    walk, the residual as face_residual of H, tags None.  min_b2 fills b0,
    b2 and possibly_singular (n,).

    set[i], for an integer i (Python or numpy; negative counts from the
    end), is the one-row set set[i:i+1], and set[a:b] the set of those rows,
    taken column by column with no second check; an integer out of range is
    an IndexError and any other index a TypeError.  len goes by row, and
    iteration yields the one-row sets.
    """

    foam: Foam
    group: object
    g: np.ndarray
    residual: np.ndarray | None = None
    tags: tuple | None = None
    H: np.ndarray | None = None
    delta1: np.ndarray | None = None
    b0: np.ndarray | None = None
    b2: np.ndarray | None = None
    possibly_singular: np.ndarray | None = None

    def __post_init__(self):
        group, g = get_group(self.group), np.asarray(self.g, dtype=float)
        if g.ndim != 3 or g.shape[1:] != (self.foam.E, group.elem_dim):
            raise ValueError("g has shape %r; a SampleSet on foam %r over %s needs (n, %d, %d)"
                             % (g.shape, self.foam.name, group.name, self.foam.E,
                                group.elem_dim))
        _check_elements(self.foam, group, g)
        n, F, d = len(g), self.foam.F, group.dim_g
        for name, shape in (("residual", (n,)), ("tags", (n,)), ("b0", (n,)), ("b2", (n,)),
                            ("possibly_singular", (n,)), ("H", (n, F, group.elem_dim)),
                            ("delta1", (n, F * d, self.foam.E * d))):
            column = getattr(self, name)
            # None passes, a tuple (the tags) goes by its len: np.shape builds an array of each
            got = (shape if column is None else (len(column),) if isinstance(column, tuple)
                   else np.shape(column))
            if got != shape:
                raise ValueError("%s has shape %r; a SampleSet of %d samples on foam %r over %s "
                                 "needs %r" % (name, got, n, self.foam.name, group.name, shape))
        if (self.H is None) != (self.delta1 is None):
            raise ValueError("H and delta1 are handed together or not at all")
        H, d1 = ((self.H, self.delta1) if self.delta1 is not None
                 else word_jacobian(group, self.foam.words_idx, g))
        res = face_residual(group, H) if self.residual is None else self.residual
        tags = (None,) * n if self.tags is None else self.tags
        self.__dict__.update(group=group, g=g, H=H, delta1=d1, residual=res, tags=tags)

    @classmethod
    def identity(cls, foam, group):
        """The one-row set of the identity connection on foam."""
        group = get_group(group)
        return cls(foam, group, group.identity((1, foam.E)))

    @classmethod
    def haar(cls, foam, group, rng, n):
        """n Haar-random connections on foam, from one group.haar draw of
        shape (n, E): a set of one draws the bits of one (E,) draw."""
        group = get_group(group)
        return cls(foam, group, group.haar(rng, (n, foam.E)))

    def __len__(self):
        return len(self.g)

    def __getitem__(self, i):
        if isinstance(i, numbers.Integral):
            n = len(self)
            if not -n <= i < n:
                raise IndexError("index %d is out of range for a SampleSet of %d samples"
                                 % (i, n))
            k = int(i) % n
            i = slice(k, k + 1)
        elif not isinstance(i, slice):
            raise TypeError("a SampleSet is indexed by an integer or a slice, not %s"
                            % type(i).__name__)
        part = copy.copy(self)      # the rows of a checked set: no __post_init__
        for f in fields(self)[2:]:
            column = getattr(self, f.name)
            if column is not None:
                part.__dict__[f.name] = column[i]
        return part


def _check_set(samples):
    """TypeError unless samples is a SampleSet, the one input of every sample reader."""
    if not isinstance(samples, SampleSet):
        raise TypeError("expected a SampleSet, got %s" % type(samples).__name__)


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


def _jacobian(group, words_idx, ranks, g):
    """word_jacobian with the letter plan built by the caller: one gather
    and one add per rank.  Each block sums 0 + s1 B1 + s2 B2 + ... in word
    order, signed zeros included: a sum that starts at +0 is never -0, so
    the zero blocks that pad the later ranks leave it as it is."""
    H, frames = _face_walk(group, words_idx, g)
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


def word_jacobian(group, words_idx, g):
    """Face holonomies and the linearized curvature delta1 in one walk.

    g has shape (..., E, elem_dim) and words_idx lists each face word as
    (edge index, exponent) pairs.  Returns H of shape
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
    return _jacobian(group, words_idx, ranks, g)


def holonomy_word(samples, word):
    """Holonomies (n, elem_dim) of a word in the edges of samples.foam, one
    per connection of the set; the word is a FaceWord, a sequence of Letters
    or a string such as "a b^-1"."""
    _check_set(samples)
    idx = [(samples.foam.edge_index(l.edge), l.exponent) for l in _as_word(word).letters]
    return _face_walk(samples.group, [idx], samples.g)[0][:, 0]


def verify_redundancy(word, samples):
    """Max distance to the identity of the word's holonomy over a set's
    connections, the word read in the edges of its foam.  ValueError for an
    empty set (find_flat_batch drops every start it cannot project): no
    samples are no evidence that the relation holds."""
    H = holonomy_word(samples, word)
    if not len(samples):
        raise ValueError("verify_redundancy needs at least one sample; got none")
    return max(0.0, float(samples.group.distance(H).max()))


def gauge_act(h, samples):
    """The set of samples' connections with every edge element conjugated by
    h (single-vertex gauge transformation).  ValueError names an h that is
    not one element of the set's group, before any product."""
    _check_set(samples)
    group = samples.group
    hv = np.asarray(h, dtype=float)
    if hv.shape != (group.elem_dim,) or not group.is_element(hv[None])[0]:
        raise ValueError("h %r is not one element of %s" % (hv.tolist(), group.name))
    hb = np.broadcast_to(hv, samples.g.shape)
    return SampleSet(samples.foam, group, group.mul(group.mul(hb, samples.g), group.inv(hb)))


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
    foam = reduce_foam(foam)
    g = group.haar(rng, (n, foam.E))
    if n == 0 or foam.E == 0 or foam.F == 0:
        return SampleSet(foam, group, g)
    g, res, H, J = _descend(group, foam.words_idx, g, trace=trace)
    ok = res <= PROJECT_TOL
    return SampleSet(foam, group, g[ok], res[ok], H=H[ok], delta1=J[ok])


# ----------------------------------------------------------------------
# analytic flat families, and sample_flat's choice of a builder

def unit_vectors(v):
    """v (..., 3) over the norms of its rows.  Each squared norm is the row's
    dot product with itself, as in np.linalg.norm of one vector, so a row
    scales by the same bits alone or in a stack (a sum-reduction over the
    last axis rounds differently)."""
    return v / np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]


PSI_RANGE = (0.15, np.pi - 0.15)    # class angles drawn by the analytic families
ANALYTIC_FOAMS = ("torus", "appendix")   # the builtins with analytic SU(2) families


def analytic_flat_batch(foam, rng, signs, families=None, psi_a=None, psi_b=None,
                        psi_h=None, axis=None):
    """Exact SU(2) flat samples on the torus or the appendix foam, one per
    entry of signs (each +1 or -1), built together.

    foam is a Foam or a builtin key, recognised by structure (match_builtin);
    the set lives on the reduced foam, and any other foam is refused.

    torus: a = exp(psi_a n), b = exp(sign psi_b n) about a common axis n.
    appendix: families[i] is 'irred' (a, b Haar random, h = sign * identity)
    or 'red' (a, b, h on a common axis n, with class angles psi_a, psi_b,
    psi_h; sign +1 only).  An axis or angle left as None is drawn.  Before
    any draw, ValueError names each parameter that no sample uses: psi_h and
    families on the torus, the angles and axis when no sample is 'red', and
    a sign -1 on a 'red' sample; it also names families of another length
    than signs, an angle that is not one finite number, and an axis that is
    not three finite numbers with a finite non-zero norm.

    A first loop draws each sample's numbers in turn, into rows of arrays
    allocated once, in this order: the torus and 'red' draw the axis (three
    normals) and then their free angles (uniforms u, mapped at once to
    PSI_RANGE as rng.uniform maps them), 'irred' draws the normals of a and
    b (one (2, 4) row).
    The samples are then built at once: one unit_vectors call, one exp over
    every (sample, edge), one su2_normalize of every 'irred' sample's
    normals (the arithmetic of SU2.haar) and one stacked (n, E, 4) array,
    which the SampleSet checks and walks once for its H, delta1 and
    residuals.  Sample for sample this gives the bits of building each one
    alone, so a batch of one (analytic_flat) and a batch of n draw and
    compute the same numbers.
    """
    n = len(signs)
    if any(sgn not in (1, -1) for sgn in signs):
        raise ValueError("each sign must be +1 or -1, got %r" % (list(signs),))
    foam = reduce_foam(foam)
    kind = match_builtin(foam, ANALYTIC_FOAMS)
    if kind is None:
        raise ValueError("no analytic flat family for foam %r" % foam.name)
    if kind == "torus":
        _refuse_unused("torus", psi_h=psi_h, families=families)
        chart = np.ones(n, dtype=bool)      # samples on a common-axis chart
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
    for name, value, shape in (("psi_a", psi_a, ()), ("psi_b", psi_b, ()),
                               ("psi_h", psi_h, ()), ("axis", axis, (3,))):
        if value is not None and not _fits(value, shape):
            raise ValueError("%s %r is not %s" % (name, value, "three finite numbers with a "
                             "finite non-zero norm" if shape else "one finite number"))
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
    tags = (["torus:+" if sgn > 0 else "torus:-" for sgn in signs] if kind == "torus"
            else families)
    return SampleSet(foam, SU2, g, tags=tuple(tags))


def analytic_flat(foam, rng, sign=+1, family=None, psi_a=None, psi_b=None, psi_h=None,
                  axis=None):
    """One exact SU(2) flat sample of an analytic family, as the one-row set
    of analytic_flat_batch, which recognises the foam, refuses any other (and any
    parameter its family does not use) and builds the sample on the reduced
    foam.  The torus (genus:1) has a = exp(psi_a n), b = exp(sign psi_b n)
    about a common axis n; the appendix foam has family 'irred' (the
    default: h = sign * identity, a and b Haar random) or 'red' (a, b, h on
    a common axis).
    """
    if family is None and match_builtin(foam, ("appendix",)):
        family = "irred"
    return analytic_flat_batch(foam, rng, [sign], None if family is None else [family],
                               psi_a=psi_a, psi_b=psi_b, psi_h=psi_h, axis=axis)


def sample_flat(foam, group, n_samples, rng):
    """Flat samples for analysis, as a SampleSet on the reduced foam:
    analytic families on the torus and the appendix foam over SU(2),
    Gauss-Newton projection otherwise.

    The foam is recognised by structure (match_builtin), never by name, so a
    renamed copy of a builtin gets its families and a builtin changed by a
    Tietze move is projected.  The torus alternates the two commuting
    branches (sign +, -) and the appendix foam cycles irred +, red, irred -,
    red, so every component is sampled.  find_flat_batch drops the starts it
    cannot project; RuntimeError ("no flat connection found within budget")
    if it drops them all.
    """
    group = get_group(group)
    if n_samples < 1:
        raise ValueError("the number of samples must be at least 1, got %d" % n_samples)
    foam = reduce_foam(foam)
    kind = match_builtin(foam, ANALYTIC_FOAMS) if group is SU2 else None
    index = range(n_samples)
    if kind == "torus":
        samples = analytic_flat_batch(foam, rng, [(+1, -1)[i % 2] for i in index])
    elif kind == "appendix":
        samples = analytic_flat_batch(foam, rng, [(+1, +1, -1, +1)[i % 4] for i in index],
                                      [("irred", "red")[i % 2] for i in index])
    else:
        samples = find_flat_batch(foam, group, rng, n_samples)
    if not samples:
        raise RuntimeError("no flat connection found within budget")
    return samples


def _fits(value, shape):
    """Whether value is finite floats of this shape, a vector of finite non-zero norm."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return v.shape == shape and np.isfinite(v).all() and (not shape or 0.0 < v @ v < np.inf)


def _refuse_unused(label, **params):
    """ValueError naming each parameter set that the family label does not use."""
    named = [k for k, v in params.items() if v is not None]
    if named:
        raise ValueError("the %s family does not use %s" % (label, ", ".join(named)))
