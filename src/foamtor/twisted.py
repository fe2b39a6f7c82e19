"""Twisted cochain complex at a (flat) connection and its Betti numbers.

The three-term complex  g -> g^E -> g^F  is assembled in right-trivialized
orthonormal Lie coordinates:

  delta0: edge block  I - Ad(g_e)                 (linearized gauge action)
  delta1: for a face word l_1 ... l_k, the block coupling the face to edge e
          sums +Ad(P_{i-1}) over occurrences l_i = e and -Ad(P_i) over
          occurrences l_i = e^-1, with P_i the product of the first i letters
          (linearized curvature).

At a flat connection delta1 . delta0 = 0, and the twisted Betti numbers are
b0 = dim G - rk delta0, b1 = dim G * E - rk delta0 - rk delta1,
b2 = dim G * F - rk delta1.  Ranks are decided by SVD with a relative
threshold and an explicit spectral-gap diagnostic; a thin gap raises a
warning flag, never a silent answer.

The complex is built for a whole sample set at once, a connection.SampleSet
(_complex_columns; cohomology_batch stacks a list of connections into one):
delta0 is I - Ad(g) over all edges in one call, and H and delta1 come from
the walk that built the set, a projection's last step or the residual walk
of an analytic family, or from one word_jacobian walk over the face words
where it has none.  Each differential gets one stacked SVD, and the ranks
of the whole stack are then decided in one array pass of the rank rule
(_rank_arrays), which gives every sample what it gets alone; a lone matrix
(svd_rank) is the stack of one, and cohomology() the batch of one.  The
Betti numbers and flags are array operations on the ranks: min_b2 runs its
rule on those columns and returns the set classified, and CohomologyReport
records are built only where cohomology_batch is asked for them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .connection import ANALYTIC_FOAMS, FLAT_TOL, SampleSet, analytic_flat_batch, \
    face_residual, find_flat_batch, word_jacobian
from .foam import _presentation, builtin, match_builtin, reduce_foam
from .groups import get_group

EPS_RANK = 1e-9      # relative SVD threshold: sigma counts iff sigma > EPS_RANK * sigma_max
EPS_ABS = 1e-12      # absolute floor: the differentials have O(1) entries (Ad is
                     # orthogonal), so anything below this is rounding noise
GAP_WARN = 1e2       # warn when min(counted)/max(discarded) is below this


def _delta0(group, g):
    """delta0 of connections g (..., E, elem_dim): shape (..., dim G * E, dim G)."""
    d = group.dim_g
    return (np.eye(d) - group.adjoint(g)).reshape(g.shape[:-2] + (g.shape[-2] * d, d))


def build_delta0(conn):
    """(dim G * E) x (dim G) matrix with edge blocks I - Ad(g_e)."""
    return _delta0(conn.group, conn.data)


def build_delta1(conn):
    """(dim G * F) x (dim G * E) word differential of conn.foam, at any connection."""
    return word_jacobian(conn.group, conn.foam.words_idx, conn.data)[1]


def _rank_arrays(mats):
    """The rank decisions of a stack (n, rows, cols) as arrays (rank, s, gap,
    warn) of shapes (n,), (n, k), (n,), (n,): one stacked SVD, then the rank
    rule over all its (n, k) singular values at once.

    The rule: sigma counts iff sigma > max(EPS_RANK * sigma_max, EPS_ABS), so
    a stack entry with sigma_max <= EPS_ABS has rank 0, gap inf and no
    warning.  The gap is min(counted)/max(discarded): inf when the rank is
    full or the first discarded value is 0, and 0 at rank 0.  A thin gap
    around the cut, or a counted value hugging the noise floor, warns: either
    way the rank decision is not trustworthy.
    """
    n = len(mats)
    if mats.shape[-1] * mats.shape[-2] == 0:
        return np.zeros(n, int), np.zeros((n, 0)), np.full(n, np.inf), np.zeros(n, bool)
    s = np.linalg.svd(mats, compute_uv=False)
    k = s.shape[1]
    smax = s[:, 0]
    live = smax > EPS_ABS
    cut = np.maximum(EPS_RANK * smax, EPS_ABS)
    rank = np.count_nonzero(s > cut[:, None], axis=1)
    rank[~live] = 0
    at = np.arange(n)
    last = s[at, np.maximum(rank - 1, 0)]       # least counted value
    below = s[at, np.minimum(rank, k - 1)]      # first discarded value, if any
    gap = np.where(rank > 0, last / np.where(below == 0.0, 1.0, below), 0.0)
    gap[(rank == k) | (below == 0.0) | ~live] = np.inf
    warn = live & ((gap < GAP_WARN) | ((rank > 0) & (last < GAP_WARN * EPS_ABS)))
    return rank, s, gap, warn


def svd_rank(mat):
    """(rank, singular values, gap, warn) of one matrix, as _rank_arrays reads it."""
    rank, s, gap, warn = _rank_arrays(mat[None])
    return int(rank[0]), s[0], float(gap[0]), bool(warn[0])


@dataclass(frozen=True)
class CohomologyReport:
    rank0: int
    rank1: int
    b0: int
    b1: int
    b2: int
    sv0: np.ndarray = field(compare=False)
    sv1: np.ndarray = field(compare=False)
    # the differentials the ranks were read from, for torsion to reuse
    delta0: np.ndarray = field(compare=False, repr=False)
    delta1: np.ndarray = field(compare=False, repr=False)
    gap0: float = np.inf
    gap1: float = np.inf
    regular: bool = False     # b2 == 0 (curvature map submersive)
    reducible: bool = False   # isotropy above the center
    central: bool = False     # rank delta0 == 0
    rank_warning: bool = False

    @property
    def betti(self):
        return (self.b0, self.b1, self.b2)


def _complex_columns(samples):
    """CohomologyReport's fields, an array each, at a SampleSet, delta1 read
    off the walk its builder carried if it has one; ValueError unless the
    foam is reduced and every sample flat."""
    foam, group, g = samples.foam, samples.group, samples.g
    if not foam.is_reduced():
        raise ValueError("foam %r has %d vertices; reduce it first" % (foam.name, foam.V))
    d = group.dim_g
    if samples.delta1 is not None:
        H, d1 = samples.H, samples.delta1
    else:
        walk = None if samples.frames is None else (samples.H, samples.frames)
        H, d1 = word_jacobian(group, foam.words_idx, g, walk)
    res = face_residual(group, H)
    if np.any(res > FLAT_TOL):
        i = int(np.argmax(res > FLAT_TOL))
        raise ValueError("connection %d is not flat (residual %.3e > %.1e)"
                         % (i, res[i], FLAT_TOL))
    d0 = _delta0(group, g)
    r0, sv0, gap0, warn0 = _rank_arrays(d0)
    r1, sv1, gap1, warn1 = _rank_arrays(d1)
    b0 = d - r0
    b1 = d * foam.E - r0 - r1
    b2 = d * foam.F - r1
    # b1 < 0 means the two independent rank decisions contradict im d0 < ker d1
    return dict(rank0=r0, rank1=r1, b0=b0, b1=b1, b2=b2, sv0=sv0, sv1=sv1, delta0=d0,
                delta1=d1, gap0=gap0, gap1=gap1, regular=b2 == 0,
                reducible=b0 > group.center_dim, central=r0 == 0,
                rank_warning=warn0 | warn1 | (b1 < 0))


def _sample_arrays(samples):
    """samples as a SampleSet: a SampleSet as it is, Connections (FlatSamples
    among them) stacked into one, None if there are none; ValueError unless
    they share one foam presentation and group."""
    if isinstance(samples, SampleSet):
        return samples
    samples = list(samples)
    if not samples:
        return None
    foam, group = samples[0].foam, samples[0].group
    for c in samples:
        if (c.foam is not foam or c.group is not group) and (
                (c.foam.V, _presentation(c.foam), c.group.name)
                != (foam.V, _presentation(foam), group.name)):
            raise ValueError("the connections do not share one foam presentation and group")
    return SampleSet(foam, group, np.stack([c.data for c in samples]),
                     np.array([getattr(c, "residual", np.nan) for c in samples]),
                     tuple(getattr(c, "component_tag", None) for c in samples),
                     possibly_singular=np.array([getattr(c, "possibly_singular", False)
                                                 for c in samples]))


def cohomology_batch(samples):
    """Twisted Betti numbers at every flat connection of a sample set.

    samples is a SampleSet or Connections (a FlatSample is one); the complex
    is that of their foam.  Raises ValueError unless they share one group
    and presentation (edge ids and face words, as foam.match_builtin
    compares them) on a single-vertex foam, or if any of them is not flat.
    Returns one CohomologyReport per sample, in order; each equals what that
    sample gives on its own.
    """
    samples = _sample_arrays(samples)
    if not samples:
        return []
    cols = _complex_columns(samples)
    return [CohomologyReport(**dict(zip(cols, row)))
            for row in zip(*(list(v) if v.ndim > 1 else v.tolist() for v in cols.values()))]


def cohomology(sample):
    """Twisted Betti numbers at a flat connection, with rank diagnostics."""
    return cohomology_batch([sample])[0]


@dataclass(frozen=True)
class MinB2Report:
    b2_0: int
    histogram: dict            # b2 -> count
    strata: dict               # (b0, b2) -> count
    samples: SampleSet         # the samples, classified (b0, b2, possibly_singular)
    rank_warnings: int = 0

    @property
    def stratified(self):
        return len(self.strata) > 1


def sample_flat(foam_or_name, group, n_samples, rng):
    """Flat samples for analysis: analytic families where the foam is the
    builtin torus or three-edge/two-face appendix foam, Gauss-Newton
    projection otherwise.  Returns the reduced foam and the SampleSet.

    The foam is recognised by structure (foam.match_builtin: its edge ids and
    face words after reduction), never by name, so a renamed copy of a builtin
    gets its families and a builtin changed by a Tietze move is projected.
    Over SU(2) the torus alternates the two commuting branches (sign +, -)
    and the appendix foam cycles irred +, red, irred -, red, so every
    component is sampled.  analytic_flat_batch builds the whole set at once
    from one draw loop, with each sample's draws in the order and bits of
    building it alone.  find_flat_batch projects every other foam to its
    PROJECT_TOL and drops the starts that do not get there; RuntimeError
    ("no flat connection found within budget") if it drops them all.  Either
    way the set keeps the walk that built it, for the complex to read."""
    group = get_group(group)
    if n_samples < 1:
        raise ValueError("the number of samples must be at least 1, got %d" % n_samples)
    foam = reduce_foam(builtin(foam_or_name) if isinstance(foam_or_name, str) else foam_or_name)
    kind = match_builtin(foam, ANALYTIC_FOAMS) if group.name == "su2" else None
    index = range(n_samples)
    if kind == "torus":
        samples = analytic_flat_batch(kind, rng, [(+1, -1)[i % 2] for i in index])
    elif kind == "appendix":
        samples = analytic_flat_batch(kind, rng, [(+1, +1, -1, +1)[i % 4] for i in index],
                                      [("irred", "red")[i % 2] for i in index])
    else:
        samples = find_flat_batch(foam, group, rng, n_samples)
    if not samples:
        raise RuntimeError("no flat connection found within budget")
    return foam, samples


def min_b2(foam_or_name, group, n_samples, rng):
    """Minimum twisted b2 over flat samples, with the stratification histogram.

    A sample whose b2 is above the least b2 in its component tag is flagged
    possibly singular.  sample_flat's set gets one complex, read off the
    walk that built it, and one pass of the rule over the complex's
    columns; the report's samples are that set, classified.
    """
    samples = sample_flat(foam_or_name, group, n_samples, rng)[1]
    cols = _complex_columns(samples)
    b0, b2 = cols["b0"].tolist(), cols["b2"].tolist()
    least = {}
    for tag, b in zip(samples.tags, b2):
        least[tag] = min(b, least.get(tag, b))
    singular = np.array([b > least[tag] for tag, b in zip(samples.tags, b2)], dtype=bool)
    hist = Counter(b2)
    return MinB2Report(
        b2_0=min(hist), histogram=dict(sorted(hist.items())),
        strata=dict(sorted(Counter(zip(b0, b2)).items())),
        samples=replace(samples, b0=cols["b0"], b2=cols["b2"], possibly_singular=singular),
        rank_warnings=int(np.count_nonzero(cols["rank_warning"])))
