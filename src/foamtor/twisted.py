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
(min_b2 reads connection.sample_flat's), the one input of every reader here
(any other is a TypeError): delta0 is I - Ad(g) over all edges in one call,
one matrix per row (build_delta0), and delta1 is the set's own
(word_jacobian at g; build_delta1).  Each differential gets one stacked SVD,
and the ranks of the whole stack are then decided in one array pass of the
rank rule (_rank_arrays), which gives every sample what it gets alone; a
lone matrix (svd_rank) is the stack of one, and cohomology() reads a
one-row set.  The Betti numbers and flags are array operations on the ranks:
min_b2 runs its rule on those columns and returns the set classified, and
CohomologyReport records are built only where cohomology_batch is asked for
them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .connection import FLAT_TOL, _check_set, face_residual, sample_flat

EPS_RANK = 1e-9      # relative SVD threshold: sigma counts iff sigma > EPS_RANK * sigma_max
EPS_ABS = 1e-12      # absolute floor: the differentials have O(1) entries (Ad is
                     # orthogonal), so anything below this is rounding noise
GAP_WARN = 1e2       # warn when min(counted)/max(discarded) is below this


def _delta0(group, g):
    """delta0 of connections g (..., E, elem_dim): shape (..., dim G * E, dim G)."""
    d = group.dim_g
    return (np.eye(d) - group.adjoint(g)).reshape(g.shape[:-2] + (g.shape[-2] * d, d))


def build_delta0(samples):
    """delta0 at every connection of a SampleSet, (n, dim G * E, dim G):
    edge blocks I - Ad(g_e)."""
    _check_set(samples)
    return _delta0(samples.group, samples.g)


def build_delta1(samples):
    """The word differential (n, dim G * F, dim G * E) of samples.foam at every
    connection of a SampleSet, flat or not: the set's own delta1."""
    _check_set(samples)
    return samples.delta1


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
    # the differentials the ranks were read from (torsion reads _complex_columns)
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
    """CohomologyReport's fields, an array each, at a SampleSet, delta1 the
    set's own; TypeError for anything but a SampleSet, ValueError unless the
    foam is reduced and every sample flat (the residual recomputed from the
    set's H, whatever the builder said)."""
    _check_set(samples)
    foam, group, g = samples.foam, samples.group, samples.g
    if not foam.is_reduced():
        raise ValueError("foam %r has %d vertices; reduce it first" % (foam.name, foam.V))
    d, d1 = group.dim_g, samples.delta1
    res = face_residual(group, samples.H)
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


def _single(samples, reader):
    """TypeError unless samples is a SampleSet, ValueError naming its length
    unless it has one row: the input of the one-sample readers."""
    _check_set(samples)
    if len(samples) != 1:
        raise ValueError("%s reads a one-row SampleSet, not one of %d rows; use %s_batch"
                         % (reader, len(samples), reader))


def cohomology_batch(samples):
    """Twisted Betti numbers at every flat connection of a SampleSet.

    TypeError unless samples is a SampleSet; ValueError unless its foam has a
    single vertex and every sample is flat.  Returns one CohomologyReport
    per sample, in order (none for an empty set); each equals what that
    sample gives on its own.
    """
    cols = _complex_columns(samples)
    return [CohomologyReport(**dict(zip(cols, row)))
            for row in zip(*(list(v) if v.ndim > 1 else v.tolist() for v in cols.values()))]


def cohomology(samples):
    """Twisted Betti numbers at a flat connection, with rank diagnostics:
    the one report of cohomology_batch at a one-row SampleSet (_single)."""
    _single(samples, "cohomology")
    return cohomology_batch(samples)[0]


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


def min_b2(foam_or_name, group, n_samples, rng):
    """Minimum twisted b2 over flat samples, with the stratification histogram.

    A sample whose b2 is above the least b2 in its component tag is flagged
    possibly singular.  sample_flat's set gets one complex and one pass of
    the rule over its columns; the report's samples are that set, classified.
    """
    samples = sample_flat(foam_or_name, group, n_samples, rng)
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
