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

The complex is built for a whole sample set at once: the connections are
stacked to (n, E, elem_dim), one word_jacobian walk over the face words
gives the holonomies (the flatness gate) and delta1, delta0 is I - Ad(g)
over all edges in one call, and each differential gets one stacked SVD.
A projected set reads them off its projection instead (_sampled_complex).
The ranks of the whole stack are then decided in one array pass of the rank
rule (_rank_arrays), which gives every sample what it gets alone; a lone
matrix (svd_rank) is the stack of one, and cohomology() the batch of one.
The Betti numbers and flags are array operations on the ranks, and the
reports are built from those columns (_complex_columns) in one pass
(connection._records); min_b2 and the analyze and torsion commands read
the columns without the reports, and the analyze command reads min_b2's
rule (_b2_strata) without sample records too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .connection import ANALYTIC_FOAMS, FLAT_TOL, FlatSample, _analytic_stack, \
    _check_elements, _flat_samples, _projected_stack, _records, face_residual, \
    word_jacobian
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


def _complex_columns(foam, group, g, walk=None):
    """CohomologyReport's fields, an array each, at a stack g (n, E, elem_dim)
    of connections on foam, walk word_jacobian's (H, delta1) at g if a
    projection has it; ValueError unless foam is reduced and all flat."""
    if not foam.is_reduced():
        raise ValueError("foam %r has %d vertices; reduce it first" % (foam.name, foam.V))
    d = group.dim_g
    H, d1 = word_jacobian(group, foam.words_idx, g) if walk is None else walk
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
    """(foam, group, stack (n, E, elem_dim)) of samples sharing those, or ValueError."""
    foam, group = samples[0].foam, samples[0].group
    for c in samples:
        if (c.foam is not foam or c.group is not group) and (
                (c.foam.V, _presentation(c.foam), c.group.name)
                != (foam.V, _presentation(foam), group.name)):
            raise ValueError("the connections do not share one foam presentation and group")
    return foam, group, np.stack([c.data for c in samples])


def cohomology_batch(samples):
    """Twisted Betti numbers at every flat connection of a sample set.

    samples are Connections (a FlatSample is one); the complex is that of
    their foam.  Raises ValueError unless they share one group and
    presentation (edge ids and face words, as foam.match_builtin compares
    them) on a single-vertex foam, or if any of them is not flat.  Returns one
    CohomologyReport per sample, in order; each equals what that sample
    gives on its own.
    """
    samples = list(samples)
    if not samples:
        return []
    cols = _complex_columns(*_sample_arrays(samples))
    return _records(CohomologyReport, **{k: list(v) if v.ndim > 1 else v.tolist()
                                          for k, v in cols.items()})


def cohomology(sample):
    """Twisted Betti numbers at a flat connection, with rank diagnostics."""
    return cohomology_batch([sample])[0]


@dataclass(frozen=True)
class MinB2Report:
    b2_0: int
    histogram: dict            # b2 -> count
    strata: dict               # (b0, b2) -> count
    samples: list              # FlatSamples annotated with b0/b2
    rank_warnings: int = 0

    @property
    def stratified(self):
        return len(self.strata) > 1


def _sample_stack(foam_or_name, group, n_samples, rng):
    """sample_flat's foam, its samples as _flat_samples' arguments, and the
    projection's (H, delta1) at them, or None."""
    group = get_group(group)
    if n_samples < 1:
        raise ValueError("the number of samples must be at least 1, got %d" % n_samples)
    foam = reduce_foam(builtin(foam_or_name) if isinstance(foam_or_name, str) else foam_or_name)
    kind = match_builtin(foam, ANALYTIC_FOAMS) if group.name == "su2" else None
    index = range(n_samples)
    if kind == "torus":
        stack, walk = _analytic_stack(kind, rng, [(+1, -1)[i % 2] for i in index]), None
    elif kind == "appendix":
        stack, walk = _analytic_stack(kind, rng, [(+1, +1, -1, +1)[i % 4] for i in index],
                                      [("irred", "red")[i % 2] for i in index]), None
    else:
        stack, walk = _projected_stack(foam, group, rng, n_samples)
    if not len(stack[2]):
        raise RuntimeError("no flat connection found within budget")
    return foam, stack, walk


def _sampled_complex(foam_or_name, group, n_samples, rng):
    """sample_flat's foam and stack (foam, group, g, residuals, tags), after
    one element check, and its complex's columns, from the projection's walk."""
    foam, stack, walk = _sample_stack(foam_or_name, group, n_samples, rng)
    _check_elements(*stack[:3])
    return foam, stack, _complex_columns(*stack[:3], walk)


def sample_flat(foam_or_name, group, n_samples, rng):
    """Flat samples for analysis: analytic families where the foam is the
    builtin torus or three-edge/two-face appendix foam, Gauss-Newton
    projection otherwise.  Returns the reduced foam and the samples.

    The foam is recognised by structure (foam.match_builtin: its edge ids and
    face words after reduction), never by name, so a renamed copy of a builtin
    gets its families and a builtin changed by a Tietze move is projected.
    Over SU(2) the torus alternates the two commuting branches (sign +, -)
    and the appendix foam cycles irred +, red, irred -, red, so every
    component is sampled.  analytic_flat_batch builds the whole set at once
    from one draw loop, with each sample's draws in the order and bits of
    building it alone.  find_flat_batch projects every other foam to its
    PROJECT_TOL and drops the starts that do not get there; RuntimeError
    ("no flat connection found within budget") if it drops them all."""
    foam, stack = _sample_stack(foam_or_name, group, n_samples, rng)[:2]
    return foam, _flat_samples(*stack)


def _b2_strata(tags, cols):
    """min_b2's rule on a complex's columns (_complex_columns) with component
    tags: a MinB2Report with no samples, and each sample's possibly-singular
    flag, b2 above the least b2 in its tag."""
    b0, b2 = cols["b0"].tolist(), cols["b2"].tolist()
    least = {}
    for tag, b in zip(tags, b2):
        least[tag] = min(b, least.get(tag, b))
    hist = Counter(b2)
    report = MinB2Report(
        b2_0=min(hist), histogram=dict(sorted(hist.items())),
        strata=dict(sorted(Counter(zip(b0, b2)).items())), samples=[],
        rank_warnings=int(np.count_nonzero(cols["rank_warning"])))
    return report, [b > least[tag] for tag, b in zip(tags, b2)]


def min_b2(foam_or_name, group, n_samples, rng):
    """Minimum twisted b2 over flat samples, with the stratification histogram.

    A sample whose b2 is above the least b2 in its component tag is flagged
    possibly singular.  sample_flat's stack gets one element check, one
    complex (_sampled_complex), one pass of the rule (_b2_strata) and its
    flagged records, once.
    """
    (foam, group, g, res, tags), cols = _sampled_complex(foam_or_name, group, n_samples,
                                                         rng)[1:]
    report, singular = _b2_strata(tags, cols)
    return replace(report, samples=_records(
        FlatSample, foam=[foam] * len(g), group=[group] * len(g), data=list(g), residual=res,
        b0=cols["b0"].tolist(), b2=cols["b2"].tolist(), component_tag=tags,
        possibly_singular=singular))
