"""Reidemeister torsion of the twisted complex at a non-singular flat connection.

With orthonormal standard bases c^k of the cochain groups and orthonormal
bases h^k of the cohomology representatives, the torsion magnitude

    |tor| = |tau^1| / (|tau^0| |tau^2|)

reduces to the ratio (product of nonzero singular values of delta0) /
(product of nonzero singular values of delta1).  The change-of-basis
determinants are nevertheless built explicitly from random orthonormal
completions d^0, d^1, which gives the basis-independence check for free:
the reported magnitude must not depend on the random completions.

torsion_batch reads one stacked complex of a SampleSet, its one input
(twisted's _complex_columns), and torsion_at that of a one-row set: one
pipeline per completion group (the samples of
equal ranks; one foam and group fix the Betti numbers by the ranks, and
make every completed basis square), sliced out of the delta stacks: one
full SVD per differential, one QR per completion, one SVD for h^1 and one
det per tau^k.  A sample the set flags possibly singular or with a rank warning is
refused before it draws a seed; every other one draws its seed from rng in
input order and its rotations from one draw of default_rng(seed)
(_rotation_normals), so it gets the bits it gets alone.
gaussian_volume and singular_value_torsion read a set too, one value per
row.  The torus-chart grids stack their flat points to one raw (n, 2, 4)
array, with no set or element check, and read the Gaussian volumes off one
face walk and the stacked SVD of gaussian_volume's core; their rows and
quadrature terms are array operations on one math.sin per distinct angle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .connection import _check_set, unit_vectors, word_jacobian
from .foam import builtin
from .groups import SU2
from .partition import _gauss_legendre
from .twisted import _complex_columns, _single

__all__ = ["TorsionValue", "torsion_at", "torsion_batch", "torus_volume_grid",
           "torus_dominant_part", "gaussian_volume"]


class SingularSampleError(ValueError):
    """Torsion requested at a sample flagged singular or misclassified."""


@dataclass(frozen=True)
class TorsionValue:
    magnitude: float
    case: str                  # "irreducible" | "reducible"
    b0: int
    b1: int
    b2: int
    bases_meta: dict


def _random_orthonormal(basis, z):
    """Rotate a stack (m, n, k) of orthonormal bases within their spans by the
    Q factors of normal draws z (m, k, k)."""
    if basis.shape[-1] == 0:
        return basis
    q, r = np.linalg.qr(z)
    return basis @ (q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :])


def _rotation_normals(seeds, ks):
    """A stack (len(seeds), k, k) of normals for each k of ks.  Sample i draws
    all its blocks in one standard_normal call on default_rng(seeds[i]),
    split in the order of ks: the stream of one (k, k) call per block."""
    z = np.array([np.random.default_rng(seed).standard_normal(sum(k * k for k in ks))
                  for seed in seeds])
    blocks = np.split(z, np.cumsum([k * k for k in ks])[:-1], axis=1)
    return [b.reshape(len(seeds), k, k) for b, k in zip(blocks, ks)]


def _basis_pipeline(cols, index, seeds):
    """TorsionValues or refusals at the samples index of one completion group of
    a complex's columns, sample index[i] rotating by default_rng(seeds[i])."""
    rank0, rank1, b0, b1, b2 = (int(cols[k][index[0]])
                                for k in ("rank0", "rank1", "b0", "b1", "b2"))
    d0, d1 = cols["delta0"][index], cols["delta1"][index]
    (u0, _, vt0), (u1, _, vt1) = np.linalg.svd(d0), np.linalg.svd(d1)
    img0, ker1 = u0[..., :rank0], np.swapaxes(vt1[:, rank1:], -1, -2)
    # h^1: harmonic representatives, ker delta1 minus im delta0
    uh = np.linalg.svd(ker1 - img0 @ (np.swapaxes(img0, -1, -2) @ ker1), full_matrices=False)[0]
    # d^0, d^1 complete the kernels of delta0, delta1; each sample rotates
    # d^0, d^1, h^0, h^2, h^1 in that order
    bases = (np.swapaxes(vt0[:, :rank0], -1, -2), np.swapaxes(vt1[:, :rank1], -1, -2),
             np.swapaxes(vt0[:, rank0:], -1, -2), u1[..., rank1:], uh[..., :b1])
    dd0, dd1, h0, h2, h1 = map(_random_orthonormal, bases,
                               _rotation_normals(seeds, [b.shape[-1] for b in bases]))
    mats = [np.concatenate(c, axis=-1)
            for c in ([h0, dd0], [d0 @ dd0, h1, dd1], [d1 @ dd1, h2])]
    case = "irreducible" if b0 == 0 else "reducible"
    dims = {k: b.shape[-1] for k, b in zip(("d0", "d1", "h0", "h1", "h2"),
                                           (dd0, dd1, h0, h1, h2))}
    return [SingularSampleError("zero pivot in a torsion determinant; misclassified rank")
            if abs(tau0) < 1e-12 or abs(tau2) < 1e-12 else
            TorsionValue(float(abs(tau1) / (abs(tau0) * abs(tau2))), case, b0, b1, b2,
                         {"seed": seed, "dims": dict(dims)})
            for tau0, tau1, tau2, seed in zip(*map(np.linalg.det, mats), seeds)]


def torsion_batch(samples, rng):
    """torsion_at at every sample of a SampleSet, in order, a refusal giving
    its ValueError in place of a TorsionValue.  TypeError unless samples is a
    SampleSet; ValueError if any sample is not flat.

    The refusals here draw no seed; every other sample draws one from rng,
    in order, and joins the completion group of its ranks."""
    cols = _complex_columns(samples)
    singular = samples.possibly_singular
    out, groups = [], {}
    for i in range(len(samples)):
        if singular is not None and singular[i]:
            out.append(SingularSampleError("sample is flagged possibly singular"))
        elif cols["rank_warning"][i]:
            out.append(SingularSampleError("ill-conditioned rank decision (gaps %.2e, %.2e)"
                                           % (cols["gap0"][i], cols["gap1"][i])))
        else:
            out.append(None)
            key = int(cols["rank0"][i]), int(cols["rank1"][i])
            groups.setdefault(key, []).append((i, int(rng.integers(2 ** 32))))
    for index, seeds in (zip(*members) for members in groups.values()):
        for i, value in zip(index, _basis_pipeline(cols, list(index), seeds)):
            out[i] = value
    return out


def torsion_at(samples, rng):
    """Torsion magnitude at a flat sample, a one-row SampleSet (_single), via
    the explicit basis pipeline: the one value of torsion_batch.

    Refuses a sample flagged possibly singular or with a thin singular-value
    gap.  One seed is drawn from rng if the sample is accepted.
    """
    _single(samples, "torsion_at")
    (value,) = torsion_batch(samples, rng)
    if isinstance(value, ValueError):
        raise value
    return value


def singular_value_torsion(samples):
    """Independent route: |tor| = prod sv(delta0) / prod sv(delta1) over the
    ranks of the complex's columns (which refuse a set with a non-flat
    sample), one value per row of a SampleSet, from the singular values
    alone: no basis is built or rotated."""
    cols = _complex_columns(samples)
    return np.array([np.prod(s0[:r0]) / np.prod(s1[:r1]) for s0, r0, s1, r1
                     in zip(cols["sv0"], cols["rank0"], cols["sv1"], cols["rank1"])])


# ----------------------------------------------------------------------
# Gaussian volumes and the torus dominant part

def _gaussian_volumes(foam, group, delta1, rank):
    """vol of every delta1 of a stack (n, dim G * F, dim G * E) on foam: the
    product of its rank largest singular values, from one stacked SVD.
    ValueError names a rank outside 0..min(dim G * F, dim G * E), the number
    of singular values of delta1."""
    top = group.dim_g * min(foam.F, foam.E)
    if not 0 <= rank <= top:
        raise ValueError("rank %d is outside 0..%d, the singular values of delta1 on foam %r"
                         % (rank, top, foam.name))
    return np.prod(np.linalg.svd(delta1, compute_uv=False)[:, :rank], axis=-1)


def gaussian_volume(samples, rank):
    """vol(delta1) at every connection of a SampleSet, (n,): the product of
    the rank largest singular values of the set's delta1.

    This is the Hessian volume of the Gaussian transverse integral.  rank is
    the family's generic rank, fixed so that near-degenerate points do not
    flip the count.
    """
    _check_set(samples)
    return _gaussian_volumes(samples.foam, samples.group, samples.delta1, rank)


def _check_grid_size(name, n):
    """ValueError naming n unless it is a positive integer (an int or a numpy integer)."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("%s %r is not a positive integer" % (name, n))


def _torus_chart(psi, rng):
    """The torus flat chart on the n x n grid of class angles psi (n,):
    arrays (psi_a, psi_b, Gaussian volume, sin^2 psi_a + sin^2 psi_b) over
    its points, psi_a varying slowest, sin^2 as math.sin(x) ** 2 per angle.

    The points a = exp(psi_a n), b = exp(psi_b n), one axis n per point drawn
    in order from rng, are one raw (n * n, 2, 4) array, not a SampleSet, so
    no element check or residual is computed; one face walk gives their
    delta1 and _gaussian_volumes their rank-2 volumes.  Point for point the
    volume is gaussian_volume(analytic_flat("torus", rng, psi_a=..,
    psi_b=..), rank=2)[0], with the same draws.
    """
    n = len(psi)
    psi_a, psi_b = np.repeat(psi, n), np.tile(psi, n)
    axes = unit_vectors(rng.standard_normal((n * n, 3)))
    g = np.stack([SU2.exp(psi_a[:, None] * axes), SU2.exp(psi_b[:, None] * axes)], axis=1)
    sin2 = np.array([math.sin(x) ** 2 for x in psi.tolist()])
    torus = builtin("torus")
    d1 = word_jacobian(SU2, torus.words_idx, g)[1]
    return (psi_a, psi_b, _gaussian_volumes(torus, SU2, d1, 2),
            np.repeat(sin2, n) + np.tile(sin2, n))


def _torus_volume_columns(n_grid, rng):
    """torus_volume_grid's columns (psi_a, psi_b, volume, formula, abs error),
    an array each."""
    psi_a, psi_b, vol, chart = _torus_chart(np.linspace(0.1, math.pi - 0.1, n_grid), rng)
    formula = 4.0 * chart
    return psi_a, psi_b, vol, formula, np.abs(vol - formula)


def _rows(columns):
    """The rows of Python floats of equal-length arrays."""
    return list(zip(*(c.tolist() for c in columns)))


def torus_volume_grid(n_grid=20, rng=None):
    """Gaussian volume over the torus flat chart vs 4(sin^2 psi_a + sin^2 psi_b).

    Returns rows (psi_a, psi_b, volume, formula, abs error) of Python floats
    on an n x n grid of class angles in [0.1, pi - 0.1], formed as arrays
    from math.sin(x) ** 2 of each grid angle.  ValueError names an n_grid
    that is not a positive integer (an int or a numpy integer).
    """
    _check_grid_size("n_grid", n_grid)
    rng = np.random.default_rng(0) if rng is None else rng
    return _rows(_torus_volume_columns(n_grid, rng))


def torus_volume_csv(columns):
    """The CSV text of torus_volume_grid's columns (_torus_volume_columns)."""
    lines = ["psi_a,psi_b,vol,formula,abs_error"]
    for r in _rows(columns):
        lines.append("%.12g,%.12g,%.15g,%.15g,%.3e" % r)
    return "\n".join(lines) + "\n"


def torus_dominant_part(n_quad=24, rng=None):
    """Dominant part of Z_tau on the torus by quadrature over the flat chart.

    Normalized-Haar convention.  In the metric where the su(2) basis is
    orthonormal, the heat kernel at small tau is

        K_tau(g) ~ (4 pi)^2 Lambda_tau^3 exp(-psi(g)^2 / tau),

    so Laplace localization of the E=2, F=1 integral gives

        Z' = Vol^-E (4 pi)^{2F} 2^{-rk delta1}
             * 2 * int vol_F / vol_B2(delta1 d1),

    with Vol = 2 pi^2 the Riemannian volume of SU(2) in this metric, the
    factor 2 counting the two commuting-axis branches, the chart volume form
    vol_F = (sin^2 psi_a + sin^2 psi_b) dpsi_a dpsi_b sin(theta) dtheta dphi,
    and vol_B2 evaluated numerically from the singular values of delta1.
    The result must match the tau -> 0 limit of the character sum.  The
    Gauss-Legendre rule is built once per process (partition._gauss_legendre);
    the quadrature terms are formed as arrays and summed in node order, and
    the result is a Python float.  ValueError names an n_quad that is not a
    positive integer (an int or a numpy integer).
    """
    _check_grid_size("n_quad", n_quad)
    rng = np.random.default_rng(1) if rng is None else rng
    nodes, weights = _gauss_legendre(n_quad)
    psi = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    vols, chart = _torus_chart(psi, rng)[2:]
    terms = np.repeat(w, n_quad) * np.tile(w, n_quad) * chart / vols
    # np.add.accumulate adds left to right, in node order (a sum may pair terms)
    acc = float(np.add.accumulate(terms)[-1])
    sphere_area = 4.0 * math.pi      # exact angular integral over the axis
    vol_su2 = 2.0 * math.pi ** 2
    pref = vol_su2 ** -2 * (4.0 * math.pi) ** 2 * 2.0 ** -2
    return pref * 2.0 * sphere_area * acc
