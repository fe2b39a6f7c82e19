"""Reidemeister torsion of the twisted complex at a non-singular flat connection.

With orthonormal standard bases c^k of the cochain groups and orthonormal
bases h^k of the cohomology representatives, the torsion magnitude

    |tor| = |tau^1| / (|tau^0| |tau^2|)

reduces to the ratio (product of nonzero singular values of delta0) /
(product of nonzero singular values of delta1).  The change-of-basis
determinants are nevertheless built explicitly from random orthonormal
completions d^0, d^1, which gives the basis-independence check for free:
the reported magnitude must not depend on the random completions.

torsion_batch reads a whole sample set's complexes from one
cohomology_batch call, and torsion_at reuses each sample's report and its
delta0/delta1.  The torus-chart grids stack every flat point to one
(n, 2, 4) array and read the Gaussian volumes off one face walk and one
stacked SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import FlatSample, connection_of, unit_vectors, word_jacobian
from .foam import builtin
from .groups import SU2
from .twisted import cohomology, cohomology_batch

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

    def to_json(self):
        return {"magnitude": self.magnitude, "case": self.case,
                "b0": self.b0, "b1": self.b1, "b2": self.b2,
                "bases_meta": self.bases_meta}


def _random_orthonormal(rng, basis):
    """Random rotation of an orthonormal column basis within its span."""
    k = basis.shape[1]
    if k == 0:
        return basis
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return basis @ (q * np.sign(np.diag(r)))


def _split_svd(mat, rank):
    """(row-space basis, kernel basis, image basis, co-image basis)."""
    if mat.size == 0:
        n1, n0 = mat.shape
        return (np.zeros((n0, 0)), np.eye(n0), np.zeros((n1, 0)), np.eye(n1))
    u, s, vt = np.linalg.svd(mat)
    return vt[:rank].T, vt[rank:].T, u[:, :rank], u[:, rank:]


def torsion_at(sample, rng, expected_b0=None, report=None):
    """Torsion magnitude at a flat sample via the explicit basis pipeline.

    Refuses samples flagged possibly singular, samples with a thin
    singular-value gap, and (when expected_b0 is given) samples whose
    isotropy dimension differs from their component's modal value.  report
    is the sample's CohomologyReport if the caller already has it; it is
    computed otherwise.  One seed is drawn from rng per accepted sample.
    """
    if isinstance(sample, FlatSample) and sample.possibly_singular:
        raise SingularSampleError("sample is flagged possibly singular")
    rep = cohomology(sample) if report is None else report
    if rep.rank_warning:
        raise SingularSampleError(
            "ill-conditioned rank decision (gaps %.2e, %.2e)" % (rep.gap0, rep.gap1))
    if expected_b0 is not None and rep.b0 != expected_b0:
        raise SingularSampleError(
            "isotropy dimension b0=%d differs from the component value %d"
            % (rep.b0, expected_b0))
    d0, d1 = rep.delta0, rep.delta1
    n0 = d0.shape[1]
    seed_meta = int(rng.integers(2 ** 32))
    sub = np.random.default_rng(seed_meta)

    # d^0, d^1: random orthonormal bases of the kernel complements
    coimg0, ker0, img0, _ = _split_svd(d0, rep.rank0)
    coimg1, ker1, _, coker1 = _split_svd(d1, rep.rank1)
    dd0 = _random_orthonormal(sub, coimg0)
    dd1 = _random_orthonormal(sub, coimg1)
    h0 = _random_orthonormal(sub, ker0)
    h2 = _random_orthonormal(sub, coker1)
    # h^1: harmonic representatives, ker delta1 minus im delta0
    proj = ker1 - img0 @ (img0.T @ ker1)
    uh, sh, _ = np.linalg.svd(proj, full_matrices=False)
    h1 = _random_orthonormal(sub, uh[:, :rep.b1])

    tau0_cols = np.hstack([h0, dd0]) if rep.b0 else dd0
    tau1_cols = np.hstack([d0 @ dd0, h1, dd1])
    tau2_cols = np.hstack([d1 @ dd1, h2])
    for cols in (tau0_cols, tau1_cols, tau2_cols):
        if cols.shape[0] != cols.shape[1]:
            raise SingularSampleError("basis completion dimensions inconsistent with ranks")
    tau0 = np.linalg.det(tau0_cols) if n0 else 1.0
    tau1 = np.linalg.det(tau1_cols) if tau1_cols.shape[0] else 1.0
    tau2 = np.linalg.det(tau2_cols) if tau2_cols.shape[0] else 1.0
    if abs(tau0) < 1e-12 or abs(tau2) < 1e-12:
        raise SingularSampleError("zero pivot in a torsion determinant; misclassified rank")
    magnitude = abs(tau1) / (abs(tau0) * abs(tau2))
    case = "irreducible" if rep.b0 == 0 else "reducible"
    return TorsionValue(magnitude=float(magnitude), case=case,
                        b0=rep.b0, b1=rep.b1, b2=rep.b2,
                        bases_meta={"seed": seed_meta,
                                    "dims": {"d0": dd0.shape[1], "d1": dd1.shape[1],
                                             "h0": h0.shape[1], "h1": h1.shape[1],
                                             "h2": h2.shape[1]}})


def torsion_batch(samples, rng):
    """torsion_at at every sample, in order, from one batched complex.

    A refused sample gives its ValueError in place of a TorsionValue and
    draws nothing from rng, so every other sample gets the seed it would get
    on its own.  Raises ValueError if any sample is not flat.
    """
    out = []
    for s, rep in zip(samples, cohomology_batch(samples)):
        try:
            out.append(torsion_at(s, rng, report=rep))
        except ValueError as exc:
            out.append(exc)
    return out


def singular_value_torsion(sample):
    """Independent route: |tor| = prod sv(delta0) / prod sv(delta1) over the
    ranks of the sample's cohomology report (which refuses a non-flat one)."""
    rep = cohomology(sample)
    return float(np.prod(rep.sv0[:rep.rank0]) / np.prod(rep.sv1[:rep.rank1]))


# ----------------------------------------------------------------------
# Gaussian volumes and the torus dominant part

def _gaussian_volumes(foam, group, g, rank):
    """vol(delta1) at every connection of a stack g (n, E, elem_dim) on foam:
    delta1 from one face walk, and the product of its rank largest singular
    values from one stacked SVD."""
    d1 = word_jacobian(group, [foam.word_indices(f) for f in range(foam.F)], g)[1]
    return np.prod(np.linalg.svd(d1, compute_uv=False)[:, :rank], axis=-1)


def gaussian_volume(sample, rank):
    """vol(delta1) on the sample's foam: product of the rank largest
    singular values of delta1.

    This is the Hessian volume of the Gaussian transverse integral.  rank is
    the family's generic rank, fixed so that near-degenerate points do not
    flip the count.  The batch of one of _gaussian_volumes.
    """
    conn = connection_of(sample)
    return float(_gaussian_volumes(conn.foam, conn.group, conn.data[None], rank)[0])


def _torus_chart_volumes(psi_a, psi_b, rng):
    """Gaussian volumes at the torus flat points a = exp(psi_a n),
    b = exp(psi_b n), one axis n per point drawn in order from rng.

    The flat points are one (n, 2, 4) array, and _gaussian_volumes reads
    their rank-2 volumes off one face walk and one stacked SVD.  Point for
    point this is gaussian_volume(analytic_flat("torus", rng, psi_a=..,
    psi_b=..), rank=2), with the same draws.
    """
    axes = unit_vectors(rng.standard_normal((len(psi_a), 3)))
    g = np.stack([SU2.exp(psi_a[:, None] * axes), SU2.exp(psi_b[:, None] * axes)], axis=1)
    return _gaussian_volumes(builtin("torus"), SU2, g, 2)


def torus_volume_grid(n_grid=20, rng=None):
    """Gaussian volume over the torus flat chart vs 4(sin^2 psi_a + sin^2 psi_b).

    Returns rows (psi_a, psi_b, volume, formula, abs error) on an n x n grid
    of class angles in [0.1, pi - 0.1].
    """
    rng = np.random.default_rng(0) if rng is None else rng
    grid = np.linspace(0.1, math.pi - 0.1, n_grid)
    psi_a, psi_b = np.repeat(grid, n_grid), np.tile(grid, n_grid)
    rows = []
    for pa, pb, vol in zip(psi_a, psi_b, _torus_chart_volumes(psi_a, psi_b, rng)):
        vol = float(vol)
        formula = 4.0 * (math.sin(pa) ** 2 + math.sin(pb) ** 2)
        rows.append((pa, pb, vol, formula, abs(vol - formula)))
    return rows


def torus_volume_csv(rows):
    lines = ["psi_a,psi_b,vol,formula,abs_error"]
    for r in rows:
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
    The result must match the tau -> 0 limit of the character sum.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    psi = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    vols = _torus_chart_volumes(np.repeat(psi, n_quad), np.tile(psi, n_quad), rng)
    acc = 0.0
    for k, vol_b2 in enumerate(vols):
        i, j = divmod(k, n_quad)
        chart = math.sin(psi[i]) ** 2 + math.sin(psi[j]) ** 2
        acc += w[i] * w[j] * chart / float(vol_b2)
    sphere_area = 4.0 * math.pi      # exact angular integral over the axis
    vol_su2 = 2.0 * math.pi ** 2
    pref = vol_su2 ** -2 * (4.0 * math.pi) ** 2 * 2.0 ** -2
    return pref * 2.0 * sphere_area * acc
