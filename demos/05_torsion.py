"""Reidemeister torsion of the twisted complex.

With orthonormal cochain and cohomology bases, |tor| = |tau1|/(|tau0| |tau2|)
is assembled from explicit change-of-basis determinants built on random
orthonormal completions; the value must not depend on those completions.
On the torus the Gaussian-localization volume and the chart quadrature
reproduce the dominant part of Z_tau found in demo 04.
"""

import math

import numpy as np

from foamtor import (analytic_flat, builtin, char_sum_limit, find_flat_batch,
                     torsion_at, torus_dominant_part, torus_volume_grid)

rng = np.random.default_rng(2)

# -- basis independence at a generic genus-2 flat connection
foam = builtin("genus:2")
s = find_flat_batch(foam, "su2", rng, 1)[0]
vals = [torsion_at(s, rng).magnitude for _ in range(10)]
print("genus-2 torsion over 10 random basis completions:")
print("  mean %.12f  relative spread %.1e"
      % (np.mean(vals), (max(vals) - min(vals)) / np.mean(vals)))

# -- on the torus the restricted delta0 and delta1 span equal volumes, so
# |tor| = 1 along the whole flat family
t = torsion_at(analytic_flat("torus", rng), rng)
print("torus torsion: %.12f (case %s, b = (%d, %d, %d))"
      % (t.magnitude, t.case, t.b0, t.b1, t.b2))

# -- the appendix foam is not a surface and its Abelian stratum carries the
# nontrivial density |tor| = 1/(4 sin^2 psi_h), whose integral over the
# moduli chart diverges -- the source of its anomalous scaling (demo 06)
for ph in (0.5, 1.0, 1.5):
    s = analytic_flat("appendix", rng, family="red", psi_h=ph)
    t = torsion_at(s, rng)
    print("appendix red psi_h=%.1f: |tor| = %.8f  vs 1/(4 sin^2) = %.8f"
          % (ph, t.magnitude, 1 / (4 * math.sin(ph) ** 2)))

# -- the Gaussian transverse volume on the torus chart has the closed form
# 4 (sin^2 psi_a + sin^2 psi_b); check it on a grid
rows = torus_volume_grid(10)
print("torus Gaussian volume vs closed form: max |error| = %.2e over %d points"
      % (max(r[4] for r in rows), len(rows)))

# -- two independent routes to the torus dominant part: quadrature of the
# localized integrand over the flat chart, and the character-sum limit
quad = torus_dominant_part(n_quad=16)
char = char_sum_limit(1)
print("dominant part: chart quadrature %.8f | character sum %.8f | 2 pi %.8f"
      % (quad, char, 2 * math.pi))
