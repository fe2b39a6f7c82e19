"""Discrete connections, holonomy, and finding the flat set.

A connection assigns an SU(2) element (unit quaternion) to every edge; it is
flat when every face holonomy is the identity.  Flat connections come from
analytic parametrizations where available, or from damped Gauss-Newton
projection: the face-word Jacobian delta1 linearizes log H_f, and
Levenberg-Marquardt steps drive the flatness residual sum_f dist(H_f, 1)^2
to zero.
"""

import numpy as np

from foamtor import SU2, SampleSet, analytic_flat, builtin, find_flat_batch, gauge_act

rng = np.random.default_rng(0)
torus = builtin("torus")

# -- a connection is a one-row SampleSet; its face holonomies are its H, and
# the holonomy of the torus face is the group commutator [a, b]
conn = SampleSet.haar(torus, "su2", rng, 1)
h = conn.H[0, 0]
print("random connection: commutator class angle = %.4f, residual = %.4f"
      % (SU2.distance(h), conn.residual[0]))

# -- gauge transformations conjugate every edge; the residual is invariant
g = SU2.haar(rng)
moved = gauge_act(g, conn)
print("gauge moved residual: %.12f (same)" % moved.residual[0])

# -- the torus flat set: commuting pairs = common rotation axis
s = analytic_flat("torus", rng, psi_a=1.0, psi_b=0.5, axis=[0, 0, 1], sign=+1)
print("analytic torus sample residual = %.2e, tag = %s" % (s.residual[0], s.tags[0]))

# -- Gauss-Newton projection finds flat connections from Haar-random starts
for name in ("torus", "genus:2", "genus:3"):
    foam = builtin(name)
    samples = find_flat_batch(foam, "su2", rng, 50)
    worst = samples.residual.max()
    print("%-8s projection: %d/50 converged, worst residual %.1e"
          % (foam.name, len(samples), worst))

# -- the three-edge foam <a,b,h | [a,h] = [b,h] = 1> has two components of
# flat connections: h central with (a, b) free, and an Abelian common-axis
# family.  Both analytic samplers hit machine-precision flatness.
for fam in ("irred", "red"):
    s = analytic_flat("appendix", rng, family=fam)
    print("appendix %-5s residual %.1e" % (fam, s.residual[0]))
