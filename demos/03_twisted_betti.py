"""The twisted complex at a flat connection and its Betti numbers.

The linearized gauge action delta0 (blocks I - Ad g_e) and the linearized
curvature delta1 (per-occurrence adjoint blocks along each face word) form a
three-term complex at every flat connection.  Its second Betti number b2 is
the local redundancy of the flatness constraints; its minimum b2_0 over the
flat set predicts the divergence degree of the regularized partition
function (demo 04).
"""

import numpy as np

from foamtor import (Connection, analytic_flat, build_delta0, build_delta1,
                     builtin, cellular_homology, cohomology, min_b2)

rng = np.random.default_rng(1)

# -- exactness delta1 . delta0 = 0 at a flat point
s = analytic_flat("torus", rng)
d0, d1 = build_delta0(s.connection), build_delta1(s.connection)
print("||delta1 delta0|| at a flat torus point: %.2e" % np.max(np.abs(d1 @ d0)))

rep = cohomology(s)
print("torus twisted Betti:", rep.betti, " rank delta1 =", rep.rank1,
      " regular =", rep.regular, " reducible =", rep.reducible)

# at the trivial connection the twisted complex reduces to the cellular one
# with three copies (dim su(2)) of each cellular class
for name in ("sphere", "torus", "genus:2", "dunce_hat"):
    foam = builtin(name)
    cell = cellular_homology(foam).betti
    triv = cohomology(Connection.identity(foam, "su2")).betti
    print("%-10s cellular %s -> twisted at trivial %s" % (foam.name, cell, triv))

# -- the genus table: b2_0 = 3, 1, 0, 0 for genus 0..3 over SU(2)
print("\nminimum b2 over flat samples (the predicted divergence degree):")
for g in range(4):
    report = min_b2("genus:%d" % g, "su2", 60, rng)
    print("  genus %d: b2_0 = %d   histogram %s" % (g, report.b2_0, report.histogram))

# -- the appendix foam is stratified: the two components of its flat set
# carry different b2, and the minimum comes from the Abelian stratum
report = min_b2("appendix", "su2", 60, rng)
print("\nappendix foam: histogram %s, strata %s" % (report.histogram, report.strata))
print("b2_0 = %d (stratified: %s)" % (report.b2_0, report.stratified))

# -- for U(1) the commutator relators trivialize and b2 is purely cellular
print("\ntorus over U(1): b2_0 =", min_b2("torus", "u1", 10, rng).b2_0)
