"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np

from foamtor.connection import SampleSet, find_flat_batch, gauge_act
from foamtor.foam import (FaceWord, Foam, Letter, builtin, cellular_homology,
                          tietze1_collapse, tietze1_expand, tietze2_add_face)
from foamtor.groups import get_group
from foamtor.partition import (char_sum_limit, fit_scaling, fit_toy,
                               z_char_appendix, z_char_surface, z_mc)
from foamtor.torsion import (SingularSampleError, torsion_at,
                             torus_dominant_part, torus_volume_grid)
from foamtor.twisted import build_delta0, build_delta1, cohomology, min_b2

SU2 = get_group("su2")


def report(num, desc, ok, detail=""):
    line = "ACCEPTANCE %-3s [%s] %s" % (num, "PASS" if ok else "FAIL", desc)
    if detail:
        line += "  (%s)" % detail
    print(line)
    return ok


def test_criterion_1_genus_table():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    got = {}
    for g in range(4):
        got[g] = min_b2("genus:%d" % g, "su2", 100, rng).b2_0
    elapsed = time.monotonic() - t0
    ok = got == {0: 3, 1: 1, 2: 0, 3: 0} and elapsed < 120.0
    assert report(1, "b2_0 over genus 0-3 = {3,1,0,0} with 100 samples each",
                  ok, "got %s in %.1fs" % (got, elapsed))


def test_criterion_2_divergence_exponents():
    taus = np.logspace(-3, -1, 8)
    fitted = {}
    for g in range(4):
        pts = [z_char_surface(g, float(t)) for t in taus]
        fitted[g] = fit_scaling(pts).omega
    target = {0: 3.0, 1: 1.0, 2: 0.0, 3: 0.0}
    ok = all(abs(fitted[g] - target[g]) <= 0.1 for g in range(4))
    assert report(2, "fitted Omega = {3.00, 1.00, 0.00, 0.00} +- 0.1 = b2_0",
                  ok, "got {%s}" % ", ".join("%d: %.3f" % (g, fitted[g]) for g in range(4)))


def test_criterion_3_genus2_finite_value():
    val = z_char_surface(2, 0.0).value
    ok = abs(val - math.pi ** 2 / 6.0) < 1e-7
    assert report(3, "Z(genus 2, tau=0) = pi^2/6 within 1e-7",
                  ok, "got %.10f vs %.10f" % (val, math.pi ** 2 / 6))


def test_criterion_4a_torus_dominant_part_stated_constant():
    # Stated value: lim Lambda^-1 Z_tau(torus) = pi within 1%.  Both
    # independent routes of this library (Richardson-extrapolated half-integer
    # character sum, and chart quadrature of the Gaussian-localized integral)
    # give 2 pi in the normalized-Haar convention, so this criterion fails by
    # exactly a factor 2; see the README convention notes.
    limit = char_sum_limit(1)
    ok = abs(limit - math.pi) <= 0.01 * math.pi
    assert report("4a", "torus dominant part equals pi within 1%",
                  ok, "Richardson limit %.6f, pi = %.6f, 2pi = %.6f"
                  % (limit, math.pi, 2 * math.pi))


def test_criterion_4b_torus_dominant_part_route_consistency():
    limit = char_sum_limit(1)
    quad = torus_dominant_part(n_quad=20)
    ok = abs(quad - limit) <= 1e-3 * abs(limit)
    assert report("4b", "chart-quadrature route matches the character-sum limit to 1e-3",
                  ok, "char %.8f vs quadrature %.8f" % (limit, quad))


def test_criterion_5_torus_gaussian_volume():
    rows = torus_volume_grid(20)
    max_err = max(r[4] for r in rows)
    ok = max_err < 1e-10
    assert report(5, "Gaussian volume = 4(sin^2 psi_a + sin^2 psi_b) on a 20x20 grid",
                  ok, "max abs error %.2e" % max_err)


def test_criterion_6_appendix_stratification_and_flag():
    rng = np.random.default_rng(7)
    rep = min_b2("appendix", "su2", 60, rng)
    hist_ok = set(rep.histogram) == {2, 3} and rep.b2_0 == 2
    taus = np.logspace(-3, -1, 8)
    pts = [z_char_appendix(float(t)) for t in taus]
    fit = fit_scaling(pts)
    degraded = fit.residual_rms_pure >= 5.0 * fit.residual_rms_withlog
    flag_ok = fit.with_log_correction or degraded
    ok = hist_ok and flag_ok
    assert report(6, "appendix b2 histogram = {2, 3} and non-monomial scaling flagged",
                  ok, "histogram %s, rms pure/with-log = %.2f"
                  % (rep.histogram, fit.residual_rms_pure / fit.residual_rms_withlog))


def test_criterion_7_toy_laplace_log_model():
    fit = fit_toy(np.logspace(-6, -2, 9))
    ok = (fit.with_log_correction and fit.residual_rms_withlog < 1e-3
          and fit.residual_rms_pure >= 5.0 * fit.residual_rms_withlog)
    assert report(7, "toy integral selects sqrt(tau) ln(1/tau): with-log RMS < 1e-3, pure >= 5x",
                  ok, "rms with-log %.2e, pure %.2e" %
                  (fit.residual_rms_withlog, fit.residual_rms_pure))


def test_criterion_8_cross_estimator_agreement():
    t0 = time.monotonic()
    cases = []
    for tau in (0.3, 0.5, 1.0):
        cases.append(("torus", z_mc(builtin("torus"), "su2", tau, 10 ** 6, seed=81),
                      z_char_surface(1, tau).value))
        cases.append(("genus:2", z_mc(builtin("genus:2"), "su2", tau, 10 ** 6, seed=82),
                      z_char_surface(2, tau).value))
        cases.append(("appendix", z_mc(builtin("appendix"), "su2", tau, 10 ** 6, seed=83),
                      z_char_appendix(tau).value))
    elapsed = time.monotonic() - t0
    worst = max(abs(mc.value - ref) / mc.stderr for _, mc, ref in cases)
    ok = worst <= 3.0 and elapsed < 300.0
    assert report(8, "MC vs character sums within 3 sigma at tau in {0.3, 0.5, 1.0}",
                  ok, "worst deviation %.2f sigma, %.0fs" % (worst, elapsed))


def _random_presentation(rng, idx):
    E = int(rng.integers(1, 5))
    ids = ["e%d" % i for i in range(E)]
    faces = []
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(0, 7))
        letters = tuple(Letter(ids[int(rng.integers(E))], int(rng.choice([1, -1])))
                        for _ in range(length))
        faces.append(FaceWord(letters))
    return Foam(name="rand%d" % idx, edges=tuple((e, 0, 0) for e in ids),
                faces=tuple(faces))


def _flat_probes(foam, rng):
    probes = [SampleSet.identity(foam, "su2")]
    try:
        found = find_flat_batch(foam, "su2", rng, 3)
        probes += found
    except Exception:
        pass
    return probes


def test_criterion_9_structural_invariants():
    rng = np.random.default_rng(99)
    foams = [builtin(n) for n in
             ("sphere", "torus", "genus:2", "genus:3", "appendix", "dunce_hat",
              "projective_plane")]
    foams += [_random_presentation(rng, i) for i in range(20)]
    checked_torsion = 0
    for foam in foams:
        cell = cellular_homology(foam).betti
        for conn in _flat_probes(foam, rng):
            d0 = build_delta0(conn)
            d1 = build_delta1(conn)
            if d0.size and d1.size:
                assert np.max(np.abs(d1 @ d0)) < 1e-10, foam.name
            rep = cohomology(conn)
            assert rep.b0 - rep.b1 + rep.b2 == 3 * foam.euler, foam.name
            h = SU2.haar(rng)
            rep_g = cohomology(gauge_act(h, conn))
            if not (rep.rank_warning or rep_g.rank_warning):
                assert rep_g.betti == rep.betti, foam.name
            # |tor| gauge invariance wherever the sample qualifies
            try:
                base = torsion_at(conn, rng).magnitude
            except SingularSampleError:
                base = None
            if base is not None:
                moved = torsion_at(gauge_act(h, conn), rng).magnitude
                assert abs(moved - base) < 1e-8 * max(base, 1.0), foam.name
                checked_torsion += 1
            # face duplication raises b2 by dim G (rank decisions permitting)
            if foam.F and not rep.rank_warning:
                dup = tietze2_add_face(foam, str(foam.faces[0]))
                rep_dup = cohomology(SampleSet(dup, "su2", conn.g))
                if not rep_dup.rank_warning:
                    assert rep_dup.b2 == rep.b2 + 3, foam.name
        # trivial-connection reduction to cellular cohomology
        rep_triv = cohomology(SampleSet.identity(foam, "su2"))
        assert rep_triv.betti == tuple(3 * b for b in cell), foam.name
        # Tietze-1 round trip, and Z_tau invariance under 2-expansion
        word = ""
        if foam.E:
            k = int(rng.integers(0, foam.E))
            word = foam.edge_ids[k]
        expanded = tietze1_expand(foam, word, "zz")
        assert tietze1_collapse(expanded, "zz") == foam
        za = z_mc(foam, "su2", 0.5, 100_000, seed=900 + foam.E)
        zb = z_mc(expanded, "su2", 0.5, 100_000, seed=901 + foam.E)
        sigma = math.hypot(za.stderr, zb.stderr)
        if sigma > 0:
            assert abs(za.value - zb.value) <= 3.0 * sigma, foam.name
    assert checked_torsion >= 10
    assert report(9, "structural invariants on builtins + 20 random presentations",
                  True, "torsion gauge-checked at %d samples" % checked_torsion)


def test_criterion_10_torsion_stability():
    rng = np.random.default_rng(123)
    foam = builtin("genus:2")
    samples = find_flat_batch(foam, "su2", rng, 14)[:10]
    assert len(samples) == 10
    worst = 0.0
    for s in samples:
        vals = np.array([torsion_at(s, rng).magnitude for _ in range(20)])
        worst = max(worst, (vals.max() - vals.min()) / vals.mean())
    ok = worst < 1e-8
    assert report(10, "|tor| spread over 20 basis completions < 1e-8 at 10 genus-2 samples",
                  ok, "worst relative spread %.2e" % worst)
