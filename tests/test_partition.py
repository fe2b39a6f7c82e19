import json
import math
import os
import pathlib
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy
from scipy.integrate import quad
from scipy.special import erf

from foamtor import partition
from foamtor.foam import builtin, parse_foam
from foamtor.groups import (get_group, su2_haar, su2_heat_kernel_images,
                            su2_heat_kernel_series, su2_mul, u1_heat_kernel_images,
                            u1_heat_kernel_series)
from foamtor.partition import (CSV_COLUMNS, MC_TAU_FLOOR, ZEstimate, char_sum_limit,
                               fit_scaling, fit_toy, lambda_tau, toy_laplace,
                               usable_cpus, z_char_appendix, z_char_surface, z_mc,
                               zestimates_csv, zestimates_from_csv)

SU2 = get_group("su2")


def test_z_mc_sphere_exact():
    est = z_mc(builtin("sphere"), "su2", 0.5, 1000, seed=0)
    direct = sum((2 * j + 1) ** 2 * math.exp(-0.5 * j * (j + 1))
                 for j in [x / 2.0 for x in range(0, 81)])
    assert est.stderr == 0.0
    assert abs(est.value - direct) < 1e-10 * direct


def test_z_mc_torus_vs_char():
    est = z_mc(builtin("torus"), "su2", 0.5, 300_000, seed=1)
    ref = z_char_surface(1, 0.5).value
    assert abs(est.value - ref) < 3.0 * est.stderr


def test_z_mc_appendix_vs_char():
    est = z_mc(builtin("appendix"), "su2", 0.5, 300_000, seed=2)
    ref = z_char_appendix(0.5).value
    assert abs(est.value - ref) < 3.0 * est.stderr


def test_z_mc_deterministic_and_worker_streams():
    t = builtin("torus")
    a = z_mc(t, "su2", 0.5, 50_000, seed=7)
    b = z_mc(t, "su2", 0.5, 50_000, seed=7)
    assert a.value == b.value and a.stderr == b.stderr
    c = z_mc(t, "su2", 0.5, 50_000, seed=7, n_workers=4)
    # different worker partition => different stream, statistically compatible
    assert c.value != a.value
    assert abs(c.value - a.value) < 5.0 * math.hypot(a.stderr, c.stderr)


def test_z_mc_takes_a_builtin_name_as_sample_flat_does():
    by_name = z_mc("torus", "su2", 0.3, 20000, seed=4)
    by_foam = z_mc(builtin("torus"), "su2", 0.3, 20000, seed=4)
    assert by_name == by_foam
    assert np.float64([by_name.value, by_name.stderr]).tobytes() == \
        np.float64([by_foam.value, by_foam.stderr]).tobytes()


def test_z_mc_refuses_too_few_samples():
    # one sample has no variance estimate (stderr 0 would read as exact);
    # zero samples divided by zero
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="n_samples"):
            z_mc(builtin("torus"), "su2", 0.5, n, seed=0)


def test_z_mc_without_edges_needs_no_samples():
    # a foam with no edges has no integral to sample: the exact value comes
    # back whatever the sample count
    for n in (0, 1):
        est = z_mc(builtin("sphere"), "su2", 0.5, n, seed=0)
        assert est.stderr == 0.0 and est.meta["exact"]
        assert est.value == z_mc(builtin("sphere"), "su2", 0.5, 1000, seed=0).value


def test_z_mc_refuses_no_workers():
    for w in (-1, 0):
        with pytest.raises(ValueError, match="n_workers"):
            z_mc(builtin("torus"), "su2", 0.5, 1000, seed=0, n_workers=w)


@pytest.mark.parametrize("name, value", [
    ("seed", None), ("seed", -1), ("seed", True), ("seed", "3"), ("seed", 3.0),
    ("n_samples", 1000.0), ("n_samples", True), ("n_samples", "1000"),
    ("n_workers", True), ("n_workers", 2.0), ("n_workers", None)])
def test_z_mc_refuses_bad_integer_arguments_by_name(monkeypatch, name, value):
    # seed=None raised a TypeError about len(), seed=-1 one that named no
    # argument, n_samples=1000.0 one about float indices; seed=True, seed='3'
    # and n_workers=True were taken and echoed into meta
    seen = spy_draw_threads(monkeypatch)
    args = {"seed": 0, "n_samples": 1000, "n_workers": 1, name: value}
    with pytest.raises(ValueError, match="^%s=" % name):
        z_mc(builtin("torus"), "su2", 0.5, **args)
    assert seen == []


def test_z_mc_takes_numpy_integer_arguments():
    ref = z_mc(builtin("torus"), "su2", 0.5, 1000, seed=5, n_workers=2)
    est = z_mc(builtin("torus"), "su2", 0.5, np.int64(1000), seed=np.uint32(5),
               n_workers=np.int8(2))
    assert (est.value, est.stderr) == (ref.value, ref.stderr)


# z_mc(foam, "su2", tau, 20_001, seed=2024, n_workers=w) -> (value, stderr),
# recorded when each component row began to draw from an SFC64 stream of its own
GOLDEN_MC = {
    ("torus", 0.5, 1): (2.296943880486918, 0.0216161841312858),
    ("torus", 0.5, 3): (2.292410104363264, 0.021679894584860665),
    ("torus", 1.5, 1): (1.380053930129754, 0.005575458757946675),
    ("torus", 1.5, 3): (1.3815558575109657, 0.005547436120332627),
    ("genus:2", 0.5, 1): (1.2218216948618181, 0.014806815162672854),
    ("genus:2", 0.5, 3): (1.2449259979633487, 0.015045775244188415),
    ("genus:2", 1.5, 1): (1.089493449123849, 0.00489136442419193),
    ("genus:2", 1.5, 3): (1.0964200540950302, 0.0049094974351741125),
    ("appendix", 0.5, 1): (7.478164617173108, 0.12804055382623322),
    ("appendix", 0.5, 3): (7.4072338152570465, 0.12826715576084036),
    ("appendix", 1.5, 1): (2.0693602652426795, 0.013152142110422232),
    ("appendix", 1.5, 3): (2.0575979180820103, 0.013095010265356977),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_MC))
def test_z_mc_matches_recorded_values(key, monkeypatch):
    foam, tau, workers = key
    value, stderr = GOLDEN_MC[key]
    # MC_CHUNK = 7000 splits every stream into several draws; the Haar stream
    # and hence the estimate do not depend on how a stream is chunked
    for chunk in (50_000, 7000):
        monkeypatch.setattr(partition, "MC_CHUNK", chunk)
        est = z_mc(builtin(foam), "su2", tau, 20_001, seed=2024, n_workers=workers)
        assert abs(est.value - value) <= 1e-12 * value
        assert abs(est.stderr - stderr) <= 1e-12 * stderr


def test_z_mc_matches_recorded_values_tiny_chunks():
    # streams of elem_dim = 4 samples and near it: four class angles must
    # not be read as one quaternion by the heat kernel
    for foam, tau, n, workers, value, stderr in (
            ("torus", 0.5, 4, 1, 0.6669962420606566, 0.36851118087315815),
            ("genus:2", 1.5, 8, 2, 1.4916665979577002, 0.2966942001910142),
            ("appendix", 0.5, 6, 1, 15.123388132207225, 13.17375835408492)):
        est = z_mc(builtin(foam), "su2", tau, n, seed=31, n_workers=workers)
        assert abs(est.value - value) <= 1e-12 * value, foam
        assert abs(est.stderr - stderr) <= 1e-12 * stderr, foam


def test_z_mc_threaded_streams_are_reproducible(monkeypatch):
    monkeypatch.setattr(partition, "MC_CHUNK", 4000)
    t = builtin("genus:2")
    a = z_mc(t, "su2", 0.7, 30_001, seed=11, n_workers=3)
    b = z_mc(t, "su2", 0.7, 30_001, seed=11, n_workers=3)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert a.meta["n_samples"] == 30_001 and a.meta["n_workers"] == 3


def mc_stream_draw(seed, w, m, E):
    """The first m SU(2) samples of z_mc's worker stream w, (m, E, 4), rebuilt
    from numpy alone: row k (edge k // 4, component k % 4) holds the
    standard normals of Generator(SFC64(c)) for the k-th child c that
    SeedSequence([seed, w]) spawns."""
    g = np.empty((m, E, 4))
    for k, c in enumerate(np.random.SeedSequence([seed, w]).spawn(4 * E)):
        g[:, k // 4, k % 4] = np.random.Generator(np.random.SFC64(c)).standard_normal(m)
    return g


def spy_draw_threads(monkeypatch):
    """Make SU2.mc_draw record the thread of each call, in the list returned."""
    seen = []
    real_draw = SU2.mc_draw

    def mc_draw(rows, out, unit=False):
        seen.append(threading.get_ident())
        return real_draw(rows, out, unit)

    monkeypatch.setattr(SU2, "mc_draw", staticmethod(mc_draw))
    return seen


@pytest.mark.parametrize("pinned", [False, True])
def test_z_mc_pool_is_capped_at_cpu_count(monkeypatch, pinned):
    if pinned:
        # a process pinned to one CPU runs on one thread, whatever
        # os.cpu_count() says about the host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cpus = 1 if pinned else usable_cpus()
    workers = 4 * cpus
    t = builtin("torus")
    ref = z_mc(t, "su2", 0.5, 1000 * workers + 3, seed=5, n_workers=workers)
    seen = spy_draw_threads(monkeypatch)
    est = z_mc(t, "su2", 0.5, 1000 * workers + 3, seed=5, n_workers=workers)
    assert (est.value, est.stderr) == (ref.value, ref.stderr)
    assert est.meta["n_workers"] == workers
    assert 1 <= len(set(seen)) <= cpus


@pytest.mark.parametrize("workers", [10 ** 14, 10 ** 18])
def test_z_mc_work_grows_with_samples_not_workers(monkeypatch, workers):
    # with fewer samples than workers only the last stream draws; a list of
    # one entry per worker asked 800 TB of memory for 10**14 workers, which
    # no allocator grants, and raised MemoryError
    t = builtin("torus")
    seen = spy_draw_threads(monkeypatch)
    est = z_mc(t, "su2", 0.5, 1000, seed=5, n_workers=workers)
    assert est.meta == {"n_samples": 1000, "seed": 5, "n_workers": workers}
    # the one drawing stream is chunked for itself, not for all the workers
    # (chunks of MC_CHUNK / n_workers samples, rounded up, drew one at a time)
    assert len(seen) == 1
    # the last stream's 1000 samples, drawn in one piece: the stream does not
    # depend on its chunks, only the moment merge rounds differently
    g = mc_stream_draw(5, workers - 1, 1000, t.E)
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    vals = SU2.heat_kernel(0.5, SU2.word_angle(t.words_idx[0], g))
    assert abs(est.value - vals.mean()) <= 1e-12 * vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(1000)
    assert abs(est.stderr - stderr) <= 1e-12 * stderr


def test_z_mc_walks_long_words_on_unit_rows():
    # a product of raw normals grows like 1.75 per letter and overflows
    # within about 600 letters (the estimate came back NaN): longer words
    # than MC_RAW_LETTERS read the same normals over their norms instead
    foam = parse_foam("edges: a b\nface: " + "a b a^-1 b^-1 " * 175)
    assert len(foam.words_idx[0]) > partition.MC_RAW_LETTERS
    est = z_mc(foam, "su2", 0.5, 2000, seed=3)
    g = mc_stream_draw(3, 0, 2000, 2)
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    vals = SU2.heat_kernel(0.5, SU2.word_angle(foam.words_idx[0], g))
    assert est.value == vals.mean()
    stderr = vals.std(ddof=1) / math.sqrt(2000)
    assert abs(est.stderr - stderr) <= 1e-12 * stderr


REFEREE_EXACT = {
    ("torus", "su2"): lambda tau: z_char_surface(1, tau).value,
    ("genus:2", "su2"): lambda tau: z_char_surface(2, tau).value,
    ("appendix", "su2"): lambda tau: z_char_appendix(tau).value,
    # the word a a reads K_tau(2 theta), whose Haar mean is 1 for every tau
    ("projective_plane", "u1"): lambda tau: 1.0,
}


def test_z_mc_streams_agree_with_exact_values_over_seeds():
    # the pooled z-scores of 160 seeded estimates against their exact values
    # look standard normal: a stream that is biased, or whose rows are
    # correlated, moves the mean or the spread
    z = []
    for (foam, group), exact in sorted(REFEREE_EXACT.items()):
        for tau in (0.5, 1.5):
            ref = exact(tau)
            for seed in range(20):
                est = z_mc(builtin(foam), group, tau, 20_001, seed=seed, n_workers=3)
                z.append((est.value - ref) / est.stderr)
    z = np.array(z)
    assert len(z) == 160
    assert np.max(np.abs(z)) < 4.5
    assert abs(z.mean()) < 0.3
    assert 0.8 <= z.std(ddof=1) <= 1.25


def test_z_mc_rows_of_a_stream_are_uncorrelated(monkeypatch):
    # the 24 component rows of a genus-3 stream's first chunk, each from its
    # own generator, correlate pairwise no more than independent rows do
    chunks = []
    real_draw = SU2.mc_draw

    def mc_draw(rows, out, unit=False):
        g = real_draw(rows, out, unit)
        chunks.append(g.copy())
        return g

    monkeypatch.setattr(SU2, "mc_draw", staticmethod(mc_draw))
    monkeypatch.setattr(partition, "MC_CHUNK", 20_000)
    z_mc(builtin("genus:3"), "su2", 0.5, 40_000, seed=9)
    first = chunks[0]
    m = len(first)
    assert m == 20_000 and len(chunks) == 2
    assert np.array_equal(first, mc_stream_draw(9, 0, m, 6))
    r = np.corrcoef(first.reshape(m, -1).T)
    off = r[~np.eye(len(r), dtype=bool)]
    assert len(r) == 24 and np.max(np.abs(off)) < 5.0 / math.sqrt(m)


def test_z_mc_holds_its_draw_buffer_and_twelve_sample_rows(monkeypatch):
    # the walk of a product of commutators holds at most twelve rows of a
    # chunk's length (the letter chain nine), the first face's kernel values
    # hold the integrand, and no row outlives its chunk; a kernel that
    # holds one temporary more fails here before it shows in the RSS
    chunk = 20_000
    monkeypatch.setattr(partition, "MC_CHUNK", chunk)
    foam = builtin("genus:3")
    z_mc(foam, "su2", 0.5, 2 * chunk, seed=1)
    tracemalloc.start()
    try:
        z_mc(foam, "su2", 0.5, 2 * chunk, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = 8 * chunk
    draw_buffer = foam.E * SU2.elem_dim * row
    assert peak <= draw_buffer + 12.5 * row


def test_z_mc_variance_of_a_constant_integrand_is_zero(monkeypatch):
    # U(1) torus: every commutator word is trivial, so the integrand is the
    # constant K_tau(0); merged chunk moments carry no cancellation residue
    monkeypatch.setattr(partition, "MC_CHUNK", 3000)
    est = z_mc(builtin("torus"), "u1", 0.5, 20_001, seed=3, n_workers=3)
    assert est.stderr <= 1e-14 * est.value


def test_z_mc_refuses_below_floor():
    with pytest.raises(ValueError, match="floor"):
        z_mc(builtin("torus"), "su2", 0.5 * MC_TAU_FLOOR, 1000, seed=0)


def test_z_mc_u1():
    # U(1) torus: commutator words are identically trivial, Z = K_tau(0)
    est = z_mc(builtin("torus"), "u1", 0.5, 50_000, seed=3)
    ref = float(get_group("u1").heat_kernel(0.5, np.zeros(1))[0])
    assert abs(est.value - ref) < 1e-10


def test_z_char_surface_genus2_at_zero():
    est = z_char_surface(2, 0.0)
    assert abs(est.value - math.pi ** 2 / 6.0) < 1e-7


def test_z_char_surface_genus3_at_zero():
    zeta4 = sum(1.0 / n ** 4 for n in range(1, 200_000))
    assert abs(z_char_surface(3, 0.0).value - zeta4) < 1e-9


def test_z_char_surface_torus_vs_bruteforce():
    brute = sum(math.exp(-1.0 * j * (j + 1)) for j in [x / 2.0 for x in range(0, 61)])
    assert abs(z_char_surface(1, 1.0).value - brute) < 1e-12


def test_z_char_surface_sphere_equals_heat_kernel_at_identity():
    for evaluator in (su2_heat_kernel_series, su2_heat_kernel_images):
        k1 = float(evaluator(1.0, np.zeros(1))[0])
        assert abs(z_char_surface(0, 1.0).value - k1) < 1e-10 * k1


def poisson_images(g, tau):
    """sum_{n>=1} n^(2-2g) e^{-tau (n^2-1)/4} for g = 0, 1 in closed form, by
    Poisson resummation: the image corrections e^{-4 pi^2 k^2/tau} beyond
    k = 3 are far below machine precision for tau < 0.1."""
    a = tau / 4.0
    ks = range(1, 4)
    if g == 1:
        img = sum(2.0 * math.exp(-math.pi ** 2 * k * k / a) for k in ks)
        val = 0.5 * (math.sqrt(math.pi / a) * (1.0 + img) - 1.0)
    else:
        img = sum(2.0 * (1.0 - 2.0 * math.pi ** 2 * k * k / a)
                  * math.exp(-math.pi ** 2 * k * k / a) for k in ks)
        val = 0.25 * math.sqrt(math.pi) * a ** -1.5 * (1.0 + img)
    return math.exp(tau / 4.0) * val


def test_z_char_surface_poisson_images_match_direct():
    # the direct sum, which z_char_surface takes for every tau > 0, against
    # the closed form of the Poisson-resummed series down to tau = 1e-6
    for g in (0, 1):
        for tau in (0.09, 1e-2, 1e-4, 1e-6):
            ref = poisson_images(g, tau)
            val = z_char_surface(g, tau).value
            assert abs(val - ref) < 1e-12 * ref, (g, tau)


def test_z_char_surface_errors():
    with pytest.raises(ValueError):
        z_char_surface(1, 0.0)
    with pytest.raises(ValueError):
        z_char_surface(0, 0.0)
    with pytest.raises(ValueError):
        z_char_surface(-1, 1.0)


@pytest.mark.parametrize("genus", [2.5, 1.5, 0.5, 2.0, -1, math.nan, "2"])
def test_z_char_surface_refuses_a_genus_that_is_not_a_nonnegative_integer(genus):
    # genus 2.5 at tau = 0 summed n^-3, zeta(3), the sum of no surface
    why = r"^genus %s is not a non-negative integer$" % re.escape(repr(genus))
    for tau in (0.0, 0.1):
        with pytest.raises(ValueError, match=why):
            z_char_surface(genus, tau)


@pytest.mark.parametrize("genus", [1.5, 0.5, 1.0, -1])
def test_char_sum_limit_refuses_a_genus_that_is_not_a_nonnegative_integer(genus):
    # genus 1.5 read its exponent as 0, the one of genus >= 2, and gave 8.5499
    with pytest.raises(ValueError, match=r"^genus %s is not a non-negative integer$"
                       % re.escape(repr(genus))):
        char_sum_limit(genus)


def test_character_routes_take_numpy_integer_genera():
    assert z_char_surface(np.int64(2), 0.0).value == z_char_surface(2, 0.0).value
    assert char_sum_limit(np.int64(1)) == char_sum_limit(1)


def test_commutator_character_identity_mc():
    # int da chi_j([a, h]) = |chi_j(h)|^2 / (2j+1), the building block of the
    # appendix character sum
    rng = np.random.default_rng(4)
    n = 200_000
    h = su2_haar(rng, ())
    a = su2_haar(rng, (n,))
    hb = np.broadcast_to(h, a.shape)
    comm = su2_mul(su2_mul(a, hb), su2_mul(SU2.inv(a), SU2.inv(hb)))
    psi_h = SU2.distance(h)
    for j in (0.5, 1.0, 1.5):
        vals = SU2.character(j, SU2.distance(comm))
        target = SU2.character(j, psi_h) ** 2 / (2 * j + 1)
        assert abs(vals.mean() - float(target)) < 4.0 * vals.std() / math.sqrt(n)


def test_appendix_invariant_dimension_mc():
    # N(1/2, 1/2) = dim Inv(1/2 x 1/2 x 1/2 x 1/2) = int |chi_1/2|^4 = 2
    rng = np.random.default_rng(5)
    n = 10 ** 6
    chi = SU2.character(0.5, SU2.distance(su2_haar(rng, (n,))))
    m = (chi ** 4).mean()
    assert abs(m - 2.0) < 3.0 * (chi ** 4).std() / math.sqrt(n)


def test_appendix_invariant_dimension_formula():
    # N(j1, j2) = 2 min(j1, j2) + 1; N(j, 0) = 1
    def N(j1, j2):
        return 2 * min(j1, j2) + 1
    assert N(0.5, 0.5) == 2
    for j in (0, 0.5, 1, 2.5):
        assert N(j, 0) == 1
    # brute-force Clebsch-Gordan count: multiplicity of the trivial rep in
    # (j1 x j1) x (j2 x j2) = (sum_{k<=2j1} V_k) x (sum_{l<=2j2} V_l)
    for j1 in (0.5, 1.0, 1.5):
        for j2 in (0.5, 1.0, 2.0):
            count = sum(1 for k in range(int(2 * j1) + 1)
                        for l in range(int(2 * j2) + 1) if k == l)
            assert count == N(j1, j2)


def test_monotonicity_in_tau():
    taus = np.linspace(0.05, 2.0, 15)
    for vals in (
        [z_char_surface(0, t).value for t in taus],
        [z_char_surface(1, t).value for t in taus],
        [z_char_surface(2, t).value for t in taus],
        [z_char_appendix(t).value for t in taus],
    ):
        assert np.all(np.diff(vals) < 0.0)


# float.hex of the character routes on CHAR_TAUS, recorded before the SU(2)
# irreps table (then SU2.dim and SU2.casimir) became the routes' one statement
CHAR_TAUS = (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 3.0, 25.0)
CHAR_HEX = {
    "surface:0": ("0x1.a6960658137dbp+31", "0x1.b0bd229ada224p+21", "0x1.b5ffda504748dp+16",
                  "0x1.bc38fe6da3a42p+11", "0x1.cbc025fb8287cp+6", "0x1.6b91a2c397051p+3",
                  "0x1.234fe5e58029dp+2", "0x1.675e013d941c5p+1", "0x1.71b177487b38fp+0",
                  "0x1.0000007b9821bp+0"),
    "surface:1": ("0x1.bafd1326b2699p+10", "0x1.617fe647f6936p+7", "0x1.bc82aa4c03060p+5",
                  "0x1.14484f463a9d1p+4", "0x1.4efd8987c3baap+2", "0x1.230c21acbb2ddp+1",
                  "0x1.a244d9e90c483p+0", "0x1.60cfd94107e2cp+0", "0x1.1b9ebe9965e51p+0",
                  "0x1.0000001ee6087p+0"),
    "surface:2": ("0x1.a4e05ab7ae944p+0", "0x1.a2d919e312e42p+0", "0x1.9e1071bc7739bp+0",
                  "0x1.8fbbda32b89dcp+0", "0x1.697bfbf05b2f7p+0", "0x1.3984ae09a4bd5p+0",
                  "0x1.227bdbc584bb6p+0", "0x1.1640be7956dc7p+0", "0x1.06d0f6c47b1ebp+0",
                  "0x1.00000007b9822p+0"),
    "surface:3": ("0x1.151320510689fp+0", "0x1.15123929613c4p+0", "0x1.150a37e04f000p+0",
                  "0x1.14c01b26952dep+0", "0x1.127ad64d065f7p+0", "0x1.0c55f92d623fap+0",
                  "0x1.0802999869100p+0", "0x1.055afeafbdc9bp+0", "0x1.01b1b95d4e799p+0",
                  "0x1.00000001ee608p+0"),
    "appendix": ("0x1.ef172556b1b00p+30", "0x1.fafe3965750d4p+20", "0x1.009d5b2c82432p+16",
                 "0x1.04a1879c3d50ap+11", "0x1.1195fbdd8f9f3p+6", "0x1.cc1a4d8f4c8a2p+2",
                 "0x1.8c8d58b401c04p+1", "0x1.05cab54fa2397p+1", "0x1.3d33a2a716cbcp+0",
                 "0x1.0000003dcc10ep+0"),
}


def test_character_routes_keep_their_recorded_bits():
    got = {"surface:%d" % g: tuple(z_char_surface(g, t).value.hex() for t in CHAR_TAUS)
           for g in range(4)}
    got["appendix"] = tuple(z_char_appendix(t).value.hex() for t in CHAR_TAUS)
    assert got == CHAR_HEX
    assert (char_sum_limit(0).hex(), char_sum_limit(1).hex()) == (
        "0x1.3bd3cc9bf759bp+7", "0x1.921fb5354f31ap+2")


@pytest.mark.parametrize("g", range(4))
def test_the_u1_surface_sum_is_the_heat_kernel_at_the_identity(g):
    # a surface word's U(1) holonomy is trivial, so Z_tau = K_tau(1) at every
    # genus, and Lambda^-1 Z_tau = sqrt(4 pi tau) sqrt(pi / tau) = 2 pi
    u1 = get_group("u1")
    for tau in (0.05, 0.6, 1.5, 3.0):
        want = float(u1.heat_kernel(tau, [0.0])[0])
        assert abs(z_char_surface(g, tau, "u1").value / want - 1.0) < 1e-14, tau
    assert abs(char_sum_limit(g, "u1") - 2.0 * math.pi) < 1e-12
    # Omega = 1 at every genus: the tau = 0 sum diverges, and is refused
    with pytest.raises(ValueError, match="^tau 0.0 is not finite and positive$"):
        z_char_surface(g, 0.0, u1)


def test_char_sum_limit_torus():
    # Richardson extrapolation of Lambda^-1 sum_j e^{-tau j(j+1)}: the
    # half-integer theta sum gives exactly 2 pi in normalized Haar
    lim = char_sum_limit(1)
    assert abs(lim - 2.0 * math.pi) < 1e-5


def test_char_sum_limit_sphere():
    lim = char_sum_limit(0)
    assert abs(lim - 16.0 * math.pi ** 2) < 1e-3


def test_fit_scaling_genus_exponents():
    taus = np.logspace(-3, -1, 8)
    for g, omega in ((0, 3.0), (1, 1.0), (2, 0.0), (3, 0.0)):
        pts = [z_char_surface(g, t) for t in taus]
        fit = fit_scaling(pts, model="auto")
        assert abs(fit.omega - omega) <= 0.1, (g, fit.omega)
        pure = fit_scaling(pts, model="pure")
        assert abs(pure.omega - omega) <= 0.1


def test_fit_scaling_torus_constant():
    taus = np.logspace(-3, -1, 8)
    pts = [z_char_surface(1, t) for t in taus]
    fit = fit_scaling(pts, model="pure")
    assert abs(fit.omega - 1.0) <= 0.05
    assert abs(fit.dominant_part - 2 * math.pi) <= 0.1 * 2 * math.pi


def test_fit_scaling_weighs_an_exact_point_as_the_most_precise_mc_point():
    # exact points (stderr 0) among MC points weigh 1/min(stderr/value) of the
    # MC points, and each MC point 1/(its stderr/value)
    taus = np.logspace(-3, -1, 6)
    vals = lambda_tau(taus) ** 1.5 * (1.0 + 0.05 * np.array([1.0, -1.0, 2.0, -2.0, 1.0, 0.0]))
    rel = np.array([0.0, 0.01, 0.0, 0.04, 0.02, 0.0])
    pts = [ZEstimate(float(t), float(v), float(r * v), "mc" if r else "char-surface")
           for t, v, r in zip(taus, vals, rel)]
    fit = fit_scaling(pts, model="pure")
    X = np.column_stack([np.log(lambda_tau(taus)), np.ones_like(taus)])

    def wls(w):
        return np.linalg.lstsq(X * w[:, None], np.log(vals) * w, rcond=None)[0]

    want = wls(1.0 / np.where(rel > 0, rel, 0.01))
    assert fit.omega == pytest.approx(want[0], rel=1e-10)
    assert fit.log_const == pytest.approx(want[1], rel=1e-10)
    # the weights decide the answer: exact points at weight 1 give another fit
    assert abs(wls(1.0 / np.where(rel > 0, rel, 1.0))[0] - fit.omega) > 1e-3


def test_fit_scaling_appendix_flags_nonmonomial():
    taus = np.logspace(-3, -1, 8)
    pts = [z_char_appendix(t) for t in taus]
    fit = fit_scaling(pts, model="auto")
    pure = fit_scaling(pts, model="pure")
    degraded = pure.residual_rms_pure >= 5.0 * pure.residual_rms_withlog
    assert fit.with_log_correction or degraded
    assert 2.8 <= fit.omega <= 3.5


def test_fit_scaling_validates_input():
    taus = np.logspace(-3, -1, 3)
    pts = [z_char_surface(1, t) for t in taus]
    with pytest.raises(ValueError, match="4 grid points"):
        fit_scaling(pts)
    taus = np.linspace(0.01, 0.02, 5)
    pts = [z_char_surface(1, t) for t in taus]
    with pytest.raises(ValueError, match="decade"):
        fit_scaling(pts)
    bad = [ZEstimate(t, -1.0, 0.0, "x") for t in np.logspace(-3, -1, 5)]
    with pytest.raises(ValueError, match="positive"):
        fit_scaling(bad)


TAU_ROUTES = {
    "SU2.heat_kernel": lambda t: SU2.heat_kernel(t, [0.5]),
    "U1.heat_kernel": lambda t: get_group("u1").heat_kernel(t, [0.5]),
    "su2_heat_kernel_series": lambda t: su2_heat_kernel_series(t, [0.5]),
    "su2_heat_kernel_images": lambda t: su2_heat_kernel_images(t, [0.5]),
    "u1_heat_kernel_series": lambda t: u1_heat_kernel_series(t, [0.5]),
    "u1_heat_kernel_images": lambda t: u1_heat_kernel_images(t, [0.5]),
    "z_char_surface(1)": lambda t: z_char_surface(1, t),
    "z_char_surface(2)": lambda t: z_char_surface(2, t),
    "z_char_appendix": z_char_appendix,
    "toy_laplace": toy_laplace,
    "toy_laplace[array]": lambda t: toy_laplace(np.array([1e-3, t])),
    "z_mc(torus)": lambda t: z_mc(builtin("torus"), "su2", t, 100, seed=0),
    "z_mc(sphere)": lambda t: z_mc(builtin("sphere"), "su2", t, 100, seed=0),
}


@pytest.mark.parametrize("route, tau", [
    (route, tau) for route in sorted(TAU_ROUTES) for tau in (math.inf, math.nan, -1.0, 0.0)
    if (route, tau) != ("z_char_surface(2)", 0.0)])     # converges at tau = 0
def test_every_tau_route_refuses_a_tau_that_is_not_finite_and_positive(route, tau):
    # tau = inf gave NaN (SU(2) kernel, character sums, z_mc), 1.0 (U(1)
    # kernel) or an OverflowError, and tau = nan "cannot convert float NaN"
    with pytest.raises(ValueError, match="is not finite and positive"):
        TAU_ROUTES[route](tau)


def test_fit_scaling_refuses_a_tau_of_1_or_more_by_name():
    # log log(1/tau) of the with-log model was -inf at tau = 1: LAPACK printed
    # DLASCL errors and the fit died with "SVD did not converge"
    pts = [z_char_surface(1, t) for t in np.logspace(-2, 0, 6)]
    for model in ("pure", "with-log", "auto"):
        with pytest.raises(ValueError, match="^point 6: tau 1.0 is not below 1"):
            fit_scaling(pts, model=model)
    with pytest.raises(ValueError, match="^point 1: tau 2.0 is not below 1"):
        fit_scaling([ZEstimate(2.0, 1.0, 0.0, "x")] + pts[:5])


def test_fit_scaling_refuses_impossible_points():
    # a NaN point gave omega = nan, tau = 0 died in the SVD after warnings,
    # and a negative stderr was weighted as an exact point
    good = [z_char_surface(1, t) for t in np.logspace(-3, -1, 5)]
    for tau, value, stderr, reason in (
            (0.5, math.nan, 0.0, "value nan is not finite"),
            (0.5, math.inf, 0.0, "value inf is not finite"),
            (0.0, 2.0, 0.0, "tau 0.0 is not finite and positive"),
            (math.nan, 2.0, 0.0, "tau nan is not finite and positive"),
            (-0.5, 2.0, 0.0, "tau -0.5 is not finite and positive"),
            (0.5, 2.0, -0.1, "stderr -0.1 is not finite and >= 0"),
            (0.5, 2.0, math.inf, "stderr inf is not finite and >= 0")):
        bad = ZEstimate(tau, value, stderr, "x")
        with pytest.raises(ValueError, match="^point 3: " + reason + "$"):
            fit_scaling(good[:2] + [bad] + good[2:])


def test_toy_laplace_matches_reduced_oracle():
    # reduce along y: z = 2 sqrt(pi tau) int_0^L erf(L x / sqrt(tau)) dx / x,
    # evaluated independently by adaptive quadrature
    for tau in (1e-4, 1e-3):
        val = toy_laplace(tau, 1.0)
        oracle, _ = quad(lambda x: erf(x / math.sqrt(tau)) / x if x > 0 else 0.0,
                         0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-13)
        oracle *= 2.0 * math.sqrt(math.pi * tau)
        assert abs(val - oracle) < 1e-6 * oracle


def test_toy_laplace_asymptotic_law():
    gamma = 0.5772156649015329
    for tau in (1e-6, 1e-5):
        target = math.sqrt(math.pi * tau) * (math.log(1 / tau) + gamma + 2 * math.log(2))
        assert abs(toy_laplace(tau) - target) < 1e-9 * target


def test_fit_toy_selects_log_law():
    fit = fit_toy()
    assert fit.with_log_correction
    assert fit.residual_rms_withlog < 1e-3
    assert fit.residual_rms_pure >= 5.0 * fit.residual_rms_withlog
    assert abs(fit.omega + 1.0) < 1e-6  # z ~ Lambda^-1 log(1/tau)


def test_toy_laplace_of_an_array_equals_scalar_calls():
    # one Gauss rule for the whole array, and the bits of each scalar call
    taus = np.concatenate([np.logspace(-6, -1, 7), [0.37, 2.0, 50.0]])
    for box in (1.0, 2.5):
        vals = toy_laplace(taus, box)
        assert isinstance(vals, np.ndarray) and vals.shape == taus.shape
        assert vals.tolist() == [toy_laplace(float(t), box) for t in taus]
        assert isinstance(toy_laplace(1e-3, box), float)
    assert toy_laplace(np.array([]), 1.0).shape == (0,)
    for bad in (np.array([1e-3, 0.0]), np.array([-1.0])):
        with pytest.raises(ValueError, match="positive"):
            toy_laplace(bad)


def _toy_full_matrix(t, L):
    """toy_laplace at one tau as it evaluated the whole integrand matrix."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    n_levels = max(4, int(math.ceil(math.log2(L / math.sqrt(t)))) + 4)
    bounds = np.array(([L * 2.0 ** -k for k in range(n_levels + 1)] + [0.0])[::-1])
    xs = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b)
                         for a, b in zip(bounds[:-1], bounds[1:])])
    ws = np.concatenate([0.5 * (b - a) * weights for a, b in zip(bounds[:-1], bounds[1:])])
    vals = np.exp(-np.outer(xs, xs) ** 2 / t)
    return 4.0 * float(ws @ vals @ ws)


def test_toy_laplace_mirrors_its_symmetric_matrix_with_the_same_bits():
    taus = np.concatenate([np.logspace(-8, -1, 15), [0.37, 2.0, 50.0]])
    for box in (1.0, 0.3, 2.5):
        assert toy_laplace(taus, box).tolist() == [_toy_full_matrix(t, box) for t in taus]


def test_toy_pure_fit_drifts_with_window():
    # a pure power law cannot hold: the fitted exponent depends on the window
    lo = fit_toy(np.logspace(-6, -4, 6)).residual_rms_pure
    om_lo = _pure_omega(np.logspace(-6, -4, 6))
    om_hi = _pure_omega(np.logspace(-4, -2, 6))
    assert abs(om_lo - om_hi) > 0.02
    assert lo > 0.0


def test_toy_refuses_a_box_that_is_not_positive_and_finite():
    for box in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="--box"):
            toy_laplace(1e-3, box)
        with pytest.raises(ValueError, match="--box"):
            fit_toy(np.logspace(-4, -2, 3), box_halfwidth=box)


def re_float(x):
    return re.escape(repr(float(x)))


def _toy_per_strip(t, L):
    """toy_laplace at one tau as it evaluated the upper strip of each panel's
    rows, exp(-(x_i x_j)^2 / tau) entry by entry, and mirrored it."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    n_levels = max(4, int(math.ceil(math.log2(L / math.sqrt(t)))) + 4)
    bounds = np.array(([L * 2.0 ** -k for k in range(n_levels + 1)] + [0.0])[::-1])
    xs = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b)
                         for a, b in zip(bounds[:-1], bounds[1:])])
    ws = np.concatenate([0.5 * (b - a) * weights for a, b in zip(bounds[:-1], bounds[1:])])
    vals = np.empty((len(xs), len(xs)))
    for a in range(0, len(xs), 24):
        strip = np.exp(-np.outer(xs[a:a + 24], xs[a:]) ** 2 / t)
        vals[a:a + 24, a:] = strip
        vals[a + 24:, a:a + 24] = strip[:, 24:].T
    return 4.0 * float(ws @ vals @ ws)


def test_toy_laplace_keeps_the_per_strip_bits_near_the_ends_of_the_float_range():
    # the geometric blocks are one block's exponents times powers of 4; boxes
    # far from 1 put the exponents and squares near the ends of the float
    # range, where the scaling must still be exact and nothing may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for box, tau in ((1e-200, 1e-3), (1e-100, 1e-3), (1e-100, 1e-250), (1e20, 1e-3),
                         (1e75, 1e299), (1e75, 1e290), (7.7e76, 1e300)):
            assert toy_laplace(tau, box) == _toy_per_strip(tau, box), (box, tau)


def test_toy_refuses_a_box_and_tau_outside_its_float_range():
    # box 1e80: (x y)^2 overflows; tau 1e-300: squares that go subnormal
    # would reach exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for box, tau in ((1e80, 1e-3), (1e80, 1e200), (1e77, 1e-3), (1.0, 1e-300)):
            with pytest.raises(ValueError, match=r"^box half-width \(--box\) %s at tau %s "
                               "leaves the toy's float range" % (re_float(box), re_float(tau))):
                toy_laplace(tau, box)
        with pytest.raises(ValueError, match="tau 1e-300 leaves"):
            fit_toy(np.array([1e-3, 1e-2, 1e-300]))


@pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
def test_fit_toy_refuses_a_tau_outside_the_domain_naming_the_point(bad, capfd):
    taus = [1e-4, 1e-3, 1e-2, bad]
    why = r"^point 4: tau %s is not finite and positive$" % re_float(bad)
    with pytest.raises(ValueError, match=why):
        fit_toy(taus=taus, values=[0.01, 0.02, 0.05, 0.1])
    with pytest.raises(ValueError, match=why):
        fit_toy(taus=taus)
    # refused before any least squares: LAPACK printed DLASCL lines here
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, -math.inf, math.nan])
def test_fit_toy_refuses_a_value_that_is_not_finite_and_positive(bad, capfd):
    with pytest.raises(ValueError, match=r"^point 2: value %s is not finite and positive$"
                       % re_float(bad)):
        fit_toy(taus=[1e-4, 1e-3, 1e-2], values=[0.01, bad, 0.05])
    assert capfd.readouterr().err == ""


def _toy_fit_by_least_squares(taus, box):
    """fit_toy as it was fitted by scipy's least_squares(method="lm") with its
    own finite differences, from the same starts."""
    from scipy.optimize import least_squares
    taus = np.asarray(taus, dtype=float)
    x = np.log(lambda_tau(taus))
    y = np.log(toy_laplace(taus, box))
    s = np.log(1.0 / taus)

    def resid(p):
        om, beta, c = p
        inner = beta * s + c
        if np.any(inner <= 0):
            return np.full_like(y, 1e3)
        return om * x + np.log(inner) - y

    def log_amplitude(omega0):
        sols = [least_squares(resid, [omega0, beta0, 1.0], method="lm", max_nfev=20000)
                for beta0 in (0.1, 1.0)]
        best = min(sols, key=lambda sol: sol.cost)     # the first of equal costs
        om, beta, c = best.x
        return om, math.log(c) if c > 0 else -math.inf, resid(best.x), {
            "beta_log": float(beta), "const": float(c),
            "law": "lambda^omega * (beta ln(1/tau) + c)"}

    return partition._select(taus, x, y, np.ones_like(y), log_amplitude)


@pytest.mark.skipif(tuple(map(int, scipy.__version__.split(".")[:2])) < (1, 16),
                    reason="least_squares scaled by x_scale=1.0 before scipy 1.16")
@pytest.mark.parametrize("taus, box", [(np.logspace(-6, -2, 9), 1.0),
                                       (np.logspace(-6, -2, 9), 2.0),
                                       (np.logspace(-4, -2, 3), 1.0),
                                       (np.logspace(-5, -1, 7), 0.5)])
def test_fit_toy_keeps_the_bits_of_the_least_squares_fit(taus, box):
    # MINPACK's lmder fed the written-out 2-point Jacobian takes the steps
    # least_squares(method="lm") took with its finite differences
    assert repr(fit_toy(taus, box_halfwidth=box)) == repr(_toy_fit_by_least_squares(taus, box))


def test_fit_toy_refuses_fewer_points_than_parameters():
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="--tau-grid"):
            fit_toy(np.logspace(-4, -2, n))


def _pure_omega(taus):
    vals = [toy_laplace(float(t)) for t in taus]
    x = np.log(lambda_tau(np.asarray(taus)))
    coef = np.polyfit(x, np.log(vals), 1)
    return coef[0]


def test_zestimates_csv_roundtrip():
    pts = [z_char_surface(1, t) for t in (0.01, 0.1)]
    text = zestimates_csv(pts)
    back = zestimates_from_csv(text)
    assert len(back) == 2
    assert abs(back[0].value - pts[0].value) < 1e-12
    assert back[0].method == "char-surface"


def test_zestimates_from_csv_refuses_a_missing_header_by_line():
    # the first non-blank line was dropped unread, so a CSV without its
    # header silently lost its first row
    rows = "0.001,8.92,3.1,0,a\n0.002,1,2.9,0,a\n"
    with pytest.raises(ValueError, match=r"^line 1: .* is not the header"):
        zestimates_from_csv(rows)
    with pytest.raises(ValueError, match=r"^line 3: 'tau,value' is not the header"):
        zestimates_from_csv("\n\ntau,value\n" + rows)
    assert len(zestimates_from_csv("\n" + CSV_COLUMNS + "\n" + rows)) == 2
    assert zestimates_from_csv("") == []


def test_toy_refuses_a_panel_grid_over_its_memory_bound_before_allocating():
    # box 1e76 at tau 1e-3 built n = 262 panels (a 6,312^2 matrix, 319 MB)
    # and box 1 at tau 1e-280 n = 470 (about 1 GB); at most 128 are allowed,
    # a matrix side of 3,096 (77 MB)
    for box, tau, n in ((1e76, 1e-3, 262), (1.0, 1e-280, 470)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^box half-width \(--box\) %s at tau %s "
                               r"\(--tau-grid\) needs %d panels" % (re_float(box),
                                                                   re_float(tau), n)):
                toy_laplace(tau, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, (box, tau, peak)


def test_toy_answers_a_grid_of_128_panels():
    # the largest grid the bound allows (a 3,096^2 matrix); the accepted
    # cases with n = 76 and n = 88 keep their per-strip bits above
    assert 0.0 < toy_laplace(1e-3, 2.0 ** 124 * 1e-3 ** 0.5 * 0.75) < math.inf


@pytest.mark.parametrize("route,tau", [(lambda t: z_char_surface(1, t), 1e-300),
                                       (lambda t: z_char_surface(3, t), 1e-20),
                                       (z_char_appendix, 1e-20), (z_char_appendix, 1e-300)])
def test_character_sums_refuse_a_tau_over_their_term_budget_before_summing(route, tau):
    # the torus at tau 1e-300 looped over 2.4e151 terms, 10**6 at a time, and
    # the appendix at tau 1e-20 asked numpy for 2.04 TiB (np.arange(nmax))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^tau %s needs \d+ character-sum terms, "
                           r"more than the %d it sums$" % (re_float(tau),
                                                           partition.CHAR_MAX_TERMS)):
            route(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_the_character_term_budget_refuses_only_a_truncation_above_it(monkeypatch):
    # tau 1e-6 sums n = 2j + 1 up to 24 / sqrt(tau) + 1 = 24,001 (torus) and
    # 28,001 (appendix) terms, the most any golden, test or demo sums
    want = z_char_surface(1, 1e-6).value, z_char_appendix(1e-6).value
    for budget, ok in ((24_000, False), (24_001, True), (28_001, True)):
        monkeypatch.setattr(partition, "CHAR_MAX_TERMS", budget)
        if ok:
            assert z_char_surface(1, 1e-6).value == want[0]
        else:
            with pytest.raises(ValueError, match=r"^tau 1e-06 needs 24001 character-sum"):
                z_char_surface(1, 1e-6)
        if budget == 28_001:
            assert z_char_appendix(1e-6).value == want[1]
        else:
            with pytest.raises(ValueError, match=r"^tau 1e-06 needs 28001 character-sum"):
                z_char_appendix(1e-6)


def _appendix_unchunked(tau, nmax):
    j = np.arange(nmax) / 2.0
    tails = np.cumsum(np.exp(-tau * (j * (j + 1.0)))[::-1])[::-1]
    return float(np.sum(tails * tails))


def test_the_appendix_sum_holds_one_chunk_of_terms_at_a_time():
    # 5.1e6 terms: the sum of them all at once peaked at 117 MB
    tracemalloc.start()
    try:
        est = z_char_appendix(3e-11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.meta["truncation"] > 5 * partition.CHAR_CHUNK
    assert peak <= 40e6, peak
    want = _appendix_unchunked(3e-11, est.meta["truncation"])
    assert abs(est.value / want - 1.0) < 1e-15


@pytest.mark.parametrize("chunk", [7, 1000, 14_000, 28_000, 28_001])
def test_the_character_sums_carry_their_tails_across_chunks(monkeypatch, chunk):
    # tau 1e-6: 24,001 surface and 28,001 appendix terms; a chunk of them all
    # is the one-pass sum, bit for bit (the surface adds its chunk sums one
    # by one: 3,429 of them at a chunk of 7)
    want = _appendix_unchunked(1e-6, 28_001), z_char_surface(2, 1e-6).value
    monkeypatch.setattr(partition, "CHAR_CHUNK", chunk)
    got = z_char_appendix(1e-6).value, z_char_surface(2, 1e-6).value
    if chunk >= 28_001:
        assert got == want
    assert abs(got[0] / want[0] - 1.0) < 1e-15 and abs(got[1] / want[1] - 1.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 12, 24, 33])
def test_the_gauss_rule_is_leggauss_built_once_and_read_only(n):
    nodes, weights = partition._gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    again = partition._gauss_legendre(n)
    assert again[0] is nodes and again[1] is weights
    for a in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    assert nodes.tobytes() == ref_nodes.tobytes()


def test_toy_and_dominant_part_keep_their_bits_in_either_order():
    # toy_laplace and torus_dominant_part share the cached rule; whichever
    # builds it first, each keeps its recorded bits
    from foamtor.torsion import torus_dominant_part
    golden = pathlib.Path(__file__).parent / "golden"
    toy = json.loads((golden / "toy.json").read_text())
    quad = json.loads((golden / "torus_grids.json").read_text())["torus_dominant_part_12"]
    taus = np.array(toy["config"]["tau_grid"])
    values = [p["value"] for p in toy["points"]]
    for first in ("toy", "quad"):
        partition._gauss_legendre.cache_clear()
        if first == "quad":
            assert torus_dominant_part(12) == quad
        assert toy_laplace(taus).tolist() == values
        assert torus_dominant_part(12) == quad


def test_usable_cpus_counts_the_cpus_where_the_os_has_no_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1
