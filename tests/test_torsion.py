import dataclasses
import json
import math
import re

import numpy as np
import pytest

from foamtor.connection import (SampleSet, analytic_flat, analytic_flat_batch, find_flat_batch,
                                gauge_act, sample_flat)
from foamtor.foam import builtin
from foamtor.groups import SU2
from foamtor.partition import char_sum_limit
from foamtor.torsion import (SingularSampleError, TorsionValue, _rotation_normals,
                             gaussian_volume, singular_value_torsion, torsion_at,
                             torsion_batch, torus_dominant_part, torus_volume_grid)
from foamtor.twisted import min_b2


def test_basis_independence_genus2():
    rng = np.random.default_rng(0)
    foam = builtin("genus:2")
    s = find_flat_batch(foam, "su2", rng, 1)[0]
    vals = np.array([torsion_at(s, rng).magnitude for _ in range(20)])
    spread = (vals.max() - vals.min()) / vals.mean()
    assert spread < 1e-8


def test_matches_singular_value_route():
    rng = np.random.default_rng(1)
    for name in ("torus", "genus:2", "appendix"):
        foam = builtin(name)
        s = (analytic_flat(name, rng) if name != "genus:2"
             else find_flat_batch(foam, "su2", rng, 1)[0])
        t = torsion_at(s, rng)
        ref = singular_value_torsion(s)
        assert ref.shape == (1,) and abs(t.magnitude - ref[0]) < 1e-10 * ref[0]
    # a set of many rows gives one value per row, each its one-row set's
    samples = sample_flat("appendix", "su2", 6, rng)
    assert singular_value_torsion(samples).tolist() == [
        singular_value_torsion(one)[0] for one in samples]


def test_torus_torsion_is_one():
    # delta0 and delta1 restricted to their coranks both span volume
    # 4(sin^2 psi_a + sin^2 psi_b), so the ratio is exactly 1 on the family
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = analytic_flat("torus", rng)
        t = torsion_at(s, rng)
        assert abs(t.magnitude - 1.0) < 1e-10
        assert t.case == "reducible"


def test_gauge_invariance_of_magnitude():
    rng = np.random.default_rng(3)
    for name in ("torus", "genus:2"):
        foam = builtin(name)
        s = (analytic_flat(name, rng) if name != "genus:2"
             else find_flat_batch(foam, "su2", rng, 1)[0])
        base = torsion_at(s, rng).magnitude
        for _ in range(5):
            h = SU2.haar(rng)
            moved = gauge_act(h, s)
            val = torsion_at(moved, rng).magnitude
            assert abs(val - base) < 1e-10 * base


def test_continuity_along_torus_family():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.3, math.pi - 0.3, 12)
    prev = None
    for pa in grid:
        s = analytic_flat("torus", rng, psi_a=pa, psi_b=1.0, axis=[0, 0, 1])
        val = torsion_at(s, rng).magnitude
        if prev is not None:
            assert abs(val - prev) < 1e-3
        prev = val


def test_genus2_torsion_is_constant_one():
    # observed across both evaluation routes: with orthonormal cochain and
    # harmonic bases the genus-2 magnitude is 1 at every sampled flat point
    # (for genus 3 it varies over moduli, so no analogous pin exists there)
    rng = np.random.default_rng(21)
    foam = builtin("genus:2")
    for s in find_flat_batch(foam, "su2", rng, 5):
        assert abs(torsion_at(s, rng).magnitude - 1.0) < 1e-8


def test_appendix_torsion_closed_forms():
    # On the Abelian stratum a = exp(psi_a n), b = exp(psi_b n), h = exp(psi_h n):
    # the nonzero block of delta0 stacks three perp-plane maps of complex
    # moduli 2 sin psi_x, giving volume 4 (sa^2+sb^2+sh^2); delta1 is the
    # complex 2x3 block [[alpha,0,*],[0,alpha,*]] with |alpha| = 2 sin psi_h,
    # giving 16 sh^2 (sa^2+sb^2+sh^2).  Hence |tor| = 1/(4 sin^2 psi_h) -- the
    # non-integrable density behind the anomalous scaling of this foam.
    rng = np.random.default_rng(22)
    for ph in (0.4, 1.0, 2.3):
        s = analytic_flat("appendix", rng, family="red",
                          psi_a=0.8, psi_b=1.4, psi_h=ph)
        t = torsion_at(s, rng)
        assert t.case == "reducible"
        assert abs(t.magnitude - 1.0 / (4 * math.sin(ph) ** 2)) < 1e-10
    # on the central-h stratum delta0 and delta1 restrict to the same stacked
    # block, so the torsion is 1
    s = analytic_flat("appendix", rng, family="irred")
    t = torsion_at(s, rng)
    assert t.case == "irreducible"
    assert abs(t.magnitude - 1.0) < 1e-10


def test_sphere_torsion_is_one():
    rng = np.random.default_rng(5)
    s = find_flat_batch(builtin("sphere"), "su2", rng, 1)[0]
    t = torsion_at(s, rng)
    assert abs(t.magnitude - 1.0) < 1e-12


def test_refuses_flagged_singular():
    rng = np.random.default_rng(7)
    s = analytic_flat("torus", rng)
    flagged = dataclasses.replace(s, possibly_singular=np.array([True]))
    with pytest.raises(SingularSampleError):
        torsion_at(flagged, rng)


def test_bases_meta_records_dimensions():
    rng = np.random.default_rng(8)
    s = analytic_flat("torus", rng)
    t = torsion_at(s, rng)
    dims = t.bases_meta["dims"]
    assert dims == {"d0": 2, "d1": 2, "h0": 1, "h1": 2, "h2": 1}
    assert (t.b0, t.b1, t.b2) == (1, 2, 1)


def test_gaussian_volume_torus_formula_small_grid():
    rows = torus_volume_grid(8)
    assert max(r[4] for r in rows) < 1e-10


def test_torus_volume_grid_equals_point_by_point_volumes():
    # the stacked grid draws the same axes and gives the same bits as one
    # analytic flat point and one gaussian_volume at a time
    rows = torus_volume_grid(8, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    for pa, pb, vol, _, _ in rows:
        s = analytic_flat("torus", rng, psi_a=pa, psi_b=pb)
        assert [vol] == gaussian_volume(s, rank=2).tolist()


def _volume_grid_per_point(n_grid, rng):
    """torus_volume_grid's rows as they were formed point by point, one
    analytic flat point and gaussian_volume per row."""
    grid = np.linspace(0.1, math.pi - 0.1, n_grid)
    rows = []
    for pa, pb in zip(np.repeat(grid, n_grid).tolist(), np.tile(grid, n_grid).tolist()):
        vol = float(gaussian_volume(analytic_flat("torus", rng, psi_a=pa, psi_b=pb), rank=2)[0])
        formula = 4.0 * (math.sin(pa) ** 2 + math.sin(pb) ** 2)
        rows.append((pa, pb, vol, formula, abs(vol - formula)))
    return rows


def _dominant_part_per_node(n_quad, rng):
    """torus_dominant_part as it summed its quadrature node by node."""
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    psi = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    acc = 0.0
    for k in range(n_quad * n_quad):
        i, j = divmod(k, n_quad)
        s = analytic_flat("torus", rng, psi_a=float(psi[i]), psi_b=float(psi[j]))
        chart = math.sin(psi[i]) ** 2 + math.sin(psi[j]) ** 2
        acc += w[i] * w[j] * chart / float(gaussian_volume(s, rank=2)[0])
    pref = (2.0 * math.pi ** 2) ** -2 * (4.0 * math.pi) ** 2 * 2.0 ** -2
    return pref * 2.0 * (4.0 * math.pi) * acc


def test_torus_chart_rows_keep_the_bits_of_the_per_point_loops():
    # rows and quadrature terms are formed as arrays, the sum still in node order
    for n, seed in ((1, 0), (2, 3), (8, 0), (30, 2), (31, 7)):
        rows = torus_volume_grid(n, np.random.default_rng(seed))
        want = _volume_grid_per_point(n, np.random.default_rng(seed))
        assert rows == want, (n, seed)
        assert all(type(x) is float for row in rows for x in row)
    for n, seed in ((1, 1), (5, 1), (12, 1), (24, 9)):
        value = torus_dominant_part(n, np.random.default_rng(seed))
        assert value == _dominant_part_per_node(n, np.random.default_rng(seed)), (n, seed)
        assert type(value) is float


def test_gaussian_volume_respects_fixed_rank():
    rng = np.random.default_rng(9)
    s = analytic_flat_batch("torus", rng, [1, -1, 1], psi_a=0.02, psi_b=0.03)  # near-central
    vol = gaussian_volume(s, rank=2)
    target = 4 * (math.sin(0.02) ** 2 + math.sin(0.03) ** 2)
    assert vol.shape == (3,) and np.max(np.abs(vol - target)) < 1e-12
    # one value per row, each its one-row set's
    assert vol.tolist() == [gaussian_volume(one, rank=2)[0] for one in s]


def test_gaussian_volume_refuses_a_rank_delta1_cannot_have():
    # on the torus delta1 is 3 x 6, so it has 3 singular values: rank 5 used
    # to give the rank-3 product and rank -1 the rank-2 volume
    s = analytic_flat("torus", np.random.default_rng(9))
    for rank in (-1, 4, 5):
        with pytest.raises(ValueError, match="rank %d " % rank):
            gaussian_volume(s, rank)
    assert gaussian_volume(s, 0).tolist() == [1.0]
    assert gaussian_volume(s, 3)[0] < 1e-12 < gaussian_volume(s, 2)[0]


def test_torus_dominant_part_matches_character_limit():
    # both routes independently produce the tau->0 constant of Z_tau(torus)
    limit = char_sum_limit(1)
    quad = torus_dominant_part(n_quad=16)
    assert abs(limit - 2 * math.pi) < 1e-5
    assert abs(quad - limit) < 1e-3 * abs(limit)


@pytest.mark.parametrize("n_quad", [0, -3, 2.5, 2.0, "24"])
def test_torus_dominant_part_refuses_a_quadrature_order_by_name(n_quad):
    # numpy's leggauss said "deg must be a positive integer" or raised a
    # TypeError, neither naming n_quad
    with pytest.raises(ValueError, match=r"^n_quad %s is not a positive integer$"
                       % re.escape(repr(n_quad))):
        torus_dominant_part(n_quad)


@pytest.mark.parametrize("n_grid", [0, -3, 2.5, 2.0, "8"])
def test_torus_volume_grid_refuses_a_grid_size_by_name(n_grid):
    # 0 gave no rows, so no maximum error, and 2.5 numpy's unnamed TypeError
    with pytest.raises(ValueError, match=r"^n_grid %s is not a positive integer$"
                       % re.escape(repr(n_grid))):
        torus_volume_grid(n_grid)


@pytest.mark.parametrize("ks", [(1, 2, 0, 3, 1), (0, 0, 0, 0, 0), (3, 3, 0, 0, 2),
                                (0, 6, 3, 0, 0), (4, 0, 0, 0, 0)])
def test_one_rotation_draw_per_sample_is_the_stream_of_one_draw_per_block(ks):
    # the basis pipeline draws d^0, d^1, h^0, h^2, h^1's normals in one call
    # per sample; they must be those of five sequential (k, k) draws
    seeds = np.random.default_rng(sum(ks)).integers(2 ** 32, size=40).tolist()
    got = _rotation_normals(seeds, ks)
    assert [b.shape for b in got] == [(len(seeds), k, k) for k in ks]
    for i, seed in enumerate(seeds):
        sub = np.random.default_rng(seed)
        for block, k in zip(got, ks):
            assert np.array_equal(block[i], sub.standard_normal((k, k)))


def test_torsion_batch_refuses_only_the_refused_samples():
    rng = np.random.default_rng(23)
    good = [analytic_flat("torus", rng) for _ in range(3)]
    flagged = dataclasses.replace(good[0], possibly_singular=np.array([True]))
    # near-central: the counted singular values sit at the SVD noise floor
    thin = analytic_flat("torus", rng, psi_a=2e-11, psi_b=3e-11)
    samples = [good[0], flagged, good[1], thin, good[2]]
    got = torsion_batch(_stacked(samples), np.random.default_rng(5))
    assert [type(v) for v in got] == [TorsionValue, SingularSampleError, TorsionValue,
                                      SingularSampleError, TorsionValue]
    assert "possibly singular" in str(got[1]) and "ill-conditioned" in str(got[3])
    # the per-sample loop: refused samples draw no seed
    ref_rng = np.random.default_rng(5)
    for s, v in zip(samples, got):
        if isinstance(v, TorsionValue):
            assert v == torsion_at(s, ref_rng)
    seeds = np.random.default_rng(5)
    assert [v.bases_meta["seed"] for v in got if isinstance(v, TorsionValue)] == \
        [int(seeds.integers(2 ** 32)) for _ in range(3)]


def _stacked(rows):
    """One SampleSet of one-row sets on one foam, with their possibly_singular flags."""
    flags = [r.possibly_singular is not None and bool(r.possibly_singular[0]) for r in rows]
    return SampleSet(rows[0].foam, rows[0].group, np.concatenate([r.g for r in rows]),
                     possibly_singular=np.array(flags))


def _torsion_json(values):
    return json.dumps([dataclasses.asdict(v) if isinstance(v, TorsionValue)
                       else {"error": str(v)} for v in values])


@pytest.mark.parametrize("name,n", [("torus", 8), ("appendix", 24), ("genus:2", 6)])
def test_torsion_batch_of_a_sample_set_writes_what_its_records_give(name, n):
    # a classified SampleSet, and the same set with one more sample flagged,
    # give the JSON of their rows rebuilt as a new set: the same refusals,
    # seeds and values, whether delta1 comes off the set's walk or a fresh one
    samples = min_b2(name, "su2", n, np.random.default_rng(3)).samples
    flags = samples.possibly_singular.copy()
    flags[1] = True
    for s in (samples, dataclasses.replace(samples, possibly_singular=flags)):
        got = _torsion_json(torsion_batch(s, np.random.default_rng(5)))
        fresh = SampleSet(s.foam, s.group, s.g, tags=s.tags,
                          possibly_singular=s.possibly_singular)
        assert got == _torsion_json(torsion_batch(fresh, np.random.default_rng(5)))
    assert "possibly singular" in got


def test_singular_value_torsion_refuses_a_connection_that_is_not_flat():
    torus = builtin("torus")
    conn = SampleSet.haar(torus, "su2", np.random.default_rng(8), 1)
    with pytest.raises(ValueError, match="not flat"):
        singular_value_torsion(conn)


def test_torsion_batch_keeps_input_order_across_completion_groups():
    # the appendix foam's irreducible and reducible samples complete their
    # bases in two stacked groups; refusals before the seed draw sit between
    from foamtor.twisted import cohomology
    rng = np.random.default_rng(31)
    irred = [analytic_flat("appendix", rng, family="irred", sign=(-1) ** i) for i in range(3)]
    red = [analytic_flat("appendix", rng, family="red") for _ in range(3)]
    flagged = dataclasses.replace(red[0], possibly_singular=np.array([True]))
    thin = analytic_flat("appendix", rng, family="red", psi_a=2e-11, psi_b=3e-11,
                         psi_h=1e-11)
    samples = [red[0], irred[0], flagged, irred[1], red[1], thin, red[2], irred[2]]
    got = torsion_batch(_stacked(samples), np.random.default_rng(5))
    refused = {2: "possibly singular", 5: "ill-conditioned"}
    # the one-sample-at-a-time loop drew one seed per accepted sample, in order
    seeds = np.random.default_rng(5)
    for i, (s, v) in enumerate(zip(samples, got)):
        if i in refused:
            assert isinstance(v, SingularSampleError) and refused[i] in str(v)
            continue
        rep = cohomology(s)
        assert (v.b0, v.b1, v.b2) == rep.betti
        assert v.case == ("irreducible" if rep.b0 == 0 else "reducible")
        assert abs(v.magnitude - singular_value_torsion(s)[0]) <= 1e-10 * v.magnitude
        assert v.bases_meta["seed"] == int(seeds.integers(2 ** 32))
    assert {v.b0 for v in got if isinstance(v, TorsionValue)} == {0, 1}
