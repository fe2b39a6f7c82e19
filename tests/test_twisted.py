import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foamtor.connection import (Connection, analytic_flat, find_flat_batch,
                                flatness_residual, holonomy)
from foamtor.foam import (builtin, parse_foam, serialize_foam, tietze1_expand,
                          tietze2_add_face)
from foamtor.groups import get_group
from foamtor.twisted import (EPS_ABS, EPS_RANK, GAP_WARN, _rank_arrays, build_delta0,
                             build_delta1, cohomology, cohomology_batch, min_b2,
                             sample_flat, svd_rank)

SU2 = get_group("su2")


def test_delta0_trivial_connection_is_zero():
    t = builtin("torus")
    conn = Connection.identity(t, "su2")
    assert np.max(np.abs(build_delta0(conn))) == 0.0


def test_delta0_u1_always_zero():
    rng = np.random.default_rng(0)
    t = builtin("torus")
    conn = Connection.haar(t, "u1", rng)
    assert np.max(np.abs(build_delta0(conn))) == 0.0


def test_delta0_quarter_turn_block():
    # a = exp(i(pi/2) sigma_3): Ad is the half turn about z, I - Ad = diag(2,2,0)
    t = builtin("torus")
    a = SU2.exp(np.array([0.0, 0.0, math.pi / 2]))
    b = SU2.exp(np.array([0.0, 0.0, 0.4]))
    d0 = build_delta0(Connection(t, "su2", np.stack([a, b])))
    assert np.allclose(d0[0:3, :], np.diag([2.0, 2.0, 0.0]), atol=1e-12)


def test_delta1_torus_blocks():
    rng = np.random.default_rng(1)
    s = analytic_flat("torus", rng, psi_a=1.1, psi_b=0.6)
    conn = s
    d1 = build_delta1(conn)
    Ia = np.eye(3) - SU2.adjoint(conn.data[0])
    Ib = np.eye(3) - SU2.adjoint(conn.data[1])
    assert np.allclose(d1[:, 0:3], Ib, atol=1e-12)
    assert np.allclose(d1[:, 3:6], -Ia, atol=1e-12)


def test_delta1_at_trivial_connection_is_cellular():
    from foamtor.foam import cellular_homology
    for name in ("torus", "appendix", "dunce_hat", "projective_plane"):
        foam = builtin(name)
        conn = Connection.identity(foam, "su2")
        d1 = build_delta1(conn)
        d2 = np.array(cellular_homology(foam).boundary2, dtype=float)
        expected = np.kron(d2.T, np.eye(3))
        assert np.allclose(d1, expected, atol=1e-14)


def test_delta1_directional_derivative_oracle():
    # || log(H_f(exp(t u) phi)) / t - (delta1 u)_f || = O(t)
    rng = np.random.default_rng(2)
    for name in ("torus", "genus:2", "appendix"):
        foam = builtin(name)
        s = (analytic_flat(name, rng) if name != "genus:2"
             else find_flat_batch(foam, "su2", rng, 1)[0])
        conn = s
        d1 = build_delta1(conn)
        base = np.concatenate([SU2.log(holonomy(conn, f)) for f in range(foam.F)])
        u = rng.standard_normal(3 * foam.E)
        u /= np.linalg.norm(u)
        errs = []
        for t in (1e-4, 1e-5):
            moved = SU2.mul(SU2.exp(t * u.reshape(foam.E, 3)), conn.data)
            moved_conn = Connection(foam, "su2", moved)
            vec = np.concatenate([
                (SU2.log(holonomy(moved_conn, f))) for f in range(foam.F)])
            errs.append(np.linalg.norm((vec - base) / t - d1 @ u))
        assert errs[0] < 5e-4
        assert errs[0] / errs[1] > 5.0  # first-order convergence


def test_delta1_delta0_vanishes_at_flat_samples():
    rng = np.random.default_rng(3)
    for name in ("torus", "genus:2", "genus:3", "appendix"):
        foam = builtin(name)
        if name == "torus":
            samples = [analytic_flat("torus", rng) for _ in range(100)]
        elif name == "appendix":
            samples = [analytic_flat("appendix", rng, family=fam)
                       for fam in ("irred", "red") for _ in range(50)]
        else:
            samples = find_flat_batch(foam, "su2", rng, 100)
        assert len(samples) >= 95
        for s in samples:
            comp = build_delta1(s) @ build_delta0(s)
            assert np.max(np.abs(comp)) < 1e-10


def test_cohomology_torus_noncentral():
    rng = np.random.default_rng(4)
    rep = cohomology(analytic_flat("torus", rng))
    assert (rep.rank1, rep.betti) == (2, (1, 2, 1))
    assert not rep.regular and rep.reducible and not rep.central
    assert not rep.rank_warning


def test_cohomology_torus_central():
    t = builtin("torus")
    minus = np.array([-1.0, 0.0, 0.0, 0.0])
    plus = np.array([1.0, 0.0, 0.0, 0.0])
    rep = cohomology(Connection(t, "su2", np.stack([minus, plus])))
    assert rep.rank1 == 0 and rep.b2 == 3
    assert rep.central


def test_cohomology_genus2_generic():
    rng = np.random.default_rng(5)
    samples = find_flat_batch(builtin("genus:2"), "su2", rng, 10)
    for s in samples:
        rep = cohomology(s)
        assert rep.betti == (0, 6, 0)
        assert rep.b1 + rep.rank0 == 9  # dim ker delta1 = 6g - 3
        assert rep.regular and not rep.reducible


def test_cohomology_rejects_nonflat():
    rng = np.random.default_rng(6)
    t = builtin("torus")
    conn = Connection.haar(t, "su2", rng)
    with pytest.raises(ValueError, match="not flat"):
        cohomology(conn)


def test_twisted_equals_cellular_times_dimg_at_trivial():
    from foamtor.foam import cellular_homology
    for name in ("sphere", "torus", "genus:2", "appendix", "dunce_hat",
                 "projective_plane"):
        foam = builtin(name)
        cell = cellular_homology(foam).betti
        for group, d in (("su2", 3), ("u1", 1)):
            rep = cohomology(Connection.identity(foam, group))
            assert rep.betti == tuple(d * b for b in cell), (name, group)


def test_gauge_invariance_of_betti():
    from foamtor.connection import gauge_act
    rng = np.random.default_rng(7)
    for name in ("torus", "genus:2", "appendix"):
        foam = builtin(name)
        s = (analytic_flat(name, rng) if name != "genus:2"
             else find_flat_batch(foam, "su2", rng, 1)[0])
        rep = cohomology(s)
        for _ in range(5):
            h = SU2.haar(rng)
            rep2 = cohomology(gauge_act(h, s))
            assert rep2.betti == rep.betti


def test_face_duplication_raises_b2_by_dimg():
    rng = np.random.default_rng(8)
    for name in ("torus", "genus:2", "appendix"):
        foam = builtin(name)
        s = (analytic_flat(name, rng) if name != "genus:2"
             else find_flat_batch(foam, "su2", rng, 1)[0])
        dup = tietze2_add_face(foam, str(foam.faces[0]))
        conn2 = Connection(dup, s.group, s.data)
        rep = cohomology(s)
        rep2 = cohomology(conn2)
        assert rep2.b2 == rep.b2 + 3
        assert rep2.b0 == rep.b0 and rep2.b1 == rep.b1


def test_dunce_hat_b2_zero_at_trivial():
    foam = builtin("dunce_hat")
    rep = cohomology(Connection.identity(foam, "su2"))
    assert rep.b2 == 0  # matches cellular b2 = 0


def test_min_b2_genus_table_small():
    rng = np.random.default_rng(9)
    for g, expected in ((0, 3), (1, 1), (2, 0), (3, 0)):
        report = min_b2("genus:%d" % g, "su2", 12, rng)
        assert report.b2_0 == expected, (g, report.histogram)


def test_min_b2_appendix_strata():
    rng = np.random.default_rng(10)
    report = min_b2("appendix", "su2", 40, rng)
    assert set(report.histogram) == {2, 3}
    assert report.b2_0 == 2
    assert report.stratified
    assert set(report.strata) == {(0, 3), (1, 2)}


def test_min_b2_torus_u1():
    rng = np.random.default_rng(11)
    report = min_b2("torus", "u1", 6, rng)
    assert report.b2_0 == 1
    assert report.histogram == {1: 6}


def test_svd_rank_gap_warning():
    m = np.diag([1.0, 1e-2, 1e-11])
    rank, _, gap, warn = svd_rank(m)
    assert rank == 2 and not warn and gap > 1e8
    # counted and discarded singular values within two decades: flagged
    m = np.diag([1.0, 1e-8, 5e-10])
    rank, _, gap, warn = svd_rank(m)
    assert rank == 2 and warn and gap < 1e2


def _rank_rule(s):
    """The rank rule as it was written per sample, on descending singular values."""
    smax = s[0] if len(s) else 0.0
    if smax <= EPS_ABS:
        return 0, s, np.inf, False
    counted = s > max(EPS_RANK * smax, EPS_ABS)
    rank = int(np.sum(counted))
    if rank == len(s):
        gap = np.inf
    else:
        below = s[rank]
        gap = np.inf if below == 0.0 else float(s[rank - 1] / below) if rank else 0.0
    warn = gap < GAP_WARN or (rank > 0 and s[rank - 1] < GAP_WARN * EPS_ABS)
    return rank, s, gap, warn


def _assert_rank_rule(mats):
    rank, sv, gap, warn = _rank_arrays(mats)
    assert len(rank) == len(sv) == len(gap) == len(warn) == len(mats)
    if mats.shape[-1] * mats.shape[-2] == 0:
        want = [(0, np.zeros(0), np.inf, False)] * len(mats)
    else:
        want = [_rank_rule(s) for s in np.linalg.svd(mats, compute_uv=False)]
    for i, (rank_, sv_, gap_, warn_) in enumerate(want):
        assert (rank[i], gap[i], warn[i]) == (rank_, gap_, bool(warn_))
        assert np.array_equal(sv[i], sv_)
        # a lone matrix is the stack of one, read out as Python scalars
        one = svd_rank(mats[i])
        assert (one[0], one[2], one[3]) == (rank_, gap_, bool(warn_))
        assert np.array_equal(one[1], sv_)
        assert (type(one[0]), type(one[2]), type(one[3])) == (int, float, bool)
    return want


# singular values around every cut of the rule: exact zeros, the absolute
# floor EPS_ABS, the relative threshold EPS_RANK and the GAP_WARN band
_SV_LEVELS = (0.0, 5e-13, 1e-12, 1.0000001e-12, 2e-12, 5e-11, 1e-10, 1.01e-10,
              3e-10, 1e-9, 1e-8, 1e-7, 1e-3, 0.5, 1.0, 2.0)


@st.composite
def _singular_value_stacks(draw):
    n = draw(st.integers(1, 5))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    k = min(rows, cols)
    scale = draw(st.sampled_from((1.0, 1e-3, 3.0)))
    mats = np.zeros((n, rows, cols))
    for i in range(n):
        s = sorted((scale * draw(st.sampled_from(_SV_LEVELS)) for _ in range(k)),
                   reverse=True)
        mats[i, range(k), range(k)] = s
    if draw(st.booleans()) and k:
        # rotate, so LAPACK sees a dense matrix and rounds its values
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        u = np.linalg.qr(rng.standard_normal((n, rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((n, cols, cols)))[0]
        mats = u @ mats @ v
    return mats


@settings(max_examples=300, deadline=None)
@given(_singular_value_stacks())
def test_svd_ranks_follow_the_rank_rule_on_random_stacks(mats):
    _assert_rank_rule(mats)


def test_svd_ranks_cover_every_branch_of_the_rank_rule():
    # one stack whose samples take each branch of the rule
    cases = {
        "zero matrix": [0.0, 0.0, 0.0],
        "below the absolute floor": [5e-13, 1e-13, 0.0],
        "at the absolute floor": [1e-12, 0.0, 0.0],
        "full rank": [2.0, 1.0, 0.5],
        "full rank near the floor": [3e-12, 2e-12, 1.5e-12],
        "discarded exact zero": [1.0, 0.5, 0.0],
        "thin gap": [1.0, 1e-8, 5e-10],
        "wide gap": [1.0, 1e-2, 1e-11],
        "at the relative threshold": [1.0, 1e-9, 1e-13],
        "counted value near the floor": [1e-3, 5e-11, 0.0],
    }
    mats = np.stack([np.diag(s) for s in cases.values()])
    want = _assert_rank_rule(mats)
    ranks = dict(zip(cases, (w[0] for w in want)))
    gaps = dict(zip(cases, (w[2] for w in want)))
    warns = dict(zip(cases, (bool(w[3]) for w in want)))
    assert ranks["zero matrix"] == ranks["below the absolute floor"] == 0
    assert ranks["at the absolute floor"] == 0 and ranks["full rank"] == 3
    assert gaps["full rank"] == gaps["discarded exact zero"] == math.inf
    assert warns["full rank near the floor"] and warns["thin gap"]
    assert warns["counted value near the floor"] and not warns["wide gap"]
    assert ranks["at the relative threshold"] == 1
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        _assert_rank_rule(np.zeros((2, rows, cols)))


def test_euler_identity_exact():
    rng = np.random.default_rng(12)
    for name in ("torus", "genus:2", "appendix", "dunce_hat"):
        foam = builtin(name)
        conn = Connection.identity(foam, "su2")
        rep = cohomology(conn)
        assert rep.b0 - rep.b1 + rep.b2 == 3 * foam.euler


@pytest.mark.parametrize("group", ["su2", "u1"])
@pytest.mark.parametrize("name", ["sphere", "torus", "genus:2", "genus:3", "appendix",
                                  "dunce_hat", "projective_plane"])
def test_cohomology_batch_equals_one_sample_at_a_time(name, group):
    rng = np.random.default_rng(13)
    foam, samples = sample_flat(name, group, 8, rng)
    # the set and the list of its records give the same reports
    assert _reports_json(cohomology_batch(samples)) == _reports_json(
        cohomology_batch(list(samples)))
    samples = [*samples, Connection.identity(foam, group)]
    G = get_group(group)
    d = G.dim_g
    batch = cohomology_batch(samples)
    assert len(batch) == len(samples)
    for s, rep in zip(samples, batch):
        one = cohomology(s)
        assert rep == one
        for attr in ("sv0", "sv1", "delta0", "delta1"):
            assert np.array_equal(getattr(rep, attr), getattr(one, attr)), attr
        # references built one matrix at a time: delta0 edge by edge, delta1
        # by an unbatched face walk, singular values by one SVD each
        data = s.data
        ref0 = np.zeros((d * foam.E, d))
        for e in range(foam.E):
            ref0[d * e:d * e + d] = np.eye(d) - G.adjoint(data[e])
        ref1 = build_delta1(Connection(foam, group, data))
        assert np.array_equal(rep.delta0, ref0)
        assert np.array_equal(rep.delta1, ref1)
        for mat, sv in ((ref0, rep.sv0), (ref1, rep.sv1)):
            if mat.size:
                assert np.array_equal(sv, np.linalg.svd(mat, compute_uv=False))
    if (name, group) == ("appendix", "su2"):
        assert {rep.b0 for rep in batch} == {0, 1, 3}   # irreducible, reducible, trivial


def _reports_json(reports):
    """The JSON text of CohomologyReports, field by field, arrays as lists."""
    return json.dumps([{k: v.tolist() if isinstance(v, np.ndarray) else v
                        for k, v in vars(r).items()} for r in reports])


def test_cohomology_batch_of_nothing_is_empty():
    assert cohomology_batch([]) == []


def test_cohomology_batch_names_the_nonflat_sample():
    rng = np.random.default_rng(14)
    t = builtin("torus")
    samples = [analytic_flat("torus", rng), Connection.haar(t, "su2", rng)]
    with pytest.raises(ValueError, match="connection 1 is not flat"):
        cohomology_batch(samples)
    # the gate is the flatness residual sum_f psi(H_f)^2 against FLAT_TOL = 1e-10
    a = SU2.exp(np.array([0.5, 0.0, 0.0]))
    for eps in (1e-7, 1e-6, 1e-5, 1e-4):
        conn = Connection(t, "su2", np.stack([a, SU2.exp(np.array([0.0, eps, 0.0]))]))
        if flatness_residual(conn) <= 1e-10:
            assert cohomology_batch([conn])
        else:
            with pytest.raises(ValueError, match="not flat"):
                cohomology_batch([conn])


def test_cohomology_batch_refuses_samples_off_one_reduced_foam():
    rng = np.random.default_rng(15)
    t = builtin("torus")
    s = analytic_flat("torus", rng)
    # the same edge elements on the torus with its face doubled: a flat
    # connection of another complex, whose b2 is higher by dim G
    dup = tietze2_add_face(t, "a1 b1 a1^-1 b1^-1")
    c_dup = Connection(dup, "su2", s.data)
    assert cohomology(s).b2 == 1 and cohomology(c_dup).b2 == 4
    for other in (c_dup, Connection.identity(t, "u1")):
        with pytest.raises(ValueError, match="one foam presentation and group"):
            cohomology_batch([s, other])
    # a multi-vertex foam has one gauge block per vertex: reduce it first
    multi = parse_foam("edges: a1 b1 c\nvertices: 2\nedge c: 0 1\n"
                       "face: a1 b1 a1^-1 b1^-1\n")
    with pytest.raises(ValueError, match="2 vertices"):
        cohomology_batch([Connection.identity(multi, "su2")])
    # the same edge ids and face words on one vertex and on two
    one = parse_foam("edges: a c\nface: a a\n")
    two = parse_foam("edges: a c\nvertices: 2\nedge c: 0 1\nface: a a\n")
    with pytest.raises(ValueError, match="one foam presentation and group"):
        cohomology_batch([Connection.identity(one, "su2"), Connection.identity(two, "su2")])


def test_sample_flat_refuses_fewer_than_one_sample():
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            sample_flat("genus:2", "su2", n, np.random.default_rng(0))


def _per_sample_analytic(kind, n, rng):
    """sample_flat's analytic samples built one at a time, each with its own
    draws, its own edge elements and its own residual walk: (data, residual,
    tag) per sample.  This is the construction the batched build replaced."""
    foam = builtin(kind)
    lo, hi = 0.15, math.pi - 0.15

    def axis():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    out = []
    for i in range(n):
        if kind == "torus":
            sign = +1 if i % 2 == 0 else -1
            u = axis()
            pa = rng.uniform(lo, hi)
            pb = rng.uniform(lo, hi)
            data = np.stack([SU2.exp(pa * u), SU2.exp(float(sign) * pb * u)])
            tag = "torus:+" if sign > 0 else "torus:-"
        elif i % 2 == 0:
            sign = +1 if (i // 2) % 2 == 0 else -1
            a = SU2.haar(rng)
            b = SU2.haar(rng)
            data = np.stack([a, b, SU2.identity() * float(sign)])
            tag = "irred"
        else:
            u = axis()
            pa = rng.uniform(lo, hi)
            pb = rng.uniform(lo, hi)
            ph = rng.uniform(lo, hi)
            data = np.stack([SU2.exp(pa * u), SU2.exp(pb * u), SU2.exp(ph * u)])
            tag = "red"
        out.append((data, flatness_residual(Connection(foam, SU2, data)), tag))
    return out


@pytest.mark.parametrize("kind", ["torus", "appendix"])
def test_sample_flat_batched_equals_per_sample_loop(kind):
    for n in (1, 2, 3, 4, 5, 200):
        for seed in (0, 1, 2, 31):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            foam, samples = sample_flat(kind, "su2", n, rng)
            ref = _per_sample_analytic(kind, n, ref_rng)
            assert len(samples) == n
            for s, (data, residual, tag) in zip(samples, ref):
                # bytes, so that -0.0 (the zeros of h = -1) is told from 0.0
                assert s.data.tobytes() == data.tobytes(), (n, seed)
                assert np.float64(s.residual).tobytes() == np.float64(residual).tobytes()
                assert s.component_tag == tag
            assert rng.standard_normal() == ref_rng.standard_normal(), (n, seed)


def test_sample_flat_takes_renamed_builtins_analytically():
    text = serialize_foam(builtin("torus"))
    for name in ("mytorus", "genus3", "appendix"):
        renamed = parse_foam(text, name=name)
        _, samples = sample_flat(renamed, "su2", 6, np.random.default_rng(4))
        _, ref = sample_flat("torus", "su2", 6, np.random.default_rng(4))
        assert [s.component_tag for s in samples] == [s.component_tag for s in ref]
        for s, r in zip(samples, ref):
            assert np.array_equal(s.data, r.data), name


def test_sample_flat_projects_foams_that_are_not_builtins():
    # a relabelled torus and a Tietze-moved torus are not the builtin, whatever
    # their names: they are projected, and keep the torus's b2_0 = 1
    relabelled = parse_foam("edges: x y\nface: x y x^-1 y^-1\n", name="torus")
    moved = tietze1_expand(builtin("torus"), "a1 b1", "c")
    assert moved.name == "genus1"
    for foam in (relabelled, moved):
        report = min_b2(foam, "su2", 20, np.random.default_rng(5))
        assert report.b2_0 == 1 and report.histogram == {1: 20}, foam
        assert report.rank_warnings == 0
        assert all(s.component_tag is None for s in report.samples)


@pytest.mark.parametrize("source, n", [("torus", 200), ("appendix", 200), ("genus:2", 12),
                                       ("genus2_dup.foam", 12)])
def test_min_b2_on_the_stack_equals_the_reports_of_the_sample_records(source, n):
    # min_b2 reads the sampled stack without building sample or report
    # records; its answer is the one rebuilt from sample_flat's records
    if source.endswith(".foam"):
        path = pathlib.Path(__file__).parent / "golden" / source
        source = parse_foam(path.read_text(encoding="utf-8"), name=source)
    report = min_b2(source, "su2", n, np.random.default_rng(3))
    foam, samples = sample_flat(source, "su2", n, np.random.default_rng(3))
    reports = cohomology_batch(samples)
    b2 = [r.b2 for r in reports]
    least = {}
    for s, b in zip(samples, b2):
        least[s.component_tag] = min(b, least.get(s.component_tag, b))
    assert report.histogram == dict(sorted(Counter(b2).items()))
    assert report.strata == dict(sorted(Counter((r.b0, r.b2) for r in reports).items()))
    assert report.b2_0 == min(b2)
    assert report.rank_warnings == sum(r.rank_warning for r in reports)
    assert [(s.b0, s.b2, s.possibly_singular) for s in report.samples] == [
        (r.b0, r.b2, b > least[s.component_tag]) for s, r, b in zip(samples, reports, b2)]
    for flagged, s in zip(report.samples, samples):
        assert flagged.foam == s.foam and flagged.group is s.group
        assert flagged.data.tobytes() == s.data.tobytes()
        assert (flagged.residual, flagged.component_tag) == (s.residual, s.component_tag)
    assert len(report.samples) == len(samples)


def test_sample_flat_returns_the_reduced_input_foam_and_samples_on_their_own():
    # a renamed builtin is sampled analytically on the builtin, and comes
    # back under its own name; a file foam is projected on itself
    renamed = parse_foam(serialize_foam(builtin("appendix")), name="mine.foam")
    foam, samples = sample_flat(renamed, "su2", 4, np.random.default_rng(0))
    assert foam.name == "mine.foam"
    assert all(s.foam is samples[0].foam and s.foam.name == "appendix" for s in samples)
    moved = tietze1_expand(builtin("torus"), "a1 b1", "c")
    foam, samples = sample_flat(moved, "su2", 2, np.random.default_rng(0))
    assert all(s.foam is foam for s in samples)
