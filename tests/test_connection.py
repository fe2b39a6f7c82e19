import hashlib
import math
import warnings

import numpy as np
import pytest

from foamtor.cli import main
from foamtor.connection import (PROJECT_TOL, Connection, FlatSample, SampleSet,
                                analytic_flat, analytic_flat_batch, find_flat_batch,
                                flatness_residual, gauge_act, holonomy, holonomy_word,
                                word_jacobian)
from foamtor.foam import builtin, parse_foam, serialize_foam
from foamtor.groups import EPS_LOG, get_group, su2_mul
from foamtor.twisted import cohomology, sample_flat

SU2 = get_group("su2")


def naive_holonomy(foam, conn, f):
    """Independent oracle: re-parse the face word and multiply element by element."""
    G = conn.group
    acc = G.identity()
    for letter in foam.faces[f].letters:
        g = conn[letter.edge]
        acc = G.mul(acc, g if letter.exponent == 1 else G.inv(g))
    return acc


def test_holonomy_torus_is_group_commutator():
    rng = np.random.default_rng(0)
    t = builtin("torus")
    conn = Connection.haar(t, "su2", rng)
    a, b = conn.data
    expected = su2_mul(su2_mul(a, b), su2_mul(SU2.inv(a), SU2.inv(b)))
    assert np.max(np.abs(holonomy(conn, 0) - expected)) < 1e-12


def test_holonomy_empty_word_is_identity():
    rng = np.random.default_rng(1)
    s = builtin("sphere")
    conn = Connection.haar(s, "su2", rng)
    assert np.max(np.abs(holonomy(conn, 0) - SU2.identity())) <= 1e-12


def test_holonomy_matches_naive_oracle_on_builtins():
    rng = np.random.default_rng(2)
    for name in ("torus", "genus:2", "genus:3", "appendix", "dunce_hat",
                 "projective_plane"):
        foam = builtin(name)
        conn = Connection.haar(foam, "su2", rng)
        for f in range(foam.F):
            assert np.max(np.abs(holonomy(conn, f) - naive_holonomy(foam, conn, f))) <= 1e-12


def test_holonomy_gauge_covariance():
    rng = np.random.default_rng(3)
    foam = builtin("genus:2")
    for _ in range(10):
        conn = Connection.haar(foam, "su2", rng)
        h = SU2.haar(rng)
        lhs = holonomy(gauge_act(h, conn), 0)
        rhs = SU2.mul(SU2.mul(h, holonomy(conn, 0)), SU2.inv(h))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_residual_commuting_pair_is_flat():
    t = builtin("torus")
    n = np.array([0.3, -0.5, 0.7])
    n /= np.linalg.norm(n)
    conn = Connection(t, "su2", np.stack([SU2.exp(1.2 * n), SU2.exp(0.4 * n)]))
    assert flatness_residual(conn) < 1e-15


def test_residual_quarter_turn_pair():
    # a = exp(i(pi/2) sigma_3), b = exp(i(pi/2) sigma_1); by direct quaternion
    # algebra ab = -ba, so [a, b] = -1 with class angle pi and residual pi^2
    t = builtin("torus")
    a = SU2.exp(np.array([0.0, 0.0, math.pi / 2]))
    b = SU2.exp(np.array([math.pi / 2, 0.0, 0.0]))
    conn = Connection(t, "su2", np.stack([a, b]))
    h = holonomy(conn, 0)
    assert abs(h[0] + 1.0) < 1e-12
    assert abs(flatness_residual(conn) - math.pi ** 2) < 1e-10


def test_residual_sphere_always_zero():
    rng = np.random.default_rng(4)
    s = builtin("sphere")
    assert flatness_residual(Connection.haar(s, "su2", rng)) == 0.0


def test_gauge_act_trivial_and_central():
    rng = np.random.default_rng(5)
    foam = builtin("genus:2")
    conn = Connection.haar(foam, "su2", rng)
    for h in (SU2.identity(), np.array([-1.0, 0.0, 0.0, 0.0])):
        moved = gauge_act(h, conn)
        assert np.max(np.abs(moved.data - conn.data)) < 1e-12


def test_gauge_invariance_of_residual():
    rng = np.random.default_rng(6)
    foam = builtin("genus:2")
    for _ in range(20):
        conn = Connection.haar(foam, "su2", rng)
        h = SU2.haar(rng)
        assert abs(flatness_residual(gauge_act(h, conn))
                   - flatness_residual(conn)) < 1e-12


def test_find_flat_genus2_success_rate():
    rng = np.random.default_rng(7)
    samples = find_flat_batch(builtin("genus:2"), "su2", rng, 100)
    assert len(samples) >= 95
    assert all(s.residual < 1e-10 for s in samples)


def test_find_flat_torus_lands_on_commuting_pairs():
    # distance([a,b]) < 1e-7 needs residual = distance^2 below 1e-14, which
    # the projection tolerance 1e-24 is
    rng = np.random.default_rng(8)
    t = builtin("torus")
    samples = find_flat_batch(t, "su2", rng, 20)
    assert len(samples) >= 18
    for s in samples:
        assert SU2.distance(holonomy(s, 0)) < 1e-7


def test_descent_is_monotone_per_sample():
    rng = np.random.default_rng(16)
    trace = []
    find_flat_batch(builtin("genus:2"), "su2", rng, 8, trace=trace)
    res = np.stack(trace)
    assert np.all(np.diff(res, axis=0) <= 0.0)


def test_dunce_hat_projection_reaches_clean_flat_points():
    # on <a | a a a^-1> a gradient step of length 1 maps a to a^-1 at constant
    # residual, so first-order descent stalled here; stopping just under tol
    # left delta0 on the SVD noise floor (b1 < 0 with rank warnings)
    foam = builtin("dunce_hat")
    trace = []
    samples = find_flat_batch(foam, "su2", np.random.default_rng(0), 40, trace=trace)
    assert len(samples) == 40
    # once all samples are under the tolerance, one more step polishes them
    assert np.all(trace[-2] <= 1e-24) and np.all(trace[-1] < trace[-2])
    for s in samples:
        rep = cohomology(s)
        assert rep.betti == (3, 0, 0) and not rep.rank_warning


def test_projection_stops_at_nonflat_critical_points():
    # <e | e^2, e^-1, e^6>: J J^T is singular (the faces constrain one edge
    # three times) and the residual has non-flat local minima where 6 psi
    # wraps; starts caught there must end the run instead of using MAX_ITERS
    foam = parse_foam("edges: e\nface: e e\nface: e^-1\nface: e e e e e e\n")
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = find_flat_batch(foam, "su2", np.random.default_rng(1), 10, trace=trace)
    assert len(trace) < 100
    assert len(samples) < 10 and all(s.residual <= 1e-24 for s in samples)


def test_a_start_on_the_cut_locus_is_projected_like_any_other(monkeypatch):
    # theta = pi/2 on <a | a a>: the holonomy pi is on the cut locus, where
    # the residual reads inf, and the first step the log gives is accepted
    u1 = get_group("u1")
    monkeypatch.setattr(u1, "haar", staticmethod(
        lambda rng, shape=(), out=None: np.full(tuple(shape) + (1,), 0.5 * np.pi)))
    foam = builtin("projective_plane")
    start = Connection(foam, u1, [[0.5 * np.pi]])
    assert u1.distance(holonomy(start, 0)) > np.pi - EPS_LOG
    samples = find_flat_batch(foam, u1, np.random.default_rng(0), 3)
    assert len(samples) == 3
    assert all(s.residual <= PROJECT_TOL and flatness_residual(s) <= PROJECT_TOL
               for s in samples)


def test_starts_that_never_leave_the_cut_locus_are_dropped(monkeypatch, capsys):
    # a = i on <a | a a>: the holonomy is exactly -1 and its log 0, so every
    # step is the zero step, rejected until the damping cap stalls the start
    monkeypatch.setattr(SU2, "haar", staticmethod(
        lambda rng, shape=(), out=None: np.broadcast_to([0.0, 1.0, 0.0, 0.0],
                                                        tuple(shape) + (4,)).copy()))
    trace = []
    samples = find_flat_batch(builtin("projective_plane"), SU2,
                              np.random.default_rng(0), 4, trace=trace)
    assert len(samples) == 0
    assert len(trace) < 100 and np.all(np.isinf(trace[-1]))
    # with every start dropped, no flat sample is kept: a refusal, exit 2
    with pytest.raises(RuntimeError, match="no flat connection found within budget"):
        sample_flat("projective_plane", SU2, 4, np.random.default_rng(0))
    assert main(["analyze", "--foam", "projective_plane", "--samples", "4"]) == 2
    assert capsys.readouterr().err == "error: no flat connection found within budget\n"


@pytest.mark.parametrize("name,group", [
    ("genus:2", "su2"), ("appendix", "su2"), ("dunce_hat", "su2"),
    ("projective_plane", "su2"), ("torus", "u1"), ("projective_plane", "u1")])
def test_word_jacobian_matches_finite_differences(name, group):
    # H_f(exp(eps v) g) H_f(g)^-1 = exp(eps (J v)_f + O(eps^2)) at any point
    rng = np.random.default_rng(18)
    foam = builtin(name)
    G = get_group(group)
    conn = Connection.haar(foam, G, rng)
    H, J = word_jacobian(G, foam.words_idx, conn.data)
    for f in range(foam.F):
        assert np.max(np.abs(H[f] - holonomy(conn, f))) == 0.0
    if not (name == "torus" and group == "u1"):     # abelian torus: always flat
        assert flatness_residual(conn) > 1e-3
    v = rng.standard_normal(G.dim_g * foam.E)
    v /= np.linalg.norm(v)
    for eps in (1e-4, 1e-5, 1e-6):
        moved = G.mul(G.exp(eps * v.reshape(foam.E, G.dim_g)), conn.data)
        H_eps, _ = word_jacobian(G, foam.words_idx, moved)
        fd = G.log(G.mul(H_eps, G.inv(H))).reshape(-1) / eps
        assert np.linalg.norm(fd - J @ v) < 10.0 * eps


def test_word_jacobian_batched_equals_stacked_single_calls():
    rng = np.random.default_rng(19)
    for name in ("genus:2", "appendix", "projective_plane"):
        foam = builtin(name)
        g = SU2.haar(rng, (2, 3, foam.E))
        H, J = word_jacobian(SU2, foam.words_idx, g)
        assert H.shape == (2, 3, foam.F, 4)
        assert J.shape == (2, 3, 3 * foam.F, 3 * foam.E)
        for idx in np.ndindex(2, 3):
            H1, J1 = word_jacobian(SU2, foam.words_idx, g[idx])
            assert np.array_equal(H[idx], H1) and np.array_equal(J[idx], J1)


def test_find_flat_sphere_trivial():
    rng = np.random.default_rng(9)
    s = find_flat_batch(builtin("sphere"), "su2", rng, 1)[0]
    assert s.residual == 0.0


@pytest.mark.parametrize("group", ["su2", "u1"])
@pytest.mark.parametrize("name", ["sphere", "genus:2", "dunce_hat"])
def test_find_flat_batch_of_no_starts_is_empty_and_a_negative_count_is_refused(name, group):
    # zero starts raised numpy's "cannot reshape array of size 0" from the
    # curvature of an empty batch on every foam with edges and faces, and a
    # negative count numpy's "negative dimensions are not allowed"
    foam = builtin(name)
    assert len(find_flat_batch(foam, group, np.random.default_rng(0), 0)) == 0
    with pytest.raises(ValueError, match="number of starts.*-1"):
        find_flat_batch(foam, group, np.random.default_rng(0), -1)


def test_find_flat_u1_any_start_is_flat():
    rng = np.random.default_rng(10)
    samples = find_flat_batch(builtin("torus"), "u1", rng, 5)
    assert all(s.residual < 1e-30 for s in samples)


def test_analytic_flat_torus():
    rng = np.random.default_rng(11)
    s = analytic_flat("torus", rng, psi_a=1.0, psi_b=0.5, axis=[0, 0, 1], sign=+1)
    assert s.residual < 1e-15
    assert s.component_tag == "torus:+"
    s2 = analytic_flat("torus", rng, psi_a=1.0, psi_b=0.5, sign=-1)
    assert s2.residual < 1e-15 and s2.component_tag == "torus:-"


def test_analytic_flat_appendix_families():
    rng = np.random.default_rng(12)
    irred = analytic_flat("appendix", rng, family="irred", sign=-1)
    assert irred.residual < 1e-15
    assert abs(irred["h"][0] + 1.0) < 1e-15
    red = analytic_flat("appendix", rng, family="red")
    assert red.residual < 1e-15
    assert red.component_tag == "red"


def test_analytic_flat_rejects_unknown():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError):
        analytic_flat("dunce_hat", rng)
    with pytest.raises(ValueError):
        analytic_flat("appendix", rng, family="nope")
    # the sphere and genus g >= 2 have no analytic family: find_flat_batch projects
    for name in ("sphere", "genus:0", "genus:2"):
        with pytest.raises(ValueError, match="no analytic flat family"):
            analytic_flat(name, rng)


def test_analytic_flat_refuses_parameters_its_family_does_not_use():
    # a knob the family ignores is refused by name, before anything is drawn
    rng = np.random.default_rng(16)
    cases = [("torus", {"psi_h": 0.3}, "psi_h"),
             ("torus", {"family": "red"}, "family"),
             ("appendix", {"psi_a": 0.4}, "psi_a"),            # 'irred' by default
             ("appendix", {"family": "irred", "psi_b": 0.4}, "psi_b"),
             ("appendix", {"family": "irred", "psi_h": 0.4}, "psi_h"),
             ("appendix", {"family": "irred", "axis": [0, 0, 1]}, "axis"),
             ("appendix", {"family": "red", "sign": -1}, "sign")]
    for name, kwargs, param in cases:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=param):
            analytic_flat(name, rng, **kwargs)
        assert rng.bit_generator.state == state


def test_analytic_flat_batch_refuses_parameters_no_sample_uses():
    # these were ignored in silence: the torus reads no psi_h or families, an
    # all-'irred' appendix batch no angle or axis, and a 'red' sample no sign
    rng = np.random.default_rng(16)
    cases = [("torus", [1, -1], None, {"psi_h": 0.3}, "psi_h"),
             ("torus", [1, -1], ["red", "red"], {}, "families"),
             ("appendix", [1, -1], ["irred", "irred"], {"psi_a": 0.4}, "psi_a"),
             ("appendix", [1], ["irred"], {"psi_b": 0.4, "psi_h": 0.2}, "psi_b, psi_h"),
             ("appendix", [1, 1], ["irred", "irred"], {"axis": [0, 0, 1]}, "axis"),
             ("appendix", [1, -1], ["irred", "red"], {}, "sign"),
             ("appendix", [-1], ["red"], {"psi_a": 0.4}, "sign")]
    for kind, signs, families, kwargs, param in cases:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=param):
            analytic_flat_batch(kind, rng, signs, families, **kwargs)
        assert rng.bit_generator.state == state
    # once one sample is 'red', the angles and axis are its own
    mixed = analytic_flat_batch("appendix", rng, [1, 1], ["irred", "red"], psi_a=0.4,
                                axis=[0, 0, 1])
    assert mixed[1].residual < 1e-15


def test_analytic_flat_batch_refuses_mismatched_or_non_finite_arguments_before_drawing():
    # families longer than signs let a bare StopIteration escape, shorter ones
    # sent uninitialized normals to su2_normalize (a RuntimeWarning, then an
    # IndexError), and an infinite angle or axis drew and warned before the
    # element check refused it
    rng = np.random.default_rng(17)
    cases = [("appendix", [1], ["irred", "red"], {}, "families"),
             ("appendix", [1, 1, 1], ["irred"], {}, "families"),
             ("torus", [1, -1], None, {"psi_a": np.inf}, "psi_a"),
             ("torus", [1], None, {"psi_b": np.nan}, "psi_b"),
             ("appendix", [1], ["red"], {"psi_h": -np.inf}, "psi_h"),
             ("torus", [1, -1], None, {"axis": [np.inf, 0, 0]}, "axis"),
             ("appendix", [1, 1], ["irred", "red"], {"axis": [0, np.nan, 1]}, "axis")]
    for kind, signs, families, kwargs, param in cases:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=param):
            analytic_flat_batch(kind, rng, signs, families, **kwargs)
        assert rng.bit_generator.state == state, (kind, param)


def _fields(sample):
    """Every field of a FlatSample, data and residual as bytes (-0.0 is not 0.0)."""
    conn = sample
    return (conn.foam, conn.group, conn.data.shape, conn.data.tobytes(),
            np.float64(sample.residual).tobytes(), type(sample.residual), sample.b0,
            sample.b2, sample.component_tag, sample.possibly_singular)


def test_analytic_flat_batch_equals_single_calls_field_for_field():
    # draws come in one call per sample and irred normals are normalized in
    # one pass; each sample keeps the draws and bits of analytic_flat
    fams = ["irred", "irred", "red", "irred", "irred", "irred", "red", "irred"]
    signs = [1, -1, 1, -1, 1, 1, 1, -1]
    cases = [("appendix", signs, fams, {}),
             ("appendix", signs, fams, {"psi_a": 0.4, "psi_h": 1.1}),
             ("appendix", signs, fams, {"psi_b": 2.0, "axis": [0.0, 3.0, 4.0]}),
             ("appendix", signs, fams, {"psi_a": 0.4, "psi_b": 0.5, "psi_h": 0.6}),
             ("appendix", [1, -1, -1], ["irred"] * 3, {}),
             ("appendix", [1] * 4, ["red"] * 4, {}),
             ("torus", signs, None, {"psi_b": 0.7}),
             ("torus", signs, None, {"axis": [0.3, -1.2, 2.0]}),
             ("torus", signs, None, {"psi_a": 0.2, "psi_b": 0.3}),
             ("torus", signs, None, {"psi_a": 0.2, "psi_b": 0.3, "axis": [1.0, 1.0, 0.0]})]
    for seed in (0, 5):
        for kind, sgns, families, fixed in cases:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = analytic_flat_batch(kind, rng, sgns, families, **fixed)
            singles = []
            for i, sign in enumerate(sgns):
                family = None if families is None else families[i]
                kwargs = {} if family == "irred" else fixed
                singles.append(analytic_flat(kind, ref_rng, sign, family, **kwargs))
            assert list(map(_fields, batch)) == list(map(_fields, singles)), (kind, fixed)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_sample_set_refuses_a_row_that_is_not_an_element_naming_its_edge():
    # one element check over every row of the stack, refusing as Connection does
    appendix = builtin("appendix")
    g = SU2.haar(np.random.default_rng(1), (4, 3))
    for i, e, name in ((0, 0, "a"), (2, 2, "h"), (3, 1, "b")):
        bad = np.array(g)
        bad[i, e] *= 1.5
        with pytest.raises(ValueError, match="^edge '%s' carries .* not an element of su2$"
                           % name):
            SampleSet(appendix, SU2, bad, np.zeros(4), (None,) * 4)
    assert [c.data.tolist() for c in SampleSet(appendix, SU2, g, np.zeros(4), (None,) * 4)] \
        == g.tolist()
    # like Connection, a set takes its group by name and its rows as lists
    listed = SampleSet(appendix, "su2", g.tolist(), [0.0] * 4, (None,) * 4)
    assert listed.group is SU2 and listed.g.tobytes() == g.tobytes()
    # a zero axis puts NaN rows in an analytic batch
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^edge 'a1' carries "):
            analytic_flat_batch("torus", np.random.default_rng(0), [1, -1], axis=[0, 0, 0])


# SHA-256 over each record's data bytes, residual bytes and repr(tag), in
# order, recorded from the FlatSample lists the builders returned before
# they returned a SampleSet
SET_BUILDS = {
    "find_flat_batch genus:2 su2": (
        lambda: find_flat_batch("genus:2", "su2", np.random.default_rng(5), 6),
        "f288bcbf5b7327af224c2d1d6690428d09e0cec330c0893f75fe19120ec98436"),
    "find_flat_batch torus u1": (
        lambda: find_flat_batch("torus", "u1", np.random.default_rng(6), 4),
        "6702e170883e1ca3bd029dbfb443dd0e8e44f347a2a749a02923464c10b2794b"),
    "analytic_flat_batch torus": (
        lambda: analytic_flat_batch("torus", np.random.default_rng(7), [1, -1, -1, 1]),
        "7e681349df3195cffb51d85cb21750ab135c9058a0752c79e2d43705c71a4d95"),
    "analytic_flat_batch appendix": (
        lambda: analytic_flat_batch("appendix", np.random.default_rng(8), [1, 1, -1, 1, -1],
                                    ["irred", "red", "irred", "red", "irred"]),
        "91f1c1b00dbdf9c6511cbe671c05a087def6f7204e9f4b75fc51ebd7e7c785ca"),
    "sample_flat appendix": (
        lambda: sample_flat("appendix", "su2", 6, np.random.default_rng(9))[1],
        "67bf4b850bb92733a118cdfc20dc0381bbf76156a4dd8d5016f6bc4d8f2c2075"),
    "sample_flat dunce_hat": (
        lambda: sample_flat("dunce_hat", "su2", 5, np.random.default_rng(10))[1],
        "25b0d39f80d876d98aab39be658901fb7b6b93a8fd1225dbe75fff2b02aa48ee"),
}


@pytest.mark.parametrize("build", sorted(SET_BUILDS))
def test_a_sample_set_gives_the_records_of_its_rows(build):
    make, pin = SET_BUILDS[build]
    samples = make()
    assert type(samples) is SampleSet and len(samples) == len(samples.g) > 0
    records = list(samples)
    digest = hashlib.sha256()
    for i, s in enumerate(records):
        assert type(s) is FlatSample and s.foam is samples.foam and s.group is samples.group
        assert _fields(s) == _fields(samples[i]) == _fields(samples[i - len(samples)])
        assert s.data.tobytes() == samples.g[i].tobytes()
        assert (s.b0, s.b2, s.component_tag, s.possibly_singular) == (
            None, None, samples.tags[i], False)
        digest.update(s.data.tobytes() + np.float64(s.residual).tobytes()
                      + repr(s.component_tag).encode())
    assert digest.hexdigest() == pin
    # a slice is the SampleSet of those rows, its walk sliced with them
    for a, b in ((0, 2), (1, None), (-2, None), (3, 1)):
        part = samples[a:b]
        assert type(part) is SampleSet and part.foam is samples.foam
        assert list(map(_fields, part)) == list(map(_fields, records[a:b]))
        for column in ("H", "delta1", "frames"):
            whole = getattr(samples, column)
            assert (getattr(part, column) is None) if whole is None else (
                getattr(part, column).tobytes() == whole[a:b].tobytes())
    with pytest.raises(IndexError):
        samples[len(samples)]


def test_analytic_flat_recognises_a_foam_by_structure():
    # a renamed copy of a builtin takes the builtin's family with the same
    # bits; a Foam argument used to fail on foam_name.lower()
    for name, kwargs in (("torus", {}), ("appendix", {"family": "red"})):
        mine = parse_foam(serialize_foam(builtin(name)), name="mine")
        a = analytic_flat(mine, np.random.default_rng(3), **kwargs)
        b = analytic_flat(name, np.random.default_rng(3), **kwargs)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.residual == b.residual and a.component_tag == b.component_tag


def test_holonomy_word_refuses_an_edge_the_foam_lacks():
    from foamtor.foam import FaceWord, FoamError, Letter
    conn = analytic_flat("torus", np.random.default_rng(17))
    with pytest.raises(FoamError, match="'zz'"):
        holonomy_word(conn, FaceWord((Letter("a1", 1), Letter("zz", -1))))


def test_holonomy_word_takes_a_word_as_a_string():
    # read by foam._as_word, as verify_redundancy and the Tietze moves read it
    conn = analytic_flat("torus", np.random.default_rng(17))
    got = holonomy_word(conn, "a1 b1 a1^-1 b1^-1")
    assert got.tobytes() == holonomy(conn, 0).tobytes()
    from foamtor.foam import FaceWord, Letter
    want = holonomy_word(conn, FaceWord((Letter("b1", -1), Letter("a1", 1))))
    assert holonomy_word(conn, "b1^-1 a1").tobytes() == want.tobytes()


def test_holonomy_word_arbitrary():
    from foamtor.foam import FaceWord, Letter
    rng = np.random.default_rng(14)
    foam = builtin("appendix")
    conn = Connection.haar(foam, "su2", rng)
    w = FaceWord((Letter("a", 1), Letter("h", -1), Letter("b", 1)))
    expected = SU2.mul(SU2.mul(conn["a"], SU2.inv(conn["h"])), conn["b"])
    assert np.max(np.abs(holonomy_word(conn, w) - expected)) < 1e-12


def test_connection_json():
    rng = np.random.default_rng(15)
    conn = Connection.haar(builtin("appendix"), "su2", rng)
    js = conn.to_json()
    assert set(js) == {"a", "b", "h"}
    s = analytic_flat("torus", rng)
    payload = s.to_json()
    assert payload["residual"] < 1e-14 and "component_tag" in payload


def test_analytic_flat_refuses_a_sign_other_than_plus_or_minus_one():
    # h = sign * identity is an SU(2) element only for sign = +-1, and the
    # torus branch b = exp(sign psi_b n) is one of two; refused before any draw
    rng = np.random.default_rng(17)
    state = rng.bit_generator.state
    for sign in (0, 0.5, -2, 1.5):
        with pytest.raises(ValueError, match="sign"):
            analytic_flat("torus", rng, sign=sign)
        with pytest.raises(ValueError, match="sign"):
            analytic_flat("appendix", rng, family="irred", sign=sign)
        with pytest.raises(ValueError, match="sign"):
            analytic_flat_batch("appendix", rng, [1, sign], ["red", "irred"])
    assert rng.bit_generator.state == state


def test_connection_refuses_rows_that_are_not_group_elements():
    # 0.5 * identity is no unit quaternion and a NaN angle no U(1) element;
    # both passed as connections and gave holonomies off the group
    torus = builtin("torus")
    with pytest.raises(ValueError, match="edge 'a1'"):
        Connection(torus, "su2", 0.5 * SU2.identity((2,)))
    bad = np.array([[0.3], [np.nan]])
    with pytest.raises(ValueError, match="edge 'b1'"):
        Connection(torus, "u1", bad)
    with pytest.raises(ValueError, match="edge 'b1'"):
        Connection(torus, "su2", np.array([[1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="edge 'b1'"):
        Connection(torus, "su2", np.array([[1.0, 0.0, 0.0, 0.0], [np.nan] * 4]))
    with pytest.raises(ValueError, match="edge 'a1'"):
        Connection(torus, "u1", np.array([[-np.inf], [0.3]]))
    # rows within rounding of the unit sphere pass
    near = SU2.identity((2,)) * (1.0 + 1e-12)
    assert Connection(torus, "su2", near).data.shape == (2, 4)


@pytest.mark.parametrize("name,group", [("genus:2", "su2"), ("dunce_hat", "su2"),
                                        ("torus", "u1")])
def test_find_flat_batch_takes_a_builtin_key_like_sample_flat(name, group):
    # a builtin name raised AttributeError: 'str' object has no attribute
    # 'is_reduced'; the name and its Foam project the same starts
    by_name = find_flat_batch(name, group, np.random.default_rng(4), 3)
    by_foam = find_flat_batch(builtin(name), group, np.random.default_rng(4), 3)
    assert len(by_name) == len(by_foam) > 0
    for a, b in zip(by_name, by_foam):
        assert a.data.tobytes() == b.data.tobytes()
        assert np.float64(a.residual).tobytes() == np.float64(b.residual).tobytes()
        assert a.foam.name == b.foam.name
