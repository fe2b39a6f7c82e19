import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from foamtor.connection import word_jacobian
from foamtor.foam import builtin, parse_foam, reduce_foam
from foamtor.groups import (EPS_LOG, HAAR_BLOCK, CutLocusError, _su2_word_blocks,
                            get_group, su2_haar,
                            su2_haar_normals, su2_heat_kernel_images,
                            su2_heat_kernel_series, su2_mul, su2_word_angle,
                            u1_heat_kernel_images, u1_heat_kernel_series)

GOLDEN = pathlib.Path(__file__).parent / "golden"

SU2G = get_group("su2")
U1G = get_group("u1")


def test_identity_and_inverse():
    rng = np.random.default_rng(1)
    g = SU2G.haar(rng)
    e = SU2G.mul(g, SU2G.inv(g))
    assert np.max(np.abs(e - SU2G.identity())) <= 1e-12


def test_half_turn_squared_is_minus_one():
    g = SU2G.exp(np.array([0.0, 0.0, math.pi / 2]))
    sq = SU2G.mul(g, g)
    assert abs(sq[0] + 1.0) < 1e-12
    assert np.max(np.abs(sq[1:])) < 1e-12


def test_associativity_random_triples():
    rng = np.random.default_rng(2)
    a, b, c = su2_haar(rng, (3, 200))
    lhs = su2_mul(su2_mul(a, b), c)
    rhs = su2_mul(a, su2_mul(b, c))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_exp_zero_and_class_angle():
    assert np.max(np.abs(SU2G.exp(np.zeros(3)) - SU2G.identity())) <= 1e-12
    for psi in [0.1, 0.7, 1.5, 3.0]:
        g = SU2G.exp(np.array([psi, 0.0, 0.0]))
        assert abs(SU2G.distance(g) - psi) < 1e-12


def test_exp_log_roundtrip_haar():
    rng = np.random.default_rng(3)
    g = su2_haar(rng, (10_000,))
    # stay off the cut locus where log is undefined by design
    keep = SU2G.distance(g) < math.pi - 1e-6
    g = g[keep]
    back = SU2G.exp(SU2G.log(g))
    assert np.max(np.abs(back - g)) < 1e-10


def test_log_errors_at_cut_locus():
    minus_one = np.array([-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(CutLocusError):
        SU2G.log(minus_one)
    near = SU2G.exp(np.array([math.pi - 0.5 * EPS_LOG, 0.0, 0.0]))
    with pytest.raises(CutLocusError):
        SU2G.log(near)


def test_adjoint_identity_and_half_turn():
    assert np.allclose(SU2G.adjoint(SU2G.identity()), np.eye(3), atol=1e-15)
    # conjugating sigma_1, sigma_2 by exp(i(pi/2) sigma_3) flips both signs
    g = SU2G.exp(np.array([0.0, 0.0, math.pi / 2]))
    assert np.allclose(SU2G.adjoint(g), np.diag([-1.0, -1.0, 1.0]), atol=1e-12)


def test_adjoint_homomorphism_and_fixed_axis():
    rng = np.random.default_rng(4)
    a, b = su2_haar(rng, (2, 100))
    err = np.abs(SU2G.adjoint(su2_mul(a, b)) - SU2G.adjoint(a) @ SU2G.adjoint(b))
    assert err.max() < 1e-12
    v = rng.standard_normal((50, 3))
    g = SU2G.exp(v)
    moved = np.einsum("nij,nj->ni", SU2G.adjoint(g), v)
    assert np.max(np.abs(moved - v)) < 1e-12


def test_haar_character_orthogonality():
    rng = np.random.default_rng(5)
    n = 10 ** 6
    g = su2_haar(rng, (n,))
    psi = SU2G.distance(g)
    chi_half = SU2G.character(0.5, psi)
    m = chi_half.mean()
    assert abs(m) < 3.0 / math.sqrt(n)
    m2 = (chi_half ** 2).mean()
    s2 = (chi_half ** 2).std() / math.sqrt(n)
    assert abs(m2 - 1.0) < 3.0 * s2
    for j in (0.5, 1.0, 1.5, 2.0):
        for k in (0.5, 1.0, 1.5, 2.0):
            prod = SU2G.character(j, psi) * SU2G.character(k, psi)
            target = 1.0 if j == k else 0.0
            assert abs(prod.mean() - target) < 3.0 * prod.std() / math.sqrt(n)


def test_character_values_and_casimir():
    assert abs(SU2G.character(0.5, SU2G.distance(SU2G.identity())) - 2.0) < 1e-12
    # chi_1 at psi = pi/2: sin(3 pi/2)/sin(pi/2) = -1
    assert abs(SU2G.character(1.0, np.array(math.pi / 2)) + 1.0) < 1e-12
    # one table per group: (dim, Casimir) of the irreps at places i of a
    # character sum, in floats, for a place and for an array of places
    dim, casimir = SU2G.irreps(np.arange(7))        # spins 0, 1/2, ..., 3
    assert dim.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert casimir.tolist() == ((dim ** 2 - 1.0) / 4.0).tolist()
    assert SU2G.irreps(1) == (2.0, 0.75)
    dim, casimir = U1G.irreps(np.arange(5))         # charges 0, 1, -1, 2, -2
    assert dim.tolist() == [1.0] * 5
    assert casimir.tolist() == [0.0, 1.0, 1.0, 4.0, 4.0]
    assert U1G.irreps(6) == (1.0, 9.0)
    assert (SU2G.rank, U1G.rank) == (1, 1)
    for group in (SU2G, U1G):
        assert not hasattr(group, "dim") and not hasattr(group, "casimir")


def test_heat_kernel_at_identity_vs_partial_sum():
    tau = 1.0
    direct = sum((2 * j + 1) ** 2 * math.exp(-tau * j * (j + 1))
                 for j in [x / 2.0 for x in range(0, 61)])
    for evaluator in (su2_heat_kernel_series, su2_heat_kernel_images):
        val = float(evaluator(tau, SU2G.distance(SU2G.identity((1,))))[0])
        assert abs(val - direct) < 1e-10 * direct


def test_heat_kernel_methods_agree():
    # 1e-10 relative agreement down to the character series' own error floor:
    # deep in the Gaussian tail the alternating series is cancellation noise
    # at ~1e-16 of the peak, so differences there are compared to that scale.
    psi = np.concatenate([np.array([0.0, 1e-9, 1e-6, 1e-3]),
                          np.linspace(0.01, math.pi - 0.01, 200),
                          math.pi - np.array([1e-3, 1e-6, 1e-9, 0.0])])
    for tau in (0.01, 0.03, 0.1, 0.3, 1.0, 1.5, 2.0):
        a = su2_heat_kernel_series(tau, psi)
        b = su2_heat_kernel_images(tau, psi)
        peak = float(SU2G.heat_kernel(tau, np.zeros(1))[0])
        ok = np.abs(a - b) <= np.maximum(1e-10 * np.maximum(np.abs(a), np.abs(b)),
                                         1e-12 * peak)
        assert np.all(ok), (tau, psi[~ok], a[~ok], b[~ok])


def test_su2_haar_normalizes_the_normal_stream():
    # Haar draws are the normals of the generator's stream over their norm, so
    # every seeded draw (descent starts, SampleSet.haar) keeps its bits
    for shape in ((), (2,), (5,), (20, 3), (300, 6), (4, 7, 3), (25000, 4)):
        q = np.random.default_rng(8).standard_normal(shape + (4,))
        ref = q / np.linalg.norm(q, axis=-1, keepdims=True)
        got = su2_haar(np.random.default_rng(8), shape)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("n", [1, HAAR_BLOCK - 1, HAAR_BLOCK, HAAR_BLOCK + 1,
                               2 * HAAR_BLOCK + 3])
@pytest.mark.parametrize("tail", [None, (), (3,)], ids=["scalar", "n", "nxE"])
def test_blocked_haar_draw_reads_one_normal_call(n, tail):
    # su2_haar_normals draws HAAR_BLOCK leading rows at a time: the blocks
    # must give the normals of one standard_normal call, leave the generator
    # where that call leaves it, and su2_haar their unit quaternions
    shape = () if tail is None else (n,) + tail
    ref_rng = np.random.default_rng(12)
    q = ref_rng.standard_normal(shape + (4,))
    for draw, want in ((su2_haar_normals, q),
                       (su2_haar, q / np.linalg.norm(q, axis=-1, keepdims=True))):
        rng = np.random.default_rng(12)
        got = draw(rng, shape)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.f_contiguous
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", ["torus", "genus:3", "appendix", "dunce_hat"])
def test_su2_word_angle_does_not_depend_on_row_scale(name):
    # z_mc walks the raw normals of su2_mc_draw: rows of any positive
    # scale give the class angle of the unit rows to rounding
    foam = reduce_foam(builtin(name))
    rng = np.random.default_rng(22)
    g = su2_haar(rng, (4000, foam.E))
    scaled = g * rng.uniform(0.1, 10.0, g.shape[:-1] + (1,))
    words = [w for w in foam.words_idx if w]
    assert any(s < 0 for w in words for _, s in w)
    for word in words:
        ref = su2_word_angle(word, g)
        assert np.max(np.abs(su2_word_angle(word, scaled) - ref)) <= 2e-15, name


# face words of two edges a, b, and the commutator blocks the walk reads in
# each (the other letters are walked one at a time)
BLOCK_WORDS = {
    "b a b^-1 a^-1": 1,
    "a b a^-1 b": 0,                       # not a commutator
    "a a a^-1 a^-1": 0,                    # one edge: angle 0 on either path
    "a^-1 b^-1 a b": 1,
    "a b a^-1 b^-1 a b a^-1 b^-1": 2,      # edges repeated across blocks
    "a b a^-1 b^-1 a": 1,                  # a commutator, then a free letter
    "a^-1 b a b^-1 b a^-1 b^-1 a": 2,      # sigma = -1: (a^-1, b) and (b, a^-1)
    "a b a^-1 b^-1 " * 175: 175,           # test_z_mc_walks_long_words_on_unit_rows
}


@pytest.mark.parametrize("text", sorted(BLOCK_WORDS), ids=lambda t: t[:40].strip())
def test_word_angle_reads_commutator_blocks_as_their_letters(text):
    # a commutator x y x^-1 y^-1 is walked as one block, in closed form when
    # it is the whole word; the angle is that of the letter-by-letter
    # holonomy, and does not depend on the rows' scale
    word = parse_foam("edges: a b\nface: " + text).words_idx[0]
    assert sum(len(b) == 4 for b in _su2_word_blocks(word)) == BLOCK_WORDS[text]
    rng = np.random.default_rng(23)
    g = su2_haar(rng, (4000, 2))
    H = word_jacobian(SU2G, [word], g)[0][..., 0, :]
    got = su2_word_angle(word, g)
    assert np.max(np.abs(got - SU2G.distance(H))) <= 1e-12
    if len(word) < 100:
        scaled = g * rng.uniform(0.1, 10.0, g.shape[:-1] + (1,))
        assert np.max(np.abs(su2_word_angle(word, scaled) - got)) <= 2e-15
    else:
        # 175 equal commutators repeat one commutator's rounding 175 times
        # (the letter chain read 3e-14 here): the bound grows with the word
        scaled = g * rng.uniform(0.9, 1.1, g.shape[:-1] + (1,))
        assert np.max(np.abs(su2_word_angle(word, scaled) - got)) <= 1e-12


def test_word_angle_keeps_a_long_commutator_product_at_unit_scale():
    # each commutator enters the product at its four letters' scale, so on
    # unit rows 1,100 of them stay a unit quaternion; at half that scale the
    # squared norm fell as 2^-2k and read 0 past some 537 commutators
    word = builtin("genus:1100").words_idx[0]
    g = su2_haar(np.random.default_rng(29), (6, 2200))
    H = word_jacobian(SU2G, [word], g)[0][..., 0, :]
    assert np.max(np.abs(su2_word_angle(word, g) - SU2G.distance(H))) <= 1e-12


def test_haar_component_rows_are_contiguous():
    # the Monte Carlo kernel reads g[..., e, i] once per face letter; the Haar
    # draw lays those rows out contiguously so that no copy is needed
    for G in (SU2G, U1G):
        g = G.haar(np.random.default_rng(3), (50, 4))
        for e in range(4):
            for i in range(G.elem_dim):
                assert g[..., e, i].flags.c_contiguous, (G.name, e, i)


# angles on which the two SU(2) heat-kernel evaluators keep recorded bits:
# 'generic' stays off both boundary layers of the image sum, 'boundary' adds
# points in them (the layer at pi widens with tau, so pi - 5e-4 is in it for
# tau >= 3 only)
HK_ANGLES = {
    "generic": np.linspace(0.01, math.pi - 0.01, 48),
    "boundary": np.concatenate([[0.0, 1e-9, 5e-8], np.linspace(0.01, math.pi - 0.01, 48),
                                math.pi - np.array([5e-4, 1e-5, 1e-9, 0.0])]),
}
HK_TAUS = (0.05, 0.6, 1.0, 1.5, 3.0, 10.0, 25.0)     # 3, 3, 3, 3, 5, 7 and 11 images
HK_EVALUATORS = {"series": su2_heat_kernel_series, "images": su2_heat_kernel_images}


def su2_heat_kernel_table():
    """{angles: {evaluator: {repr(tau): values}}} over HK_ANGLES and HK_TAUS."""
    return {name: {key: {repr(tau): fn(tau, psi).tolist() for tau in HK_TAUS}
                   for key, fn in HK_EVALUATORS.items()}
            for name, psi in HK_ANGLES.items()}


def test_su2_heat_kernels_keep_their_recorded_bits():
    # recorded while the image sum still summed a 2-D array of images row by
    # row; the JSON floats round-trip exactly
    ref = json.loads((GOLDEN / "su2_heat_kernels.json").read_text())
    assert su2_heat_kernel_table() == ref


def test_heat_kernel_reads_angles_when_told():
    # four class angles are four angles, not one quaternion
    psi = np.array([0.1, 0.7, 1.9, 3.0])
    each = np.concatenate([SU2G.heat_kernel(0.5, psi[i:i + 1])
                           for i in range(4)])
    assert np.allclose(SU2G.heat_kernel(0.5, psi), each, rtol=1e-14, atol=0)
    theta = np.array([2.5])
    assert np.allclose(U1G.heat_kernel(0.5, theta),
                       U1G.heat_kernel(0.5, U1G.distance(theta[None])), rtol=1e-14, atol=0)


def test_character_reads_angles_when_told():
    # four class angles are four angles, not one quaternion: chi_1/2(psi) = 2 cos(psi)
    psi = np.array([0.1, 0.2, 0.3, 0.4])
    chi = SU2G.character(0.5, psi)
    assert chi.shape == (4,)
    assert np.allclose(chi, 2.0 * np.cos(psi), rtol=1e-14, atol=0)
    elements = SU2G.exp(np.outer(psi, [0.0, 0.6, 0.8]))
    assert np.allclose(SU2G.character(0.5, SU2G.distance(elements)), chi, rtol=1e-14, atol=0)
    theta = np.array([0.3, 2.0, 4.5, 6.0])
    assert np.allclose(U1G.character(2, theta), np.cos(2 * theta),
                       rtol=1e-14, atol=0)
    assert np.allclose(U1G.character(2, U1G.distance(theta[:, None])), np.cos(2 * theta),
                       rtol=1e-14, atol=1e-14)


def test_a_character_refuses_a_label_that_names_no_irrep():
    # spin 0.3 was rounded to chi_1/2, spin -1 gave -1.0 and charge 0.5
    # gave cos(theta / 2), none of them a character
    psi = np.array([0.5])
    for j in (0.3, -1, -0.5, 1.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="spin %r " % j):
            SU2G.character(j, psi)
    for n in (0.5, -2.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="charge %r " % n):
            U1G.character(n, psi)
    # every label of an irrep still answers, given as an int or a float
    assert SU2G.character(0, psi)[0] == 1.0
    assert SU2G.character(1, psi)[0] == SU2G.character(1.0, psi)[0]
    assert U1G.character(-3, psi)[0] == U1G.character(-3.0, psi)[0] == math.cos(1.5)


def test_heat_kernel_positive():
    psi = np.linspace(0.0, math.pi, 500)
    for tau in (0.01, 0.05, 0.2, 1.0):
        vals = su2_heat_kernel_images(tau, psi)
        assert np.all(vals >= 0.0)
        representable = psi * psi / tau < 600.0  # above double-precision underflow
        assert np.all(vals[representable] > 0.0)
    for tau in (2.0, 5.0):
        assert np.all(su2_heat_kernel_series(tau, psi) > 0.0)


def test_heat_kernel_is_class_function():
    rng = np.random.default_rng(6)
    g, h = su2_haar(rng, (2, 50))
    conj = su2_mul(su2_mul(h, g), SU2G.inv(h))
    a = SU2G.heat_kernel(0.5, SU2G.distance(g))
    b = SU2G.heat_kernel(0.5, SU2G.distance(conj))
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))


def test_heat_kernel_normalization_mc():
    rng = np.random.default_rng(7)
    n = 10 ** 6
    vals = SU2G.heat_kernel(0.5, SU2G.distance(su2_haar(rng, (n,))))
    m, s = vals.mean(), vals.std() / math.sqrt(n)
    assert abs(m - 1.0) < 3.0 * s


def test_heat_kernel_semigroup_mc():
    # int K_s(g h^-1) K_t(h) dh = K_{s+t}(g) at (s, t) = (0.3, 0.4)
    rng = np.random.default_rng(8)
    s, t = 0.3, 0.4
    n = 400_000
    g = su2_haar(rng, ())
    h = su2_haar(rng, (n,))
    vals = (SU2G.heat_kernel(s, SU2G.distance(su2_mul(g, SU2G.inv(h))))
            * SU2G.heat_kernel(t, SU2G.distance(h)))
    target = float(SU2G.heat_kernel(s + t, SU2G.distance(g[None]))[0])
    assert abs(vals.mean() - target) < 3.0 * vals.std() / math.sqrt(n)


def test_unit_norm_maintained_over_long_chains():
    # 2^20-element product tree, renormalizing multiply throughout
    rng = np.random.default_rng(9)
    g = su2_haar(rng, (2 ** 20,))
    while len(g) > 1:
        g = su2_mul(g[0::2], g[1::2])
    assert abs(np.linalg.norm(g[0]) - 1.0) < 1e-9


def test_heat_kernel_rejects_bad_tau():
    with pytest.raises(ValueError):
        SU2G.heat_kernel(0.0, np.array(0.5))
    with pytest.raises(ValueError):
        SU2G.heat_kernel(-1.0, np.array(0.5))


def test_u1_basics():
    rng = np.random.default_rng(10)
    a = U1G.haar(rng)
    assert np.max(np.abs(U1G.mul(a, U1G.inv(a)) - U1G.identity())) <= 1e-12
    g = U1G.exp(np.array([1.3]))
    assert abs(U1G.distance(g) - 1.3) < 1e-12
    assert np.allclose(U1G.adjoint(g), [[1.0]])


def test_u1_heat_kernel_methods_agree():
    theta = np.linspace(0.0, 2 * math.pi, 300, endpoint=False)
    for tau in (0.01, 0.1, 1.0):
        a = u1_heat_kernel_series(tau, theta)
        b = u1_heat_kernel_images(tau, theta)
        assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a))


# angles and taus on which the two U(1) heat-kernel evaluators keep recorded
# bits: 7 to 141 images (rows of fewer than 8 terms, pairwise row sums, and
# one past numpy's 128-term block), 1 to 120 series terms, angles in and
# outside [0, 2 pi), and 25,000 draws
U1_HK_ANGLES = {
    "grid": np.concatenate([np.linspace(0.0, 2 * math.pi, 97), [-3.0, -1e-9, 7.5, 40.0]]),
    "draws": np.random.default_rng(22).uniform(0.0, math.pi, 25_000),
}
U1_HK_TAUS = (0.01, 0.05, 0.3, 0.6, 1.0, 1.5, 3.0, 10.0, 25.0, 200.0, 1000.0)
U1_HK_EVALUATORS = {"series": u1_heat_kernel_series, "images": u1_heat_kernel_images}


def u1_heat_kernel_table():
    """{angles: {evaluator: {repr(tau): SHA-256 of the values}}}."""
    return {name: {key: {repr(tau): hashlib.sha256(fn(tau, theta).tobytes()).hexdigest()
                         for tau in U1_HK_TAUS}
                   for key, fn in U1_HK_EVALUATORS.items()}
            for name, theta in U1_HK_ANGLES.items()}


def test_u1_heat_kernels_keep_their_recorded_bits():
    # recorded while both evaluators still built 2-D arrays of their terms
    ref = json.loads((GOLDEN / "u1_heat_kernels.json").read_text())
    assert u1_heat_kernel_table() == ref


@pytest.mark.parametrize("G,images,series", [
    (SU2G, su2_heat_kernel_images, su2_heat_kernel_series),
    (U1G, u1_heat_kernel_images, u1_heat_kernel_series)])
def test_heat_kernel_sums_images_up_to_tau_1_and_the_series_above(G, images, series):
    # the one rule of G.heat_kernel, bit for bit on both sides of tau = 1
    angles = np.concatenate([[0.0, 1e-9], np.linspace(0.01, math.pi - 0.01, 40),
                             [math.pi - 1e-9, math.pi]])
    for tau, rule in ((0.02, images), (0.3, images), (1.0, images),
                      (np.nextafter(1.0, 2.0), series), (1.5, series), (3.0, series)):
        # the two evaluators differ in their last bits, so the rule shows
        assert not np.array_equal(images(tau, angles), series(tau, angles)), tau
        assert np.array_equal(G.heat_kernel(tau, angles), rule(tau, angles)), tau


def test_u1_heat_kernel_normalization():
    rng = np.random.default_rng(11)
    n = 200_000
    vals = U1G.heat_kernel(0.5, U1G.distance(U1G.haar(rng, (n,))))
    assert abs(vals.mean() - 1.0) < 3.0 * vals.std() / math.sqrt(n)


@pytest.mark.parametrize("group", ["su2", "u1"])
@pytest.mark.parametrize("name", ["sphere", "torus", "genus:2", "genus:3", "appendix",
                                  "dunce_hat", "projective_plane"])
def test_word_angle_equals_class_angle_of_holonomy(name, group):
    G = get_group(group)
    foam = reduce_foam(builtin(name))
    rng = np.random.default_rng(21)
    g = G.haar(rng, (3, 80, foam.E))[:, ::2]           # non-contiguous batch
    if G.name == "su2":
        # off the unit sphere: class angles do not depend on the norm
        raw = g * rng.uniform(0.3, 3.0, g.shape[:-1] + (1,))
    else:
        # angles outside [0, 2 pi)
        raw = g + 2.0 * np.pi * rng.integers(-3, 4, g.shape)
    edge_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(raw, (0, 1), (-2, -1))),
                             (-2, -1), (0, 1))
    for f in range(foam.F):
        word = foam.words_idx[f]
        ref = G.distance(word_jacobian(G, [word], np.ascontiguousarray(g))[0][..., 0, :])
        for x in (g, raw, edge_major):
            got = G.word_angle(word, x)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12, (name, group, f)


HK_SHAPE_CASES = {"SU2-0.3": (SU2G.heat_kernel, 0.3), "SU2-1.5": (SU2G.heat_kernel, 1.5),
                  "su2_images-0.3": (su2_heat_kernel_images, 0.3),
                  "su2_images-13": (su2_heat_kernel_images, 13.0),
                  "su2_series-0.3": (su2_heat_kernel_series, 0.3),
                  "U1-0.3": (U1G.heat_kernel, 0.3), "U1-1.5": (U1G.heat_kernel, 1.5),
                  "u1_images-0.3": (u1_heat_kernel_images, 0.3),
                  "u1_images-13": (u1_heat_kernel_images, 13.0),
                  "u1_series-0.3": (u1_heat_kernel_series, 0.3)}


@pytest.mark.parametrize("case", sorted(HK_SHAPE_CASES))
@pytest.mark.parametrize("shape", [(2, 3), (3, 1, 2)], ids=["2x3", "3x1x2"])
@pytest.mark.parametrize("boundary", [False, True], ids=["generic", "boundary"])
def test_heat_kernels_keep_the_shape_of_their_angles(case, shape, boundary):
    # SU2.heat_kernel(0.3, psi) raised TypeError on 2-D angles that were all
    # generic, the image sums at tau = 13 and U(1)'s images failed to
    # broadcast, and U(1)'s series returned the angles flattened
    fn, tau = HK_SHAPE_CASES[case]
    angles = np.linspace(0.05, 3.0, 6)
    if boundary:
        angles[0] = 0.0           # inside the Taylor layers at 0 ...
        angles[-1] = math.pi      # ... and at pi
    out = fn(tau, angles.reshape(shape))
    assert out.shape == shape
    assert np.array_equal(out.ravel(), fn(tau, angles))


def test_get_group_refuses_a_group_it_does_not_know():
    for group in ("su3", None, 5):
        with pytest.raises(ValueError) as refused:
            get_group(group)
        assert str(refused.value) == "unknown group %r (expected 'su2' or 'u1')" % (group,)


def test_u1_log_refuses_the_cut_locus_unless_told_not_to_check():
    g = U1G.exp(np.array([math.pi]))
    with pytest.raises(CutLocusError) as refused:
        U1G.log(g)
    assert str(refused.value) == "log within %g of the cut locus (theta = pi)" % EPS_LOG
    assert U1G.log(g, check_cut_locus=False).tolist() == [math.pi]
