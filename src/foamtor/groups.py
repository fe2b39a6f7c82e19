"""Structure-group arithmetic for SU(2) and U(1).

SU(2) is realized as the unit quaternions q = (w, x, y, z) with the Hamilton
product, which has one formula: p q = sum_i p_i R[i] over the signed
right-multiplication table R of q (su2_right_table), summed in component
order and renormalized (su2_right_mul) on a component-major p (4, ...).
The table of q^-1 is the transpose of q's (su2_inv_table).  su2_mul
broadcasts (..., 4) arrays through it, and U(1) has the same three hooks,
so a walk over many products builds each table once.  Lie-algebra
vectors live in R^3 (orthonormal basis {i sigma_1, i sigma_2, i sigma_3}),
the class angle of g = exp(psi n.sigma_vec) is psi = arccos(w) in [0, pi],
and Ad_g is the rotation by 2 psi about the axis of g.  U(1) elements are angles theta in [0, 2 pi) with Lie algebra R.

The Haar measure is normalized to total mass 1 throughout, so the heat kernel

    K_tau(g) = sum_rho dim(rho) exp(-tau C(rho)) chi_rho(g)

integrates to 1 for every tau.  Each group has two independent evaluators,
which cross-check each other: the truncated character series (SU(2): summed
by Clenshaw's recurrence) and the Poisson-resummed Gaussian image sum
(su2_heat_kernel_series / _images, u1_heat_kernel_series / _images).
heat_kernel has one rule: the image sum for tau <= 1, the series above.
Every evaluator returns one value per angle, in the shape of its angles.

A group is its class: SU2 and U1 are never instantiated, and get_group
returns the class for its name.  The class functions (character,
heat_kernel) take class angles, distance(g) for elements g.  ``word_angle``
gives the class angle of a face word's holonomy without forming the product
as an element; Monte Carlo uses it with the heat kernel.  SU(2) reads the
word as blocks: a commutator x y x^-1 y^-1 of two edges' letters is one
block, whose angle has a closed form when it is the whole word (the torus,
each face of the appendix), and which enters a longer product (genus
g >= 2) as one quaternion; any other letter is a block of its own.

Haar draws are Fortran-ordered: the batch axes vary fastest, so the row
g[..., e, i] of one edge's component is contiguous, which is what
word_angle reads once per face block.  ``haar`` gives the values of one
generator's stream (SU(2): its normals over their norm, drawn in cache-sized
blocks by su2_haar_normals), so seeded draws do not depend on the layout or
the blocking.  Monte Carlo draws through each group's ``mc_draw``, which
takes one generator per component row and fills each row in place from its
own stream: for SU(2) the normals unnormalized, since word_angle reads rows
of any positive scale (or over their norms, on request); for U(1) the Haar
angles.
"""

from __future__ import annotations

import math

import numpy as np

EPS_LOG = 1e-8          # cut-locus guard for log
ELEMENT_TOL = 1e-9      # | |q|^2 - 1 | of an SU(2) element; renormalized products: ~1e-16
HK_TRUNC_C = 12.0       # character series truncated at j_max = ceil(c/sqrt(tau))
HAAR_BLOCK = 512        # leading-axis rows su2_haar_normals draws at a time


class CutLocusError(ValueError):
    """log requested within EPS_LOG of the cut locus (SU(2): g ~ -identity)."""


# ----------------------------------------------------------------------
# vectorized SU(2) primitives (trailing axis of length 4, batch in front)

def su2_right_table(q):
    """The right-multiplication table R of q (..., 4): p q = sum_i p_i R[i].

    R has shape (4, 4, ...): row i holds the signed components of q that
    component i of p multiplies, column j the output component j.  Written
    out, the Hamilton product (w1, x1, y1, z1)(w2, x2, y2, z2) is

        w = w1 w2 + x1 (-x2) + y1 (-y2) + z1 (-z2)
        x = w1 x2 + x1 w2    + y1 z2    + z1 (-y2)
        y = w1 y2 + x1 (-z2) + y1 w2    + z1 x2
        z = w1 z2 + x1 y2    + y1 (-x2) + z1 w2

    summed in the order w1, x1, y1, z1.  In IEEE arithmetic a - b is
    a + (-b) and x (-y) is -(x y), signed zeros included, so these are the
    bits of the textbook formula with its minus signs.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    nx, ny, nz = -x, -y, -z
    return np.array([[w, x, y, z], [nx, w, nz, y], [ny, z, w, nx], [nz, ny, x, w]])


def su2_right_mul(p, R):
    """p q for a component-major p (4, ...) and the table R of q, renormalized.

    The four partial products are summed in component order and the squared
    norm left to right, s0 + s1 + s2 + s3, which is how np.linalg.norm sums
    four components (see su2_haar), so long product chains stay on the unit
    sphere with the bits of out / np.linalg.norm(out, axis=-1).  The sums
    reduce the leading axis of C-ordered partial products (contiguous rows
    for a transposed R too), row after row, from -0, which keeps a -0 sum.
    """
    t = np.multiply(p[:, None], R, order="C")
    out = np.add.reduce(t, axis=0, initial=-0.0)
    out /= np.sqrt(np.add.reduce(out * out, axis=0))
    return out


def su2_inv_table(R):
    """The right-multiplication table of q^-1 from the table R of q, as a view:
    R's transpose, entry for entry the signed components of su2_inv(q)."""
    return R.swapaxes(0, 1)


def su2_mul(a, b):
    """The renormalized Hamilton product of a and b (..., 4), broadcast: both
    padded to the same number of axes, a's component axis moved to the front."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nd = max(a.ndim, b.ndim)
    a, b = (x.reshape((1,) * (nd - x.ndim) + x.shape) for x in (a, b))
    p = su2_right_mul(a.transpose((nd - 1,) + tuple(range(nd - 1))), su2_right_table(b))
    return p.transpose(tuple(range(1, nd)) + (0,))


def su2_inv(a):
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def su2_identity(shape=()):
    out = np.zeros(tuple(shape) + (4,))
    out[..., 0] = 1.0
    return out


def su2_exp(v):
    """exp of a Lie vector v in R^3; |v| is the class angle of the result."""
    v = np.asarray(v, dtype=float)
    th = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))     # np.linalg.norm's sum
    small = th < 1e-12
    sinc = np.where(small, 1.0 - th * th / 6.0, np.sin(th) / np.where(small, 1.0, th))
    out = np.empty(v.shape[:-1] + (4,))
    np.cos(th, out=out[..., :1])
    np.multiply(sinc, v, out=out[..., 1:])
    return out


def _su2_word_blocks(word_idx):
    """A face word read as blocks, left to right: (e1, s1, e2, s2) for a
    commutator x y x^-1 y^-1 of two edges' letters x = g_e1^s1, y = g_e2^s2,
    and (e, s) for any other letter."""
    blocks, i = [], 0
    while i < len(word_idx):
        (e1, s1), nxt = word_idx[i], word_idx[i + 1:i + 4]
        if len(nxt) == 3 and nxt[0][0] != e1 and nxt[1] == (e1, -s1) \
                and nxt[2] == (nxt[0][0], -nxt[0][1]):
            blocks.append((e1, s1) + nxt[0])
            i += 4
        else:
            blocks.append((e1, s1))
            i += 1
    return blocks


def _su2_commutator_angle(g, e1, s1, e2, s2):
    """The class angle of the commutator x y x^-1 y^-1 of x = a^s1 and
    y = b^s2, for a = (a0, A) and b = (b0, B) the rows of edges e1 and e2.

    With sigma = s1 s2, x y = (s, U + W) for s = a0 b0 - sigma A.B, U = s2 P,
    P = a0 B + sigma b0 A, and W = sigma X, X = A x B; and x y x* y* =
    (x y)(y x)* = (s^2 + |U|^2 - |W|^2, 2 (s W + U x W)).  U is orthogonal
    to W, so the vector part has norm 2 |W| r, r^2 = s^2 + |P|^2, and the
    class angle is 2 atan2(|X|, r).  The sums of squares run on four rows.
    """
    a0, a1, a2, a3 = (g[..., e1, i] for i in range(4))
    b0, b1, b2, b3 = (g[..., e2, i] for i in range(4))
    minus, plus = (np.subtract, np.add) if s1 * s2 > 0 else (np.add, np.subtract)
    r, p, x, t = (np.empty(g.shape[:-2]) for _ in range(4))
    np.multiply(a1, b1, out=t)
    t += np.multiply(a2, b2, out=p)
    t += np.multiply(a3, b3, out=p)
    minus(np.multiply(a0, b0, out=r), t, out=r)
    r *= r
    for ai, bi in ((a1, b1), (a2, b2), (a3, b3)):
        plus(np.multiply(a0, bi, out=p), np.multiply(b0, ai, out=t), out=p)
        r += np.multiply(p, p, out=p)
    np.subtract(np.multiply(a2, b3, out=x), np.multiply(a3, b2, out=t), out=x)
    x *= x
    for (u1, v1), (u2, v2) in (((a3, b1), (a1, b3)), ((a1, b2), (a2, b1))):
        np.subtract(np.multiply(u1, v1, out=p), np.multiply(u2, v2, out=t), out=p)
        x += np.multiply(p, p, out=p)
    np.arctan2(np.sqrt(x, out=x), np.sqrt(r, out=r), out=r)
    r *= 2.0
    return r


def _su2_commutator(g, e1, s1, e2, s2, row):
    """The commutator x y x^-1 y^-1 (see _su2_commutator_angle) as a
    quaternion (w, v), from the products d = A.B, nA = |A|^2 and nB = |B|^2:

        w = |a|^2 |b|^2 - 2 |X|^2,   |X|^2 = nA nB - d^2,
        v = 2 sigma (s W + U x W) = 2 s sigma X + s1 (2 alpha A - 2 beta B),

    as U x W = s2 sigma P x X and P x X = alpha A - beta B for
    alpha = a0 nB + sigma b0 d and beta = a0 d + sigma b0 nA.  Its scale is
    the |a|^2 |b|^2 of the four letters, so a product of unit rows stays a
    unit row however many commutators it takes; the factors 2 are exact.
    row() gives a sample-length row; returns the four rows of (w, v) and the
    four rows it spent, having held eight at once.
    """
    a = [g[..., e1, i] for i in range(4)]
    b = [g[..., e2, i] for i in range(4)]
    minus, plus = (np.subtract, np.add) if s1 * s2 > 0 else (np.add, np.subtract)
    d, na, nb, xx, t = (row() for _ in range(5))
    for n, u, v in ((d, a, b), (na, a, a), (nb, b, b)):
        np.multiply(u[1], v[1], out=n)
        n += np.multiply(u[2], v[2], out=t)
        n += np.multiply(u[3], v[3], out=t)
    np.subtract(np.multiply(na, nb, out=xx), np.multiply(d, d, out=t), out=xx)
    al, be = row(), row()
    plus(np.multiply(a[0], nb, out=al), np.multiply(b[0], d, out=t), out=al)
    plus(np.multiply(a[0], d, out=be), np.multiply(b[0], na, out=t), out=be)
    al += al
    be += be
    w = na
    w += np.multiply(a[0], a[0], out=t)
    nb += np.multiply(b[0], b[0], out=t)
    w *= nb
    xx += xx
    w -= xx
    s = nb
    minus(np.multiply(a[0], b[0], out=s), d, out=s)
    s += s
    # v_i = 2 s (sigma X)_i +- (2 alpha A_i - 2 beta B_i), sigma X_i = a_j b_k - a_k b_j
    # with j, k swapped for sigma < 0
    vplus, vminus = (np.add, np.subtract) if s1 > 0 else (np.subtract, np.add)
    v = (d, xx, row())
    for r, i, j, k in ((v[0], 1, 2, 3), (v[1], 2, 3, 1), (v[2], 3, 1, 2)):
        j, k = (j, k) if s1 * s2 > 0 else (k, j)
        np.subtract(np.multiply(a[j], b[k], out=r), np.multiply(a[k], b[j], out=t), out=r)
        r *= s
        vplus(r, np.multiply(al, a[i], out=t), out=r)
        vminus(r, np.multiply(be, b[i], out=t), out=r)
    return [w, *v], [s, al, be, t]


def _su2_times(q, f, s, tmp):
    """q = q (w2, s v2) in place, for rows q = [w, x, y, z] and f = (w2, x2,
    y2, z2), with five temporary rows tmp, or four if f's z2 row may be
    overwritten."""
    w, x, y, z = q
    w2, x2, y2, z2 = f
    dot, cx, cy, t, *cz = tmp
    # z2 is read last by the cz sum, so a spent factor takes it there
    cz = cz[0] if cz else z2
    # (w, v)(w2, s v2) = (w w2 - s v.v2, v w2 + s (w v2 + v x v2)), as
    # dot = x x2 + y y2 + z z2 and cx = w x2 + y z2 - z y2, summed left
    # to right
    for out, (a1, b1), (a2, b2), (a3, b3), op in (
            (dot, (x, x2), (y, y2), (z, z2), np.add),
            (cx, (w, x2), (y, z2), (z, y2), np.subtract),
            (cy, (w, y2), (z, x2), (x, z2), np.subtract),
            (cz, (w, z2), (x, y2), (y, x2), np.subtract)):
        np.multiply(a1, b1, out=out)
        out += np.multiply(a2, b2, out=t)
        op(out, np.multiply(a3, b3, out=t), out=out)
    w *= w2
    x *= w2
    y *= w2
    z *= w2
    if s > 0:
        w -= dot
        x += cx
        y += cy
        z += cz
    else:
        w += dot
        x -= cx
        y -= cy
        z -= cz


def su2_word_angle(word_idx, g):
    """Class angle of the holonomy of a face word, g of shape (..., E, 4).

    The word is read as blocks (_su2_word_blocks): a commutator
    x y x^-1 y^-1 of two edges' letters is one block, and any other letter
    a block of its own.  A word that is one commutator has its angle in
    closed form (_su2_commutator_angle).  Otherwise one multiply chain per
    quaternion component runs over the blocks: a letter is its row of g, an
    inverse letter entering as a sign flip of its vector part, and a
    commutator is its quaternion at its four letters' scale, formed from its
    two letters (_su2_commutator).  The product is neither stacked nor
    renormalized, since atan2(|v|, w) does not depend on its norm.  So the
    rows of g may carry any positive scale, such as the raw normals of
    su2_mc_draw: the angle then differs from that of the unit rows by
    rounding only, and a product of unit rows stays of unit norm however
    long.  The chains run in place on reused rows: at most twelve at once,
    nine for a word without commutators and four for one commutator.
    """
    blocks = _su2_word_blocks(word_idx)
    if not blocks:
        return np.zeros(g.shape[:-2])
    if len(blocks) == 1 and len(blocks[0]) == 4:
        return _su2_commutator_angle(g, *blocks[0])
    spare = []

    def row():
        return spare.pop() if spare else np.empty(g.shape[:-2])

    q = None
    for b in blocks:
        commutator = len(b) == 4
        if commutator:
            f, spent = _su2_commutator(g, *b, row)
            spare += spent
            s = 1
        else:
            f, s = [g[..., b[0], i] for i in range(4)], b[1]
        if q is None and commutator:
            q = f
        elif q is None:
            q = [row() for _ in range(4)]
            np.copyto(q[0], f[0])
            for r, c in zip(q[1:], f[1:]):
                np.multiply(c, 1.0 if s > 0 else -1.0, out=r)
        else:
            tmp = [row() for _ in range(4 if commutator else 5)]
            _su2_times(q, f, s, tmp)
            spare += tmp + (f if commutator else [])
    w, x, y, z = q
    np.multiply(x, x, out=x)
    np.multiply(y, y, out=y)
    x += y
    np.multiply(z, z, out=z)
    x += z
    return np.arctan2(np.sqrt(x, out=x), w, out=w)


def su2_polar(q):
    """(psi, |v|) of q = (w, v): the class angle psi in [0, pi] and the norm
    of the vector part, from one sum of squares."""
    # atan2 keeps full precision near psi = 0 and pi, unlike arccos(w); |v|
    # is summed as np.linalg.norm sums it
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    vn = np.sqrt(np.add.reduce(v * v, axis=-1))
    return np.arctan2(vn, q[..., 0]), vn


def su2_class_angle(q):
    """Riemannian distance to the identity = class angle psi in [0, pi]."""
    return su2_polar(q)[0]


def su2_log(q, check_cut_locus=True, polar=None):
    """Inverse of su2_exp; errors within EPS_LOG of the cut locus psi = pi.
    polar: su2_polar(q), if the caller has it."""
    q = np.asarray(q, dtype=float)
    psi, vn = su2_polar(q) if polar is None else polar
    if check_cut_locus and np.any(psi > np.pi - EPS_LOG):
        raise CutLocusError("log within %g of the cut locus (g ~ -1)" % EPS_LOG)
    small = vn < 1e-12
    fac = np.where(small, 1.0, psi / np.where(small, 1.0, vn))
    return fac[..., None] * q[..., 1:]


def su2_adjoint(q):
    """Rotation matrix of Ad_q on R^3: rotation by 2 psi about the axis of q.

    The components are the rows of q.T (contiguous for the face walk's
    component-major frames), their nine products are formed once, and each
    entry is written through R.T: R (..., 3, 3) is C-ordered, with the bits
    of R[0, 0] = 1 - 2 (y y + z z), R[0, 1] = 2 (x y - z w), ...
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.T
    R = np.empty(q.shape[:-1] + (3, 3))
    A = R.T                     # A[j, i, ...] is R[..., i, j], batch reversed
    xx, yy, zz, xy, xz, yz = x * x, y * y, z * z, x * y, x * z, y * z
    wx, wy, wz = x * w, y * w, z * w
    for (i, j), op, a, b in (((0, 0), np.add, yy, zz), ((0, 1), np.subtract, xy, wz),
                             ((0, 2), np.add, xz, wy), ((1, 0), np.add, xy, wz),
                             ((1, 1), np.add, xx, zz), ((1, 2), np.subtract, yz, wx),
                             ((2, 0), np.subtract, xz, wy), ((2, 1), np.add, yz, wx),
                             ((2, 2), np.add, xx, yy)):
        op(a, b, out=A[j, i, ...])
    R *= 2.0
    for i in range(3):
        np.subtract(1.0, A[i, i, ...], out=A[i, i, ...])
    return R


def su2_haar_normals(rng, shape=()):
    """The four normals of Haar-uniform quaternions, unnormalized: the
    generator's stream rng.standard_normal(shape + (4,)) bit for bit, and the
    generator left as that one call leaves it.

    The result is Fortran-ordered, so each component row g[..., e, i] is
    contiguous and word_angle reads it without a copy.  The normals are drawn
    HAAR_BLOCK leading-axis rows at a time into one reused buffer, which
    stays in cache while it is copied into component-major (4, ...) memory;
    the stream does not depend on the blocking.
    """
    shape = tuple(shape)
    c = np.empty((4,) + shape[::-1])
    if not shape:
        rng.standard_normal(out=c)
        return c
    n, rest = shape[0], shape[1:]
    buf = np.empty((min(n, HAAR_BLOCK),) + rest + (4,))
    for a in range(0, n, HAAR_BLOCK):
        m = min(HAAR_BLOCK, n - a)
        rng.standard_normal(out=buf[:m])
        c[..., a:a + m] = buf[:m].T
    return c.T


def su2_haar(rng, shape=()):
    """Haar-uniform unit quaternions: su2_haar_normals over their norms,
    bit for bit q / np.linalg.norm(q, axis=-1, keepdims=True), and
    Fortran-ordered like the normals."""
    return su2_normalize(su2_haar_normals(rng, shape).T).T


def su2_mc_draw(rows, out, unit=False):
    """Haar normals for Monte Carlo, written into out (m, E, 4): rows[k], a
    generator, fills the component row out[:, k // 4, k % 4] by one
    standard_normal call (a contiguous row when out is Fortran-ordered, such
    as a leading slice of a Fortran-ordered buffer), so each row's values are
    its generator's stream whatever m.  Unnormalized, since word_angle reads
    rows of any positive scale; with unit, divided by their norms in place
    (su2_normalize).  Returns out."""
    for k, rng in enumerate(rows):
        rng.standard_normal(out=out[:, k // 4, k % 4])
    if unit:
        su2_normalize(out.T)
    return out


def su2_normalize(c):
    """Divide component-major quaternions c (4, ...) by their norms, in place,
    and return c.  The squared norm is summed left to right,
    w^2 + x^2 + y^2 + z^2, which is how np.linalg.norm sums four components,
    so each quaternion has the bits of q / np.linalg.norm(q, axis=-1,
    keepdims=True), alone or in any stack.
    """
    s = c * c
    c /= np.sqrt(s[0] + s[1] + s[2] + s[3])
    return c


def su2_character(j, psi):
    """chi_j at class angle psi: sin((2j+1) psi)/sin(psi), chi_j(1) = 2j+1.
    ValueError unless the spin j names an irrep: 2j an integer >= 0."""
    if not (2 * j >= 0 and float(2 * j).is_integer()):
        raise ValueError("spin %r names no irrep of SU(2): 2j must be an integer >= 0" % (j,))
    n = int(2 * j) + 1
    psi = np.asarray(psi, dtype=float)
    s = np.sin(psi)
    near0 = psi < 1e-5
    nearpi = np.pi - psi < 1e-5
    generic = ~(near0 | nearpi)
    out = np.empty_like(psi)
    out[generic] = np.sin(n * psi[generic]) / s[generic]
    u0 = psi[near0]
    out[near0] = n * (1.0 - (n * n - 1.0) * u0 * u0 / 6.0)
    u1 = np.pi - psi[nearpi]
    out[nearpi] = ((-1.0) ** (n + 1)) * n * (1.0 - (n * n - 1.0) * u1 * u1 / 6.0)
    return out


def _check_tau(tau):
    """ValueError unless tau is finite and positive: the domain of every heat
    kernel and Z_tau estimate (z_char_surface also takes tau = 0 where Omega = 0)."""
    if not 0.0 < tau < math.inf:
        raise ValueError("tau %r is not finite and positive" % float(tau))


def _su2_nmax(tau):
    jmax = math.ceil(HK_TRUNC_C / math.sqrt(tau))
    return 2 * jmax + 1


def su2_heat_kernel_series(tau, psi):
    """Truncated character series sum_j (2j+1) e^{-tau j(j+1)} chi_j(psi).

    With n = 2j+1, chi_j(psi) = U_{n-1}(cos psi), so the series is
    sum_n n e^{-tau (n^2-1)/4} U_{n-1}(cos psi), summed by Clenshaw's
    recurrence; U_{n-1} is a polynomial, so psi = 0 and pi need no care.
    """
    _check_tau(tau)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    dim, casimir = SU2.irreps(np.arange(_su2_nmax(tau)))
    coef = dim * np.exp(-tau * casimir)
    x2 = 2.0 * np.cos(psi)
    b1, b2 = np.full_like(psi, coef[-1]), np.zeros_like(psi)
    for c in coef[-2::-1]:
        # b1, b2 = c + x2 b1 - b2, b1 with one temporary, not three
        t = x2 * b1
        t += c
        t -= b2
        b1, b2 = t, b1
    return b1


def _row_sum(term, k0, n):
    """term(k0) + ... + term(k0 + n - 1), arrays, in the order numpy sums a
    row of n numbers (but for the sign of a zero sum): left to right below 8;
    up to 128, eight partial sums of every eighth term, combined as
    ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), then the last n mod 8
    terms; beyond 128, two halves, the first a multiple of 8 long."""
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sum(term, k0, half) + _row_sum(term, k0 + half, n - half)
    if n < 8:
        acc, tail = term(k0), 1
    else:
        s = [term(k0 + j) for j in range(8)]
        tail = n - n % 8
        for i in range(8, tail):
            s[i % 8] += term(k0 + i)
        acc = (s[0] + s[1]) + (s[2] + s[3])
        acc += (s[4] + s[5]) + (s[6] + s[7])
    for k in range(k0 + tail, k0 + n):
        acc += term(k)
    return acc


def su2_heat_kernel_images(tau, psi):
    """Gaussian image sum over the cut locus (Poisson resummation of the series).

    Exact identity:
        K_tau(psi) = e^{tau/4} sqrt(4 pi) tau^{-3/2}
                     sum_k (psi + 2 pi k) e^{-(psi+2 pi k)^2/tau} / sin(psi)
    with Taylor branches where sin(psi) degenerates.
    """
    _check_tau(tau)
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    shape, psi = psi.shape, psi.ravel()
    pref = math.exp(tau / 4.0) * math.sqrt(4.0 * math.pi) * tau ** -1.5
    # images beyond |k| = K are e^{-((2K+1)^2-1) pi^2/tau} <= 1e-17 of the
    # leading ones (worst at psi = pi); K = 1 for tau <= 2
    kmax = math.ceil((math.sqrt(1.0 + 17.0 * math.log(10.0) * tau / math.pi ** 2)
                      - 1.0) / 2.0)
    ks = np.arange(-kmax, kmax + 1, dtype=float)

    def f(x):
        return x * np.exp(-x * x / tau)

    def fp(x):
        return (1.0 - 2.0 * x * x / tau) * np.exp(-x * x / tau)

    def fppp(x):
        return (-6.0 / tau + 24.0 * x * x / tau ** 2
                - 8.0 * x ** 4 / tau ** 3) * np.exp(-x * x / tau)

    out = np.empty_like(psi)
    # boundary layers: Taylor at psi = 0 and psi = pi (both numerator and
    # sin(psi) vanish there); cancellation near pi forces a tau-aware cut
    cut_pi = max(1e-7, (1e-14 * tau * tau) ** 0.25)
    near0 = psi < 1e-7
    nearpi = np.pi - psi < cut_pi
    generic = ~(near0 | nearpi)
    if np.any(generic):
        pg = psi if generic.all() else psi[generic]
        acc = _row_sum(lambda k: f(pg + 2 * np.pi * k), -kmax, len(ks))
        acc /= np.sin(pg)
        out[generic] = acc
    if np.any(near0):
        d1 = fp(2 * np.pi * ks).sum()
        d3 = fppp(2 * np.pi * ks).sum()
        u = psi[near0]
        out[near0] = d1 + u * u * (d3 + d1) / 6.0
    if np.any(nearpi):
        xs = np.pi + 2 * np.pi * ks
        d1 = fp(xs).sum()
        d3 = fppp(xs).sum()
        u = np.pi - psi[nearpi]
        out[nearpi] = -(d1 + u * u * (d3 + d1) / 6.0)
    return (pref * out).reshape(shape)


# ----------------------------------------------------------------------
# U(1): elements are angles in [0, 2 pi), Lie algebra R (trailing axis 1)

def u1_wrap(theta):
    return np.mod(theta, 2.0 * np.pi)


def u1_polar(theta):
    """(psi, t) of angles theta: the class angle psi in [0, pi] and theta
    wrapped to t in [0, 2 pi), from one wrap."""
    t = u1_wrap(np.asarray(theta, dtype=float))
    return np.minimum(t, 2.0 * np.pi - t), t


def u1_distance(theta):
    return u1_polar(theta)[0]


def u1_heat_kernel_series(tau, theta):
    _check_tau(tau)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nmax = math.ceil(HK_TRUNC_C / math.sqrt(tau))
    n = np.arange(1, nmax + 1, dtype=float)
    w = np.exp(-tau * n * n)
    return (1.0 + 2.0 * (np.cos(np.outer(theta, n)) @ w)).reshape(theta.shape)


def u1_heat_kernel_images(tau, theta):
    """Poisson resummation: K_tau(theta) = sqrt(pi/tau) sum_k e^{-(theta+2pi k)^2/4tau},
    one image at a time, summed as numpy sums a row of them (_row_sum)."""
    _check_tau(tau)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    kmax = max(2, int(math.ceil(math.sqrt(180.0 * tau) / (2 * math.pi))) + 2)
    scale = -(4.0 * tau)

    def image(k):       # e^{-x x / 4 tau}, x = theta + 2 pi k, bit for bit
        x = theta + 2 * math.pi * k
        x *= x
        x /= scale
        return np.exp(x, out=x)

    return math.sqrt(math.pi / tau) * _row_sum(image, -kmax, 2 * kmax + 1)


# ----------------------------------------------------------------------
# uniform group interface used by the foam-analysis modules

class SU2:
    """SU(2) as unit quaternions; all methods are vectorized over leading axes."""

    name = "su2"
    dim_g = 3          # dim of the Lie algebra
    elem_dim = 4       # trailing axis length of raw element arrays
    center_dim = 0     # Lie-algebra dimension of the center
    rank = 1           # dimension of a maximal torus

    mul = staticmethod(su2_mul)
    right_table = staticmethod(su2_right_table)
    right_mul = staticmethod(su2_right_mul)
    inv_table = staticmethod(su2_inv_table)
    inv = staticmethod(su2_inv)
    exp = staticmethod(su2_exp)
    adjoint = staticmethod(su2_adjoint)
    haar = staticmethod(su2_haar)
    mc_draw = staticmethod(su2_mc_draw)
    identity = staticmethod(su2_identity)
    word_angle = staticmethod(su2_word_angle)

    log = staticmethod(su2_log)
    polar = staticmethod(su2_polar)
    distance = staticmethod(su2_class_angle)
    character = staticmethod(su2_character)

    @staticmethod
    def is_element(g):
        """Per row of g (m, 4), as a bool array: a unit quaternion to
        ELEMENT_TOL in |q|^2, summed w^2 + x^2 + y^2 + z^2 left to right
        (False for a row with a NaN or an infinity)."""
        s = np.square(np.asarray(g, dtype=float)).T
        q = s[0] + s[1]
        q += s[2]
        q += s[3]
        q -= 1.0
        return np.abs(q, out=q) <= ELEMENT_TOL

    @staticmethod
    def irreps(i):
        """(dim, Casimir) of the irreps at places i of a character sum, as
        floats: spin j = i/2, dim 2j + 1 and C = j(j + 1), exactly (n^2 - 1)/4
        with n = 2j + 1."""
        j = np.asarray(i) / 2.0
        return 2.0 * j + 1.0, j * (j + 1.0)

    @staticmethod
    def heat_kernel(tau, psi):
        """K_tau at class angles psi: the image sum for tau <= 1, the series above."""
        if tau <= 1.0:
            return su2_heat_kernel_images(tau, psi)
        return su2_heat_kernel_series(tau, psi)


class U1:

    name = "u1"
    dim_g = 1
    elem_dim = 1
    center_dim = 1     # the whole group is central
    rank = 1

    @staticmethod
    def mul(a, b):
        return u1_wrap(a + b)

    @staticmethod
    def right_table(q):
        """The angles of q (..., 1) moved component-major (1, ...)."""
        return np.asarray(q, dtype=float)[None, ..., 0]

    @staticmethod
    def right_mul(p, R):
        """p q for component-major angles p (1, ...) and the table R of q."""
        return u1_wrap(p + R)

    @staticmethod
    def inv_table(R):
        """The table of q^-1 from the table R of q."""
        return u1_wrap(-R)

    @staticmethod
    def inv(a):
        return u1_wrap(-a)

    @staticmethod
    def exp(v):
        return u1_wrap(np.asarray(v, dtype=float))

    @staticmethod
    def polar(g):
        """u1_polar of the angles of g: (distance(g), the wrapped angles)."""
        return u1_polar(np.asarray(g)[..., 0])

    @staticmethod
    def log(g, check_cut_locus=True, polar=None):
        """The angle of g in (-pi, pi]; polar: U1.polar(g), if the caller has it."""
        t = (U1.polar(g) if polar is None else polar)[1][..., None]
        if check_cut_locus and np.any(np.abs(t - np.pi) < EPS_LOG):
            raise CutLocusError("log within %g of the cut locus (theta = pi)" % EPS_LOG)
        return np.where(t <= np.pi, t, t - 2.0 * np.pi)

    @staticmethod
    def adjoint(g):
        return np.ones(np.asarray(g).shape[:-1] + (1, 1))

    @staticmethod
    def haar(rng, shape=()):
        """Uniform angles, Fortran-ordered like su2_haar."""
        return np.asfortranarray(rng.uniform(0.0, 2.0 * np.pi, size=tuple(shape) + (1,)))

    @staticmethod
    def mc_draw(rows, out, unit=False):
        """Haar angles for Monte Carlo, written into out (m, E, 1) as
        su2_mc_draw writes normals: rows[k] fills the row out[:, k, 0] with
        its generator's uniform [0, 1) values times 2 pi.  Every angle is an
        element, so unit changes nothing.  Returns out."""
        for k, rng in enumerate(rows):
            row = out[:, k, 0]
            rng.random(out=row)
            row *= 2.0 * np.pi
        return out

    @staticmethod
    def identity(shape=()):
        return np.zeros(tuple(shape) + (1,))

    @staticmethod
    def distance(g):
        return u1_distance(np.asarray(g)[..., 0])

    @staticmethod
    def is_element(g):
        """Per row of g (m, 1), as a bool array: a finite angle."""
        return np.isfinite(np.asarray(g, dtype=float)[:, 0])

    @staticmethod
    def word_angle(word_idx, g):
        """Distance to the identity of a face word's holonomy sum_l s_l theta_l."""
        t = np.zeros(g.shape[:-2])
        for e, s in word_idx:
            t = t + g[..., e, 0] if s > 0 else t - g[..., e, 0]
        return u1_distance(t)

    @staticmethod
    def character(label, theta):
        """cos(label theta) at angles theta; ValueError unless the charge
        label is an integer, the label of an irrep."""
        if not float(label).is_integer():
            raise ValueError("charge %r names no irrep of U(1): it must be an integer"
                             % (label,))
        return np.cos(label * np.asarray(theta, dtype=float))

    @staticmethod
    def irreps(i):
        """(dim, Casimir) of the irreps at places i of a character sum, as
        floats: charges n = 0, 1, -1, 2, -2, ..., dim 1 and C = n^2."""
        n = np.ceil(np.asarray(i) / 2.0)
        return np.ones_like(n), n * n

    @staticmethod
    def heat_kernel(tau, theta):
        """K_tau at angles theta: the image sum for tau <= 1, the series above."""
        if tau <= 1.0:
            return u1_heat_kernel_images(tau, theta)
        return u1_heat_kernel_series(tau, theta)


GROUPS = {"su2": SU2, "u1": U1}


def get_group(group):
    """The group class SU2 or U1, given as itself or by name ('su2', 'u1')."""
    if group is SU2 or group is U1:
        return group
    try:
        return GROUPS[group.lower()]
    except (KeyError, AttributeError):
        raise ValueError("unknown group %r (expected 'su2' or 'u1')" % (group,)) from None
