"""Regularized partition function Z_tau, divergence-exponent fits, toy integral.

Z_tau(foam, G) = int dA prod_f K_tau(H_f(A)) with normalized Haar measure.
Estimators: plain Monte Carlo over Haar-random connections (with standard
errors), the genus-g character sum sum_rho dim^{2-2g} e^{-tau C} over the
group's irreps table, and the exact SU(2) double character sum for the
three-edge/two-face foam.  Scaling is quantified against
Lambda_tau = (4 pi tau)^{-1/2}.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .foam import reduce_foam
from .groups import SU2, _check_tau, get_group

MC_TAU_FLOOR = 0.02
MC_CHUNK = 50_000       # z_mc holds at most about this many samples at once
MC_RAW_LETTERS = 256    # longest face word z_mc walks on unnormalized draws
CSV_COLUMNS = "tau,lambda_tau,value,stderr,method"
SELECT_FACTOR = 5.0     # the log model is chosen iff it cuts the residual RMS this much
LIMIT_TAUS = (1e-4, 1e-5, 1e-6)   # char_sum_limit's extrapolation points
FD_STEP = np.finfo(float).eps ** 0.5  # fit_toy's relative finite-difference step
CHAR_MAX_TERMS = 10 ** 7  # the most terms a character sum adds (tau ~ 6e-12 on a surface)
CHAR_CHUNK = 10 ** 6      # the most terms a character sum holds at once


def lambda_tau(tau):
    """The divergence scale Lambda_tau = (4 pi tau)^(-1/2)."""
    return (4.0 * math.pi * np.asarray(tau, dtype=float)) ** -0.5


@dataclass(frozen=True)
class ZEstimate:
    tau: float
    value: float
    stderr: float
    method: str                    # "mc" | "char-surface" | "char-appendix" | "toy"
    meta: dict = field(default_factory=dict)


def zestimates_csv(points):
    lines = [CSV_COLUMNS]
    for p in points:
        lines.append("%.12g,%.12g,%.15g,%.6g,%s"
                     % (p.tau, float(lambda_tau(p.tau)), p.value, p.stderr, p.method))
    return "\n".join(lines) + "\n"


def _impossible(point):
    """Why a point cannot be a Z_tau estimate (a tau outside _check_tau's
    domain, a value that is not finite, or a stderr that is not finite and
    >= 0), or None."""
    try:
        _check_tau(point.tau)
    except ValueError as e:
        return str(e)
    if not math.isfinite(point.value):
        return "value %r is not finite" % point.value
    if not 0.0 <= point.stderr < math.inf:
        return "stderr %r is not finite and >= 0" % point.stderr
    return None


def zestimates_from_csv(text):
    """The points of a zestimates_csv text, whose first non-blank line is the
    header CSV_COLUMNS; ValueError names the line of a missing header, or the
    first line that is not a row of CSV_COLUMNS or holds an impossible point
    (see _impossible)."""
    rows = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if rows and rows[0][1].strip() != CSV_COLUMNS:
        raise ValueError("line %d: %r is not the header %s" % (rows[0] + (CSV_COLUMNS,)))
    points = []
    for n, line in rows[1:]:
        try:
            tau, _, value, stderr, method = line.split(",")
            point = ZEstimate(float(tau), float(value), float(stderr), method)
        except ValueError:
            raise ValueError("line %d: %r is not a row of %s" % (n, line, CSV_COLUMNS)) from None
        why = _impossible(point)
        if why:
            raise ValueError("line %d: %s" % (n, why))
        points.append(point)
    return points


# ----------------------------------------------------------------------
# Monte Carlo

def usable_cpus():
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _merge_moments(a, b):
    """Chan et al.'s pairwise update of (count, mean, M2), M2 = sum (x - mean)^2."""
    na, ma, qa = a
    nb, mb, qb = b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), qa + qb + d * d * (na * nb / n)


def _chunk_moments(group, tau, words, g):
    """(n, mean, sum of squared deviations) of prod_f K_tau(H_f) over the n
    samples of g (n, E, elem_dim).  The first face's kernel values hold the
    product, and nothing outlives the call, so the first word is walked with
    no other sample-length row held."""
    vals = None
    for word in words:
        if vals is None:
            vals = group.heat_kernel(tau, group.word_angle(word, g))
        else:
            vals *= group.heat_kernel(tau, group.word_angle(word, g))
    if vals is None:
        vals = np.ones(len(g))
    mean = float(vals.mean())
    vals -= mean
    vals *= vals
    return len(g), mean, float(vals.sum())


def z_mc(foam, group, tau, n_samples, seed, n_workers=1):
    """Sample mean of prod_f K_tau(H_f(A)) over A ~ Haar^E; foam is a Foam or a builtin key.

    The n_samples draws are split into n_workers streams: each stream gets
    n_samples // n_workers and the last one the rest too, so with fewer
    samples than workers only the last stream draws, and the work grows
    with the samples, not the workers.  Stream w draws each of the
    E * elem_dim component rows of its connections from a generator of its
    own: row k, edge k // elem_dim and component k % elem_dim, is the stream
    of Generator(SFC64(c)) for the k-th of the E * elem_dim children c that
    SeedSequence([seed, w]) spawns once, numpy's recipe for independent
    streams.  The non-empty streams run concurrently on a thread pool of at
    most usable_cpus() threads, and their moments are merged in stream
    order, so the result depends on the seed and n_workers only.  At most about
    MC_CHUNK samples are held in memory at once across the drawing streams,
    each chunked at MC_CHUNK over their number; every chunk fills each row
    from where the row's generator left off, so a stream's draws do not
    depend on how it is chunked.  From the CLI:
    ``foamtor ztau --method mc --workers N``.  ValueError names a seed,
    n_samples or n_workers that is not an integer (a bool is not one), and a
    negative seed, before any draw.

    The draw buffers, one per pool thread, are Fortran-ordered, allocated by
    the calling thread before the pool starts and reused by every chunk, so
    each component row of a chunk is contiguous and filled in place, and the
    memory the process holds does not depend on how the pool threads
    interleave.

    A chunk is drawn by group.mc_draw, which for SU(2) gives the Haar normals
    unnormalized: word_angle reads angles that do not depend on the scale, so
    an estimate can differ from one on unit quaternions in its last bits
    only.  A word longer than MC_RAW_LETTERS could overflow the product of
    unnormalized rows, so such a foam has mc_draw divide the same normals by
    their norms in place.  SU(2) walks each face word by blocks
    (su2_word_angle): a commutator of two edges' letters in closed form, or
    as one factor of a longer product, and any other letter one at a time;
    so a chunk holds its draw buffer and at most twelve rows of its length
    (_chunk_moments).

    Below the MC floor the integrand variance swamps 1e7-sample estimates;
    use the character evaluators there.
    """
    for name, value in (("seed", seed), ("n_samples", n_samples), ("n_workers", n_workers)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError("%s=%r is not an integer" % (name, value))
    if seed < 0:
        raise ValueError("seed=%r is negative" % (seed,))
    if n_workers < 1:
        raise ValueError("n_workers=%r: need at least one worker stream" % (n_workers,))
    _check_tau(tau)
    if tau < MC_TAU_FLOOR:
        raise ValueError(
            "tau=%g is below the MC floor %g; use a character-sum evaluator"
            % (tau, MC_TAU_FLOOR))
    group = get_group(group)
    foam = reduce_foam(foam)
    if foam.E == 0:
        val = 1.0
        for _ in range(foam.F):
            val *= float(group.heat_kernel(tau, np.zeros(1))[0])
        return ZEstimate(tau, val, 0.0, "mc", {"n_samples": 0, "exact": True})
    if n_samples < 2:
        raise ValueError("n_samples=%r: Monte Carlo needs at least 2 samples "
                         "for a standard error" % (n_samples,))
    per, rest = divmod(n_samples, n_workers)
    unit = max(map(len, foam.words_idx), default=0) > MC_RAW_LETTERS

    # the non-empty streams: all of them, or the last one alone
    drawing = range(0 if per else n_workers - 1, n_workers)
    step = -(-MC_CHUNK // len(drawing))
    threads = min(len(drawing), usable_cpus())
    # at most `threads` streams run at once, so each takes a buffer off this
    # list and puts it back when done (list pop and append are atomic)
    buffers = [np.empty((min(step, per + rest), foam.E, group.elem_dim), order="F")
               for _ in range(threads)]

    def stream(w):
        children = np.random.SeedSequence([seed, w]).spawn(foam.E * group.elem_dim)
        rows = [np.random.Generator(np.random.SFC64(c)) for c in children]
        n = per + rest if w == n_workers - 1 else per
        buf = buffers.pop()
        parts = []
        for start in range(0, n, step):
            g = group.mc_draw(rows, buf[:min(step, n - start)], unit)
            parts.append(_chunk_moments(group, tau, foam.words_idx, g))
        buffers.append(buf)
        return reduce(_merge_moments, parts)

    # imported here so that importing foamtor does not pay for it
    from concurrent.futures import ThreadPoolExecutor
    # numpy releases the GIL in the Haar draws and the kernels
    with ThreadPoolExecutor(threads) as pool:
        streams = list(pool.map(stream, drawing))
    n_done, mean, m2 = reduce(_merge_moments, streams)
    stderr = math.sqrt(m2 / (n_done - 1) / n_done)
    return ZEstimate(tau, mean, stderr, "mc",
                     {"n_samples": n_done, "seed": seed, "n_workers": n_workers})


# ----------------------------------------------------------------------
# character sums (normalized Haar: no volume prefactors)

def _surface_sum_direct(group, g, tau, nmax):
    """sum dim^{2-2g} e^{-tau C} over the group's first nmax irreps, CHAR_CHUNK at a time."""
    total = 0.0
    for k in range(0, nmax, CHAR_CHUNK):
        dim, casimir = group.irreps(np.arange(k, min(k + CHAR_CHUNK, nmax)))
        casimir *= -tau
        total += float(np.sum(dim ** (2 - 2 * g) * np.exp(casimir, out=casimir)))
        del dim, casimir    # so the next chunk's table is the most held at once
    return total


def _char_terms(tau, cutoff):
    """The truncation 2 cutoff / sqrt(tau) + 1 of a character sum at tau, where
    its terms fall below e^-cutoff^2; ValueError names a tau outside _check_tau's
    domain or, before any term is summed, one past CHAR_MAX_TERMS."""
    _check_tau(tau)
    nmax = int(math.ceil(2.0 * cutoff / math.sqrt(tau))) + 1
    if nmax > CHAR_MAX_TERMS:
        raise ValueError("tau %r needs %d character-sum terms, more than the %d it sums"
                         % (tau, nmax, CHAR_MAX_TERMS))
    return nmax


def _genus_omega(g, group):
    """(g, Omega): the genus as an int and the b2 of the trivial (g = 0), an
    abelian (g = 1) or an irreducible (g >= 2) generic point; ValueError
    unless g is a non-negative integer (an int or a numpy integer)."""
    if not (isinstance(g, numbers.Integral) and g >= 0):
        raise ValueError("genus %r is not a non-negative integer" % (g,))
    return int(g), {0: group.dim_g, 1: group.rank}.get(g, group.center_dim)


def z_char_surface(g, tau, group="su2"):
    """Character sum for the genus-g surface foam over the group's irreps table:

        Z_tau = sum_rho dim_rho^{2-2g} e^{-tau C_rho}  (SU(2): n = 2j+1, C = (n^2-1)/4).

    tau > 0 is summed term by term up to place 24/sqrt(tau) + 1, where the
    terms fall below e^-144, at a cost that grows like tau^-1/2.  tau = 0 is
    allowed where Omega = 0 (SU(2), g >= 2) and the series converges
    (Euler-Maclaurin tail); elsewhere it diverges, and _check_tau refuses it.
    ValueError names a genus that is not a non-negative integer, and a tau
    below about 6e-12, whose truncation passes CHAR_MAX_TERMS (_char_terms).
    """
    group = get_group(group)
    g, omega = _genus_omega(g, group)
    if tau == 0.0 and omega == 0:
        p = 2 * g - 2
        N = 100_000
        n = np.arange(1, N + 1, dtype=float)
        head = float(np.sum(n ** -p))
        tail = (N ** (1 - p) / (p - 1) - 0.5 * N ** -p + p / 12.0 * N ** -(p + 1))
        return ZEstimate(0.0, head + tail, 0.0, "char-surface",
                         {"g": g, "truncation": N, "tail": "euler-maclaurin"})
    nmax = _char_terms(tau, 12.0)
    val = _surface_sum_direct(group, g, tau, nmax)
    return ZEstimate(tau, val, 0.0, "char-surface", {"g": g, "truncation": nmax})


def z_char_appendix(tau):
    """Exact double character sum for the foam <a,b,h | [a,h] = [b,h] = 1>:

        Z_tau = sum_{j1,j2} e^{-tau (C(j1)+C(j2))} N(j1,j2),
        N(j1,j2) = dim Inv(j1 x j1 x j2 x j2) = 2 min(j1,j2) + 1.

    Derived from two applications of int da chi_j([a,h]) = |chi_j(h)|^2/(2j+1)
    and validated against plain Monte Carlo (see the test suite).  Evaluated
    as sum_k (sum_{n>=k} e_n)^2 with e_n = e^{-tau (n^2-1)/4}, n = 2j+1, up
    to n = 28/sqrt(tau) + 1, CHAR_CHUNK terms at a time from the top: each
    chunk's tail sums start from the running tail of the chunks above it, so
    up to CHAR_CHUNK terms it is one cumulative sum.  ValueError names a tau
    whose truncation passes CHAR_MAX_TERMS (_char_terms).
    """
    nmax = _char_terms(tau, 14.0)
    total, tail = 0.0, 0.0
    for top in range(nmax, 0, -CHAR_CHUNK):
        tails = np.exp(-tau * SU2.irreps(np.arange(max(top - CHAR_CHUNK, 0), top))[1][::-1])
        tails[0] += tail
        np.cumsum(tails, out=tails)
        tail = float(tails[-1])
        total += float(np.sum(tails[::-1] * tails[::-1]))
        del tails       # so the next chunk's table is the most held at once
    return ZEstimate(tau, total, 0.0, "char-appendix", {"truncation": nmax})


def char_sum_limit(g=1, group="su2"):
    """Richardson extrapolation of Lambda_tau^{-Omega} Z_tau as tau -> 0.

    The genus-g exponent Omega is the b2 of _genus_omega (SU(2): 3, 1, 0 for
    g = 0, 1, >= 2; U(1): 1); the correction series is polynomial in
    sqrt(tau), so a quadratic fit in h = sqrt(tau) through the points
    LIMIT_TAUS extrapolates the limit.  ValueError names a genus that is not
    a non-negative integer.
    """
    group = get_group(group)
    g, omega = _genus_omega(g, group)
    h = np.sqrt(np.asarray(LIMIT_TAUS))
    f = np.array([float(lambda_tau(t)) ** -omega * z_char_surface(g, t, group).value
                  for t in LIMIT_TAUS])
    return float(np.polyfit(h, f, 2)[-1])


# ----------------------------------------------------------------------
# scaling fits

@dataclass(frozen=True)
class ScalingFit:
    """A fit of log Z_tau against log Lambda_tau (_select); dominant_part is
    exp(log_const), the constant in front of Lambda_tau^omega."""

    omega: float
    log_const: float
    dominant_part: float
    with_log_correction: bool
    residual_rms: float
    residual_rms_pure: float
    residual_rms_withlog: float
    tau_grid: tuple
    coeffs: dict = field(default_factory=dict)


def _wls(X, y, w):
    Xw = X * w[:, None]
    coef, *_ = np.linalg.lstsq(Xw, y * w, rcond=None)
    r = y - X @ coef
    return coef, r


def _select(taus, x, y, w, alternative, model="auto"):
    """The ScalingFit of log Z = y against log Lambda = x on the grid taus.

    Fits the pure power law y ~ omega x + c by least squares with weights w,
    and the alternative model: alternative(omega), given the pure fit's
    omega as a start, returns its (omega, log_const, residuals, coeffs).
    model 'pure' or 'with-log' takes that model; any other takes the
    alternative iff it cuts the residual RMS by SELECT_FACTOR.  Both RMS
    values are always reported.
    """
    cp, rp = _wls(np.column_stack([x, np.ones_like(x)]), y, w)
    om, log_const, rl, coeffs = alternative(cp[0])
    rms_p, rms_l = (float(np.sqrt(np.mean(r ** 2))) for r in (rp, rl))
    use_log = {"pure": False, "with-log": True}.get(model, rms_p >= SELECT_FACTOR * rms_l)
    if not use_log:
        om, log_const, coeffs = cp[0], cp[1], {}
    return ScalingFit(float(om), float(log_const), math.exp(log_const), use_log,
                      rms_l if use_log else rms_p, rms_p, rms_l, tuple(map(float, taus)), coeffs)


def fit_scaling(points, model="auto"):
    """Weighted least squares of log Z against log Lambda_tau.

    model 'pure':     log Z ~ omega log Lambda + c
    model 'with-log': log Z ~ omega log Lambda + beta log log(1/tau) + c
    model 'auto' fits both and prefers with-log iff it reduces the residual
    RMS by SELECT_FACTOR.  Both RMS values are always reported, so every
    model needs log log(1/tau): ValueError names the first impossible point
    (see _impossible) or tau >= 1, counting from 1.
    """
    for i, p in enumerate(points, 1):
        why = _impossible(p) or (p.tau >= 1.0 and "tau %r is not below 1, where the "
                                 "with-log model's log log(1/tau) is defined" % float(p.tau))
        if why:
            raise ValueError("point %d: %s" % (i, why))
    points = sorted(points, key=lambda p: p.tau)
    taus = np.array([p.tau for p in points])
    vals = np.array([p.value for p in points])
    errs = np.array([p.stderr for p in points])
    if len(points) < 4:
        raise ValueError("need at least 4 grid points")
    if taus[-1] / taus[0] < 10.0:
        raise ValueError("tau grid must span at least one decade")
    if np.any(vals <= 0):
        raise ValueError("non-positive partition values cannot be fit in log space")
    x = np.log(lambda_tau(taus))
    y = np.log(vals)
    # weights ~ 1/sigma(log Z); uniform for exact series points
    sig = np.where(errs > 0, errs / vals, 1.0)
    if np.any(errs > 0):
        sig = np.where(errs > 0, sig, sig[errs > 0].min())
    w = 1.0 / sig
    w = w / w.max()

    def with_log(_):
        s = np.log(np.log(1.0 / taus))
        cl, rl = _wls(np.column_stack([x, s, np.ones_like(x)]), y, w)
        return cl[0], cl[2], rl, {"beta_loglog": float(cl[1])}

    return _select(taus, x, y, w, with_log, model)


# ----------------------------------------------------------------------
# toy Laplace integral with a non-integrable transverse singularity

@lru_cache(maxsize=4)
def _gauss_legendre(n):
    """np.polynomial.legendre.leggauss(n), built once per process for the
    last few orders n (toy_laplace's 24, torus_dominant_part's n_quad) and
    shared as read-only arrays."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _box(box_halfwidth):
    L = float(box_halfwidth)
    if not 0.0 < L < math.inf:
        raise ValueError("box half-width (--box) must be positive and finite, got %r" % L)
    return L


def toy_laplace(tau, box_halfwidth=1.0):
    """z_tau = int_{[-L,L]^2} e^{-(x y)^2 / tau} dx dy, for a tau or a 1-D
    array of taus (a float, or one value per tau).

    Tensor Gauss-Legendre panels on a geometric grid refined toward the axes
    (the integrand crosses over at |x y| ~ sqrt(tau)), 24 nodes per panel.
    The 24-node rule is built once per process (_gauss_legendre); each tau
    gets the bits of its own scalar call.  Panel p >= 1 of the n + 1 is
    panel n = [L/2, L] times 2^-(n-p) exactly, so block (p, r) of the
    exponent matrix is block (n, n) times 4^-((n-p)+(n-r)), exactly while no
    value overflows or goes subnormal where exp can tell (tau >= 2^-960 sees
    to that): one exp call for those 2n - 1 blocks, one for the n of them
    with the base panel [0, L 2^-n], with the bits of evaluating every
    entry.  ValueError names
    a (box, tau) whose exponents overflow, or a tau below 2^-960, and,
    before allocating, one whose grid has more than 128 panels.
    """
    taus = np.asarray(tau, dtype=float)
    for t in taus.ravel().tolist():
        _check_tau(t)
    L = _box(box_halfwidth)
    nodes, weights = _gauss_legendre(24)
    X = 0.5 * (L - L * 0.5) * nodes + 0.5 * (L * 0.5 + L)     # panel [L/2, L]

    def z(t):
        with np.errstate(over="ignore"):
            top = -np.outer(X, X) ** 2 / t
        if top[-1, -1] == -math.inf or t < 2.0 ** -960:
            raise ValueError("box half-width (--box) %r at tau %r leaves the toy's float "
                             "range: it needs (x y)^2 / tau finite and tau >= 2^-960" % (L, t))
        n = max(4, int(math.ceil(math.log2(L / math.sqrt(t)))) + 4)
        if n > 128:     # a matrix side of 24 * 129 = 3,096, 77 MB
            raise ValueError("box half-width (--box) %r at tau %r (--tau-grid) needs %d "
                             "panels, more than the toy's 128" % (L, t, n))
        bounds = np.array([0.0] + [L * 2.0 ** -k for k in range(n, -1, -1)])
        ws = (0.5 * np.diff(bounds)[:, None] * weights).ravel()
        x0 = 0.5 * bounds[1] * nodes + 0.5 * bounds[1]          # panel [0, L 2^-n]
        # geo[:, k] is the block of every geometric (p, r) with p + r - 2 = k
        depth = np.arange(2 * n - 2, -1, -1, dtype=np.int32)
        geo = np.exp(np.ldexp(top[:, None, :], -2 * depth[:, None]))
        cross = np.exp(np.ldexp(-np.outer(x0, X)[:, None, :] ** 2 / t,
                                -2 * depth[n - 1:, None]))
        vals = np.empty((n + 1, 24, n + 1, 24))
        vals[0, :, 0] = np.exp(-np.outer(x0, x0) ** 2 / t)
        vals[0, :, 1:] = cross
        vals[1:, :, 0] = cross.transpose(1, 2, 0)
        for p in range(1, n + 1):
            vals[p, :, 1:] = geo[:, p - 1:p - 1 + n]
        return 4.0 * float(ws @ vals.reshape(len(ws), -1) @ ws)

    if taus.ndim == 0:
        return z(float(taus))
    return np.array([z(t) for t in taus.tolist()])


def fit_toy(taus=None, values=None, box_halfwidth=1.0):
    """Fit the toy integral against the sqrt(tau) log(1/tau) law.

    Pure model:    log z ~ omega log Lambda + c.
    Log-amplitude: log z ~ omega log Lambda + log(beta log(1/tau) + c), the
    sqrt(tau)-times-logarithm law; selected when it beats the pure power by
    SELECT_FACTOR in residual RMS.  ValueError names the first point (from 1)
    with a tau outside _check_tau's domain or a value not finite and positive.

    The log-amplitude model runs MINPACK's lmder (scipy.optimize.leastsq)
    from two starts, with ftol = xtol = gtol = 1e-8, factor 100, no diag
    (MINPACK scales by the Jacobian's column norms) and at most 20,000
    evaluations, and the Jacobian written out as least_squares' default
    2-point rule: h_i = sqrt(eps) sign(p_i) max(1, |p_i|) (sign(0) = 1).  So
    it has the bits least_squares(method="lm") gives under the x_scale
    default of scipy 1.16 and later, without depending on that default.
    """
    _box(box_halfwidth)
    if taus is None:
        taus = np.logspace(-6, -2, 9)
    taus = np.asarray(taus, dtype=float)
    for i, t in enumerate(taus.tolist(), 1):
        try:
            _check_tau(t)
        except ValueError as e:
            raise ValueError("point %d: %s" % (i, e)) from None
    if len(taus) < 3:
        raise ValueError("the toy fit has 3 parameters: need at least 3 tau points "
                         "(--tau-grid), got %d" % len(taus))
    if values is None:
        values = toy_laplace(taus, box_halfwidth)
    vals = np.asarray(values, dtype=float)
    for i, v in enumerate(vals.tolist(), 1):
        if not 0.0 < v < math.inf:
            raise ValueError("point %d: value %r is not finite and positive" % (i, v))
    x = np.log(lambda_tau(taus))
    y = np.log(vals)
    s = np.log(1.0 / taus)

    from scipy.optimize import leastsq

    def resid(p):
        om, beta, c = p.tolist()
        inner = beta * s + c
        if (inner <= 0).any():
            return np.full_like(y, 1e3)
        return om * x + np.log(inner) - y

    def jac(p):
        # column i is (r(p + h_i e_i) - r(p)) / ((p_i + h_i) - p_i)
        f0 = resid(p)
        h = np.where(p >= 0, FD_STEP, -FD_STEP) * np.maximum(1.0, np.abs(p))
        J = np.empty((len(f0), len(p)))
        for i in range(len(p)):
            q = p.copy()
            q[i] = p[i] + h[i]
            J[:, i] = (resid(q) - f0) / ((p[i] + h[i]) - p[i])
        return J

    def log_amplitude(omega0):
        best = None
        for beta0 in (0.1, 1.0):
            p, _, info = leastsq(resid, [omega0, beta0, 1.0], Dfun=jac, full_output=True,
                                 ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=20000,
                                 factor=100)[:3]
            cost = 0.5 * np.dot(info["fvec"], info["fvec"])
            if best is None or cost < best[1]:
                best = p, cost
        om, beta, c = best[0]
        return om, math.log(c) if c > 0 else -math.inf, resid(best[0]), {
            "beta_log": float(beta), "const": float(c),
            "law": "lambda^omega * (beta ln(1/tau) + c)"}

    return _select(taus, x, y, np.ones_like(y), log_amplitude)
