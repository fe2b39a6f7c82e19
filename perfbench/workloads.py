"""The three workloads of the foamtor benchmark: the jobs of one round.

A job is one `foamtor` CLI command run in-process through
``foamtor.cli.main(argv)`` with ``--out`` pointing at a file in the run's work
directory, or one public library call where the CLI has no command.  Every
job carries a check against an independent route; a job that raises, exits
with code 2 or misses its check has failed, and its time does not count.

A run repeats one round, the workload's fixed job list in order, with the
same arguments every time.  The workload seed picks the ``--seed`` of every
job (see ``job_seeds``), except on ``descent``, whose inputs are fixed (see
``Workload.fixed_inputs``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """A job's output disagrees with its reference route."""


@dataclass(frozen=True)
class Job:
    key: str            # identity of the job within a round, e.g. "analyze genus:2"
    kind: str           # command kind; the warm-up runs the first job of each kind
    run: Callable       # (seed, workdir) -> value; the only timed part
    check: Callable     # (value, workdir) -> (units, relerr or None); raises CheckFailed


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: int       # job_s.tail percentile: >= 10 job runs beyond it in one run
    unit: str           # what `throughput` counts
    foams: tuple        # --foam arguments the set-up builds
    jobs: tuple         # one round, in order
    kernel: str         # calibration kernel that slows like these jobs (calibrate.py)
    # Job seeds independent of the workload seed.  Descent needs this: how
    # long a 20-start descent takes depends on its starts so much (0.2 s to
    # 10 s for one job) that a run over one round of inputs swings by 20-40%
    # between workload seeds.
    fixed_inputs: bool = False


def job_seeds(workload_seed, workload):
    """The --seed of every job of the round (same workload seed, same list)."""
    gen = random.Random(workload.name if workload.fixed_inputs
                        else "%s:%d" % (workload.name, workload_seed))
    return [gen.randrange(2 ** 31) for _ in workload.jobs]


def _require(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args)


def _cli_job(key, kind, args, check, out_name, seeded=True, fmt="json"):
    """A CLI command; check receives the parsed --out file."""
    def run(seed, workdir):
        from foamtor import cli
        out = workdir / out_name
        if out.exists():
            out.unlink()
        argv = list(args) + (["--seed", str(seed)] if seeded else [])
        return cli.main(argv + ["--out", str(out)])

    def verify(rc, workdir):
        _require(rc in (0, 1), "exit code %r", rc)
        text = (workdir / out_name).read_text(encoding="utf-8")
        return check(json.loads(text) if fmt == "json" else text)

    return Job(key, kind, run, verify)


# ----------------------------------------------------------------------
# mc: Monte Carlo Z_tau against character sums

MC_FOAMS = ("torus", "genus:2", "genus:3", "appendix")
MC_TAUS = (0.3, 0.6, 1.0, 1.5, 3.0)     # <= 1: Gaussian images; > 1: character series
MC_SAMPLES = 200_000
MC_SIGMAS = 5.0


def _mc_reference(foam, tau):
    from foamtor import z_char_appendix, z_char_surface
    if foam == "appendix":
        return z_char_appendix(tau).value
    return z_char_surface(1 if foam == "torus" else int(foam.split(":")[1]), tau).value


def _mc_check(tau, ref):
    def check(out):
        (p,) = out["points"]
        _require(abs(p["tau"] - tau) <= 1e-12 * tau, "tau %r, expected %r", p["tau"], tau)
        _require(p["stderr"] > 0, "stderr %r", p["stderr"])
        dev = abs(p["value"] - ref) / p["stderr"]
        _require(dev <= MC_SIGMAS, "Z=%r is %.2f sigma from the character sum %r",
                 p["value"], dev, ref)
        return p["meta"]["n_samples"], p["stderr"] / abs(p["value"])
    return check


def build_mc(workdir):
    jobs = []
    for foam in MC_FOAMS:
        for tau in MC_TAUS:
            args = ["ztau", "--foam", foam, "--method", "mc", "--workers", "2",
                    "--samples", str(MC_SAMPLES), "--tau-grid", "%r:%r:1" % (tau, tau)]
            jobs.append(_cli_job("ztau-mc %s tau=%g" % (foam, tau), "ztau", args,
                                 _mc_check(tau, _mc_reference(foam, tau)), "mc.json"))
    return Workload("mc", 80, "Haar connections evaluated", MC_FOAMS, tuple(jobs), "batched")


# ----------------------------------------------------------------------
# descent: flat points found by gradient descent, on foams without an
# analytic flat family

DESCENT_SAMPLES = 20

# Genus 2 with its face duplicated (a Tietze-2 move: b2_0 = 3) and genus 2
# expanded by an edge c = a1 b1 (a Tietze-1 move: b2_0 unchanged).
GENUS2_DUP = """\
edges: a1 b1 a2 b2
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
"""
GENUS2_T1 = """\
edges: a1 b1 a2 b2 c
face: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
face: c b1^-1 a1^-1
"""

# foam -> (b2_0, Euler characteristic), both known from the presentation
DESCENT_EXPECT = {
    "genus:2": (0, -2), "genus:3": (0, -4), "genus:4": (0, -6), "genus:5": (0, -8),
    "dunce_hat": (0, 1), "projective_plane": (0, 1),
    "genus2_dup.foam": (3, -1), "genus2_t1.foam": (0, -2),
}


def _analyze_check(b2_0, hist_keys=None):
    def check(out):
        tw = out["twisted"]
        _require(tw["b2_0"] == b2_0, "b2_0 %r, expected %r", tw["b2_0"], b2_0)
        _require(out["euler_identity_ok"], "Euler identity violated")
        if hist_keys is not None:
            got = set(map(int, tw["histogram_b2"]))
            _require(got == hist_keys, "b2 histogram keys %r, expected %r", got, hist_keys)
        return sum(tw["histogram_b2"].values()), None
    return check


def _torsion_check(euler, unit_magnitude=False, b2_values=None):
    """Every torsion sample obeys b0 - b1 + b2 = 3 chi; refusals are recorded."""
    def check(out):
        entries = out["torsion"]
        _require(entries, "no torsion samples")
        for t in entries:
            if "error" in t:
                continue
            _require(t["b0"] - t["b1"] + t["b2"] == 3 * euler,
                     "Betti numbers %r break the Euler identity", (t["b0"], t["b1"], t["b2"]))
            if b2_values is not None:
                _require(t["b2"] in b2_values, "b2 %r outside %r", t["b2"], b2_values)
            if unit_magnitude:
                _require(abs(t["magnitude"] - 1.0) <= 1e-8, "|tor| = %r, expected 1",
                         t["magnitude"])
        return len(entries), None
    return check


def build_descent(workdir):
    (workdir / "genus2_dup.foam").write_text(GENUS2_DUP, encoding="utf-8")
    (workdir / "genus2_t1.foam").write_text(GENUS2_T1, encoding="utf-8")
    jobs = []
    foams = []
    for foam, (b2_0, euler) in DESCENT_EXPECT.items():
        arg = str(workdir / foam) if foam.endswith(".foam") else foam
        foams.append(arg)
        common = ["--foam", arg, "--samples", str(DESCENT_SAMPLES)]
        jobs.append(_cli_job("analyze " + foam, "analyze", ["analyze"] + common,
                             _analyze_check(b2_0), "analyze.json"))
        jobs.append(_cli_job("torsion " + foam, "torsion", ["torsion"] + common,
                             _torsion_check(euler, unit_magnitude=foam == "genus:2"),
                             "torsion.json"))
    return Workload("descent", 65, "flat samples kept and analysed", tuple(foams),
                    tuple(jobs), "scalar", fixed_inputs=True)


# ----------------------------------------------------------------------
# chart: analytic flat points and exact routes; no descent, no Monte Carlo

CHART_ANALYZE_SAMPLES = 200
CHART_TORSION_SAMPLES = 20
CHART_VOLUME_GRID = 30
CHART_QUAD_NODES = 24
CHART_TAU_GRID = "1e-3:1e-1:8"
CHART_CHAR_FOAMS = {"torus": 1, "genus:2": 2}      # foam -> genus


def _direct_surface_sum(genus, tau):
    """sum_{n >= 1} n^(2-2g) e^{-tau (n^2-1)/4}, summed term by term."""
    n = np.arange(1.0, math.ceil(math.sqrt(200.0 / tau)) + 2.0)
    return float(np.sum(n ** (2 - 2 * genus) * np.exp(-tau * (n * n - 1.0) / 4.0)))


def _char_csv_check(genus):
    def check(text):
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        _require(len(rows) == 8, "%d tau points, expected 8", len(rows))
        for tau, _, value, _, _ in rows:
            ref = _direct_surface_sum(genus, float(tau))
            _require(abs(float(value) - ref) <= 1e-10 * ref,
                     "Z(tau=%s) = %s, direct sum %r", tau, value, ref)
        return 0, None
    return check


def _fit_check(b2_0):
    def check(out):
        omega = out["fit"]["omega"]
        _require(abs(omega - b2_0) <= 0.1, "fitted omega %r, b2_0 = %r", omega, b2_0)
        return 0, None
    return check


def _toy_reference(tau):
    """Closed form of int_{[-1,1]^2} e^{-(xy)^2/tau}: 2 sqrt(pi tau) int_0^U erf(u)/u du,
    U = 1/sqrt(tau); erf(u) = 1 to double precision beyond u = 6."""
    from scipy.integrate import quad

    def f(u):
        return math.erf(u) / u if u > 0 else 2.0 / math.sqrt(math.pi)

    upper = 1.0 / math.sqrt(tau)
    head = quad(f, 0.0, min(upper, 6.0), limit=200)[0]
    tail = math.log(upper / 6.0) if upper > 6.0 else 0.0
    return 2.0 * math.sqrt(math.pi * tau) * (head + tail)


def _toy_check(refs):
    def check(out):
        _require(out["selected_model"] == "sqrt(tau)*log(1/tau)",
                 "selected model %r", out["selected_model"])
        for p, ref in zip(out["points"], refs):
            _require(abs(p["value"] - ref) <= 1e-9 * ref, "toy z(%r) = %r, closed form %r",
                     p["tau"], p["value"], ref)
        return 0, None
    return check


def _dominant_part_job(limit):
    def run(seed, workdir):
        from foamtor import torus_dominant_part
        return torus_dominant_part(CHART_QUAD_NODES, rng=np.random.default_rng(seed))

    def check(value, workdir):
        _require(abs(value - limit) <= 1e-3 * abs(limit),
                 "quadrature %r, character-sum limit %r", value, limit)
        return CHART_QUAD_NODES ** 2, None

    return Job("torus_dominant_part", "torus_dominant_part", run, check)


def build_chart(workdir):
    from foamtor.partition import char_sum_limit
    jobs = []
    for foam, b2_keys, euler in (("torus", {1}, 0), ("appendix", {2, 3}, 0)):
        jobs.append(_cli_job("analyze " + foam, "analyze",
                             ["analyze", "--foam", foam,
                              "--samples", str(CHART_ANALYZE_SAMPLES)],
                             _analyze_check(min(b2_keys), b2_keys), "analyze.json"))
        jobs.append(_cli_job("torsion " + foam, "torsion",
                             ["torsion", "--foam", foam,
                              "--samples", str(CHART_TORSION_SAMPLES)],
                             _torsion_check(euler, unit_magnitude=foam == "torus",
                                            b2_values=b2_keys), "torsion.json"))

    def volume_check(out):
        _require(out["passed"], "torus-volume max error %r", out["max_abs_error"])
        return CHART_VOLUME_GRID ** 2, None

    jobs.append(_cli_job("torsion --check torus-volume", "torus-volume",
                         ["torsion", "--foam", "torus", "--check", "torus-volume",
                          "--grid", str(CHART_VOLUME_GRID)], volume_check, "volume.json"))
    jobs.append(_dominant_part_job(char_sum_limit(1)))
    for foam, genus in CHART_CHAR_FOAMS.items():
        csv = "ztau-%s.csv" % genus
        jobs.append(_cli_job("ztau-char " + foam, "ztau",
                             ["ztau", "--foam", foam, "--method", "char",
                              "--tau-grid", CHART_TAU_GRID, "--format", "csv"],
                             _char_csv_check(genus), csv, fmt="csv"))
        jobs.append(_cli_job("fit " + foam, "fit", ["fit", "--in", str(workdir / csv)],
                             _fit_check(1 if genus == 1 else 0), "fit.json", seeded=False))
    toy_taus = np.logspace(-6, -2, 9)
    jobs.append(_cli_job("toy", "toy", ["toy", "--tau-grid", "1e-6:1e-2:9"],
                         _toy_check([_toy_reference(t) for t in toy_taus]), "toy.json",
                         seeded=False))
    foams = ("torus", "appendix") + tuple(CHART_CHAR_FOAMS)
    return Workload("chart", 90, "flat-chart points evaluated", foams, tuple(jobs), "scalar")


BUILDERS = {"mc": build_mc, "descent": build_descent, "chart": build_chart}
