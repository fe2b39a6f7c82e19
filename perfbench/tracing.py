"""Per-layer tracing of foamtor, applied at runtime from the benchmark's side.

``Tracer`` replaces each listed public function, in every foamtor module
namespace that binds it, and the ``SU2``/``U1`` static methods, by a wrapper
that opens a span on entry and closes it on exit.  A span's self time is its
duration minus the durations of the spans it directly encloses (calls run on
one thread, so children nest).  Spans are folded into per-name totals as they
close, which keeps memory flat across the millions of group products a run
makes.  A few wrappers also count work (elements, samples, iterations) or
waste (dropped starts, refused samples, rank warnings) at the same boundary.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> the (module, attribute) pairs of the functions it covers
FUNCTIONS = {
    "foam.parse_foam": [("foamtor.foam", "parse_foam")],
    "foam.reduce_foam": [("foamtor.foam", "reduce_foam")],
    "foam.cellular_homology": [("foamtor.foam", "cellular_homology")],
    "connection.find_flat_batch": [("foamtor.connection", "find_flat_batch")],
    "twisted.build_delta0": [("foamtor.twisted", "build_delta0")],
    "twisted.build_delta1": [("foamtor.twisted", "build_delta1")],
    "twisted.svd_rank": [("foamtor.twisted", "svd_rank")],
    "twisted.cohomology": [("foamtor.twisted", "cohomology")],
    "torsion.torsion_at": [("foamtor.torsion", "torsion_at")],
    "torsion.gaussian_volume": [("foamtor.torsion", "gaussian_volume")],
    "partition.z_mc": [("foamtor.partition", "z_mc")],
    "partition.char": [("foamtor.partition", "z_char_surface"),
                       ("foamtor.partition", "z_char_appendix")],
    "partition.fit": [("foamtor.partition", "fit_scaling"),
                      ("foamtor.partition", "fit_toy")],
    "cli.main": [("foamtor.cli", "main")],
}
GROUP_METHODS = ("mul", "heat_kernel", "adjoint", "log", "exp", "haar")
SPANS = tuple("groups." + m for m in GROUP_METHODS) + tuple(FUNCTIONS)


def _count_mul(fn, counts):
    def mul(a, b):
        out = fn(a, b)
        counts["groups.mul.elems"] += out.size // out.shape[-1]
        return out
    return mul


def _count_heat_kernel(fn, counts):
    def heat_kernel(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts["groups.heat_kernel.elems"] += out.size
        return out
    return heat_kernel


def _count_descent(fn, counts):
    """Starts requested and kept, and iterations from find_flat_batch's trace hook."""
    sig = inspect.signature(fn)

    def find_flat_batch(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        if bound.arguments.get("trace") is None:
            bound.arguments["trace"] = []
        trace = bound.arguments["trace"]
        before = len(trace)
        out = fn(*bound.args, **bound.kwargs)
        counts["connection.descent.iters"] += len(trace) - before
        counts["connection.flat.requested"] += bound.arguments["n"]
        counts["connection.flat.kept"] += len(out)
        return out
    return find_flat_batch


def _count_rank_warnings(fn, counts):
    def cohomology(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts["twisted.rank_warnings"] += int(out.rank_warning)
        return out
    return cohomology


def _count_refusals(fn, counts):
    def torsion_at(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError:
            counts["torsion.refused"] += 1
            raise
    return torsion_at


def _count_samples(fn, counts):
    def z_mc(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts["partition.z_mc.samples"] += out.meta.get("n_samples", 0)
        return out
    return z_mc


COUNTERS = {
    "groups.mul": _count_mul,
    "groups.heat_kernel": _count_heat_kernel,
    "connection.find_flat_batch": _count_descent,
    "twisted.cohomology": _count_rank_warnings,
    "torsion.torsion_at": _count_refusals,
    "partition.z_mc": _count_samples,
}


class Tracer:
    """Context manager: wraps foamtor's layers on entry and restores them on exit."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._open = []          # child time accumulated by each open span
        self._restore = []       # (owner, attribute, original value)

    def _span(self, name, fn):
        if name in COUNTERS:
            fn = COUNTERS[name](fn, self.counts)
        open_spans, calls, self_s = self._open, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            child = [0.0]
            open_spans.append(child)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - child[0]
        return wrapper

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        from foamtor.groups import SU2, U1
        for cls in (SU2, U1):
            for method in GROUP_METHODS:
                original = cls.__dict__[method].__func__
                self._replace(cls, method,
                              staticmethod(self._span("groups." + method, original)))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "foamtor" or name.startswith("foamtor.")]
        for name, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapper = self._span(name, original)
                for mod in modules:
                    for bound_name, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, bound_name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        return False

    def metrics(self, rounds):
        """Per-layer metrics, each a total per round of the workload's jobs."""
        out = {}
        for name in SPANS:
            out[name + ".calls"] = (self.calls[name] / rounds, "count/round")
            out[name + ".self_s"] = (self.self_s[name] / rounds, "s/round")
        for name in ("groups.mul.elems", "groups.heat_kernel.elems",
                     "connection.descent.iters", "connection.flat.requested",
                     "partition.z_mc.samples", "twisted.rank_warnings"):
            out[name] = (self.counts[name] / rounds, "count/round")
        requested = self.counts["connection.flat.requested"]
        attempts = self.calls["torsion.torsion_at"]
        # no starts requested or no torsion attempted: nothing was wasted
        out["connection.flat.kept_frac"] = (
            self.counts["connection.flat.kept"] / requested if requested else 1.0, "frac")
        out["torsion.refused_frac"] = (
            self.counts["torsion.refused"] / attempts if attempts else 0.0, "frac")
        return out
