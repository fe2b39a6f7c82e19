"""Command-line front end.

Every command is deterministic given --seed (default from FOAMTOR_SEED), and
every numeric claim of the library is reproducible by a one-line invocation;
see README.  Exit code 0 means all internal consistency checks passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import __version__
from .foam import (FoamError, builtin, cellular_homology, match_builtin, parse_foam,
                   reduce_foam)
from .groups import get_group
from .partition import (fit_scaling, fit_toy, toy_laplace, z_char_appendix,
                        z_char_surface, z_mc, zestimates_csv, zestimates_from_csv)
from .torsion import _torus_volume_columns, torsion_batch, torus_volume_csv
from .twisted import min_b2, sample_flat

TORUS_VOLUME_TOL = 1e-10   # --check torus-volume passes iff every abs error is below this


def _load_foam(source):
    if source.startswith("@") or os.path.exists(source):
        path = source.lstrip("@")
        with open(path, "r", encoding="utf-8") as fh:
            return parse_foam(fh.read(), name=os.path.basename(path))
    return builtin(source)


def _tau_grid(source):
    """n log-spaced taus from lo to hi, from --tau-grid lo:hi:n."""
    try:
        lo, hi, n = source.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        lo = hi = n = math.nan
    if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and n >= 1):
        raise ValueError("--tau-grid %s: need lo:hi:n with finite positive bounds and "
                         "an integer n of at least 1 point" % source)
    if n == 1 and lo != hi:
        raise ValueError("--tau-grid %s: one point begins and ends the grid, so lo "
                         "and hi must be equal" % source)
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    # logspace rounds its ends (0.3:0.3:1 gave 0.29999999999999993)
    grid[0], grid[-1] = lo, hi
    return grid


@functools.cache
def _field_names(cls):
    """The field names of dataclass cls in declaration order, else None."""
    return (tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls) else None)


def _write_json(o, out, pad=""):
    """The list out with the text json.dumps(o, indent=2, default=f) gives o
    appended, f as in _emit and pad the indent of o's line: one pass, where
    an indented json.dumps runs the pure-Python encoder's generators.  It
    recurses by its module name, since a nested closure calling itself is a
    reference cycle."""
    if isinstance(o, str):
        out.append(_json_str(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append("NaN" if o != o else "Infinity" if o == math.inf
                   else "-Infinity" if o == -math.inf else float.__repr__(o))
    elif not isinstance(o, (list, tuple, dict)):
        names = _field_names(type(o))
        if names is None:
            out.append(_json_str(str(o)))
        else:
            _write_json({k: getattr(o, k) for k in names}, out, pad)
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    else:
        inner, is_dict = pad + "  ", isinstance(o, dict)
        sep = ",\n" + inner
        out.append(("{\n" if is_dict else "[\n") + inner)
        for i, item in enumerate(o.items() if is_dict else o):
            if i:
                out.append(sep)
            if is_dict:
                key, item = item
                if not isinstance(key, str):    # json's key coercion
                    if not (isinstance(key, (int, float)) or key is None):
                        raise TypeError("keys must be str, int, float, bool or None, "
                                        "not " + type(key).__name__)
                    key = _write_json(key, [])[0]
                out.append(_json_str(key) + ": ")
            _write_json(item, out, inner)
        out.append("\n" + pad + ("}" if is_dict else "]"))
    return out


def _emit(args, payload):
    """Write payload to --out, or to stdout without one: a str (CSV) as it is,
    anything else as indented JSON, the bytes json.dumps(payload, indent=2,
    default=f) writes, f mapping a record (a dataclass instance) to the dict
    of its fields in declaration order and anything else to its str."""
    if not isinstance(payload, str):
        payload = "".join(_write_json(payload, [])) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _common(sub, samples_default=100):
    sub.add_argument("--foam", required=True,
                     help="builtin key (sphere, torus, genus:g, appendix, dunce_hat, "
                          "projective_plane) or a foam file path")
    sub.add_argument("--group", default="su2", choices=["su2", "u1"])
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)


def _seed_of(args):
    """--seed, else FOAMTOR_SEED, else 0; ValueError names the source of a
    seed that is not a non-negative integer."""
    source, text = (("--seed", args.seed) if args.seed is not None
                    else ("FOAMTOR_SEED", os.environ.get("FOAMTOR_SEED") or "0"))
    if not str(text).isdecimal():
        raise ValueError("%s %r is not a non-negative integer" % (source, text))
    return int(text)


def _config_echo(args, seed):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    cfg["seed"] = seed
    cfg["version"] = __version__
    return cfg


def cmd_analyze(args):
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    foam = reduce_foam(_load_foam(args.foam))
    cell = cellular_homology(foam)
    report = min_b2(foam, args.group, args.samples, rng)
    warnings = []
    if report.stratified:
        warnings.append("multiple (b0, b2) strata sampled: representation variety "
                        "is stratified; the divergence prediction uses the minimum")
    if report.rank_warnings:
        warnings.append("%d samples had thin singular-value gaps" % report.rank_warnings)
    payload = {
        "config": _config_echo(args, seed),
        "foam": {"name": foam.name, "V": foam.V, "E": foam.E, "F": foam.F,
                 "euler": foam.euler},
        "cellular": {"betti": list(cell.betti), "euler": cell.euler},
        "twisted": {
            "histogram_b2": {str(k): v for k, v in report.histogram.items()},
            "strata": [{"b0": k[0], "b2": k[1], "count": v}
                       for k, v in report.strata.items()],
            "b2_0": report.b2_0,
            "possibly_singular": int(np.count_nonzero(report.samples.possibly_singular)),
        },
        "predicted_omega": report.b2_0,
        # b0 - b1 + b2 = dim G * euler holds for any two ranks, so the key is
        # a constant; perfbench/workloads.py::_analyze_check fails every
        # analyze job without it, and the analyze goldens pin it
        "euler_identity_ok": True,
        "warnings": warnings,
    }
    _emit(args, payload)
    return 0 if report.rank_warnings == 0 else 1


def cmd_flat(args):
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    samples = sample_flat(_load_foam(args.foam), args.group, args.samples, rng)
    group, edges, n = samples.group, samples.foam.edge_ids, len(samples)

    def column(values, default):
        return [default] * n if values is None else values.tolist()
    rows = [{"connection": {e: {group.name: x[0] if group.elem_dim == 1 else x}
                            for e, x in zip(edges, g)},
             "residual": res, "b0": b0, "b2": b2, "component_tag": tag,
             "possibly_singular": singular}
            for g, res, b0, b2, tag, singular in zip(
                samples.g.tolist(), samples.residual.tolist(), column(samples.b0, None),
                column(samples.b2, None), samples.tags,
                column(samples.possibly_singular, False))]
    _emit(args, {"config": _config_echo(args, seed), "foam": samples.foam.name,
                 "samples": rows})
    return 0


def cmd_ztau(args):
    seed = _seed_of(args)
    foam = reduce_foam(_load_foam(args.foam))
    taus = _tau_grid(args.tau_grid)
    if args.workers < 1:
        raise ValueError("--workers %d: need at least 1" % args.workers)
    if args.samples < 1:
        raise ValueError("--samples %d: need at least 1" % args.samples)
    if args.method == "mc":
        points = [z_mc(foam, args.group, float(tau), args.samples, seed=seed,
                       n_workers=args.workers) for tau in taus]
    else:
        z_char = _char_evaluator(foam, args.group)
        points = [z_char(float(tau)) for tau in taus]
    if args.format == "csv":
        _emit(args, zestimates_csv(points))
    else:
        _emit(args, {"config": _config_echo(args, seed),
                     "points": points})
    return 0


def _char_evaluator(foam, group):
    """tau -> Z_tau by the character sum of the builtin foam that has this
    foam's presentation (genus:0 is the sphere); refuses any other foam, and
    the appendix over any group but SU(2), whose N(j1, j2) its sum is."""
    group = get_group(group)
    genus = foam.E // 2
    key = match_builtin(foam, ("genus:%d" % genus, "appendix"))
    if key == "appendix" and group.name != "su2":
        raise ValueError("the appendix character sum is SU(2)'s, not %s" % group.name)
    if key == "appendix":
        return z_char_appendix
    if key is not None:
        return functools.partial(z_char_surface, genus, group=group)
    raise ValueError("no character evaluator for foam %r; use --method mc" % foam.name)


def cmd_fit(args):
    with open(args.infile, encoding="utf-8") as fh:
        points = zestimates_from_csv(fh.read())
    fit = fit_scaling(points, model=args.model)
    payload = {"config": {"in": args.infile, "model": args.model,
                          "version": __version__},
               "fit": fit}
    _emit(args, payload)
    return 0


def cmd_torsion(args):
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    if args.samples < 1:
        raise ValueError("the number of samples must be at least 1, got %d" % args.samples)
    if args.format == "csv" and args.check != "torus-volume":
        raise ValueError("--format csv applies only to --check torus-volume")
    if args.check == "torus-volume":
        if args.group != "su2" or match_builtin(_load_foam(args.foam), ("torus",)) is None:
            raise ValueError("--check torus-volume checks the SU(2) torus, not --foam %s "
                             "--group %s" % (args.foam, args.group))
        if args.grid < 1:
            raise ValueError("--grid %d: need at least 1 point" % args.grid)
        columns = _torus_volume_columns(args.grid, rng)
        max_err = float(columns[4].max())
        passed = max_err < TORUS_VOLUME_TOL
        if args.format == "csv":
            _emit(args, torus_volume_csv(columns))
        else:
            _emit(args, {"config": _config_echo(args, seed),
                         "check": "torus-volume",
                         "grid": args.grid, "max_abs_error": max_err,
                         "tolerance": TORUS_VOLUME_TOL, "passed": passed})
        return 0 if passed else 1
    samples = sample_flat(_load_foam(args.foam), args.group, args.samples, rng)
    values = [{"error": str(v)} if isinstance(v, ValueError) else v
              for v in torsion_batch(samples, rng)]
    payload = {"config": _config_echo(args, seed), "foam": samples.foam.name,
               "torsion": values}
    _emit(args, payload)
    return 0


def cmd_toy(args):
    taus = _tau_grid(args.tau_grid)
    values = toy_laplace(taus, args.box).tolist()
    fit = fit_toy(taus, values, box_halfwidth=args.box)
    payload = {
        "config": {"tau_grid": list(map(float, taus)), "box": args.box,
                   "version": __version__},
        "points": [{"tau": float(t), "value": v} for t, v in zip(taus, values)],
        "fit": fit,
        "selected_model": "sqrt(tau)*log(1/tau)" if fit.with_log_correction else "pure power",
    }
    _emit(args, payload)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="foamtor",
        description="Divergence degrees, twisted Betti numbers and Reidemeister "
                    "torsion of heat-kernel-regularized flat gauge models on foams.")
    p.add_argument("--version", action="version", version=__version__)
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("analyze", help="cellular + twisted Betti analysis, b2_0, predicted omega")
    _common(s)
    s.set_defaults(func=cmd_analyze)

    s = subs.add_parser("flat", help="dump flat-connection samples")
    _common(s, samples_default=10)
    s.set_defaults(func=cmd_flat)

    s = subs.add_parser("ztau", help="evaluate Z_tau on a tau grid")
    _common(s, samples_default=10 ** 6)
    s.add_argument("--format", default="json", choices=["json", "csv"])
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--method", default="char", choices=["char", "mc"])
    s.add_argument("--tau-grid", default="1e-3:1e-1:8")
    s.set_defaults(func=cmd_ztau)

    s = subs.add_parser("fit", help="fit the divergence exponent from a ztau CSV")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--model", default="auto", choices=["auto", "pure", "with-log"])
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_fit)

    s = subs.add_parser("torsion", help="torsion at flat samples, or --check torus-volume")
    _common(s, samples_default=10)
    s.add_argument("--format", default="json", choices=["json", "csv"])
    s.add_argument("--check", default=None, choices=[None, "torus-volume"])
    s.add_argument("--grid", type=int, default=20)
    s.set_defaults(func=cmd_torsion)

    s = subs.add_parser("toy", help="toy Laplace integral and its anomalous scaling fit")
    s.add_argument("--tau-grid", default="1e-6:1e-2:9")
    s.add_argument("--box", type=float, default=1.0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_toy)
    return p


@functools.cache
def _parser():
    """build_parser(), once per process.  A fresh parser per call costs ~2 ms
    and leaves cyclic garbage that holds memory until a full collection;
    parse_args does not modify the parser."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # RuntimeError is "no flat connection found": every start was dropped;
    # MemoryError an array the machine cannot allocate, numpy naming its size
    except (FoamError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
