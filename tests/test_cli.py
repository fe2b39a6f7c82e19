import argparse
import dataclasses
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foamtor import __version__, twisted
from foamtor.cli import _emit, _parser, _write_json, main
from foamtor.partition import ScalingFit, ZEstimate
from foamtor.torsion import TorsionValue

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_torus(capsys):
    code, out = run(capsys, "analyze", "--foam", "genus:1", "--group", "su2",
                    "--samples", "20", "--seed", "7")
    payload = json.loads(out)
    assert code == 0
    assert payload["twisted"]["b2_0"] == 1
    assert payload["predicted_omega"] == 1
    assert payload["config"]["seed"] == 7
    assert payload["cellular"]["betti"] == [1, 2, 1]


def test_analyze_appendix_warns_on_strata(capsys):
    code, out = run(capsys, "analyze", "--foam", "appendix", "--samples", "30",
                    "--seed", "3")
    payload = json.loads(out)
    assert payload["twisted"]["b2_0"] == 2
    assert set(payload["twisted"]["histogram_b2"]) == {"2", "3"}
    assert any("strat" in w for w in payload["warnings"])
    assert code == 0  # warnings reported, consistency checks still pass


def test_analyze_sphere(capsys):
    code, out = run(capsys, "analyze", "--foam", "sphere", "--samples", "5",
                    "--seed", "1")
    payload = json.loads(out)
    assert payload["twisted"]["b2_0"] == 3
    assert code == 0


def test_analyze_deterministic(capsys):
    _, out1 = run(capsys, "analyze", "--foam", "genus:2", "--samples", "10",
                  "--seed", "11")
    _, out2 = run(capsys, "analyze", "--foam", "genus:2", "--samples", "10",
                  "--seed", "11")
    assert out1 == out2


def test_flat_dumps_samples(capsys):
    code, out = run(capsys, "flat", "--foam", "torus", "--samples", "4",
                    "--seed", "5")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["samples"]) == 4
    assert all(s["residual"] < 1e-10 for s in payload["samples"])


def test_ztau_fit_pipeline(tmp_path, capsys):
    csv_path = tmp_path / "ztau.csv"
    code, _ = run(capsys, "ztau", "--foam", "torus", "--method", "char",
                  "--tau-grid", "1e-3:1e-1:8", "--format", "csv",
                  "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    code, out = run(capsys, "fit", "--in", str(csv_path), "--model", "pure")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["fit"]["omega"] - 1.0) < 0.05
    assert abs(payload["fit"]["dominant_part"] - 2 * math.pi) < 0.2 * 2 * math.pi


def test_file_commands_close_their_handles(tmp_path, capsys):
    csv_path = tmp_path / "ztau.csv"
    vol_path = tmp_path / "volume.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(capsys, "ztau", "--foam", "torus", "--method", "char",
                   "--tau-grid", "1e-3:1e-1:8", "--format", "csv",
                   "--out", str(csv_path))[0] == 0
        assert run(capsys, "fit", "--in", str(csv_path))[0] == 0
        assert run(capsys, "torsion", "--foam", "torus", "--check", "torus-volume",
                   "--grid", "4", "--format", "csv", "--out", str(vol_path))[0] == 0
        gc.collect()
    assert vol_path.read_text().startswith("psi_a,")
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_ztau_mc(capsys):
    code, out = run(capsys, "ztau", "--foam", "torus", "--method", "mc",
                    "--tau-grid", "0.3:1.0:4", "--samples", "20000", "--seed", "9")
    payload = json.loads(out)
    assert code == 0
    assert len(payload["points"]) == 4
    assert all(p["stderr"] > 0 for p in payload["points"])


def test_ztau_char_appendix(capsys):
    code, out = run(capsys, "ztau", "--foam", "appendix", "--method", "char",
                    "--tau-grid", "1e-2:1e-1:4")
    payload = json.loads(out)
    assert code == 0
    assert [p["method"] for p in payload["points"]] == ["char-appendix"] * 4


def test_torsion_volume_check(capsys):
    code, out = run(capsys, "torsion", "--foam", "torus", "--check",
                    "torus-volume", "--grid", "6", "--seed", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["max_abs_error"] < 1e-10


def test_torus_volume_check_refuses_other_foams_and_groups(capsys):
    # the check is of the SU(2) torus chart; another foam or group is refused,
    # not silently swapped for it
    for argv in (["--foam", "genus:3"], ["--foam", "torus", "--group", "u1"],
                 ["--foam", "genus:3", "--group", "u1"]):
        code = main(["torsion", *argv, "--check", "torus-volume", "--grid", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --check torus-volume ")
    # the torus by structure, under any builtin key, is checked
    code, out = run(capsys, "torsion", "--foam", "genus:1", "--check", "torus-volume",
                    "--grid", "3")
    assert code == 0 and json.loads(out)["passed"] is True


def test_torsion_samples(capsys):
    code, out = run(capsys, "torsion", "--foam", "genus:2", "--samples", "3",
                    "--seed", "4")
    payload = json.loads(out)
    assert code == 0
    mags = [t["magnitude"] for t in payload["torsion"] if "magnitude" in t]
    assert len(mags) == 3
    assert all(m > 0 for m in mags)


def test_toy_command(capsys):
    code, out = run(capsys, "toy", "--tau-grid", "1e-6:1e-2:9")
    payload = json.loads(out)
    assert code == 0
    assert payload["selected_model"] == "sqrt(tau)*log(1/tau)"


def test_grids_without_enough_points_are_refused(capsys):
    # a zero-point grid gave empty output (ztau), a bare max() error (torsion)
    # or scipy's complaint (toy); the toy fit has three parameters
    for argv, option in (
            (["ztau", "--foam", "torus", "--method", "char", "--tau-grid", "0.1:1:0"],
             "--tau-grid"),
            (["ztau", "--foam", "torus", "--method", "mc", "--tau-grid", "0.5:0.5:-1"],
             "--tau-grid"),
            (["torsion", "--foam", "torus", "--check", "torus-volume", "--grid", "0"],
             "--grid"),
            (["torsion", "--foam", "torus", "--check", "torus-volume", "--grid", "-3"],
             "--grid"),
            (["toy", "--tau-grid", "1e-3:1e-2:0"], "--tau-grid"),
            (["toy", "--tau-grid", "1e-3:1e-2:2"], "--tau-grid")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: ") and option in captured.err, (argv, captured.err)
    code, out = run(capsys, "ztau", "--foam", "torus", "--tau-grid", "0.5:0.5:1")
    assert code == 0 and len(json.loads(out)["points"]) == 1
    code, out = run(capsys, "toy", "--tau-grid", "1e-4:1e-2:3")
    assert code == 0 and len(json.loads(out)["points"]) == 3


def test_a_malformed_tau_grid_is_refused_naming_the_option(capsys):
    # these failed with math domain error, unpacking, int() or NaN-conversion
    # messages that did not name the option
    for grid in ("0:1:3", "0.1:1", "1e-3:1e-1:x", ":2.5", "1e-3:inf:3", "nan:1:3",
                 "-1:1:3", "0.1:1:3:4", "0.1:1:2.5"):
        for argv in (["ztau", "--foam", "torus", "--tau-grid=" + grid],
                     ["toy", "--tau-grid=" + grid]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert captured.err.startswith("error: --tau-grid"), (argv, captured.err)
    # a grid ends on the values typed: logspace gave 0.29999999999999993
    for grid, n in (("0.3:0.3:1", 1), ("0.3:1:4", 4)):
        code, out = run(capsys, "ztau", "--foam", "torus", "--tau-grid", grid)
        points = json.loads(out)["points"]
        assert code == 0 and len(points) == n, grid
        assert points[0]["tau"] == 0.3 and points[-1]["tau"] == float(grid.split(":")[1]), grid


def test_toy_refuses_a_box_that_is_not_positive_and_finite(capsys):
    for box in ("0", "-1", "nan", "inf"):
        code = main(["toy", "--box", box, "--tau-grid", "1e-3:1e-2:3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", box
        assert captured.err.startswith("error: ") and "--box" in captured.err, box


def test_toy_refuses_a_box_whose_panel_grid_overflows(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["toy", "--box", "1e80", "--tau-grid", "1e-3:1e-2:3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: box half-width (--box) 1e+80 at tau 0.001 ")


def test_toy_answers_above_tau_1(capsys):
    # the toy law is defined there, so fit_toy has no tau < 1 rule (the
    # with-log model of fit_scaling has)
    code, out = run(capsys, "toy", "--tau-grid", "1e-3:3:6")
    assert code == 0 and json.loads(out)["points"][-1]["tau"] == 3.0


# JSON-like payloads with what json.dumps treats specially: non-ASCII and
# control characters, -0.0, 1e-05, NaN and the infinities, bools, None,
# non-str keys (coerced), tuples, numpy scalars (a float64 is a float; the
# others go through default's str), and the records commands write (default
# gives a record the dict of its fields)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([-0.0, 1e-05, math.nan, math.inf, -math.inf, "\u00e9\u2028\x00\x1f\"\\",
                     np.float64(-0.0), np.float64(1e-05), np.float64(math.nan), np.int64(-7),
                     np.float32(0.1), np.bool_(True), np.str_("s")]))
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
                  st.sampled_from([np.float64(2.5), np.float64(math.inf)]))
_META = st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3)
_RECORDS = st.one_of(
    st.builds(TorsionValue, st.floats(), st.sampled_from(["irreducible", "reducible"]),
              st.integers(0, 9), st.integers(0, 9), st.integers(0, 9),
              st.fixed_dictionaries({"seed": st.integers(0, 2 ** 32 - 1),
                                     "dims": st.dictionaries(st.text(max_size=2),
                                                             st.integers(0, 9))})),
    st.builds(ZEstimate, st.floats(), st.floats(), st.floats(), st.text(max_size=8), _META),
    st.builds(ScalingFit, st.floats(), st.floats(), st.floats(), st.booleans(), st.floats(),
              st.floats(), st.floats(), st.lists(st.floats(), max_size=4).map(tuple), _META))
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _RECORDS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


def _fields_or_str(o):
    """json.dumps's default for a payload: a record's fields dict, else str."""
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        return {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
    return str(o)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
def test_the_json_writer_gives_the_bytes_of_an_indented_json_dumps(payload):
    assert "".join(_write_json(payload, [])) == json.dumps(payload, indent=2,
                                                            default=_fields_or_str)


def test_the_json_writer_refuses_the_keys_json_refuses():
    for key in (np.int64(1), (1, 2), np.bool_(True)):
        with pytest.raises(TypeError) as ours:
            _write_json({"a": 1, key: 2}, [])
        with pytest.raises(TypeError) as theirs:
            json.dumps({"a": 1, key: 2}, indent=2, default=str)
        assert str(ours.value) == str(theirs.value)


def test_writing_a_payload_leaves_no_cyclic_garbage(tmp_path):
    # a writer that recursed through a nested closure would leave a
    # function-cell cycle per write for the cyclic collector
    payload = {"a": [1, 2.5, {"b": (None, True, [])}], "c": {}, 3: np.float64(0.5)}
    args = argparse.Namespace(out=str(tmp_path / "payload.json"))
    gc.collect()
    gc.disable()
    try:
        _emit(args, payload)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    text = (tmp_path / "payload.json").read_text(encoding="utf-8")
    assert text == json.dumps(payload, indent=2, default=str) + "\n"


def test_foam_file_input(tmp_path, capsys):
    path = tmp_path / "t.foam"
    path.write_text("# the flat torus\nedges: a b\nface: a b a^-1 b^-1\n")
    code, out = run(capsys, "analyze", "--foam", str(path), "--samples", "10",
                    "--seed", "6")
    payload = json.loads(out)
    assert code == 0
    assert payload["twisted"]["b2_0"] == 1


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FOAMTOR_SEED", "123")
    _, out = run(capsys, "analyze", "--foam", "sphere", "--samples", "2")
    assert json.loads(out)["config"]["seed"] == 123


@pytest.mark.parametrize("where,value", [("--seed", "-1"), ("FOAMTOR_SEED", "abc"),
                                         ("FOAMTOR_SEED", "-2"), ("FOAMTOR_SEED", "1.5")])
def test_a_seed_is_refused_by_its_source(where, value, capsys, monkeypatch):
    # numpy said "expected non-negative integer" and int() "invalid literal
    # for int() with base 10", neither naming where the seed came from
    argv = ["analyze", "--foam", "torus", "--samples", "2"]
    if where == "--seed":
        argv += ["--seed", value]
    else:
        monkeypatch.setenv("FOAMTOR_SEED", value)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s %r is not a non-negative integer\n" % (
        where, int(value) if where == "--seed" else value)


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.foam"
    path.write_text("edges: a\nface: b\n")
    code = main(["analyze", "--foam", str(path)])
    assert code == 2


def test_ztau_mc_refuses_bad_counts(capsys):
    for method, flag, value in (("mc", "--workers", "0"), ("mc", "--samples", "1"),
                                ("mc", "--samples", "0"), ("char", "--samples", "0")):
        code = main(["ztau", "--foam", "torus", "--method", method, "--tau-grid",
                     "0.5:0.5:1", "--seed", "1", flag, value])
        err = capsys.readouterr().err
        assert code == 2, (method, flag, value)
        assert err.startswith("error: "), (method, flag, value)


def test_missing_foam_file_is_an_error_not_a_traceback(tmp_path, capsys):
    code = main(["analyze", "--foam", "@" + str(tmp_path / "missing.foam")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "missing.foam" in err


def test_sample_counts_below_one_are_refused(capsys):
    for command in ("analyze", "flat", "torsion"):
        for foam in ("torus", "genus:2"):
            for count in ("0", "-3"):
                code = main([command, "--foam", foam, "--samples", count, "--seed", "1"])
                err = capsys.readouterr().err
                assert code == 2, (command, foam, count)
                assert err.startswith("error: ") and "at least 1" in err, (command, foam, err)


def test_no_flat_connection_found_is_an_error(tmp_path, capsys):
    # <e | e^2, e^-1, e^6>: every projection from these starts stalls at a
    # non-flat critical point, so no flat sample is kept
    path = tmp_path / "stalls.foam"
    path.write_text("edges: e\nface: e e\nface: e^-1\nface: e e e e e e\n")
    for command in ("analyze", "torsion"):
        code = main([command, "--foam", str(path), "--samples", "3", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2, command
        assert err.startswith("error: ") and "no flat connection" in err, command


def test_analyze_exits_1_on_rank_warnings(capsys, monkeypatch):
    # the exit code README promises for thin singular-value gaps
    monkeypatch.setattr(twisted, "GAP_WARN", 1e300)
    code, out = run(capsys, "analyze", "--foam", "torus", "--samples", "4", "--seed", "1")
    assert code == 1
    assert "4 samples had thin singular-value gaps" in json.loads(out)["warnings"]


def test_flat_refuses_a_foam_without_a_flat_connection_like_analyze(tmp_path, capsys):
    # flat wrote the empty sample list and exited 1, with nothing on stderr
    path = tmp_path / "stalls.foam"
    path.write_text("edges: e\nface: e e\nface: e^-1\nface: e e e e e e\n")
    code = main(["flat", "--foam", str(path), "--samples", "2", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: no flat connection found within budget\n"


TORUS_FILE = "edges: a1 b1\nface: a1 b1 a1^-1 b1^-1\n"


def test_file_foams_are_recognised_by_structure_not_name(tmp_path, capsys):
    # a file named torus that relabels the edges is projected; a file named
    # appendix that holds the builtin torus gets the torus's analytic samples
    (tmp_path / "torus").write_text("edges: x y\nface: x y x^-1 y^-1\n")
    (tmp_path / "appendix").write_text(TORUS_FILE)
    for name in ("torus", "appendix"):
        code, out = run(capsys, "analyze", "--foam", str(tmp_path / name),
                        "--samples", "20", "--seed", "8")
        assert code == 0, name
        assert json.loads(out)["twisted"]["b2_0"] == 1, name
    code, out = run(capsys, "flat", "--foam", str(tmp_path / "appendix"), "--samples", "2",
                    "--seed", "8")
    tags = [s["component_tag"] for s in json.loads(out)["samples"]]
    assert tags == ["torus:+", "torus:-"]


def test_ztau_char_sums_the_foam_it_was_given(tmp_path, capsys):
    from foamtor.partition import z_char_surface
    (tmp_path / "genus3").write_text(TORUS_FILE)
    (tmp_path / "surface.foam").write_text(
        "edges: a1 b1 a2 b2\nface: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1\n")
    for name, genus in (("genus3", 1), ("surface.foam", 2)):
        code, out = run(capsys, "ztau", "--foam", str(tmp_path / name), "--method", "char",
                        "--tau-grid", "0.01:0.01:1")
        (p,) = json.loads(out)["points"]
        assert code == 0
        assert p["value"] == z_char_surface(genus, 0.01).value, name


def test_ztau_char_refusals_exit_2(tmp_path, capsys):
    (tmp_path / "torus").write_text(TORUS_FILE + "face: a1 b1 a1^-1 b1^-1\n")
    for extra in (["--foam", "appendix", "--group", "u1"], ["--foam", "dunce_hat"],
                  ["--foam", str(tmp_path / "torus")]):
        code = main(["ztau", "--method", "char", "--tau-grid", "0.1:0.1:1"] + extra)
        captured = capsys.readouterr()
        assert code == 2, extra
        assert captured.err.startswith("error: ") and captured.out == "", extra
        # the appendix sum's N(j1, j2) is SU(2)'s
        assert ("u1" in captured.err) == ("u1" in extra), captured.err


def test_ztau_char_sums_a_u1_surface(capsys):
    # the exact sum agrees with the U(1) torus golden, whose Monte Carlo
    # integrand is the constant K_tau(1)
    golden = json.loads((pathlib.Path(__file__).parent / "golden"
                         / "ztau_mc_torus_u1.json").read_text())
    code, out = run(capsys, "ztau", "--foam", "torus", "--group", "u1", "--method", "char",
                    "--tau-grid", "0.6:1.5:2")
    points = json.loads(out)["points"]
    assert code == 0
    assert [p["tau"] for p in points] == [p["tau"] for p in golden["points"]] == [0.6, 1.5]
    for p, q in zip(points, golden["points"]):
        assert p["method"] == "char-surface"
        assert abs(p["value"] / q["value"] - 1.0) < 1e-15, p


def test_every_quick_start_line_parses():
    # a renamed flag or a dropped choice breaks README's CLI block; the lines
    # are parsed, not run
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words[1:] for words in lines if words[:1] == ["foamtor"]]
    assert len(lines) >= 9
    for argv in lines:
        args = _parser().parse_args(argv)
        assert callable(args.func), argv


def test_ztau_workers_below_one_are_refused_by_both_methods(capsys):
    errors = set()
    for method in ("char", "mc"):
        code = main(["ztau", "--foam", "torus", "--method", method, "--tau-grid",
                     "0.5:0.5:1", "--workers", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", method
        errors.add(captured.err)
    assert len(errors) == 1 and errors.pop().startswith("error: --workers")


def test_ztau_mc_takes_more_workers_than_memory(capsys):
    # one list entry per worker asked 800 TB and raised MemoryError, a
    # traceback from user input; the samples, not the workers, set the work
    code, out = run(capsys, "ztau", "--foam", "torus", "--method", "mc", "--samples",
                    "1000", "--workers", str(10 ** 14), "--tau-grid", "0.5:0.5:1")
    (p,) = json.loads(out)["points"]
    assert code == 0
    assert p["meta"]["n_samples"] == 1000 and p["meta"]["n_workers"] == 10 ** 14


def test_torsion_csv_needs_the_torus_volume_check(capsys):
    code = main(["torsion", "--foam", "torus", "--samples", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --format csv applies only to --check torus-volume\n"


def test_fit_with_an_empty_path_is_an_error_not_exit_1(capsys):
    code = main(["fit", "--in", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


def test_fit_refuses_a_malformed_row_naming_its_line(tmp_path, capsys):
    # a short row and a non-numeric cell were refused with Python's own words
    # ("not enough values to unpack", "could not convert string to float")
    header = "tau,lambda_tau,value,stderr,method\n"
    good = "0.001,8.92,3.1,0,char-surface\n"
    for row in ("0.01,2.82,1.5\n", "0.01,2.82,x,0,char-surface\n"):
        path = tmp_path / "bad.csv"
        path.write_text(header + good + row)
        code = main(["fit", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", row
        assert captured.err.startswith("error: line 3: "), captured.err
        assert "tau,lambda_tau,value,stderr,method" in captured.err, captured.err


def test_fit_refuses_a_csv_without_its_header(tmp_path, capsys):
    # the first row was taken for the header unread, and one point fewer fit
    rows = "".join("%r,%r,%r,0,char-surface\n" % (t, 1.0, 2.0) for t in (1e-3, 1e-2, 1e-1))
    path = tmp_path / "headless.csv"
    path.write_text("\n" + rows)
    code = main(["fit", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 2: "), captured.err
    assert "tau,lambda_tau,value,stderr,method" in captured.err, captured.err


def test_fit_refuses_an_impossible_point_naming_its_line(tmp_path, capsys):
    # a NaN or overflowing value printed "omega": NaN with exit 0, tau = 0
    # died in the SVD, and a negative stderr was taken for an exact point
    header = "tau,lambda_tau,value,stderr,method\n"
    good = "".join("%r,1,%r,0,char-surface\n" % (t, 1.0 / t) for t in (1e-3, 1e-2, 1e-1))
    for row, reason in (("0.5,1,nan,0,x", "value nan is not finite"),
                        ("0.5,1,1e400,0,x", "value inf is not finite"),
                        ("0,1,2.0,0,x", "tau 0.0 is not finite and positive"),
                        ("-0.5,1,2.0,0,x", "tau -0.5 is not finite and positive"),
                        ("inf,1,2.0,0,x", "tau inf is not finite and positive"),
                        ("0.5,1,2.0,-0.1,x", "stderr -0.1 is not finite and >= 0"),
                        ("0.5,1,2.0,nan,x", "stderr nan is not finite and >= 0")):
        path = tmp_path / "bad.csv"
        path.write_text(header + good + row + "\n")
        code = main(["fit", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", row
        assert captured.err == "error: line 5: %s\n" % reason, (row, captured.err)


def test_a_one_point_tau_grid_needs_equal_bounds(capsys):
    # --tau-grid 0.01:1:1 evaluated at tau = 1 alone, though a grid begins on lo
    for argv in (["ztau", "--foam", "torus", "--tau-grid", "0.01:1:1"],
                 ["ztau", "--foam", "torus", "--method", "mc", "--tau-grid", "0.3:1:1"],
                 ["toy", "--tau-grid", "1e-3:1e-2:1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: --tau-grid"), (argv, captured.err)
    code, out = run(capsys, "ztau", "--foam", "torus", "--tau-grid", "0.3:0.3:1")
    assert code == 0 and [p["tau"] for p in json.loads(out)["points"]] == [0.3]


def test_fit_refuses_a_tau_of_1_without_lapack_noise(tmp_path, capfd):
    # the with-log model's log log(1/tau) was -inf at tau = 1: LAPACK printed
    # DLASCL errors on stderr and the fit failed with "SVD did not converge"
    csv_path = tmp_path / "ztau.csv"
    assert main(["ztau", "--foam", "torus", "--method", "char", "--tau-grid", "0.01:1:6",
                 "--format", "csv", "--out", str(csv_path)]) == 0
    capfd.readouterr()
    code = main(["fit", "--in", str(csv_path), "--model", "pure"])
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: point 6: tau 1.0 is not below 1"), captured.err
    assert "DLASCL" not in captured.err and captured.err.count("\n") == 1, captured.err


def test_a_genus_that_is_not_an_integer_is_refused_naming_the_key(capsys):
    # analyze --foam genus:x printed "invalid literal for int() with base 10: 'x'"
    for key in ("genus:x", "genus:1.5", "genus:-1"):
        code = main(["analyze", "--foam", key, "--samples", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", key
        assert captured.err.startswith("error: ") and repr(key) in captured.err, captured.err


class _ReadRecorder(argparse.Namespace):
    """Namespace that records which attributes a command reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


def test_every_option_is_read_by_its_command(tmp_path, capsys):
    # an option that a command declares but never reads is a knob that does nothing
    csv = str(tmp_path / "z.csv")
    out = str(tmp_path / "out.json")
    runs = [
        ["analyze", "--foam", "torus", "--samples", "4"],
        ["flat", "--foam", "torus", "--samples", "2"],
        ["torsion", "--foam", "torus", "--samples", "2"],
        ["torsion", "--foam", "torus", "--check", "torus-volume", "--grid", "3",
         "--format", "csv"],
        ["ztau", "--foam", "torus", "--tau-grid", "1e-3:1e-1:8", "--format", "csv",
         "--out", csv],
        ["ztau", "--foam", "torus", "--method", "mc", "--samples", "1000",
         "--workers", "2", "--tau-grid", "0.5:0.5:1"],
        ["fit", "--in", csv],
        ["toy", "--tau-grid", "1e-4:1e-2:5"],
    ]
    declared, read = {}, {}
    for argv in runs:
        args = _parser().parse_args(argv + ["--out", out] * ("--out" not in argv),
                                    namespace=_ReadRecorder())
        options = set(vars(args)) - {"command", "func", "_reads"}
        args.__dict__["_reads"] = set()     # forget the reads made while parsing
        assert args.func(args) == 0, argv
        declared.setdefault(argv[0], set()).update(options)
        read.setdefault(argv[0], set()).update(args.__dict__["_reads"])
    capsys.readouterr()
    unread = {cmd: sorted(declared[cmd] - read[cmd]) for cmd in declared
              if declared[cmd] - read[cmd]}
    assert unread == {}


def test_python_dash_m_runs_the_cli():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def foamtor(*argv):
        return subprocess.run([sys.executable, "-m", "foamtor", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    version = foamtor("--version")
    assert version.returncode == 0 and version.stdout.strip() == __version__
    analyze = foamtor("analyze", "--foam", "torus", "--samples", "2", "--seed", "1")
    assert analyze.returncode == 0, analyze.stderr
    assert json.loads(analyze.stdout)["twisted"]["b2_0"] == 1


def test_torus_volume_check_refuses_samples_below_one(capsys):
    # the check passed with exit 0 and echoed the count, where every other
    # command refuses --samples below 1
    for count in ("0", "-5"):
        code = main(["torsion", "--foam", "torus", "--check", "torus-volume", "--grid", "3",
                     "--samples", count])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", count
        assert captured.err == "error: the number of samples must be at least 1, got %s\n" \
            % count
    # a valid count is still ignored
    outs = []
    for count in ("1", "7"):
        code, out = run(capsys, "torsion", "--foam", "torus", "--check", "torus-volume",
                        "--grid", "3", "--samples", count)
        assert code == 0
        payload = json.loads(out)
        del payload["config"]["samples"]
        outs.append(payload)
    assert outs[0] == outs[1]


def test_toy_refuses_a_panel_grid_over_its_memory_bound(capsys):
    # box 1e76 at tau 1e-3 built 262 panels, a 6,312^2 integrand matrix
    code = main(["toy", "--box", "1e76", "--tau-grid", "1e-3:1e-2:3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: box half-width (--box) 1e+76 at tau 0.001 ")
    assert "--tau-grid" in captured.err and "262 panels" in captured.err


@pytest.mark.parametrize("foam,grid", [("torus", "1e-300:1e-299:2"),
                                       ("appendix", "1e-20:1e-20:1")])
def test_ztau_char_refuses_a_tau_over_the_term_budget_with_exit_2(foam, grid, capsys):
    # the torus looped over 2.4e151 terms and never returned; the appendix
    # died with numpy's _ArrayMemoryError traceback asking for 2.04 TiB
    code = main(["ztau", "--foam", foam, "--method", "char", "--tau-grid", grid])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: tau 1e-") and "character-sum terms" in captured.err


def test_the_cli_imports_no_private_name_from_connection_or_twisted():
    # the commands call the public builders, so that a wrapper of
    # find_flat_batch or min_b2 sees every command that samples
    import ast
    from foamtor import cli
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module in ("connection", "twisted")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


NO_MEMORY = ("Unable to allocate 2.04 TiB for an array with shape (280000000001,) and "
             "data type float64")


@pytest.mark.parametrize("core,argv", [
    ("sample_flat", ["flat", "--foam", "genus:3", "--samples", "100000000000"]),
    ("min_b2", ["analyze", "--foam", "genus:2", "--samples", "100000000000"]),
    ("_torus_volume_columns", ["torsion", "--foam", "torus", "--check", "torus-volume",
                               "--grid", "10000000"])])
def test_an_allocation_the_machine_cannot_make_is_refused_with_exit_2(core, argv, capsys,
                                                                       monkeypatch):
    # these printed numpy's _ArrayMemoryError traceback and exited 1, the exit
    # code of a failed consistency check; the core raises here, so that no
    # test asks the machine for the memory
    from foamtor import cli

    def refuse(*args, **kwargs):
        raise MemoryError(NO_MEMORY)

    monkeypatch.setattr(cli, core, refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: %s\n" % NO_MEMORY
