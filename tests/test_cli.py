import gc
import json
import math
import warnings

from foamtor.cli import main


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


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.foam"
    path.write_text("edges: a\nface: b\n")
    code = main(["analyze", "--foam", str(path)])
    assert code == 2


def test_ztau_mc_refuses_bad_counts(capsys):
    for flag, value in (("--workers", "0"), ("--samples", "1"), ("--samples", "0")):
        code = main(["ztau", "--foam", "torus", "--method", "mc", "--tau-grid",
                     "0.5:0.5:1", "--seed", "1", flag, value])
        err = capsys.readouterr().err
        assert code == 2, (flag, value)
        assert err.startswith("error: "), (flag, value)


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
