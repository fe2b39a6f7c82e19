"""Outputs recorded when the twisted complex was still built one sample at a
time, which batching must reproduce bit for bit.

The CLI files in tests/golden/ are the stdout of the commands in CASES;
the flat_* files were recorded while holonomies and residuals still had a
walk of their own apart from delta1's, and pin the connection data and
residual bits of the single face walk.  The config echoes later lost the
lines of the flags their commands ignored (--workers on analyze, flat and
torsion, --format on analyze and flat); nothing else moved.
torus_grids.json holds torus_volume_grid(8) and torus_dominant_part(12) at
their default seeds.  torsion_torus_u1 (the torus over U(1), b0 = 1) and
torsion_genus2_dup (genus 2 with its face duplicated by a Tietze-2 move,
b2 = 3, read from genus2_dup.foam) were recorded while torsion_batch still
ran the basis pipeline one sample at a time; torsion_appendix already
interleaves the appendix foam's two completion groups.  The ztau_mc_* files
were recorded while the Haar draws were still C-ordered and copied into
component rows by z_mc: genus 2 at tau = 0.6 runs the image-sum heat
kernel, the appendix at tau = 1.5 the character series on two faces, and
the torus over U(1) both U(1) evaluators on a constant integrand (its face
is a commutator), so projective_plane over U(1) pins the U(1) draws.
The toy_* files were recorded while toy built its Gauss-Legendre rule once
per tau, and the ztau_char_*.csv files (CSV_CASES) with the fit_* outputs
that read them back, while fit still took the first CSV line for the header
unread.  analyze_torus_200, analyze_appendix_200, flat_appendix_12 (irred
+1 and -1 and red) and the CSV torsion_torus_volume (all 900 rows, where
the JSON pins only the largest error) were recorded while a sample set's
draws, element checks and records, and the torus grid's rows, were still
made one at a time.  torsion_genus5, torsion_projective_plane and
torsion_genus2_t1 (genus 2 with an edge c = a1 b1 added by a Tietze-1 move,
read from genus2_t1.foam) were recorded while a projected sample set's
complex still walked its face words once more after the projection.
Every command runs from tests/golden/, so a foam file
is echoed as a relative path.  The
stacked SVD and the batched face walk give the same bits per matrix as
single calls with numpy's LAPACK; the files were recorded with numpy 2.4.6
on OpenBLAS 0.3.31, and a different LAPACK build may round the printed
torsion magnitudes differently.
"""

import json
import pathlib

import pytest

from foamtor.cli import main
from foamtor.torsion import torus_dominant_part, torus_volume_grid

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "analyze_genus3": "analyze --foam genus:3 --samples 12 --seed 5",
    "analyze_dunce_hat": "analyze --foam dunce_hat --samples 12 --seed 5",
    "analyze_appendix": "analyze --foam appendix --samples 40 --seed 3",
    "analyze_torus": "analyze --foam torus --samples 20 --seed 7",
    "analyze_torus_200": "analyze --foam torus --samples 200 --seed 9",
    "analyze_appendix_200": "analyze --foam appendix --samples 200 --seed 9",
    "torsion_genus3": "torsion --foam genus:3 --samples 6 --seed 5",
    "torsion_dunce_hat": "torsion --foam dunce_hat --samples 6 --seed 5",
    "torsion_appendix": "torsion --foam appendix --samples 20 --seed 3",
    "torsion_torus": "torsion --foam torus --samples 20 --seed 7",
    "torsion_torus_volume": "torsion --foam torus --check torus-volume --grid 30 --seed 2",
    "torsion_torus_u1": "torsion --foam torus --group u1 --samples 10 --seed 3",
    "torsion_genus2_dup": "torsion --foam genus2_dup.foam --samples 20 --seed 5",
    "torsion_genus5": "torsion --foam genus:5 --samples 8 --seed 5",
    "torsion_projective_plane": "torsion --foam projective_plane --samples 10 --seed 5",
    "torsion_genus2_t1": "torsion --foam genus2_t1.foam --samples 10 --seed 5",
    "flat_torus": "flat --foam torus --samples 5 --seed 3",
    "flat_appendix": "flat --foam appendix --samples 5 --seed 3",
    "flat_appendix_12": "flat --foam appendix --samples 12 --seed 9",
    "flat_genus2": "flat --foam genus:2 --samples 5 --seed 3",
    "flat_dunce_hat": "flat --foam dunce_hat --samples 5 --seed 3",
    "flat_torus_u1": "flat --foam torus --group u1 --samples 5 --seed 3",
    "ztau_mc_genus2": "ztau --foam genus:2 --method mc --workers 2 --samples 20000 "
                      "--tau-grid 0.6:0.6:1 --seed 4",
    "ztau_mc_appendix": "ztau --foam appendix --method mc --workers 2 --samples 20000 "
                        "--tau-grid 1.5:1.5:1 --seed 4",
    "ztau_mc_torus_u1": "ztau --foam torus --group u1 --method mc --workers 2 "
                        "--samples 20000 --tau-grid 0.6:1.5:2 --seed 4",
    "ztau_mc_projective_plane_u1": "ztau --foam projective_plane --group u1 --method mc "
                                   "--workers 2 --samples 20000 --tau-grid 0.6:1.5:2 "
                                   "--seed 4",
    "toy": "toy",
    "toy_box2": "toy --tau-grid 1e-5:1e-1:6 --box 2",
    "fit_torus": "fit --in ztau_char_torus.csv",
    "fit_genus2": "fit --in ztau_char_genus2.csv --model pure",
}
# CSV outputs, which the fit_* cases above read back
CSV_CASES = {
    "ztau_char_torus": "ztau --foam torus --method char --format csv",
    "ztau_char_genus2": "ztau --foam genus:2 --method char --format csv "
                        "--tau-grid 1e-4:1e-1:6",
    "torsion_torus_volume": "torsion --foam torus --check torus-volume --grid 30 "
                            "--format csv --seed 2",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_unchanged(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / (name + ".json")).read_text()


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_cli_csv_output_is_unchanged(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(CSV_CASES[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / (name + ".csv")).read_text()


def test_torus_chart_values_are_unchanged():
    ref = json.loads((GOLDEN / "torus_grids.json").read_text())
    assert torus_volume_grid(8) == [tuple(row) for row in ref["torus_volume_grid_8"]]
    assert torus_dominant_part(12) == ref["torus_dominant_part_12"]
