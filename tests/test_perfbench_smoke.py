"""One short traced round of the benchmark's descent and chart workloads.

Runs perfbench/run.py as the benchmark does, in a subprocess from the source
tree, and checks that every job passed its independent check and that the
trace reports every per-layer metric BENCHMARK.json declares.  It checks the
metric names only, not that each counter is live: the torsion.torsion_at
spans read 0 in these rounds, because the CLI goes through torsion_batch,
which perfbench/tracing.py does not wrap.  On descent it also checks that
the group methods every projection step calls (mul, exp, adjoint, log)
count calls, so that a step that stops going through them shows, and that
the projection's own counters are live (find_flat_batch's calls, its
descent steps and the starts it was asked for), so that a command that
reaches the projection past find_flat_batch shows too.  The mc
workload is left out: it runs none of the twisted-complex or torsion code
and costs a few seconds more.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["descent", "chart"])
def test_traced_round_passes_and_reports_every_layer(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing
    if workload == "descent":
        for name in ("groups.mul.calls", "groups.exp.calls", "groups.adjoint.calls",
                     "groups.log.calls", "connection.find_flat_batch.calls",
                     "connection.descent.iters", "connection.flat.requested"):
            assert result["metrics"][name]["value"] > 0, name
