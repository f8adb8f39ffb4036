"""The benchmark's use of the program: the names ``bench/spans.py`` wraps
and the checks of ``bench/checker.py`` hold on op 0 of each gated workload
and on one op of every table command of ``single-sensor-sweep``.

The benchmark files are imported as they are, never changed, so a rename in
the program that would break the benchmark fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GATED = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _run_checked(op, tmp_path, layers=("scans", "arrays")):
    out_dir = str(tmp_path / "out")
    tracer = spans.Tracer()
    with spans.installed(tracer):
        rc, _, text = checker.run_cli([*op.argv, "--out", out_dir])
    assert rc == 0, text
    assert {span[1] for span in tracer.spans} >= set(layers)
    assert checker.check_op(op, rc, out_dir, str(tmp_path / "check")) == []
    return tracer


@pytest.mark.parametrize("name", GATED)
def test_gated_workload_op_passes_its_checks(name, tmp_path):
    op = workloads.make_op(workloads.WORKLOADS[name], 1, 0, str(tmp_path))
    # oracle-check's closed forms are one ArrayNoise build, which the
    # benchmark does not wrap, so no span of that op is in the arrays layer
    layers = (("scans", "oracle") if op.command == "oracle-check"
              else ("scans", "arrays"))
    tracer = _run_checked(op, tmp_path, layers)
    if op.command == "oracle-check":
        # the oracle runs through the wrapped names, so its time and its
        # counters reach the oracle layer: every config's 50 frequencies
        assert "oracle" in {span[1] for span in tracer.spans}
        assert tracer.counters["oracle.assemblies"] >= 1
        assert (tracer.counters["oracle.freq_points"]
                == workloads.ORACLE_CONFIGS * 50)


@pytest.mark.parametrize("index,command",
                         list(enumerate(workloads.SWEEP_COMMANDS)),
                         ids=workloads.SWEEP_COMMANDS)
def test_sweep_op_passes_its_checks(index, command, tmp_path):
    """Ops 0-4 of single-sensor-sweep run one table command each: frozen
    columns, row counts, finiteness and the tighter recompute."""
    op = workloads.make_op(workloads.WORKLOADS["single-sensor-sweep"], 1,
                           index, str(tmp_path))
    assert op.command == command
    _run_checked(op, tmp_path)
