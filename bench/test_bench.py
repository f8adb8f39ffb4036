"""Self-test of the benchmark: every workload runs clean, every check can fail,
the exact counters repeat and self times add up to each op's traced time.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import workloads
from checker import read_table

run.load_program()

from omsense import arrays, cli  # noqa: E402  (needs load_program first)


@pytest.fixture
def work():
    run.WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK_ROOT)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK_ROOT.iterdir()):
        run.WORK_ROOT.rmdir()


def _timed(name, work, after_op=None):
    return run.run_timed(workloads.WORKLOADS[name], 7, 0.0, work, after_op)


def _rewrite_table(out_dir, command, edit):
    header, rows = read_table(out_dir, command)
    header, rows = edit(header, rows)
    with open(os.path.join(out_dir, f"{command}.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in header) + "\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(name, work):
    attempted, bad, metrics, notes = _timed(name, work)
    assert bad == []
    assert attempted == run.min_ops(workloads.WORKLOADS[name])
    assert notes["error_rate"] == 0.0
    for key, (value, unit) in metrics.items():
        assert value > 0, key


def test_each_check_can_fail(work, monkeypatch):
    # single-sensor-sweep deck: 0 noise, 1 sensitivity, 2 power-scan,
    # 3 loss-scan, 4 dm-projection, then the same commands again.
    def after_op(op, out_dir):
        if op.index == 0:    # dropped frozen column
            _rewrite_table(out_dir, op.command, lambda h, r: (
                [c for c in h if c != "thermal"], r))
        elif op.index == 1:  # corrupted integral, still finite
            def corrupt(h, r):
                r[0]["value"] = repr(float(r[0]["value"]) * 1.01)
                return h, r
            _rewrite_table(out_dir, op.command, corrupt)
        elif op.index == 2:  # non-finite value
            def nan(h, r):
                r[1]["i_classical"] = "nan"
                return h, r
            _rewrite_table(out_dir, op.command, nan)

    real_main = cli.main

    def main(argv):          # non-zero exit on op 3
        rc = real_main(argv)
        return 3 if "scenario_00003.json" in " ".join(argv) else rc

    real_noise = arrays.array_noise_psd

    def noise(arr, inp, omega):  # closed form off by 1e-6 on the M=10 ops
        out = real_noise(arr, inp, omega)
        if arr.n_sensors == workloads.DM_SENSORS:
            out = dataclasses.replace(out, total=out.total * (1 + 1e-6))
        return out

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(arrays, "array_noise_psd", noise)
    attempted, bad, metrics, notes = _timed("single-sensor-sweep", work, after_op)
    reasons = dict(bad)
    dm_ops = [i for i in range(attempted) if i % 5 == 4]
    assert sorted(reasons) == [0, 1, 2, 3] + dm_ops
    assert "frozen columns" in reasons[0][0]
    assert "differs from the recompute" in reasons[1][0]
    assert "not finite" in reasons[2][0]
    assert reasons[3] == ["exit code 3"]
    assert all("oracle residual" in reasons[i][0] for i in dm_ops)
    assert notes["error_rate"] == len(bad) / attempted


def test_oracle_manifest_failure_counts(work):
    def after_op(op, out_dir):
        if op.index == 5:
            path = os.path.join(out_dir, "manifest.json")
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            manifest["oracle"]["passed"] = False
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)

    attempted, bad, metrics, notes = _timed("oracle-crosscheck", work, after_op)
    assert [i for i, _ in bad] == [5]
    assert "passed=false" in bad[0][1][0]
    assert notes["error_rate"] == 1 / attempted


@pytest.mark.parametrize("name", ["single-sensor-sweep", "oracle-crosscheck"])
def test_exact_counters_repeat(name):
    first, _, bad = run.run(name, 3, 0.0, trace=True)
    second, _, _ = run.run(name, 3, 0.0, trace=True)
    assert bad == [] and first["correct"]
    for key in run.EXACT_COUNTERS:
        assert first["metrics"][key] == second["metrics"][key], key
    used = ("sensitivity.evals" if name == "single-sensor-sweep"
            else "oracle.freq_points")
    assert first["metrics"][used]["value"] > 0


def test_self_times_add_up_to_each_op(work):
    from spans import Tracer

    workload = workloads.WORKLOADS["single-sensor-sweep"]
    ops = [workloads.make_op(workload, 5, i, work) for i in range(workload.deck)]
    tracer = Tracer()
    run.run_pass(ops, work, tracer)
    own = tracer.self_times()
    roots = [i for i, span in enumerate(tracer.spans) if span[4] == -1]
    assert len(roots) == len(ops)
    assert all(tracer.spans[i][0] == "cli.main" for i in roots)
    for i in roots:
        op = tracer.spans[i][5]
        total = sum(t for t, s in zip(own, tracer.spans) if s[5] == op)
        wall = tracer.spans[i][3] - tracer.spans[i][2]
        assert total == pytest.approx(wall, rel=1e-9)
    layers = {s[1] for s in tracer.spans}
    assert {"cli", "scenario", "scans", "sensitivity", "arrays",
            "spectra"} <= layers


def test_generator_is_seeded(work):
    workload = workloads.WORKLOADS["identical-array-scan"]

    def scenario_bytes(seed, index):
        op = workloads.make_op(workload, seed, index, work)
        with open(op.scenario_path, "rb") as fh:
            return op.n_sensors, fh.read()

    assert scenario_bytes(1, 3) == scenario_bytes(1, 3)
    assert scenario_bytes(1, 3) != scenario_bytes(2, 3)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
