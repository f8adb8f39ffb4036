"""Output checks for benchmark ops; never called inside a timed region.

An op fails when any of these hold:

- its exit code is not 0;
- its table misses the frozen column headers, in order, at the front;
- a table value is not finite, or the row count or manifest disagree;
- an ``oracle-check`` manifest reports ``passed=false``;
- the closed-form array noise of the op's array differs from
  ``oracle_noise_psd`` by more than ``ORACLE_TOL`` at sampled frequencies;
- an integral differs by more than the scenario's ``tolerance_rel`` from an
  untimed recompute at a 100x tighter ``--tolerance``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

ORACLE_TOL = 1e-9
ORACLE_FREQS = 8
RECOMPUTE_TIGHTENING = 100.0

# The frozen CSV interface of omsense (README "Output stability").  Kept here
# rather than read from the program, so a change to the program's copy shows.
FROZEN_COLUMNS = {
    "noise": ["omega_rad_s", "frequency_hz", "shot", "back_action",
              "correlation", "thermal", "residual_vacuum", "detection_loss",
              "total_classical", "total_squeezed", "sql",
              "classical_limit_total", "squeezed_limit_total",
              "acc_asd_classical", "acc_asd_squeezed", "disp_asd_classical"],
    "array-scan": ["n_sensors", "i_dqs", "i_classical_coherent",
                   "i_classical_incoherent", "dqs_over_coherent",
                   "coherent_over_single", "incoherent_over_single"],
    "sensitivity": ["quantity", "value", "rel_error_estimate",
                    "rel_change_half_tol", "n_panels", "n_evaluations"],
    "dm-projection": ["compton_rad_s", "compton_hz", "gmin_single_classical",
                      "gmin_coherent_array", "gmin_incoherent_array",
                      "gmin_dqs_array", "gmin_sql_array", "gmin_dqs_limit"],
    "power-scan": ["power_w", "i_classical", "i_squeezed_optimal",
                   "i_squeezed_fixed"],
    "loss-scan": ["loss", "efficiency_sq", "i_classical",
                  "i_squeezed_optimal"],
    "oracle-check": ["config_index", "n_sensors", "squeezing_db",
                     "max_rel_residual"],
}
TEXT_COLUMNS = {"quantity"}


def run_cli(argv, main=None) -> tuple[int, float, str]:
    """Run the CLI entry in-process: (exit code, seconds, captured output).

    ``main`` defaults to ``omsense.cli.main`` looked up at call time.  Only
    the call itself is timed; a raised exception is a failed op, not a crash.
    """
    from omsense import cli

    main = cli.main if main is None else main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            rc = -1
            print(f"{type(exc).__name__}: {exc}", file=buf)
        elapsed = time.perf_counter() - start
    return rc, elapsed, buf.getvalue()


def read_table(out_dir: str, command: str) -> tuple[list[str], list[dict]]:
    with open(os.path.join(out_dir, f"{command}.csv"), encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for cells in reader:
            if len(cells) != len(header):
                raise ValueError(f"row {len(rows)} has {len(cells)} cells, "
                                 f"header {len(header)}")
            rows.append(dict(zip(header, cells)))
    return header, rows


def table_failures(op, out_dir: str) -> list[str]:
    """Cheap checks on one op's written table and manifest."""
    try:
        header, rows = read_table(out_dir, op.command)
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, StopIteration, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    failures = []
    frozen = FROZEN_COLUMNS[op.command]
    if header[:len(frozen)] != frozen:
        missing = [c for c in frozen if c not in header]
        failures.append(f"frozen columns missing or out of order: {missing}")
    if len(rows) not in op.expected_rows or manifest.get("n_rows") != len(rows):
        failures.append(f"{len(rows)} rows (manifest {manifest.get('n_rows')}), "
                        f"expected {op.expected_rows}")
    for i, row in enumerate(rows):
        for col, cell in row.items():
            if col in TEXT_COLUMNS:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                failures.append(f"row {i} {col}={cell!r} is not finite")
    if op.command == "oracle-check":
        oracle = manifest.get("oracle", {})
        if oracle.get("passed") is not True:
            failures.append("oracle-check manifest reports passed=false")
        tol = oracle.get("residual_tol", ORACLE_TOL)
        for row in rows:
            try:
                if not float(row.get("max_rel_residual", "nan")) < tol:
                    failures.append(f"config {row.get('config_index')} residual "
                                    f"{row.get('max_rel_residual')} >= {tol}")
            except ValueError:
                pass  # already reported as not finite
    return failures


def oracle_failures(op) -> list[str]:
    """Closed form vs covariance-propagation oracle on the op's array."""
    if op.scenario_path is None:
        return []
    from omsense import arrays, oracle, scenario, spectra

    scn = scenario.load_scenario(op.scenario_path)
    arr = scn.build_array(op.n_sensors)
    lo, hi = scn.grid_span
    omega0 = arr.sensors[0].oscillator.omega0
    rng = np.random.default_rng(op.index)
    omegas = np.sort(np.concatenate([
        np.exp(rng.uniform(math.log(lo), math.log(hi), ORACLE_FREQS - 1)),
        [omega0]]))
    theta = float(arrays.optimal_squeezing_angle(arr, omega0))
    inp = spectra.input_quadrature_psds(scn.squeeze, theta)
    closed = np.asarray(arrays.array_noise_psd(arr, inp, omegas).total)
    orc = np.asarray(oracle.oracle_noise_psd(arr, omegas, scn.squeeze,
                                             theta=theta))
    resid = float(np.max(np.abs(orc - closed) / np.abs(closed)))
    if not resid <= ORACLE_TOL:
        return [f"closed form vs oracle residual {resid:.3e} > {ORACLE_TOL:g}"]
    return []


def integral_failures(op, out_dir: str, check_dir: str) -> list[str]:
    """Compare the op's integrals with a recompute at a tighter tolerance."""
    if not op.integral_columns:
        return []
    tight = op.tolerance_rel / RECOMPUTE_TIGHTENING
    rc, _, text = run_cli(list(op.argv) + ["--out", check_dir,
                                           "--tolerance", repr(tight)])
    if rc != 0:
        return [f"recompute at tolerance {tight:g} exited {rc}: {text.strip()}"]
    _, rows = read_table(out_dir, op.command)
    _, ref_rows = read_table(check_dir, op.command)
    if len(rows) != len(ref_rows):
        return [f"recompute has {len(ref_rows)} rows, op has {len(rows)}"]
    failures = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in op.integral_columns:
            try:
                value, want = float(row[col]), float(ref[col])
            except (KeyError, ValueError):
                failures.append(f"row {i} {col} missing or not a number")
                continue
            rel = abs(value - want) / abs(want) if want else abs(value)
            if not rel <= op.tolerance_rel:
                failures.append(f"row {i} {col}={value!r} differs from the "
                                f"recompute {want!r} by {rel:.3e}")
    return failures


def check_op(op, rc: int, out_dir: str, check_dir: str) -> list[str]:
    """Every check for one op; an empty list means the op is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    failures = table_failures(op, out_dir)
    try:
        failures += oracle_failures(op)
        failures += integral_failures(op, out_dir, check_dir)
    except Exception as exc:  # a crash in a check fails the op
        failures.append(f"check raised {type(exc).__name__}: {exc}")
    return failures
