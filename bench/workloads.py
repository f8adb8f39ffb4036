"""Seeded op generator for the omsense benchmark.

An op is one CLI command on a scenario file written here.  Op ``i`` of a
workload draws its inputs from ``numpy.random.default_rng`` seeded with the
workload, ``--seed`` and ``i``, so the same seed gives the same ops, in the
same order, on every machine.

Ops come in cycles of two decks.  Op ``i`` falls in stratum ``i % deck`` of
the quantity whose cost varies most (log M on ``identical-array-scan``, the
command on ``single-sensor-sweep``), at position ``u`` inside the stratum.
``u`` starts at a seeded uniform draw and steps by the golden ratio from one
cycle to the next, and the second deck of a cycle takes ``1 - u``
(randomized quasi-Monte Carlo with antithetic pairs).  Every op is still a
uniform draw inside its stratum, but a run made of whole cycles holds nearly
the same mix of cheap and expensive ops whatever the seed, so it measures
the program and not the luck of the draw.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

TOLERANCE_REL = 1e-3  # the preset grid tolerance; the checker tightens it 100x


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker needs to know about it."""

    index: int
    command: str
    argv: tuple[str, ...]          # full argv except --out
    scenario_path: str | None
    n_sensors: int                 # array size the closed-form/oracle check uses
    expected_rows: tuple[int, ...]  # allowed table row counts
    integral_columns: tuple[str, ...] = ()
    tolerance_rel: float = TOLERANCE_REL


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def membrane_sensor(rng) -> dict:
    """The membrane reference detector, perturbed within physical ranges."""
    return {
        # 6 mg membrane; x0.5-2 spans the thinner and thicker membranes of
        # the same geometry family that keep the cavity model valid.
        "mass_kg": 6e-6 * _log_uniform(rng, 0.5, 2.0),
        # 2 kHz drum mode; x0.5-2 keeps the resonance one octave either side,
        # well inside the default span (1e-3 .. 1e3 of it, below kappa/10).
        "resonance_hz": 2000.0 * _log_uniform(rng, 0.5, 2.0),
        # Q from 1e8 (room-temperature-class dissipation) to 3e9 (the best
        # soft-clamped membranes): linewidths the quadrature must resolve.
        "quality_factor": _log_uniform(rng, 1e8, 3e9),
        "temperature_k": 10e-3,
        "kappa_rad_s": 0.94e9,
        "readout_kappa_rad_s": 0.94e9,
        "g0_rad_s": 46.0,
        "wavelength_m": 1.06e-6,
        "cavity_length_m": 1e-3,
        "detection_efficiency_sq": 1.0,
        "response_factor": 1.0,
    }


def base_scenario(rng, squeezing_db: float) -> dict:
    return {
        "schema_version": 1,
        "array": {
            "sensors": [membrane_sensor(rng)],
            "copies": 1,
            "weights_policy": "matched",
            "power_convention": "per_sensor",
            # 2 mW per sensor; x0.1-10 runs from shot-noise-dominated to
            # back-action-dominated readout around the SQL power.
            "power_w": 2e-3 * _log_uniform(rng, 0.1, 10.0),
        },
        "input_light": {"squeezing_db": squeezing_db, "angle_policy": "optimal"},
        "observation": {"duration_s": 31557600.0, "snr_threshold": 1.0},
        "grid": {"tolerance_rel": TOLERANCE_REL, "points_per_decade": 16},
        "output": {"format": "csv"},
    }


def _squeezing_db(rng) -> float:
    # 3-15 dB: from modest squeezing to the best injected squeezing reported
    # for optomechanical readout; 0 dB would skip the squeezed path.
    return float(rng.uniform(3.0, 15.0))


def _write_scenario(work_dir: str, index: int, raw: dict) -> str:
    path = os.path.join(work_dir, f"scenario_{index:05d}.json" if index >= 0
                        else "scenario_warmup.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

M_MAX = 128


def _identical_array_scan(rng, index, stratum, position, work_dir) -> Op:
    # M log-uniform in 1..M_MAX: log M / log M_MAX is the stratified position.
    m = min(M_MAX, max(1, int(round(M_MAX ** position))))
    raw = base_scenario(rng, _squeezing_db(rng))
    raw["scan"] = {"sensor_counts": [m]}
    path = _write_scenario(work_dir, index, raw)
    return Op(index=index, command="array-scan",
              argv=("array-scan", "--scenario", path), scenario_path=path,
              n_sensors=m, expected_rows=(1,),
              integral_columns=("i_dqs", "i_classical_coherent",
                                "i_classical_incoherent"))


ORACLE_CONFIGS = 16


def _oracle_crosscheck(rng, index, stratum, position, work_dir) -> Op:
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ("oracle-check", "--configs", str(ORACLE_CONFIGS),
            "--seed", str(seed))
    return Op(index=index, command="oracle-check", argv=argv,
              scenario_path=None, n_sensors=0,
              expected_rows=(ORACLE_CONFIGS,))


SWEEP_COMMANDS = ("noise", "sensitivity", "power-scan", "loss-scan",
                  "dm-projection")
DM_SENSORS = 10


def _single_sensor_sweep(rng, index, stratum, position, work_dir) -> Op:
    command = SWEEP_COMMANDS[stratum % len(SWEEP_COMMANDS)]
    raw = base_scenario(rng, _squeezing_db(rng))
    n_sensors, integrals = 1, ()
    if command == "noise":
        # 481 log-spaced points plus the resonance, which coincides with the
        # middle point when the span is symmetric about it in log
        rows = (481, 482)
    elif command == "sensitivity":
        rows, integrals = (2,), ("value",)
    elif command == "power-scan":
        p = raw["array"]["power_w"]
        raw["scan"] = {"powers_w": [p / 10.0, p, p * 10.0],
                       "fixed_angle_rad": math.pi / 4}
        rows = (3,)
        integrals = ("i_classical", "i_squeezed_optimal", "i_squeezed_fixed")
    elif command == "loss-scan":
        # losses below 0.9: eta^2 = 0 has no readout and is rejected.
        losses = sorted(float(x) for x in rng.uniform(0.0, 0.9, 3))
        raw["scan"] = {"losses": [0.0] + losses}
        rows, integrals = (4,), ("i_classical", "i_squeezed_optimal")
    else:
        f0 = raw["array"]["sensors"][0]["resonance_hz"]
        raw["dark_matter"] = {
            "coupling": 1e-24, "density_gev_cm3": 0.4, "material_factor": None,
            "compton_hz": f0, "linewidth_fraction": 1e-6,
            "calibration": {"acceleration_asd_ms2_rthz": 1e-12,
                            "coupling": 4e-25}}
        raw["scan"] = {"compton_hz_min": 20.0, "compton_hz_max": 20000.0,
                       "compton_points": 61, "dqs_sensors": DM_SENSORS}
        n_sensors, rows = DM_SENSORS, (61,)
    path = _write_scenario(work_dir, index, raw)
    return Op(index=index, command=command,
              argv=(command, "--scenario", path), scenario_path=path,
              n_sensors=n_sensors, expected_rows=rows,
              integral_columns=integrals)


@dataclass(frozen=True)
class Workload:
    name: str
    ident: int   # part of every seed, so workloads never share a stream
    deck: int    # ops per deck; a cycle is two decks
    make: object


# Why each workload is here: BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("identical-array-scan", 1, 16, _identical_array_scan),
    Workload("oracle-crosscheck", 2, 8, _oracle_crosscheck),
    Workload("single-sensor-sweep", 3, 10, _single_sensor_sweep),
)}


GOLDEN = 0.6180339887498949


def make_op(workload: Workload, seed: int, index: int, work_dir: str) -> Op:
    cycle, pos = divmod(index, 2 * workload.deck)
    mirrored, stratum = divmod(pos, workload.deck)
    u0 = np.random.default_rng((workload.ident, seed, stratum, 1)).uniform()
    u = (u0 + cycle * GOLDEN) % 1.0
    position = (stratum + (1.0 - u if mirrored else u)) / workload.deck
    rng = np.random.default_rng((workload.ident, seed, index))
    return workload.make(rng, index, stratum, position, work_dir)


def make_warmup_op(workload: Workload, seed: int, work_dir: str) -> Op:
    """The most expensive op of the last stratum, so that lazy set-up and
    heap growth happen before timing starts."""
    rng = np.random.default_rng((workload.ident, seed, 0, 2))
    return workload.make(rng, -1, workload.deck - 1, 1.0, work_dir)
