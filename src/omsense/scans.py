"""Figure-level computations: noise budgets, parameter scans and projections.

Each function turns a validated Scenario into an ordered list of records
(plain dicts) that the CLI serializes; everything is deterministic given the
scenario, and per-point failures in scans are recorded in the row rather
than dropped.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TWO_PI
from .errors import OmsenseError, ScenarioError
from .spectra import (QuadraturePsds, SqueezedInput, displacement_asd,
                      input_quadrature_psds)
from .arrays import (SensorArray, array_noise_psd, array_signal_psd,
                     array_sql_psd, array_squeezed_noise)
from .oracle import oracle_noise_psd
from .sensitivity import (FrequencyGrid, integrated_sensitivity,
                          min_detectable_coupling)
from .scenario import Scenario

__all__ = [
    "noise_budget_table",
    "sensitivity_report",
    "array_scan_table",
    "dm_projection_table",
    "power_scan_table",
    "loss_scan_table",
    "oracle_check_table",
    "scan_curves",
    "COLUMNS",
]

COLUMNS = {
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
    "scan": ["axis", "value", "i_classical", "i_squeezed", "total_at_resonance",
             "shot_at_resonance", "back_action_at_resonance",
             "thermal_at_resonance", "residual_at_resonance", "g_min", "error"],
}


def _classical_noise_fn(arr: SensorArray):
    vac = QuadraturePsds.vacuum()
    return lambda w: array_noise_psd(arr, vac, w).total


def _squeezed_noise_fn(arr: SensorArray, squeeze: SqueezedInput):
    if squeeze.r == 0.0:
        return _classical_noise_fn(arr)
    theta = None if squeeze.angle_policy == "optimal" else squeeze.angle
    return lambda w: array_squeezed_noise(arr, squeeze.r, theta, w).total


def _weighted_thermal(arr: SensorArray) -> float:
    vac = QuadraturePsds.vacuum()
    bd = array_noise_psd(arr, vac, arr.sensors[0].oscillator.omega0)
    return float(bd.thermal)


def _flat_signal(gain: float):
    return lambda w: np.full_like(np.asarray(w, dtype=float), gain)


def _integral(grid: FrequencyGrid, noise_fn, gain: float = 1.0):
    return integrated_sensitivity(_flat_signal(gain), noise_fn, grid)


# ---------------------------------------------------------------------------
# noise budget
# ---------------------------------------------------------------------------

def noise_budget_table(scn: Scenario, n_points: int = 481) -> list[dict]:
    """Classical breakdown, squeezed total and per-frequency limits."""
    arr = scn.build_array()
    lo, hi = scn.grid_span
    omegas = np.geomspace(lo, hi, n_points)
    omegas = np.unique(np.concatenate(
        [omegas, [s.oscillator.omega0 for s in scn.sensors]]))
    vac = QuadraturePsds.vacuum()
    bd = array_noise_psd(arr, vac, omegas)
    sq_total = _squeezed_noise_fn(arr, scn.squeeze)(omegas)
    sql = array_sql_psd(arr, omegas)
    thermal = _weighted_thermal(arr)
    em2r = math.exp(-2.0 * scn.squeeze.r)
    osc0 = arr.sensors[0].oscillator
    mass = osc0.mass
    disp = displacement_asd(osc0, omegas, bd.total)
    rows = []
    for i, w in enumerate(omegas):
        rows.append({
            "omega_rad_s": w,
            "frequency_hz": w / TWO_PI,
            "shot": bd.shot[i],
            "back_action": bd.back_action[i],
            "correlation": bd.correlation[i],
            "thermal": bd.thermal[i],
            "residual_vacuum": bd.residual_vacuum[i],
            "detection_loss": bd.detection_loss[i],
            "total_classical": bd.total[i],
            "total_squeezed": sq_total[i],
            "sql": sql[i],
            "classical_limit_total": sql[i] + thermal,
            "squeezed_limit_total": em2r * sql[i] + thermal,
            "acc_asd_classical": math.sqrt(bd.total[i]) / mass,
            "acc_asd_squeezed": math.sqrt(sq_total[i]) / mass,
            "disp_asd_classical": disp[i],
        })
    return rows


# ---------------------------------------------------------------------------
# integrated sensitivity and scans
# ---------------------------------------------------------------------------

def sensitivity_report(scn: Scenario, tol: float | None = None) -> list[dict]:
    """Integrated sensitivity with two self-convergence checks: the change
    under a halved tolerance, and under bisecting every seed panel."""
    arr = scn.build_array()
    grid = scn.build_grid(tol)
    bisected = grid.bisected()
    gain = float(array_signal_psd(arr, 1.0))
    rows = []
    quantities = [("classical", _classical_noise_fn(arr))]
    if scn.squeeze.r > 0:
        quantities.append(("squeezed", _squeezed_noise_fn(arr, scn.squeeze)))
    for name, fn in quantities:
        res = _integral(grid, fn, gain)
        res_half = integrated_sensitivity(_flat_signal(gain), fn, grid,
                                          rel_tol=0.5 * grid.tol)
        res_bisected = _integral(bisected, fn, gain)
        rows.append({
            "quantity": name,
            "value": res.value,
            "rel_error_estimate": res.rel_error,
            "rel_change_half_tol": abs(res_half.value - res.value)
                                   / abs(res.value),
            "n_panels": res.n_panels,
            "n_evaluations": res.n_evaluations,
            "rel_change_bisected": abs(res_bisected.value - res.value)
                                   / abs(res.value),
        })
    return rows


def array_scan_table(scn: Scenario) -> list[dict]:
    """Integrated sensitivity vs sensor count: DQS, coherent, incoherent."""
    counts = scn.scan.get("sensor_counts", [1, 2, 4, 8, 16, 32, 64, 100])
    grid = scn.build_grid()
    squeeze = scn.squeeze

    arr1 = scn.build_array(1)
    i_single = _integral(grid, _classical_noise_fn(arr1),
                         float(array_signal_psd(arr1, 1.0))).value

    def one(m):
        arr = scn.build_array(int(m))
        gain = float(array_signal_psd(arr, 1.0))
        i_coh = _integral(grid, _classical_noise_fn(arr), gain).value
        i_dqs = _integral(grid, _squeezed_noise_fn(arr, squeeze), gain).value
        i_incoh = m * i_single
        return {
            "n_sensors": int(m),
            "i_dqs": i_dqs,
            "i_classical_coherent": i_coh,
            "i_classical_incoherent": i_incoh,
            "dqs_over_coherent": i_dqs / i_coh,
            "coherent_over_single": i_coh / i_single,
            "incoherent_over_single": i_incoh / i_single,
        }

    return [one(m) for m in counts]


def dm_projection_table(scn: Scenario,
                        overlays: dict[str, np.ndarray] | None = None) -> list[dict]:
    """Minimum detectable coupling vs Compton frequency for the standard curves.

    The incoherent column combines identical sensors at the power level
    (effective SNR^2 is the sum of per-sensor SNR^2, so the noise-equivalent
    improves by sqrt(M)); the acceleration-referenced curves assume the
    scenario's single-sensor template.
    """
    if scn.dark_matter is None:
        raise ScenarioError("dm-projection needs a dark_matter block")
    dm, plan = scn.dark_matter, scn.plan
    m_count = int(scn.scan.get("dqs_sensors", 10))
    lo = TWO_PI * float(scn.scan.get("compton_hz_min", 20.0))
    hi = TWO_PI * float(scn.scan.get("compton_hz_max", 20000.0))
    n = int(scn.scan.get("compton_points", 61))
    omegas = np.geomspace(lo, hi, n)

    arr1 = scn.build_array(1)
    arr_m = scn.build_array(m_count)
    gain_m = float(array_signal_psd(arr_m, 1.0))
    vac = QuadraturePsds.vacuum()
    squeeze = scn.squeeze
    em2r = math.exp(-2.0 * squeeze.r)
    thermal_m = _weighted_thermal(arr_m)

    n1 = array_noise_psd(arr1, vac, omegas).total
    nm = array_noise_psd(arr_m, vac, omegas).total
    ndqs = array_squeezed_noise(arr_m, squeeze.r, None, omegas).total
    sql_m = array_sql_psd(arr_m, omegas)
    rows = []
    for i, w in enumerate(omegas.tolist()):
        n1_w, sql_w = float(n1[i]), float(sql_m[i])
        rows.append({
            "compton_rad_s": w,
            "compton_hz": w / TWO_PI,
            "gmin_single_classical": min_detectable_coupling(n1_w, dm, plan, w),
            "gmin_coherent_array": min_detectable_coupling(
                float(nm[i]) / gain_m, dm, plan, w),
            "gmin_incoherent_array": min_detectable_coupling(
                n1_w / math.sqrt(m_count), dm, plan, w),
            "gmin_dqs_array": min_detectable_coupling(
                float(ndqs[i]) / gain_m, dm, plan, w),
            "gmin_sql_array": min_detectable_coupling(
                (sql_w + thermal_m) / gain_m, dm, plan, w),
            "gmin_dqs_limit": min_detectable_coupling(
                (em2r * sql_w + thermal_m) / gain_m, dm, plan, w),
        })
    if overlays:
        for label, data in sorted(overlays.items()):
            col = f"overlay_{label}"
            x, y = np.asarray(data[:, 0]), np.asarray(data[:, 1])
            for row in rows:
                w = row["compton_rad_s"]
                if x.min() <= w <= x.max():
                    row[col] = float(np.exp(np.interp(
                        np.log(w), np.log(x), np.log(y))))
                else:
                    row[col] = math.nan
    return rows


def power_scan_table(scn: Scenario) -> list[dict]:
    powers = scn.scan.get("powers_w")
    if not powers:
        raise ScenarioError("power-scan needs scan.powers_w")
    fixed_angle = float(scn.scan.get("fixed_angle_rad", math.pi / 4))
    grid = scn.build_grid()
    squeeze = scn.squeeze

    def one(p):
        arr = scn.build_array(power=float(p))
        gain = float(array_signal_psd(arr, 1.0))
        i_cl = _integral(grid, _classical_noise_fn(arr), gain).value
        i_opt = _integral(grid, _squeezed_noise_fn(
            arr, SqueezedInput(r=squeeze.r, angle_policy="optimal")), gain).value
        i_fix = _integral(grid, _squeezed_noise_fn(
            arr, SqueezedInput(r=squeeze.r, angle_policy="fixed",
                               angle=fixed_angle)), gain).value
        return {"power_w": float(p), "i_classical": i_cl,
                "i_squeezed_optimal": i_opt, "i_squeezed_fixed": i_fix}

    return [one(p) for p in powers]


def loss_scan_table(scn: Scenario) -> list[dict]:
    losses = scn.scan.get("losses")
    if losses is None:
        raise ScenarioError("loss-scan needs scan.losses")
    grid = scn.build_grid()
    squeeze = scn.squeeze

    def one(loss):
        eta_sq = 1.0 - float(loss)
        if not 0 < eta_sq <= 1:
            raise ScenarioError(f"loss must lie in [0, 1), got {loss}")
        arr = scn.build_array(efficiency_sq=eta_sq)
        gain = float(array_signal_psd(arr, 1.0))
        i_cl = _integral(grid, _classical_noise_fn(arr), gain).value
        i_sq = _integral(grid, _squeezed_noise_fn(
            arr, SqueezedInput(r=squeeze.r, angle_policy="optimal")), gain).value
        return {"loss": float(loss), "efficiency_sq": eta_sq,
                "i_classical": i_cl, "i_squeezed_optimal": i_sq}

    return [one(loss) for loss in losses]


# ---------------------------------------------------------------------------
# oracle cross-check suite
# ---------------------------------------------------------------------------

def random_array(rng: np.random.Generator, m: int) -> tuple[SensorArray, float]:
    """Heterogeneous array within a decade of the membrane reference values."""
    from .spectra import CavityOptics, Oscillator
    from .arrays import ArraySensor, matched_weights

    sensors = []
    for _ in range(m):
        osc = Oscillator.from_quality(
            mass=6e-6 * rng.uniform(0.1, 10.0),
            omega0=TWO_PI * 2000.0 * rng.uniform(0.1, 10.0),
            quality=1e9 * rng.uniform(0.1, 10.0),
            temperature=10e-3 * rng.uniform(0.1, 10.0))
        kappa = 0.94e9 * rng.uniform(0.1, 10.0)
        cav = CavityOptics.from_wavelength(
            kappa=kappa, kappa_readout=kappa * rng.uniform(0.5, 1.0),
            g0=46.0 * rng.uniform(0.1, 10.0), wavelength=1.06e-6,
            input_power=0.0, efficiency_sq=rng.uniform(0.8, 1.0))
        sensors.append(ArraySensor(osc, cav, rng.uniform(0.5, 2.0)))
    dv = rng.uniform(0.1, 1.0, m)
    dv = dv / np.linalg.norm(dv)
    arr = SensorArray(tuple(sensors), dv.astype(complex), matched_weights(dv),
                      total_power=2e-3 * m * rng.uniform(0.5, 2.0))
    db = rng.uniform(0.0, 15.0)
    return arr, db


def oracle_check_table(n_configs: int = 200, n_freqs: int = 50,
                       seed: int = 20240817) -> list[dict]:
    """Closed-form array noise vs covariance-propagation oracle residuals."""
    rng = np.random.default_rng(seed)
    jobs = []
    for idx in range(n_configs):
        m = int(rng.integers(1, 5))
        arr, db = random_array(rng, m)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        omegas = np.exp(rng.uniform(np.log(arr.sensors[0].oscillator.omega0 / 100),
                                    np.log(arr.sensors[0].oscillator.omega0 * 100),
                                    n_freqs))
        jobs.append((idx, m, arr, db, theta, omegas))

    def one(job):
        idx, m, arr, db, theta, omegas = job
        squeeze = SqueezedInput.from_db(db)
        inp = input_quadrature_psds(squeeze, theta)
        closed = array_noise_psd(arr, inp, omegas).total
        orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
        resid = float(np.max(np.abs(orc - closed) / np.abs(closed)))
        return {"config_index": idx, "n_sensors": m, "squeezing_db": db,
                "max_rel_residual": resid}

    return [one(job) for job in jobs]


# ---------------------------------------------------------------------------
# generic axis scan
# ---------------------------------------------------------------------------

_AXIS_ALIASES = {"m": "sensors", "sensors": "sensors", "p": "power",
                 "power": "power", "eta": "efficiency",
                 "efficiency": "efficiency", "omega_dm": "compton",
                 "compton": "compton"}


def scan_curves(scn: Scenario, axis: str, values) -> list[dict]:
    """Sweep one axis; per-value records carry the integrated sensitivities,
    the resonance noise breakdown and (when configured) the minimum coupling.
    A failing point is recorded with its error message, never dropped.
    """
    key = _AXIS_ALIASES.get(axis.lower())
    if key is None:
        raise ScenarioError(f"unknown scan axis {axis!r}")
    grid = scn.build_grid()
    squeeze = scn.squeeze

    def one(value):
        row = {"axis": key, "value": float(value), "error": ""}
        try:
            omega_dm = None
            if key == "sensors":
                arr = scn.build_array(int(value))
            elif key == "power":
                arr = scn.build_array(power=float(value))
            elif key == "efficiency":
                arr = scn.build_array(efficiency_sq=float(value))
            else:
                arr = scn.build_array()
                omega_dm = float(value)
            gain = float(array_signal_psd(arr, 1.0))
            row["i_classical"] = _integral(grid, _classical_noise_fn(arr),
                                           gain).value
            if squeeze.r > 0:
                row["i_squeezed"] = _integral(
                    grid, _squeezed_noise_fn(arr, squeeze), gain).value
            else:
                row["i_squeezed"] = row["i_classical"]
            w0 = arr.sensors[0].oscillator.omega0
            bd = array_noise_psd(arr, QuadraturePsds.vacuum(), w0)
            row.update({
                "total_at_resonance": float(bd.total),
                "shot_at_resonance": float(bd.shot),
                "back_action_at_resonance": float(bd.back_action),
                "thermal_at_resonance": float(bd.thermal),
                "residual_at_resonance": float(bd.residual_vacuum),
            })
            if scn.dark_matter is not None:
                noise = float(array_noise_psd(
                    arr, QuadraturePsds.vacuum(),
                    omega_dm if omega_dm is not None
                    else scn.dark_matter.compton_omega).total)
                row["g_min"] = min_detectable_coupling(
                    noise / gain, scn.dark_matter, scn.plan, omega_dm)
            else:
                row["g_min"] = math.nan
        except OmsenseError as exc:
            row["error"] = str(exc)
            for col in COLUMNS["scan"]:
                row.setdefault(col, math.nan)
        return row

    return [one(value) for value in values]
