"""Figure-level computations: noise budgets, parameter scans and projections.

Each function turns a validated Scenario into an ordered list of records
(plain dicts) that the CLI serializes; everything is deterministic given the
scenario.  The array-, power- and loss-scans are one sweep (``_sweep``) over
an axis, a list of inputs and a column projection.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import TWO_PI
from .errors import ScenarioError
from .spectra import (CavityOptics, Oscillator, QuadraturePsds, SqueezedInput,
                      displacement_asd, input_quadrature_psds)
from .arrays import (ArrayNoise, ArraySensor, SensorArray, array_noise_psd,
                     array_signal_psd, array_sql_psd, matched_weights)
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
}

_VACUUM = SqueezedInput.vacuum()


def _flat_signal(gain: float):
    return lambda w: np.full_like(np.asarray(w, dtype=float), gain)


def _single_reference(scn: Scenario) -> SensorArray:
    """The M = 1 reference: template 0 alone with unit weights, at the power
    ``build_array(1)`` gives a one-template scenario under either power
    convention, whatever the scenario's template count and weight policy."""
    return SensorArray(scn.sensors[:1], np.ones(1), np.ones(1), scn.power)


def _sweep(grid: FrequencyGrid, values, build, inputs) -> list[list[float]]:
    """For each axis value, the integrated sensitivity of ``build(value)``
    under each input of ``inputs``: one integral per value, whose components
    are the inputs, all on one grid."""
    out = []
    for value in values:
        arr = build(value)
        signal = _flat_signal(float(array_signal_psd(arr, 1.0)))
        res = integrated_sensitivity(
            signal, lambda w: ArrayNoise(arr, w).totals(inputs), grid)
        out.append(res.value.tolist())
    return out


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
    noise = ArrayNoise(arr, omegas)
    bd = noise.breakdown(QuadraturePsds.vacuum())
    [sq_total] = noise.totals([scn.squeeze])
    sql = array_sql_psd(arr, omegas)
    thermal = float(bd.thermal[0])  # frequency-independent
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

def sensitivity_report(scn: Scenario) -> list[dict]:
    """Integrated sensitivity with a self-convergence check: the relative
    change when the integral is recomputed at half the tolerance on the
    bisected grid, a different node set."""
    arr = scn.build_array()
    grid = scn.build_grid()
    signal = _flat_signal(float(array_signal_psd(arr, 1.0)))
    quantities = [("classical", _VACUUM)]
    if scn.squeeze.r > 0:
        quantities.append(("squeezed", scn.squeeze))
    rows = []
    for name, squeeze in quantities:
        def noise(w):
            return ArrayNoise(arr, w).totals([squeeze])[0]

        res = integrated_sensitivity(signal, noise, grid)
        res_half = integrated_sensitivity(signal, noise, grid.bisected(),
                                          rel_tol=0.5 * grid.tol)
        rows.append({
            "quantity": name,
            "value": res.value,
            "rel_error_estimate": res.rel_error,
            "rel_change_half_tol": abs(res_half.value - res.value)
                                   / abs(res.value),
            "n_panels": res.n_panels,
            "n_evaluations": res.n_evaluations,
        })
    return rows


def array_scan_table(scn: Scenario) -> list[dict]:
    """Integrated sensitivity vs sensor count: DQS, coherent, incoherent."""
    counts = scn.scan["sensor_counts"]
    grid = scn.build_grid()
    [[i_single]] = _sweep(grid, [scn], _single_reference, [_VACUUM])

    def row(m, i_coh, i_dqs):
        i_incoh = m * i_single
        return {"n_sensors": m, "i_dqs": i_dqs,
                "i_classical_coherent": i_coh,
                "i_classical_incoherent": i_incoh,
                "dqs_over_coherent": i_dqs / i_coh,
                "coherent_over_single": i_coh / i_single,
                "incoherent_over_single": i_incoh / i_single}

    integrals = _sweep(grid, counts, scn.build_array, [_VACUUM, scn.squeeze])
    return [row(m, *i) for m, i in zip(counts, integrals)]


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
    dm, plan, scan = scn.dark_matter, scn.plan, scn.scan
    m_count = scan["dqs_sensors"]
    omegas = np.geomspace(TWO_PI * scan["compton_hz_min"],
                          TWO_PI * scan["compton_hz_max"],
                          scan["compton_points"])

    arr1 = _single_reference(scn)
    arr_m = scn.build_array(m_count)
    gain_m = float(array_signal_psd(arr_m, 1.0))
    r = scn.squeeze.r
    em2r = math.exp(-2.0 * r)

    [n1] = ArrayNoise(arr1, omegas).totals([_VACUUM])
    noise_m = ArrayNoise(arr_m, omegas)
    # the DQS column squeezes at the optimal angle whatever the scenario's
    # angle policy; at r = 0 it is the coherent column
    nm, ndqs = noise_m.totals([_VACUUM, SqueezedInput(r, "optimal")])
    thermal_m = float(noise_m.thermal_psd()[0])  # frequency-independent
    sql_m = array_sql_psd(arr_m, omegas)
    rows = []
    for i, w in enumerate(omegas.tolist()):
        plan.check(dm.linewidth(w))
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
    """Integrated sensitivity vs laser power: classical, optimal and fixed
    squeezing angle."""
    powers = scn.scan.get("powers_w")
    if not powers:
        raise ScenarioError("power-scan needs scan.powers_w")
    r = scn.squeeze.r
    inputs = [_VACUUM, SqueezedInput(r=r, angle_policy="optimal"),
              SqueezedInput(r=r, angle_policy="fixed",
                            angle=scn.scan["fixed_angle_rad"])]
    integrals = _sweep(scn.build_grid(), powers,
                       lambda p: scn.build_array(power=p), inputs)
    return [{"power_w": p, "i_classical": i_cl, "i_squeezed_optimal": i_opt,
             "i_squeezed_fixed": i_fix}
            for p, (i_cl, i_opt, i_fix) in zip(powers, integrals)]


def loss_scan_table(scn: Scenario) -> list[dict]:
    """Integrated sensitivity vs detection loss 1 - eta^2."""
    losses = scn.scan.get("losses")
    if losses is None:
        raise ScenarioError("loss-scan needs scan.losses")
    inputs = [_VACUUM, SqueezedInput(r=scn.squeeze.r, angle_policy="optimal")]
    integrals = _sweep(scn.build_grid(), losses,
                       lambda loss: scn.build_array(efficiency_sq=1.0 - loss),
                       inputs)
    return [{"loss": loss, "efficiency_sq": 1.0 - loss, "i_classical": i_cl,
             "i_squeezed_optimal": i_sq}
            for loss, (i_cl, i_sq) in zip(losses, integrals)]


# ---------------------------------------------------------------------------
# oracle cross-check suite
# ---------------------------------------------------------------------------

def random_array(rng: np.random.Generator, m: int) -> tuple[SensorArray, float]:
    """Heterogeneous array within a decade of the membrane reference values."""
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
    rows = []
    for idx in range(n_configs):
        m = int(rng.integers(1, 5))
        arr, db = random_array(rng, m)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        omega0 = arr.sensors[0].oscillator.omega0
        omegas = np.exp(rng.uniform(np.log(omega0 / 100),
                                    np.log(omega0 * 100), n_freqs))
        squeeze = SqueezedInput.from_db(db)
        closed = array_noise_psd(arr, input_quadrature_psds(squeeze, theta),
                                 omegas).total
        orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
        rows.append({"config_index": idx, "n_sensors": m, "squeezing_db": db,
                     "max_rel_residual": float(np.max(np.abs(orc - closed)
                                                      / np.abs(closed)))})
    return rows
