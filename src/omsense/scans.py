"""Figure-level computations: noise budgets, parameter scans and projections.

Each function turns a validated Scenario into a ``Table`` of named columns
that the CLI serializes; everything is deterministic given the scenario.
Every integral goes through ``_integrals``, which feeds each round's nodes to
the elementwise kernel in slices, keeping memory flat and every bit; the
scans stack its values (``_sweep``) and ``sensitivity_report`` reads them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, TWO_PI
from .errors import ScenarioError
from .spectra import (QuadraturePsds, SqueezedInput, displacement_asd,
                      input_quadrature_psds)
from .arrays import (ArrayBatch, ArrayNoise, SensorArray, array_signal_psd,
                     array_sql_psd, matched_weights)
from .oracle import oracle_noise_psd
from .sensitivity import (FrequencyGrid, integrated_sensitivity,
                          min_detectable_coupling)
from .scenario import Scenario

__all__ = [
    "Table",
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


@dataclass(frozen=True)
class Table:
    """Named columns of equal length (arrays or lists), one per quantity.

    ``len(table)`` is the row count and ``table[name]`` a column; which
    columns are written, and in what order, is ``COLUMNS``' business.
    """

    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, name: str):
        return self.columns[name]


def _single_reference(scn: Scenario) -> SensorArray:
    """The M = 1 reference: template 0 alone with unit weights, at the power
    ``build_array(1)`` gives a one-template scenario under either power
    convention, whatever the scenario's template count and weight policy."""
    return SensorArray(scn.sensors[:1], np.ones(1), np.ones(1), scn.power)


# the most kernel rows x frequencies in one ArrayNoise build of an integral
_SWEEP_CELLS = 1 << 16


def _integrals(grid: FrequencyGrid, arrays, inputs, rel_tol=None):
    """Yield one ``IntegrationResult`` per array, with one component per
    input of ``inputs``, all on one grid."""
    for arr in arrays:
        gain = float(array_signal_psd(arr, 1.0))
        # ArrayNoise's rows at most: one when one template at one weight fills
        # every slot, otherwise one per slot
        dv = arr.dividing_weights.tolist()
        one = arr.sensors.count(arr.sensors[0]) == dv.count(dv[0]) == len(dv)
        step = max(1, _SWEEP_CELLS // (1 if one else len(dv)))
        yield integrated_sensitivity(lambda w: gain, lambda w: np.concatenate(
            [ArrayNoise(arr, w[i:i + step]).totals(inputs)
             for i in range(0, w.size, step)], axis=1), grid, rel_tol)


def _sweep(grid: FrequencyGrid, arrays, inputs) -> np.ndarray:
    """(inputs, arrays): the values of ``_integrals``."""
    return np.stack([res.value for res in _integrals(grid, arrays, inputs)], axis=1)


# ---------------------------------------------------------------------------
# noise budget
# ---------------------------------------------------------------------------

def noise_budget_table(scn: Scenario, n_points: int = 481) -> Table:
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
    return Table({
        "omega_rad_s": omegas,
        "frequency_hz": omegas / TWO_PI,
        "shot": bd.shot,
        "back_action": bd.back_action,
        "correlation": bd.correlation,
        "thermal": bd.thermal,
        "residual_vacuum": bd.residual_vacuum,
        "detection_loss": bd.detection_loss,
        "total_classical": bd.total,
        "total_squeezed": sq_total,
        "sql": sql,
        "classical_limit_total": sql + thermal,
        "squeezed_limit_total": em2r * sql + thermal,
        "acc_asd_classical": np.sqrt(bd.total) / mass,
        "acc_asd_squeezed": np.sqrt(sq_total) / mass,
        "disp_asd_classical": displacement_asd(osc0, omegas, bd.total),
    })


# ---------------------------------------------------------------------------
# integrated sensitivity and scans
# ---------------------------------------------------------------------------

def sensitivity_report(scn: Scenario) -> Table:
    """Integrated sensitivity with a self-convergence check: the relative
    change when the integral is recomputed at half the tolerance on the
    bisected grid, a different node set, warns above the tolerance."""
    arr = scn.build_array()
    grid = scn.build_grid()
    quantities = [("classical", _VACUUM)]
    if scn.squeeze.r > 0:
        quantities.append(("squeezed", scn.squeeze))
    results, halves = [], []
    for _, squeeze in quantities:
        results += _integrals(grid, [arr], [squeeze])
        halves += _integrals(grid.bisected(), [arr], [squeeze], 0.5 * grid.tol)
    value = np.array([res.value[0] for res in results])
    change = np.abs([res.value[0] for res in halves] - value) / np.abs(value)
    for (name, _), rel in zip(quantities, change.tolist()):
        if rel > grid.tol:
            warnings.warn(f"the {name} integral's rel_change_half_tol {rel:.3g} "
                          f"exceeds the grid tolerance {grid.tol:g}")
    return Table({
        "quantity": [name for name, _ in quantities],
        "value": value,
        "rel_error_estimate": [res.rel_error[0] for res in results],
        "rel_change_half_tol": change,
        "n_panels": [res.n_panels for res in results],
        "n_evaluations": [res.n_evaluations for res in results],
    })


def array_scan_table(scn: Scenario) -> Table:
    """Integrated sensitivity vs sensor count: DQS, coherent, incoherent."""
    counts = np.array(scn.scan["sensor_counts"], dtype=int)
    grid = scn.build_grid()
    [[i_single]] = _sweep(grid, [_single_reference(scn)], [_VACUUM])
    i_coh, i_dqs = _sweep(grid, [scn.build_array(m) for m in counts.tolist()],
                          [_VACUUM, scn.squeeze])
    i_incoh = counts * i_single
    return Table({"n_sensors": counts, "i_dqs": i_dqs,
                  "i_classical_coherent": i_coh,
                  "i_classical_incoherent": i_incoh,
                  "dqs_over_coherent": i_dqs / i_coh,
                  "coherent_over_single": i_coh / i_single,
                  "incoherent_over_single": i_incoh / i_single})


def dm_projection_table(scn: Scenario,
                        overlays: dict[str, np.ndarray] | None = None) -> Table:
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

    # both arrays from one kernel build; the DQS column squeezes at the
    # optimal angle whatever the scenario's angle policy, and at r = 0 it is
    # the coherent column
    noise = ArrayNoise(ArrayBatch.of([arr1, arr_m]),
                       np.broadcast_to(omegas, (2, omegas.size)))
    (n1, nm), (_, ndqs) = noise.totals([_VACUUM, SqueezedInput(r, "optimal")])
    thermal_m = float(noise.thermal_psd()[1, 0])  # frequency-independent
    sql_m = array_sql_psd(arr_m, omegas)
    plan.check(dm.linewidth(omegas))

    def gmin(noise):
        return min_detectable_coupling(noise, dm, plan, omegas)

    columns = {
        "compton_rad_s": omegas,
        "compton_hz": omegas / TWO_PI,
        "gmin_single_classical": gmin(n1),
        "gmin_coherent_array": gmin(nm / gain_m),
        "gmin_incoherent_array": gmin(n1 / math.sqrt(m_count)),
        "gmin_dqs_array": gmin(ndqs / gain_m),
        "gmin_sql_array": gmin((sql_m + thermal_m) / gain_m),
        "gmin_dqs_limit": gmin((em2r * sql_m + thermal_m) / gain_m),
    }
    # pass-through curves, interpolated log-log and NaN outside their range
    for label, data in (overlays or {}).items():
        x, y = data[:, 0], data[:, 1]
        col = np.exp(np.interp(np.log(omegas), np.log(x), np.log(y)))
        col[(omegas < x.min()) | (omegas > x.max())] = math.nan
        columns[f"overlay_{label}"] = col
    return Table(columns)


def power_scan_table(scn: Scenario) -> Table:
    """Integrated sensitivity vs laser power: classical, optimal and fixed
    squeezing angle."""
    powers = scn.scan.get("powers_w")
    if powers is None:
        raise ScenarioError("power-scan needs scan.powers_w")
    r = scn.squeeze.r
    inputs = [_VACUUM, SqueezedInput(r=r, angle_policy="optimal"),
              SqueezedInput(r=r, angle_policy="fixed",
                            angle=scn.scan["fixed_angle_rad"])]
    i_cl, i_opt, i_fix = _sweep(
        scn.build_grid(), [scn.build_array(power=p) for p in powers], inputs)
    return Table({"power_w": powers, "i_classical": i_cl,
                  "i_squeezed_optimal": i_opt, "i_squeezed_fixed": i_fix})


def loss_scan_table(scn: Scenario) -> Table:
    """Integrated sensitivity vs detection loss 1 - eta^2."""
    losses = scn.scan.get("losses")
    if losses is None:
        raise ScenarioError("loss-scan needs scan.losses")
    inputs = [_VACUUM, SqueezedInput(r=scn.squeeze.r, angle_policy="optimal")]
    i_cl, i_sq = _sweep(
        scn.build_grid(),
        [scn.build_array(efficiency_sq=1.0 - loss) for loss in losses], inputs)
    return Table({"loss": losses, "efficiency_sq": 1.0 - np.array(losses),
                  "i_classical": i_cl, "i_squeezed_optimal": i_sq})


# ---------------------------------------------------------------------------
# oracle cross-check suite
# ---------------------------------------------------------------------------

# the (low, high) factor range of each of a random sensor's nine draws:
# mass, resonance, quality, temperature, kappa, kappa_readout / kappa, g0,
# eta^2 and response factor
_DRAW_LOW = (0.1, 0.1, 0.1, 0.1, 0.1, 0.5, 0.1, 0.8, 0.5)
_DRAW_HIGH = (10.0, 10.0, 10.0, 10.0, 10.0, 1.0, 10.0, 1.0, 2.0)


# configs per oracle pass: a pass holds every config at the largest sensor
# count among them, so chunks bound its memory on long suites
_ORACLE_CHUNK = 32

_LASER_OMEGA = TWO_PI * C_LIGHT / 1.06e-6


def _sensor_fields(factors):
    """Record fields (``SensorColumns.checked``'s keywords but the power) and
    response factors of random sensors, from (..., 9) uniform factors in
    ``_DRAW_LOW``..``_DRAW_HIGH``: within a decade of the membrane reference
    values, Q = omega0 / (2 gamma), at 1.06 um."""
    mass, omega0, quality, temperature, kappa, readout, g0, eta_sq, response \
        = np.moveaxis(factors, -1, 0)
    omega0 = TWO_PI * 2000.0 * omega0
    kappa = 0.94e9 * kappa
    return dict(mass=6e-6 * mass, omega0=omega0,
                gamma=omega0 / (2.0 * (1e9 * quality)),
                temperature=10e-3 * temperature, kappa=kappa,
                kappa_readout=kappa * readout, g0=46.0 * g0,
                laser_omega=_LASER_OMEGA, efficiency_sq=eta_sq), response


def _draw_chunk(rng: np.random.Generator, c: int, n_freqs: int):
    """(block, squeezing dB (c,), angles (c,), frequencies (c, n)) of c
    random configs of 1 to 4 sensors, one RNG call per quantity.

    The sensors and weights are drawn for four slots and cut to the largest
    count; the frequencies are log-uniform within two decades of each
    config's first resonance.
    """
    m = rng.integers(1, 5, c)
    factors = rng.uniform(_DRAW_LOW, _DRAW_HIGH, (c, 4, 9))
    dv = rng.uniform(0.1, 1.0, (c, 4))
    power = 2e-3 * m * rng.uniform(0.5, 2.0, c)
    db = rng.uniform(0.0, 15.0, c)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, c)
    width = int(m.max())
    fields, _ = _sensor_fields(factors[:, :width])
    omega0 = fields["omega0"][:, :1]
    omegas = np.exp(rng.uniform(np.log(omega0 / 100), np.log(omega0 * 100),
                                (c, n_freqs)))
    dv = np.where(np.arange(width) < m[:, None], dv[:, :width], 0.0)
    dv = (dv / np.linalg.norm(dv, axis=1, keepdims=True)).astype(complex)
    batch = ArrayBatch.checked(fields, dv, matched_weights(dv), power, m)
    return batch, db, theta, omegas


def oracle_check_table(n_configs: int = 200, n_freqs: int = 50,
                       seed: int = 20240817) -> Table:
    """Closed-form array noise vs covariance-propagation oracle residuals.

    Each run of up to ``_ORACLE_CHUNK`` configs, whatever their sensor
    counts, is drawn in bulk into one ``ArrayBatch``, which one
    ``ArrayNoise`` build and one oracle pass both read.
    """
    rng = np.random.default_rng(seed)
    sizes, dbs, residuals = [], [], []
    for start in range(0, n_configs, _ORACLE_CHUNK):
        batch, db, theta, omegas = _draw_chunk(
            rng, min(_ORACLE_CHUNK, n_configs - start), n_freqs)
        squeezes = [SqueezedInput.from_db(x) for x in db.tolist()]
        closed = ArrayNoise(batch, omegas).breakdown(
            [input_quadrature_psds(sq, th)
             for sq, th in zip(squeezes, theta.tolist())]).total
        orc = oracle_noise_psd(batch, omegas, squeezes, theta=theta)
        residuals += np.max(np.abs(orc - closed) / np.abs(closed), axis=1).tolist()
        sizes += batch.n_sensors.tolist()
        dbs += db.tolist()
    return Table({"config_index": list(range(n_configs)), "n_sensors": sizes,
                  "squeezing_db": dbs, "max_rel_residual": residuals})
