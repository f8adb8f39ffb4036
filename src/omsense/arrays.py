"""Coherent sensor-network algebra for M optomechanical force sensors.

One bright input mode (optionally squeezed) is split over the array by a
passive network whose first column carries the dividing weights w_k0; the
homodyne records are converted to per-sensor force estimates and combined
with weights W_0k.  With hats on the coherent per-sensor amplitudes

    alpha_k = e^{i phi_k/2}/(2 chi_k) sqrt(hbar m_k Omega_k / (2 gamma_k |C'_k|))
    beta_k  = 2 e^{i phi_k/2} sqrt(2 hbar m_k Omega_k gamma_k |C'_k|)

(where C'_k = |w_k0|^2 C_k is the cooperativity at the sensor's share of the
total laser power), the combined force-noise PSD is

    |sum_k alpha_k W_0k w_k0|^2 Syy  +  |sum_k beta_k W_0k w_k0|^2 Sxx
    + 2 Re[conj(sum alpha W w) (sum beta W w)] Sxy
    + sum_k |W_0k|^2 4 m_k gamma_k K_B T_k
    + residual vacuum of the M-1 idle ports
    + detection-loss terms.

The residual vacuum term is the gap between the weighted incoherent optical
noise and the coherent sums; it vanishes identically for identical sensors
with matched weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ConfigError
from .spectra import (CavityOptics, Oscillator, QuadraturePsds, SensorColumns,
                      SqueezedInput, _check, _non_negative, _scalarize,
                      mechanical_susceptibility, sensor_response)

__all__ = [
    "ArraySensor",
    "SensorArray",
    "ArrayBatch",
    "NoiseBreakdown",
    "ArrayNoise",
    "uniform_weights",
    "matched_weights",
    "inverse_variance_weights",
    "identical_array",
    "single_sensor_array",
    "array_signal_psd",
    "array_noise_psd",
    "optimal_squeezing_angle",
    "array_sql_psd",
]

@dataclass(frozen=True)
class ArraySensor:
    """One network node: mechanics, cavity optics and its signal response.

    ``response_factor`` is the sensor's force response per unit common drive
    (the material/geometry factor for a dark-matter drive).
    """

    oscillator: Oscillator
    cavity: CavityOptics
    response_factor: float = 1.0


@dataclass(frozen=True, eq=False)
class SensorArray:
    """M sensors plus dividing weights w, combining weights W and total power.

    The dividing weights must form one column of a unitary (sum |w_k0|^2 = 1);
    per-sensor circulating power scales as |w_k0|^2 of ``total_power``.
    Combining weights are normalized to sum |W_0k|^2 = 1.
    """

    sensors: tuple[ArraySensor, ...]
    dividing_weights: np.ndarray
    combining_weights: np.ndarray
    total_power: float

    def __post_init__(self):
        object.__setattr__(self, "dividing_weights",
                           np.asarray(self.dividing_weights, dtype=complex))
        object.__setattr__(self, "combining_weights",
                           np.asarray(self.combining_weights, dtype=complex))
        m = len(self.sensors)
        if m == 0:
            raise ConfigError("array needs at least one sensor")
        if self.dividing_weights.shape != (m,) or self.combining_weights.shape != (m,):
            raise ConfigError("weight vectors must have one entry per sensor")
        _check_weights(self.dividing_weights, self.combining_weights,
                       self.total_power)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)


def _check_weights(dividing, combining, total_power):
    """The weight and power rules of ``SensorArray``, for its (M,) weights and
    total power or for (C, M) rows of weights and (C,) total powers, with
    the message for the first bad value."""
    if not (np.isfinite(dividing).all() and np.isfinite(combining).all()):
        raise ConfigError("dividing and combining weights must be finite")
    for w, name, tol in ((dividing, "dividing weights must satisfy "
                                    "sum |w_k0|^2 = 1", 1e-10),
                         (combining, "combining weights must satisfy "
                                     "sum |W_0k|^2 = 1", 1e-8)):
        # np.sum's sum, without the wrapper that costs a record more than it
        norm = np.add.reduce(np.abs(w) ** 2, axis=-1)
        bad = abs(norm - 1.0) > tol
        if bad.any():
            raise ConfigError(f"{name}, got {norm[bad].ravel()[0].item()!r}")
    _check(((_non_negative, ("total_power",),
             "total power must be finite and >= 0"),),
           {"total_power": total_power})


@dataclass(frozen=True, eq=False)
class ArrayBatch:
    """C arrays padded to M sensors: the parameter block that ``ArrayNoise``
    and the oracle read.

    ``cols`` holds each slot's sensor parameters as (C, M, 1) columns, with
    E^2 at its array's total power; ``dividing`` and ``combining`` are the
    (C, M) weights, zero in the padded slots; ``n_sensors`` holds the (C,)
    sensor counts.  A padded slot holds a valid sensor's parameters (``of``
    repeats the array's first), so every column is finite, and its zero
    weights keep it out of every sum.
    """

    cols: SensorColumns
    dividing: np.ndarray
    combining: np.ndarray
    n_sensors: np.ndarray

    def __len__(self) -> int:
        return len(self.n_sensors)

    @classmethod
    def of(cls, arrays) -> "ArrayBatch":
        """The block of validated arrays, each distinct sensor record of an
        array read once (``build_array`` repeats one template up to 128
        times); nothing is validated again."""
        arrays = list(arrays)
        counts = [a.n_sensors for a in arrays]
        c, m = len(arrays), max(counts, default=0)
        # each distinct (sensor record, array) once, and every slot's row of
        # them: a padded slot takes its array's first
        rows, slot_rows = [], []
        dividing, combining = np.zeros((2, c, m), dtype=complex)
        for i, a in enumerate(arrays):
            seen: dict[int, int] = {}
            for s in a.sensors:
                if id(s) not in seen:
                    seen[id(s)] = len(rows)
                    rows.append(_parameter_row(s, a.total_power))
            first = len(slot_rows)
            slot_rows += [seen[id(s)] for s in a.sensors]
            slot_rows += slot_rows[first:first + 1] * (m - a.n_sensors)
            dividing[i, :a.n_sensors] = a.dividing_weights
            combining[i, :a.n_sensors] = a.combining_weights
        table = np.array(rows).reshape(-1, 8)[np.array(slot_rows, dtype=int)]
        return cls(SensorColumns(table.reshape(c, m, 8)), dividing, combining,
                   np.array(counts, dtype=int))

    @classmethod
    def checked(cls, sensor_fields, dividing, combining, total_power,
                n_sensors) -> "ArrayBatch":
        """The block of (C, M) record fields (``SensorColumns.checked``'s
        keywords but ``input_power``), weights and (C,) total powers,
        rejected where the records and ``SensorArray`` would reject them."""
        cols = SensorColumns.checked(
            **sensor_fields, input_power=np.asarray(total_power)[:, None])
        _check_weights(dividing, combining, total_power)
        return cls(cols, dividing, combining, np.asarray(n_sensors))


def _parameter_row(sensor: ArraySensor, total_power: float) -> tuple:
    """A sensor's ``SensorColumns`` row, E^2 at ``total_power``."""
    osc, cav = sensor.oscillator, sensor.cavity
    return (osc.mass, osc.omega0, osc.gamma, osc.temperature, cav.kappa,
            cav.g0, cav.efficiency_sq, cav.intracavity_flux_at(total_power))


def _as_batch(arr, omega):
    """(block, omega of shape (C, n), single) of one array or of a block;
    one array is a batch of one."""
    if isinstance(arr, SensorArray):
        return (ArrayBatch.of([arr]),
                np.atleast_1d(np.asarray(omega, dtype=float))[None], True)
    if not isinstance(arr, ArrayBatch):
        raise ConfigError("expected a SensorArray or an ArrayBatch, got "
                          f"{type(arr).__name__}")
    w = np.asarray(omega, dtype=float)
    if not len(arr) or w.ndim != 2 or w.shape[0] != len(arr):
        raise ConfigError("a batch of C arrays needs omega of shape (C, n)")
    return arr, w, False


@dataclass(frozen=True)
class NoiseBreakdown:
    """Combined force-noise PSD split into its physical contributions (N^2/Hz)."""

    shot: np.ndarray
    back_action: np.ndarray
    correlation: np.ndarray
    thermal: np.ndarray
    residual_vacuum: np.ndarray
    detection_loss: np.ndarray
    total: np.ndarray


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def uniform_weights(m: int) -> np.ndarray:
    return np.full(m, 1.0 / math.sqrt(m), dtype=complex)


def matched_weights(dividing: np.ndarray) -> np.ndarray:
    """Combining weights conjugate to the dividing column (sum W* w = 1):
    of one (m,) column, or of each row of (..., m)."""
    w = np.asarray(dividing, dtype=complex)
    return np.conj(w) / np.sqrt(np.sum(np.abs(w) ** 2, axis=-1, keepdims=True))


def inverse_variance_weights(sensors, dividing, total_power, omega_ref) -> np.ndarray:
    """W_0k proportional to response/noise of each sensor at omega_ref, renormalized.

    Per-sensor noise is the vacuum-input budget at the sensor's share of the
    laser: the active sensors as one batch of one-sensor arrays, each driven
    at share * total_power, in one ``ArrayNoise`` build.  Heterogeneous-array
    heuristic; the matched policy is exact for identical sensors.
    """
    share = np.abs(np.asarray(dividing, dtype=complex)) ** 2
    active = np.flatnonzero(share)
    weights = np.zeros(len(sensors))
    if active.size:
        table = np.array([_parameter_row(sensors[k], total_power)
                          for k in active])
        table[:, -1] *= share[active]  # E^2 at share * total_power
        ones = np.ones((active.size, 1), dtype=complex)
        batch = ArrayBatch(SensorColumns(table[:, None]), ones, ones,
                           np.ones(active.size, dtype=int))
        noise = ArrayNoise(batch, np.full((active.size, 1), omega_ref)
                           ).totals([SqueezedInput.vacuum()])[0, :, 0]
        weights[active] = np.array(
            [sensors[k].response_factor for k in active]) / noise
    norm = math.sqrt(float(np.sum(weights**2)))
    if norm == 0.0:
        raise ConfigError("inverse-variance weights vanished for every sensor")
    return (weights / norm).astype(complex)


def identical_array(sensor: ArraySensor, m: int, power_per_sensor: float) -> SensorArray:
    """M copies of one sensor, matched uniform weights, power held per sensor."""
    w = uniform_weights(m)
    return SensorArray(sensors=(sensor,) * m, dividing_weights=w,
                       combining_weights=matched_weights(w),
                       total_power=m * power_per_sensor)


def single_sensor_array(osc: Oscillator, cav: CavityOptics,
                        response_factor: float = 1.0) -> SensorArray:
    sensor = ArraySensor(oscillator=osc, cavity=cav, response_factor=response_factor)
    return SensorArray(sensors=(sensor,), dividing_weights=np.ones(1, complex),
                       combining_weights=np.ones(1, complex),
                       total_power=cav.input_power)


# ---------------------------------------------------------------------------
# the array noise kernel
# ---------------------------------------------------------------------------

_VACUUM_PSDS = QuadraturePsds.vacuum()


class ArrayNoise:
    """The noise of one array, or of a batch of arrays, from one kernel build.

    Holds the coherent amplitudes alpha and beta, one per kernel row, the
    weights ww = sum W_0k w_k0 and wabs2 = sum |W_0k|^2 that each row
    carries, and the coherent sums A = sum alpha ww and B = sum beta ww;
    ``breakdown``, ``totals`` and ``optimal_angle`` all read them, so a table
    that needs several noise quantities of one array builds it once.  The
    kernel reads only the ``ArrayBatch`` block of its arrays.

    The library builds arrays of two shapes: M copies of one template (every
    scan, the paper's sqrt(M) -> M scaling) and arrays of distinct sensors
    (``oracle-check``, the robustness claim).  An array whose active
    (W != 0) sensors all have one parameter row and one share |w_k0|^2 is
    one kernel row, its weights summed slot by slot in order; any other
    array is one row per slot, an idle or padded slot repeating the array's
    first active row with zero weights.

    ``arr`` is a ``SensorArray``, or an ``ArrayBatch`` of C arrays with
    ``omega`` of shape (C, n), one frequency row per array.  Every row of a
    batch goes through one response call as (C, G, n) blocks: G = 1 when
    every array is one row, otherwise G = M and a one-row array keeps its
    sums in its first row and zeros after it.  Rows are summed in order, so
    zero rows add exact zeros and each array gets the bits of its own build.
    Every quantity carries the leading batch axis, ``totals`` is (k, C, n)
    and ``breakdown`` takes one QuadraturePsds per array (or one for all).
    One array is a batch of one with that axis dropped.
    """

    __slots__ = ("omega", "alpha", "beta", "ww", "wabs2", "thermal",
                 "loss_weight", "a", "b")

    def __init__(self, arr, omega):
        batch, w, single = _as_batch(arr, omega)
        on = batch.combining != 0.0
        if not on.any(axis=1).all():
            raise ConfigError("all combining weights vanish")
        rows = np.concatenate(
            [batch.cols.table, np.abs(batch.dividing[..., None]) ** 2], axis=-1)
        # each array's first active (parameter row, share), and whether every
        # active slot of the array has it
        first = rows[np.arange(len(batch)), on.argmax(axis=1)][:, None]
        same = ((rows == first) | ~on[..., None]).all(axis=(1, 2))
        ww = batch.combining * batch.dividing
        wabs2 = np.abs(batch.combining) ** 2
        if same.all():
            rows = first
            ww, wabs2 = ww.cumsum(axis=1)[:, -1:], wabs2.cumsum(axis=1)[:, -1:]
        else:
            rows = np.where(on[..., None], rows, first)
            for x in (ww, wabs2):
                x[same, 0] = x[same].cumsum(axis=1)[:, -1]
                x[same, 1:] = 0.0

        cols = SensorColumns(rows[..., :-1])
        chi, cmag, half = sensor_response(cols, cols, w[:, None], rows[..., -1:])
        hmo = HBAR * cols.mass * cols.omega0
        fields = (half / (2.0 * chi) * np.sqrt(hmo / (2.0 * cols.gamma * cmag)),
                  2.0 * half * np.sqrt(2.0 * hmo * cols.gamma * cmag),
                  ww[..., None], wabs2[..., None],
                  4.0 * cols.mass * cols.gamma * K_B * cols.temperature,
                  (1.0 - cols.efficiency_sq) / cols.efficiency_sq)
        if single:
            fields = [f[0] for f in fields]
        self.omega = omega
        (self.alpha, self.beta, self.ww, self.wabs2, self.thermal,
         self.loss_weight) = fields
        self.a = _row_sum(self.alpha * self.ww)
        self.b = _row_sum(self.beta * self.ww)

    def thermal_psd(self):
        flat = _row_sum(self.wabs2 * self.thermal)
        return np.broadcast_to(flat, self.a.shape).copy()

    def residual_expanded(self):
        diag = _row_sum(self.wabs2 * (np.abs(self.alpha) ** 2
                                        + np.abs(self.beta) ** 2))
        return 0.5 * (diag - np.abs(self.a) ** 2 - np.abs(self.b) ** 2)

    def detection_loss_psd(self):
        return _row_sum(self.wabs2 * self.loss_weight * 0.5
                          * np.abs(self.alpha) ** 2)

    def floor(self):
        """The input-independent parts: thermal, residual vacuum, detection loss."""
        return self.thermal_psd(), self.residual_expanded(), self.detection_loss_psd()

    def _quadrature_parts(self, inp):
        """Shot, back-action and correlation PSDs for mode-0 quadrature PSDs:
        one QuadraturePsds, or for a batch one per array as (C, 1) columns."""
        if isinstance(inp, QuadraturePsds):
            syy, sxx, sxy = inp.syy, inp.sxx, inp.sxy
        else:
            inp = list(inp)
            if self.a.ndim != 2 or len(inp) != self.a.shape[0]:
                raise ConfigError("a batch needs one QuadraturePsds per array")
            syy, sxx, sxy = np.array([(p.syy, p.sxx, p.sxy)
                                      for p in inp]).T[:, :, None]
        return (np.abs(self.a) ** 2 * syy, np.abs(self.b) ** 2 * sxx,
                2.0 * np.real(np.conj(self.a) * self.b) * sxy)

    def breakdown(self, inp) -> NoiseBreakdown:
        """Combined force-noise PSD for arbitrary mode-0 quadrature statistics
        (for a batch, one QuadraturePsds shared or one per array)."""
        parts = self._quadrature_parts(inp) + self.floor()
        return NoiseBreakdown(*(_scalarize(p, self.omega)
                                for p in (*parts, _total(parts))))

    def totals(self, inputs) -> np.ndarray:
        """Total noise under each SqueezedInput of ``inputs``, (k, n), or
        (k, C, n) for a batch.

        r = 0 gives the vacuum total, equal to ``breakdown(vacuum).total``.
        A squeezed input at angle t (its own, or the optimal angle for the
        "optimal" policy) adds |A cos t - B sin t|^2 e^{-2r} / 2 and
        |A sin t + B cos t|^2 e^{+2r} / 2 to the floor, which equals the
        breakdown under input_quadrature_psds(r, t).
        """
        floor = self.floor()
        a, b = self.a, self.b
        totals = []
        for sq in inputs:
            if sq.r == 0.0:
                parts = self._quadrature_parts(_VACUUM_PSDS)
            else:
                th = (_optimal_angle(a, b) if sq.angle_policy == "optimal"
                      else sq.angle)
                c, s = np.cos(th), np.sin(th)
                parts = (0.5 * np.abs(a * c - b * s) ** 2 * math.exp(-2.0 * sq.r),
                         0.5 * np.abs(a * s + b * c) ** 2 * math.exp(2.0 * sq.r))
            totals.append(_total(parts + floor))
        return np.stack(totals)

    def optimal_angle(self):
        """Squeezing angle minimizing the anti-squeezed (e^{+2r}) coefficient.

        The minimized quantity is |A sin t + B cos t|^2; the exact minimizer
        is t* = atan2(-2 Re[A conj(B)], |A|^2 - |B|^2) / 2 in (-pi/2, pi/2],
        which reduces to tan t* = -8 gamma |C| chi for a single high-Q sensor
        below resonance.  On resonance (A perpendicular to B, |B| > |A|) this
        returns -pi/2; far above resonance it tends to 0 through positive
        angles.
        """
        return _scalarize(_optimal_angle(self.a, self.b), self.omega)


def _total(parts):
    """The parts summed left to right, so every caller rounds alike."""
    return sum(parts[1:], parts[0])


def _row_sum(x):
    """``x`` summed over its kernel-row axis (-2) in order: np.sum pairs the
    rows up when there is a single frequency."""
    return _total([x[..., g, :] for g in range(x.shape[-2])])


def _optimal_angle(a, b):
    q = np.abs(b) ** 2 - np.abs(a) ** 2
    rr = 2.0 * np.real(a * np.conj(b))
    theta = 0.5 * np.arctan2(-rr, -q)
    # +pi/2 and -pi/2 label the same squeezed state; use the negative branch.
    return np.where(theta > math.pi / 2 - 1e-15, -math.pi / 2, theta)


# ---------------------------------------------------------------------------
# signal and noise
# ---------------------------------------------------------------------------

def array_signal_psd(arr: SensorArray, drive_amplitude):
    """Signal PSD of the combined estimator, |sum_n W_0n M_n|^2 f^2 (N^2/Hz)."""
    resp = np.array([s.response_factor for s in arr.sensors])
    gain = np.abs(np.sum(arr.combining_weights * resp)) ** 2
    return gain * np.asarray(drive_amplitude) ** 2


def array_noise_psd(arr: SensorArray, inp: QuadraturePsds, omega) -> NoiseBreakdown:
    """``ArrayNoise(arr, omega).breakdown(inp)``."""
    return ArrayNoise(arr, omega).breakdown(inp)


def optimal_squeezing_angle(arr: SensorArray, omega):
    """``ArrayNoise(arr, omega).optimal_angle()``."""
    return ArrayNoise(arr, omega).optimal_angle()


def array_sql_psd(arr: SensorArray, omega):
    """Weighted-average standard quantum limit, sum_k |W_0k|^2 hbar m_k O_k/|chi_k|."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    wk = np.abs(arr.combining_weights) ** 2
    active = np.flatnonzero(wk)
    cols = ArrayBatch.of([arr]).cols[0, active]
    chi = mechanical_susceptibility(cols, w)
    terms = wk[active, None] * HBAR * cols.mass * cols.omega0 / np.abs(chi)
    # row by row: np.sum pairs the rows up when there is a single frequency
    return _scalarize(_total(terms), omega)
