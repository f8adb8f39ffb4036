"""Coherent sensor-network algebra for M optomechanical force sensors.

One bright input mode (optionally squeezed) is split over the array by a
passive network whose first column carries the dividing weights w_k0; the
homodyne records are converted to per-sensor force estimates and combined
with weights W_0k.  Weights are real (arg w_k0 = 0, which every closed form
assumes; ``_real_weights``).  With hats on the coherent per-sensor amplitudes

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

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ConfigError
from .spectra import (CavityOptics, Oscillator, QuadraturePsds, SensorColumns,
                      SqueezedInput, _check, _non_negative, _positive,
                      _scalarize, mechanical_susceptibility, sensor_response)

__all__ = [
    "ArraySensor",
    "SensorArray",
    "ArrayBatch",
    "NoiseBreakdown",
    "ArrayNoise",
    "noise_peaks",
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

    The dividing weights must form one column of a real orthogonal matrix
    (sum w_k0^2 = 1); the laser power is the array's, sensor k getting w_k0^2
    of ``total_power``.  Combining weights are normalized to sum W_0k^2 = 1.
    """

    sensors: tuple[ArraySensor, ...]
    dividing_weights: np.ndarray
    combining_weights: np.ndarray
    total_power: float

    def __post_init__(self):
        m = len(self.sensors)
        if m == 0:
            raise ConfigError("array needs at least one sensor")
        dv, cw = self.dividing_weights, self.combining_weights
        if np.shape(dv) != (m,) or np.shape(cw) != (m,):
            raise ConfigError("weight vectors must have one entry per sensor")
        dv, cw = _check_weights(dv, cw, self.total_power)
        object.__setattr__(self, "dividing_weights", dv)
        object.__setattr__(self, "combining_weights", cw)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)


def _real_weights(weights, name: str) -> np.ndarray:
    """``weights`` as float64; a nonzero imaginary part, which numpy's cast
    would drop with only a warning, is a ConfigError."""
    w = np.asarray(weights)
    if np.iscomplexobj(w) and (w.imag != 0.0).any():
        raise ConfigError(f"{name} must be real (the closed forms assume arg "
                          f"w_k0 = 0), got {w[w.imag != 0].flat[0].item()!r}")
    return np.asarray(w.real, dtype=float)


def _sum_sq(w):
    """sum w^2 over the last axis, by np.sum's reduce without its wrapper."""
    return np.add.reduce(w ** 2, axis=-1)


# a dividing column is a unit vector: ``SensorArray`` and ``complete_unitary``
_DIVIDING_RULE = (lambda norm: abs(norm - 1.0) <= 1e-10, ("dividing",),
                  "dividing weights must satisfy sum |w_k0|^2 = 1")
_ARRAY_RULES = (
    _DIVIDING_RULE,
    (lambda norm: abs(norm - 1.0) <= 1e-8, ("combining",),
     "combining weights must satisfy sum |W_0k|^2 = 1"),
    (_non_negative, ("total_power",), "total power must be finite and >= 0"),
)


def _check_weights(dividing, combining, total_power):
    """The weight and power rules of ``SensorArray``, for its (M,) weights and
    total power or for (C, M) rows of weights and (C,) total powers, with
    the message for the first bad value; returns the weights as float64."""
    dividing = _real_weights(dividing, "dividing weights")
    combining = _real_weights(combining, "combining weights")
    if not (np.isfinite(dividing).all() and np.isfinite(combining).all()):
        raise ConfigError("dividing and combining weights must be finite")
    _check(_ARRAY_RULES, {"dividing": _sum_sq(dividing),
                          "combining": _sum_sq(combining),
                          "total_power": total_power})
    return dividing, combining


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

    @functools.cached_property
    def kernel_rows(self):
        """``_kernel_rows`` of the block, formed once per block."""
        return _kernel_rows(self)

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
        dividing, combining = np.zeros((2, c, m))
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
        dividing, combining = _check_weights(dividing, combining, total_power)
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
    return np.full(m, 1.0 / math.sqrt(m))


def matched_weights(dividing: np.ndarray) -> np.ndarray:
    """Combining weights matched to the dividing column (sum W w = 1): the
    normalized column, of one (m,) column or of each row of (..., m)."""
    w = _real_weights(dividing, "dividing weights")
    norm = _sum_sq(w)
    _check(((_positive, ("norm",), "a dividing column to match needs a "
             "finite, nonzero sum w^2"),), {"norm": norm})
    return w / np.sqrt(norm)[..., None]


def inverse_variance_weights(sensors, dividing, total_power, omega_ref) -> np.ndarray:
    """W_0k proportional to response/noise of each sensor at omega_ref, renormalized.

    Per-sensor noise is the vacuum-input budget at the sensor's share of the
    laser: the active sensors as one batch of one-sensor arrays, each driven
    at share * total_power, in one ``ArrayNoise`` build.  Heterogeneous-array
    heuristic; the matched policy is exact for identical sensors.
    """
    share = _real_weights(dividing, "dividing weights") ** 2
    active = np.flatnonzero(share)
    weights = np.zeros(len(sensors))
    if active.size:
        table = np.array([_parameter_row(sensors[k], total_power)
                          for k in active])
        table[:, -1] *= share[active]  # E^2 at share * total_power
        ones = np.ones((active.size, 1))
        batch = ArrayBatch(SensorColumns(table[:, None]), ones, ones,
                           np.ones(active.size, dtype=int))
        noise = ArrayNoise(batch, np.full((active.size, 1), omega_ref)
                           ).totals([SqueezedInput.vacuum()])[0, :, 0]
        weights[active] = np.array(
            [sensors[k].response_factor for k in active]) / noise
    norm = math.sqrt(float(np.sum(weights**2)))
    if norm == 0.0:
        raise ConfigError("inverse-variance weights vanished for every sensor")
    return weights / norm


def identical_array(sensor: ArraySensor, m: int, power_per_sensor: float) -> SensorArray:
    """M copies of one sensor, matched uniform weights, power held per sensor."""
    w = uniform_weights(m)
    return SensorArray(sensors=(sensor,) * m, dividing_weights=w,
                       combining_weights=matched_weights(w),
                       total_power=m * power_per_sensor)


def single_sensor_array(osc: Oscillator, cav: CavityOptics, power: float,
                        response_factor: float = 1.0) -> SensorArray:
    """One sensor driven at ``power``: the M = 1 array."""
    sensor = ArraySensor(oscillator=osc, cavity=cav, response_factor=response_factor)
    return SensorArray((sensor,), np.ones(1), np.ones(1), power)


# ---------------------------------------------------------------------------
# the array noise kernel
# ---------------------------------------------------------------------------

class ArrayNoise:
    """The noise of one array, or of a batch of arrays, from one kernel build.

    Holds the coherent amplitudes alpha and beta, one per kernel row, the
    weights ww = sum W_0k w_k0 and wabs2 = sum |W_0k|^2 that each row
    carries, and the coherent sums A = sum alpha ww and B = sum beta ww;
    ``floor``, ``breakdown`` and ``totals`` all read them, so a table that
    needs several noise quantities of one array builds it once.  ``totals``
    has one formula, the squeezed one, with vacuum its r = 0 case.  The
    kernel reads only the ``ArrayBatch`` block of its arrays, whose rows it
    forms once per block (``ArrayBatch.kernel_rows``).

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
        cols, share, ww, wabs2 = batch.kernel_rows
        alpha, beta, thermal, loss_weight, _ = _row_fields(cols, share,
                                                           w[:, None])
        fields = (alpha, beta, ww[..., None], wabs2[..., None], thermal,
                  loss_weight)
        if single:
            fields = [f[0] for f in fields]
        self.omega = omega
        (self.alpha, self.beta, self.ww, self.wabs2, self.thermal,
         self.loss_weight) = fields
        self.a = _row_sum(self.alpha * self.ww)
        self.b = _row_sum(self.beta * self.ww)

    def floor(self):
        """The input-independent parts: thermal, residual vacuum, detection loss."""
        alpha2 = np.abs(self.alpha) ** 2
        thermal = _row_sum(self.wabs2 * self.thermal)
        diag = _row_sum(self.wabs2 * (alpha2 + np.abs(self.beta) ** 2))
        return (np.broadcast_to(thermal, self.a.shape).copy(),
                0.5 * (diag - np.abs(self.a) ** 2 - np.abs(self.b) ** 2),
                _row_sum(self.wabs2 * self.loss_weight * 0.5 * alpha2))

    def breakdown(self, inp) -> NoiseBreakdown:
        """Combined force-noise PSD for arbitrary mode-0 quadrature statistics:
        one QuadraturePsds, or for a batch one shared or one per array."""
        if isinstance(inp, QuadraturePsds):
            syy, sxx, sxy = inp.syy, inp.sxx, inp.sxy
        else:
            inp = list(inp)
            if self.a.ndim != 2 or len(inp) != self.a.shape[0]:
                raise ConfigError("a batch needs one QuadraturePsds per array")
            syy, sxx, sxy = np.array([(p.syy, p.sxx, p.sxy)
                                      for p in inp]).T[:, :, None]
        parts = (np.abs(self.a) ** 2 * syy, np.abs(self.b) ** 2 * sxx,
                 2.0 * np.real(np.conj(self.a) * self.b) * sxy) + self.floor()
        return NoiseBreakdown(*(_scalarize(p, self.omega)
                                for p in (*parts, _total(parts))))

    def totals(self, inputs) -> np.ndarray:
        """Total noise under each SqueezedInput of ``inputs``, (k, n), or
        (k, C, n) for a batch.

        An input of squeezing r at angle t adds |A cos t - B sin t|^2 e^{-2r}/2
        and |A sin t + B cos t|^2 e^{+2r}/2 to the floor, which equals the
        breakdown under input_quadrature_psds(r, t).  Vacuum is r = 0, taken
        at t = 0 whatever the input's policy, where the sum keeps the bits of
        ``breakdown(vacuum).total``; at r > 0, t is the optimal angle for the
        "optimal" policy and the input's own angle otherwise.
        """
        floor = self.floor()
        a, b = self.a, self.b
        totals = []
        for sq in inputs:
            th = (0.0 if sq.r == 0.0 else _optimal_angle(a, b)
                  if sq.angle_policy == "optimal" else sq.angle)
            c, s = np.cos(th), np.sin(th)
            parts = (0.5 * np.abs(a * c - b * s) ** 2 * math.exp(-2.0 * sq.r),
                     0.5 * np.abs(a * s + b * c) ** 2 * math.exp(2.0 * sq.r))
            totals.append(_total(parts + floor))
        return np.stack(totals)


def _kernel_rows(batch: ArrayBatch):
    """The kernel rows of a batch, as ``ArrayNoise`` describes them: their
    (C, G, 1) ``SensorColumns`` and shares |w_k0|^2, and the (C, G) weights
    ww and wabs2 that each row carries."""
    on = batch.combining != 0.0
    if not on.any(axis=1).all():
        raise ConfigError("all combining weights vanish")
    rows = np.concatenate(
        [batch.cols.table, batch.dividing[..., None] ** 2], axis=-1)
    # each array's first active (parameter row, share), and whether every
    # active slot of the array has it
    first = rows[np.arange(len(batch)), on.argmax(axis=1)][:, None]
    same = ((rows == first) | ~on[..., None]).all(axis=(1, 2))
    ww = batch.combining * batch.dividing
    wabs2 = batch.combining ** 2
    if same.all():
        rows = first
        # copies, so that the block's rows do not pin (C, M) cumsums
        ww, wabs2 = (x.cumsum(axis=1)[:, -1:].copy() for x in (ww, wabs2))
    else:
        rows = np.where(on[..., None], rows, first)
        for x in (ww, wabs2):
            x[same, 0] = x[same].cumsum(axis=1)[:, -1]
            x[same, 1:] = 0.0
    return SensorColumns(rows[..., :-1]), rows[..., -1:], ww, wabs2


def _row_fields(cols: SensorColumns, share, w):
    """Each kernel row's coherent amplitudes alpha and beta at frequencies
    ``w``, its thermal PSD and detection-loss weight, and the half phase
    e^{i phi_w/2} of its response."""
    chi, cmag, half = sensor_response(cols, w, share)
    hmo = HBAR * cols.mass * cols.omega0
    return (half / (2.0 * chi) * np.sqrt(hmo / (2.0 * cols.gamma * cmag)),
            2.0 * half * np.sqrt(2.0 * hmo * cols.gamma * cmag),
            4.0 * cols.mass * cols.gamma * K_B * cols.temperature,
            (1.0 - cols.efficiency_sq) / cols.efficiency_sq, half)


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
# where the integrand peaks
# ---------------------------------------------------------------------------

_ZERO_AND_ONE = np.array([0.0, 1.0])

# Leading coefficients below this share of the largest are dropped before
# the roots are taken: their zeros lie beyond 1e100 times the scale.
_NEGLIGIBLE = 1e-200


def noise_peaks(blocks):
    """For each (one-array ``ArrayBatch``, inputs) pair of ``blocks``, where
    the array's integrand (gain/S)^2 peaks under the inputs: a tuple of
    (centre, half width) pairs, the zeros p = centre + i half width of its
    noise numerators (``_numerators``) with both parts positive.  A
    numerator that is not finite, or whose arithmetic overflows or divides
    by zero, has no zeros.
    """
    peaks = [[] for _ in blocks]
    with np.errstate(all="ignore"):
        scale, numerators = _numerators(blocks)
        # the zeros of every numerator of one degree from one call
        by_degree = {}
        for k, block in enumerate(numerators):
            for n in block:
                big = max(map(abs, n))
                if not (all(map(math.isfinite, n)) and big > 0.0):
                    continue
                while abs(n[-1]) <= _NEGLIGIBLE * big:
                    n.pop()
                if len(n) > 1:
                    by_degree.setdefault(len(n), []).append((k, _companion(n)))
        for group in by_degree.values():
            owners, matrices = zip(*group)
            zeros = np.linalg.eigvals(np.array(matrices))
            for k, row in zip(owners, zeros.tolist()):
                for y in row:
                    p = scale * cmath.sqrt(y)
                    if 0.0 < p.imag < math.inf and abs(p.real) < math.inf:
                        centre, width = _quantized(p)
                        if centre > 0.0:
                            peaks[k].append((centre, width))
    return [tuple(p) for p in peaks]


def _quantized(p):
    """(centre, half width) of a zero p, both to the multiple of a power of
    two between 1/2048 and 1/1024 of the width nearest them, so that arrays
    that differ only by rounding share peaks."""
    q = math.ldexp(1.0, math.frexp(p.imag)[1] - 11)
    return (p.real - math.remainder(p.real, q),
            p.imag - math.remainder(p.imag, q))


def _numerators(blocks):
    """(scale, numerators) of the (one-array ``ArrayBatch``, inputs) pairs
    of ``blocks``: for each block, the ascending coefficients in
    (omega/scale)^2 of its noise numerators, those of the vacuum, when an
    input is vacuum or at the optimal angle, and of each fixed angle.

    A numerator is N = S prod_j (1 + sigma_j^2 omega^2), sigma_j over the
    block's distinct 2/kappa.  With z = i omega, a kernel row's alpha is
    alpha(0) (1 + sigma z) D/omega0^2, D = omega0^2 - 2 gamma z + z^2 the
    susceptibility's denominator, and its beta is beta(0)/(1 - sigma z), so
    N is a real polynomial in y = omega^2 for the vacuum total and for a
    fixed-angle total (``ArrayNoise.totals``); the optimal angle's noise is
    not a rational function.  The row constants come from one kernel call
    at omega = 0 and 1 over every block's rows, after its checks.
    """
    rows = [batch.kernel_rows for batch, _ in blocks]
    cols = SensorColumns(np.concatenate([c.table[0] for c, *_ in rows]))
    alpha, beta, thermal, loss_weight, half = _row_fields(
        cols, np.concatenate([s[0] for _, s, *_ in rows]), _ZERO_AND_ONE)
    # omega0, gamma, e^{i phi/2} at omega = 1, alpha(0), beta(0), loss
    # weight and thermal PSD of each row, with its ww and wabs2
    fields = [(t[1], t[2], h1, a0.real, b0.real, loss, th)
              for t, (a0, _), (b0, _), (_, h1), (loss,), (th,) in zip(
                  cols.table.tolist(), alpha.tolist(), beta.tolist(),
                  half.tolist(), loss_weight.tolist(), thermal.tolist())]
    weights = [p for _, _, ww, w2 in rows
               for p in zip(ww[0].tolist(), w2[0].tolist())]
    # in x = omega/scale, where the coefficients stay near 1
    scale = fields[0][0]
    numerators, stop = [], 0
    for (_, _, ww, _), (_, inputs) in zip(rows, blocks):
        start, stop = stop, stop + ww.shape[1]
        try:
            numerators.append(_block_numerators(
                scale, fields[start:stop], weights[start:stop], inputs))
        except ArithmeticError:  # a zero divisor or an overflow: no zeros
            numerators.append([])
    return scale, numerators


def _block_numerators(scale, fields, weights, inputs):
    """One block's numerators for ``_numerators``, from each kernel row's
    fields and (ww, wabs2) weights."""
    inner = [0.0] * 4  # thermal and |alpha|^2 terms, before prod_j (1 + ...)
    coherent = [0.0] * 4  # A, before prod_j (1 - sigma_j z)
    by_rate = {}  # sigma: (|beta|^2 terms, B's share)
    for (omega0, gamma, h1, alpha0, b, loss, thermal), (w, w2) in zip(
            fields, weights):
        # in x: o2 = (omega0/scale)^2, g2 = 2 gamma/scale, sigma = u at x = 1
        # (tan phi/2 at omega = 1) and a = alpha(0)/o2, so
        # alpha = a (1 + sigma z)(o2 - g2 z + z^2) and
        # |alpha|^2 = a^2 (1 + sigma^2 y) |D|^2(y)
        o2 = omega0 / scale * (omega0 / scale)
        g2, sigma = 2.0 * gamma / scale, h1.imag / h1.real * scale
        a = alpha0 / o2
        s2, m1 = sigma * sigma, g2 * g2 - 2.0 * o2
        wa = 0.5 * w2 * (1.0 + loss) * a * a
        for k, (x, y) in enumerate(zip(
                (o2 * o2, m1 + s2 * o2 * o2, 1.0 + s2 * m1, s2),
                (o2, sigma * o2 - g2, 1.0 - sigma * g2, sigma))):
            inner[k] += wa * x
            coherent[k] += w * a * y
        inner[0] += w2 * thermal
        beta_sq, b_share = by_rate.get(sigma, (0.0, 0.0))
        by_rate[sigma] = (beta_sq + 0.5 * w2 * b * b, b_share + w * b)
    # prod (1 - sigma_j z) over the rates, and over all rates but one
    p_all = _product(by_rate)
    p_but = {r: _product([q for q in by_rate if q != r]) for r in by_rate}
    vacuum = _mul(_square(p_all), inner)
    for r, (beta_sq, _) in by_rate.items():
        for k, x in enumerate(_square(p_but[r])):
            vacuum[k] += beta_sq * x
    numerators = []
    if any(sq.r == 0.0 or sq.angle_policy == "optimal" for sq in inputs):
        numerators.append(vacuum)
    fixed = dict.fromkeys((sq.r, sq.angle) for sq in inputs
                          if sq.r > 0.0 and sq.angle_policy == "fixed")
    if fixed:
        q_a, q_b = _mul(p_all, coherent), [0.0] * len(vacuum)
        for r, (_, b_share) in by_rate.items():
            for k, x in enumerate(p_but[r]):
                q_b[k] += b_share * x
    for r, angle in fixed:
        # a fixed angle t adds |A cos t - B sin t|^2 (e^-2r - 1)/2 and
        # |A sin t + B cos t|^2 (e^2r - 1)/2
        c, s = math.cos(angle), math.sin(angle)
        w_minus, w_plus = 0.5 * math.expm1(-2.0 * r), 0.5 * math.expm1(2.0 * r)
        f = _square([c * x - s * y for x, y in zip(q_a, q_b)])
        g = _square([s * x + c * y for x, y in zip(q_a, q_b)])
        numerators.append([v + w_minus * x + w_plus * y
                           for v, x, y in zip(vacuum, f, g)])
    return numerators


def _mul(p, q):
    """The product of two polynomials, as lists of ascending coefficients."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _product(rates):
    """Ascending coefficients of prod (1 - r z) over ``rates``."""
    p = [1.0]
    for r in rates:
        p = _mul(p, [1.0, -r])
    return p


def _square(q):
    """Ascending coefficients in y = -z^2 of q(z) q(-z), for the ascending
    coefficients of a real polynomial q: |q(i omega)|^2 at y = omega^2."""
    product = _mul(q, [x if k % 2 == 0 else -x for k, x in enumerate(q)])
    return [x if k % 2 == 0 else -x for k, x in enumerate(product[0::2])]


def _companion(n):
    """The companion matrix of ascending coefficients ``n`` (n[-1] != 0), as
    nested lists, whose eigenvalues are the polynomial's zeros."""
    d = len(n) - 1
    return [[float(j == i - 1) for j in range(d - 1)] + [-n[i] / n[-1]]
            for i in range(d)]


# ---------------------------------------------------------------------------
# signal and noise
# ---------------------------------------------------------------------------

def array_signal_psd(arr: SensorArray) -> float:
    """Signal gain of the combined estimator, |sum_n W_0n M_n|^2: its signal
    PSD per unit drive PSD."""
    resp = np.array([s.response_factor for s in arr.sensors])
    return float(np.sum(arr.combining_weights * resp) ** 2)


def array_noise_psd(arr: SensorArray, inp: QuadraturePsds, omega) -> NoiseBreakdown:
    """``ArrayNoise(arr, omega).breakdown(inp)``."""
    return ArrayNoise(arr, omega).breakdown(inp)


def optimal_squeezing_angle(arr, omega):
    """Squeezing angle minimizing the anti-squeezed (e^{+2r}) coefficient,
    of one array or of a batch (``ArrayNoise``'s ``arr`` and ``omega``).

    The minimized quantity is |A sin t + B cos t|^2; the exact minimizer
    is t* = atan2(-2 Re[A conj(B)], |A|^2 - |B|^2) / 2 in (-pi/2, pi/2],
    which reduces to tan t* = -8 gamma |C| chi for a single high-Q sensor
    below resonance.  On resonance (A perpendicular to B, |B| > |A|) this
    returns -pi/2; far above resonance it tends to 0 through positive
    angles.
    """
    noise = ArrayNoise(arr, omega)
    return _scalarize(_optimal_angle(noise.a, noise.b), omega)


def array_sql_psd(arr: SensorArray, omega):
    """Weighted-average standard quantum limit, sum_k |W_0k|^2 hbar m_k O_k/|chi_k|."""
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    wk = arr.combining_weights ** 2
    active = np.flatnonzero(wk)
    cols = ArrayBatch.of([arr]).cols[0, active]
    chi = mechanical_susceptibility(cols, w)
    terms = wk[active, None] * HBAR * cols.mass * cols.omega0 / np.abs(chi)
    # row by row: np.sum pairs the rows up when there is a single frequency
    return _scalarize(_total(terms), omega)
