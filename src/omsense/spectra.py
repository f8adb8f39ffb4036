"""Single-sensor frequency-domain noise physics.

Everything here is expressed in angular frequency (rad/s) and SI units.
Force spectral densities are symmetrized, one-sided quantities in N^2/Hz.

One table of rules defines a valid sensor, for the records and for a
``SensorColumns`` block alike.  The force-noise budget below is implemented
once, by ``arrays.ArrayNoise``; a single sensor is its M = 1 case.

Core relations
--------------
Mechanical susceptibility (dimensionless-normalized response of position
to force, per ``q(w) = chi_w/(m*Omega) * F(w)``):

    chi_w = Omega / (Omega^2 - w^2 - 2j*gamma*w),      Q = Omega/(2*gamma)

Cooperativity and cavity reflection phase, as ``sensor_response`` returns
them, with u = 2 w / kappa:

    |C_w| = (2 G^2 / gamma kappa) / (1 + u^2)
    e^{i phi_w/2} = (1 + i u) / sqrt(1 + u^2)

so that C_w = (2 G^2 / gamma kappa) / (1 - i u)^2 = |C_w| e^{i phi_w}, with
e^{i phi_w} = (kappa/2 + i w)/(kappa/2 - i w) the reflection phase.  Here
G = E*G0, E^2 = (4 kappa_r / kappa^2) E0^2 and E0^2 = P/(hbar Omega_L) the
input photon flux at the array's drive power P (``intracavity_flux_at``).

Force-noise budget of a phase-quadrature homodyne readout:

    S_F = hbar m Omega / (8 gamma |C_w| |chi_w|^2) * Syy        (shot)
        + 8 hbar m gamma Omega |C_w| * Sxx                      (back-action)
        + 2 hbar m Omega Re[chi_w] / |chi_w|^2 * Sxy            (correlations)
        + 4 hbar m gamma Omega * Spp                            (mechanical)
        + (1-eta^2)/eta^2 * hbar m Omega/(16 gamma |C_w||chi_w|^2)  (loss)

with Spp = K_B T / (hbar Omega) for a flat thermal bath, so the mechanical
term is 4 m gamma K_B T.  The standard quantum limit of the optical part is
hbar m Omega / |chi_w| (``arrays.array_sql_psd``), reached at
|C_w| = 1/(8 gamma |chi_w|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, HBAR, TWO_PI
from .errors import ConfigError

__all__ = [
    "Oscillator",
    "CavityOptics",
    "SqueezedInput",
    "QuadraturePsds",
    "SensorColumns",
    "mechanical_susceptibility",
    "sensor_response",
    "input_quadrature_psds",
    "acceleration_asd",
    "displacement_asd",
]


def _scalarize(value, *inputs):
    """Return a Python scalar when every frequency-like input was scalar."""
    if all(np.ndim(x) == 0 for x in inputs):
        return value.item() if np.ndim(value) else value
    return value


# ---------------------------------------------------------------------------
# validity rules
# ---------------------------------------------------------------------------

def _positive(x):
    return (0 < x) & (x < math.inf)


def _non_negative(x):
    return (0 <= x) & (x < math.inf)


def _finite(x):
    return (-math.inf < x) & (x < math.inf)


# What makes a sensor valid: one (predicate, field names, message) row per
# rule.  The predicates are comparisons, so they hold for a float and for an
# array alike, and NaN fails every one of them.  ``Oscillator`` checks the
# first part, ``CavityOptics`` the second plus its record-only rows, and a
# ``SensorColumns`` block both parts.
_OSCILLATOR_RULES = (
    (_positive, ("mass",), "oscillator mass must be finite and positive"),
    (_positive, ("omega0",), "resonance must be finite and positive"),
    (_positive, ("gamma",), "damping must be finite and positive"),
    (_non_negative, ("temperature",), "temperature must be finite and >= 0"),
)
_CAVITY_RULES = (
    (lambda readout, kappa: (0 < readout) & (readout <= kappa * (1 + 1e-12))
     & (kappa < math.inf), ("kappa_readout", "kappa"),
     "need 0 < kappa_readout <= kappa, both finite"),
    (lambda eta_sq: (0 <= eta_sq) & (eta_sq <= 1), ("efficiency_sq",),
     "efficiency^2 must lie in [0,1]"),
    (_non_negative, ("g0",), "g0 must be finite and >= 0"),
    (_positive, ("laser_omega",), "laser frequency must be finite and positive"),
)
_SENSOR_RULES = _OSCILLATOR_RULES + _CAVITY_RULES
# a parameter block knows no lengths
_CAVITY_RECORD_RULES = _CAVITY_RULES + (
    (lambda length: length is None or _positive(length), ("length",),
     "cavity length must be finite and positive"),
)
# inputs of the response primitives (omega < 0 is the oracle's -omega half)
_FREQUENCY_RULES = ((_finite, ("omega",), "frequencies must be finite"),)
_SHARE_RULES = ((_non_negative, ("share",),
                 "power share must be finite and >= 0"),)
_ANGLE_RULES = ((_finite, ("angle",), "squeezing angle must be finite"),)
_SQUEEZE_RULES = ((_non_negative, ("r",), "squeezing strength must be "
                   "finite and >= 0"),) + _ANGLE_RULES
_QUADRATURE_RULES = (
    (lambda syy, sxx: _positive(syy) & _positive(sxx), ("syy", "sxx"),
     "quadrature variances must be finite and positive"),
    (_finite, ("sxy",), "quadrature cross spectrum must be finite"),
)


def _check(rules, fields):
    """Raise ConfigError for the first row of ``rules`` that ``fields`` (field
    name -> float or array) breaks, with the row's message and the first
    value that breaks it."""
    for holds, names, message in rules:
        # most rows name one field, which a comprehension would slow down
        ok = (holds(fields[names[0]]) if len(names) == 1
              else holds(*[fields[n] for n in names]))
        if ok is True:
            continue
        bad = ~np.asarray(ok)
        if bad.any():
            got = " / ".join(str(_first(fields[n], bad)) for n in names)
            raise ConfigError(f"{message}, got {got}")


def _first(values, bad):
    """The first entry of ``values`` (broadcast to ``bad``) where ``bad``."""
    return np.broadcast_to(values, bad.shape)[bad][0].item()


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Oscillator:
    """Mechanical test mass: mass (kg), resonance and damping (rad/s), bath T (K).

    ``gamma`` is the half-linewidth entering the susceptibility denominator
    ``-2j*gamma*w``; the quality factor is Q = Omega/(2*gamma).
    """

    mass: float
    omega0: float
    gamma: float
    temperature: float = 0.0

    def __post_init__(self):
        _check(_OSCILLATOR_RULES, vars(self))

    @property
    def quality(self) -> float:
        return self.omega0 / (2.0 * self.gamma)

    @classmethod
    def from_quality(cls, mass, omega0, quality, temperature=0.0,
                     gamma_convention="half"):
        """Build from a quality factor under a stated damping convention.

        ``half`` (default) reads Q = Omega/(2*gamma), i.e. gamma is the
        half-linewidth of the displacement response.  ``full`` reads the
        quoted Q against the full linewidth, gamma = Omega/Q, and inserts
        that value directly into the susceptibility.  Both conventions are
        supported so published numbers can be reproduced under either
        reading; reports should state which convention they used.
        """
        if gamma_convention == "half":
            gamma = omega0 / (2.0 * quality)
        elif gamma_convention == "full":
            gamma = omega0 / quality
        else:
            raise ConfigError(f"unknown gamma convention {gamma_convention!r}")
        return cls(mass=mass, omega0=omega0, gamma=gamma, temperature=temperature)


def _intracavity_flux(kappa, kappa_readout, laser_omega, input_power):
    """E^2 = (4 kappa_r / kappa^2) P / (hbar Omega_L) of floats or arrays, with
    kappa^2 as C pow: an array's ``** 2`` is a product and rounds otherwise."""
    return (4.0 * kappa_readout / np.float_power(kappa, 2)
            * (input_power / (HBAR * laser_omega)))


@dataclass(frozen=True)
class CavityOptics:
    """Cavity and readout parameters of one sensor (the drive power is its
    array's: ``intracavity_flux_at``).

    kappa           total cavity dissipation rate (rad/s)
    kappa_readout   dissipation to the readout port (rad/s), <= kappa
    g0              vacuum optomechanical coupling rate (rad/s)
    laser_omega     laser angular frequency (rad/s)
    efficiency_sq   detection efficiency eta^2 in [0, 1]
    length          cavity length (m), optional; enables the Fabry-Perot
                    identity g0 = (Omega_L/L) sqrt(hbar/(2 m Omega))
    """

    kappa: float
    kappa_readout: float
    g0: float
    laser_omega: float
    efficiency_sq: float = 1.0
    length: float | None = None

    def __post_init__(self):
        _check(_CAVITY_RECORD_RULES, vars(self))

    def intracavity_flux_at(self, input_power: float) -> float:
        """Intra-cavity field squared, E^2 = (4 kappa_r / kappa^2) E0^2, when
        the cavity is driven with ``input_power`` (W)."""
        return _intracavity_flux(self.kappa, self.kappa_readout,
                                 self.laser_omega, input_power)

    @classmethod
    def from_wavelength(cls, kappa, kappa_readout, g0, wavelength,
                        efficiency_sq=1.0, length=None):
        return cls(kappa=kappa, kappa_readout=kappa_readout, g0=g0,
                   laser_omega=TWO_PI * C_LIGHT / wavelength,
                   efficiency_sq=efficiency_sq, length=length)

    def g0_from_geometry(self, osc: Oscillator) -> float:
        """Fabry-Perot vacuum coupling (Omega_L/L) sqrt(hbar / 2 m Omega)."""
        if self.length is None:
            raise ConfigError("cavity length is required to derive g0 from geometry")
        return self.laser_omega / self.length * math.sqrt(
            HBAR / (2.0 * osc.mass * osc.omega0))


@dataclass(frozen=True)
class SqueezedInput:
    """Input optical state: squeezing strength r and an angle policy.

    angle_policy is one of "vacuum" (r forced to 0), "fixed" (use ``angle``)
    or "optimal" (caller substitutes the frequency-dependent optimum).
    Conversions: dB = 10 log10(e^{2r});  N_s = sinh^2 r, so that
    e^{-2r} = 1/(sqrt(N_s) + sqrt(N_s+1))^2.
    """

    r: float = 0.0
    angle_policy: str = "fixed"
    angle: float = 0.0

    def __post_init__(self):
        _check(_SQUEEZE_RULES, vars(self))
        if self.angle_policy not in ("vacuum", "fixed", "optimal"):
            raise ConfigError(f"unknown angle policy {self.angle_policy!r}")
        if self.angle_policy == "vacuum" and self.r != 0.0:
            raise ConfigError("vacuum policy requires r = 0")

    @property
    def db(self) -> float:
        return 10.0 * self.r * 2.0 / math.log(10.0)

    @property
    def photon_number(self) -> float:
        return math.sinh(self.r) ** 2

    @classmethod
    def vacuum(cls):
        return cls(r=0.0, angle_policy="vacuum")

    @classmethod
    def from_db(cls, db, angle_policy="fixed", angle=0.0):
        return cls(r=db * math.log(10.0) / 20.0, angle_policy=angle_policy, angle=angle)

    @classmethod
    def from_photon_number(cls, n_s, angle_policy="fixed", angle=0.0):
        if not (math.isfinite(n_s) and n_s >= 0):
            raise ConfigError(f"photon number must be finite and >= 0, got {n_s}")
        return cls(r=math.asinh(math.sqrt(n_s)), angle_policy=angle_policy, angle=angle)


@dataclass(frozen=True)
class QuadraturePsds:
    """Symmetrized input-field quadrature PSDs (dimensionless, vacuum = 1/2).

    syy, sxx are the phase/amplitude variances; sxy is the symmetrized
    cross spectrum, real by construction.
    """

    syy: float
    sxx: float
    sxy: float = 0.0

    def __post_init__(self):
        _check(_QUADRATURE_RULES, vars(self))

    @classmethod
    def vacuum(cls):
        return cls(syy=0.5, sxx=0.5, sxy=0.0)


class SensorColumns:
    """The parameters of many sensors: a (..., 8) ``table`` and its columns.

    Each column is a (..., 1) view of the table under the ``Oscillator`` or
    ``CavityOptics`` name that the response primitives read, so
    ``sensor_response(cols, omega, share)`` evaluates every row in one
    broadcast: (k, 1) columns against frequencies of shape (n,) or (k, n),
    (c, g, 1) blocks against (c, 1, n).  ``intracavity_flux`` is each row's
    at the power it is driven with (an array's total power).
    ``cols[index]`` picks rows by a numpy index on the leading axes.
    """

    FIELDS = ("mass", "omega0", "gamma", "temperature", "kappa", "g0",
              "efficiency_sq", "intracavity_flux")
    __slots__ = ("table",) + FIELDS

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        # (8, ..., 1): iterating the leading axis gives the column views
        t = self.table[..., None]
        for name, column in zip(self.FIELDS, t.transpose(
                t.ndim - 2, *range(t.ndim - 2), t.ndim - 1)):
            setattr(self, name, column)

    def __getitem__(self, index) -> "SensorColumns":
        return SensorColumns(self.table[index])

    @classmethod
    def checked(cls, *, mass, omega0, gamma, temperature, kappa, kappa_readout,
                g0, laser_omega, efficiency_sq, input_power) -> "SensorColumns":
        """From arrays of record fields, broadcast together, rejected where
        an ``Oscillator`` or ``CavityOptics`` would reject them, with the
        record's message for the first bad value; E^2 at ``input_power``."""
        _check(_SENSOR_RULES, {
            "mass": mass, "omega0": omega0, "gamma": gamma,
            "temperature": temperature, "kappa": kappa,
            "kappa_readout": kappa_readout, "g0": g0,
            "laser_omega": laser_omega, "efficiency_sq": efficiency_sq})
        return cls(np.stack(np.broadcast_arrays(
            mass, omega0, gamma, temperature, kappa, g0, efficiency_sq,
            _intracavity_flux(kappa, kappa_readout, laser_omega, input_power)),
            axis=-1))


# ---------------------------------------------------------------------------
# response functions
# ---------------------------------------------------------------------------

def mechanical_susceptibility(osc: Oscillator, omega):
    """chi_w = Omega / (Omega^2 - w^2 - 2j*gamma*w); chi(-w) = chi(w)*."""
    w = np.asarray(omega, dtype=float)
    _check(_FREQUENCY_RULES, {"omega": w})
    # squares as products: a float's ** 2 and an array's round differently,
    # and a record and a SensorColumns row must give the same bits
    chi = osc.omega0 / (osc.omega0 * osc.omega0 - w**2 - 2j * osc.gamma * w)
    return _scalarize(chi, omega)


def input_quadrature_psds(squeeze: SqueezedInput, theta) -> QuadraturePsds:
    """Quadrature PSDs of a squeezed input at angle theta.

    Syy = (e^{-2r} cos^2 + e^{2r} sin^2)/2, Sxx with the roles swapped,
    Sxy = cos*sin*(e^{2r} - e^{-2r})/2.  Vacuum gives (1/2, 1/2, 0).
    """
    r = squeeze.r
    c, s = math.cos(theta), math.sin(theta)
    em, ep = math.exp(-2.0 * r), math.exp(2.0 * r)
    return QuadraturePsds(
        syy=0.5 * (em * c * c + ep * s * s),
        sxx=0.5 * (ep * c * c + em * s * s),
        sxy=0.5 * c * s * (ep - em),
    )


# ---------------------------------------------------------------------------
# per-sensor response
# ---------------------------------------------------------------------------

def sensor_response(cols: SensorColumns, omega, share):
    """Per-sensor response (chi_w, |C_w|, e^{i phi_w/2}) at a laser share.

    ``cols`` is a ``SensorColumns`` block, its E^2 at the power of the array
    that drives each row, and ``share`` each sensor's fraction of that power
    (|w_k0|^2), a scalar or a column of the block's shape.  Every force-noise
    formula divides by |C_w| and by eta^2, so a sensor without optical
    readout is rejected here, once for every caller.
    """
    _check(_SHARE_RULES, {"share": share})
    w = np.asarray(omega, dtype=float)
    chi = mechanical_susceptibility(cols, w)
    u = 2.0 * w / cols.kappa
    u2 = 1.0 + u * u
    g_sq = cols.g0 * cols.g0 * cols.intracavity_flux
    cmag = share * (2.0 * g_sq / (cols.gamma * cols.kappa)) / u2
    if (cmag == 0.0).any():
        raise ConfigError(
            "zero optomechanical cooperativity: no optical readout "
            "(shot noise diverges); check laser power / g0 / weights")
    if (cols.efficiency_sq == 0.0).any():
        raise ConfigError("detection efficiency eta^2 = 0: nothing reaches the detector")
    return chi, cmag, (1.0 + 1j * u) / np.sqrt(u2)


# ---------------------------------------------------------------------------
# unit helpers
# ---------------------------------------------------------------------------

def acceleration_asd(osc: Oscillator, force_psd):
    """Force PSD (N^2/Hz) -> acceleration amplitude spectral density (m s^-2/rtHz)."""
    return np.sqrt(force_psd) / osc.mass


def displacement_asd(osc: Oscillator, omega, force_psd):
    """Force PSD -> displacement ASD via |chi_w|/(m Omega), in m/rtHz."""
    chi = mechanical_susceptibility(osc, np.asarray(omega, dtype=float))
    out = np.sqrt(force_psd) * np.abs(chi) / (osc.mass * osc.omega0)
    return _scalarize(out, omega)
