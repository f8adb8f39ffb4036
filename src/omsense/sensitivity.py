"""Broadband figures of merit and dark-matter coupling projections.

The headline quantity is the integrated sensitivity

    I = integral_0^inf (S_drive / S_noise)^2 dw / pi,

a bandwidth-aware figure of merit for detecting an incoherent force whose
frequency is unknown a priori, under a drive PSD flat over the band.  For
pure-SQL noise the integral evaluates in closed form to
gamma / S_SQL(Omega)^2 = 1/(4 gamma (hbar m Omega)^2), which the quadrature
must reproduce.  The integrand peaks far more narrowly than the span it
lies in, so the quadrature works as QUADPACK QAGP does (Piessens et al.,
1983): breakpoints at the integrand's difficult points split the span into
seed panels.  Those points are its peaks, the zeros of the noise numerator
(``arrays.noise_peaks``): each peak's centre and centre +- width 10^k.
Each panel is integrated with the 21-point Gauss-Kronrod rule, whose
embedded 10-point Gauss rule gives the error estimate |K21 - G10| from the
same integrand values.  Panels are bisected until the summed estimate
meets the relative tolerance.  The noise may have several components (as
in SciPy's quad_vec): they share the panels, a panel is bisected when any
component misses its share of the tolerance, and every component must
meet it.

Dark-matter projections convert a detector noise PSD into a minimum
detectable coupling via the observation-run SNR

    SNR = (S_drive / S_noise) sqrt(Delta_a T_O),

where Delta_a is the drive coherence linewidth (default: 1e-6 of the
Compton frequency, the virialized-halo rule) and T_O the campaign length.
S_drive = (g sqrt(rho) M)^2 / Delta_a is exactly quadratic in the coupling
g, so the threshold crossing solves in closed form.

Every input is checked by ``spectra._check`` against rows of comparisons,
which NaN fails; only the quadrature's checks on the values it computes
raise on their own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import RHO_DM_DEFAULT, VIRIAL_LINEWIDTH_FRACTION
from .errors import ConfigError, ConvergenceError
from .spectra import _check, _finite, _non_negative, _positive

__all__ = [
    "FrequencyGrid",
    "resonance_refined_grid",
    "IntegrationResult",
    "integrated_sensitivity",
    "DarkMatterModel",
    "ObservationPlan",
    "min_detectable_coupling",
    "calibrate_material_factor",
]


# ---------------------------------------------------------------------------
# breakpoints
# ---------------------------------------------------------------------------

# Breakpoints closer than this (relative) are merged; a linewidth below it
# cannot be separated from its resonance in double precision.
_MERGE_REL = 1e-14

# What a span and its (omega0, gamma) resonance columns, and a quadrature
# tolerance, must satisfy: one ``spectra._check`` row per rule.
_TOLERANCE_RULES = (
    (_positive, ("rel_tol",), "relative tolerance must be finite and positive"),
)
_GRID_RULES = (
    (lambda lo, hi: (0 < lo) & (lo < hi) & (hi < math.inf), ("lo", "hi"),
     "need 0 < span minimum < span maximum, both finite"),
    (lambda omega0, lo, hi: (lo <= omega0) & (omega0 <= hi),
     ("omega0", "lo", "hi"), "resonance must lie inside the span"),
    (_positive, ("gamma",), "resonance linewidth must be finite and positive"),
    (lambda gamma, omega0: gamma > _MERGE_REL * omega0, ("gamma", "omega0"),
     "linewidth too small to separate from its resonance in double precision"),
)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing quadrature breakpoints over the integration span.

    Each interval between neighbouring breakpoints is one seed panel of the
    adaptive Gauss-Kronrod quadrature.
    """

    nodes: np.ndarray
    tol: float

    @property
    def span(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def bisected(self) -> "FrequencyGrid":
        """The self-check's grid: the same span with every seed panel split
        at its midpoint, at half the tolerance."""
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        nodes = np.empty(2 * self.nodes.size - 1)
        nodes[0::2], nodes[1::2] = self.nodes, mid
        return FrequencyGrid(nodes=nodes, tol=0.5 * self.tol)


def resonance_refined_grid(resonances, span, tol: float = 1e-3) -> FrequencyGrid:
    """Breakpoints for the quadrature in the style of QUADPACK QAGP.

    ``resonances`` is an iterable of (omega0, gamma) pairs, the centres and
    half widths of the integrand's peaks (``arrays.noise_peaks``); every
    centre must lie inside the span.  The breakpoints are the span ends,
    each omega0, and omega0 +- gamma 10^k (k = 0, 1, ...) while inside the
    span, so that seed panels shrink geometrically onto each peak; the
    adaptive loop refines wherever its error estimate asks.
    """
    lo, hi = float(span[0]), float(span[1])
    omega0, gamma = np.array(list(resonances), dtype=float).reshape(-1, 2).T
    _check(_GRID_RULES, {"lo": lo, "hi": hi, "omega0": omega0, "gamma": gamma})

    ladder = [[]]
    for o, g in zip(omega0.tolist(), gamma.tolist()):
        k_max = math.ceil(math.log10((hi - lo) / g))
        offsets = g * 10.0 ** np.arange(k_max + 1)
        ladder += [[o], o - offsets, o + offsets]
    nodes = np.concatenate(ladder)
    inner = nodes[(nodes > lo * (1.0 + _MERGE_REL))
                  & (nodes < hi * (1.0 - _MERGE_REL))]
    nodes = np.unique(np.concatenate([[lo, hi], inner]))
    keep = np.concatenate([[True], np.diff(nodes) > _MERGE_REL * nodes[1:]])
    return FrequencyGrid(nodes=nodes[keep], tol=tol)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 21-point Kronrod extension of the 10-point Gauss-Legendre rule (QUADPACK
# qk21, Piessens et al. 1983): abscissae in [0, 1) from the outside in, the
# odd-indexed ones being the Gauss nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077282562728195, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

_K21_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_K21_WEIGHTS = np.concatenate([_WGK, [_WGK_CENTRE], _WGK[::-1]])
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1:10:2] = _WG
_G10_WEIGHTS[11::2] = _WG[::-1]
_RULES = np.stack([_K21_WEIGHTS, _G10_WEIGHTS], axis=1)


# integrand evaluations after which the quadrature gives up
_MAX_EVALUATIONS = 6_000_000


@dataclass(frozen=True)
class IntegrationResult:
    """``value`` and ``rel_error`` are (k,) arrays, one entry per component
    of the noise."""

    value: np.ndarray
    rel_error: np.ndarray
    n_panels: int
    n_evaluations: int
    rounds: int


def _panel_values(f, a, b):
    """K21 value and |K21 - G10| error estimate on each [a_i, b_i], from one
    call of ``f`` on all 21 shared nodes of every panel; both are
    (k, panels), one row per component of ``f``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _K21_NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(-1, *x.shape)
    sums = half[:, None] * (y @ _RULES)
    kronrod = sums[..., 0]
    return kronrod, np.abs(kronrod - sums[..., 1])


def integrated_sensitivity(gain: float, noise_psd,
                           grid: FrequencyGrid) -> IntegrationResult:
    """integral (gain/noise)^2 dw/pi over the grid span, adaptively refined
    to the grid's tolerance.

    ``gain`` is the signal PSD, flat over the band.  ``noise_psd`` is a
    vectorized callable of omega giving (n,) or (k, n) for n frequencies: k
    integrals on shared panels, a panel being bisected when any component's
    error exceeds its share tol |I_j| / n_panels.  The noise must be finite
    and positive wherever it is evaluated, and the integral finite
    (ConfigError otherwise); ConvergenceError replaces an unconverged value.
    """
    rel_tol = grid.tol
    _check(_TOLERANCE_RULES, {"rel_tol": rel_tol})

    def integrand(w):
        noise = np.asarray(noise_psd(w), dtype=float)
        if not np.all((noise > 0.0) & np.isfinite(noise)):
            raise ConfigError("noise PSD must be finite and positive on the span")
        return (gain / noise) ** 2 / math.pi

    a, b = grid.nodes[:-1], grid.nodes[1:]
    val, err = _panel_values(integrand, a, b)
    evals = _K21_NODES.size * a.size
    rounds = 0
    while True:
        rounds += 1
        total = np.sum(val, axis=1)
        scale = np.abs(total) + 1e-300
        err_total = np.sum(err, axis=1)
        rel_error = err_total / scale
        finite = np.isfinite(total + err_total)
        if not np.all(finite):
            j = np.flatnonzero(~finite)[0]
            raise ConfigError(f"the integral is not finite (value "
                              f"{float(total[j])!r}, error {float(err_total[j])!r})")
        if np.all(err_total <= rel_tol * scale):
            return IntegrationResult(value=total, rel_error=rel_error,
                                     n_panels=a.size, n_evaluations=evals,
                                     rounds=rounds)
        if evals > _MAX_EVALUATIONS:
            raise ConvergenceError(
                f"quadrature did not reach rel_tol={rel_tol:g} within "
                f"{_MAX_EVALUATIONS} evaluations (estimate {np.max(rel_error):g})")
        share = (rel_tol * scale / max(a.size, 1))[:, None]
        bad = np.any(err > share, axis=0)
        if not np.any(bad):
            worst = np.max(err / scale[:, None], axis=0)
            bad = worst == np.max(worst)
        mid = 0.5 * (a[bad] + b[bad])
        ref_a, ref_b = np.concatenate([a[bad], mid]), np.concatenate([mid, b[bad]])
        ref_val, ref_err = _panel_values(integrand, ref_a, ref_b)
        evals += _K21_NODES.size * ref_a.size
        new_a = np.concatenate([a[~bad], ref_a])
        order = np.argsort(new_a, kind="stable")
        a, b = new_a[order], np.concatenate([b[~bad], ref_b])[order]
        val = np.concatenate([val[:, ~bad], ref_val], axis=1)[:, order]
        err = np.concatenate([err[:, ~bad], ref_err], axis=1)[:, order]


# ---------------------------------------------------------------------------
# dark-matter drive and projections
# ---------------------------------------------------------------------------

# One ``spectra._check`` row per rule; rows that several inputs share are
# named, so that each rule is written once.
_COUPLING = (_finite, ("coupling",), "coupling must be finite")
_RHO_DM = (_positive, ("rho_dm",), "rho_dm must be finite and positive")
_COMPTON = (_positive, ("compton_omega",),
            "Compton frequency must be finite and positive")
_LINEWIDTH = (lambda width: width is None or _positive(width),
              ("coherence_linewidth",),
              "coherence linewidth must be finite and positive")
_FRACTION = (_positive, ("linewidth_fraction",),
             "linewidth fraction must be finite and positive")
_MATERIAL = (_non_negative, ("material_factor",),
             "material factor must be finite and >= 0")
_DARK_MATTER_RULES = (
    _COUPLING, _MATERIAL, _RHO_DM, _COMPTON, _LINEWIDTH, _FRACTION,
)
_DRIVE_RULES = (_COUPLING, _LINEWIDTH)
_PROJECTION_RULES = (
    (_positive, ("noise",), "noise PSD must be positive and finite"),
    (_positive, ("drive",),
     "drive PSD must be finite and positive; check coupling and material factor"),
)
_PLAN_RULES = (
    (_positive, ("duration",), "observation duration must be finite and positive"),
    (lambda t: t is None or _positive(t), ("integration_time",),
     "integration time must be finite and positive"),
    (_positive, ("snr_threshold",), "SNR threshold must be finite and positive"),
)
_CALIBRATION_RULES = (
    (_positive, ("acceleration_asd",),
     "calibration needs a finite positive acceleration"),
    (_positive, ("coupling",), "calibration needs a finite positive coupling"),
    (_positive, ("mass",), "calibration needs a finite positive mass"),
    _COMPTON, _RHO_DM, _FRACTION,
)


@dataclass(frozen=True)
class DarkMatterModel:
    """Stochastic dark-matter drive: F = g sqrt(rho) M at Compton frequency.

    ``material_factor`` (M) converts g sqrt(rho) into newtons for a given
    detector material and geometry; it is a calibrated scalar input.  The
    coherence linewidth defaults to ``linewidth_fraction`` times the Compton
    frequency; pass ``coherence_linewidth`` to override.
    """

    coupling: float
    material_factor: float
    compton_omega: float
    rho_dm: float = RHO_DM_DEFAULT
    coherence_linewidth: float | None = None
    linewidth_fraction: float = VIRIAL_LINEWIDTH_FRACTION

    def __post_init__(self):
        _check(_DARK_MATTER_RULES, vars(self))

    def linewidth(self, omega_dm=None):
        if self.coherence_linewidth is not None:
            return self.coherence_linewidth
        omega = self.compton_omega if omega_dm is None else omega_dm
        return self.linewidth_fraction * omega

    def drive_psd(self, coupling: float | None = None, omega_dm=None):
        """S_drive = F_DM^2 / Delta_a, flat over the drive linewidth."""
        g = self.coupling if coupling is None else coupling
        da = self.linewidth(omega_dm)
        _check(_DRIVE_RULES, {"coupling": g, "coherence_linewidth": da})
        return (g * math.sqrt(self.rho_dm) * self.material_factor) ** 2 / da


@dataclass(frozen=True)
class ObservationPlan:
    """Campaign length, per-bin integration time and detection threshold."""

    duration: float
    integration_time: float | None = None
    snr_threshold: float = 1.0

    def __post_init__(self):
        _check(_PLAN_RULES, vars(self))

    def check(self, linewidth) -> list[str]:
        """Plan warnings for a drive linewidth or any of an array of them
        (returned, and warned)."""
        notes = []
        if np.any(linewidth * self.duration < 1.0):
            notes.append(
                "Delta_a * T_O < 1: the sqrt(Delta_a T_O) averaging law does "
                "not apply over this observation")
        t_int = self.integration_time
        if t_int is not None and np.any(t_int * linewidth > 1.0 + 1e-12):
            notes.append(
                "integration time exceeds the drive coherence time 1/Delta_a; "
                "repetitions are wasted (best strategy is T_int ~ 1/Delta_a)")
        for n in notes:
            warnings.warn(n, stacklevel=3)
        return notes


def min_detectable_coupling(noise_psd, dm: DarkMatterModel, plan: ObservationPlan,
                            omega_dm=None):
    """Coupling at which the observation-run SNR reaches the plan threshold.

    The SNR is exactly quadratic in g, so the threshold crossing is closed
    form: g_min = g_ref sqrt(threshold * S_noise / (S_drive(g_ref) *
    sqrt(Delta_a T_O))).  ``noise_psd`` may be a value or a callable of
    omega evaluated at the Compton frequency; arrays of noise values and
    Compton frequencies give the array of the scalar calls' values.
    """
    omega = dm.compton_omega if omega_dm is None else omega_dm
    noise = noise_psd(omega) if callable(noise_psd) else noise_psd
    noise = np.asarray(noise, dtype=float)
    da = dm.linewidth(omega)
    g_ref = dm.coupling if dm.coupling > 0 else 1.0
    drive = dm.drive_psd(coupling=g_ref, omega_dm=omega)
    _check(_PROJECTION_RULES, {"noise": noise, "drive": drive})
    g_min = g_ref * np.sqrt(
        plan.snr_threshold * noise / (drive * np.sqrt(da * plan.duration)))
    return float(g_min) if g_min.ndim == 0 else g_min


def calibrate_material_factor(acceleration_asd: float, coupling: float,
                              mass: float, compton_omega: float,
                              plan: ObservationPlan,
                              rho_dm: float = RHO_DM_DEFAULT,
                              linewidth_fraction: float = VIRIAL_LINEWIDTH_FRACTION
                              ) -> float:
    """Material factor that maps a quoted (acceleration floor, coupling) pair
    onto SNR = threshold, holding the halo linewidth rule fixed.

    Used to anchor projections to a published point; the returned scalar
    belongs in the scenario file, not in library code.
    """
    _check(_CALIBRATION_RULES, locals())
    noise = (acceleration_asd * mass) ** 2
    da = linewidth_fraction * compton_omega
    m_sq = (plan.snr_threshold * noise * da
            / (rho_dm * coupling**2 * math.sqrt(da * plan.duration)))
    # finite inputs can still overflow, as in the linewidth product
    material_factor = math.sqrt(m_sq)
    _check((_MATERIAL,), {"material_factor": material_factor})
    return material_factor
