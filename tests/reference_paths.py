"""Reference paths that the tests compare the library against.

Each helper computes a quantity the library also computes, by a second,
independent route: the residual vacuum as the explicit Delta_jk double sum,
the idle-port noise via the completeness relation instead of Householder
idle columns, the oracle propagation via an eigendecomposition of the input
covariance, the distributed squeezer against M independent squeezers, the
squeezed budget in its e^{-+2r} factorization, and the observation-run SNR
law.  The free-mirror model, mapped onto the cavity by the bad-cavity
correspondence, is a separate derivation of the single-sensor budget; it
shares no response primitive with the library beyond the mechanical
susceptibility.  The complex cooperativity C_w is the form that the
library's real |C_w| and half phase are checked against, and the oracle
breakdown splits a covariance propagation into its input blocks.  They are
verification code, not part of the ``omsense`` API.

The single-sensor budget, its thermal bath PSD and the standard quantum
limit are written out here term by term; in the library they exist only as
``ArrayNoise`` and ``array_sql_psd`` at M = 1.  ``random_array`` draws the
heterogeneous arrays that the tests compare paths on, as records.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from omsense.constants import HBAR, K_B
from omsense.errors import ConfigError
from omsense.spectra import (CavityOptics, Oscillator, QuadraturePsds,
                             SqueezedInput, _scalarize,
                             mechanical_susceptibility, sensor_response)
from omsense.sensitivity import ObservationPlan
from omsense.arrays import (ArrayBatch, ArrayNoise, ArraySensor, SensorArray,
                            matched_weights, optimal_squeezing_angle,
                            single_sensor_array)
from omsense.oracle import TransferAssembly
from omsense.scans import _DRAW_HIGH, _DRAW_LOW, _LASER_OMEGA, _sensor_fields


def random_array(rng: np.random.Generator, m: int) -> tuple[SensorArray, float]:
    """Heterogeneous array within a decade of the membrane reference values,
    with its squeezing in dB: the records that ``oracle-check`` draws
    straight into a parameter block, built one sensor at a time."""
    fields, response = _sensor_fields(rng.uniform(_DRAW_LOW, _DRAW_HIGH, (m, 9)))
    columns = [fields[k].tolist() for k in (
        "mass", "omega0", "gamma", "temperature", "kappa", "kappa_readout",
        "g0", "efficiency_sq")]
    sensors = tuple(
        ArraySensor(Oscillator(*row[:4]),
                    CavityOptics(*row[4:7], _LASER_OMEGA, row[7]), factor)
        for *row, factor in zip(*columns, response.tolist()))
    dv = rng.uniform(0.1, 1.0, m)
    dv = dv / np.linalg.norm(dv)
    arr = SensorArray(sensors, dv, matched_weights(dv),
                      total_power=2e-3 * m * rng.uniform(0.5, 2.0))
    db = rng.uniform(0.0, 15.0)
    return arr, db


def sensor_block(osc: Oscillator, cav: CavityOptics, power: float):
    """One sensor's ``SensorColumns`` row, E^2 at ``power``: the block that
    ``sensor_response`` reads, from the records through ``ArrayBatch.of``."""
    return ArrayBatch.of([single_sensor_array(osc, cav, power)]).cols[0, 0]


def cavity_phase_and_cooperativity(cav: CavityOptics, osc: Oscillator, power,
                                   omega, power_scale=1.0):
    """Reflection phase e^{i phi_w} and complex cooperativity C_w at ``power``.

    ``power_scale`` rescales the circulating power (|w_k0|^2 when the sensor
    receives a fraction of a shared laser; 1.0 standalone).  The returned
    pair satisfies C_w = |C_w| e^{i phi_w} identically.
    """
    w = np.asarray(omega, dtype=float)
    u = 2.0 * w / cav.kappa
    phase = (1.0 + 1j * u) / (1.0 - 1j * u)           # (kappa/2 + iw)/(kappa/2 - iw)
    g_sq = cav.g0 * cav.g0 * cav.intracavity_flux_at(power)
    coop = power_scale * (2.0 * g_sq / (osc.gamma * cav.kappa)) / (1.0 - 1j * u) ** 2
    return _scalarize(phase, omega), _scalarize(coop, omega)


def residual_vacuum_forms(arr: SensorArray, omega):
    """Both residual forms: (expanded, Delta_jk double sum).

    The two must agree; a disagreement signals an assembly bug, which is why
    the second path sums Delta_jk = e^{i(phi_k-phi_j)/2} sqrt(hbar^2 m m' O O')
    (delta_jk - w*_j0 w_k0) W*_0j W_0k explicitly instead of expanding it.
    """
    t = ArrayNoise(arr, omega)
    expanded = t.floor()[1]

    # every slot: an idle one has W = 0, and an array of identical sensors
    # is one kernel row, which every slot shares
    dv, cw = arr.dividing_weights, arr.combining_weights
    # alpha/beta carry e^{i phi/2} sqrt(hbar m Omega) and the chi / coop factors,
    # so Delta_jk * (shot + BA kernels) == (delta - w*_j w_k) W*_j W_k *
    # (alpha*_j alpha_k + beta*_j beta_k) / 2.
    proj = np.eye(len(dv), dtype=complex) - np.outer(np.conj(dv), dv)
    wmat = np.outer(np.conj(cw), cw)
    slots = (len(dv), t.alpha.shape[-1])
    alpha, beta = (np.broadcast_to(x, slots) for x in (t.alpha, t.beta))
    kernel = (np.einsum("jw,kw->jkw", np.conj(alpha), alpha)
              + np.einsum("jw,kw->jkw", np.conj(beta), beta))
    delta_sum = 0.5 * np.einsum("jk,jkw->w", proj * wmat, kernel)
    if np.max(np.abs(np.imag(delta_sum))) > 1e-6 * (np.max(np.abs(delta_sum)) + 1e-300):
        raise ConfigError("residual Delta-sum produced a non-real value")
    delta_sum = np.real(delta_sum)
    if np.ndim(omega) == 0:
        return float(expanded[0]), float(delta_sum[0])
    return expanded, delta_sum


@dataclass(frozen=True)
class DqsDcsReport:
    """Distributed-squeezer vs independent-squeezer comparison."""

    n_sensors: int
    photon_number: float
    photons_per_sensor_dqs: float
    photons_per_sensor_dcs: float
    max_rel_deviation: float
    dqs_psd: np.ndarray
    dcs_psd: np.ndarray


def dqs_vs_dcs_report(arr: SensorArray, n_photons: float, omega,
                      rel_tol: float = 1e-10) -> DqsDcsReport:
    """Compare one distributed squeezer (N_s photons over M sensors) against
    M independent squeezers (N_s photons each) at equal total laser power.

    The two schemes must produce equal noise PSDs for identical sensors; the
    report records the squeezed-photon cost per sensor of each scheme.
    """
    if not all(s == arr.sensors[0] for s in arr.sensors):
        raise ConfigError("the DQS/DCS equivalence is stated for identical sensors")
    m = arr.n_sensors
    squeeze = SqueezedInput.from_photon_number(n_photons)
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    noise = ArrayNoise(arr, w)
    theta = optimal_squeezing_angle(arr, w)
    [dqs] = noise.totals([SqueezedInput(squeeze.r, "optimal")])

    dcs = independent_squeezers_psd(arr, squeeze, theta, w)
    dev = float(np.max(np.abs(dqs - dcs) / np.abs(dcs)))
    if dev > rel_tol:
        raise ConfigError(
            f"DQS and DCS noise disagree by {dev:.3e} (> {rel_tol:.1e}); "
            "the configurations are not equivalent")
    return DqsDcsReport(n_sensors=m, photon_number=n_photons,
                        photons_per_sensor_dqs=n_photons / m,
                        photons_per_sensor_dcs=n_photons,
                        max_rel_deviation=dev, dqs_psd=dqs, dcs_psd=dcs)


def independent_squeezers_psd(arr: SensorArray, squeeze: SqueezedInput,
                               theta, omega):
    """M independent squeezers (DCS): each sensor on its own laser of power
    P/M with its own squeezer at ``theta``, combined with weights W_0k, as
    sum_k |W_0k|^2 times the per-sensor squeezed closed form."""
    m = arr.n_sensors
    weights = np.abs(arr.combining_weights) ** 2
    dcs = np.zeros(np.size(omega))
    for k in np.flatnonzero(weights).tolist():
        s = arr.sensors[k]
        dcs += weights[k] * np.asarray(squeezed_noise_closed_form(
            s.oscillator, s.cavity, arr.total_power / m, squeeze.r, theta,
            omega))
    return dcs


def propagate_covariance_eig(assembly: TransferAssembly):
    """Redundant propagation path via eigendecomposition of the covariance."""
    vals, vecs = np.linalg.eigh(assembly.input_cov)
    vals = np.clip(vals, 0.0, None)
    n = assembly.omega.shape[-1]
    out = np.zeros(n)
    for row in (assembly.rows[..., :n], assembly.rows[..., n:]):
        proj = vecs.conj().T @ row
        out += 0.5 * np.einsum("c,cw->w", vals, np.abs(proj) ** 2)
    return out


def oracle_breakdown(assembly: TransferAssembly) -> dict[str, np.ndarray]:
    """Per-block contributions: mode-0 shot/back-action/correlation, idle
    residual, mechanical thermal and detection loss.  Blocks sum to the total.
    """
    m = assembly.n_sensors
    cov = assembly.input_cov
    out: dict[str, np.ndarray] = {}
    n = assembly.omega.shape[-1]

    def avg(fn):
        return 0.5 * np.real(fn(assembly.rows[..., :n])
                             + fn(assembly.rows[..., n:]))

    sxx = np.real(cov[0, 0])
    syy = np.real(cov[m, m])
    out["back_action"] = avg(lambda r: sxx * np.abs(r[0]) ** 2)
    out["shot"] = avg(lambda r: syy * np.abs(r[m]) ** 2)

    def mode0_block(row):
        idx = np.array([0, m])
        sub = row[idx]
        return np.einsum("cw,cd,dw->w", sub, cov[np.ix_(idx, idx)], np.conj(sub))

    out["correlation"] = avg(mode0_block) - out["shot"] - out["back_action"]

    def idle_block(row):
        total = np.zeros(row.shape[1], dtype=complex)
        for r in range(1, m):
            idx = np.array([r, m + r])
            sub = row[idx]
            total += np.einsum("cw,cd,dw->w", sub, cov[np.ix_(idx, idx)],
                               np.conj(sub))
        return total

    out["residual_vacuum"] = avg(idle_block)
    mech = slice(2 * m, 3 * m)
    diag_mech = np.real(np.diag(cov)[mech])[:, None]
    out["thermal"] = avg(lambda r: np.sum(diag_mech * np.abs(r[mech]) ** 2, axis=0))
    loss = slice(3 * m, 4 * m)
    out["detection_loss"] = avg(lambda r: 0.5 * np.sum(np.abs(r[loss]) ** 2, axis=0))
    out["total"] = sum(out[k] for k in ("shot", "back_action", "correlation",
                                        "residual_vacuum", "thermal",
                                        "detection_loss"))
    return out


def idle_contribution_shortcut(arr: SensorArray, omega):
    """Idle-port noise without constructing idle columns, via completeness.

    Uses sum_{r>=1} w*_nr w_mr = delta_nm - w*_n0 w_m0 to fold the M-1 vacuum
    ports into rank-deficient projectors acting on the per-sensor (X', Y')
    coefficients; must equal the idle block of the Householder assembly.
    The commutator parts of the idle vacua cancel between the +-omega
    evaluations and are omitted, matching the symmetrized block.
    """
    m = arr.n_sensors
    w_in = np.atleast_1d(np.asarray(omega, dtype=float))
    dv = arr.dividing_weights
    total = np.zeros(w_in.size)
    for sign in (1.0, -1.0):
        w = sign * w_in
        g_vec = np.zeros((m, w_in.size), dtype=complex)   # X' coefficients
        a_vec = np.zeros((m, w_in.size), dtype=complex)   # Y' coefficients
        for n in range(m):
            w0n = arr.combining_weights[n]
            if w0n == 0.0:
                continue
            s = arr.sensors[n]
            osc = s.oscillator
            chi, cmag, half = sensor_response(
                sensor_block(osc, s.cavity, arr.total_power), w,
                float(np.abs(dv[n]) ** 2))
            phase = half * half
            h = np.conj(half) / chi * np.sqrt(
                HBAR * osc.mass * osc.omega0 / (8.0 * osc.gamma * cmag))
            a_vec[n] = w0n * (-h * phase)
            g_vec[n] = w0n * (-8.0 * osc.gamma * cmag * phase * chi * h)
        # (n_X + i n_Y)_r = sum_n (g+ia)_n conj(w_nr);  (n_X - i n_Y)_r uses w_nr
        z = g_vec + 1j * a_vec
        y = g_vec - 1j * a_vec
        p1 = np.eye(m, dtype=complex) - np.outer(np.conj(dv), dv)
        t1 = np.einsum("nw,nm,mw->w", z, p1, np.conj(z))
        t2 = np.einsum("nw,nm,mw->w", y, np.conj(p1), np.conj(y))
        total += 0.5 * 0.25 * np.real(t1 + t2)
    return float(total[0]) if np.ndim(omega) == 0 else total


def thermal_momentum_psd(osc: Oscillator) -> float:
    """Flat mechanical-bath momentum PSD, K_B T / (hbar Omega)."""
    return K_B * osc.temperature / (HBAR * osc.omega0)




def single_sensor_noise_psd(osc: Oscillator, cav: CavityOptics, power: float,
                            inp: QuadraturePsds, omega, *, power_scale=1.0):
    """Total force-noise PSD (N^2/Hz) for one sensor driven at ``power`` (W)
    and read out in phase.

    Sum of shot, back-action, quadrature-correlation and mechanical terms
    plus the detection-loss term, written out as ``omsense.spectra``'s
    docstring states them: the term-by-term reference for ``ArrayNoise``
    at M = 1.
    """
    chi, cmag, _ = sensor_response(sensor_block(osc, cav, power), omega,
                                   power_scale)
    m, om, gam = osc.mass, osc.omega0, osc.gamma
    chi_sq = np.abs(chi) ** 2
    shot = HBAR * m * om / (8.0 * gam * cmag * chi_sq) * inp.syy
    back_action = 8.0 * HBAR * m * gam * om * cmag * inp.sxx
    corr = 2.0 * HBAR * m * om * np.real(chi) / chi_sq * inp.sxy
    mech = 4.0 * HBAR * m * gam * om * thermal_momentum_psd(osc)
    loss = ((1.0 - cav.efficiency_sq) / cav.efficiency_sq
            * HBAR * m * om / (16.0 * gam * cmag * chi_sq))
    return _scalarize(shot + back_action + corr + mech + loss, omega)


def sql_noise_psd(osc: Oscillator, omega):
    """Optical noise floor at the standard quantum limit, hbar m Omega/|chi_w|.

    Thermal noise is not included; callers add it when relevant.  The
    reference for ``array_sql_psd`` at M = 1.
    """
    chi = mechanical_susceptibility(osc, np.asarray(omega, dtype=float))
    return _scalarize(HBAR * osc.mass * osc.omega0 / np.abs(chi), omega)


def squeezed_noise_closed_form(osc: Oscillator, cav: CavityOptics, power: float,
                               r, theta, omega, *, power_scale=1.0):
    """Squeezed-input force noise in the e^{-+2r} factorization (N^2/Hz), for
    one sensor driven at ``power`` (W).

    hbar m Omega / (16 gamma |C||chi|^2) * (|cos t - 8 gamma |C| chi sin t|^2 e^{-2r}
    + |sin t + 8 gamma |C| chi cos t|^2 e^{2r}) + 4 m gamma K_B T, plus the
    same detection-loss term as the generic budget.  Must agree with
    single_sensor_noise_psd(input_quadrature_psds(r, theta)) to rounding.
    """
    chi, cmag, _ = sensor_response(sensor_block(osc, cav, power), omega,
                                   power_scale)

    m, om, gam = osc.mass, osc.omega0, osc.gamma
    chi_sq = np.abs(chi) ** 2
    k = 8.0 * gam * cmag * chi
    c, s = np.cos(theta), np.sin(theta)
    scale = HBAR * m * om / (16.0 * gam * cmag * chi_sq)
    optical = scale * (np.abs(c - k * s) ** 2 * math.exp(-2.0 * r)
                       + np.abs(s + k * c) ** 2 * math.exp(2.0 * r))
    thermal = 4.0 * m * gam * K_B * osc.temperature
    loss = (1.0 - cav.efficiency_sq) / cav.efficiency_sq * scale
    return _scalarize(optical + thermal + loss, omega, theta)


# ---------------------------------------------------------------------------
# simplified (free-space mirror) model
# ---------------------------------------------------------------------------

def simplified_model_noise_psd(zeta, e0, eta, osc: Oscillator,
                               inp: QuadraturePsds, omega):
    """Force-noise PSD of the single-mirror phase-shift model (N^2/Hz).

    The mirror imprints a phase 2 k q on the reflected beam (zeta = 2 Omega_L/c)
    and each reflected photon kicks the mirror by kappa_p = hbar * zeta.  With
    B(w) = m Omega / (sqrt(2) E0 zeta chi_w) the budget reads

        4 m gamma K_B T + |B|^2 (Syy + (1-eta^2)/(2 eta^2))
        + 2 kappa_p^2 E0^2 Sxx + 2 Re[B'(-w)] Sxy,   B'(w) = sqrt(2) kappa_p E0 B(w).
    """
    if e0 == 0:
        raise ConfigError("zero input field amplitude: shot noise diverges")
    if eta == 0:
        raise ConfigError("detection efficiency eta = 0: nothing reaches the detector")
    w = np.asarray(omega, dtype=float)
    chi = mechanical_susceptibility(osc, w)
    m, om, gam = osc.mass, osc.omega0, osc.gamma
    kappa_p = HBAR * zeta

    b_sq = (m * om) ** 2 / (2.0 * e0**2 * zeta**2 * np.abs(chi) ** 2)
    eta_sq = eta * eta
    shot = b_sq * (inp.syy + (1.0 - eta_sq) / (2.0 * eta_sq))
    back_action = 2.0 * kappa_p**2 * e0**2 * inp.sxx
    # B'(-w) = kappa_p m Omega / (zeta chi*), so Re[B'(-w)] uses Re[chi]/|chi|^2
    corr = 2.0 * kappa_p * m * om / zeta * np.real(chi) / np.abs(chi) ** 2 * inp.sxy
    thermal = 4.0 * m * gam * K_B * osc.temperature
    return _scalarize(thermal + shot + back_action + corr, omega)


def bad_cavity_map(cav: CavityOptics, power: float,
                   osc: Oscillator | None = None):
    """Map a cavity driven at ``power`` onto the simplified model's (zeta, E0).

    hbar zeta = (4 g0 / kappa) sqrt(2 hbar m Omega), which equals
    4 Omega_L / (L kappa) for a Fabry-Perot cavity.  Valid for kappa much
    larger than the band of interest; a warning is issued otherwise.
    """
    if osc is not None and cav.kappa < 100.0 * osc.omega0:
        warnings.warn("bad-cavity map requested with kappa < 100*Omega; "
                      "the simplified model may be inaccurate", stacklevel=2)
    if osc is not None and cav.g0 > 0:
        zeta = 4.0 * cav.g0 / cav.kappa * math.sqrt(
            2.0 * osc.mass * osc.omega0 / HBAR)
    elif cav.length is not None:
        zeta = 4.0 * cav.laser_omega / (cav.length * cav.kappa)
    else:
        raise ConfigError("bad_cavity_map needs a cavity length or an oscillator")
    return zeta, math.sqrt(power / (HBAR * cav.laser_omega))


def snr_observation(drive_psd: float, noise_psd: float, linewidth: float,
                    plan: ObservationPlan) -> float:
    """SNR over an observing run: (S_drive/S_noise) sqrt(Delta_a T_O)."""
    if noise_psd <= 0:
        raise ConfigError("noise PSD must be positive")
    plan.check(linewidth)
    return drive_psd / noise_psd * math.sqrt(linewidth * plan.duration)
