"""Reference paths that the tests compare the library against.

Each helper computes a quantity the library also computes, by a second,
independent route: the residual vacuum as the explicit Delta_jk double sum,
the idle-port noise via the completeness relation instead of Gram-Schmidt
idle columns, the oracle propagation via an eigendecomposition of the input
covariance, and the distributed squeezer against M independent squeezers.
They are verification code, not part of the ``omsense`` API.
"""

from dataclasses import dataclass, replace

import numpy as np

from omsense.constants import HBAR
from omsense.errors import ConfigError
from omsense.spectra import (SqueezedInput, _half_phase,
                             cavity_phase_and_cooperativity,
                             mechanical_susceptibility,
                             squeezed_noise_closed_form)
from omsense.arrays import (SensorArray, _Terms, array_squeezed_noise,
                            optimal_squeezing_angle)
from omsense.oracle import TransferAssembly


def residual_vacuum_forms(arr: SensorArray, omega):
    """Both residual forms: (expanded, Delta_jk double sum).

    The two must agree; a disagreement signals an assembly bug, which is why
    the second path sums Delta_jk = e^{i(phi_k-phi_j)/2} sqrt(hbar^2 m m' O O')
    (delta_jk - w*_j0 w_k0) W*_0j W_0k explicitly instead of expanding it.
    """
    t = _Terms(arr, omega)
    expanded = t.residual_expanded()

    dv = arr.dividing_weights[t.active]
    cw = arr.combining_weights[t.active]
    # alpha/beta carry e^{i phi/2} sqrt(hbar m Omega) and the chi / coop factors,
    # so Delta_jk * (shot + BA kernels) == (delta - w*_j w_k) W*_j W_k *
    # (alpha*_j alpha_k + beta*_j beta_k) / 2.
    proj = np.eye(len(dv), dtype=complex) - np.outer(np.conj(dv), dv)
    wmat = np.outer(np.conj(cw), cw)
    alpha, beta = t.alpha[t.group], t.beta[t.group]
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
    theta = optimal_squeezing_angle(arr, w)

    dqs = array_squeezed_noise(arr, squeeze.r, theta, w).total

    sensor = arr.sensors[0]
    per_sensor_power = arr.total_power / m
    cav = replace(sensor.cavity, input_power=per_sensor_power)
    weights = np.abs(arr.combining_weights) ** 2
    dcs = np.zeros(w.size)
    for k in range(m):
        if weights[k] == 0.0:
            continue
        dcs += weights[k] * np.asarray(
            squeezed_noise_closed_form(sensor.oscillator, cav, squeeze.r, theta, w))

    dev = float(np.max(np.abs(dqs - dcs) / np.abs(dcs)))
    if dev > rel_tol:
        raise ConfigError(
            f"DQS and DCS noise disagree by {dev:.3e} (> {rel_tol:.1e}); "
            "the configurations are not equivalent")
    return DqsDcsReport(n_sensors=m, photon_number=n_photons,
                        photons_per_sensor_dqs=n_photons / m,
                        photons_per_sensor_dcs=n_photons,
                        max_rel_deviation=dev, dqs_psd=dqs, dcs_psd=dcs)


def propagate_covariance_eig(assembly: TransferAssembly):
    """Redundant propagation path via eigendecomposition of the covariance."""
    vals, vecs = np.linalg.eigh(assembly.input_cov)
    vals = np.clip(vals, 0.0, None)
    out = np.zeros(assembly.row_pos.shape[1])
    for row in (assembly.row_pos, assembly.row_neg):
        proj = vecs.conj().T @ row
        out += 0.5 * np.einsum("c,cw->w", vals, np.abs(proj) ** 2)
    return float(out[0]) if out.size == 1 and np.ndim(assembly.omega) == 0 else out


def idle_contribution_shortcut(arr: SensorArray, omega):
    """Idle-port noise without constructing idle columns, via completeness.

    Uses sum_{r>=1} w*_nr w_mr = delta_nm - w*_n0 w_m0 to fold the M-1 vacuum
    ports into rank-deficient projectors acting on the per-sensor (X', Y')
    coefficients; must equal the idle block of the Gram-Schmidt assembly.
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
            osc, cav = s.oscillator, arr.sensor_cavity_at_total_power(n)
            share = float(np.abs(dv[n]) ** 2)
            chi = mechanical_susceptibility(osc, w)
            _, coop = cavity_phase_and_cooperativity(cav, osc, w, share)
            cmag = np.abs(coop)
            if np.any(cmag == 0.0):
                raise ConfigError("zero cooperativity on an actively combined sensor")
            half = _half_phase(cav, w)
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
