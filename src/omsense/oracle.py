"""Brute-force verifier: full linear input-output map plus Gaussian propagation.

Instead of the closed-form coherent sums, this module assembles, per
frequency, the complete linear map from every input quadrature of the
network -- the bright mode, the M-1 idle vacua, the M mechanical momentum
baths and the M detection-loss ports -- to the combined force estimator,
and evaluates the output PSD as a Hermitian quadratic form against the
input spectral covariance.  The one-sided symmetrized PSD is the average
of the +omega and -omega quadratic forms, which is where the chi(-w) =
chi(w)* symmetry enters explicitly.

Input covariance blocks are Hermitian: a vacuum optical mode carries
[[1/2, i/2], [-i/2, 1/2]] in the (X, Y) basis (the i/2 being the
commutator part that cancels under symmetrization), squeezed modes carry
the rotated thermal-free squeezed block plus the same commutator, the
mechanical momentum inputs carry K_B T/(hbar Omega) and the loss ports 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ConfigError
from .spectra import (QuadraturePsds, SqueezedInput, _scalarize,
                      input_quadrature_psds, sensor_response)
from .arrays import SensorArray

__all__ = [
    "TransferAssembly",
    "complete_unitary",
    "assemble_transfer",
    "propagate_covariance",
    "oracle_noise_psd",
    "oracle_breakdown",
]


@dataclass(frozen=True, eq=False)
class TransferAssembly:
    """Frequency-resolved transfer rows and input covariance.

    ``row_pos``/``row_neg`` map the stacked input vector
    [X_0..X_{M-1}, Y_0..Y_{M-1}, P_0..P_{M-1}, L_0..L_{M-1}] to the combined
    estimator at +omega and -omega; shapes are (4M, n_freq).  ``input_cov``
    is the Hermitian spectral covariance of that vector.  ``signal_row``
    maps per-sensor drive amplitudes to the estimator.
    """

    omega: np.ndarray
    row_pos: np.ndarray
    row_neg: np.ndarray
    input_cov: np.ndarray
    signal_row: np.ndarray
    n_sensors: int

    def block(self, name: str) -> slice:
        m = self.n_sensors
        return {"x": slice(0, m), "y": slice(m, 2 * m),
                "mech": slice(2 * m, 3 * m), "loss": slice(3 * m, 4 * m)}[name]


def complete_unitary(column: np.ndarray, seed_basis: np.ndarray | None = None
                     ) -> np.ndarray:
    """Complete one unit column to a full unitary by Gram-Schmidt.

    Each seed is projected out of the columns found so far twice (classical
    Gram-Schmidt with reorthogonalization, orthogonal to rounding like the
    modified algorithm), one matrix-vector product per pass.

    The idle columns are arbitrary; a fixed seed basis (default: the standard
    basis) keeps the completion reproducible.  Physical outputs must not
    depend on the choice, which the tests assert.
    """
    w = np.asarray(column, dtype=complex)
    m = w.size
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-10:
        raise ConfigError(f"dividing column must be normalized, |w| = {norm!r}")
    if seed_basis is None:
        seed_basis = np.eye(m, dtype=complex)
    cols = np.zeros((m, m), dtype=complex)
    cols[:, 0] = w / norm
    found = 1
    for seed in np.asarray(seed_basis, dtype=complex).T:
        if found == m:
            break
        basis = cols[:, :found]
        v = seed - basis @ (basis.conj().T @ seed)
        v -= basis @ (basis.conj().T @ v)
        vn = np.linalg.norm(v)
        if vn > 1e-8:
            cols[:, found] = v / vn
            found += 1
    if found != m:
        raise ConfigError("could not complete the unitary from the seed basis")
    return cols


def _mode_cov_block(psds: QuadraturePsds) -> np.ndarray:
    """Hermitian 2x2 spectral covariance of one optical mode in (X, Y) order."""
    return np.array([[psds.sxx, psds.sxy + 0.5j],
                     [psds.sxy - 0.5j, psds.syy]], dtype=complex)


def assemble_transfer(arr: SensorArray, omega, squeeze: SqueezedInput | None = None,
                      *, theta: float = 0.0,
                      mode_covariances: list[QuadraturePsds] | None = None,
                      unitary: np.ndarray | None = None,
                      power_shares: np.ndarray | None = None) -> TransferAssembly:
    """Build the full transfer rows at +-omega and the input covariance.

    By default the bright mode 0 carries ``squeeze`` at angle ``theta``
    (vacuum when ``squeeze`` is None) and the idle modes are vacuum; the
    beam-splitter unitary is the Gram-Schmidt completion of the array's
    dividing column.
    ``mode_covariances`` overrides every optical mode (used to model
    independent squeezers), and ``power_shares`` overrides the per-sensor
    fraction of the total laser power when the unitary does not describe the
    power routing (again for independent-laser configurations).
    """
    m = arr.n_sensors
    w_in = np.atleast_1d(np.asarray(omega, dtype=float))
    n_freq = w_in.size

    if unitary is None:
        unitary = complete_unitary(arr.dividing_weights)
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (m, m):
        raise ConfigError("unitary must be M x M")
    if power_shares is None:
        power_shares = np.abs(arr.dividing_weights) ** 2
    power_shares = np.asarray(power_shares, dtype=float)

    # Each sensor's response is evaluated once on (+omega, -omega) stacked;
    # columns [:n_freq] are the +omega rows and [n_freq:] the -omega rows.
    w = np.concatenate([w_in, -w_in])
    ncols = 4 * m
    rows = np.zeros((ncols, 2 * n_freq), dtype=complex)
    coef_x = np.zeros((m, 2 * n_freq), dtype=complex)  # W_0n-weighted X'
    coef_y = np.zeros((m, 2 * n_freq), dtype=complex)  # W_0n-weighted Y'
    signal_row = np.zeros(m, dtype=complex)

    for n in range(m):
        w0n = arr.combining_weights[n]
        if w0n == 0.0:
            continue
        s = arr.sensors[n]
        osc = s.oscillator
        cav = arr.sensor_cavity_at_total_power(n)
        chi, cmag, half = sensor_response(osc, cav, w, float(power_shares[n]))
        phase = half * half
        h = np.conj(half) / chi * np.sqrt(
            HBAR * osc.mass * osc.omega0 / (8.0 * osc.gamma * cmag))
        eta_sq = cav.efficiency_sq
        coef_y[n] = w0n * (-h * phase)
        coef_x[n] = w0n * (-8.0 * osc.gamma * cmag * phase * chi * h)
        rows[2 * m + n] = w0n * h * 4.0 * osc.gamma * chi * np.sqrt(2.0 * cmag) * half
        rows[3 * m + n] = w0n * h * np.sqrt((1.0 - eta_sq) / eta_sq)
        signal_row[n] = w0n

    # Optical input r reaches sensor n through unitary[n, r]:
    #   X_r row = sum_n (Re U_nr X'_n + Im U_nr Y'_n),
    #   Y_r row = sum_n (Re U_nr Y'_n - Im U_nr X'_n),
    # two real matmuls on the (re, im) interleaved view of the coefficients.
    u_re, u_im = np.real(unitary).T, np.imag(unitary).T
    coefs = np.concatenate([coef_x, coef_y]).view(float)
    rows[:m] = (np.hstack([u_re, u_im]) @ coefs).view(complex)
    rows[m:2 * m] = (np.hstack([-u_im, u_re]) @ coefs).view(complex)

    # input covariance
    cov = np.zeros((ncols, ncols), dtype=complex)
    if mode_covariances is not None:
        if len(mode_covariances) != m:
            raise ConfigError("need one covariance per optical mode")
        blocks = [_mode_cov_block(p) for p in mode_covariances]
    else:
        mode0 = (QuadraturePsds.vacuum() if squeeze is None
                 else input_quadrature_psds(squeeze, theta))
        blocks = [_mode_cov_block(mode0)]
        blocks += [_mode_cov_block(QuadraturePsds.vacuum())] * (m - 1)
    for r, blk in enumerate(blocks):
        cov[r, r] = blk[0, 0]
        cov[r, m + r] = blk[0, 1]
        cov[m + r, r] = blk[1, 0]
        cov[m + r, m + r] = blk[1, 1]
    for n in range(m):
        osc = arr.sensors[n].oscillator
        cov[2 * m + n, 2 * m + n] = K_B * osc.temperature / (HBAR * osc.omega0)
        cov[3 * m + n, 3 * m + n] = 0.5

    return TransferAssembly(omega=w_in, row_pos=rows[:, :n_freq],
                            row_neg=rows[:, n_freq:], input_cov=cov,
                            signal_row=signal_row, n_sensors=m)


def _quadratic_form(row: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return np.einsum("cw,cd,dw->w", row, cov, np.conj(row))


def propagate_covariance(assembly: TransferAssembly):
    """Symmetrized output PSD: average of the +-omega Hermitian forms."""
    s_pos = _quadratic_form(assembly.row_pos, assembly.input_cov)
    s_neg = _quadratic_form(assembly.row_neg, assembly.input_cov)
    out = 0.5 * (s_pos + s_neg)
    if np.max(np.abs(np.imag(out))) > 1e-10 * (np.max(np.abs(out)) + 1e-300):
        raise ConfigError("oracle quadratic form produced a non-real PSD")
    return np.real(out)


def oracle_noise_psd(arr: SensorArray, omega, squeeze: SqueezedInput | None = None,
                     *, theta: float = 0.0):
    """Convenience wrapper: assemble and propagate in one call."""
    assembly = assemble_transfer(arr, omega, squeeze, theta=theta)
    return _scalarize(propagate_covariance(assembly), omega)


def oracle_breakdown(assembly: TransferAssembly) -> dict[str, np.ndarray]:
    """Per-block contributions: mode-0 shot/back-action/correlation, idle
    residual, mechanical thermal and detection loss.  Blocks sum to the total.
    """
    m = assembly.n_sensors
    cov = assembly.input_cov
    out: dict[str, np.ndarray] = {}

    def avg(fn):
        return 0.5 * np.real(fn(assembly.row_pos) + fn(assembly.row_neg))

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
    mech = assembly.block("mech")
    diag_mech = np.real(np.diag(cov)[mech])[:, None]
    out["thermal"] = avg(lambda r: np.sum(diag_mech * np.abs(r[mech]) ** 2, axis=0))
    loss = assembly.block("loss")
    out["detection_loss"] = avg(lambda r: 0.5 * np.sum(np.abs(r[loss]) ** 2, axis=0))
    out["total"] = sum(out[k] for k in ("shot", "back_action", "correlation",
                                        "residual_vacuum", "thermal",
                                        "detection_loss"))
    return out
