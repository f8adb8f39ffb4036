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
from .spectra import (QuadraturePsds, SensorColumns, SqueezedInput, _scalarize,
                      input_quadrature_psds, sensor_response)
from .arrays import SensorArray

__all__ = [
    "TransferAssembly",
    "complete_unitary",
    "assemble_transfer",
    "propagate_covariance",
    "oracle_noise_psd",
]


@dataclass(frozen=True, eq=False)
class TransferAssembly:
    """Frequency-resolved transfer rows and input covariance.

    ``row_pos``/``row_neg`` map the stacked input vector
    [X_0..X_{M-1}, Y_0..Y_{M-1}, P_0..P_{M-1}, L_0..L_{M-1}] to the combined
    estimator at +omega and -omega; shapes are (4M, n_freq).  ``input_cov``
    is the Hermitian spectral covariance of that vector.  An assembly of a
    batch of C arrays carries a leading axis of length C on every field.
    """

    omega: np.ndarray
    row_pos: np.ndarray
    row_neg: np.ndarray
    input_cov: np.ndarray
    n_sensors: int


def complete_unitary(column: np.ndarray) -> np.ndarray:
    """Complete one unit column to a full unitary by Gram-Schmidt.

    Each standard basis vector in turn is projected out of the columns found
    so far twice (classical Gram-Schmidt with reorthogonalization, orthogonal
    to rounding like the modified algorithm), one matrix-vector product per
    pass, and kept when a part of it remains.  The standard basis spans the
    whole space, so M - 1 of its vectors always remain.

    The idle columns are arbitrary; physical outputs must not depend on the
    choice, which the tests assert.
    """
    w = np.asarray(column, dtype=complex)
    m = w.size
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-10:
        raise ConfigError(f"dividing column must be normalized, |w| = {norm!r}")
    cols = np.zeros((m, m), dtype=complex)
    cols[:, 0] = w / norm
    found = 1
    for seed in np.eye(m, dtype=complex):
        if found == m:
            break
        basis = cols[:, :found]
        v = seed - basis @ (basis.conj().T @ seed)
        v -= basis @ (basis.conj().T @ v)
        vn = np.linalg.norm(v)
        if vn > 1e-8:
            cols[:, found] = v / vn
            found += 1
    return cols


def _batch(arr, omega, squeeze, theta):
    """(arrays, omega (C, n), squeezes, thetas (C,)) of one array or a batch."""
    if isinstance(arr, SensorArray):
        return ([arr], np.atleast_1d(np.asarray(omega, dtype=float))[None],
                [squeeze], np.array([theta], dtype=float))
    arrays = list(arr)
    c = len(arrays)
    w = np.asarray(omega, dtype=float)
    if c == 0 or w.ndim != 2 or w.shape[0] != c:
        raise ConfigError("a batch of C arrays needs omega of shape (C, n)")
    if len({a.n_sensors for a in arrays}) != 1:
        raise ConfigError("a batch needs arrays of one sensor count")
    squeezes = list(squeeze) if isinstance(squeeze, (list, tuple)) else [squeeze] * c
    thetas = np.broadcast_to(np.asarray(theta, dtype=float), (c,))
    if len(squeezes) != c:
        raise ConfigError("a batch needs one squeeze per array")
    return arrays, w, squeezes, thetas


def assemble_transfer(arr, omega, squeeze: SqueezedInput | None = None,
                      *, theta=0.0) -> TransferAssembly:
    """Build the full transfer rows at +-omega and the input covariance.

    The bright mode 0 carries ``squeeze`` at angle ``theta`` (vacuum when
    ``squeeze`` is None) and the idle modes are vacuum; the beam-splitter
    unitary is the Gram-Schmidt completion of the array's dividing column.

    ``arr`` may also be a sequence of C arrays of one sensor count, with
    ``omega`` of shape (C, n) and one squeeze and one angle per array (a
    single value is shared); the assembly then carries the batch axis.
    """
    single = isinstance(arr, SensorArray)
    arrays, w_in, squeezes, thetas = _batch(arr, omega, squeeze, theta)
    c, m, n_freq = len(arrays), arrays[0].n_sensors, w_in.shape[1]

    unitaries = np.stack([complete_unitary(a.dividing_weights) for a in arrays])
    shares = np.abs(np.stack([a.dividing_weights for a in arrays])) ** 2
    cw = np.stack([a.combining_weights for a in arrays])

    # One response call for every active sensor of the batch, each on its
    # array's (+omega, -omega) stacked: columns [:n_freq] are the +omega rows
    # and [n_freq:] the -omega rows.
    ci, ni = np.nonzero(cw)
    cols = SensorColumns.of(
        (arrays[i].sensors[n].oscillator, arrays[i].sensors[n].cavity,
         arrays[i].total_power) for i, n in zip(ci.tolist(), ni.tolist()))
    w = np.concatenate([w_in, -w_in], axis=1)
    chi, cmag, half = sensor_response(cols, cols, w[ci], shares[ci, ni, None])
    w0n = cw[ci, ni, None]
    phase = half * half
    h = np.conj(half) / chi * np.sqrt(
        HBAR * cols.mass * cols.omega0 / (8.0 * cols.gamma * cmag))
    # W_0n-weighted X' (rows :m) and Y' (rows m:) coefficients
    coefs = np.zeros((c, 2 * m, 2 * n_freq), dtype=complex)
    coefs[ci, ni] = w0n * (-8.0 * cols.gamma * cmag * phase * chi * h)
    coefs[ci, m + ni] = w0n * (-h * phase)
    rows = np.zeros((c, 4 * m, 2 * n_freq), dtype=complex)
    rows[ci, 2 * m + ni] = (w0n * h * 4.0 * cols.gamma * chi
                            * np.sqrt(2.0 * cmag) * half)
    rows[ci, 3 * m + ni] = w0n * h * np.sqrt(
        (1.0 - cols.efficiency_sq) / cols.efficiency_sq)

    # Optical input r reaches sensor n through unitary[n, r]:
    #   X_r row = sum_n (Re U_nr X'_n + Im U_nr Y'_n),
    #   Y_r row = sum_n (Re U_nr Y'_n - Im U_nr X'_n),
    # two real matmuls per array on the (re, im) interleaved coefficients.
    u_t = unitaries.swapaxes(1, 2)
    u_re, u_im = u_t.real, u_t.imag
    coefs = coefs.view(float)
    rows[:, :m] = (np.concatenate([u_re, u_im], axis=2) @ coefs).view(complex)
    rows[:, m:2 * m] = (np.concatenate([-u_im, u_re], axis=2) @ coefs).view(complex)

    # input covariance: per optical mode r the Hermitian (X, Y) block
    # [[sxx, sxy + i/2], [sxy - i/2, syy]], then the baths and loss ports
    vacuum = QuadraturePsds.vacuum()
    modes = [[vacuum if sq is None else input_quadrature_psds(sq, th)]
             + [vacuum] * (m - 1) for sq, th in zip(squeezes, thetas.tolist())]
    syy, sxx, sxy = np.array([[(p.syy, p.sxx, p.sxy) for p in ps]
                              for ps in modes]).transpose(2, 0, 1)
    r = np.arange(m)
    cov = np.zeros((c, 4 * m, 4 * m), dtype=complex)
    cov[:, r, r] = sxx
    cov[:, r, m + r] = sxy + 0.5j
    cov[:, m + r, r] = sxy - 0.5j
    cov[:, m + r, m + r] = syy
    cov[:, 2 * m + r, 2 * m + r] = [[K_B * s.oscillator.temperature
                                     / (HBAR * s.oscillator.omega0)
                                     for s in a.sensors] for a in arrays]
    cov[:, 3 * m + r, 3 * m + r] = 0.5

    fields = (w_in, rows[..., :n_freq], rows[..., n_freq:], cov)
    if single:
        fields = [f[0] for f in fields]
    return TransferAssembly(*fields, n_sensors=m)


def _quadratic_form(row: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return np.einsum("...cw,...cd,...dw->...w", row, cov, np.conj(row))


def propagate_covariance(assembly: TransferAssembly):
    """Symmetrized output PSD: average of the +-omega Hermitian forms."""
    s_pos = _quadratic_form(assembly.row_pos, assembly.input_cov)
    s_neg = _quadratic_form(assembly.row_neg, assembly.input_cov)
    out = 0.5 * (s_pos + s_neg)
    if np.any(np.max(np.abs(np.imag(out)), axis=-1)
              > 1e-10 * (np.max(np.abs(out), axis=-1) + 1e-300)):
        raise ConfigError("oracle quadratic form produced a non-real PSD")
    return np.real(out)


def oracle_noise_psd(arr, omega, squeeze: SqueezedInput | None = None,
                     *, theta=0.0):
    """Convenience wrapper: assemble and propagate in one call.

    For a sequence of C arrays (see ``assemble_transfer``) the result is
    (C, n), one row per array, from one batched pass.
    """
    assembly = assemble_transfer(arr, omega, squeeze, theta=theta)
    return _scalarize(propagate_covariance(assembly), omega)

