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
commutator part that cancels under symmetrization), the squeezed bright
mode carries diag(e^{2r}, e^{-2r})/2 rotated by the squeezing angle plus
the same commutator, the mechanical momentum inputs carry
K_B T/(hbar Omega) and the loss ports 1/2.  The oracle derives these
itself; it shares only the per-sensor response kernel with the closed
forms.

A batch of arrays of any sensor counts is one pass over their
``ArrayBatch`` block: every array is padded to the block's width with zero
weights, so its padded slots have zero transfer rows, the beam-splitter
matrices (real orthogonal, as the weights are real) are one batched
Householder completion, and each array's quadratic form is one matmul.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B
from .errors import ConfigError
from .spectra import (_ANGLE_RULES, SqueezedInput, _check, _scalarize,
                      sensor_response)
from .arrays import _DIVIDING_RULE, _as_batch, _real_weights, _sum_sq

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

    ``rows`` maps the stacked input vector
    [X_0..X_{M-1}, Y_0..Y_{M-1}, P_0..P_{M-1}, L_0..L_{M-1}] to the combined
    estimator; its shape is (4M, 2n), columns [:n] at +omega and [n:] at
    -omega.  ``input_cov`` is the Hermitian spectral covariance of that
    vector.  An assembly of a batch of C arrays carries a leading axis of
    length C on every field, and M is the batch's largest sensor count.
    """

    omega: np.ndarray
    rows: np.ndarray
    input_cov: np.ndarray
    n_sensors: int


def complete_unitary(columns) -> np.ndarray:
    """Complete real unit columns (..., m) to (..., m, m) orthogonal matrices.

    Each column w is mapped to e_0 by one Householder reflection
    U = I - 2 v v^T / |v|^2, v = w + s e_0 with s = -1 where w_0 < 0 and
    +1 otherwise (Golub & Van Loan, Matrix Computations, sec. 5.1): |v|^2 =
    2 (1 + |w_0|) stays away from zero and depends on w_0 alone, so padding
    a column does not change its bits.  Column 0 of U, -s w, is set to w.
    The batch is one broadcast; a zero-padded column gives block-diag(U, I)
    with exact zeros and ones, so a padded slot never mixes with a real one.
    The idle columns are arbitrary: the tests assert that no output depends
    on them.
    """
    w = _real_weights(columns, "dividing column")
    _check((_DIVIDING_RULE,), {"dividing": _sum_sq(w)})
    w0 = w[..., 0]
    v = w.copy()
    v[..., 0] += np.where(w0 < 0.0, -1.0, 1.0)
    scale = 1.0 / (1.0 + np.abs(w0))
    u = np.eye(w.shape[-1]) - v[..., :, None] * (
        v[..., None, :] * scale[..., None, None])
    u[..., :, 0] = w
    return u


def _bright_mode_psds(squeezes, thetas):
    """(sxx, syy, sxy), each (C,): R diag(e^{2r}, e^{-2r}) R^T / 2 with R the
    rotation by theta, exact vacuum for a None squeeze.  e^{+-2r} come from
    the scalar ``math.exp``, as in the closed forms: at small r, sxy's
    e^{2r} - e^{-2r} would turn a vector exp's last-bit difference into
    several ulp."""
    _check(_ANGLE_RULES, {"angle": thetas})
    vacuum = np.array([sq is None for sq in squeezes])
    ep, em = np.array([(1.0, 1.0) if sq is None else
                       (math.exp(2.0 * sq.r), math.exp(-2.0 * sq.r))
                       for sq in squeezes]).T
    th = np.where(vacuum, 0.0, thetas)
    c, s = np.cos(th), np.sin(th)
    return (0.5 * (ep * c * c + em * s * s), 0.5 * (em * c * c + ep * s * s),
            0.5 * c * s * (ep - em))


def assemble_transfer(arr, omega, squeeze: SqueezedInput | None = None,
                      *, theta=0.0) -> TransferAssembly:
    """Build the full transfer rows at +-omega and the input covariance.

    The bright mode 0 carries ``squeeze`` at angle ``theta`` (vacuum when
    ``squeeze`` is None) and the idle modes are vacuum; the beam splitter is
    the Householder completion of the array's dividing column.

    ``arr`` is a ``SensorArray``, or an ``ArrayBatch`` of C arrays of any
    sensor counts with ``omega`` of shape (C, n) and one squeeze and one
    angle per array (a single value is shared); the assembly, which reads
    only the block, then carries the batch axis, every array padded to the
    block's width M.  A padded slot has zero weights, so it has no sensor
    rows, and its idle, bath and loss ports have zero transfer rows.
    """
    batch, w_in, single = _as_batch(arr, omega)
    c, m = batch.dividing.shape
    n_freq = w_in.shape[1]
    squeezes = list(squeeze) if isinstance(squeeze, (list, tuple)) else [squeeze] * c
    if len(squeezes) != c:
        raise ConfigError("a batch needs one squeeze per array")
    thetas = np.broadcast_to(np.asarray(theta, dtype=float), (c,))

    dv, cw, cols = batch.dividing, batch.combining, batch.cols
    # bath PSDs K_B T / (hbar Omega), zero in the padded slots
    bath = np.where(np.arange(m) < batch.n_sensors[:, None],
                    K_B * cols.temperature[..., 0]
                    / (HBAR * cols.omega0[..., 0]), 0.0)

    # One response call for every active sensor of the batch, each on its
    # array's (+omega, -omega) stacked: columns [:n_freq] are the +omega rows
    # and [n_freq:] the -omega rows.
    ci, ni = np.nonzero(cw)
    cols = cols[ci, ni]
    w = np.concatenate([w_in, -w_in], axis=1)
    chi, cmag, half = sensor_response(cols, w[ci], dv[ci, ni, None] ** 2)
    phase = half * half
    # the W_0n-weighted estimator gain h of each active sensor
    wh = cw[ci, ni, None] * (np.conj(half) / chi * np.sqrt(
        HBAR * cols.mass * cols.omega0 / (8.0 * cols.gamma * cmag)))
    # W_0n-weighted X' (rows :m) and Y' (rows m:2m) coefficients, mixed by
    # the beam splitter below, then the bath and loss rows
    rows = np.zeros((c, 4 * m, 2 * n_freq), dtype=complex)
    rows[ci, ni] = wh * (-8.0 * cols.gamma * cmag * phase * chi)
    rows[ci, m + ni] = -wh * phase
    rows[ci, 2 * m + ni] = wh * chi * half * (4.0 * cols.gamma
                                              * np.sqrt(2.0 * cmag))
    rows[ci, 3 * m + ni] = wh * np.sqrt(
        (1.0 - cols.efficiency_sq) / cols.efficiency_sq)

    # Optical input r reaches sensor n through U[n, r]: the X_r row is
    # sum_n U_nr X'_n and the Y_r row sum_n U_nr Y'_n, one real matmul each
    # on the (re, im) interleaved coefficients.
    u_t, xy = complete_unitary(dv).swapaxes(1, 2), rows.view(float)
    xy[:, :m], xy[:, m:2 * m] = u_t @ xy[:, :m], u_t @ xy[:, m:2 * m]

    # input covariance: per optical mode r the Hermitian (X, Y) block
    # [[sxx, sxy + i/2], [sxy - i/2, syy]] (vacuum sxx = syy = 1/2, sxy = 0
    # on the idle modes), then the baths and the loss ports
    sxx, syy, sxy = _bright_mode_psds(squeezes, thetas)
    r = np.arange(m)
    cov = np.zeros((c, 4 * m, 4 * m), dtype=complex)
    cov[:, r, r] = cov[:, m + r, m + r] = cov[:, 3 * m + r, 3 * m + r] = 0.5
    cov[:, r, m + r], cov[:, m + r, r] = 0.5j, -0.5j
    cov[:, 0, 0], cov[:, m, m] = sxx, syy
    cov[:, 0, m], cov[:, m, 0] = sxy + 0.5j, sxy - 0.5j
    cov[:, 2 * m + r, 2 * m + r] = bath

    fields = (w_in, rows, cov)
    if single:
        fields = [f[0] for f in fields]
    return TransferAssembly(*fields, n_sensors=m)


def propagate_covariance(assembly: TransferAssembly):
    """Symmetrized output PSD: the average of the +-omega Hermitian forms
    sum_cd row_c cov_cd conj(row_d), both halves from one matmul."""
    n = assembly.omega.shape[-1]
    # cov @ conj(rows) as conj(conj(cov) @ rows): no conjugate copy of rows
    form = np.conj(assembly.input_cov) @ assembly.rows
    np.conj(form, out=form)
    form *= assembly.rows
    form = form.sum(axis=-2)
    out = 0.5 * (form[..., :n] + form[..., n:])
    if np.any(np.max(np.abs(np.imag(out)), axis=-1)
              > 1e-10 * (np.max(np.abs(out), axis=-1) + 1e-300)):
        raise ConfigError("oracle quadratic form produced a non-real PSD")
    return np.real(out)


def oracle_noise_psd(arr, omega, squeeze: SqueezedInput | None = None,
                     *, theta=0.0):
    """Convenience wrapper: assemble and propagate in one call.

    For an ``ArrayBatch`` of C arrays (see ``assemble_transfer``) the
    result is (C, n), one row per array, from one batched pass.
    """
    assembly = assemble_transfer(arr, omega, squeeze, theta=theta)
    return _scalarize(propagate_covariance(assembly), omega)

