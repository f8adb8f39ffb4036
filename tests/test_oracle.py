"""Covariance-propagation verifier: assembly, propagation, invariances."""

import math
from dataclasses import replace

import numpy as np
import pytest

from omsense.constants import HBAR, K_B, TWO_PI
from omsense.errors import ConfigError
from omsense.spectra import (QuadraturePsds, SqueezedInput,
                             input_quadrature_psds, mechanical_susceptibility)
from omsense.arrays import (ArrayBatch, SensorArray, array_noise_psd,
                            array_sql_psd, identical_array, matched_weights,
                            optimal_squeezing_angle, single_sensor_array)
from omsense.oracle import (assemble_transfer, complete_unitary,
                            oracle_noise_psd, propagate_covariance)
from reference_paths import (cavity_phase_and_cooperativity,
                             idle_contribution_shortcut,
                             independent_squeezers_psd, oracle_breakdown,
                             propagate_covariance_eig, random_array)


def test_single_sensor_reproduces_budget_term_by_term(membrane_osc, membrane_cav):
    arr = single_sensor_array(membrane_osc, membrane_cav)
    omega = np.array([TWO_PI * 850.0])
    squeeze = SqueezedInput.from_db(7.0)
    theta = -0.6
    asm = assemble_transfer(arr, omega, squeeze, theta=theta)
    blocks = oracle_breakdown(asm)

    q = input_quadrature_psds(squeeze, theta)
    chi = mechanical_susceptibility(membrane_osc, omega[0])
    _, coop = cavity_phase_and_cooperativity(membrane_cav, membrane_osc, omega[0])
    cmag = abs(coop)
    m, om, gam = membrane_osc.mass, membrane_osc.omega0, membrane_osc.gamma
    shot = HBAR * m * om / (8 * gam * cmag * abs(chi) ** 2) * q.syy
    back = 8 * HBAR * m * gam * om * cmag * q.sxx
    corr = 2 * HBAR * m * om * chi.real / abs(chi) ** 2 * q.sxy
    thermal = 4 * m * gam * K_B * membrane_osc.temperature

    assert blocks["shot"][0] == pytest.approx(shot, rel=1e-12)
    assert blocks["back_action"][0] == pytest.approx(back, rel=1e-12)
    assert blocks["correlation"][0] == pytest.approx(corr, rel=1e-12)
    assert blocks["thermal"][0] == pytest.approx(thermal, rel=1e-12)
    assert blocks["residual_vacuum"][0] == pytest.approx(0.0, abs=1e-45)
    assert blocks["detection_loss"][0] == pytest.approx(0.0, abs=1e-45)


def test_zero_coupling_raises_under_force_conversion(membrane_osc, membrane_cav):
    arr = single_sensor_array(membrane_osc, membrane_cav)
    dark = SensorArray(arr.sensors, arr.dividing_weights, arr.combining_weights,
                       total_power=0.0)
    with pytest.raises(ConfigError):
        assemble_transfer(dark, np.array([1e3]))


def test_zero_efficiency_raises(membrane_osc, membrane_cav):
    blind = replace(membrane_cav, efficiency_sq=0.0)
    with pytest.raises(ConfigError, match="eta\\^2 = 0"):
        assemble_transfer(single_sensor_array(membrane_osc, blind),
                          np.array([1e3]))


@pytest.mark.parametrize("quantity", [
    lambda arr, w: oracle_noise_psd(arr, w),
    lambda arr, w: array_noise_psd(arr, QuadraturePsds.vacuum(), w).total,
    lambda arr, w: array_sql_psd(arr, w),
    lambda arr, w: optimal_squeezing_angle(arr, w)],
    ids=["oracle_noise_psd", "array_noise_psd", "array_sql_psd",
         "optimal_squeezing_angle"])
def test_scalar_omega_returns_float(membrane_sensor, quantity):
    arr = identical_array(membrane_sensor, 3, power_per_sensor=2e-3)
    omega = TWO_PI * 1500.0
    value = quantity(arr, omega)
    assert type(value) is float
    assert value == quantity(arr, np.array([omega]))[0]


def _unit_columns(rng, c, m):
    w = rng.uniform(0.1, 1.0, (c, m)) + 1j * rng.uniform(-0.2, 0.2, (c, m))
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def test_householder_completion_is_unitary(rng):
    for m in (1, 2, 3, 5, 32):
        w = _unit_columns(rng, 6, m)
        if m > 1:  # a column with w_0 = 0 takes the phase e^{i0} = 1
            w[0, 0] = 0.0
            w[0] /= np.linalg.norm(w[0])
        u = complete_unitary(w)
        assert u.shape == (6, m, m)
        np.testing.assert_array_equal(u[..., 0], w)
        gram = np.conj(u).swapaxes(-1, -2) @ u
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-15 * m
        # each column of the batch completes as it would alone
        np.testing.assert_array_equal(u[2], complete_unitary(w[2]))


def test_zero_padded_column_completes_block_diagonally(rng):
    """A column padded with zeros gives block-diag(U, I) with exact zeros
    and ones, so a padded slot cannot reach a real sensor."""
    for m, pad in ((1, 3), (3, 1), (4, 12)):
        w = _unit_columns(rng, 1, m)[0]
        u = complete_unitary(np.concatenate([w, np.zeros(pad)]))
        np.testing.assert_array_equal(u[:m, :m], complete_unitary(w))
        np.testing.assert_array_equal(u[m:, m:], np.eye(pad))
        assert not np.any(u[:m, m:]) and not np.any(u[m:, :m])


def test_completion_rejects_unnormalized_columns(rng):
    w = _unit_columns(rng, 3, 4)
    w[1] *= 1.0 + 1e-9
    with pytest.raises(ConfigError, match="normalized"):
        complete_unitary(w)


def test_completion_choice_does_not_change_psd(rng):
    arr, db = random_array(rng, 4)
    omega = np.exp(rng.uniform(np.log(1e3), np.log(1e5), 8))
    squeeze = SqueezedInput.from_db(db)
    base = propagate_covariance(assemble_transfer(arr, omega, squeeze, theta=0.4))
    # the same array with its sensors in reverse order: the Householder
    # reflection pivots on another sensor, so the idle columns differ
    p = np.arange(arr.n_sensors)[::-1]
    flipped = SensorArray(tuple(arr.sensors[k] for k in p),
                          arr.dividing_weights[p], arr.combining_weights[p],
                          arr.total_power)
    idle = complete_unitary(arr.dividing_weights)[p, 1:]
    idle_flipped = complete_unitary(flipped.dividing_weights)[:, 1:]
    assert not np.allclose(np.abs(idle_flipped), np.abs(idle))
    alt = propagate_covariance(assemble_transfer(flipped, omega, squeeze,
                                                 theta=0.4))
    np.testing.assert_allclose(alt, base, rtol=1e-12)
    # a uniform idle-mode covariance of any size gives completion-invariant
    # totals, so the idle vacuum itself is checked against the closed form
    closed = array_noise_psd(arr, input_quadrature_psds(squeeze, 0.4), omega)
    np.testing.assert_allclose(base, closed.total, rtol=1e-12)


def test_idle_shortcut_matches_full_assembly(rng):
    for _ in range(10):
        arr, _ = random_array(rng, int(rng.integers(2, 5)))
        omega = np.exp(rng.uniform(np.log(1e3), np.log(1e5), 6))
        asm = assemble_transfer(arr, omega)
        idle = oracle_breakdown(asm)["residual_vacuum"]
        shortcut = idle_contribution_shortcut(arr, omega)
        scale = np.abs(idle) + np.abs(shortcut) + 1e-300
        assert np.max(np.abs(idle - shortcut) / scale) < 1e-10


def test_large_heterogeneous_array_matches_closed_form(rng):
    """M = 32 distinct sensors with squeezed input: every idle column and
    per-sensor row of the assembly enters, well beyond the M <= 4 suite."""
    arr, _ = random_array(rng, 32)
    squeeze = SqueezedInput.from_db(12.0)
    theta = 0.7
    omega = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 50))
    closed = array_noise_psd(arr, input_quadrature_psds(squeeze, theta),
                             omega).total
    orc = oracle_noise_psd(arr, omega, squeeze, theta=theta)
    np.testing.assert_allclose(orc, closed, rtol=1e-9)


def test_eigendecomposition_path(rng):
    arr, db = random_array(rng, 3)
    omega = np.exp(rng.uniform(np.log(1e3), np.log(1e5), 10))
    asm = assemble_transfer(arr, omega, SqueezedInput.from_db(db), theta=-1.1)
    direct = propagate_covariance(asm)
    eig = propagate_covariance_eig(asm)
    np.testing.assert_allclose(eig, direct, rtol=1e-12)


def test_psd_positive(rng):
    for _ in range(15):
        arr, db = random_array(rng, int(rng.integers(1, 5)))
        omega = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 10))
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        psd = oracle_noise_psd(arr, omega, SqueezedInput.from_db(db), theta=theta)
        assert np.all(psd >= 0.0)


def test_trivial_unit_row():
    # a single unit row against vacuum covariance returns 1/2
    from omsense.oracle import TransferAssembly
    m = 1
    row = np.zeros((4 * m, 1), dtype=complex)
    row[m, 0] = 1.0  # the Y quadrature of mode 0
    cov = np.zeros((4 * m, 4 * m), dtype=complex)
    cov[0, 0] = cov[m, m] = 0.5
    cov[0, m], cov[m, 0] = 0.5j, -0.5j
    asm = TransferAssembly(omega=np.array([1.0]),
                           rows=np.concatenate([row, row], axis=1),
                           input_cov=cov, n_sensors=m)
    assert propagate_covariance(asm) == pytest.approx(0.5, rel=1e-15)


def test_dcs_block_diagonal_equals_dqs(membrane_sensor, rng):
    """M independent squeezers, each sensor on its own laser, match the
    distributed squeezer that the oracle propagates."""
    squeeze = SqueezedInput.from_photon_number(2.03)
    theta = -0.35
    for m in (2, 4, 8):
        arr = identical_array(membrane_sensor, m, power_per_sensor=2e-3)
        omegas = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 50))
        dqs = propagate_covariance(assemble_transfer(arr, omegas, squeeze,
                                                     theta=theta))
        dcs = independent_squeezers_psd(arr, squeeze, theta, omegas)
        np.testing.assert_allclose(dcs, dqs, rtol=1e-10)


def _with_idle_sensor(arr, k):
    """``arr`` with sensor k's combining weight zeroed (renormalized)."""
    cw = arr.combining_weights.copy()
    cw[k] = 0.0
    return SensorArray(arr.sensors, arr.dividing_weights,
                       cw / np.linalg.norm(cw), arr.total_power)


def test_batched_oracle_equals_each_single_array_bitwise(rng):
    """Arrays of M = 1, 2, 3, 4 and 16, one with a W = 0 sensor, zero-padded
    into one batch, propagate to exactly the rows of one call per array; no
    padded slot and no W = 0 sensor has a transfer row."""
    arrays = [random_array(rng, m)[0] for m in (1, 2, 3, 4, 16)]
    arrays.append(_with_idle_sensor(random_array(rng, 3)[0], 1))
    block = ArrayBatch.of(arrays)
    c = len(arrays)
    omegas = np.exp(rng.uniform(np.log(1e2), np.log(1e6), (c, 50)))
    squeezes = [None] + [SqueezedInput.from_db(db)
                         for db in rng.uniform(0.0, 15.0, c - 1)]
    thetas = rng.uniform(-math.pi / 2, math.pi / 2, c)
    batch = oracle_noise_psd(block, omegas, squeezes, theta=thetas)
    assert batch.shape == (c, 50)
    for arr, omega, squeeze, theta, row in zip(arrays, omegas, squeezes,
                                               thetas, batch):
        np.testing.assert_array_equal(
            row, oracle_noise_psd(arr, omega, squeeze, theta=theta))
    asm = assemble_transfer(block, omegas, squeezes, theta=thetas)
    assert asm.n_sensors == 16 and np.size(asm.omega) == c * 50
    for i, arr in enumerate(arrays):
        padded = np.arange(16) >= arr.n_sensors
        assert not np.any(asm.rows[i][np.tile(padded, 4)])
    mech = slice(2 * asm.n_sensors, 3 * asm.n_sensors)
    assert not np.any(asm.rows[-1, mech][1])


def test_bright_mode_covariance_matches_input_quadrature_psds(membrane_sensor):
    """The oracle's own squeezed block, diag(e^{2r}, e^{-2r})/2 rotated by
    theta, is the closed forms' input_quadrature_psds to 4 ulp."""
    arr = identical_array(membrane_sensor, 1, power_per_sensor=2e-3)
    grid = [(r, th) for r in np.linspace(0.0, 2.3, 47)
            for th in np.linspace(-math.pi / 2, math.pi / 2, 37)]
    asm = assemble_transfer(ArrayBatch.of([arr] * len(grid)),
                            np.full((len(grid), 1), 1e4),
                            [SqueezedInput(r) for r, _ in grid],
                            theta=[th for _, th in grid])
    cov = asm.input_cov
    assert not np.any(cov.imag[:, [0, 1], [0, 1]])
    block = np.stack([cov[:, 0, 0].real, cov[:, 1, 1].real, cov[:, 0, 1].real,
                      cov[:, 1, 0].real], axis=1)
    ref = np.array([(q.sxx, q.syy, q.sxy, q.sxy) for q in
                    (input_quadrature_psds(SqueezedInput(r), th)
                     for r, th in grid)])
    assert np.all(np.abs(block - ref) <= 4 * np.spacing(np.abs(ref)))
    np.testing.assert_array_equal(cov[:, 0, 1].imag, 0.5)
    np.testing.assert_array_equal(cov[:, 1, 0].imag, -0.5)


def test_batch_rejects_bad_omega_shape(rng):
    arrays = [random_array(rng, 2)[0], random_array(rng, 3)[0]]
    with pytest.raises(ConfigError, match="shape"):
        oracle_noise_psd(ArrayBatch.of(arrays), np.full(5, 1e4), [None, None])
    with pytest.raises(ConfigError, match="SensorArray or an ArrayBatch"):
        oracle_noise_psd(arrays, np.full((2, 5), 1e4), [None, None])
