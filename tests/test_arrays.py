"""Network algebra: weights, combined noise, residual vacuum, array squeezing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from omsense.constants import HBAR, K_B, TWO_PI
from omsense.errors import ConfigError
from omsense.spectra import (CavityOptics, Oscillator, QuadraturePsds,
                             SqueezedInput, input_quadrature_psds,
                             mechanical_susceptibility, sensor_response)
from omsense.arrays import (ArrayBatch, ArrayNoise, ArraySensor,
                            SensorArray, array_noise_psd, array_signal_psd,
                            array_sql_psd, identical_array,
                            inverse_variance_weights, matched_weights,
                            optimal_squeezing_angle, single_sensor_array,
                            uniform_weights)
from omsense.oracle import assemble_transfer, oracle_noise_psd
from reference_paths import (dqs_vs_dcs_report, oracle_breakdown,
                             random_array, residual_vacuum_forms,
                             single_sensor_noise_psd, sql_noise_psd,
                             squeezed_noise_closed_form)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_degenerate_single_sensor_routing(membrane_sensor):
    w = np.array([1.0, 0.0, 0.0], dtype=complex)
    arr = SensorArray((membrane_sensor,) * 3, w, matched_weights(w), 2e-3)
    omega = TWO_PI * 1500.0
    single = single_sensor_noise_psd(membrane_sensor.oscillator,
                                     membrane_sensor.cavity,
                                     QuadraturePsds.vacuum(), omega)
    assert array_noise_psd(arr, QuadraturePsds.vacuum(), omega).total == \
        pytest.approx(single, rel=1e-12)


def test_unnormalized_weights_rejected(membrane_sensor):
    w = np.array([0.9, 0.5], dtype=complex)  # sum |w|^2 = 1.06
    with pytest.raises(ConfigError):
        SensorArray((membrane_sensor,) * 2, w, uniform_weights(2), 4e-3)


@pytest.mark.parametrize("field", ["dividing_weights", "combining_weights"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(rng, field, bad):
    # a NaN passes |norm - 1| > tol, and a NaN combining weight would drop
    # its sensor from the kernel's active set without a word
    arr, _ = random_array(rng, 3)
    weights = {"dividing_weights": arr.dividing_weights.copy(),
               "combining_weights": arr.combining_weights.copy()}
    weights[field][1] = bad
    with pytest.raises(ConfigError, match="finite"):
        SensorArray(arr.sensors, total_power=arr.total_power, **weights)


def test_zero_share_with_nonzero_combining_rejected(membrane_sensor):
    w = np.array([1.0, 0.0], dtype=complex)
    arr = SensorArray((membrane_sensor,) * 2, w, uniform_weights(2), 4e-3)
    with pytest.raises(ConfigError):
        array_noise_psd(arr, QuadraturePsds.vacuum(), TWO_PI * 1000.0)


# ---------------------------------------------------------------------------
# signal PSD
# ---------------------------------------------------------------------------

def test_signal_psd_identical_sensors(membrane_sensor):
    f = 2.5e-17
    for m in (1, 3, 8):
        arr = identical_array(membrane_sensor, m, 2e-3)
        assert array_signal_psd(arr, f) == pytest.approx(m * f * f, rel=1e-12)


def test_signal_psd_alternating_response(membrane_sensor):
    plus = membrane_sensor
    minus = ArraySensor(plus.oscillator, plus.cavity, -1.0)
    w = uniform_weights(4)
    arr = SensorArray((plus, minus, plus, minus), w, uniform_weights(4), 8e-3)
    assert array_signal_psd(arr, 1e-18) == pytest.approx(0.0, abs=1e-60)


# ---------------------------------------------------------------------------
# identity reduction and oracle agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_identical_array_reduces_to_single_sensor(membrane_sensor, m):
    arr = identical_array(membrane_sensor, m, power_per_sensor=2e-3)
    omegas = np.array([TWO_PI * 120.0, TWO_PI * 1999.99, TWO_PI * 2000.0,
                       TWO_PI * 2000.01, TWO_PI * 17000.0])
    inp = input_quadrature_psds(SqueezedInput.from_db(10.0), -0.42)
    single = single_sensor_noise_psd(membrane_sensor.oscillator,
                                     membrane_sensor.cavity, inp, omegas)
    bd = array_noise_psd(arr, inp, omegas)
    np.testing.assert_allclose(bd.total, single, rtol=1e-12)
    assert np.max(np.abs(bd.residual_vacuum) / bd.total) < 1e-12


def test_breakdown_parts_sum_to_total(membrane_sensor, rng):
    arr, db = random_array(rng, 4)
    inp = input_quadrature_psds(SqueezedInput.from_db(db), 0.3)
    bd = array_noise_psd(arr, inp, np.geomspace(1e2, 1e6, 40))
    total = (bd.shot + bd.back_action + bd.correlation + bd.thermal
             + bd.residual_vacuum + bd.detection_loss)
    np.testing.assert_allclose(bd.total, total, rtol=1e-12)


def test_random_arrays_match_oracle(rng):
    for _ in range(25):
        m = int(rng.integers(1, 5))
        arr, db = random_array(rng, m)
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        squeeze = SqueezedInput.from_db(db)
        omegas = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 20))
        closed = array_noise_psd(arr, input_quadrature_psds(squeeze, theta),
                                 omegas).total
        orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
        np.testing.assert_allclose(orc, closed, rtol=1e-9)


# ---------------------------------------------------------------------------
# residual vacuum
# ---------------------------------------------------------------------------

def test_residual_vanishes_for_matched_identical(membrane_sensor):
    arr = identical_array(membrane_sensor, 5, 2e-3)
    omegas = np.geomspace(1e2, 1e6, 30)
    bd = array_noise_psd(arr, QuadraturePsds.vacuum(), omegas)
    res, total = bd.residual_vacuum, bd.total
    assert np.max(np.abs(res) / total) < 1e-12


def test_residual_single_sensor_is_zero(membrane_sensor):
    arr = single_sensor_array(membrane_sensor.oscillator, membrane_sensor.cavity)
    res = array_noise_psd(arr, QuadraturePsds.vacuum(),
                          TWO_PI * 777.0).residual_vacuum
    assert res == pytest.approx(0.0, abs=1e-40)


def test_residual_positive_for_detuned_pair(membrane_sensor):
    other_osc = Oscillator(membrane_sensor.oscillator.mass,
                           1.7 * membrane_sensor.oscillator.omega0,
                           membrane_sensor.oscillator.gamma,
                           membrane_sensor.oscillator.temperature)
    pair = (membrane_sensor, ArraySensor(other_osc, membrane_sensor.cavity, 1.0))
    w = uniform_weights(2)
    arr = SensorArray(pair, w, matched_weights(w), 4e-3)
    omega = TWO_PI * 1234.5
    res = array_noise_psd(arr, QuadraturePsds.vacuum(), omega).residual_vacuum
    assert res > 0.0
    # oracle computes the idle-mode contribution separately: same number
    asm = assemble_transfer(arr, omega)
    idle = oracle_breakdown(asm)["residual_vacuum"]
    assert idle == pytest.approx(res, rel=1e-10)


def test_residual_forms_agree(rng):
    for _ in range(20):
        arr, _ = random_array(rng, int(rng.integers(2, 5)))
        omegas = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 10))
        expanded, delta = residual_vacuum_forms(arr, omegas)
        scale = np.abs(expanded) + np.abs(delta) + 1e-300
        assert np.max(np.abs(expanded - delta) / scale) < 1e-10


# ---------------------------------------------------------------------------
# array squeezing
# ---------------------------------------------------------------------------

def _squeezed_total(arr, r, theta, omega):
    """ArrayNoise total under squeezing r at the fixed angle ``theta``."""
    [total] = ArrayNoise(arr, omega).totals(
        [SqueezedInput(r, "fixed", angle=theta)])
    return total if np.ndim(omega) else float(total[0])


def test_array_squeezed_reduces_to_vacuum_at_r_zero(membrane_sensor, rng):
    arr, _ = random_array(rng, 3)
    omegas = np.geomspace(1e3, 1e5, 15)
    # r = 0 itself takes the vacuum path; at r = 1e-300 the e^{-+2r} factors
    # round to 1 and the squeezed formula must give the vacuum total
    sq = _squeezed_total(arr, 1e-300, 0.7, omegas)
    vac = array_noise_psd(arr, QuadraturePsds.vacuum(), omegas)
    np.testing.assert_allclose(sq, vac.total, rtol=1e-12)


def test_array_squeezed_equals_single_sensor_squeezed(membrane_sensor):
    arr = identical_array(membrane_sensor, 6, power_per_sensor=2e-3)
    r = SqueezedInput.from_db(10.0).r
    omegas = np.geomspace(1e2, 1e6, 25)
    theta = -0.3
    sq = _squeezed_total(arr, r, theta, omegas)
    single = squeezed_noise_closed_form(membrane_sensor.oscillator,
                                        membrane_sensor.cavity, r, theta, omegas)
    np.testing.assert_allclose(sq, single, rtol=1e-12)


def test_array_squeezed_factorization(rng):
    for _ in range(60):
        arr, db = random_array(rng, int(rng.integers(1, 5)))
        r = SqueezedInput.from_db(db).r
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        omega = float(np.exp(rng.uniform(np.log(1e2), np.log(1e6))))
        sq = _squeezed_total(arr, r, theta, omega)
        generic = array_noise_psd(
            arr, input_quadrature_psds(SqueezedInput(r=r), theta), omega)
        assert sq == pytest.approx(generic.total, rel=1e-12)


def test_squeezed_matches_oracle(rng):
    arr, db = random_array(rng, 3)
    squeeze = SqueezedInput.from_db(db)
    theta = -0.9
    omegas = np.exp(rng.uniform(np.log(1e3), np.log(1e5), 12))
    sq = _squeezed_total(arr, squeeze.r, theta, omegas)
    orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
    np.testing.assert_allclose(orc, sq, rtol=1e-9)


# ---------------------------------------------------------------------------
# optimal squeezing angle
# ---------------------------------------------------------------------------

def test_optimal_angle_on_resonance(membrane_sensor):
    arr = identical_array(membrane_sensor, 3, 2e-3)
    theta = optimal_squeezing_angle(arr, membrane_sensor.oscillator.omega0)
    assert theta == pytest.approx(-math.pi / 2, abs=1e-9)


def test_optimal_angle_far_above_resonance(membrane_sensor):
    arr = identical_array(membrane_sensor, 2, 2e-3)
    theta = optimal_squeezing_angle(arr, 300.0 * membrane_sensor.oscillator.omega0)
    assert abs(theta) < 1e-3  # phase squeezing in the shot-noise regime


def test_optimal_angle_range(rng):
    arr, _ = random_array(rng, 3)
    omegas = np.geomspace(1e2, 1e6, 200)
    thetas = optimal_squeezing_angle(arr, omegas)
    assert np.all(thetas > -math.pi / 2 - 1e-12)
    assert np.all(thetas <= math.pi / 2)


def test_optimal_angle_beats_dense_scan(membrane_sensor, rng):
    arr = single_sensor_array(membrane_sensor.oscillator, membrane_sensor.cavity)
    r = SqueezedInput.from_db(10.0).r
    for omega in (TWO_PI * 433.0, TWO_PI * 2551.0, TWO_PI * 11000.0):
        noise = ArrayNoise(arr, omega)
        theta_star = noise.optimal_angle()
        assert theta_star == optimal_squeezing_angle(arr, omega)
        # the e^{+2r} coefficient |A sin t + B cos t|^2 e^{2r} / 2 from the
        # coherent sums A, B
        a, b = noise.a[0], noise.b[0]

        def anti(theta):
            return (0.5 * np.abs(a * np.sin(theta) + b * np.cos(theta)) ** 2
                    * math.exp(2.0 * r))

        scan = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2, 40001)
        assert anti(theta_star) <= np.min(anti(scan)) * (1.0 + 1e-6)
        # the two coefficients sum to (|A|^2 + |B|^2) / 2 at every angle, so
        # the same angle minimizes the squeezed total
        fixed = [SqueezedInput(r, "fixed", angle=float(t))
                 for t in scan[::100]]
        totals = noise.totals([SqueezedInput(r, "optimal")] + fixed)[:, 0]
        assert totals[0] <= np.min(totals[1:]) * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# array SQL
# ---------------------------------------------------------------------------

def test_array_sql_identical_uniform(membrane_sensor):
    arr = identical_array(membrane_sensor, 7, 2e-3)
    omegas = np.geomspace(1e2, 1e6, 20)
    np.testing.assert_allclose(array_sql_psd(arr, omegas),
                               sql_noise_psd(membrane_sensor.oscillator, omegas),
                               rtol=1e-12)


def test_array_sql_zero_weight_collapses(membrane_sensor):
    other_osc = Oscillator(2e-6, TWO_PI * 900.0, TWO_PI * 900.0 / 2e8, 0.01)
    pair = (membrane_sensor, ArraySensor(other_osc, membrane_sensor.cavity, 1.0))
    w = np.array([1.0, 0.0], dtype=complex)
    arr = SensorArray(pair, uniform_weights(2), w, 4e-3)
    omega = TWO_PI * 432.0
    assert array_sql_psd(arr, omega) == pytest.approx(
        sql_noise_psd(membrane_sensor.oscillator, omega), rel=1e-12)


def test_array_sql_equals_the_per_sensor_loop_bitwise(rng):
    """One broadcast over the active sensors, summed in sensor order, gives
    exactly the per-sensor ``+=`` loop, at one frequency too; a W = 0 sensor
    adds nothing."""
    arr, _ = random_array(rng, 10)
    cw = arr.combining_weights.copy()
    cw[2] = 0.0
    arr = SensorArray(arr.sensors, arr.dividing_weights,
                      cw / np.linalg.norm(cw), arr.total_power)
    omegas = np.geomspace(1e2, 1e6, 30)
    wk = np.abs(arr.combining_weights) ** 2
    want = np.zeros(omegas.size)
    for k, s in enumerate(arr.sensors):
        if wk[k] == 0.0:
            continue
        osc = s.oscillator
        chi = mechanical_susceptibility(osc, omegas)
        want += wk[k] * HBAR * osc.mass * osc.omega0 / np.abs(chi)
    np.testing.assert_array_equal(array_sql_psd(arr, omegas), want)
    assert [array_sql_psd(arr, w) for w in omegas.tolist()] == want.tolist()


def test_array_sql_matches_per_sensor_minimization(rng):
    # golden-section over each sensor's coupling reproduces the weighted SQL
    arr, _ = random_array(rng, 3)
    omega = float(np.exp(rng.uniform(np.log(1e3), np.log(1e5))))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def noise_with_g0_scales(scales):
        sensors = []
        for s, scale in zip(arr.sensors, scales):
            sensors.append(ArraySensor(
                s.oscillator, replace(s.cavity, g0=s.cavity.g0 * scale),
                s.response_factor))
        trial = SensorArray(tuple(sensors), arr.dividing_weights,
                            arr.combining_weights, arr.total_power)
        bd = array_noise_psd(trial, QuadraturePsds.vacuum(), omega)
        return bd.total - bd.thermal

    scales = [1.0] * arr.n_sensors
    for k in range(arr.n_sensors):  # separable: one pass per sensor suffices
        a, b = math.log(1e-4), math.log(1e4)
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        while b - a > 1e-10:
            sc, sd = list(scales), list(scales)
            sc[k], sd[k] = math.exp(c), math.exp(d)
            if noise_with_g0_scales(sc) < noise_with_g0_scales(sd):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        scales[k] = math.exp(0.5 * (a + b))
    assert noise_with_g0_scales(scales) == pytest.approx(
        array_sql_psd(arr, omega), rel=1e-4)


# ---------------------------------------------------------------------------
# DQS vs DCS
# ---------------------------------------------------------------------------

def test_dqs_vs_dcs_equal_performance(membrane_sensor, rng):
    arr = identical_array(membrane_sensor, 4, 2e-3)
    omegas = np.exp(rng.uniform(np.log(1e2), np.log(1e6), 50))
    report = dqs_vs_dcs_report(arr, 2.03, omegas)
    assert report.max_rel_deviation < 1e-10
    assert report.photons_per_sensor_dqs == pytest.approx(0.5075, rel=1e-12)
    assert report.photons_per_sensor_dcs == pytest.approx(2.03, rel=1e-12)


def test_dqs_vs_dcs_single_sensor_trivial(membrane_sensor):
    arr = identical_array(membrane_sensor, 1, 2e-3)
    report = dqs_vs_dcs_report(arr, 1.5, np.array([TWO_PI * 500.0]))
    assert report.max_rel_deviation < 1e-12


def test_dqs_vs_dcs_rejects_heterogeneous(membrane_sensor):
    other = ArraySensor(
        Oscillator(1e-6, TWO_PI * 3000.0, TWO_PI * 3000.0 / 2e9, 0.01),
        membrane_sensor.cavity, 1.0)
    w = uniform_weights(2)
    arr = SensorArray((membrane_sensor, other), w, matched_weights(w), 4e-3)
    with pytest.raises(ConfigError):
        dqs_vs_dcs_report(arr, 2.0, np.array([1e3]))


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

def test_global_combining_phase_invariance(rng):
    arr, db = random_array(rng, 4)
    inp = input_quadrature_psds(SqueezedInput.from_db(db), -0.5)
    omegas = np.geomspace(1e3, 1e5, 10)
    base = array_noise_psd(arr, inp, omegas).total
    base_sig = array_signal_psd(arr, 1e-18)
    rotated = SensorArray(arr.sensors, arr.dividing_weights,
                          arr.combining_weights * np.exp(0.7j), arr.total_power)
    np.testing.assert_allclose(array_noise_psd(rotated, inp, omegas).total,
                               base, rtol=1e-12)
    assert array_signal_psd(rotated, 1e-18) == pytest.approx(base_sig, rel=1e-12)


def test_inverse_variance_weights_normalized(membrane_sensor, rng):
    arr, _ = random_array(rng, 3)
    w = inverse_variance_weights(arr.sensors, arr.dividing_weights,
                                 arr.total_power,
                                 arr.sensors[0].oscillator.omega0)
    assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)


def _inverse_variance_reference(sensors, dividing, total_power, omega_ref):
    """The weights from the term-by-term single-sensor budget, per sensor."""
    weights = np.zeros(len(sensors))
    for k, s in enumerate(sensors):
        share = float(np.abs(dividing[k]) ** 2)
        if share:
            cav = replace(s.cavity, input_power=total_power)
            weights[k] = s.response_factor / single_sensor_noise_psd(
                s.oscillator, cav, QuadraturePsds.vacuum(), omega_ref,
                power_scale=share)
    return weights / math.sqrt(float(np.sum(weights**2)))


def test_inverse_variance_weights_match_the_per_sensor_budget(rng):
    for trial in range(60):
        m = 1 + trial % 8
        arr, _ = random_array(rng, m)
        dv = arr.dividing_weights.copy()
        if trial % 4 == 1:
            # one sensor left dark: it gets no weight, the rest renormalize
            dv[rng.integers(m)] = 0.0
            dv /= np.linalg.norm(dv)
        omega_ref = arr.sensors[0].oscillator.omega0 * rng.uniform(0.01, 100.0)
        got = inverse_variance_weights(arr.sensors, dv, arr.total_power,
                                       omega_ref)
        want = _inverse_variance_reference(arr.sensors, dv, arr.total_power,
                                           omega_ref)
        assert np.array_equal(got == 0, want == 0)
        on = want != 0
        assert np.max(np.abs(got[on] - want[on]) / np.abs(want[on])) <= 4e-15


def test_inverse_variance_weights_build_the_kernel_once(monkeypatch, rng):
    builds = []
    init = ArrayNoise.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(ArrayNoise, "__init__", counting)
    arr, _ = random_array(rng, 128)
    w = inverse_variance_weights(arr.sensors, arr.dividing_weights,
                                 arr.total_power,
                                 arr.sensors[0].oscillator.omega0)
    assert len(builds) == 1 and np.all(w != 0)


def test_inverse_variance_weights_vanish_without_light(membrane_sensor):
    with pytest.raises(ConfigError, match="vanished"):
        inverse_variance_weights((membrane_sensor,) * 2, np.zeros(2), 4e-3,
                                 membrane_sensor.oscillator.omega0)


def test_snr_gain_m_and_sensitivity_gain_m_squared(membrane_sensor):
    # noise equal, signal M-fold: SNR gain M, integrated-sensitivity gain M^2
    omega = TWO_PI * 1500.0
    f = 1e-18
    single = identical_array(membrane_sensor, 1, 2e-3)
    s_noise = array_noise_psd(single, QuadraturePsds.vacuum(), omega).total
    s_sig = array_signal_psd(single, f)
    for m in (2, 4, 8, 16):
        arr = identical_array(membrane_sensor, m, 2e-3)
        noise = array_noise_psd(arr, QuadraturePsds.vacuum(), omega).total
        sig = array_signal_psd(arr, f)
        assert noise == pytest.approx(s_noise, rel=1e-12)
        assert sig / s_sig == pytest.approx(m, rel=1e-12)
        snr_gain = (sig / noise) / (s_sig / s_noise)
        assert snr_gain == pytest.approx(m, rel=1e-12)
        assert snr_gain**2 == pytest.approx(m * m, rel=1e-12)


# ---------------------------------------------------------------------------
# grouped kernel: one row per distinct (sensor, optical share)
# ---------------------------------------------------------------------------

def _fresh_membrane(temperature=10e-3):
    """A new ArraySensor equal in value to the ``membrane_sensor`` fixture."""
    osc = Oscillator.from_quality(mass=6e-6, omega0=TWO_PI * 2000.0,
                                  quality=1e9, temperature=temperature)
    cav = CavityOptics.from_wavelength(kappa=0.94e9, kappa_readout=0.94e9,
                                       g0=46.0, wavelength=1.06e-6,
                                       input_power=2e-3, length=1e-3)
    return ArraySensor(oscillator=osc, cavity=cav, response_factor=1.0)


def _two_templates_three_copies(membrane_sensor):
    osc = membrane_sensor.oscillator
    other = ArraySensor(
        Oscillator(osc.mass, 1.7 * osc.omega0, osc.gamma, osc.temperature),
        replace(membrane_sensor.cavity, efficiency_sq=0.9), 1.3)
    sensors = (membrane_sensor,) * 3 + (other,) * 3
    # equal sensors split over shares: template A in shares (1, 1, 2),
    # template B in shares (1, 3, 3) -> not one row, so one row per slot
    dv = np.sqrt(np.array([1.0, 1.0, 2.0, 1.0, 3.0, 3.0]))
    dv = dv / np.linalg.norm(dv)
    cw = np.array([0.2, 0.5, 0.3, 0.6, 0.4, 0.3])
    cw = cw / np.linalg.norm(cw)
    return SensorArray(sensors, dv.astype(complex), cw.astype(complex), 12e-3)


def test_grouped_kernel_partly_collapsed_matches_oracle(membrane_sensor):
    arr = _two_templates_three_copies(membrane_sensor)
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 50)
    assert ArrayNoise(arr, omegas).alpha.shape[0] == 6

    squeeze = SqueezedInput.from_db(8.0)
    theta = -0.6
    closed = array_noise_psd(arr, input_quadrature_psds(squeeze, theta), omegas)
    sq = _squeezed_total(arr, squeeze.r, theta, omegas)
    orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
    np.testing.assert_allclose(closed.total, orc, rtol=1e-9)
    np.testing.assert_allclose(sq, orc, rtol=1e-9)

    expanded, delta = residual_vacuum_forms(arr, omegas)
    np.testing.assert_allclose(expanded, delta, rtol=1e-9)
    assert np.all(expanded > 0.0)


def test_grouped_kernel_equal_sensors_collapse_by_value(membrane_sensor):
    sensors = tuple(_fresh_membrane() for _ in range(16))
    assert len({id(s) for s in sensors}) == 16
    w = uniform_weights(16)
    arr = SensorArray(sensors, w, matched_weights(w), 16 * 2e-3)
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 50)
    assert ArrayNoise(arr, omegas).alpha.shape[0] == 1

    ref = identical_array(membrane_sensor, 16, power_per_sensor=2e-3)
    inp = input_quadrature_psds(SqueezedInput.from_db(10.0), -0.42)
    np.testing.assert_allclose(array_noise_psd(arr, inp, omegas).total,
                               array_noise_psd(ref, inp, omegas).total,
                               rtol=1e-14)
    optimal = [SqueezedInput(1.0, "optimal")]
    np.testing.assert_allclose(ArrayNoise(arr, omegas).totals(optimal),
                               ArrayNoise(ref, omegas).totals(optimal),
                               rtol=1e-14)

    near = (_fresh_membrane(), _fresh_membrane(10e-3 * (1.0 + 1e-12)))
    w2 = uniform_weights(2)
    pair = SensorArray(near, w2, matched_weights(w2), 4e-3)
    assert ArrayNoise(pair, omegas).alpha.shape[0] == 2


@pytest.mark.parametrize("m", [1, 128])
def test_identical_array_reads_one_parameter_row(membrane_sensor, monkeypatch,
                                                 m):
    """Deterministic cost guard: M copies of one sensor record are read once,
    so the collapse stays O(distinct sensors); M equal but distinct records
    are read M times."""
    reads = []
    flux = CavityOptics.intracavity_flux_at

    def counting(self, power):
        reads.append(power)
        return flux(self, power)

    monkeypatch.setattr(CavityOptics, "intracavity_flux_at", counting)
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 30)
    noise = ArrayNoise(identical_array(membrane_sensor, m, 2e-3), omegas)
    assert len(reads) == 1 and noise.alpha.shape[0] == 1
    w = uniform_weights(m)
    fresh = tuple(_fresh_membrane() for _ in range(m))
    ArrayNoise(SensorArray(fresh, w, matched_weights(w), m * 2e-3), omegas)
    assert len(reads) == 1 + m


def test_squeezed_noise_optimal_angle_single_build_is_exact(membrane_sensor, rng):
    """The "optimal" policy squeezes at exactly optimal_squeezing_angle."""
    arrays = [random_array(rng, 3)[0],
              _two_templates_three_copies(membrane_sensor),
              identical_array(membrane_sensor, 5, 2e-3)]
    r = SqueezedInput.from_db(12.0).r
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 50)
    optimal = [SqueezedInput(r, "optimal")]
    for arr in arrays:
        for omega in omegas.tolist()[::7]:
            [[total]] = ArrayNoise(arr, omega).totals(optimal)
            theta = optimal_squeezing_angle(arr, omega)
            assert _squeezed_total(arr, r, theta, omega) == total
        # one frequency at a time rounds the kernel's sums differently
        fixed = [_squeezed_total(arr, r, theta, omega) for omega, theta in
                 zip(omegas.tolist(),
                     optimal_squeezing_angle(arr, omegas).tolist())]
        np.testing.assert_allclose(ArrayNoise(arr, omegas).totals(optimal)[0],
                                   fixed, rtol=1e-13)


def test_noise_totals_match_each_input_bitwise(membrane_sensor, rng):
    """One totals call for several inputs gives exactly the totals of one
    call per input; the vacuum rows (also r = 0 under any policy) are the
    breakdown's total, and the squeezed rows the breakdown under the
    matching quadrature PSDs."""
    r = SqueezedInput.from_db(9.0).r
    inputs = [SqueezedInput.vacuum(), SqueezedInput(r, "optimal"),
              SqueezedInput(r, "fixed", angle=0.7),
              SqueezedInput(0.0, "optimal")]
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 50)
    vac = QuadraturePsds.vacuum()
    for arr in (random_array(rng, 3)[0],
                _two_templates_three_copies(membrane_sensor)):
        noise = ArrayNoise(arr, omegas)
        totals = noise.totals(inputs)
        assert totals.shape == (4, omegas.size)
        for row, inp in zip(totals, inputs):
            np.testing.assert_array_equal(
                row, ArrayNoise(arr, omegas).totals([inp])[0])
        vac_total = array_noise_psd(arr, vac, omegas).total
        np.testing.assert_array_equal(totals[0], vac_total)
        np.testing.assert_array_equal(totals[3], vac_total)
        for row, thetas in ((totals[1], noise.optimal_angle()),
                            (totals[2], np.full(omegas.size, 0.7))):
            want = [array_noise_psd(arr, input_quadrature_psds(
                        SqueezedInput(r), theta), omega).total
                    for omega, theta in zip(omegas.tolist(), thetas.tolist())]
            np.testing.assert_allclose(row, want, rtol=1e-12)


def test_kernel_rows_equal_a_per_group_response_bitwise(membrane_sensor):
    """The one broadcast response call of ArrayNoise gives exactly the rows
    of one sensor_response call per active slot, and the W = 0 slot carries
    zero weights."""
    arr = _two_templates_three_copies(membrane_sensor)
    cw = arr.combining_weights.copy()
    cw[4] = 0.0
    arr = SensorArray(arr.sensors, arr.dividing_weights,
                      cw / np.linalg.norm(cw), arr.total_power)
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 40)
    noise = ArrayNoise(arr, omegas)
    assert noise.alpha.shape == (6, 40)
    assert noise.ww[4, 0] == 0.0 and noise.wabs2[4, 0] == 0.0
    for k in [0, 1, 2, 3, 5]:
        s = arr.sensors[k]
        osc = s.oscillator
        cav = replace(s.cavity, input_power=arr.total_power)
        share = float(np.abs(arr.dividing_weights[k]) ** 2)
        chi, cmag, half = sensor_response(osc, cav, omegas, share)
        hmo = HBAR * osc.mass * osc.omega0
        np.testing.assert_array_equal(
            noise.alpha[k],
            half / (2.0 * chi) * np.sqrt(hmo / (2.0 * osc.gamma * cmag)))
        np.testing.assert_array_equal(
            noise.beta[k], 2.0 * half * np.sqrt(2.0 * hmo * osc.gamma * cmag))
        assert noise.thermal[k, 0] == (4.0 * osc.mass * osc.gamma * K_B
                                       * osc.temperature)
        eta_sq = cav.efficiency_sq
        assert noise.loss_weight[k, 0] == (1.0 - eta_sq) / eta_sq
        assert noise.ww[k, 0] == (arr.combining_weights[k]
                                  * arr.dividing_weights[k])


def test_one_template_with_coinciding_shares_is_one_row_per_slot(
        membrane_sensor):
    """Copies of one template at unequal dividing weights, two of which
    coincide, are not one kernel row: one row per slot, oracle to 1e-9."""
    dv = np.sqrt(np.array([1.0, 2.0, 2.0, 4.0]))
    dv = (dv / np.linalg.norm(dv)).astype(complex)
    arr = SensorArray((membrane_sensor,) * 4, dv, matched_weights(dv), 8e-3)
    omegas = np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 50)
    assert ArrayNoise(arr, omegas).alpha.shape == (4, 50)
    squeeze = SqueezedInput.from_db(8.0)
    theta = -0.6
    closed = array_noise_psd(arr, input_quadrature_psds(squeeze, theta), omegas)
    orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
    np.testing.assert_allclose(closed.total, orc, rtol=1e-9)
    np.testing.assert_allclose(_squeezed_total(arr, squeeze.r, theta, omegas),
                               orc, rtol=1e-9)


# ---------------------------------------------------------------------------
# batches of arrays
# ---------------------------------------------------------------------------

_BREAKDOWN_FIELDS = ("shot", "back_action", "correlation", "thermal",
                     "residual_vacuum", "detection_loss", "total")


def _mixed_batch(membrane_sensor, rng):
    """Arrays of 1 to 16 sensors with 1 to 16 kernel rows: heterogeneous,
    two templates over three shares, identical copies, a W = 0 sensor,
    M = 1."""
    split = _two_templates_three_copies(membrane_sensor)
    cw = split.combining_weights.copy()
    cw[4] = 0.0
    idle = SensorArray(split.sensors, split.dividing_weights,
                       cw / np.linalg.norm(cw), split.total_power)
    return [random_array(rng, 3)[0], split,
            identical_array(membrane_sensor, 5, 2e-3),
            single_sensor_array(membrane_sensor.oscillator,
                                membrane_sensor.cavity),
            idle, random_array(rng, 16)[0]]


@pytest.mark.parametrize("n", [1, 50])
def test_batch_equals_one_build_per_array_bitwise(membrane_sensor, rng, n):
    """Every output of a batch build is, array by array, exactly that of the
    array's own build; rows past an array's own rows carry zero weights."""
    arrs = _mixed_batch(membrane_sensor, rng)
    omegas = np.array([np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, n) * (1 + 0.1 * i)
                       for i in range(len(arrs))])
    r = SqueezedInput.from_db(9.0).r
    inputs = [SqueezedInput.vacuum(), SqueezedInput(r, "optimal"),
              SqueezedInput(r, "fixed", angle=0.7)]
    inps = [input_quadrature_psds(SqueezedInput(r), theta)
            for theta in np.linspace(-1.2, 1.4, len(arrs)).tolist()]
    noise = ArrayNoise(ArrayBatch.of(arrs), omegas)
    breakdown = noise.breakdown(inps)
    totals = noise.totals(inputs)
    assert totals.shape == (len(inputs), len(arrs), n)
    angles, thermal = noise.optimal_angle(), noise.thermal_psd()
    n_rows = []
    for i, (arr, w, inp) in enumerate(zip(arrs, omegas, inps)):
        one = ArrayNoise(arr, w)
        one_breakdown = one.breakdown(inp)
        for field in _BREAKDOWN_FIELDS:
            np.testing.assert_array_equal(getattr(breakdown, field)[i],
                                          getattr(one_breakdown, field))
        np.testing.assert_array_equal(totals[:, i], one.totals(inputs))
        np.testing.assert_array_equal(angles[i], one.optimal_angle())
        np.testing.assert_array_equal(thermal[i], one.thermal_psd())
        g = one.alpha.shape[0]
        np.testing.assert_array_equal(noise.alpha[i, :g], one.alpha)
        np.testing.assert_array_equal(noise.beta[i, :g], one.beta)
        assert not np.any(noise.ww[i, g:]) and not np.any(noise.wabs2[i, g:])
        n_rows.append(g)
    assert n_rows == [3, 6, 1, 1, 6, 16]
    shared = noise.breakdown(QuadraturePsds.vacuum())
    vacuum = noise.breakdown([QuadraturePsds.vacuum()] * len(arrs))
    for field in _BREAKDOWN_FIELDS:
        np.testing.assert_array_equal(getattr(shared, field),
                                      getattr(vacuum, field))


@pytest.mark.parametrize("m", [4, 16])
def test_scalar_frequency_equals_the_same_frequency_in_an_array(rng, m):
    """Kernel rows are summed one by one, so a lone frequency rounds exactly
    like the same frequency inside an array; np.sum pairs the rows up when
    there is one frequency and enough rows."""
    r = SqueezedInput.from_db(9.0).r
    inputs = [SqueezedInput.vacuum(), SqueezedInput(r, "optimal"),
              SqueezedInput(r, "fixed", angle=0.7)]
    inp = input_quadrature_psds(SqueezedInput(r), 0.3)
    for _ in range(10):
        arr = random_array(rng, m)[0]
        omegas = arr.sensors[0].oscillator.omega0 * np.geomspace(0.01, 100, 7)
        noise = ArrayNoise(arr, omegas)
        breakdown = noise.breakdown(inp)
        totals, angles = noise.totals(inputs), noise.optimal_angle()
        for j, omega in enumerate(omegas.tolist()):
            one = ArrayNoise(arr, omega)
            one_breakdown = one.breakdown(inp)
            for field in _BREAKDOWN_FIELDS:
                assert getattr(one_breakdown, field) == getattr(breakdown, field)[j]
            assert one.totals(inputs)[:, 0].tolist() == totals[:, j].tolist()
            assert one.optimal_angle() == angles[j]


def test_batch_of_identical_arrays_is_one_row(membrane_sensor):
    """A block made only of arrays of identical sensors, at different M and
    power, is one kernel row, and each array has the bits of its own build."""
    arrs = [identical_array(membrane_sensor, m, p) for m, p in
            ((1, 2e-3), (5, 1e-3), (16, 4e-3), (128, 3e-4))]
    omegas = np.array([np.geomspace(TWO_PI * 20.0, TWO_PI * 2e5, 30) * (1 + 0.1 * i)
                       for i in range(len(arrs))])
    inputs = [SqueezedInput.vacuum(),
              SqueezedInput(SqueezedInput.from_db(9.0).r, "optimal")]
    inp = input_quadrature_psds(SqueezedInput.from_db(6.0), 0.3)
    noise = ArrayNoise(ArrayBatch.of(arrs), omegas)
    assert noise.alpha.shape == (len(arrs), 1, 30)
    breakdown, totals = noise.breakdown(inp), noise.totals(inputs)
    for i, (arr, w) in enumerate(zip(arrs, omegas)):
        one = ArrayNoise(arr, w)
        one_breakdown = one.breakdown(inp)
        for field in _BREAKDOWN_FIELDS:
            np.testing.assert_array_equal(getattr(breakdown, field)[i],
                                          getattr(one_breakdown, field))
        np.testing.assert_array_equal(totals[:, i], one.totals(inputs))
        np.testing.assert_array_equal(noise.ww[i], one.ww)
        np.testing.assert_array_equal(noise.alpha[i], one.alpha)


def test_batch_rejects_bad_shapes_and_dead_arrays(membrane_sensor):
    arr = identical_array(membrane_sensor, 2, 2e-3)
    w = np.geomspace(1e2, 1e6, 5)
    for arrs, omega in (([], np.empty((0, 5))), ([arr, arr], w),
                        ([arr, arr], np.stack([w] * 3)),
                        ([arr], w[None, :, None])):
        with pytest.raises(ConfigError, match="shape"):
            ArrayNoise(ArrayBatch.of(arrs), omega)
    for arrs in ([arr, arr], (arr,), None):
        with pytest.raises(ConfigError, match="SensorArray or an ArrayBatch"):
            ArrayNoise(arrs, np.stack([w, w]))
    dead = SensorArray(arr.sensors, arr.dividing_weights,
                       arr.combining_weights, arr.total_power)
    object.__setattr__(dead, "combining_weights", np.zeros(2, complex))
    for arrs, omega in ((dead, w), (ArrayBatch.of([arr, dead]), np.stack([w, w]))):
        with pytest.raises(ConfigError, match="vanish"):
            ArrayNoise(arrs, omega)
    pair = ArrayNoise(ArrayBatch.of([arr, arr]), np.stack([w, w]))
    for noise in (pair, ArrayNoise(arr, w)):
        with pytest.raises(ConfigError, match="per array"):
            noise.breakdown([QuadraturePsds.vacuum()] * 3)
