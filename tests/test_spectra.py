"""Single-sensor physics: response functions, quadrature inputs, noise budgets."""

import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import omsense
from omsense.constants import HBAR, K_B, TWO_PI, C_LIGHT
from omsense.errors import ConfigError
from omsense.spectra import (CavityOptics, Oscillator, QuadraturePsds,
                             SqueezedInput, acceleration_asd, displacement_asd,
                             input_quadrature_psds, mechanical_susceptibility,
                             sensor_response)
from conftest import MEMBRANE_POWER as P_MEM, power_for_cooperativity
from reference_paths import (bad_cavity_map, cavity_phase_and_cooperativity,
                             sensor_block, simplified_model_noise_psd,
                             single_sensor_noise_psd, sql_noise_psd,
                             squeezed_noise_closed_form)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# mechanical susceptibility
# ---------------------------------------------------------------------------

def test_susceptibility_dc_limit(membrane_osc):
    chi = mechanical_susceptibility(membrane_osc, 0.0)
    assert chi == pytest.approx(1.0 / membrane_osc.omega0, rel=1e-15)
    assert chi.imag == 0.0


def test_susceptibility_on_resonance(membrane_osc):
    osc = membrane_osc
    chi = mechanical_susceptibility(osc, osc.omega0)
    assert chi == pytest.approx(1j / (2.0 * osc.gamma), rel=1e-12)
    assert abs(chi) == pytest.approx(1.0 / (2.0 * osc.gamma), rel=1e-12)


def test_susceptibility_frozen_value(membrane_osc):
    # frozen from an exact-rational re-evaluation of the same function
    chi = mechanical_susceptibility(membrane_osc, TWO_PI * 1000.0)
    assert chi.real == pytest.approx(1.061032953945969e-04, rel=1e-13)
    assert chi.imag == pytest.approx(7.07355302630646e-14, rel=1e-13)


def test_susceptibility_matches_rational_arithmetic(membrane_osc):
    osc = membrane_osc
    for omega in (TWO_PI * 1000.0, TWO_PI * 313.7, TWO_PI * 5321.0):
        f_om, f_w, f_g = Fraction(osc.omega0), Fraction(omega), Fraction(osc.gamma)
        re = f_om * f_om - f_w * f_w
        im = -2 * f_g * f_w
        den = re * re + im * im
        expect = complex(float(f_om * re / den), float(-f_om * im / den))
        got = mechanical_susceptibility(osc, omega)
        assert got == pytest.approx(expect, rel=1e-14)


def test_susceptibility_conjugation(membrane_osc, rng):
    omegas = rng.uniform(1.0, 1e7, 64)
    chi_p = mechanical_susceptibility(membrane_osc, omegas)
    chi_m = mechanical_susceptibility(membrane_osc, -omegas)
    np.testing.assert_allclose(chi_m, np.conj(chi_p), rtol=1e-15)


# ---------------------------------------------------------------------------
# cooperativity and reflection half phase
# ---------------------------------------------------------------------------

def test_phase_and_cooperativity_dc(membrane_osc, membrane_cav):
    cols = sensor_block(membrane_osc, membrane_cav, P_MEM)
    _, cmag, half = sensor_response(cols, 0.0, 1.0)
    assert half == 1.0
    g_sq = membrane_cav.g0**2 * membrane_cav.intracavity_flux_at(P_MEM)
    expect = 2.0 * g_sq / (membrane_osc.gamma * membrane_cav.kappa)
    assert cmag == pytest.approx(expect, rel=1e-12)
    assert cmag > 0


def test_phase_unit_modulus_and_identity(membrane_osc, membrane_cav, rng):
    # the kernel's real |C| and (1 + iu)/sqrt(1 + u^2) against the complex
    # C_w and the principal square root of e^{i phi}, in ulp, at +-omega
    omegas = np.concatenate([np.geomspace(1.0, 5e9, 400),
                             rng.uniform(1.0, 5e9, 400)])
    cols = sensor_block(membrane_osc, membrane_cav, P_MEM)
    for w in (omegas, -omegas):
        _, cmag, half = sensor_response(cols, w, 0.3)
        phase, coop = cavity_phase_and_cooperativity(membrane_cav, membrane_osc,
                                                     P_MEM, w, 0.3)
        np.testing.assert_allclose(np.abs(half), 1.0, rtol=1e-14)
        assert np.max(np.abs(cmag - np.abs(coop)) / cmag) <= 8 * EPS
        assert np.max(np.abs(half - np.sqrt(phase))) <= 4 * EPS


def test_phase_coop_conjugation(membrane_osc, membrane_cav, rng):
    omegas = rng.uniform(1.0, 1e9, 32)
    cols = sensor_block(membrane_osc, membrane_cav, P_MEM)
    chi_p, c_p, h_p = sensor_response(cols, omegas, 1.0)
    chi_m, c_m, h_m = sensor_response(cols, -omegas, 1.0)
    np.testing.assert_array_equal(chi_m, np.conj(chi_p))
    np.testing.assert_array_equal(c_m, c_p)
    np.testing.assert_array_equal(h_m, np.conj(h_p))


def test_cooperativity_reference_parameters(membrane_osc, membrane_cav):
    # 0.94 GHz cavity, 46 rad/s coupling, 6 mg, 2 mW: |C| stays finite in-band
    omegas = np.geomspace(1.0, 1e8, 50)
    _, cmag, _ = sensor_response(sensor_block(membrane_osc, membrane_cav, P_MEM),
                                 omegas, 1.0)
    assert np.all(np.isfinite(cmag))
    assert cmag[0] == pytest.approx(3.254e7, rel=1e-3)


def test_power_scale_validation(membrane_osc, membrane_cav):
    with pytest.raises(ConfigError, match="power share"):
        single_sensor_noise_psd(membrane_osc, membrane_cav, P_MEM,
                                QuadraturePsds.vacuum(), 1.0, power_scale=-0.5)


# ---------------------------------------------------------------------------
# squeezed inputs
# ---------------------------------------------------------------------------

def test_vacuum_quadratures():
    for theta in (0.0, 0.3, -1.2, math.pi / 2):
        q = input_quadrature_psds(SqueezedInput.vacuum(), theta)
        assert (q.syy, q.sxx, q.sxy) == (0.5, 0.5, 0.0)


def test_ten_db_phase_squeezing():
    q = input_quadrature_psds(SqueezedInput.from_db(10.0), 0.0)
    assert q.syy == pytest.approx(0.05, rel=1e-12)
    assert q.sxx == pytest.approx(5.0, rel=1e-12)
    assert q.sxy == 0.0


def test_photon_number_db_correspondence():
    # 10 dB corresponds to about 2.03 squeezed photons
    ten_db = SqueezedInput.from_db(10.0)
    assert ten_db.photon_number == pytest.approx(2.025, rel=1e-3)
    sq = SqueezedInput.from_photon_number(2.03)
    assert math.exp(-2.0 * sq.r) == pytest.approx(
        1.0 / (math.sqrt(2.03) + math.sqrt(3.03)) ** 2, rel=1e-12)
    assert math.exp(-2.0 * sq.r) == pytest.approx(0.0998, rel=1e-3)


def test_squeezing_roundtrips(rng):
    for _ in range(50):
        r = rng.uniform(0.0, 2.0)
        sq = SqueezedInput(r=r)
        assert SqueezedInput.from_db(sq.db).r == pytest.approx(r, rel=1e-12)
        assert SqueezedInput.from_photon_number(sq.photon_number).r == \
            pytest.approx(r, rel=1e-9, abs=1e-12)


def test_heisenberg_equality(rng):
    # pure squeezed inputs saturate syy*sxx - sxy^2 = 1/4
    for _ in range(200):
        sq = SqueezedInput(r=rng.uniform(0, 1.8))
        q = input_quadrature_psds(sq, rng.uniform(-math.pi, math.pi))
        assert q.syy * q.sxx - q.sxy**2 == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# single-sensor noise budget
# ---------------------------------------------------------------------------

def test_sql_point_reaches_quantum_limit(membrane_osc, membrane_cav):
    osc = membrane_osc
    omega = TWO_PI * 700.0
    chi_abs = abs(mechanical_susceptibility(osc, omega))
    p_star = power_for_cooperativity(osc, membrane_cav, omega,
                                     1.0 / (8.0 * osc.gamma * chi_abs))
    cold = replace(osc, temperature=0.0)
    noise = single_sensor_noise_psd(cold, membrane_cav, p_star,
                                    QuadraturePsds.vacuum(), omega)
    assert noise == pytest.approx(HBAR * osc.mass * osc.omega0 / chi_abs,
                                  rel=1e-12)


def test_axis_aligned_squeezing_has_no_correlation_term(membrane_osc, membrane_cav):
    osc, cav = membrane_osc, membrane_cav
    omega = TWO_PI * 1500.0
    for theta in (0.0, math.pi / 2):
        q = input_quadrature_psds(SqueezedInput.from_db(8.0), theta)
        assert abs(q.sxy) < 1e-15
        total = single_sensor_noise_psd(osc, cav, P_MEM, q, omega)
        chi_abs = abs(mechanical_susceptibility(osc, omega))
        _, coop = cavity_phase_and_cooperativity(cav, osc, P_MEM, omega)
        cmag = abs(coop)
        manual = (HBAR * osc.mass * osc.omega0 / (8 * osc.gamma * cmag * chi_abs**2)
                  * q.syy
                  + 8 * HBAR * osc.mass * osc.gamma * osc.omega0 * cmag * q.sxx
                  + 4 * osc.mass * osc.gamma * K_B * osc.temperature)
        assert total == pytest.approx(manual, rel=1e-12)


def test_zero_cooperativity_rejected(membrane_osc, membrane_cav):
    with pytest.raises(ConfigError):
        single_sensor_noise_psd(membrane_osc, membrane_cav, 0.0,
                                QuadraturePsds.vacuum(), TWO_PI * 100.0)


def test_sensor_response_is_the_only_response_kernel():
    # A second home of the cooperativity or half-phase formula would be a
    # second copy of the per-sensor response, free to skip or reword its
    # readout checks.  |C_w| needs a cavity's E^2 (``.intracavity_flux``)
    # and both formulas u = 2 w / kappa (a division by ``.kappa``).
    sources = sorted(Path(omsense.__file__).parent.glob("*.py"))
    homes = []
    for path in sources:
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            flux = (isinstance(node, ast.Attribute)
                    and node.attr == "intracavity_flux")
            over_kappa = (isinstance(node, ast.BinOp)
                          and isinstance(node.op, ast.Div)
                          and getattr(node.right, "attr", None) == "kappa")
            if flux or over_kappa:
                scope = parent[node]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                homes.append((path.name, getattr(scope, "name", None),
                              "E^2" if flux else "u"))
    assert sorted(homes) == [("spectra.py", "sensor_response", "E^2"),
                             ("spectra.py", "sensor_response", "u")]
    text = "".join(path.read_text() for path in sources)
    assert text.count("zero optomechanical cooperativity") == 1
    assert text.count("eta^2 = 0") == 1


def test_loss_monotonicity(membrane_osc, membrane_cav):
    omega = TWO_PI * 800.0
    totals = []
    for eta_sq in (1.0, 0.95, 0.9, 0.8, 0.6, 0.4):
        cav = replace(membrane_cav, efficiency_sq=eta_sq)
        totals.append(single_sensor_noise_psd(membrane_osc, cav, P_MEM,
                                              QuadraturePsds.vacuum(), omega))
    assert all(b > a for a, b in zip(totals, totals[1:]))


# ---------------------------------------------------------------------------
# squeezed closed form
# ---------------------------------------------------------------------------

def test_squeezed_form_reduces_to_vacuum(membrane_osc, membrane_cav):
    omega = TWO_PI * 2800.0
    vac = single_sensor_noise_psd(membrane_osc, membrane_cav, P_MEM,
                                  QuadraturePsds.vacuum(), omega)
    sq = squeezed_noise_closed_form(membrane_osc, membrane_cav, P_MEM, 0.0, 0.4,
                                    omega)
    assert sq == pytest.approx(vac, rel=1e-12)


def test_squeezed_factorization_random(membrane_osc, rng):
    # same budget via two factorizations: closed form vs generic quadratures
    for _ in range(1000):
        osc = Oscillator.from_quality(
            mass=6e-6 * rng.uniform(0.1, 10), omega0=TWO_PI * rng.uniform(200, 2e4),
            quality=10 ** rng.uniform(6, 9), temperature=rng.uniform(0, 0.1))
        kappa = 10 ** rng.uniform(8, 10)
        # power before eta^2: the seeded draw order fixes the cases
        readout, g0 = kappa * rng.uniform(0.5, 1.0), 46.0 * rng.uniform(0.1, 10)
        power = 10 ** rng.uniform(-5, -1)
        cav = CavityOptics.from_wavelength(
            kappa=kappa, kappa_readout=readout, g0=g0, wavelength=1.06e-6,
            efficiency_sq=rng.uniform(0.7, 1.0))
        r = rng.uniform(0.0, 15.0) * math.log(10.0) / 20.0  # up to 15 dB
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        omega = osc.omega0 * 10 ** rng.uniform(-2, 2)
        closed = squeezed_noise_closed_form(osc, cav, power, r, theta, omega)
        generic = single_sensor_noise_psd(
            osc, cav, power, input_quadrature_psds(SqueezedInput(r=r), theta), omega)
        assert closed == pytest.approx(generic, rel=1e-12)


def test_optimal_angle_minimizes_anti_squeezed_coefficient(membrane_osc,
                                                           membrane_cav):
    # golden-section scan over theta confirms the e^{+2r} coefficient minimum
    from omsense.arrays import (ArrayNoise, optimal_squeezing_angle,
                                single_sensor_array)
    arr = single_sensor_array(membrane_osc, membrane_cav, P_MEM)
    r = SqueezedInput.from_db(10.0).r
    for omega in (TWO_PI * 300.0, TWO_PI * 1402.0, TWO_PI * 3500.0):
        noise = ArrayNoise(arr, omega)
        theta_star = optimal_squeezing_angle(arr, omega)
        assert theta_star == optimal_squeezing_angle(arr, omega)
        # |A sin t + B cos t|^2 e^{2r} / 2 from the coherent sums A, B
        a, b = noise.a[0], noise.b[0]

        def anti(theta):
            return (0.5 * abs(a * math.sin(theta) + b * math.cos(theta)) ** 2
                    * math.exp(2.0 * r))

        lo, hi = theta_star - 0.5, theta_star + 0.5
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(80):
            if anti(c) < anti(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        best = 0.5 * (a + b)
        scale = anti(theta_star) + anti(best)
        assert anti(theta_star) <= anti(best) * (1 + 1e-6) + 1e-12 * scale


def test_squeezed_below_classical_where_optical_dominates(membrane_osc,
                                                          membrane_cav):
    from omsense.arrays import ArrayNoise, single_sensor_array
    arr = single_sensor_array(membrane_osc, membrane_cav, P_MEM)
    omegas = np.geomspace(membrane_osc.omega0 / 1e3, membrane_osc.omega0 * 1e3, 301)
    noise = ArrayNoise(arr, omegas)
    vac = noise.breakdown(QuadraturePsds.vacuum())
    [sq] = noise.totals([SqueezedInput.from_db(10.0, angle_policy="optimal")])
    optical = vac.shot + vac.back_action + vac.correlation
    dominated = optical > vac.thermal
    assert np.all(sq[dominated] <= vac.total[dominated])


# ---------------------------------------------------------------------------
# standard quantum limit
# ---------------------------------------------------------------------------

def test_sql_on_resonance(membrane_osc):
    osc = membrane_osc
    # |chi(Omega)| = 1/(2 gamma) so the optical floor is 2 hbar m Omega gamma
    assert sql_noise_psd(osc, osc.omega0) == pytest.approx(
        2.0 * HBAR * osc.mass * osc.omega0 * osc.gamma, rel=1e-12)


def test_sql_dc(membrane_osc):
    osc = membrane_osc
    assert sql_noise_psd(osc, 0.0) == pytest.approx(
        HBAR * osc.mass * osc.omega0**2, rel=1e-12)


def test_sql_high_frequency_asymptote(membrane_osc):
    osc = membrane_osc
    omega = 1e4 * osc.omega0
    assert sql_noise_psd(osc, omega) == pytest.approx(
        HBAR * osc.mass * omega**2, rel=1e-6)


def test_sql_optimality_golden_section(membrane_osc, membrane_cav, rng):
    osc_t, cav = membrane_osc, membrane_cav
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(10):
        osc = Oscillator.from_quality(
            mass=osc_t.mass * rng.uniform(0.2, 5),
            omega0=osc_t.omega0 * rng.uniform(0.2, 5),
            quality=10 ** rng.uniform(6, 9), temperature=0.0)
        omega = osc.omega0 * 10 ** rng.uniform(-1.5, 1.5)
        chi_abs = abs(mechanical_susceptibility(osc, omega))

        def optical(log_p):
            return single_sensor_noise_psd(osc, cav, math.exp(log_p),
                                           QuadraturePsds.vacuum(), omega)

        a, b = math.log(1e-9), math.log(10.0)
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(120):
            if optical(c) < optical(d):
                b, d = d, c
                c = b - invphi * (b - a)
            else:
                a, c = c, d
                d = a + invphi * (b - a)
        p_star = math.exp(0.5 * (a + b))
        best = optical(math.log(p_star))
        assert best == pytest.approx(HBAR * osc.mass * osc.omega0 / chi_abs,
                                     rel=1e-6)
        _, coop = cavity_phase_and_cooperativity(cav, osc, p_star, omega)
        assert abs(coop) == pytest.approx(1.0 / (8.0 * osc.gamma * chi_abs),
                                          rel=1e-4)


# ---------------------------------------------------------------------------
# simplified mirror model and bad-cavity correspondence
# ---------------------------------------------------------------------------

def test_simplified_model_vacuum_structure(membrane_osc):
    osc = membrane_osc
    zeta = 2.0 * TWO_PI * C_LIGHT / 1.06e-6 / C_LIGHT
    e0 = 1e8
    omega = TWO_PI * 1300.0
    got = simplified_model_noise_psd(zeta, e0, 1.0, osc,
                                     QuadraturePsds.vacuum(), omega)
    chi_abs = abs(mechanical_susceptibility(osc, omega))
    b_sq = (osc.mass * osc.omega0)**2 / (2.0 * e0**2 * zeta**2 * chi_abs**2)
    kappa_p = HBAR * zeta
    expect = (4 * osc.mass * osc.gamma * K_B * osc.temperature
              + 0.5 * b_sq + kappa_p**2 * e0**2)
    assert got == pytest.approx(expect, rel=1e-12)


def test_simplified_model_field_scaling(membrane_osc):
    osc = membrane_osc
    zeta, omega = 4e7 / C_LIGHT, TWO_PI * 900.0
    vac = QuadraturePsds.vacuum()

    def parts(e0):
        chi_abs = abs(mechanical_susceptibility(osc, omega))
        shot = (osc.mass * osc.omega0)**2 / (2 * e0**2 * zeta**2 * chi_abs**2) * 0.5
        ba = (HBAR * zeta)**2 * e0**2
        return shot, ba

    s1, b1 = parts(1e7)
    s2, b2 = parts(2e7)
    assert s2 == pytest.approx(s1 / 4.0, rel=1e-12)
    assert b2 == pytest.approx(4.0 * b1, rel=1e-12)
    # and the assembled totals obey the same scalings with T = 0
    cold = Oscillator(osc.mass, osc.omega0, osc.gamma, 0.0)
    t1 = simplified_model_noise_psd(zeta, 1e7, 1.0, cold, vac, omega)
    t2 = simplified_model_noise_psd(zeta, 2e7, 1.0, cold, vac, omega)
    assert t1 == pytest.approx(s1 + b1, rel=1e-12)
    assert t2 == pytest.approx(s2 + b2, rel=1e-12)


@pytest.mark.parametrize("eta_sq", [1.0, 0.81])
def test_bad_cavity_correspondence(membrane_osc, membrane_cav, eta_sq):
    # kappa/Omega ~ 7.5e4: simplified and cavity budgets agree to 1 percent
    osc = membrane_osc
    cav = replace(membrane_cav, efficiency_sq=eta_sq)
    zeta, e0 = bad_cavity_map(cav, P_MEM, osc)
    eta = math.sqrt(eta_sq)
    omegas = np.geomspace(osc.omega0 / 10.0, cav.kappa / 100.0, 40)
    for inp in (QuadraturePsds.vacuum(),
                input_quadrature_psds(SqueezedInput.from_db(10.0), -0.7)):
        cavity = single_sensor_noise_psd(osc, cav, P_MEM, inp, omegas)
        simple = simplified_model_noise_psd(zeta, e0, eta, osc, inp, omegas)
        np.testing.assert_allclose(simple, cavity, rtol=1e-2)


def test_bad_cavity_map_identities(membrane_osc, membrane_cav):
    osc = membrane_osc
    # Fabry-Perot identity: both routes agree when g0 is geometric
    g0_geo = membrane_cav.g0_from_geometry(osc)
    cav = replace(membrane_cav, g0=g0_geo)
    zeta_len, _ = bad_cavity_map(cav, P_MEM, osc)
    zeta_g0, _ = bad_cavity_map(replace(cav, length=None), P_MEM, osc)
    assert zeta_g0 == pytest.approx(zeta_len, rel=1e-12)
    assert zeta_len == pytest.approx(4.0 * cav.laser_omega / (cav.length * cav.kappa),
                                     rel=1e-12)


def test_bad_cavity_free_space_factor_two(membrane_cav):
    # window limit kappa = c/L gives zeta = 4 Omega_L/c, twice the mirror model
    cav = CavityOptics(kappa=C_LIGHT / membrane_cav.length,
                       kappa_readout=C_LIGHT / membrane_cav.length,
                       g0=membrane_cav.g0, laser_omega=membrane_cav.laser_omega,
                       length=membrane_cav.length)
    zeta, _ = bad_cavity_map(cav, P_MEM)  # length route: the Fabry-Perot identity
    mirror_zeta = 2.0 * cav.laser_omega / C_LIGHT
    assert zeta == pytest.approx(2.0 * mirror_zeta, rel=1e-12)


def test_bad_cavity_map_warns_for_slow_cavity(membrane_osc, membrane_cav):
    cav = replace(membrane_cav, kappa=10.0 * membrane_osc.omega0,
                  kappa_readout=10.0 * membrane_osc.omega0)
    with pytest.warns(UserWarning):
        bad_cavity_map(cav, P_MEM, membrane_osc)


def test_simplified_model_rejects_dark_input(membrane_osc):
    with pytest.raises(ConfigError):
        simplified_model_noise_psd(1e-1, 0.0, 1.0, membrane_osc,
                                   QuadraturePsds.vacuum(), 1e3)


# ---------------------------------------------------------------------------
# parameter validation and helpers
# ---------------------------------------------------------------------------

def test_oscillator_validation():
    with pytest.raises(ConfigError):
        Oscillator(mass=-1.0, omega0=1.0, gamma=0.1)
    with pytest.raises(ConfigError):
        Oscillator(mass=1.0, omega0=1.0, gamma=0.0)
    osc = Oscillator.from_quality(1e-6, TWO_PI * 1e3, 1e6)
    assert osc.quality == pytest.approx(1e6, rel=1e-12)
    full = Oscillator.from_quality(1e-6, TWO_PI * 1e3, 1e6,
                                   gamma_convention="full")
    assert full.gamma == pytest.approx(2.0 * osc.gamma, rel=1e-12)


def test_cavity_validation():
    with pytest.raises(ConfigError):
        CavityOptics(kappa=1.0, kappa_readout=2.0, g0=1.0, laser_omega=1.0)
    with pytest.raises(ConfigError):
        CavityOptics(kappa=1.0, kappa_readout=1.0, g0=1.0, laser_omega=1.0,
                     efficiency_sq=1.5)


@pytest.mark.parametrize("args", [(0.5, 0.5, math.nan), (math.inf, 0.5),
                                  (0.5, math.nan), (0.5, 0.5, -math.inf),
                                  (0.0, 0.5), (0.5, -1.0)])
def test_quadrature_psds_reject_non_finite_and_non_positive(args):
    with pytest.raises(ConfigError, match="quadrature"):
        QuadraturePsds(*args)


_SHARED_RULE_MESSAGES = (
    "oscillator mass must be finite and positive",
    "resonance must be finite and positive",
    "damping must be finite and positive",
    "temperature must be finite and >= 0",
    "need 0 < kappa_readout <= kappa, both finite",
    "efficiency^2 must lie in [0,1]",
    "g0 must be finite and >= 0",
    "laser frequency must be finite and positive",
    "dividing and combining weights must be finite",
    "dividing weights must satisfy sum |w_k0|^2 = 1",
    "combining weights must satisfy sum |W_0k|^2 = 1",
    "total power must be finite and >= 0",
    # the sensitivity layer: dark-matter model, drive, projection, plan,
    # calibration, frequency grid and quadrature tolerance
    "coupling must be finite",
    "material factor must be finite and >= 0",
    "rho_dm must be finite and positive",
    "Compton frequency must be finite and positive",
    "coherence linewidth must be finite and positive",
    "linewidth fraction must be finite and positive",
    "noise PSD must be positive and finite",
    "drive PSD must be finite and positive",
    "observation duration must be finite and positive",
    "integration time must be finite and positive",
    "SNR threshold must be finite and positive",
    "calibration needs a finite positive acceleration",
    "calibration needs a finite positive coupling",
    "calibration needs a finite positive mass",
    "need 0 < span minimum < span maximum, both finite",
    "resonance must lie inside the span",
    "resonance linewidth must be finite and positive",
    "linewidth too small to separate from its resonance",
    "relative tolerance must be finite and positive",
)


def test_each_validation_rule_has_one_home():
    # A record and a parameter block that each spelled out a rule would be
    # two definitions of a valid sensor, free to drift apart.  Implicitly
    # concatenated literals are one string constant to the parser, so each
    # message is counted over the package's string constants.
    sources = sorted(Path(omsense.__file__).parent.glob("*.py"))
    strings = [node.value for path in sources
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for message in _SHARED_RULE_MESSAGES:
        assert sum(s.count(message) for s in strings) == 1, message


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export; every other module imports to use.
    unused = []
    for path in sorted(Path(omsense.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(imported - used)]
    assert unused == []


def test_unit_helpers(membrane_osc, membrane_cav):
    omega = membrane_osc.omega0
    total = single_sensor_noise_psd(membrane_osc, membrane_cav, P_MEM,
                                    QuadraturePsds.vacuum(), omega)
    acc = acceleration_asd(membrane_osc, total)
    assert acc == pytest.approx(math.sqrt(total) / membrane_osc.mass, rel=1e-12)
    disp = displacement_asd(membrane_osc, omega, total)
    chi_abs = abs(mechanical_susceptibility(membrane_osc, omega))
    assert disp == pytest.approx(math.sqrt(total) * chi_abs
                                 / (membrane_osc.mass * membrane_osc.omega0),
                                 rel=1e-12)
