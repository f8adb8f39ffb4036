"""Breakpoints, Gauss-Kronrod integration, SNR law and coupling projections."""

import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from omsense.constants import HBAR, TWO_PI, YEAR_S
from omsense.errors import ConfigError, ConvergenceError
from omsense import scans
from omsense.spectra import Oscillator, QuadraturePsds
from omsense.arrays import array_noise_psd, array_signal_psd, identical_array
from omsense import sensitivity
from omsense.sensitivity import (_G10_WEIGHTS, _K21_NODES, _K21_WEIGHTS,
                                 DarkMatterModel, FrequencyGrid,
                                 ObservationPlan,
                                 calibrate_material_factor,
                                 integrated_sensitivity,
                                 min_detectable_coupling,
                                 resonance_refined_grid)
from omsense.scenario import preset_scenario, scenario_from_dict
from reference_paths import snr_observation, sql_noise_psd


@pytest.fixture
def membrane_grid(membrane_osc):
    return resonance_refined_grid(
        [(membrane_osc.omega0, membrane_osc.gamma)],
        (membrane_osc.omega0 / 1e3, membrane_osc.omega0 * 1e3), tol=1e-3)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_breakpoints_bracket_resonance_by_decades(membrane_osc, membrane_grid):
    """The seed breakpoints are exactly the span ends, omega0 and the
    in-span ladder omega0 +- gamma 10^k: no other grid lies underneath."""
    omega0, gamma = membrane_osc.omega0, membrane_osc.gamma
    lo, hi = membrane_grid.span
    offsets = gamma * 10.0 ** np.arange(20)
    ladder = np.concatenate([omega0 - offsets, omega0 + offsets])
    ladder = ladder[(ladder > lo) & (ladder < hi)]
    assert ladder.size >= 20
    wanted = np.sort(np.concatenate([[lo, omega0, hi], ladder]))
    np.testing.assert_allclose(membrane_grid.nodes, wanted, rtol=1e-14, atol=0)
    assert np.all(np.diff(membrane_grid.nodes) > 0)


def test_grid_without_resonances_is_one_panel():
    grid = resonance_refined_grid([], (1.0, 1e6), tol=1e-3)
    assert grid.nodes.tolist() == [1.0, 1e6]


def test_grid_of_two_resonances_is_the_union_of_their_ladders():
    span = (10.0, 1e6)
    lines = [(1e3, 1e-3), (3e4, 2e-2)]
    union = np.unique(np.concatenate(
        [resonance_refined_grid([line], span).nodes for line in lines]))
    np.testing.assert_array_equal(resonance_refined_grid(lines, span).nodes,
                                  union)


def test_grid_rejects_unresolvable_linewidth():
    with pytest.raises(ConfigError, match="double precision"):
        resonance_refined_grid([(1e4, 1e-13)], (1.0, 1e6), tol=1e-3)


def test_grid_rejects_span_excluding_resonance():
    with pytest.raises(ConfigError):
        resonance_refined_grid([(1e6, 1.0)], (1.0, 1e3), tol=1e-3)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_flat_ratio_integral():
    width = 100.0
    grid = resonance_refined_grid([], (1e-9, width), tol=1e-8)
    res = integrated_sensitivity(3.0, lambda w: np.ones_like(w), grid)
    assert res.value == pytest.approx(9.0 * width / math.pi, rel=1e-8)


def test_sql_integral_matches_closed_form(membrane_osc, membrane_grid):
    """Lorentzian identity: I_SQL = gamma / S_SQL(Omega)^2 under this
    damping convention; the quoted literature constant corresponds to a
    different on-resonance SQL and sits a fixed factor away (16 against the
    half-linewidth reading, 8 against the full-linewidth one)."""
    osc = membrane_osc
    res = integrated_sensitivity(1.0, lambda w: sql_noise_psd(osc, w),
                                 membrane_grid)
    analytic = 1.0 / (4.0 * osc.gamma * (HBAR * osc.mass * osc.omega0) ** 2)
    assert res.value == pytest.approx(analytic, rel=0.05)
    # the identity is exact, so the quadrature should do far better than 5%
    assert res.value == pytest.approx(analytic, rel=1e-4)

    gamma_half = osc.gamma
    paper_const_half = 4 * gamma_half / (HBAR * osc.mass * osc.omega0
                                         * gamma_half) ** 2
    gamma_full = 2.0 * osc.gamma
    paper_const_full = 4 * gamma_full / (HBAR * osc.mass * osc.omega0
                                         * gamma_full) ** 2
    assert paper_const_half / res.value == pytest.approx(16.0, rel=1e-3)
    assert paper_const_full / res.value == pytest.approx(8.0, rel=1e-3)


@pytest.mark.parametrize("quality", [1e3, 1e6, 1e9, 3e9, 1e10])
def test_sql_lorentzian_identity_across_quality(quality):
    """I_SQL = 1/(4 gamma (hbar m Omega)^2) from Q = 1e3 to 1e10; the span
    reaches 1e-6 Omega so that the truncated [0, lo] piece stays below 1e-9
    at Q = 1e3."""
    osc = Oscillator.from_quality(6e-6, TWO_PI * 2000.0, quality, 10e-3)
    grid = resonance_refined_grid([(osc.omega0, osc.gamma)],
                                  (osc.omega0 / 1e6, osc.omega0 * 1e3),
                                  tol=1e-3)
    res = integrated_sensitivity(1.0, lambda w: sql_noise_psd(osc, w), grid)
    analytic = 1.0 / (4.0 * osc.gamma * (HBAR * osc.mass * osc.omega0) ** 2)
    assert res.value == pytest.approx(analytic, rel=1e-6)


def test_kronrod_rule_exact_to_degree_31():
    x, wk, wg = _K21_NODES, _K21_WEIGHTS, _G10_WEIGHTS
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(x[1::2], gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(wg[1::2], gauss_w, rtol=0, atol=1e-15)
    assert np.all(wg[0::2] == 0.0)
    for degree in range(32):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert wk @ x**degree == pytest.approx(exact, abs=1e-15)
    # degree 32 is beyond the rule, so the check above can fail
    assert abs(wk @ x**32 - 2.0 / 33) > 1e-13


def test_preset_integrals_within_evaluation_budget(monkeypatch):
    """Deterministic cost guard: no integral of the fig2, fig5 and fig6
    tables or of a preset's sensitivity report needs over 650 integrand
    evaluations (fig3 and fig4 tabulate no integrals); fig5's lowest
    powers take the most, 609."""
    evaluations = []
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        table = scans.sensitivity_report(scenario_from_dict(preset_scenario(name)))
        evaluations += table["n_evaluations"]

    def recording(*args, **kwargs):
        res = integrated_sensitivity(*args, **kwargs)
        evaluations.append(res.n_evaluations)
        return res

    monkeypatch.setattr(scans, "integrated_sensitivity", recording)
    scans.array_scan_table(scenario_from_dict(preset_scenario("fig2")))
    scans.power_scan_table(scenario_from_dict(preset_scenario("fig5")))
    scans.loss_scan_table(scenario_from_dict(preset_scenario("fig6")))
    # one integral per axis value: its components are the table's inputs
    assert len(evaluations) == 10 + 1 + 11 + 25 + 11
    assert max(evaluations) <= 650


def test_scaling_laws_coherent_and_incoherent(membrane_sensor, membrane_grid):
    single = identical_array(membrane_sensor, 1, 2e-3)

    def noise_fn(arr):
        vac = QuadraturePsds.vacuum()
        return lambda w: array_noise_psd(arr, vac, w).total

    i_one = integrated_sensitivity(array_signal_psd(single), noise_fn(single),
                                   membrane_grid).value
    for m in (2, 4, 8, 16, 32):
        arr = identical_array(membrane_sensor, m, 2e-3)
        i_m = integrated_sensitivity(array_signal_psd(arr), noise_fn(arr),
                                     membrane_grid).value
        assert i_m / i_one == pytest.approx(m * m, rel=1e-6)
        i_incoherent = m * i_one  # independent sensors add at the power level
        assert i_incoherent / i_one == pytest.approx(m, rel=1e-12)


def test_self_convergence_under_tolerance_halving(membrane_osc, membrane_grid):
    noise = lambda w: sql_noise_psd(membrane_osc, w)
    half_grid = FrequencyGrid(nodes=membrane_grid.nodes, tol=5e-4)
    base = integrated_sensitivity(1.0, noise, membrane_grid)
    half = integrated_sensitivity(1.0, noise, half_grid)
    assert abs(half.value - base.value) / base.value < 1e-3


def test_integration_reports_non_convergence(monkeypatch, membrane_osc,
                                            membrane_grid):
    noise = lambda w: sql_noise_psd(membrane_osc, w)
    monkeypatch.setattr(sensitivity, "_MAX_EVALUATIONS", 20_000)
    grid = FrequencyGrid(nodes=membrane_grid.nodes, tol=1e-15)
    with pytest.raises(ConvergenceError, match="within 20000 evaluations"):
        integrated_sensitivity(1.0, noise, grid)


def test_noise_must_be_positive(membrane_grid):
    with pytest.raises(ConfigError):
        integrated_sensitivity(1.0, lambda w: np.zeros_like(w), membrane_grid)


# ---------------------------------------------------------------------------
# vector-valued quadrature
# ---------------------------------------------------------------------------

# A Q = 1e6 line at 1.5 rad/s on the span [1, 2] rad/s.
_W0, _GAMMA = 1.5, 1.5 / 2e6
_LO, _HI = 1.0, 2.0


def _lorentzian_noise(w):
    """Noise whose integrand (1/noise)^2/pi is a unit-height Lorentzian."""
    return np.sqrt((w - _W0) ** 2 + _GAMMA ** 2)


def _lorentzian_integral():
    return (math.atan((_HI - _W0) / _GAMMA)
            - math.atan((_LO - _W0) / _GAMMA)) / (math.pi * _GAMMA)


def test_vector_components_meet_their_closed_forms():
    tol = 1e-6
    grid = resonance_refined_grid([(_W0, _GAMMA)], (_LO, _HI), tol=tol)
    res = integrated_sensitivity(
        1.0, lambda w: np.stack([np.full_like(w, 2.0), _lorentzian_noise(w)]),
        grid)
    assert res.value.shape == res.rel_error.shape == (2,)
    want = [(_HI - _LO) / (4.0 * math.pi), _lorentzian_integral()]
    for value, rel_error, exact in zip(res.value, res.rel_error, want):
        assert rel_error <= tol
        assert value == pytest.approx(exact, rel=tol)
    # (n,) noise is one component
    assert integrated_sensitivity(1.0, _lorentzian_noise, grid).value.shape == (1,)


def test_unrefined_component_sums_over_the_shared_panels(monkeypatch):
    """Only the Lorentzian needs bisection of the one seed panel; the smooth
    1/w^2 component comes out as its scalar integral over the panels that
    the Lorentzian's refinement left."""
    seed = FrequencyGrid(nodes=np.array([_LO, _HI]), tol=1e-6)
    assert integrated_sensitivity(1.0, lambda w: w, seed).rounds == 1

    ends = []
    panel_values = sensitivity._panel_values

    def recording(f, a, b):
        ends.extend([a, b])
        return panel_values(f, a, b)

    line = integrated_sensitivity(1.0, _lorentzian_noise, seed)
    monkeypatch.setattr(sensitivity, "_panel_values", recording)
    res = integrated_sensitivity(
        1.0, lambda w: np.stack([w, _lorentzian_noise(w)]), seed)
    assert res.rounds > 1 and res.n_panels > 1
    # the line drives every bisection, as it does when integrated alone
    assert (res.n_panels, res.rounds) == (line.n_panels, line.rounds)
    assert res.value[1] == pytest.approx(_lorentzian_integral(), rel=1e-6)

    refined = FrequencyGrid(nodes=np.unique(np.concatenate(ends)), tol=1.0)
    assert refined.nodes.size == res.n_panels + 1
    smooth = integrated_sensitivity(1.0, lambda w: w, refined)
    assert smooth.rounds == 1
    assert res.value[0] == pytest.approx(smooth.value[0], rel=1e-14)


# ---------------------------------------------------------------------------
# SNR over an observation run
# ---------------------------------------------------------------------------

def test_snr_unit_case():
    plan = ObservationPlan(duration=1.0 / 0.01)
    assert snr_observation(1e-30, 1e-30, 0.01, plan) == pytest.approx(1.0)


def test_snr_scales_with_sqrt_duration():
    lw = 0.05
    snr1 = snr_observation(2e-30, 1e-30, lw, ObservationPlan(duration=1e6))
    snr4 = snr_observation(2e-30, 1e-30, lw, ObservationPlan(duration=4e6))
    assert snr4 == pytest.approx(2.0 * snr1, rel=1e-12)


def test_plan_warns_on_long_integration_time():
    plan = ObservationPlan(duration=1e7, integration_time=1e4)
    with pytest.warns(UserWarning, match="coherence time"):
        notes = plan.check(linewidth=0.01)  # 1/Delta_a = 100 s << T_int
    assert notes


def test_plan_warns_when_averaging_law_invalid():
    plan = ObservationPlan(duration=10.0)
    with pytest.warns(UserWarning, match="averaging law"):
        plan.check(linewidth=0.001)


# ---------------------------------------------------------------------------
# minimum detectable coupling
# ---------------------------------------------------------------------------

def _dm(material=2.5e15):
    return DarkMatterModel(coupling=1e-24, material_factor=material,
                           compton_omega=TWO_PI * 2000.0)


@pytest.mark.parametrize("field,value", [
    ("coupling", math.nan), ("coupling", math.inf),
    ("material_factor", math.nan), ("material_factor", math.inf),
    ("material_factor", -1.0), ("rho_dm", math.nan), ("rho_dm", 0.0),
    ("compton_omega", math.nan), ("compton_omega", -math.inf)])
def test_dark_matter_model_rejects_non_finite_fields(field, value):
    # a NaN field would otherwise come back from min_detectable_coupling as
    # a NaN coupling, without an error
    fields = dict(coupling=1e-24, material_factor=2.5e15,
                  compton_omega=TWO_PI * 2000.0)
    fields[field] = value
    with pytest.raises(ConfigError, match="must be finite"):
        DarkMatterModel(**fields)


def test_gmin_quadratic_noise_law():
    dm, plan = _dm(), ObservationPlan(duration=YEAR_S)
    g1 = min_detectable_coupling(1e-35, dm, plan)
    g2 = min_detectable_coupling(4e-35, dm, plan)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_gmin_monotonic_in_duration_and_noise():
    dm = _dm()
    gs = [min_detectable_coupling(1e-35, dm, ObservationPlan(duration=t))
          for t in (1e6, 1e7, 1e8)]
    assert gs[0] > gs[1] > gs[2]
    plan = ObservationPlan(duration=YEAR_S)
    gn = [min_detectable_coupling(s, dm, plan) for s in (1e-36, 1e-35, 1e-34)]
    assert gn[0] < gn[1] < gn[2]


def test_gmin_threshold_scaling():
    dm = _dm()
    g1 = min_detectable_coupling(1e-35, dm, ObservationPlan(duration=YEAR_S,
                                                            snr_threshold=1.0))
    g2 = min_detectable_coupling(1e-35, dm, ObservationPlan(duration=YEAR_S,
                                                            snr_threshold=4.0))
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12)


def test_calibration_anchor_roundtrip(membrane_osc):
    """The calibrated material factor reproduces its anchor point exactly."""
    plan = ObservationPlan(duration=YEAR_S)
    anchor_acc, anchor_g = 1e-12, 4e-25
    material = calibrate_material_factor(anchor_acc, anchor_g,
                                         membrane_osc.mass,
                                         TWO_PI * 2000.0, plan)
    dm = DarkMatterModel(coupling=1e-24, material_factor=material,
                         compton_omega=TWO_PI * 2000.0)
    noise = (anchor_acc * membrane_osc.mass) ** 2
    assert min_detectable_coupling(noise, dm, plan) == pytest.approx(
        anchor_g, rel=1e-12)


def test_gmin_accepts_callable_noise():
    dm, plan = _dm(), ObservationPlan(duration=YEAR_S)
    direct = min_detectable_coupling(3e-35, dm, plan)
    via_fn = min_detectable_coupling(lambda w: 3e-35, dm, plan)
    assert via_fn == direct


def test_linewidth_rule_and_override():
    dm = _dm()
    assert dm.linewidth() == pytest.approx(1e-6 * dm.compton_omega, rel=1e-12)
    assert dm.linewidth(2.0 * dm.compton_omega) == pytest.approx(
        2e-6 * dm.compton_omega, rel=1e-12)
    fixed = DarkMatterModel(coupling=1e-24, material_factor=1e15,
                            compton_omega=TWO_PI * 2000.0,
                            coherence_linewidth=0.42)
    assert fixed.linewidth() == 0.42
    assert fixed.linewidth(1e9) == 0.42


def test_drive_psd_scales_as_coupling_squared():
    dm = _dm()
    assert dm.drive_psd(2e-24) == pytest.approx(4.0 * dm.drive_psd(1e-24),
                                                rel=1e-12)


@pytest.mark.parametrize("linewidth", [None, 0.42], ids=["halo-rule", "fixed"])
def test_gmin_over_arrays_equals_scalar_calls_bitwise(linewidth):
    dm = DarkMatterModel(coupling=1e-24, material_factor=2.5e15,
                         compton_omega=TWO_PI * 2000.0,
                         coherence_linewidth=linewidth)
    plan = ObservationPlan(duration=YEAR_S, snr_threshold=2.0)
    omegas = TWO_PI * np.geomspace(20.0, 2e4, 61)
    noise = 10.0 ** np.random.default_rng(5).uniform(-40.0, -30.0, omegas.size)
    scalar = [min_detectable_coupling(n, dm, plan, w)
              for n, w in zip(noise.tolist(), omegas.tolist())]
    assert all(type(g) is float for g in scalar)
    np.testing.assert_array_equal(
        min_detectable_coupling(noise, dm, plan, omegas), scalar)


def test_gmin_over_arrays_rejects_any_non_positive_noise():
    with pytest.raises(ConfigError, match="noise PSD must be positive"):
        min_detectable_coupling(np.array([1e-35, 0.0]), _dm(),
                                ObservationPlan(duration=YEAR_S),
                                TWO_PI * np.array([1e3, 2e3]))


@pytest.mark.parametrize("linewidths", [
    pytest.param([0.5, 0.6], id="none"),
    pytest.param([0.5, 1e-8], id="averaging-law"),
    pytest.param([0.5, 0.9], id="coherence-time"),
    pytest.param([0.9, 0.5, 1e-8], id="both")])
def test_plan_check_over_an_array_warns_iff_an_element_would(linewidths):
    # Delta_a T_O < 1 below 1e-7 rad/s; T_int Delta_a > 1 above 1/1.5 rad/s
    plan = ObservationPlan(duration=1e7, integration_time=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = {note for lw in linewidths for note in plan.check(lw)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        notes = plan.check(np.array(linewidths))
    assert set(notes) == expected
    assert [str(w.message) for w in caught] == notes


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the test if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _calibrate(**override):
    args = dict(acceleration_asd=1e-12, coupling=4e-25, mass=6e-6,
                compton_omega=TWO_PI * 2000.0,
                plan=ObservationPlan(duration=YEAR_S))
    return calibrate_material_factor(**(args | override))


def _dm_fields(**override):
    return DarkMatterModel(**(dict(coupling=1e-24, material_factor=2.5e15,
                                   compton_omega=TWO_PI * 2000.0) | override))


def _gmin(noise=1e-35, omega_dm=None):
    return min_detectable_coupling(noise, _dm(),
                                   ObservationPlan(duration=YEAR_S), omega_dm)


def _grid(lo=1e3, hi=1e5, omega0=1.2e4, gamma=1e-5):
    return resonance_refined_grid([(omega0, gamma)], (lo, hi))


def _integral(tol=1e-3):
    grid = resonance_refined_grid([], (1.0, 2.0), tol=tol)
    return integrated_sensitivity(1.0, lambda w: 1.0 + 0.0 * w, grid)


# every float argument of the sensitivity layer's entry points: a valid
# value and the call that takes it
_NON_FINITE_SITES = {
    "dm.coupling": (1e-24, lambda x: _dm_fields(coupling=x)),
    "dm.material_factor": (2.5e15, lambda x: _dm_fields(material_factor=x)),
    "dm.compton_omega": (1e4, lambda x: _dm_fields(compton_omega=x)),
    "dm.rho_dm": (1e-21, lambda x: _dm_fields(rho_dm=x)),
    "dm.coherence_linewidth":
        (1e-2, lambda x: _dm_fields(coherence_linewidth=x)),
    "dm.linewidth_fraction":
        (1e-6, lambda x: _dm_fields(linewidth_fraction=x)),
    "plan.duration": (YEAR_S, lambda x: ObservationPlan(duration=x)),
    "plan.integration_time":
        (10.0, lambda x: ObservationPlan(duration=YEAR_S, integration_time=x)),
    "plan.snr_threshold":
        (2.0, lambda x: ObservationPlan(duration=YEAR_S, snr_threshold=x)),
    "calibrate.acceleration_asd":
        (1e-12, lambda x: _calibrate(acceleration_asd=x)),
    "calibrate.coupling": (4e-25, lambda x: _calibrate(coupling=x)),
    "calibrate.mass": (6e-6, lambda x: _calibrate(mass=x)),
    "calibrate.compton_omega": (1e4, lambda x: _calibrate(compton_omega=x)),
    "calibrate.rho_dm": (1e-21, lambda x: _calibrate(rho_dm=x)),
    "calibrate.linewidth_fraction":
        (1e-6, lambda x: _calibrate(linewidth_fraction=x)),
    "drive_psd.coupling": (1e-24, lambda x: _dm().drive_psd(coupling=x)),
    "drive_psd.omega_dm": (1e4, lambda x: _dm().drive_psd(omega_dm=x)),
    "gmin.noise": (1e-35, lambda x: _gmin(noise=x)),
    "gmin.noise_array": (1e-35, lambda x: _gmin(
        noise=np.array([1e-35, x]), omega_dm=np.array([1e4, 2e4]))),
    "gmin.omega_dm": (1e4, lambda x: _gmin(omega_dm=x)),
    "grid.span_min": (1e3, lambda x: _grid(lo=x)),
    "grid.span_max": (1e5, lambda x: _grid(hi=x)),
    "grid.omega0": (1.2e4, lambda x: _grid(omega0=x)),
    "grid.gamma": (1e-5, lambda x: _grid(gamma=x)),
    "integral.grid_tol": (1e-3, lambda x: _integral(tol=x)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", sorted(_NON_FINITE_SITES))
def test_sensitivity_inputs_reject_non_finite_values(site, value):
    # each call must answer with ConfigError: not a NaN or infinite result,
    # not a bare ValueError from an integer conversion, and not a quadrature
    # that bisects toward its evaluation cap on a NaN tolerance; the same
    # call at a valid value succeeds, so the rejection is the value's doing
    valid, call = _NON_FINITE_SITES[site]
    with _deadline(2.0):
        call(valid)
        with pytest.raises(ConfigError):
            call(value)


def test_calibration_rejects_a_factor_that_overflows():
    # finite inputs whose linewidth product overflows to inf made the
    # factor NaN
    with pytest.raises(ConfigError, match="material factor must be finite"):
        _calibrate(compton_omega=1e300, linewidth_fraction=1e10)
