"""Mutation cases: each gate passes on the real code and fails on a mutant.

A case swaps one library function for a wrong variant, runs the test that
guards it in-process on the real code and then under the mutant, and asserts
that the test passes and then fails on one of its assertions.  A gate that
cannot fail shows up here as a mutant that survives.
"""

import inspect
import math
import textwrap

import pytest

import test_arrays as arrays_tests
import test_oracle as oracle_tests
import test_scans as scans_tests
import test_scenario_cli as scenario_cli_tests
from omsense import arrays, cli, oracle, scans, spectra
from omsense.sensitivity import FrequencyGrid


def _mutant(fn, old: str, new: str):
    """``fn`` recompiled with ``old`` in its source replaced by ``new``; it
    looks its globals up in ``fn``'s module, as ``fn`` does."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} is not once in {fn.__name__}"
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


def _no_env_insertion(monkeypatch):
    monkeypatch.setattr(cli, "_env_args", lambda command: [])


def _row_rule_ignoring_weights(monkeypatch):
    # the kernel's rows compared without their shares: one template at
    # unequal dividing weights collapses into one row
    monkeypatch.setattr(arrays, "_kernel_rows", _mutant(
        arrays._kernel_rows, "((rows == first)",
        "((rows[..., :-1] == first[..., :-1])"))


def _seeds_at_the_mechanical_lines(monkeypatch):
    monkeypatch.setattr(scans, "noise_peaks", scans_tests._mechanical_seeds)


def _bisected_at_full_tolerance(monkeypatch):
    monkeypatch.setattr(FrequencyGrid, "bisected", _mutant(
        FrequencyGrid.bisected, "0.5 * self.tol", "self.tol"))


def _sensitivity_per_quantity(monkeypatch):
    # one work item per quantity: the array integrated once per quantity
    monkeypatch.setattr(scans, "sensitivity_report", _mutant(
        scans.sensitivity_report,
        "[(res, half)] = _integrals(\n"
        "        scn, [(scn.build_array(), list(quantities.values()))],",
        "(res, half), *_ = _integrals(\n"
        "        scn, [(scn.build_array(), [sq]) for sq in quantities.values()],"))


def _gain_rule_admitting_zero(monkeypatch):
    _, names, message = scans._GAIN_RULE
    monkeypatch.setattr(scans, "_GAIN_RULE",
                        (lambda gain: gain >= 0.0, names, message))


def _integrals_ignoring_the_cell_cap(monkeypatch):
    # the slice width no longer follows _SWEEP_CELLS
    monkeypatch.setattr(scans, "_integrals", _mutant(
        scans._integrals, "_SWEEP_CELLS", "(1 << 16)"))


def _run_budget_unbounded(monkeypatch):
    # every array of a table seeded in one run, its blocks all held at once
    monkeypatch.setattr(scans, "_RUN_SENSORS", math.inf)


def _vacuum_at_the_inputs_own_angle(monkeypatch):
    # r = 0 squeezed at the input's angle: the same noise, other bits
    monkeypatch.setattr(arrays.ArrayNoise, "totals", _mutant(
        arrays.ArrayNoise.totals, "0.0 if sq.r == 0.0 else ", ""))


def _weight_rule_without_realness(monkeypatch):
    # the complex-to-real cast that drops the imaginary parts
    monkeypatch.setattr(arrays, "_check_weights", _mutant(
        arrays._check_weights,
        'dividing = _real_weights(dividing, "dividing weights")\n'
        '    combining = _real_weights(combining, "combining weights")',
        "dividing, combining = np.real(dividing), np.real(combining)"))


def _householder_sign_fixed_at_plus_one(monkeypatch):
    mutant = _mutant(oracle.complete_unitary,
                     "np.where(w0 < 0.0, -1.0, 1.0)", "1.0")
    monkeypatch.setattr(oracle, "complete_unitary", mutant)
    monkeypatch.setattr(oracle_tests, "complete_unitary", mutant)


def _completion_without_the_weight_rule(monkeypatch):
    mutant = _mutant(oracle.complete_unitary,
                     '_check((_DIVIDING_RULE,), {"dividing": _sum_sq(w)})',
                     "pass")
    monkeypatch.setattr(oracle, "complete_unitary", mutant)
    monkeypatch.setattr(oracle_tests, "complete_unitary", mutant)


def _share_rule_as_a_negative_test(monkeypatch):
    # the comparison that NaN passes
    mutant = _mutant(spectra.sensor_response,
                     '_check(_SHARE_RULES, {"share": share})',
                     "if (np.asarray(share) < 0).any():\n"
                     '        raise ConfigError("negative power share")')
    monkeypatch.setattr(spectra, "sensor_response", mutant)
    monkeypatch.setattr(arrays_tests, "sensor_response", mutant)


@pytest.mark.parametrize("mutate,gate,params", [
    pytest.param(_no_env_insertion,
                 scenario_cli_tests
                 .test_each_env_variable_reaches_its_flag_and_each_flag_wins,
                 {}, id="no-environment-insertion"),
    pytest.param(_row_rule_ignoring_weights,
                 scans_tests.test_sliced_sweep_equals_the_unsliced_run_bitwise,
                 # its one-template-unequal-shares case
                 {"templates": 1, "copies": 2, "weights": [0.8, 0.6],
                  "rows": 2},
                 id="row-rule-ignoring-weights"),
    pytest.param(_seeds_at_the_mechanical_lines,
                 scans_tests.test_fixed_angle_integrals_meet_their_tolerance,
                 {}, id="seeds-at-the-mechanical-lines"),
    pytest.param(_bisected_at_full_tolerance,
                 scans_tests
                 .test_sensitivity_check_reruns_on_bisected_grid_at_half_tolerance,
                 {}, id="bisected-at-full-tolerance"),
    pytest.param(_sensitivity_per_quantity,
                 scans_tests.test_each_array_is_integrated_once_per_pass,
                 {"preset": "fig4", "table": "sensitivity_report",
                  "integrals": 2, "blocks": 1},
                 id="sensitivity-per-quantity"),
    pytest.param(_gain_rule_admitting_zero,
                 scenario_cli_tests
                 .test_combining_weights_that_cancel_the_signal_exit_two,
                 {"command": "power-scan"}, id="gain-rule-admitting-zero"),
    pytest.param(_integrals_ignoring_the_cell_cap,
                 scans_tests.test_sliced_sweep_equals_the_unsliced_run_bitwise,
                 # its three-templates case
                 {"templates": 3, "copies": 1, "weights": None, "rows": 3},
                 id="integrals-ignoring-the-cell-cap"),
    pytest.param(_run_budget_unbounded,
                 scans_tests
                 .test_a_long_array_scan_holds_one_run_of_blocks_at_a_time,
                 {}, id="run-budget-unbounded"),
    pytest.param(_vacuum_at_the_inputs_own_angle,
                 arrays_tests.test_noise_totals_match_each_input_bitwise, {},
                 id="vacuum-at-the-inputs-own-angle"),
    pytest.param(_weight_rule_without_realness,
                 arrays_tests
                 .test_complex_weights_are_refused_wherever_weights_enter,
                 {"phased": arrays_tests._PHASED[0]},
                 id="weight-rule-without-realness"),
    pytest.param(_householder_sign_fixed_at_plus_one,
                 # its w_0 < 0 rows
                 oracle_tests.test_householder_completion_is_unitary, {},
                 id="householder-sign-fixed-at-plus-one"),
    pytest.param(_completion_without_the_weight_rule,
                 oracle_tests.test_completion_rejects_non_finite_columns,
                 {"column": [float("nan"), 0.0]},
                 id="completion-without-the-weight-rule"),
    pytest.param(_share_rule_as_a_negative_test,
                 arrays_tests.test_nan_frequencies_shares_and_angles_are_refused,
                 {"entry": "sensor_response_share"},
                 id="share-rule-as-a-negative-test")])
def test_gate_passes_and_fails_under_its_mutant(tmp_path, request, mutate,
                                                gate, params):
    def gate_passes(run: str) -> bool:
        wanted = inspect.signature(gate).parameters
        with pytest.MonkeyPatch.context() as monkeypatch:
            if run == "mutant":
                mutate(monkeypatch)
            fixtures = {"monkeypatch": monkeypatch,
                        "tmp_path": tmp_path / run}
            fixtures["tmp_path"].mkdir()
            # any other fixture the gate takes, from conftest
            fixtures.update({k: request.getfixturevalue(k) for k in wanted
                             if k not in fixtures and k not in params})
            try:
                gate(**{k: v for k, v in fixtures.items() if k in wanted},
                     **params)
            except (AssertionError, pytest.fail.Exception):
                return False
        return True

    assert gate_passes("real")
    assert not gate_passes("mutant")
