"""Figure-level tables: orderings, maxima and table consistency."""

import math

import numpy as np
import pytest

from omsense import arrays, scans
from omsense.scenario import preset_scenario, scenario_from_dict
from omsense.sensitivity import integrated_sensitivity
from omsense.scans import (array_scan_table, dm_projection_table,
                           loss_scan_table, noise_budget_table,
                           power_scan_table, sensitivity_report)


@pytest.fixture(scope="module")
def fig2_rows():
    scn = scenario_from_dict(preset_scenario("fig2"))
    scn.scan["sensor_counts"] = [1, 2, 4, 8, 16]
    return array_scan_table(scn)


def test_fig2_columns_monotone(fig2_rows):
    for key in ("i_dqs", "i_classical_coherent", "i_classical_incoherent"):
        vals = [r[key] for r in fig2_rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_fig2_ratio_laws(fig2_rows):
    # coherent/incoherent grows like M, DQS/coherent stays flat
    for row in fig2_rows:
        m = row["n_sensors"]
        assert row["coherent_over_single"] == pytest.approx(m * m, rel=1e-6)
        assert row["incoherent_over_single"] == pytest.approx(m, rel=1e-9)
        assert row["dqs_over_coherent"] == pytest.approx(
            fig2_rows[0]["dqs_over_coherent"], rel=1e-9)
    assert fig2_rows[0]["dqs_over_coherent"] > 1.0


def test_fig5_interior_maximum_for_fixed_angle():
    scn = scenario_from_dict(preset_scenario("fig5"))
    rows = power_scan_table(scn)
    fixed = [r["i_squeezed_fixed"] for r in rows]
    k = int(np.argmax(fixed))
    assert 0 < k < len(fixed) - 1
    # the frequency-tracking angle is never worse than the classical readout
    assert all(r["i_squeezed_optimal"] >= r["i_classical"] for r in rows)


def test_fig6_squeezing_survives_loss():
    scn = scenario_from_dict(preset_scenario("fig6"))
    rows = loss_scan_table(scn)
    assert all(r["i_squeezed_optimal"] > r["i_classical"] for r in rows)
    for key in ("i_classical", "i_squeezed_optimal"):
        vals = [r[key] for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_noise_budget_parts_sum(membrane_osc):
    scn = scenario_from_dict(preset_scenario("fig4"))
    rows = noise_budget_table(scn, n_points=101)
    for row in rows[:: 20]:
        parts = (row["shot"] + row["back_action"] + row["correlation"]
                 + row["thermal"] + row["residual_vacuum"]
                 + row["detection_loss"])
        assert row["total_classical"] == pytest.approx(parts, rel=1e-12)
        assert row["acc_asd_classical"] == pytest.approx(
            math.sqrt(row["total_classical"]) / membrane_osc.mass, rel=1e-12)
    freqs = [r["frequency_hz"] for r in rows]
    assert any(abs(f - 2000.0) < 1e-9 for f in freqs)  # resonance included


def test_noise_budget_squeezed_tracks_below_classical():
    scn = scenario_from_dict(preset_scenario("fig4"))
    rows = noise_budget_table(scn, n_points=201)
    assert all(r["total_squeezed"] <= r["total_classical"] for r in rows)


def test_dm_projection_curve_ordering():
    scn = scenario_from_dict(preset_scenario("fig3"))
    scn.scan["compton_points"] = 21
    rows = dm_projection_table(scn)
    m = scn.scan.get("dqs_sensors", 10)
    for row in rows:
        # coherent < incoherent < single; DQS best of the fixed-power curves
        assert row["gmin_coherent_array"] < row["gmin_incoherent_array"]
        assert row["gmin_incoherent_array"] < row["gmin_single_classical"]
        assert row["gmin_dqs_array"] < row["gmin_coherent_array"]
        assert row["gmin_incoherent_array"] == pytest.approx(
            row["gmin_single_classical"] / m**0.25, rel=1e-9)
        assert row["gmin_coherent_array"] == pytest.approx(
            row["gmin_single_classical"] / math.sqrt(m), rel=1e-9)


def test_dm_projection_without_squeezing_dqs_is_coherent():
    raw = preset_scenario("fig3")
    raw["input_light"] = None
    rows = dm_projection_table(scenario_from_dict(raw))
    assert len(rows) == 61
    assert ([row["gmin_dqs_array"] for row in rows]
            == [row["gmin_coherent_array"] for row in rows])


def test_sensitivity_report_quantities():
    scn = scenario_from_dict(preset_scenario("fig4"))
    rows = sensitivity_report(scn)
    names = [r["quantity"] for r in rows]
    assert names == ["classical", "squeezed"]
    assert all(r["rel_error_estimate"] <= scn.grid_tol for r in rows)
    sq = {r["quantity"]: r["value"] for r in rows}
    assert sq["squeezed"] > sq["classical"]


def test_sensitivity_check_reruns_on_bisected_grid_at_half_tolerance(monkeypatch):
    """rel_change_half_tol compares two different node sets, so it is not
    a number compared with itself."""
    scn = scenario_from_dict(preset_scenario("fig4"))
    grid = scn.build_grid()
    calls = []

    def recording(signal, noise, grid, rel_tol=None):
        calls.append((grid.nodes, rel_tol))
        return integrated_sensitivity(signal, noise, grid, rel_tol)

    monkeypatch.setattr(scans, "integrated_sensitivity", recording)
    rows = scans.sensitivity_report(scn)
    assert len(calls) == 2 * len(rows)
    for (nodes, tol), (half_nodes, half_tol) in zip(calls[0::2], calls[1::2]):
        assert tol is None and half_tol == 0.5 * grid.tol
        np.testing.assert_array_equal(nodes, grid.nodes)
        np.testing.assert_array_equal(half_nodes, grid.bisected().nodes)
    assert all(r["rel_change_half_tol"] > 0.0 for r in rows)


def test_loss_scan_applies_loss_to_every_template():
    raw = preset_scenario("fig6")
    template = raw["array"]["sensors"][0]
    raw["array"]["sensors"] = [template, dict(template, resonance_hz=1300.0)]
    scn = scenario_from_dict(raw)
    scn.scan["losses"] = [0.0, 0.5]
    arr = scn.build_array(efficiency_sq=0.5)
    assert [s.cavity.efficiency_sq for s in arr.sensors] == [0.5, 0.5]
    rows = loss_scan_table(scn)
    for key in ("i_classical", "i_squeezed_optimal"):
        assert rows[1][key] < 0.9 * rows[0][key]


@pytest.mark.parametrize("preset,table,max_builds", [
    pytest.param("fig2", array_scan_table, 12, id="fig2"),
    pytest.param("fig3", dm_projection_table, 2, id="fig3"),
    pytest.param("fig4", noise_budget_table, 1, id="fig4"),
    pytest.param("fig5", power_scan_table, 71, id="fig5"),
    pytest.param("fig6", loss_scan_table, 11, id="fig6")])
def test_array_scan_builds_one_kernel_per_array(monkeypatch, preset, table,
                                                max_builds):
    """Deterministic cost guard: a table builds each array's noise kernel
    once per frequency set (fig3: the M = 1 reference and the M-array; fig4:
    the one array), and a sweep once per array and quadrature pass (fig2:
    the M = 1 reference and 11 counts, each converging in one pass), not
    once per input or per noise quantity."""
    builds = []

    class Counting(arrays.ArrayNoise):
        __slots__ = ()

        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    for module in (arrays, scans):
        monkeypatch.setattr(module, "ArrayNoise", Counting)
    table(scenario_from_dict(preset_scenario(preset)))
    assert len(builds) <= max_builds
