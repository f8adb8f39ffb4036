"""Figure-level tables: orderings, maxima and table consistency."""

import json
import math

import numpy as np
import pytest

from omsense import arrays, cli, oracle, scans
from omsense.arrays import ArraySensor, SensorArray, matched_weights
from omsense.errors import ConfigError
from omsense.constants import TWO_PI
from omsense.oracle import oracle_noise_psd
from omsense.spectra import (CavityOptics, Oscillator, SqueezedInput,
                             input_quadrature_psds)
from omsense.scenario import (PRESET_NAMES, preset_scenario,
                              scenario_from_dict)
from omsense.sensitivity import integrated_sensitivity
from omsense.scans import (array_scan_table, dm_projection_table,
                           loss_scan_table, noise_budget_table,
                           power_scan_table, sensitivity_report)
from reference_paths import random_array


@pytest.fixture(scope="module")
def fig2():
    scn = scenario_from_dict(preset_scenario("fig2"))
    scn.scan["sensor_counts"] = [1, 2, 4, 8, 16]
    return array_scan_table(scn)


def test_fig2_columns_monotone(fig2):
    for key in ("i_dqs", "i_classical_coherent", "i_classical_incoherent"):
        assert np.all(np.diff(fig2[key]) > 0)


def test_fig2_ratio_laws(fig2):
    # coherent/incoherent grows like M, DQS/coherent stays flat
    m = fig2["n_sensors"]
    np.testing.assert_allclose(fig2["coherent_over_single"], m * m, rtol=1e-6)
    np.testing.assert_allclose(fig2["incoherent_over_single"], m, rtol=1e-9)
    ratio = fig2["dqs_over_coherent"]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)
    assert ratio[0] > 1.0


def test_fig5_interior_maximum_for_fixed_angle():
    scn = scenario_from_dict(preset_scenario("fig5"))
    table = power_scan_table(scn)
    k = int(np.argmax(table["i_squeezed_fixed"]))
    assert 0 < k < len(table) - 1
    # the frequency-tracking angle is never worse than the classical readout
    assert np.all(table["i_squeezed_optimal"] >= table["i_classical"])


def test_fig6_squeezing_survives_loss():
    scn = scenario_from_dict(preset_scenario("fig6"))
    table = loss_scan_table(scn)
    assert np.all(table["i_squeezed_optimal"] > table["i_classical"])
    for key in ("i_classical", "i_squeezed_optimal"):
        assert np.all(np.diff(table[key]) < 0)


def test_noise_budget_parts_sum(membrane_osc):
    scn = scenario_from_dict(preset_scenario("fig4"))
    table = noise_budget_table(scn, n_points=101)
    parts = sum(table[key] for key in ("shot", "back_action", "correlation",
                                       "thermal", "residual_vacuum",
                                       "detection_loss"))
    np.testing.assert_allclose(table["total_classical"], parts, rtol=1e-12)
    np.testing.assert_allclose(
        table["acc_asd_classical"],
        np.sqrt(table["total_classical"]) / membrane_osc.mass, rtol=1e-12)
    # the resonance is included
    assert np.any(np.abs(table["frequency_hz"] - 2000.0) < 1e-9)


def test_noise_budget_squeezed_tracks_below_classical():
    scn = scenario_from_dict(preset_scenario("fig4"))
    table = noise_budget_table(scn, n_points=201)
    assert np.all(table["total_squeezed"] <= table["total_classical"])


def test_dm_projection_curve_ordering():
    scn = scenario_from_dict(preset_scenario("fig3"))
    scn.scan["compton_points"] = 21
    table = dm_projection_table(scn)
    m = scn.scan.get("dqs_sensors", 10)
    single = table["gmin_single_classical"]
    coherent = table["gmin_coherent_array"]
    incoherent = table["gmin_incoherent_array"]
    # coherent < incoherent < single; DQS best of the fixed-power curves
    assert np.all(coherent < incoherent)
    assert np.all(incoherent < single)
    assert np.all(table["gmin_dqs_array"] < coherent)
    np.testing.assert_allclose(incoherent, single / m**0.25, rtol=1e-9)
    np.testing.assert_allclose(coherent, single / math.sqrt(m), rtol=1e-9)


def test_dm_projection_without_squeezing_dqs_is_coherent():
    raw = preset_scenario("fig3")
    raw["input_light"] = None
    table = dm_projection_table(scenario_from_dict(raw))
    assert len(table) == 61
    np.testing.assert_array_equal(table["gmin_dqs_array"],
                                  table["gmin_coherent_array"])


def test_sensitivity_report_quantities():
    scn = scenario_from_dict(preset_scenario("fig4"))
    table = sensitivity_report(scn)
    assert table["quantity"] == ["classical", "squeezed"]
    assert all(err <= scn.grid_tol for err in table["rel_error_estimate"])
    classical, squeezed = table["value"]
    assert squeezed > classical


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
    table = scans.sensitivity_report(scn)
    assert len(calls) == 2 * len(table)
    for (nodes, tol), (half_nodes, half_tol) in zip(calls[0::2], calls[1::2]):
        assert tol is None and half_tol == 0.5 * grid.tol
        np.testing.assert_array_equal(nodes, grid.nodes)
        np.testing.assert_array_equal(half_nodes, grid.bisected().nodes)
    assert np.all(table["rel_change_half_tol"] > 0.0)


def test_loss_scan_applies_loss_to_every_template():
    raw = preset_scenario("fig6")
    template = raw["array"]["sensors"][0]
    raw["array"]["sensors"] = [template, dict(template, resonance_hz=1300.0)]
    scn = scenario_from_dict(raw)
    scn.scan["losses"] = [0.0, 0.5]
    arr = scn.build_array(efficiency_sq=0.5)
    assert [s.cavity.efficiency_sq for s in arr.sensors] == [0.5, 0.5]
    table = loss_scan_table(scn)
    for key in ("i_classical", "i_squeezed_optimal"):
        lossless, lossy = table[key]
        assert lossy < 0.9 * lossless


@pytest.mark.parametrize("preset,table,max_builds", [
    pytest.param("fig2", array_scan_table, 12, id="fig2"),
    pytest.param("fig3", dm_projection_table, 1, id="fig3"),
    pytest.param("fig4", noise_budget_table, 1, id="fig4"),
    pytest.param("fig5", power_scan_table, 71, id="fig5"),
    pytest.param("fig6", loss_scan_table, 11, id="fig6")])
def test_array_scan_builds_one_kernel_per_array(monkeypatch, preset, table,
                                                max_builds):
    """Deterministic cost guard: a table builds its arrays' noise kernel
    once per frequency set (fig3: the M = 1 reference and the M-array in one
    batch; fig4: the one array), and a sweep once per array and quadrature
    pass (fig2: the M = 1 reference and 11 counts, each converging in one
    pass), not once per input or per noise quantity."""
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


@pytest.mark.parametrize("templates,copies,weights,rows", [
    pytest.param(3, 1, None, 3, id="three-templates"),
    pytest.param(1, 3, None, 1, id="one-template"),
    pytest.param(1, 2, [0.8, 0.6], 2, id="one-template-unequal-shares")])
def test_sliced_sweep_equals_the_unsliced_run_bitwise(monkeypatch, templates,
                                                       copies, weights, rows):
    """Every integral, a sweep's and both passes of a sensitivity report,
    takes a round's nodes through the kernel in slices of at most
    ``_SWEEP_CELLS`` kernel rows x frequencies, counting one row for one
    template at one dividing weight and one per slot otherwise; the kernel
    is elementwise in frequency, so the tables keep every bit."""
    raw = preset_scenario("fig5")
    template = raw["array"]["sensors"][0]
    raw["array"]["sensors"] = [dict(template, resonance_hz=2000.0 * (1 + 1e-3 * k))
                               for k in range(templates)]
    raw["array"]["copies"] = copies
    if weights:
        raw["array"].update(weights_policy="explicit", dividing_weights=weights,
                            combining_weights=weights)
    raw["scan"]["powers_w"] = [1e-4, 1e-2]
    scn = scenario_from_dict(raw)
    builds = []  # (frequencies, kernel rows) of each build

    class Counting(arrays.ArrayNoise):
        __slots__ = ()

        def __init__(self, arr, omega):
            super().__init__(arr, omega)
            builds.append((np.size(omega), self.alpha.shape[0]))

    def tables():
        return power_scan_table(scn), sensitivity_report(scn)

    monkeypatch.setattr(scans, "ArrayNoise", Counting)
    whole = tables()
    unsliced = len(builds)
    monkeypatch.setattr(scans, "_SWEEP_CELLS", 100)
    sliced = tables()
    assert len(builds) > 2 * unsliced
    assert max(n for n, _ in builds[unsliced:]) == 100 // rows
    assert {g for _, g in builds} == {rows}
    for new, old in zip(sliced, whole):
        assert len(new) == len(old) > 0
        for col in old.columns:
            np.testing.assert_array_equal(new[col], old[col])


def _fixed_angle_scenario() -> dict:
    """One sensor squeezed at a fixed angle of pi/4, which crosses the
    optimal angle just above the resonance: the squeezed integrand peaks
    inside a wide seed panel, whose error estimate misses the peak."""
    raw = preset_scenario("fig4")
    raw["array"]["sensors"][0].update(
        mass_kg=5.513896257234017e-6, resonance_hz=2329.059832713219,
        quality_factor=1346558649.6215436)
    raw["array"]["power_w"] = 1.6323567993848317e-3
    raw["input_light"] = {"squeezing_db": 11.516262604835838,
                          "angle_policy": "fixed", "angle_rad": math.pi / 4}
    return raw


def test_sensitivity_warns_when_its_self_check_fails():
    """The squeezed integral moves by ~7e-2 at half the tolerance, far above
    the 1e-3 grid tolerance, so the report warns; the classical one passes."""
    scn = scenario_from_dict(_fixed_angle_scenario())
    with pytest.warns(UserWarning) as record:
        table = sensitivity_report(scn)
    classical, squeezed = table["rel_change_half_tol"]
    assert classical < scn.grid_tol < 0.05 < squeezed
    assert [str(w.message) for w in record] == [
        f"the squeezed integral's rel_change_half_tol {squeezed:.3g} exceeds "
        f"the grid tolerance {scn.grid_tol:g}"]


def test_sensitivity_self_check_failure_is_a_manifest_warning(tmp_path):
    """A failed self-check still exits 0, and the manifest says so; the
    presets' reports pass it and warn of nothing."""
    for name, raw in [("fixed-angle", _fixed_angle_scenario()),
                      *((name, preset_scenario(name)) for name in PRESET_NAMES)]:
        path, out = tmp_path / f"{name}.json", tmp_path / name
        path.write_text(json.dumps(raw))
        assert cli.main(["sensitivity", "--scenario", str(path),
                         "--out", str(out)]) == 0
        warnings = json.loads((out / "manifest.json").read_text())["warnings"]
        if name == "fixed-angle":
            [warning] = warnings
            assert warning.startswith(
                "the squeezed integral's rel_change_half_tol")
        else:
            assert warnings == []


def _scalar_draw_array(rng, m):
    """random_array's array, drawn one scalar at a time in its order."""
    sensors = []
    for _ in range(m):
        osc = Oscillator.from_quality(
            mass=6e-6 * rng.uniform(0.1, 10.0),
            omega0=TWO_PI * 2000.0 * rng.uniform(0.1, 10.0),
            quality=1e9 * rng.uniform(0.1, 10.0),
            temperature=10e-3 * rng.uniform(0.1, 10.0))
        kappa = 0.94e9 * rng.uniform(0.1, 10.0)
        cav = CavityOptics.from_wavelength(
            kappa=kappa, kappa_readout=kappa * rng.uniform(0.5, 1.0),
            g0=46.0 * rng.uniform(0.1, 10.0), wavelength=1.06e-6,
            input_power=0.0, efficiency_sq=rng.uniform(0.8, 1.0))
        sensors.append(ArraySensor(osc, cav, rng.uniform(0.5, 2.0)))
    dv = rng.uniform(0.1, 1.0, m)
    dv = dv / np.linalg.norm(dv)
    arr = SensorArray(tuple(sensors), dv.astype(complex), matched_weights(dv),
                      total_power=2e-3 * m * rng.uniform(0.5, 2.0))
    return arr, rng.uniform(0.0, 15.0)


@pytest.mark.parametrize("m", [1, 3, 16])
def test_random_array_keeps_its_stream(m):
    """random_array draws the records that a scalar-by-scalar draw through
    the record constructors gives, and leaves the generator alike."""
    ours, ref = np.random.default_rng(m), np.random.default_rng(m)
    arr, db = random_array(ours, m)
    want, want_db = _scalar_draw_array(ref, m)
    assert arr.sensors == want.sensors and db == want_db
    assert arr.total_power == want.total_power
    np.testing.assert_array_equal(arr.dividing_weights, want.dividing_weights)
    np.testing.assert_array_equal(arr.combining_weights,
                                  want.combining_weights)
    assert ours.uniform() == ref.uniform()


def _record_configs(seed, n_configs, n_freqs):
    """oracle_check_table's configs: its bulk draw replayed chunk by chunk,
    one RNG call per quantity, but each config built through the records,
    as (array, squeezing dB, angle, frequencies)."""
    rng = np.random.default_rng(seed)
    configs = []
    for start in range(0, n_configs, 32):
        c = min(32, n_configs - start)
        counts = rng.integers(1, 5, c)
        factors = rng.uniform(scans._DRAW_LOW, scans._DRAW_HIGH, (c, 4, 9))
        dv = rng.uniform(0.1, 1.0, (c, 4))
        power = rng.uniform(0.5, 2.0, c)
        dbs = rng.uniform(0.0, 15.0, c)
        thetas = rng.uniform(-math.pi / 2, math.pi / 2, c)
        omega0 = TWO_PI * 2000.0 * factors[:, :1, 1]
        omegas = np.exp(rng.uniform(np.log(omega0 / 100),
                                    np.log(omega0 * 100), (c, n_freqs)))
        width = counts.max()
        dv = np.where(np.arange(width) < counts[:, None], dv[:, :width], 0.0)
        dv = dv / np.linalg.norm(dv, axis=1, keepdims=True)
        for i, m in enumerate(counts.tolist()):
            sensors = []
            for f in factors[i, :m].tolist():
                osc = Oscillator.from_quality(
                    mass=6e-6 * f[0], omega0=TWO_PI * 2000.0 * f[1],
                    quality=1e9 * f[2], temperature=10e-3 * f[3])
                kappa = 0.94e9 * f[4]
                cav = CavityOptics.from_wavelength(
                    kappa=kappa, kappa_readout=kappa * f[5], g0=46.0 * f[6],
                    wavelength=1.06e-6, input_power=0.0, efficiency_sq=f[7])
                sensors.append(ArraySensor(osc, cav, f[8]))
            w = dv[i, :m]
            arr = SensorArray(tuple(sensors), w.astype(complex),
                              matched_weights(w),
                              total_power=2e-3 * m * power[i].item())
            configs.append((arr, dbs[i].item(), thetas[i].item(), omegas[i]))
    return configs


@pytest.mark.parametrize("seed,n_freqs,n_configs", [
    # the CLI's 50 frequencies and the benchmark's 16 configs keep the bare
    # seed as their id
    pytest.param(seed, n_freqs, n_configs,
                 id=(str(seed) if (n_freqs, n_configs) == (50, 16)
                     else f"{seed}-{n_freqs}freqs-{n_configs}configs"))
    for seed in (3, 44, 505) for n_freqs in (1, 50) for n_configs in (1, 16)])
def test_oracle_check_table_equals_a_per_config_loop(seed, n_freqs, n_configs):
    """The drawn parameter block is the record path: the table is exactly
    one closed-form build and one oracle call per config on arrays built
    through the record constructors from the same draws."""
    table = scans.oracle_check_table(n_configs, n_freqs, seed=seed)
    sizes, dbs, residuals = [], [], []
    for arr, db, theta, omegas in _record_configs(seed, n_configs, n_freqs):
        squeeze = SqueezedInput.from_db(db)
        closed = arrays.array_noise_psd(
            arr, input_quadrature_psds(squeeze, theta), omegas).total
        orc = oracle_noise_psd(arr, omegas, squeeze, theta=theta)
        sizes.append(arr.n_sensors)
        dbs.append(db)
        residuals.append(float(np.max(np.abs(orc - closed) / np.abs(closed))))
    assert table["n_sensors"] == sizes
    assert table["squeezing_db"] == dbs
    assert table["max_rel_residual"] == residuals
    assert len(set(sizes)) > 1 or n_configs == 1


def test_oracle_check_table_builds_one_kernel(monkeypatch):
    """Deterministic cost guard: the closed forms of every config come from
    one ArrayNoise build over the whole batch."""
    builds = []

    class Counting(arrays.ArrayNoise):
        __slots__ = ()

        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    for module in (arrays, scans):
        monkeypatch.setattr(module, "ArrayNoise", Counting)
    scans.oracle_check_table(16)
    assert len(builds) == 1


@pytest.mark.parametrize("n_configs,batches", [(16, [16]),
                                               (200, [32] * 6 + [8])])
def test_oracle_check_table_makes_one_oracle_pass_per_chunk(
        monkeypatch, n_configs, batches):
    """Deterministic cost guard: each run of up to 32 consecutive configs,
    of mixed sensor counts, is one ArrayNoise build and one oracle pass."""
    built, assembled, propagated = [], [], []
    assemble, propagate = oracle.assemble_transfer, oracle.propagate_covariance

    class Counting(arrays.ArrayNoise):
        __slots__ = ()

        def __init__(self, arr, omega):
            built.append(len(arr))
            super().__init__(arr, omega)

    def counting_assemble(arrs, *args, **kwargs):
        assembled.append(len(arrs))
        return assemble(arrs, *args, **kwargs)

    def counting_propagate(asm):
        propagated.append(len(asm.omega))
        return propagate(asm)

    for module in (arrays, scans):
        monkeypatch.setattr(module, "ArrayNoise", Counting)
    monkeypatch.setattr(oracle, "assemble_transfer", counting_assemble)
    monkeypatch.setattr(oracle, "propagate_covariance", counting_propagate)
    table = scans.oracle_check_table(n_configs)
    assert built == assembled == propagated == batches
    assert len(set(table["n_sensors"][:batches[0]])) > 1


def test_oracle_check_table_constructs_no_records(monkeypatch):
    """Deterministic cost guard: the suite is drawn straight into the
    parameter block, with no per-sensor or per-array record."""
    made = []
    for cls in (Oscillator, CavityOptics, ArraySensor, SensorArray):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    scans.oracle_check_table(16)
    assert made == []
    random_array(np.random.default_rng(0), 2)
    assert sorted(set(made)) == ["ArraySensor", "CavityOptics", "Oscillator",
                                 "SensorArray"]


def _drawn_block(c=3):
    """Sensor fields, weights, powers and counts of c drawn 4-sensor arrays."""
    rng = np.random.default_rng(7)
    fields, _ = scans._sensor_fields(
        rng.uniform(scans._DRAW_LOW, scans._DRAW_HIGH, (c, 4, 9)))
    dv = rng.uniform(0.1, 1.0, (c, 4))
    dv = (dv / np.linalg.norm(dv, axis=1, keepdims=True)).astype(complex)
    return fields, dv, 2e-3 * 4 * rng.uniform(0.5, 2.0, c)


def _message(build):
    with pytest.raises(ConfigError) as err:
        build()
    return str(err.value)


@pytest.mark.parametrize("field,value", [
    ("mass", 0.0), ("mass", -6e-6), ("mass", math.nan),
    ("omega0", 0.0), ("omega0", math.inf), ("gamma", math.nan),
    ("temperature", -1e-3), ("kappa_readout", "above kappa"),
    ("efficiency_sq", 1.5), ("efficiency_sq", -0.1), ("efficiency_sq", 0.0),
    ("efficiency_sq", math.nan), ("g0", -1.0),
    ("dividing", "off unit norm"), ("dividing", math.nan),
    ("combining", math.inf), ("power", -1.0)])
def test_block_validation_matches_the_records(field, value):
    """One bad value in a drawn block fails as the records of that array
    fail: the same ConfigError message, from the block's one vectorised
    check (or, for eta^2 = 0, from the kernel on both paths)."""
    fields, dv, power = _drawn_block()
    fields = {k: np.array(v, dtype=float) for k, v in fields.items()}
    cw = matched_weights(dv)
    i, k = 1, 2
    if field == "kappa_readout":
        fields[field][i, k] = 1.5 * fields["kappa"][i, k]
    elif field == "dividing" and value == "off unit norm":
        dv[i] *= 1.01
    elif field in ("dividing", "combining"):
        (dv if field == "dividing" else cw)[i, k] = value
    elif field == "power":
        power[i] = value
    else:
        fields[field][i, k] = value
    omegas = np.geomspace(1e2, 1e6, 5)

    def record_path():
        names = ("mass", "omega0", "gamma", "temperature", "kappa",
                 "kappa_readout", "g0", "efficiency_sq")
        sensors = tuple(
            ArraySensor(Oscillator(*row[:4]),
                        CavityOptics(row[4], row[5], row[6],
                                     float(fields["laser_omega"]), 0.0, row[7]))
            for row in np.stack([fields[n][i] for n in names], -1).tolist())
        arrays.ArrayNoise(SensorArray(sensors, dv[i], cw[i], power[i].item()),
                          omegas)

    def block_path():
        batch = arrays.ArrayBatch.checked(fields, dv, cw, power, [4, 4, 4])
        arrays.ArrayNoise(batch, np.stack([omegas] * 3))

    assert _message(block_path) == _message(record_path)
