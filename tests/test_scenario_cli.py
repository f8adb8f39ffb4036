"""Scenario schema, CLI commands, manifests and output determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omsense
from omsense import cli
from omsense.constants import TWO_PI
from omsense.errors import ConfigError, ConvergenceError, ScenarioError
from omsense.scenario import (PRESET_NAMES, load_scenario, preset_scenario,
                              scenario_from_dict)
from omsense import oracle, scans


def _fig4_dict(**overrides):
    raw = preset_scenario("fig4")
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def test_all_presets_load():
    for name in PRESET_NAMES:
        scn = scenario_from_dict(preset_scenario(name))
        assert scn.n_sensors >= 1
        arr = scn.build_array()
        assert arr.total_power > 0


def test_unknown_key_rejected_in_strict_mode():
    raw = _fig4_dict()
    raw["array"]["sensors"][0]["resonanse_hz"] = 2000.0  # typo
    with pytest.raises(ScenarioError, match="unknown key"):
        scenario_from_dict(raw, strict=True)


def test_unknown_key_warned_in_lenient_mode():
    raw = _fig4_dict()
    raw["array"]["sensors"][0]["resonanse_hz"] = 2000.0
    scn = scenario_from_dict(raw, strict=False)
    assert any("resonanse_hz" in w for w in scn.warnings)


def test_hz_keys_convert_to_angular():
    scn = scenario_from_dict(_fig4_dict())
    assert scn.sensors[0].oscillator.omega0 == pytest.approx(TWO_PI * 2000.0,
                                                             rel=1e-12)


def test_rad_s_key_used_verbatim():
    raw = _fig4_dict()
    sensor = raw["array"]["sensors"][0]
    del sensor["resonance_hz"]
    sensor["resonance_rad_s"] = 9000.0
    scn = scenario_from_dict(raw)
    assert scn.sensors[0].oscillator.omega0 == 9000.0


def test_both_unit_variants_rejected():
    raw = _fig4_dict()
    raw["array"]["sensors"][0]["resonance_rad_s"] = 9000.0
    with pytest.raises(ScenarioError, match="not both"):
        scenario_from_dict(raw)


def test_gamma_convention_changes_damping():
    half = scenario_from_dict(_fig4_dict(), gamma_convention="half")
    full = scenario_from_dict(_fig4_dict(), gamma_convention="full")
    assert full.sensors[0].oscillator.gamma == pytest.approx(
        2.0 * half.sensors[0].oscillator.gamma, rel=1e-12)


def test_schema_version_required():
    raw = _fig4_dict()
    raw["schema_version"] = 99
    with pytest.raises(ScenarioError, match="schema_version"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("block,key,value", [
    ("array", "copies", True), ("array", "power_w", "2e-3"),
    ("grid", "tolerance_rel", "1e-3"), ("observation", "duration_s", False),
    (None, "schema_version", True), (None, "schema_version", 1.0)])
def test_booleans_and_strings_are_not_numbers(tmp_path, capsys, block, key,
                                              value):
    """JSON true/false and numeric strings are rejected, not cast."""
    raw = _fig4_dict()
    (raw if block is None else raw[block])[key] = value
    code, _ = _run(tmp_path, "noise", raw)
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command,block", [
    ("dm-projection", "input_light"), ("dm-projection", "observation"),
    ("dm-projection", "scan"), ("dm-projection", "output"),
    ("noise", "grid"), ("noise", "dark_matter")])
def test_null_block_means_absent(tmp_path, command, block):
    tables = []
    for label, null in (("null", True), ("absent", False)):
        raw = preset_scenario("fig3")
        del raw[block]
        if null:
            raw[block] = None
        code, out = _run(tmp_path / label, command, raw)
        assert code == 0
        tables.append((out / f"{command}.csv").read_bytes())
    assert tables[0] == tables[1]


def test_explicit_weights_must_normalize():
    raw = _fig4_dict()
    raw["array"]["copies"] = 2
    raw["array"]["weights_policy"] = "explicit"
    raw["array"]["dividing_weights"] = [0.9, 0.5]
    raw["array"]["combining_weights"] = [0.9, 0.5]
    with pytest.raises(ConfigError, match="sum"):
        scenario_from_dict(raw)


def test_material_factor_calibrated_from_anchor():
    scn = scenario_from_dict(preset_scenario("fig3"))
    assert scn.dark_matter is not None
    assert "material_factor_calibrated" in scn.defaults_used
    assert scn.dark_matter.material_factor == pytest.approx(2.509e15, rel=1e-3)


def test_g0_derived_from_geometry_when_absent():
    raw = _fig4_dict()
    del raw["array"]["sensors"][0]["g0_rad_s"]
    scn = scenario_from_dict(raw)
    assert scn.sensors[0].cavity.g0 == pytest.approx(46.99, rel=1e-3)


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

def test_cli_fig4_writes_table_and_manifest(tmp_path, capsys):
    out = tmp_path / "f4"
    assert cli.main(["fig4", "--out", str(out)]) == 0
    table = out / "fig4.csv"
    manifest = json.loads((out / "manifest.json").read_text())
    header = table.read_text().splitlines()[0].split(",")
    assert header[:3] == ["omega_rad_s", "frequency_hz", "shot"]
    assert manifest["columns"] == header
    assert manifest["command"] == "fig4"


def test_cli_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fig2", "--out", str(out1)]) == 0
    assert cli.main(["fig2", "--out", str(out2)]) == 0
    assert (out1 / "fig2.csv").read_bytes() == (out2 / "fig2.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == \
        (out2 / "manifest.json").read_bytes()


def test_cli_rejects_malformed_scenario(tmp_path, capsys):
    raw = _fig4_dict()
    raw["array"]["copies"] = 2
    raw["array"]["weights_policy"] = "explicit"
    raw["array"]["dividing_weights"] = [0.9, 0.5]       # sum |w|^2 != 1
    raw["array"]["combining_weights"] = [0.9, 0.5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main(["noise", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not (out / "noise.csv").exists()


def test_cli_missing_scenario_is_validation_error(tmp_path):
    code = cli.main(["noise", "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_oracle_check_passes(tmp_path, capsys):
    out = tmp_path / "oc"
    code = cli.main(["oracle-check", "--configs", "10", "--freqs", "10",
                     "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out / "oracle-check.csv")))
    assert len(rows) == 10
    assert max(float(r["max_rel_residual"]) for r in rows) < 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["oracle"]["passed"] is True


def test_cli_oracle_check_reports_nearest_rank_percentiles(tmp_path):
    """The manifest's residual percentiles are nearest-rank values of the
    table's residuals, ordered p50 <= p90 <= p99 <= max."""
    out = tmp_path / "oc"
    assert cli.main(["oracle-check", "--configs", "40", "--freqs", "5",
                     "--out", str(out)]) == 0
    residuals = sorted(float(r["max_rel_residual"])
                       for r in csv.DictReader(open(out / "oracle-check.csv")))
    block = json.loads((out / "manifest.json").read_text())["oracle"]
    # ranks ceil(p/100 * 40): 20, 36 and 40
    assert [block[f"residual_p{p}"] for p in (50, 90, 99)] == [
        residuals[19], residuals[35], residuals[39]]
    assert (block["residual_p50"] <= block["residual_p90"]
            <= block["residual_p99"] <= block["max_rel_residual"])
    assert block["residual_p50"] < block["residual_p90"]


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def test_cli_oracle_check_fails_on_a_nan_residual(tmp_path, capsys,
                                                  monkeypatch):
    """A NaN in a config after the first fails the check (exit 1), and the
    manifest stays strict JSON."""
    real = scans.oracle_noise_psd
    poisoned = []

    def oracle(arrs, *args, **kwargs):
        out = real(arrs, *args, **kwargs)
        if not poisoned:
            out[-1, 0] = math.nan
            poisoned.append(int(arrs.n_sensors[-1]))
        return out

    monkeypatch.setattr(scans, "oracle_noise_psd", oracle)
    out = tmp_path / "oc"
    code = cli.main(["oracle-check", "--configs", "16", "--out", str(out)])
    assert code == 1
    rows = list(csv.DictReader(open(out / "oracle-check.csv")))
    bad = [i for i, r in enumerate(rows)
           if not math.isfinite(float(r["max_rel_residual"]))]
    assert len(bad) == 1 and bad[0] > 0
    assert int(rows[bad[0]]["n_sensors"]) == poisoned[0]

    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=_reject_constant)
    assert manifest["oracle"]["passed"] is False
    for key in ("max_rel_residual", "residual_p50", "residual_p90",
                "residual_p99"):
        assert manifest["oracle"][key] is None
    assert "FAIL" in capsys.readouterr().out


def _idle_column_scaled(u, column):
    u[..., :, 1:2] *= 1.01
    return u


def _padded_vacuum_leaks(u, column):
    # every padded input port reaches sensor 0
    u[..., 0, :] += 0.1 * (np.asarray(column) == 0)
    return u


@pytest.mark.parametrize("mutate", [_idle_column_scaled, _padded_vacuum_leaks],
                         ids=["idle-column-scaled", "padded-vacuum-leaks"])
def test_cli_oracle_check_fails_on_a_wrong_completion(tmp_path, capsys,
                                                      monkeypatch, mutate):
    """The check can fail: an idle column off unit norm, or a padded slot's
    vacuum reaching a real sensor, fails the default 16-config check."""
    complete = oracle.complete_unitary
    monkeypatch.setattr(oracle, "complete_unitary",
                        lambda column: mutate(complete(column), column))
    code = cli.main(["oracle-check", "--configs", "16",
                     "--out", str(tmp_path / "oc")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_json_tables_write_non_finite_cells_as_null(tmp_path, monkeypatch):
    """An overlay out of its range, and a NaN oracle residual, are null in
    a --format json table, which parses as strict JSON; CSV keeps nan."""
    overlay = tmp_path / "narrow.csv"
    overlay.write_text("100.0,1e-24\n1000.0,2e-24\n")
    for fmt in ("json", "csv"):
        assert cli.main(["fig3", "--out", str(tmp_path / fmt), "--format", fmt,
                         "--overlay", f"narrow={overlay}"]) == 0
    table = json.loads((tmp_path / "json" / "fig3.json").read_text(),
                       parse_constant=_reject_constant)
    cells = [row["overlay_narrow"] for row in table["rows"]]
    rows = list(csv.DictReader(open(tmp_path / "csv" / "fig3.csv")))
    assert [c is None for c in cells] == [
        r["overlay_narrow"] == "nan" for r in rows]
    assert None in cells and any(c is not None for c in cells)

    real = scans.oracle_noise_psd

    def oracle(arrs, *args, **kwargs):
        out = real(arrs, *args, **kwargs)
        out[0, 0] = math.nan
        return out

    monkeypatch.setattr(scans, "oracle_noise_psd", oracle)
    out = tmp_path / "oc"
    assert cli.main(["oracle-check", "--configs", "4", "--format", "json",
                     "--out", str(out)]) == 1
    table = json.loads((out / "oracle-check.json").read_text(),
                       parse_constant=_reject_constant)
    assert None in [row["max_rel_residual"] for row in table["rows"]]


def test_manifest_records_design_decision_defaults(tmp_path):
    out = tmp_path / "f3"
    assert cli.main(["fig3", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    defaults = manifest["defaults_used"]
    assert "coherence_linewidth_rule" in defaults
    assert defaults["snr_threshold"] == 1.0
    assert manifest["gamma_convention"] == "half"
    assert defaults["mechanical_bath_psd"] == "K_B*T/(hbar*Omega)"
    assert defaults["weights_policy"] == "matched"
    assert defaults["power_convention"] == "per_sensor"
    assert "material_factor_calibrated" in defaults
    assert manifest["warnings"] == []


def test_overlay_passthrough(tmp_path):
    overlay = tmp_path / "microscope.csv"
    overlay.write_text("frequency_hz,g\n10.0,1e-24\n100000.0,1e-24\n")
    out = tmp_path / "f3"
    code = cli.main(["fig3", "--out", str(out),
                     "--overlay", f"microscope={overlay}"])
    assert code == 0
    rows = list(csv.DictReader(open(out / "fig3.csv")))
    assert "overlay_microscope" in rows[0]
    assert float(rows[0]["overlay_microscope"]) == pytest.approx(1e-24, rel=1e-9)


def test_env_overrides(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    monkeypatch.setenv("OMSENSE_OUT", str(out))
    monkeypatch.setenv("OMSENSE_FORMAT", "json")
    assert cli.main(["fig4"]) == 0
    assert (out / "fig4.json").exists()


def test_env_change_between_calls_takes_effect(tmp_path, monkeypatch):
    """The environment is read on each call, not baked into the parser."""
    out = tmp_path / "o"
    monkeypatch.setenv("OMSENSE_FORMAT", "csv")
    assert cli.main(["fig4", "--out", str(out)]) == 0
    monkeypatch.setenv("OMSENSE_FORMAT", "json")
    assert cli.main(["fig4", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "fig4.json"]


def test_reused_parser_does_not_carry_overlays(tmp_path):
    overlay = tmp_path / "line.csv"
    overlay.write_text("10.0,1e-24\n100000.0,1e-24\n")
    assert cli.main(["fig3", "--out", str(tmp_path / "a"),
                     "--overlay", f"line={overlay}"]) == 0
    assert cli.main(["fig3", "--out", str(tmp_path / "b")]) == 0
    header = (tmp_path / "b" / "fig3.csv").read_text().splitlines()[0]
    assert "overlay_line" not in header


@pytest.mark.parametrize("row", [
    pytest.param("1000.0,0.0", id="zero-value"),
    pytest.param("1000.0,-1e-24", id="negative-value"),
    pytest.param("nan,1e-24", id="nan-frequency"),
    pytest.param("0.0,1e-24", id="zero-frequency"),
    pytest.param("1000.0,inf", id="inf-value")])
def test_overlay_bad_row_exits_two(tmp_path, capsys, row):
    """One bad row would spoil the whole interpolated column (all NaN, or
    the right-end value everywhere), so the overlay is rejected."""
    overlay = tmp_path / "curve.csv"
    overlay.write_text(f"frequency_hz,g\n10.0,1e-24\n{row}\n100000.0,2e-24\n")
    out = tmp_path / "o"
    assert cli.main(["fig3", "--out", str(out),
                     "--overlay", f"curve={overlay}"]) == 2
    assert str(overlay) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("labels", [
    pytest.param(["a,b"], id="comma-splits-the-header"),
    pytest.param([""], id="empty"),
    pytest.param(["curve", "curve"], id="repeated")])
def test_overlay_bad_label_exits_two(tmp_path, capsys, labels):
    """A label is a CSV header cell and a column name: a comma would shift
    the header against the rows, an empty one names no curve, and a repeat
    would drop the earlier file."""
    overlay = tmp_path / "curve.csv"
    overlay.write_text("10.0,1e-24\n100000.0,2e-24\n")
    out = tmp_path / "o"
    argv = ["fig3", "--out", str(out)]
    for label in labels:
        argv += ["--overlay", f"{label}={overlay}"]
    assert cli.main(argv) == 2
    assert "--overlay" in capsys.readouterr().err
    assert not out.exists()


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe not UTF-8 \xc3\x28")
    return path


@pytest.mark.parametrize("case", ["out-is-a-file", "scenario-not-utf8",
                                  "overlay-not-utf8"])
def test_io_failure_exits_two_naming_the_path(tmp_path, capsys, case):
    scenario = tmp_path / "fig3.json"
    scenario.write_text(json.dumps(preset_scenario("fig3")))
    out = tmp_path / "out"
    argv = ["dm-projection", "--scenario", str(scenario), "--out", str(out)]
    if case == "out-is-a-file":
        out.write_text("taken")
        path = out
    elif case == "scenario-not-utf8":
        path = _not_utf8(scenario)
    else:
        path = _not_utf8(tmp_path / "curve.csv")
        argv += ["--overlay", f"curve={path}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def _table_cases():
    cases = [pytest.param([name], scans.COLUMNS[cli._PRESET_COMMAND[name]],
                          name, id=name) for name in PRESET_NAMES]
    cases += [pytest.param(["sensitivity", "--scenario", "{scenario}"],
                           scans.COLUMNS["sensitivity"], name,
                           id=f"sensitivity-{name}") for name in PRESET_NAMES]
    cases.append(pytest.param(
        ["fig3", "--overlay", "b.2={curve}", "--overlay", "a-1={curve}"],
        scans.COLUMNS["dm-projection"] + ["overlay_a-1", "overlay_b.2"],
        "fig3", id="fig3-overlays"))
    cases.append(pytest.param(["oracle-check", "--configs", "5"],
                              scans.COLUMNS["oracle-check"], None,
                              id="oracle-check"))
    return cases


@pytest.mark.parametrize("argv,header,preset", _table_cases())
def test_tables_as_written(tmp_path, argv, header, preset):
    """The CSV header is the frozen order plus the sorted overlays, and the
    JSON rows hold the CSV cells' values."""
    curve, scenario = tmp_path / "curve.csv", tmp_path / "scenario.json"
    curve.write_text("50.0,1e-24\n5000.0,2e-24\n")
    if preset is not None:
        scenario.write_text(json.dumps(preset_scenario(preset)))
    argv = [arg.format(curve=curve, scenario=scenario) for arg in argv]
    outputs = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 0
        outputs[fmt] = (out / f"{argv[0]}.{fmt}").read_text()
        assert json.loads((out / "manifest.json").read_text())["columns"] == header
    first, *lines = outputs["csv"].splitlines()
    assert first.split(",") == header
    cells = [line.split(",") for line in lines]
    payload = json.loads(outputs["json"])
    assert payload["columns"] == header
    assert len(payload["rows"]) == len(cells) > 0
    for j, col in enumerate(header):
        values = [row[col] for row in payload["rows"]]
        column = [line[j] for line in cells]
        if col == "quantity":
            assert values == column
        else:
            np.testing.assert_array_equal(np.array(values, dtype=float),
                                          np.array(column, dtype=float))


def test_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("OMSENSE_OUT", str(tmp_path / "fromenv"))
    out = tmp_path / "fromflag"
    assert cli.main(["fig4", "--out", str(out)]) == 0
    assert (out / "fig4.csv").exists()
    assert not (tmp_path / "fromenv").exists()


def test_each_env_variable_reaches_its_flag_and_each_flag_wins(tmp_path,
                                                               monkeypatch):
    """Run on sensitivity, which integrates and so takes every common flag."""
    monkeypatch.chdir(tmp_path)
    env_scn = tmp_path / "env.json"
    env_scn.write_text(json.dumps({**_fig4_dict(), "unknown_key": 1}))
    flag_scn = tmp_path / "flag.json"
    flag_scn.write_text(json.dumps(_fig4_dict()))
    for name, value in {"SCENARIO": str(env_scn), "OUT": "-env-out",
                        "FORMAT": "json", "TOLERANCE": "3e-4",
                        "STRICT": "No ", "GAMMA_CONVENTION": "full"}.items():
        monkeypatch.setenv(cli.ENV_PREFIX + name, value)
    assert cli.main(["sensitivity"]) == 0
    manifest = json.loads((tmp_path / "-env-out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["sensitivity.json"]
    assert manifest["scenario_hash"] == load_scenario(
        env_scn, strict=False).scenario_hash()
    assert manifest["tolerance_override"] == 3e-4
    assert manifest["grid"]["tolerance_rel"] == 3e-4
    assert manifest["strict"] is False
    assert any("unknown_key" in w for w in manifest["warnings"])
    assert manifest["gamma_convention"] == "full"
    assert manifest["defaults_used"]["gamma_convention"] == "full"

    assert cli.main(["sensitivity", "--scenario", str(flag_scn),
                     "--out", "flag-out", "--format", "csv",
                     "--tolerance", "1e-4", "--strict",
                     "--gamma-convention", "half"]) == 0
    manifest = json.loads((tmp_path / "flag-out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["sensitivity.csv"]
    assert (tmp_path / "flag-out" / "sensitivity.csv").exists()
    assert manifest["scenario_hash"] == load_scenario(flag_scn).scenario_hash()
    assert manifest["tolerance_override"] == 1e-4
    assert manifest["strict"] is True
    assert manifest["gamma_convention"] == "half"
    # --strict beats the falsy variable on the scenario it would reject
    assert cli.main(["sensitivity", "--strict", "--out", "strict-out"]) == 2
    assert not (tmp_path / "strict-out").exists()


@pytest.mark.parametrize("value,strict", [
    ("1", True), ("yes", True), ("0", False), ("false", False), ("", False)])
def test_strict_variable_keeps_its_truthiness_rule(tmp_path, monkeypatch,
                                                   value, strict):
    monkeypatch.setenv("OMSENSE_STRICT", value)
    out, scenario = tmp_path / "o", tmp_path / "fig4.json"
    scenario.write_text(json.dumps(_fig4_dict()))
    argv = ["noise", "--scenario", str(scenario), "--out", str(out)]
    assert cli.main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["strict"] is strict
    # the opposite flag, given on the command line, wins
    assert cli.main(argv + ["--lenient" if strict else "--strict"]) == 0
    assert (json.loads((out / "manifest.json").read_text())["strict"]
            is not strict)


@pytest.mark.parametrize("command", ["fig4", "fig2", "oracle-check"])
@pytest.mark.parametrize("name,value", [("FORMAT", "xml"), ("FORMAT", ""),
                                        ("GAMMA_CONVENTION", "bogus"),
                                        ("TOLERANCE", "nan")])
def test_env_value_meets_its_flags_checks(tmp_path, monkeypatch, capsys,
                                          command, name, value):
    """A rejected value exits 2 naming its flag and its variable.  fig4
    integrates nothing, so it takes no --tolerance; oracle-check takes no
    --gamma-convention or --tolerance.  They leave those variables out and
    run."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OMSENSE_" + name, value)
    argv = ([command, "--configs", "2", "--freqs", "2"]
            if command == "oracle-check" else [command])
    left_out = {"fig4": ("TOLERANCE",),
                "oracle-check": ("TOLERANCE", "GAMMA_CONVENTION")}
    if name in left_out.get(command, ()):
        assert cli.main(argv) == 0
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --" + name.lower().replace("_", "-") in err
    assert "OMSENSE_" + name in err
    assert list(tmp_path.iterdir()) == []


def test_oracle_check_refuses_a_scenario_and_its_settings(tmp_path, capsys):
    """oracle-check draws its arrays: a scenario, tolerance, strictness or
    gamma convention would do nothing, so they exit 2."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", "--configs", "2", "--freqs", "2",
                  "--scenario", "/nonexistent.json", "--tolerance", "0.5",
                  "--gamma-convention", "full", "--lenient",
                  "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_oracle_check_reads_only_its_variables(tmp_path, monkeypatch):
    """Variables of flags oracle-check lacks are left out, so a shell that
    sets them still runs it; OMSENSE_OUT and OMSENSE_FORMAT reach it, and the
    manifest records no scenario setting."""
    monkeypatch.chdir(tmp_path)
    for name, value in {"SCENARIO": "x", "TOLERANCE": "0.5", "STRICT": "0",
                        "GAMMA_CONVENTION": "full", "OUT": "env-out",
                        "FORMAT": "json"}.items():
        monkeypatch.setenv(cli.ENV_PREFIX + name, value)
    assert cli.main(["oracle-check", "--configs", "2", "--freqs", "2"]) == 0
    manifest = json.loads((tmp_path / "env-out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["oracle-check.json"]
    assert not {"gamma_convention", "strict",
                "tolerance_override"} & set(manifest)


@pytest.mark.parametrize("command", ["noise", "dm-projection", "fig3", "fig4"])
def test_command_that_integrates_nothing_refuses_tolerance(tmp_path, capsys,
                                                           command):
    """A tolerance would change nothing in these tables, so it exits 2."""
    raw = preset_scenario("fig3" if command == "dm-projection" else "fig4")
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    scenario = [] if command in PRESET_NAMES else ["--scenario", str(path)]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *scenario, "--tolerance", "0.5",
                  "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--tolerance" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_tolerance_variable_does_not_reach_fig4(tmp_path, monkeypatch):
    monkeypatch.setenv("OMSENSE_TOLERANCE", "0.5")
    out = tmp_path / "o"
    assert cli.main(["fig4", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerance_override"] is None
    assert manifest["grid"]["tolerance_rel"] == 1e-3


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_tolerance_variable_reaches_exactly_the_integrating_commands(
        monkeypatch, command):
    monkeypatch.setenv("OMSENSE_TOLERANCE", "3e-4")
    integrates = cli._PRESET_COMMAND.get(command, command) in {
        "array-scan", "sensitivity", "power-scan", "loss-scan"}
    assert cli._env_args(command) == (["--tolerance=3e-4"] if integrates
                                      else [])


_SCENARIO_MANIFEST_KEYS = {
    "columns", "command", "defaults_used", "gamma_convention", "grid",
    "n_rows", "outputs", "package", "scenario_hash", "strict",
    "tolerance_override", "warnings"}


@pytest.mark.parametrize("argv,keys", [
    *[([name], _SCENARIO_MANIFEST_KEYS) for name in PRESET_NAMES],
    (["sensitivity", "--scenario", "fig4.json"], _SCENARIO_MANIFEST_KEYS),
    (["oracle-check", "--configs", "2", "--freqs", "2"],
     {"columns", "command", "defaults_used", "grid", "n_rows", "oracle",
      "outputs", "package", "scenario_hash", "warnings"})],
    ids=[*PRESET_NAMES, "sensitivity", "oracle-check"])
def test_each_command_writes_exactly_its_manifest_keys(tmp_path, monkeypatch,
                                                       argv, keys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig4.json").write_text(json.dumps(_fig4_dict()))
    assert cli.main([*argv, "--out", "o"]) == 0
    assert set(json.loads((tmp_path / "o" / "manifest.json").read_text())) \
        == keys


def test_readme_names_each_env_variable():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"OMSENSE_[A-Z][A-Z_]*", readme))
    assert named == {cli.ENV_PREFIX + name
                     for name in (*cli._ENV_FLAGS, "STRICT")}


@pytest.mark.parametrize("argv", [["bogus"], ["--scenario", "x.json", "noise"]])
def test_unknown_command_exits_two_listing_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(name in err for name in cli._COMMANDS)


def test_gamma_convention_flag_changes_thermal_floor(tmp_path):
    outs = {}
    for conv in ("half", "full"):
        out = tmp_path / conv
        assert cli.main(["fig4", "--out", str(out), "--gamma-convention",
                         conv]) == 0
        rows = list(csv.DictReader(open(out / "fig4.csv")))
        outs[conv] = float(rows[0]["thermal"])
    assert outs["full"] == pytest.approx(2.0 * outs["half"], rel=1e-12)


def test_cli_exit_three_on_non_convergence(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic")
    monkeypatch.setattr("omsense.scans.noise_budget_table", boom)
    code = cli.main(["fig4", "--out", str(tmp_path / "x")])
    assert code == 3


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "f4"
    assert cli.main(["fig4", "--out", str(out)]) == 0
    rows = list(csv.DictReader(open(out / "fig4.csv")))
    # shortest-roundtrip formatting preserves the double exactly
    val = float(rows[7]["total_classical"])
    assert repr(val) == rows[7]["total_classical"]


def test_json_output_format(tmp_path):
    out = tmp_path / "j"
    assert cli.main(["fig2", "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "fig2.json").read_text())
    assert payload["columns"][0] == "n_sensors"
    assert len(payload["rows"]) == 11


def test_load_scenario_from_file_roundtrip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_fig4_dict()))
    scn = load_scenario(path)
    assert scn.n_sensors == 1
    assert scn.scenario_hash() == scenario_from_dict(_fig4_dict()).scenario_hash()


# ---------------------------------------------------------------------------
# exit code 2 for non-finite and out-of-range inputs
# ---------------------------------------------------------------------------

def _run_noise(tmp_path, raw):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))  # NaN / Infinity literals, as json.load reads them
    out = tmp_path / "out"
    code = cli.main(["noise", "--scenario", str(path), "--out", str(out)])
    assert not (out / "noise.csv").exists()
    return code


def test_cli_bad_tolerance_env_is_validation_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OMSENSE_TOLERANCE", "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig5", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "OMSENSE_TOLERANCE" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key,value", [("squeezing_db", math.nan),
                                       ("squeezing_db", math.inf),
                                       ("squeezing_db", -10),
                                       ("photon_number", math.nan),
                                       ("photon_number", math.inf)])
def test_cli_non_finite_squeezing_rejected(tmp_path, capsys, key, value):
    """The message names the key and the value the scenario gives."""
    raw = _fig4_dict(input_light={key: value, "angle_policy": "optimal"})
    assert _run_noise(tmp_path, raw) == 2
    assert (f"input_light.{key} must be finite and >= 0, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cli_non_finite_duration_rejected(tmp_path, capsys, value):
    raw = _fig4_dict()
    raw["observation"]["duration_s"] = value
    assert _run_noise(tmp_path, raw) == 2
    assert "duration must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("where,key,value", [
    ("sensor", "temperature_k", math.nan),
    ("sensor", "temperature_k", math.inf),
    ("array", "power_w", math.inf),
    ("array", "power_w", math.nan)])
def test_cli_non_finite_temperature_or_power_rejected(tmp_path, capsys, where,
                                                      key, value):
    raw = _fig4_dict()
    block = raw["array"]["sensors"][0] if where == "sensor" else raw["array"]
    block[key] = value
    assert _run_noise(tmp_path, raw) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "noise PSD" not in err


@pytest.mark.parametrize("value", [0.0, -1e-3, math.nan, math.inf])
def test_cli_bad_tolerance_rejected(tmp_path, capsys, value):
    raw = _fig4_dict()
    raw["grid"]["tolerance_rel"] = value
    assert _run_noise(tmp_path, raw) == 2
    assert "tolerance_rel must be finite and > 0" in capsys.readouterr().err

    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(_fig4_dict()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sensitivity", "--scenario", str(path), "--out",
                  str(tmp_path / "flag-out"), "--tolerance", repr(value)])
    assert exc.value.code == 2
    assert ("argument --tolerance: must be a finite number > 0"
            in capsys.readouterr().err)
    assert not (tmp_path / "flag-out").exists()


@pytest.mark.parametrize("block,key,value,message", [
    ("array", "power_w", "abc", "array.power_w must be a number"),
    ("array", "copies", "abc", "array.copies must be a number"),
    ("grid", "tolerance_rel", "x", "grid.tolerance_rel must be a number")])
def test_cli_malformed_number_is_validation_error(tmp_path, capsys, block, key,
                                                  value, message):
    raw = _fig4_dict()
    raw[block][key] = value
    assert _run_noise(tmp_path, raw) == 2
    assert message in capsys.readouterr().err


def test_cli_points_per_decade_accepted_and_ignored(tmp_path):
    """Older scenario files set grid.points_per_decade: strict mode still
    loads them, the table is unchanged and the manifest notes the key."""
    outputs = {}
    for label, grid in (("with", {"tolerance_rel": 1e-3, "points_per_decade": 16}),
                        ("without", {"tolerance_rel": 1e-3})):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(_fig4_dict(grid=grid)))
        out = tmp_path / label
        assert cli.main(["sensitivity", "--scenario", str(path), "--strict",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outputs[label] = ((out / "sensitivity.csv").read_bytes(),
                          manifest["warnings"])
    assert outputs["with"][0] == outputs["without"][0]
    assert outputs["without"][1] == []
    assert any("points_per_decade has no effect" in w for w in outputs["with"][1])


@pytest.mark.parametrize("light,warning", [
    ({"squeezing_db": 10.0, "angle_policy": "optimal"},
     "input_light.angle_rad has no effect under angle_policy 'optimal'"),
    ({"angle_policy": "vacuum"},
     "input_light.angle_rad has no effect under angle_policy 'vacuum'"),
    ({"squeezing_db": 10.0, "angle_policy": "fixed"}, None)],
    ids=["optimal", "vacuum", "fixed"])
def test_angle_rad_is_noted_where_the_policy_ignores_it(tmp_path, light,
                                                        warning):
    """Only the fixed policy reads angle_rad; under the others the table is
    the one without it and the manifest says the key did nothing."""
    outputs = {}
    for label, angle in (("with", {"angle_rad": 0.3}), ("without", {})):
        code, out = _run(tmp_path / label, "noise",
                         _fig4_dict(input_light=dict(light, **angle)))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outputs[label] = ((out / "noise.csv").read_bytes(), manifest["warnings"])
    assert outputs["without"][1] == []
    if warning is None:  # the fixed policy reads the angle
        assert outputs["with"][1] == []
        assert outputs["with"][0] != outputs["without"][0]
    else:
        assert outputs["with"] == (outputs["without"][0], [warning])


def test_fixed_angle_without_angle_rad_records_its_default(tmp_path):
    light = {"squeezing_db": 10.0, "angle_policy": "fixed"}
    defaults = {}
    for label, angle in (("without", {}), ("with", {"angle_rad": 0.0})):
        code, out = _run(tmp_path / label, "noise",
                         _fig4_dict(input_light=dict(light, **angle)))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        defaults[label] = manifest["defaults_used"]
    assert defaults["without"]["angle_rad"] == 0.0
    assert "angle_rad" not in defaults["with"]


@pytest.mark.parametrize("command,preset", [
    ("power-scan", "fig5"), ("loss-scan", "fig6"), ("dm-projection", "fig3")])
def test_optimal_angle_commands_note_a_fixed_angle(tmp_path, command, preset):
    """These commands squeeze at the optimal angle whatever input_light
    says: a fixed angle leaves the table as it is, and the manifest says
    so."""
    outputs = {}
    for policy, angle in (("optimal", {}), ("fixed", {"angle_rad": 0.3})):
        raw = preset_scenario(preset)
        raw["input_light"] = {"squeezing_db": 10.0, "angle_policy": policy,
                              **angle}
        code, out = _run(tmp_path / policy, command, raw)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outputs[policy] = ((out / f"{command}.csv").read_bytes(),
                           manifest["warnings"])
    assert outputs["optimal"][1] == []
    assert outputs["fixed"][0] == outputs["optimal"][0]
    [note] = outputs["fixed"][1]
    assert note.startswith("input_light.angle_policy 'fixed' has no effect: "
                           f"{command} squeezes at the optimal angle")


@pytest.mark.parametrize("policy", ["matched", "uniform", "inverse_variance"])
def test_weights_under_a_weight_setting_policy_are_noted(tmp_path, capsys,
                                                         policy):
    """Given weights do nothing unless weights_policy is explicit: the
    table is the one without them and the manifest notes each key; they are
    still parsed, so a malformed one exits 2."""
    outputs = {}
    for label, weights in (("with", {"dividing_weights": [1, 0],
                                     "combining_weights": [0.5]}),
                           ("without", {})):
        raw = _fig4_dict()
        raw["array"].update(weights_policy=policy, **weights)
        code, out = _run(tmp_path / label, "noise", raw)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        outputs[label] = ((out / "noise.csv").read_bytes(), manifest["warnings"])
    assert outputs["with"] == (outputs["without"][0], [
        f"array.{key} has no effect under weights_policy {policy!r}"
        for key in ("dividing_weights", "combining_weights")])
    raw = _fig4_dict()
    raw["array"].update(weights_policy=policy, dividing_weights="junk")
    assert _run(tmp_path / "junk", "noise", raw)[0] == 2
    assert "array.dividing_weights must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--scenario=fig4.json", "--strict",
                                  "--lenient"])
def test_preset_refuses_a_scenario_and_strictness(tmp_path, capsys, flag):
    """A preset runs its own scenario: --scenario would make it an alias of
    its base command, and strictness does nothing on a built-in one."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["fig2", flag, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert flag.partition("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_scenario_and_strict_variables_leave_a_preset_as_it_is(tmp_path,
                                                               monkeypatch):
    scenario = tmp_path / "fig4.json"
    scenario.write_text(json.dumps(_fig4_dict()))
    outputs = {}
    for label in ("plain", "env"):
        if label == "env":
            monkeypatch.setenv("OMSENSE_SCENARIO", str(scenario))
            monkeypatch.setenv("OMSENSE_STRICT", "0")
        out = tmp_path / label
        assert cli.main(["fig2", "--out", str(out)]) == 0
        outputs[label] = ((out / "fig2.csv").read_bytes(),
                          (out / "manifest.json").read_bytes())
    assert outputs["env"] == outputs["plain"]
    assert len(outputs["env"][0].splitlines()) == 1 + 11
    assert json.loads(outputs["env"][1])["strict"] is True


@pytest.mark.parametrize("key", ["squeezing_db", "photon_number"])
def test_vacuum_policy_with_squeezing_names_both_keys(tmp_path, capsys, key):
    code, _ = _run(tmp_path / "zero", "noise",
                   _fig4_dict(input_light={key: 0, "angle_policy": "vacuum"}))
    assert code == 0
    code, out = _run(tmp_path / "squeezed", "noise",
                     _fig4_dict(input_light={key: 2.0, "angle_policy": "vacuum"}))
    assert code == 2
    assert (f"error: input_light.angle_policy 'vacuum' needs {key} = 0, "
            f"got 2.0") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset,path,value,pair", [
    ("fig3", ("dark_matter", "density_kg_m3"), 7e-22,
     "dark_matter: give density_kg_m3 or density_gev_cm3"),
    ("fig4", ("array", "sensors", 0, "damping_rad_s"), 2.5e-5,
     "array.sensors[0]: give damping_rad_s or quality_factor"),
    ("fig4", ("array", "sensors", 0, "damping_hz"), 4e-6,
     "array.sensors[0]: give damping_hz or quality_factor"),
    ("fig3", ("dark_matter", "material_factor"), 2.5e15,
     "dark_matter: give material_factor or calibration"),
    ("fig3", ("dark_matter",), {"compton_hz": 2000.0, "material_factor": 2.5e15,
                                "calibration": {"bogus": 1}},
     "dark_matter: give material_factor or calibration")],
    ids=["density", "damping-rad-s", "damping-hz", "material-factor",
         "material-factor-unread-calibration"])
def test_key_that_would_override_another_exits_two(tmp_path, capsys, preset,
                                                   path, value, pair):
    """Each pair used to let one key win and drop the other unread."""
    raw = preset_scenario(preset)
    _set(raw, path, value)
    code, out = _run(tmp_path, cli._PRESET_COMMAND[preset], raw)
    assert code == 2
    assert f"error: {pair}, not both" in capsys.readouterr().err
    assert not out.exists()


def _run(tmp_path, command, raw):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    if code != 0:
        assert not out.exists() or not any(out.iterdir())
    return code, out


@pytest.mark.parametrize("preset,key,value,message", [
    ("fig2", "sensor_counts", [2.5], "scan.sensor_counts[0] must be an integer"),
    ("fig2", "sensor_counts", ["x"], "scan.sensor_counts[0] must be a number"),
    ("fig2", "sensor_counts", [4, 0], "scan.sensor_counts[1] must be an integer"),
    ("fig2", "sensor_counts", 8, "scan.sensor_counts must be a list"),
    ("fig3", "dqs_sensors", 0, "scan.dqs_sensors must be an integer"),
    ("fig3", "compton_points", "x", "scan.compton_points must be a number"),
    ("fig3", "compton_hz_min", 0, "scan.compton_hz_min must be finite and > 0"),
    ("fig3", "compton_hz_max", math.inf,
     "scan.compton_hz_max must be finite and > 0"),
    ("fig5", "powers_w", ["x"], "scan.powers_w[0] must be a number"),
    ("fig5", "powers_w", [1e-3, -1e-3], "scan.powers_w[1] must be finite and >= 0"),
    ("fig5", "fixed_angle_rad", "x", "scan.fixed_angle_rad must be a number"),
    ("fig5", "fixed_angle_rad", math.nan, "scan.fixed_angle_rad must be finite"),
    ("fig6", "losses", ["x"], "scan.losses[0] must be a number"),
    ("fig6", "losses", [0.0, 1.0], "scan.losses[1] must be in [0, 1)"),
    ("fig6", "losses", [-0.1], "scan.losses[0] must be in [0, 1)"),
    ("fig6", None, [0.1], "scan must be an object"),
    ("fig2", "sensor_counts", [], "scan.sensor_counts must not be empty"),
    ("fig5", "powers_w", [], "scan.powers_w must not be empty"),
    ("fig6", "losses", [], "scan.losses must not be empty")])
def test_cli_malformed_scan_field_is_validation_error(tmp_path, capsys, preset,
                                                      key, value, message):
    raw = preset_scenario(preset)
    if key is None:
        raw["scan"] = value
    else:
        raw["scan"][key] = value
    code, _ = _run(tmp_path, cli._PRESET_COMMAND[preset], raw)
    assert code == 2
    assert message in capsys.readouterr().err


def _sensor0(raw):
    return raw["array"]["sensors"][0]


def _two_templates(raw, **array):
    raw["array"]["sensors"] = [_sensor0(raw),
                               dict(_sensor0(raw), resonance_hz=2600.0)]
    raw["array"].update(array)


def _explicit_three_weights(raw):
    w = [0.6, 0.64, 0.48]
    raw["array"].update(copies=2, weights_policy="explicit",
                        dividing_weights=w, combining_weights=w)


def _fixed_at_4000_db(raw):
    raw["input_light"] = {"squeezing_db": 4000.0, "angle_policy": "fixed",
                          "angle_rad": 0.3}


def _without_g0_and_length(raw):
    del _sensor0(raw)["g0_rad_s"], _sensor0(raw)["cavity_length_m"]


def _rejection(command, preset, edit, message, id, overlay=None):
    """A case of ``test_each_rejection_exits_two_with_its_message``: an edit
    changes the preset's scenario in place, or is what the scenario file
    holds instead (text verbatim); ``overlay`` is an overlay file's text."""
    return pytest.param(command, preset, edit, overlay, message, id=id)


_REJECTIONS = [
    _rejection("noise", "fig4", lambda raw: _sensor0(raw).pop("mass_kg"),
               "array.sensors[0]: missing field 'mass_kg'", "no-mass"),
    _rejection("noise", "fig4", _without_g0_and_length,
               "g0 or cavity_length_m required", "no-g0-no-length"),
    _rejection("array-scan", "fig2",
               lambda raw: (_two_templates(raw),
                            raw["scan"].update(sensor_counts=[3])),
               "sensor-count override requires a single-sensor template",
               "count-override-of-two-templates"),
    _rejection("noise", "fig4", [1, 2], "scenario root must be a JSON object",
               "root-a-list"),
    _rejection("noise", "fig4", lambda raw: raw.pop("array"),
               "scenario needs an 'array' object", "no-array"),
    _rejection("noise", "fig4", lambda raw: raw["array"].update(sensors=[]),
               "array.sensors must be a non-empty list", "no-sensors"),
    _rejection("noise", "fig4", lambda raw: _two_templates(raw, copies=2),
               "array.copies > 1 requires a single sensor template",
               "copies-of-two-templates"),
    _rejection("noise", "fig4", _explicit_three_weights,
               "dividing weights must have 2 entries, got 3",
               "explicit-weights-of-the-wrong-length"),
    _rejection("dm-projection", "fig3",
               lambda raw: raw["dark_matter"].pop("calibration"),
               "dark_matter needs material_factor or a calibration block",
               "no-material-factor-no-calibration"),
    _rejection("noise", "fig4", '{"array": ', "is not valid JSON",
               "malformed-json"),
    _rejection("dm-projection", "fig4", None,
               "dm-projection needs a dark_matter block", "no-dm-block"),
    _rejection("power-scan", "fig4", None, "power-scan needs scan.powers_w",
               "no-powers"),
    _rejection("loss-scan", "fig4", None, "loss-scan needs scan.losses",
               "no-losses"),
    _rejection("dm-projection", "fig3", None, "contains no numeric rows",
               "overlay-without-numeric-rows",
               overlay="# a comment\nfrequency_hz,g\nten,1e-24\n"),
    _rejection("sensitivity", "fig4", _fixed_at_4000_db,
               "inputs outside the model's numeric range",
               "sensitivity-fixed-at-4000-db"),
    _rejection("power-scan", "fig5", _fixed_at_4000_db,
               "inputs outside the model's numeric range",
               "power-scan-fixed-at-4000-db")]


@pytest.mark.parametrize("command,preset,edit,overlay,message", _REJECTIONS)
def test_each_rejection_exits_two_with_its_message(tmp_path, capsys, command,
                                                   preset, edit, overlay,
                                                   message):
    """Every rejection of a scenario, an overlay or an out-of-range input
    exits 2 with its message and writes nothing."""
    raw = preset_scenario(preset)
    if callable(edit):
        edit(raw)
    elif edit is not None:
        raw = edit
    path = tmp_path / "scn.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    out = tmp_path / "out"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if overlay is not None:
        (tmp_path / "curve.csv").write_text(overlay)
        argv += ["--overlay", f"curve={tmp_path / 'curve.csv'}"]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_scan_defaults_come_from_the_loader():
    scan = scenario_from_dict(_fig4_dict()).scan
    assert scan == {"sensor_counts": [1, 2, 4, 8, 16, 32, 64, 100],
                    "dqs_sensors": 10, "compton_hz_min": 20.0,
                    "compton_hz_max": 20000.0, "compton_points": 61,
                    "powers_w": None, "fixed_angle_rad": math.pi / 4,
                    "losses": None}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("block,key", [
    ("sensor", "quality_factor"), ("sensor", "wavelength_m"),
    ("sensor", "response_factor"), ("dark_matter", "density_gev_cm3"),
    ("dark_matter", "compton_hz"), ("dark_matter", "linewidth_fraction")])
def test_cli_non_positive_physical_value_rejected(tmp_path, capsys, block, key,
                                                  value):
    raw = preset_scenario("fig3")
    target = raw["array"]["sensors"][0] if block == "sensor" else raw[block]
    target[key] = value
    code, _ = _run(tmp_path, "dm-projection", raw)
    assert code == 2
    assert "must be finite and > 0" in capsys.readouterr().err


def _explicit_pair(dividing, combining):
    raw = _fig4_dict()
    detuned = dict(raw["array"]["sensors"][0], resonance_hz=2600.0,
                   detection_efficiency_sq=0.9)
    raw["array"].update(sensors=[raw["array"]["sensors"][0], detuned],
                        weights_policy="explicit", dividing_weights=dividing,
                        combining_weights=combining)
    return raw


@pytest.mark.parametrize("phased", ["dividing_weights", "combining_weights"])
def test_cli_complex_explicit_weights_rejected(tmp_path, capsys, phased):
    raw = _explicit_pair([0.6, 0.8], [0.8, 0.6])
    raw["array"][phased] = [[0.6, 0.0], [0.0, 0.8]]
    code, _ = _run(tmp_path, "noise", raw)
    assert code == 2
    assert f"array.{phased}[1]" in capsys.readouterr().err


def _noise_matches_oracle(tmp_path, raw):
    """Run ``noise`` on ``raw`` (exit 0) and compare every 40th row's
    classical and optimally squeezed totals with the oracle at 1e-9; the
    loaded scenario is returned."""
    from omsense.arrays import optimal_squeezing_angle
    from omsense.oracle import oracle_noise_psd

    code, out = _run(tmp_path, "noise", raw)
    assert code == 0
    rows = list(csv.DictReader(open(out / "noise.csv")))[::40]
    scn = load_scenario(tmp_path / "scn.json")
    arr = scn.build_array()
    for row in rows:
        omega = float(row["omega_rad_s"])
        theta = optimal_squeezing_angle(arr, omega)
        classical = oracle_noise_psd(arr, omega)
        squeezed = oracle_noise_psd(arr, omega, scn.squeeze, theta=theta)
        assert float(row["total_classical"]) == pytest.approx(classical,
                                                              rel=1e-9)
        assert float(row["total_squeezed"]) == pytest.approx(squeezed, rel=1e-9)
    return scn


def test_cli_signed_real_explicit_weights_match_oracle(tmp_path):
    scn = _noise_matches_oracle(
        tmp_path, _explicit_pair([0.6, [-0.8, 0.0]], [0.8, -0.6]))
    assert scn.build_array().dividing_weights[1] == -0.8


def test_cli_uniform_weights_match_oracle(tmp_path):
    # two distinct templates, so the array is one kernel row per sensor
    raw = _explicit_pair(None, None)
    for key in ("dividing_weights", "combining_weights"):
        del raw["array"][key]
    raw["array"]["weights_policy"] = "uniform"
    scn = _noise_matches_oracle(tmp_path, raw)
    assert scn.weights_policy == "uniform"
    np.testing.assert_allclose(scn.build_array().combining_weights,
                               [0.5**0.5, 0.5**0.5])


def test_cli_sensor_damping_rate_matches_oracle(tmp_path):
    raw = _fig4_dict()
    sensor = raw["array"]["sensors"][0]
    del sensor["quality_factor"]
    sensor["damping_rad_s"] = 2.5e-5
    scn = _noise_matches_oracle(tmp_path, raw)
    assert scn.sensors[0].oscillator.gamma == 2.5e-5


def test_cli_photon_number_light_matches_oracle(tmp_path):
    raw = _fig4_dict()
    del raw["input_light"]["squeezing_db"]
    raw["input_light"]["photon_number"] = 2.0
    scn = _noise_matches_oracle(tmp_path, raw)
    assert scn.squeeze.r == pytest.approx(math.asinh(2.0**0.5), rel=1e-12)


def test_cli_dark_matter_density_defaults(tmp_path):
    from omsense.constants import RHO_DM_DEFAULT

    raw = preset_scenario("fig3")
    del raw["dark_matter"]["density_gev_cm3"]
    code, out = _run(tmp_path, "dm-projection", raw)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["defaults_used"]["rho_dm_kg_m3"] == RHO_DM_DEFAULT
    assert load_scenario(tmp_path / "scn.json").dark_matter.rho_dm \
        == RHO_DM_DEFAULT


@pytest.mark.parametrize("flag,value", [
    ("--configs", "0"), ("--configs", "-3"), ("--freqs", "0"),
    ("--residual-tol", "nan"), ("--residual-tol", "0"), ("--seed", "-1"),
    ("--seed", "x"),
    pytest.param("--configs", "1" + "0" * 400, id="--configs-10**400"),
    # flags of the scenario commands, which oracle-check does not read
    ("--scenario", "x.json"), ("--tolerance", "0.5"),
    ("--gamma-convention", "full"), ("--lenient", "--strict")])
def test_oracle_check_bad_flag_exits_two(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle-check", flag, value, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["noise", "array-scan"])
@pytest.mark.parametrize("where,key,message", [
    ("sensor", "detection_efficiency_sq",
     "detection efficiency eta^2 = 0: nothing reaches the detector"),
    ("array", "power_w", "zero optomechanical cooperativity: no optical readout")],
    ids=["efficiency-zero", "power-zero"])
def test_cli_sensor_without_readout_exits_two(tmp_path, capsys, command, where,
                                              key, message):
    raw = _fig4_dict()
    block = raw["array"]["sensors"][0] if where == "sensor" else raw["array"]
    block[key] = 0
    code, _ = _run(tmp_path, command, raw)
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_sensitivity_with_inverse_variance_weights(tmp_path):
    raw = _fig4_dict()
    template = raw["array"]["sensors"][0]
    raw["array"].update(weights_policy="inverse_variance", sensors=[
        template, dict(template, resonance_hz=2600.0, mass_kg=1.2e-5)])
    code, out = _run(tmp_path, "sensitivity", raw)
    assert code == 0
    assert (out / "sensitivity.csv").exists()


def _two_sensor_fig2(kind):
    raw = preset_scenario("fig2")
    raw["scan"]["sensor_counts"] = [2]
    if kind == "two-templates":
        template = raw["array"]["sensors"][0]
        raw["array"]["sensors"] = [template, dict(template, resonance_hz=2600.0)]
    else:
        raw["array"].update(copies=2, weights_policy="explicit",
                            dividing_weights=[0.6, 0.8],
                            combining_weights=[0.6, 0.8])
    return raw


@pytest.mark.parametrize("kind", ["two-templates", "explicit-weights"])
def test_array_scan_single_reference_is_template_zero(tmp_path, kind):
    # M = 1 is template 0 alone, so the template count and the weight policy
    # do not have to admit a one-sensor array.
    code, out = _run(tmp_path, "array-scan", _two_sensor_fig2(kind))
    assert code == 0
    [row] = list(csv.DictReader(open(out / "array-scan.csv")))
    sens = tmp_path / "sens"
    assert cli.main(["sensitivity", "--scenario", str(tmp_path / "scn.json"),
                     "--out", str(sens)]) == 0
    classical = next(r for r in csv.DictReader(open(sens / "sensitivity.csv"))
                     if r["quantity"] == "classical")
    assert float(row["i_classical_coherent"]) == float(classical["value"])


def test_dm_projection_two_templates(tmp_path):
    raw = preset_scenario("fig3")
    template = raw["array"]["sensors"][0]
    raw["array"]["sensors"] = [template, dict(template, resonance_hz=2600.0)]
    raw["scan"].update(dqs_sensors=2, compton_points=3)
    code, _ = _run(tmp_path, "dm-projection", raw)
    assert code == 0


def test_dm_projection_records_plan_warnings(tmp_path):
    raw = preset_scenario("fig3")
    raw["observation"]["duration_s"] = 1.0   # Delta_a * T_O < 1 on every row
    raw["scan"]["compton_points"] = 5
    code, out = _run(tmp_path, "dm-projection", raw)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["warnings"]) == 1
    assert manifest["warnings"][0].startswith("Delta_a * T_O < 1")


def test_table_columns_cover_exactly_the_table_commands():
    assert set(scans.COLUMNS) == set(cli._COMMANDS) - set(PRESET_NAMES)


# ---------------------------------------------------------------------------
# every value finite and in range, or exit 2 with nothing written
# ---------------------------------------------------------------------------

def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("preset,path,value", [
    ("fig3", ("dark_matter", "material_factor"), math.nan),
    ("fig3", ("dark_matter", "calibration", "acceleration_asd_ms2_rthz"),
     math.nan),
    ("fig3", ("dark_matter", "calibration", "coupling"), math.nan),
    ("fig3", ("dark_matter", "coherence_linewidth_rad_s"), math.nan),
    ("fig3", ("dark_matter", "coupling"), math.inf),
    ("fig4", ("grid", "min_hz"), math.nan),
    ("fig4", ("grid", "min_hz"), -1.0),
    ("fig4", ("grid",), {"min_hz": 1e4, "max_hz": 1e2}),
    ("fig4", ("array", "sensors", 0, "g0_rad_s"), 1e300),      # OverflowError
    ("fig4", ("array", "sensors", 0, "wavelength_m"), 1e300),  # ZeroDivisionError
    ("fig4", ("array", "power_w"), 1e300),                     # NaN back-action
    ("fig4", ("array", "sensors", 0, "resonance_hz"), 1e-300)],
    ids=["material-nan", "cal-acceleration-nan", "cal-coupling-nan",
         "linewidth-nan", "coupling-inf", "grid-min-nan", "grid-min-negative",
         "grid-min-above-max", "g0-overflow", "wavelength-zero-division",
         "power-nan-column", "resonance-nan-column"])
def test_cli_out_of_range_value_exits_two(tmp_path, capsys, preset, path,
                                          value):
    raw = preset_scenario(preset)
    _set(raw, path, value)
    code, _ = _run(tmp_path, cli._PRESET_COMMAND[preset], raw)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("path,value,largest", [
    (("array", "copies"), 10_001, 10_000),
    (("array", "copies"), 1e9, 10_000),
    (("scan", "sensor_counts"), [1, 10_001], [1, 10_000]),
    (("scan", "dqs_sensors"), 10_001, 10_000),
    (("scan", "compton_points"), 10_001, 10_000)])
def test_counts_above_the_cap_rejected_at_load(path, value, largest):
    raw = preset_scenario("fig3")
    _set(raw, path, value)
    with pytest.raises(ScenarioError, match=r"must be an integer in \[1, 10000\]"):
        scenario_from_dict(raw)
    _set(raw, path, largest)
    scenario_from_dict(raw)


def _zero_gain_dict():
    """fig4 as two copies whose combining weights cancel the signal, with
    every command's scan keys and a dark-matter block: the gain
    (sum_n W_0n M_n)^2 is exactly 0."""
    raw = _fig4_dict(dark_matter=preset_scenario("fig3")["dark_matter"])
    raw["array"].update(copies=2, weights_policy="explicit",
                        dividing_weights=[0.6, 0.8],
                        combining_weights=[math.sqrt(0.5), -math.sqrt(0.5)])
    raw["scan"] = dict(preset_scenario("fig3")["scan"], dqs_sensors=2,
                       sensor_counts=[2], powers_w=[1e-3, 2e-3],
                       fixed_angle_rad=math.pi / 4, losses=[0.0, 0.5])
    return raw


@pytest.mark.parametrize("command", ["sensitivity", "array-scan", "power-scan",
                                     "loss-scan", "dm-projection", "noise"])
def test_combining_weights_that_cancel_the_signal_exit_two(tmp_path, capsys,
                                                           command):
    """Every command that uses the gain refuses one that vanishes, with one
    message, instead of a 0/0 in some column or a table of zeros; ``noise``
    needs no gain and runs."""
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_zero_gain_dict()))
    out = tmp_path / "out"
    code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if command == "noise":
        assert code == 0
        return
    assert code == 2
    assert ("the combining weights cancel the signal: the gain "
            "(sum_n W_0n M_n)^2 must be > 0, got 0.0") in err
    assert not out.exists()


def test_cli_non_finite_integral_exits_two_without_hanging(tmp_path):
    """A signal gain of 1e600 overflows, so every quadrature estimate is
    non-finite; the command must stop with exit 2, not refine forever."""
    raw = _fig4_dict()
    raw["array"]["sensors"][0]["response_factor"] = 1e300
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    src = str(Path(omsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "omsense.cli", "sensitivity", "--scenario",
         str(path), "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "integral is not finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
