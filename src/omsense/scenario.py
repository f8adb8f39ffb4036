"""Scenario files: schema validation, unit handling and object building.

Scenarios are plain JSON with explicit units in the key names (``_hz``,
``_rad_s``, ``_kg``, ``_k``, ``_w``, ``_m``, ``_s``).  Frequency-like fields
accept either ``<name>_hz`` (converted by 2 pi) or ``<name>_rad_s`` (used
as-is); everything is stored internally in rad/s and SI.  Unknown keys are
rejected in strict mode and collected as warnings otherwise.

The damping convention is a load-time choice: quality factors map to the
internal half-linewidth as gamma = Omega/(2Q) ("half", the default) or
gamma = Omega/Q ("full"); directly specified damping rates are always taken
as the half-linewidth entering the susceptibility.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import GEV_PER_CM3_TO_KG_M3, RHO_DM_DEFAULT, TWO_PI, YEAR_S
from .errors import ScenarioError
from .spectra import CavityOptics, Oscillator, SqueezedInput
from .arrays import (ArraySensor, SensorArray, _check_weights,
                     inverse_variance_weights, matched_weights,
                     uniform_weights)
from .sensitivity import (DarkMatterModel, FrequencyGrid, ObservationPlan,
                          calibrate_material_factor, resonance_refined_grid)

__all__ = ["Scenario", "load_scenario", "scenario_from_dict", "preset_scenario",
           "PRESET_NAMES", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_SENSOR_KEYS = {
    "mass_kg", "resonance_hz", "resonance_rad_s", "quality_factor",
    "damping_rad_s", "damping_hz", "temperature_k", "kappa_rad_s", "kappa_hz",
    "readout_kappa_rad_s", "readout_kappa_hz", "g0_rad_s", "g0_hz",
    "wavelength_m", "cavity_length_m", "detection_efficiency_sq",
    "response_factor",
}
_ARRAY_KEYS = {"sensors", "copies", "weights_policy", "dividing_weights",
               "combining_weights", "power_convention", "power_w"}
_LIGHT_KEYS = {"squeezing_db", "photon_number", "angle_policy", "angle_rad"}
_DM_KEYS = {"coupling", "density_gev_cm3", "density_kg_m3", "material_factor",
            "material_factor_provenance", "compton_hz", "compton_rad_s",
            "linewidth_fraction", "coherence_linewidth_rad_s", "calibration"}
_CAL_KEYS = {"acceleration_asd_ms2_rthz", "coupling"}
_OBS_KEYS = {"duration_s", "integration_time_s", "snr_threshold"}
_GRID_KEYS = {"min_hz", "max_hz", "min_rad_s", "max_rad_s", "tolerance_rel",
              "points_per_decade"}
_OUTPUT_KEYS = {"format"}
_TOP_KEYS = {"schema_version", "array", "input_light", "dark_matter",
             "observation", "grid", "scan", "output", "description"}


def _check_keys(block: dict, allowed: set, where: str, strict: bool,
                warnings_out: list):
    if not isinstance(block, dict):
        raise ScenarioError(f"{where} must be an object, got {block!r}")
    unknown = sorted(set(block) - allowed)
    if unknown:
        msg = f"unknown key(s) {unknown} in {where}"
        if strict:
            raise ScenarioError(msg)
        warnings_out.append(msg)


_REQUIRED = object()
_MAX_COUNT = 10_000  # copies, sensor counts and scan points


def _block(raw: dict, key: str) -> dict:
    """An optional top-level block; null means absent, as a missing key."""
    block = raw.get(key)
    return {} if block is None else block


def _field(block: dict, key: str, where: str, parse, default=_REQUIRED):
    """``parse(block[key], "<where>.<key>")``; an absent or null key gives
    ``default``, and is an error when no default is given."""
    raw = block.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise ScenarioError(f"{where}: missing field {key!r}")
        return default
    return parse(raw, f"{where}.{key}")


def _number(raw, name: str) -> float:
    """A JSON number as a float.  Anything else, a boolean or a numeric
    string included, is a ScenarioError (exit 2), never a traceback."""
    if not isinstance(raw, (bool, str)):
        try:
            return float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ScenarioError(f"{name} must be a number, got {raw!r}")


def _bounded(raw, name: str, ok, rule: str) -> float:
    """A finite scenario number for which ``ok(value)`` holds, else exit 2."""
    value = _number(raw, name)
    if not (math.isfinite(value) and ok(value)):
        raise ScenarioError(f"{name} must be {rule}, got {raw!r}")
    return value


def _count(raw, name: str) -> int:
    """A scenario value as an integer in [1, _MAX_COUNT]."""
    return int(_bounded(raw, name, lambda v: v == int(v) and 1 <= v <= _MAX_COUNT,
                        f"an integer in [1, {_MAX_COUNT}]"))


def _positive(raw, name: str) -> float:
    return _bounded(raw, name, lambda v: v > 0, "finite and > 0")


def _non_negative(raw, name: str) -> float:
    return _bounded(raw, name, lambda v: v >= 0, "finite and >= 0")


def _finite(raw, name: str) -> float:
    return _bounded(raw, name, lambda v: True, "finite")


def _loss(raw, name: str) -> float:
    return _bounded(raw, name, lambda v: 0 <= v < 1, "in [0, 1)")


def _real_weight(raw, name: str) -> float:
    """An explicit weight: a number or an [re, im] pair with im = 0.  The
    closed forms assume arg w_k0 = 0, so a complex weight is rejected."""
    if isinstance(raw, list):
        if len(raw) != 2 or _number(raw[1], name) != 0.0:
            raise ScenarioError(
                f"{name} must be real (a number or [re, 0]), got {raw!r}")
        raw = raw[0]
    return _finite(raw, name)


def _list_of(parse):
    """A parse for a non-empty list whose every entry passes ``parse``."""
    def parse_list(raw, name: str) -> list:
        if not isinstance(raw, list):
            raise ScenarioError(f"{name} must be a list, got {raw!r}")
        if not raw:
            raise ScenarioError(f"{name} must not be empty")
        return [parse(v, f"{name}[{i}]") for i, v in enumerate(raw)]
    return parse_list


def _choice(*options):
    """A parse that accepts only one of ``options``."""
    def parse_choice(raw, name: str):
        if raw not in options:
            raise ScenarioError(f"{name} must be one of {list(options)}, got {raw!r}")
        return raw
    return parse_choice


# scan key: (default, parse); powers_w and losses have no default,
# power-scan and loss-scan require them.
_SCAN_FIELDS = {
    "sensor_counts": ([1, 2, 4, 8, 16, 32, 64, 100], _list_of(_count)),
    "dqs_sensors": (10, _count),
    "compton_hz_min": (20.0, _positive),
    "compton_hz_max": (20000.0, _positive),
    "compton_points": (61, _count),
    "powers_w": (None, _list_of(_non_negative)),
    "fixed_angle_rad": (math.pi / 4, _finite),
    "losses": (None, _list_of(_loss)),
}


def _angular(block: dict, base: str, where: str, default=_REQUIRED,
             parse=_positive):
    """Read ``<base>_rad_s`` or ``<base>_hz`` (converted by 2 pi), as
    ``_field`` reads one key."""
    rad_key, hz_key = f"{base}_rad_s", f"{base}_hz"
    hz = _field(block, hz_key, where, parse, None)
    if hz is not None:
        if block.get(rad_key) is not None:
            raise ScenarioError(f"{where}: give {rad_key} or {hz_key}, not both")
        return parse(TWO_PI * hz, f"{where}.{hz_key} (in rad/s)")
    if default is _REQUIRED and block.get(rad_key) is None:
        raise ScenarioError(f"{where}: {rad_key} or {hz_key} required")
    return _field(block, rad_key, where, parse, default)


def _build_sensor(raw: dict, idx: int, strict: bool, warnings_out: list,
                  gamma_convention: str) -> ArraySensor:
    where = f"array.sensors[{idx}]"
    _check_keys(raw, _SENSOR_KEYS, where, strict, warnings_out)
    mass = _field(raw, "mass_kg", where, _positive)
    omega0 = _angular(raw, "resonance", where)
    temperature = _field(raw, "temperature_k", where, _non_negative, 0.0)
    damping = _angular(raw, "damping", where, default=None)
    quality = _field(raw, "quality_factor", where, _positive, None)
    if damping is not None:
        osc = Oscillator(mass=mass, omega0=omega0, gamma=damping,
                         temperature=temperature)
    elif quality is not None:
        osc = Oscillator.from_quality(mass, omega0, quality, temperature,
                                      gamma_convention)
    else:
        raise ScenarioError(f"{where}: quality_factor or damping required")

    kappa = _angular(raw, "kappa", where)
    length = _field(raw, "cavity_length_m", where, _positive, None)
    g0 = _angular(raw, "g0", where, default=None, parse=_non_negative)
    if g0 is None and length is None:
        raise ScenarioError(f"{where}: g0 or cavity_length_m required")
    cav = CavityOptics.from_wavelength(
        kappa=kappa,
        kappa_readout=_angular(raw, "readout_kappa", where, default=kappa),
        g0=0.0 if g0 is None else g0,
        wavelength=_field(raw, "wavelength_m", where, _positive),
        input_power=0.0,
        efficiency_sq=_field(raw, "detection_efficiency_sq", where, _finite, 1.0),
        length=length)
    if g0 is None:
        cav = replace(cav, g0=cav.g0_from_geometry(osc))
    response = _field(raw, "response_factor", where, _positive, 1.0)
    return ArraySensor(oscillator=osc, cavity=cav, response_factor=response)


@dataclass
class Scenario:
    """A validated scenario, with physics objects ready to be built."""

    raw: dict
    sensors: tuple[ArraySensor, ...]
    copies: int
    weights_policy: str
    explicit_dividing: np.ndarray | None
    explicit_combining: np.ndarray | None
    power_convention: str
    power: float
    squeeze: SqueezedInput
    dark_matter: DarkMatterModel | None
    plan: ObservationPlan
    grid_span: tuple[float, float]
    grid_tol: float
    output_format: str
    scan: dict
    warnings: list[str] = field(default_factory=list)
    defaults_used: dict = field(default_factory=dict)

    @property
    def n_sensors(self) -> int:
        return self.copies if len(self.sensors) == 1 else len(self.sensors)

    def scenario_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def build_array(self, n_sensors: int | None = None,
                    efficiency_sq: float | None = None,
                    power: float | None = None) -> SensorArray:
        """Instantiate the sensor network, optionally overriding the sensor
        count (identical arrays only), detection efficiency, or power."""
        m = self.n_sensors if n_sensors is None else int(n_sensors)
        sensors = self.sensors
        if efficiency_sq is not None:
            sensors = tuple(replace(s, cavity=replace(
                s.cavity, efficiency_sq=efficiency_sq)) for s in sensors)
        if len(sensors) == 1:
            sensors *= m
        elif m != len(sensors):
            raise ScenarioError(
                "sensor-count override requires a single-sensor template")
        p = self.power if power is None else float(power)
        total = m * p if self.power_convention == "per_sensor" else p

        if self.weights_policy == "explicit":
            dv, cw = self.explicit_dividing, self.explicit_combining
        else:
            dv = uniform_weights(m)
            if self.weights_policy == "matched":
                cw = matched_weights(dv)
            elif self.weights_policy == "uniform":
                cw = uniform_weights(m)
            else:
                omega_ref = sensors[0].oscillator.omega0
                cw = inverse_variance_weights(sensors, dv, total, omega_ref)
        return SensorArray(sensors=sensors, dividing_weights=dv,
                           combining_weights=cw, total_power=total)

    def build_grid(self) -> FrequencyGrid:
        resonances = sorted({(s.oscillator.omega0, s.oscillator.gamma)
                             for s in self.sensors})
        return resonance_refined_grid(resonances, self.grid_span,
                                      tol=self.grid_tol)


def scenario_from_dict(raw: dict, strict: bool = True,
                       gamma_convention: str = "half") -> Scenario:
    """Validate a scenario and build its physics objects.

    A malformed, non-finite or out-of-range value raises ScenarioError; a
    combination the physics classes reject raises their ConfigError.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    warns: list[str] = []
    defaults: dict = {"gamma_convention": gamma_convention}
    _check_keys(raw, _TOP_KEYS, "scenario", strict, warns)
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r} "
                            f"(expected {SCHEMA_VERSION})")

    arr = raw.get("array")
    if not isinstance(arr, dict):
        raise ScenarioError("scenario needs an 'array' object")
    _check_keys(arr, _ARRAY_KEYS, "array", strict, warns)
    sensor_list = arr.get("sensors")
    if not isinstance(sensor_list, list) or not sensor_list:
        raise ScenarioError("array.sensors must be a non-empty list")
    sensors = tuple(_build_sensor(s, i, strict, warns, gamma_convention)
                    for i, s in enumerate(sensor_list))
    copies = _field(arr, "copies", "array", _count, 1)
    if copies > 1 and len(sensors) > 1:
        raise ScenarioError("array.copies > 1 requires a single sensor template")
    policy = _field(arr, "weights_policy", "array", _choice(
        "matched", "uniform", "inverse_variance", "explicit"), "matched")
    defaults.setdefault("weights_policy", policy)
    power_convention = _field(arr, "power_convention", "array",
                              _choice("per_sensor", "total"), "per_sensor")
    defaults["power_convention"] = power_convention
    power = _field(arr, "power_w", "array", _non_negative)
    explicit_dv = explicit_cw = None
    if policy == "explicit":
        weights = _list_of(_real_weight)
        explicit_dv = np.asarray(_field(arr, "dividing_weights", "array",
                                        weights), dtype=complex)
        explicit_cw = np.asarray(_field(arr, "combining_weights", "array",
                                        weights), dtype=complex)
        m = copies if len(sensors) == 1 else len(sensors)
        if explicit_dv.size != m:
            raise ScenarioError(f"dividing weights must have {m} entries, "
                                f"got {explicit_dv.size}")
        _check_weights(explicit_dv, explicit_cw, power)

    light = _block(raw, "input_light")
    _check_keys(light, _LIGHT_KEYS, "input_light", strict, warns)
    angle_policy = _field(light, "angle_policy", "input_light",
                          _choice("vacuum", "fixed", "optimal"), "vacuum")
    angle = _field(light, "angle_rad", "input_light", _finite, 0.0)
    db = _field(light, "squeezing_db", "input_light", _finite, None)
    n_s = _field(light, "photon_number", "input_light", _non_negative, None)
    if db is not None and n_s is not None:
        raise ScenarioError(
            "input_light: give squeezing_db or photon_number, not both")
    if db is not None:
        squeeze = SqueezedInput.from_db(db, angle_policy, angle)
    elif n_s is not None:
        squeeze = SqueezedInput.from_photon_number(n_s, angle_policy, angle)
    else:
        squeeze = SqueezedInput.vacuum()

    obs = _block(raw, "observation")
    _check_keys(obs, _OBS_KEYS, "observation", strict, warns)
    threshold = _field(obs, "snr_threshold", "observation", _number, 1.0)
    defaults["snr_threshold"] = threshold
    plan = ObservationPlan(
        duration=_field(obs, "duration_s", "observation", _number, YEAR_S),
        integration_time=_field(obs, "integration_time_s", "observation",
                                _number, None),
        snr_threshold=threshold)

    dm_block = raw.get("dark_matter")
    dark_matter = None
    if dm_block is not None:
        where = "dark_matter"
        _check_keys(dm_block, _DM_KEYS, where, strict, warns)
        rho = _field(dm_block, "density_kg_m3", where, _positive, None)
        gev = _field(dm_block, "density_gev_cm3", where, _positive, None)
        if rho is None and gev is not None:
            rho = GEV_PER_CM3_TO_KG_M3 * gev
        elif rho is None:
            rho = RHO_DM_DEFAULT
            defaults["rho_dm_kg_m3"] = rho
        compton = _angular(dm_block, "compton", where,
                           default=sensors[0].oscillator.omega0)
        fraction = _field(dm_block, "linewidth_fraction", where, _positive, 1e-6)
        defaults["coherence_linewidth_rule"] = f"Delta_a = {fraction:g} * Omega_DM"
        material = _field(dm_block, "material_factor", where, _non_negative, None)
        if material is None:
            cal = dm_block.get("calibration")
            if cal is None:
                raise ScenarioError(
                    "dark_matter needs material_factor or a calibration block")
            cal_where = "dark_matter.calibration"
            _check_keys(cal, _CAL_KEYS, cal_where, strict, warns)
            material = calibrate_material_factor(
                acceleration_asd=_field(cal, "acceleration_asd_ms2_rthz",
                                        cal_where, _positive),
                coupling=_field(cal, "coupling", cal_where, _positive),
                mass=sensors[0].oscillator.mass,
                compton_omega=compton, plan=plan, rho_dm=rho,
                linewidth_fraction=fraction)
            defaults["material_factor_calibrated"] = material
        dark_matter = DarkMatterModel(
            coupling=_field(dm_block, "coupling", where, _finite, 1.0),
            material_factor=material, compton_omega=compton, rho_dm=rho,
            coherence_linewidth=_field(dm_block, "coherence_linewidth_rad_s",
                                       where, _positive, None),
            linewidth_fraction=fraction)

    grid = _block(raw, "grid")
    _check_keys(grid, _GRID_KEYS, "grid", strict, warns)
    omegas = [s.oscillator.omega0 for s in sensors]
    kappas = [s.cavity.kappa for s in sensors]
    lo = _angular(grid, "min", "grid", default=min(omegas) / 1e3)
    hi = _angular(grid, "max", "grid",
                  default=min(max(omegas) * 1e3, min(kappas) / 10.0))
    if not lo < hi:
        raise ScenarioError(
            f"grid: the span minimum {lo!r} rad/s must lie below its maximum "
            f"{hi!r} rad/s")
    if grid.get("min_hz") is None and grid.get("min_rad_s") is None:
        defaults["integration_span_rad_s"] = [lo, hi]
    tol = _field(grid, "tolerance_rel", "grid", _positive, 1e-3)
    if "points_per_decade" in grid:
        warns.append("grid.points_per_decade has no effect: seed panels come "
                     "from the resonances alone")

    scan_block = _block(raw, "scan")
    _check_keys(scan_block, set(_SCAN_FIELDS), "scan", strict, warns)
    scan = {key: _field(scan_block, key, "scan", parse, copy.copy(default))
            for key, (default, parse) in _SCAN_FIELDS.items()}

    output = _block(raw, "output")
    _check_keys(output, _OUTPUT_KEYS, "output", strict, warns)
    fmt = _field(output, "format", "output", _choice("csv", "json"), "csv")

    defaults["mechanical_bath_psd"] = "K_B*T/(hbar*Omega)"
    return Scenario(raw=raw, sensors=sensors, copies=copies,
                    weights_policy=policy, explicit_dividing=explicit_dv,
                    explicit_combining=explicit_cw,
                    power_convention=power_convention, power=power,
                    squeeze=squeeze, dark_matter=dark_matter, plan=plan,
                    grid_span=(lo, hi), grid_tol=tol, output_format=fmt,
                    scan=scan, warnings=warns, defaults_used=defaults)


def load_scenario(path, strict: bool = True,
                  gamma_convention: str = "half") -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(raw, strict=strict, gamma_convention=gamma_convention)


# ---------------------------------------------------------------------------
# presets: the membrane detector of the reference figures
# ---------------------------------------------------------------------------

def _membrane_sensor(resonance_hz: float = 2000.0) -> dict:
    return {
        "mass_kg": 6e-6,
        "resonance_hz": resonance_hz,
        "quality_factor": 1e9,
        "temperature_k": 10e-3,
        "kappa_rad_s": 0.94e9,
        "readout_kappa_rad_s": 0.94e9,
        "g0_rad_s": 46.0,
        "wavelength_m": 1.06e-6,
        "cavity_length_m": 1e-3,
        "detection_efficiency_sq": 1.0,
        "response_factor": 1.0,
    }


def _base_scenario(**overrides) -> dict:
    raw = {
        "schema_version": SCHEMA_VERSION,
        "array": {
            "sensors": [_membrane_sensor()],
            "copies": 1,
            "weights_policy": "matched",
            "power_convention": "per_sensor",
            "power_w": 2e-3,
        },
        "input_light": {"squeezing_db": 10.0, "angle_policy": "optimal"},
        "observation": {"duration_s": YEAR_S, "snr_threshold": 1.0},
        "grid": {"tolerance_rel": 1e-3},
        "output": {"format": "csv"},
    }
    raw.update(overrides)
    return raw


def _dm_block() -> dict:
    return {
        "coupling": 1e-24,
        "density_gev_cm3": 0.4,
        "material_factor": None,
        "compton_hz": 2000.0,
        "linewidth_fraction": 1e-6,
        "calibration": {
            # thermal-floor anchor of the 20 cm membrane projection:
            # 1e-12 m s^-2/rtHz over one year corresponds to g = 4e-25
            "acceleration_asd_ms2_rthz": 1e-12,
            "coupling": 4e-25,
        },
    }


def preset_scenario(name: str) -> dict:
    """Built-in scenarios reproducing the reference figures' data."""
    if name == "fig2":
        return _base_scenario(
            description="integrated sensitivity vs number of sensors",
            scan={"sensor_counts": [1, 2, 3, 5, 8, 13, 20, 32, 50, 72, 100]})
    if name == "fig3":
        raw = _base_scenario(
            description="minimum detectable coupling vs Compton frequency",
            scan={"compton_hz_min": 20.0, "compton_hz_max": 20000.0,
                  "compton_points": 61, "dqs_sensors": 10})
        raw["dark_matter"] = _dm_block()
        return raw
    if name == "fig4":
        return _base_scenario(
            description="single-sensor noise budget vs frequency")
    if name == "fig5":
        return _base_scenario(
            description="integrated sensitivity vs input power",
            scan={"powers_w": [float(p) for p in
                               np.geomspace(1e-6, 1.0, 25)],
                  "fixed_angle_rad": math.pi / 4})
    if name == "fig6":
        raw = _base_scenario(
            description="integrated sensitivity vs detection loss",
            scan={"losses": [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                             0.8, 0.9]})
        raw["array"]["sensors"] = [_membrane_sensor(resonance_hz=1000.0)]
        return raw
    raise ScenarioError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")
