"""Command-line interface: scenario in, deterministic CSV/JSON + manifest out.

Every command reads a scenario file (or a built-in figure preset), computes
its table and writes ``<command>.csv`` (or ``.json``) plus ``manifest.json``
into the output directory.  Outputs are byte-identical across repeated runs
of the same scenario and package version: floats are serialized with
shortest round-trip ``repr`` and the manifest carries no timestamps.

Exit codes: 0 success, 1 oracle-check residual failure, 2 validation error,
3 numerical non-convergence.  Each common flag has an ``OMSENSE_*`` variable
(``_ENV_FLAGS``), which ``main`` passes as the flag right after a command that
takes the flag (``oracle-check`` takes only ``--out`` and ``--format``): its
value meets the flag's checks, and a flag on the command line wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from .constants import TWO_PI
from .errors import ConfigError, ConvergenceError, ScenarioError
from .scenario import (PRESET_NAMES, Scenario, load_scenario, preset_scenario,
                       scenario_from_dict)
from . import scans

ENV_PREFIX = "OMSENSE_"

_COMMANDS = ("noise", "array-scan", "sensitivity", "dm-projection",
             "power-scan", "loss-scan", "oracle-check") + PRESET_NAMES

_OUT_OF_RANGE = "inputs outside the model's numeric range"

_PRESET_COMMAND = {"fig2": "array-scan", "fig3": "dm-projection",
                   "fig4": "noise", "fig5": "power-scan", "fig6": "loss-scan"}


# The OMSENSE_* variables and their flags; OMSENSE_STRICT is --lenient when
# it reads 0, false, no or empty, and --strict otherwise.
_ENV_FLAGS = {"SCENARIO": "--scenario", "OUT": "--out", "FORMAT": "--format",
              "TOLERANCE": "--tolerance",
              "GAMMA_CONVENTION": "--gamma-convention"}


def _env_args(command: str) -> list[str]:
    """The set OMSENSE_* variables whose flag ``command`` takes, as flags
    (``--flag=value`` keeps a value that starts with ``-``), each parsed on
    its own first: a rejected value exits 2 naming its variable."""
    env = {name: f"{flag}={os.environ[ENV_PREFIX + name]}"
           for name, flag in _ENV_FLAGS.items()
           if ENV_PREFIX + name in os.environ}
    strict = os.environ.get(ENV_PREFIX + "STRICT")
    if strict is not None:
        env["STRICT"] = ("--lenient" if strict.strip().lower()
                         in ("0", "false", "no", "") else "--strict")
    args = []
    for name, arg in env.items():
        try:
            _, unknown = build_parser().parse_known_args([command, arg])
        except SystemExit:
            print(f"omsense {command}: the rejected value comes from "
                  f"{ENV_PREFIX}{name}", file=sys.stderr)
            raise
        if not unknown:
            args.append(arg)
    return args


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as it
    was), with constant defaults: the environment comes in as flags."""
    parser = argparse.ArgumentParser(
        prog="omsense",
        description="Quantum noise budgets and dark-matter reach for "
                    "optomechanical sensor arrays")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--out", default="omsense-out",
                       help="output directory")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default: scenario output.format, "
                            "csv for oracle-check)")
        if name == "oracle-check":
            # it draws its arrays: no scenario, grid or gamma convention
            p.set_defaults(scenario=None)
            p.add_argument("--configs", type=_positive_int, default=200)
            p.add_argument("--freqs", type=_positive_int, default=50)
            p.add_argument("--seed", type=_seed, default=20240817)
            p.add_argument("--residual-tol", type=_positive_float, default=1e-9)
            continue
        p.add_argument("--scenario",
                       help="scenario JSON path (presets embed their own)")
        p.add_argument("--tolerance", type=_positive_float,
                       help="override the grid relative tolerance")
        p.add_argument("--strict", dest="strict", action="store_true",
                       default=True,
                       help="reject unknown scenario keys (default)")
        p.add_argument("--lenient", dest="strict", action="store_false",
                       help="warn on unknown scenario keys instead of failing")
        p.add_argument("--gamma-convention", choices=("half", "full"),
                       default="half",
                       help="map quality factors to gamma = Omega/2Q (half) "
                            "or Omega/Q (full)")
        if name in ("dm-projection", "fig3"):
            p.add_argument("--overlay", action="append", default=[],
                           metavar="LABEL=PATH",
                           help="two-column (frequency_hz, value) CSV merged "
                                "as a pass-through column; repeatable")
    return parser


def _checked(cast, rule: str, valid=lambda value: value > 0):
    """An argparse type: ``cast(raw)`` must be finite and ``valid`` (exit 2)."""
    def parse(raw: str):
        try:
            value = cast(raw)
            ok = math.isfinite(value) and valid(value)
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{rule}, got {raw!r}")
        return value
    return parse


_positive_float = _checked(float, "must be a finite number > 0")
_positive_int = _checked(int, "must be an integer >= 1")
_seed = _checked(int, "must be an integer >= 0", lambda value: value >= 0)


def _write_csv(path, columns, table: scans.Table):
    # tolist() gives Python floats, whose str is the shortest round-trip repr
    cells = [map(str, np.asarray(table[c]).tolist()) for c in columns]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_cells(values):
    """A column's cells, with a non-finite float as None (JSON null)."""
    cells = np.asarray(values)
    if cells.dtype.kind == "f" and not np.isfinite(cells).all():
        return [x if math.isfinite(x) else None for x in cells.tolist()]
    return cells.tolist()


def _write_json(path, columns, table: scans.Table):
    rows = zip(*(_json_cells(table[c]) for c in columns), strict=True)
    payload = {"columns": list(columns),
               "rows": [dict(zip(columns, row)) for row in rows]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _load_overlays(specs) -> dict[str, np.ndarray]:
    overlays = {}
    for spec in specs or []:
        label, eq, path = spec.partition("=")
        if not (eq and re.fullmatch(r"[A-Za-z0-9_.-]+", label)):
            raise ScenarioError(f"--overlay expects LABEL=PATH with LABEL made "
                                f"of [A-Za-z0-9_.-], got {spec!r}")
        if label in overlays:
            raise ScenarioError(f"--overlay label {label!r} is given twice")
        points = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    parts = line.replace(";", ",").split(",")
                    try:
                        freq_hz, val = float(parts[0]), float(parts[1])
                    except (ValueError, IndexError):
                        continue  # header or malformed line
                    if not all(math.isfinite(x) and x > 0
                               for x in (freq_hz, val)):
                        # one such row spoils the log-log interpolation of
                        # the whole column
                        raise ScenarioError(
                            f"overlay {path}: frequency and value must be "
                            f"finite and > 0, got {line!r}")
                    points.append((TWO_PI * freq_hz, val))
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read overlay {path}: {exc}") from exc
        if not points:
            raise ScenarioError(f"overlay {path} contains no numeric rows")
        overlays[label] = np.asarray(sorted(points))
    return overlays


def _compute(command: str, scn: Scenario, args) -> tuple[list[str], scans.Table]:
    effective = _PRESET_COMMAND.get(command, command)
    if effective == "noise":
        table = scans.noise_budget_table(scn)
    elif effective == "array-scan":
        table = scans.array_scan_table(scn)
    elif effective == "sensitivity":
        table = scans.sensitivity_report(scn)
    elif effective == "dm-projection":
        overlays = _load_overlays(getattr(args, "overlay", []))
        table = scans.dm_projection_table(scn, overlays=overlays)
    elif effective == "power-scan":
        table = scans.power_scan_table(scn)
    elif effective == "loss-scan":
        table = scans.loss_scan_table(scn)
    else:
        raise ScenarioError(f"unhandled command {command!r}")
    # the frozen columns must be finite; overlays are NaN out of their range
    frozen = scans.COLUMNS[effective]
    for col in frozen:
        values = np.asarray(table[col])
        if values.dtype.kind != "U" and not np.isfinite(values).all():
            raise ConfigError(f"{_OUT_OF_RANGE}: column {col!r} is not finite")
    return frozen + sorted(set(table.columns) - set(frozen)), table


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        argv[1:1] = _env_args(argv[0])
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        if command == "oracle-check":
            return _run_oracle_check(args)
        if command in PRESET_NAMES and args.scenario is None:
            scn = scenario_from_dict(preset_scenario(command),
                                     strict=args.strict,
                                     gamma_convention=args.gamma_convention)
        else:
            if args.scenario is None:
                raise ScenarioError(
                    f"command {command!r} requires --scenario (or OMSENSE_SCENARIO)")
            scn = load_scenario(args.scenario, strict=args.strict,
                                gamma_convention=args.gamma_convention)
        if args.tolerance is not None:
            scn.grid_tol = args.tolerance
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns, table = _compute(command, scn, args)
        for message in (str(w.message) for w in caught):
            if message not in scn.warnings:
                scn.warnings.append(message)
        outputs = _emit(args, command, columns, table, scn)
        for path in outputs:
            print(path)
        return 0
    except (ScenarioError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {_OUT_OF_RANGE} ({exc})", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3


def _emit(args, command, columns, table: scans.Table, scn: Scenario | None,
          extra_manifest: dict | None = None) -> list[str]:
    out_dir = args.out
    fmt = args.format or (scn.output_format if scn is not None else "csv")
    table_path = os.path.join(out_dir, f"{command}.{fmt}")
    manifest = {
        "command": command,
        "package": {"name": "omsense", "version": __version__,
                    "numpy": np.__version__},
        "scenario_hash": scn.scenario_hash() if scn is not None else None,
        "defaults_used": scn.defaults_used if scn is not None else {},
        "warnings": list(scn.warnings) if scn is not None else [],
        "grid": {"span_rad_s": list(scn.grid_span),
                 "tolerance_rel": scn.grid_tol}
                if scn is not None else None,
        "columns": columns,
        "outputs": [os.path.basename(table_path)],
        "n_rows": len(table),
    }
    if scn is not None:  # oracle-check has no scenario settings
        manifest.update(gamma_convention=args.gamma_convention,
                        strict=bool(args.strict),
                        tolerance_override=args.tolerance)
    if extra_manifest:
        manifest.update(extra_manifest)
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        (_write_csv if fmt == "csv" else _write_json)(table_path, columns, table)
        with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out_dir}: {exc}") from exc
    return [table_path, manifest_path]


def _run_oracle_check(args) -> int:
    table = scans.oracle_check_table(n_configs=args.configs,
                                     n_freqs=args.freqs, seed=args.seed)
    residuals = table["max_rel_residual"]
    # max() skips a NaN unless it comes first: a non-finite residual fails
    # the check by itself, and its maximum is null in the (strict) manifest
    non_finite = sum(not math.isfinite(r) for r in residuals)
    worst = None if non_finite else max(residuals)
    passed = bool(not non_finite and worst < args.residual_tol)
    ranked = sorted(residuals)
    # nearest rank: the smallest residual with at least p% of them at or below
    percentiles = {f"residual_p{p}": None if non_finite else
                   ranked[math.ceil(p / 100 * len(ranked)) - 1]
                   for p in (50, 90, 99)}
    outputs = _emit(args, "oracle-check", scans.COLUMNS["oracle-check"], table,
                    None,
                    extra_manifest={"oracle": {
                        "configs": args.configs, "freqs": args.freqs,
                        "seed": args.seed, "residual_tol": args.residual_tol,
                        "max_rel_residual": worst, **percentiles,
                        "passed": passed}})
    for path in outputs:
        print(path)
    summary = (f"not finite in {non_finite} configs" if non_finite
               else f"{worst:.3e}")
    print(f"max relative residual: {summary} "
          f"({'PASS' if passed else 'FAIL'} at {args.residual_tol:g})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
