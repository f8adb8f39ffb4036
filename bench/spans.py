"""Span tracer that wraps omsense's public functions from outside.

Each wrapped name is replaced where its callers bind it (``scans`` imports
``array_noise_psd`` from ``arrays``, so ``omsense.scans.array_noise_psd`` is
the name that gets wrapped).  A call records a span: name, layer, start,
end and the index of the enclosing span.  Spans stay in memory; self times
and per-layer totals are computed after the run.  Counters that the program
reports in its results (integrand evaluations, quadrature rounds) and counts
derived from the arguments (sensor x frequency points) are recorded by the
same wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, layer, start, end, parent, op]
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, count=None):
        """``fn`` recording a span per call; ``count(tracer, args, kwargs,
        result)`` adds counters from the arguments and the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def self_times(self) -> list[float]:
        """Span duration minus the part of it that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _active_sensors(arr) -> int:
    return int(np.count_nonzero(np.abs(arr.combining_weights) > 0.0))


def _array_counter(fn):
    sig = inspect.signature(fn)

    def count(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        points = np.size(bound["omega"]) if "omega" in bound else 1
        tracer.counters["arrays.calls"] += 1
        tracer.counters["arrays.sensor_freq_points"] += (
            _active_sensors(bound["arr"]) * points)
    return count


def _count_spectra_call(tracer, args, kwargs, result):
    tracer.counters["spectra.calls"] += 1


def _count_integral(tracer, args, kwargs, result):
    tracer.counters["sensitivity.integrals"] += 1
    tracer.counters["sensitivity.evals"] += int(result.n_evaluations)
    tracer.maximum("sensitivity.rounds_max", int(result.rounds))


def _count_assembly(tracer, args, kwargs, result):
    m = int(result.n_sensors)
    n = int(np.size(result.omega))
    tracer.counters["oracle.assemblies"] += 1
    tracer.counters["oracle.freq_points"] += n
    # complex128 transfer rows at +-omega (2 x 4M x n) plus the 4M x 4M input
    # covariance: written by the assembly and read by the propagation.
    tracer.counters["oracle.bytes_computed"] += 16 * (2 * 4 * m * n + 16 * m * m)


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["scans.rows"] += len(result)


ARRAY_FUNCS = ("array_noise_psd", "array_squeezed_noise",
               "optimal_squeezing_angle", "array_sql_psd", "array_signal_psd")
SPECTRA_FUNCS = ("mechanical_susceptibility", "cavity_phase_and_cooperativity",
                 "input_quadrature_psds", "single_sensor_noise_psd",
                 "displacement_asd")
TABLE_FUNCS = ("noise_budget_table", "sensitivity_report", "array_scan_table",
               "dm_projection_table", "power_scan_table", "loss_scan_table",
               "oracle_check_table")


def targets():
    """(namespace, attribute, layer, counter) for every wrapped name."""
    from omsense import arrays, cli, oracle, scans, scenario

    out = [(cli, "load_scenario", "scenario", None),
           (cli, "scenario_from_dict", "scenario", None),
           (scenario.Scenario, "build_array", "scenario", None),
           (scenario.Scenario, "build_grid", "scenario", None),
           (scenario, "resonance_refined_grid", "sensitivity", None),
           (scans, "integrated_sensitivity", "sensitivity", _count_integral),
           (scans, "min_detectable_coupling", "sensitivity", None),
           (scans, "oracle_noise_psd", "oracle", None),
           (oracle, "assemble_transfer", "oracle", _count_assembly),
           (oracle, "propagate_covariance", "oracle", None)]
    out += [(scans, name, "scans", _count_rows) for name in TABLE_FUNCS]
    out += [(scans, name, "arrays", _array_counter(getattr(scans, name)))
            for name in ARRAY_FUNCS if hasattr(scans, name)]
    for module in (arrays, oracle, scans):
        out += [(module, name, "spectra", _count_spectra_call)
                for name in SPECTRA_FUNCS if hasattr(module, name)]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, layer, count in targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, f"{layer}.{attr}", layer, count))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)

