"""Property test: a preset with a few corrupted values exits 0, 2 or 3.

Hypothesis (MacIver et al., JOSS 2019) draws a preset scenario, replaces one
to three of its leaf values with a hostile value (NaN, +-inf, -1, 0,
1e+-300, a string, an empty list, null, true) or a log-uniform 1e-3 to 1e3
rescaling, and runs the preset's command in-process.  No exception may
escape, the exit code must be 0, 2 or 3, and on exit 0 every number in the
written table must be finite.
"""

import csv
import json
import math
import os
import tempfile

import pytest

from omsense import cli
from omsense.scenario import PRESET_NAMES, preset_scenario

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

_HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, 1e300, 1e-300, "x", [],
            None, True]
_COUNT_KEYS = {"copies", "sensor_counts", "dqs_sensors", "compton_points"}
_MAX_DRAWN_COUNT = 20_000


def _leaves(node, path=()):
    """(path, value) for every value below the scenario's objects and lists."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path, node
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _replacement(path, value):
    hostile = st.sampled_from(_HOSTILE)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return hostile
    factor = st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u)
    if _COUNT_KEYS.intersection(path):
        rescaled = factor.map(lambda f: min(round(value * f), _MAX_DRAWN_COUNT))
    else:
        rescaled = factor.map(lambda f: value * f)
    return st.one_of(hostile, rescaled)


@st.composite
def corrupted_presets(draw):
    name = draw(st.sampled_from(PRESET_NAMES))
    raw = preset_scenario(name)
    leaves = list(_leaves(raw))
    for _ in range(draw(st.integers(1, 3))):
        path, value = draw(st.sampled_from(leaves))
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(_replacement(path, value))
    return name, raw


def _table_numbers(path):
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for cell in row.values():
                try:
                    yield float(cell)
                except ValueError:
                    pass  # a text cell, e.g. sensitivity's quantity


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corrupted_presets())
def test_corrupted_preset_exits_cleanly_with_finite_tables(case):
    name, raw = case
    command = cli._PRESET_COMMAND[name]
    with tempfile.TemporaryDirectory() as tmp:
        scenario = os.path.join(tmp, "scn.json")
        with open(scenario, "w") as fh:
            json.dump(raw, fh)  # NaN / Infinity literals, as json.load reads them
        out = os.path.join(tmp, "out")
        code = cli.main([command, "--scenario", scenario, "--out", out])
        assert code in (0, 2, 3)
        if code == 0:
            numbers = list(_table_numbers(os.path.join(out, f"{command}.csv")))
            assert numbers and all(map(math.isfinite, numbers))
