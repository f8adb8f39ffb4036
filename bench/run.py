"""omsense benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload identical-array-scan --seed 1 \\
        --seconds 10 --trace 0

One process, one thread, one client in a closed loop: the benchmark calls
``omsense.cli.main(argv)`` in-process on scenario files it generates from
``--seed``, and starts the next op when the previous one returns.  It never
passes ``--threads`` and removes ``OMSENSE_*`` variables from its environment.

``--trace 0`` times ops for at least ``--seconds`` seconds of measured time,
in whole cycles of the workload's deck, checks every op's output after the
loop, and reports the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced passes over the first deck of ops for ``--seconds`` seconds and
reports the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread in the numeric libraries, fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_OPS = 64      # a timed run has at least this many ops, in whole cycles
TAIL_BEYOND = 10  # samples above the tail percentile in the shortest run

# A fresh interpreter up to the first compute call: import, parser, first
# scenario.  It prints "ready" there; the parent stops its clock on that line.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import omsense
from omsense import cli
args = cli.build_parser().parse_args(sys.argv[2:])
if args.scenario is not None:
    cli.load_scenario(args.scenario, strict=args.strict,
                      gamma_convention=args.gamma_convention)
print("ready", flush=True)
"""


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not an op failure)."""


def load_program():
    """Import omsense from this checkout's ``src`` and nowhere else."""
    if not (SRC / "omsense" / "__init__.py").is_file():
        raise BenchError(f"no omsense sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("OMSENSE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import omsense

    if Path(omsense.__file__).resolve().parent != SRC / "omsense":
        raise BenchError(f"imported omsense from {omsense.__file__}, not {SRC}")
    return omsense


def _op_dir(work: str, name: str) -> str:
    path = os.path.join(work, name)
    os.makedirs(path, exist_ok=True)
    return path


def _outputs(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _check_all(done, work) -> list[tuple[int, list[str]]]:
    """(op index, failures) for every failing op; ``done`` is (op, rc, dir)."""
    from checker import check_op

    bad = []
    for op, rc, out_dir in done:
        check_dir = os.path.join(work, f"check_{op.index:05d}")
        failures = check_op(op, rc, out_dir, check_dir)
        shutil.rmtree(check_dir, ignore_errors=True)
        if failures:
            bad.append((op.index, failures))
    return bad


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure_setup(op, work: str) -> float:
    """One fresh-interpreter set-up time, up to the first compute call."""
    argv = [*op.argv, "--out", _op_dir(work, "setup")]
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, env=dict(os.environ), text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed ({proc.returncode}): {err}")
    return elapsed


def min_ops(workload) -> int:
    """Ops in the shortest timed run: whole cycles, at least MIN_OPS."""
    cycle = 2 * workload.deck
    return cycle * -(-MIN_OPS // cycle)


def tail_percentile(workload) -> float:
    """The highest percentile with TAIL_BEYOND samples above it in the
    shortest run; fixed per workload so that runs compare."""
    n = min_ops(workload)
    return 100.0 * (n - TAIL_BEYOND) / n


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered) - 1e-9)
    return ordered[max(rank, 1) - 1]


def run_timed(workload, seed: int, seconds: float, work: str, after_op=None):
    """Closed loop over fresh ops for at least ``seconds`` of measured op
    time and ``min_ops`` ops, ending on a whole cycle; then every op is
    checked.  Peak RSS is read before the checks, so that it is the ops'.

    Set-up samples run in child processes at even steps of measured time, so
    that they see the same host as the ops.  ``after_op(op, out_dir)`` runs
    untimed after each op (the self-test uses it to corrupt outputs).
    """
    from checker import run_cli
    from workloads import make_op, make_warmup_op

    warm = make_warmup_op(workload, seed, work)
    run_cli([*warm.argv, "--out", _op_dir(work, "warmup")])

    done, latencies, setup, measured = [], [], [], 0.0
    cycle = 2 * workload.deck
    while not (done and len(done) % cycle == 0 and len(done) >= min_ops(workload)
               and measured >= seconds):
        op = make_op(workload, seed, len(done), work)
        out_dir = _op_dir(work, f"op_{op.index:05d}")
        rc, elapsed, _ = run_cli([*op.argv, "--out", out_dir])
        if after_op is not None:
            after_op(op, out_dir)
        done.append((op, rc, out_dir))
        latencies.append(elapsed)
        measured += elapsed
        if len(setup) < SETUP_REPEATS * min(1.0, measured / max(seconds, 1e-9)):
            setup.append(measure_setup(done[0][0], work))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(done[0][0], work))

    bad = _check_all(done, work)
    tail_pct = tail_percentile(workload)
    metrics = {
        "ops_per_s": (len(latencies) / measured, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (nearest_rank(latencies, tail_pct), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"ops": len(latencies), "measured_s": measured,
             "tail_percentile": tail_pct, "setup_samples": len(setup),
             "error_rate": len(bad) / len(latencies)}
    return len(latencies), bad, metrics, notes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

LAYERS = ("cli", "scenario", "scans", "sensitivity", "arrays", "spectra",
          "oracle")


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    self_times = tracer.self_times()
    self_s = dict.fromkeys(LAYERS, 0.0)
    duration: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times):
        name, layer, start, end = span[:4]
        self_s[layer] = self_s.get(layer, 0.0) + own
        duration[name] = duration.get(name, 0.0) + (end - start)
    c = {**tracer.counters, **tracer.maxima}

    def count(key):
        return c.get(key, 0)

    points = count("arrays.sensor_freq_points")
    integrals = count("sensitivity.integrals")
    out = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    out.update({
        "arrays.calls": (count("arrays.calls"), "count"),
        "arrays.sensor_freq_points": (points, "count"),
        "arrays.ns_per_sensor_freq": (
            1e9 * self_s["arrays"] / points if points else 0.0, "ns"),
        "spectra.calls": (count("spectra.calls"), "count"),
        "sensitivity.integrals": (integrals, "count"),
        "sensitivity.evals": (count("sensitivity.evals"), "count"),
        "sensitivity.evals_per_integral": (
            count("sensitivity.evals") / integrals if integrals else 0.0,
            "count"),
        "sensitivity.rounds_max": (count("sensitivity.rounds_max"), "count"),
        "sensitivity.grid_s": (
            duration.get("sensitivity.resonance_refined_grid", 0.0), "s"),
        "oracle.assemblies": (count("oracle.assemblies"), "count"),
        "oracle.freq_points": (count("oracle.freq_points"), "count"),
        "oracle.assemble_s": (duration.get("oracle.assemble_transfer", 0.0), "s"),
        "oracle.propagate_s": (
            duration.get("oracle.propagate_covariance", 0.0), "s"),
        "oracle.bytes_computed": (count("oracle.bytes_computed"), "bytes"),
        "scenario.load_s": (duration.get("scenario.load_scenario", 0.0)
                            + duration.get("scenario.scenario_from_dict", 0.0),
                            "s"),
        "scenario.build_s": (duration.get("scenario.build_array", 0.0)
                             + duration.get("scenario.build_grid", 0.0), "s"),
        "scans.rows": (count("scans.rows"), "count"),
        "cli.bytes_written": (count("cli.bytes_written"), "bytes"),
    })
    return out


EXACT_COUNTERS = ("sensitivity.evals", "arrays.calls",
                  "arrays.sensor_freq_points", "oracle.freq_points")


def run_pass(ops, work: str, tracer=None):
    """One pass over ``ops``: (wall seconds, [(op, rc, dir, outputs)]).

    With a tracer, its wrappers are installed for the pass and each op runs
    as a root ``cli.main`` span.
    """
    from checker import run_cli
    from omsense import cli
    from spans import installed

    results, wall = [], 0.0
    scope = installed(tracer) if tracer is not None else contextlib.nullcontext()
    with scope:
        for op in ops:
            out_dir = _op_dir(work, f"op_{op.index:05d}")
            main = None
            if tracer is not None:
                tracer.op = op.index
                main = tracer.wrap(cli.main, "cli.main", "cli")
            rc, elapsed, _ = run_cli([*op.argv, "--out", out_dir], main=main)
            wall += elapsed
            outputs = _outputs(out_dir)
            if tracer is not None:
                tracer.counters["cli.bytes_written"] += sum(
                    len(b) for b in outputs.values())
            results.append((op, rc, out_dir, outputs))
    return wall, results


def run_traced(workload, seed: int, seconds: float, work: str):
    """Alternate untraced and traced passes over one deck of ops."""
    from spans import Tracer
    from workloads import make_op, make_warmup_op

    ops = [make_op(workload, seed, i, work) for i in range(workload.deck)]
    run_pass([make_warmup_op(workload, seed, work)], work)

    pairs, tracers, first, mismatched = [], [], None, set()
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        walls = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            tracer = Tracer() if traced else None
            walls[traced], results = run_pass(ops, work, tracer)
            if traced:
                tracers.append(tracer)
            if first is None:
                first = results
            # every pass must write the same bytes as the first one
            mismatched.update(op.index for (op, _, _, out), ref
                              in zip(results, first) if out != ref[3])
        pairs.append(walls)

    bad = _check_all([(op, rc, d) for op, rc, d, _ in first], work)
    bad += [(i, ["output bytes differ between passes"]) for i in sorted(mismatched)]
    per_pass = [layer_metrics(t) for t in tracers]
    for key in EXACT_COUNTERS:
        values = {m[key][0] for m in per_pass}
        if len(values) != 1:
            bad.append((-1, [f"counter {key} differs between passes: {values}"]))
    metrics = {}
    for key, (value, unit) in per_pass[0].items():
        if unit == "s" or unit == "ns":
            value = statistics.median(m[key][0] for m in per_pass)
        metrics[key] = (value, unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(p[True] / p[False] for p in pairs) - 1.0, "1")
    metrics["trace.wall_s"] = (statistics.median(p[True] for p in pairs), "s")
    attempted = 2 * len(pairs) * len(ops)
    notes = {"passes": 2 * len(pairs), "ops_per_pass": len(ops)}
    return attempted, bad, metrics, notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, notes, failures)."""
    load_program()
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_ROOT)
    try:
        fn = run_traced if trace else run_timed
        attempted, bad, metrics, notes = fn(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    result = {"correct": not bad, "attempted": attempted,
              "failed": len({i for i, _ in bad}),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, notes, bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        result, notes, bad = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for index, failures in bad[:20]:
        print(f"bench: op {index} failed: {'; '.join(failures)}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in notes.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
