#!/usr/bin/env python3
"""opentropy benchmark: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-small --seed 1 \\
        --seconds 15 --trace 0

Workloads, metrics and their bounds are declared in ``BENCHMARK.json``;
the calls each workload makes are in ``workloads.py``.  Every workload runs
in a child process (``child.py``) with ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1`` that imports ``opentropy`` from ``src/`` of this
checkout and drives ``opentropy.cli.main`` one call at a time.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
start over fresh interpreters), ``trials_per_s`` (median over the run's
cycles; a compute or hh call counts as one trial), ``call_ms_p50`` and
``call_ms_p90`` (latency of one CLI call), ``pass_frac`` (1 - failed /
attempted) and ``peak_rss_mb``.  ``--trace 1`` runs the workload twice
for half the time each, untraced then traced, and reports the per-layer
metrics of the traced half plus ``trace.overhead_frac``.  Times are
scaled to a nominal host speed as ``calibration.py`` describes; the raw
wall-clock figures are printed beside them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Working files, the full result and the spans go under
``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import calibration
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_REPEATS = 7
CHILD_TIMEOUT = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _spawn(argv, env) -> str:
    proc = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def cold_starts(repeats: int, files_args, env) -> list[tuple[float, float]]:
    """(seconds, calibration ms) of importing the CLI and building its parser
    (and writing the matrix files), once untimed to fill the bytecode cache,
    then ``repeats`` times, each in a fresh interpreter."""
    argv = [os.path.join(HERE, "probe.py")] + files_args
    runs = []
    for i in range(repeats + 1):
        probe = json.loads(_spawn(argv, env).splitlines()[-1])
        if i:
            runs.append((probe["setup_s"], probe["calibration_ms"]))
    return runs


def run_child(args, files, work, env, seconds, trace) -> dict:
    os.makedirs(work, exist_ok=True)
    argv = [os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds),
            "--files", files, "--work", work, "--src", SRC]
    argv += ["--trace"] * trace + ["--tiny"] * args.tiny
    _spawn(argv, env)
    with open(os.path.join(work, "child.json"), encoding="utf-8") as fh:
        return json.load(fh)


def calibrated(child: dict) -> tuple[list[float], list[float]]:
    """Per-call latencies (ms) scaled to the nominal host speed, and the
    per-cycle rates (units/s) computed from them."""
    lat = [ms * f for ms, f in zip(child["latencies_ms"],
                                   calibration.factors(child["calibration_ms"]))]
    rates, at = [], 0
    for units, _, calls in child["cycles"]:
        rates.append(units / (sum(lat[at:at + calls]) / 1e3))
        at += calls
    return lat, rates


def _rate(child: dict) -> float:
    return statistics.median(calibrated(child)[1])


def _raw_rate(child: dict) -> float:
    return statistics.median(u / s for u, s, _ in child["cycles"])


def end_to_end(child: dict, setup) -> tuple[dict, dict]:
    lat, rates = calibrated(child)
    # deciles with linear interpolation: [4] is the median, [8] the 90th
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    raw = statistics.quantiles(child["latencies_ms"], n=10, method="inclusive")
    setup_s = [s * calibration.NOMINAL_MS / c for s, c in setup]
    units = child["timed_units"]
    attempted, failed = child["attempted"], child["failed"]
    metrics = {
        "trials_per_s": statistics.median(rates),
        "call_ms_p50": deciles[4],
        "call_ms_p90": deciles[8],
        "pass_frac": 1.0 - failed / attempted,
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
    }
    notes = {
        "trials_per_s": f"median of {len(rates)} cycles, {units:.0f} trials;"
                        f" raw {_raw_rate(child):.4g}",
        "call_ms_p50": f"{len(lat)} calls; raw {raw[4]:.4g}",
        "call_ms_p90": f"{len(lat)} calls; raw {raw[8]:.4g}",
        "pass_frac": f"fail_frac {failed / attempted:g} = {failed}/{attempted}"
                     f" attempted, {child['reruns']} rerun calls included",
        "peak_rss_mb": "workload process",
        "setup_s": f"median of {len(setup)} cold starts; raw "
                   f"{statistics.median(s for s, _ in setup):.4g}",
    }
    return metrics, notes


def traced(plain: dict, child: dict, declared) -> tuple[dict, dict]:
    # per-layer times get the traced run's host-speed factor
    factor = calibration.run_factor(child["calibration_ms"])
    metrics = dict(child["per_layer"], **child["microbench"])
    for m in declared:
        if m["unit"] in ("ms", "us") and metrics[m["name"]] is not None:
            metrics[m["name"]] *= factor
    metrics["trace.overhead_frac"] = _rate(plain) / _rate(child) - 1.0
    notes = {"trace.overhead_frac": f"untraced {_rate(plain):.4g}/s, "
                                    f"traced {_rate(child):.4g}/s; raw "
                                    f"{_raw_rate(plain):.4g}/s, "
                                    f"{_raw_rate(child):.4g}/s"}
    return metrics, notes


def design_checks(workload: str, metrics: dict) -> list[str]:
    """The seed-commit facts the workload mix was chosen on."""
    share = metrics.get("matcore.jacobi.share")
    sweeps = metrics.get("matcore.jacobi.sweeps")
    if workload == "verify-dim32" and share is not None:
        return [f"design: jacobi share of call time {share:.3f} "
                f"({'>=' if share >= 0.9 else 'BELOW'} 0.9)"]
    if workload == "oracle-diag" and sweeps is not None:
        return [f"design: jacobi sweeps per trial {sweeps:g} "
                f"({'zero' if sweeps == 0 else 'NOT zero'})"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names or args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "opentropy", "__init__.py")):
        print(f"no opentropy sources in {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    files = os.path.join(work, "files")
    files_args = [str(args.seed), files, str(int(args.tiny))] \
        if workloads.WORKLOADS[args.workload].writes_files else []
    env = _child_env()
    try:
        if args.trace:
            if files_args:
                cold_starts(0, files_args, env)
            plain = run_child(args, files, os.path.join(work, "plain"), env,
                              args.seconds / 2, False)
            child = run_child(args, files, os.path.join(work, "traced"), env,
                              args.seconds / 2, True)
            declared = bench["per_layer"]
            metrics, notes = traced(plain, child, declared)
            children = (plain, child)
        else:
            setup = cold_starts(2 if args.tiny else SETUP_REPEATS,
                                files_args, env)
            child = run_child(args, files, work, env, args.seconds, False)
            metrics, notes = end_to_end(child, setup)
            declared = bench["end_to_end"]
            children = (child,)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    env_info = child["env"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    report = {}
    for m in declared:
        value = metrics[m["name"]]
        report[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = "MISSING" if value is None else f"{value:.6g}"
        note = notes.get(m["name"], "")
        print(f"  {m['name']:<34s} {shown:>12s} {m['unit']:<6s} {note}")
    if args.trace:
        missing = child["missing_hooks"]
        print(f"missing hooks: {', '.join(missing) if missing else 'none'}")
        for line in design_checks(args.workload, metrics):
            print(line)
    for c in children:
        for reason in c["failures"]:
            print(f"FAILED {reason}")
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": report}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env_info, "notes": notes, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
