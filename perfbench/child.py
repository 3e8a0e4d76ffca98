"""Run one workload in this process and write a JSON result file.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``.  It
drives ``opentropy.cli.main`` in process, one call at a time (a closed loop
with one client), for whole cycles of the workload until ``--seconds`` of
call time have been measured.  Every call's output is checked between calls,
outside the timed region, and followed by a reading of the host speed
(``calibration.py``).  After the loop, calls of the first cycle are run
again and their output bytes compared (the per-build determinism contract).

With ``--trace`` it first times ``sym_eig`` against ``numpy.linalg.eigh``
on fixed seeded inputs, then installs the span hooks of ``spans.py`` and
reports per-layer metrics for the timed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import calibration
import spans
import workloads

# a rerun for the determinism check takes at most this share of --seconds
# (and at least one call)
RERUN_SHARE = 0.1
# per row of the sym_eig/eigh microbench: time budget and distinct inputs
MICRO_SECONDS = 0.15
MICRO_INPUTS = 3


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _matrix_ok(obj, dim: int, field: str) -> bool:
    data = obj.get("data")
    return (obj.get("field") == field and obj.get("dim") == dim
            and len(data) == dim and all(len(row) == dim for row in data))


def check_output(call: workloads.Call, payload: dict) -> str | None:
    """Why the parsed output of ``call`` is wrong, or None if it is right."""
    kind = call.kind
    if kind == "verify":
        suite, dim, field = call.cell
        s, cfg, trials = payload["summary"], payload["config"], payload["trials"]
        realized = (cfg["suite"], cfg["dims"], cfg["field"])
        if realized != (suite, [dim], field):
            return f"realized cell {realized} != declared {call.cell}"
        if s["trials"] != call.units or len(trials) != call.units:
            return f"{len(trials)} trials reported, {call.units} declared"
        if [t["trial_seed"] for t in trials] != list(range(call.units)):
            return "trial seeds are not 0..trials-1"
        if not s["all_pass"] or any(t["verdict"] != "pass" for t in trials):
            return f"{s['failed']} failed trials"
        return None
    if kind == "oracle":
        _, dim, field = call.cell
        s, trials = payload["summary"], payload["trials"]
        dims = sorted({t["params"]["dim"] for t in trials})
        if (dims, payload["config"]["field"]) != ([dim], field):
            return f"realized dims {dims} {payload['config']['field']}"
        if s["trials"] != call.units or len(trials) != call.units:
            return f"{len(trials)} trials reported, {call.units} declared"
        if not (s["all_pass"] and s["max_rel_dev"] <= workloads.ORACLE_CONTRACT):
            return f"max_rel_dev {s['max_rel_dev']!r} above the contract"
        return None
    if kind == "compute":
        _, dim, field = call.cell
        mats = [payload[k] for k in ("harmonic", "geometric", "arithmetic")] \
            if "harmonic" in payload else [payload]
        if not all(_matrix_ok(m, dim, field) for m in mats):
            return f"output is not a {dim}x{dim} {field} matrix"
        return None
    if kind == "hh":
        chain = [payload["record"][k] for k in
                 ("midpoint", "sup_l", "integral_avg", "inf_L", "endpoint_avg")]
        scale = max(1.0, max(abs(v) for v in chain))
        if not payload["grid"]["passed"]:
            return "grid verdict failed"
        if any(lo > hi + 1e-12 * scale for lo, hi in zip(chain, chain[1:])):
            return f"chain not ascending: {chain}"
        return None
    return f"unknown call kind {kind!r}"


class Loop:
    """The closed loop: one CLI call at a time, each checked afterwards."""

    def __init__(self, main, out_path: str, tracer=None):
        self.main = main
        self.out_path = out_path
        self.tracer = tracer
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def invoke(self, call: workloads.Call):
        """Run one call; return (seconds, output bytes or None)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = list(call.argv) + ["--out", self.out_path]
        log = io.StringIO()
        root = self.tracer.root(self.calls) if self.tracer \
            else contextlib.nullcontext()
        error = None
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            start = time.perf_counter()
            try:
                with root:
                    code = self.main(argv)
            except Exception:  # a crash is a failed call, the loop goes on
                code, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        self.calls += 1
        self.attempted += call.units
        data = None
        if code != 0:
            reason = error or f"exit {code}: {log.getvalue().strip()[-300:]}"
        else:
            try:
                with open(self.out_path, "rb") as fh:
                    data = fh.read()
                reason = check_output(call, json.loads(
                    data, parse_constant=_reject_constant))
            except (OSError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is not None:
            self.fail(call, reason)
            data = None
        return elapsed, data

    def fail(self, call: workloads.Call, reason: str) -> None:
        self.failed += call.units
        if len(self.failures) < 10:
            self.failures.append(f"{' '.join(call.argv)}: {reason}")


def run_workload(args, loop: Loop) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    cycles, latencies, calib, first = [], [], [], []
    measured = 0.0
    while measured < args.seconds or not cycles:
        calls = workload.cycle(args.seed, len(cycles), args.tiny, args.files)
        units = spent = 0.0
        for call in calls:
            elapsed, data = loop.invoke(call)
            latencies.append(elapsed * 1e3)
            calib.append(calibration.reading(
                calibration.samples_for(elapsed * 1e3)))
            units += call.units
            spent += elapsed
            if not cycles:
                first.append((call, data and hashlib.sha256(data).digest()))
        cycles.append((units, spent, len(calls)))
        measured += spent
    # spans and counts of the timed calls; the reruns below add more
    timed_spans = len(loop.tracer.spans) if loop.tracer else 0
    timed_counts = dict(loop.tracer.counts) if loop.tracer else {}

    rerun_s, reruns = 0.0, 0
    for call, digest in first:
        if reruns and rerun_s >= RERUN_SHARE * args.seconds:
            break
        elapsed, again = loop.invoke(call)
        rerun_s += elapsed
        reruns += 1
        if digest and again and hashlib.sha256(again).digest() != digest:
            loop.fail(call, "output bytes differ between two runs")
    return {"cycles": cycles, "latencies_ms": latencies,
            "calibration_ms": calib,
            "timed_spans": timed_spans, "timed_counts": timed_counts,
            "timed_units": sum(c[0] for c in cycles), "reruns": reruns}


def microbench(seed: int) -> dict[str, float]:
    """Median microseconds per call of ``sym_eig`` and ``numpy.linalg.eigh``."""
    from opentropy.matcore import SymMatrix, sym_eig

    rng = np.random.default_rng([seed, 7])
    rows = {}
    for dim in (2, 8, 32):
        for field in workloads.FIELDS:
            arrays = [workloads.random_spd_array(rng, dim, field)
                      for _ in range(MICRO_INPUTS)]
            mats = [SymMatrix(a) for a in arrays]
            for name, fn, inputs in (("matcore.sym_eig", sym_eig, mats),
                                     ("numpy.eigh", np.linalg.eigh, arrays)):
                times = []
                while sum(times) < MICRO_SECONDS or len(times) < len(inputs):
                    x = inputs[len(times) % len(inputs)]
                    start = time.perf_counter()
                    fn(x)
                    times.append(time.perf_counter() - start)
                rows[f"{name}.us.{dim}.{field}"] = statistics.median(times) * 1e6
    return rows


def environment() -> dict:
    import opentropy

    try:
        from opentropy import _accel
        lane = "numba" if _accel.ACCELERATED else "numpy"
    except ImportError:
        lane = "no opentropy._accel"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"lane": lane, "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "opentropy": os.path.dirname(opentropy.__file__),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--files", required=True,
                        help="directory of the compute-files matrix files")
    parser.add_argument("--work", required=True,
                        help="directory for outputs and the result file")
    parser.add_argument("--src", required=True,
                        help="source tree opentropy must be imported from")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    from opentropy import cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"opentropy imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result = {"env": environment()}
    tracer = None
    if args.trace:
        result["microbench"] = microbench(args.seed)
        tracer = spans.Tracer()
        tracer.install()
    loop = Loop(cli.main, os.path.join(args.work, "out.json"), tracer)
    result.update(run_workload(args, loop))
    result.update(attempted=loop.attempted, failed=loop.failed,
                  failures=loop.failures,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["per_layer"] = spans.per_layer(
            tracer, result["timed_spans"], result["timed_counts"],
            result["timed_units"])
        result["missing_hooks"] = sorted(tracer.missing)
        tracer.write(os.path.join(args.work, "spans.tsv"),
                     result["timed_spans"])
    with open(os.path.join(args.work, "child.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
