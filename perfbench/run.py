#!/usr/bin/env python3
"""Benchmark for qlgs: end-to-end metrics per workload, or, with --trace 1,
per-layer numbers from spans recorded around the package's public functions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-grid [--seed N] [--seconds S] [--trace 0|1]

Workloads (configurations are (N, p, omega); see workloads.py):

- solve-grid: 36 in-process find_ground_state calls; shooting kernel and
  bisection only.
- verify-fixed: 12 in-process `qlgs verify` calls through qlgs.cli.main,
  artifacts written.
- sweep-sectors: `qlgs sweep --p 2:1:4 --omega 1 --sectors 8 --jobs 2` as a
  subprocess, for --dim 2 and --dim 3.

A run first builds the package in place (`setup.py build_ext --inplace`,
which compiles the kernel extension when the build can), then times set-up
in fresh interpreters, then repeats passes over the workload's
configurations, each pass in an order drawn from --seed, until --seconds have
passed and at least two passes are done.  The seed never changes the set of
configurations, so counts do not depend on it.

Every artifact's sha256 is printed and must repeat across the passes of a
run; a mismatch, a failed output check or an unexpected exception counts as
a failed operation.  Configurations that end in fail, inconclusive or a
SolveError are not failed operations: they lower `pass_frac`, the share that
ended in a checked pass (1 - failed_frac).

Time metrics other than set-up are in seconds at a fixed reference machine
speed: each is scaled by how fast a fixed reference computation ran during
the same run (see SpeedProbe), which cancels most of a shared machine's
speed drift.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 1 each pass runs untraced and
then traced, in-process (sweep-sectors with --jobs 1, since spans inside
forked workers are out of reach), and the artifacts of the two must be
byte-identical.  Layer numbers are per traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
DEFAULT_SEED = 1506
MIN_PASSES = 2
SETUP_REPS = 7
# About the median time of SpeedProbe.sample(), for either reference, on
# the 2-vCPU Xeon machine the bounds in BENCHMARK.json were set on: the unit
# of machine speed that the time metrics are scaled to.
REF_SECONDS = 0.025

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import qlgs
t1 = time.perf_counter()
from qlgs.nls import baseline_gate
baseline_gate()
t2 = time.perf_counter()
print(time.time(), t1 - t0, t2 - t1)
"""

SCIPY_PROBE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.linalg
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here: no source tree, or the build failed."""


def build() -> None:
    """Build the package in place from the checkout's sources."""
    if not (SRC / "qlgs" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no qlgs sources under {ROOT}; run from a checkout")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(ROOT / ".bench_build" / "py")],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError(f"build failed with exit code {proc.returncode}")


def import_qlgs():
    sys.path.insert(0, str(SRC))
    import qlgs

    if Path(qlgs.__file__).resolve().parent != SRC / "qlgs":
        raise BenchError(f"imported qlgs from {qlgs.__file__}, not from {SRC}")
    return qlgs


def _python_reference() -> float:
    """RK4 steps of a damped nonlinear oscillator in Python floats, the
    instruction mix of the pure-Python shooting kernel."""
    u, v, h = 1.0, 0.0, 1e-3
    for _ in range(30_000):
        k1u, k1v = v, -u - 0.1 * v * abs(u)
        k2u, k2v = v + 0.5 * h * k1v, -(u + 0.5 * h * k1u) - 0.1 * (v + 0.5 * h * k1v) * abs(u)
        k3u, k3v = v + 0.5 * h * k2v, -(u + 0.5 * h * k2u) - 0.1 * (v + 0.5 * h * k2v) * abs(u)
        k4u, k4v = v + h * k3v, -(u + h * k3u) - 0.1 * (v + h * k3v) * abs(u)
        u += h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u


class SpeedProbe:
    """Times a fixed reference computation that does not use qlgs before
    every timed call and set-up.

    A shared machine's CPU speed drifts by 20% or more over tens of seconds,
    and the drift is common to code that runs at the same time, so time
    metrics are scaled by REF_SECONDS / (the run's median reference time).
    The drift hits interpreted Python and LAPACK differently, so each
    workload is scaled by the reference that matches its dominant work:
    "python" (a Python-float RK4 loop) or "lapack" (tridiagonal
    eigensolves).  Unscaled values are printed too."""

    def __init__(self, kind: str):
        import numpy as np
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(0)
        self.kind = kind
        self._pencil = (rng.standard_normal(3000), rng.standard_normal(2999))
        self._eigh = eigh_tridiagonal
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        if self.kind == "python":
            _python_reference()
        else:
            for _ in range(2):
                self._eigh(*self._pencil, select="i", select_range=(0, 7))
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return REF_SECONDS / statistics.median(self.samples)


def scaled(metrics: dict, factor: float) -> dict:
    """Time metrics in seconds at reference speed; counts unchanged."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit == "s":
            value *= factor
        elif unit in ("1/s", "Msteps/s"):
            value /= factor
        out[name] = (value, unit)
    return out


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def measure_setup(reps: int, layers: bool, probe: SpeedProbe) -> dict:
    """Fresh interpreters until `import qlgs` and the first baseline_gate()
    have finished; medians over `reps` after one untimed warm-up."""
    _python(SETUP_PROBE)
    total, imports, gates, floors = [], [], [], []
    for _ in range(reps):
        probe.sample()
        start = time.time()
        done, import_s, gate_s = (float(x) for x in _python(SETUP_PROBE).split())
        total.append(done - start)
        imports.append(import_s)
        gates.append(gate_s)
        if layers:
            floors.append(float(_python(SCIPY_PROBE)))
    med = statistics.median
    if not layers:
        return {"setup_s": (med(total), "s")}
    return {"setup.import_s": (med(imports), "s"),
            "setup.scipy_import_s": (med(floors), "s"),
            "setup.gate_s": (med(gates), "s")}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(qlgs) -> dict:
    import numpy
    import scipy

    return {
        "backend": qlgs.BACKEND,
        "QLGS_FORCE_PYTHON": os.environ.get("QLGS_FORCE_PYTHON"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def one_pass(wl, order, run_dir: Path, in_process: bool, probe: SpeedProbe):
    results = []
    for spec in order:
        probe.sample()
        out = Path(tempfile.mkdtemp(dir=run_dir))
        try:
            results.append(wl.run(spec, out, in_process))
        finally:
            shutil.rmtree(out)
        results[-1].ref_s = probe.samples[-1]
    return results


def tally(passes):
    """(attempted, not ending in a checked pass, failed operations, notes).
    A call whose fingerprints differ from the first pass's counts every
    configuration it covers as failed."""
    from workloads import FAILED, PASS

    first = {r.label: r.fingerprints for r in passes[0]}
    attempted = nonpass = failed = 0
    notes = {}
    for results in passes:
        for r in results:
            drift = r.fingerprints != first[r.label]
            for lbl, (status, note) in r.outcomes.items():
                bad = status == FAILED or drift
                attempted += 1
                failed += bad
                nonpass += bad or status != PASS
                if drift:
                    note = "artifact fingerprints differ between passes"
                if bad or status != PASS:
                    notes.setdefault(lbl, f"{'FAILED' if bad else 'not pass'}: {note}")
    return attempted, nonpass, failed, notes


def run(workload: str, seed: int, seconds: float, trace: bool, calls=None,
        setup_reps: int = SETUP_REPS):
    """Run one benchmark; returns (result object, report lines)."""
    build()
    qlgs = import_qlgs()
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    calls = tuple(calls or wl.calls)
    load_before = os.getloadavg()
    cpu0, wall0 = os.times(), time.perf_counter()
    probe = SpeedProbe(wl.speed_ref)
    setup = measure_setup(setup_reps, trace, probe)
    metrics = {}
    qlgs.nls.baseline_gate()  # in-process calls see the gate warm, as after set-up
    rng = random.Random(seed)
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    passes = []
    warnings = []
    try:
        if wl.in_process:  # untimed warm-up of lazy imports and caches
            one_pass(wl, calls[:1], run_dir, True, probe)
        start = time.perf_counter()
        if not trace:
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                passes.append(one_pass(wl, rng.sample(calls, len(calls)), run_dir,
                                       wl.in_process, probe))
        else:
            rec = spans.Recorder()
            plain_s = traced_s = 0.0
            while not passes or time.perf_counter() - start < seconds / 2:
                order = rng.sample(calls, len(calls))
                passes.append(one_pass(wl, order, run_dir, True, probe))
                plain_s += sum(r.seconds for r in passes[-1])
                with rec.installed():
                    passes.append(one_pass(wl, order, run_dir, True, probe))
                traced_s += sum(r.seconds for r in passes[-1])
            metrics.update(spans.layer_metrics(rec.spans, len(passes) // 2,
                                               qlgs.SolveError))
            metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
            warnings += [f"trace-missing {t} (its layer reads 0)" for t in sorted(rec.missing)]
            warnings += [f"trace-note-error {s.name} {s.attrs['note_error']}"
                         for s in rec.spans if "note_error" in s.attrs]
        probe.sample()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted, nonpass, failed, notes = tally(passes)
    calls_s = [r.seconds for results in passes for r in results]
    if not trace:
        if wl.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = max(r.peak_rss_kb for results in passes for r in results)
        metrics.update({
            "configs_per_s": (attempted / sum(calls_s), "1/s"),
            "call_s.p50": (statistics.median(calls_s), "s"),
            "pass_frac": ((attempted - nonpass) / attempted, "frac"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        })
    # Set-up is import work whose time does not follow the reference, so it
    # stays unscaled.
    raw = {**setup, **metrics}
    metrics = {**setup, **scaled(metrics, probe.factor())}
    if not trace:
        # A sum is scaled by the run's median reference time, the median
        # call call by call, by the reference timed just before it.
        metrics["call_s.p50"] = (statistics.median(
            r.seconds * REF_SECONDS / r.ref_s for results in passes for r in results), "s")
    cpu1, wall1 = os.times(), time.perf_counter()
    cpu_s = sum(cpu1[:4]) - sum(cpu0[:4])
    env = environment(qlgs)
    env.update(workload=workload, seed=seed, default_seed=DEFAULT_SEED,
               trace=int(trace), passes=len(passes), calls=len(calls_s),
               loadavg_before=load_before, loadavg_after=os.getloadavg(),
               cpu_per_wall=cpu_s / (wall1 - wall0),
               ref_kind=probe.kind, ref_samples=len(probe.samples),
               ref_s_median=statistics.median(probe.samples),
               speed_factor=probe.factor())
    lines = [f"env {json.dumps(env)}"]
    for r in sorted(passes[0], key=lambda r: r.label):
        lines += [f"fingerprint {r.label} {name} {digest}"
                  for name, digest in sorted(r.fingerprints.items())]
    lines += [f"outcome {lbl} {note}" for lbl, note in sorted(notes.items())]
    lines += warnings
    lines += [f"metric {name} {value!r} {unit} (unscaled {raw[name][0]!r})"
              for name, (value, unit) in metrics.items()]
    lines.append(f"metric failed_frac {nonpass / attempted!r} frac ({nonpass}/{attempted} "
                 "configurations not ending in a checked pass; 1 - pass_frac)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-grid", "verify-fixed", "sweep-sectors"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
