"""The benchmark's workloads: their configurations, the user-level call each
one makes, the checks on its outputs and the fingerprints of its artifacts.

A configuration is (N, p, omega).  Every one lies in the admissible range, so
the expected answer is a checked `pass`; the known defects of the solver and
of the verdict logic are kept in on purpose and show as configurations that
do not pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import qlgs
from qlgs import cli, ground_state

PASS = "pass"        # the program answered pass and every check held
NONPASS = "nonpass"  # the program answered fail, inconclusive or SolveError
FAILED = "failed"    # an output check failed or the call raised unexpectedly

# Output-check bounds for solve-grid, from the seed's worst cases with
# headroom: virial 5.8e-6 and Pohozaev 3.9e-6 (N=2, p=3, omega=0.25), tail
# rate 9.4% below sqrt(omega) (N=3, p=1.3, omega=0.25).
VIRIAL_MAX = 1e-4
POHOZAEV_MAX = 1e-4
TAIL_RATE_REL = 0.15

VERDICT_CODES = {True: 0, "inconclusive": 2, False: 1}
VERDICT_NAMES = {True: "pass", "inconclusive": "inconclusive", False: "fail"}


@dataclass
class CallResult:
    """One user-level call: its wall time, the outcome of each configuration
    it covered ({label: (status, note)}) and its artifact fingerprints."""

    label: str
    seconds: float
    outcomes: dict[str, tuple[str, str]]
    fingerprints: dict[str, str] = field(default_factory=dict)
    peak_rss_kb: int = 0
    ref_s: float = 0.0  # the speed reference timed just before the call


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple
    run: Callable[..., CallResult]  # run(spec, out_dir, in_process)
    in_process: bool  # False: untraced calls run as subprocesses
    speed_ref: str  # the SpeedProbe kind matching the workload's dominant work


def label(dim, p, omega) -> str:
    return f"N={dim} p={float(p)!r} omega={float(omega)!r}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_fingerprints(out: Path, prefix: str = "") -> dict[str, str]:
    names = ["profile.csv", "report.json", "summary.csv"]
    files = [out / n for n in names] + sorted(out.glob("eigen_k*.csv"),
                                               key=lambda f: int(f.stem[7:]))
    return {prefix + f.name: sha256_file(f) for f in files if f.is_file()}


def _unexpected(lbl, seconds, exc) -> CallResult:
    note = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return CallResult(lbl, seconds, {lbl: (FAILED, f"unexpected {note}")})


# --- solve-grid -------------------------------------------------------------

SOLVE_GRID = tuple((n, p, w) for n in (1, 2, 3) for p in (1.3, 1.5, 2.0, 3.0)
                   for w in (0.25, 1.0, 4.0))


def profile_problems(gs) -> list[str]:
    """Virial (and for N=2 Pohozaev) residual bounds and the decay rate."""
    res = ground_state.identity_residuals(gs)
    omega = gs.params.omega
    problems = []
    if not res["virial"] < VIRIAL_MAX:
        problems.append(f"virial residual {res['virial']:.3g} >= {VIRIAL_MAX}")
    if gs.params.dim == 2 and not res["pohozaev2d"] < POHOZAEV_MAX:
        problems.append(f"Pohozaev residual {res['pohozaev2d']:.3g} >= {POHOZAEV_MAX}")
    rel = abs(gs.tail_rate / math.sqrt(omega) - 1.0)
    if not rel < TAIL_RATE_REL:
        problems.append(f"tail_rate {gs.tail_rate!r} is {rel:.3g} off sqrt(omega)")
    return problems


def run_solve(cfg, out: Path, in_process: bool = True) -> CallResult:
    """One in-process find_ground_state; the profile arrays are fingerprinted
    in place of a profile.csv, which this call does not write."""
    lbl = label(*cfg)
    params = ground_state.Params(*cfg)
    t0 = time.perf_counter()
    try:
        gs = ground_state.find_ground_state(params)
    except qlgs.SolveError as exc:
        seconds = time.perf_counter() - t0
        msg = f"{type(exc).__name__}: {exc}"
        return CallResult(lbl, seconds, {lbl: (NONPASS, msg)},
                          {"solve_error": hashlib.sha256(msg.encode()).hexdigest()})
    except Exception as exc:
        return _unexpected(lbl, time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256()
    for arr in (gs.grid.r, gs.u.values, gs.du.values, gs.ddu.values):
        digest.update(arr.tobytes())
    digest.update(repr(gs.amplitude).encode())
    problems = profile_problems(gs)
    status = (FAILED, "; ".join(problems)) if problems else (PASS, "")
    return CallResult(lbl, seconds, {lbl: status}, {"profile": digest.hexdigest()})


# --- verify-fixed -----------------------------------------------------------

VERIFY_FIXED = (
    (2, 2.0, 1.0), (1, 2.0, 1.0), (3, 2.5, 1.0),
    (2, 1.5, 1.0), (2, 2.5, 1.0), (2, 3.0, 1.0), (2, 4.0, 1.0),
    # false `fail`s from the absolute continuum tolerance
    (3, 2.0, 1.0), (2, 4.0, 4.0), (4, 2.5, 4.0), (4, 3.0, 4.0),
    # kernel band wider than omega
    (2, 1.3, 0.25),
)


def run_verify(cfg, out: Path, in_process: bool = True) -> CallResult:
    """`qlgs verify` through qlgs.cli.main in-process, artifacts written; the
    exit code must agree with report.json's nd_verdict."""
    lbl = label(*cfg)
    dim, p, omega = cfg
    argv = ["verify", "--dim", str(dim), "--p", repr(float(p)),
            "--omega", repr(float(omega)), "--out", str(out)]
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:
        return _unexpected(lbl, time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0
    report = out / "report.json"
    if not report.is_file():
        status = (NONPASS, "no report (solver failure)") if code == 1 else \
            (FAILED, f"exit {code} without report.json")
        return CallResult(lbl, seconds, {lbl: status})
    verdict = json.loads(report.read_text())["nd_verdict"]
    if VERDICT_CODES.get(verdict) != code:
        status = (FAILED, f"exit {code} disagrees with nd_verdict {verdict!r}")
    elif verdict is True:
        status = (PASS, "")
    else:
        status = (NONPASS, VERDICT_NAMES[verdict])
    return CallResult(lbl, seconds, {lbl: status}, artifact_fingerprints(out))


# --- sweep-sectors ----------------------------------------------------------

# (dim, --p text, the p values it expands to, --sectors)
SWEEP_SECTORS = ((2, "2:1:4", (2.0, 3.0, 4.0), 8), (3, "2:1:4", (2.0, 3.0, 4.0), 8))
SWEEP_OMEGA = 1.0


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(qlgs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_sweep(spec, out: Path, in_process: bool = False) -> CallResult:
    """`qlgs sweep`: a subprocess with --jobs 2, or in-process with --jobs 1
    for the traced run.  summary.csv must hold one row per p whose verdict
    matches that sub-directory's report.json, and the exit code must follow
    the verdicts."""
    dim, p_text, p_values, sectors = spec
    lbl = f"sweep N={dim} p={p_text} omega={SWEEP_OMEGA!r} sectors={sectors}"
    argv = ["sweep", "--dim", str(dim), "--p", p_text, "--omega", repr(SWEEP_OMEGA),
            "--sectors", str(sectors), "--jobs", "1" if in_process else "2",
            "--out", str(out)]
    rss_kb = 0
    stderr = out.parent / f"{out.name}.stderr"
    t0 = time.perf_counter()
    try:
        if in_process:
            code = cli.main(argv)
        else:
            with open(stderr, "wb") as err:
                proc = subprocess.Popen([sys.executable, "-m", "qlgs.cli", *argv],
                                        stdout=subprocess.DEVNULL, stderr=err,
                                        env=_child_env())
            try:  # wait4 reports the peak RSS of the child and its pool workers
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            rss_kb = usage.ru_maxrss
    except Exception as exc:
        return _unexpected(lbl, time.perf_counter() - t0, exc)
    seconds = time.perf_counter() - t0
    labels = [label(dim, p, SWEEP_OMEGA) for p in p_values]
    summary = out / "summary.csv"
    if not summary.is_file():
        tail = stderr.read_text().strip().splitlines()[-1:] if stderr.is_file() else []
        note = f"exit {code} without summary.csv {tail}"
        return CallResult(lbl, seconds, {x: (FAILED, note) for x in labels},
                          peak_rss_kb=rss_kb)
    with open(summary, newline="") as f:
        rows = list(csv.DictReader(f))
    outcomes = {x: (FAILED, "no row in summary.csv") for x in labels}
    fingerprints = {"summary.csv": sha256_file(summary)}
    verdicts = []
    for row in rows:
        p = float(row["p"])
        lbl_p = label(dim, p, SWEEP_OMEGA)
        verdicts.append(row["nd_verdict"])
        sub = out / f"p{p!r}"
        fingerprints.update(artifact_fingerprints(sub, f"p{p!r}/"))
        report = sub / "report.json"
        if report.is_file():
            expected = VERDICT_NAMES[json.loads(report.read_text())["nd_verdict"]]
        else:  # a solver failure is a `fail` row without spectra
            expected = "fail" if row["mu1"] == "" else "report.json missing"
        if lbl_p not in outcomes or len(rows) != len(labels):
            outcomes[lbl_p] = (FAILED, f"unexpected summary row for p={p!r}")
        elif row["nd_verdict"] != expected:
            outcomes[lbl_p] = (FAILED, f"summary says {row['nd_verdict']}, "
                                       f"report says {expected}")
        elif expected == "pass":
            outcomes[lbl_p] = (PASS, "")
        else:
            outcomes[lbl_p] = (NONPASS, expected)
    want = 1 if "fail" in verdicts else 2 if "inconclusive" in verdicts else 0
    if code != want:
        outcomes = {x: (FAILED, f"exit {code}, verdicts imply {want}") for x in outcomes}
    return CallResult(lbl, seconds, outcomes, fingerprints, rss_kb)


WORKLOADS = {
    "solve-grid": Workload("solve-grid", SOLVE_GRID, run_solve, True, "python"),
    "verify-fixed": Workload("verify-fixed", VERIFY_FIXED, run_verify, True, "lapack"),
    "sweep-sectors": Workload("sweep-sectors", SWEEP_SECTORS, run_sweep, False, "lapack"),
}
