"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: `Recorder.installed()` replaces
selected public functions of qlgs with timing wrappers on every name that
callers look up.  The modules import by name (``from .spectra import
eig_lowest``), so a wrapper on ``qlgs.spectra.eig_lowest`` alone would miss
the calls ``verify`` makes; every qlgs module attribute bound to a target
function is patched, and all of them are restored on exit.

A span started on a thread with no open span of its own (a worker of the
thread pool inside ``verify``) is attributed to the innermost open span of
the main thread, which is the ``verify`` call blocked on the pool.  Spans of
pool threads overlap, so layer times are reported both as summed span time
and as the union of the span intervals; self times subtract unions, so none
goes negative.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute) -> span name.  Functions sharing a span name are one
# layer; a call nested in a span of the same name is not recorded again.
TARGETS = {
    ("qlgs.shooting", "raw_shot"): "shooting.kernel",
    ("qlgs.shooting", "solve_profile"): "shooting.solve",
    ("qlgs.ground_state", "find_ground_state"): "ground_state.solve",
    ("qlgs.ground_state", "restrict_profile"): "ground_state.refine",
    ("qlgs.ground_state", "extend_profile"): "ground_state.refine",
    ("qlgs.sectors", "assemble_operator"): "sectors.assemble",
    ("qlgs.sectors", "assemble_lplus"): "sectors.assemble",
    ("qlgs.sectors", "assemble_lminus"): "sectors.assemble",
    ("qlgs.sectors", "assemble_aplus"): "sectors.assemble",
    ("qlgs.spectra", "eig_lowest"): "spectra.eig",
    ("qlgs.spectra", "kernel_from_slices"): "spectra.classify",
    ("qlgs.spectra", "probe_from_slices"): "spectra.classify",
    ("qlgs.nondegeneracy", "verify"): "nondegeneracy.verify",
    ("qlgs.nls", "baseline_gate"): "nls.baseline_gate",
    ("qlgs.cli", "main"): "cli.main",
    ("qlgs.cli", "_write_verify_outputs"): "cli.write",
}

ROLES = ("fine", "coarse", "wide")


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    t0: float = 0.0
    t1: float = 0.0
    error: type | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _note_kernel(span, args, result):
    span.attrs["steps"] = int(result[1])
    span.attrs["nodes"] = args["grid"].nodes


def _note_solve(span, args, result):
    span.attrs["nodes"] = result.grid.nodes


def _note_assemble(span, args, result):
    span.attrs["rows"] = result.order


def _note_eig(span, args, result):
    grid = args["matrix"].grid
    span.attrs.update(n=args["matrix"].order, m=int(result.eigenvalues.size),
                      h=grid.h, R=grid.radius)


def _note_verify(span, args, result):
    grid = result.artifacts["gs"].grid
    span.attrs.update(verdict=result.nd_verdict, h=grid.h, R=grid.radius)


def _note_write(span, args, result):
    out = Path(args["out"])
    span.attrs["bytes"] = sum(f.stat().st_size for f in out.iterdir() if f.is_file())


NOTES = {
    "shooting.kernel": _note_kernel,
    "ground_state.solve": _note_solve,
    "sectors.assemble": _note_assemble,
    "spectra.eig": _note_eig,
    "nondegeneracy.verify": _note_verify,
    "cli.write": _note_write,
}


class Recorder:
    """Collects spans from wrapped qlgs functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()  # targets the package no longer has
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            span = Span(name, parent)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc)
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if note is not None:
                try:  # a failed note must not change what the call returns
                    note(span, sig.bind(*args, **kwargs).arguments, result)
                except Exception as exc:
                    span.attrs["note_error"] = repr(exc)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every qlgs module attribute bound to a target function."""
        wrappers = {}
        for (mod_name, attr), name in TARGETS.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.add(f"{mod_name}.{attr}")
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qlgs" and not mod_name.startswith("qlgs."):
                    continue
                for attr, value in list(vars(mod).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(mod, attr, entry[1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _owner(span: Span, name: str) -> Span | None:
    """Nearest enclosing span called `name`."""
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _covered(owners, spans, name) -> float:
    """Summed time of each owner span covered by the union of the given
    spans whose nearest `name` ancestor it is, clipped to the owner."""
    groups = defaultdict(list)
    for s in spans:
        o = _owner(s, name)
        if o is not None:
            groups[id(o)].append(s)
    total = 0.0
    for o in owners:
        total += union_seconds((max(s.t0, o.t0), min(s.t1, o.t1))
                               for s in groups[id(o)] if s.t1 > o.t0 and s.t0 < o.t1)
    return total


def _role(span: Span) -> str | None:
    """Grid role of an eigensolve against the fine profile of its verify:
    same h and R is fine, 2h is coarse, 2R is wide."""
    v = _owner(span, "nondegeneracy.verify")
    if v is None or "h" not in v.attrs or "h" not in span.attrs:
        return None
    h, r = span.attrs["h"], span.attrs["R"]
    same_h = math.isclose(h, v.attrs["h"], rel_tol=1e-9)
    same_r = math.isclose(r, v.attrs["R"], rel_tol=1e-9)
    if same_h and same_r:
        return "fine"
    if same_r and math.isclose(h, 2.0 * v.attrs["h"], rel_tol=1e-9):
        return "coarse"
    if same_h and math.isclose(r, 2.0 * v.attrs["R"], rel_tol=1e-9):
        return "wide"
    return None


def layer_metrics(spans, passes: int, solve_error: type) -> dict:
    """Per-layer numbers per traced pass: {name: (value, unit)}."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(name, key=None):
        return sum(s.attrs.get(key, 0) if key else s.seconds for s in by[name])

    kernel = by["shooting.kernel"]
    kernel_s = total("shooting.kernel")
    steps = total("shooting.kernel", "steps")
    grids = defaultdict(set)
    for s in kernel:
        o = _owner(s, "shooting.solve")
        if o is not None:
            grids[id(o)].add(s.attrs.get("nodes"))
    solves = by["ground_state.solve"]
    solve_s = total("ground_state.solve")
    ok_solves = [s for s in solves if s.error is None]

    eig = defaultdict(lambda: [0, 0.0, 0])
    for s in by["spectra.eig"]:
        role = _role(s)
        if role is not None:
            eig[role][0] += 1
            eig[role][1] += s.seconds
            eig[role][2] += s.attrs.get("n", 0)

    verifies = by["nondegeneracy.verify"]
    verdicts = defaultdict(int)
    for s in verifies:
        if "verdict" in s.attrs:
            verdicts[s.attrs["verdict"]] += 1
    inside_verify = [s for s in spans if s.name != "nondegeneracy.verify"]

    out = {
        "shooting.shots": (len(kernel), "count"),
        "shooting.steps": (steps, "count"),
        "shooting.kernel_s": (kernel_s, "s"),
        "shooting.msteps_per_s": (steps / kernel_s / 1e6 if kernel_s else 0.0,
                                  "Msteps/s"),
        "shooting.box_doublings": (sum(len(g) - 1 for g in grids.values()), "count"),
        "shooting.solve_errors": (
            sum(1 for s in solves if s.error and issubclass(s.error, solve_error)),
            "count"),
        "ground_state.solve_s": (solve_s, "s"),
        "ground_state.self_s": (
            solve_s - _covered(solves, kernel, "ground_state.solve"), "s"),
        "ground_state.nodes": (sum(s.attrs.get("nodes", 0) for s in ok_solves), "count"),
        "ground_state.refine_s": (total("ground_state.refine"), "s"),
        "sectors.assemble_calls": (len(by["sectors.assemble"]), "count"),
        "sectors.assemble_s": (total("sectors.assemble"), "s"),
        "sectors.rows": (total("sectors.assemble", "rows"), "count"),
    }
    for role in ROLES:
        calls, secs, rows = eig[role]
        out[f"spectra.eig_calls.{role}"] = (calls, "count")
        out[f"spectra.eig_s.{role}"] = (secs, "s")
        out[f"spectra.eig_rows.{role}"] = (rows, "count")
    out.update({
        "spectra.eig_busy_s": (
            union_seconds((s.t0, s.t1) for s in by["spectra.eig"]), "s"),
        "spectra.evec_bytes": (
            sum(8 * s.attrs.get("n", 0) * s.attrs.get("m", 0) for s in by["spectra.eig"]),
            "bytes"),
        "spectra.classify_s": (total("spectra.classify"), "s"),
        "nondegeneracy.verify_s": (total("nondegeneracy.verify"), "s"),
        "nondegeneracy.self_s": (
            total("nondegeneracy.verify")
            - _covered(verifies, inside_verify, "nondegeneracy.verify"), "s"),
        "nondegeneracy.pass": (verdicts["pass"], "count"),
        "nondegeneracy.fail": (verdicts["fail"], "count"),
        "nondegeneracy.inconclusive": (verdicts["inconclusive"], "count"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.bytes_written": (total("cli.write", "bytes"), "bytes"),
    })
    return {name: (value / passes, unit) for name, (value, unit) in out.items()}
