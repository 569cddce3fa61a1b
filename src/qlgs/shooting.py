"""Shooting + bisection machinery for radial profile equations.

Backend selection: the compiled C kernel (qlgs._shoot_c) is used when it is
importable, otherwise the pure-Python twin.  Set QLGS_FORCE_PYTHON=1 to force
the fallback.  Both expose the same integrate() contract and produce
bit-identical trajectories.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .grid import RadialGrid

from . import _shoot_py

if os.environ.get("QLGS_FORCE_PYTHON"):
    _impl = _shoot_py
    BACKEND = "python"
else:
    try:
        from . import _shoot_c as _impl  # type: ignore[attr-defined]

        BACKEND = "c"
    except ImportError:
        _impl = _shoot_py
        BACKEND = "python"

REACHED_END = _shoot_py.REACHED_END
CROSSED_ZERO = _shoot_py.CROSSED_ZERO
TURNED_UP = _shoot_py.TURNED_UP
STAGNATED = _shoot_py.STAGNATED
NONFINITE = _shoot_py.NONFINITE


class SolveError(RuntimeError):
    """A profile solve failed (bracketing, bisection, or residual check)."""


class IntegrationError(SolveError):
    """The integrator produced NaN or overflow."""


class _BoxExhausted(Exception):
    """A trajectory left the box still above the tail threshold and still
    decreasing: the box, not the amplitude, is what needs to grow."""


class ShotTag(enum.Enum):
    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    CONVERGED = "converged"


@dataclass(frozen=True)
class ShotOutcome:
    tag: ShotTag
    turning_radius: float | None
    stop_index: int


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the shooting solve; None fields are filled from omega."""

    radius: float | None = None
    nodes: int = 3001
    amp_start: float | None = None
    tol_amp: float = 1e-12
    tail_frac: float = 1e-5
    max_doublings: int = 60
    max_bisect: int = 200
    stag_eps: float = 1e-12
    stag_run: int = 100
    resid_tol: float | None = None
    fit_lo: float = 1e-4
    fit_hi: float = 1e-2
    box_margin: float = 0.85
    max_box_expansions: int = 3


def default_radius(omega: float, expo: float = 2.0) -> float:
    """Default box.  The linearization potential decays like
    exp(-(p-1) sqrt(omega) r), slower than the profile when p < 2, so the
    box grows accordingly to keep the box-continuum clean."""
    return max(15.0, 20.0 / sqrt(omega), 18.0 / ((expo - 1.0) * sqrt(omega)))


def raw_shot(amplitude, dim, expo, omega, grid: RadialGrid, quasilinear,
             tail_threshold, stag_eps, stag_run=100):
    """Single kernel call; returns (status, stop, u, v) with untouched tails
    held at the stopping value."""
    n = grid.nodes
    u = np.empty(n)
    v = np.empty(n)
    status, stop = _impl.integrate(
        float(amplitude), int(dim), float(expo), float(omega), grid.h, n - 1,
        bool(quasilinear), float(tail_threshold), float(stag_eps),
        int(stag_run), u, v,
    )
    if stop < n - 1:
        u[stop + 1:] = u[stop]
        v[stop + 1:] = v[stop]
    return status, stop, u, v


def classify(status: int, stop: int, u: np.ndarray, v: np.ndarray,
             grid: RadialGrid, tail_threshold: float) -> ShotOutcome:
    r_ev = grid.r[stop]
    if status == NONFINITE:
        raise IntegrationError(
            f"integration lost finiteness near r = {r_ev:.6g}"
        )
    if status == CROSSED_ZERO:
        return ShotOutcome(ShotTag.OVERSHOOT, r_ev, stop)
    if status in (TURNED_UP, STAGNATED):
        return ShotOutcome(ShotTag.UNDERSHOOT, r_ev, stop)
    # reached the end of the box
    if u[-1] < tail_threshold and v[-1] < 0.0:
        return ShotOutcome(ShotTag.CONVERGED, None, stop)
    return ShotOutcome(ShotTag.UNDERSHOOT, None, stop)


def shoot(amplitude, dim, expo, omega, grid, quasilinear, opts: SolverOptions):
    """Integrate one trajectory and classify it."""
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    thr = opts.tail_frac * amplitude
    eps = opts.stag_eps * amplitude * max(1.0, sqrt(omega))
    status, stop, u, v = raw_shot(
        amplitude, dim, expo, omega, grid, quasilinear, thr, eps, opts.stag_run
    )
    return classify(status, stop, u, v, grid, thr), u, v


@dataclass
class ProfileSolve:
    """Raw output of the amplitude bisection, before domain-type packaging."""

    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    ddu: np.ndarray
    amplitude: float
    bracket: tuple[float, float]
    match_index: int
    match_radius: float
    tail_rate: float
    n_shots: int


def curvature(dim, expo, omega, quasilinear, r, u, v):
    """u'' from the profile equation itself (vectorized, r=0 regularized)."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    pw = np.abs(u) ** (expo - 1.0) * u
    if quasilinear:
        g = (omega * u - pw - 2.0 * u * v * v) / (1.0 + 2.0 * u * u)
    else:
        g = omega * u - pw
    out = np.empty_like(g)
    interior = r > 0
    out[interior] = g[interior] - (dim - 1.0) * v[interior] / r[interior]
    out[~interior] = g[~interior] / dim
    return out


def _fit_tail_rate(grid, u, j_match, amplitude, opts):
    """Decay exponent from a log-slope fit of u * r^((N-1)/2) on the window
    where u/amplitude is inside [fit_lo, fit_hi] (before the graft point)."""
    rel = u[: j_match + 1] / amplitude
    idx = np.nonzero((rel >= opts.fit_lo) & (rel <= opts.fit_hi))[0]
    idx = idx[idx > 0]  # exclude r=0 where the weight power is singular
    if idx.size < 4:
        idx = np.nonzero((rel > opts.tail_frac) & (rel <= 0.25))[0]
        idx = idx[idx > 0]
    if idx.size < 4:
        return float("nan")
    r_w = grid.r[idx]
    y = np.log(u[idx]) + 0.5 * (grid.dim - 1) * np.log(r_w)
    slope = np.polyfit(r_w, y, 1)[0]
    return float(-slope)


def solve_profile(dim, expo, omega, quasilinear, opts: SolverOptions,
                  grid: RadialGrid | None = None) -> ProfileSolve:
    """Bisection on the shot amplitude between an undershoot and an overshoot,
    followed by grafting of the analytic sqrt(omega)-rate tail past the last
    node above the tail threshold.

    When the grid comes from defaults and either a trajectory runs off the
    box still above the tail threshold or the matching radius crowds the box
    edge (large amplitudes delay the exponential regime through the 1+2u^2
    factor), the box is doubled at fixed h and the solve repeated."""
    auto_box = grid is None
    if grid is None:
        radius = opts.radius if opts.radius is not None else default_radius(omega, expo)
        grid = RadialGrid(dim, radius, opts.nodes)
    shots = 0
    for attempt in range(opts.max_box_expansions + 1):
        last = attempt == opts.max_box_expansions
        try:
            sol = _solve_on_grid(dim, expo, omega, quasilinear, opts, grid,
                                 signal_exhaustion=auto_box and not last)
        except _BoxExhausted as exc:
            shots += exc.args[0]
            grid = RadialGrid(dim, grid.radius * 2.0, (grid.nodes - 1) * 2 + 1)
            continue
        sol.n_shots += shots
        if not auto_box or sol.match_radius <= opts.box_margin * sol.grid.radius:
            return sol
        if last:
            raise SolveError(
                f"profile tail still crowds the box at R = {sol.grid.radius}; "
                "parameters need an even larger domain"
            )
        shots = sol.n_shots
        grid = RadialGrid(dim, grid.radius * 2.0, (grid.nodes - 1) * 2 + 1)
    raise SolveError("box expansion budget exhausted")


def _solve_on_grid(dim, expo, omega, quasilinear, opts: SolverOptions,
                   grid: RadialGrid, signal_exhaustion: bool = False) -> ProfileSolve:
    rest = omega ** (1.0 / (expo - 1.0))
    a = opts.amp_start if opts.amp_start is not None else 1.25 * rest
    n_shots = 0

    def tag_of(amp):
        nonlocal n_shots
        n_shots += 1
        outcome, u_shot, _ = shoot(amp, dim, expo, omega, grid, quasilinear, opts)
        if (signal_exhaustion and outcome.tag is ShotTag.UNDERSHOOT
                and outcome.turning_radius is None
                and u_shot[-1] >= opts.tail_frac * amp):
            raise _BoxExhausted(n_shots)
        return outcome.tag

    # Bracket: double upward from a known undershoot, or halve an overshoot.
    tag = tag_of(a)
    a_lo = a_hi = None
    for _ in range(opts.max_doublings):
        if tag is ShotTag.OVERSHOOT:
            a_hi = a
            break
        a_lo = a
        a *= 2.0
        tag = tag_of(a)
    if a_hi is None:
        raise SolveError(
            f"no overshoot found within {opts.max_doublings} amplitude doublings"
        )
    while a_lo is None:
        a /= 2.0
        if tag_of(a) is not ShotTag.OVERSHOOT:
            a_lo = a
        else:
            a_hi = a
        if a < 1e-300:
            raise SolveError("bracket search collapsed to zero amplitude")

    tol = opts.tol_amp * max(a_hi, 1.0)
    for _ in range(opts.max_bisect):
        if a_hi - a_lo <= tol:
            break
        mid = 0.5 * (a_lo + a_hi)
        if mid <= a_lo or mid >= a_hi:
            break  # float resolution exhausted
        if tag_of(mid) is ShotTag.OVERSHOOT:
            a_hi = mid
        else:
            a_lo = mid
    else:
        raise SolveError("bisection failed to reach amplitude tolerance")

    a_star = 0.5 * (a_lo + a_hi)
    thr = opts.tail_frac * a_star
    eps = opts.stag_eps * a_star * max(1.0, sqrt(omega))
    status, stop, u, v = raw_shot(
        a_star, dim, expo, omega, grid, quasilinear, thr, eps, opts.stag_run
    )
    if status == NONFINITE:
        raise IntegrationError("final trajectory lost finiteness")

    # Valid monotone prefix: u positive and not yet turned upward.
    bad = np.nonzero((u[: stop + 1] <= 0.0) | (v[: stop + 1] > 0.0))[0]
    j_valid = int(bad[0]) - 1 if bad.size else stop
    above = np.nonzero(u[: j_valid + 1] > thr)[0]
    if above.size == 0:
        raise SolveError("trajectory never rose above the tail threshold")
    j_match = int(above[-1])
    if j_match < j_valid and u[j_match + 1] <= 0.0:
        raise SolveError("trajectory crossed zero above the tail threshold")
    if np.any(v[: j_match + 1] > 0.0):
        raise SolveError(
            "trajectory turned upward above the tail threshold; "
            "enlarge the box or refine the mesh"
        )

    root = sqrt(omega)
    if j_match < grid.nodes - 1:
        tail_r = grid.r[j_match + 1 :]
        u = u.copy()
        v = v.copy()
        u[j_match + 1 :] = u[j_match] * np.exp(-root * (tail_r - grid.r[j_match]))
        v[j_match + 1 :] = -root * u[j_match + 1 :]
    ddu = curvature(dim, expo, omega, quasilinear, grid.r, u, v)
    rate = _fit_tail_rate(grid, u, j_match, a_star, opts)

    return ProfileSolve(
        grid=grid,
        u=u,
        du=v,
        ddu=ddu,
        amplitude=a_star,
        bracket=(a_lo, a_hi),
        match_index=j_match,
        match_radius=float(grid.r[j_match]),
        tail_rate=rate,
        n_shots=n_shots,
    )
