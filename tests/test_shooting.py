import os

import numpy as np
import pytest

from qlgs import IntegrationError, Params, ShotTag, _shoot_py, make_grid, shoot_ivp
from qlgs import shooting
from qlgs.shooting import BACKEND

try:
    from qlgs import _shoot_c
except ImportError:
    _shoot_c = None

import oracles

P121 = Params(1, 2.0, 1.0)


def test_backend_reported():
    if os.environ.get("QLGS_FORCE_PYTHON") or _shoot_c is None:
        assert BACKEND == "python"
    else:
        assert BACKEND == "c"


def _require_c():
    if _shoot_c is None:
        pytest.skip("compiled kernel not built")
    return _shoot_c


# (amplitude, dim, expo, omega, h, n_steps, quasilinear, tail_threshold,
#  stag_eps, stag_run) reaching each status the kernel can report
REACHED_END_ARGS = (2.2, 2, 2.0, 1.0, 0.01, 200, True, 2.2e-5, 1e-12, 100)
KERNEL_CASES = [
    pytest.param(_shoot_py.REACHED_END, REACHED_END_ARGS, id="reached_end"),
    pytest.param(_shoot_py.CROSSED_ZERO, (10.0, 1, 2.0, 1.0, 0.01, 1500, True, 1e-4, 1e-12, 100),
                 id="crossed_zero"),
    pytest.param(_shoot_py.CROSSED_ZERO, (3.0, 2, 3.0, 1.0, 0.01, 1500, False, 3e-5, 1e-12, 100),
                 id="crossed_zero_semilinear"),
    pytest.param(_shoot_py.TURNED_UP, (0.5, 1, 2.0, 1.0, 0.01, 1500, True, 5e-6, 1e-12, 100),
                 id="turned_up"),
    pytest.param(_shoot_py.TURNED_UP, (1.5, 3, 2.5, 0.5, 0.01, 1500, False, 1.5e-5, 1e-12, 100),
                 id="turned_up_semilinear"),
    pytest.param(_shoot_py.STAGNATED, (1.0, 1, 2.0, 1.0, 0.01, 1500, True, 1e-5, 1e-12, 100),
                 id="stagnated"),
    pytest.param(_shoot_py.NONFINITE, (1e160, 1, 3.0, 1.0, 0.01, 1500, True, 1e155, 1e148, 100),
                 id="nonfinite_pow_overflow"),
    pytest.param(_shoot_py.NONFINITE, (1e100, 1, 3.0, 1.0, 0.01, 1500, False, 1e95, 1e88, 100),
                 id="nonfinite_semilinear"),
]


@pytest.mark.parametrize("expected,args", KERNEL_CASES)
def test_backends_agree_exactly(expected, args):
    c = _require_c()
    n = args[5]
    u_c, v_c, u_p, v_p = (np.empty(n + 1) for _ in range(4))
    status, stop = c.integrate(*args, u_c, v_c)
    assert (status, stop) == _shoot_py.integrate(*args, u_p, v_p)
    assert status == expected
    assert np.array_equal(u_c[: stop + 1], u_p[: stop + 1], equal_nan=True)
    assert np.array_equal(v_c[: stop + 1], v_p[: stop + 1], equal_nan=True)


def test_backends_export_same_status_constants():
    c = _require_c()
    for name in ("REACHED_END", "CROSSED_ZERO", "TURNED_UP", "STAGNATED", "NONFINITE"):
        assert getattr(c, name) == getattr(_shoot_py, name)


@pytest.mark.parametrize("bad", [
    np.empty(201, dtype=np.float32),
    np.empty(201, dtype=np.int64),
    np.empty(402)[::2],
    np.empty((201, 1)),
    np.empty(200),
    np.frombuffer(bytes(8 * 201)),
], ids=["float32", "int64", "strided", "2-d", "short", "read-only"])
def test_compiled_kernel_rejects_bad_buffers(bad):
    c = _require_c()
    with pytest.raises(ValueError):
        c.integrate(*REACHED_END_ARGS, bad, np.empty(201))
    with pytest.raises(ValueError):
        c.integrate(*REACHED_END_ARGS, np.empty(201), bad)


def test_compiled_kernel_rejects_negative_step_count():
    c = _require_c()
    args = REACHED_END_ARGS[:5] + (-1,) + REACHED_END_ARGS[6:]
    with pytest.raises(ValueError):
        c.integrate(*args, np.empty(0), np.empty(0))


class TestClassification:
    def test_below_rest_turns_immediately(self):
        # u''(0) > 0 below the rest amplitude, so u' > 0 at once
        grid = make_grid(1, 15.0, 1501)
        outcome, _ = shoot_ivp(0.5, P121, grid)
        assert outcome.tag is ShotTag.UNDERSHOOT
        assert outcome.turning_radius is not None
        assert outcome.turning_radius < 0.5

    def test_rest_amplitude_stagnates(self):
        grid = make_grid(1, 15.0, 1501)
        outcome, (u, du) = shoot_ivp(P121.rest_amplitude, P121, grid)
        assert outcome.tag is ShotTag.UNDERSHOOT
        assert np.allclose(u.values[: outcome.stop_index + 1], 1.0, atol=1e-13)

    def test_large_amplitude_overshoots(self):
        # independent check first: the adaptive integrator sees a zero crossing
        assert oracles.classify_ivp(10.0, 1, 2.0, 1.0, 15.0) == "overshoot"
        grid = make_grid(1, 15.0, 3001)
        outcome, (u, du) = shoot_ivp(10.0, P121, grid)
        assert outcome.tag is ShotTag.OVERSHOOT
        assert u.values[outcome.stop_index] < 0.0

    def test_outcomes_match_adaptive_oracle(self):
        grid = make_grid(2, 15.0, 3001)
        params = Params(2, 2.0, 1.0)
        for amp in (1.3, 1.8, 2.5, 4.0):
            expected = oracles.classify_ivp(amp, 2, 2.0, 1.0, 15.0)
            got, _ = shoot_ivp(amp, params, grid)
            if expected != "neither":
                assert got.tag.value == expected, f"amplitude {amp}"

    def test_converged_tag_near_critical(self):
        grid = make_grid(1, 15.0, 3001)
        outcome, (u, du) = shoot_ivp(1.5, P121, grid)
        assert outcome.tag is ShotTag.CONVERGED
        assert u.values[-1] < 1.5e-5
        assert du.values[-1] < 0.0


class TestFailures:
    def test_nonpositive_amplitude(self):
        grid = make_grid(1, 15.0, 1501)
        with pytest.raises(ValueError):
            shoot_ivp(0.0, P121, grid)
        with pytest.raises(ValueError):
            shoot_ivp(-1.0, P121, grid)

    def test_overflow_is_distinct_failure(self):
        grid = make_grid(1, 15.0, 1501)
        with pytest.raises(IntegrationError):
            shoot_ivp(1e160, P121, grid)

    @pytest.mark.parametrize("backend", ["c", "python"])
    @pytest.mark.parametrize("amplitude,params", [
        (1e160, Params(1, 3.0, 1.0)),
        (1e120, Params(1, 4.0, 1.0)),
    ], ids=["p3", "p4"])
    def test_pow_overflow_is_integration_error(self, monkeypatch, backend,
                                               amplitude, params):
        # |u|^(p-1) overflows before u does; the Python twin used to leak
        # math.pow's OverflowError here
        impl = _require_c() if backend == "c" else _shoot_py
        monkeypatch.setattr(shooting, "_impl", impl)
        with pytest.raises(IntegrationError):
            shoot_ivp(amplitude, params, make_grid(1, 15.0, 1501))


def test_trajectory_held_past_stop():
    grid = make_grid(1, 15.0, 1501)
    outcome, (u, du) = shoot_ivp(10.0, P121, grid)
    stop = outcome.stop_index
    assert stop < grid.nodes - 1
    assert np.all(u.values[stop:] == u.values[stop])
