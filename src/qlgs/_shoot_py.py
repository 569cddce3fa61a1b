"""Pure-Python fixed-step integrator for the radial profile equation.

Fallback used when the compiled extension is unavailable, and the reference
the compiled kernel is tested against.  Mirrors the arithmetic of _shoot_c
operation for operation, so both backends give bit-identical trajectories.
"""

from math import fabs, inf, isfinite, pow as _pow

REACHED_END = 0
CROSSED_ZERO = 1
TURNED_UP = 2
STAGNATED = 3
NONFINITE = 4

_HUGE = 1e150


def integrate(amplitude, dim, expo, omega, h, n_steps, quasilinear,
              tail_threshold, stag_eps, stag_run, u_out, v_out):
    """March u'' + (dim-1) u'/r = g(u, u') from u(0)=amplitude, u'(0)=0.

    g = (omega*u - |u|^(expo-1)*u - 2*u*u'^2) / (1 + 2*u^2) when quasilinear,
    g = omega*u - |u|^(expo-1)*u otherwise.  Classic RK4 with step h; at r=0
    the friction term is regularized to g/dim.  Fills u_out/v_out in place up
    to the returned stop index and reports the classifying event.
    """
    nm1 = dim - 1.0
    em1 = expo - 1.0

    def accel(r, u, v):
        au = fabs(u)
        pw = 0.0
        if au > 0.0:
            try:
                pw = _pow(au, em1) * u
            except OverflowError:
                # C's pow returns inf here; carry it on so the step ends
                # NONFINITE, as in the compiled kernel.
                pw = inf * u
        if quasilinear:
            g = (omega * u - pw - 2.0 * u * v * v) / (1.0 + 2.0 * u * u)
        else:
            g = omega * u - pw
        if r <= 0.0:
            return g / dim
        return g - nm1 * v / r

    u = float(amplitude)
    v = 0.0
    u_out[0] = u
    v_out[0] = v
    stag = 0
    half = 0.5 * h
    sixth = h / 6.0
    for j in range(n_steps):
        r = j * h
        k1u = v
        k1v = accel(r, u, v)
        u2 = u + half * k1u
        v2 = v + half * k1v
        k2u = v2
        k2v = accel(r + half, u2, v2)
        u3 = u + half * k2u
        v3 = v + half * k2v
        k3u = v3
        k3v = accel(r + half, u3, v3)
        u4 = u + h * k3u
        v4 = v + h * k3v
        k4u = v4
        k4v = accel(r + h, u4, v4)
        u = u + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        i = j + 1
        u_out[i] = u
        v_out[i] = v
        if not (isfinite(u) and isfinite(v)) or fabs(u) > _HUGE or fabs(v) > _HUGE:
            return NONFINITE, i
        if u < 0.0:
            return CROSSED_ZERO, i
        if v > 0.0:
            return TURNED_UP, i
        if v >= -stag_eps and u > tail_threshold:
            stag += 1
            if stag >= stag_run:
                return STAGNATED, i
        else:
            stag = 0
    return REACHED_END, n_steps
