/* Compiled fixed-step integrator for the radial profile equation.
 *
 * Hot kernel: the amplitude bisection drives tens of RK4 marches per solve and
 * refinement studies multiply the step counts, so this loop dominates runtime.
 * Semantics and arithmetic match _shoot_py.integrate operation for operation;
 * built with -ffp-contract=off so no multiply-add is fused and both backends
 * give bit-identical trajectories.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { REACHED_END, CROSSED_ZERO, TURNED_UP, STAGNATED, NONFINITE };

#define HUGE_STATE 1e150

static double
accel(double r, double u, double v, double dim, double nm1, double em1,
      double omega, int quasilinear)
{
    double au = fabs(u);
    double pw = 0.0;
    double g;
    if (au > 0.0)
        pw = pow(au, em1) * u;
    if (quasilinear)
        g = (omega * u - pw - 2.0 * u * v * v) / (1.0 + 2.0 * u * u);
    else
        g = omega * u - pw;
    if (r <= 0.0)
        return g / dim;
    return g - nm1 * v / r;
}

/* Export a writable, C-contiguous, 1-D float64 buffer of at least `need`
 * elements; on failure set an exception and hold no buffer. */
static int
get_out(PyObject *obj, Py_buffer *view, Py_ssize_t need, const char *name)
{
    if (PyObject_GetBuffer(obj, view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    const char *f = view->format;
    if (view->ndim != 1 || view->itemsize != sizeof(double) || f == NULL
        || (strcmp(f, "d") != 0 && strcmp(f, "@d") != 0)) {
        PyErr_Format(PyExc_ValueError,
                     "%s must be a 1-D float64 buffer (format 'd'), got "
                     "ndim %d, format '%s'", name, view->ndim, f ? f : "B");
        PyBuffer_Release(view);
        return -1;
    }
    if (view->shape[0] < need) {
        PyErr_Format(PyExc_ValueError, "%s has %zd elements, need %zd",
                     name, view->shape[0], need);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
integrate(PyObject *self, PyObject *args)
{
    double amplitude, expo, omega, h, tail_threshold, stag_eps;
    int dim, n_steps, quasilinear, stag_run;
    PyObject *u_obj, *v_obj;
    Py_buffer ub, vb;

    if (!PyArg_ParseTuple(args, "didddipddiOO:integrate", &amplitude, &dim,
                          &expo, &omega, &h, &n_steps, &quasilinear,
                          &tail_threshold, &stag_eps, &stag_run, &u_obj, &v_obj))
        return NULL;
    if (n_steps < 0)
        return PyErr_Format(PyExc_ValueError, "n_steps must be >= 0, got %d",
                            n_steps);
    if (get_out(u_obj, &ub, (Py_ssize_t)n_steps + 1, "u_out") < 0)
        return NULL;
    if (get_out(v_obj, &vb, (Py_ssize_t)n_steps + 1, "v_out") < 0) {
        PyBuffer_Release(&ub);
        return NULL;
    }

    double *u_out = ub.buf, *v_out = vb.buf;
    double nm1 = dim - 1.0, em1 = expo - 1.0, ddim = dim;
    double half = 0.5 * h, sixth = h / 6.0;
    double u = amplitude, v = 0.0;
    int status = REACHED_END, stop = n_steps, stag = 0;

    u_out[0] = u;
    v_out[0] = v;
    Py_BEGIN_ALLOW_THREADS
    for (int j = 0; j < n_steps; j++) {
        double r = j * h;
        double k1u = v;
        double k1v = accel(r, u, v, ddim, nm1, em1, omega, quasilinear);
        double u2 = u + half * k1u, v2 = v + half * k1v;
        double k2u = v2;
        double k2v = accel(r + half, u2, v2, ddim, nm1, em1, omega, quasilinear);
        double u3 = u + half * k2u, v3 = v + half * k2v;
        double k3u = v3;
        double k3v = accel(r + half, u3, v3, ddim, nm1, em1, omega, quasilinear);
        double u4 = u + h * k3u, v4 = v + h * k3v;
        double k4u = v4;
        double k4v = accel(r + h, u4, v4, ddim, nm1, em1, omega, quasilinear);
        u = u + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u);
        v = v + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
        int i = j + 1;
        u_out[i] = u;
        v_out[i] = v;
        if (!(isfinite(u) && isfinite(v)) || fabs(u) > HUGE_STATE
            || fabs(v) > HUGE_STATE) {
            status = NONFINITE;
            stop = i;
            break;
        }
        if (u < 0.0) {
            status = CROSSED_ZERO;
            stop = i;
            break;
        }
        if (v > 0.0) {
            status = TURNED_UP;
            stop = i;
            break;
        }
        if (v >= -stag_eps && u > tail_threshold) {
            if (++stag >= stag_run) {
                status = STAGNATED;
                stop = i;
                break;
            }
        }
        else {
            stag = 0;
        }
    }
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&ub);
    PyBuffer_Release(&vb);
    return Py_BuildValue("(ii)", status, stop);
}

static PyMethodDef methods[] = {
    {"integrate", integrate, METH_VARARGS,
     "integrate(amplitude, dim, expo, omega, h, n_steps, quasilinear,\n"
     "          tail_threshold, stag_eps, stag_run, u_out, v_out)\n"
     "--\n\n"
     "See _shoot_py.integrate; returns (status, stop_index)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_shoot_c",
    "Compiled RK4 shooting kernel; same contract as qlgs._shoot_py.", -1,
    methods,
};

PyMODINIT_FUNC
PyInit__shoot_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "REACHED_END", REACHED_END) < 0
        || PyModule_AddIntConstant(m, "CROSSED_ZERO", CROSSED_ZERO) < 0
        || PyModule_AddIntConstant(m, "TURNED_UP", TURNED_UP) < 0
        || PyModule_AddIntConstant(m, "STAGNATED", STAGNATED) < 0
        || PyModule_AddIntConstant(m, "NONFINITE", NONFINITE) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
