/* C kernels for gaussreal._kernels, with the semantics of gaussreal._pure
 * (see its docstring for the dart and handedness conventions).
 *
 * Inputs are small Python sequences of ints.  Each is range-checked and
 * copied once into a C array, so no index read from Python can reach past
 * an array; the rotation search then runs with the GIL released.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* The search takes a 64-bit handedness mask, one bit per chord. */
#define MAX_CHORDS 63

/* Copy the m ints of a PySequence_Fast into out, each checked against
 * [0, bound).  Returns 0, or -1 with an exception set. */
static int
copy_ints(PyObject *fast, Py_ssize_t m, long bound, const char *what, int *out)
{
    for (Py_ssize_t k = 0; k < m; k++) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, k));
        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v >= bound) {
            PyErr_Format(PyExc_ValueError, "%s %ld outside [0, %ld)", what, v,
                         bound);
            return -1;
        }
        out[k] = (int)v;
    }
    return 0;
}

/* Write into cand the first-visit relabelling of the reading of word that
 * starts at position start and runs forwards, or backwards if reverse.
 * Returns 1 if cand is lexicographically less than best, else 0; stops
 * early, leaving cand partly written, once it cannot be less. */
static int
reading_is_less(const int *word, Py_ssize_t m, Py_ssize_t start, int reverse,
                int *relabel, int *cand, const int *best)
{
    Py_ssize_t idx = start;
    int fresh = 0, less = 0;
    for (Py_ssize_t k = 0; k < m / 2; k++)
        relabel[k] = -1;
    for (Py_ssize_t k = 0; k < m; k++) {
        int sym = word[idx];
        if (relabel[sym] < 0)
            relabel[sym] = fresh++;
        cand[k] = relabel[sym];
        if (!less) {
            if (cand[k] > best[k])
                return 0;
            less = cand[k] < best[k];
        }
        if (reverse)
            idx = idx ? idx - 1 : m - 1;
        else
            idx = idx + 1 < m ? idx + 1 : 0;
    }
    return less;
}

PyDoc_STRVAR(canonical_key_doc,
"canonical_key(index_word)\n--\n\n"
"Least first-occurrence relabelling over rotations and reflections.");

static PyObject *
canonical_key(PyObject *self, PyObject *arg)
{
    PyObject *fast = PySequence_Fast(arg, "index_word must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(fast);
    PyObject *result = NULL;
    int *buf = NULL;
    if (m % 2) {
        PyErr_Format(PyExc_ValueError, "index word of odd length %zd", m);
        goto done;
    }
    /* word, best, cand, then relabel (m / 2); +1 keeps the size nonzero. */
    buf = PyMem_New(int, 3 * m + m / 2 + 1);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    int *word = buf, *best = buf + m, *cand = buf + 2 * m;
    int *relabel = buf + 3 * m;
    if (copy_ints(fast, m, (long)(m / 2), "symbol", word) < 0)
        goto done;
    for (Py_ssize_t k = 0; k < m; k++)
        best[k] = INT_MAX; /* above every reading, so the first one wins */
    for (Py_ssize_t start = 0; start < m; start++) {
        for (int reverse = 0; reverse < 2; reverse++) {
            if (reading_is_less(word, m, start, reverse, relabel, cand, best)) {
                int *swap = best;
                best = cand;
                cand = swap;
            }
        }
    }
    result = PyTuple_New(m);
    if (result == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < m; k++) {
        PyObject *item = PyLong_FromLong(best[k]);
        if (item == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(result, k, item);
    }
done:
    PyMem_Free(buf);
    Py_DECREF(fast);
    return result;
}

/* Rotation at every vertex for one handedness mask; darts holds
 * (in_f, out_f, in_s, out_s) per chord. */
static void
fill_sigma(const int *darts, int n, unsigned long long mask, int *sigma)
{
    for (int c = 0; c < n; c++) {
        int a = darts[4 * c], b = darts[4 * c + 1];
        int x = darts[4 * c + 2], y = darts[4 * c + 3];
        if ((mask >> c) & 1) {
            sigma[a] = y; sigma[y] = b; sigma[b] = x; sigma[x] = a;
        } else {
            sigma[a] = x; sigma[x] = b; sigma[b] = y; sigma[y] = a;
        }
    }
}

/* Faces are the orbits of d -> sigma[d ^ 1]. */
static int
face_count(const int *sigma, char *seen, int num_darts)
{
    int faces = 0;
    for (int d = 0; d < num_darts; d++)
        seen[d] = 0;
    for (int d0 = 0; d0 < num_darts; d0++) {
        if (seen[d0])
            continue;
        faces++;
        for (int d = d0; !seen[d]; d = sigma[d ^ 1])
            seen[d] = 1;
    }
    return faces;
}

PyDoc_STRVAR(find_planar_rotation_doc,
"find_planar_rotation(endpoints_flat, n, start=0, stop=None)\n--\n\n"
"Least handedness mask in [start, stop) with face count n + 2, else -1.");

static PyObject *
find_planar_rotation(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"endpoints_flat", "n", "start", "stop", NULL};
    PyObject *endpoints, *start_obj = NULL, *stop_obj = Py_None;
    Py_ssize_t n;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "On|OO:find_planar_rotation",
                                     kwlist, &endpoints, &n, &start_obj,
                                     &stop_obj))
        return NULL;
    if (n < 0 || n > MAX_CHORDS) {
        PyErr_Format(PyExc_ValueError, "n = %zd outside [0, %d]", n, MAX_CHORDS);
        return NULL;
    }
    unsigned long long lo = 0, hi = 1ULL << n;
    if (start_obj != NULL) {
        lo = PyLong_AsUnsignedLongLong(start_obj);
        if (lo == (unsigned long long)-1 && PyErr_Occurred())
            return NULL;
    }
    if (stop_obj != Py_None) {
        hi = PyLong_AsUnsignedLongLong(stop_obj);
        if (hi == (unsigned long long)-1 && PyErr_Occurred())
            return NULL;
    }

    int ends[2 * MAX_CHORDS], darts[4 * MAX_CHORDS];
    /* Zeroed like _pure's sigma, so darts no chord sets read as dart 0. */
    int sigma[4 * MAX_CHORDS] = {0};
    char seen[4 * MAX_CHORDS];
    PyObject *fast = PySequence_Fast(endpoints, "endpoints_flat must be a sequence");
    if (fast == NULL)
        return NULL;
    int m = 2 * (int)n, status = -1;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast);
    if (count != m)
        PyErr_Format(PyExc_ValueError, "%zd endpoints for %zd chords", count, n);
    else
        status = copy_ints(fast, m, m, "endpoint", ends);
    Py_DECREF(fast);
    if (status < 0)
        return NULL;
    for (int c = 0; c < n; c++) {
        int f = ends[2 * c], s = ends[2 * c + 1];
        darts[4 * c] = 2 * ((f + m - 1) % m) + 1;
        darts[4 * c + 1] = 2 * f;
        darts[4 * c + 2] = 2 * ((s + m - 1) % m) + 1;
        darts[4 * c + 3] = 2 * s;
    }

    int found = 0;
    unsigned long long mask;
    Py_BEGIN_ALLOW_THREADS
    for (mask = lo; mask < hi; mask++) {
        fill_sigma(darts, (int)n, mask, sigma);
        if (face_count(sigma, seen, 2 * m) == (int)n + 2) {
            found = 1;
            break;
        }
    }
    Py_END_ALLOW_THREADS
    return found ? PyLong_FromUnsignedLongLong(mask) : PyLong_FromLong(-1);
}

static PyMethodDef speedups_methods[] = {
    {"canonical_key", canonical_key, METH_O, canonical_key_doc},
    {"find_planar_rotation", (PyCFunction)(void (*)(void))find_planar_rotation,
     METH_VARARGS | METH_KEYWORDS, find_planar_rotation_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "gaussreal._speedups",
    .m_doc = "C kernels with the semantics of gaussreal._pure.",
    .m_size = 0,
    .m_methods = speedups_methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&speedups_module);
}
