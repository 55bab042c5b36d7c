/* C kernels for gaussreal._kernels, with the semantics of gaussreal._pure
 * (see its docstring for the dart and handedness conventions).
 *
 * find_planar_rotation is the depth-first, genus-pruned search for the
 * least spherical handedness mask (the argument is in gaussreal.oracle),
 * the same search as the pure one, node for node: the top chord and
 * every isolated chord try bit 0 only.
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

/* Do the corners that edge t splits lie on one face of the sub-map of the
 * darts ranked below r?  a and b follow t and t ^ 1 around their vertices
 * in that sub-map. */
static int
same_face(const int *nxt, const int *rank, int t, int r)
{
    int a = nxt[t ^ 1], b = nxt[t];
    while (rank[a] >= r)
        a = nxt[a ^ 1];
    while (rank[b] >= r)
        b = nxt[b ^ 1];
    for (int d = a; d != b;) {
        d = nxt[d];
        while (rank[d] >= r)
            d = nxt[d ^ 1];
        if (d == a)
            return 0;
    }
    return 1;
}

/* Least mask whose map is spherical, or -1; the depth-first search of
 * gaussreal._pure, step for step.  ends holds a permutation of [0, 2n),
 * chord c at 2c and 2c+1, and 1 <= n. */
static long long
planar_search(const int *ends, int n)
{
    int m = 2 * n;
    int chord_at[2 * MAX_CHORDS], rank[4 * MAX_CHORDS], nxt[4 * MAX_CHORDS];
    int slot[4 * MAX_CHORDS], succ[2][4 * MAX_CHORDS];
    int parent[MAX_CHORDS], degree[MAX_CHORDS];
    /* Face tests in join order, as edge dart and rank; chord c owns the
     * entries from[c] .. to[c] - 1. */
    int test_dart[2 * MAX_CHORDS], test_rank[2 * MAX_CHORDS];
    int from[MAX_CHORDS], to[MAX_CHORDS];

    /* prefix[p] is the XOR of 1 << chord over the positions before p.
     * The chords in fixed try bit 0 only: the top chord, whose bit is the
     * mirror choice, and each chord that crosses no other, whose bit never
     * changes the face count (see gaussreal._pure). */
    unsigned long long prefix[2 * MAX_CHORDS + 1], fixed = 1ULL << (n - 1);

    for (int k = 0; k < m; k++)
        chord_at[ends[k]] = k / 2;
    prefix[0] = 0;
    for (int i = 0; i < m; i++)
        prefix[i + 1] = prefix[i] ^ (1ULL << chord_at[i]);
    for (int c = 0; c < n; c++) {
        int f = ends[2 * c], s = ends[2 * c + 1];
        if ((prefix[f] ^ prefix[s]) == 1ULL << c)
            fixed |= 1ULL << c;
        int in_f = 2 * ((f + m - 1) % m) + 1, out_f = 2 * f;
        int in_s = 2 * ((s + m - 1) % m) + 1, out_s = 2 * s;
        int *p = slot + 4 * c, *s0 = succ[0] + 4 * c, *s1 = succ[1] + 4 * c;
        p[0] = in_f ^ 1; p[1] = in_s ^ 1; p[2] = out_f ^ 1; p[3] = out_s ^ 1;
        s0[0] = in_s; s0[1] = out_f; s0[2] = out_s; s0[3] = in_f;
        s1[0] = out_s; s1[1] = in_f; s1[2] = in_s; s1[3] = out_f;
        parent[c] = c;
        degree[c] = 0;
    }
    for (int d = 0; d < 4 * n; d++)
        nxt[d] = 0;
    /* Edge i joins with the lower of its chords; ties go in edge order. */
    int r = 0, tests = 0;
    for (int c = n - 1; c >= 0; c--) {
        from[c] = tests;
        for (int i = 0; i < m; i++) {
            int u = chord_at[i], v = chord_at[(i + 1) % m];
            if ((u < v ? u : v) != c)
                continue;
            rank[2 * i] = rank[2 * i + 1] = r;
            int ru = u, rv = v;
            while (parent[ru] != ru)
                ru = parent[ru] = parent[parent[ru]];
            while (parent[rv] != rv)
                rv = parent[rv] = parent[parent[rv]];
            if (ru != rv) {
                parent[ru] = rv;
            } else if (u != v || degree[u]) {
                test_dart[tests] = 2 * i;
                test_rank[tests++] = r;
            }
            degree[u]++;
            degree[v]++;
            r++;
        }
        to[c] = tests;
    }

    int c = n - 1, bit = 0;
    unsigned long long high = 0;
    for (;;) {
        const int *p = slot + 4 * c, *v = succ[bit] + 4 * c;
        nxt[p[0]] = v[0]; nxt[p[1]] = v[1]; nxt[p[2]] = v[2]; nxt[p[3]] = v[3];
        int ok = 1;
        for (int k = from[c]; ok && k < to[c]; k++)
            ok = same_face(nxt, rank, test_dart[k], test_rank[k]);
        if (ok) {
            high |= (unsigned long long)bit << c;
            if (c == 0)
                return (long long)high;
            c--;
            bit = 0;
            continue;
        }
        /* Bit 1 is next unless it was tried or c is fixed. */
        while (bit || ((fixed >> c) & 1)) {
            if (++c == n)
                return -1;
            bit = (int)((high >> c) & 1);
            high &= ~(1ULL << c);
        }
        bit = 1;
    }
}

PyDoc_STRVAR(find_planar_rotation_doc,
"find_planar_rotation(endpoints_flat, n)\n--\n\n"
"Least handedness mask with face count n + 2, else -1.");

static PyObject *
find_planar_rotation(PyObject *self, PyObject *args)
{
    PyObject *endpoints;
    Py_ssize_t n;
    if (!PyArg_ParseTuple(args, "On:find_planar_rotation", &endpoints, &n))
        return NULL;
    if (n < 0 || n > MAX_CHORDS) {
        PyErr_Format(PyExc_ValueError, "n = %zd outside [0, %d]", n, MAX_CHORDS);
        return NULL;
    }

    int ends[2 * MAX_CHORDS];
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
    char used[2 * MAX_CHORDS] = {0};
    for (int k = 0; k < m; k++) {
        if (used[ends[k]]++) {
            PyErr_SetString(PyExc_ValueError, "endpoints repeat a circle position");
            return NULL;
        }
    }

    if (n == 0)
        return PyLong_FromLong(-1);

    long long mask;
    Py_BEGIN_ALLOW_THREADS
    mask = planar_search(ends, (int)n);
    Py_END_ALLOW_THREADS
    return PyLong_FromLongLong(mask);
}

static PyMethodDef speedups_methods[] = {
    {"find_planar_rotation", find_planar_rotation, METH_VARARGS,
     find_planar_rotation_doc},
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
