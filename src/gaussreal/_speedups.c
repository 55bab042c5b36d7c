/* C kernels for gaussreal._kernels, with the semantics of gaussreal._pure
 * (see its docstring for the dart and handedness conventions).
 *
 * find_planar_rotation is the depth-first, genus-pruned search for the
 * least spherical handedness mask (the argument is in gaussreal.oracle),
 * the same search as the pure one, node for node.  Chords join in
 * maximum-cardinality order, so the joined sub-map stays connected and
 * the first edge that joins a chord to another attaches it without a
 * face test.  The first chord of each crossing-graph component to join
 * tries bit 0 only, and the first spherical leaf is normalised to the
 * least mask by flipping each component whose top chord has bit 1.
 * By the leaf rule, a chord without a loop is a leaf of the sub-map below
 * its first face test, so that test does not depend on its bit: bit 1
 * skips it after bit 0 passed it and is not tried after bit 0 failed it.
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
    int order[MAX_CHORDS], weight[MAX_CHORDS];
    /* By join depth k: the chord's darts reversed at 4k .. 4k + 3, the
     * successors they take under bit 0 and under bit 1, and its face
     * tests, as edge dart and rank, from from[k] to to[k] - 1.  leaf[k]
     * is 1 when the chord has no loop and a test: its first test is then
     * the same under both bits (see gaussreal._pure). */
    int slot[4 * MAX_CHORDS], succ[2][4 * MAX_CHORDS];
    int test_dart[2 * MAX_CHORDS], test_rank[2 * MAX_CHORDS];
    int from[MAX_CHORDS], to[MAX_CHORDS], leaf[MAX_CHORDS];
    /* prefix[p] is the XOR of 1 << chord over the positions before p, so
     * crossing[c] holds c and the chords that cross it.  The crossing-graph
     * components are chord masks; the depths in fixed try bit 0 only. */
    unsigned long long prefix[2 * MAX_CHORDS + 1], crossing[MAX_CHORDS];
    unsigned long long component[MAX_CHORDS], fixed = 0, seen = 0;
    int components = 0;

    for (int k = 0; k < m; k++)
        chord_at[ends[k]] = k / 2;
    prefix[0] = 0;
    for (int i = 0; i < m; i++)
        prefix[i + 1] = prefix[i] ^ (1ULL << chord_at[i]);
    for (int c = 0; c < n; c++) {
        crossing[c] = prefix[ends[2 * c]] ^ prefix[ends[2 * c + 1]];
        weight[c] = 0;
    }
    /* Chords join by maximum-cardinality search from chord 0; a joined
     * chord's weight is -5, and stays negative. */
    int r = 0, tests = 0, c = 0;
    for (int k = 0; k < n; k++) {
        order[k] = c;
        weight[c] = -5;
        int f = ends[2 * c], s = ends[2 * c + 1];
        int fp = f ? f - 1 : m - 1, sp = s ? s - 1 : m - 1;
        int in_f = 2 * fp + 1, out_f = 2 * f, in_s = 2 * sp + 1, out_s = 2 * s;
        int *p = slot + 4 * k, *s0 = succ[0] + 4 * k, *s1 = succ[1] + 4 * k;
        p[0] = in_f ^ 1; p[1] = in_s ^ 1; p[2] = out_f ^ 1; p[3] = out_s ^ 1;
        s0[0] = in_s; s0[1] = out_f; s0[2] = out_s; s0[3] = in_f;
        s1[0] = out_s; s1[1] = in_f; s1[2] = in_s; s1[3] = out_f;
        /* The edges between c and joined chords: the first to another
         * chord attaches c, each later one gets a face test, and a loop
         * gets none (see gaussreal._pure). */
        int edge[4] = {fp, f, sp, s};
        int other[4] = {chord_at[fp], chord_at[(f + 1) % m], chord_at[sp],
                        chord_at[(s + 1) % m]};
        int attached = 0, loop = 0;
        from[k] = tests;
        for (int j = 0; j < 4; j++) {
            int i = edge[j], v = other[j];
            loop |= v == c;
            if (weight[v] >= 0)
                continue;
            rank[2 * i] = rank[2 * i + 1] = r;
            if (v != c) {
                if (attached) {
                    test_dart[tests] = 2 * i;
                    test_rank[tests++] = r;
                }
                attached = 1;
            }
            r++;
        }
        to[k] = tests;
        leaf[k] = !loop && tests > from[k];
        for (int j = 0; j < 4; j++)
            weight[other[j]]++;
        if (!((seen >> c) & 1)) {
            unsigned long long comp = 1ULL << c, todo = comp;
            while (todo) {
                unsigned long long found = crossing[__builtin_ctzll(todo)] & ~comp;
                todo &= todo - 1;
                comp |= found;
                todo |= found;
            }
            fixed |= 1ULL << k;
            seen |= comp;
            component[components++] = comp;
        }
        c = 0;
        for (int v = 1; v < n; v++)
            if (weight[v] > weight[c])
                c = v;
    }
    for (int d = 0; d < 4 * n; d++)
        nxt[d] = 0;

    int k = 0, bit = 0;
    unsigned long long mask = 0;
    for (;;) {
        const int *p = slot + 4 * k, *v = succ[bit] + 4 * k;
        nxt[p[0]] = v[0]; nxt[p[1]] = v[1]; nxt[p[2]] = v[2]; nxt[p[3]] = v[3];
        /* Bit 1 skips a leaf's first test, which bit 0 passed. */
        int j = from[k] + (bit & leaf[k]);
        while (j < to[k] && same_face(nxt, rank, test_dart[j], test_rank[j]))
            j++;
        if (j == to[k]) {
            mask |= (unsigned long long)bit << order[k];
            if (k < n - 1) {
                k++;
                bit = 0;
                continue;
            }
            /* A spherical leaf: flip each component whose top chord has
             * bit 1. */
            for (int j = 0; j < components; j++)
                if ((mask >> (63 - __builtin_clzll(component[j]))) & 1)
                    mask ^= component[j];
            return (long long)mask;
        }
        /* Bit 1 is next unless it was tried, the depth is fixed or bit 0
         * failed the leaf test, which bit 1 would fail too. */
        if (leaf[k] && j == from[k])
            bit = 1;
        while (bit || ((fixed >> k) & 1)) {
            if (--k < 0)
                return -1;
            bit = (int)((mask >> order[k]) & 1);
            mask &= ~(1ULL << order[k]);
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
