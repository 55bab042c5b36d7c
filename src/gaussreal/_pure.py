"""Pure-Python kernels: canonical-form minimisation and rotation search.

``find_planar_rotation`` is the oracle's inner loop, where an exhaustive
sweep spends most of its time.  gaussreal._speedups holds a C translation
of it with identical semantics; gaussreal._kernels picks one at import
time.  Keep the two in lock step: tests/test_kernels.py compares them
whenever gaussreal._speedups imports.  ``canonical_key`` runs once per
``core.canonicalize`` call and has no C translation; the enumerator builds
keys directly (see gaussreal.enumeration).

Input contract: ``canonical_key`` takes an index word of even length m
whose symbols lie in [0, m/2); ``find_planar_rotation`` takes 0 <= n <= 63,
2n distinct endpoints in [0, 2n), chord c at 2c and 2c+1, and a mask
range with 0 <= start and stop <= 2**n (start >= stop gives -1).  Both
backends of ``find_planar_rotation`` check its contract and raise
ValueError; the C must, because it copies the input into fixed-size
arrays and its search relies on the endpoints forming a map.
``canonical_key`` trusts its input: every caller passes the index word
of a ChordDiagram.

Dart/rotation conventions (shared with gaussreal.oracle):

- For a diagram with n chords, circle position i (0..2n-1) is one passage of
  the curve through crossing ``position_chord[i]``; edge i is the curve segment
  from position i to position (i+1) mod 2n.
- Each edge i has two darts: dart 2i sits at the start of the edge (based at
  the vertex visited at position i) and dart 2i+1 at its end (based at the
  vertex visited at position i+1).  Dart reversal is ``d ^ 1``.
- A crossing visited at positions f and s has four darts:
      in_f  = 2*((f-1) mod 2n) + 1      out_f = 2*f
      in_s  = 2*((s-1) mod 2n) + 1      out_s = 2*s
  The two transversal counterclockwise orders around the vertex are
      bit 0:  in_f, in_s,  out_f, out_s
      bit 1:  in_f, out_s, out_f, in_s
  (the strand through f must separate the strand through s, which leaves
  exactly these two cyclic orders; the bit is the handedness choice).
- Faces of the embedding selected by a handedness mask are the orbits of
  ``d -> sigma[d ^ 1]``; the embedding is spherical iff the face count is
  n + 2 (Euler characteristic n - 2n + F = 2).
- The search keeps the face permutation as one successor table,
  ``nxt[d] = sigma[d ^ 1]``, so ``sigma[x]`` is ``nxt[x ^ 1]``.  Chord c
  owns the four entries at its darts reversed, ``in_f ^ 1``, ``in_s ^ 1``,
  ``out_f ^ 1`` and ``out_s ^ 1``.
- It is depth first.  Chords join in the order n - 1, ..., 0, and each
  tries bit 0 before bit 1, so leaves come in mask order.  A node rewrites
  only the four entries of its chord.  A subtree whose masks miss
  [start, stop) is skipped.
- Edge i joins with the lower of its two chords; edges that join with the
  same chord go in edge order.  This order ranks the edges, and a dart
  takes its edge's rank.  A union-find over the chords, run once per call
  in rank order, finds the edges whose two chords already share a
  component.  Only those can raise the genus (see gaussreal.oracle), so
  only they get a face test.  A loop at a chord with no lower-ranked edge
  gets none: it lies in the one corner of an isolated vertex.
- A loop chord is one whose endpoints are adjacent on the circle, so one
  of its edges is a loop.  The two darts of that edge sit side by side
  under both orders, so the loop bounds a monogon either way and the
  chord's bit never changes the face count.  So a loop chord takes bit 1
  only when start cut its bit-0 subtree short; otherwise that subtree
  held no spherical leaf, and neither does the one under bit 1.  This
  keeps [start, stop) exact.
- The face test of an edge of rank r works in the sub-map of the darts
  ranked below r.  Its corner at dart t lies on the face of the first
  such dart after t around the vertex: follow ``nxt[x ^ 1]`` past darts
  ranked r or more.  A face step is ``nxt[d]``, past such darts in the
  same way.  The test walks the face through the corner at one dart of
  the edge.  If that face misses the corner at the other dart, the edge
  joins two faces, and the node is pruned.
"""

from __future__ import annotations

# The C search takes a 64-bit handedness mask, one bit per chord; the pure
# one keeps the same bound so that both refuse the same input.
MAX_CHORDS = 63


def canonical_key(index_word) -> tuple:
    """Least first-occurrence relabelling over all rotations and reflections.

    ``index_word`` is the word written as chord indices.  Every rotation of
    the word or of its reversal is an m-length window of the doubled word.
    """
    word = tuple(index_word)
    m = len(word)
    best = None
    for doubled in (word * 2, word[::-1] * 2):
        for start in range(m):
            first = {}
            key = [first.setdefault(c, len(first)) for c in doubled[start : start + m]]
            if best is None or key < best:
                best = key
    return tuple(best or ())


def _vertex_darts(endpoints_flat, n):
    """Per chord: (in_f, out_f, in_s, out_s) under the module conventions."""
    m = 2 * n
    darts = []
    for c in range(n):
        f = endpoints_flat[2 * c]
        s = endpoints_flat[2 * c + 1]
        darts.append(
            (
                2 * ((f - 1) % m) + 1,
                2 * f,
                2 * ((s - 1) % m) + 1,
                2 * s,
            )
        )
    return darts


def _check_contract(endpoints_flat, n, start, stop) -> int:
    """Raise ValueError on input outside the contract; return ``stop``."""
    if not 0 <= n <= MAX_CHORDS:
        raise ValueError("n = %d outside [0, %d]" % (n, MAX_CHORDS))
    if len(endpoints_flat) != 2 * n:
        raise ValueError("%d endpoints for %d chords" % (len(endpoints_flat), n))
    for v in endpoints_flat:
        if not 0 <= v < 2 * n:
            raise ValueError("endpoint %d outside [0, %d)" % (v, 2 * n))
    if len(set(endpoints_flat)) != 2 * n:
        raise ValueError("endpoints repeat a circle position")
    if stop is None:
        stop = 1 << n
    if start < 0 or stop > 1 << n:
        raise ValueError("mask range [%d, %d) outside [0, 2**%d]" % (start, stop, n))
    return stop


def find_planar_rotation(endpoints_flat, n, start=0, stop=None) -> int:
    """Least handedness mask in [start, stop) with a spherical embedding.

    Returns -1 when no mask in the range yields face count n + 2.  Raises
    ValueError unless 0 <= start and stop <= 2**n; the search is the one in
    the conventions above.
    """
    stop = _check_contract(endpoints_flat, n, start, stop)
    if start >= stop or n == 0:
        return -1
    m = 2 * n
    chord_at = [0] * m
    for k, p in enumerate(endpoints_flat):
        chord_at[p] = k >> 1
    ends = [(chord_at[i], chord_at[(i + 1) % m]) for i in range(m)]
    # Edge i joins with the lower of its chords; ties go in edge order.
    order = sorted(range(m), key=lambda i: min(ends[i]), reverse=True)
    rank = [0] * (4 * n)
    parent = list(range(n))
    degree = [0] * n
    tests = [[] for _ in range(n)]

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for r, i in enumerate(order):
        rank[2 * i] = rank[2 * i + 1] = r
        u, v = ends[i]
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
        elif u != v or degree[u]:
            tests[min(u, v)].append((2 * i, r))
        degree[u] += 1
        degree[v] += 1
    # A loop chord's bit never changes the face count (see the conventions).
    loops = 0
    for c in range(n):
        if (endpoints_flat[2 * c + 1] - endpoints_flat[2 * c]) % m in (1, m - 1):
            loops |= 1 << c
    # Per chord: its four darts reversed, and the successors they take
    # under bit 0 and under bit 1 (see the conventions above).
    entries = []
    for in_f, out_f, in_s, out_s in _vertex_darts(endpoints_flat, n):
        entries.append(
            (
                (in_f ^ 1, in_s ^ 1, out_f ^ 1, out_s ^ 1),
                ((in_s, out_f, out_s, in_f), (out_s, in_f, in_s, out_f)),
            )
        )
    nxt = [0] * (4 * n)

    def spherical_after(c, bit):
        """Join chord c with this bit; False if a joining edge adds genus."""
        (p, q, u, v), succ = entries[c]
        nxt[p], nxt[q], nxt[u], nxt[v] = succ[bit]
        for t, r in tests[c]:
            # a and b follow t and t ^ 1 around their vertices in the
            # sub-map of the darts ranked below r; their faces pass
            # through the two corners that the edge splits.
            a = nxt[t ^ 1]
            while rank[a] >= r:
                a = nxt[a ^ 1]
            b = nxt[t]
            while rank[b] >= r:
                b = nxt[b ^ 1]
            d = a
            while d != b:
                d = nxt[d]
                while rank[d] >= r:
                    d = nxt[d ^ 1]
                if d == a:
                    return False
        return True

    # Depth first: chord c is next to join, with bits `high` above it.
    c, bit, high = n - 1, 0, 0
    while True:
        base = high | bit << c
        if base >= stop:
            return -1
        if base + (1 << c) > start and spherical_after(c, bit):
            if c == 0:
                return base
            c, bit, high = c - 1, 0, base
            continue
        # Bit 1 is next unless it was tried, or c is a loop chord whose bit-0
        # subtree lay wholly at or above start and so held no leaf.
        while bit or loops >> c & 1 and high >= start:
            c += 1
            if c == n:
                return -1
            bit = high >> c & 1
            high ^= bit << c
        bit = 1
