"""Pure-Python kernels: canonical-form minimisation and rotation search.

``find_planar_rotation`` is the oracle's inner loop, where an exhaustive
sweep spends most of its time.  gaussreal._speedups holds a C translation
of it with identical semantics; gaussreal._kernels picks one at import
time.  Keep the two in lock step: tests/test_kernels.py compares them
whenever gaussreal._speedups imports.  ``canonical_key`` runs once per
``core.canonicalize`` call and has no C translation; the enumerator builds
keys directly (see gaussreal.enumeration).

Input contract: ``canonical_key`` takes an index word of even length m
whose symbols lie in [0, m/2); ``find_planar_rotation`` takes 0 <= n <= 63
and exactly 2n endpoints in [0, 2n), chord c at 2c and 2c+1.  Both
backends of ``find_planar_rotation`` check its contract and raise
ValueError; the C must, because it copies the input into fixed-size
arrays.  ``canonical_key`` trusts its input: every caller passes the index
word of a ChordDiagram.

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
- The pure mask scan keeps that face permutation as one successor table,
  ``nxt[d] = sigma[d ^ 1]``.  Chord c owns the four entries at its darts
  reversed, ``in_f ^ 1``, ``in_s ^ 1``, ``out_f ^ 1`` and ``out_s ^ 1``, so
  a change of its bit rewrites only those.  Faces are counted by walking
  a copy of the table and overwriting each visited entry with -1.
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


def find_planar_rotation(endpoints_flat, n, start=0, stop=None) -> int:
    """Least handedness mask in [start, stop) with a spherical embedding.

    Returns -1 when no mask in the range yields face count n + 2.  Going
    from ``mask`` to ``mask + 1`` flips exactly the chords of
    ``mask ^ (mask + 1)``: the lowest set bit of ``mask + 1`` turns on and
    every chord below it turns off, so only their successor entries are
    rewritten.
    """
    if not 0 <= n <= MAX_CHORDS:
        raise ValueError("n = %d outside [0, %d]" % (n, MAX_CHORDS))
    if len(endpoints_flat) != 2 * n:
        raise ValueError("%d endpoints for %d chords" % (len(endpoints_flat), n))
    for v in endpoints_flat:
        if not 0 <= v < 2 * n:
            raise ValueError("endpoint %d outside [0, %d)" % (v, 2 * n))
    if stop is None:
        stop = 1 << n
    if start >= stop:
        return -1
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

    def turn(c, bit):
        (a, b, e, f), succ = entries[c]
        nxt[a], nxt[b], nxt[e], nxt[f] = succ[bit]

    for c in range(n):
        turn(c, (start >> c) & 1)
    target = n + 2
    mask = start
    while True:
        walk = nxt[:]
        faces = 0
        for d in range(4 * n):
            if walk[d] < 0:
                continue
            faces += 1
            while d >= 0:
                walk[d], d = -1, walk[d]
        if faces == target:
            return mask
        mask += 1
        if mask >= stop:
            return -1
        top = (mask & -mask).bit_length() - 1
        turn(top, 1)
        for c in range(top):
            turn(c, 0)
