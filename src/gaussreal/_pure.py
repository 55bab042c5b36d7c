"""Pure-Python kernels: canonical-form minimisation and rotation search.

These are the two inner loops the package spends nearly all of its time in
during exhaustive sweeps.  gaussreal._speedups holds a C translation with
identical semantics; gaussreal._kernels picks one at import time.  Keep the
two implementations in lock step: tests/test_kernels.py compares them
whenever gaussreal._speedups imports.

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
"""

from __future__ import annotations


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


def _fill_sigma(sigma, darts, mask):
    for c, (in_f, out_f, in_s, out_s) in enumerate(darts):
        if (mask >> c) & 1:
            cycle = (in_f, out_s, out_f, in_s)
        else:
            cycle = (in_f, in_s, out_f, out_s)
        sigma[cycle[0]] = cycle[1]
        sigma[cycle[1]] = cycle[2]
        sigma[cycle[2]] = cycle[3]
        sigma[cycle[3]] = cycle[0]


def _face_count(sigma, num_darts):
    seen = bytearray(num_darts)
    faces = 0
    for d0 in range(num_darts):
        if seen[d0]:
            continue
        faces += 1
        d = d0
        while not seen[d]:
            seen[d] = 1
            d = sigma[d ^ 1]
    return faces


def find_planar_rotation(endpoints_flat, n, start=0, stop=None) -> int:
    """Least handedness mask in [start, stop) with a spherical embedding.

    Returns -1 when no mask in the range yields face count n + 2.
    """
    if stop is None:
        stop = 1 << n
    darts = _vertex_darts(endpoints_flat, n)
    sigma = [0] * (4 * n)
    target = n + 2
    for mask in range(start, stop):
        _fill_sigma(sigma, darts, mask)
        if _face_count(sigma, 4 * n) == target:
            return mask
    return -1
