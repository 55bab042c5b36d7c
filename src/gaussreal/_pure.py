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
and 2n distinct endpoints in [0, 2n), chord c at 2c and 2c+1.  Both
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
  only the four entries of its chord.  The chords whose bits are fixed
  try bit 0 only: chord n - 1, since the mirror of a spherical mask is
  spherical (see gaussreal.oracle), and every isolated chord (below).
- Edge i joins with the lower of its two chords; edges that join with the
  same chord go in edge order.  This order ranks the edges, and a dart
  takes its edge's rank.  A union-find over the chords, run once per call
  in rank order, finds the edges whose two chords already share a
  component.  Only those can raise the genus (see gaussreal.oracle), so
  only they get a face test.  A loop at a chord with no lower-ranked edge
  gets none: it lies in the one corner of an isolated vertex.
- An isolated chord c crosses no other chord: the word reads c A c B,
  where A and B each hold both ends of their chords (a loop chord, with
  adjacent endpoints, has A or B empty).  Its vertex is a cut vertex: the
  edges from out_f to in_s run through A, and those from out_s to in_f
  through B.  Around the vertex, bit 0 gives in_f, in_s, out_f, out_s and
  bit 1 gives in_f, out_s, out_f, in_s; under both, the two darts of
  each block sit side by side.  So the map is its two blocks glued at one
  corner, its genus is the sum of theirs, and the bit of c never changes
  the face count, and its bit is fixed: when its bit-0 subtree holds no
  spherical leaf, neither does the one under bit 1.
- The face test of an edge of rank r works in the sub-map of the darts
  ranked below r.  Its corner at dart t lies on the face of the first
  such dart after t around the vertex: follow ``nxt[x ^ 1]`` past darts
  ranked r or more.  A face step is ``nxt[d]``, past such darts in the
  same way.  The test walks the face through the corner at one dart of
  the edge.  If that face misses the corner at the other dart, the edge
  joins two faces, and the node is pruned.
"""

from __future__ import annotations

from itertools import accumulate
from operator import xor

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


def _check_contract(endpoints_flat, n) -> None:
    """Raise ValueError on input outside the contract."""
    if not 0 <= n <= MAX_CHORDS:
        raise ValueError("n = %d outside [0, %d]" % (n, MAX_CHORDS))
    if len(endpoints_flat) != 2 * n:
        raise ValueError("%d endpoints for %d chords" % (len(endpoints_flat), n))
    for v in endpoints_flat:
        if not 0 <= v < 2 * n:
            raise ValueError("endpoint %d outside [0, %d)" % (v, 2 * n))
    if len(set(endpoints_flat)) != 2 * n:
        raise ValueError("endpoints repeat a circle position")


def find_planar_rotation(endpoints_flat, n) -> int:
    """Least handedness mask with a spherical embedding, or -1 if none.

    The mask has face count n + 2; the search is the one in the
    conventions above, so it never returns a mask with bit n - 1 set.
    """
    _check_contract(endpoints_flat, n)
    if n == 0:
        return -1
    m = 2 * n
    chord_at = [0] * m
    for k, p in enumerate(endpoints_flat):
        chord_at[p] = k >> 1
    # Edge i joins with the lower of its chords; ties go in edge order.
    joins = [[] for _ in range(n)]
    for i, u in enumerate(chord_at):
        v = chord_at[i + 1 - m]
        joins[u if u < v else v].append(i)
    # prefix[p] is the XOR of 1 << chord over the positions before p.
    prefix = list(accumulate(map((1).__lshift__, chord_at), xor, initial=0))
    rank = [0] * (4 * n)
    parent = list(range(n))
    tests = [[] for _ in range(n)]
    r = 0
    for c in range(n - 1, -1, -1):
        # Chord c joins alone; each edge to a higher chord either reaches
        # a component it has not yet reached or closes a cycle.
        reached = []
        first = r
        for i in joins[c]:
            rank[2 * i] = rank[2 * i + 1] = r
            v = chord_at[i] + chord_at[i + 1 - m] - c  # the edge's other chord
            if v == c:
                closes = r > first
            else:
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                closes = v in reached
                if not closes:
                    reached.append(v)
            if closes:
                tests[c].append((2 * i, r))
            r += 1
        for v in reached:
            parent[v] = c
    # Per chord: its four darts reversed, and the successors they take
    # under bit 0 and under bit 1 (see the conventions above).  Fixed
    # chords try bit 0 only: an isolated chord's bit never changes the face
    # count, and the top chord's is the mirror choice.
    entries = []
    fixed = 1 << (n - 1)
    for c in range(n):
        f = endpoints_flat[2 * c]
        s = endpoints_flat[2 * c + 1]
        in_f, out_f = 2 * ((f - 1) % m) + 1, 2 * f
        in_s, out_s = 2 * ((s - 1) % m) + 1, 2 * s
        entries.append(
            (
                (in_f ^ 1, in_s ^ 1, out_f ^ 1, out_s ^ 1),
                ((in_s, out_f, out_s, in_f), (out_s, in_f, in_s, out_f)),
            )
        )
        if prefix[f] ^ prefix[s] == 1 << c:  # no chord has one end between
            fixed |= 1 << c
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
        if spherical_after(c, bit):
            high |= bit << c
            if c == 0:
                return high
            c, bit = c - 1, 0
            continue
        # Bit 1 is next unless it was tried or c is fixed.
        while bit or fixed >> c & 1:
            c += 1
            if c == n:
                return -1
            bit = high >> c & 1
            high ^= bit << c
        bit = 1
