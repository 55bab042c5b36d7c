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
- It is depth first.  Chords join in the order of a maximum-cardinality
  search over the curve: it starts at chord 0, and the next chord is the
  one not yet joined with the most curve edges into the joined ones,
  counted with multiplicity (four increments per joined chord), ties to
  the least index.  The curve runs through every chord, so each chord
  after the first has an edge to a joined one, and the joined sub-map
  stays connected.  Each chord tries bit 0 before bit 1, and a node
  rewrites only the four entries of its chord.
- The edges between a chord and the chords joined before it join with
  it: the edge into f, the edge out of f, the edge into s, the edge out
  of s.  This order ranks the edges, and a dart takes its edge's rank.
  The first of them to another chord attaches the chord to the sub-map
  and keeps the genus (see gaussreal.oracle).  Each later one closes a
  cycle and gets a face test.  A loop, an edge from a chord to itself,
  gets none: under either bit its two darts sit side by side around the
  vertex, so it splits the face of that corner.  It is met twice,
  leaving f and entering s or the other way round; the later rank stands.
- Flipping every bit of one component of the crossing graph keeps the
  face count (see gaussreal.oracle).  So the first chord of each
  component to join tries bit 0 only: if some spherical mask exists, one
  exists with those bits 0.  The components come from a search over the
  crossing rows, read off a prefix XOR over the positions.
- The first spherical leaf is then normalised: each component whose top
  chord (its highest index) has bit 1 is flipped.  The spherical masks
  form one coset of the group of component flips (see gaussreal.oracle),
  and its least member is the one with every top chord at 0, so the
  search returns the least spherical mask of all 2**n.
- The face test of an edge of rank r works in the sub-map of the darts
  ranked below r.  Its corner at dart t lies on the face of the first
  such dart after t around the vertex: follow ``nxt[x ^ 1]`` past darts
  ranked r or more.  A face step is ``nxt[d]``, past such darts in the
  same way.  The test walks the face through the corner at one dart of
  the edge.  If that face misses the corner at the other dart, the edge
  joins two faces, and the node is pruned.
- The leaf rule.  When a chord has no loop, below the rank of its first
  face test it has one edge, the one that attached it: it is a leaf of
  that sub-map.  A leaf has a single corner, and a face walk passes its
  vertex in by that edge and out by it again, whichever order the bit
  gives its darts.  So the first test gives the same answer under both
  bits: bit 1 skips it after a pass under bit 0, and is not tried after
  a failure.  Only failing nodes go, so the mask is the same; over the
  canonical diagrams with n <= 7 the search visits 84,069 nodes instead
  of 104,377.
- The pure search builds each depth when it first reaches it: the chord
  that joins there, its darts and successors, its edge ranks and face
  tests, its weight updates and, if it starts a component, that
  component.  Most calls prune before the last depths, which are then
  never built; the C builds every depth up front, so the two still
  visit the same nodes.  Backtracking never goes below a built depth,
  and every component is known by the first leaf.  A dart whose edge
  has not joined yet ranks 4n, above every test, so a face walk passes
  over it like a dart of a later edge.
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


def _check_contract(endpoints_flat, n) -> None:
    """Raise ValueError on input outside the contract."""
    if 0 <= n <= MAX_CHORDS and sorted(endpoints_flat) == list(range(2 * n)):
        return
    # Only the wording of the error is left to find.
    if not 0 <= n <= MAX_CHORDS:
        raise ValueError("n = %d outside [0, %d]" % (n, MAX_CHORDS))
    if len(endpoints_flat) != 2 * n:
        raise ValueError("%d endpoints for %d chords" % (len(endpoints_flat), n))
    for v in endpoints_flat:
        if not 0 <= v < 2 * n:
            raise ValueError("endpoint %d outside [0, %d)" % (v, 2 * n))
    raise ValueError("endpoints repeat a circle position")


def find_planar_rotation(endpoints_flat, n) -> int:
    """Least handedness mask with a spherical embedding, or -1 if none.

    The mask has face count n + 2; the search is the one in the
    conventions above, so every component of the crossing graph has its
    top chord at bit 0.
    """
    _check_contract(endpoints_flat, n)
    if n == 0:
        return -1
    m = 2 * n
    firsts = endpoints_flat[0::2]
    seconds = endpoints_flat[1::2]
    chord_at = [0] * m
    for c, (f, s) in enumerate(zip(firsts, seconds)):
        chord_at[f] = chord_at[s] = c
    # The chords on either side of each circle position.
    before = chord_at[-1:] + chord_at[:-1]
    after = chord_at[1:] + chord_at[:1]
    # prefix[p] is the XOR of 1 << chord over the positions before p, so
    # prefix[f] ^ prefix[s] holds chord c, at f and s, and the chords that
    # cross it.
    prefix = [0]
    for c in chord_at:
        prefix.append(prefix[-1] ^ 1 << c)
    # Chords join in maximum-cardinality order.  weight[c] counts the curve
    # edges from c into the joined chords; a joined chord gets -5, which
    # its four edge ends cannot lift to 0.  plan[k] holds the chord at
    # depth k: its darts reversed, the successors they take under bit 0
    # and under bit 1, its face tests under bit 0 and under bit 1, and the
    # dart of its leaf test, or -1 (see the conventions above).
    # It is built when the search first reaches depth k, and until then
    # the darts of the edges that join there rank 4n, above every test.
    order = []
    plan = []
    weight = [0] * n
    rank = [4 * n] * (4 * n)
    components = []
    fixed = seen = ranked = built = 0

    # Depth first: the chord at depth k is next to join with this bit, and
    # `mask` holds the bits of the chords joined before it.
    nxt = [0] * (2 * m)
    last = n - 1
    k = bit = mask = 0
    while True:
        if k == built:  # the first visit of depth k: join the next chord
            c = weight.index(max(weight))
            order.append(c)
            weight[c] = -5
            f, s = firsts[c], seconds[c]
            out_f, out_s = 2 * f, 2 * s
            in_f = out_f - 1 if f else 2 * m - 1
            in_s = out_s - 1 if s else 2 * m - 1
            a, b, x, y = before[f], after[f], before[s], after[s]
            # The edges to joined chords, into f, out of f, into s and out
            # of s: the first to another chord attaches c, each later one
            # gets a face test, and a loop gets none.
            tests = []
            attached = False
            if weight[a] < 0:
                rank[in_f] = rank[in_f ^ 1] = ranked
                attached = a != c
                ranked += 1
            if weight[b] < 0:
                rank[out_f] = rank[out_f ^ 1] = ranked
                if b != c:
                    if attached:
                        tests.append((out_f, ranked))
                    attached = True
                ranked += 1
            if weight[x] < 0:
                rank[in_s] = rank[in_s ^ 1] = ranked
                if x != c:
                    if attached:
                        tests.append((in_s ^ 1, ranked))
                    attached = True
                ranked += 1
            if weight[y] < 0:
                rank[out_s] = rank[out_s ^ 1] = ranked
                if y != c and attached:
                    tests.append((out_s, ranked))
                ranked += 1
            # Without a loop, c is a leaf below its first test, which bit 1
            # then skips (see the conventions above).
            lead = tests[0][0] if tests and c not in (a, b, x, y) else -1
            weight[a] += 1
            weight[b] += 1
            weight[x] += 1
            weight[y] += 1
            plan.append(
                (
                    in_f ^ 1,
                    in_s ^ 1,
                    out_f ^ 1,
                    out_s ^ 1,
                    (in_s, out_f, out_s, in_f),
                    (out_s, in_f, in_s, out_f),
                    tests,
                    tests[1:] if lead >= 0 else tests,
                    lead,
                )
            )
            # The first chord of a crossing-graph component to join tries
            # bit 0 only.
            if not seen >> c & 1:
                fixed |= 1 << k
                component = todo = 1 << c
                while todo:
                    low = todo & -todo
                    todo ^= low
                    j = low.bit_length() - 1
                    new = (prefix[firsts[j]] ^ prefix[seconds[j]]) & ~component
                    component |= new
                    todo |= new
                seen |= component
                components.append(component)
            built += 1
        p, q, u, v, zero, one, tests, tests_one, lead = plan[k]
        if bit:
            nxt[p], nxt[q], nxt[u], nxt[v] = one
            tests = tests_one
        else:
            nxt[p], nxt[q], nxt[u], nxt[v] = zero
        for t, r in tests:
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
                    break
            else:
                continue
            break  # the edge joins two faces: the genus rises
        else:
            mask |= bit << order[k]
            if k < last:
                k, bit = k + 1, 0
                continue
            # A spherical leaf.  Flip each component whose top chord has
            # bit 1: the least mask of the coset (see gaussreal.oracle).
            for component in components:
                if mask >> (component.bit_length() - 1) & 1:
                    mask ^= component
            return mask
        # Bit 1 is next unless it was tried, the depth is fixed or bit 0
        # failed the leaf test, which bit 1 would fail too.
        if t == lead:
            bit = 1
        while bit or fixed >> k & 1:
            k -= 1
            if k < 0:
                return -1
            c = order[k]
            bit = mask >> c & 1
            mask ^= bit << c
        bit = 1
