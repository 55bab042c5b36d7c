"""Brute-force realizability oracle via rotation systems.

A diagram with n chords determines a connected 4-valent graph: one vertex
per chord, one edge per circle segment, and the closed curve traverses an
Euler circuit hitting every vertex twice, transversally.  The only freedom
a drawing of that curve has is the local handedness at each crossing: the
two transversal cyclic orders of the four edge-ends.  The diagram is
realizable in the plane iff some assignment of the n handedness bits makes
the combinatorial map spherical, i.e. gives Euler characteristic
V - E + F = n - 2n + F = 2.

This module delegates the search to gaussreal._kernels and reports the
least mask that embeds, together with its faces, as a witness.  It
shares no code with gaussreal.realizability, and its verdicts rest on
Euler's formula and the flip and genus arguments below alone: the two
routes are compared diagram by diagram in the validation sweeps.

Flipping every bit of one connected component K of the crossing graph
keeps the face count.  A sketch of why: reversing the cyclic order at a
vertex turns its bit-0 order (in_f, in_s, out_f, out_s) into its bit-1
order (in_f, out_s, out_f, in_s), so flipping K mirrors the map of K:
each of its faces is reversed.  A chord outside K crosses no chord of K,
and K is connected, so both its ends lie in one gap between consecutive
ends of K.  So the rest of the curve hangs on K's map as one sub-curve
per gap, each joined to K by two edges at the corners that bound its
gap.  Mirroring K keeps the face each corner lies on, and adding two
edges between corners on the same faces gives the same face count.  The
tests check the fact on every mask for n <= 6.  The whole mask's mirror
is the flip of every component at once; an isolated chord, a cut vertex
of the map, is a component of one chord.

The spherical masks form exactly one coset of the group of component
flips; only the choice of the least mask rests on this.  A plane curve
determines the cocycle solution h of de Fraysseix & Ossona de Mendez
("On a characterization of Gauss codes", Discrete Comput. Geom. 22,
1999), which is unique up to complement on each component of the
crossing graph; every realizable canonical diagram with n <= 9 has
exactly 2**(components) spherical masks.  A component's flip is the only
one that moves the bit of its top chord, its highest index, and that bit
is the highest the flip moves.  So the least member of the coset is the
one with every top chord at bit 0.

The search is depth first and prunes by genus.  A map with C components
has genus g given by V - E + F = 2C - 2g; it is the sum of the genera of
its components.  Deleting an edge or a vertex never raises a map's genus
(Mohar & Thomassen, *Graphs on Surfaces*).  So the search joins the
chords one at a time, each with its bit, and looks at the sub-map of the
joined chords and the edges between them.  Once that sub-map has positive
genus, no choice of the remaining bits gives a sphere, and the subtree is
pruned.  The sub-map grows one edge at a time:

- an edge between two components joins one face of each into one
  (E + 1, F - 1, C - 1), so the genus stays;
- an edge within one component whose two corners lie on one face splits
  that face (E + 1, F + 1), so the genus stays;
- an edge within one component whose corners lie on two faces joins them
  (E + 1, F - 1): the genus rises by one, and the search prunes there.

Chords join in maximum-cardinality order over the curve: from chord 0,
the next chord has the most curve edges into the joined ones.  Each
chord after the first has such an edge, so the sub-map stays connected:
the first edge that joins a chord to another attaches it, and every
later edge is within one component and gets a face test.  A leaf that
was never pruned is a map of genus 0.  The full map is connected, since
the curve runs through every edge, so that leaf is a sphere with
F = n + 2.  The first chord of each component to join tries bit 0 only,
which by the flip argument loses no sphere, and the first leaf reached
is normalised by flipping each component whose top chord has bit 1: the
least spherical mask, by the coset argument.  Should the coset fact
fail on some diagram, the mask is still spherical, since flips keep the
face count, but it might not be the least; the tests compare it with a
scan of all 2**n masks.  gaussreal._pure spells out how the search
walks the faces.

The worst case is still exponential: before it answers -1, the search
must prune every partial map of genus 0, and the hardest inputs for
that, large words that pass the even condition and are no plane curve,
are not yet measured.  Sums of small diagrams stay cheap, since each
summand is its own component of the crossing graph and joins as one
connected piece: ``1 2 1 2`` with nineteen trefoil summands
``a b c a b c`` (59 chords) visits 136 nodes, where an index-order
search doubled its visits per summand (1,273 for seven summands).

Dart numbering (same conventions as the kernels): edge i runs from circle
position i to position i+1 (mod 2n); dart 2i is its start end, dart 2i+1
its end end; reversal is ``d ^ 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from . import _kernels
from .core import ChordDiagram

# The genus-pruned search is still exponential in the worst case, when few
# nodes prune; past this many chords it might not finish in sensible time,
# so refuse loudly instead.
MAX_ORACLE_CHORDS = 24


class EmptyDiagram(ValueError):
    """build_map requires at least one chord."""


class OracleBudgetExceeded(ValueError):
    """The diagram is too large for exhaustive rotation enumeration."""


@dataclass(frozen=True)
class FourValentMap:
    """The 4-valent graph of a diagram plus its dart structure."""

    n: int
    vertex_darts: tuple[tuple[int, int, int, int], ...]  # (in_f, out_f, in_s, out_s)

    @property
    def vertices(self) -> int:
        return self.n

    @property
    def edges(self) -> int:
        return 2 * self.n

    @property
    def num_darts(self) -> int:
        return 4 * self.n


@dataclass(frozen=True)
class RotationSystem:
    """One handedness bit per chord; bit order follows chord indices."""

    handedness: tuple[int, ...]

    @property
    def mask(self) -> int:
        return sum(bit << c for c, bit in enumerate(self.handedness))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "RotationSystem":
        return cls(tuple((mask >> c) & 1 for c in range(n)))


@dataclass(frozen=True)
class EmbeddingWitness:
    """A rotation system together with its face structure.

    ``faces`` lists each face as a dart cycle; cycles start at their least
    dart and are ordered by that dart, so the witness is deterministic.
    ``euler`` is V - E + F and equals 2 exactly for witnesses returned by
    ``oracle_realizable``.
    """

    rotation: RotationSystem
    faces: tuple[tuple[int, ...], ...]
    euler: int

    @cached_property
    def face_count(self) -> int:
        return len(self.faces)

    def document(self) -> dict:
        return {
            "handedness": list(self.rotation.handedness),
            "faces": [list(f) for f in self.faces],
            "face_count": self.face_count,
            "euler": self.euler,
        }


def build_map(diagram: ChordDiagram) -> FourValentMap:
    if diagram.n == 0:
        raise EmptyDiagram("a crossingless word has no 4-valent map")
    m = 2 * diagram.n
    darts = []
    for f, s in diagram.endpoints:
        darts.append((2 * ((f - 1) % m) + 1, 2 * f, 2 * ((s - 1) % m) + 1, 2 * s))
    return FourValentMap(n=diagram.n, vertex_darts=tuple(darts))


def _sigma(fmap: FourValentMap, rotation: RotationSystem) -> list[int]:
    sigma = [0] * fmap.num_darts
    for c, (in_f, out_f, in_s, out_s) in enumerate(fmap.vertex_darts):
        if rotation.handedness[c]:
            cycle = (in_f, out_s, out_f, in_s)
        else:
            cycle = (in_f, in_s, out_f, out_s)
        for k in range(4):
            sigma[cycle[k]] = cycle[(k + 1) % 4]
    return sigma


def trace_faces(fmap: FourValentMap, rotation: RotationSystem) -> tuple[tuple[int, ...], ...]:
    """Orbits of ``d -> sigma[d ^ 1]``, canonically ordered."""
    sigma = _sigma(fmap, rotation)
    seen = [False] * fmap.num_darts
    faces = []
    for d0 in range(fmap.num_darts):
        if seen[d0]:
            continue
        cycle = []
        d = d0
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = sigma[d ^ 1]
        faces.append(tuple(cycle))  # d0 is the least dart: earlier ones are seen
    return tuple(faces)


def _endpoints_flat(diagram: ChordDiagram) -> list[int]:
    return list(chain.from_iterable(diagram.endpoints))


def witness_for_mask(diagram: ChordDiagram, mask: int) -> EmbeddingWitness:
    """Retrace the faces of one rotation system in plain Python."""
    fmap = build_map(diagram)
    rotation = RotationSystem.from_mask(diagram.n, mask)
    faces = trace_faces(fmap, rotation)
    return EmbeddingWitness(
        rotation=rotation,
        faces=faces,
        euler=fmap.vertices - fmap.edges + len(faces),
    )


def planar_mask(endpoints_flat, n: int) -> int:
    """The least spherical mask of the diagram with these endpoints, or -1.

    ``endpoints_flat`` lists each chord's two circle positions in chord
    order, as the kernels take them; n >= 1.  Diagrams of more than
    ``MAX_ORACLE_CHORDS`` chords are refused.  The mask comes from the
    kernel alone: ``spherical_witness`` retraces it.
    """
    if n > MAX_ORACLE_CHORDS:
        raise OracleBudgetExceeded(
            "rotation search over 2**%d assignments refused (limit n <= %d)"
            % (n, MAX_ORACLE_CHORDS)
        )
    return _kernels.find_planar_rotation(endpoints_flat, n)


def spherical_witness(diagram: ChordDiagram, mask: int) -> EmbeddingWitness:
    """The witness of a mask ``planar_mask`` found, retraced in plain Python.

    The faces are retraced even when the search ran compiled, so a kernel
    fault cannot fake a witness: a mask that does not retrace to Euler
    characteristic 2 raises.
    """
    witness = witness_for_mask(diagram, mask)
    if witness.euler != 2:  # kernel / tracer disagreement: must never happen
        raise AssertionError(
            "planar mask %d retraced to euler %d" % (mask, witness.euler)
        )
    return witness


def oracle_realizable(diagram: ChordDiagram) -> EmbeddingWitness | None:
    """Search all rotation systems; return the least spherical one, if any.

    Flipping every bit of a crossing-graph component keeps the face
    count, so the search fixes one bit per component (see the module
    docstring).  The empty diagram is the simple closed curve and gets
    a trivial witness.  Otherwise this is ``planar_mask`` on the
    diagram's endpoints and, for a mask, ``spherical_witness``.
    """
    if diagram.n == 0:
        return EmbeddingWitness(rotation=RotationSystem(()), faces=(), euler=2)
    mask = planar_mask(_endpoints_flat(diagram), diagram.n)
    return None if mask < 0 else spherical_witness(diagram, mask)
