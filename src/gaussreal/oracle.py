"""Brute-force realizability oracle via rotation systems.

A diagram with n chords determines a connected 4-valent graph: one vertex
per chord, one edge per circle segment, and the closed curve traverses an
Euler circuit hitting every vertex twice, transversally.  The only freedom
a drawing of that curve has is the local handedness at each crossing: the
two transversal cyclic orders of the four edge-ends.  The diagram is
realizable in the plane iff some assignment of the n handedness bits makes
the combinatorial map spherical, i.e. gives Euler characteristic
V - E + F = n - 2n + F = 2.

Reversing the cyclic order at a vertex turns its bit-0 order
(in_f, in_s, out_f, out_s) into its bit-1 order (in_f, out_s, out_f, in_s).
So flipping every bit mirrors the map: each face is reversed and the face
count is kept, and the complement of a spherical mask is spherical too.
Of the two, the lesser has bit n - 1 clear, so the search fixes that
bit at 0 and still decides the same as searching all 2**n masks.  This
module delegates the search to gaussreal._kernels and reports the least
mask that embeds, together with its faces, as a witness.  It shares no
theory with gaussreal.realizability: the two routes are compared
diagram by diagram in the validation sweeps.

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

Which components an edge connects depends only on the order in which the
chords join, so it is computed once per call.  A leaf that was never
pruned is a map of genus 0.  The full map is connected, since the curve
runs through every edge, so that leaf is a sphere with F = n + 2.  Chords
join in the order n - 1, ..., 0, each with bit 0 first, so leaves come
in mask order and the first one reached is the least spherical mask.
An isolated chord, one that crosses no other chord, is a cut vertex of
the map: the word reads c A c B with A and B closed, and under either
bit the two darts that run into A sit side by side around c, as do the
two that run into B.  So the map is two blocks glued at one corner, its
genus is the sum of theirs, and the chord's bit never changes the face
count: the search fixes it at 0 too.
A loop chord, with adjacent endpoints, is the case where A or B is
empty.  gaussreal._pure spells out how the search walks the faces.  The
worst case is still exponential: a summand that keeps several of its own
rotations spherical multiplies the leaves the search must reach.  Each
trefoil summand ``a b c a b c`` appended to ``1 2 1 2`` doubles the nodes
visited (1,273 for seven summands, 23 chords), while ``a b b a`` shells,
whose outer chord is isolated, add two nodes each (28 for eleven shells,
24 chords).

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


def oracle_realizable(diagram: ChordDiagram) -> EmbeddingWitness | None:
    """Search all rotation systems; return the least spherical one, if any.

    Flipping every bit mirrors the embedding and keeps its face count, so
    the least spherical mask has bit n - 1 clear, and the search never
    sets it.  The empty diagram is the simple closed curve and gets
    a trivial witness.  The witness faces are retraced in pure Python even when the
    mask search ran compiled, so a kernel fault cannot fake a witness.
    """
    if diagram.n == 0:
        return EmbeddingWitness(rotation=RotationSystem(()), faces=(), euler=2)
    if diagram.n > MAX_ORACLE_CHORDS:
        raise OracleBudgetExceeded(
            "rotation search over 2**%d assignments refused (limit n <= %d)"
            % (diagram.n, MAX_ORACLE_CHORDS)
        )
    flat = _endpoints_flat(diagram)
    mask = _kernels.find_planar_rotation(flat, diagram.n)
    if mask < 0:
        return None
    witness = witness_for_mask(diagram, mask)
    if witness.euler != 2:  # kernel / tracer disagreement: must never happen
        raise AssertionError(
            "planar mask %d retraced to euler %d" % (mask, witness.euler)
        )
    return witness
