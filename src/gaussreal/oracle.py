"""Brute-force realizability oracle via rotation systems.

A diagram with n chords determines a connected 4-valent graph: one vertex
per chord, one edge per circle segment, and the closed curve traverses an
Euler circuit hitting every vertex twice, transversally.  The only freedom
a drawing of that curve has is the local handedness at each crossing: the
two transversal cyclic orders of the four edge-ends.  The diagram is
realizable in the plane iff some assignment of the n handedness bits makes
the combinatorial map spherical, i.e. gives Euler characteristic
V - E + F = n - 2n + F = 2.

This module enumerates all 2**n assignments (delegating the tight loop to
gaussreal._kernels) and reports the least one that embeds, together with
its faces, as a witness.  It shares no theory with gaussreal.realizability:
the two routes are compared diagram-by-diagram in the validation sweeps.

Dart numbering (same conventions as the kernels): edge i runs from circle
position i to position i+1 (mod 2n); dart 2i is its start end, dart 2i+1
its end end; reversal is ``d ^ 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .core import ChordDiagram

# 2**n rotation systems are enumerated exhaustively; past this many chords
# the search would not finish in sensible time, so refuse loudly instead.
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
    out = []
    for p, q in diagram.endpoints:
        out.append(p)
        out.append(q)
    return out


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


def oracle_realizable(diagram: ChordDiagram, workers: int = 1) -> EmbeddingWitness | None:
    """Search all rotation systems; return the least spherical one, if any.

    The empty diagram is the simple closed curve and gets a trivial
    witness.  The witness faces are retraced in pure Python even when the
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
    if workers > 1 and diagram.n >= 12:
        mask = _parallel_search(flat, diagram.n, workers)
    else:
        mask = _kernels.find_planar_rotation(flat, diagram.n)
    if mask < 0:
        return None
    witness = witness_for_mask(diagram, mask)
    if witness.euler != 2:  # kernel / tracer disagreement: must never happen
        raise AssertionError(
            "planar mask %d retraced to euler %d" % (mask, witness.euler)
        )
    return witness


def _search_chunk(args) -> int:
    flat, n, start, stop = args
    return _kernels.find_planar_rotation(flat, n, start, stop)


def _parallel_search(flat, n: int, workers: int) -> int:
    """Partition the mask range; the least hit wins regardless of scheduling.

    Chunks come back in mask order, so the first hit is the least one;
    dropping the generator there terminates the pool.
    """
    total = 1 << n
    chunks = workers * 4
    bounds = [(total * k) // chunks for k in range(chunks + 1)]
    jobs = [
        (flat, n, bounds[k], bounds[k + 1])
        for k in range(chunks)
        if bounds[k] < bounds[k + 1]
    ]
    return next((m for m in _kernels._map(_search_chunk, jobs, workers) if m >= 0), -1)
