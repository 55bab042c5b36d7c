"""Contours, door chords, complement colorings, and colorful chords.

A *C-contour* C(a) is a chord ``a`` together with one of the two circle
arcs bounded by its endpoints.  An *X-contour* X(a, b) of two crossing
chords is the analogous region bounded by both chords and two opposite
circle arcs: the four endpoints cut the circle into four arcs, and the
contour takes one opposite pair of them.  One type, ``Contour``, holds
both kinds: its contour chords ``(a,)`` or ``(a, b)`` and its contour
arcs in circle order, so the complement components, the classification
and the coloring follow one rule whatever the number of chords.  A chord
with both endpoints inside the contour arcs is a member, and one with
exactly one endpoint inside is a door.  For a C-contour the doors are
therefore exactly the chords crossing ``a``, on either arc; the tests
check that against the crossing rows.

Colorings.  The circle segments outside a contour split into complement
components (one arc for a C-contour, two opposite arcs for an X-contour).
Each component is painted with two colors: walking it from start to end,
the color flips exactly when a door-chord endpoint is passed.  Each
component's colors are anchored independently: the single C-contour
component starts with color A, and each X-contour component carries color
A on the segment adjacent to its endpoint of chord ``b``.  (Anchoring at
the b-ends is what makes these colorings survive smoothing b — see
``transfer_witness``; door endpoints inside the contour arcs lie in
unpainted territory and do not flip anything.)

A chord with both endpoints on painted segments of different colors is
*colorful*.  A colorful chord for a non-degenerate X-contour certifies
that the diagram is not realizable by a closed plane curve, and the
certificate can be re-checked after smoothing ``b`` with a plain
C-contour; that is exactly what ``exists_colorful_witness`` and
``transfer_witness`` produce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ChordDiagram, _label_key, interlacement, iter_bits
from .smoothing import SmoothingResult, smooth_by_word

COLOR_A = "A"
COLOR_B = "B"


class ChordsDoNotCross(ValueError):
    """X-contours require an interleaved chord pair."""


class DegenerateContour(ValueError):
    """Coloring is only defined for contours with doors and an outside."""


def _arc_segments(m: int, start: int, stop: int):
    """Segments of the forward walk start -> stop (segment p joins p, p+1)."""
    p = start
    while p != stop:
        yield p
        p = (p + 1) % m


def _members_and_doors(
    diagram: ChordDiagram, arcs, skip: tuple[int, ...]
) -> tuple[frozenset[int], frozenset[int]]:
    """Chords outside ``skip`` with two (members) or one (doors) ends inside.

    The positions strictly inside an arc are those of the walk that starts
    one step after its start.
    """
    m = 2 * diagram.n
    inside = {
        p for start, stop in arcs for p in _arc_segments(m, (start + 1) % m, stop)
    }
    members = set()
    doors = set()
    for c, (r, s) in enumerate(diagram.endpoints):
        if c in skip:
            continue
        hits = (r in inside) + (s in inside)
        if hits == 2:
            members.add(c)
        elif hits == 1:
            doors.add(c)
    return frozenset(members), frozenset(doors)


@dataclass(frozen=True)
class Contour:
    """Contour chords plus the circle arcs that close them into a region.

    ``chords`` is ``(a,)`` for a C-contour and ``(a, b)`` for an X-contour;
    ``arcs`` holds the contour arcs, as (start, stop) boundary positions,
    in circle order.
    """

    diagram: ChordDiagram
    chords: tuple[int, ...]  # chord indices
    selector: int  # which arc (C) or opposite arc pair (X); see the builders
    arcs: tuple[tuple[int, int], ...]
    members: frozenset[int]
    doors: frozenset[int]

    @property
    def a_label(self) -> str:
        return self.diagram.labels[self.chords[0]]

    @property
    def b_label(self) -> str:
        return self.diagram.labels[self.chords[1]]

    @property
    def non_degenerate(self) -> bool:
        """The contour has doors and some chord lies wholly outside it."""
        outside = self.diagram.n - len(self.members) - len(self.chords)
        return bool(self.doors) and outside > 0

    @property
    def complement_components(self) -> tuple[tuple[int, int], ...]:
        """Each component runs from one arc's stop to the next arc's start."""
        arcs = self.arcs
        return tuple(
            (stop, arcs[(i + 1) % len(arcs)][0]) for i, (_, stop) in enumerate(arcs)
        )

    def document(self) -> dict:
        labels = self.diagram.labels
        doc = {
            "selector": self.selector,
            "members": sorted((labels[c] for c in self.members), key=_label_key),
            "doors": sorted((labels[c] for c in self.doors), key=_label_key),
        }
        if len(self.chords) == 1:
            doc.update(kind="c-contour", chord=self.a_label, arc=list(self.arcs[0]))
        else:
            doc.update(
                kind="x-contour",
                chords=[self.a_label, self.b_label],
                arcs=[list(arc) for arc in self.arcs],
                non_degenerate=self.non_degenerate,
            )
        return doc


@dataclass(frozen=True)
class ArcColoring:
    """Two-coloring of the circle segments outside a contour.

    ``segments[p]`` is the color of the segment joining positions p and
    p+1, or None when that segment lies inside the contour arcs.
    ``anchors`` are the walk start positions of the complement components
    and ``flips`` the door endpoints (all of them outside the contour)
    where the walk changed color.  Within each component the color changes
    exactly at door endpoints; everything downstream is invariant under
    swapping the two colors.
    """

    segments: tuple[str | None, ...]
    anchors: tuple[int, ...]
    flips: tuple[int, ...]

    def color_at(self, position: int) -> str:
        """Color at a position flanked by equal-colored painted segments."""
        m = len(self.segments)
        before = self.segments[(position - 1) % m]
        after = self.segments[position]
        if before is None or after is None or before != after:
            raise ValueError(
                "position %d is not interior to a solid-colored arc" % position
            )
        return after

    def swapped(self) -> "ArcColoring":
        other = {COLOR_A: COLOR_B, COLOR_B: COLOR_A, None: None}
        return ArcColoring(
            segments=tuple(other[c] for c in self.segments),
            anchors=self.anchors,
            flips=self.flips,
        )

    def document(self) -> dict:
        return {
            "segments": list(self.segments),
            "anchors": list(self.anchors),
            "flips": list(self.flips),
        }


def _contour(diagram: ChordDiagram, chords, selector: int, arcs) -> Contour:
    if selector not in (0, 1):
        raise ValueError("arc selector must be 0 or 1")
    members, doors = _members_and_doors(diagram, arcs, chords)
    return Contour(diagram, chords, selector, arcs, members, doors)


def build_c_contour(diagram: ChordDiagram, a: str, arc_selector: int = 0) -> Contour:
    """Contour of chord ``a`` and its chosen arc (selector 0 or 1).

    Selector 0 takes the arc from a's first endpoint to its second, and
    selector 1 the other one.  Doors are the chords with exactly one
    endpoint inside the chosen arc, which are exactly the chords crossing
    ``a`` on either selector.
    """
    ai = diagram.index_of(a)
    p, q = diagram.endpoints[ai]
    arc = (p, q) if arc_selector == 0 else (q, p)
    return _contour(diagram, (ai,), arc_selector, (arc,))


def build_x_contour(
    diagram: ChordDiagram, a: str, b: str, arc_selector: int = 0
) -> Contour:
    """Contour of the crossing pair ``a, b`` and an opposite arc pair.

    The four endpoints in circle order alternate between the two chords.
    Selector 0 takes the two arcs that start (in the forward direction) at
    a's endpoints; selector 1 takes the two that start at b's.  Either
    way each contour arc has one a-end and one b-end, and the complement
    components each run from a b-end forward to an a-end (selector 0) or
    vice versa (selector 1).  Doors are the chords with exactly one
    endpoint inside the two contour arcs.
    """
    ai = diagram.index_of(a)
    bi = diagram.index_of(b)
    p, q = diagram.endpoints[ai]
    r, s = diagram.endpoints[bi]
    if (p < r < q) == (p < s < q):
        raise ChordsDoNotCross(
            "chords %r and %r do not interleave" % (a, b)
        )
    corners = sorted(diagram.endpoints[ai] + diagram.endpoints[bi])
    if corners[0] not in diagram.endpoints[ai]:
        # Orient the corner list so it reads a, b, a, b.
        corners = corners[1:] + corners[:1]
    q0, q1, q2, q3 = corners
    if arc_selector == 0:
        arcs = ((q0, q1), (q2, q3))
    else:
        arcs = ((q1, q2), (q3, q0))
    return _contour(diagram, (ai, bi), arc_selector, arcs)


def color_complement(contour: Contour) -> ArcColoring:
    """Paint the segments outside the contour, flipping at door endpoints.

    Each complement component is walked forward from its start position.
    The first segment of a C-contour component is colored A.  An X-contour
    component is anchored at whichever of its two ends belongs to chord
    ``b``: the segment adjacent to that end gets color A, which fixes the
    walk's initial color on either selector.  Only X-contours must be
    non-degenerate: every C-contour is colored, kinks included.
    """
    if len(contour.chords) == 2 and not contour.non_degenerate:
        raise DegenerateContour(
            "X(%s, %s) selector %d has no doors or no outside chords"
            % (contour.a_label, contour.b_label, contour.selector)
        )
    diagram = contour.diagram
    m = 2 * diagram.n
    door_ends = {p for c in contour.doors for p in diagram.endpoints[c]}

    segments: list[str | None] = [None] * m
    anchors = []
    flips = []
    b_ends = {p for c in contour.chords[1:] for p in diagram.endpoints[c]}
    for start, stop in contour.complement_components:
        # A walk starts at a contour corner and stays outside the contour
        # arcs, so it meets only the door ends in painted territory.
        walk = list(_arc_segments(m, start, stop))
        turns = [p for p in walk if p in door_ends]
        color = COLOR_A
        if stop in b_ends and len(turns) % 2:
            # Anchor color A at the far (b) end of the component.
            color = COLOR_B
        anchors.append(start)
        flips.extend(turns)
        for seg in walk:
            if seg in door_ends:
                color = COLOR_B if color == COLOR_A else COLOR_A
            segments[seg] = color
    return ArcColoring(
        segments=tuple(segments),
        anchors=tuple(anchors),
        flips=tuple(sorted(flips)),
    )


def colorful_chords(
    diagram: ChordDiagram,
    contour: Contour,
    coloring: ArcColoring,
) -> frozenset[str]:
    """Labels of chords whose two endpoints sit on different colors.

    Only chords entirely outside the contour qualify: not the contour
    chords themselves, not members, not doors.  Such a chord's endpoints
    are interior to painted arcs, so ``color_at`` is well defined.
    """
    excluded = set(contour.chords) | contour.members | contour.doors
    found = []
    for c, (p, q) in enumerate(diagram.endpoints):
        if c in excluded:
            continue
        if coloring.color_at(p) != coloring.color_at(q):
            found.append(diagram.labels[c])
    return frozenset(found)


@dataclass(frozen=True)
class ColorfulWitness:
    """A non-degenerate X-contour plus one of its colorful chords."""

    contour: Contour
    chord: str
    coloring: ArcColoring

    def document(self) -> dict:
        return {
            "contour": self.contour.document(),
            "chord": self.chord,
            "coloring": self.coloring.document(),
        }


def exists_colorful_witness(diagram: ChordDiagram) -> ColorfulWitness | None:
    """Search every X-contour for a colorful chord; least witness wins.

    Chord pairs are scanned as ordered pairs in index order (the roles of
    a and b are not interchangeable: the coloring is anchored at b, and
    ``transfer_witness`` smooths b), then by arc selector, then by chord
    index among that coloring's colorful chords.
    """
    rows = interlacement(diagram).rows
    labels = diagram.labels
    for ai in range(diagram.n):
        for bi in iter_bits(rows[ai]):
            for selector in (0, 1):
                contour = build_x_contour(diagram, labels[ai], labels[bi], selector)
                if not contour.non_degenerate:
                    continue
                coloring = color_complement(contour)
                hits = colorful_chords(diagram, contour, coloring)
                if hits:
                    least = min(hits, key=diagram.index_of)
                    return ColorfulWitness(
                        contour=contour, chord=least, coloring=coloring
                    )
    return None


def transfer_witness(
    diagram: ChordDiagram, witness: ColorfulWitness
) -> tuple[SmoothingResult, Contour, ArcColoring]:
    """Re-express an X-contour witness as a C-contour one after smoothing.

    Smoothing chord b of the witness contour leaves a diagram in which the
    witness chord no longer crosses a, so both its endpoints lie on one
    side of a; the C-contour of a whose chosen arc is the *other* side has
    the witness chord outside, and anchoring at b is precisely what makes
    it colorful there again.  Callers re-check that with
    ``colorful_chords``; this function only builds the pieces.
    """
    a_label = witness.contour.a_label
    result = smooth_by_word(diagram, witness.contour.b_label)
    contour = build_c_contour(result.diagram, a_label, 0)
    ci = result.diagram.index_of(witness.chord)
    if ci in contour.doors:
        raise AssertionError(
            "witness chord %r still crosses %r after smoothing"
            % (witness.chord, witness.contour.b_label)
        )
    if ci in contour.members:
        contour = build_c_contour(result.diagram, a_label, 1)
    return result, contour, color_complement(contour)
