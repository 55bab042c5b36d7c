"""Smoothing a chord of a Gauss diagram, two independent ways.

Smoothing chord c replaces the two passages through crossing c by a
turn that avoids the crossing.  On the word this is a segment reversal:
writing the stored word as W1 c W2 c W3 (W1 starts at position 0), the
smoothed word is W1 (reverse of W2) W3.

The same operation acts on the crossing relation alone: delete c and flip
"crosses"/"does not cross" for every pair of chords that both crossed c;
all other pairs keep their relation.  ``toggle_rows`` applies this second
description to the crossing rows of ``gaussreal.core``, and
``smooth_by_toggle`` wraps it for single chords.  It deliberately shares
no code with ``smooth_by_word`` -- agreement of the two routes on every
diagram is one of the package's standing cross-checks.  ``is_realizable``
does not rebuild the rows: it checks every smoothing at once by a parity
rule on the triangles of the crossing graph (see
``gaussreal.realizability``), and ``toggle_rows`` is the reference that
rule is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ChordDiagram,
    GaussWord,
    Interlacement,
    diagram_from_word,
    interlacement,
)


@dataclass(frozen=True)
class SmoothingResult:
    """Outcome of smoothing one chord via the word rule."""

    source_word: GaussWord
    chord: str  # label of the smoothed chord
    diagram: ChordDiagram  # the smoothed diagram (labels inherited)

    @property
    def word(self) -> GaussWord:
        return self.diagram.word


def smooth_by_word(diagram: ChordDiagram, chord: str) -> SmoothingResult:
    """Smooth ``chord`` by the W1 c W2 c W3 -> W1 reversed(W2) W3 rule.

    The smoothed tokens go to ``diagram_from_word`` as they are, whose
    pass checks that they form a double occurrence word.
    """
    idx = diagram.index_of(chord)
    p, q = diagram.endpoints[idx]
    syms = diagram.word.symbols
    smoothed = syms[:p] + tuple(reversed(syms[p + 1 : q])) + syms[q + 1 :]
    return SmoothingResult(
        source_word=diagram.word,
        chord=diagram.labels[idx],
        diagram=diagram_from_word(smoothed),
    )


def toggle_rows(rows, c: int) -> list[int]:
    """Crossing rows after smoothing chord c, by the toggle rule.

    Every two chords that both crossed c flip their relation, and c is
    deleted: its row becomes empty and its bit is cleared everywhere.  An
    empty row is an isolated chord, which never breaks the even condition,
    so the rows keep their indices.
    """
    bit = 1 << c
    flip = rows[c]
    out = []
    for a, row in enumerate(rows):
        if row & bit:
            row ^= flip ^ (1 << a)
        out.append(row & ~bit)
    out[c] = 0
    return out


def smooth_by_toggle(diagram: ChordDiagram, chord: str) -> Interlacement:
    """Smooth ``chord`` on the crossing relation only.

    The result is indexed by the surviving chords in their original index
    order (the smoothed chord's slot removed, later indices shifted down);
    use ``surviving_labels`` for the matching label order.
    """
    idx = diagram.index_of(chord)
    low = (1 << idx) - 1
    rows = toggle_rows(interlacement(diagram).rows, idx)
    del rows[idx]
    return Interlacement(tuple(row & low | row >> 1 & ~low for row in rows))


def surviving_labels(diagram: ChordDiagram, chord: str) -> tuple[str, ...]:
    """Labels of the chords left by smoothing ``chord``, in toggle order."""
    idx = diagram.index_of(chord)
    return tuple(lab for i, lab in enumerate(diagram.labels) if i != idx)
