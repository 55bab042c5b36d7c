"""Plane-curve realizability of Gauss diagrams via the even condition.

A realizable diagram satisfies the *even condition*: every chord crosses
an even number of chords, and every two non-crossing chords share an even
number of crossing partners.  The condition is necessary but not
sufficient; the full criterion implemented by ``is_realizable`` is that
the diagram *and every single-chord smoothing of it* satisfy the even
condition.

Isolated chords (crossing nothing) are curls of the curve: they never
affect anyone's crossing sets, so the verdict is that of the kink-free
rest, and witnesses are stated on that rest; the empty diagram is the
plain circle.  Reports name their evidence — a parity-violating chord or
pair, possibly inside a named smoothing — with enough payload (the exact
crossing sets and the smoothed word) for ``verify_witness`` to re-check
by recomputation without repeating the search.

Verdicts ride on the crossing rows of ``gaussreal.core`` (one bitset row
per chord), read as a symmetric matrix A over GF(2): the even condition
says exactly that A² ⊆ A entrywise (de Fraysseix & Ossona de Mendez, "On
a characterization of Gauss codes", 1999), and smoothings are taken by
``smoothing.toggle_rows``, the same toggle that the standing word-rule
cross-check exercises.  Witnesses ride on the word rule for smoothing and
on chord labels, and are built only for the first check that fails.  The
rotation-system route in ``gaussreal.oracle`` shares none of this code
and is used to cross-validate these verdicts exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ChordDiagram,
    GaussWord,
    _label_key,
    diagram_from_word,
    interlacement,
    iter_bits,
)
from .smoothing import smooth_by_word, toggle_rows


class WitnessMismatch(ValueError):
    """A report's claimed evidence does not survive recomputation."""


@dataclass(frozen=True)
class ChordParityViolation:
    """A chord crossing an odd number of chords."""

    chord: str
    crossings: tuple[str, ...]  # labels of the chords it crosses

    def subject(self) -> str:
        return "chord %s" % self.chord

    def document(self) -> dict:
        return {
            "kind": "chord",
            "chord": self.chord,
            "crossings": list(self.crossings),
        }


@dataclass(frozen=True)
class PairParityViolation:
    """A non-crossing chord pair sharing an odd number of partners."""

    pair: tuple[str, str]
    shared: tuple[str, ...]  # labels crossing both chords of the pair

    def subject(self) -> str:
        return "pair (%s, %s)" % self.pair

    def document(self) -> dict:
        return {
            "kind": "pair",
            "pair": list(self.pair),
            "shared": list(self.shared),
        }


@dataclass(frozen=True)
class EvenConditionReport:
    """All parity violations of one diagram (chords first, then pairs)."""

    holds: bool
    violations: tuple[ChordParityViolation | PairParityViolation, ...]

    def document(self) -> dict:
        return {
            "holds": self.holds,
            "violations": [v.document() for v in self.violations],
        }


def even_condition(diagram: ChordDiagram) -> EvenConditionReport:
    """Check both parities on the diagram exactly as given.

    Isolated chords take part like any others: their crossing sets are
    empty, so they can never violate anything themselves, and pairs
    involving them share zero partners.  Violations are listed in label
    order, chord violations before pair violations.
    """
    rows = interlacement(diagram).rows
    labels = diagram.labels
    chord_violations = []
    for c, row in enumerate(rows):
        if row.bit_count() % 2:
            names = sorted((labels[x] for x in iter_bits(row)), key=_label_key)
            chord_violations.append(
                ChordParityViolation(chord=labels[c], crossings=tuple(names))
            )
    chord_violations.sort(key=lambda v: _label_key(v.chord))
    pair_violations = []
    for a in range(diagram.n):
        for b in range(a + 1, diagram.n):
            if rows[a] >> b & 1:
                continue
            shared = rows[a] & rows[b]
            if shared.bit_count() % 2:
                pair = sorted((labels[a], labels[b]), key=_label_key)
                names = sorted((labels[x] for x in iter_bits(shared)), key=_label_key)
                pair_violations.append(
                    PairParityViolation(pair=tuple(pair), shared=tuple(names))
                )
    pair_violations.sort(key=lambda v: tuple(_label_key(x) for x in v.pair))
    violations = tuple(chord_violations) + tuple(pair_violations)
    return EvenConditionReport(holds=not violations, violations=violations)


@dataclass(frozen=True)
class EvenConditionViolation:
    """The diagram itself fails the even condition; no smoothing needed."""

    report: EvenConditionReport

    @property
    def first(self) -> ChordParityViolation | PairParityViolation:
        return self.report.violations[0]

    def document(self) -> dict:
        return {"kind": "even-condition", "report": self.report.document()}


@dataclass(frozen=True)
class SmoothingViolation:
    """Smoothing one chord produces a diagram failing the even condition."""

    chord: str  # the smoothed chord (in the kink-free diagram)
    smoothed_word: GaussWord
    report: EvenConditionReport  # of the smoothed diagram

    def document(self) -> dict:
        return {
            "kind": "smoothing",
            "chord": self.chord,
            "smoothed_word": self.smoothed_word.text(),
            "report": self.report.document(),
        }


@dataclass(frozen=True)
class OracleCrossCheck:
    """Verdict of the independent rotation-system search, for reports."""

    realizable: bool
    agrees: bool
    handedness: tuple[int, ...] | None  # planar rotation system, if any

    def document(self) -> dict:
        return {
            "realizable": self.realizable,
            "agrees": self.agrees,
            "handedness": (
                None if self.handedness is None else list(self.handedness)
            ),
        }


@dataclass(frozen=True)
class RealizabilityReport:
    word: GaussWord
    kink_free_word: GaussWord
    realizable: bool
    witness: EvenConditionViolation | SmoothingViolation | None
    cross_check: OracleCrossCheck | None = None

    def headline(self) -> str:
        if self.realizable:
            return "realizable"
        w = self.witness
        if isinstance(w, EvenConditionViolation):
            return "non-realizable: even condition fails on %s" % w.first.subject()
        return "non-realizable: smoothing chord %s breaks even condition on %s" % (
            w.chord,
            w.report.violations[0].subject(),
        )

    def document(self) -> dict:
        return {
            "word": self.word.text(),
            "kink_free_word": self.kink_free_word.text(),
            "verdict": "realizable" if self.realizable else "non-realizable",
            "witness": None if self.witness is None else self.witness.document(),
            "cross_check": (
                None if self.cross_check is None else self.cross_check.document()
            ),
        }


def _even(rows) -> bool:
    """The even condition on crossing rows, as A² ⊆ A over GF(2).

    Bit x of the XOR of ``rows[b]`` over the chords b crossing a is the
    parity of the partners a and x share; bit a is the parity of a's own
    crossing count.  So every set bit outside ``rows[a]`` is a violation.
    """
    for row in rows:
        square = 0
        rest = row
        while rest:
            low = rest & -rest
            square ^= rows[low.bit_length() - 1]
            rest ^= low
        if square & ~row:
            return False
    return True


def remove_isolated(diagram: ChordDiagram) -> ChordDiagram:
    """Drop every chord that crosses nothing.

    One pass suffices: deleting a chord's two word positions never changes
    which of the remaining chords interleave, so no new isolated chords
    can appear.
    """
    return _drop_kinks(diagram, interlacement(diagram).rows)


def _drop_kinks(diagram: ChordDiagram, rows) -> ChordDiagram:
    """The diagram without the chords whose crossing ``rows`` are empty."""
    if all(rows):
        return diagram
    keep = tuple(
        s
        for p, s in enumerate(diagram.word.symbols)
        if rows[diagram.position_chord[p]]
    )
    return diagram_from_word(GaussWord(keep))


def is_realizable(diagram: ChordDiagram) -> RealizabilityReport:
    """Decide realizability: even condition for the diagram and all smoothings.

    The verdict is computed on the crossing rows of the diagram as given,
    with each smoothing taken by the toggle rule: kinks are empty rows,
    which never break the even condition and whose smoothing changes
    nothing, so the verdict is that of the kink-free diagram.  The witness
    for a non-realizable verdict is the least one in search order: a
    violation of the kink-free diagram itself if there is one, otherwise
    the first chord (in index order) whose smoothing violates, with that
    smoothing's full violation list.  Only that witness is labelled,
    through ``even_condition`` and the word rule on the kink-free diagram.
    """
    rows = interlacement(diagram).rows
    reduced = _drop_kinks(diagram, rows)
    witness: EvenConditionViolation | SmoothingViolation | None = None
    if not _even(rows):
        witness = EvenConditionViolation(report=even_condition(reduced))
    else:
        for c, row in enumerate(rows):
            if row and not _even(toggle_rows(rows, c)):
                result = smooth_by_word(reduced, diagram.labels[c])
                witness = SmoothingViolation(
                    chord=diagram.labels[c],
                    smoothed_word=result.word,
                    report=even_condition(result.diagram),
                )
                break
    return RealizabilityReport(
        word=diagram.word,
        kink_free_word=reduced.word,
        realizable=witness is None,
        witness=witness,
    )


def _check_violation(diagram, rows, violation) -> None:
    labels = diagram.labels
    if isinstance(violation, ChordParityViolation):
        c = diagram.index_of(violation.chord)
        names = tuple(
            sorted((labels[x] for x in iter_bits(rows[c])), key=_label_key)
        )
        if names != violation.crossings:
            raise WitnessMismatch(
                "chord %s crosses %s, not %s"
                % (violation.chord, names, violation.crossings)
            )
        if len(names) % 2 == 0:
            raise WitnessMismatch(
                "chord %s crosses an even number of chords" % violation.chord
            )
        return
    a = diagram.index_of(violation.pair[0])
    b = diagram.index_of(violation.pair[1])
    if rows[a] >> b & 1:
        raise WitnessMismatch("pair (%s, %s) crosses" % violation.pair)
    shared = rows[a] & rows[b]
    names = tuple(sorted((labels[x] for x in iter_bits(shared)), key=_label_key))
    if names != violation.shared:
        raise WitnessMismatch(
            "pair (%s, %s) shares %s, not %s"
            % (violation.pair + (names, violation.shared))
        )
    if len(names) % 2 == 0:
        raise WitnessMismatch(
            "pair (%s, %s) shares an even number of crossings" % violation.pair
        )


def verify_witness(diagram: ChordDiagram, report: RealizabilityReport) -> bool:
    """Re-check a report's named evidence by direct recomputation.

    Verifies only what the witness claims (the exact crossing sets of the
    named chord or pair, after the named smoothing if any) — not the
    search that found it.  Raises ``WitnessMismatch`` on the first claim
    that fails; returns True when every claim checks out.
    """
    if report.word != diagram.word:
        raise WitnessMismatch("report was produced for a different word")
    reduced = remove_isolated(diagram)
    if report.kink_free_word != reduced.word:
        raise WitnessMismatch("kink removal disagrees with the report")
    witness = report.witness
    if report.realizable:
        if witness is not None:
            raise WitnessMismatch("realizable report carries a witness")
        return True
    if witness is None:
        raise WitnessMismatch("non-realizable report carries no witness")
    if isinstance(witness, EvenConditionViolation):
        target = reduced
    else:
        result = smooth_by_word(reduced, witness.chord)
        if result.word != witness.smoothed_word:
            raise WitnessMismatch(
                "smoothing chord %s yields %r, not %r"
                % (witness.chord, result.word.text(), witness.smoothed_word.text())
            )
        target = result.diagram
    violations = witness.report.violations
    if not violations:
        raise WitnessMismatch("witness names no violation")
    rows = interlacement(target).rows
    for violation in violations:
        _check_violation(target, rows, violation)
    return True
