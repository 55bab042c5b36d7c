"""Plane-curve realizability of Gauss diagrams via the even condition.

A realizable diagram satisfies the *even condition*: every chord crosses
an even number of chords, and every two non-crossing chords share an even
number of crossing partners.  The condition is necessary but not
sufficient; the criterion implemented by ``is_realizable`` is the paper's:
the diagram *and every single-chord smoothing of it* satisfy the even
condition.  That too is necessary but not sufficient: the nine-chord
diagram 1 2 3 4 5 1 6 7 2 3 8 9 7 6 4 5 9 8 passes it and is no plane
curve.

Isolated chords (crossing nothing) are curls of the curve: they never
affect anyone's crossing sets, so the verdict is that of the kink-free
rest, and witnesses are stated on that rest; the empty diagram is the
plain circle.  Reports name their evidence — a parity-violating chord or
pair, possibly inside a named smoothing — with enough payload (the exact
crossing sets and the smoothed word) for ``verify_witness`` to re-check
by recomputation without repeating the search.

Verdicts ride on the crossing rows of ``gaussreal.core`` (one bitset row
per chord), read as a symmetric matrix A over GF(2) with zero diagonal:
the even condition says exactly that S = A² lies inside A entrywise
(de Fraysseix & Ossona de Mendez, "On a characterization of Gauss
codes", 1999).  Given that, smoothing chord c keeps the even condition
iff every *triangle* on c is odd: for every two chords a, b that cross
each other and both cross c, S[a][b] + S[a][c] + S[b][c] = 1 (mod 2).
With u = A[c] and M = A with row and column c cleared, the smoothed
matrix is A' = M + uuᵀ + diag(u), and expanding A'² over GF(2) gives,
for a ≠ b,

    A'²[a][b] = S[a][b] + u_b·S[a][c] + u_a·S[b][c]
                + (u_a + u_b)·A[a][b] + u_a·u_b·(|u| + 1).

A pair that crosses in A' constrains nothing.  For a pair that does
not, with u_a·u_b = 0, every term is 0 by the base condition, since
S[x][c] = 0 when x does not cross c; on the diagonal the entry is
S[a][a] + u_a·|u|, and every row has even weight.  When a and b both
cross c, they cross in A' iff they did not in A, and |u| is even, which
leaves the triangle rule.  So one pass over the crossing pairs checks
every smoothing, and ``smoothing.toggle_rows`` is the reference the rule
is tested against.  The rule is the *cocycle condition* of the same
paper on 3-cycles only, which is why the diagram above passes it: its
odd cycle is longer than 3.  The cocycle condition asks for some
h: chords → GF(2) with h_a + h_b = 1 + S[a][b] for every crossing pair
a, b.  Write E[a][b] = 1 + S[a][b] for a crossing pair, the bits that
``_decide`` keeps as ``evens``.  Given an h, the E-terms of a triangle
a, b, c sum to (h_a + h_b) + (h_b + h_c) + (h_c + h_a) = 0, so its
S-terms sum to 1 and the triangle is odd.  So when ``_cocycle`` finds an
h, in O(n) row operations, every smoothing keeps the even condition and
``_decide`` returns at once; only when no h exists does it run the
triangle loop, O(n²) row operations, to name the first failing
smoothing, or none, as on the diagram above.  The cocycle condition
changes no verdict here: it only skips the loop.
Witnesses ride on the word rule for smoothing and on chord labels, and
are built only for the first check that fails.  The rotation-system
route in ``gaussreal.oracle`` shares none of this code and is used to
cross-validate these verdicts exhaustively.
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
from .smoothing import smooth_by_word


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
    return _even_report(diagram, interlacement(diagram).rows)


def _even_report(diagram: ChordDiagram, rows) -> EvenConditionReport:
    """``even_condition`` on the diagram with crossing rows ``rows``.

    Bit b of row a of S = A² is the parity of the partners a and b share
    (for b = a, of the chords a crosses), so the violations are the bits
    of S outside A.  Row a of S is the XOR of the rows of the chords
    crossing a, which ``_square_rows`` gives for every a at once.  The
    chords are sorted by label once, into ``order``, and ``rank`` is each
    chord's place in it.  Violations are read off in that order, each
    pair from its chord that comes first; the names in one violation are
    the labels of its set bits, sorted by rank.
    """
    labels = diagram.labels
    order = sorted(range(diagram.n), key=lambda c: _label_key(labels[c]))
    ranked = [labels[c] for c in order]
    rank = [0] * diagram.n
    for i, c in enumerate(order):
        rank[c] = i

    def names(bits) -> tuple[str, ...]:
        ranks = []
        while bits:
            low = bits & -bits
            ranks.append(rank[low.bit_length() - 1])
            bits ^= low
        ranks.sort()
        return tuple([ranked[i] for i in ranks])

    chord_violations = []
    pair_violations = []
    squares = _square_rows(diagram.position_chord, diagram.endpoints, rows)
    for i, a in enumerate(order):
        row = rows[a]
        odd = squares[a] & ~row
        if odd >> a & 1:
            chord_violations.append(
                ChordParityViolation(chord=labels[a], crossings=names(row))
            )
        if odd:
            for b in order[i + 1 :]:
                if odd >> b & 1:
                    pair_violations.append(
                        PairParityViolation(
                            pair=(labels[a], labels[b]), shared=names(row & rows[b])
                        )
                    )
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


def _square_rows(position_chord, endpoints, rows) -> list[int]:
    """The rows of S = A² for the crossing ``rows`` of a diagram.

    ``position_chord`` and ``endpoints`` are the diagram's: the chord at
    each circle position, and each chord's two positions.  Row a of S is
    the XOR of the rows of the chords crossing a, which is the XOR of the
    rows at the positions strictly between a's endpoints, since a chord
    with both endpoints there cancels.  ``prefix[i]`` is the XOR over the
    positions before i, so every row takes one XOR of two prefixes, 3n
    XORs in all.
    """
    prefix = [0]
    for c in position_chord:
        prefix.append(prefix[-1] ^ rows[c])
    return [prefix[q] ^ prefix[p + 1] for p, q in endpoints]


def _decide(position_chord, endpoints, rows) -> int | None:
    """The first check that fails on a diagram, or None if all hold.

    The diagram is given as ``_square_rows`` takes it: its
    ``position_chord``, its ``endpoints`` and its crossing ``rows``.  The
    sweep reads all three off a canonical key and builds no
    ``ChordDiagram``; ``is_realizable`` passes a diagram's.  -1 names the
    even condition on the diagram itself, and c >= 0 the smoothing of
    chord c.  A bit of S = A² outside A fails the even condition: first
    the diagonal, a chord crossing an odd number of chords, which most
    failing diagrams show at once, then the rows of S from
    ``_square_rows``, as in ``even_condition``.  Otherwise each chord keeps the partners with
    which it shares an even number of chords.  If ``_cocycle`` finds an h,
    every triangle is odd (module docstring), so every smoothing holds,
    at the cost of O(n) row operations.  If not, each smoothing is
    checked by the triangle rule, O(n²) row operations in all.
    A failing triangle fails the smoothing of each of its chords, so the
    first failing chord is the least chord of a failing triangle, and
    chord c need only look at triangles whose other chords lie above c.
    Kinks are empty rows and close no triangle, so they always pass.
    """
    for row in rows:
        if row.bit_count() & 1:  # S[a][a] = 1 lies outside A
            return -1
    evens = []
    for row, square in zip(rows, _square_rows(position_chord, endpoints, rows)):
        if square & ~row:
            return -1
        evens.append(row & ~square)
    if _cocycle(rows, evens) is not None:
        return None
    for c, row in enumerate(rows):
        if not _triangles_odd(rows, evens, c, row >> c + 1 << c + 1):
            return c
    return None


def _cocycle(rows, evens) -> int | None:
    """A solution h of the cocycle condition as a bitmask, or None.

    ``evens[a]`` holds the partners b of a with E[a][b] = 1, so h must
    give h_a + h_b = E[a][b] on every crossing pair.  One breadth-first
    search per component of the crossing graph fixes h: the root gets 0,
    and each new neighbour b of a gets h_a + E[a][b].  One pass then
    checks every chord a: the partners whose h differs from h_a must be
    exactly ``evens[a]``.
    """
    h = 0
    unseen = (1 << len(rows)) - 1
    while unseen:
        queue = [(unseen & -unseen).bit_length() - 1]
        unseen &= unseen - 1
        for a in queue:
            new = rows[a] & unseen
            if new:
                unseen ^= new
                h |= new & (~evens[a] if h >> a & 1 else evens[a])
                queue.extend(iter_bits(new))
    for a, row in enumerate(rows):
        if (~h if h >> a & 1 else h) & row != evens[a]:
            return None
    return h


def _triangles_odd(rows, evens, c: int, among: int) -> bool:
    """Whether every triangle c, a, b with a in ``among`` is odd.

    ``among`` is a subset of ``rows[c]``, and ``evens[x]`` holds the
    partners y of x with S[x][y] = 0.  For a chord a crossing c, the
    chords b crossing both are ``rows[a] & rows[c]``, and the triangle
    c, a, b is odd iff bit b of ``evens[a] ^ evens[c]`` equals bit a of
    ``evens[c]``.  Needs the base even condition.
    """
    even_c = evens[c]
    u = rows[c]
    while among:
        low = among & -among
        a = low.bit_length() - 1
        common = rows[a] & u
        if (evens[a] ^ even_c) & common != (common if even_c & low else 0):
            return False
        among ^= low
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

    The verdict is ``_decide`` on the crossing rows of the diagram as
    given, which is that of the kink-free diagram.  The witness for a
    non-realizable verdict is the least one in search order: a violation
    of the kink-free diagram itself if there is one, otherwise the first
    chord (in index order) whose smoothing violates, with that smoothing's
    full violation list.  Only that witness is labelled, through
    ``even_condition`` and the word rule on the kink-free diagram; when
    there are no kinks, the diagram's own rows serve.
    """
    rows = interlacement(diagram).rows
    failed = _decide(diagram.position_chord, diagram.endpoints, rows)
    reduced = _drop_kinks(diagram, rows)
    witness: EvenConditionViolation | SmoothingViolation | None = None
    if failed == -1:
        if reduced is diagram:
            report = _even_report(diagram, rows)
        else:
            report = even_condition(reduced)
        witness = EvenConditionViolation(report=report)
    elif failed is not None:
        result = smooth_by_word(reduced, diagram.labels[failed])
        witness = SmoothingViolation(
            chord=diagram.labels[failed],
            smoothed_word=result.word,
            report=even_condition(result.diagram),
        )
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
