"""Core combinatorics: double occurrence words, chord diagrams, interlacement.

Conventions used throughout the package:

- A *Gauss word* is a cyclic sequence of 2n symbols in which every symbol
  occurs exactly twice.  We store one linear representative; all derived
  notions (interlacement, contours, smoothing) only depend on the cyclic
  word, and the canonical form quotients out the choice of representative.

- Symbols ("labels") are opaque strings.  Internally every chord gets an
  index in 0..n-1 ordered by the first occurrence of its label, and the two
  occurrences of chord i sit at circle positions ``endpoints[i] = (p, q)``
  with ``p < q``.  Positions are 0..2n-1 counted along the stored word.

- Chords a and b are *interlaced* (they cross) when exactly one endpoint of
  b lies strictly between the endpoints of a along the circle.  The
  crossing relation is stored once, as one int row per chord: bit b of
  ``rows[a]`` is set iff a and b cross.  Read as a symmetric matrix over
  GF(2), these rows are what the criterion and the toggle rule work on;
  ``Interlacement.crossings`` decodes them into index sets for callers
  that want sets.

- Only ``_chord_pass`` reads endpoints and crossing rows off a word of
  chord indices.  ``diagram_from_word`` hands it the numbered tokens,
  ``CanonicalForm.diagram`` and the sweep of ``gaussreal.enumeration`` a
  canonical key, which is already such a word.  A diagram keeps the rows
  as ``crossing_rows``, and ``interlacement`` reads them from there.

- The canonical form of a word is the lexicographically least sequence of
  first-occurrence indices over all 2n rotations and both reading
  directions.  Two words are equivalent (same diagram up to rotation,
  reflection and relabelling) iff their canonical keys are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import _kernels


class MalformedWord(ValueError):
    """The token sequence is not a double occurrence word."""


class UnknownChord(KeyError):
    """A chord label that does not occur in the diagram."""


def _label_key(label: str):
    """Sort key giving numeric labels their numeric order ("2" < "10")."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


@dataclass(frozen=True)
class GaussWord:
    """A validated double occurrence word (possibly empty)."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        counts: dict[str, int] = {}
        for sym in self.symbols:
            if not sym:
                raise MalformedWord("empty token")
            counts[sym] = counts.get(sym, 0) + 1
        bad = [s for s, k in counts.items() if k != 2]
        if bad:
            raise MalformedWord(
                "every label must occur exactly twice; offending labels: %s"
                % " ".join(sorted(bad, key=_label_key))
            )

    @classmethod
    def from_tokens(cls, tokens) -> "GaussWord":
        return cls(tuple(str(t) for t in tokens))

    @property
    def n(self) -> int:
        return len(self.symbols) // 2

    def text(self) -> str:
        """Single-space separated token text (no trailing newline)."""
        return " ".join(self.symbols)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class ChordDiagram:
    """A Gauss word with chords resolved to indices and circle positions."""

    word: GaussWord
    labels: tuple[str, ...]  # chord index -> label, by first occurrence
    endpoints: tuple[tuple[int, int], ...]  # chord index -> (p, q), p < q

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def position_chord(self) -> tuple[int, ...]:
        """Circle position -> chord index."""
        out = [0] * (2 * self.n)
        for c, (p, q) in enumerate(self.endpoints):
            out[p] = c
            out[q] = c
        return tuple(out)

    @cached_property
    def crossing_rows(self) -> tuple[int, ...]:
        """Bit b of ``crossing_rows[a]`` is set iff chords a and b cross.

        ``diagram_from_word`` and ``CanonicalForm.diagram`` store these as
        they build the diagram; any other diagram reads them off its
        ``position_chord`` with ``_chord_pass``, since its chords are
        numbered by first occurrence.
        """
        return _chord_pass(self.position_chord)[1]

    @cached_property
    def index_by_label(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.index_by_label[str(label)]
        except KeyError:
            raise UnknownChord(
                "no chord labelled %r in word %r" % (label, self.word.text())
            ) from None

    def index_word(self) -> tuple[int, ...]:
        """The word rewritten as chord indices (first occurrences increasing)."""
        return tuple(self.position_chord)


def _double_occurrence_word(symbols: tuple[str, ...]) -> GaussWord:
    """A GaussWord built without ``GaussWord.__post_init__``.

    For callers that have already checked that every symbol is non-empty
    and occurs exactly twice, which is all ``__post_init__`` checks, so
    counting the symbols again would only cost time.
    """
    word = object.__new__(GaussWord)
    object.__setattr__(word, "symbols", symbols)
    return word


def _chord_pass(index_word) -> tuple[tuple, tuple, int]:
    """``(endpoints, rows, open)`` of a word of chord indices.

    ``index_word`` has 2n positions and chords 0..n-1, numbered by first
    occurrence: a chord occurs first exactly when its number is the next
    fresh one.  ``seen`` is the XOR of ``1 << c`` over the positions read
    so far, so a chord's row is ``seen`` just after its first end XOR
    ``seen`` just before its second: the chords with one end strictly
    between.  ``open`` is the final ``seen``, the chords that occur an odd
    number of times; it is 0 for a double occurrence word, and then the
    endpoints and rows are the diagram's.
    """
    n = len(index_word) >> 1
    starts = [0] * n
    endpoints = [(0, 0)] * n
    rows = [0] * n
    seen = 0
    fresh = 0
    for q, c in enumerate(index_word):
        if c == fresh:
            fresh += 1
            starts[c] = q
            seen ^= 1 << c
            rows[c] = seen
        else:
            endpoints[c] = (starts[c], q)
            rows[c] ^= seen
            seen ^= 1 << c
    return tuple(endpoints), tuple(rows), seen


def diagram_from_word(word: GaussWord | str | tuple[str, ...]) -> ChordDiagram:
    """Resolve a word into a chord diagram (indices by first occurrence).

    ``word`` is a GaussWord, its text, or its tokens as a tuple.  The
    tokens are numbered by first occurrence, and ``_chord_pass`` reads the
    endpoints and crossing rows off the index word.  The tokens form a
    double occurrence word iff no token is empty, there are twice as many
    tokens as labels, and the pass leaves no chord open (so each label
    occurs an even number of times, and hence exactly twice).  Tokens
    that fail raise GaussWord's MalformedWord, and tokens that pass need
    no GaussWord validation of their own.
    """
    if isinstance(word, GaussWord):
        symbols = word.symbols
    else:
        symbols = tuple(word.split() if isinstance(word, str) else word)
    index: dict[str, int] = {}
    number = index.setdefault
    index_word = tuple([number(sym, len(index)) for sym in symbols])
    bad = 2 * len(index) != len(symbols) or "" in index
    if not bad:  # n labels for 2n tokens, as the pass needs
        endpoints, rows, bad = _chord_pass(index_word)
    if bad:
        GaussWord(symbols)  # each of these fails its count, so this raises
    if not isinstance(word, GaussWord):
        word = _double_occurrence_word(symbols)
    diagram = ChordDiagram(word, tuple(index), endpoints)
    diagram.__dict__["position_chord"] = index_word
    diagram.__dict__["crossing_rows"] = rows
    return diagram


def word_from_positions(n: int, position_chord, labels=None) -> GaussWord:
    """Inverse of ``ChordDiagram.index_word`` (labels default to "1".."n")."""
    if labels is None:
        labels = tuple(str(i + 1) for i in range(n))
    return GaussWord.from_tokens(labels[c] for c in position_chord)


def iter_bits(row: int):
    """Indices of the set bits of ``row``, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


@dataclass(frozen=True)
class Interlacement:
    """The crossing relation of a diagram, as one bitset row per chord."""

    rows: tuple[int, ...]  # bit b of rows[a] is set iff chords a and b cross

    @property
    def n(self) -> int:
        return len(self.rows)

    def cross(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def isolated(self) -> frozenset[int]:
        return frozenset(c for c, row in enumerate(self.rows) if not row)

    @cached_property
    def crossings(self) -> tuple[frozenset[int], ...]:
        """The rows decoded into one chord-index set per chord."""
        return tuple(frozenset(iter_bits(row)) for row in self.rows)


def interlacement(diagram: ChordDiagram) -> Interlacement:
    """Which chords cross: exactly one endpoint strictly inside.

    The rows are the diagram's ``crossing_rows``, which
    ``diagram_from_word`` computed as it built the diagram.
    """
    return Interlacement(diagram.crossing_rows)


def crossing_labels(diagram: ChordDiagram, inter: Interlacement) -> dict[str, frozenset[str]]:
    """The crossing relation keyed by labels instead of indices."""
    labels = diagram.labels
    return {
        labels[c]: frozenset(labels[d] for d in iter_bits(row))
        for c, row in enumerate(inter.rows)
    }


@lru_cache(maxsize=None)
def _numerals(n: int) -> tuple[str, ...]:
    """The labels "1".."n" of a canonical word."""
    return tuple([str(c + 1) for c in range(n)])


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Canonical representative of a diagram's symmetry orbit.

    ``key`` is the minimal index word; ``word`` renders it with labels
    "1".."n".  Keys compare lexicographically, so CanonicalForm instances
    order the same way their orbits do.
    """

    key: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.key) // 2

    @cached_property
    def word(self) -> GaussWord:
        return GaussWord.from_tokens(str(c + 1) for c in self.key)

    def diagram(self) -> ChordDiagram:
        """``diagram_from_word(self.word)``, built from the key directly.

        A key whose chords 0..n-1 are numbered by first occurrence is its
        diagram's index word, with chord c labelled str(c + 1), so
        ``_chord_pass`` reads the diagram off it; a chord it leaves open
        occurs an odd number of times.  Any other key, and one with a chord
        left open, takes the word route, which raises the same
        MalformedWord.
        """
        key = self.key
        n = len(key) >> 1
        if 2 * n == len(key) and tuple(dict.fromkeys(key)) == tuple(range(n)):
            endpoints, rows, open_ = _chord_pass(key)
            if not open_:
                labels = _numerals(n)
                word = _double_occurrence_word(tuple([labels[c] for c in key]))
                diagram = ChordDiagram(word, labels, endpoints)
                diagram.__dict__["position_chord"] = key
                diagram.__dict__["crossing_rows"] = rows
                return diagram
        return diagram_from_word(self.word)


def canonicalize(diagram: ChordDiagram | GaussWord | str) -> CanonicalForm:
    """Least relabelled word over all rotations and both reading directions."""
    if not isinstance(diagram, ChordDiagram):
        diagram = diagram_from_word(diagram)
    return CanonicalForm(key=_kernels.canonical_key(diagram.index_word()))


def symmetry_variants(word: GaussWord):
    """All 4n rotated/reflected readings of a word (as token tuples).

    Used by tests to check that the canonical form is constant on orbits;
    the canonical key of every variant must coincide.
    """
    syms = word.symbols
    m = len(syms)
    for start in range(m):
        yield tuple(syms[(start + k) % m] for k in range(m))
        yield tuple(syms[(start - k) % m] for k in range(m))
