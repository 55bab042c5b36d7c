"""The bitset criterion against the labelled word-rule search it replaced.

``is_realizable`` decides on GF(2) crossing rows and labels only the first
failure.  ``_word_rule_reference`` keeps the plain search (the even
condition of the diagram, then of every smoothing built by the word
rule) as the reference: both must give the same document on every input.
``_pairwise_rows`` keeps the definition of crossing ("exactly one endpoint
strictly inside") as the reference for the rows ``interlacement`` builds.
``_even`` squares the rows outright and ``toggle_rows`` rebuilds each
smoothing; together they are the reference for the triangle rule that
checks every smoothing at once.  The rule holds only
where the diagram itself passes the even condition, so the per-chord
predicate ``_triangles_odd`` is checked there, and ``_decide`` everywhere.
``_squares`` builds A² one chord pair at a time, as the reference for
the prefix XOR of ``_square_rows`` that builds it for ``_decide`` and
``even_condition``.
``_pairwise_violations`` lists the even condition's violations one chord
pair at a time, as the reference for the rows of A² that
``even_condition`` reads them from.
``_triangle_only_decide`` is ``_decide`` without the cocycle fast path,
the triangle loop on every diagram that passes the base check: the
reference for the shortcut, which must change no result, on the inputs
above and on words nested from blocks of every verdict kind.
``_brute_cocycle`` tries every h: chords → GF(2) against every crossing
pair, as the reference for the breadth-first search of ``_cocycle``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussreal import (
    diagram_from_word,
    even_condition,
    exists_colorful_witness,
    interlacement,
    is_realizable,
    oracle_realizable,
)
from gaussreal.core import _label_key
from gaussreal.realizability import (
    ChordParityViolation,
    EvenConditionViolation,
    PairParityViolation,
    RealizabilityReport,
    SmoothingViolation,
    _cocycle,
    _decide,
    _square_rows,
    _triangles_odd,
    remove_isolated,
)
from gaussreal.smoothing import smooth_by_word, toggle_rows

MAX_CHORDS = 7
# Not a plane curve, yet it and all nine smoothings satisfy the even
# condition: the paper's checks are necessary but not sufficient.
NON_PLANE_9 = "1 2 3 4 5 1 6 7 2 3 8 9 7 6 4 5 9 8"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Every canonical diagram with 8 chords whose first failing check is a
# smoothing; the tests meet only 4 such diagrams below 8 chords.
SMOOTHING_FAILURES_8 = (
    Path(__file__).resolve().parent / "data" / "smoothing_failures_8.txt"
)
# Multi-digit numerals, letters of both cases, and numerals that
# _label_key reads as the same int (7, 07, +7, 007).
MIXED_LABELS = ["7", "07", "+7", "007", "10", "010", "9", "100", "11", "a", "A"]
MIXED_LABELS += ["b", "B", "z", "Z", "x1", "X1", "x10", "x2"]
MIXED_LABELS += [str(c) for c in range(20, 40)] + list("cdefghijk")


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


def _squares(rows) -> list[int]:
    """Rows of A², one chord pair at a time."""
    return [
        sum(1 << x for x in range(len(rows)) if (row & rows[x]).bit_count() % 2)
        for row in rows
    ]


def _evens(rows) -> list[int]:
    """Each chord's crossing partners with which it shares an even number."""
    return [row & ~square for row, square in zip(rows, _squares(rows))]


def _crossing_pairs(rows) -> list[tuple[int, int]]:
    return [(a, b) for a, row in enumerate(rows) for b in range(a) if row >> b & 1]


def _solves(h: int, pairs, evens) -> bool:
    """Whether h_a + h_b = E[a][b] on every crossing pair."""
    return all((h >> a ^ h >> b) & 1 == evens[a] >> b & 1 for a, b in pairs)


def _brute_cocycle(rows, evens) -> bool:
    """Whether some h of the 2^n solves the cocycle condition."""
    pairs = _crossing_pairs(rows)
    return any(_solves(h, pairs, evens) for h in range(1 << len(rows)))


def _triangle_only_decide(diagram, rows) -> int | None:
    """``_decide`` with the triangle loop on every diagram that passes the base."""
    for row in rows:
        if row.bit_count() & 1:
            return -1
    evens = []
    squares = _square_rows(diagram.position_chord, diagram.endpoints, rows)
    for row, square in zip(rows, squares):
        if square & ~row:
            return -1
        evens.append(row & ~square)
    for c, row in enumerate(rows):
        if not _triangles_odd(rows, evens, c, row >> c + 1 << c + 1):
            return c
    return None


def _assert_triangle_rule_matches_the_toggle(diagram) -> None:
    """Every smoothing, kinks included, where the base check holds.

    ``_decide`` and ``_triangle_only_decide`` are checked on every input,
    whether or not the base holds.
    """
    rows = interlacement(diagram).rows
    context = diagram.word.text()
    smoothings = [_even(toggle_rows(rows, c)) for c in range(len(rows))]
    base = _even(rows)
    if base:
        evens = _evens(rows)
        for c, expected in enumerate(smoothings):
            assert _triangles_odd(rows, evens, c, rows[c]) == expected, (context, c)
    failed = (c for c, even in enumerate(smoothings) if rows[c] and not even)
    expected = next(failed, None) if base else -1
    decided = _decide(diagram.position_chord, diagram.endpoints, rows)
    assert decided == expected, context
    assert _triangle_only_decide(diagram, rows) == expected, context


def _word_rule_reference(diagram) -> RealizabilityReport:
    reduced = remove_isolated(diagram)
    base = even_condition(reduced)
    witness = None
    if not base.holds:
        witness = EvenConditionViolation(report=base)
    else:
        for c in range(reduced.n):
            result = smooth_by_word(reduced, reduced.labels[c])
            report = even_condition(result.diagram)
            if not report.holds:
                witness = SmoothingViolation(
                    chord=reduced.labels[c],
                    smoothed_word=result.word,
                    report=report,
                )
                break
    return RealizabilityReport(
        word=diagram.word,
        kink_free_word=reduced.word,
        realizable=witness is None,
        witness=witness,
    )


def _assert_same_report(diagram) -> None:
    expected = _word_rule_reference(diagram).document()
    assert is_realizable(diagram).document() == expected, diagram.word.text()


def _pairwise_rows(diagram, size, index_of) -> list[int]:
    """Crossing rows by definition, chord a renamed ``index_of[a]``.

    Chords a and b cross when exactly one endpoint of b lies strictly
    between the endpoints of a.
    """
    rows = [0] * size
    for a, (p, q) in enumerate(diagram.endpoints):
        for b, (r, s) in enumerate(diagram.endpoints):
            if (p < r < q) != (p < s < q):
                rows[index_of[a]] |= 1 << index_of[b]
    return rows


def _pairwise_violations(diagram) -> tuple:
    """The even condition's violations by definition, in label order.

    A chord that crosses an odd number of chords, and then a pair that
    does not cross and shares an odd number of partners.
    """
    n = diagram.n
    rows = _pairwise_rows(diagram, n, range(n))
    labels = diagram.labels

    def names(bits):
        return tuple(sorted((labels[x] for x in range(n) if bits >> x & 1), key=_label_key))

    chords = [
        ChordParityViolation(chord=labels[a], crossings=names(rows[a]))
        for a in range(n)
        if rows[a].bit_count() % 2
    ]
    pairs = [
        PairParityViolation(
            pair=tuple(sorted((labels[a], labels[b]), key=_label_key)),
            shared=names(rows[a] & rows[b]),
        )
        for a in range(n)
        for b in range(a + 1, n)
        if not rows[a] >> b & 1 and (rows[a] & rows[b]).bit_count() % 2
    ]
    chords.sort(key=lambda v: _label_key(v.chord))
    pairs.sort(key=lambda v: tuple(_label_key(x) for x in v.pair))
    return tuple(chords + pairs)


def test_even_condition_lists_the_violations_of_the_pairwise_definition(
    canonical_by_n, monkeypatch
):
    # Canonical chords are numbered in label order; a mutant's first
    # occurrences, read forwards or backwards, mostly are not.  Each mutant
    # is also relabelled with labels of mixed kinds, some of which
    # _label_key reads as the same int.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from polygons import mutate, polygon_words

    diagrams = [d for n in range(MAX_CHORDS + 1) for d in canonical_by_n(n)]
    rng = random.Random(13)
    for words in polygon_words(rng, range(10, 41), 2).values():
        for word in words:
            tokens = mutate(rng, word)
            names = rng.sample(MIXED_LABELS, len(tokens) // 2)
            for labelled in (tokens, [names[int(t) - 1] for t in tokens]):
                diagrams.append(diagram_from_word(" ".join(labelled)))
                diagrams.append(diagram_from_word(" ".join(reversed(labelled))))
    for d in diagrams:
        assert even_condition(d).violations == _pairwise_violations(d), d.word.text()


@pytest.fixture(scope="module")
def pools(canonical_by_n) -> dict[str, list]:
    """Canonical diagrams with at least one chord, by reference verdict kind."""
    out: dict[str, list] = {}
    for n in range(1, MAX_CHORDS + 1):
        for d in canonical_by_n(n):
            witness = _word_rule_reference(d).witness
            kind = "realizable" if witness is None else type(witness).__name__
            out.setdefault(kind, []).append(d)
    return out


def test_documents_match_on_every_canonical_diagram(canonical_by_n):
    for n in range(MAX_CHORDS + 1):
        for d in canonical_by_n(n):
            _assert_same_report(d)


def test_documents_match_on_star_words_past_one_machine_word():
    # Every chord of 0 .. k-1 0 .. k-1 crosses all the others: odd k is
    # realizable and even k fails on chord 0, with rows of k bits.
    for k in (63, 64, 65, 66):
        star = " ".join([str(c) for c in range(k)] * 2)
        _assert_same_report(diagram_from_word(star))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_documents_match_on_rotated_relabelled_kinked_words(pools, data):
    # Base failures dominate the canonical diagrams, so draw the verdict
    # kind first: realizable words and smoothing witnesses get their share.
    kind = data.draw(st.sampled_from(sorted(pools)))
    tokens = data.draw(st.sampled_from(pools[kind])).word.text().split()
    shift = data.draw(st.integers(0, max(len(tokens) - 1, 0)))
    tokens = tokens[shift:] + tokens[:shift]
    if data.draw(st.booleans()):
        tokens.reverse()
    names = data.draw(st.permutations([str(100 + c) for c in range(MAX_CHORDS)]))
    tokens = [names[int(t) - 1] for t in tokens]
    kinks = st.lists(st.integers(0, 2 * MAX_CHORDS), max_size=3, unique=True)
    for kink in data.draw(kinks):
        j = data.draw(st.integers(0, len(tokens)))
        tokens[j:j] = ["k%d" % kink] * 2
    _assert_same_report(diagram_from_word(" ".join(tokens)))


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.integers(0, 80).flatmap(
        lambda n: st.permutations([str(c) for c in range(n)] * 2)
    )
)
def test_interlacement_rows_match_the_pairwise_definition(tokens):
    # Rows past 64 bits span several machine words.
    d = diagram_from_word(" ".join(tokens))
    assert list(interlacement(d).rows) == _pairwise_rows(d, d.n, range(d.n))


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.integers(0, 80).flatmap(
        lambda n: st.permutations([str(c) for c in range(n)] * 2)
    )
)
def test_prefix_xor_squares_match_the_pairwise_squares(tokens):
    d = diagram_from_word(" ".join(tokens))
    rows = interlacement(d).rows
    assert _square_rows(d.position_chord, d.endpoints, rows) == _squares(rows)


def test_bitset_even_condition_matches_the_labelled_one(canonical_by_n):
    for n in range(1, MAX_CHORDS):
        for d in canonical_by_n(n):
            rows = interlacement(d).rows
            assert list(rows) == _pairwise_rows(d, d.n, range(d.n)), d.word.text()
            assert _even(rows) == even_condition(d).holds, d.word.text()


def test_toggled_rows_match_the_word_rule_smoothing(canonical_by_n):
    for n in range(1, MAX_CHORDS):
        for d in canonical_by_n(n):
            rows = interlacement(d).rows
            for c, label in enumerate(d.labels):
                smoothed = smooth_by_word(d, label).diagram
                index_of = [d.index_of(lab) for lab in smoothed.labels]
                expected = _pairwise_rows(smoothed, d.n, index_of)
                assert toggle_rows(rows, c) == expected, (d.word.text(), label)


def test_triangle_rule_matches_the_toggle_on_every_canonical_diagram(
    canonical_by_n,
):
    for n in range(MAX_CHORDS + 1):
        for d in canonical_by_n(n):
            _assert_triangle_rule_matches_the_toggle(d)


def test_every_smoothing_failure_with_eight_chords():
    lines = SMOOTHING_FAILURES_8.read_text(encoding="utf-8").splitlines()
    words = [line for line in lines if not line.startswith("#")]
    assert len(words) == 30
    for word in words:
        d = diagram_from_word(word)
        rows = interlacement(d).rows
        assert _decide(d.position_chord, d.endpoints, rows) not in (None, -1), word
        _assert_triangle_rule_matches_the_toggle(d)
        _assert_same_report(d)
        assert oracle_realizable(d) is None, word


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.integers(0, 40).flatmap(
        lambda n: st.permutations([str(c) for c in range(n)] * 2)
    )
)
def test_triangle_rule_matches_the_toggle_on_random_words(tokens):
    _assert_triangle_rule_matches_the_toggle(diagram_from_word(" ".join(tokens)))


def test_triangle_rule_matches_the_toggle_on_polygon_words(monkeypatch):
    # Polygon words are plane curves: every smoothing holds, and _cocycle
    # finds an h, on more chords than the brute force below can try.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from polygons import polygon_words

    for n, words in polygon_words(random.Random(11), range(10, 61), 1).items():
        d = diagram_from_word(" ".join(words[0]))
        rows = interlacement(d).rows
        assert _decide(d.position_chord, d.endpoints, rows) is None, n
        _assert_triangle_rule_matches_the_toggle(d)
        evens = _evens(rows)
        h = _cocycle(rows, evens)
        assert h is not None and _solves(h, _crossing_pairs(rows), evens), n


def test_paper_checks_accept_a_non_plane_diagram_with_nine_chords():
    d = diagram_from_word(NON_PLANE_9)
    rows = interlacement(d).rows
    assert all(rows) and _even(rows)
    for c, label in enumerate(d.labels):
        assert _even(toggle_rows(rows, c)), label
        assert even_condition(smooth_by_word(d, label).diagram).holds, label
    assert _decide(d.position_chord, d.endpoints, rows) is None
    assert _triangle_only_decide(d, rows) is None
    assert _cocycle(rows, _evens(rows)) is None
    assert not _brute_cocycle(rows, _evens(rows))
    assert is_realizable(d).realizable
    assert oracle_realizable(d) is None
    assert exists_colorful_witness(d) is None


def _assert_cocycle_matches_the_brute_force(rows, evens, context) -> bool:
    h = _cocycle(rows, evens)
    assert (h is not None) == _brute_cocycle(rows, evens), context
    if h is not None:
        assert 0 <= h < 1 << len(rows), context
        assert _solves(h, _crossing_pairs(rows), evens), context
    return h is not None


def test_cocycle_matches_the_brute_force_on_every_canonical_diagram(canonical_by_n):
    # Most of these fail the even condition, where evens are still
    # symmetric and the question still stands.
    found = {True: 0, False: 0}
    for n in range(7):
        for d in canonical_by_n(n):
            rows = interlacement(d).rows
            evens = _evens(rows)
            context = d.word.text()
            found[_assert_cocycle_matches_the_brute_force(rows, evens, context)] += 1
    assert found[True] and found[False], found


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.integers(0, 12).flatmap(
        lambda n: st.permutations([str(c) for c in range(n)] * 2)
    ),
    data=st.data(),
)
def test_cocycle_matches_the_brute_force_on_random_words(tokens, data):
    # Random words rarely have an h, so each word is also tried with evens
    # planted from a drawn h, then with one crossing pair's term flipped.
    d = diagram_from_word(" ".join(tokens))
    rows = interlacement(d).rows
    context = d.word.text()
    _assert_cocycle_matches_the_brute_force(rows, _evens(rows), context)
    h = data.draw(st.integers(0, (1 << d.n) - 1))
    planted = [row & (~h if h >> a & 1 else h) for a, row in enumerate(rows)]
    assert _assert_cocycle_matches_the_brute_force(rows, planted, context)
    pairs = _crossing_pairs(rows)
    if pairs:
        a, b = data.draw(st.sampled_from(pairs))
        planted[a] ^= 1 << b
        planted[b] ^= 1 << a
        _assert_cocycle_matches_the_brute_force(rows, planted, context)


@pytest.fixture(scope="module")
def blocks(pools) -> list[list[str]]:
    """Words of every verdict kind, up to 40 chords, to nest into each other.

    A word inserted whole into another crosses none of its chords, so the
    crossing graph of the result is the disjoint union of theirs: realizable
    polygons beside diagrams that fail the base, a smoothing or only the
    cocycle condition.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        from polygons import mutate, polygon_words
    rng = random.Random(23)
    out = [NON_PLANE_9.split()]
    lines = SMOOTHING_FAILURES_8.read_text(encoding="utf-8").splitlines()
    out += [line.split() for line in lines if not line.startswith("#")]
    for kind in sorted(pools):
        pool = pools[kind]
        out += [d.word.text().split() for d in rng.sample(pool, min(len(pool), 10))]
    for words in polygon_words(rng, range(10, 41, 3), 1).values():
        out += [words[0], mutate(rng, words[0])]
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decide_matches_the_triangle_loop_on_nested_relabelled_kinked_words(
    blocks, data
):
    names = iter(
        data.draw(st.permutations(MIXED_LABELS + ["m%d" % c for c in range(60)]))
    )
    tokens: list[str] = []
    for _ in range(data.draw(st.integers(1, 3))):
        block = data.draw(st.sampled_from(blocks))
        if len(set(tokens)) + len(set(block)) > 60:
            break
        rename = dict(zip(dict.fromkeys(block), names))
        j = data.draw(st.integers(0, len(tokens)))
        tokens[j:j] = [rename[t] for t in block]
    shift = data.draw(st.integers(0, max(len(tokens) - 1, 0)))
    tokens = tokens[shift:] + tokens[:shift]
    if data.draw(st.booleans()):
        tokens.reverse()
    for kink in data.draw(st.lists(st.integers(0, 9), max_size=3, unique=True)):
        j = data.draw(st.integers(0, len(tokens)))
        tokens[j:j] = ["kink%d" % kink] * 2
    d = diagram_from_word(" ".join(tokens))
    rows = interlacement(d).rows
    decided = _decide(d.position_chord, d.endpoints, rows)
    assert decided == _triangle_only_decide(d, rows), d.word.text()
