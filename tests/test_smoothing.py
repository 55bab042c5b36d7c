from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gaussreal import (
    GaussWord,
    UnknownChord,
    canonicalize,
    crossing_labels,
    diagram_from_word,
    enumerate_canonical,
    interlacement,
    smooth_by_toggle,
    smooth_by_word,
    surviving_labels,
)

# Two drawings of the same curve before/after smoothing the chord c.
BEFORE = "c 1 2 3 4 5 1 6 3 4 7 c 8 7 5 2 6 8"
AFTER = "1 2 3 4 5 1 6 3 4 7 8 6 2 5 7 8"


def _routes_agree(diagram, label) -> bool:
    """Word-rule result and crossing-toggle result describe the same diagram."""
    by_word = smooth_by_word(diagram, label)
    by_toggle = smooth_by_toggle(diagram, label)
    names = surviving_labels(diagram, label)
    got = crossing_labels(by_word.diagram, interlacement(by_word.diagram))
    want = {
        names[i]: frozenset(names[j] for j in by_toggle.crossings[i])
        for i in range(len(names))
    }
    return got == want


def test_word_rule_on_the_trefoil():
    res = smooth_by_word(diagram_from_word("1 2 3 1 2 3"), "1")
    assert res.word.text() == "3 2 2 3"
    assert res.chord == "1"
    assert res.source_word.text() == "1 2 3 1 2 3"


def test_word_rule_reverses_the_enclosed_block():
    d = diagram_from_word("1 2 3 4 5 6 2 1 4 3 6 5")
    assert smooth_by_word(d, "1").word.text() == "2 6 5 4 3 2 4 3 6 5"


def test_smoothing_an_isolated_chord_just_deletes_it():
    assert smooth_by_word(diagram_from_word("1 1 2 2"), "1").word.text() == "2 2"
    assert smooth_by_word(diagram_from_word("1 2 2 1"), "1").word.text() == "2 2"


def test_smoothed_drawing_matches_the_redrawn_curve():
    res = smooth_by_word(diagram_from_word(BEFORE), "c")
    assert canonicalize(res.diagram) == canonicalize(diagram_from_word(AFTER))


def test_toggle_flips_exactly_the_pairs_crossing_the_smoothed_chord():
    d = diagram_from_word("1 2 1 3 2 3")
    inter = interlacement(d)
    assert not inter.cross(0, 2)  # chords 1 and 3
    toggled = smooth_by_toggle(d, "2")
    assert surviving_labels(d, "2") == ("1", "3")
    assert toggled.cross(0, 1)  # both crossed 2, so their crossing flipped


def test_unknown_chord_raises():
    with pytest.raises(UnknownChord):
        smooth_by_word(diagram_from_word("1 1"), "9")


def test_both_routes_agree_exhaustively_up_to_four_chords():
    for n in range(1, 5):
        for d in enumerate_canonical(n):
            for label in d.labels:
                assert _routes_agree(d, label), (d.word.text(), label)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.permutations([str(c) for c in range(n)] * 2),
            st.integers(min_value=0, max_value=n - 1),
        )
    )
)
def test_both_routes_agree_on_random_words(case):
    tokens, chord = case
    d = diagram_from_word(GaussWord(tuple(tokens)))
    assert _routes_agree(d, d.labels[chord])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=60, max_value=80).flatmap(
        lambda n: st.permutations([str(c) for c in range(n)] * 2)
    )
)
def test_both_routes_agree_past_one_machine_word(tokens):
    # Dropping a chord's index renumbers rows of 60-80 bits, which span
    # two machine words; check the first, a middle and the last index.
    d = diagram_from_word(GaussWord(tuple(tokens)))
    for chord in (0, d.n // 2, d.n - 1):
        assert _routes_agree(d, d.labels[chord]), (d.word.text(), chord)
