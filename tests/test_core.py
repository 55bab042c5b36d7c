from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from gaussreal import (
    CanonicalForm,
    ChordDiagram,
    GaussWord,
    MalformedWord,
    UnknownChord,
    canonicalize,
    crossing_labels,
    diagram_from_word,
    interlacement,
    symmetry_variants,
    word_from_positions,
)
from gaussreal.core import _label_key

from conftest import _reference_diagram

REALIZABLE_7 = "1 2 3 4 5 1 6 3 7 5 4 7 2 6"


def _random_words(max_chords=6):
    """Strategy: shuffled double-occurrence index words as token tuples."""
    return (
        st.integers(min_value=1, max_value=max_chords)
        .flatmap(lambda n: st.permutations([str(c) for c in range(n)] * 2))
        .map(tuple)
    )


def test_word_requires_every_label_twice():
    with pytest.raises(MalformedWord):
        GaussWord(("1", "2", "1"))
    with pytest.raises(MalformedWord):
        GaussWord(("1", "1", "1", "1"))
    with pytest.raises(MalformedWord):
        GaussWord(("1", "", "1", ""))


def test_word_basics():
    w = GaussWord.from_tokens("a b a b".split())
    assert w.n == 2
    assert w.text() == "a b a b"
    assert str(w) == "a b a b"
    assert GaussWord(()).n == 0


def test_diagram_indexing_follows_first_occurrence():
    d = diagram_from_word("5 3 5 3")
    assert d.labels == ("5", "3")
    assert d.endpoints == ((0, 2), (1, 3))
    assert d.position_chord == (0, 1, 0, 1)
    assert d.index_word() == (0, 1, 0, 1)
    assert d.index_of("3") == 1
    with pytest.raises(UnknownChord):
        d.index_of("7")


def test_word_from_positions_inverts_index_word():
    d = diagram_from_word(REALIZABLE_7)
    again = word_from_positions(d.n, d.position_chord, d.labels)
    assert again == d.word
    relabeled = word_from_positions(d.n, d.position_chord)
    assert relabeled.text().split()[0] == "1"


def test_interlacement_on_small_words():
    crossing = interlacement(diagram_from_word("1 2 1 2"))
    assert crossing.cross(0, 1) and crossing.cross(1, 0)
    nested = interlacement(diagram_from_word("1 2 2 1"))
    assert not nested.cross(0, 1)
    assert nested.isolated() == frozenset({0, 1})
    kink = interlacement(diagram_from_word("1 1"))
    assert kink.isolated() == frozenset({0})


def test_interlacement_fixture_seven_chords():
    d = diagram_from_word(REALIZABLE_7)
    by_label = crossing_labels(d, interlacement(d))
    assert by_label["1"] == frozenset({"2", "3", "4", "5"})
    assert all(len(v) % 2 == 0 for v in by_label.values())


def test_canonical_form_relabels_and_orders():
    c = canonicalize("2 1 1 2")
    assert c.word.text() == "1 1 2 2"
    assert c.n == 2
    assert canonicalize("1 1 2 2") < canonicalize("1 2 1 2")
    assert canonicalize(GaussWord(())).word.text() == ""


def test_canonicalize_constant_on_the_whole_symmetry_orbit():
    d = diagram_from_word(REALIZABLE_7)
    expected = canonicalize(d)
    variants = set()
    for tokens in symmetry_variants(d.word):
        variants.add(tokens)
        assert canonicalize(GaussWord(tokens)) == expected
    assert len(variants) > 1
    assert canonicalize(expected.diagram()) == expected


@given(_random_words())
def test_canonicalize_is_idempotent_and_symmetry_invariant(tokens):
    word = GaussWord(tokens)
    c = canonicalize(word)
    assert canonicalize(c.word) == c
    some_variant = sorted(symmetry_variants(word))[0]
    assert canonicalize(GaussWord(some_variant)) == c


def test_label_key_sorts_numbers_numerically_before_names():
    labels = ["10", "2", "b", "a1", "1"]
    assert sorted(labels, key=_label_key) == ["1", "2", "10", "a1", "b"]


def test_diagram_accepts_word_or_text():
    w = GaussWord.from_tokens(["1", "1"])
    assert diagram_from_word(w) == diagram_from_word("1 1")
    assert isinstance(diagram_from_word("1 1"), ChordDiagram)


def test_canonical_form_diagram_roundtrip():
    key = canonicalize("1 2 1 2").key
    assert CanonicalForm(key=key).diagram().word.text() == "1 2 1 2"


# Labels that look alike but differ, and sort in every way _label_key can.
_LABELS = ["7", "07", "+7", "10", "2", "a", "A", "b", "B", "x1", "X1", "z"]


@st.composite
def _mixed_words(draw):
    """Double occurrence words over mixed labels, turned, read backwards
    and with kinks (a label twice in a row) put in; the empty word too."""
    labels = draw(st.lists(st.sampled_from(_LABELS), max_size=8, unique=True))
    tokens = draw(st.permutations(labels * 2))
    if tokens:
        turn = draw(st.integers(0, len(tokens) - 1))
        tokens = tokens[turn:] + tokens[:turn]
    if draw(st.booleans()):
        tokens = tokens[::-1]
    for kink in draw(st.lists(st.integers(0, 99), max_size=3, unique=True)):
        j = draw(st.integers(0, len(tokens)))
        tokens = tokens[:j] + ["k%d" % kink] * 2 + tokens[j:]
    return tuple(tokens)


# How often the spoilt tokens occur: one label once, three or four
# times, two labels once and three times, or the empty token once or
# twice (a fault even though twice).
_FAULTS = [(False, (1,)), (False, (3,)), (False, (4,)), (False, (1, 3))]
_FAULTS += [(True, (1,)), (True, (2,))]


@st.composite
def _malformed_tokens(draw):
    """Mixed words with one of the faults above put in."""
    tokens = list(draw(_mixed_words()))
    empty, counts = draw(st.sampled_from(_FAULTS))
    spoilt = [""] if empty else draw(
        st.lists(
            st.sampled_from(_LABELS),
            min_size=len(counts),
            max_size=len(counts),
            unique=True,
        )
    )
    for label, count in zip(spoilt, counts):
        tokens = [t for t in tokens if t != label]
        for _ in range(count):
            tokens.insert(draw(st.integers(0, len(tokens))), label)
    return tuple(tokens)


@given(_mixed_words())
def test_builder_matches_the_three_pass_route(tokens):
    word, labels, endpoints, position_chord, rows = _reference_diagram(tokens)
    for given_as in (tokens, word, " ".join(tokens)):
        d = diagram_from_word(given_as)
        assert d.word == word and d.word.symbols == tokens
        assert d.labels == labels
        assert d.endpoints == endpoints
        assert d.position_chord == position_chord
        assert d.crossing_rows == rows
        assert interlacement(d).rows == rows
    # A diagram built without the builder computes the same rows itself.
    assert ChordDiagram(word, labels, endpoints).crossing_rows == rows


@given(_malformed_tokens())
def test_builder_refuses_malformed_tokens_as_gauss_word_does(tokens):
    with pytest.raises(MalformedWord) as expected:
        GaussWord(tokens)
    with pytest.raises(MalformedWord) as refused:
        diagram_from_word(tokens)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize(
    "tokens, message",
    [
        (("1", "2", "1"), "offending labels: 2"),
        (("7", "7", "7", "8", "8"), "offending labels: 7"),
        (("a", "a", "a", "a"), "offending labels: a"),
        (("a", "a", "a", "b"), "offending labels: a b"),
        (("1", "", "1", ""), "empty token"),
        (("1", "1", "2"), "offending labels: 2"),
    ],
)
def test_builder_names_the_offending_labels(tokens, message):
    with pytest.raises(MalformedWord) as refused:
        diagram_from_word(tokens)
    assert str(refused.value).endswith(message)
