from __future__ import annotations

import dataclasses

import pytest

from gaussreal import (
    ChordDiagram,
    EvenConditionViolation,
    GaussWord,
    SmoothingViolation,
    WitnessMismatch,
    diagram_from_word,
    even_condition,
    interlacement,
    is_realizable,
    realizability,
    remove_isolated,
    verify_witness,
)

# A curve with seven crossings exists for this word.
REALIZABLE_7 = "1 2 3 4 5 1 6 3 7 5 4 7 2 6"
# Chord 2 crosses three chords, so the even condition already fails.
ODD_CHORD_4 = "1 2 3 1 4 2 4 3"
# The even condition holds, yet smoothing chord 1 breaks it.
EVEN_NONREAL_6 = "1 2 3 4 5 6 2 1 4 3 6 5"
# Same phenomenon with eight chords; smoothing chord 0 breaks it.
EVEN_NONREAL_8 = "0 1 2 3 4 5 6 0 1 7 3 2 5 6 7 4"
# The acceptance tests' smoothing fixture: no chord is a kink, and
# smoothing chord c leaves the recorded eight-chord curve word.
KINKED_8 = "c 1 2 3 4 5 1 6 3 4 7 c 8 7 5 2 6 8"


def test_even_condition_failure_lists_chords_then_pairs():
    report = even_condition(diagram_from_word(ODD_CHORD_4))
    assert not report.holds
    assert [v.document() for v in report.violations] == [
        {"kind": "chord", "chord": "2", "crossings": ["1", "3", "4"]},
        {"kind": "chord", "chord": "4", "crossings": ["2"]},
        {"kind": "pair", "pair": ["1", "4"], "shared": ["2"]},
        {"kind": "pair", "pair": ["3", "4"], "shared": ["2"]},
    ]


def test_even_condition_holds_on_the_insufficiency_fixture():
    assert even_condition(diagram_from_word(EVEN_NONREAL_6)).holds
    assert even_condition(diagram_from_word(EVEN_NONREAL_8)).holds


def test_isolated_chords_count_as_even():
    assert even_condition(diagram_from_word("1 1")).holds
    assert even_condition(diagram_from_word("1 2 2 1")).holds


def test_interleaved_pair_fails_the_chord_count():
    report = even_condition(diagram_from_word("1 2 1 2"))
    assert [v.subject() for v in report.violations] == ["chord 1", "chord 2"]


def test_remove_isolated_strips_kinks_in_one_pass():
    assert remove_isolated(diagram_from_word("1 1")).word.text() == ""
    assert remove_isolated(diagram_from_word("1 2 2 1")).word.text() == ""
    assert remove_isolated(diagram_from_word("1 2 1 2")).word.text() == "1 2 1 2"
    word = "9 1 2 1 2 9"
    assert remove_isolated(diagram_from_word(word)).word.text() == "1 2 1 2"


def test_kink_free_diagram_builds_its_crossing_rows_once(monkeypatch):
    calls = []

    def counted(diagram):
        calls.append(diagram.word.text())
        return interlacement(diagram)

    monkeypatch.setattr(realizability, "interlacement", counted)
    for word in ("1 2 3 1 2 3", "9 1 2 3 1 2 3 9"):
        calls.clear()
        assert is_realizable(diagram_from_word(word)).realizable
        assert calls == [word]


def test_realizable_fixture_report():
    d = diagram_from_word(REALIZABLE_7)
    report = is_realizable(d)
    assert report.realizable
    assert report.witness is None
    assert report.headline() == "realizable"
    assert verify_witness(d, report) is True


def test_empty_and_kink_only_words_are_realizable():
    for text in ("", "1 1", "1 2 2 1", "1 1 2 2"):
        report = is_realizable(diagram_from_word(text))
        assert report.realizable, text
        assert report.kink_free_word.text() == ""


def test_even_condition_failure_headline():
    d = diagram_from_word(ODD_CHORD_4)
    report = is_realizable(d)
    assert not report.realizable
    assert isinstance(report.witness, EvenConditionViolation)
    assert report.headline() == "non-realizable: even condition fails on chord 2"
    assert verify_witness(d, report) is True


def test_smoothing_failure_headline_and_payload():
    d = diagram_from_word(EVEN_NONREAL_6)
    report = is_realizable(d)
    assert not report.realizable
    witness = report.witness
    assert isinstance(witness, SmoothingViolation)
    assert witness.chord == "1"
    assert witness.smoothed_word.text() == "2 6 5 4 3 2 4 3 6 5"
    assert [v.document() for v in witness.report.violations] == [
        {"kind": "pair", "pair": ["3", "5"], "shared": ["2"]},
        {"kind": "pair", "pair": ["3", "6"], "shared": ["2"]},
        {"kind": "pair", "pair": ["4", "5"], "shared": ["2"]},
        {"kind": "pair", "pair": ["4", "6"], "shared": ["2"]},
    ]
    assert report.headline() == (
        "non-realizable: smoothing chord 1 breaks even condition on pair (3, 5)"
    )
    assert verify_witness(d, report) is True


def test_smoothing_failure_on_the_eight_chord_fixture():
    d = diagram_from_word(EVEN_NONREAL_8)
    report = is_realizable(d)
    assert report.headline() == (
        "non-realizable: smoothing chord 0 breaks even condition on pair (2, 5)"
    )
    assert verify_witness(d, report) is True


def test_kink_insertion_never_changes_the_verdict(canonical_by_n):
    for n in range(1, 4):
        for d in canonical_by_n(n):
            tokens = d.word.text().split()
            base = is_realizable(d).realizable
            for j in range(len(tokens) + 1):
                kinked = " ".join(tokens[:j] + ["99", "99"] + tokens[j:])
                report = is_realizable(diagram_from_word(kinked))
                assert report.realizable == base, kinked
                assert report.kink_free_word == remove_isolated(d).word


@pytest.mark.parametrize(
    "text",
    [
        KINKED_8,
        "k k " + KINKED_8 + " K K",
        "c 1 2 3 4 5 1 6 3 4 7 c 07 07 8 7 5 2 6 8",
        "1 1 2 2",
        "1 2 2 1 3 3",
        "",
        "07 07 x y x 7 7 y +7 +7",
        "a A a b b A B B",
        "1 2 3 1 2 3 z z",
        "1 2 1 2 Z Z",
        "q q " + EVEN_NONREAL_6,
    ],
)
def test_kink_free_diagram_is_the_word_route_diagram(text):
    d = diagram_from_word(text)
    rows = interlacement(d).rows
    isolated = {d.labels[c] for c in interlacement(d).isolated()}
    kept = tuple(s for s in d.word.symbols if s not in isolated)
    expected = diagram_from_word(GaussWord(kept))
    for reduced in (realizability._drop_kinks(d, rows), remove_isolated(d)):
        assert reduced.word == expected.word
        assert reduced.labels == expected.labels
        assert reduced.endpoints == expected.endpoints
        assert reduced.position_chord == expected.position_chord
        assert reduced.crossing_rows == expected.crossing_rows
        # Rows recomputed from the endpoints alone, by the prefix XOR.
        plain = ChordDiagram(expected.word, expected.labels, expected.endpoints)
        assert reduced.crossing_rows == plain.crossing_rows
    report = is_realizable(d)
    assert report.kink_free_word == expected.word
    assert verify_witness(d, report) is True
    kink_free = is_realizable(expected)
    assert (report.realizable, report.witness) == (
        kink_free.realizable,
        kink_free.witness,
    )


def test_verify_witness_rejects_a_tampered_chord_violation():
    d = diagram_from_word(ODD_CHORD_4)
    report = is_realizable(d)
    violation = report.witness.report.violations[0]
    forged = dataclasses.replace(violation, chord="1")
    tampered = dataclasses.replace(
        report,
        witness=EvenConditionViolation(
            report=dataclasses.replace(
                report.witness.report, violations=(forged,)
            )
        ),
    )
    with pytest.raises(WitnessMismatch):
        verify_witness(d, tampered)


def test_verify_witness_rejects_a_tampered_shared_set():
    d = diagram_from_word(EVEN_NONREAL_6)
    report = is_realizable(d)
    witness = report.witness
    pair = witness.report.violations[0]
    forged = dataclasses.replace(pair, shared=("2", "4"))
    tampered = dataclasses.replace(
        report,
        witness=dataclasses.replace(
            witness,
            report=dataclasses.replace(witness.report, violations=(forged,)),
        ),
    )
    with pytest.raises(WitnessMismatch):
        verify_witness(d, tampered)


def test_verify_witness_rejects_a_wrong_smoothed_word():
    d = diagram_from_word(EVEN_NONREAL_6)
    report = is_realizable(d)
    tampered = dataclasses.replace(
        report,
        witness=dataclasses.replace(
            report.witness, smoothed_word=GaussWord(("1", "1"))
        ),
    )
    with pytest.raises(WitnessMismatch):
        verify_witness(d, tampered)


def test_verify_witness_rejects_a_report_for_another_word():
    report = is_realizable(diagram_from_word(EVEN_NONREAL_6))
    with pytest.raises(WitnessMismatch):
        verify_witness(diagram_from_word(REALIZABLE_7), report)


def test_report_document_shape():
    doc = is_realizable(diagram_from_word(EVEN_NONREAL_6)).document()
    assert doc["word"] == EVEN_NONREAL_6
    assert doc["kink_free_word"] == EVEN_NONREAL_6
    assert doc["verdict"] == "non-realizable"
    assert doc["witness"]["kind"] == "smoothing"
    assert doc["cross_check"] is None


def test_verdicts_match_the_embedding_oracle(verdicts_by_n):
    for n in range(1, 5):
        for d, criterion, oracle_witness in verdicts_by_n(n):
            assert criterion == (oracle_witness is not None), d.word.text()
