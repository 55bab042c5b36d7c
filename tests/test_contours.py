from __future__ import annotations

import hashlib

import pytest

from gaussreal import (
    ChordsDoNotCross,
    DegenerateContour,
    UnknownChord,
    build_c_contour,
    build_x_contour,
    color_complement,
    colorful_chords,
    crossing_labels,
    diagram_from_word,
    enumerate_canonical,
    even_condition,
    exists_colorful_witness,
    interlacement,
    oracle_realizable,
    smooth_by_word,
    transfer_witness,
)
from gaussreal.codec import document_to_json

# Eight chords, even condition holds, yet no plane curve realizes it; the
# X-contour of chords 1 and 3 exposes colorful chords.
EVEN_NONREAL_8 = "0 1 2 3 4 5 6 0 1 7 3 2 5 6 7 4"
# The same diagram after smoothing chord 3; now a plain C-contour works.
SMOOTHED_8 = "0 1 2 7 1 0 6 5 4 2 5 6 7 4"
# Eleven chords, realizable; every contour coloring is colorless.
REALIZABLE_11 = "1 2 3 4 5 6 0 1 7 8 9 3 2 10 8 5 6 7 10 9 4 0"


def test_nested_chord_is_a_member_not_a_door():
    d = diagram_from_word("1 2 2 1")
    c = build_c_contour(d, "1", 0)  # the arc holding both endpoints of 2
    assert c.document()["members"] == ["2"]
    assert c.document()["doors"] == []


def test_crossing_chord_is_a_door_on_both_selectors():
    d = diagram_from_word("1 2 1 2")
    for selector in (0, 1):
        c = build_c_contour(d, "1", selector)
        assert c.document()["doors"] == ["2"]
        assert c.document()["members"] == []


def test_c_contour_doors_are_exactly_the_crossing_set():
    d = diagram_from_word(REALIZABLE_11)
    by_label = crossing_labels(d, interlacement(d))
    for selector in (0, 1):
        c = build_c_contour(d, "1", selector)
        assert frozenset(c.document()["doors"]) == by_label["1"]
    assert by_label["1"] == frozenset({"0", "2", "3", "4", "5", "6"})
    for n in range(1, 6):
        for d in enumerate_canonical(n):
            crossings = interlacement(d).crossings
            for a in range(d.n):
                for selector in (0, 1):
                    c = build_c_contour(d, d.labels[a], selector)
                    assert c.doors == crossings[a]


def test_every_door_has_one_endpoint_inside_the_chosen_arc():
    for n in range(1, 6):
        for d in enumerate_canonical(n):
            for a in d.labels:
                for selector in (0, 1):
                    c = build_c_contour(d, a, selector)
                    (start, stop), = c.arcs
                    m = 2 * d.n
                    inside = set()
                    p = (start + 1) % m
                    while p != stop:
                        inside.add(p)
                        p = (p + 1) % m
                    for door in c.doors:
                        hits = sum(1 for q in d.endpoints[door] if q in inside)
                        assert hits == 1
                    for member in c.members:
                        assert all(q in inside for q in d.endpoints[member])


def test_x_contour_requires_crossing_chords():
    for word in ("1 1 2 2", "1 2 2 1"):
        for a, b in (("1", "2"), ("2", "1")):
            with pytest.raises(ChordsDoNotCross):
                build_x_contour(diagram_from_word(word), a, b)
    with pytest.raises(UnknownChord):
        build_x_contour(diagram_from_word("1 2 1 2"), "1", "9")


def test_minimal_x_contour_is_degenerate():
    d = diagram_from_word("1 2 1 2")
    x = build_x_contour(d, "1", "2", 0)
    assert x.members == frozenset() and x.doors == frozenset()
    assert not x.non_degenerate
    with pytest.raises(DegenerateContour):
        color_complement(x)


def test_x_contour_door_fixture():
    d = diagram_from_word(REALIZABLE_11)
    x = build_x_contour(d, "1", "3", 0)
    assert x.document()["doors"] == ["2", "7", "8", "9"]
    assert x.non_degenerate


def test_colorful_chords_on_the_non_realizable_eight_chord_word():
    d = diagram_from_word(EVEN_NONREAL_8)
    x = build_x_contour(d, "1", "3", 0)
    assert x.document()["doors"] == ["2", "7"]
    coloring = color_complement(x)
    assert colorful_chords(d, x, coloring) == frozenset({"5", "6"})


def test_no_colorful_chords_on_the_realizable_eleven_chord_word():
    d = diagram_from_word(REALIZABLE_11)
    for selector in (0, 1):
        x = build_x_contour(d, "1", "3", selector)
        coloring = color_complement(x)
        assert colorful_chords(d, x, coloring) == frozenset()
    assert exists_colorful_witness(d) is None


def test_c_contour_coloring_after_smoothing_fixture():
    d = diagram_from_word(SMOOTHED_8)
    c = build_c_contour(d, "1", 0)
    coloring = color_complement(c)
    assert colorful_chords(d, c, coloring) == frozenset({"5", "6"})
    by_label = crossing_labels(d, interlacement(d))
    assert by_label["5"] & by_label["1"] == frozenset({"2"})
    assert by_label["6"] & by_label["1"] == frozenset({"2"})


def test_coloring_swaps_cleanly_and_flips_only_at_doors():
    d = diagram_from_word(EVEN_NONREAL_8)
    x = build_x_contour(d, "1", "3", 0)
    coloring = color_complement(x)
    assert colorful_chords(d, x, coloring) == colorful_chords(d, x, coloring.swapped())
    door_ends = {p for c in x.doors for p in d.endpoints[c]}
    assert set(coloring.flips) <= door_ends
    m = 2 * d.n
    for start, stop in x.complement_components:
        p = (start + 1) % m
        while p != stop:
            before = coloring.segments[(p - 1) % m]
            after = coloring.segments[p]
            assert (before != after) == (p in coloring.flips)
            p = (p + 1) % m
    assert len(coloring.anchors) == 2


def test_contour_interior_segments_stay_unpainted():
    d = diagram_from_word(EVEN_NONREAL_8)
    x = build_x_contour(d, "1", "3", 0)
    coloring = color_complement(x)
    m = 2 * d.n
    for start, stop in x.arcs:
        p = start
        while p != stop:
            assert coloring.segments[p] is None
            p = (p + 1) % m
    painted = [c for c in coloring.segments if c is not None]
    assert set(painted) <= {"A", "B"}


def test_colorful_iff_odd_shared_crossings_up_to_five_chords():
    """For C-contours, colorful(b) must equal |a_x & b_x| being odd."""
    for n in range(1, 6):
        for d in enumerate_canonical(n):
            inter = interlacement(d)
            for a in range(d.n):
                for selector in (0, 1):
                    c = build_c_contour(d, d.labels[a], selector)
                    hits = colorful_chords(d, c, color_complement(c))
                    outside = set(range(d.n)) - {a} - c.members - c.doors
                    for b in outside:
                        odd = len(inter.crossings[a] & inter.crossings[b]) % 2 == 1
                        assert odd == (d.labels[b] in hits)


def test_witness_search_finds_the_least_witness():
    d = diagram_from_word(EVEN_NONREAL_8)
    w = exists_colorful_witness(d)
    assert w is not None
    assert (w.contour.a_label, w.contour.b_label, w.contour.selector) == ("0", "2", 0)
    assert w.chord == "5"
    assert w.contour.diagram.word.text() == EVEN_NONREAL_8


def test_witness_search_is_empty_on_realizable_words():
    assert exists_colorful_witness(diagram_from_word("1 2 3 1 2 3")) is None
    assert exists_colorful_witness(diagram_from_word("")) is None


def test_witness_transfers_to_a_c_contour_after_smoothing():
    d = diagram_from_word(EVEN_NONREAL_8)
    w = exists_colorful_witness(d)
    result, contour, coloring = transfer_witness(d, w)
    assert result.word == smooth_by_word(d, w.contour.b_label).word
    smoothed = result.diagram
    ci = smoothed.index_of(w.chord)
    assert ci not in contour.members and ci not in contour.doors
    assert w.chord in colorful_chords(smoothed, contour, coloring)


def test_every_witness_transfers_up_to_five_chords(verdicts_by_n):
    checked = 0
    for n in range(1, 6):
        for d, _, oracle_witness in verdicts_by_n(n):
            if oracle_witness is not None or not even_condition(d).holds:
                continue
            w = exists_colorful_witness(d)
            assert w is not None, d.word.text()
            result, contour, coloring = transfer_witness(d, w)
            assert w.chord in colorful_chords(result.diagram, contour, coloring)
            checked += 1
    # Realizability is the common case at this size; the sweep may be empty.
    assert checked >= 0


def test_x_contour_members_and_doors_fixture():
    d = diagram_from_word(EVEN_NONREAL_8)
    x = build_x_contour(d, "1", "3", 1)
    doc = x.document()
    assert doc["chords"] == ["1", "3"]
    total = set(doc["members"]) | set(doc["doors"]) | {"1", "3"}
    assert total <= set(d.labels)
    assert oracle_realizable(d) is None  # the fixture really is non-realizable


# SHA-256 of every contour document for the canonical diagrams with n <= 6;
# see ``_contour_entries``.
CONTOUR_DOCUMENTS_PIN = "f39f3cce89760c3eed9df7ec8ff8eaa3c645dd061696b54c6719459f920d3c8f"


def _colored(diagram, contour) -> dict:
    coloring = color_complement(contour)
    return {
        "contour": contour.document(),
        "coloring": coloring.document(),
        "colorful": sorted(colorful_chords(diagram, contour, coloring)),
    }


def _contour_entries(d):
    """Each C-contour, each X-contour, then the witness and its transfer.

    C-contours are taken for every chord and X-contours for every ordered
    crossing pair, both on both selectors, each with its coloring and
    colorful chords; a degenerate X-contour gives its error message.
    """
    rows = interlacement(d).rows
    for a in d.labels:
        for selector in (0, 1):
            yield _colored(d, build_c_contour(d, a, selector))
    for ai in range(d.n):
        for bi in range(d.n):
            if not rows[ai] >> bi & 1:
                continue
            for selector in (0, 1):
                x = build_x_contour(d, d.labels[ai], d.labels[bi], selector)
                try:
                    yield _colored(d, x)
                except DegenerateContour as exc:
                    yield {"contour": x.document(), "degenerate": str(exc)}
    w = exists_colorful_witness(d)
    if w is None:
        yield {"word": d.word.text(), "witness": None}
        return
    result, contour, coloring = transfer_witness(d, w)
    yield {
        "word": d.word.text(),
        "witness": w.document(),
        "smoothed_word": result.word.text(),
        "transfer": {
            "contour": contour.document(),
            "coloring": coloring.document(),
            "colorful": sorted(colorful_chords(result.diagram, contour, coloring)),
        },
    }


def test_contour_documents_match_their_pin_up_to_six_chords(canonical_by_n):
    digest = hashlib.sha256()
    entries = 0
    for n in range(7):
        for d in canonical_by_n(n):
            for entry in _contour_entries(d):
                digest.update(document_to_json(entry).encode("utf-8"))
                entries += 1
    assert entries == 20837
    assert digest.hexdigest() == CONTOUR_DOCUMENTS_PIN
