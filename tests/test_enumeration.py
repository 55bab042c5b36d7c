from __future__ import annotations

import hashlib
import itertools
import json
import time

import pytest

from gaussreal import _kernels, _pure, enumeration
from gaussreal import (
    CanonicalForm,
    Disagreement,
    SweepConfig,
    SweepReport,
    SweepRow,
    canonical_keys,
    canonicalize,
    cross_validate,
    diagram_from_word,
    enumerate_canonical,
    interlacement,
    is_realizable,
    oracle_realizable,
    symmetry_variants,
    write_counterexamples,
)
from gaussreal.codec import document_to_json
from gaussreal.core import MalformedWord, _chord_pass, _numerals
from gaussreal.realizability import _decide

from conftest import _reference_diagram

# Diagrams per chord count, counted up to rotation and reflection.
CANONICAL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 17, 5: 79, 6: 554, 7: 5283, 8: 65346}


def _fill(word: list[int], c: int):
    """Complete ``word`` in place, yielding it once per perfect matching.

    Chord c takes the first free slot (-1) and, in turn, each later free
    slot as its partner; chord c + 1 then fills the rest.
    """
    if -1 not in word:
        yield word
        return
    first = word.index(-1)
    word[first] = c
    for j in range(first + 1, len(word)):
        if word[j] == -1:
            word[j] = c
            yield from _fill(word, c + 1)
            word[j] = -1
    word[first] = -1


def _brute_force_keys(n: int) -> list[tuple[int, ...]]:
    """Canonicalise every perfect matching of 2n positions and dedupe."""
    return sorted({_pure.canonical_key(w) for w in _fill([-1] * (2 * n), 0)})


def test_small_canonical_words_are_exact():
    assert [d.word.text() for d in enumerate_canonical(1)] == ["1 1"]
    assert [d.word.text() for d in enumerate_canonical(2)] == [
        "1 1 2 2",
        "1 2 1 2",
    ]


def test_zero_chords_yields_the_empty_diagram():
    diagrams = list(enumerate_canonical(0))
    assert len(diagrams) == 1
    assert diagrams[0].word.text() == ""


# SHA-256 of each level's keys, as bytes, one after another in stream order.
KEY_STREAM_SHA256 = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    2: "555c0d0cb8bdab0bd66b2c2c1e4a65ac4796468ca58b029c4e5471fa31b5fcbb",
    3: "a70474a9753fee672b7c28ac24cfcbfa4458d86767f5034d0b17b408023be989",
    4: "b0ee635bbc139dc164c50373af16bbb3b101b20a2910469d166c1808cf71b5af",
    5: "4912758cbd857675c3b9285d28a5b623c8f5c9ee8951d038e6a1acfa4a9d8c5b",
    6: "3e78d1e7944498b5f090298d7573727dfb8a3151e761e270cf9387d7f214d83d",
    7: "597894578656ca007ba02ac72050195fca955b0d2674f4095545d1aabe66e209",
    8: "9b4fae5b81e395a8dae901262059a8269306525b4c10e78206aa09b1fb25fb7e",
}


def test_canonical_counts():
    for n, expected in CANONICAL_COUNTS.items():
        keys = canonical_keys(n)
        assert len(keys) == expected, n
        assert all(a < b for a, b in zip(keys, keys[1:])), n
        stream = b"".join(bytes(key) for key in keys)
        assert hashlib.sha256(stream).hexdigest() == KEY_STREAM_SHA256[n], n


@pytest.mark.parametrize("n", range(0, 7))
def test_orderly_keys_match_brute_force(n):
    assert canonical_keys(n) == _brute_force_keys(n)


def test_shard_keys_in_shard_order_are_the_level_stream():
    # Workers generate each shard's keys; concatenated in shard order they
    # must be the serial stream, which the counts and hashes above pin.
    for n in range(1, 9):
        for least_gap in (1, 2):
            shards = list(enumeration._shards(n, least_gap))
            assert all(shard[0] == n for shard in shards)
            keys = [
                key
                for shard in shards
                for key in enumeration._keys_with_gap(*shard)
            ]
            assert keys == list(enumeration._orderly_keys(n, least_gap)), (
                n,
                least_gap,
            )


def test_require_non_isolated_filters_the_brute_force_keys():
    for n in range(1, 7):
        diagrams = [CanonicalForm(key=key).diagram() for key in _brute_force_keys(n)]
        expected = [d.word.text() for d in diagrams if not interlacement(d).isolated()]
        got = [d.word.text() for d in enumerate_canonical(n, require_non_isolated=True)]
        assert got == expected, n


def test_kink_free_stream_is_the_filtered_full_stream():
    # The kink-free stream never generates keys of least gap 1.
    assert [d.word.text() for d in enumerate_canonical(0, True)] == [""]
    assert list(enumerate_canonical(1, True)) == []
    for n in range(2, 8):
        expected = [
            d.word.text()
            for d in enumerate_canonical(n)
            if not interlacement(d).isolated()
        ]
        got = [d.word.text() for d in enumerate_canonical(n, require_non_isolated=True)]
        assert got == expected, n


def test_enumeration_streams():
    # All 12-chord diagrams would take hours; the first one must not wait for them.
    started = time.perf_counter()
    first = next(enumerate_canonical(12))
    assert time.perf_counter() - started < 10
    assert first.word.text() == " ".join(str(c) for c in range(1, 13) for _ in "ab")


def test_negative_chord_counts_are_refused():
    with pytest.raises(ValueError):
        enumerate_canonical(-1)


def test_enumeration_matches_brute_force_dedupe_at_three_chords():
    tokens = ("1", "1", "2", "2", "3", "3")
    brute = set()
    for perm in set(itertools.permutations(tokens)):
        brute.add(canonicalize(diagram_from_word(" ".join(perm))).key)
    mine = {canonicalize(d).key for d in enumerate_canonical(3)}
    assert mine == brute
    assert len(mine) == 5


def test_enumerated_diagrams_are_their_own_canonical_form(canonical_by_n):
    for n in range(1, 5):
        for d in canonical_by_n(n):
            assert canonicalize(d).word == d.word


def test_every_orbit_reaches_the_same_canonical_form(canonical_by_n):
    for d in canonical_by_n(3):
        expected = canonicalize(d).key
        for variant in symmetry_variants(d.word):
            assert canonicalize(" ".join(variant)).key == expected


@pytest.mark.parametrize("require_non_isolated", [False, True])
def test_diagrams_built_from_keys_match_the_word_route(require_non_isolated):
    least_gap = 2 if require_non_isolated else 1
    for n in range(0, 8):
        for key in enumeration._orderly_keys(n, least_gap):
            d = CanonicalForm(key=key).diagram()
            built = (d.word, d.labels, d.endpoints, d.position_chord, d.crossing_rows)
            tokens = tuple(_numerals(n)[c] for c in key)
            assert built == _reference_diagram(tokens), key


def test_keys_not_numbered_by_first_occurrence_take_the_word_route():
    for key in ((1, 0, 1, 0), (0, 5, 0, 5), (-1, -1), (0, 2, 1, 2, 0, 1)):
        form = CanonicalForm(key=key)
        assert form.diagram() == diagram_from_word(form.word), key
    with pytest.raises(MalformedWord):
        CanonicalForm(key=(0, 1, 0, 0)).diagram()


@pytest.mark.parametrize(
    "key", [(0, 0, 0, 0), (0, 1, 0, 1, 0, 1), (0, 1, 0), (0, 1, 2, 0, 1, 1)]
)
def test_malformed_keys_raise_the_word_route_error(key):
    with pytest.raises(MalformedWord) as expected:
        diagram_from_word(CanonicalForm(key=key).word)
    with pytest.raises(MalformedWord) as raised:
        CanonicalForm(key=key).diagram()
    assert str(raised.value) == str(expected.value)


def _shard_keys(shard):
    n, gap, head = shard
    return list(enumeration._keys_with_gap(n, gap, head))


def test_sweep_items_drop_kinked_diagrams_only_when_asked():
    for n in range(1, 6):
        for shard in enumeration._shards(n):
            keys = _shard_keys(shard)
            kinked = [
                bool(interlacement(CanonicalForm(key=key).diagram()).isolated())
                for key in keys
            ]
            assert enumeration._sweep_shard(shard)[:2] == (n, len(keys)), shard
            assert enumeration._sweep_shard(shard, True)[:2] == (
                n,
                kinked.count(False),
            ), shard


def _reference_item(diagram, require_non_isolated):
    """One key's share of ``_sweep_shard``, spelled out on its labelled diagram."""
    rows = interlacement(diagram).rows
    if require_non_isolated and not all(rows):
        return None
    realizable = _decide(diagram.position_chord, diagram.endpoints, rows) is None
    witness = oracle_realizable(diagram)
    if realizable == (witness is not None):
        return diagram.n, realizable, None
    split = Disagreement(diagram.word, is_realizable(diagram), witness)
    return diagram.n, realizable, split


def test_key_pass_and_sweep_items_match_the_labelled_diagram():
    for n in range(1, 8):
        for key in enumeration._orderly_keys(n):
            _, _, endpoints, position_chord, rows = _reference_diagram(
                tuple(_numerals(n)[c] for c in key)
            )
            assert key == position_chord
            assert _chord_pass(key) == (endpoints, rows, 0), key
        for shard in enumeration._shards(n):
            diagrams = [CanonicalForm(key=key).diagram() for key in _shard_keys(shard)]
            for require_non_isolated in (False, True):
                items = [_reference_item(d, require_non_isolated) for d in diagrams]
                items = [item for item in items if item is not None]
                expected = (
                    n,
                    len(items),
                    sum(realizable for _, realizable, _ in items),
                    [split for _, _, split in items if split is not None],
                )
                assert (
                    enumeration._sweep_shard(shard, require_non_isolated) == expected
                ), (shard, require_non_isolated)


def test_map_draws_items_only_as_results_are_taken():
    drawn = []

    def items():
        for k in range(3):
            drawn.append(k)
            yield k

    assert next(_kernels._map(str, items(), 1)) == "0"
    assert drawn == [0]


@pytest.mark.parametrize("require_non_isolated", [False, True])
def test_parallel_sweep_document_matches_serial(require_non_isolated):
    docs = [
        document_to_json(
            cross_validate(
                SweepConfig(
                    max_chords=6,
                    require_non_isolated=require_non_isolated,
                    workers=workers,
                )
            ).document()
        )
        for workers in (1, 2, 3)
    ]
    assert docs[0] == docs[1] == docs[2]


def test_disagreements_are_recorded_alike_by_one_and_two_workers(monkeypatch):
    # Worker processes are forked, so they see the patched oracle too.
    monkeypatch.setattr(enumeration, "planar_mask", lambda flat, n: -1)
    reports = [cross_validate(SweepConfig(max_chords=5, workers=w)) for w in (1, 2)]
    for report in reports:
        realizable = sum(row.realizable for row in report.rows)
        assert len(report.disagreements) == realizable == 25
        for d in report.disagreements:
            assert d.criterion.realizable and d.oracle is None
    assert document_to_json(reports[0].document()) == document_to_json(
        reports[1].document()
    )


def test_non_realizable_splits_carry_the_labelled_report(monkeypatch):
    # The sweep decides without labels; a split must still carry the full
    # report, witness included, that is_realizable gives the diagram.
    kink = oracle_realizable(diagram_from_word("1 1"))
    monkeypatch.setattr(enumeration, "planar_mask", lambda flat, n: 0)
    monkeypatch.setattr(enumeration, "spherical_witness", lambda diagram, mask: kink)
    reports = [cross_validate(SweepConfig(max_chords=5, workers=w)) for w in (1, 2)]
    for report in reports:
        non_realizable = sum(row.non_realizable for row in report.rows)
        assert len(report.disagreements) == non_realizable == 79
        for d in report.disagreements:
            assert d.criterion == is_realizable(diagram_from_word(d.word))
            assert d.criterion.witness is not None and d.oracle == kink
    assert document_to_json(reports[0].document()) == document_to_json(
        reports[1].document()
    )


def test_sweep_config_rejects_empty_ranges():
    with pytest.raises(ValueError):
        SweepConfig(max_chords=0)
    for workers in (0, -2):
        with pytest.raises(ValueError):
            SweepConfig(max_chords=3, workers=workers)


def test_cross_validation_counts_and_agreement():
    report = cross_validate(SweepConfig(max_chords=3))
    assert [(r.n, r.total, r.realizable) for r in report.rows] == [
        (1, 1, 1),
        (2, 2, 1),
        (3, 5, 3),
    ]
    assert all(r.total == r.realizable + r.non_realizable for r in report.rows)
    assert report.disagreements == ()


def test_require_non_isolated_keeps_only_crossing_diagrams():
    report = cross_validate(SweepConfig(max_chords=2, require_non_isolated=True))
    assert [(r.n, r.total) for r in report.rows] == [(1, 0), (2, 1)]


def test_structured_report_is_byte_deterministic():
    cfg = SweepConfig(max_chords=3)
    first = document_to_json(cross_validate(cfg).document())
    second = document_to_json(cross_validate(cfg).document())
    assert first == second
    assert "wall" not in first  # timing must not leak into the document


def test_report_document_shape():
    doc = cross_validate(SweepConfig(max_chords=2)).document()
    assert doc["kind"] == "cross-validation"
    assert doc["total_diagrams"] == 3
    assert doc["total_disagreements"] == 0


def test_summary_lines_mention_every_size():
    report = cross_validate(SweepConfig(max_chords=2))
    assert report.summary_lines()[:2] == [
        "n=1: 1 diagrams, 1 realizable, 0 non-realizable, 0 disagreements",
        "n=2: 2 diagrams, 1 realizable, 1 non-realizable, 0 disagreements",
    ]
    assert report.summary_lines()[-1].startswith("total: 3 diagrams, 0 disagreements")


def test_counterexample_files_round_trip(tmp_path):
    d = diagram_from_word("1 2 1 2")
    fake = SweepReport(
        max_chords=2,
        require_non_isolated=False,
        rows=(
            SweepRow(
                n=2,
                total=2,
                realizable=1,
                non_realizable=1,
                disagreements=(
                    Disagreement(
                        word=d.word,
                        criterion=is_realizable(d),
                        oracle=oracle_realizable(diagram_from_word("1 1")),
                    ),
                ),
            ),
        ),
        wall_time=0.0,
    )
    batch_path, json_path = write_counterexamples(fake, str(tmp_path / "cx.txt"))
    batch = (tmp_path / "cx.txt").read_text().splitlines()
    assert batch[0].startswith("#")
    assert batch[1:] == ["1 2 1 2"]
    payload = json.loads((tmp_path / "cx.txt.json").read_text())
    assert payload["kind"] == "disagreements"
    entry = payload["entries"][0]
    assert entry["word"] == "1 2 1 2"
    assert entry["criterion"]["verdict"] == "non-realizable"
    assert entry["oracle"]["euler"] == 2
    assert (batch_path, json_path) == (
        str(tmp_path / "cx.txt"),
        str(tmp_path / "cx.txt.json"),
    )
