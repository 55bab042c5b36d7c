from __future__ import annotations

import itertools
import json

import pytest

from gaussreal import _kernels, enumeration
from gaussreal import (
    Disagreement,
    SweepConfig,
    SweepReport,
    SweepRow,
    canonical_keys,
    canonicalize,
    cross_validate,
    diagram_from_word,
    enumerate_canonical,
    is_realizable,
    oracle_realizable,
    symmetry_variants,
    write_counterexamples,
)
from gaussreal.codec import document_to_json

# Diagrams per chord count, counted up to rotation and reflection.
CANONICAL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 17, 5: 79}


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


def test_canonical_counts(canonical_by_n):
    for n, expected in CANONICAL_COUNTS.items():
        assert len(canonical_by_n(n)) == expected, n


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


def test_parallel_key_generation_matches_serial():
    assert canonical_keys(4, workers=2) == canonical_keys(4, workers=1)


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
                    max_chords=5,
                    require_non_isolated=require_non_isolated,
                    workers=workers,
                )
            ).document()
        )
        for workers in (1, 2)
    ]
    assert docs[0] == docs[1]


def test_disagreements_are_recorded_alike_by_one_and_two_workers(monkeypatch):
    # Worker processes are forked, so they see the patched oracle too.
    monkeypatch.setattr(enumeration, "oracle_realizable", lambda diagram: None)
    reports = [cross_validate(SweepConfig(max_chords=5, workers=w)) for w in (1, 2)]
    for report in reports:
        realizable = sum(row.realizable for row in report.rows)
        assert len(report.disagreements) == realizable == 25
        for d in report.disagreements:
            assert d.criterion.realizable and d.oracle is None
    assert document_to_json(reports[0].document()) == document_to_json(
        reports[1].document()
    )


def test_sweep_config_rejects_empty_ranges():
    with pytest.raises(ValueError):
        SweepConfig(max_chords=0)


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
