"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
criterion re-checks the library's central claims at desk scale: the
even-condition/smoothing decider must agree with the brute-force embedding
oracle on every diagram up to seven chords, the documented fixtures must
keep their exact verdicts, both smoothing routes must coincide, contour
colorings must obey the parity identity, and every structured report must
be byte-reproducible.
"""

from __future__ import annotations

import time

from gaussreal import (
    Disagreement,
    SweepConfig,
    SweepReport,
    SweepRow,
    build_c_contour,
    canonicalize,
    colorful_chords,
    color_complement,
    cross_validate,
    crossing_labels,
    diagram_from_word,
    even_condition,
    exists_colorful_witness,
    interlacement,
    is_realizable,
    oracle_realizable,
    smooth_by_toggle,
    smooth_by_word,
    surviving_labels,
    transfer_witness,
)
from gaussreal.codec import document_to_json

MAX_SWEEP = 7
ORACLE_BUDGET_S = 300.0
SMOOTHING_BUDGET_S = 60.0

REALIZABLE_7 = "1 2 3 4 5 1 6 3 7 5 4 7 2 6"
ODD_CHORD_4 = "1 2 3 1 4 2 4 3"
EVEN_NONREAL_6 = "1 2 3 4 5 6 2 1 4 3 6 5"
EVEN_NONREAL_8 = "0 1 2 3 4 5 6 0 1 7 3 2 5 6 7 4"
KINKED_8 = "c 1 2 3 4 5 1 6 3 4 7 c 8 7 5 2 6 8"
KINKED_8_SMOOTHED = "1 2 3 4 5 1 6 3 4 7 8 6 2 5 7 8"


def _report(number: int, ok: bool, detail: str) -> None:
    print("%s: criterion %d — %s" % ("PASS" if ok else "FAIL", number, detail))
    assert ok, "criterion %d: %s" % (number, detail)


def test_criterion_1_oracle_equivalence_sweep(verdicts_by_n):
    started = time.perf_counter()
    total = 0
    rows = []
    bad = 0
    for n in range(1, MAX_SWEEP + 1):
        splits = []
        for d, criterion_ok, oracle_witness in verdicts_by_n(n):
            total += 1
            if criterion_ok != (oracle_witness is not None):
                splits.append(
                    Disagreement(
                        word=d.word,
                        criterion=is_realizable(d),
                        oracle=oracle_witness,
                    )
                )
        realizable = sum(1 for _, ok, _ in verdicts_by_n(n) if ok)
        rows.append(
            SweepRow(
                n=n,
                total=len(verdicts_by_n(n)),
                realizable=realizable,
                non_realizable=len(verdicts_by_n(n)) - realizable,
                disagreements=tuple(splits),
            )
        )
        bad += len(splits)
    elapsed = time.perf_counter() - started
    if bad:
        from gaussreal import write_counterexamples

        report = SweepReport(
            max_chords=MAX_SWEEP,
            require_non_isolated=False,
            rows=tuple(rows),
            wall_time=elapsed,
        )
        paths = write_counterexamples(report, "acceptance-disagreements.txt")
        print("counterexamples written to %s and %s" % paths)
    _report(
        1,
        bad == 0 and elapsed < ORACLE_BUDGET_S,
        "dual-route sweep n <= %d: %d diagrams, %d disagreements, %.1fs"
        " (budget %.0fs)" % (MAX_SWEEP, total, bad, elapsed, ORACLE_BUDGET_S),
    )


def test_criterion_2_fixture_verdicts():
    checks = []

    d1 = diagram_from_word(REALIZABLE_7)
    checks.append(is_realizable(d1).realizable)

    d2 = diagram_from_word(ODD_CHORD_4)
    report2 = even_condition(d2)
    first = report2.violations[0]
    checks.append(not report2.holds)
    checks.append(not is_realizable(d2).realizable)
    checks.append(first.document() == {
        "kind": "chord",
        "chord": "2",
        "crossings": ["1", "3", "4"],
    })

    d6 = diagram_from_word(EVEN_NONREAL_6)
    checks.append(even_condition(d6).holds)
    checks.append(not is_realizable(d6).realizable)

    d8 = diagram_from_word(EVEN_NONREAL_8)
    witness = exists_colorful_witness(d8)
    checks.append(even_condition(d8).holds)
    checks.append(not is_realizable(d8).realizable)
    checks.append(witness is not None and witness.chord == "5")

    _report(
        2,
        all(checks),
        "fixture verdicts: %d/%d exact checks hold" % (sum(checks), len(checks)),
    )


def test_criterion_3_smoothing_routes_coincide(canonical_by_n):
    started = time.perf_counter()
    checked = 0
    mismatches = 0
    for n in range(1, MAX_SWEEP):
        for d in canonical_by_n(n):
            for chord in d.labels:
                word_route = smooth_by_word(d, chord)
                by_label = crossing_labels(
                    word_route.diagram, interlacement(word_route.diagram)
                )
                toggle = smooth_by_toggle(d, chord)
                labels = surviving_labels(d, chord)
                expected = {
                    labels[i]: frozenset(labels[j] for j in toggle.crossings[i])
                    for i in range(len(labels))
                }
                if by_label != expected:
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - started
    _report(
        3,
        mismatches == 0 and elapsed < SMOOTHING_BUDGET_S,
        "word-route vs toggle-route smoothing n <= %d: %d smoothings,"
        " %d mismatches, %.1fs (budget %.0fs)"
        % (MAX_SWEEP - 1, checked, mismatches, elapsed, SMOOTHING_BUDGET_S),
    )


def test_criterion_4_smoothing_regression():
    smoothed = smooth_by_word(diagram_from_word(KINKED_8), "c")
    ok = (
        canonicalize(smoothed.diagram).key
        == canonicalize(diagram_from_word(KINKED_8_SMOOTHED)).key
    )
    _report(4, ok, "smoothing chord c reproduces the recorded curve word")


def test_criterion_5_parity_identity(canonical_by_n):
    checked = 0
    violations = 0
    for n in range(1, MAX_SWEEP):
        for d in canonical_by_n(n):
            inter = interlacement(d)
            for a in range(d.n):
                for selector in (0, 1):
                    contour = build_c_contour(d, d.labels[a], selector)
                    hits = colorful_chords(d, contour, color_complement(contour))
                    outside = (
                        set(range(d.n)) - {a} - contour.members - contour.doors
                    )
                    for b in outside:
                        odd = len(inter.crossings[a] & inter.crossings[b]) % 2
                        if bool(odd) != (d.labels[b] in hits):
                            violations += 1
                        checked += 1
    _report(
        5,
        violations == 0,
        "colorful(b) iff |a_x & b_x| odd, n <= %d: %d outside chords,"
        " %d violations" % (MAX_SWEEP - 1, checked, violations),
    )


def test_criterion_6_witness_existence_and_transfer(verdicts_by_n):
    cases = 0
    failures = 0
    for n in range(1, MAX_SWEEP):
        for d, _, oracle_witness in verdicts_by_n(n):
            if oracle_witness is not None or not even_condition(d).holds:
                continue
            cases += 1
            witness = exists_colorful_witness(d)
            if witness is None:
                failures += 1
                continue
            result, contour, coloring = transfer_witness(d, witness)
            if witness.chord not in colorful_chords(
                result.diagram, contour, coloring
            ):
                failures += 1
    _report(
        6,
        failures == 0 and cases > 0,
        "even + oracle-non-realizable n <= %d: %d cases, all witnesses"
        " found and transferred, %d failures" % (MAX_SWEEP - 1, cases, failures),
    )


def test_criterion_7_necessity(verdicts_by_n):
    checked = 0
    violations = 0
    for n in range(1, MAX_SWEEP + 1):
        for d, _, oracle_witness in verdicts_by_n(n):
            if oracle_witness is None:
                continue
            checked += 1
            if not even_condition(d).holds:
                violations += 1
    _report(
        7,
        violations == 0,
        "every oracle-realizable diagram n <= %d passes the even condition:"
        " %d diagrams, %d violations" % (MAX_SWEEP, checked, violations),
    )


def test_criterion_8_deterministic_reports():
    cfg = SweepConfig(max_chords=4)
    first = document_to_json(cross_validate(cfg).document())
    second = document_to_json(cross_validate(cfg).document())
    _report(
        8,
        first == second,
        "repeated cross-validate runs emit byte-identical reports"
        " (%d bytes)" % len(first),
    )
