from __future__ import annotations

import multiprocessing

import pytest

from gaussreal import (
    EmptyDiagram,
    GaussWord,
    OracleBudgetExceeded,
    RotationSystem,
    build_map,
    canonicalize,
    diagram_from_word,
    enumerate_canonical,
    oracle_realizable,
    symmetry_variants,
    trace_faces,
)
from gaussreal.oracle import witness_for_mask


def _all_rotations(n):
    return (RotationSystem.from_mask(n, mask) for mask in range(1 << n))


def test_map_counts_are_forced():
    m = build_map(diagram_from_word("1 2 1 2"))
    assert (m.vertices, m.edges, m.num_darts) == (2, 4, 8)
    m = build_map(diagram_from_word("1 2 3 1 2 3"))
    assert (m.vertices, m.edges) == (3, 6)
    m = build_map(diagram_from_word("1 1"))
    assert (m.vertices, m.edges) == (1, 2)
    with pytest.raises(EmptyDiagram):
        build_map(diagram_from_word(""))


def test_kink_has_three_faces_either_way():
    m = build_map(diagram_from_word("1 1"))
    for rotation in _all_rotations(1):
        assert len(trace_faces(m, rotation)) == 3  # V - E + F = 1 - 2 + 3 = 2


def test_two_crossing_chords_never_reach_four_faces():
    m = build_map(diagram_from_word("1 2 1 2"))
    assert [len(trace_faces(m, r)) for r in _all_rotations(2)] == [2, 2, 2, 2]
    assert oracle_realizable(diagram_from_word("1 2 1 2")) is None


def test_trefoil_witness_is_the_least_planar_mask():
    d = diagram_from_word("1 2 3 1 2 3")
    witness = oracle_realizable(d)
    assert witness is not None
    assert witness.face_count == 5  # 3 - 6 + 5 = 2
    assert witness.euler == 2
    m = build_map(d)
    brute = [
        mask
        for mask in range(8)
        if len(trace_faces(m, RotationSystem.from_mask(3, mask))) == 5
    ]
    assert witness.rotation.mask == brute[0]


def test_faces_partition_darts_and_euler_is_even_and_at_most_two():
    for n in range(1, 5):
        for d in enumerate_canonical(n):
            m = build_map(d)
            for rotation in _all_rotations(d.n):
                faces = trace_faces(m, rotation)
                darts = sorted(x for f in faces for x in f)
                assert darts == list(range(4 * d.n))
                euler = d.n - 2 * d.n + len(faces)
                assert euler <= 2 and euler % 2 == 0


def test_verdict_is_a_symmetry_invariant():
    for text in ("1 2 3 1 2 3", "1 2 1 3 2 3", "1 2 3 4 1 3 2 4"):
        d = diagram_from_word(text)
        verdict = oracle_realizable(d) is not None
        for tokens in symmetry_variants(d.word):
            assert (oracle_realizable(diagram_from_word(GaussWord(tokens))) is not None) == verdict


def test_verdict_is_constant_on_canonical_classes(verdicts_by_n):
    for d, _, witness in verdicts_by_n(4):
        variant = sorted(symmetry_variants(d.word))[0]
        flipped = oracle_realizable(diagram_from_word(GaussWord(variant)))
        assert (flipped is not None) == (witness is not None)


def test_empty_diagram_is_the_plain_circle():
    witness = oracle_realizable(diagram_from_word(""))
    assert witness is not None and witness.euler == 2 and witness.faces == ()


def test_witness_retraces_to_the_same_faces():
    d = diagram_from_word("1 2 3 4 5 1 6 3 7 5 4 7 2 6")
    witness = oracle_realizable(d)
    assert witness is not None
    again = witness_for_mask(d, witness.rotation.mask)
    assert again == witness
    assert again.face_count == d.n + 2


def test_budget_guard_refuses_huge_searches():
    curls = " ".join("%d %d" % (c, c) for c in range(1, 26))
    with pytest.raises(OracleBudgetExceeded):
        oracle_realizable(diagram_from_word(curls))


def test_parallel_search_matches_serial():
    curls = " ".join("%d %d" % (c, c) for c in range(1, 13))
    serial = oracle_realizable(diagram_from_word(curls))
    parallel = oracle_realizable(diagram_from_word(curls), workers=2)
    assert serial == parallel
    assert multiprocessing.active_children() == []  # the early hit ended the pool
    tangle = "1 2 1 2 " + " ".join("%d %d" % (c, c) for c in range(3, 13))
    assert oracle_realizable(diagram_from_word(tangle), workers=2) is None


def test_canonical_forms_keep_the_verdict():
    d = diagram_from_word("1 2 3 4 5 6 2 1 4 3 6 5")
    assert oracle_realizable(d) is None
    assert oracle_realizable(canonicalize(d).diagram()) is None
