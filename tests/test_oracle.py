from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("n", range(1, 7))
def test_flipping_every_bit_keeps_the_face_count(n, canonical_by_n):
    full = (1 << n) - 1
    for d in canonical_by_n(n):
        m = build_map(d)
        for mask in range(1 << (n - 1)):  # each complementary pair once
            faces = trace_faces(m, RotationSystem.from_mask(n, mask))
            mirror = trace_faces(m, RotationSystem.from_mask(n, mask ^ full))
            assert len(faces) == len(mirror)


def _crossing_components(diagram):
    """Chord masks of the components of the crossing graph."""
    ends = diagram.endpoints

    def cross(a, b):
        (f, s), (p, q) = ends[a], ends[b]
        return (f < p < s) != (f < q < s)

    components = []
    seen = 0
    for c in range(diagram.n):
        if seen >> c & 1:
            continue
        component, todo = 0, [c]
        while todo:
            a = todo.pop()
            if not component >> a & 1:
                component |= 1 << a
                todo.extend(b for b in range(diagram.n) if cross(a, b))
        seen |= component
        components.append(component)
    return components


@pytest.mark.parametrize("n", range(1, 7))
def test_flipping_a_crossing_component_keeps_the_face_count(n, canonical_by_n):
    """The fact that lets the search fix one bit per component."""
    for d in canonical_by_n(n):
        faces = [witness_for_mask(d, mask).face_count for mask in range(1 << n)]
        for component in _crossing_components(d):
            for mask in range(1 << n):
                assert faces[mask ^ component] == faces[mask], (d.word, mask)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(n)) * 2),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        )
    )
)
def test_flipping_a_crossing_component_keeps_the_face_count_on_random_words(case):
    word, mask = case
    d = diagram_from_word(GaussWord.from_tokens(word))
    faces = witness_for_mask(d, mask).face_count
    for component in _crossing_components(d):
        assert witness_for_mask(d, mask ^ component).face_count == faces


def _unhalved_least_mask(diagram):
    """The least of all 2**n masks whose traced faces give Euler 2."""
    m = build_map(diagram)
    rotations = _all_rotations(diagram.n)
    spherical = (r for r in rotations if len(trace_faces(m, r)) == diagram.n + 2)
    return next((r.mask for r in spherical), -1)


@pytest.mark.parametrize("n", range(1, 8))
def test_halved_search_finds_the_least_mask_of_the_full_search(n, verdicts_by_n):
    for d, _, witness in verdicts_by_n(n):
        mask = -1 if witness is None else witness.rotation.mask
        assert mask == _unhalved_least_mask(d)


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.permutations(list(range(n)) * 2)
    )
)
def test_halved_search_matches_the_full_search_on_random_words(word):
    d = diagram_from_word(GaussWord.from_tokens(word))
    witness = oracle_realizable(d)
    mask = -1 if witness is None else witness.rotation.mask
    assert mask == _unhalved_least_mask(d)


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
    curls = " ".join("%d %d" % (c, c) for c in range(1, 65))
    with pytest.raises(OracleBudgetExceeded):
        oracle_realizable(diagram_from_word(curls))


def test_canonical_forms_keep_the_verdict():
    d = diagram_from_word("1 2 3 4 5 6 2 1 4 3 6 5")
    assert oracle_realizable(d) is None
    assert oracle_realizable(canonicalize(d).diagram()) is None
